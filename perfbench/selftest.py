"""Checks of the benchmark itself.

    python3 perfbench/selftest.py

- determinism: traced runs of every workload under two PYTHONHASHSEED
  values give byte-identical verdict records and equal per-layer counts;
- trace integrity: the counts the wrappers record equal the engines'
  own statistics, and every wrapped attribute holds its original again
  after the traced pass;
- BENCHMARK.json names exactly the metrics the benchmark reports.

Prints one PASS/FAIL line per check; exits 1 when one fails.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from layout import BENCH_DIR, OUT, ROOT, use_checkout_sources

HASH_SEEDS = ("0", "1")


def traced_records(workload: str, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode or not result["correct"]:
        raise AssertionError(f"traced {workload} run failed (exit {proc.returncode})")
    return json.loads((OUT / f"{workload}-records.json").read_text())


def check_determinism(workload: str) -> list[str]:
    first, second = (traced_records(workload, seed) for seed in HASH_SEEDS)
    problems = []
    if first["verdicts"] != second["verdicts"]:
        problems.append("verdict records differ")
    problems += [f"{name}: {first['counts'][name]} vs {second['counts'].get(name)}"
                 for name in first["counts"]
                 if first["counts"][name] != second["counts"].get(name)]
    for key in ("tableau.tasks", "forest.a1.blocking_checks",
                "forest.a1.paths_set_calls", "matcher.units_tried"):
        if key not in first["counts"]:
            problems.append(f"count {key} missing")
    return problems


def check_trace_integrity() -> list[str]:
    import tracer as tracing
    import workloads

    workload = workloads.load("deep")
    tracer = tracing.Tracer()
    with tracer:
        wrapped = [vars(owner)[attr] is not original
                   for owner, attr, original in tracer._originals]
        result = workloads.run_pass(workload, workload.order(1), tracer=tracer)
    problems = tracing.integrity_problems(tracer.totals(), result.stats)
    problems += result.failures
    if not all(wrapped):
        problems.append("some probe was not installed")
    if not tracer.restored():
        problems.append("some wrapped attribute was not restored")
    leftover = [f"{owner.__name__}.{attr}" for _, owner, attr, _, _ in tracing.PROBES
                if hasattr(vars(owner)[attr], "__wrapped__")]
    problems += [f"{name} still wrapped" for name in leftover]
    return problems


def check_benchmark_json() -> list[str]:
    import tracer as tracing
    from run import END_TO_END, WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [m["name"] for m in spec["end_to_end"]] != list(END_TO_END):
        problems.append("end_to_end metrics differ from run.END_TO_END")
    if sorted(m["name"] for m in spec["per_layer"]) != sorted(tracing.LAYER_METRICS):
        problems.append("per_layer metrics differ from tracer.LAYER_METRICS")
    for m in spec["end_to_end"] + spec["per_layer"]:
        unit = END_TO_END.get(m["name"]) or tracing.UNITS.get(m["name"])
        if m["unit"] != unit:
            problems.append(f"{m['name']}: unit {m['unit']}, reported {unit}")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("workloads differ from run.WORKLOADS")
    return problems


def main() -> int:
    use_checkout_sources()
    from run import WORKLOADS

    checks = [(f"determinism {w}", lambda w=w: check_determinism(w)) for w in WORKLOADS]
    checks += [("trace integrity", check_trace_integrity), ("BENCHMARK.json", check_benchmark_json)]
    status = 0
    for name, check in checks:
        problems = check()
        print(f"{'PASS' if not problems else 'FAIL'} {name}")
        for problem in problems:
            print(f"  {problem}")
        status |= bool(problems)
    return status


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the folp satisfiability checkers.

    python3 perfbench/run.py --workload family --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30     # one row per workload
    python3 perfbench/run.py --workload all --trace 1        # per-layer table

One workload runs in one process, single-threaded, as a closed loop:
each pass sets up every program of the workload and asks every query
once, the next call starting when the previous one returns (see
`workloads.py`). Passes repeat until the next one would overrun
`--seconds`. Each time metric is the median seconds of one sweep,
scaled to the reference speed of `workloads.calibrate` (see there).

`--trace 0` reports the end-to-end metrics: `setup_s`, `a1_s`, `a2_s`,
`oracle_s` (seconds per sweep) and `peak_rss_mb`. `--trace 1` alternates
untraced passes with passes under `tracer.Tracer` and reports the
per-layer metrics, including `overhead.<phase>_s`, traced minus
untraced median sweep time. Every verdict is checked against the pinned
references in every pass. The last line of standard output is one JSON
object: `correct`, `attempted` and `failed` count queries over all
passes, `metrics` maps names to values with units. The exit code is 1
when a check failed and 2 when the benchmark could not run. With
`--workload all`, each workload runs in its own child process and the
command prints a table instead, with `error_rate` = failed / attempted.

Outputs land in `.perfbench-out/` at the root of the checkout: the
verdict records of each workload and, for a traced run, its spans.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time

from layout import BENCH_DIR, OUT, BenchError, use_checkout_sources

WORKLOADS = ("family", "hard", "deep", "corpus")
END_TO_END = {"setup_s": "s", "a1_s": "s", "a2_s": "s", "oracle_s": "s", "peak_rss_mb": "MiB"}
SWEEP_SECONDS = 0.6  # least time per phase and pass in the untraced run


def closed_loop(run_one, deadline: float, min_passes: int) -> list:
    """Call run_one(i) for i = 0, 1, ... while the median pass still fits
    before the deadline, and at least min_passes times."""
    results, durations = [], []
    while True:
        gc.collect()
        start = time.perf_counter()
        results.append(run_one(len(results)))
        durations.append(time.perf_counter() - start)
        ahead = time.perf_counter() + statistics.median(durations)
        if len(results) >= min_passes and ahead > deadline:
            return results


def check_passes(passes) -> list[str]:
    """Failures of every pass, plus any verdict record that changed
    between passes (the engines are deterministic)."""
    failures = [f for p in passes for f in p.failures]
    first = passes[0].records
    for i, p in enumerate(passes[1:], start=1):
        failures += [f"query {q}: verdict record of pass {i} differs from pass 0"
                     for q, (a, b) in enumerate(zip(first, p.records)) if a != b]
    return failures


def median_sweep(passes, phase: str, kind: str = "samples") -> float:
    return statistics.median(t for p in passes for t in getattr(p, kind)[phase])


def untraced(workload, order, seconds: float):
    """Passes whose short phases repeat their sweeps; each time metric is
    the median of its scaled sweep times over all passes."""
    import workloads

    passes = closed_loop(
        lambda i: workloads.run_pass(workload, order, min_seconds=SWEEP_SECONDS),
        time.perf_counter() + seconds, min_passes=1)
    metrics = {f"{phase}_s": median_sweep(passes, phase) for phase in workloads.PHASES}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sweeps = ", ".join(f"{sum(len(p.samples[phase]) for p in passes)} {phase}"
                       for phase in workloads.PHASES)
    wall = ", ".join(f"{phase} {median_sweep(passes, phase, 'wall'):.4g}"
                     for phase in workloads.PHASES)
    print(f"{workload.name}: {len(passes)} passes; sweeps: {sweeps}; median wall s: {wall}")
    return passes, metrics, END_TO_END, [], {}


def traced(workload, order, seconds: float):
    """Untraced and traced passes alternate, one sweep per phase each."""
    import tracer as tracing
    import workloads

    tracer = tracing.Tracer()
    layer_runs: list[dict] = []
    problems: list[str] = []

    def run_one(i):
        if i % 2 == 0:
            return workloads.run_pass(workload, order)
        tracer.clear()
        with tracer:
            result = workloads.run_pass(workload, order, tracer=tracer)
        if not tracer.restored():
            problems.append("a wrapped attribute was not restored")
        totals = tracer.totals()
        problems.extend(tracing.integrity_problems(totals, result.stats))
        layer_runs.append(tracing.pass_layer_metrics(totals, result.stats, result.speed))
        return result

    passes = closed_loop(run_one, time.perf_counter() + seconds, min_passes=2)
    plain, with_spans = passes[0::2], passes[1::2]
    metrics = {}
    for name in layer_runs[0]:
        values = [run[name] for run in layer_runs]
        if tracing.UNITS[name] == "s":
            metrics[name] = statistics.median(values)
        else:
            if len(set(values)) != 1:
                problems.append(f"{name} differs between traced passes: {values}")
            metrics[name] = values[-1]
    plain_seconds = {phase: median_sweep(plain, phase) for phase in workloads.PHASES}
    metrics.update(tracing.per_task(metrics, plain_seconds))
    for phase in workloads.PHASES:
        metrics[f"overhead.{phase}_s"] = median_sweep(with_spans, phase) - plain_seconds[phase]
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"{workload.name}-spans.npz")
    counts = {k: v for k, v in metrics.items() if tracing.UNITS[k] in ("count", "ratio")}
    print(f"{workload.name}: {len(plain)} untraced and {len(with_spans)} traced passes, "
          f"{len(tracer.start)} spans in the last")
    return passes, metrics, tracing.UNITS, problems, {"counts": counts}


def run_workload(args) -> int:
    try:
        use_checkout_sources()
        import workloads

        workload = workloads.load(args.workload)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    order = workload.order(args.seed)
    measure = traced if args.trace else untraced
    passes, metrics, units, problems, extra = measure(workload, order, args.seconds)
    failures = check_passes(passes) + problems
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    sweeps = {kind: {phase: [t for p in passes for t in getattr(p, kind)[phase]]
                     for phase in passes[0].samples}
              for kind in ("samples", "wall")}
    records = {"workload": workload.name, "seed": args.seed, "sweep_seconds": sweeps,
               "speed": [p.speed for p in passes], "verdicts": passes[0].records, **extra}
    (OUT / f"{workload.name}-records.json").write_text(json.dumps(records, indent=1) + "\n")
    result = {
        "correct": not failures,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


def run_all(args) -> int:
    """Each workload in its own process; one table row per workload."""
    rows, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        try:
            rows[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit code {proc.returncode})", file=sys.stderr)
            return 2
        status = max(status, proc.returncode)
    if args.trace:
        print_layers(rows)
    else:
        print_end_to_end(rows)
    return status


def print_end_to_end(rows: dict) -> None:
    head = ["workload"] + [f"{m} [{u}]" for m, u in END_TO_END.items()] + ["error_rate [ratio]"]
    print("  ".join(f"{h:>18}" for h in head))
    for name, row in rows.items():
        cells = [name] + [f"{row['metrics'][m]['value']:.4f}" for m in END_TO_END]
        cells.append(f"{row['failed'] / row['attempted']:.4f} ({row['failed']}/{row['attempted']})")
        print("  ".join(f"{c:>18}" for c in cells))


def print_layers(rows: dict) -> None:
    names = sorted(next(iter(rows.values()))["metrics"])
    print(f"{'metric':<34}{'unit':>7}" + "".join(f"{w:>14}" for w in rows))
    for metric in names:
        unit = next(iter(rows.values()))["metrics"][metric]["unit"]
        cells = "".join(f"{row['metrics'][metric]['value']:>14.6g}" for row in rows.values())
        print(f"{metric:<34}{unit:>7}{cells}")
    print(f"{'correct':<41}" + "".join(f"{str(row['correct']):>14}" for row in rows.values()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1, help="fixes the query order")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time of one workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

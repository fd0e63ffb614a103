"""Draw the `corpus` workload and its reference verdicts.

    python3 perfbench/draw_corpus.py                 # rewrite data/corpus.json
    python3 perfbench/draw_corpus.py --seed 7 --out held_out.json

Candidates come from `random_program_text` in `tests/corpus.py`, in the
order its seeded generator yields them. A candidate is kept when it
parses, validates, has a unary predicate, fits the oracle at universe
size 3 (at most 14 relevant atoms, as in the test corpus), and both
engines answer every query within a fixed task budget at
`k_override=5`. No filter reads the clock, so a seed always gives the
same corpus. The drop counts per filter are stored with the programs.

Each kept query gets its reference from the run itself: both engines
must agree, no engine verdict may contradict the oracle, and every
finite engine witness must be an answer set. A draw that breaks one of
these rules prints the cases and exits 1, which makes a fresh seed a
held-out check of the engines.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from collections import Counter

from layout import DATA, ROOT, BenchError, use_checkout_sources

SEED = 20260810
COUNT = 400
K_OVERRIDE = 5
ORACLE_SIZE = 3
RELEVANT_BITS = 14
TASK_BUDGET = 2_000  # per query and engine
COMPILE_TASK_BUDGET = 200_000


def draw(seed: int, count: int) -> tuple[dict, list[str]]:
    sys.path.insert(0, str(ROOT / "tests"))
    from corpus import random_program_text

    from folp import oracle, syntax
    from folp.oracle import OracleBudgetError, Universe
    from folp.syntax import FolpError
    from folp.tableau import EngineBudgetError, RedundancyPolicy
    from workloads import Clock, ask, prepare, problems

    rng = random.Random(seed)
    policy = RedundancyPolicy(k_override=K_OVERRIDE, max_tasks=TASK_BUDGET)
    dropped: Counter = Counter()
    over_budget: list[str] = []
    programs: list[dict] = []
    failures: list[str] = []
    clock = Clock()
    while len(programs) < count:
        text = random_program_text(rng)
        try:
            program = syntax.parse_program(text)
        except FolpError:
            dropped["parse"] += 1
            continue
        if syntax.validate_folp(program):
            dropped["not_folp"] += 1
            continue
        if not program.upreds:
            dropped["no_unary_predicate"] += 1
            continue
        universe = Universe.for_program(program, max(ORACLE_SIZE, len(program.constants)))
        try:
            oracle.answer_sets(program, universe, budget=2**RELEVANT_BITS)
        except OracleBudgetError:
            dropped["oracle_budget"] += 1
            continue
        try:
            prep = prepare(text, clock, len(programs), compile_tasks=COMPILE_TASK_BUDGET)
        except EngineBudgetError:
            dropped["task_budget"] += 1
            over_budget.append(text)
            continue
        outcomes = [ask(prep, pred, policy, ORACLE_SIZE, clock, 0) for pred in program.upreds]
        if any("EngineBudgetError" in e for o in outcomes for e in o.errors):
            dropped["task_budget"] += 1
            over_budget.append(text)
            continue
        queries = []
        for out in outcomes:
            found = problems(out, None, None)
            failures += [f"program {len(programs)} ({out.pred}): {p}" for p in found]
            verdict = out.verdicts["a1"].kind.value
            queries.append([out.pred, verdict, out.oracle_witness, _backing(out, verdict)])
        programs.append({"text": text, "queries": queries})
    queries = [q for p in programs for q in p["queries"]]
    spec = {
        "seed": seed,
        "count": count,
        "k_override": K_OVERRIDE,
        "oracle_size": ORACLE_SIZE,
        "relevant_bits": RELEVANT_BITS,
        "task_budget": TASK_BUDGET,
        "compile_task_budget": COMPILE_TASK_BUDGET,
        "candidates": count + sum(dropped.values()),
        "dropped": dict(sorted(dropped.items())),
        "dropped_over_task_budget": over_budget,
        "queries": len(queries),
        "sat_queries": sum(1 for q in queries if q[1] == "SAT"),
        "backing": dict(sorted(Counter(q[3] for q in queries).items())),
        "programs": programs,
    }
    return spec, failures


def _backing(out, verdict: str) -> str:
    """What stands behind a reference verdict."""
    if verdict == "UNSAT":
        return "no-oracle-witness" if not out.oracle_witness else "contradicted"
    if out.oracle_witness:
        return "oracle-witness"
    if any(out.witness_checks.values()):
        return "engine-witness"
    return "blocked-engine-witness"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--out", help="output file (default: data/corpus.json for the pinned seed)")
    args = parser.parse_args(argv)
    try:
        use_checkout_sources()
        spec, failures = draw(args.seed, COUNT)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    out = args.out or (DATA / "corpus.json" if args.seed == SEED else None)
    if out is not None:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(spec, handle, indent=1, sort_keys=True)
            handle.write("\n")
    summary = {k: spec[k] for k in ("seed", "count", "candidates", "dropped", "queries",
                                    "sat_queries", "backing")}
    print(json.dumps(summary, sort_keys=True))
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

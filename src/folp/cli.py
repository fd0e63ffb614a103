"""Command-line front end: satisfiability checks, unit compilation,
oracle-backed verification, benchmarking, and DOT export.

Exit codes: 0 satisfiable, 1 unsatisfiable, 2 depth-bounded unknown,
3 input error (missing or non-UTF-8 file, an output path that cannot be
written, parse or validation failure, malformed cache, bad usage such as
a bench corpus that is not a directory), 4 engine disagreement,
a SAT witness the oracle rejects, or verification inconsistency, 5
resource budget exceeded.

Machine-readable output is one JSON record per line with sorted keys;
verdict records carry no wall-clock fields, so byte-identical inputs
produce byte-identical records. Engines always run single-task; the
--deterministic flag is accepted for interface stability.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import NoReturn, Optional

from . import oracle
from .forest import StructureError
from .matcher import check_sat_a2
from .syntax import (
    FolpError,
    ProgramParseError,
    Program,
    eliminate_constraints,
    parse_program,
    validate_folp,
)
from .tableau import (
    EngineBudgetError,
    RedundancyPolicy,
    Verdict,
    VerdictKind,
    check_sat_a1,
)
from .units import CompileSummary, compile_units, load_cache, save_cache

EXIT_SAT = 0
EXIT_UNSAT = 1
EXIT_UNKNOWN = 2
EXIT_INPUT = 3
EXIT_DISAGREEMENT = 4
EXIT_BUDGET = 5


class _InputError(FolpError):
    """Bad input or usage, reported like every FolpError (exit 3)."""


class _Parser(argparse.ArgumentParser):
    """Bad usage is an input error (exit 3), not argparse's exit 2."""

    def error(self, message: str) -> NoReturn:
        raise _InputError(f"{self.format_usage()}{self.prog}: error: {message}")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _seconds(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(
            f"expected a finite number of seconds >= 0, got {text!r}"
        )
    return value


def _load_program(
    path: str, predicate: Optional[str] = None
) -> tuple[Program, Program]:
    """Returns (original, constraint-free) or raises _InputError, also
    when `predicate` is given and is not a unary predicate."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise _InputError(f"cannot read {path}: {err}") from err
    try:
        program = parse_program(text)
    except ProgramParseError as err:
        details = "\n".join(f"  {e}" for e in err.errors)
        raise _InputError(f"parse errors in {path}:\n{details}") from err
    violations = validate_folp(program)
    if violations:
        details = "\n".join(f"  {v}" for v in violations)
        raise _InputError(f"not a valid forest logic program ({path}):\n{details}")
    if predicate is not None and predicate not in program.upreds:
        raise _InputError(f"{predicate!r} is not a unary predicate")
    return program, eliminate_constraints(program)


@contextmanager
def _writing(path):
    """An output path that cannot be written, such as one in a missing
    directory, is an input error (exit 3)."""
    try:
        yield
    except OSError as err:
        raise _InputError(f"cannot write {path}: {err}") from err


def _policy(args) -> RedundancyPolicy:
    return RedundancyPolicy(
        k_override=args.redundancy_k,
        max_depth=args.max_depth,
        time_limit=args.time_limit,
    )


def _emit(args, record: dict, text: str) -> None:
    if args.format == "machine":
        print(json.dumps(record, sort_keys=True))
    else:
        print(text)


def _witness_check(verdict: Verdict, original: Program):
    """The oracle's check of a SAT verdict's witness: ("accepted" or
    "REJECTED", the induced interpretation), or ("skipped-blocked",
    None) for a witness with blocking pairs, which stands for an
    infinite model."""
    try:
        interp = verdict.witness.induced_interpretation()
    except StructureError:
        return "skipped-blocked", None
    return ("accepted" if oracle.is_answer_set(original, interp) else "REJECTED"), interp


def _witness_report(args, verdict: Verdict, original: Program) -> Optional[str]:
    """Emit the witness of a SAT verdict with the oracle's check, and
    return the check's status (see `_witness_check`)."""
    if verdict.kind is not VerdictKind.SAT:
        return None
    status, interp = _witness_check(verdict, original)
    if interp is None:
        _emit(
            args,
            {"record": "witness", "algorithm": verdict.algorithm, "blocked": True},
            f"witness ({verdict.algorithm}): contains blocking pairs; it stands "
            "for an infinite model, finite extraction skipped",
        )
        return status
    accepted = status == "accepted"
    _emit(
        args,
        {
            "record": "witness",
            "algorithm": verdict.algorithm,
            "blocked": False,
            "elements": list(interp.universe.elements),
            "atoms": sorted(oracle.format_atom(a) for a in interp.atoms),
            "oracle_accepted": accepted,
        },
        f"witness ({verdict.algorithm}):\n"
        + interp.format_witness()
        + f"oracle accepts witness: {'yes' if accepted else 'NO'}",
    )
    return status


def _a2_cache(args, transformed: Program):
    if args.cache:
        return load_cache(args.cache, transformed)
    if not args.auto_cache:
        raise _InputError("a2 requires --cache PATH or --auto-cache")
    return compile_units(transformed, time_limit=args.time_limit).cache


def cmd_check(args) -> int:
    original, transformed = _load_program(args.program, args.predicate)
    policy = _policy(args)
    verdicts: list[Verdict] = []
    if args.alg in ("a1", "both"):
        verdicts.append(check_sat_a1(transformed, args.predicate, policy))
    if args.alg in ("a2", "both"):
        cache = _a2_cache(args, transformed)
        verdicts.append(check_sat_a2(transformed, args.predicate, cache, policy))
    rejected: list[str] = []
    for verdict in verdicts:
        _emit(
            args,
            verdict.to_record(),
            f"{verdict.algorithm}: {verdict.kind.value}"
            + (" (bounded-incomplete)" if verdict.bounded_incomplete else "")
            + f"  [{_stat_line(verdict)}]",
        )
        if _witness_report(args, verdict, original) == "REJECTED":
            rejected.append(verdict.algorithm)
    kinds = {v.kind for v in verdicts}
    if len(kinds) > 1:
        _emit(
            args,
            {"record": "error", "error": "engine disagreement",
             "verdicts": sorted(k.value for k in kinds)},
            "fatal: the engines disagree: "
            + ", ".join(f"{v.algorithm}={v.kind.value}" for v in verdicts),
        )
    if rejected:
        _emit(
            args,
            {"record": "error", "error": "oracle rejected witness", "algorithms": rejected},
            "fatal: the oracle rejects the witness of " + ", ".join(rejected),
        )
    if len(kinds) > 1 or rejected:
        return EXIT_DISAGREEMENT
    if args.dot and verdicts and verdicts[-1].witness is not None:
        with _writing(args.dot):
            Path(args.dot).write_text(verdicts[-1].witness.to_dot(), encoding="utf-8")
    return verdicts[0].exit_code


# (label, verdict record field) of the counts in a text verdict line
_STAT_FIELDS = (
    ("nodes", "nodes_created"),
    ("choices", "choice_points"),
    ("backtracks", "backtracks"),
    ("depth", "max_depth"),
    ("units-tried", "units_tried"),
    ("matches", "unit_matches"),
    ("reuse", "unit_reuse"),
)


def _stat_line(verdict: Verdict) -> str:
    """The counts the verdict record holds (unit counts only for a2)."""
    record = verdict.to_record()
    return " ".join(
        f"{label}={record[name]}" for label, name in _STAT_FIELDS if name in record
    )


def cmd_compile_units(args) -> int:
    _, transformed = _load_program(args.program)
    summary: CompileSummary = compile_units(transformed, time_limit=args.time_limit)
    out = args.out or (args.program + ".units")
    with _writing(out):
        save_cache(summary.cache, out)
    record = summary.to_record()
    record["path"] = str(out)
    _emit(
        args,
        record,
        f"enumerated {summary.enumerated} unit completion structures "
        f"({summary.final} final); {summary.redundant} redundant, "
        f"{summary.retained} retained -> {out}",
    )
    return 0


def cmd_verify(args) -> int:
    original, transformed = _load_program(args.program, args.predicate)
    policy = _policy(args)
    v1 = check_sat_a1(transformed, args.predicate, policy)
    cache = _a2_cache(args, transformed)
    v2 = check_sat_a2(transformed, args.predicate, cache, policy)
    max_size = max(args.max_universe, max(1, len(original.constants)))
    oracle_witness = None
    oracle_status = "none"
    try:
        oracle_witness = oracle.bounded_sat(
            original, args.predicate, max_size, budget=args.oracle_budget
        )
        if oracle_witness is not None:
            oracle_status = "witness"
    except oracle.OracleBudgetError:
        oracle_status = "budget-exceeded"

    problems: list[str] = []
    if v1.kind != v2.kind:
        problems.append(f"engines disagree: a1={v1.kind.value} a2={v2.kind.value}")
    if oracle_status == "witness" and VerdictKind.UNSAT in (v1.kind, v2.kind):
        problems.append("oracle found a witness but an engine reports UNSAT")

    witness_checks: dict[str, str] = {}
    for verdict in (v1, v2):
        if verdict.kind is not VerdictKind.SAT:
            continue
        status, _ = _witness_check(verdict, original)
        witness_checks[verdict.algorithm] = status
        if status == "REJECTED":
            problems.append(f"oracle rejected the {verdict.algorithm} witness")

    record = {
        "record": "verify",
        "predicate": args.predicate,
        "a1": v1.kind.value,
        "a2": v2.kind.value,
        "oracle": oracle_status,
        "oracle_max_size": max_size,
        "witness_checks": witness_checks,
        "consistent": not problems,
        "problems": problems,
    }
    lines = [
        f"a1: {v1.kind.value}",
        f"a2: {v2.kind.value}",
        f"oracle (universes up to {max_size}): {oracle_status}"
        + (
            f"\n{oracle_witness.format_witness()}".rstrip()
            if oracle_witness is not None
            else ""
        ),
    ]
    for alg, status in witness_checks.items():
        note = {
            "accepted": "induced model accepted by the answer-set semantics",
            "skipped-blocked": "witness contains blocking pairs; oracle check "
            "skipped (it stands for an infinite model)",
            "REJECTED": "induced model REJECTED",
        }[status]
        lines.append(f"witness ({alg}): {note}")
    lines.append("consistent: " + ("yes" if not problems else "NO: " + "; ".join(problems)))
    _emit(args, record, "\n".join(lines))
    return EXIT_DISAGREEMENT if problems else 0


_BENCH_COLUMNS = [
    "program",
    "status",
    "agree",
    "a1_seconds",
    "a2_compile_seconds",
    "a2_query_seconds",
    "a1_nodes",
    "a2_nodes",
    "units_retained",
    "verdicts",
]


def cmd_bench(args) -> int:
    corpus_dir = Path(args.corpus)
    if not corpus_dir.is_dir():
        raise _InputError(f"corpus {args.corpus} is not a directory")
    corpus = sorted(corpus_dir.glob("*.folp"))
    rows: list[dict] = []
    disagreement = False
    for path in corpus:
        row: dict = {c: "" for c in _BENCH_COLUMNS}
        row["program"] = path.name
        try:
            original, transformed = _load_program(str(path))
            preds = [p for p in original.upreds]
            policy = RedundancyPolicy(
                k_override=args.redundancy_k, time_limit=args.timeout
            )
            t0 = time.monotonic()
            v1s = {p: check_sat_a1(transformed, p, policy) for p in preds}
            row["a1_seconds"] = round(time.monotonic() - t0, 4)
            t0 = time.monotonic()
            summary = compile_units(transformed, time_limit=args.timeout)
            row["a2_compile_seconds"] = round(time.monotonic() - t0, 4)
            row["units_retained"] = summary.retained
            t0 = time.monotonic()
            v2s = {
                p: check_sat_a2(transformed, p, summary.cache, policy) for p in preds
            }
            row["a2_query_seconds"] = round(time.monotonic() - t0, 4)
            row["a1_nodes"] = sum(v.stats.nodes_created for v in v1s.values())
            row["a2_nodes"] = sum(v.stats.nodes_created for v in v2s.values())
            row["agree"] = all(v1s[p].kind == v2s[p].kind for p in preds)
            row["verdicts"] = " ".join(
                f"{p}={v1s[p].kind.value}" for p in preds
            )
            row["status"] = "ok"
            if not row["agree"]:
                disagreement = True
        except EngineBudgetError:
            row["status"] = "timeout"
        except FolpError as err:
            row["status"] = "error"
            row["verdicts"] = str(err).splitlines()[0]
        rows.append(row)
    if args.format == "machine":
        for row in rows:
            print(json.dumps({"record": "bench", **row}, sort_keys=True))
    else:
        print("\t".join(_BENCH_COLUMNS))
        for row in rows:
            print("\t".join(str(row[c]) for c in _BENCH_COLUMNS))
    return EXIT_DISAGREEMENT if disagreement else 0


def cmd_export_dot(args) -> int:
    _, transformed = _load_program(args.program, args.predicate)
    policy = _policy(args)
    if args.alg == "a2":
        cache = _a2_cache(args, transformed)
        verdict = check_sat_a2(transformed, args.predicate, cache, policy)
    else:
        verdict = check_sat_a1(transformed, args.predicate, policy)
    if verdict.witness is None:
        print(f"no structure to export: {verdict.kind.value}", file=sys.stderr)
        return verdict.exit_code
    dot = verdict.witness.to_dot()
    if args.out:
        with _writing(args.out):
            Path(args.out).write_text(dot, encoding="utf-8")
    else:
        print(dot, end="")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="folp",
        description="Satisfiability reasoner for forest logic programs "
        "under the open answer set semantics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, engine=True):
        # only a command that runs an engine takes a predicate and its options
        p.add_argument("program", help="program file (.folp)")
        if engine:
            p.add_argument("predicate", help="unary predicate to check")
            p.add_argument("--redundancy-k", type=_positive_int, default=None,
                           help="override the redundancy bound (bounded-incomplete)")
            p.add_argument("--max-depth", type=_positive_int, default=None,
                           help="explicit depth bound; exhaustion after pruning "
                           "reports DEPTH_BOUNDED_UNKNOWN")
            p.add_argument("--cache", default=None, help="unit cache file for a2")
            p.add_argument("--auto-cache", action=argparse.BooleanOptionalAction,
                           default=True,
                           help="compile units on the fly when no cache is given")
        p.add_argument("--format", choices=["text", "machine"], default="text")
        p.add_argument("--time-limit", type=_seconds, default=None,
                       help="time budget in seconds of each engine call and of "
                       "each unit compilation; every such call gets its own "
                       "deadline")
        p.add_argument("--deterministic", action="store_true",
                       help="single-task mode (always on in this build)")

    p = sub.add_parser("check", help="decide satisfiability of a unary predicate")
    common(p)
    p.add_argument("--alg", choices=["a1", "a2", "both"], default="both")
    p.add_argument("--dot", default=None, help="write the witness structure as DOT")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("compile-units", help="pre-compile the unit structure cache")
    common(p, engine=False)
    p.add_argument("--out", default=None, help="cache path (default PROGRAM.units)")
    p.set_defaults(func=cmd_compile_units)

    p = sub.add_parser("verify", help="cross-check both engines against the oracle")
    common(p)
    p.add_argument("--max-universe", type=_positive_int, default=3,
                   help="largest universe size for the bounded oracle")
    p.add_argument("--oracle-budget", type=_positive_int,
                   default=oracle.DEFAULT_BUDGET,
                   help="largest number of reduct candidates per universe")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="compare the engines over a corpus directory")
    p.add_argument("corpus", help="directory of .folp files")
    p.add_argument("--format", choices=["text", "machine"], default="text")
    p.add_argument("--redundancy-k", type=_positive_int, default=None)
    p.add_argument("--timeout", type=_seconds, default=None,
                   help="time budget in seconds of each query of each engine "
                   "and of each unit compilation; every such call gets its "
                   "own deadline")
    p.add_argument("--deterministic", action="store_true")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("export-dot", help="run a check and export the structure")
    common(p)
    p.add_argument("--alg", choices=["a1", "a2"], default="a1")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_export_dot)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except EngineBudgetError as err:
        print(f"resource budget exceeded: {err}", file=sys.stderr)
        return EXIT_BUDGET
    except oracle.OracleBudgetError as err:
        print(f"oracle budget exceeded: {err}", file=sys.stderr)
        return EXIT_BUDGET
    except FolpError as err:
        print(str(err), file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())

"""Pinned inputs, reference verdicts and one closed-loop pass.

A pass sweeps the workload once per phase, one call at a time: it sets
up every program (parse, validate, eliminate constraints, compile the
unit cache), then asks every query of `a1`, then of `a2`, then of the
oracle. Every call into folp goes through its module attribute
(`tableau.check_sat_a1`, ...) so that the traced run's wrappers see it.
Each call's wall time is charged to its phase: `setup`, `a1`, `a2` or
`oracle`.

Call `layout.use_checkout_sources()` before importing this module.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import random
import time
from dataclasses import dataclass, field
from typing import Optional

from folp import matcher, oracle, syntax, tableau, units
from folp.forest import StructureError
from folp.oracle import OracleBudgetError
from folp.tableau import EngineBudgetError, RedundancyPolicy, VerdictKind

from layout import DATA, BenchError

PHASES = ("setup", "a1", "a2", "oracle")

CORPUS_FILE = "corpus.json"

# Redundancy bound of the `deep` chain: its forests grow k + 1 nodes deep.
DEEP_K = 28

# SHA-256 of every input file; a run refuses inputs that differ.
PINNED = {
    "family.folp": "11e907703a079bcf2f9bc529f5436da0b0c450ab62c91080e6b95820b4531609",
    "hard.folp": "62c5c1bd3f4a9995ad086b02aaf8c8067bc0818b4c46b050baf4705ef04175c0",
    "deep.folp": "9cab6917467a133bd860d58114bb5f6c042c7913bf8215a57c14458c138c1ff2",
    CORPUS_FILE: "4f069f790e1ff0886e25a0a068c742c3633318ea8f7dc45f09d5901e9b71cb00",
}


@dataclass(frozen=True)
class Query:
    """One satisfiability question with its reference answer: the
    verdict both engines must give, and whether `bounded_sat` finds a
    witness within the workload's universe bound."""

    program: int
    pred: str
    verdict: str
    oracle_witness: bool


@dataclass(frozen=True)
class Workload:
    name: str
    texts: tuple[str, ...]
    queries: tuple[Query, ...]
    k_override: Optional[int]
    oracle_size: int

    def policy(self) -> RedundancyPolicy:
        return RedundancyPolicy(k_override=self.k_override)

    def order(self, seed: int) -> list[int]:
        """The seed fixes the order in which queries are asked; the
        queries themselves are pinned."""
        order = list(range(len(self.queries)))
        random.Random(seed).shuffle(order)
        return order


def read_pinned(name: str) -> str:
    path = DATA / name
    if not path.is_file():
        raise BenchError(f"missing benchmark input {path}")
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    if digest != PINNED[name]:
        raise BenchError(f"{path} has SHA-256 {digest}, pinned {PINNED[name]}")
    return path.read_text(encoding="utf-8")


def _fixed(name, k_override, oracle_size, references) -> Workload:
    queries = tuple(
        Query(0, pred, verdict, witness) for pred, verdict, witness in references
    )
    return Workload(name, (read_pinned(f"{name}.folp"),), queries, k_override, oracle_size)


def load(name: str) -> Workload:
    """The named workload with its inputs checked against their hashes.
    The references of the fixed programs are written by hand: SAT ones
    have a witness within the oracle bound, UNSAT ones have none."""
    if name == "family":
        return _fixed("family", None, 2, [
            ("goal", "SAT", True),
            ("dead", "UNSAT", False),
            ("step", "SAT", True),
            ("base", "SAT", True),
            ("aux", "SAT", True),
        ])
    if name == "hard":
        return _fixed("hard", 5, 3, [
            ("r", "UNSAT", False),
            ("q", "UNSAT", False),
            ("p", "UNSAT", False),
        ])
    if name == "deep":
        return _fixed("deep", DEEP_K, 3, [
            ("p", "UNSAT", False),
            ("r", "UNSAT", False),
        ])
    if name == "corpus":
        spec = json.loads(read_pinned(CORPUS_FILE))
        texts = tuple(entry["text"] for entry in spec["programs"])
        queries = tuple(
            Query(i, pred, verdict, witness)
            for i, entry in enumerate(spec["programs"])
            for pred, verdict, witness, _backing in entry["queries"]
        )
        return Workload("corpus", texts, queries, spec["k_override"], spec["oracle_size"])
    raise BenchError(f"unknown workload {name!r}")


# ----------------------------------------------------------------------
# Timing


class Clock:
    """Wall time of the calls one pass makes into folp, per phase. With a
    tracer, it also tells the tracer which phase and query a call serves."""

    def __init__(self, tracer=None):
        self.seconds = dict.fromkeys(PHASES, 0.0)
        self.tracer = tracer

    def call(self, phase: str, query: int, fn, *args, **kwargs):
        tracer = self.tracer
        if tracer is not None:
            tracer.enter(phase, query)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds[phase] += time.perf_counter() - start
            if tracer is not None:
                tracer.leave()


# The speed of the machine, measured between sweeps. On a shared
# machine the same sweep can take 60% longer from one minute to the
# next, so every sweep time is scaled to a machine on which the
# calibration loop takes CALIBRATION_SECONDS; the loop runs right before
# and right after each phase's sweeps, and the raw wall times are kept
# beside the scaled ones.

CALIBRATION_SECONDS = 0.015


def calibrate() -> float:
    """Wall seconds of a fixed loop of dict and tuple churn that uses no
    folp code; the collector is paused so the heap's size cannot change
    its cost."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table: dict = {}
        total = 0
        for i in range(60_000):
            table[i, i & 7] = total
            total += i * i
            if i & 1023 == 0:
                table.clear()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


# ----------------------------------------------------------------------
# One pass


@dataclass
class Prepared:
    program: syntax.Program
    engine_input: syntax.Program
    cache: units.UnitCache


def prepare(text: str, clock: Clock, index: int, compile_tasks: Optional[int] = None) -> Prepared:
    """Program text to engine-ready input: what `setup_s` measures."""
    program = clock.call("setup", index, syntax.parse_program, text)
    violations = clock.call("setup", index, syntax.validate_folp, program)
    if violations:
        raise BenchError(f"program {index} is not a FoLP: {violations[0]}")
    engine_input = clock.call("setup", index, syntax.eliminate_constraints, program)
    summary = clock.call(
        "setup", index, units.compile_units, engine_input, max_tasks=compile_tasks
    )
    return Prepared(program, engine_input, summary.cache)


ENGINES = ("a1", "a2")


@dataclass
class Outcome:
    """What the engines and the oracle said about one query."""

    pred: str
    verdicts: dict = field(default_factory=dict)  # engine -> Verdict
    models: dict = field(default_factory=dict)  # engine -> finite witness model or None
    oracle_witness: Optional[bool] = None
    witness_checks: dict = field(default_factory=dict)  # engine -> accepted
    errors: list = field(default_factory=list)

    def record(self, engine: str) -> str:
        verdict = self.verdicts.get(engine)
        return json.dumps(verdict.to_record(), sort_keys=True) if verdict else ""


def solve(engine: str, prep: Prepared, pred: str, policy: RedundancyPolicy,
          clock: Clock, query: int, out: Outcome) -> None:
    """One engine's verdict, and its witness as a finite model when it
    has no blocked node."""
    try:
        if engine == "a1":
            verdict = clock.call("a1", query, tableau.check_sat_a1,
                                 prep.engine_input, pred, policy)
        else:
            verdict = clock.call("a2", query, matcher.check_sat_a2,
                                 prep.engine_input, pred, prep.cache, policy)
    except EngineBudgetError as err:
        out.errors.append(f"{engine}: EngineBudgetError: {err}")
        return
    out.verdicts[engine] = verdict
    out.models[engine] = None
    if verdict.kind is VerdictKind.SAT:
        try:
            out.models[engine] = verdict.witness.induced_interpretation()
        except StructureError:
            pass  # blocked: the witness stands for an infinite model


def consult(prep: Prepared, pred: str, oracle_size: int, clock: Clock, query: int,
            out: Outcome) -> None:
    """The oracle's part: `bounded_sat` on the original program, and
    `is_answer_set` on every finite engine witness."""
    try:
        found = clock.call("oracle", query, oracle.bounded_sat, prep.program, pred, oracle_size)
    except OracleBudgetError as err:
        out.errors.append(f"oracle: OracleBudgetError: {err}")
        return
    out.oracle_witness = found is not None
    out.witness_checks = {
        engine: clock.call("oracle", query, oracle.is_answer_set, prep.program, model)
        for engine, model in out.models.items()
        if model is not None
    }


def ask(prep: Prepared, pred: str, policy: RedundancyPolicy, oracle_size: int,
        clock: Clock, query: int) -> Outcome:
    """Both engines, then the oracle, on one query."""
    out = Outcome(pred)
    for engine in ENGINES:
        solve(engine, prep, pred, policy, clock, query, out)
    consult(prep, pred, oracle_size, clock, query, out)
    return out


def problems(out: Outcome, verdict: Optional[str], oracle_witness: Optional[bool]) -> list[str]:
    """Every way the outcome fails the query; `verdict` and
    `oracle_witness` are the reference (None: not known yet)."""
    if out.errors:
        return list(out.errors)
    found = []
    kinds = {engine: v.kind.value for engine, v in out.verdicts.items()}
    if kinds["a1"] != kinds["a2"]:
        found.append(f"engines disagree: a1={kinds['a1']} a2={kinds['a2']}")
    if verdict is not None:
        found += [f"{engine} says {kind}, reference {verdict}"
                  for engine, kind in kinds.items() if kind != verdict]
    if out.oracle_witness and VerdictKind.UNSAT.value in kinds.values():
        found.append("the oracle found a witness for an UNSAT verdict")
    if oracle_witness is not None and out.oracle_witness != oracle_witness:
        found.append(f"oracle witness {out.oracle_witness}, reference {oracle_witness}")
    found += [f"the oracle rejected the {engine} witness"
              for engine, accepted in out.witness_checks.items() if not accepted]
    return found


# Search statistics summed over a pass, per engine, as named by
# `Verdict.to_record()`.
STAT_FIELDS = {
    "a1": ("tasks", "nodes_created", "choice_points", "backtracks", "redundancy_clashes"),
    "a2": ("tasks", "nodes_created", "choice_points", "backtracks", "redundancy_clashes",
           "units_tried", "unit_matches", "unit_reuse"),
}


@dataclass
class PassResult:
    samples: dict  # per phase, the seconds of each sweep, scaled to the calibration
    wall: dict  # per phase, the raw wall seconds of each sweep
    speed: dict  # per phase, the scale factor of its sweeps
    attempted: int  # queries asked
    failed: int  # queries with at least one problem
    failures: list[str]
    records: list[str]  # per query, the verdict records as sorted-key JSON
    stats: dict  # per engine, STAT_FIELDS summed over the queries


def run_pass(workload: Workload, order: list[int], min_seconds: float = 0.0,
             tracer=None) -> PassResult:
    """One sweep over the workload per phase, in the order set-up, a1,
    a2, oracle; a sweep sets up every program or asks every query once.
    A phase's sweep repeats until the phase has taken `min_seconds`, so
    short phases give more samples; every repetition must give the same
    results as the first. The sweeps of a phase are scaled by
    CALIBRATION_SECONDS over the geometric mean of the calibrations
    before and after them."""
    policy = workload.policy()
    samples: dict = {phase: [] for phase in PHASES}
    wall: dict = {phase: [] for phase in PHASES}
    speed: dict = {}
    failures: list[str] = []
    prepared: list[Prepared] = []
    outcomes = {q: Outcome(workload.queries[q].pred) for q in order}

    def repeat(phase, sweep) -> None:
        first = None
        before = calibrate()
        while True:
            clock = Clock(tracer)
            results = sweep(clock)
            wall[phase].append(clock.seconds[phase])
            if first is None:
                first = results
            elif results != first:
                failures.append(f"{workload.name}: {phase} sweeps gave different results")
            if sum(wall[phase]) >= min_seconds:
                break
        speed[phase] = CALIBRATION_SECONDS / math.sqrt(before * calibrate())
        samples[phase] = [t * speed[phase] for t in wall[phase]]

    def setup_sweep(clock):
        prepared[:] = [prepare(text, clock, i) for i, text in enumerate(workload.texts)]
        return [(p.cache.fingerprint, len(p.cache.units)) for p in prepared]

    def engine_sweep(engine):
        def sweep(clock):
            for q in order:
                query = workload.queries[q]
                solve(engine, prepared[query.program], query.pred, policy, clock, q, outcomes[q])
            return [outcomes[q].record(engine) for q in order]
        return sweep

    def oracle_sweep(clock):
        for q in order:
            query = workload.queries[q]
            consult(prepared[query.program], query.pred, workload.oracle_size, clock, q,
                    outcomes[q])
        return [(outcomes[q].oracle_witness, outcomes[q].witness_checks) for q in order]

    repeat("setup", setup_sweep)
    for engine in ENGINES:
        repeat(engine, engine_sweep(engine))
    repeat("oracle", oracle_sweep)

    failed = 0
    stats = {engine: dict.fromkeys(names, 0) for engine, names in STAT_FIELDS.items()}
    for q, out in outcomes.items():
        query = workload.queries[q]
        found = problems(out, query.verdict, query.oracle_witness)
        failed += bool(found)
        failures += [f"{workload.name} query {q} ({query.pred}): {p}" for p in found]
        for engine, verdict in out.verdicts.items():
            record = verdict.to_record()
            for name in stats[engine]:
                stats[engine][name] += record[name]
    records = ["\n".join(outcomes[q].record(e) for e in ENGINES)
               for q in range(len(workload.queries))]
    return PassResult(samples, wall, speed, len(order), failed, failures, records, stats)

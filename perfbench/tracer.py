"""Spans around calls into folp's modules, for the traced run.

`Tracer` replaces public functions and methods of the library with
wrappers for the duration of a `with` block and puts the originals back
on exit. A wrapper records one span per call made during the phase its
layer serves: name, start, end, parent span, phase and query, plus one
number taken from the result (a count, or whether it found something;
-1 when the call raised). Calls outside those phases pass straight
through, so the `tableau` and `forest` work that unit enumeration
replays counts as `units` time. Spans stay in memory in flat arrays and
are written out by `save`.

`pass_layer_metrics` turns the span totals of one pass into per-layer
metrics. A time metric is self time: the summed duration of a layer's
spans minus the part covered by their child spans.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

from folp import forest, matcher, oracle, syntax, tableau, units

from workloads import PHASES

# Phase masks: bit i stands for phase id i, which is PHASES index + 1 (0: no phase).
SETUP, A1, A2, ORACLE = (1 << phase_id for phase_id in range(1, len(PHASES) + 1))
ENGINES = A1 | A2


def _count(result) -> int:
    return len(result)


def _found(result) -> int:
    return int(result is not None)


_A1 = tableau.A1CompletionStructure
_A2 = matcher.A2CompletionStructure
_A1_EXPANSIONS = (
    "expand_unary_positive", "expand_unary_negative", "expand_binary_positive",
    "expand_binary_negative", "choose_unary", "choose_binary",
)

# (span name, owner, attribute, phases recorded, result measure)
PROBES = (
    [
        ("syntax.parse", syntax, "parse_program", SETUP, lambda p: len(p.rules)),
        ("syntax.validate", syntax, "validate_folp", SETUP, None),
        ("syntax.eliminate", syntax, "eliminate_constraints", SETUP, None),
        ("units.compile", units, "compile_units", SETUP, None),
        ("units.enumerate", units, "enumerate_unit_completions", SETUP, _count),
        ("units.prune", units, "prune_redundant", SETUP, lambda c: len(c.units)),
        ("units.dominance", units, "is_redundant_ucs", SETUP, None),
        ("tableau.check_sat", tableau, "check_sat_a1", A1, None),
        ("tableau.search", tableau, "run_search", A1, None),
        ("tableau.next_task", _A1, "next_task", A1, None),
        ("tableau.saturation", _A1, "is_saturated", A1, None),
        ("apply", tableau.Alternative, "apply", ENGINES, None),
        ("matcher.check_sat", matcher, "check_sat_a2", A2, None),
        ("matcher.search", matcher, "run_search", A2, None),
        ("matcher.next_task", _A2, "next_task", A2, None),
        ("matcher.match", _A2, "match", A2, _count),
        ("matcher.expand", _A2, "expand_cs", A2, None),
        ("forest.blocking", forest.ForestState, "find_blocking_pair", ENGINES, _found),
        ("forest.insert", forest.ForestState, "insert", ENGINES, None),
        ("forest.paths_set", forest.DependencyGraph, "paths_set", ENGINES, None),
        ("forest.reach", forest.DependencyGraph, "reaches", ENGINES, None),
        ("forest.cycle", forest.DependencyGraph, "has_cycle", ENGINES, None),
        ("forest.arc_insert", forest.DependencyGraph, "add_arc", ENGINES, None),
        ("forest.undo", forest.Trail, "undo_to", ENGINES, None),
        ("oracle.bounded_sat", oracle, "bounded_sat", ORACLE, _found),
        ("oracle.answer_sets", oracle, "answer_sets", ORACLE, _count),
        ("oracle.ground", oracle, "ground", ORACLE, lambda gp: len(gp.rules)),
        ("oracle.witness_check", oracle, "is_answer_set", ORACLE, None),
    ]
    + [("tableau.expand", _A1, name, A1, None) for name in _A1_EXPANSIONS]
)


class Tracer:
    def __init__(self):
        self.names = sorted({probe[0] for probe in PROBES})
        self.phase = 0
        self.query = -1
        self._originals: list = []
        self.clear()

    def clear(self) -> None:
        """Drop the recorded spans (the wrappers stay in place)."""
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.span_phase = array("b")
        self.span_query = array("i")
        self.value = array("q")
        self._stack: list[int] = []

    # -- phase context, set by workloads.Clock ---------------------------

    def enter(self, phase: str, query: int) -> None:
        self.phase = PHASES.index(phase) + 1
        self.query = query

    def leave(self) -> None:
        self.phase = 0
        self.query = -1

    # -- wrapping --------------------------------------------------------

    def __enter__(self) -> "Tracer":
        self._originals = []
        for name, owner, attr, phases, measure in PROBES:
            original = vars(owner)[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, self.names.index(name), phases, measure))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every wrapped attribute holds its original again."""
        return all(vars(owner)[attr] is original for owner, attr, original in self._originals)

    def _wrap(self, fn, name_id: int, phases: int, measure):
        perf = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            phase = tracer.phase
            if not phases >> phase & 1:
                return fn(*args, **kwargs)
            stack = tracer._stack
            idx = len(tracer.start)
            tracer.name.append(name_id)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.span_phase.append(phase)
            tracer.span_query.append(tracer.query)
            tracer.value.append(-1)
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf()
                stack.pop()
            tracer.value[idx] = measure(result) if measure is not None else 0
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- output ------------------------------------------------------------

    def arrays(self) -> dict:
        """Copies of the span columns (a view would pin the arrays' size)."""
        columns = (("name", self.name, np.int32), ("start", self.start, np.float64),
                   ("end", self.end, np.float64), ("parent", self.parent, np.int32),
                   ("phase", self.span_phase, np.int8), ("query", self.span_query, np.int32),
                   ("value", self.value, np.int64))
        return {key: np.frombuffer(column, dtype=dtype).copy() for key, column, dtype in columns}

    def save(self, path) -> None:
        """Write the spans as a NumPy archive; `names` and `phases` decode
        the `name` and `phase` columns (phase 0 is outside any call)."""
        np.savez(path, names=np.array(self.names), phases=np.array(("none",) + PHASES),
                 **self.arrays())

    def totals(self) -> dict:
        """Per (span name, phase): calls, self seconds, summed result
        values, and calls that returned normally."""
        a = self.arrays()
        duration = a["end"] - a["start"]
        child = np.zeros_like(duration)
        nested = a["parent"] >= 0
        np.add.at(child, a["parent"][nested], duration[nested])
        self_time = duration - child
        out = {}
        for name_id, name in enumerate(self.names):
            for phase_id, phase in enumerate(PHASES, start=1):
                sel = (a["name"] == name_id) & (a["phase"] == phase_id)
                calls = int(sel.sum())
                if not calls:
                    continue
                values = a["value"][sel]
                ok = values >= 0
                out[name, phase] = {
                    "calls": calls,
                    "self_s": float(self_time[sel].sum()),
                    "value": int(values[ok].sum()),
                    "ok": int(ok.sum()),
                }
        return out


# ----------------------------------------------------------------------
# Per-layer metrics

_FOREST = (
    # metric, span, what of the span
    ("blocking_checks", "forest.blocking", "calls"),
    ("blocking_s", "forest.blocking", "self_s"),
    ("blocked_share", "forest.blocking", "share"),
    ("paths_set_calls", "forest.paths_set", "calls"),
    ("paths_set_s", "forest.paths_set", "self_s"),
    ("reach_queries", "forest.reach", "calls"),
    ("reach_s", "forest.reach", "self_s"),
    ("cycle_checks", "forest.cycle", "calls"),
    ("cycle_s", "forest.cycle", "self_s"),
    ("inserts", "forest.insert", "calls"),
    ("arc_inserts", "forest.arc_insert", "calls"),
    ("undos", "forest.undo", "calls"),
    ("undo_s", "forest.undo", "self_s"),
)

# metric name -> (span, phase, what of the span's totals)
_SPANS = {
    "syntax.parse_s": ("syntax.parse", "setup", "self_s"),
    "syntax.validate_s": ("syntax.validate", "setup", "self_s"),
    "syntax.eliminate_s": ("syntax.eliminate", "setup", "self_s"),
    "syntax.rules": ("syntax.parse", "setup", "value"),
    "units.enumerate_s": ("units.enumerate", "setup", "self_s"),
    "units.enumerated": ("units.enumerate", "setup", "value"),
    "units.prune_s": ("units.prune", "setup", "self_s"),
    "units.dominance_checks": ("units.dominance", "setup", "calls"),
    "units.dominance_s": ("units.dominance", "setup", "self_s"),
    "units.retained": ("units.prune", "setup", "value"),
    "tableau.next_task_s": ("tableau.next_task", "a1", "self_s"),
    "tableau.next_task_calls": ("tableau.next_task", "a1", "calls"),
    "tableau.expand_s": ("tableau.expand", "a1", "self_s"),
    "tableau.expand_calls": ("tableau.expand", "a1", "calls"),
    "tableau.saturation_checks": ("tableau.saturation", "a1", "calls"),
    "tableau.saturation_s": ("tableau.saturation", "a1", "self_s"),
    "tableau.search_s": ("tableau.search", "a1", "self_s"),
    "tableau.apply_s": ("apply", "a1", "self_s"),
    "matcher.match_s": ("matcher.match", "a2", "self_s"),
    "matcher.expand_s": ("matcher.expand", "a2", "self_s"),
    "matcher.next_task_s": ("matcher.next_task", "a2", "self_s"),
    "matcher.search_s": ("matcher.search", "a2", "self_s"),
    "matcher.apply_s": ("apply", "a2", "self_s"),
    "oracle.bounded_sat_s": ("oracle.bounded_sat", "oracle", "self_s"),
    "oracle.bounded_sat_calls": ("oracle.bounded_sat", "oracle", "calls"),
    "oracle.witness_share": ("oracle.bounded_sat", "oracle", "share"),
    "oracle.ground_s": ("oracle.ground", "oracle", "self_s"),
    "oracle.ground_calls": ("oracle.ground", "oracle", "calls"),
    "oracle.ground_rules": ("oracle.ground", "oracle", "value"),
    "oracle.answer_sets_s": ("oracle.answer_sets", "oracle", "self_s"),
    "oracle.answer_sets_calls": ("oracle.answer_sets", "oracle", "calls"),
    "oracle.witness_check_s": ("oracle.witness_check", "oracle", "self_s"),
    "oracle.witness_checks": ("oracle.witness_check", "oracle", "calls"),
}
for _engine in ("a1", "a2"):
    for _metric, _span, _what in _FOREST:
        _SPANS[f"forest.{_engine}.{_metric}"] = (_span, _engine, _what)

# metric name -> (engine, search statistic of Verdict.to_record())
_STATS = {
    "tableau.tasks": ("a1", "tasks"),
    "tableau.nodes": ("a1", "nodes_created"),
    "tableau.choice_points": ("a1", "choice_points"),
    "tableau.backtracks": ("a1", "backtracks"),
    "tableau.redundancy_clashes": ("a1", "redundancy_clashes"),
    "matcher.tasks": ("a2", "tasks"),
    "matcher.nodes": ("a2", "nodes_created"),
    "matcher.backtracks": ("a2", "backtracks"),
    "matcher.units_tried": ("a2", "units_tried"),
    "matcher.matches": ("a2", "unit_matches"),
    "matcher.reuse": ("a2", "unit_reuse"),
}

# Ratios of two metrics above; ms_per_task divides the untraced engine time.
_RATIOS = {
    "units.retained_share": ("units.retained", "units.enumerated"),
    "matcher.match_rate": ("matcher.matches", "matcher.units_tried"),
}
_PER_TASK = {"tableau.ms_per_task": ("a1", "tableau.tasks"),
             "matcher.ms_per_task": ("a2", "matcher.tasks")}
OVERHEAD = tuple(f"overhead.{phase}_s" for phase in PHASES)

_HIGHER_IS_BETTER = {"matcher.match_rate", "matcher.reuse", "forest.a1.blocked_share",
                     "forest.a2.blocked_share", "oracle.witness_share"}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ms_per_task"):
        return "ms"
    if name.endswith(("_share", "_rate")):
        return "ratio"
    return "count"


LAYER_METRICS = sorted([*_SPANS, *_STATS, *_RATIOS, *_PER_TASK, *OVERHEAD])
UNITS = {name: _unit(name) for name in LAYER_METRICS}
BETTER = {name: "higher" if name in _HIGHER_IS_BETTER else "lower" for name in LAYER_METRICS}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_layer_metrics(totals: dict, stats: dict, speed: dict) -> dict:
    """The per-layer metrics one traced pass determines: span counts, self
    times scaled like the pass's sweeps (`speed`, per phase), and the
    pass's search statistics."""
    out = {}
    for metric, (span, phase, what) in _SPANS.items():
        entry = totals.get((span, phase), {"calls": 0, "self_s": 0.0, "value": 0, "ok": 0})
        if what == "share":
            out[metric] = _ratio(entry["value"], entry["calls"])
        elif what == "self_s":
            out[metric] = entry[what] * speed[phase]
        else:
            out[metric] = entry[what]
    for metric, (engine, stat) in _STATS.items():
        out[metric] = stats[engine][stat]
    for metric, (num, den) in _RATIOS.items():
        out[metric] = _ratio(out[num], out[den])
    return out


def per_task(metrics: dict, plain_seconds: dict) -> dict:
    return {metric: _ratio(1000 * plain_seconds[engine], metrics[tasks])
            for metric, (engine, tasks) in _PER_TASK.items()}


def integrity_problems(totals: dict, stats: dict) -> list[str]:
    """Where the counts the wrappers saw differ from the engines' own
    statistics: tasks are applied alternatives, units tried the
    alternatives `match` returned, matches the grafts that succeeded."""
    def seen(span, phase, what):
        return totals.get((span, phase), {}).get(what, 0)

    pairs = [
        ("a1 tasks", seen("apply", "a1", "calls"), stats["a1"]["tasks"]),
        ("a2 tasks", seen("apply", "a2", "calls"), stats["a2"]["tasks"]),
        ("units tried", seen("matcher.match", "a2", "value"), stats["a2"]["units_tried"]),
        ("matches", seen("matcher.expand", "a2", "ok"), stats["a2"]["unit_matches"]),
    ]
    return [f"{what}: wrappers saw {got}, statistics say {want}"
            for what, got, want in pairs if got != want]

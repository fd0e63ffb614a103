"""The search core of both engines and the direct tableau engine (a1).

As in the paper, the optimised algorithm is the same tableau with a
different expansion step: both engines share `CompletionStructure`
(roots, options and budgets, the redundancy clash, the completion audit)
and the driver `decide` (depth schedule, root choices, `run_search`,
verdict); each supplies only its task (`next_task`) and its notion of a
saturated node.

The direct engine builds completion structures by justifying every
signed predicate in node and arc contents with the program rules:
positive entries by enforcing the body of one defining rule instance,
negative entries by refuting every defining rule instance, undecided
predicates by explicit sign choice. Blocking stops expansion below a node subsumed by an
ancestor; the redundancy bound turns overly long equal-content chains
into a clash.

The search is chronological depth-first backtracking over a trail of
undoable mutations. Choice order: rules in program order, groundings
preferring existing successors, then fresh successors, then constants;
sign choices take the negative branch first. Runs are deterministic.

Each task is the first applicable expansion in node order (a "ToDo
list" agenda, as in description-logic tableau reasoners): the scan
skips children of unsaturated nodes and blocked nodes, and raises the
redundancy clash at a saturated node with too many equal-content
ancestors. It derives nothing afresh that no mutation changed:
saturation is two counter reads, kept by `set_status` (expanded entries
per key, and per node the outgoing arcs whose binary entries are all
expanded); blocking and the equal-ancestor count come from the memo of
`ForestState`, which content inserts and dependency arcs invalidate.
A negative obligation is refuted one rule instance at a time, and the
ground instances, each with its ground body, are computed once per
node, predicate and number of tree children (`_instances`): a negative
step scans them for the first one its ledger does not hold. Node and
arc obligations share this path and its ledger; an arc has one
instance per defining rule. The cache needs no trail entries, because
the instances read only the node's children and the constants, and a
node with n children always has the children x.1 ... x.n, also after
backtracking. Positive expansion is not cached: its groundings depend
on the depth bound, and computing them records whether the bound
pruned anything.

Verdicts: without an explicit depth bound the driver deepens iteratively
and reports UNSAT only from an exhausted search in which the bound never
pruned anything, which makes UNSAT sound. With an explicit bound,
exhaustion after pruning yields DEPTH_BOUNDED_UNKNOWN. A redundancy
override below the sound bound marks the verdict bounded-incomplete. A
SAT witness keeps no undo log (`keep_as_witness`): it is never
backtracked, and callers may keep many.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Callable, Iterable, Iterator, NoReturn, Optional

from .forest import (
    ArcId,
    ClashError,
    ForestState,
    GroundAtom,
    Key,
    NodeId,
    Signed,
    signed_sort_key,
)
from .syntax import (
    BinaryShape,
    FolpError,
    Literal,
    Program,
    RuleKind,
    UnaryShape,
    binary_shape,
    unary_shape,
)

EXP = "exp"
UNEXP = "unexp"


class EngineBudgetError(FolpError):
    """Deadline or task budget exceeded."""


def redundancy_bound(p: int) -> int:
    """Maximum number of equal-content ancestors a node may have before
    it counts as redundant, as a function of the unary predicate count."""
    return 2**p * (2 ** (p * p) - 1) + 3


@dataclass(frozen=True)
class RedundancyPolicy:
    """k_override and max_depth, when set, must be >= 1 and mark the run
    as bounded-incomplete. `time_limit` (seconds) and `max_tasks` bound
    resources; exceeding them raises EngineBudgetError."""

    k_override: Optional[int] = None
    max_depth: Optional[int] = None
    time_limit: Optional[float] = None
    max_tasks: Optional[int] = None

    def __post_init__(self) -> None:
        if self.k_override is not None and self.k_override < 1:
            raise ValueError("k_override must be >= 1")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")

    def effective_k(self, program: Program) -> int:
        if self.k_override is not None:
            return self.k_override
        return redundancy_bound(len(program.upreds))

    @property
    def bounded_incomplete(self) -> bool:
        return self.k_override is not None or self.max_depth is not None


@dataclass
class SearchStats:
    nodes_created: int = 0
    choice_points: int = 0
    backtracks: int = 0
    tasks: int = 0
    max_depth_seen: int = 0
    redundancy_events: list = field(default_factory=list)
    units_tried: int = 0
    matches: int = 0
    units_used: set = field(default_factory=set)

    @property
    def reuse_count(self) -> int:
        return self.matches - len(self.units_used)

    def to_record(self) -> dict:
        return {
            "nodes_created": self.nodes_created,
            "choice_points": self.choice_points,
            "backtracks": self.backtracks,
            "tasks": self.tasks,
            "max_depth": self.max_depth_seen,
            "redundancy_clashes": len(self.redundancy_events),
        }


class VerdictKind(str, Enum):
    SAT = "SAT"
    UNSAT = "UNSAT"
    DEPTH_BOUNDED_UNKNOWN = "DEPTH_BOUNDED_UNKNOWN"


@dataclass
class Verdict:
    kind: VerdictKind
    algorithm: str
    predicate: str
    stats: SearchStats
    witness: Optional[ForestState] = None
    bounded_incomplete: bool = False
    depth_used: Optional[int] = None

    @property
    def exit_code(self) -> int:
        return {
            VerdictKind.SAT: 0,
            VerdictKind.UNSAT: 1,
            VerdictKind.DEPTH_BOUNDED_UNKNOWN: 2,
        }[self.kind]

    def to_record(self) -> dict:
        record = {
            "record": "verdict",
            "algorithm": self.algorithm,
            "predicate": self.predicate,
            "verdict": self.kind.value,
            "bounded_incomplete": self.bounded_incomplete,
        }
        record.update(self.stats.to_record())
        if self.algorithm == "a2":
            record["units_tried"] = self.stats.units_tried
            record["unit_matches"] = self.stats.matches
            record["unit_reuse"] = self.stats.reuse_count
        return record


def anonymous_root_name(constants: Iterable[str]) -> str:
    taken = set(constants)
    if "x" not in taken:
        return "x"
    i = 1
    while f"x{i}" in taken:
        i += 1
    return f"x{i}"


def signed_of(lit: Literal) -> Signed:
    return Signed(lit.atom.pred, lit.positive)


@dataclass(slots=True)
class Alternative:
    """One branch of a task. Few descriptions are ever read, so the text
    is formatted from `template` and `args` only when `description` is."""

    template: str
    args: tuple
    apply_fn: Callable[[], None]

    @property
    def description(self) -> str:
        return self.template.format(*self.args)

    def apply(self) -> None:
        self.apply_fn()


@dataclass(slots=True)
class Task:
    """The alternatives of one expansion; `description` as in Alternative."""

    template: str
    args: tuple
    alternatives: list[Alternative]

    @property
    def description(self) -> str:
        return self.template.format(*self.args)


# grounding target descriptors: ("node", NodeId) or ("fresh", position)
_Desc = tuple


def _bindings(
    shape: UnaryShape,
    variable_targets: Callable[[int], list],
    constant_target: Callable[[str], object],
) -> list[tuple]:
    """Every choice of targets for the successor terms of a rule that
    keeps its inequalities: the variable at position i ranges over
    `variable_targets(i)`, a constant c stands for `constant_target(c)`."""
    per_term = [
        variable_targets(i) if spec.term.is_variable else [constant_target(spec.term.name)]
        for i, spec in enumerate(shape.successors)
    ]
    if not shape.inequalities:
        return list(itertools.product(*per_term))
    position = {spec.term: i for i, spec in enumerate(shape.successors)}
    out = []
    for combo in itertools.product(*per_term):

        def resolve(term, combo=combo):
            if term.is_variable:
                return combo[position[term]]
            return constant_target(term.name)

        for ineq in shape.inequalities:
            if resolve(ineq.left) == resolve(ineq.right):
                break
        else:
            out.append(combo)
    return out


class CompletionStructure(ForestState):
    """The state both engines share (see the module docstring). Without
    `epsilon` an anonymous root ε stands beside the constants, otherwise
    the named constant is ε; an engine inserts the goal predicate at ε."""

    algorithm: str

    def __init__(
        self,
        program: Program,
        *,
        epsilon: Optional[str] = None,
        k: Optional[int] = None,
        max_depth: Optional[int] = None,
        stats: Optional[SearchStats] = None,
        deadline: Optional[float] = None,
        max_tasks: Optional[int] = None,
    ):
        if epsilon is None:
            anon = anonymous_root_name(program.constants)
            roots = [anon] + list(program.constants)
            self.epsilon = NodeId(anon)
        else:
            if epsilon not in program.constants:
                raise ValueError(f"unknown constant {epsilon!r}")
            roots = list(program.constants)
            self.epsilon = NodeId(epsilon)
        super().__init__(roots, program.constants, program.free_preds)
        self.program = program
        self.k = k if k is not None else redundancy_bound(len(program.upreds))
        self.max_depth = max_depth
        self.stats = stats if stats is not None else SearchStats()
        self.deadline = deadline
        self.max_tasks = max_tasks
        self.pruned = False

    def is_saturated(self, x: NodeId) -> bool:
        raise NotImplementedError

    def check_budget(self) -> None:
        if self.deadline is not None and time.monotonic() >= self.deadline:
            raise EngineBudgetError("time limit exceeded")
        if self.max_tasks is not None and self.stats.tasks > self.max_tasks:
            raise EngineBudgetError("task budget exceeded")

    def redundancy_clash(self, x: NodeId, equal: int) -> NoReturn:
        """Record and raise the redundancy clash of a saturated node x
        with `equal` >= k equal-content ancestors. The caller has found x
        unblocked; asking again would cost the direct engine's scan."""
        self.stats.redundancy_events.append(
            {"node": str(x), "equal_ancestors": equal, "chain_position": equal + 1}
        )
        raise ClashError(f"redundant node {x} ({equal} equal ancestors)")

    def is_redundant_node(self, x: NodeId) -> bool:
        """Saturated, unblocked, and owning at least k equal-content
        ancestors. A blocked node is never redundant."""
        if not self.is_saturated(x) or self.is_blocked(x):
            return False
        return self.equal_ancestor_count(x) >= self.k

    def is_complete_clash_free(self) -> bool:
        """Acyclic dependency graph, every unblocked node saturated and
        not redundant; blocking is read from the exact memo."""
        if self.g.has_cycle():
            return False
        for x in self.forest.nodes():
            if self.is_blocked(x):
                continue
            if not self.is_saturated(x) or self.is_redundant_node(x):
                return False
        return True

    def keep_as_witness(self) -> None:
        """Drop what only the search needs (see the module docstring)."""
        self.trail.clear()


class A1CompletionStructure(CompletionStructure):
    """Tableau state for the direct engine.

    The status map tracks every content entry; negative non-free entries
    additionally carry a ledger of already refuted rule instances, so a
    fresh successor re-arms them for the new instances only; the
    instances themselves are cached (see the module docstring). Per key,
    the number of expanded entries is kept beside the map, and per node
    the number of outgoing arcs whose binary entries are all expanded,
    which makes the saturation test two counter reads."""

    algorithm = "a1"

    def __init__(self, program: Program, *, pred: Optional[str] = None, **options):
        super().__init__(program, **options)
        self.st: dict[tuple[Key, Signed], str] = {}
        self.expanded: dict[Key, int] = {}
        self.full_arcs: dict[NodeId, int] = {}
        self._n_upreds = len(program.upreds)
        self._n_bpreds = len(program.bpreds)
        self.handled: dict[tuple[Key, Signed], set] = {}
        self._instance_cache: dict[tuple[NodeId, str, int], list] = {}
        if pred is not None:
            self.insert_tracked(self.epsilon, Signed(pred, True))

    # -- bookkeeping ----------------------------------------------------

    def set_status(self, key: Key, sp: Signed, value: str) -> None:
        skey = (key, sp)
        old = self.st.get(skey)
        self.st[skey] = value
        delta = (value == EXP) - (old == EXP)
        full = 0
        if delta:
            count = self.expanded.get(key, 0) + delta
            self.expanded[key] = count
            if key.__class__ is tuple:
                n_bpreds = self._n_bpreds
                full = (count == n_bpreds) - (count - delta == n_bpreds)
                if full:
                    self.full_arcs[key[0]] = self.full_arcs.get(key[0], 0) + full

        def undo() -> None:
            if old is None:
                del self.st[skey]
            else:
                self.st[skey] = old
            if delta:
                self.expanded[skey[0]] -= delta
                if full:
                    self.full_arcs[skey[0][0]] -= full

        self.trail.push(undo)

    def status(self, key: Key, sp: Signed) -> Optional[str]:
        return self.st.get((key, sp))

    def insert_tracked(self, key: Key, sp: Signed) -> bool:
        """Insert content; new non-free entries start unexpanded, free
        predicates are trivially expanded by their choice rule."""
        new = self.insert(key, sp)
        if new:
            status = EXP if sp.name in self.free_preds else UNEXP
            self.set_status(key, sp, status)
        return new

    def _mark_handled(self, okey: tuple[Key, Signed], instance_key) -> None:
        ledger = self.handled.get(okey)
        if ledger is None:
            ledger = set()
            self.handled[okey] = ledger

            def undo_new() -> None:
                del self.handled[okey]

            self.trail.push(undo_new)
        ledger.add(instance_key)

        def undo() -> None:
            ledger.discard(instance_key)

        self.trail.push(undo)

    def handled_set(self, okey: tuple[Key, Signed]) -> set:
        return self.handled.get(okey, set())

    def decided(self, key: Key, name: str) -> bool:
        content = self.content(key)
        return Signed(name, True) in content or Signed(name, False) in content

    # -- saturation and applicability ------------------------------------

    def is_saturated(self, x: NodeId) -> bool:
        """Every unary predicate decided and expanded at x, every binary
        predicate decided and expanded on every outgoing arc.

        Read off the counters: statuses are only set on content entries,
        and a node (arc) content holds at most one sign of each unary
        (binary) predicate and nothing else, so all of them are decided
        and expanded exactly when as many entries as there are predicates
        are expanded. `full_arcs` counts the arcs from x in that state;
        it never sees an arc without statuses, so without binary
        predicates, when every arc is trivially full, it is not read."""
        if self.expanded.get(x, 0) != self._n_upreds:
            return False
        return (
            not self._n_bpreds
            or self.full_arcs.get(x, 0) == self.forest.out_degree(x)
        )

    # -- grounding helpers ------------------------------------------------

    def _head_matches_node(self, term, x: NodeId) -> bool:
        return term.is_variable or NodeId(term.name) == x

    def _fresh_allowed(self, x: NodeId) -> bool:
        if self.max_depth is None or x.depth + 1 <= self.max_depth:
            return True
        self.pruned = True
        return False

    def _positive_candidates(self, x: NodeId, position: int) -> list[_Desc]:
        """Existing successors first, then a fresh child, then constants
        not yet linked from x."""
        existing = self.forest.successors(x)
        out: list[_Desc] = [("node", y) for y in existing]
        if self._fresh_allowed(x):
            out.append(("fresh", position))
        linked = set(existing)
        for c in self.program.constants:
            node = NodeId(c)
            if node not in linked:
                out.append(("node", node))
        return out

    def _instance_candidates(self, x: NodeId) -> list[NodeId]:
        """Ground targets a rule instance may use at x: tree children and
        all constants (absent extra arcs are created lazily when a
        connecting literal gets refuted)."""
        return self.forest.children(x) + [NodeId(c) for c in self.program.constants]

    def _groundings(self, x: NodeId, shape: UnaryShape) -> list[tuple[_Desc, ...]]:
        return _bindings(
            shape, partial(self._positive_candidates, x), lambda c: ("node", NodeId(c))
        )

    def _instance_groundings(
        self, x: NodeId, shape: UnaryShape
    ) -> list[tuple[NodeId, ...]]:
        return _bindings(shape, lambda i: self._instance_candidates(x), NodeId)

    def _ensure_arc(self, x: NodeId, y: NodeId) -> None:
        if y.parent() == x:
            return
        if not self.forest.has_es(x, y):
            self.forest.add_es(x, y)

    # -- expansion rules ---------------------------------------------------

    def expand_unary_positive(self, x: NodeId, p: str) -> list[Alternative]:
        """Choice points justifying p at x: one per defining rule whose
        head term matches x and per admissible grounding of its successor
        terms."""
        sp = Signed(p, True)
        alternatives: list[Alternative] = []
        for rule in self.program.rules_for_head(p):
            if rule.kind is RuleKind.FREE:
                if all(self._head_matches_node(t, x) for t in rule.head.args):
                    alternatives.append(
                        Alternative(
                            "{} at {} by choice rule", (p, x),
                            lambda x=x, sp=sp: self.set_status(x, sp, EXP),
                        )
                    )
                continue
            shape = unary_shape(rule)
            if not self._head_matches_node(shape.head_term, x):
                continue
            for binding in self._groundings(x, shape):
                alternatives.append(
                    Alternative(
                        "{} at {} by rule line {}", (p, x, rule.line),
                        lambda x=x, sp=sp, shape=shape, binding=binding: (
                            self._apply_unary_positive(x, sp, shape, binding)
                        ),
                    )
                )
        return alternatives

    def _materialize(self, x: NodeId, desc: _Desc) -> NodeId:
        if desc[0] == "fresh":
            child = self.forest.add_child(x)
            self.stats.nodes_created += 1
            self.stats.max_depth_seen = max(self.stats.max_depth_seen, child.depth)
            self._rearm_negatives(x)
            return child
        y = desc[1]
        self._ensure_arc(x, y)
        return y

    def _rearm_negatives(self, x: NodeId) -> None:
        # a new successor creates new ground instances for every negative
        # unary obligation at x
        for sp in self.content(x):
            if sp.positive or sp.name in self.free_preds:
                continue
            if self.st.get((x, sp)) == EXP:
                self.set_status(x, sp, UNEXP)

    def _apply_unary_positive(
        self, x: NodeId, sp: Signed, shape: UnaryShape, binding: tuple[_Desc, ...]
    ) -> None:
        head_atom = GroundAtom(sp.name, (x,))
        body_positive: list[GroundAtom] = []
        for lit in shape.beta:
            self.insert_tracked(x, signed_of(lit))
            if lit.positive:
                body_positive.append(GroundAtom(lit.atom.pred, (x,)))
        for spec, desc in zip(shape.successors, binding):
            y = self._materialize(x, desc)
            arc = (x, y)
            for lit in spec.gamma:
                self.insert_tracked(arc, signed_of(lit))
                if lit.positive:
                    body_positive.append(GroundAtom(lit.atom.pred, (x, y)))
            for lit in spec.delta:
                self.insert_tracked(y, signed_of(lit))
                if lit.positive:
                    body_positive.append(GroundAtom(lit.atom.pred, (y,)))
        self.set_status(x, sp, EXP)
        for atom in body_positive:
            self.add_dependency(head_atom, atom)

    def expand_unary_negative(self, x: NodeId, p: str) -> list[Alternative]:
        return self._expand_negative(x, p, "not {} at {}", (p, x))

    def _expand_negative(
        self, key: Key, name: str, head: str, args: tuple
    ) -> list[Alternative]:
        """The ways to refute the first pending instance of a rule
        defining `name` at the node or arc `key`: `_finish_instance` when
        a literal of its body is already false, else `_apply_refutation`
        of each literal whose complement fits the content. With nothing
        pending, a single bookkeeping alternative closes the obligation.
        `head` and `args` describe the obligation."""
        sp = Signed(name, False)
        okey = (key, sp)
        pending = self._first_pending(key, name, okey)
        if pending is None:
            return [
                Alternative(
                    head + ": all instances refuted", args,
                    lambda: self.set_status(key, sp, EXP),
                )
            ]
        instance_key, literals = pending
        for lit_key, lit_sp in literals:
            if lit_sp.negated() in self.content(lit_key):
                return [
                    Alternative(
                        head + ": instance already refuted", args,
                        partial(self._finish_instance, okey, instance_key),
                    )
                ]
        return [
            Alternative(
                head + ": refute {} at {}", (*args, lit_sp, lit_key),
                partial(
                    self._apply_refutation, okey, instance_key, lit_key, lit_sp.negated()
                ),
            )
            for lit_key, lit_sp in literals
            # the complement would contradict present content
            if lit_sp not in self.content(lit_key)
        ]

    def _instances(self, key: Key, p: str) -> list:
        """(instance key, ground body) of every rule instance defining p
        at the node or arc `key`, in refutation order. An arc's ends are
        fixed, so it has one instance per rule, keyed by the rule's
        index. Cached per (key, p, number of tree children of key; 0 for
        an arc): a node's instances read only its children and the
        constants, and undoing `add_child` restores the child counter,
        so x with n children always has the children x.1 ... x.n."""
        cache_key = (key, p, self.forest.child_count(key))
        instances = self._instance_cache.get(cache_key)
        if instances is None:
            instances = []
            for rule_index, rule in enumerate(self.program.rules_for_head(p)):
                if rule.kind is RuleKind.FREE:
                    continue  # a choice rule never forces the atom
                if key.__class__ is tuple:
                    shape = binary_shape(rule)
                    if all(map(self._head_matches_node, (shape.s, shape.t), key)):
                        instances.append((rule_index, self._binary_body(key, shape)))
                    continue
                shape = unary_shape(rule)
                if not self._head_matches_node(shape.head_term, key):
                    continue
                for targets in self._instance_groundings(key, shape):
                    instances.append(
                        ((rule_index, targets), self._ground_body(key, shape, targets))
                    )
            self._instance_cache[cache_key] = instances
        return instances

    def _first_pending(self, key: Key, p: str, okey) -> Optional[tuple]:
        """The first instance of `_instances(key, p)` that the ledger of
        the obligation `okey` does not hold yet; None when all are
        refuted."""
        instances = self._instances(key, p)
        handled = self.handled.get(okey)
        if not handled:
            return instances[0] if instances else None
        for instance in instances:
            if instance[0] not in handled:
                return instance
        return None

    def _ground_body(
        self, x: NodeId, shape: UnaryShape, targets: tuple[NodeId, ...]
    ) -> list[tuple[Key, Signed]]:
        out: list[tuple[Key, Signed]] = []
        for lit in shape.beta:
            out.append((x, signed_of(lit)))
        for spec, y in zip(shape.successors, targets):
            for lit in spec.gamma:
                out.append(((x, y), signed_of(lit)))
            for lit in spec.delta:
                out.append((y, signed_of(lit)))
        return out

    def _finish_instance(self, okey, instance_key) -> None:
        self._mark_handled(okey, instance_key)
        key, sp = okey
        if self._first_pending(key, sp.name, okey) is None:
            self.set_status(key, sp, EXP)

    def _apply_refutation(self, okey, instance_key, key: Key, comp: Signed) -> None:
        if isinstance(key, tuple):
            self._ensure_arc(key[0], key[1])
        self.insert_tracked(key, comp)
        self._finish_instance(okey, instance_key)

    def choose_unary(self, x: NodeId) -> list[Alternative]:
        return self._choose(x, self.program.upreds, "at {}", (x,))

    def _choose(self, key: Key, names, where: str, args: tuple) -> list[Alternative]:
        """Inject a sign for the first of `names` undecided at key;
        negative branch first. `where` and `args` describe key."""
        for name in names:
            if not self.decided(key, name):
                return [
                    Alternative(
                        "choose not {} " + where, (name, *args),
                        partial(self.insert_tracked, key, Signed(name, False)),
                    ),
                    Alternative(
                        "choose {} " + where, (name, *args),
                        partial(self.insert_tracked, key, Signed(name, True)),
                    ),
                ]
        return []

    def expand_binary_positive(self, arc: ArcId, f: str) -> list[Alternative]:
        x, y = arc
        sp = Signed(f, True)
        alternatives: list[Alternative] = []
        for rule in self.program.rules_for_head(f):
            if rule.kind is RuleKind.FREE:
                if all(map(self._head_matches_node, rule.head.args, arc)):
                    alternatives.append(
                        Alternative(
                            "{} on {}->{} by choice rule", (f, x, y),
                            lambda arc=arc, sp=sp: self.set_status(arc, sp, EXP),
                        )
                    )
                continue
            shape = binary_shape(rule)
            if not all(map(self._head_matches_node, (shape.s, shape.t), arc)):
                continue
            alternatives.append(
                Alternative(
                    "{} on {}->{} by rule line {}", (f, x, y, rule.line),
                    lambda arc=arc, sp=sp, shape=shape: self._apply_binary_positive(
                        arc, sp, shape
                    ),
                )
            )
        return alternatives

    @staticmethod
    def _binary_body(arc: ArcId, shape: BinaryShape) -> list[tuple[Key, Signed]]:
        x, y = arc
        return (
            [(x, signed_of(lit)) for lit in shape.beta]
            + [(arc, signed_of(lit)) for lit in shape.gamma]
            + [(y, signed_of(lit)) for lit in shape.delta]
        )

    def _apply_binary_positive(self, arc: ArcId, sp: Signed, shape: BinaryShape):
        head_atom = GroundAtom(sp.name, arc)
        body_positive: list[GroundAtom] = []
        for key, lit_sp in self._binary_body(arc, shape):
            self.insert_tracked(key, lit_sp)
            if lit_sp.positive:
                body_positive.append(self.atom_for(key, lit_sp.name))
        self.set_status(arc, sp, EXP)
        for atom in body_positive:
            self.add_dependency(head_atom, atom)

    def expand_binary_negative(self, arc: ArcId, f: str) -> list[Alternative]:
        return self._expand_negative(arc, f, "not {} on {}->{}", (f, *arc))

    def choose_binary(self, arc: ArcId) -> list[Alternative]:
        return self._choose(arc, self.program.bpreds, "on {}->{}", arc)

    # -- task discovery ----------------------------------------------------

    def node_task(self, x: NodeId) -> Optional[Task]:
        """The first applicable expansion at x: pending content entries,
        then arc entries, then sign choices. None when x is saturated."""
        for sp in sorted(self.content(x), key=signed_sort_key):
            if self.st.get((x, sp)) != UNEXP:
                continue
            if sp.positive:
                alts = self.expand_unary_positive(x, sp.name)
            else:
                alts = self.expand_unary_negative(x, sp.name)
            return Task("expand {} at {}", (sp, x), alts)
        for arc in self.forest.arcs_from(x):
            for sp in sorted(self.content(arc), key=signed_sort_key):
                if self.st.get((arc, sp)) != UNEXP:
                    continue
                if sp.positive:
                    alts = self.expand_binary_positive(arc, sp.name)
                else:
                    alts = self.expand_binary_negative(arc, sp.name)
                return Task("expand {} on {}->{}", (sp, arc[0], arc[1]), alts)
        choice = self.choose_unary(x)
        if choice:
            return Task("choose unary at {}", (x,), choice)
        for arc in self.forest.arcs_from(x):
            choice = self.choose_binary(arc)
            if choice:
                return Task("choose binary on {}->{}", (arc[0], arc[1]), choice)
        return None

    def next_task(self) -> Optional[Task]:
        """The first task in node order, or a redundancy clash. Blocking,
        saturation and the equal-ancestor count are read from the memo
        and counters, so a scan re-derives only what changed."""
        self.check_budget()
        for x in self.forest.nodes():
            parent = x.parent()
            if parent is not None and not self.is_saturated(parent):
                continue
            if self.is_blocked(x):
                continue
            if not self.is_saturated(x):
                task = self.node_task(x)
                if task is not None:
                    return task
            else:
                equal = self.equal_ancestor_count(x)
                if equal >= self.k:
                    self.redundancy_clash(x, equal)
        return None

    # -- final audit ---------------------------------------------------------

    def arc_positivity_ok(self) -> bool:
        """Every tree arc of a saturated source carries a positive binary
        predicate (a tree successor exists only to support such an atom)."""
        for x, y in self.forest.tree_arcs():
            if not self.is_saturated(x):
                continue
            if not any(sp.positive for sp in self.content((x, y))):
                return False
        return True

    def is_complete_clash_free(self) -> bool:
        """The shared audit; the direct engine's structures also keep
        every tree arc of a saturated node positive."""
        assert self.arc_positivity_ok()
        return super().is_complete_clash_free()

    def keep_as_witness(self) -> None:
        super().keep_as_witness()
        self._instance_cache.clear()


# ----------------------------------------------------------------------
# Generic chronological backtracking over tasks


def run_search(
    state,
    next_task_fn: Callable[[], Optional[Task]],
    stats: SearchStats,
    on_complete: Callable[[], bool],
) -> bool:
    """Depth-first search: one stack frame per task, iterating its
    alternatives with trail-based undo. on_complete decides whether a
    completed structure ends the search (its state is left intact) or is
    recorded and searched past (unit enumeration)."""
    trail = state.trail
    base = trail.mark()

    def make_frame():
        try:
            task = next_task_fn()
        except ClashError:
            return "clash"
        if task is None:
            return "complete"
        if len(task.alternatives) > 1:
            stats.choice_points += 1
        return [trail.mark(), iter(task.alternatives)]

    frame = make_frame()
    if frame == "complete" and on_complete():
        return True
    stack = [frame] if frame.__class__ is list else []
    while stack:
        top = stack[-1]
        trail.undo_to(top[0])
        alternative = next(top[1], None)
        if alternative is None:
            stack.pop()
            stats.backtracks += 1
            continue
        stats.tasks += 1
        try:
            alternative.apply()
        except ClashError:
            continue
        nxt = make_frame()
        if nxt == "clash":
            continue
        if nxt == "complete":
            if on_complete():
                return True
            continue
        stack.append(nxt)
    trail.undo_to(base)
    return False


# ----------------------------------------------------------------------
# Satisfiability driver


def _check_engine_input(program: Program, pred: str) -> None:
    if program.has_constraints():
        raise ValueError(
            "the engines require a constraint-free program; apply "
            "eliminate_constraints first"
        )
    if pred not in program.upreds:
        raise ValueError(f"{pred!r} is not a unary predicate of the program")


def _depth_schedule(explicit: Optional[int]) -> Iterator[Optional[int]]:
    if explicit is not None:
        yield explicit
        return
    depth = 0
    while True:
        yield depth
        depth = max(1, depth * 2)


def decide(
    program: Program,
    pred: str,
    policy: RedundancyPolicy,
    new_structure: Callable[..., CompletionStructure],
) -> Verdict:
    """Satisfiability of `pred` by the engine whose structures
    `new_structure(pred=, epsilon=, k=, max_depth=, stats=, deadline=,
    max_tasks=)` builds. Each depth round tries an anonymous root, then
    each constant as the root where `pred` must hold; see the module
    docstring for verdict semantics."""
    k = policy.effective_k(program)
    stats = SearchStats()
    deadline = (
        time.monotonic() + policy.time_limit if policy.time_limit is not None else None
    )
    for depth in _depth_schedule(policy.max_depth):
        pruned_any = False
        for epsilon in [None, *program.constants]:
            cs = new_structure(
                pred=pred,
                epsilon=epsilon,
                k=k,
                max_depth=depth,
                stats=stats,
                deadline=deadline,
                max_tasks=policy.max_tasks,
            )
            if run_search(cs, cs.next_task, stats, cs.is_complete_clash_free):
                cs.keep_as_witness()
                return Verdict(
                    VerdictKind.SAT,
                    cs.algorithm,
                    pred,
                    stats,
                    witness=cs,
                    bounded_incomplete=policy.bounded_incomplete,
                    depth_used=depth,
                )
            pruned_any = pruned_any or cs.pruned
            # the undo closures tie a structure into reference cycles;
            # undone, the failed one is freed at once, not by the collector
            cs.trail.undo_to(0)
        if pruned_any and policy.max_depth is None:
            continue
        # an explicit bound is bounded-incomplete, so is DEPTH_BOUNDED_UNKNOWN
        return Verdict(
            VerdictKind.DEPTH_BOUNDED_UNKNOWN if pruned_any else VerdictKind.UNSAT,
            cs.algorithm,
            pred,
            stats,
            bounded_incomplete=policy.bounded_incomplete,
            depth_used=depth,
        )
    raise AssertionError("unreachable: the depth schedule is infinite")


def check_sat_a1(
    program: Program, pred: str, policy: Optional[RedundancyPolicy] = None
) -> Verdict:
    """Satisfiability of a unary predicate by the direct tableau engine
    (see `decide`)."""
    _check_engine_input(program, pred)
    # the class is looked up per structure, so tests can substitute it
    return decide(
        program,
        pred,
        policy or RedundancyPolicy(),
        lambda **options: A1CompletionStructure(program, **options),
    )

"""The search core of both engines and the direct tableau engine (a1).

As in the paper, the optimised algorithm is the same tableau with a
different expansion step: both engines share `CompletionStructure`
(roots, options and budgets, the task scan `next_task`, the redundancy
clash, the completion audit) and the driver `decide` (depth schedule,
root choices, `run_search`, verdict); each supplies only the expansion
of a node (`node_task`) and its notion of a saturated node.

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

Each task expands the first unblocked unsaturated node in node order (a
"ToDo list" agenda, as in description-logic tableau reasoners); a
saturated unblocked node before it with k or more equal-content
ancestors raises the redundancy clash instead. The scan tests no
parent: a node with children is never blocked (children are made only
while an unblocked node is expanded; then its content only grows, its
ancestors' contents are total and new arcs only add paths), so each
ancestor of the node reached, which comes before it, is saturated. The
scan derives nothing afresh that no mutation changed:
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
pruned anything. Node and arc entries share one positive path as well
(`_expand_positive`, `_apply_positive`); both sides take rule bodies
from `_ground_body`, the positive one lazily, so that each fresh
successor is made just before its own literals go in.

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
from typing import Callable, Iterable, Iterator, Optional

from .forest import (
    ArcId,
    ClashError,
    ForestState,
    GroundAtom,
    Key,
    NodeId,
    Signed,
    signed_pair,
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

# a refutation's description by the number of ends of the refuted key:
# an arc reads (x,y), as `forest._key_str` writes it
_REFUTE_AT = {1: ": refute {} at {}", 2: ": refute {} at ({},{})"}


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

    def node_task(self, x: NodeId) -> Optional[Task]:
        raise NotImplementedError

    def check_budget(self) -> None:
        if self.deadline is not None and time.monotonic() >= self.deadline:
            raise EngineBudgetError("time limit exceeded")
        if self.max_tasks is not None and self.stats.tasks > self.max_tasks:
            raise EngineBudgetError("task budget exceeded")

    def next_task(self) -> Optional[Task]:
        """The task of the first unblocked unsaturated node in node order,
        or the redundancy clash before it (see the module docstring)."""
        self.check_budget()
        for x in self.forest.nodes():
            if self.is_blocked(x):
                continue
            if not self.is_saturated(x):
                return self.node_task(x)
            self.redundancy_clash(x)
        return None

    def redundancy_clash(self, x: NodeId) -> None:
        """Record and raise the redundancy clash of the saturated node x
        if it has k or more equal-content ancestors. The caller has found
        x unblocked; asking again would cost the direct engine's scan."""
        equal = self.equal_ancestor_count(x)
        if equal < self.k:
            return
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
        return not self.content(key).isdisjoint(signed_pair(name))

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

    def _groundings(self, x: NodeId, shape: UnaryShape) -> list[tuple[_Desc, ...]]:
        return _bindings(
            shape, partial(self._positive_candidates, x), lambda c: ("node", NodeId(c))
        )

    def _instance_groundings(
        self, x: NodeId, shape: UnaryShape
    ) -> list[tuple[NodeId, ...]]:
        """The targets of a rule instance at x range over the tree
        children and all constants (absent extra arcs are created lazily
        when a connecting literal gets refuted)."""
        targets = self.forest.children(x) + [NodeId(c) for c in self.program.constants]
        return _bindings(shape, lambda i: targets, NodeId)

    def _ensure_arc(self, x: NodeId, y: NodeId) -> None:
        if y.parent() == x:
            return
        if not self.forest.has_es(x, y):
            self.forest.add_es(x, y)

    # -- expansion rules ---------------------------------------------------

    def expand_unary_positive(self, x: NodeId, p: str) -> list[Alternative]:
        return self._expand_positive(x, p, "{} at {}", (p, x))

    def _expand_positive(
        self, key: Key, name: str, head: str, args: tuple
    ) -> list[Alternative]:
        """Choice points justifying `name` at the node or arc `key`: one
        per defining rule whose head terms fit key and, at a node, per
        admissible grounding of its successor terms; a choice rule
        justifies the atom with an empty body (its description leaves
        the rule line out). `head` and `args` describe the obligation."""
        sp = Signed(name, True)
        arc = key.__class__ is tuple
        ends = key if arc else (key,)
        alternatives: list[Alternative] = []
        for rule in self.program.rules_for_head(name):
            if not all(map(self._head_matches_node, rule.head.args, ends)):
                continue
            how = " by rule line {}"
            if rule.kind is RuleKind.FREE:
                how, bodies = " by choice rule", [()]
            elif arc:
                bodies = [self._ground_body(key[0], binary_shape(rule), key[1:])]
            else:
                shape = unary_shape(rule)
                # one-shot lazy bodies (run_search applies an alternative
                # once): a fresh successor is made just before its literals
                materialize = partial(self._materialize, key)
                bodies = []
                for binding in self._groundings(key, shape):
                    bodies.append(self._ground_body(key, shape, map(materialize, binding)))
            for body in bodies:
                alternatives.append(
                    Alternative(
                        head + how, (*args, rule.line),
                        partial(self._apply_positive, key, sp, body),
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

    def _apply_positive(
        self, key: Key, sp: Signed, body: Iterable[tuple[Key, Signed]]
    ) -> None:
        """Insert the ground body of a rule instance for sp at key, in
        body order, then mark sp expanded and add its dependency arcs."""
        body_positive: list[GroundAtom] = []
        for lit_key, lit_sp in body:
            self.insert_tracked(lit_key, lit_sp)
            if lit_sp.positive:
                args = lit_key if lit_key.__class__ is tuple else (lit_key,)
                body_positive.append(GroundAtom(lit_sp.name, args))
        self.set_status(key, sp, EXP)
        head_atom = self.atom_for(key, sp.name)
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
        alternatives = []
        for lit_key, lit_sp in literals:
            if lit_sp in self.content(lit_key):
                continue  # the complement would contradict present content
            ends = lit_key if lit_key.__class__ is tuple else (lit_key,)
            alternatives.append(
                Alternative(
                    head + _REFUTE_AT[len(ends)], (*args, lit_sp, *ends),
                    partial(
                        self._apply_refutation, okey, instance_key, lit_key, lit_sp.negated()
                    ),
                )
            )
        return alternatives

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
            ends = key if key.__class__ is tuple else (key,)
            for rule_index, rule in enumerate(self.program.rules_for_head(p)):
                if rule.kind is RuleKind.FREE:
                    continue  # a choice rule never forces the atom
                if not all(map(self._head_matches_node, rule.head.args, ends)):
                    continue
                if key.__class__ is tuple:
                    body = self._ground_body(key[0], binary_shape(rule), key[1:])
                    instances.append((rule_index, list(body)))
                    continue
                shape = unary_shape(rule)
                for targets in self._instance_groundings(key, shape):
                    instances.append(
                        ((rule_index, targets), list(self._ground_body(key, shape, targets)))
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

    @staticmethod
    def _ground_body(
        x: NodeId, shape: UnaryShape | BinaryShape, targets: Iterable[NodeId]
    ) -> Iterator[tuple[Key, Signed]]:
        """The body literals of a rule instance at x, or at the arc from x
        to the one target of a binary rule, each with its node or arc:
        beta, then per successor its gamma and its delta. A target is
        taken from `targets` only when its successor's literals are due."""
        for lit in shape.beta:
            yield x, signed_of(lit)
        # a binary shape has the gamma and delta of its one successor
        specs = (shape,) if shape.__class__ is BinaryShape else shape.successors
        for spec, y in zip(specs, targets):
            arc = (x, y)
            for lit in spec.gamma:
                yield arc, signed_of(lit)
            for lit in spec.delta:
                yield y, signed_of(lit)

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
        return self._expand_positive(arc, f, "{} on {}->{}", (f, *arc))

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

    # the shared scan, bound here too: perfbench's tracer wraps the
    # engine class's own attribute
    next_task = CompletionStructure.next_task

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

"""The search core of both engines and the direct tableau engine (a1).

As in the paper, the optimised algorithm is the same tableau with a
different expansion step: both engines share `CompletionStructure`
(roots, options and budgets, the task scan `next_task`, the redundancy
clash, the completion audit) and the driver `decide` (depth schedule,
root choices, `run_search`, verdict); each supplies only the expansion
of a node (`node_task`, None at a saturated node) and, for the
completion audit, its saturation test (`is_saturated`).

The direct engine builds completion structures by justifying every
signed predicate in node and arc contents with the program rules:
positive entries by enforcing the body of one defining rule instance,
negative entries by refuting every defining rule instance, undecided
predicates by explicit sign choice. Blocking stops expansion below a node subsumed by an
ancestor; the redundancy bound turns overly long equal-content chains
into a clash.

The search is depth-first over a trail of undoable mutations, each
recorded as a (function, argument) pair (`forest.Trail`), with
conflict-directed backjumping (`run_search`). Choice order: rules in
program order, groundings preferring existing successors, then fresh
successors, then constants; sign choices take the negative branch
first. Runs are deterministic.

Backjumping. Frame i of the search stack has the bit 1 << i, and a set
of frames is an int. While the alternative of frame i runs, the
structure's `label` is that bit, and the engine records in `made` the
label of each fact that it reads exactly: under a1 every content
entry, extra arc and child, and the head atom of each rule application,
which labels the dependency arcs the application made; under a2 every
tree child, made by its parent's graft. A fact made again is labelled
again, so a stale label is never read and `made` needs no trail
entries. A clash passes `clash_set(clash, bit)` to its frame: bit and
the labels of the facts it read. A frame whose alternatives are all
exhausted adds `dead_end(task)`, the labels of what made its task due
and fixed its alternatives, and passes the union, less its own bit, to
the deepest frame in it; the frames between are left, and their untried
alternatives are counted as `skipped`. The exact sets:

- a1 contradiction (`forest.contradiction`, raised by `insert` or by
  the plan check of `_apply_positive`): the entry it negates, unless the
  same step entered that first. a1 dependency cycle
  (`forest.dependency_cycle`, from `add_dependency` or the plan check):
  a path that the refused arc would close, one with the fewest arcs
  (`DependencyGraph.path_labels`).
- a1 dead end of a task at x, including the empty alternative lists of
  `_expand_positive` and `_expand_negative`: the task's entry; x's
  creation, which fixes its depth; x's children and extra arcs, which
  fix its groundings and instances; for a negative obligation, the
  entries of its first pending instance that decide its alternatives;
  and why the scan found x unblocked: per anonymous ancestor y, one
  entry pair (e in ct(x), not e in ct(y)) or one dependency path from
  an atom over y to a non-free atom over x, whichever has the shallower
  frames (`_why_unblocked`). A positive task at x that can ground a
  successor with a fresh child passes the full set instead (below).
- a2, in a program without constants: the redundancy and no-unit
  clashes of a match of x, and the dead end of x's match, read the
  grafts of x's proper ancestors (`matcher`'s `_chain`).

Every other clash and dead end passes the full set `ALL_FRAMES`, which
is the chronological step: the redundancy clash of a1 and of the scan,
a failed completion audit, the dead end of an a1 positive task at a
node whose groundings include a fresh child, every a2 clash in a
program with constants, and every clash and dead end of unit
enumeration (below). So correctness never rests on a missing label. No
set is read before the structure's `pruned` flag is set: a
skipped subtree could otherwise hide the prune that decides between
UNSAT and another depth round. Unit enumeration, the one search without
a depth bound, never prunes, so it never jumps: there a jump would skip
few alternatives (74 of 9,143 on the benchmark corpus) for the cost of
reading every set.

Why a jump is sound. Let frame n exhaust its alternatives with the set
S, and let j be the deepest frame in S. Every fact that its clashes and
its dead end read is labelled by a frame in S, so it was made at or
above frame j and holds, because facts only grow along a branch, in
every state below frame j's current alternative. Under a skipped
alternative of a frame between j and n, the task of frame n is still
due at its node x: x exists, stays unblocked (the entry pairs and paths
read only grow), and a completion needs x's task done; its alternatives
are the same, each meets the same clash or, by induction over the
subtrees below it, the same dead end, and `pruned` is already set. The
alternatives are the same because every fact that fixes them is read:
x's depth, its children and extra arcs, and for a negative task the
literals of its first pending instance; an instance that a sibling adds
changes which instance comes first, but the one whose refutations all
failed still has to be refuted. One read is of an absence, which a
sibling may undo: the groundings of a positive task at x range over x's
children, so a child that a skipped sibling adds would give the task a
grounding this branch never tried. Such a task passes the full set
whenever its groundings include a fresh child; when they do not, no
grounding ranges over x's children or the depth bound forbids any
child of x, and extra arcs change only the order of groundings that
range over every constant anyway. So
each skipped sibling meets the same failure: no completion and no unit
is lost, verdicts, witnesses and unit caches are those of the
chronological search, and only the statistics fall. `tests/reference.py`
keeps the chronological search (`reference_run_search`) and replays
every skipped alternative with it (`checked_backjumps`).

Each task expands the first unblocked unsaturated node in node order (a
"ToDo list" agenda, as in description-logic tableau reasoners); a
saturated unblocked node before it with k or more equal-content
ancestors raises the redundancy clash instead. The scan tests no
parent: a node with children is never blocked (children are made only
while an unblocked node is expanded; then its content only grows, its
ancestors' contents are total and new arcs only add paths), so each
ancestor of the node reached, which comes before it, is saturated.

The scan starts at a resume point, `ForestState.resume`: the first node
in node order it has not passed, so every node before it is blocked, or
saturated with fewer than k equal-content ancestors. `next_task` moves
the point to the node it picks, through the trail, so backtracking
restores it with the rest of the state. Nothing else moves the point.
It rests on the precondition of `ForestState`: every new content entry,
arc, status and child lands at the resume point or after it. A node
before the point then stays as the scan left it: its equal-ancestor
count and the bound k are fixed, a saturated node turns unsaturated
only by a change at it, and a blocked node stays blocked.

The last needs an argument, because arcs added elsewhere could make a
path from the blocker. Let y be the anonymous ancestor that blocks x,
and y = a0, a1, ..., ak = x the chain between them. Every a_i below y
is an anonymous non-root node, which no extra arc targets, so every arc
into an atom over a_i comes from the expansion of a_i or of its parent,
and every arc into an arc atom f(y, s) from the expansion of y. Any
path from an atom p(y) to an atom q(x) thus ends in a part that starts
at some p'(y) and uses only arcs from the expansion of a chain node. No
such part existed when the scan passed x, and none is made while x
lies before the point: every chain node is at or before x, so the
precondition keeps every mutation off the chain, and ct(x) and ct(y)
stay as they were.

The resume node itself is never blocked, so the scan asks about
blocking only at the nodes after it. The point starts at the first
root, and a root is never blocked. `next_task` moves it only to a node
it found unblocked. While the point stays at a node x, x stays
unblocked under the precondition: new content at x only makes ct(x)
included in ct(y) harder to meet, the ancestors of x lie before it and
keep their contents, and new atoms and arcs only add sinks and paths
to the path search. Backtracking restores a state in which this held.

The engines keep the precondition. They change the state only while
they expand the node z at the point: statuses, arcs and children at z,
content at z, its arcs and its successors, and dependency arcs from an
atom over z (p(z) or f(z, s)) to an atom over z, a child of z or a
constant. New children come after z, and a constant before the point
is saturated, with total unary content, so new content there is a
contradiction. In the tests, `checked_next_task` checks at every
selection of real searches that the resume node is unblocked and that
the resumed scan picks what a fresh scan picks, and `checked_landings`
checks the precondition at every new content entry.

The scan asks an unblocked node one question, its task (`node_task`):
None means the node is saturated, and an engine answers None without
a side effect. It derives nothing afresh that no mutation changed: it
reads nothing before the resume point; blocking is derived once per
node and branch, where the scan passes or picks the node, which it
then does not read again; the equal-ancestor count is one walk over the
node's ancestors, taken only at a node at depth k or more: a node has
as many proper ancestors as its path has steps, so a shallower one
cannot have k equal-content ones.

A negative obligation is refuted one rule instance at a time, and the
ground instances, each with its ground body, are computed once per
call, node, predicate and number of tree children (`_instances`): a
negative step scans them for the first one its ledger does not hold.
Node and arc obligations share this path and its ledger; an arc has one
instance per defining rule. The instances read only the node's children
and the constants, and a node with n children always has the children
x.1 ... x.n, also after backtracking.

What the engines derive from the program alone lives in the tables of
one engine call (`CallTables`), which every structure of the call reads
and fills over all depth rounds and root choices; a structure built
without them, as in unit enumeration, makes its own. An entry reads the
program and its key, never the state, so it needs no trail entries and
holds in every structure: rule shapes, the instances above, the graft
plans and match lists of `a2` (`grafts`, `matches`; see `matcher`), and
the positive alternatives of an obligation with whether the depth bound
pruned a grounding of them, keyed by node or arc, predicate, whether
the bound admits a fresh successor there and, at a node, the successor
list, tree children then extra-arc targets: with the constants, all
that the groundings read. An
`Alternative` binds no structure: `apply(cs)` runs its step function on
the structure the search passes, with its operands. So the tables may
outlive a structure, `release` has only the trail to undo, and a SAT
witness drops its reference to them. No table outlives its call or is
kept on the `Program`. Node and arc entries share one positive path
(`_expand_positive`, `_apply_positive`); both ground rule bodies through
`_ground_body`.

A positive rule application runs on its ground plan, built on its first
use in the call. The plan holds the body literals in body order, each
with its key, its negation and the number of fresh successors made
before it; the first literal whose negation an earlier literal of the
same body is; the head atom and the positive body atoms; and the steps
that insert the body, each fresh successor made just before its own
literals. An application is refuted before it changes anything, because
most of them clash. Applying one inserts the ground body literal by
literal, marks the head expanded, and adds one dependency arc from the
head atom to each positive body atom. Only an insert (contradiction) or
an arc (dependency cycle) can clash: making a successor adds no
content, and a status never clashes.

- A contradiction. Literal i contradicts exactly when its negation is
  in the present content of its node or arc, or among the earlier
  literals of the same body. The second part reads no state, so the
  plan holds it, and the check reads one content per literal before
  that literal. A fresh successor starts empty, and the plan names it
  by the child id `add_child` will give it.
- A dependency cycle. With no contradiction, the inserts add vertices
  but no arcs, and every new arc leaves the head. So the arc to a
  positive body atom closes a cycle exactly when that atom is the head,
  or already reaches the head in the unchanged graph; the check asks
  that in body order, as the arcs would go in.
- The statistics. An application records only the fresh successors it
  makes (`nodes_created`, `max_depth_seen`). A contradiction at literal
  i counts those made before i; a cycle counts them all. The clash
  carries the message of the mutation it replaces
  (`forest.contradiction`, `forest.dependency_cycle`).

The check decides both kinds exactly, so there is no fallback. An
application that passes mutates as before, except that it adds its arcs
with `DependencyGraph.add_arc`: none of them can close a cycle.

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
from operator import length_hint
from typing import Callable, Iterable, Iterator, Optional

from .forest import (
    CONTRADICTION,
    DEPENDENCY_CYCLE,
    ArcId,
    ClashError,
    ForestState,
    GroundAtom,
    Key,
    NodeId,
    Signed,
    contradiction,
    dependency_cycle,
    signed_pair,
    signed_sort_key,
)
from .syntax import (
    BinaryShape,
    FolpError,
    Literal,
    Program,
    Rule,
    RuleKind,
    UnaryShape,
    binary_shape,
    unary_shape,
)

EXP = "exp"
UNEXP = "unexp"

# the clash kinds of `ClashError.kind` besides those of `forest`: the
# redundancy clash and the compiled engine's successor that no unit covers
REDUNDANCY = "redundancy"
NO_UNIT = "no_unit"
CLASH_KINDS = (CONTRADICTION, DEPENDENCY_CYCLE, REDUNDANCY, NO_UNIT)

# the full set of search frames (see `run_search`): every bit set
ALL_FRAMES = -1

_NO_ENTRIES: frozenset = frozenset()


class EngineBudgetError(FolpError):
    """Deadline or task budget exceeded."""


def redundancy_bound(p: int) -> int:
    """Maximum number of equal-content ancestors a node may have before
    it counts as redundant, as a function of the unary predicate count."""
    return 2**p * (2 ** (p * p) - 1) + 3


def check_budgets(time_limit: Optional[float], max_tasks: Optional[int]) -> None:
    """Reject a time limit that is NaN or negative and a negative task
    budget; 0 is valid for both and runs out at the first check."""
    if time_limit is not None and not time_limit >= 0:
        raise ValueError("time_limit must be a number >= 0")
    if max_tasks is not None and max_tasks < 0:
        raise ValueError("max_tasks must be >= 0")


def deadline_after(time_limit: Optional[float]) -> Optional[float]:
    """The `time.monotonic()` reading `time_limit` seconds from now, or
    None without a limit."""
    return None if time_limit is None else time.monotonic() + time_limit


@dataclass(frozen=True)
class RedundancyPolicy:
    """k_override and max_depth, when set, must be >= 1 and mark the run
    as bounded-incomplete. `time_limit` (seconds) and `max_tasks` bound
    resources, and must be >= 0 (`check_budgets`); exceeding them raises
    EngineBudgetError."""

    k_override: Optional[int] = None
    max_depth: Optional[int] = None
    time_limit: Optional[float] = None
    max_tasks: Optional[int] = None

    def __post_init__(self) -> None:
        if self.k_override is not None and self.k_override < 1:
            raise ValueError("k_override must be >= 1")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        check_budgets(self.time_limit, self.max_tasks)

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
    clashes: dict = field(default_factory=lambda: dict.fromkeys(CLASH_KINDS, 0))
    skipped: int = 0

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
            "clashes": dict(self.clashes),
            "skipped": self.skipped,
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


# a rule body's signed beta and, per successor, its signed gamma and delta
_Signeds = tuple[Signed, ...]
_SignedBody = tuple[_Signeds, tuple[tuple[_Signeds, _Signeds], ...]]


def _signed_body(shape: UnaryShape | BinaryShape) -> _SignedBody:
    """The literals of a rule's shape as signed predicates; a binary
    shape has one successor."""
    specs = (shape,) if shape.__class__ is BinaryShape else shape.successors
    return tuple(map(signed_of, shape.beta)), tuple(
        (tuple(map(signed_of, spec.gamma)), tuple(map(signed_of, spec.delta)))
        for spec in specs
    )


@dataclass(slots=True)
class Alternative:
    """One branch of a task: `apply(cs)` runs `step(cs, *operands)` on the
    structure the search passes, so an alternative binds none and may be
    kept in the tables of a call (see the module docstring). Few
    descriptions are ever read, so the text is formatted from `template`
    and `args` only when `description` is."""

    template: str
    args: tuple
    step: Callable[..., None]
    operands: tuple

    @property
    def description(self) -> str:
        return self.template.format(*self.args)

    def apply(self, cs) -> None:
        self.step(cs, *self.operands)


@dataclass(slots=True)
class Task:
    """The alternatives of one expansion; `description` as in Alternative.
    The direct engine names the node or arc the task expands, `key`, and
    the entry it justifies, `sp`, None for a sign choice; the search's
    dead ends read them (`A1CompletionStructure.dead_end`)."""

    template: str
    args: tuple
    alternatives: list[Alternative]
    key: Optional[Key] = None
    sp: Optional[Signed] = None

    @property
    def description(self) -> str:
        return self.template.format(*self.args)


# grounding target descriptors: ("node", NodeId) or ("fresh", position)
_Desc = tuple


class CallTables:
    """The tables of one engine call (see the module docstring): rule
    `shapes`, negative `instances`, `positive` (prunes, alternatives),
    and the compiled engine's `grafts` and `matches` (pruned,
    alternatives)."""

    __slots__ = ("shapes", "instances", "positive", "grafts", "matches")

    def __init__(self) -> None:
        self.shapes: dict[Rule, tuple] = {}
        self.instances: dict[tuple, list] = {}
        self.positive: dict[tuple, tuple] = {}
        self.grafts: dict[tuple, tuple] = {}
        self.matches: dict[tuple, tuple] = {}


class _Application:
    """A positive rule application of the direct engine: justify `sp` at
    the node or arc `key` by the body of a rule instance, the rule's
    signed `body` with one target descriptor per successor in `binding`.
    `plan` is its ground plan once it has been applied (see the module
    docstring)."""

    __slots__ = ("key", "sp", "body", "binding", "plan")

    def __init__(self, key: Key, sp: Signed, body: _SignedBody, binding: tuple) -> None:
        self.key = key
        self.sp = sp
        self.body = body
        self.binding = binding
        self.plan: Optional[tuple] = None

# the signed body of a choice rule, which justifies its head alone
_NO_BODY: _SignedBody = ((), ())

# a refutation's description by the number of ends of the refuted key:
# an arc reads (x,y), as `forest.contradiction` writes it
_REFUTE_AT = {1: ": refute {} at {}", 2: ": refute {} at ({},{})"}


def _grounds_fresh(task: Task) -> bool:
    """Whether a positive task grounds a successor term with a fresh
    child, so that its alternatives would grow with x's children."""
    return any(
        desc[0] == "fresh"
        for alternative in task.alternatives
        for desc in alternative.operands[0].binding
    )


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
        tables: Optional[CallTables] = None,
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
        self.tables = tables if tables is not None else CallTables()
        self.pruned = False
        # the bit of the search frame whose alternative is running, and
        # the label of each fact an engine reads exactly (see
        # `run_search`); a fact made again is labelled again, so a stale
        # label is never read and needs no trail entry
        self.label = 0
        self.made: dict = {}

    def is_saturated(self, x: NodeId) -> bool:
        raise NotImplementedError

    def node_task(self, x: NodeId) -> Optional[Task]:
        """The expansion of x, or None when x is saturated; None is
        answered without a side effect."""
        raise NotImplementedError

    def check_budget(self) -> None:
        if self.deadline is not None and time.monotonic() >= self.deadline:
            raise EngineBudgetError("time limit exceeded")
        if self.max_tasks is not None and self.stats.tasks > self.max_tasks:
            raise EngineBudgetError("task budget exceeded")

    def next_task(self) -> Optional[Task]:
        """The task of the first unblocked unsaturated node in node order,
        or the redundancy clash before it; the scan starts at the resume
        point, which is never blocked, and moves it to the node it picks
        (see the module docstring)."""
        self.check_budget()
        resume = x = self.resume
        while x is not None:
            if x is resume or not self.is_blocked(x):
                task = self.node_task(x)
                if task is not None:
                    if x is not resume:
                        self.resume_at(x)
                    return task
                self.redundancy_clash(x)
            x = self.forest.next_node(x)
        return None

    def redundancy_clash(self, x: NodeId) -> None:
        """Record and raise the redundancy clash of the saturated node x
        if it has k or more equal-content ancestors. The caller has found
        x unblocked; asking again would cost the direct engine's scan.
        x has as many proper ancestors as its path has steps, so with
        fewer than k steps no walk is needed."""
        if len(x.path) < self.k:
            return
        equal = self.equal_ancestor_count(x)
        if equal >= self.k:
            raise self.redundant(x, equal)

    def redundant(self, x: NodeId, equal: int) -> ClashError:
        """Record the redundancy event of x, which has `equal` (k or more)
        equal-content ancestors, and return its clash to raise."""
        self.stats.redundancy_events.append(
            {"node": str(x), "equal_ancestors": equal, "chain_position": equal + 1}
        )
        clash = ClashError("redundant node {} ({} equal ancestors)", x, equal)
        clash.kind = REDUNDANCY
        return clash

    def clash_set(self, clash: ClashError, bit: int) -> int:
        """The search frames whose facts `clash` read, with `bit`, the
        frame whose step met it (see `run_search`): here the full set."""
        return ALL_FRAMES

    def dead_end(self, task: Task) -> int:
        """The search frames whose facts fixed that `task` is due and
        which alternatives it has, read when they are all exhausted (see
        `run_search`): here the full set."""
        return ALL_FRAMES

    def count_children(self, x: NodeId, count: int) -> None:
        """Record `count` new tree children of x in the statistics."""
        if count:
            stats = self.stats
            stats.nodes_created += count
            stats.max_depth_seen = max(stats.max_depth_seen, x.depth + 1)

    def is_complete_clash_free(self) -> bool:
        """Acyclic dependency graph, every unblocked node saturated and
        without k or more equal-content ancestors. One walk over the
        nodes decides it and asserts at every saturated node that each
        tree arc from it carries a positive binary entry; it derives
        blocking only until the first node that fails."""
        complete = not self.g.has_cycle()
        forest = self.forest
        for x in forest.nodes():
            saturated = self.is_saturated(x)
            assert not saturated or all(
                self._positive_arc(x, y) for y in forest.children(x)
            ), f"a tree arc from the saturated node {x} has no positive entry"
            if complete and not self.is_blocked(x):
                complete = saturated and self.equal_ancestor_count(x) < self.k
        return complete

    def _positive_arc(self, x: NodeId, y: NodeId) -> bool:
        return any(sp.positive for sp in self.content((x, y)))

    def keep_as_witness(self) -> None:
        """Drop what only the search needs (see the module docstring)."""
        self.trail.clear()
        self.tables = None
        self.made.clear()

    def release(self) -> None:
        """Undo a structure the search is done with. Undo records hold
        bound methods, which tie a structure into reference cycles;
        undone, it is freed at once, not by the collector."""
        self.trail.undo_to(0)


class A1CompletionStructure(CompletionStructure):
    """Tableau state for the direct engine.

    The status map tracks every content entry; negative non-free entries
    additionally carry a ledger of already refuted rule instances, so a
    fresh successor re-arms them for the new instances only. The
    instances themselves and the positive alternatives, with their
    ground plans, are kept in the tables of the call (see the module
    docstring)."""

    algorithm = "a1"

    def __init__(
        self,
        program: Program,
        *,
        pred: Optional[str] = None,
        **options,
    ):
        super().__init__(program, **options)
        self.st: dict[tuple[Key, Signed], str] = {}
        self.handled: dict[tuple[Key, Signed], set] = {}
        if pred is not None:
            self.insert_tracked(self.epsilon, Signed(pred, True))

    # -- bookkeeping ----------------------------------------------------

    def set_status(self, key: Key, sp: Signed, value: str) -> None:
        skey = (key, sp)
        self.trail.push(self._undo_status, (skey, self.st.get(skey)))
        self.st[skey] = value

    def _undo_status(self, change: tuple) -> None:
        """Undo `set_status`: `change` holds the status key and the old
        status."""
        skey, old = change
        if old is None:
            del self.st[skey]
        else:
            self.st[skey] = old

    def status(self, key: Key, sp: Signed) -> Optional[str]:
        return self.st.get((key, sp))

    def insert_tracked(self, key: Key, sp: Signed) -> bool:
        """Insert content; new non-free entries start unexpanded, free
        predicates are trivially expanded by their choice rule."""
        new = self.insert(key, sp)
        if new:
            # a new entry has no status yet: undoing removes it
            skey = (key, sp)
            self.made[skey] = self.label
            self.st[skey] = EXP if sp.name in self.free_preds else UNEXP
            self.trail.push(self.st.__delitem__, skey)
        return new

    def _mark_handled(self, okey: tuple[Key, Signed], instance_key) -> None:
        ledger = self.handled.get(okey)
        if ledger is None:
            ledger = self.handled[okey] = set()
            self.trail.push(self.handled.__delitem__, okey)
        ledger.add(instance_key)
        self.trail.push(ledger.discard, instance_key)

    def handled_set(self, okey: tuple[Key, Signed]) -> set:
        return self.handled.get(okey, set())

    def decided(self, key: Key, name: str) -> bool:
        return not self.content(key).isdisjoint(signed_pair(name))

    # -- saturation and applicability ------------------------------------

    def is_saturated(self, x: NodeId) -> bool:
        """Every unary predicate decided and expanded at x, every binary
        predicate decided and expanded on every outgoing arc.

        Read off the contents and the status map: a node (arc) content
        holds at most one sign of each unary (binary) predicate and
        nothing else, so all of them are decided exactly when it holds
        one entry per predicate. The scan asks `node_task` instead; this
        serves the completion audit, which may meet a blocked node that
        `_expand_positive` would mark `pruned`."""
        st, upreds, bpreds = self.st, self.program.upreds, self.program.bpreds
        for key in [x, *self.forest.arcs_from(x)]:
            content = self.content(key)
            preds = bpreds if key.__class__ is tuple else upreds
            if len(content) != len(preds) or any(st.get((key, sp)) != EXP for sp in content):
                return False
        return True

    # -- grounding helpers ------------------------------------------------

    def _head_matches_node(self, term, x: NodeId) -> bool:
        return term.is_variable or NodeId(term.name) == x

    def _positive_candidates(
        self, existing: list[NodeId], fresh: bool, position: int
    ) -> list[_Desc]:
        """The `existing` successors of a node first, then a fresh child
        if `fresh`, then constants not yet linked from the node."""
        out: list[_Desc] = [("node", y) for y in existing]
        if fresh:
            out.append(("fresh", position))
        linked = set(existing)
        for c in self.program.constants:
            node = NodeId(c)
            if node not in linked:
                out.append(("node", node))
        return out

    def _groundings(
        self, shape: UnaryShape, existing: list[NodeId], fresh: bool
    ) -> list[tuple[_Desc, ...]]:
        return _bindings(
            shape,
            partial(self._positive_candidates, existing, fresh),
            lambda c: ("node", NodeId(c)),
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
            self.made[x, y] = self.label

    # -- expansion rules ---------------------------------------------------

    def expand_unary_positive(self, x: NodeId, p: str) -> list[Alternative]:
        return self._expand_positive(x, p, "{} at {}", (p, x))

    def _expand_positive(
        self, key: Key, name: str, head: str, args: tuple
    ) -> list[Alternative]:
        """Choice points justifying `name` at the node or arc `key`, one
        per defining rule whose head terms fit key and, at a node, per
        admissible grounding of its successor terms; a choice rule
        justifies the atom with an empty body (its description leaves the
        rule line out). `head` and `args` describe the obligation. Made
        once per call, key, name, whether a fresh successor is admissible
        and, at a node, successor list (see the module docstring); a
        structure whose depth bound forbids a fresh successor that a rule
        would ground records it in `pruned`."""
        arc = key.__class__ is tuple
        fresh = arc or self.max_depth is None or key.depth + 1 <= self.max_depth
        successors = [] if arc else self.forest.successors(key)
        table_key = (key, name, fresh, *successors)
        table = self.tables.positive
        entry = table.get(table_key)
        if entry is None:
            sp = Signed(name, True)
            ends = key if arc else (key,)
            step = self.__class__._apply_positive
            prunes, alternatives = False, []
            for rule in self.program.rules_for_head(name):
                if not all(map(self._head_matches_node, rule.head.args, ends)):
                    continue
                how = " by rule line {}"
                if rule.kind is RuleKind.FREE:
                    how, body, bindings = " by choice rule", _NO_BODY, [()]
                elif arc:
                    # an arc's one successor is its second end
                    body, bindings = self._shape(rule)[1], [(("node", key[1]),)]
                else:
                    shape, body = self._shape(rule)
                    bindings = self._groundings(shape, successors, fresh)
                    prunes = prunes or not fresh and any(
                        spec.term.is_variable for spec in shape.successors
                    )
                template, values = head + how, (*args, rule.line)
                alternatives += [
                    Alternative(template, values, step, (_Application(key, sp, body, binding),))
                    for binding in bindings
                ]
            entry = table[table_key] = (prunes, alternatives)
        if entry[0]:
            self.pruned = True
        return entry[1]

    def _materialize(self, x: NodeId, desc: _Desc) -> NodeId:
        if desc[0] == "fresh":
            child = self.forest.add_child(x)
            self.made[child] = self.label
            self.count_children(x, 1)
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

    def _apply_positive(self, application: _Application) -> None:
        """Apply the rule instance by its ground plan (`_ground_plan`),
        built on its first use in the call: raise the clash that
        inserting its body would raise, with the statistics it would
        record, and change nothing else; without one, insert the ground
        body in body order, each fresh successor made just before its
        literals, then mark the head expanded and add its dependency
        arcs, which cannot close a cycle (see the module docstring)."""
        plan = application.plan
        if plan is None:
            plan = application.plan = self._ground_plan(application)
        x, checks, self_clash, fresh, head, positive, steps = plan
        ct = self.ct
        for lit_key, lit_sp, negation, made in checks:
            if negation in ct.get(lit_key, ()):
                self.count_children(x, made)
                raise contradiction(lit_key, lit_sp)
        if self_clash is not None:
            lit_key, lit_sp, made = self_clash
            self.count_children(x, made)
            raise contradiction(lit_key, lit_sp)
        closes_cycle = self.g.closes_cycle
        for atom in positive:
            if closes_cycle(head, atom):
                self.count_children(x, fresh)
                raise dependency_cycle(head, atom)
        insert = self.insert_tracked
        for desc, literals in steps:
            if desc is not None:
                self._materialize(x, desc)
            for lit_key, lit_sp, _, _ in literals:
                insert(lit_key, lit_sp)
        self.set_status(application.key, application.sp, EXP)
        self.made[head] = self.label
        add_arc = self.g.add_arc
        for atom in positive:
            add_arc(head, atom)

    def _ground_plan(self, application: _Application) -> tuple:
        """The application ground as `_apply_positive` applies it: the
        node x of its key; per body literal up to the first whose
        negation an earlier one is, its key, itself, its negation and the
        fresh successors made before it; that first literal, with its key
        and its fresh successors, or None; the fresh successors; the head
        atom; the positive body atoms in body order; and the steps to
        apply, (target, literals) per successor after (None, literals)
        for beta. A fresh successor is named by the child id `add_child`
        will give it. Reads only the child count of x."""
        key, sp, body = application.key, application.sp, application.body
        x = key[0] if key.__class__ is tuple else key
        children = self.forest.child_count(x)
        fresh = 0
        steps = [(None, [])]

        def target(desc: _Desc) -> NodeId:
            nonlocal fresh
            steps.append((desc, []))
            if desc[0] == "fresh":
                fresh += 1
                return x.child(children + fresh)
            return desc[1]

        checks, positive, entered = [], [], set()
        self_clash = None
        for lit_key, lit_sp in self._ground_body(x, body, map(target, application.binding)):
            negation = lit_sp.negated()
            if (lit_key, negation) in entered:
                # this instance can never be applied: the rest is not needed
                self_clash = (lit_key, lit_sp, fresh)
                break
            entered.add((lit_key, lit_sp))
            entry = (lit_key, lit_sp, negation, fresh)
            checks.append(entry)
            steps[-1][1].append(entry)
            if lit_sp.positive:
                args = lit_key if lit_key.__class__ is tuple else (lit_key,)
                positive.append(GroundAtom(lit_sp.name, args))
        return x, checks, self_clash, fresh, self.atom_for(key, sp.name), positive, steps

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
        cls = self.__class__
        pending = self._first_pending(key, name, okey)
        if pending is None:
            return [
                Alternative(
                    head + ": all instances refuted", args, cls.set_status, (key, sp, EXP)
                )
            ]
        instance_key, literals = pending
        for lit_key, lit_sp in literals:
            if lit_sp.negated() in self.content(lit_key):
                return [
                    Alternative(
                        head + ": instance already refuted", args,
                        cls._finish_instance, (okey, instance_key),
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
                    cls._apply_refutation, (okey, instance_key, lit_key, lit_sp.negated()),
                )
            )
        return alternatives

    def _instances(self, key: Key, p: str) -> list:
        """(instance key, ground body) of every rule instance defining p
        at the node or arc `key`, in refutation order. An arc's ends are
        fixed, so it has one instance per rule, keyed by the rule's
        index. Kept in the call's `instances` table per (key, p, number
        of tree children of key; 0 for an arc): a node's instances read
        only its children and the constants, and undoing `add_child`
        restores the child counter, so x with n children always has the
        children x.1 ... x.n."""
        cache_key = (key, p, self.forest.child_count(key))
        instances = self.tables.instances.get(cache_key)
        if instances is None:
            instances = []
            ends = key if key.__class__ is tuple else (key,)
            for rule_index, rule in enumerate(self.program.rules_for_head(p)):
                if rule.kind is RuleKind.FREE:
                    continue  # a choice rule never forces the atom
                if not all(map(self._head_matches_node, rule.head.args, ends)):
                    continue
                shape, body = self._shape(rule)
                if key.__class__ is tuple:
                    instances.append((rule_index, list(self._ground_body(key[0], body, key[1:]))))
                    continue
                for targets in self._instance_groundings(key, shape):
                    instances.append(
                        ((rule_index, targets), list(self._ground_body(key, body, targets)))
                    )
            self.tables.instances[cache_key] = instances
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

    def _shape(self, rule: Rule) -> tuple[UnaryShape | BinaryShape, _SignedBody]:
        """The shape of a unary or binary rule and its signed literals,
        made once per rule and call. The shape caches of `syntax`
        compare a rule field by field with an equal one of an earlier
        parse of the program; this table finds a rule by identity."""
        shapes = self.tables.shapes
        entry = shapes.get(rule)
        if entry is None:
            shape = binary_shape(rule) if rule.kind is RuleKind.BINARY else unary_shape(rule)
            entry = shapes[rule] = (shape, _signed_body(shape))
        return entry

    @staticmethod
    def _ground_body(
        x: NodeId, body: _SignedBody, targets: Iterable[NodeId]
    ) -> Iterator[tuple[Key, Signed]]:
        """The body literals of a rule instance at x, or at the arc from x
        to the one target of a binary rule, each with its node or arc:
        beta, then per successor its gamma and its delta (`_signed_body`).
        A target is taken from `targets` only when its successor's
        literals are due."""
        beta, successors = body
        for sp in beta:
            yield x, sp
        for (gamma, delta), y in zip(successors, targets):
            arc = (x, y)
            for sp in gamma:
                yield arc, sp
            for sp in delta:
                yield y, sp

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
                insert = self.__class__.insert_tracked
                return [
                    Alternative(
                        "choose not {} " + where, (name, *args),
                        insert, (key, Signed(name, False)),
                    ),
                    Alternative(
                        "choose {} " + where, (name, *args), insert, (key, Signed(name, True))
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
            return Task("expand {} at {}", (sp, x), alts, x, sp)
        for arc in self.forest.arcs_from(x):
            for sp in sorted(self.content(arc), key=signed_sort_key):
                if self.st.get((arc, sp)) != UNEXP:
                    continue
                if sp.positive:
                    alts = self.expand_binary_positive(arc, sp.name)
                else:
                    alts = self.expand_binary_negative(arc, sp.name)
                return Task("expand {} on {}->{}", (sp, arc[0], arc[1]), alts, arc, sp)
        choice = self.choose_unary(x)
        if choice:
            return Task("choose unary at {}", (x,), choice, x)
        for arc in self.forest.arcs_from(x):
            choice = self.choose_binary(arc)
            if choice:
                return Task("choose binary on {}->{}", (arc[0], arc[1]), choice, arc)
        return None

    # the shared scan, bound here too: perfbench's tracer wraps the
    # engine class's own attribute
    next_task = CompletionStructure.next_task

    # -- dependency sets ---------------------------------------------------

    def clash_set(self, clash: ClashError, bit: int) -> int:
        """`bit` and the labels of the facts a contradiction or a cycle
        read: the entry that the refused one negates, unless the step
        itself was to enter it first, or a path that the refused arc
        would close, one with the fewest arcs. The full set for every
        other clash. The dependency arcs from an atom are labelled by
        the application that expanded it, which made them."""
        if not self.pruned:
            return ALL_FRAMES
        kind = clash.kind
        if kind is CONTRADICTION:
            key, sp = clash.subject
            negation = sp.negated()
            if negation in self.ct.get(key, ()):
                return bit | self.made[key, negation]
            return bit
        if kind is DEPENDENCY_CYCLE:
            src, dst = clash.subject
            if src is dst:
                return bit
            return bit | self.g.path_labels((src,), self.made)[dst]
        return ALL_FRAMES

    def dead_end(self, task: Task) -> int:
        """The labels of what fixed that `task` is due at its node x and
        which alternatives it has: its entry; x's creation, which fixes
        its depth; x's children and extra arcs, which fix the groundings
        and instances; the entries of a negative task's pending instance
        that decide its alternatives; and why x is unblocked
        (`_why_unblocked`). An empty positive list reads no more: it is
        empty exactly when no rule can ground, which only x's depth
        decides, for below the bound x has no children. A positive task
        at x that can ground a successor term with a fresh child also
        reads that x has no other child, which the sibling of any earlier
        frame might add: it passes the full set."""
        if not self.pruned:
            return ALL_FRAMES
        key, sp, made = task.key, task.sp, self.made
        if sp is not None and sp.positive and key.__class__ is NodeId and _grounds_fresh(task):
            return ALL_FRAMES
        x = key[0] if key.__class__ is tuple else key
        found = made[x] if x.path else 0
        for y in self.forest.successors(x):
            found |= made[y] if y._parent is x else made[x, y]
        if sp is not None:
            found |= made[key, sp]
            if not sp.positive:
                found |= self._instance_reads(key, sp)
        return found | self._why_unblocked(x)

    def _instance_reads(self, key: Key, sp: Signed) -> int:
        """The labels of the entries that decide the alternatives of the
        negative obligation sp at key (`_expand_negative`): the negation
        of a literal of its first pending instance that refutes it, or
        else the literals it already holds."""
        pending = self._first_pending(key, sp.name, (key, sp))
        if pending is None:
            return 0
        made, ct, found = self.made, self.ct, 0
        for lit_key, lit_sp in pending[1]:
            negation = lit_sp.negated()
            if negation in ct.get(lit_key, ()):
                return made[lit_key, negation]
            if lit_sp in ct.get(lit_key, ()):
                found |= made[lit_key, lit_sp]
        return found

    def _paths_to(self, x: NodeId) -> dict[NodeId, int]:
        """Per node y with a dependency path from an atom over y to a
        non-free atom over x, the labels of one such path with the
        fewest arcs (`DependencyGraph.path_labels`, which lists the
        atoms nearest first)."""
        g = self.g
        sinks = [a for a in g.unary_atoms(x) if a.pred not in self.free_preds]
        reach: dict[NodeId, int] = {}
        for atom, mask in g.path_labels(sinks, self.made).items():
            if len(atom.args) == 1:
                reach.setdefault(atom.args[0], mask)
        return reach

    def _why_unblocked(self, x: NodeId) -> int:
        """Why no anonymous ancestor y blocks x, read off facts that stay
        in every extension: per y, the labels of an entry e of ct(x)
        with not e in ct(y), or of a dependency path from an atom over y
        to a non-free atom over x, whichever has the shallower frames.
        The resume node's ancestors are saturated, so ct(y) decides
        every unary predicate, and one of the two exists; without one,
        the full set."""
        if not x.path:
            return 0
        ct, made = self.ct, self.made
        content = ct.get(x, _NO_ENTRIES)
        constants = self.forest.constants
        reach = None
        found = 0
        for y in x.ancestors():
            if not y.path and y.root in constants:
                continue
            ancestor = ct.get(y, _NO_ENTRIES)
            best = None
            if not content <= ancestor:
                best = min(
                    [made[x, e] | made[y, e.negated()] for e in content - ancestor
                     if e.negated() in ancestor],
                    default=None,
                )
            if best != 0:
                if reach is None:
                    reach = self._paths_to(x)
                path = reach.get(y)
                if path is not None and (best is None or path < best):
                    best = path
            if best is None:
                return ALL_FRAMES
            found |= best
        return found


# ----------------------------------------------------------------------
# Depth-first search with conflict-directed backjumping


class Search:
    """One depth-first search over the tasks of `state` (see `run_search`).
    A frame is a list: the trail mark, the iterator over the task's
    alternatives, the task, and the union of the sets that its tried
    alternatives ran into."""

    def __init__(
        self,
        state,
        next_task: Callable[[], Optional[Task]],
        stats: SearchStats,
        on_complete: Callable[[], bool],
    ):
        self.state = state
        self.next_task = next_task
        self.stats = stats
        self.on_complete = on_complete

    def run(self) -> bool:
        state, stats = self.state, self.stats
        next_task, on_complete = self.next_task, self.on_complete
        trail, clash_set, clashes = state.trail, state.clash_set, stats.clashes
        base = trail.mark()
        stack: list = []
        # the frame whose alternative ran last and its bit; None before
        # the first task
        top, bit = None, 0
        while True:
            # open the frame of the next task, or meet its clash or a
            # completed structure
            try:
                task = next_task()
            except ClashError as clash:
                clashes[clash.kind] += 1
                if top is None:
                    break
                top[3] |= clash_set(clash, bit)
            else:
                if task is not None:
                    if len(task.alternatives) > 1:
                        stats.choice_points += 1
                    stack.append([trail.mark(), iter(task.alternatives), task, 0])
                elif on_complete():
                    return True
                elif top is not None:
                    top[3] = ALL_FRAMES
            # apply the next alternative that does not clash at once
            while stack:
                top = stack[-1]
                trail.undo_to(top[0])
                alternative = next(top[1], None)
                if alternative is None:
                    self.backtrack(stack)
                    continue
                stats.tasks += 1
                bit = state.label = 1 << (len(stack) - 1)
                try:
                    alternative.apply(state)
                except ClashError as clash:
                    clashes[clash.kind] += 1
                    top[3] |= clash_set(clash, bit)
                    continue
                break
            else:
                break
        trail.undo_to(base)
        return False

    def backtrack(self, stack: list) -> None:
        """Leave the top frame, whose alternatives are exhausted: pass the
        union of its sets and its dead end, less its own bit, to the
        deepest frame in it, and jump there. With the full set this is
        the chronological step, and the dead end is not read."""
        frame = stack.pop()
        self.stats.backtracks += 1
        depth = len(stack)
        if not depth:
            return
        found = frame[3]
        if found != ALL_FRAMES:
            found = (found | self.state.dead_end(frame[2])) & ((1 << depth) - 1)
            target = found.bit_length() - 1
            if target < depth - 1:
                self.jump(stack, target)
                if not stack:
                    return
        stack[-1][3] |= found

    def jump(self, stack: list, target: int) -> None:
        """Leave the frames above `target` (all of them for -1), whose
        untried alternatives are skipped."""
        left = stack[target + 1:]
        del stack[target + 1:]
        stats = self.stats
        stats.backtracks += len(left)
        stats.skipped += sum([length_hint(frame[1]) for frame in left])


def run_search(
    state,
    next_task_fn: Callable[[], Optional[Task]],
    stats: SearchStats,
    on_complete: Callable[[], bool],
) -> bool:
    """Depth-first search with conflict-directed backjumping: one stack
    frame per task, iterating its alternatives with trail-based undo.
    on_complete decides whether a completed structure ends the search
    (its state is left intact) or is recorded and searched past (unit
    enumeration).

    Frame i has the bit 1 << i, and `state.label` is the bit of the frame
    whose alternative runs, so the structure labels what it makes. A
    clash passes the set `state.clash_set(clash, bit)` to the frame
    whose step met it, and a frame with every alternative tried adds
    `state.dead_end(task)`, which reads what made its task due with its
    alternatives; it then passes the union, less its own bit, to the
    deepest frame in it, skipping the frames between (see the module
    docstring). A completion that does not end the search, or whose
    audit fails, passes the full set `ALL_FRAMES`, as does every clash
    and dead end that a structure does not read exactly, and every one
    met before the structure's `pruned` flag is set: that is the
    chronological step, and the only one of unit enumeration."""
    return Search(state, next_task_fn, stats, on_complete).run()


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
    max_tasks=, tables=)` builds, all with the tables of this call. Each
    depth round tries an anonymous root, then each constant as the root
    where `pred` must hold; see the module docstring for verdict
    semantics."""
    k = policy.effective_k(program)
    stats = SearchStats()
    deadline = deadline_after(policy.time_limit)
    tables = CallTables()
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
                tables=tables,
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
            cs.release()
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

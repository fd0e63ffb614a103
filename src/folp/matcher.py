"""The compiled tableau engine (algorithm a2).

Expands nodes by grafting pre-compiled non-redundant unit completion
structures onto them instead of replaying individual rule applications:
an unexpanded node is matched against every cached unit whose root fits
it (anonymous roots fit anonymous nodes, a constant root only its own
constant) and whose saturated root content covers the node's accumulated
requirements. Blocking and the redundancy bound are shared with the
direct engine: a node is grafted at most once, at the scan's resume
point, after its ancestors and never while blocked, which keeps the
precondition that the scan rests on (see the `tableau` module
docstring).

Units may impose content on constants through their extra arcs. An
unexpanded constant accrues those requirements, constraining its later
match; on an already expanded constant the requirement must be covered
by its (total) content, otherwise the branch fails. Merged dependency
arcs can close cycles through constants, which the direct engine would
have rejected, so a cycle is treated as a clash here too. The graph is
acyclic before every graft, and a graft's arcs can close a cycle only
through present arcs from an atom over a constant that a unit arc
targets to an atom over the grafted node (the second case below). One
`reaches_node` search from those atoms decides all the arcs: with no
such path they go in untested, in one step; otherwise each is tested
as it goes in, so the same arc raises the same clash. The completion
audit searches the whole graph once more. A graft copies contents and
arcs in a fixed order, so where it stops on a clash does not depend on
set iteration order.

Each graft of a unit onto a node x is compiled once per engine call
(`_graft_plan`): the `grafts` table of the call (`tableau.CallTables`)
keeps the successor nodes, each content as sorted entries with the
ground atoms of its positive entries, and the ground dependency arcs.
Like the direct engine's instances, the plans hold in every structure
of the call and need no trail entries, because a plan reads nothing of
the state: x is grafted at most once and has no children before its
graft, so its tree successors are always x.1 ... x.n, also after
backtracking, and a constant stands for itself. A graft then copies
the plan. x's root content goes in entry by entry, through `insert`,
and so does the node content of a constant successor, where a
contradiction stops the graft at the exact entry. Every other key is
fresh: the tree children and the arcs out of x, which has none before
its graft. A fresh key cannot contradict, and `ForestState.fill` gives
it its whole content in one step. This argument and the pre-check's
below rest on what unit enumeration makes of a unit: consistent
contents, and acyclic arcs that leave atoms over its root and end at
its positive entries. `units.load_cache` rejects a cache whose units
break this.

The candidate list of a match is kept per engine call too: the
`matches` table of the call maps (x, ct(x), whether the depth bound
forbids a child of x) to whether that bound left a covering unit out
and the alternatives of the others (`_match_entry`). The list reads
only x, an operand of each alternative, its content, the cache's
`candidates_for` order and the flag, so it holds in every structure of
the call. Each `match` still adds the list's length to `units_tried`
and sets `pruned` from the entry, as a fresh scan would. The fail-fast
test after a graft reads the same entries: a successor that no unit
covers is one whose entry has no alternative and was not pruned. It
neither counts units nor sets `pruned`.

The driver, the task scan, the redundancy clash and the completion
audit are those of `tableau.CompletionStructure` and `tableau.decide`;
this engine supplies `node_task`: match the node, or None once it is
grafted, which is also what `is_saturated` tests. A graft checks the
redundancy bound at once, before the fail-fast test of its successors:
the next scan, which resumes at the grafted node, would raise the same
clash, but only after that test.
Grafts add content only at the grafted node and its successors, so on
one branch the scan does not walk the grafted prefix again. Candidate
units are tried least constraining first (fewest successors, then
smallest path sets).

A graft that would end in that redundancy clash is refuted before it
changes anything (`_redundant_graft`). After the graft, x holds the
unit's root content. So when k or more proper ancestors of x hold that
content, the clash follows the graft, unless the graft clashes first.
`_apply_match` counts those ancestors once: the count serves the
pre-check and, after a graft that goes ahead, the bound check. It counts
only where x has k or more proper ancestors, as many as its path has
steps; with fewer the bound is out of reach, and neither check runs.
The graft of an ungrafted x can clash first in only two ways:

- A contradiction at a constant successor. Nothing else can contradict:
  ct(x) is included in the root content, a tree successor is fresh and
  gets the unit's consistent content, and an arc from x has content only
  from x's own graft. The pre-check tests each constant successor's node
  content against the constant's content.
- A dependency cycle through arcs already present. A unit's own arcs
  are acyclic, and they all leave atoms over its root (unit enumeration
  expands only the root). Atoms over x, over its arcs and over its new
  children have no outgoing arcs before x is grafted. So a cycle must
  run from an atom over a constant that a unit arc targets, through
  present arcs, to an atom over x. The pre-check searches for such a
  path.

When either test finds something, the engine falls back to the graft,
although a path need not close a cycle. A refuted graft records what
the graft and the clash would have: `nodes_created` and
`max_depth_seen` for its tree successors, the match, the unit used and
the redundancy event. `expand_cs` returns None for it instead of
raising, so each counted match is still one call of `expand_cs` that
returns normally.
"""

from __future__ import annotations

from typing import Optional

from .forest import ClashError, GroundAtom, NodeId, Signed
from .syntax import Program
from .tableau import (
    Alternative,
    CompletionStructure,
    RedundancyPolicy,
    Task,
    Verdict,
    _check_engine_input,
    decide,
    # not called here: both engines search through `decide`, which calls
    # `tableau.run_search`, so perfbench's `matcher.search` probe, which
    # wraps this name, reads 0; it stays because every probe must name an
    # attribute (tests/test_tracer.py)
    run_search,
)
from .units import UnitCache, UnitCompletionStructure, ground_atom


class A2CompletionStructure(CompletionStructure):
    """Tableau state for the compiled engine: the status function ranges
    over nodes, not content entries. A node is saturated once a unit is
    grafted onto it, because its content is then the total content of
    the unit's saturated root."""

    algorithm = "a2"

    def __init__(
        self,
        program: Program,
        cache: UnitCache,
        *,
        pred: Optional[str] = None,
        **options,
    ):
        super().__init__(program, **options)
        self.cache = cache
        self.grafted: set[NodeId] = set()
        if pred is not None:
            self.insert(self.epsilon, Signed(pred, True))

    def is_saturated(self, node: NodeId) -> bool:
        return node in self.grafted

    # -- the Match rule --------------------------------------------------

    def expand_cs(
        self, x: NodeId, uc: UnitCompletionStructure, equal: Optional[int] = None
    ) -> Optional[tuple[NodeId, ...]]:
        """Graft the unit onto x: copy successors, contents, and
        dependency arcs under the relabeling of the unit root to x, by
        the graft's plan (`_graft_plan`). Returns the nodes standing for
        the unit's successors, in order. Raises ClashError on the first
        contradicting content entry or cycle-closing arc. Returns None
        instead, with only the graft's node statistics recorded, when
        `_redundant_graft` finds that the graft would end in the
        redundancy clash at x. `equal` is the number of proper ancestors
        of x that hold the unit's root content, counted here when not
        given. Only an x with k or more proper ancestors, as many as its
        path has steps, is counted and pre-checked: a shallower graft
        cannot end in that clash."""
        if uc.root_constant is not None and NodeId(uc.root_constant) != x:
            raise ValueError(
                f"unit rooted at constant {uc.root_constant!r} cannot expand {x}"
            )
        if uc.root_constant is None and self.forest.is_constant_node(x):
            raise ValueError(
                f"anonymously rooted unit cannot expand the constant {x}"
            )
        if not self.content(x) <= uc.root_content:
            raise ValueError(f"unit does not locally satisfy the content of {x}")
        if len(x.path) >= self.k:
            if equal is None:
                equal = self.count_equal_ancestors(x, uc.root_content)
            if self._redundant_graft(x, uc, equal):
                self.count_children(x, len(uc.tree_successors))
                return None
        plan_key = (id(uc), x)
        plan = self.tables.grafts.get(plan_key)
        if plan is None:
            plan = self.tables.grafts[plan_key] = self._graft_plan(x, uc)
        root_content, steps, arcs, targets, nodes, _ = plan
        self.grafted.add(x)
        self.trail.push(self.grafted.discard, x)
        insert = self.insert
        for sp in root_content:
            insert(x, sp)
        for node, make, contents in steps:
            if make is _CHILD:
                child = self.forest.add_child(x)
                assert child is node, "unit successors out of order"
                self.count_children(x, 1)
            elif make is _EXTRA:
                self.forest.add_es(x, node)
            for key, content, items in contents:
                if content is None:
                    # a constant's node content: on an expanded constant
                    # this either no-ops or raises, its content is total
                    for sp in items:
                        insert(key, sp)
                else:
                    self.fill(key, content, items)
        if arcs:
            if targets and self.g.reaches_node(targets, x):
                for src, dst in arcs:
                    self.add_dependency(src, dst)
            else:
                self.g.add_new_arcs(arcs)
        return nodes

    def _graft_plan(self, x: NodeId, uc: UnitCompletionStructure) -> tuple:
        """The graft of the unit onto x, ground (see the module
        docstring): the sorted root content; per successor, in unit
        order, its node, how it is made (`_CHILD`, `_EXTRA` or neither)
        and its content steps; the ground dependency arcs; the atoms
        over constants that they target; the successor nodes; and the
        unit. A content step is (key, None, sorted entries) for a
        constant's node content, which goes in entry by entry, and (key,
        content, positive atoms) for a fresh arc or child, which `fill`
        gives its whole content. `expand_cs` keeps each plan in the
        call's `grafts` table under the unit's identity and x, because
        the unit's dataclass hash walks its frozensets; the plan holds
        the unit, so the identity is not reused while the key is in
        use."""
        root_content, successors, g_arcs = uc.graft_order
        token_node: dict = {None: x}
        steps = nodes = arcs = targets = ()
        if successors:
            steps = []
            for succ, arc_content, node_content in successors:
                contents = []
                if succ.is_constant:
                    node = NodeId(succ.target)
                    make = _EXTRA if succ.has_arc else None
                else:
                    node = x.child(succ.target)
                    make = _CHILD
                token_node[succ.target] = node
                if succ.has_arc and arc_content:
                    arc = (x, node)
                    contents.append((arc, succ.arc_content, _atoms(arc, arc_content)))
                if node_content:
                    if succ.is_constant:
                        contents.append((node, None, node_content))
                    else:
                        contents.append((node, succ.node_content, _atoms(node, node_content)))
                steps.append((node, make, tuple(contents)))
            steps = tuple(steps)
            nodes = tuple([node for node, _, _ in steps])
        if g_arcs:
            arcs = tuple(
                [(ground_atom(token_node, a), ground_atom(token_node, b)) for a, b in g_arcs]
            )
            targets = uc.constant_targets
        return (root_content, steps, arcs, targets, nodes, uc)

    def _redundant_graft(
        self, x: NodeId, uc: UnitCompletionStructure, equal: int
    ) -> bool:
        """Whether grafting the unit onto the ungrafted x would end in the
        redundancy clash at x with no clash before it: `equal`, the number
        of proper ancestors that hold the unit's root content, is k or
        more, no constant successor's node content contradicts that
        constant's content, and no atom over a constant that a unit arc
        targets reaches an atom over x (see the module docstring). Reads
        the state, changes nothing."""
        if equal < self.k:
            return False
        ct = self.ct
        for succ in uc.successors:
            if succ.is_constant:
                node = NodeId(succ.target)
                # x's own content is the root content once that is in
                present = uc.root_content if node is x else ct.get(node, ())
                if any(sp.negated() in present for sp in succ.node_content):
                    return False
        return not self.g.reaches_node(uc.constant_targets, x)

    def match(self, x: NodeId) -> list[Alternative]:
        """One branch per unit that covers x (`_match_entry`); sets
        `pruned` when the depth bound left one out, and counts the
        branches as units tried."""
        pruned, alternatives = self._match_entry(x)
        if pruned:
            self.pruned = True
        self.stats.units_tried += len(alternatives)
        return alternatives

    def _match_entry(self, x: NodeId) -> tuple[bool, list[Alternative]]:
        """Whether the depth bound drops a unit that covers x (root fits
        x, root content includes ct(x)), and the alternatives of the
        others, least constraining first. Built on the first lookup in
        the call's `matches` table (see the module docstring)."""
        too_deep = self.max_depth is not None and x.depth + 1 > self.max_depth
        content = self.content_of_node(x)
        key = (x, content, too_deep)
        matches = self.tables.matches
        entry = matches.get(key)
        if entry is None:
            constant = x.root if self.forest.is_constant_node(x) else None
            step = self.__class__._apply_match
            pruned, alternatives = False, []
            for uc in self.cache.candidates_for(constant):
                if not content <= uc.root_content:
                    continue
                if too_deep and uc.tree_successors:
                    pruned = True
                    continue
                alternatives.append(
                    Alternative("match {} with unit {}", (x, uc.sort_key[:3]), step, (x, uc))
                )
            entry = matches[key] = (pruned, alternatives)
        return entry

    def _apply_match(self, x: NodeId, uc: UnitCompletionStructure) -> None:
        # one walk serves the pre-check and the bound below: a graft that
        # goes ahead leaves ct(x) equal to the unit's root content; x
        # with fewer than k proper ancestors cannot reach the bound, and
        # is not walked
        equal = None
        if len(x.path) >= self.k:
            equal = self.count_equal_ancestors(x, uc.root_content)
        successors = self.expand_cs(x, uc, equal)
        self.stats.matches += 1
        self.stats.units_used.add(uc.sort_key)
        # refuted (successors None), or grafted: an expanded node's
        # content and ancestors are fixed, so the bound can be checked at
        # once (see the module docstring); the scan found x unblocked,
        # and a graft only adds content at x and paths, so x is still
        # unblocked
        if equal is not None and equal >= self.k:
            raise self.redundant(x, equal)
        # Fail fast on successors no unit can ever cover. Sound because an
        # existing node's ancestors are already expanded, so its content
        # and theirs are fixed: an unblocked node can never become
        # blocked later (path sets only grow), and accrued constant
        # contents only grow, shrinking their candidate sets. The three
        # tests only read, so their order cannot change which successor
        # raises; blocking, the dearest, is derived last, only for a
        # successor that no unit covers (see the module docstring).
        for node in successors:
            if (
                node not in self.grafted
                and self._match_entry(node) == (False, [])
                and not self.is_blocked(node)
            ):
                raise ClashError(
                    "successor {} of {} is unblocked and matches no unit", node, x
                )

    # -- scheduling --------------------------------------------------------

    def node_task(self, x: NodeId) -> Optional[Task]:
        if x in self.grafted:
            return None
        return Task("match {}", (x,), self.match(x))

    # the shared scan, bound here too: perfbench's tracer wraps the
    # engine class's own attribute
    next_task = CompletionStructure.next_task


# how `_graft_plan` makes a successor: a new tree child, or an extra arc
# to a constant
_CHILD, _EXTRA = "child", "extra"


def _atoms(key, entries) -> tuple[GroundAtom, ...]:
    """The ground atoms of the positive entries at the node or arc `key`,
    in entry order (`ForestState.atom_for`)."""
    args = key if key.__class__ is tuple else (key,)
    return tuple([GroundAtom(sp.name, args) for sp in entries if sp.positive])


def check_sat_a2(
    program: Program,
    pred: str,
    cache: UnitCache,
    policy: Optional[RedundancyPolicy] = None,
) -> Verdict:
    """Satisfiability of a unary predicate by the compiled engine (see
    `tableau.decide`). The cache must have been compiled from the same
    (constraint-free) program: a fingerprint mismatch, or a unit that
    names a constant the program lacks, is an error (`UnitCache.verify`)."""
    _check_engine_input(program, pred)
    cache.verify(program)
    # the class is looked up per structure, so tests can substitute it
    return decide(
        program,
        pred,
        policy or RedundancyPolicy(),
        lambda **options: A2CompletionStructure(program, cache, **options),
    )

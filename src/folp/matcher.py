"""The compiled tableau engine (algorithm a2).

Expands nodes by grafting pre-compiled non-redundant unit completion
structures onto them instead of replaying individual rule applications:
an unexpanded node is matched against every cached unit whose root fits
it (anonymous roots fit anonymous nodes, a constant root only its own
constant) and whose saturated root content covers the node's accumulated
requirements. Blocking and the redundancy bound are shared with the
direct engine; because a node is grafted at most once and never while
blocked, new dependency arcs cannot unblock a node here, so the blocking
memo keeps its "blocked" entries across grafts (`arc_stable_blocking`,
argued in the `forest` module docstring).

Units may impose content on constants through their extra arcs. An
unexpanded constant accrues those requirements, constraining its later
match; on an already expanded constant the requirement must be covered
by its (total) content, otherwise the branch fails. Merged dependency
arcs can close cycles through constants, which the direct engine would
have rejected, so a cycle is treated as a clash here too: each grafted
arc is tested as it is inserted (the graph is acyclic before every
graft), and the completion audit searches the whole graph once more.
A graft copies contents and arcs in a fixed order, so where it stops on
a clash does not depend on set iteration order.

The driver, the task scan, the redundancy clash and the completion
audit are those of `tableau.CompletionStructure` and `tableau.decide`;
this engine supplies `node_task` (match the node) and `is_saturated`
(grafted). A graft checks the redundancy bound at once, before the
fail-fast test of its successors: the scan would raise the same clash,
but only after that test and a scan up to the node. Candidate units are
tried least constraining first (fewest successors, then smallest path
sets).
"""

from __future__ import annotations

from functools import partial
from typing import Iterable, Optional

from .forest import ClashError, NodeId, Signed
from .syntax import Program
from .tableau import (
    Alternative,
    CompletionStructure,
    RedundancyPolicy,
    Task,
    Verdict,
    _check_engine_input,
    decide,
    run_search,  # unused here; perfbench's tracer wraps matcher.run_search
)
from .units import UnitCache, UnitCompletionStructure, ground_atom


def local_satisfies(uc: UnitCompletionStructure, required: Iterable[Signed]) -> bool:
    """A unit locally satisfies a set of signed unary predicates iff the
    set is included in its root content."""
    return uc.root_content.issuperset(required)


class A2CompletionStructure(CompletionStructure):
    """Tableau state for the compiled engine: the status function ranges
    over nodes, not content entries. A node is saturated once a unit is
    grafted onto it, because its content is then the total content of
    the unit's saturated root."""

    algorithm = "a2"
    arc_stable_blocking = True

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

    def expand_cs(self, x: NodeId, uc: UnitCompletionStructure) -> list[NodeId]:
        """Graft the unit onto x: copy successors, contents, and
        dependency arcs under the relabeling of the unit root to x.
        Returns the nodes standing for the unit's successors, in order.
        Raises ClashError on the first contradicting content entry or
        cycle-closing arc."""
        if uc.root_constant is not None and NodeId(uc.root_constant) != x:
            raise ValueError(
                f"unit rooted at constant {uc.root_constant!r} cannot expand {x}"
            )
        if uc.root_constant is None and self.forest.is_constant_node(x):
            raise ValueError(
                f"anonymously rooted unit cannot expand the constant {x}"
            )
        if not local_satisfies(uc, self.content(x)):
            raise ValueError(f"unit does not locally satisfy the content of {x}")
        self.grafted.add(x)
        self.trail.push(partial(self.grafted.discard, x))
        root_content, successors, g_arcs = uc.graft_order()
        for sp in root_content:
            self.insert(x, sp)
        token_node: dict = {None: x}
        for succ, arc_content, node_content in successors:
            if succ.is_constant:
                node = NodeId(succ.target)
                if succ.has_arc:
                    self.forest.add_es(x, node)
            else:
                node = self.forest.add_child(x)
                assert node.path[-1] == succ.target, "unit successors out of order"
                self.stats.nodes_created += 1
                self.stats.max_depth_seen = max(
                    self.stats.max_depth_seen, node.depth
                )
            token_node[succ.target] = node
            if succ.has_arc:
                arc = (x, node)
                for sp in arc_content:
                    self.insert(arc, sp)
            for sp in node_content:
                # on an already expanded node (a constant) this either
                # no-ops or raises: its content is total
                self.insert(node, sp)
        for a, b in g_arcs:
            self.add_dependency(ground_atom(token_node, a), ground_atom(token_node, b))
        return [token_node[succ.target] for succ in uc.successors]

    def match(self, x: NodeId) -> list[Alternative]:
        """One branch per cached unit with a compatible root that locally
        satisfies ct(x), least constraining first."""
        constant = x.root if self.forest.is_constant_node(x) else None
        content = self.content(x)
        too_deep = self.max_depth is not None and x.depth + 1 > self.max_depth
        alternatives = []
        for uc in self.cache.candidates_for(constant):
            if not content <= uc.root_content:  # local_satisfies, inlined
                continue
            if too_deep and uc.tree_successors:
                self.pruned = True
                continue
            self.stats.units_tried += 1
            alternatives.append(
                Alternative(
                    "match {} with unit {}",
                    (x, uc.sort_key()[:3]),
                    lambda x=x, uc=uc: self._apply_match(x, uc),
                )
            )
        return alternatives

    def _apply_match(self, x: NodeId, uc: UnitCompletionStructure) -> None:
        successors = self.expand_cs(x, uc)
        self.stats.matches += 1
        self.stats.units_used.add(uc.sort_key())
        # an expanded node's content and ancestors are fixed, so the
        # bound can be checked at once (see the module docstring)
        if not self.is_blocked(x):
            self.redundancy_clash(x)
        # Fail fast on successors no unit can ever cover. Sound because an
        # existing node's ancestors are already expanded, so its content
        # and theirs are fixed: an unblocked node can never become
        # blocked later (path sets only grow), and accrued constant
        # contents only grow, shrinking their candidate sets.
        for node in successors:
            if self.is_saturated(node) or self.is_blocked(node):
                continue
            constant = node.root if self.forest.is_constant_node(node) else None
            content = self.content(node)
            if not any(
                content <= u.root_content for u in self.cache.candidates_for(constant)
            ):
                raise ClashError(
                    f"successor {node} of {x} is unblocked and matches no unit"
                )

    # -- scheduling --------------------------------------------------------

    def node_task(self, x: NodeId) -> Task:
        return Task("match {}", (x,), self.match(x))

    # the shared scan, bound here too: perfbench's tracer wraps the
    # engine class's own attribute
    next_task = CompletionStructure.next_task


def check_sat_a2(
    program: Program,
    pred: str,
    cache: UnitCache,
    policy: Optional[RedundancyPolicy] = None,
) -> Verdict:
    """Satisfiability of a unary predicate by the compiled engine (see
    `tableau.decide`). The cache must have been compiled from the same
    (constraint-free) program; a fingerprint mismatch is an error."""
    _check_engine_input(program, pred)
    cache.verify(program)
    # the class is looked up per structure, so tests can substitute it
    return decide(
        program,
        pred,
        policy or RedundancyPolicy(),
        lambda **options: A2CompletionStructure(program, cache, **options),
    )

"""The compiled tableau engine (algorithm a2).

Expands nodes by grafting pre-compiled non-redundant unit completion
structures onto them instead of replaying individual rule applications:
an unexpanded node is matched against every cached unit whose root fits
it (anonymous roots fit anonymous nodes, a constant root only its own
constant) and whose saturated root content covers the node's accumulated
requirements. Blocking, its memo and the redundancy bound are shared
with the direct engine: a node is grafted at most once, after its
ancestors and never while blocked, which is all the memo's argument in
the `forest` module docstring asks of this engine.

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
fail-fast test of its successors: the next scan, which resumes at the
grafted node, would raise the same clash, but only after that test.
Grafts add content only at the grafted node and its successors, so on
one branch the scan does not walk the grafted prefix again. Candidate
units are tried least constraining first (fewest successors, then
smallest path sets).

A graft that would end in that redundancy clash is refuted before it
changes anything (`_redundant_graft`). After the graft, x holds the
unit's root content. So when k or more proper ancestors of x hold that
content, the clash follows the graft, unless the graft clashes first.
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

from functools import partial
from typing import Iterator, Optional

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
        self, x: NodeId, uc: UnitCompletionStructure
    ) -> Optional[list[NodeId]]:
        """Graft the unit onto x: copy successors, contents, and
        dependency arcs under the relabeling of the unit root to x.
        Returns the nodes standing for the unit's successors, in order.
        Raises ClashError on the first contradicting content entry or
        cycle-closing arc. Returns None instead, with only the graft's
        node statistics recorded, when `_redundant_graft` finds that the
        graft would end in the redundancy clash at x."""
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
        if self._redundant_graft(x, uc):
            self.count_children(x, len(uc.tree_successors))
            return None
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
                self.count_children(x, 1)
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

    def _redundant_graft(self, x: NodeId, uc: UnitCompletionStructure) -> bool:
        """Whether grafting the unit onto the ungrafted x would end in the
        redundancy clash at x with no clash before it: k or more proper
        ancestors hold the unit's root content, no constant successor's
        node content contradicts that constant's content, and no atom
        over a constant that a unit arc targets reaches an atom over x
        (see the module docstring). Reads the state, changes nothing."""
        if self.count_equal_ancestors(x, uc.root_content) < self.k:
            return False
        ct = self.ct
        for succ in uc.successors:
            if succ.is_constant:
                node = NodeId(succ.target)
                # x's own content is the root content once that is in
                present = uc.root_content if node is x else ct.get(node, ())
                if any(sp.negated() in present for sp in succ.node_content):
                    return False
        return not self.g.reaches_node(uc.constant_targets(), x)

    def covering(self, x: NodeId) -> Iterator[UnitCompletionStructure]:
        """The cached units whose root fits x and whose root content
        includes ct(x), least constraining first."""
        constant = x.root if self.forest.is_constant_node(x) else None
        content = self.content(x)
        for uc in self.cache.candidates_for(constant):
            if content <= uc.root_content:
                yield uc

    def match(self, x: NodeId) -> list[Alternative]:
        """One branch per covering unit (see `covering`)."""
        too_deep = self.max_depth is not None and x.depth + 1 > self.max_depth
        alternatives = []
        for uc in self.covering(x):
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
        if successors is None:
            # refuted: x, with the unit's root content, would be redundant
            raise self.redundant(x, self.count_equal_ancestors(x, uc.root_content))
        # an expanded node's content and ancestors are fixed, so the
        # bound can be checked at once (see the module docstring); the
        # scan found x unblocked, and a graft only adds content at x and
        # paths, so x is still unblocked
        self.redundancy_clash(x)
        # Fail fast on successors no unit can ever cover. Sound because an
        # existing node's ancestors are already expanded, so its content
        # and theirs are fixed: an unblocked node can never become
        # blocked later (path sets only grow), and accrued constant
        # contents only grow, shrinking their candidate sets.
        for node in successors:
            if self.is_saturated(node) or self.is_blocked(node):
                continue
            if next(self.covering(node), None) is None:
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

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
a clash does not depend on the hash seed.

Search order and verdict semantics mirror the direct engine: ε first,
then constants in declaration order, then leftmost-first successors;
candidate units are tried least constraining first (fewest successors,
then smallest path sets).
"""

from __future__ import annotations

import time
from typing import Iterable, Optional

from .forest import ClashError, ForestState, GroundAtom, NodeId, Signed
from .syntax import Program
from .tableau import (
    EXP,
    UNEXP,
    Alternative,
    EngineBudgetError,
    RedundancyPolicy,
    SearchStats,
    Task,
    Verdict,
    VerdictKind,
    _check_engine_input,
    _depth_schedule,
    anonymous_root_name,
    redundancy_bound,
    run_search,
)
from .units import UnitCache, UnitCompletionStructure


def local_satisfies(uc: UnitCompletionStructure, required: Iterable[Signed]) -> bool:
    """A unit locally satisfies a set of signed unary predicates iff the
    set is included in its root content."""
    return uc.root_content.issuperset(required)


class A2CompletionStructure(ForestState):
    """Tableau state for the compiled engine: the status function ranges
    over nodes, not content entries; an expanded node's content is the
    total content of its unit's saturated root."""

    algorithm = "a2"
    arc_stable_blocking = True

    def __init__(
        self,
        program: Program,
        cache: UnitCache,
        *,
        pred: Optional[str] = None,
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
        self.cache = cache
        self.k = k if k is not None else redundancy_bound(len(program.upreds))
        self.max_depth = max_depth
        self.stats = stats if stats is not None else SearchStats()
        self.deadline = deadline
        self.max_tasks = max_tasks
        self.pruned = False
        self.st: dict[NodeId, str] = {
            node: UNEXP for node in self.forest.nodes()
        }
        if pred is not None:
            self.insert(self.epsilon, Signed(pred, True))

    def set_node_status(self, node: NodeId, value: str) -> None:
        old = self.st.get(node)
        self.st[node] = value

        def undo() -> None:
            if old is None:
                del self.st[node]
            else:
                self.st[node] = old

        self.trail.push(undo)

    def is_expanded(self, node: NodeId) -> bool:
        return self.st.get(node) == EXP

    def is_redundant_node(self, x: NodeId) -> bool:
        if not self.is_expanded(x) or self.is_blocked(x):
            return False
        return self.equal_ancestor_count(x) >= self.k

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
        self.set_node_status(x, EXP)
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
                self.set_node_status(node, UNEXP)
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
            self.add_dependency(self._atom(token_node, a), self._atom(token_node, b))
        return [token_node[succ.target] for succ in uc.successors]

    @staticmethod
    def _atom(token_node: dict, atom) -> GroundAtom:
        pred, tokens = atom
        nodes = tuple(token_node[t] for t in tokens)
        return GroundAtom(pred, nodes)

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
        self._redundancy_clash(x)
        # Fail fast on successors no unit can ever cover. Sound because an
        # existing node's ancestors are already expanded, so its content
        # and theirs are fixed: an unblocked node can never become
        # blocked later (path sets only grow), and accrued constant
        # contents only grow, shrinking their candidate sets.
        for node in successors:
            if self.is_expanded(node) or self.is_blocked(node):
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

    def check_budget(self) -> None:
        if self.deadline is not None and time.monotonic() >= self.deadline:
            raise EngineBudgetError("time limit exceeded")
        if self.max_tasks is not None and self.stats.tasks > self.max_tasks:
            raise EngineBudgetError("task budget exceeded")

    def _redundancy_clash(self, x: NodeId) -> None:
        """An expanded node's content and ancestors are fixed, so the
        bound is checked once right after its match; the completion audit
        re-checks every node against the final blocking statuses."""
        if not self.is_blocked(x):
            equal = self.equal_ancestor_count(x)
            if equal >= self.k:
                self.stats.redundancy_events.append(
                    {
                        "node": str(x),
                        "equal_ancestors": equal,
                        "chain_position": equal + 1,
                    }
                )
                raise ClashError(f"redundant node {x} ({equal} equal ancestors)")

    def next_task(self) -> Optional[Task]:
        self.check_budget()
        for x in self.forest.nodes():
            if self.is_expanded(x) or self.is_blocked(x):
                continue
            return Task("match {}", (x,), self.match(x))
        return None

    def is_complete_clash_free(self) -> bool:
        """No redundant node and no unblocked unexpanded node; the merged
        dependency graph must additionally be acyclic (see the module
        docstring), and blocking is re-derived from scratch."""
        if self.g.has_cycle():
            return False
        for x in self.forest.nodes():
            blocked = self.is_blocked(x)
            if not self.is_expanded(x) and not blocked:
                return False
            if self.is_redundant_node(x):
                return False
        return True


def check_sat_a2(
    program: Program,
    pred: str,
    cache: UnitCache,
    policy: Optional[RedundancyPolicy] = None,
) -> Verdict:
    """Satisfiability of a unary predicate by the compiled engine. The
    cache must have been compiled from the same (constraint-free)
    program; a fingerprint mismatch is an error. Verdict semantics match
    the direct engine."""
    policy = policy or RedundancyPolicy()
    _check_engine_input(program, pred)
    cache.verify(program)
    k = policy.effective_k(program)
    stats = SearchStats()
    deadline = (
        time.monotonic() + policy.time_limit if policy.time_limit is not None else None
    )
    epsilon_choices: list[Optional[str]] = [None] + list(program.constants)
    for depth in _depth_schedule(policy.max_depth):
        pruned_any = False
        for epsilon in epsilon_choices:
            cs = A2CompletionStructure(
                program,
                cache,
                pred=pred,
                epsilon=epsilon,
                k=k,
                max_depth=depth,
                stats=stats,
                deadline=deadline,
                max_tasks=policy.max_tasks,
            )
            found = run_search(cs, cs.next_task, stats, cs.is_complete_clash_free)
            if found:
                return Verdict(
                    VerdictKind.SAT,
                    "a2",
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
        if not pruned_any:
            return Verdict(
                VerdictKind.UNSAT,
                "a2",
                pred,
                stats,
                bounded_incomplete=policy.bounded_incomplete,
                depth_used=depth,
            )
        if policy.max_depth is not None:
            return Verdict(
                VerdictKind.DEPTH_BOUNDED_UNKNOWN,
                "a2",
                pred,
                stats,
                bounded_incomplete=True,
                depth_used=depth,
            )
    raise AssertionError("unreachable: the depth schedule is infinite")

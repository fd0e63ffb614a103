"""Full-recomputation references for the search's incremental bookkeeping
and for the oracle's shortcuts.

The engines keep the task scan's resume point and (a1) the ground rule
instances of each negative obligation in a cache, and a1 reads
saturation off its status map; the functions here derive the same
facts from scratch, so tests can compare the two at every step of a
real search (`reference_scan` is the full scan from the first root,
with nothing kept between scans). The resume point stays exact, and
unblocked, only under the precondition of `ForestState`;
`checked_landings` asserts it at every new content entry of a real
search. `naive_reachable` recomputes the dependency graph's
reachability. The oracle grounds rules through argument-position
templates, evaluates every reduct candidate at once in bit-sliced
columns and picks `bounded_sat`'s witness on those columns;
`reference_ground` is the plain substitution route,
`reference_model_masks` the scan one candidate at a time,
`reference_bounded_sat` the definition on top of it, and
`reference_is_answer_set` the witness check through ground rules,
their reduct and its least model, where the oracle checks on atom ids.
Unit redundancy is decided by a backtracking injection;
`reference_is_redundant_ucs` tries every permutation. Pruning compares units only within buckets of equal
root constant and root content; `reference_retained` compares every
pair. `unit_as_structure` and `passes_a1_completion_check`
hold a unit to the direct engine's completion conditions.

The engines refute a doomed positive rule application (a1) or a graft
that ends in the redundancy clash (a2) before it changes the state;
`ReferenceA1` and `ReferenceA2` make every such step and let the
mutation raise, and `checked_refutations_a1` and
`checked_refutations_a2` make each step both ways and compare them.
The direct engine applies a rule instance from a ground plan built on
its first use and shared by the structures of one call;
`reference_apply_positive` grounds the body afresh every time, and
`checked_refutations_a1` counts the applications made on a plan built
before.
The compiled engine grafts from a plan ground once per unit and node;
`reference_graft` grafts entry by entry, grounding every atom afresh
and testing every arc as it goes in (`ReferenceGraftA2`), and
`checked_grafts_a2` makes every graft both ways and compares them.
The compiled engine keeps the alternatives of each match per call,
node, content and depth flag, and its fail-fast test after a graft
reads the same entries; `checked_matches_a2` compares every match with
a fresh scan of the cache (`reference_match`) and every fail-fast test
with `reference_fail_fast`. Neither
engine counts equal-content ancestors of a node with fewer than k
proper ancestors; `CheckedWalkSkips` checks each walk left out.
"""

import itertools
from functools import partial
from operator import attrgetter
from typing import Optional

from folp.forest import ClashError, NodeId, Signed
from folp.matcher import A2CompletionStructure
from folp.oracle import (
    GroundProgram,
    GroundRule,
    OpenInterpretation,
    Universe,
    _rule_variables,
    gl_reduct,
    least_model,
    satisfies_rule,
)
from folp.syntax import BinaryShape, Inequality, RuleKind, binary_shape, unary_shape
from folp import tableau
from folp.tableau import EXP, A1CompletionStructure
from folp.units import ground_atom, is_redundant_ucs


def reference_is_saturated(cs: A1CompletionStructure, x) -> bool:
    """Every unary predicate decided and expanded at x, every binary
    predicate decided and expanded on every outgoing arc, read off the
    contents and the status map."""
    program = cs.program
    if not all(cs.decided(x, q) for q in program.upreds):
        return False
    if any(cs.status(x, sp) != EXP for sp in cs.content(x)):
        return False
    for arc in cs.forest.arcs_from(x):
        if not all(cs.decided(arc, f) for f in program.bpreds):
            return False
        if any(cs.status(arc, sp) != EXP for sp in cs.content(arc)):
            return False
    return True


def reference_equal_ancestor_count(cs, x) -> int:
    return reference_equal_ancestor_count_of(cs, x, cs.content(x))


def reference_equal_ancestor_count_of(cs, x, content) -> int:
    """The proper ancestors of x whose content equals `content`."""
    return sum(1 for y in x.ancestors() if cs.content(y) == content)


class CheckedWalkSkips:
    """A mixin for an engine structure that checks every equal-ancestor
    walk the engine leaves out, in the scan's redundancy clash and (a2)
    in a match: there x has fewer than k proper ancestors, and a fresh
    count of those that hold the content asked about is below k. The
    skips are counted in the class attribute `skips`."""

    skips = walks = 0

    def count_equal_ancestors(self, x, content):
        self.walks += 1
        return super().count_equal_ancestors(x, content)

    def redundancy_clash(self, x):
        walks = self.walks
        super().redundancy_clash(x)
        if self.walks == walks:
            self.walk_skipped(x, self.content(x))

    def walk_skipped(self, x, content) -> None:
        assert len(x.path) < self.k, str(x)
        assert reference_equal_ancestor_count_of(self, x, content) < self.k, str(x)
        type(self).skips += 1


def reference_blocker(cs, x):
    """The blocking pair of x by the definition: the nearest anonymous
    ancestor y with ct(x) included in ct(y) and an empty path set, built
    pair by pair with `DependencyGraph.reaches` (`paths_set`), where the
    engines make one backward search (`DependencyGraph.reaching`)."""
    content = cs.content(x)
    for y in x.ancestors():
        if cs.forest.is_constant_node(y):
            continue
        if content <= cs.content(y) and not cs.g.paths_set(y, x, cs.free_preds):
            return y
    return None


def reference_scan(cs, saturated) -> tuple:
    """The task scan from the first root, uncached: blocking by the
    definition (`reference_blocker`), the equal-ancestor count afresh,
    saturation by `saturated(cs, x)`. Returns the outcome and the nodes
    read, in order. The outcome is (x, False) for the first unblocked unsaturated
    node x, (x, True) when a saturated unblocked node x before it has k
    or more equal-content ancestors, and (None, False) when there is
    neither; x is the last node read. Every node read must have all its
    proper ancestors saturated."""
    passed = []
    for x in cs.forest.nodes():
        assert all(saturated(cs, y) for y in x.ancestors()), str(x)
        passed.append(x)
        if reference_blocker(cs, x) is not None:
            continue
        if not saturated(cs, x):
            return (x, False), passed
        if reference_equal_ancestor_count(cs, x) >= cs.k:
            return (x, True), passed
    return (None, False), passed


def checked_next_task(cs, saturated, scan):
    """`scan()`, the engine's resumed task scan, checked against
    `reference_scan`: both pick the same node (the resume point after
    the scan), raise the redundancy clash at the same node, or find no
    task. Before the scan, the resume node has no blocking pair, which
    the scan takes for granted, and at every node the reference scan
    passes the engine's blocker (`find_blocking_pair`) is the
    definition's and the equal-ancestor count is the one a fresh walk
    gives. The class of `cs` counts the selections in `scans` and the
    nodes at which both were compared in `count_checks`."""
    assert reference_blocker(cs, cs.resume) is None, str(cs.resume)
    (expected, clash), passed = reference_scan(cs, saturated)
    for x in passed:
        assert cs.find_blocking_pair(x) is reference_blocker(cs, x), str(x)
        assert cs.equal_ancestor_count(x) == reference_equal_ancestor_count(cs, x), str(x)
    counts = type(cs)
    counts.scans += 1
    counts.count_checks += len(passed)
    events = len(cs.stats.redundancy_events)
    try:
        task = scan()
    except ClashError:
        assert clash, (str(expected), "clash")
        assert [e["node"] for e in cs.stats.redundancy_events[events:]] == [str(expected)]
        raise
    assert not clash, (str(expected), "no clash")
    if task is None:
        assert expected is None, str(expected)
    else:
        assert cs.resume is expected, (str(cs.resume), str(expected))
    return task


def assert_lands_after_the_point(cs, key) -> None:
    """The precondition of `ForestState` for a new content entry at the
    node or arc `key`: its node, an arc's source, is at the resume point
    or after it in node order."""
    node = key[0] if isinstance(key, tuple) else key
    order = list(cs.forest.nodes())
    assert order.index(node) >= order.index(cs.resume), (str(node), str(cs.resume))


def checked_landings(base) -> type:
    """A fresh subclass of the engine structure `base` that asserts the
    precondition of `ForestState` (`assert_lands_after_the_point`) at
    every new content entry that `insert` or `fill` makes, and counts
    those entries in `landings`."""

    class CheckedLandings(base):
        landings = 0

        def insert(self, key, sp):
            new = super().insert(key, sp)
            if new:
                assert_lands_after_the_point(self, key)
                CheckedLandings.landings += 1
            return new

        def fill(self, key, content, atoms):
            super().fill(key, content, atoms)
            assert_lands_after_the_point(self, key)
            CheckedLandings.landings += 1

    return CheckedLandings


def reference_pending_instances(cs: A1CompletionStructure, x, p: str, okey) -> list:
    """(instance key, shape, targets) of every rule instance defining p
    at the node or arc x that the ledger of `okey` does not hold, in
    refutation order, grounded afresh. An arc's ends are fixed: it has
    one instance per rule, keyed by the rule's index, targets None."""
    handled = cs.handled_set(okey)
    pending = []
    for rule_index, rule in enumerate(cs.program.rules_for_head(p)):
        if rule.kind is RuleKind.FREE:
            continue  # a choice rule never forces the atom
        if isinstance(x, tuple):
            shape = binary_shape(rule)
            fits = cs._head_matches_node(shape.s, x[0]) and cs._head_matches_node(
                shape.t, x[1]
            )
            if fits and rule_index not in handled:
                pending.append((rule_index, shape, None))
            continue
        shape = unary_shape(rule)
        if not cs._head_matches_node(shape.head_term, x):
            continue
        for targets in cs._instance_groundings(x, shape):
            instance_key = (rule_index, targets)
            if instance_key not in handled:
                pending.append((instance_key, shape, targets))
    return pending


def assert_first_pending_agrees(cs: A1CompletionStructure, okey) -> None:
    """The cached first pending instance of the negative obligation
    `okey` is the first of a fresh full re-grounding, ground body
    included."""
    x, sp = okey
    pending = reference_pending_instances(cs, x, sp.name, okey)
    first = cs._first_pending(x, sp.name, okey)
    if not pending:
        assert first is None, (str(x), sp)
        return
    instance_key, shape, targets = pending[0]
    if targets is None:  # an arc: the rule's one target is its second end
        body = reference_ground_body(x[0], shape, x[1:])
    else:
        body = reference_ground_body(x, shape, targets)
    assert first == (instance_key, body), (str(x), sp)


def reference_ground_body(x, shape, targets) -> list:
    """The body literals of a rule instance at x (of a binary rule: at
    the arc from x to its one target), each signed afresh from the shape
    with its node or arc: beta, then per successor its gamma and its
    delta."""
    def signed(lit):
        return Signed(lit.atom.pred, lit.positive)

    body = [(x, signed(lit)) for lit in shape.beta]
    specs = (shape,) if isinstance(shape, BinaryShape) else shape.successors
    for spec, y in zip(specs, targets):
        body += [((x, y), signed(lit)) for lit in spec.gamma]
        body += [(y, signed(lit)) for lit in spec.delta]
    return body


def checked_a1() -> type:
    """A fresh subclass of the direct engine's structure that, at every
    task selection, asserts at every node that `is_saturated` agrees
    with the reference and checks the scan (`checked_next_task`),
    and at every negative expansion, unary or binary, and every refuted
    instance that the instance cache agrees; `checks` counts the nodes
    whose saturation was compared, `pending_checks` the obligations,
    `scans` and `count_checks` as in `checked_next_task`."""

    class CheckedA1(A1CompletionStructure):
        checks = scans = count_checks = pending_checks = 0

        def next_task(self):
            for x in self.forest.nodes():
                assert self.is_saturated(x) == reference_is_saturated(self, x), str(x)
                CheckedA1.checks += 1
            return checked_next_task(self, reference_is_saturated, super().next_task)

        def expand_unary_negative(self, x, p):
            okey = (x, Signed(p, False))
            assert_first_pending_agrees(self, okey)
            CheckedA1.pending_checks += 1
            return super().expand_unary_negative(x, p)

        def expand_binary_negative(self, arc, f):
            assert_first_pending_agrees(self, (arc, Signed(f, False)))
            CheckedA1.pending_checks += 1
            return super().expand_binary_negative(arc, f)

        def _finish_instance(self, okey, instance_key):
            super()._finish_instance(okey, instance_key)
            assert_first_pending_agrees(self, okey)
            CheckedA1.pending_checks += 1

    return CheckedA1


def checked_a2() -> type:
    """The same scan checks for the compiled engine's structure, which
    shares the scan and tests saturation by set membership; `scans` and
    `count_checks` as in `checked_next_task`."""

    class CheckedA2(A2CompletionStructure):
        scans = count_checks = 0

        def next_task(self):
            return checked_next_task(
                self, A2CompletionStructure.is_saturated, super().next_task
            )

    return CheckedA2


def reference_apply_positive(cs, application) -> None:
    """`A1CompletionStructure._apply_positive` as mutate-then-undo, with
    no plan: the body is ground afresh and goes in literal by literal,
    each fresh successor made just before its literals, sp is marked
    expanded, and each dependency arc is tested as it goes in; the first
    contradiction or cycle raises from the mutation itself, and the
    search's undo takes back the rest."""
    key, sp = application.key, application.sp
    body, binding = application.body, application.binding
    x = key[0] if isinstance(key, tuple) else key
    targets = map(partial(cs._materialize, x), binding)
    positive = []
    for lit_key, lit_sp in cs._ground_body(x, body, targets):
        cs.insert_tracked(lit_key, lit_sp)
        if lit_sp.positive:
            positive.append(cs.atom_for(lit_key, lit_sp.name))
    cs.set_status(key, sp, EXP)
    head = cs.atom_for(key, sp.name)
    cs.made[head] = cs.label
    for atom in positive:
        cs.add_dependency(head, atom)


class ReferenceA1(A1CompletionStructure):
    """The direct engine with every positive rule application made by
    `reference_apply_positive`."""

    _apply_positive = reference_apply_positive


class ReferenceA2(A2CompletionStructure):
    """The compiled engine with every match grafted: the redundancy
    clash at x, if any, comes after the whole graft."""

    def _redundant_graft(self, x, uc, equal):
        return False


def reference_graft(cs, x, uc, equal=None):
    """`A2CompletionStructure.expand_cs` entry by entry: after the
    engine's pre-check, every content entry goes in through `insert`,
    every unit atom is grounded afresh, and every dependency arc is
    tested as it goes in (`add_dependency`). The equal-ancestor count is
    taken afresh; `equal` is ignored."""
    if cs._redundant_graft(x, uc, reference_equal_ancestor_count_of(cs, x, uc.root_content)):
        cs.count_children(x, len(uc.tree_successors))
        return None
    cs.grafted.add(x)
    cs.trail.push(cs.grafted.discard, x)
    root_content, successors, g_arcs = uc.graft_order
    for sp in root_content:
        cs.insert(x, sp)
    token_node: dict = {None: x}
    for succ, arc_content, node_content in successors:
        if succ.is_constant:
            node = NodeId(succ.target)
            if succ.has_arc:
                cs.forest.add_es(x, node)
        else:
            node = cs.forest.add_child(x)
            assert node.path[-1] == succ.target, "unit successors out of order"
            cs.made[node] = cs.label
            cs.count_children(x, 1)
        token_node[succ.target] = node
        if succ.has_arc:
            for sp in arc_content:
                cs.insert((x, node), sp)
        for sp in node_content:
            cs.insert(node, sp)
    for a, b in g_arcs:
        cs.add_dependency(ground_atom(token_node, a), ground_atom(token_node, b))
    return [token_node[succ.target] for succ in uc.successors]


class ReferenceGraftA2(A2CompletionStructure):
    """The compiled engine with every graft made by `reference_graft`."""

    expand_cs = reference_graft


def _stats_state(stats) -> dict:
    """The statistics, the redundancy events by their count."""
    state = dict(vars(stats))
    state["redundancy_events"] = len(stats.redundancy_events)
    state["clashes"] = dict(stats.clashes)
    state["units_used"] = frozenset(stats.units_used)
    return state


def _restore_stats(stats, state: dict) -> None:
    for name, value in state.items():
        if name == "redundancy_events":
            del stats.redundancy_events[value:]
        elif name == "clashes":
            # in place: the search holds the dict
            stats.clashes.update(value)
        else:
            setattr(stats, name, set(value) if name == "units_used" else value)


def _state(cs) -> tuple:
    """Copies of what a rule application or a graft changes: contents,
    dependency arcs (target and source lists in order), the graph's per-node atom
    buckets, trees, extra arcs, statuses (a1), grafted nodes (a2) and
    the resume point."""
    return (
        {key: frozenset(content) for key, content in cs.ct.items()},
        {atom: tuple(targets) for atom, targets in cs.g._succ.items()},
        {atom: tuple(sources) for atom, sources in cs.g._pred.items()},
        {node: tuple(atoms) for node, atoms in cs.g._by_node.items() if atoms},
        {node: tuple(children) for node, children in cs.forest._children.items()},
        frozenset(cs.forest._es_set),
        dict(getattr(cs, "st", {})),
        frozenset(getattr(cs, "grafted", ())),
        cs.resume,
    )


def _reference_outcome(cs, run) -> tuple:
    """`run()`'s clash message (None without one), the statistics and
    the redundancy events it added, and the state after it; the state
    and the statistics are then put back."""
    saved = _stats_state(cs.stats)
    mark = cs.trail.mark()
    try:
        run()
    except ClashError as err:
        message, state = str(err), None
    else:
        message, state = None, _state(cs)
    events = cs.stats.redundancy_events[saved["redundancy_events"]:]
    outcome = (message, _stats_state(cs.stats), events, state)
    cs.trail.undo_to(mark)
    _restore_stats(cs.stats, saved)
    return outcome


def _checked_outcome(cs, run, reference: tuple) -> Optional[ClashError]:
    """`run()`, the engine's own step, checked against the reference's
    outcome: the same clash message, the same statistics and redundancy
    events after it and, without a clash, the same state. Returns the
    clash to re-raise."""
    message, stats, events, state = reference
    try:
        run()
    except ClashError as err:
        clash = err
    else:
        clash = None
    assert (clash and str(clash)) == message, (str(clash), message)
    assert _stats_state(cs.stats) == stats, message
    assert cs.stats.redundancy_events[stats["redundancy_events"] - len(events):] == events
    if clash is None:
        assert _state(cs) == state
    return clash


def checked_refutations_a1() -> type:
    """The direct engine with every positive rule application made twice:
    first by `reference_apply_positive`, whose clash message, statistics
    and end state are recorded and then undone, then by the engine from
    its ground plan, which must give the same. A clash must come before
    any mutation: the engine's clash leaves the trail as it was.
    `applications` counts the applications, `refuted` the clashes,
    `builds` the plans built and `plan_hits` the applications made on a
    plan built before, in the same structure or another one of the same
    call. Every walk the scan leaves out is checked (`CheckedWalkSkips`)
    and counted in `skips`."""

    class CheckedRefutationsA1(CheckedWalkSkips, A1CompletionStructure):
        applications = refuted = builds = plan_hits = 0

        def _ground_plan(self, *args):
            CheckedRefutationsA1.builds += 1
            return super()._ground_plan(*args)

        def _apply_positive(self, application):
            cls = CheckedRefutationsA1
            cls.applications += 1
            reference = _reference_outcome(
                self, partial(reference_apply_positive, self, application)
            )
            builds, mark = cls.builds, self.trail.mark()
            clash = _checked_outcome(
                self, partial(super()._apply_positive, application), reference
            )
            cls.plan_hits += cls.builds == builds
            if clash is not None:
                assert self.trail.mark() == mark, f"the state changed: {clash}"
                cls.refuted += 1
                raise clash

    return CheckedRefutationsA1


def checked_refutations_a2() -> type:
    """The compiled engine with every match made twice: first with the
    whole graft (`ReferenceA2`), whose clash message, statistics and
    end state are recorded and then undone, then by the engine, which
    must give the same. `matches` counts the matches, `doomed` those the
    reference ends in the redundancy clash at the matched node, and
    `refuted` those the pre-check (`_redundant_graft`) refuted. Every
    count the pre-check receives is exact, and every walk the engine's
    match or scan leaves out is checked (`CheckedWalkSkips`) and counted
    in `skips`."""

    class CheckedRefutationsA2(CheckedWalkSkips, A2CompletionStructure):
        matches = doomed = refuted = 0
        graft_always = False

        def _redundant_graft(self, x, uc, equal):
            if self.graft_always:
                return False
            assert equal == reference_equal_ancestor_count_of(self, x, uc.root_content)
            redundant = super()._redundant_graft(x, uc, equal)
            CheckedRefutationsA2.refuted += redundant
            return redundant

        def _apply_match(self, x, uc):
            cls = CheckedRefutationsA2
            cls.matches += 1
            self.graft_always = True
            try:
                reference = _reference_outcome(self, partial(super()._apply_match, x, uc))
            finally:
                self.graft_always = False
            message = reference[0]
            cls.doomed += bool(message and message.startswith(f"redundant node {x} "))
            walks = self.walks
            clash = _checked_outcome(self, partial(super()._apply_match, x, uc), reference)
            if self.walks == walks:
                self.walk_skipped(x, uc.root_content)
            if clash is not None:
                raise clash

    return CheckedRefutationsA2


def reference_match(cs, x) -> tuple:
    """(pruned, units) of a match of x, from a fresh scan of the cached
    units in `candidates_for` order: the units whose root fits x and
    whose root content includes ct(x), less those with tree successors
    where the depth bound forbids a child of x; pruned when the bound
    left one out."""
    too_deep = cs.max_depth is not None and x.depth + 1 > cs.max_depth
    pruned, units = False, []
    for uc in reference_covering(cs, x):
        if too_deep and uc.tree_successors:
            pruned = True
        else:
            units.append(uc)
    return pruned, units


def reference_covering(cs, x) -> list:
    """The cached units whose root fits x and whose root content
    includes ct(x), from a fresh scan in `candidates_for` order."""
    constant = x.root if cs.forest.is_constant_node(x) else None
    content = cs.content(x)
    return [uc for uc in cs.cache.candidates_for(constant) if content <= uc.root_content]


def reference_fail_fast(cs, x, successors) -> Optional[str]:
    """The clash message of the fail-fast test after a graft onto x that
    went ahead: it names the first successor that is ungrafted, that no
    cached unit covers (`reference_covering`, no depth flag), or once
    `pruned` is set, none that the depth bound leaves in, and that is
    unblocked; None when there is no such successor."""
    for node in successors:
        covering = reference_covering(cs, node)
        too_deep = cs.max_depth is not None and node.depth + 1 > cs.max_depth
        uncovered = not covering or (
            cs.pruned and too_deep and all(uc.tree_successors for uc in covering)
        )
        if node not in cs.grafted and uncovered and not cs.is_blocked(node):
            return f"successor {node} of {x} is unblocked and matches no unit"
    return None


def checked_matches_a2() -> type:
    """The compiled engine with every match checked against
    `reference_match`: the alternatives graft the same units in the same
    order, `units_tried` grows by their number and `pruned` is set
    exactly when it was set before or the reference prunes. After every
    graft that goes ahead and stays below the redundancy bound, the
    fail-fast test, which reads the same match entries, must raise
    exactly the clash of `reference_fail_fast`, or none when that gives
    None. `matches` counts the matches, `builds` the entries built,
    `hits` the matches answered by an entry built before, in the same
    structure or another one of the same call, `fail_fast` the grafts
    checked and `uncovered` those whose test raised."""

    class CheckedMatchesA2(A2CompletionStructure):
        matches = builds = hits = fail_fast = uncovered = 0
        successors = None

        def _match_entry(self, x):
            size = len(self.tables.matches)
            entry = super()._match_entry(x)
            CheckedMatchesA2.builds += len(self.tables.matches) - size
            return entry

        def match(self, x):
            cls = CheckedMatchesA2
            cls.matches += 1
            pruned, units = reference_match(self, x)
            tried, was_pruned, builds = self.stats.units_tried, self.pruned, cls.builds
            alternatives = super().match(x)
            cls.hits += cls.builds == builds
            assert [a.operands for a in alternatives] == [(x, uc) for uc in units], str(x)
            assert [a.description for a in alternatives] == [
                f"match {x} with unit {uc.sort_key[:3]}" for uc in units
            ]
            assert self.stats.units_tried == tried + len(units), str(x)
            assert self.pruned == (was_pruned or pruned), str(x)
            return alternatives

        def expand_cs(self, x, uc, equal=None):
            self.successors = super().expand_cs(x, uc, equal)
            return self.successors

        def _apply_match(self, x, uc):
            cls = CheckedMatchesA2
            self.successors = None
            try:
                super()._apply_match(x, uc)
                clash = None
            except ClashError as err:
                clash = err
            successors, self.successors = self.successors, None
            # a clash inside the graft leaves no successors; a graft at
            # the bound ends in the redundancy clash before the test
            if successors is not None and (
                len(x.path) < self.k
                or reference_equal_ancestor_count_of(self, x, uc.root_content) < self.k
            ):
                cls.fail_fast += 1
                expected = reference_fail_fast(self, x, successors)
                assert (clash and str(clash)) == expected, (str(x), str(clash), expected)
                cls.uncovered += clash is not None
            if clash is not None:
                raise clash

    return CheckedMatchesA2


def checked_grafts_a2() -> type:
    """The compiled engine with every graft made twice: first by
    `reference_graft`, whose clash message, statistics, end state and
    successor nodes are recorded and then undone, then from the
    engine's plan, which must give the same. `grafts` counts the grafts,
    `cycles` those that end in a dependency cycle, which only the
    per-arc fallback can raise, and `plan_hits` those that went ahead on
    a plan built before."""

    class CheckedGraftsA2(A2CompletionStructure):
        grafts = cycles = plan_hits = builds = 0

        def _graft_plan(self, x, uc):
            CheckedGraftsA2.builds += 1
            return super()._graft_plan(x, uc)

        def expand_cs(self, x, uc, equal=None):
            cls = CheckedGraftsA2
            cls.grafts += 1
            nodes = []
            reference = _reference_outcome(
                self, lambda: nodes.append(reference_graft(self, x, uc))
            )
            builds = cls.builds
            clash = _checked_outcome(
                self, lambda: nodes.append(super(cls, self).expand_cs(x, uc, equal)), reference
            )
            went_ahead = clash is not None or nodes[1] is not None
            cls.plan_hits += went_ahead and cls.builds == builds
            if clash is not None:
                cls.cycles += str(clash).startswith("dependency cycle")
                raise clash
            reference_nodes, engine_nodes = nodes
            if engine_nodes is not None:
                engine_nodes = list(engine_nodes)
            assert engine_nodes == reference_nodes, (str(x), engine_nodes, reference_nodes)
            return engine_nodes

    return CheckedGraftsA2


def reference_run_search(state, next_task_fn, stats, on_complete) -> bool:
    """`tableau.run_search` without backjumping: chronological depth-first
    search, one frame per task, each alternative tried after its elder
    siblings' subtrees fail, with trail-based undo."""
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
    stack = [frame] if isinstance(frame, list) else []
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
            alternative.apply(state)
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


def _replay_succeeds(search, alternative) -> bool:
    """Whether `alternative`, applied to the search's state, heads a
    subtree that the chronological search (`reference_run_search`) does
    not exhaust: one that reaches a structure passing the completion
    audit. Only an engine's search, which ends at the first such
    structure, may jump; unit enumeration never does. The state, the
    statistics and the budgets are put back after it, and `pruned` must
    come out as it went in."""
    state = search.state
    ends = state.is_complete_clash_free
    assert search.on_complete == ends, "unit enumeration jumped"
    saved, pruned = _stats_state(state.stats), state.pruned
    budgets = state.max_tasks, state.deadline
    state.max_tasks = state.deadline = None
    mark = state.trail.mark()
    try:
        alternative.apply(state)
    except ClashError:
        succeeds = False
    else:
        succeeds = reference_run_search(state, search.next_task, state.stats, ends)
    state.trail.undo_to(mark)
    _restore_stats(state.stats, saved)
    state.max_tasks, state.deadline = budgets
    assert state.pruned == pruned, alternative.description
    return succeeds


def checked_backjumps() -> type:
    """A subclass of `tableau.Search`, to install as `tableau.Search`,
    that checks every jump: before the search moves on, each frame the
    jump leaves is restored, deepest first, and each of its untried
    alternatives is run with the chronological search, which must
    exhaust it without a completion and without changing `pruned`
    (`_replay_succeeds`); unit enumeration must not jump at all. `jumps`
    counts the jumps and `replays` the alternatives run."""

    class CheckedBackjumps(tableau.Search):
        jumps = replays = 0

        def jump(self, stack, target):
            left = stack[target + 1:]
            super().jump(stack, target)
            CheckedBackjumps.jumps += 1
            for mark, alternatives, task, _ in reversed(left):
                self.state.trail.undo_to(mark)
                for alternative in alternatives:
                    CheckedBackjumps.replays += 1
                    assert not _replay_succeeds(self, alternative), (
                        task.description, alternative.description
                    )

    return CheckedBackjumps


def naive_reachable(arcs, src, dst, vertices=()) -> bool:
    """Transitive-closure recomputation used as a test oracle for
    `DependencyGraph.reaches`."""
    adjacency: dict = {}
    vertices = set(vertices)
    for a, b in arcs:
        adjacency.setdefault(a, set()).add(b)
        vertices.update((a, b))
    if src == dst:
        return src in vertices
    closure = {src}
    frontier = [src]
    while frontier:
        node = frontier.pop()
        for nxt in adjacency.get(node, ()):
            if nxt not in closure:
                closure.add(nxt)
                frontier.append(nxt)
    return dst in closure


def reference_ground(program, universe) -> GroundProgram:
    """`oracle.ground` by plain substitution, as the seed grounded: every
    assignment of universe elements to the rule's variables, each term
    looked up in the assignment, instances with an inequality between
    equal elements dropped, repeated instances kept once, in first-seen
    order."""
    out: list[GroundRule] = []
    seen: set[GroundRule] = set()
    for rule in program.rules:
        variables = _rule_variables(rule)
        for values in itertools.product(universe.elements, repeat=len(variables)):
            subst = dict(zip(variables, values))

            def g(term) -> str:
                return subst[term] if term.is_variable else term.name

            ok = True
            pos = []
            neg = []
            for item in rule.body:
                if isinstance(item, Inequality):
                    if g(item.left) == g(item.right):
                        ok = False
                        break
                    continue
                ground_atom = (item.atom.pred, tuple(g(t) for t in item.atom.args))
                (pos if item.positive else neg).append(ground_atom)
            if not ok:
                continue
            head = None
            if rule.head is not None:
                head = (rule.head.pred, tuple(g(t) for t in rule.head.args))
            gr = GroundRule(head, tuple(pos), tuple(neg), choice=rule.kind is RuleKind.FREE)
            if gr not in seen:
                seen.add(gr)
                out.append(gr)
    return GroundProgram(tuple(out))


def reference_model_masks(program, universe) -> tuple[list, list[int]]:
    """`oracle._model_masks` one candidate at a time, over the plain
    substitution grounding. Returns the sorted ground atoms (those of the
    grounding and every unary atom over the universe) and the answer
    sets as masks of their bits: candidate c puts the i-th relevant atom
    (under naf in some body, or a free-rule head) into S when bit i of c
    is set; the rules active under S derive its least model M, which is
    kept when it agrees with S on the relevant atoms and violates no
    constraint; candidates in ascending order."""
    gp = reference_ground(program, universe)
    atoms = sorted(gp.atoms() | {(p, (e,)) for p in program.upreds for e in universe})
    index = {a: i for i, a in enumerate(atoms)}

    def mask(group) -> int:
        m = 0
        for a in group:
            m |= 1 << index[a]
        return m

    relevant = sorted(
        {a for rule in gp.rules for a in rule.neg}
        | {rule.head for rule in gp.rules if rule.choice}
    )
    rel_bits = [index[a] for a in relevant]
    rel_mask = mask(relevant)
    derive = []  # (head_bit, pos_mask, sel_have, sel_lack)
    constraints = []  # (pos_mask, neg_mask)
    for rule in gp.rules:
        if rule.head is None:
            constraints.append((mask(rule.pos), mask(rule.neg)))
        elif rule.choice:
            bit = mask([rule.head])
            derive.append((bit, 0, bit, 0))
        else:
            derive.append((mask([rule.head]), mask(rule.pos), 0, mask(rule.neg)))
    models = []
    for compact in range(1 << len(relevant)):
        s = 0
        for i, g in enumerate(rel_bits):
            if compact >> i & 1:
                s |= 1 << g
        active = [(h, p) for (h, p, sh, sl) in derive if (s & sh) == sh and (s & sl) == 0]
        m = 0
        changed = True
        while changed:
            changed = False
            for head, pos in active:
                if (m & pos) == pos and (m & head) != head:
                    m |= head
                    changed = True
        if (m & rel_mask) != s:
            continue
        if any((m & cp) == cp and (m & cn) == 0 for cp, cn in constraints):
            continue
        models.append(m)
    return atoms, models


def reference_bounded_sat(program, pred: str, max_size: int):
    """`oracle.bounded_sat` by its definition: the first answer set of
    `reference_model_masks`, sorted by (cardinality, sorted atoms), that
    holds a `pred` atom, over universe sizes from the constant count (at
    least one) up to `max_size`."""
    for size in range(max(1, len(program.constants)), max_size + 1):
        universe = Universe.for_program(program, size)
        atoms, models = reference_model_masks(program, universe)
        found = [frozenset(a for i, a in enumerate(atoms) if m >> i & 1) for m in models]
        found.sort(key=lambda s: (len(s), sorted(s)))
        for interp in found:
            if any(atom[0] == pred for atom in interp):
                return OpenInterpretation(universe, interp)
    return None


def reference_is_answer_set(program, interp) -> bool:
    """`oracle.is_answer_set` by the plain route: the substitution
    grounding over the interpretation's universe, its Gelfond-Lifschitz
    reduct without the constraints, the reduct's least model, compared
    with the atoms, and then every ground constraint checked."""
    for _, args in interp.atoms:
        for element in args:
            if element not in interp.universe:
                raise ValueError(f"atom argument {element!r} outside the universe")
    gp = reference_ground(program, interp.universe)
    plain = GroundProgram(tuple(r for r in gp.rules if r.head is not None))
    constraints = [r for r in gp.rules if r.head is None]
    if least_model(gl_reduct(plain, interp.atoms)) != interp.atoms:
        return False
    return all(satisfies_rule(interp.atoms, c) for c in constraints)


def reference_is_redundant_ucs(uc1, uc2) -> bool:
    """`units.is_redundant_ucs` by exhaustive search: constants checked
    one by one against the same constant, then every injection of uc2's
    non-blocked tree successors into uc1's tree successors tried as a
    permutation."""
    if uc1 is uc2 or uc1.sort_key == uc2.sort_key:
        return False
    if uc2.root_constant != uc1.root_constant:
        return False
    if uc1.root_content != uc2.root_content:
        return False
    nb2 = uc2.non_blocked
    count_gap = len(nb2) < len(uc1.non_blocked)

    strict_fixed = False
    for succ in nb2:
        if not succ.is_constant:
            continue
        target = next((t for t in uc1.successors if t.target == succ.target), None)
        if target is None:
            return False
        if not (succ.node_content <= target.node_content and succ.paths <= target.paths):
            return False
        if succ.node_content < target.node_content or succ.paths < target.paths:
            strict_fixed = True

    tree2 = [s for s in nb2 if not s.is_constant]
    tree1 = list(uc1.tree_successors)
    if len(tree2) > len(tree1):
        return False
    for chosen in itertools.permutations(range(len(tree1)), len(tree2)):
        ok = True
        strict = strict_fixed
        for succ, idx in zip(tree2, chosen):
            target = tree1[idx]
            if not (succ.node_content <= target.node_content and succ.paths <= target.paths):
                ok = False
                break
            if succ.node_content < target.node_content or succ.paths < target.paths:
                strict = True
        if ok and (strict or count_gap):
            return True
    return False


def reference_retained(units) -> tuple:
    """`units.prune_redundant`'s retained units by comparing every
    ordered pair: the units, in sort-key order, that no other unit
    witnesses redundant."""
    pool = sorted(units, key=attrgetter("sort_key"))
    return tuple(
        uc
        for uc in pool
        if not any(other is not uc and is_redundant_ucs(uc, other) for other in pool)
    )


def unit_as_structure(program, uc) -> A1CompletionStructure:
    """Rebuild a live tableau structure from a unit: the root and its
    arcs are expanded, successor contents are unexpanded obligations."""
    cs = A1CompletionStructure(program, pred=None, epsilon=uc.root_constant)
    eps = cs.epsilon
    for sp in uc.root_content:
        cs.insert_tracked(eps, sp)
        cs.set_status(eps, sp, EXP)
    token_node = {None: eps}
    for succ in uc.successors:
        if succ.is_constant:
            node = NodeId(succ.target)
            if succ.has_arc:
                cs.forest.add_es(eps, node)
        else:
            node = cs.forest.add_child(eps)
            assert node.path[-1] == succ.target
        token_node[succ.target] = node
        arc = (eps, node)
        for sp in succ.arc_content:
            cs.insert_tracked(arc, sp)
            cs.set_status(arc, sp, EXP)
        for sp in succ.node_content:
            cs.insert_tracked(node, sp)
    for a, b in uc.g_arcs:
        cs.g.add_arc(ground_atom(token_node, a), ground_atom(token_node, b))
    return cs


def is_redundant_node(cs, x) -> bool:
    """Saturated, unblocked, and owning at least k equal-content
    ancestors. A blocked node is never redundant."""
    if not cs.is_saturated(x) or cs.is_blocked(x):
        return False
    return cs.equal_ancestor_count(x) >= cs.k


def arc_positivity_ok(cs) -> bool:
    """Every tree arc of a saturated source carries a positive binary
    predicate (a tree successor exists only to support such an atom)."""
    return all(
        any(sp.positive for sp in cs.content((x, y)))
        for x, y in cs.forest.tree_arcs()
        if cs.is_saturated(x)
    )


def passes_a1_completion_check(program, uc) -> bool:
    """The clash-free completeness conditions of the direct engine,
    applied to a unit: acyclic dependencies, no redundant node, and every
    node saturated, blocked, or content-free with no outgoing arcs."""
    cs = unit_as_structure(program, uc)
    if cs.g.has_cycle():
        return False
    for x in cs.forest.nodes():
        if cs.is_blocked(x):
            continue
        if cs.is_saturated(x):
            if is_redundant_node(cs, x):
                return False
            continue
        if not cs.content(x) and not cs.forest.arcs_from(x):
            continue
        return False
    return True

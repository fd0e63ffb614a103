import copy
import pickle
import random

import pytest

from folp.forest import (
    ClashError,
    DependencyGraph,
    ExtendedForest,
    ForestState,
    GroundAtom,
    NodeId,
    Signed,
    StructureError,
    Trail,
)
from reference import naive_reachable


def atom(pred, *names):
    return GroundAtom(pred, tuple(NodeId(n) if isinstance(n, str) else n for n in names))


def test_node_ids_and_ancestors():
    x = NodeId("x")
    child = x.child(1)
    grand = child.child(2)
    assert str(grand) == "x.1.2"
    assert grand.parent() == child
    assert list(grand.ancestors()) == [child, x]
    # each id extends its parent's path on the same root
    assert (x.path, child.path, grand.path) == ((), (1,), (1, 2))
    assert grand.root == child.root == x.root == "x"


def test_child_numbering_and_tree_arcs():
    state = ForestState(["x", "a"], ["a"], frozenset())
    x = NodeId("x")
    first = state.forest.add_child(x)
    second = state.forest.add_child(x)
    assert (first, second) == (x.child(1), x.child(2))
    assert list(state.forest.tree_arcs()) == [(x, first), (x, second)]
    assert state.forest.successors(x) == [first, second]


def test_es_arcs_only_target_root_constants():
    state = ForestState(["x", "a"], ["a"], frozenset())
    x, a = NodeId("x"), NodeId("a")
    state.forest.add_es(x, a)
    assert state.forest.successors(x) == [a]
    with pytest.raises(StructureError):
        state.forest.add_es(x, a)  # duplicate
    with pytest.raises(StructureError):
        state.forest.add_es(a, x)  # x is not a constant


def test_trail_undo_restores_everything():
    state = ForestState(["x", "a"], ["a"], frozenset())
    x = NodeId("x")
    mark = state.trail.mark()
    child = state.forest.add_child(x)
    state.forest.add_es(x, NodeId("a"))
    state.insert(x, Signed("p", True))
    state.insert(child, Signed("q", False))
    state.g.add_arc(atom("p", "x"), atom("q", child))
    state.trail.undo_to(mark)
    assert state.forest.successors(x) == []
    assert state.content(x) == set()
    assert state.g.vertices() == []
    # indices restart after undo (sibling branch may reuse them)
    assert state.forest.add_child(x) == x.child(1)


def test_fill_and_new_arcs_match_entry_by_entry_inserts_and_undo():
    """`fill` gives a fresh key what `insert` of each entry gives, and
    `add_new_arcs` what `add_arc` of each arc gives, each with one trail
    entry that undo takes back whole."""
    p, not_q, r, f = (Signed("p", True), Signed("q", False), Signed("r", True),
                      Signed("f", True))

    def build(batched: bool) -> tuple[ForestState, int]:
        state = ForestState(["x", "a"], ["a"], frozenset())
        x = NodeId("x")
        state.insert(x, p)
        child = state.forest.add_child(x)
        arc = (x, child)
        arcs = ((atom("p", x), GroundAtom("f", arc)), (atom("p", x), atom("r", child)))
        mark = state.trail.mark()
        if batched:
            state.fill(child, frozenset({not_q, r}), (atom("r", child),))
            state.fill(arc, frozenset({f}), (GroundAtom("f", arc),))
            state.g.add_new_arcs(arcs)
            assert state.trail.mark() == mark + 3
        else:
            for key, sp in ((child, not_q), (child, r), (arc, f)):
                state.insert(key, sp)
            for src, dst in arcs:
                state.g.add_arc(src, dst)
        return state, mark

    def snapshot(state: ForestState) -> tuple:
        g = state.g
        return (
            {key: frozenset(content) for key, content in state.ct.items()},
            {v: tuple(targets) for v, targets in g._succ.items()},
            {node: tuple(atoms) for node, atoms in g._by_node.items() if atoms},
        )

    (batched, batched_mark), (plain, plain_mark) = build(True), build(False)
    assert snapshot(batched) == snapshot(plain)
    batched.trail.undo_to(batched_mark)
    plain.trail.undo_to(plain_mark)
    assert snapshot(batched) == snapshot(plain)
    child = NodeId("x").child(1)
    assert batched.content(child) == set() and batched.g.unary_atoms(child) == []
    assert list(batched.g.arcs()) == []


def test_paths_set_keeps_pair_with_dependency():
    trail = Trail()
    g = DependencyGraph(trail)
    x, y = NodeId("x"), NodeId("x", (1,))
    g.add_arc(atom("smember", x), atom("smember", y))
    assert g.paths_set(x, y, frozenset()) == {("smember", "smember")}


def test_paths_set_ignores_arc_atoms_and_free_sinks():
    trail = Trail()
    g = DependencyGraph(trail)
    c, c1 = NodeId("c"), NodeId("c", (1,))
    g.add_vertex(atom("p", c1))
    g.add_arc(atom("p", c), GroundAtom("f", (c, c1)))
    # the only path ends in an arc atom, and f is free anyway
    assert g.paths_set(c, c1, frozenset({"f"})) == set()


def test_paths_set_empty_graph():
    g = DependencyGraph(Trail())
    assert g.paths_set(NodeId("x"), NodeId("x", (1,)), frozenset()) == set()


def test_has_cycle():
    g = DependencyGraph(Trail())
    x = NodeId("x")
    a, b = NodeId("a"), NodeId("b")
    # the dependency fan of the support model: acyclic
    g.add_arc(atom("smember", x), GroundAtom("support", (x, a)))
    g.add_arc(atom("smember", x), GroundAtom("support", (x, b)))
    g.add_arc(atom("smember", x), atom("rmember", a))
    g.add_arc(atom("smember", x), atom("rmember", b))
    assert not g.has_cycle()
    g2 = DependencyGraph(Trail())
    g2.add_arc(atom("p", x), atom("p", x.child(1)))
    g2.add_arc(atom("p", x.child(1)), atom("p", x))
    assert g2.has_cycle()
    g3 = DependencyGraph(Trail())
    g3.add_vertex(atom("p", x))
    assert not g3.has_cycle()


def test_reaches_agrees_with_transitive_closure_recomputation():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(2, 14)
        vertices = [atom("p", NodeId(f"n{i}")) for i in range(n)]
        g = DependencyGraph(Trail())
        arcs = []
        for _ in range(rng.randint(0, 3 * n)):
            a, b = rng.choice(vertices), rng.choice(vertices)
            g.add_arc(a, b)
            arcs.append((a, b))
        for a in vertices:
            g.add_vertex(a)
        for a in vertices:
            for b in vertices:
                assert g.reaches(a, b) == naive_reachable(arcs, a, b, vertices)


def test_reaches_cache_invalidated_by_new_arcs():
    g = DependencyGraph(Trail())
    a, b = atom("p", "x"), atom("q", "x")
    g.add_vertex(a)
    g.add_vertex(b)
    assert not g.reaches(a, b)
    g.add_arc(a, b)
    assert g.reaches(a, b)


def test_reaches_agrees_with_recomputation_across_undo():
    """After every arc insertion and every undo, each answer matches a
    recomputation on the current arcs."""
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randint(2, 9)
        vertices = [atom("p", NodeId(f"n{i}")) for i in range(n)]
        trail = Trail()
        g = DependencyGraph(trail)
        for a in vertices:
            g.add_vertex(a)
        history = [(trail.mark(), [])]
        for _ in range(rng.randint(5, 30)):
            if rng.random() < 0.3 and len(history) > 1:
                mark, _arcs = history[rng.randrange(len(history))]
                trail.undo_to(mark)
                history = [h for h in history if h[0] <= mark]
            else:
                a, b = rng.choice(vertices), rng.choice(vertices)
                g.add_arc(a, b)
                history.append((trail.mark(), history[-1][1] + [(a, b)]))
            arcs = history[-1][1]
            assert sorted(g.arcs(), key=str) == sorted(set(arcs), key=str)
            for a in vertices:
                for b in vertices:
                    assert g.reaches(a, b) == naive_reachable(arcs, a, b, vertices)


def test_connects_agrees_with_paths_set_across_undo():
    """The one-search blocking test answers whether the path set is
    empty, and the path set is a recomputation's, on seeded random graphs
    over the unary and arc atoms of a few nodes, with free predicates,
    after every arc insertion and undo."""
    rng = random.Random(31)
    nodes = [NodeId("x"), NodeId("x", (1,)), NodeId("x", (1, 1)), NodeId("a")]
    free = frozenset({"r"})
    found = 0
    for _ in range(30):
        vertices = [atom(p, n) for p in "pqr" for n in nodes]
        vertices += [atom("f", a, b) for a, b in zip(nodes, nodes[1:])]
        trail = Trail()
        g = DependencyGraph(trail)
        history = [(trail.mark(), [])]
        for _ in range(rng.randint(5, 40)):
            if rng.random() < 0.25 and len(history) > 1:
                mark = rng.choice(history)[0]
                trail.undo_to(mark)
                history = [h for h in history if h[0] <= mark]
            else:
                a, b = rng.choice(vertices), rng.choice(vertices)
                g.add_arc(a, b)
                history.append((trail.mark(), history[-1][1] + [(a, b)]))
            arcs = history[-1][1]
            for y in nodes:
                for x in nodes:
                    paths = g.paths_set(y, x, free)
                    assert paths == {
                        (p, q)
                        for p in "pqr"
                        for q in "pq"
                        if naive_reachable(arcs, atom(p, y), atom(q, x))
                    }, (y, x)
                    expected = bool(paths)
                    assert g.connects(y, x, free) == expected, (y, x)
                    found += expected
    assert found > 100


def test_closes_cycle_agrees_with_has_cycle():
    """On an acyclic graph, the insertion-time test predicts exactly
    whether the full search finds a cycle once the arc is in."""
    rng = random.Random(5)
    closing = 0
    for _ in range(30):
        n = rng.randint(1, 8)
        vertices = [atom("p", NodeId(f"n{i}")) for i in range(n)]
        trail = Trail()
        g = DependencyGraph(trail)
        for _ in range(rng.randint(1, 4 * n)):
            a, b = rng.choice(vertices), rng.choice(vertices)
            mark = trail.mark()
            predicted = g.closes_cycle(a, b)
            g.add_arc(a, b)
            assert predicted == g.has_cycle()
            if predicted:
                closing += 1
                trail.undo_to(mark)  # keep the graph acyclic
                assert not g.has_cycle()
    assert closing > 0


def test_unary_buckets_follow_undo():
    trail = Trail()
    g = DependencyGraph(trail)
    x = NodeId("x")
    child = x.child(1)
    g.add_vertex(atom("p", x))
    g.add_vertex(GroundAtom("f", (x, child)))
    mark = trail.mark()
    g.add_arc(atom("q", x), atom("p", child))
    g.add_vertex(atom("r", x))
    assert g.unary_atoms(x) == [atom("p", x), atom("q", x), atom("r", x)]
    assert g.unary_atoms(child) == [atom("p", child)]
    assert g.paths_set(x, child, frozenset()) == {("q", "p")}
    trail.undo_to(mark)
    assert g.unary_atoms(x) == [atom("p", x)]
    assert g.unary_atoms(child) == []
    assert g.paths_set(x, child, frozenset()) == set()
    g.add_vertex(atom("q", child))
    assert g.unary_atoms(child) == [atom("q", child)]
    assert g.vertices() == [atom("p", x), GroundAtom("f", (x, child)), atom("q", child)]


def test_equal_values_are_one_object():
    x = NodeId("x", (1, 2))
    sp = Signed("p", False)
    ga = GroundAtom("f", (x, NodeId("a")))
    assert NodeId("x", (1, 2)) is x and NodeId("x").child(1).child(2) is x
    assert Signed("p", False) is sp and sp.negated().negated() is sp
    assert sp.negated() is Signed("p", True)
    assert GroundAtom("f", (NodeId("x", (1, 2)), NodeId("a"))) is ga
    assert copy.deepcopy(ga) is ga and pickle.loads(pickle.dumps(sp)) is sp
    assert x.child(3).parent() is x and x.parent() is NodeId("x", (1,))
    assert NodeId("x").parent() is None
    assert NodeId("x", (1,)) < x < NodeId("y") and not x < x
    assert repr(sp) == "Signed(name='p', positive=False)"
    assert repr(x) == "NodeId(root='x', path=(1, 2))"
    assert repr(ga) == f"GroundAtom(pred='f', args=({x!r}, {NodeId('a')!r}))"
    with pytest.raises(AttributeError):
        x.root = "y"


def test_blocking_pair_requires_anonymous_ancestor():
    state = ForestState(["a"], ["a"], frozenset())
    a = NodeId("a")
    child = state.forest.add_child(a)
    state.insert(child, Signed("p", True))
    state.insert(a, Signed("p", True))
    # content included, no paths, but the only ancestor is a constant
    assert state.find_blocking_pair(child) is None


def test_blocking_pair_found_and_broken_by_paths():
    state = ForestState(["x"], [], frozenset())
    x = NodeId("x")
    child = state.forest.add_child(x)
    state.insert(x, Signed("p", True))
    state.insert(child, Signed("p", True))
    assert state.find_blocking_pair(child) == x
    state.g.add_arc(atom("p", x), atom("p", child))
    assert state.find_blocking_pair(child) is None


def _memo(state):
    return dict(state._blocking), dict(state._equal)


def _expand(state, rng, z, closed):
    """One random expansion step at z, as the engines make one: new
    children of z, content at z, a child of z or a constant (which
    reopens that node), extra arcs from z to the constant, and dependency
    arcs from an atom over z or one of its arcs to an atom over z, one
    of its arcs, a child of z or the constant. Then z may close."""
    a = NodeId("a")
    for _ in range(rng.randint(1, 4)):
        roll = rng.random()
        children = state.forest.children(z)
        if roll < 0.2:
            state.forest.add_child(z)
        elif roll < 0.3:
            if not state.forest.has_es(z, a):
                state.forest.add_es(z, a)
        elif roll < 0.6:
            node = rng.choice([z, *children, a])
            try:
                if state.insert(node, Signed(rng.choice("pqr"), rng.random() < 0.7)):
                    closed.discard(node)
            except ClashError:
                pass
        else:
            arc_atoms = [GroundAtom("f", (z, s)) for s in state.forest.successors(z)]
            sources = [atom(p, z) for p in "pqr"] + arc_atoms
            targets = [atom(p, n) for p in "pqr" for n in (z, *children, a)] + arc_atoms
            try:
                state.add_dependency(rng.choice(sources), rng.choice(targets))
            except ClashError:
                pass
    if rng.random() < 0.5:
        closed.add(z)


def test_blocking_memo_restored_by_undo():
    """Seeded random walks on one state that keep the engines'
    discipline: each step expands one open, unblocked node whose proper
    ancestors are all closed (`_expand`), reads the memo at nodes whose
    proper ancestors are all closed, or undoes to an earlier mark. After
    `undo_to(mark)` the memo is exactly the memo at `mark`; every read,
    and after every step every entry in force, "blocked" ones included,
    agrees with a fresh computation."""
    rng = random.Random(11)
    undos = blocked = 0
    for _ in range(40):
        state = ForestState(["x", "a"], ["a"], frozenset({"r"}))
        closed: set = set()
        history = [(state.trail.mark(), _memo(state), set())]

        def readable(node):
            return all(y in closed for y in node.ancestors())

        for _ in range(rng.randint(10, 60)):
            roll = rng.random()
            if roll < 0.15 and len(history) > 1:
                mark, memo, was_closed = history[rng.randrange(len(history))]
                state.trail.undo_to(mark)
                assert _memo(state) == memo
                closed = set(was_closed)
                undos += 1
                history = [h for h in history if h[0] <= mark]
            elif roll < 0.7:
                expandable = [
                    z
                    for z in state.forest.nodes()
                    if z not in closed and readable(z) and not state.is_blocked(z)
                ]
                if expandable:
                    _expand(state, rng, rng.choice(expandable), closed)
            else:
                nodes = [n for n in state.forest.nodes() if readable(n)]
                for node in rng.sample(nodes, rng.randint(1, len(nodes))):
                    pair = state.find_blocking_pair(node)
                    assert state.is_blocked(node) == (pair is not None)
                    state.equal_ancestor_count(node)
            history.append((state.trail.mark(), _memo(state), set(closed)))
            for node in state.forest.nodes():
                entry = state._blocking.get(node)
                if entry is not None:
                    assert entry == (state.find_blocking_pair(node) is not None)
                    blocked += entry
                equal = state._equal.get(node)
                if equal is not None:
                    content = state.content(node)
                    assert equal == sum(
                        1 for y in node.ancestors() if state.content(y) == content
                    )
    assert undos > 50 and blocked > 50


def test_content_keeps_a_nodes_own_unblocked_entry_only():
    """New content at a node drops its "blocked" entry and its
    equal-ancestor count, and every entry below it, but keeps its own
    "unblocked" entry, which the content cannot falsify."""
    state = ForestState(["x"], [], frozenset())
    x = NodeId("x")
    child = state.forest.add_child(x)
    grandchild = state.forest.add_child(child)
    state.insert(x, Signed("p", True))
    state.insert(child, Signed("q", True))
    for node in (child, grandchild):
        state.is_blocked(node)
        state.equal_ancestor_count(node)
    assert state._blocking == {child: False, grandchild: True}
    state.insert(child, Signed("r", True))
    assert state._blocking == {child: False} and state._equal == {}
    assert not state.is_blocked(child) and state.is_blocked(grandchild)
    state.insert(grandchild, Signed("s", True))
    assert grandchild not in state._blocking
    assert not state.is_blocked(grandchild)


def _fresh_order(forest) -> list:
    """Node order built afresh: the roots, then each tree's interior
    depth first, children in index order."""
    roots = [NodeId(r) for r in forest.roots]
    order = list(roots)

    def visit(node):
        for child in forest.children(node):
            order.append(child)
            visit(child)

    for root in roots:
        visit(root)
    return order


def test_next_node_and_precedes_agree_with_a_fresh_walk():
    """Over seeded sequences of `add_child` and `undo_to`, `nodes()`,
    which walks the `next_node` step, and the `precedes` test follow
    the order of a fresh depth-first walk, also with trees left empty
    between others."""
    rng = random.Random(5)
    steps = 0
    for _ in range(12):
        forest = ExtendedForest(["x", "a", "b"], ["a", "b"], Trail())
        marks = []
        for _ in range(rng.randint(5, 40)):
            order = _fresh_order(forest)
            if rng.random() < 0.25 and marks:
                i = rng.randrange(len(marks))
                forest.trail.undo_to(marks[i])
                del marks[i:]
            else:
                marks.append(forest.trail.mark())
                forest.add_child(rng.choice(order))
            order = _fresh_order(forest)
            assert list(forest.nodes()) == order
            for i, a in enumerate(order):
                assert [forest.precedes(a, b) for b in order] == [i < j for j in range(len(order))]
            steps += 1
    assert steps > 100
    with pytest.raises(StructureError):
        ExtendedForest([], [], Trail())


def test_resume_point_restored_by_undo_and_cut_by_earlier_content():
    """Seeded walks that grow the forest, move the resume point on to a
    later node as the scan does, and insert content at any node,
    constant roots included: content at a node before the resume point
    moves it back to that node, other content leaves it, and
    `undo_to(mark)` restores the resume point valid at `mark`."""
    rng = random.Random(7)
    undos = constant_cuts = 0
    for _ in range(30):
        state = ForestState(["x", "a", "b"], ["a", "b"], frozenset())
        assert state.resume == NodeId("x")
        history = [(state.trail.mark(), state.resume)]
        for _ in range(rng.randint(10, 50)):
            order = _fresh_order(state.forest)
            roll = rng.random()
            if roll < 0.15 and len(history) > 1:
                i = rng.randrange(len(history))
                mark, resume = history[i]
                state.trail.undo_to(mark)
                assert state.resume is resume
                del history[i + 1:]
                undos += 1
                continue
            if roll < 0.4:
                state.forest.add_child(rng.choice(order))
            elif roll < 0.6:
                later = order[order.index(state.resume) + 1:]
                if later:
                    state.resume_at(rng.choice(later))
            else:
                node, before = rng.choice(order), state.resume
                if state.insert(node, Signed(rng.choice("pqrs"), True)):
                    cut = order.index(node) < order.index(before)
                    assert state.resume is (node if cut else before)
                    constant_cuts += cut and node.is_root
            history.append((state.trail.mark(), state.resume))
    assert undos > 20 and constant_cuts > 20


def test_induced_interpretation_of_a_flat_structure():
    state = ForestState(["x", "a", "b"], ["a", "b"], frozenset({"support"}))
    x, a, b = NodeId("x"), NodeId("a"), NodeId("b")
    state.forest.add_es(x, a)
    state.forest.add_es(x, b)
    for node, pred in ((x, "smember"), (a, "rmember"), (b, "rmember")):
        state.insert(node, pred and Signed(pred, True))
    state.insert(x, Signed("rmember", False))
    state.insert((x, a), Signed("support", True))
    state.insert((x, b), Signed("support", True))
    interp = state.induced_interpretation()
    assert interp.universe.elements == ("x", "a", "b")
    assert interp.atoms == {
        ("smember", ("x",)),
        ("rmember", ("a",)),
        ("rmember", ("b",)),
        ("support", ("x", "a")),
        ("support", ("x", "b")),
    }


def test_induced_interpretation_single_node():
    state = ForestState(["x"], [], frozenset())
    state.insert(NodeId("x"), Signed("p", True))
    interp = state.induced_interpretation()
    assert interp.universe.elements == ("x",)
    assert interp.atoms == {("p", ("x",))}


def test_induced_interpretation_refuses_blocked_structures():
    state = ForestState(["x"], [], frozenset())
    x = NodeId("x")
    child = state.forest.add_child(x)
    state.insert(x, Signed("p", True))
    state.insert(child, Signed("p", True))
    with pytest.raises(StructureError):
        state.induced_interpretation()


def test_dot_export_styles_and_labels():
    state = ForestState(["x", "a"], ["a"], frozenset())
    x, a = NodeId("x"), NodeId("a")
    child = state.forest.add_child(x)
    state.forest.add_es(x, a)
    state.insert(x, Signed("p", True))
    state.insert(x, Signed("q", False))
    state.insert((x, child), Signed("f", True))
    state.g.add_arc(atom("p", x), GroundAtom("f", (x, child)))
    dot = state.to_dot()
    assert 'digraph forest {' in dot and 'digraph dependencies {' in dot
    assert '"x" [label="x\\n{p, not q}"];' in dot
    assert '"x" -> "x.1" [style=solid, label="{f}"];' in dot
    assert '"x" -> "a" [style=dashed, label="{}"];' in dot
    assert '"p(x)" -> "f(x,x.1)";' in dot

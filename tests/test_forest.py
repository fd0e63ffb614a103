import copy
import pickle
import random

import pytest

from folp.forest import (
    ClashError,
    DependencyGraph,
    ForestState,
    GroundAtom,
    NodeId,
    Signed,
    StructureError,
    Trail,
    naive_reachable,
)


def atom(pred, *names):
    return GroundAtom(pred, tuple(NodeId(n) if isinstance(n, str) else n for n in names))


def test_node_ids_and_ancestors():
    x = NodeId("x")
    child = x.child(1)
    grand = child.child(2)
    assert str(grand) == "x.1.2"
    assert grand.parent() == child
    assert list(grand.ancestors()) == [child, x]
    assert x.is_proper_prefix_of(grand)
    assert not grand.is_proper_prefix_of(x)


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


def test_blocking_memo_restored_by_undo():
    """Seeded random content inserts, dependency arcs, new children,
    memo reads and undos on one state: after `undo_to(mark)` the memo is
    exactly the memo at `mark`; every read, and after every step every
    entry still in force (a "blocked" one while the arc count is the one
    it recorded), agrees with a fresh computation."""
    rng = random.Random(11)
    undos = 0
    for _ in range(40):
        state = ForestState(["x", "a"], ["a"], frozenset({"r"}))
        nodes = [NodeId("x"), NodeId("a")]
        history = [(state.trail.mark(), _memo(state))]
        for _ in range(rng.randint(10, 60)):
            roll = rng.random()
            if roll < 0.15 and len(history) > 1:
                mark, memo = history[rng.randrange(len(history))]
                state.trail.undo_to(mark)
                assert _memo(state) == memo
                undos += 1
                history = [h for h in history if h[0] <= mark]
                nodes = [n for n in nodes if state.forest.has_node(n)]
            elif roll < 0.3:
                nodes.append(state.forest.add_child(rng.choice(nodes)))
            elif roll < 0.55:
                try:
                    state.insert(
                        rng.choice(nodes), Signed(rng.choice("pqr"), rng.random() < 0.7)
                    )
                except ClashError:
                    pass
            elif roll < 0.7:
                # from an ancestor down, the direction that can unblock
                low = rng.choice(nodes)
                high = rng.choice([low, *low.ancestors()])
                state.g.add_arc(
                    atom(rng.choice("pqr"), high), atom(rng.choice("pqr"), low)
                )
            else:
                for node in rng.sample(nodes, rng.randint(1, len(nodes))):
                    pair = state.find_blocking_pair(node)
                    assert state.is_blocked(node) == (pair is not None)
                    state.equal_ancestor_count(node)
            history.append((state.trail.mark(), _memo(state)))
            for node in nodes:
                blocking = state._blocking.get(node)
                equal = state._equal.get(node)
                pair = state.find_blocking_pair(node)
                if blocking == -1:
                    assert pair is None
                elif blocking == state.g.arc_count():
                    assert pair is not None
                if equal is not None:
                    content = state.content(node)
                    assert equal == sum(
                        1 for y in node.ancestors() if state.content(y) == content
                    )
    assert undos > 50


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

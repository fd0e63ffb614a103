"""Shared tableau state for the satisfiability engines.

Extended forests (one tree per root constant plus extra arcs back to
roots), node/arc content maps over signed predicates, the ground-atom
dependency graph, and trail-based undo. Node order, roots first and then
each tree in preorder, has one step, `ExtendedForest.next_node`, O(depth)
from any node; `nodes` walks it and `precedes` compares in it.

The graph indexes its unary atoms by node, so a blocking check reads the
atoms of two nodes without scanning every vertex. It keeps no
reachability memo: every question, whether a new arc would close a
cycle or whether an ancestor's atoms reach a node's, is one search
from a set of sources to a set of sinks. The engines keep the graph
acyclic. The direct engine tests every arc of a rule application with
`closes_cycle` before any of its mutations, then adds them untested.
The compiled engine adds a graft's arcs untested, in one step
(`add_new_arcs`), when one `reaches_node` search shows that none can
close a cycle, and otherwise tests each as it goes in
(`ForestState.add_dependency`). `has_cycle` is a full search kept for
completion audits.

Blocking and the equal-content ancestor count are memoized per node,
because the task scan asks for them again and again while few of the
facts they rest on change in between. One rule keeps the memo exact in
both engines: new content at a node drops every entry of its proper
descendants and its own equal-ancestor count and "blocked" entry (a
node's facts read its own content and its ancestors'). Its own
"unblocked" entry stays: new content at x only makes ct(x) included in
ct(y) harder to meet, and its new atoms only add sinks to the path
search. No entry lapses when a dependency arc goes in.

An arc can only create paths, so an unblocked node stays unblocked. A
"blocked" entry stays exact as well. Both engines add arcs only while
they expand a node z: from an atom over z (p(z) or f(z, s)) to an atom
over z, a child of z or a constant. Let y be the anonymous ancestor
that blocks x, and y = a0, a1, ..., ak = x the chain between them.
Every a_i below y is an anonymous non-root node, which no extra arc
targets, so every arc into an atom over a_i comes from the expansion of
a_i or of its parent, and every arc into an arc atom f(y, s) from the
expansion of y. Any path from an atom p(y) to an atom q(x) thus ends in
a part that starts at some p'(y) and uses only arcs from the expansion
of a chain node. No such part existed when the entry was written, and
none is made while it stands:

- the engines read, and so write, the memo only at a node whose proper
  ancestors are all saturated. `next_task` reaches x only once every
  node before it in node order, its ancestors among them, is blocked or
  saturated (those before its resume point by the argument in the
  `tableau` docstring, the others by the scan itself), and a node with
  children is never blocked. A graft reads at the successors of the
  node it has just grafted. The completion audit and `blocked_nodes` on
  a witness read a structure with no task left;
- a blocked x is never expanded, and a saturated chain node is expanded
  again only after content is added at it, which drops the entry. Under
  the compiled engine a node is grafted at most once, after every
  ancestor. Under the direct engine a saturated node becomes unsaturated
  only by new content at it or by a new arc from it, which only its own
  expansion makes (`_rearm_negatives` runs only there too).

So y, whose content and x's are unchanged while the entry stands, still
blocks x.

Memo writes and drops go on the trail like every other mutation, so
`undo_to(mark)` restores exactly the memo that was valid at `mark`.
`find_blocking_pair` stays the uncached computation behind the memo; it
asks `DependencyGraph.connects`, one search from all atoms of the
candidate blocker, instead of building the path set pair by pair.

Node ids, signed predicates and ground atoms are interned: one value is
one object, made on first use and kept in a module table, so `==` and
`hash` are the identity defaults of `object` and every dict and set
lookup of the search is an identity hit with no Python call. A search
meets few distinct values (on the benchmark workloads at most 38 node
ids, 16 signed predicates and 145 atoms), so the tables are never
emptied. Set iteration order over these values follows memory
addresses and may change from run to run, so no result may depend on
it. Where the engines iterate such sets:

- contents (`content`, `content_of_node`, a unit's contents) are sorted
  before they reach a task, a description or a file (`node_task`,
  `format_content`, `units._content_key`, `UnitCompletionStructure.
  graft_order`); `_rearm_negatives` visits them unsorted, but only to
  set statuses, whose end state is the same in any order, and
  `positive_atoms` hands its atoms to `induced_interpretation`, whose
  witness sorts them;
- blocking, `A2CompletionStructure.covering`, the refutation ledgers,
  the grafted set and the extra-arc set only test subsets and
  membership;
- `paths_set` walks the per-node atom buckets, lists in insertion order,
  and returns predicate-name pairs, which `units._snapshot` sorts;
  `_reach` walks lists and keeps its `seen` set for membership only;
- the contents map and the dependency graph are dicts, which keep
  insertion order.

A state instance is confined to one search task; nothing here is
thread-safe across tasks.
"""

from __future__ import annotations

from functools import partial, total_ordering
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Optional, Union

from .syntax import FolpError


class StructureError(FolpError):
    """Malformed mutation of the tableau state (duplicate arc, unknown node)."""


class ClashError(FolpError):
    """A clash on the current branch: contradiction, cycle, or redundancy."""


def contradiction(key: Key, sp: Signed) -> ClashError:
    """The clash of entering sp at the node or arc `key`, which holds its
    negation."""
    return ClashError(f"contradiction: {sp} and {sp.negated()} at {_key_str(key)}")


def dependency_cycle(src: GroundAtom, dst: GroundAtom) -> ClashError:
    """The clash of adding the dependency arc src -> dst, which closes a
    cycle."""
    return ClashError(f"dependency cycle: {src} -> {dst}")


class _Interned:
    """Base of the interned value types: one object per value, so the
    identity `==` and `hash` of `object` are value equality and hashing.
    Fields are set once, when the value is first made, and are read-only
    to callers; copies and pickles go back through the constructor."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __reduce__(self):
        return self.__class__, self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__name__}({fields})"


def _ordered(cls):
    """Order the values of an interned class by their field tuples."""

    def __lt__(self, other):
        if other.__class__ is not cls:
            return NotImplemented
        return self._values() < other._values()

    cls.__lt__ = __lt__
    return total_ordering(cls)


def _make(cls, **fields):
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


# the intern tables: one object per value, never freed (a search meets
# few distinct values; see the module docstring)
_NODE_IDS: dict[tuple[str, tuple[int, ...]], "NodeId"] = {}
_SIGNED: dict[str, tuple["Signed", "Signed"]] = {}
_GROUND_ATOMS: dict[tuple[str, tuple["NodeId", ...]], "GroundAtom"] = {}


@_ordered
class NodeId(_Interned):
    """A node c.i1.i2...: a root name plus a path of positive integers,
    ordered by (root, path).

    Prefix closure holds by construction: children are only ever created
    under existing nodes. A node id is interned, keeps its parent, made
    with it, and the children asked of it, so `child(i)` is the same
    object whenever it is asked for."""

    __slots__ = ("root", "path", "_parent", "_children")
    _fields = ("root", "path")

    def __new__(cls, root: str, path: tuple[int, ...] = ()) -> "NodeId":
        node = _NODE_IDS.get((root, path))
        if node is None:
            parent = NodeId(root, path[:-1]) if path else None
            node = _NODE_IDS.setdefault(
                (root, path),
                _make(cls, root=root, path=path, _parent=parent, _children={}),
            )
        return node

    @property
    def is_root(self) -> bool:
        return not self.path

    @property
    def depth(self) -> int:
        return len(self.path)

    def parent(self) -> Optional["NodeId"]:
        return self._parent

    def child(self, index: int) -> "NodeId":
        child = self._children.get(index)
        if child is None:
            child = self._children.setdefault(index, NodeId(self.root, self.path + (index,)))
        return child

    def ancestors(self) -> Iterator["NodeId"]:
        """Proper ancestors, nearest first."""
        node = self._parent
        while node is not None:
            yield node
            node = node._parent

    def __str__(self) -> str:
        return ".".join([self.root, *map(str, self.path)])


ArcId = tuple[NodeId, NodeId]
Key = Union[NodeId, ArcId]


class Signed(_Interned):
    """A predicate symbol or its negation-as-failure. Interned; both
    signs of a name are made together, so `negated()` is a field read."""

    __slots__ = ("name", "positive", "_negation")
    _fields = ("name", "positive")

    def __new__(cls, name: str, positive: bool) -> "Signed":
        pair = _SIGNED.get(name) or signed_pair(name)
        return pair[1] if positive else pair[0]

    def negated(self) -> "Signed":
        return self._negation

    def __str__(self) -> str:
        return self.name if self.positive else f"not {self.name}"


def signed_pair(name: str) -> tuple[Signed, Signed]:
    """The two signs of `name`, negative first (indexed by `positive`)."""
    pair = _SIGNED.get(name)
    if pair is None:
        negative = _make(Signed, name=name, positive=False)
        positive = _make(Signed, name=name, positive=True, _negation=negative)
        object.__setattr__(negative, "_negation", positive)
        pair = _SIGNED.setdefault(name, (negative, positive))
    return pair


def signed_sort_key(sp: Signed) -> tuple[str, int]:
    return (sp.name, 0 if sp.positive else 1)


def format_content(content: Iterable[Signed]) -> str:
    return "{" + ", ".join(str(sp) for sp in sorted(content, key=signed_sort_key)) + "}"


@_ordered
class GroundAtom(_Interned):
    """A predicate over a tuple of node ids, ordered by (pred, args). Interned."""

    __slots__ = ("pred", "args")
    _fields = ("pred", "args")

    def __new__(cls, pred: str, args: tuple[NodeId, ...]) -> "GroundAtom":
        atom = _GROUND_ATOMS.get((pred, args))
        if atom is None:
            atom = _GROUND_ATOMS.setdefault((pred, args), _make(cls, pred=pred, args=args))
        return atom

    def __str__(self) -> str:
        return f"{self.pred}({','.join(str(a) for a in self.args)})"


class Trail:
    """Undo log. Mutators push closures; undo_to replays them in reverse."""

    def __init__(self) -> None:
        self._log: list[Callable[[], None]] = []

    def mark(self) -> int:
        return len(self._log)

    def push(self, undo: Callable[[], None]) -> None:
        self._log.append(undo)

    def undo_to(self, mark: int) -> None:
        while len(self._log) > mark:
            self._log.pop()()

    def clear(self) -> None:
        """Forget every closure: what was done can no longer be undone."""
        self._log.clear()


class ExtendedForest:
    """Trees over the root constants (plus possibly one anonymous root)
    and extra arcs from arbitrary nodes back to root constants."""

    def __init__(self, roots: Iterable[str], constants: Iterable[str], trail: Trail):
        self.trail = trail
        self.roots: tuple[str, ...] = tuple(roots)
        self.constants: frozenset[str] = frozenset(constants)
        if not self.roots:
            raise StructureError("a forest needs a root")
        # each root's position in node order; a repeated name shrinks the map
        self._rank = dict(zip(self.roots, range(len(self.roots))))
        if len(self._rank) != len(self.roots):
            raise StructureError("duplicate root names")
        self._root_nodes = tuple(NodeId(r) for r in self.roots)
        self._children: dict[NodeId, list[NodeId]] = {
            root: [] for root in self._root_nodes
        }
        self._es: dict[NodeId, list[NodeId]] = {}
        self._es_set: set[ArcId] = set()

    def is_constant_node(self, node: NodeId) -> bool:
        return node.is_root and node.root in self.constants

    def has_node(self, node: NodeId) -> bool:
        return node in self._children

    def nodes(self) -> Iterator[NodeId]:
        """Node order: roots first (declaration order), then the
        anonymous interiors of each tree in preorder. `next_node` is its
        step and `precedes` compares in it."""
        step = self.next_node
        node: Optional[NodeId] = self._root_nodes[0]
        while node is not None:
            yield node
            node = step(node)

    def next_node(self, node: NodeId) -> Optional[NodeId]:
        """The node after `node` in node order, or None after the last.
        O(depth): the n-th child has the index n, so the next sibling of
        a non-root y is `children[parent][y.path[-1]]`."""
        roots = self._root_nodes
        children = self._children
        if node.path:
            below = children[node]
            if below:
                return below[0]
            while node.path:
                parent = node._parent
                siblings = children[parent]
                if node.path[-1] < len(siblings):
                    return siblings[node.path[-1]]
                node = parent
            start = self._rank[node.root] + 1  # the trees after this one
        else:
            start = self._rank[node.root] + 1
            if start < len(roots):
                return roots[start]
            start = 0  # after the last root, the first tree's interior
        for i in range(start, len(roots)):
            below = children[roots[i]]
            if below:
                return below[0]
        return None

    def precedes(self, a: NodeId, b: NodeId) -> bool:
        """Whether node a comes before node b in node order: every root
        before every interior, and preorder is the order of paths."""
        if a.root == b.root:
            return a.path < b.path
        if bool(a.path) != bool(b.path):
            return not a.path
        return self._rank[a.root] < self._rank[b.root]

    def add_child(self, node: NodeId) -> NodeId:
        """A new last child of node. Children leave only by this undo,
        last in first out, so the n-th child has the index n."""
        children = self._children.get(node)
        if children is None:
            raise StructureError(f"unknown node {node}")
        child = node.child(len(children) + 1)
        children.append(child)
        self._children[child] = []

        def undo() -> None:
            children.pop()
            del self._children[child]

        self.trail.push(undo)
        return child

    def add_es(self, node: NodeId, target: NodeId) -> None:
        if node not in self._children:
            raise StructureError(f"unknown node {node}")
        if not self.is_constant_node(target):
            raise StructureError(f"extra arcs may only target root constants: {target}")
        arc = (node, target)
        if arc in self._es_set:
            raise StructureError(f"duplicate extra arc {node} -> {target}")
        self._es_set.add(arc)
        self._es.setdefault(node, []).append(target)

        def undo() -> None:
            self._es_set.discard(arc)
            self._es[node].pop()

        self.trail.push(undo)

    def has_es(self, node: NodeId, target: NodeId) -> bool:
        return (node, target) in self._es_set

    def children(self, node: NodeId) -> list[NodeId]:
        return list(self._children.get(node, ()))

    def es_targets(self, node: NodeId) -> list[NodeId]:
        return list(self._es.get(node, ()))

    def successors(self, node: NodeId) -> list[NodeId]:
        """Tree children in creation order, then extra-arc targets."""
        return self.children(node) + self.es_targets(node)

    def tree_arcs(self) -> Iterator[ArcId]:
        for node in self.nodes():
            for child in self._children[node]:
                yield (node, child)

    def es_arcs(self) -> Iterator[ArcId]:
        for node in self.nodes():
            for target in self._es.get(node, ()):
                yield (node, target)

    def arcs_from(self, node: NodeId) -> list[ArcId]:
        return [(node, y) for y in self.successors(node)]

    def child_count(self, node: NodeId) -> int:
        return len(self._children.get(node, ()))

    def has_children(self, node: NodeId) -> bool:
        return bool(self._children.get(node))

    def out_degree(self, node: NodeId) -> int:
        return len(self._children.get(node, ())) + len(self._es.get(node, ()))

    def subtree(self, node: NodeId) -> list[NodeId]:
        """The node and all its tree descendants, in no particular order."""
        children = self._children
        out = [node]
        for y in out:
            out.extend(children[y])
        return out


class DependencyGraph:
    """Directed graph over ground atoms with reachability queries.

    Unary atoms are also kept in per-node buckets, in insertion order, so
    the atoms of one node are found without a scan of all vertices.

    Every reachability query runs `_reach`, one depth-first search from
    a set of sources that stops at the first sink; nothing is memoized
    between queries."""

    def __init__(self, trail: Trail):
        self.trail = trail
        self._succ: dict[GroundAtom, list[GroundAtom]] = {}
        self._by_node: dict[NodeId, list[GroundAtom]] = {}

    def vertices(self) -> list[GroundAtom]:
        return list(self._succ.keys())

    def arcs(self) -> Iterator[tuple[GroundAtom, GroundAtom]]:
        for src, targets in self._succ.items():
            for dst in targets:
                yield (src, dst)

    def unary_atoms(self, node: NodeId) -> list[GroundAtom]:
        """The vertices p(node), in insertion order."""
        return list(self._by_node.get(node, ()))

    def add_vertex(self, atom: GroundAtom) -> None:
        if atom in self._succ:
            return
        self._succ[atom] = []
        bucket = None
        if len(atom.args) == 1:
            bucket = self._by_node.setdefault(atom.args[0], [])
            bucket.append(atom)

        def undo() -> None:
            del self._succ[atom]
            if bucket is not None:
                # undo runs in reverse order, so the atom is the newest entry
                bucket.pop()

        self.trail.push(undo)

    def add_arc(self, src: GroundAtom, dst: GroundAtom) -> None:
        self.add_vertex(src)
        self.add_vertex(dst)
        if dst in self._succ[src]:
            return
        self._succ[src].append(dst)
        self.trail.push(partial(self._succ[src].remove, dst))

    def add_new_arcs(self, arcs: tuple[tuple[GroundAtom, GroundAtom], ...]) -> None:
        """Add distinct arcs between vertices, whose sources have no arcs
        yet, in one step with one trail entry. Unlike `add_arc`, nothing
        is tested: the caller knows that none closes a cycle."""
        succ = self._succ
        for src, dst in arcs:
            succ[src].append(dst)
        self.trail.push(partial(_remove_new_arcs, succ, arcs))

    def closes_cycle(self, src: GroundAtom, dst: GroundAtom) -> bool:
        """Whether adding src -> dst to this graph, if acyclic, would
        close a cycle: exactly when dst already reaches src."""
        return src == dst or self.reaches(dst, src)

    def reaches(self, src: GroundAtom, dst: GroundAtom) -> bool:
        """Reflexive-transitive reachability."""
        if src == dst:
            return src in self._succ
        return src in self._succ and self._reach((src,), {dst})

    def paths_set(
        self, y: NodeId, x: NodeId, free_preds: frozenset[str]
    ) -> set[tuple[str, str]]:
        """Pairs (p, q) with a path from p(y) to q(x) and q not free."""
        sources = self._by_node.get(y, ())
        sinks = [a for a in self._by_node.get(x, ()) if a.pred not in free_preds]
        return {
            (p.pred, q.pred)
            for p in sources
            for q in sinks
            if self.reaches(p, q)
        }

    def connects(self, y: NodeId, x: NodeId, free_preds: frozenset[str]) -> bool:
        """Whether `paths_set(y, x, free_preds)` is non-empty: one search
        from all atoms p(y) at once, stopping at the first q(x) with q not
        free."""
        sources = self._by_node.get(y)
        if not sources:
            return False
        sinks = {a for a in self._by_node.get(x, ()) if a.pred not in free_preds}
        return bool(sinks) and self._reach(sources, sinks)

    def reaches_node(self, sources: Iterable[GroundAtom], x: NodeId) -> bool:
        """Whether some vertex among `sources` reaches a unary atom over x."""
        sinks = self._by_node.get(x)
        if not sinks:
            return False
        succ = self._succ
        present = [a for a in sources if a in succ]
        return bool(present) and self._reach(present, set(sinks))

    def _reach(self, sources, sinks) -> bool:
        """Whether some vertex of `sources` reaches some atom of `sinks`;
        a source that is itself a sink counts."""
        seen = set(sources)
        if not sinks.isdisjoint(seen):
            return True
        succ = self._succ
        stack = list(sources)
        while stack:
            for nxt in succ[stack.pop()]:
                if nxt not in seen:
                    if nxt in sinks:
                        return True
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    def has_cycle(self) -> bool:
        WHITE, GREY, BLACK = 0, 1, 2
        color = {v: WHITE for v in self._succ}
        for start in self._succ:
            if color[start] != WHITE:
                continue
            stack: list[tuple[GroundAtom, Iterator[GroundAtom]]] = [
                (start, iter(self._succ[start]))
            ]
            color[start] = GREY
            while stack:
                node, it = stack[-1]
                advanced = False
                for nxt in it:
                    if color[nxt] == GREY:
                        return True
                    if color[nxt] == WHITE:
                        color[nxt] = GREY
                        stack.append((nxt, iter(self._succ[nxt])))
                        advanced = True
                        break
                if not advanced:
                    color[node] = BLACK
                    stack.pop()
        return False


_NO_ENTRIES: Mapping = MappingProxyType({})


class ForestState:
    """Extended forest plus contents and the dependency graph.

    Invariant kept by `insert` and `fill`: the graph's vertices are
    exactly the positive content entries (as ground atoms over nodes and
    arcs).

    Blocking and the equal-ancestor count are memoized per node (see the
    module docstring): `_blocking` maps a node to whether it is blocked,
    `_equal` to its equal-ancestor count. New content at a node drops
    its descendants' entries and its own, except its own "unblocked"
    entry. Most small searches never ask about a node below a root, so
    the memo's containers are made by its first write; until then both
    maps are the shared empty `_NO_ENTRIES`.

    `resume` is the resume point of the engines' task scan (see the
    `tableau` docstring), at first the first root: `insert` moves it
    back to a node that gets content before it. That cut covers node
    content only; callers change arcs, statuses and children only at
    the point or after it. Like the memo, it changes through the
    trail."""

    _blocking: Mapping[NodeId, bool] = _NO_ENTRIES
    _equal: Mapping[NodeId, int] = _NO_ENTRIES

    def __init__(
        self,
        roots: Iterable[str],
        constants: Iterable[str],
        free_preds: frozenset[str],
    ):
        self.trail = Trail()
        self.forest = ExtendedForest(roots, constants, self.trail)
        self.g = DependencyGraph(self.trail)
        self.free_preds = free_preds
        self.ct: dict[Key, set[Signed]] = {}
        self.resume: NodeId = self.forest._root_nodes[0]

    def content(self, key: Key) -> set[Signed]:
        return self.ct.get(key, set())

    def content_of_node(self, node: NodeId) -> frozenset[Signed]:
        return frozenset(self.ct.get(node, ()))

    @staticmethod
    def atom_for(key: Key, name: str) -> GroundAtom:
        if isinstance(key, NodeId):
            return GroundAtom(name, (key,))
        return GroundAtom(name, key)

    def insert(self, key: Key, sp: Signed) -> bool:
        """Add a signed predicate to a node/arc content. Returns True when
        the entry is new; raises ClashError on contradiction."""
        content = self.ct.get(key)
        if content is None:
            content = set()
            self.ct[key] = content

            def undo_new() -> None:
                del self.ct[key]

            self.trail.push(undo_new)
        if sp in content:
            return False
        if sp.negated() in content:
            raise contradiction(key, sp)
        content.add(sp)

        def undo() -> None:
            content.discard(sp)

        self.trail.push(undo)
        if sp.positive:
            self.g.add_vertex(self.atom_for(key, sp.name))
        if key.__class__ is NodeId:
            # a leaf without memo entries, the common case, has nothing to drop
            if self._blocking.get(key) or key in self._equal or self.forest.has_children(key):
                self._forget_subtree(key)
            if key is not self.resume and self.forest.precedes(key, self.resume):
                self.resume_at(key)
        return True

    def fill(
        self, key: Key, content: frozenset[Signed], atoms: tuple[GroundAtom, ...]
    ) -> None:
        """`insert` of every entry of the consistent `content` at `key`,
        which has no content yet, in one step with one trail entry.
        `atoms` are the ground atoms of the positive entries, in entry
        order, none of them a vertex yet. A node key must be a child just
        made after the resume point: it has no memo entries to drop and
        does not move the point."""
        self.ct[key] = set(content)
        succ = self.g._succ
        for atom in atoms:
            succ[atom] = []
        bucket = None
        if atoms and key.__class__ is NodeId:
            bucket = self.g._by_node.setdefault(key, [])
            bucket += atoms
        self.trail.push(partial(_undo_fill, self.ct, key, succ, atoms, bucket))

    def resume_at(self, node: NodeId) -> None:
        """Move the scan's resume point to `node`, undoably."""
        self.trail.push(partial(setattr, self, "resume", self.resume))
        self.resume = node

    def add_dependency(self, src: GroundAtom, dst: GroundAtom) -> None:
        """Add src -> dst to the dependency graph, which the engines keep
        acyclic; raises ClashError instead when the arc would close a
        cycle."""
        if self.g.closes_cycle(src, dst):
            raise dependency_cycle(src, dst)
        self.g.add_arc(src, dst)

    def positive_atoms(self) -> Iterator[GroundAtom]:
        for key, content in self.ct.items():
            for sp in content:
                if sp.positive:
                    yield self.atom_for(key, sp.name)

    # -- blocking -----------------------------------------------------

    def find_blocking_pair(self, x: NodeId) -> Optional[NodeId]:
        """Nearest anonymous ancestor y with ct(x) included in ct(y) and an
        empty non-free path set from y-atoms to x-atoms."""
        ct = self.ct
        constants = self.forest.constants
        content_x = ct.get(x, _NO_CONTENT)
        for y in x.ancestors():
            if not y.path and y.root in constants:
                continue
            if content_x <= ct.get(y, _NO_CONTENT) and not self.g.connects(
                y, x, self.free_preds
            ):
                return y
        return None

    def equal_ancestor_count(self, x: NodeId) -> int:
        """Proper ancestors of x whose content equals ct(x): the measure
        the redundancy bound limits. Memoized."""
        if not x.path:
            return 0
        equal = self._equal.get(x)
        if equal is None:
            equal = self.count_equal_ancestors(x, self.content(x))
            self._remember("_equal", x, equal)
        return equal

    def count_equal_ancestors(self, x: NodeId, content) -> int:
        """Proper ancestors of x whose content equals `content`, uncached."""
        ct = self.ct
        return sum(1 for y in x.ancestors() if ct.get(y, _NO_CONTENT) == content)

    def is_blocked(self, x: NodeId) -> bool:
        """Whether x has a blocking pair; memoized `find_blocking_pair`.
        A root has no ancestors, so it is never blocked."""
        if not x.path:
            return False
        blocked = self._blocking.get(x)
        if blocked is None:
            blocked = self.find_blocking_pair(x) is not None
            self._remember("_blocking", x, blocked)
        return blocked

    def _remember(self, name: str, x: NodeId, value) -> None:
        """Enter `value` for x, which has no entry, in the memo `name`."""
        memo = self.__dict__.get(name)
        if memo is None:
            self._blocking, self._equal = {}, {}
            # (memo, node, value to restore or None) per memo change, all
            # undone by one callable that does not refer back to the state
            self._memo_log: list = []
            self._undo_memo = partial(_undo_memo_change, self._memo_log)
            memo = self.__dict__[name]
        memo[x] = value
        self._memo_log += (memo, x, None)
        self.trail.push(self._undo_memo)

    def _forget_subtree(self, node: NodeId) -> None:
        """Drop the memo entries of a node whose content grew, except its
        "unblocked" entry, and those of its descendants, whose ancestor
        contents it changed."""
        blocking, equal = self._blocking, self._equal
        for y in self.forest.subtree(node):
            if y in blocking and (blocking[y] or y is not node):
                self._forget(blocking, y)
            if y in equal:
                self._forget(equal, y)

    def _forget(self, memo: dict, y: NodeId) -> None:
        self._memo_log += (memo, y, memo.pop(y))
        self.trail.push(self._undo_memo)

    def blocked_nodes(self) -> list[NodeId]:
        return [x for x in self.forest.nodes() if self.is_blocked(x)]

    # -- model extraction ----------------------------------------------

    def induced_interpretation(self):
        """The finite open interpretation this structure denotes: the
        universe is the node set, the atoms its positive contents. Only
        meaningful without blocking pairs (a blocked structure stands for
        its infinite unraveling), so those are refused."""
        from .oracle import OpenInterpretation, Universe

        blocked = self.blocked_nodes()
        if blocked:
            raise StructureError(
                "structure contains blocking pairs; its model is the infinite "
                f"unraveling (blocked: {', '.join(map(str, blocked))})"
            )
        elements = tuple(str(n) for n in self.forest.nodes())
        atoms = frozenset(
            (atom.pred, tuple(str(a) for a in atom.args))
            for atom in self.positive_atoms()
        )
        return OpenInterpretation(Universe(elements), atoms)

    # -- debugging output ----------------------------------------------

    def to_dot(self) -> str:
        """Two digraphs: `forest` (nodes labeled with contents, tree arcs
        solid, extra arcs dashed and labeled with arc contents) and
        `dependencies` (the atom dependency graph)."""
        lines = ["digraph forest {"]
        for node in self.forest.nodes():
            label = f"{node}\\n{format_content(self.content(node))}"
            lines.append(f'  "{node}" [label="{label}"];')
        for src, dst in self.forest.tree_arcs():
            label = format_content(self.content((src, dst)))
            lines.append(f'  "{src}" -> "{dst}" [style=solid, label="{label}"];')
        for src, dst in self.forest.es_arcs():
            label = format_content(self.content((src, dst)))
            lines.append(f'  "{src}" -> "{dst}" [style=dashed, label="{label}"];')
        lines.append("}")
        lines.append("digraph dependencies {")
        for vertex in sorted(self.g.vertices(), key=str):
            lines.append(f'  "{vertex}";')
        for src, dst in sorted(self.g.arcs(), key=lambda a: (str(a[0]), str(a[1]))):
            lines.append(f'  "{src}" -> "{dst}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


_NO_CONTENT: frozenset = frozenset()


def _undo_memo_change(log: list) -> None:
    """Undo the newest change logged by `ForestState._remember` or
    `ForestState._forget_subtree`."""
    old = log.pop()
    x = log.pop()
    memo = log.pop()
    if old is None:
        del memo[x]
    else:
        memo[x] = old


def _undo_fill(ct: dict, key: Key, succ: dict, atoms: tuple, bucket: Optional[list]) -> None:
    """Undo `ForestState.fill`."""
    del ct[key]
    for atom in atoms:
        del succ[atom]
    if bucket is not None:
        del bucket[-len(atoms):]


def _remove_new_arcs(succ: dict, arcs: tuple) -> None:
    """Undo `DependencyGraph.add_new_arcs`: each source's newest arcs."""
    for src, _ in arcs:
        succ[src].pop()


def _key_str(key: Key) -> str:
    if isinstance(key, NodeId):
        return str(key)
    return f"({key[0]},{key[1]})"

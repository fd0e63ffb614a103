"""Pre-compiled depth-1 building blocks for the matching engine.

Enumerates every way the direct engine can saturate a single root node
(anonymous, or each program constant) while leaving the created
successors unexpanded; deduplicates the results up to successor
renumbering; detects final structures (every successor blocked or
content-free); discards structures strictly more constraining than a
retained one; and persists the survivors in a versioned, sorted,
human-diffable cache keyed by a fingerprint of the source program.

Enumeration branches are independent; pruning is a single pass over the
merged set.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Union

from .forest import GroundAtom, NodeId, Signed, signed_sort_key
from .syntax import FolpError, Program
from .tableau import (
    A1CompletionStructure,
    SearchStats,
    run_search,
)

# Abstract node tokens inside a unit: None is the root, an int the i-th
# tree child, a string a program constant.
Token = Union[None, int, str]
UAtom = tuple[str, tuple[Token, ...]]


class CacheFormatError(FolpError):
    """Unreadable or structurally invalid cache file."""


class CacheMismatchError(FolpError):
    """Cache fingerprint does not match the program it is used with."""


def _token_key(token: Token):
    if token is None:
        return (0, "")
    if isinstance(token, int):
        return (1, f"{token:06d}")
    return (2, token)


def _atom_key(atom: UAtom):
    return (atom[0], tuple(_token_key(t) for t in atom[1]))


def _arc_key(arc: tuple[UAtom, UAtom]):
    return (_atom_key(arc[0]), _atom_key(arc[1]))


def ground_atom(token_node: dict, atom: UAtom) -> GroundAtom:
    """The atom of a unit over the nodes its tokens stand for."""
    pred, tokens = atom
    return GroundAtom(pred, tuple(token_node[t] for t in tokens))


def _content_key(content: frozenset[Signed]):
    return tuple(sorted(((sp.name, not sp.positive) for sp in content)))


def format_token(token: Token) -> str:
    if token is None:
        return "@"
    if isinstance(token, int):
        return f"@.{token}"
    return token


def parse_token(text: str) -> Token:
    if text == "@":
        return None
    if text.startswith("@."):
        return int(text[2:])
    return text


def format_uatom(atom: UAtom) -> str:
    return f"{atom[0]}({','.join(format_token(t) for t in atom[1])})"


@dataclass(frozen=True)
class UnitSuccessor:
    """A direct successor of the unit root: a tree child (int target) or
    a constant the root imposes requirements on (str target)."""

    target: Union[int, str]
    has_arc: bool
    arc_content: frozenset[Signed]
    node_content: frozenset[Signed]
    paths: frozenset[tuple[str, str]]
    blocked: bool

    @property
    def is_constant(self) -> bool:
        return isinstance(self.target, str)

    def sort_key(self):
        key = self.__dict__.get("_key")
        if key is None:
            key = (
                0 if not self.is_constant else 1,
                _token_key(self.target if self.is_constant else None),
                _content_key(self.node_content),
                _content_key(self.arc_content),
                tuple(sorted(self.paths)),
                self.has_arc,
            )
            object.__setattr__(self, "_key", key)
        return key


@dataclass(frozen=True)
class UnitCompletionStructure:
    """A depth-1 tree with a saturated root, the contents it imposes, and
    its local atom dependency arcs (over abstract tokens)."""

    root_constant: Optional[str]  # None: anonymous root
    root_content: frozenset[Signed]
    successors: tuple[UnitSuccessor, ...]
    g_arcs: frozenset[tuple[UAtom, UAtom]]

    @property
    def final(self) -> bool:
        """See `is_final`."""
        return is_final(self)

    @property
    def tree_successors(self) -> tuple[UnitSuccessor, ...]:
        """The successors that are tree children, kept per unit."""
        tree = self.__dict__.get("_tree")
        if tree is None:
            tree = tuple(s for s in self.successors if not s.is_constant)
            object.__setattr__(self, "_tree", tree)
        return tree

    def constant_targets(self) -> tuple[GroundAtom, ...]:
        """The atoms over constants that the unit's dependency arcs
        target, in arc order; a constant stands for itself wherever the
        unit is grafted. Kept per unit."""
        targets = self.__dict__.get("_constant_targets")
        if targets is None:
            targets = tuple(
                GroundAtom(pred, (NodeId(tokens[0]),))
                for _, (pred, tokens) in self.graft_order()[2]
                if len(tokens) == 1 and isinstance(tokens[0], str)
            )
            object.__setattr__(self, "_constant_targets", targets)
        return targets

    def non_blocked(self) -> tuple[UnitSuccessor, ...]:
        return tuple(s for s in self.successors if not s.blocked)

    def total_path_count(self) -> int:
        return sum(len(s.paths) for s in self.successors)

    def sort_key(self):
        key = self.__dict__.get("_key")
        if key is None:
            key = (
                0 if self.root_constant is None else 1,
                self.root_constant or "",
                _content_key(self.root_content),
                len(self.successors),
                tuple(s.sort_key() for s in self.successors),
                tuple(sorted(_arc_key(arc) for arc in self.g_arcs)),
            )
            object.__setattr__(self, "_key", key)
        return key

    def graft_order(self):
        """Root content, (successor, arc content, node content) per
        successor, and dependency arcs, each content and the arcs sorted.
        A graft stops at the first contradicting entry or cycle-closing
        arc, so the entries and arcs it adds before stopping must not
        follow set iteration order, which changes with the hash seed and
        with memory addresses. The matching engine grounds this order
        once per node it grafts the unit onto
        (`A2CompletionStructure._graft_plan`)."""
        order = self.__dict__.get("_graft")
        if order is None:
            order = (
                tuple(sorted(self.root_content, key=signed_sort_key)),
                tuple(
                    (
                        succ,
                        tuple(sorted(succ.arc_content, key=signed_sort_key)),
                        tuple(sorted(succ.node_content, key=signed_sort_key)),
                    )
                    for succ in self.successors
                ),
                tuple(sorted(self.g_arcs, key=_arc_key)),
            )
            object.__setattr__(self, "_graft", order)
        return order

    def match_key(self):
        """Candidate order for the matching engine: least constraining
        first (fewest successors, then smallest path sets)."""
        return (len(self.successors), self.total_path_count(), self.sort_key())


def is_final(uc: UnitCompletionStructure) -> bool:
    """Every successor blocked or content-free: the unit is terminal by
    itself."""
    return all(s.blocked or not s.node_content for s in uc.successors)


# ----------------------------------------------------------------------
# Enumeration


def _snapshot(cs: A1CompletionStructure, program: Program) -> UnitCompletionStructure:
    eps = cs.epsilon
    root_content = cs.content_of_node(eps)
    anonymous_root = eps.root not in program.constants
    children = cs.forest.children(eps)
    token: dict[NodeId, Token] = {eps: None, **{c: c.path[-1] for c in children}}

    def tokenize(node: NodeId) -> Token:
        if node in token:
            return token[node]
        assert node.is_root and node.root in program.constants, node
        return node.root

    raw_arcs: list[tuple[UAtom, UAtom]] = [
        (
            (src.pred, tuple(tokenize(n) for n in src.args)),
            (dst.pred, tuple(tokenize(n) for n in dst.args)),
        )
        for src, dst in cs.g.arcs()
    ]

    def successor(target, node: NodeId, has_arc: bool = True) -> UnitSuccessor:
        # an arc's content exists only with its arc; a self-arc on a
        # constant root carries binary content but imposes nothing beyond
        # the root content itself
        if node == eps:
            node_content = paths = frozenset()
        else:
            node_content = cs.content_of_node(node)
            paths = frozenset(cs.g.paths_set(eps, node, program.free_preds))
        return UnitSuccessor(
            target=target,
            has_arc=has_arc,
            arc_content=frozenset(cs.content((eps, node))),
            node_content=node_content,
            paths=paths,
            # a tree child is blocked by an anonymous root that includes
            # its content with no path between them
            blocked=anonymous_root
            and not node.is_root
            and node_content <= root_content
            and not paths,
        )

    def signature(token: int):
        # the child's dependency arcs, with the child itself renamed
        return tuple(
            sorted(
                tuple(
                    (pred, tuple("SELF" if t == token else str(t) for t in tokens))
                    for pred, tokens in arc
                )
                for arc in raw_arcs
                if token in arc[0][1] or token in arc[1][1]
            )
        )

    # the renumbering key and the emission order must coincide, so that
    # canonical targets 1..n match the order children are recreated in
    # when the unit is grafted onto a node
    tree = sorted(
        (successor(token[child], child) for child in children),
        key=lambda s: (
            _content_key(s.node_content),
            _content_key(s.arc_content),
            tuple(sorted(s.paths)),
            signature(s.target),
        ),
    )
    renumber = {s.target: i + 1 for i, s in enumerate(tree)}
    successors = [replace(s, target=renumber[s.target]) for s in tree]
    g_arcs = frozenset(
        tuple((pred, tuple(renumber.get(t, t) for t in tokens)) for pred, tokens in arc)
        for arc in raw_arcs
    )

    # tree successors stay in canonical target order; constant
    # attachments follow the (ordered) constant inventory
    for c in program.constants:
        node = NodeId(c)
        has_arc = cs.forest.has_es(eps, node)
        if has_arc or (node != eps and cs.content(node)):
            successors.append(successor(c, node, has_arc))
    return UnitCompletionStructure(
        root_constant=None if anonymous_root else eps.root,
        root_content=root_content,
        successors=tuple(successors),
        g_arcs=g_arcs,
    )


def enumerate_unit_completions(
    program: Program,
    time_limit: Optional[float] = None,
    max_tasks: Optional[int] = None,
) -> tuple[UnitCompletionStructure, ...]:
    """All depth-1 completion structures over an anonymous root and over
    each constant root, deduplicated up to successor renumbering. The
    direct engine's rules are reused restricted to the root: successors
    are populated but never expanded."""
    if program.has_constraints():
        raise ValueError(
            "unit compilation requires a constraint-free program; apply "
            "eliminate_constraints first"
        )
    deadline = time.monotonic() + time_limit if time_limit is not None else None
    found: dict = {}
    stats = SearchStats()
    roots: list[Optional[str]] = [None] + list(program.constants)
    for root in roots:
        cs = A1CompletionStructure(
            program,
            pred=None,
            epsilon=root,
            max_depth=1,
            stats=stats,
            deadline=deadline,
            max_tasks=max_tasks,
        )
        eps = cs.epsilon

        def next_task(cs=cs, eps=eps):
            cs.check_budget()
            return cs.node_task(eps)

        def record(cs=cs) -> bool:
            unit = _snapshot(cs, program)
            found.setdefault(unit.sort_key(), unit)
            return False  # keep enumerating

        run_search(cs, next_task, stats, record)
    return tuple(found[k] for k in sorted(found))


# ----------------------------------------------------------------------
# Redundancy


def is_redundant_ucs(
    uc1: UnitCompletionStructure, uc2: UnitCompletionStructure
) -> bool:
    """True when uc2 witnesses the redundancy of uc1: same root, same
    root content, with uc2's non-blocked successors injectable into uc1's
    successors under content and path-set inclusion, the comparison being
    strict overall. Strictness holds when some inclusion is strict or uc2
    has strictly fewer non-blocked successors; a constant maps only to the
    same constant, a tree successor only to a tree successor. The roots
    must coincide exactly because the matching engine fits anonymous
    roots only to anonymous nodes."""
    if uc1 is uc2 or uc1.sort_key() == uc2.sort_key():
        return False
    if uc2.root_constant != uc1.root_constant or uc2.root_content != uc1.root_content:
        return False
    # constants first: each has at most one image, so a miss fails early
    sources = sorted(uc2.non_blocked(), key=lambda s: not s.is_constant)
    return _injects(sources, uc1.successors, set(), len(sources) < len(uc1.non_blocked()))


def _injects(sources, targets, used: set[int], strict: bool) -> bool:
    """Whether `sources` map one to one onto the targets outside `used`
    (a constant onto itself, a tree successor onto a tree successor) under
    content and path-set inclusion, some inclusion strict unless `strict`."""
    if not sources:
        return strict
    s = sources[0]
    for j, t in enumerate(targets):
        if j in used or (t.target != s.target if s.is_constant else t.is_constant):
            continue
        if s.node_content <= t.node_content and s.paths <= t.paths:
            used.add(j)
            strict_here = strict or s.node_content < t.node_content or s.paths < t.paths
            if _injects(sources[1:], targets, used, strict_here):
                return True
            used.discard(j)
    return False


@dataclass
class UnitCache:
    fingerprint: str
    units: tuple[UnitCompletionStructure, ...]

    def candidates_for(self, constant: Optional[str]) -> list[UnitCompletionStructure]:
        """Units whose root matches a node exactly: anonymous roots fit
        anonymous nodes, a constant root only its own constant. An
        anonymous root never fits a constant: its negative justifications
        were built without the constant-headed rule instances, so using
        it at a constant would silently skip their refutation."""
        memo = self.__dict__.setdefault("_candidates", {})
        if constant not in memo:
            out = [u for u in self.units if u.root_constant == constant]
            out.sort(key=UnitCompletionStructure.match_key)
            memo[constant] = out
        return memo[constant]

    def verify(self, program: Program) -> None:
        if self.fingerprint != program.fingerprint():
            raise CacheMismatchError(
                "unit cache was compiled from a different program"
            )


def prune_redundant(
    units: Iterable[UnitCompletionStructure], program: Program
) -> UnitCache:
    """Keep exactly the structures not redundant with respect to any
    other enumerated structure. Redundancy is a strict partial order, so
    the retained minimal elements witness every dropped structure and no
    retained pair is in the relation."""
    pool = sorted(units, key=UnitCompletionStructure.sort_key)
    retained = [
        uc
        for uc in pool
        if not any(other is not uc and is_redundant_ucs(uc, other) for other in pool)
    ]
    return UnitCache(program.fingerprint(), tuple(retained))


@dataclass
class CompileSummary:
    cache: UnitCache
    enumerated: int  # after deduplication
    final: int
    redundant: int

    @property
    def retained(self) -> int:
        return len(self.cache.units)

    def to_record(self) -> dict:
        return {
            "record": "compile-units",
            "enumerated": self.enumerated,
            "final": self.final,
            "redundant": self.redundant,
            "retained": self.retained,
        }


def compile_units(
    program: Program,
    time_limit: Optional[float] = None,
    max_tasks: Optional[int] = None,
) -> CompileSummary:
    units = enumerate_unit_completions(program, time_limit, max_tasks)
    cache = prune_redundant(units, program)
    return CompileSummary(
        cache=cache,
        enumerated=len(units),
        final=sum(1 for u in units if u.final),
        redundant=len(units) - len(cache.units),
    )


# ----------------------------------------------------------------------
# Persistence (versioned, sorted, human-diffable)

_FORMAT_HEADER = "folp-units 1"


def _format_content(content: frozenset[Signed]) -> str:
    return ", ".join(str(sp) for sp in sorted(content, key=signed_sort_key))


def _parse_content(text: str) -> frozenset[Signed]:
    text = text.strip()
    if not text:
        return frozenset()
    out = []
    for part in text.split(", "):
        if part.startswith("not "):
            out.append(Signed(part[4:], False))
        else:
            out.append(Signed(part, True))
    return frozenset(out)


def _parse_uatom(text: str) -> UAtom:
    if not text.endswith(")") or "(" not in text:
        raise CacheFormatError(f"malformed atom {text!r}")
    pred, rest = text[:-1].split("(", 1)
    return (pred, tuple(parse_token(t) for t in rest.split(",")))


def save_cache(cache: UnitCache, path) -> None:
    lines = [_FORMAT_HEADER, f"fingerprint: {cache.fingerprint}", f"count: {len(cache.units)}"]
    for unit in cache.units:
        lines.append("")
        lines.append("unit")
        lines.append(f"root: {format_token(unit.root_constant)}")
        lines.append(f"content: {_format_content(unit.root_content)}")
        lines.append(f"final: {'yes' if unit.final else 'no'}")
        for succ in unit.successors:
            arc = "arc" if succ.has_arc else "noarc"
            blocked = "blocked" if succ.blocked else "open"
            lines.append(f"succ: {format_token(succ.target)} {arc} {blocked}")
            lines.append(f"arc-content: {_format_content(succ.arc_content)}")
            lines.append(f"node-content: {_format_content(succ.node_content)}")
            lines.append(
                "paths: "
                + ", ".join(f"{p}->{q}" for p, q in sorted(succ.paths))
            )
        for a, b in sorted(unit.g_arcs, key=_arc_key):
            lines.append(f"garc: {format_uatom(a)} -> {format_uatom(b)}")
        lines.append("end")
    text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def load_cache(path, program: Optional[Program] = None) -> UnitCache:
    """Parse a cache file; with a program given, reject a fingerprint
    mismatch. An unreadable or malformed file raises CacheFormatError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            cache = _parse_cache(handle.read().splitlines())
    except OSError as err:
        raise CacheFormatError(str(err)) from err
    except ValueError as err:
        # bytes that do not decode, a number that does not parse, or a
        # field that does not split into its parts
        raise CacheFormatError(f"malformed cache file: {err}") from err
    if program is not None:
        cache.verify(program)
    return cache


def _parse_cache(lines: list[str]) -> UnitCache:
    cursor = 0

    def take() -> str:
        nonlocal cursor
        if cursor >= len(lines):
            raise CacheFormatError("truncated cache file")
        line = lines[cursor]
        cursor += 1
        return line

    def field_of(line: str, name: str) -> str:
        prefix = name + ":"
        if not line.startswith(prefix):
            raise CacheFormatError(f"expected {name!r} line, got {line!r}")
        return line[len(prefix):].strip()

    if take() != _FORMAT_HEADER:
        raise CacheFormatError("unknown cache format header")
    fingerprint = field_of(take(), "fingerprint")
    count = int(field_of(take(), "count"))
    units: list[UnitCompletionStructure] = []
    for _ in range(count):
        while True:
            line = take()
            if line == "unit":
                break
            if line.strip():
                raise CacheFormatError(f"unexpected line {line!r}")
        root_token = parse_token(field_of(take(), "root"))
        if isinstance(root_token, int):
            raise CacheFormatError("unit root must be '@' or a constant")
        root_content = _parse_content(field_of(take(), "content"))
        final_text = field_of(take(), "final")
        if final_text not in ("yes", "no"):
            raise CacheFormatError(f"bad final flag {final_text!r}")
        successors: list[UnitSuccessor] = []
        g_arcs: set[tuple[UAtom, UAtom]] = set()
        while True:
            line = take()
            if line == "end":
                break
            if line.startswith("succ:"):
                parts = field_of(line, "succ").split()
                if len(parts) != 3 or parts[1] not in ("arc", "noarc") or parts[2] not in ("blocked", "open"):
                    raise CacheFormatError(f"bad successor line {line!r}")
                target = parse_token(parts[0])
                if target is None:
                    raise CacheFormatError("successor target may not be the root")
                arc_content = _parse_content(field_of(take(), "arc-content"))
                node_content = _parse_content(field_of(take(), "node-content"))
                paths_text = field_of(take(), "paths")
                paths = set()
                if paths_text:
                    for pair in paths_text.split(", "):
                        p, q = pair.split("->")
                        paths.add((p, q))
                successors.append(
                    UnitSuccessor(
                        target=target,
                        has_arc=parts[1] == "arc",
                        arc_content=arc_content,
                        node_content=node_content,
                        paths=frozenset(paths),
                        blocked=parts[2] == "blocked",
                    )
                )
            elif line.startswith("garc:"):
                left, right = field_of(line, "garc").split(" -> ")
                g_arcs.add((_parse_uatom(left), _parse_uatom(right)))
            else:
                raise CacheFormatError(f"unexpected line {line!r}")
        unit = UnitCompletionStructure(
            root_constant=root_token,
            root_content=root_content,
            successors=tuple(successors),
            g_arcs=frozenset(g_arcs),
        )
        if unit.final != (final_text == "yes"):
            raise CacheFormatError(
                f"final flag {final_text!r} disagrees with the unit's successors"
            )
        units.append(unit)
    return UnitCache(fingerprint, tuple(units))

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

from dataclasses import dataclass, field, replace
from functools import cached_property
from operator import attrgetter
from typing import Iterable, Optional, Union

from .forest import GroundAtom, NodeId, Signed, signed_sort_key
from .syntax import FolpError, Program
from .tableau import (
    A1CompletionStructure,
    SearchStats,
    check_budgets,
    deadline_after,
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

    @cached_property
    def sort_key(self):
        return (
            0 if not self.is_constant else 1,
            _token_key(self.target if self.is_constant else None),
            _content_key(self.node_content),
            _content_key(self.arc_content),
            tuple(sorted(self.paths)),
            self.has_arc,
        )


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

    @cached_property
    def tree_successors(self) -> tuple[UnitSuccessor, ...]:
        """The successors that are tree children."""
        return tuple(s for s in self.successors if not s.is_constant)

    @cached_property
    def constant_targets(self) -> tuple[GroundAtom, ...]:
        """The atoms over constants that the unit's dependency arcs
        target, in arc order; a constant stands for itself wherever the
        unit is grafted."""
        return tuple(
            GroundAtom(pred, (NodeId(tokens[0]),))
            for _, (pred, tokens) in self.graft_order[2]
            if len(tokens) == 1 and isinstance(tokens[0], str)
        )

    @cached_property
    def non_blocked(self) -> tuple[UnitSuccessor, ...]:
        return tuple(s for s in self.successors if not s.blocked)

    @cached_property
    def sort_key(self):
        return (
            0 if self.root_constant is None else 1,
            self.root_constant or "",
            _content_key(self.root_content),
            len(self.successors),
            tuple(s.sort_key for s in self.successors),
            tuple(sorted(_arc_key(arc) for arc in self.g_arcs)),
        )

    @cached_property
    def graft_order(self):
        """Root content, (successor, arc content, node content) per
        successor, and dependency arcs, each content and the arcs sorted.
        A graft stops at the first contradicting entry or cycle-closing
        arc, so the entries and arcs it adds before stopping must not
        follow set iteration order, which changes with the hash seed and
        with memory addresses. The matching engine grounds this order
        once per node it grafts the unit onto
        (`A2CompletionStructure._graft_plan`)."""
        return (
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

    def match_key(self):
        """Candidate order for the matching engine: least constraining
        first (fewest successors, then smallest path sets)."""
        paths = sum(len(s.paths) for s in self.successors)
        return (len(self.successors), paths, self.sort_key)


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
    are populated but never expanded. `time_limit` and `max_tasks` are
    checked as `tableau.RedundancyPolicy` checks them."""
    if program.has_constraints():
        raise ValueError(
            "unit compilation requires a constraint-free program; apply "
            "eliminate_constraints first"
        )
    check_budgets(time_limit, max_tasks)
    deadline = deadline_after(time_limit)
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
            found.setdefault(unit.sort_key, unit)
            return False  # keep enumerating

        run_search(cs, next_task, stats, record)
        cs.release()
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
    if uc1 is uc2 or uc1.sort_key == uc2.sort_key:
        return False
    if uc2.root_constant != uc1.root_constant or uc2.root_content != uc1.root_content:
        return False
    # constants first: each has at most one image, so a miss fails early
    sources = sorted(uc2.non_blocked, key=lambda s: not s.is_constant)
    return _injects(sources, uc1.successors, set(), len(sources) < len(uc1.non_blocked))


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
    # the program fingerprint that `verify` found every unit to fit; a
    # new cache starts unchecked
    checked_for: Optional[str] = field(default=None, init=False, compare=False, repr=False)
    # `candidates_for` per root constant, made on first use
    candidates: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def candidates_for(self, constant: Optional[str]) -> list[UnitCompletionStructure]:
        """Units whose root matches a node exactly: anonymous roots fit
        anonymous nodes, a constant root only its own constant. An
        anonymous root never fits a constant: its negative justifications
        were built without the constant-headed rule instances, so using
        it at a constant would silently skip their refutation."""
        out = self.candidates.get(constant)
        if out is None:
            out = [u for u in self.units if u.root_constant == constant]
            out.sort(key=UnitCompletionStructure.match_key)
            self.candidates[constant] = out
        return out

    def verify(self, program: Program) -> None:
        """Reject a cache compiled from another program, and a unit that
        no saturated depth-1 structure of the program can be
        (`_check_unit_fits`). The units are checked once per program
        fingerprint (`checked_for`)."""
        fingerprint = program.fingerprint()
        if self.fingerprint != fingerprint:
            raise CacheMismatchError(
                "unit cache was compiled from a different program"
            )
        if self.checked_for == fingerprint:
            return
        for unit in self.units:
            _check_unit_fits(unit, program)
        self.checked_for = fingerprint


def _check_unit_fits(unit: UnitCompletionStructure, program: Program) -> None:
    """Reject a unit that no saturated depth-1 structure of the program
    can be: it names a constant the program lacks, its root content does
    not hold one sign of each unary predicate, a node content names
    anything else, an arc's content does not hold one sign of each
    binary predicate (a successor without an arc has no arc content), or
    a tree successor's arc holds no positive entry, which is all that a
    tree successor is made for."""
    names = [succ.target for succ in unit.successors if succ.is_constant]
    for name in [unit.root_constant, *names]:
        if name is not None and name not in program.constants:
            raise CacheFormatError(
                f"unit names the constant {name!r}, which the program lacks"
            )
    upreds, bpreds = set(program.upreds), set(program.bpreds)
    if not _one_sign_each(unit.root_content, upreds):
        raise CacheFormatError(
            f"unit root content {_format_content(unit.root_content)!r} does not "
            "hold one sign of each unary predicate"
        )
    for succ in unit.successors:
        if not (
            {sp.name for sp in succ.node_content} <= upreds
            and _one_sign_each(succ.arc_content, bpreds if succ.has_arc else set())
            and (succ.is_constant or any(sp.positive for sp in succ.arc_content))
        ):
            raise CacheFormatError(
                f"unit successor {format_token(succ.target)} has node content "
                f"{_format_content(succ.node_content)!r} and arc content "
                f"{_format_content(succ.arc_content)!r}: a node content names only "
                "unary predicates, an arc's content holds one sign of each binary "
                "predicate, a tree successor's arc a positive one, and a successor "
                "without an arc has no arc content"
            )


def _one_sign_each(content: frozenset[Signed], preds: set[str]) -> bool:
    return len(content) == len(preds) and {sp.name for sp in content} == preds


def prune_redundant(
    units: Iterable[UnitCompletionStructure], program: Program
) -> UnitCache:
    """Keep exactly the structures not redundant with respect to any
    other enumerated structure. Redundancy is a strict partial order, so
    the retained minimal elements witness every dropped structure and no
    retained pair is in the relation. `is_redundant_ucs` holds only
    between units with the same root constant and root content, so each
    unit is compared only with its bucket of those, in pool order. The
    units are the program's own enumeration, so each fits it (see
    `UnitCache.verify`), and the cache is marked checked for it."""
    pool = sorted(units, key=attrgetter("sort_key"))
    buckets: dict[tuple, list[UnitCompletionStructure]] = {}
    for uc in pool:
        buckets.setdefault((uc.root_constant, uc.root_content), []).append(uc)
    retained = [
        uc
        for uc in pool
        if not any(
            other is not uc and is_redundant_ucs(uc, other)
            for other in buckets[uc.root_constant, uc.root_content]
        )
    ]
    cache = UnitCache(program.fingerprint(), tuple(retained))
    cache.checked_for = cache.fingerprint
    return cache


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
    """Parse a cache file and, with a program given, `verify` it. An
    unreadable or malformed file raises CacheFormatError."""
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
    if count < 0:
        raise CacheFormatError(f"negative unit count {count}")
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
        _check_unit(unit)
        units.append(unit)
    for line in lines[cursor:]:
        if line.strip():
            raise CacheFormatError(f"line {line!r} after the {count} counted units")
    return UnitCache(fingerprint, tuple(units))


def _check_unit(unit: UnitCompletionStructure) -> None:
    """Reject a unit that enumeration cannot make and whose graft the
    compiled engine would mistrust (see the `matcher` docstring): tree
    successors not numbered 1..n in order, an inconsistent content, or
    dependency arcs that close a cycle or do not run from positive
    entries over the root to positive entries."""
    numbers = [succ.target for succ in unit.tree_successors]
    if numbers != list(range(1, len(numbers) + 1)):
        raise CacheFormatError(f"unit tree successors {numbers} are not numbered 1..n in order")
    contents = [unit.root_content]
    entries = {(sp.name, (None,)) for sp in unit.root_content if sp.positive}
    for succ in unit.successors:
        # a self-arc of a constant root ends at the root itself
        token = None if succ.target == unit.root_constant else succ.target
        contents += (succ.arc_content, succ.node_content)
        entries.update((sp.name, (None, token)) for sp in succ.arc_content if sp.positive)
        entries.update((sp.name, (token,)) for sp in succ.node_content if sp.positive)
    for content in contents:
        if any(sp.negated() in content for sp in content):
            raise CacheFormatError(f"inconsistent unit content {_format_content(content)!r}")
    arcs = sorted(unit.g_arcs, key=_arc_key)
    for src, dst in arcs:
        if src[1][0] is not None or src not in entries or dst not in entries:
            raise CacheFormatError(
                f"unit arc {format_uatom(src)} -> {format_uatom(dst)} does not run "
                "from a positive entry over the root to a positive entry"
            )
    # drop the arcs into atoms without outgoing arcs until none is left,
    # which fails exactly when the arcs close a cycle
    while arcs:
        sources = {src for src, _ in arcs}
        kept = [arc for arc in arcs if arc[1] in sources]
        if len(kept) == len(arcs):
            cycle = ", ".join(f"{format_uatom(a)} -> {format_uatom(b)}" for a, b in kept)
            raise CacheFormatError(f"unit arcs close a cycle: {cycle}")
        arcs = kept

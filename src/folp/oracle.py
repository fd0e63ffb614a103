"""Ground-truth semantics for forest logic programs.

Grounding, the Gelfond-Lifschitz reduct, least-model computation,
answer-set checking, and a bounded search for open answer sets over
universes that extend the program constants with fresh elements.

This module is the independent verification route: it never touches the
tableau machinery and works on plain string universes. A returned `None`
from `bounded_sat` is *not* an unsatisfiability proof; open domains may
require larger (or infinite) universes.

Candidate checks share nothing mutable; enumeration per universe is
exhaustive, and results are merged with a deterministic tie-break
(smallest universe, then smallest interpretation, then lexicographic).

Within one universe the answer sets are bit masks over the sorted ground
atoms, so a mask's atoms in bit order are its atoms in sorted order.
`answer_sets` sorts every answer set by (cardinality, sorted atoms);
`bounded_sat` computes the first of them that holds a `pred` atom on
the masks alone: it keeps the masks that meet the `pred` atoms' mask,
then those with the fewest set bits, and returns the one whose atom list
is least, the only interpretation it builds.

The candidate scan runs in pure Python when the universe has more than
63 ground atoms (the numpy scan packs a candidate into one uint64) or
at most `PYTHON_SCAN_MAX_RELEVANT` relevant atoms (at most 64
candidates, where numpy's per-call cost outweighs its work); numpy
scans the rest.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Optional

import numpy as np

from .syntax import (
    FolpError,
    Inequality,
    Literal,
    Program,
    Rule,
    RuleKind,
    Term,
)

OAtom = tuple[str, tuple[str, ...]]

DEFAULT_BUDGET = 2**22

# Relevant-atom count up to which the pure-Python scan is the faster one.
PYTHON_SCAN_MAX_RELEVANT = 6


class OracleBudgetError(FolpError):
    """The enumeration would exceed the configured candidate budget."""


def format_atom(atom: OAtom) -> str:
    pred, args = atom
    return f"{pred}({','.join(args)})"


@dataclass(frozen=True)
class Universe:
    """cts(P) followed by canonically named anonymous elements u1, u2, ..."""

    elements: tuple[str, ...]

    @classmethod
    def for_program(cls, program: Program, size: int) -> "Universe":
        constants = list(program.constants)
        if size < max(1, len(constants)):
            raise ValueError(f"universe size {size} below the constant count")
        taken = set(constants)
        fresh: list[str] = []
        i = 1
        while len(constants) + len(fresh) < size:
            name = f"u{i}"
            i += 1
            if name in taken:
                continue
            fresh.append(name)
        return cls(tuple(constants) + tuple(fresh))

    def __contains__(self, element: str) -> bool:
        return element in self.elements

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


@dataclass(frozen=True)
class OpenInterpretation:
    universe: Universe
    atoms: frozenset[OAtom]

    def format_witness(self) -> str:
        """Stable text form: element lines in universe order, then atom
        lines sorted by (predicate, arguments). Bit-exact for goldens."""
        lines = [f"element {e}" for e in self.universe.elements]
        lines += [f"atom {format_atom(a)}" for a in sorted(self.atoms)]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class GroundRule:
    """head None means constraint; choice marks a free rule instance."""

    head: Optional[OAtom]
    pos: tuple[OAtom, ...]
    neg: tuple[OAtom, ...]
    choice: bool = False


@dataclass(frozen=True)
class GroundProgram:
    rules: tuple[GroundRule, ...]

    def atoms(self) -> set[OAtom]:
        collected: set[OAtom] = set()
        for rule in self.rules:
            if rule.head is not None:
                collected.add(rule.head)
            collected.update(rule.pos)
            collected.update(rule.neg)
        return collected


def _rule_variables(rule: Rule) -> list[Term]:
    seen: list[Term] = []
    for atom in ([rule.head] if rule.head is not None else []):
        for term in atom.args:
            if term.is_variable and term not in seen:
                seen.append(term)
    for item in rule.body:
        terms = (
            item.atom.args if isinstance(item, Literal) else (item.left, item.right)
        )
        for term in terms:
            if term.is_variable and term not in seen:
                seen.append(term)
    return seen


def _template(rule: Rule):
    """The rule with every term written as a position in `values +
    constants`, where `values` holds a substitution's elements in
    `_rule_variables` order and `constants` the rule's constants.

    Returns (variable count, constants, pick, head, pos, neg, unequal):
    `pick` maps `values + constants` to the arguments of the head and
    then of each body literal, one flat tuple; an atom is (predicate,
    start, end) of its arguments there; `unequal` holds the position
    pairs of the inequalities."""
    variables = _rule_variables(rule)
    slots = {term.name: i for i, term in enumerate(variables)}
    constants: list[str] = []
    positions: list[int] = []

    def slot(term: Term) -> int:
        if term.name not in slots:
            slots[term.name] = len(slots)
            constants.append(term.name)
        return slots[term.name]

    def atom(a) -> tuple[str, int, int]:
        start = len(positions)
        positions.extend(slot(t) for t in a.args)
        return a.pred, start, len(positions)

    head = atom(rule.head) if rule.head is not None else None
    pos, neg, unequal = [], [], []
    for item in rule.body:
        if isinstance(item, Inequality):
            unequal.append((slot(item.left), slot(item.right)))
        else:
            (pos if item.positive else neg).append(atom(item.atom))
    if len(positions) >= 2:
        pick = itemgetter(*positions)
    else:  # itemgetter of one position returns the bare element
        pick = lambda values: tuple(values[i] for i in positions)  # noqa: E731
    return (
        len(variables), tuple(constants), pick, head, tuple(pos), tuple(neg),
        tuple(unequal),
    )


def ground(program: Program, universe: Universe) -> GroundProgram:
    """All substitutions of variables by universe elements. Inequalities
    between distinct elements are dropped as satisfied; an instance with
    an inequality between equal elements is dropped entirely."""
    out: list[GroundRule] = []
    seen: set[tuple] = set()
    for rule in program.rules:
        n_vars, constants, pick, head, pos, neg, unequal = _template(rule)
        choice = rule.kind is RuleKind.FREE
        for values in itertools.product(universe.elements, repeat=n_vars):
            values += constants
            if unequal and any(values[i] == values[j] for i, j in unequal):
                continue
            args = pick(values)
            key = (
                None if head is None else (head[0], args[head[1] : head[2]]),
                tuple([(p, args[start:end]) for p, start, end in pos]),
                tuple([(p, args[start:end]) for p, start, end in neg]),
                choice,
            )
            if key not in seen:
                seen.add(key)
                out.append(GroundRule(*key))
    return GroundProgram(tuple(out))


def gl_reduct(gp: GroundProgram, interpretation: Iterable[OAtom]) -> GroundProgram:
    """Keep the positive part of each rule whose negative body is
    disjoint from the interpretation; the instance of a free rule
    survives exactly when its head atom is in the interpretation."""
    atoms = frozenset(interpretation)
    kept: list[GroundRule] = []
    for rule in gp.rules:
        if any(a in atoms for a in rule.neg):
            continue
        if rule.choice:
            if rule.head not in atoms:
                continue
            kept.append(GroundRule(rule.head, (), ()))
        else:
            kept.append(GroundRule(rule.head, rule.pos, ()))
    return GroundProgram(tuple(kept))


def least_model(gp: GroundProgram) -> frozenset[OAtom]:
    """Least fixpoint of the one-step consequence operator. Accepts only
    positive, non-disjunctive input; constraints derive nothing."""
    for rule in gp.rules:
        if rule.neg:
            raise ValueError(f"non-positive rule in least_model input: {rule}")
    model: set[OAtom] = set()
    pending = [r for r in gp.rules if r.head is not None]
    changed = True
    while changed:
        changed = False
        remaining = []
        for rule in pending:
            if all(a in model for a in rule.pos):
                if rule.head not in model:
                    model.add(rule.head)
                    changed = True
            else:
                remaining.append(rule)
        pending = remaining
    return frozenset(model)


def _satisfies_body(atoms: frozenset[OAtom], rule: GroundRule) -> bool:
    return all(a in atoms for a in rule.pos) and not any(a in atoms for a in rule.neg)


def satisfies_rule(atoms: frozenset[OAtom], rule: GroundRule) -> bool:
    if rule.head is None:
        return not _satisfies_body(atoms, rule)
    if rule.choice:
        return True
    return rule.head in atoms or not _satisfies_body(atoms, rule)


def is_answer_set(program: Program, interp: OpenInterpretation) -> bool:
    """True iff the atoms equal the least model of the reduct of the
    grounding over the interpretation's universe and every ground
    constraint is satisfied. Constraints are checked natively, so the
    original (constraint-bearing) program can be verified directly."""
    for _, args in interp.atoms:
        for element in args:
            if element not in interp.universe:
                raise ValueError(f"atom argument {element!r} outside the universe")
    gp = ground(program, interp.universe)
    plain = GroundProgram(tuple(r for r in gp.rules if r.head is not None))
    constraints = [r for r in gp.rules if r.head is None]
    reduct = gl_reduct(plain, interp.atoms)
    if least_model(reduct) != interp.atoms:
        return False
    if not all(satisfies_rule(interp.atoms, c) for c in constraints):
        return False
    # the fixpoint plus the constraint check imply the model check; assert
    # it independently rather than trusting the implication
    assert all(satisfies_rule(interp.atoms, r) for r in gp.rules)
    return True


# ----------------------------------------------------------------------
# Exhaustive answer-set enumeration for one universe.
#
# The reduct of the grounding depends on a candidate M only through its
# intersection with the "relevant" atoms: atoms under naf in some body,
# plus free-rule head atoms. Enumerating that intersection S, taking the
# least model M_S of the induced reduct, and keeping the candidates with
# M_S consistent with S is sound and complete.


class _GroundIndex:
    def __init__(self, program: Program, universe: Universe):
        self.gp = ground(program, universe)
        atom_set = self.gp.atoms()
        for pred in program.upreds:
            for e in universe.elements:
                atom_set.add((pred, (e,)))
        self.atoms: list[OAtom] = sorted(atom_set)
        self.index: dict[OAtom, int] = {a: i for i, a in enumerate(self.atoms)}
        relevant: set[OAtom] = set()
        for rule in self.gp.rules:
            relevant.update(rule.neg)
            if rule.choice:
                relevant.add(rule.head)
        self.relevant: list[OAtom] = sorted(relevant)

    def mask(self, atoms: Iterable[OAtom]) -> int:
        m = 0
        for a in atoms:
            m |= 1 << self.index[a]
        return m

    def atoms_of(self, mask: int) -> list[OAtom]:
        """The atoms of a mask in bit order, which is sorted order."""
        return [a for i, a in enumerate(self.atoms) if mask >> i & 1]


def _model_masks(
    program: Program, universe: Universe, budget: int
) -> tuple[_GroundIndex, list[int]]:
    """The grounding's index and the answer sets over the universe as
    masks of its atom bits, in scan order."""
    idx = _GroundIndex(program, universe)
    n_rel = len(idx.relevant)
    if 2**n_rel > budget:
        raise OracleBudgetError(
            f"{2 ** n_rel} reduct candidates exceed the budget of {budget}"
        )
    rel_bits = [idx.index[a] for a in idx.relevant]

    derive = []  # (head_bit, pos_mask, sel_have, sel_lack) over global bits
    constraints = []  # (pos_mask, neg_mask)
    for rule in idx.gp.rules:
        if rule.head is None:
            constraints.append((idx.mask(rule.pos), idx.mask(rule.neg)))
        elif rule.choice:
            bit = idx.mask([rule.head])
            derive.append((bit, 0, bit, 0))
        else:
            derive.append(
                (idx.mask([rule.head]), idx.mask(rule.pos), 0, idx.mask(rule.neg))
            )

    if len(idx.atoms) > 63 or n_rel <= PYTHON_SCAN_MAX_RELEVANT:
        models = _scan_python(n_rel, rel_bits, derive, constraints)
    else:
        models = _scan_numpy(n_rel, rel_bits, derive, constraints)
    return idx, models


def _scan_numpy(n_rel, rel_bits, derive, constraints) -> list[int]:
    u64 = np.uint64
    count = 1 << n_rel
    compact = np.arange(count, dtype=u64)
    # scatter compact S bits onto the global atom bit positions
    s_global = np.zeros(count, dtype=u64)
    for i, g in enumerate(rel_bits):
        s_global |= ((compact >> u64(i)) & u64(1)) << u64(g)
    model = np.zeros(count, dtype=u64)
    rules = [
        (u64(h), u64(p), u64(sh), u64(sl)) for (h, p, sh, sl) in derive
    ]
    changed = True
    while changed:
        changed = False
        for head, pos, sel_have, sel_lack in rules:
            fire = (
                ((s_global & sel_have) == sel_have)
                & ((s_global & sel_lack) == u64(0))
                & ((model & pos) == pos)
                & ((model & head) != head)
            )
            if fire.any():
                model[fire] |= head
                changed = True
    rel_mask = u64(0)
    for g in rel_bits:
        rel_mask |= u64(1) << u64(g)
    valid = (model & rel_mask) == s_global
    for cpos, cneg in constraints:
        violated = ((model & u64(cpos)) == u64(cpos)) & (
            (model & u64(cneg)) == u64(0)
        )
        valid &= ~violated
    return [int(m) for m in model[valid]]


def _scan_python(n_rel, rel_bits, derive, constraints) -> list[int]:
    rel_mask = 0
    for g in rel_bits:
        rel_mask |= 1 << g
    models = []
    for compact in range(1 << n_rel):
        s = 0
        for i, g in enumerate(rel_bits):
            if compact >> i & 1:
                s |= 1 << g
        active = [
            (h, p)
            for (h, p, sh, sl) in derive
            if (s & sh) == sh and (s & sl) == 0
        ]
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
    return models


def answer_sets(
    program: Program, universe: Universe, budget: int = DEFAULT_BUDGET
) -> list[OpenInterpretation]:
    """All open answer sets over the given universe, sorted by
    (cardinality, atom listing)."""
    idx, models = _model_masks(program, universe, budget)
    found = [frozenset(idx.atoms_of(m)) for m in models]
    found.sort(key=lambda s: (len(s), sorted(s)))
    return [OpenInterpretation(universe, atoms) for atoms in found]


def bounded_sat(
    program: Program,
    pred: str,
    max_size: int,
    budget: int = DEFAULT_BUDGET,
) -> Optional[OpenInterpretation]:
    """Search universes of size |cts(P)|..max_size (at least one element)
    for an open answer set containing an atom of `pred`. Returns the
    first witness under the deterministic order: smallest universe, then
    smallest interpretation, then lexicographic atom order. None means
    "no witness within the bound", never unsatisfiability."""
    if pred not in program.upreds:
        raise ValueError(f"{pred!r} is not a unary predicate of the program")
    min_size = max(1, len(program.constants))
    if max_size < min_size:
        raise ValueError(f"max_size {max_size} below the minimum {min_size}")
    for size in range(min_size, max_size + 1):
        universe = Universe.for_program(program, size)
        idx, models = _model_masks(program, universe, budget)
        pred_mask = idx.mask(a for a in idx.atoms if a[0] == pred)
        hits = [m for m in models if m & pred_mask]
        if hits:
            fewest = min(m.bit_count() for m in hits)
            # atom lists in bit order are sorted, so `min` compares them
            # as `sorted` would the sets
            atoms = min(idx.atoms_of(m) for m in hits if m.bit_count() == fewest)
            return OpenInterpretation(universe, frozenset(atoms))
    return None

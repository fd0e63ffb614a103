"""Ground-truth semantics for forest logic programs.

Grounding, the Gelfond-Lifschitz reduct, least-model computation,
answer-set checking, and a bounded search for open answer sets over
universes that extend the program constants with fresh elements.

This module is the independent verification route: it never touches the
tableau machinery and works on plain string universes. A returned `None`
from `bounded_sat` is *not* an unsatisfiability proof; open domains may
require larger (or infinite) universes.

Enumeration per universe is exhaustive, and results are merged with a deterministic tie-break
(smallest universe, then smallest interpretation, then lexicographic).

A universe is ground once per call, by one substitution loop
(`_ground_ids`) that writes every ground atom as an int id, in order of
first appearance, and every instance as (head id, positive ids,
negative ids, choice). The universe must hold every constant of the
program. `ground` writes the atoms back out; `is_answer_set` computes
the reduct, its least model and the constraint check on sets of ids;
the scan below evaluates the rules on ids and puts the atoms' columns
into sorted order once at the end.

Within one universe the reduct depends on a candidate only through its
relevant atoms (those under naf in some body, and free-rule heads), so there are 2^n_rel candidates for
n_rel relevant atoms; `OracleBudgetError` is raised when that exceeds
the budget. All candidates are evaluated at once, bit-sliced: each
ground atom has a column, a Python int whose bit c says whether the
atom is in the least model M_c of candidate c's reduct. Candidate c
puts the i-th relevant atom into S exactly when bit i of c is set, so
that atom's S column is a fixed pattern (2^i zeros, then 2^i ones,
repeated). A ground rule fires under a condition column (a choice
rule: its head's S column; any other rule: the AND of ~S over its
negative atoms), and the least models are one fixpoint over all
columns: `col[head] |= cond & col[p1] & ...` until no column changes.
The answer sets are the candidates whose columns agree with S on every
relevant atom and that violate no constraint.

An answer set is a bit mask over the sorted ground atoms: an atom's bit
position is its place in sorted order, not its id, so a mask's atoms in
bit order are its atoms in sorted order. `answer_sets` sorts
every answer set by (cardinality, sorted atoms); `bounded_sat` computes
the first of them that holds a `pred` atom on the columns alone: it
keeps the candidates whose model holds a `pred` atom, then those with
the fewest atoms (a bit-sliced counter over the columns), then the one
whose sorted atom list is least, and builds only that interpretation.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Optional

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


def _ground_ids(
    program: Program, universe: Universe
) -> tuple[defaultdict[OAtom, int], list[tuple]]:
    """The grounding with every atom written as an id: (ids, instances),
    where `ids` maps each ground atom to its id, in order of first
    appearance (a lookup of an atom it lacks gives that atom the next
    id), and `instances` lists the distinct instances as (head id
    or None, positive ids, negative ids, choice), in rule order and then
    substitution order. All substitutions of variables by universe
    elements are made; inequalities between distinct elements are
    dropped as satisfied, and an instance with an inequality between
    equal elements is dropped entirely. The rule templates are compiled
    on the first call for a program and kept on it
    (`Program.ground_templates`): its rules never change. Raises
    `ValueError` when the universe lacks a constant of the program."""
    elements = universe.elements
    for constant in program.constants:
        if constant not in elements:
            raise ValueError(f"constant {constant!r} of the program is not in the universe")
    templates = program.ground_templates
    if templates is None:
        templates = program.ground_templates = tuple(
            (*_template(rule), rule.kind is RuleKind.FREE) for rule in program.rules
        )
    ids: defaultdict[OAtom, int] = defaultdict(itertools.count().__next__)
    instances: dict[tuple, None] = {}  # an ordered set
    for n_vars, constants, pick, head, pos, neg, unequal, choice in templates:
        for values in itertools.product(elements, repeat=n_vars):
            values += constants
            if unequal and any(values[i] == values[j] for i, j in unequal):
                continue
            args = pick(values)
            key = (
                None if head is None else ids[head[0], args[head[1] : head[2]]],
                tuple([ids[p, args[start:end]] for p, start, end in pos]),
                tuple([ids[p, args[start:end]] for p, start, end in neg]),
                choice,
            )
            instances[key] = None
    return ids, list(instances)


def ground(program: Program, universe: Universe) -> GroundProgram:
    """All distinct ground instances of the program's rules over the
    universe (see `_ground_ids`), with their atoms written out."""
    ids, instances = _ground_ids(program, universe)
    atoms = list(ids)
    return GroundProgram(tuple(
        GroundRule(
            None if head is None else atoms[head],
            tuple([atoms[i] for i in pos]),
            tuple([atoms[i] for i in neg]),
            choice,
        )
        for head, pos, neg, choice in instances
    ))


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
    original (constraint-bearing) program can be verified directly. The
    check runs on the grounding's atom ids: an atom that no instance
    mentions is never derived, so an interpretation holding one is not
    an answer set."""
    for _, args in interp.atoms:
        for element in args:
            if element not in interp.universe:
                raise ValueError(f"atom argument {element!r} outside the universe")
    ids, instances = _ground_ids(program, interp.universe)
    atoms: set[int] = set()
    for atom in interp.atoms:
        if atom not in ids:
            return False
        atoms.add(ids[atom])
    # the reduct: an instance whose negative body meets the atoms goes,
    # a free instance stays as a fact exactly when its head is in them
    reduct = [
        (head, () if choice else pos)
        for head, pos, neg, choice in instances
        if head is not None and atoms.isdisjoint(neg) and (not choice or head in atoms)
    ]
    model: set[int] = set()
    while True:
        fired = {head for head, pos in reduct if model.issuperset(pos)} - model
        if not fired:
            break
        model |= fired
    if model != atoms or any(
        head is None and atoms.issuperset(pos) and atoms.isdisjoint(neg)
        for head, pos, neg, _ in instances
    ):
        return False
    # the fixpoint plus the constraint check imply the model check; assert
    # it independently rather than trusting the implication
    assert all(
        choice or head in atoms or not (atoms.issuperset(pos) and atoms.isdisjoint(neg))
        for head, pos, neg, choice in instances
    )
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
    """The grounding over one universe on atom ids (`instances`, see
    `_ground_ids`), every unary atom over the universe given an id too.
    `atoms` lists the atoms in sorted order, which is their bit order,
    and `order` their ids in that order; `relevant` holds the ids of the
    relevant atoms in sorted order."""

    def __init__(self, program: Program, universe: Universe):
        ids, self.instances = _ground_ids(program, universe)
        for pred in program.upreds:
            for e in universe.elements:
                ids[pred, (e,)]
        by_id = list(ids)
        self.order: list[int] = sorted(range(len(by_id)), key=by_id.__getitem__)
        self.atoms: list[OAtom] = [by_id[i] for i in self.order]
        relevant: set[int] = set()
        for head, _, neg, choice in self.instances:
            relevant.update(neg)
            if choice:
                relevant.add(head)
        self.relevant: list[int] = sorted(relevant, key=by_id.__getitem__)

    def atoms_of(self, mask: int) -> list[OAtom]:
        """The atoms of a mask in bit order, which is sorted order."""
        return [a for i, a in enumerate(self.atoms) if mask >> i & 1]


def _ones(x: int) -> list[int]:
    """The positions of the set bits of x, ascending."""
    digits = bin(x)[:1:-1]  # least significant first
    out = []
    i = digits.find("1")
    while i >= 0:
        out.append(i)
        i = digits.find("1", i + 1)
    return out


def _columns(
    program: Program, universe: Universe, budget: int
) -> tuple[_GroundIndex, list[int], int]:
    """The grounding's index, the column of each of its atoms in sorted
    order (bit c: the atom is in the least model M_c of candidate c's
    reduct), and the column of the candidates whose M_c is an answer
    set."""
    idx = _GroundIndex(program, universe)
    n_rel = len(idx.relevant)
    if 2**n_rel > budget:
        raise OracleBudgetError(
            f"{2 ** n_rel} reduct candidates exceed the budget of {budget}"
        )
    full = (1 << 2**n_rel) - 1
    s_col: dict[int, int] = {}  # atom id -> its S column
    for i, atom in enumerate(idx.relevant):
        h = 2**i
        s_col[atom] = (((1 << h) - 1) << h) * (full // ((1 << 2 * h) - 1))

    col = [0] * len(idx.atoms)  # by atom id
    rules = []  # (head, cond, positive body), all atom ids but cond
    constraints = []  # (positive body, S columns of the negative body)
    for head, pos, neg, choice in idx.instances:
        if head is None:
            constraints.append((pos, [s_col[a] for a in neg]))
            continue
        if head in pos:
            continue  # never fires before its head holds
        if choice:
            cond = s_col[head]
        else:
            cond = full
            for a in neg:
                cond &= ~s_col[a]
        if pos:
            rules.append((head, cond, pos))
        else:
            col[head] |= cond

    changed = True
    while changed:
        changed = False
        for head, cond, pos in rules:
            fire = cond
            for p in pos:
                fire &= col[p]
            old = col[head]
            if fire | old != old:
                col[head] = fire | old
                changed = True

    valid = full
    for atom, s in s_col.items():
        valid &= ~(col[atom] ^ s)
    for pos, neg in constraints:
        body = valid
        for p in pos:
            body &= col[p]
        for s in neg:
            body &= ~s
        valid &= ~body
    return idx, [col[i] for i in idx.order], valid


def _model_masks(
    program: Program, universe: Universe, budget: int
) -> tuple[_GroundIndex, list[int]]:
    """The grounding's index and the answer sets over the universe as
    masks of its atom bits, in ascending candidate order."""
    idx, col, valid = _columns(program, universe, budget)
    masks = dict.fromkeys(_ones(valid), 0)
    for i, column in enumerate(col):
        bit = 1 << i
        for c in _ones(column & valid):
            masks[c] |= bit
    return idx, list(masks.values())


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
        idx, col, valid = _columns(program, universe, budget)
        least = 0  # the candidates left: first those with a `pred` atom
        for atom, column in zip(idx.atoms, col):
            if atom[0] == pred:
                least |= column
        least &= valid
        if not least:
            continue
        # a bit-sliced counter: bit c of count[j] is bit j of the number
        # of atoms in M_c
        count: list[int] = []
        for column in col:
            carry = column & least
            for j, digit in enumerate(count):
                if not carry:
                    break
                count[j], carry = digit ^ carry, digit & carry
            if carry:
                count.append(carry)
        for digit in reversed(count):  # keep the fewest atoms
            if least & ~digit:
                least &= ~digit
        # of equally many atoms, the least sorted list holds the least
        # atom of the symmetric difference: keep the holders of each
        # atom in turn
        for column in col:
            if least & column:
                least &= column
        c = least.bit_length() - 1
        atoms = [a for a, column in zip(idx.atoms, col) if column >> c & 1]
        return OpenInterpretation(universe, frozenset(atoms))
    return None

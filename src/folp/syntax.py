"""Syntax for forest logic programs: parsing, validation, printing.

Surface format (UTF-8, one rule per line, '%' starts a comment):

    fact        rmember(a).
    free rule   support(X,Y) v not support(X,Y).
    rule        smember(X) :- support(X,Y), rmember(Y), support(X,Z), rmember(Z), Y != Z.
    constraint  :- smember(X), rmember(X).

Constants are lowercase-initial identifiers, variables uppercase-initial.
Every predicate is unary or binary, consistently across the program.

All structures here are immutable; parsing, validation and the
constraint-elimination transform are pure functions and safe to call
concurrently.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Iterable, Optional, Union


class FolpError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(FolpError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class ProgramParseError(FolpError):
    """One or more parse errors; `errors` holds the individual ParseErrors."""

    def __init__(self, errors: list[ParseError]):
        super().__init__("; ".join(str(e) for e in errors))
        self.errors = tuple(errors)


class ShapeError(FolpError):
    """A rule does not have the tree shape required of forest logic programs."""


@dataclass(frozen=True, order=True)
class Term:
    name: str

    @property
    def is_variable(self) -> bool:
        return self.name[0].isupper()

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, order=True)
class Atom:
    pred: str
    args: tuple[Term, ...]

    @property
    def arity(self) -> int:
        return len(self.args)

    def __str__(self) -> str:
        return f"{self.pred}({','.join(t.name for t in self.args)})"


@dataclass(frozen=True, order=True)
class Literal:
    """A regular literal: an atom or its negation-as-failure."""

    positive: bool
    atom: Atom

    def __str__(self) -> str:
        return str(self.atom) if self.positive else f"not {self.atom}"


@dataclass(frozen=True, order=True)
class Inequality:
    left: Term
    right: Term

    def __str__(self) -> str:
        return f"{self.left} != {self.right}"


BodyItem = Union[Literal, Inequality]


class RuleKind(str, Enum):
    FREE = "free"
    UNARY = "unary"
    BINARY = "binary"
    CONSTRAINT = "constraint"


@dataclass(frozen=True)
class Rule:
    """A rule of the program. Rules key the shape caches, so the hash of
    the whole rule tree is computed once, at construction (the value of
    the generated `hash((kind, head, body))`)."""

    kind: RuleKind
    head: Optional[Atom]
    body: tuple[BodyItem, ...]
    line: int = field(default=0, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.kind, self.head, self.body)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def is_fact(self) -> bool:
        return self.kind in (RuleKind.UNARY, RuleKind.BINARY) and not self.body

    def __str__(self) -> str:
        return format_rule(self)


@dataclass(frozen=True)
class SuccessorSpec:
    """One successor term of a unary-shaped body with its connecting
    binary literals (gamma) and the unary literals imposed on it (delta)."""

    term: Term
    gamma: tuple[Literal, ...]
    delta: tuple[Literal, ...]


@dataclass(frozen=True)
class UnaryShape:
    head_pred: Optional[str]  # None for constraints
    head_term: Term
    beta: tuple[Literal, ...]
    successors: tuple[SuccessorSpec, ...]
    inequalities: tuple[Inequality, ...]


@dataclass(frozen=True)
class BinaryShape:
    head_pred: str
    s: Term
    t: Term
    beta: tuple[Literal, ...]
    gamma: tuple[Literal, ...]
    delta: tuple[Literal, ...]


@dataclass(frozen=True)
class Violation:
    line: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"line {self.line}: {self.message} (in: {self.rule})"


class Program:
    """An ordered rule set with predicate/constant inventories.

    Rule order is preserved from the source text; the engines rely on it
    for deterministic choice ordering.
    """

    def __init__(self, rules: Iterable[Rule]):
        self.rules: tuple[Rule, ...] = tuple(rules)
        upreds: list[str] = []
        bpreds: list[str] = []
        constants: list[str] = []
        seen_p: set[str] = set()
        seen_c: set[str] = set()
        free: set[str] = set()
        by_head: dict[str, list[Rule]] = {}
        for rule in self.rules:
            for atom in _rule_atoms(rule):
                target = upreds if atom.arity == 1 else bpreds
                if atom.pred not in seen_p:
                    seen_p.add(atom.pred)
                    target.append(atom.pred)
                for term in atom.args:
                    if not term.is_variable and term.name not in seen_c:
                        seen_c.add(term.name)
                        constants.append(term.name)
            for item in rule.body:
                if isinstance(item, Inequality):
                    for term in (item.left, item.right):
                        if not term.is_variable and term.name not in seen_c:
                            seen_c.add(term.name)
                            constants.append(term.name)
            if rule.head is not None:
                by_head.setdefault(rule.head.pred, []).append(rule)
            if rule.kind is RuleKind.FREE and all(
                t.is_variable for t in rule.head.args
            ):
                free.add(rule.head.pred)
        self.upreds: tuple[str, ...] = tuple(upreds)
        self.bpreds: tuple[str, ...] = tuple(bpreds)
        self.constants: tuple[str, ...] = tuple(constants)
        self.free_preds: frozenset[str] = frozenset(free)
        self._by_head = {p: tuple(rs) for p, rs in by_head.items()}
        self._fingerprint: Optional[str] = None
        # the rules compiled for `oracle.ground`, made by its first call
        # on this program and kept, like the fingerprint
        self.ground_templates: Optional[tuple] = None

    def rules_for_head(self, pred: str) -> tuple[Rule, ...]:
        return self._by_head.get(pred, ())

    def arity(self, pred: str) -> int:
        if pred in self.upreds:
            return 1
        if pred in self.bpreds:
            return 2
        raise KeyError(pred)

    @property
    def predicates(self) -> tuple[str, ...]:
        return self.upreds + self.bpreds

    def has_constraints(self) -> bool:
        return any(r.kind is RuleKind.CONSTRAINT for r in self.rules)

    def canonical_text(self) -> str:
        return "".join(format_rule(r) + "\n" for r in self.rules)

    def fingerprint(self) -> str:
        """SHA-256 of the canonical text; computed once, since the rules
        never change."""
        if self._fingerprint is None:
            self._fingerprint = hashlib.sha256(
                self.canonical_text().encode("utf-8")
            ).hexdigest()
        return self._fingerprint

    def __eq__(self, other) -> bool:
        return isinstance(other, Program) and self.rules == other.rules

    def __hash__(self) -> int:
        return hash(self.rules)

    def __str__(self) -> str:
        return self.canonical_text()


def _rule_atoms(rule: Rule):
    if rule.head is not None:
        yield rule.head
    for item in rule.body:
        if isinstance(item, Literal):
            yield item.atom


# ----------------------------------------------------------------------
# Parsing


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<ident>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<neq>!=)"
    r"|(?P<arrow>:-)"
    r"|(?P<sym>[(),.])"
)


@dataclass(frozen=True)
class _Token:
    kind: str  # ident | neq | arrow | sym | eol
    text: str
    column: int


def _tokenize(line: str, line_no: int) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(line):
        m = _TOKEN_RE.match(line, pos)
        if m is None:
            raise ParseError(f"unexpected character {line[pos]!r}", line_no, pos + 1)
        pos = m.end()
        if m.lastgroup == "ws":
            continue
        kind = m.lastgroup
        text = m.group()
        tokens.append(_Token("sym" if kind == "sym" else kind, text, m.start() + 1))
    tokens.append(_Token("eol", "", len(line) + 1))
    return tokens


class _LineParser:
    def __init__(self, tokens: list[_Token], line_no: int):
        self.tokens = tokens
        self.pos = 0
        self.line_no = line_no

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eol":
            self.pos += 1
        return tok

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        where = "end of line" if tok.kind == "eol" else repr(tok.text)
        return ParseError(f"{message}, found {where}", self.line_no, tok.column)

    def expect(self, kind: str, text: Optional[str] = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            raise self.error(f"expected {text or kind!r}")
        return self.next()

    def parse_atom(self) -> Atom:
        name = self.expect("ident").text
        self.expect("sym", "(")
        args = [Term(self.expect("ident").text)]
        if self.peek().text == ",":
            self.next()
            args.append(Term(self.expect("ident").text))
        self.expect("sym", ")")
        return Atom(name, tuple(args))

    def parse_body_item(self) -> BodyItem:
        tok = self.peek()
        if tok.kind == "ident" and tok.text == "not":
            self.next()
            return Literal(False, self.parse_atom())
        if tok.kind != "ident":
            raise self.error("expected a literal")
        # lookahead: "ident (" is an atom, "ident !=" an inequality
        nxt = self.tokens[self.pos + 1]
        if nxt.kind == "neq":
            left = Term(self.next().text)
            self.next()
            right = Term(self.expect("ident").text)
            return Inequality(left, right)
        return Literal(True, self.parse_atom())

    def parse_body(self) -> tuple[BodyItem, ...]:
        items = [self.parse_body_item()]
        while self.peek().text == ",":
            self.next()
            items.append(self.parse_body_item())
        return tuple(items)

    def parse_rule(self) -> Rule:
        if self.peek().kind == "arrow":
            self.next()
            body = self.parse_body()
            self.expect("sym", ".")
            self.expect("eol")
            return Rule(RuleKind.CONSTRAINT, None, body, self.line_no)
        head = self.parse_atom()
        tok = self.peek()
        if tok.text == ".":
            self.next()
            self.expect("eol")
            kind = RuleKind.UNARY if head.arity == 1 else RuleKind.BINARY
            return Rule(kind, head, (), self.line_no)
        if tok.kind == "ident" and tok.text == "v":
            self.next()
            self.expect("ident", "not")
            twin = self.parse_atom()
            self.expect("sym", ".")
            self.expect("eol")
            if twin != head:
                raise ParseError(
                    "free rule must repeat its head atom under 'not'",
                    self.line_no,
                    tok.column,
                )
            return Rule(RuleKind.FREE, head, (), self.line_no)
        if tok.kind == "arrow":
            self.next()
            body = self.parse_body()
            self.expect("sym", ".")
            self.expect("eol")
            kind = RuleKind.UNARY if head.arity == 1 else RuleKind.BINARY
            return Rule(kind, head, body, self.line_no)
        raise self.error("expected '.', ':-' or 'v not'")


def parse_program(text: str) -> Program:
    """Parse program text; raises ProgramParseError on any syntax or
    arity error, carrying line/column positions."""
    rules: list[Rule] = []
    errors: list[ParseError] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("%", 1)[0]
        if not line.strip():
            continue
        try:
            tokens = _tokenize(line, line_no)
            rules.append(_LineParser(tokens, line_no).parse_rule())
        except ParseError as err:
            errors.append(err)
    # arity consistency is a program-wide lexical property
    arities: dict[str, tuple[int, int]] = {}  # pred -> (arity, first line)
    for rule in rules:
        for atom in _rule_atoms(rule):
            known = arities.get(atom.pred)
            if known is None:
                arities[atom.pred] = (atom.arity, rule.line)
            elif known[0] != atom.arity:
                errors.append(
                    ParseError(
                        f"predicate {atom.pred!r} used with arity {atom.arity} "
                        f"but has arity {known[0]} (line {known[1]})",
                        rule.line,
                        1,
                    )
                )
    if errors:
        raise ProgramParseError(errors)
    return Program(rules)


# ----------------------------------------------------------------------
# Printing


def format_rule(rule: Rule) -> str:
    body = ", ".join(str(item) for item in rule.body)
    if rule.kind is RuleKind.CONSTRAINT:
        return f":- {body}."
    if rule.kind is RuleKind.FREE:
        return f"{rule.head} v not {rule.head}."
    if not rule.body:
        return f"{rule.head}."
    return f"{rule.head} :- {body}."


def format_program(program: Program) -> str:
    return program.canonical_text()


# ----------------------------------------------------------------------
# Shape decomposition (the tree-shape constraints of the fragment)


def _decompose_unary(rule: Rule, head_term: Term) -> UnaryShape:
    beta: list[Literal] = []
    order: list[Term] = []
    gammas: dict[Term, list[Literal]] = {}
    deltas: dict[Term, list[Literal]] = {}
    ineqs: list[Inequality] = []

    def successor(term: Term) -> None:
        if term not in gammas:
            order.append(term)
            gammas[term] = []
            deltas[term] = []

    for item in rule.body:
        if isinstance(item, Inequality):
            ineqs.append(item)
            continue
        atom = item.atom
        if atom.arity == 1:
            if atom.args[0] == head_term:
                beta.append(item)
            else:
                successor(atom.args[0])
                deltas[atom.args[0]].append(item)
        else:
            s, t = atom.args
            if s != head_term:
                raise ShapeError(
                    f"binary body literal {item} must have the head term "
                    f"{head_term} as its first argument"
                )
            if t == head_term and t.is_variable:
                raise ShapeError(
                    f"successor term in {item} must differ from the head "
                    "variable"
                )
            successor(t)
            gammas[t].append(item)
    for term in order:
        if term.is_variable and not any(l.positive for l in gammas[term]):
            raise ShapeError(
                f"variable successor term {term} has no positive binary "
                "literal connecting it to the head term"
            )
    succ_terms = set(order)
    for ineq in ineqs:
        if ineq.left not in succ_terms or ineq.right not in succ_terms:
            raise ShapeError(
                f"inequality {ineq} may only relate successor terms"
            )
    return UnaryShape(
        head_pred=rule.head.pred if rule.head is not None else None,
        head_term=head_term,
        beta=tuple(beta),
        successors=tuple(
            SuccessorSpec(t, tuple(gammas[t]), tuple(deltas[t])) for t in order
        ),
        inequalities=tuple(ineqs),
    )


def _decompose_binary(rule: Rule) -> BinaryShape:
    s, t = rule.head.args
    if s.is_variable and t.is_variable and s == t:
        raise ShapeError("the two head terms must differ when both are variables")
    beta: list[Literal] = []
    gamma: list[Literal] = []
    delta: list[Literal] = []
    for item in rule.body:
        if isinstance(item, Inequality):
            raise ShapeError("binary rule bodies admit no inequalities")
        atom = item.atom
        if atom.arity == 1:
            if atom.args[0] == s:
                beta.append(item)
            elif atom.args[0] == t:
                delta.append(item)
            else:
                raise ShapeError(
                    f"unary body literal {item} mentions a term other than "
                    "the head terms"
                )
        else:
            if atom.args != (s, t):
                raise ShapeError(
                    f"binary body literal {item} must be over the head "
                    f"term pair ({s},{t})"
                )
            gamma.append(item)
    if t.is_variable and not any(l.positive for l in gamma):
        raise ShapeError(
            "variable second head term requires a positive binary body literal"
        )
    return BinaryShape(rule.head.pred, s, t, tuple(beta), tuple(gamma), tuple(delta))


def _constraint_head_term(rule: Rule) -> Term:
    binary_firsts = [
        item.atom.args[0]
        for item in rule.body
        if isinstance(item, Literal) and item.atom.arity == 2
    ]
    if binary_firsts:
        if len(set(binary_firsts)) > 1:
            raise ShapeError(
                "constraint body has binary literals starting at different terms"
            )
        return binary_firsts[0]
    candidates: list[Term] = []
    for item in rule.body:
        if isinstance(item, Literal) and item.atom.args[0] not in candidates:
            candidates.append(item.atom.args[0])
    for cand in candidates:
        try:
            _decompose_unary(rule, cand)
            return cand
        except ShapeError:
            continue
    raise ShapeError("constraint body cannot be shaped as a unary rule body")


@lru_cache(maxsize=4096)
def unary_shape(rule: Rule) -> UnaryShape:
    """Decompose a unary rule or constraint into beta / per-successor
    (gamma, delta) / inequality parts. Raises ShapeError otherwise."""
    if rule.kind is RuleKind.CONSTRAINT:
        return _decompose_unary(rule, _constraint_head_term(rule))
    if rule.kind is not RuleKind.UNARY:
        raise ShapeError(f"not a unary rule: {rule}")
    return _decompose_unary(rule, rule.head.args[0])


@lru_cache(maxsize=4096)
def binary_shape(rule: Rule) -> BinaryShape:
    if rule.kind is not RuleKind.BINARY:
        raise ShapeError(f"not a binary rule: {rule}")
    return _decompose_binary(rule)


# ----------------------------------------------------------------------
# Validation


def validate_folp(program: Program) -> list[Violation]:
    """Check every rule against the tree-shape constraints. Returns one
    violation record per failed condition; an empty list means valid."""
    violations: list[Violation] = []

    def record(rule: Rule, message: str) -> None:
        violations.append(Violation(rule.line, format_rule(rule), message))

    for rule in program.rules:
        try:
            if rule.kind is RuleKind.FREE:
                args = rule.head.args
                if (
                    len(args) == 2
                    and args[0].is_variable
                    and args[1].is_variable
                    and args[0] == args[1]
                ):
                    record(rule, "free binary rule terms must differ when both are variables")
            elif rule.kind is RuleKind.UNARY:
                unary_shape(rule)
            elif rule.kind is RuleKind.BINARY:
                binary_shape(rule)
            else:
                unary_shape(rule)
        except ShapeError as err:
            record(rule, str(err))
    # The tableau rules justify free predicates by their choice rule alone,
    # so a free predicate must not be defined by any non-free rule.
    for pred in sorted(program.free_preds):
        for rule in program.rules_for_head(pred):
            if rule.kind is not RuleKind.FREE:
                record(rule, f"free predicate {pred!r} must not head a non-free rule")
    return violations


# ----------------------------------------------------------------------
# Constraint elimination


def fresh_constraint_preds(program: Program, count: int) -> list[str]:
    """Names for the predicates replacing constraints: co, co2, co3, ...;
    a collision with an existing predicate bumps the name with '_'."""
    taken = set(program.predicates)
    names: list[str] = []
    for i in range(1, count + 1):
        name = "co" if i == 1 else f"co{i}"
        while name in taken:
            name += "_"
        taken.add(name)
        names.append(name)
    return names


def eliminate_constraints(program: Program) -> Program:
    """Replace each constraint body B over head term s with the unary rule
    co_i(s) :- not co_i(s), B. The result is constraint-free and valid
    whenever the input was valid; rule order is preserved."""
    n = sum(1 for r in program.rules if r.kind is RuleKind.CONSTRAINT)
    if n == 0:
        return program
    names = iter(fresh_constraint_preds(program, n))
    rules: list[Rule] = []
    for rule in program.rules:
        if rule.kind is not RuleKind.CONSTRAINT:
            rules.append(rule)
            continue
        shape = unary_shape(rule)
        pred = next(names)
        head = Atom(pred, (shape.head_term,))
        body = (Literal(False, head),) + rule.body
        rules.append(Rule(RuleKind.UNARY, head, body, rule.line))
    return Program(rules)

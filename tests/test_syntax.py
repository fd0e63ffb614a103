import random

import pytest

from folp.oracle import Universe, answer_sets
from folp.syntax import (
    Atom,
    ProgramParseError,
    Rule,
    RuleKind,
    Term,
    eliminate_constraints,
    format_rule,
    parse_program,
    validate_folp,
)

from corpus import random_program_text


def test_parse_fact_with_constant():
    program = parse_program("rmember(a).\n")
    rule = program.rules[0]
    assert rule.kind is RuleKind.UNARY
    assert rule.is_fact
    assert rule.head == Atom("rmember", (Term("a"),))
    assert program.constants == ("a",)


def test_rule_hash_is_the_field_tuple_hash():
    program = parse_program("p(X) :- f(X,Y), not q(Y).\nf(X,Y) v not f(X,Y).\n")
    for rule in program.rules:
        assert hash(rule) == hash((rule.kind, rule.head, rule.body))
        moved = Rule(rule.kind, rule.head, rule.body, rule.line + 7)
        assert moved == rule and hash(moved) == hash(rule)
        assert "_hash" not in repr(rule)


def test_parse_free_binary_rule():
    program = parse_program("support(X,Y) v not support(X,Y).\n")
    rule = program.rules[0]
    assert rule.kind is RuleKind.FREE
    assert program.free_preds == {"support"}
    assert program.bpreds == ("support",)


def test_parse_error_carries_position():
    with pytest.raises(ProgramParseError) as err:
        parse_program("p(X) :- q(X\n")
    (error,) = err.value.errors
    assert error.line == 1
    assert "end of line" in error.message


def test_parse_error_arity_conflict():
    with pytest.raises(ProgramParseError) as err:
        parse_program("p(a).\np(a,b).\n")
    assert any("arity" in e.message for e in err.value.errors)


def test_free_rule_twin_must_match():
    with pytest.raises(ProgramParseError):
        parse_program("p(X) v not q(X).\n")


def test_comments_and_blank_lines_ignored(membership):
    assert len(membership.rules) == 6


def test_roundtrip_fixpoint_on_samples(membership, membership_loop, choice_chain):
    for program in (membership, membership_loop, choice_chain):
        printed = program.canonical_text()
        again = parse_program(printed)
        assert again == program
        assert again.canonical_text() == printed


def test_roundtrip_fixpoint_on_random_programs():
    rng = random.Random(7)
    for _ in range(40):
        text = random_program_text(rng)
        try:
            program = parse_program(text)
        except ProgramParseError:
            continue
        assert parse_program(program.canonical_text()) == program


def test_validate_membership_ok(membership):
    assert validate_folp(membership) == []


def test_validate_rejects_unconnected_variable_successor():
    program = parse_program("p(X) :- not f(X,Y).\n")
    violations = validate_folp(program)
    assert len(violations) == 1
    assert "positive binary" in violations[0].message


def test_validate_rejects_free_rule_on_equal_variables():
    program = parse_program("f(X,X) v not f(X,X).\n")
    violations = validate_folp(program)
    assert any("differ" in v.message for v in violations)


def test_validate_rejects_inequality_in_binary_rule():
    program = parse_program("f(X,Y) :- f(X,Y), X != Y.\n")
    assert any("inequalit" in v.message for v in validate_folp(program))


def test_validate_rejects_binary_rule_without_connector():
    program = parse_program("f(X,Y) :- q(Y).\n")
    assert any("positive binary" in v.message for v in validate_folp(program))


def test_validate_rejects_foreign_terms_in_binary_body():
    program = parse_program("f(X,Y) :- f(X,Y), q(Z).\n")
    assert any("other than" in v.message for v in validate_folp(program))


def test_validate_rejects_inequality_on_head_term():
    program = parse_program("p(X) :- f(X,Y), X != Y.\n")
    assert any("successor terms" in v.message for v in validate_folp(program))


def test_validate_rejects_non_free_rule_for_free_predicate():
    program = parse_program("f(X,Y) v not f(X,Y).\nf(X,Y) :- g(X,Y).\n")
    assert any("free predicate" in v.message for v in validate_folp(program))


def test_validate_rejects_binary_body_atom_not_rooted_at_head_term():
    program = parse_program("p(X) :- f(Y,X).\n")
    assert any("first argument" in v.message for v in validate_folp(program))


def test_constraint_elimination_of_membership(membership):
    transformed = eliminate_constraints(membership)
    assert validate_folp(transformed) == []
    rules = [format_rule(r) for r in transformed.rules]
    assert "co(X) :- not co(X), smember(X), rmember(X)." in rules
    # rule order preserved, one-for-one replacement
    assert len(transformed.rules) == len(membership.rules)
    assert not transformed.has_constraints()


def test_constraint_elimination_identity_without_constraints(choice_chain):
    assert eliminate_constraints(choice_chain) is choice_chain


def test_constraint_elimination_two_fresh_predicates():
    program = parse_program(
        "p(X) v not p(X).\nq(X) v not q(X).\n:- p(X), q(X).\n:- p(a).\n"
    )
    transformed = eliminate_constraints(program)
    fresh = [r.head.pred for r in transformed.rules if r.head and r.head.pred.startswith("co")]
    assert len(fresh) == 2
    assert len(set(fresh)) == 2
    assert not set(fresh) & set(program.predicates)
    assert validate_folp(transformed) == []


def test_constraint_elimination_avoids_name_collisions():
    program = parse_program("co(X) v not co(X).\n:- co(X).\n")
    transformed = eliminate_constraints(program)
    fresh = [r.head.pred for r in transformed.rules if r.kind is RuleKind.UNARY]
    assert fresh and fresh[0] != "co"


def test_constraint_elimination_handles_binary_atom_constraints():
    program = parse_program("f(X,Y) v not f(X,Y).\n:- f(X,Y).\n")
    transformed = eliminate_constraints(program)
    assert validate_folp(transformed) == []
    new_rule = transformed.rules[-1]
    assert new_rule.kind is RuleKind.UNARY
    assert new_rule.head.args[0] == Term("X")


def _projected_answer_sets(program, size, drop=()):
    out = set()
    for interp in answer_sets(program, Universe.for_program(program, size)):
        out.add(frozenset(a for a in interp.atoms if a[0] not in drop))
    return out


def test_constraint_semantics_preserved_by_elimination(membership):
    """The transformed program admits exactly the answer sets of the
    original, with no fresh-predicate atoms, on every small universe."""
    transformed = eliminate_constraints(membership)
    fresh = set(transformed.predicates) - set(membership.predicates)
    for size in (2, 3):
        original_sets = _projected_answer_sets(membership, size)
        transformed_sets = set()
        for interp in answer_sets(
            transformed, Universe.for_program(transformed, size)
        ):
            assert not any(a[0] in fresh for a in interp.atoms)
            transformed_sets.add(interp.atoms)
        assert transformed_sets == original_sets


def test_constraint_semantics_preserved_on_random_programs():
    rng = random.Random(99)
    checked = 0
    while checked < 6:
        text = random_program_text(rng)
        try:
            program = parse_program(text)
        except ProgramParseError:
            continue
        if validate_folp(program) or not program.has_constraints():
            continue
        from folp.oracle import OracleBudgetError

        transformed = eliminate_constraints(program)
        fresh = set(transformed.predicates) - set(program.predicates)
        size = max(1, len(program.constants))
        try:
            original_sets = _projected_answer_sets(program, size)
            transformed_sets = _projected_answer_sets(transformed, size, drop=fresh)
        except OracleBudgetError:
            continue
        assert original_sets == transformed_sets
        checked += 1

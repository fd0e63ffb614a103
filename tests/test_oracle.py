import itertools
import random

import pytest

from folp import oracle
from folp.oracle import (
    GroundProgram,
    GroundRule,
    OpenInterpretation,
    OracleBudgetError,
    Universe,
    answer_sets,
    bounded_sat,
    gl_reduct,
    ground,
    is_answer_set,
    least_model,
    satisfies_rule,
)
from folp.syntax import Inequality, parse_program

from conftest import PROGRAMS
from reference import reference_bounded_sat, reference_ground, reference_model_masks

FIG_MODEL = frozenset(
    {
        ("rmember", ("a",)),
        ("rmember", ("b",)),
        ("smember", ("u1",)),
        ("support", ("u1", "a")),
        ("support", ("u1", "b")),
    }
)


def u(*elements):
    return Universe(tuple(elements))


def test_grounding_counts_all_substitutions():
    program = parse_program("smember(X) :- support(X,Y), smember(Y).\n")
    gp = ground(program, u("x", "a"))
    assert len(gp.rules) == 4  # two variables over two elements


def test_grounding_contains_expected_instance(membership):
    gp = ground(membership, u("a", "b", "u1"))
    expected = GroundRule(
        head=("smember", ("u1",)),
        pos=(
            ("support", ("u1", "a")),
            ("rmember", ("a",)),
            ("support", ("u1", "b")),
            ("rmember", ("b",)),
        ),
        neg=(),
    )
    assert expected in gp.rules


def test_grounding_drops_instances_with_false_inequality():
    program = parse_program("p(X) :- f(X,Y), f(X,Z), Y != Z.\n")
    gp = ground(program, u("a"))
    assert gp.rules == ()  # the only grounding sets Y = Z


def test_grounding_drops_satisfied_inequalities(membership):
    gp = ground(membership, u("a", "b"))
    for rule in gp.rules:
        assert all(len(atom) == 2 for atom in rule.pos)


def test_reduct_of_free_rule_follows_interpretation():
    program = parse_program("a(x) v not a(x).\n")
    gp = ground(program, u("x"))
    kept = gl_reduct(gp, {("a", ("x",))})
    assert [r.head for r in kept.rules] == [("a", ("x",))]
    assert gl_reduct(gp, set()).rules == ()


def test_reduct_of_self_refuting_rule():
    program = parse_program("p(X) :- not p(X).\n")
    gp = ground(program, u("x"))
    assert gl_reduct(gp, {("p", ("x",))}).rules == ()
    reduct = gl_reduct(gp, set())
    assert [r.head for r in reduct.rules] == [("p", ("x",))]
    # consequently neither interpretation is an answer set
    assert not is_answer_set(program, OpenInterpretation(u("x"), frozenset()))
    assert not is_answer_set(
        program, OpenInterpretation(u("x"), frozenset({("p", ("x",))}))
    )


def test_reduct_is_positive(membership):
    gp = ground(membership, u("a", "b", "u1"))
    reduct = gl_reduct(gp, FIG_MODEL)
    assert all(not r.neg for r in reduct.rules)
    assert all(r.head is None or not r.choice for r in reduct.rules)


def test_least_model_simple_chain():
    a, b = ("a", ()), ("b", ())
    gp = GroundProgram((GroundRule(a, (), ()), GroundRule(b, (a,), ())))
    assert least_model(gp) == {a, b}
    assert least_model(GroundProgram(())) == frozenset()


def test_least_model_rejects_non_positive_input():
    gp = GroundProgram((GroundRule(("a", ()), (), (("b", ()),)),))
    with pytest.raises(ValueError):
        least_model(gp)


def test_least_model_monotone_and_idempotent():
    rng = random.Random(3)
    atoms = [(f"a{i}", ()) for i in range(6)]
    for _ in range(25):
        rules = tuple(
            GroundRule(
                rng.choice(atoms),
                tuple(rng.sample(atoms, rng.randint(0, 2))),
                (),
            )
            for _ in range(rng.randint(0, 8))
        )
        some_fact = GroundRule(rng.choice(atoms), (), ())
        small = least_model(GroundProgram(rules))
        large = least_model(GroundProgram(rules + (some_fact,)))
        assert small <= large
        again = least_model(
            GroundProgram(rules + tuple(GroundRule(a, (), ()) for a in small))
        )
        assert again == small


def test_reduct_of_membership_grounding_reproduces_model(membership):
    gp = ground(membership, u("a", "b", "u1"))
    plain = GroundProgram(tuple(r for r in gp.rules if r.head is not None))
    assert least_model(gl_reduct(plain, FIG_MODEL)) == FIG_MODEL


def test_is_answer_set_accepts_the_support_model(membership):
    interp = OpenInterpretation(u("a", "b", "u1"), FIG_MODEL)
    assert is_answer_set(membership, interp)


def test_is_answer_set_rejects_missing_support(membership):
    atoms = frozenset(FIG_MODEL - {("support", ("u1", "b"))})
    assert not is_answer_set(membership, OpenInterpretation(u("a", "b", "u1"), atoms))


def test_is_answer_set_rejects_unsupported_extra_atom(membership):
    atoms = frozenset(FIG_MODEL | {("smember", ("a",))})
    assert not is_answer_set(membership, OpenInterpretation(u("a", "b", "u1"), atoms))


def test_is_answer_set_refuses_atoms_outside_the_universe(membership):
    interp = OpenInterpretation(u("a", "b"), frozenset({("rmember", ("c",))}))
    with pytest.raises(ValueError):
        is_answer_set(membership, interp)


def test_a_universe_without_a_program_constant_is_refused():
    """Grounding needs every constant of the program in the universe:
    `ground`, `answer_sets` and `is_answer_set` name the missing one
    instead of answering with atoms outside the universe."""
    program = parse_program("p(a).\nq(X) :- p(X).\n")
    universe = u("x")
    calls = [
        lambda: ground(program, universe),
        lambda: answer_sets(program, universe),
        lambda: is_answer_set(program, OpenInterpretation(universe, frozenset())),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="constant 'a'"):
            call()


def test_answer_set_implies_every_ground_rule_satisfied(membership):
    interp = OpenInterpretation(u("a", "b", "u1"), FIG_MODEL)
    assert is_answer_set(membership, interp)
    gp = ground(membership, interp.universe)
    assert all(satisfies_rule(interp.atoms, r) for r in gp.rules)


def test_bounded_sat_finds_the_support_model(membership):
    witness = bounded_sat(membership, "smember", 3)
    assert witness is not None
    assert witness.universe.elements == ("a", "b", "u1")
    assert witness.atoms == FIG_MODEL
    assert is_answer_set(membership, witness)


def test_bounded_sat_witness_format_is_stable(membership):
    witness = bounded_sat(membership, "smember", 3)
    assert witness.format_witness() == (
        "element a\n"
        "element b\n"
        "element u1\n"
        "atom rmember(a)\n"
        "atom rmember(b)\n"
        "atom smember(u1)\n"
        "atom support(u1,a)\n"
        "atom support(u1,b)\n"
    )


def test_bounded_sat_on_a_single_fact():
    program = parse_program("rmember(a).\n")
    witness = bounded_sat(program, "rmember", 1)
    assert witness.universe.elements == ("a",)
    assert witness.atoms == {("rmember", ("a",))}


def test_bounded_sat_reports_none_for_the_loop_program(membership_loop):
    assert bounded_sat(membership_loop, "smember", 3) is None


def test_bounded_sat_none_is_not_a_proof():
    # needs two q-elements distinct from the p-element: three in total
    program = parse_program(
        "p(X) :- not q(X), f(X,Y), q(Y), f(X,Z), q(Z), Y != Z.\n"
        "q(X) v not q(X).\nf(X,Y) v not f(X,Y).\n"
    )
    assert bounded_sat(program, "p", 2) is None
    assert bounded_sat(program, "p", 3) is not None


def test_bounded_sat_budget_error(membership):
    with pytest.raises(OracleBudgetError):
        bounded_sat(membership, "smember", 3, budget=8)


def test_bounded_sat_rejects_unknown_predicate(membership):
    with pytest.raises(ValueError):
        bounded_sat(membership, "nope", 3)


def test_answer_sets_ordered_by_cardinality(membership):
    sets = answer_sets(membership, Universe.for_program(membership, 3))
    sizes = [len(s.atoms) for s in sets]
    assert sizes == sorted(sizes)
    assert all(is_answer_set(membership, s) for s in sets)


def _brute_force_answer_sets(program, universe):
    """Independent route: enumerate every subset of the ground atom base
    and apply the reduct fixpoint definition directly."""
    gp = ground(program, universe)
    base = sorted(gp.atoms())
    found = []
    for bits in itertools.product((False, True), repeat=len(base)):
        candidate = frozenset(a for a, keep in zip(base, bits) if keep)
        plain = GroundProgram(tuple(r for r in gp.rules if r.head is not None))
        if least_model(gl_reduct(plain, candidate)) != candidate:
            continue
        if not all(
            satisfies_rule(candidate, r) for r in gp.rules if r.head is None
        ):
            continue
        found.append(candidate)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def test_answer_sets_agree_with_subset_enumeration():
    programs = [
        "p(X) :- not q(X).\nq(X) :- not p(X).\n",
        "p(a).\nq(X) :- f(X,Y), p(Y).\nf(X,Y) v not f(X,Y).\n",
        "p(X) v not p(X).\n:- p(X), q(X).\nq(a).\n",
    ]
    for text in programs:
        program = parse_program(text)
        universe = Universe.for_program(program, max(1, len(program.constants)))
        fast = [s.atoms for s in answer_sets(program, universe)]
        assert fast == _brute_force_answer_sets(program, universe)


def test_universe_naming_avoids_constant_collisions():
    program = parse_program("p(u1).\n")
    universe = Universe.for_program(program, 2)
    assert universe.elements == ("u1", "u2")


# 11 unary predicates: 66 atoms over 6 elements
BEYOND_63_ATOMS = (
    "c(a) v not c(a).\nd(a) v not d(a).\np1(X) :- c(X).\np2(X) :- p1(X), not d(X).\n"
    + "".join(f"p{i + 1}(X) :- p{i}(X).\n" for i in range(2, 9))
)


def test_answer_sets_beyond_63_atoms():
    program = parse_program(BEYOND_63_ATOMS)
    universe = Universe.for_program(program, 6)
    assert len(program.upreds) * len(universe.elements) == 66
    found = answer_sets(program, universe)
    assert all(is_answer_set(program, interp) for interp in found)
    choices = {
        (("c", ("a",)) in interp.atoms, ("d", ("a",)) in interp.atoms)
        for interp in found
    }
    assert len(found) == 4 and len(choices) == 4
    (p9_holds,) = [i for i in found if ("p9", ("a",)) in i.atoms]
    assert ("c", ("a",)) in p9_holds.atoms and ("d", ("a",)) not in p9_holds.atoms


@pytest.mark.parametrize("n", [6, 7])
def test_every_choice_of_free_atoms_is_an_answer_set(n):
    """n free atoms over the n constants: all 2^n candidates are answer
    sets, and the witness of c holds the least c atom."""
    facts = "".join(f"d(e{i}).\n" for i in range(1, n + 1))
    program = parse_program("c(X) v not c(X).\n" + facts)
    universe = Universe.for_program(program, n)  # the n constants only
    found = answer_sets(program, universe)
    assert len(found) == 2**n
    assert all(is_answer_set(program, interp) for interp in found)
    witness = bounded_sat(program, "c", n)
    assert witness.atoms == {("c", ("e1",))} | {("d", (e,)) for e in universe}


def test_sixteen_relevant_atoms():
    """65,536 candidates: 8 elements with two free predicates each. A g
    atom needs two c atoms, so the fewest atoms besides the facts are
    four: {c(e1), c(e2), g(e1), g(e2)} and {c(e1), c(e2), g(e1), v(e2)}
    among them, and the first is the least atom list (g before v). One
    candidate fewer in the budget raises."""
    facts = "".join(f"d(e{i}).\n" for i in range(1, 9))
    program = parse_program(
        "c(X) v not c(X).\nv(X) v not v(X).\n"
        "g(X) :- c(X), c(Y), Y != X, not v(X).\n" + facts
    )
    with pytest.raises(OracleBudgetError):
        bounded_sat(program, "g", 8, budget=2**16 - 1)
    witness = bounded_sat(program, "g", 8, budget=2**16)
    assert witness.atoms == (
        {("c", ("e1",)), ("c", ("e2",)), ("g", ("e1",)), ("g", ("e2",))}
        | {("d", (f"e{i}",)) for i in range(1, 9)}
    )
    assert is_answer_set(program, witness)


def _random_grounding_program(rng):
    """A random program (not necessarily a forest logic program) over
    unary p, q, r and binary f, g with terms X, Y, Z, a, b: constants in
    heads and bodies, inequalities against constants, variables that
    occur only in an inequality (their instances repeat), free rules,
    constraints and repeated rules."""
    terms = ("X", "Y", "Z", "a", "b")

    def atom():
        if rng.random() < 0.5:
            return f"{rng.choice('pqr')}({rng.choice(terms)})"
        return f"{rng.choice('fg')}({rng.choice(terms)},{rng.choice(terms)})"

    lines = []
    for _ in range(rng.randint(1, 6)):
        if lines and rng.random() < 0.15:
            lines.append(rng.choice(lines))
            continue
        body = [("not " if rng.random() < 0.3 else "") + atom()
                for _ in range(rng.randint(0, 3))]
        body += [f"{rng.choice('XYZ')} != {rng.choice(terms)}"
                 for _ in range(rng.randint(0, 2))]
        kind = rng.random()
        if kind < 0.15:
            head = atom()
            lines.append(f"{head} v not {head}.")
        elif kind < 0.3 and body:
            lines.append(f":- {', '.join(body)}.")
        else:
            lines.append(f"{atom()} :- {', '.join(body)}." if body else f"{atom()}.")
    return parse_program("\n".join(lines) + "\n")


def _variables_only_in_inequalities(rule):
    atoms = [rule.head] if rule.head is not None else []
    atoms += [item.atom for item in rule.body if not isinstance(item, Inequality)]
    return set(oracle._rule_variables(rule)) - {t for a in atoms for t in a.args}


def test_ground_matches_the_substitution_route():
    """The template grounding returns the plain substitution route's
    rules, in its order, on seeded random programs at every universe
    size from the constant count to the count plus two."""
    rng = random.Random(20261019)
    repeated = constant_inequalities = 0
    for _ in range(300):
        program = _random_grounding_program(rng)
        lowest = max(1, len(program.constants))
        for size in range(lowest, lowest + 3):
            universe = Universe.for_program(program, size)
            assert ground(program, universe) == reference_ground(program, universe), (
                program.rules, size)
        repeated += len(set(program.rules)) < len(program.rules) or any(
            _variables_only_in_inequalities(rule) for rule in program.rules
        )
        constant_inequalities += any(
            not item.right.is_variable
            for rule in program.rules
            for item in rule.body
            if isinstance(item, Inequality)
        )
    assert repeated > 200 and constant_inequalities > 100


def _assert_kernel_matches_the_reference(program, universe) -> list[int]:
    idx, masks = oracle._model_masks(program, universe, oracle.DEFAULT_BUDGET)
    atoms, models = reference_model_masks(program, universe)
    assert (idx.atoms, masks) == (atoms, models), (program.rules, universe)
    return models


def test_model_masks_match_the_reference_scan():
    """The bit-sliced kernel finds the per-candidate scan's atoms and
    answer-set masks, in its order, on seeded random programs at every
    universe size from the constant count to the count plus two. The
    reference scans candidates one by one, so universes with more than
    2^10 candidates are left to the named cases."""
    rng = random.Random(20261020)
    checked = with_models = 0
    for _ in range(300):
        program = _random_grounding_program(rng)
        lowest = max(1, len(program.constants))
        for size in range(lowest, lowest + 3):
            universe = Universe.for_program(program, size)
            if len(oracle._GroundIndex(program, universe).relevant) > 10:
                continue
            models = _assert_kernel_matches_the_reference(program, universe)
            checked += 1
            with_models += bool(models)
    assert checked > 500 and with_models > 200


@pytest.mark.parametrize(
    "text, size",
    [
        pytest.param(BEYOND_63_ATOMS, 6, id="beyond-63-atoms"),
        pytest.param(  # p and q support each other, and only r breaks in
            "p(X) :- q(X).\nq(X) :- p(X).\np(X) :- r(X), not s(X).\n"
            "r(X) v not r(X).\ns(X) v not s(X).\nt(X) :- q(X), not r(X).\n",
            2,
            id="positive-cycle-through-two-heads",
        ),
        pytest.param(
            "p(X) :- p(X), not q(X).\nq(X) v not q(X).\np(a) :- r(a).\n"
            "r(X) v not r(X).\ns(X) :- p(X), not q(X).\n",
            2,
            id="head-in-its-own-body",
        ),
        pytest.param(
            "p(X) v not p(X).\nq(X) v not q(X).\n:- p(X), not q(X).\n"
            ":- q(a), q(b).\nr(X) :- q(X), not p(X).\n:- r(X), X != a.\n",
            3,
            id="constraints",
        ),
    ],
)
def test_model_masks_match_the_reference_on_named_cases(text, size):
    program = parse_program(text)
    assert _assert_kernel_matches_the_reference(program, Universe.for_program(program, size))


# z(a) sorts after w(b): the model of the scan's first candidate set
# {z(a)} is {w(b), z(a)}, and the least witness is {w(a), z(b)}
SCAN_ORDER_IS_NOT_ATOM_ORDER = (
    "z(a) v not z(a).\nz(b) v not z(b).\nw(b) :- z(a).\nw(a) :- z(b).\n"
)


def test_ground_compiles_templates_once_per_program(membership):
    """The templates the first `ground` call compiles serve every later
    universe: each grounding equals that of a freshly parsed copy, whose
    templates are compiled anew, and the plain substitution route."""
    text = membership.canonical_text() + "q(X) v not q(X).\nr(X) :- not q(X), s(a).\n"
    program = parse_program(text)
    assert program.ground_templates is None
    ground(program, u("a", "b"))
    templates = program.ground_templates
    for elements in (("a", "b", "u1"), ("a", "b")):
        universe = u(*elements)
        got = ground(program, universe)
        assert got == ground(parse_program(text), universe)
        assert got == reference_ground(program, universe)
    assert program.ground_templates is templates


def test_bounded_sat_is_the_first_answer_set_with_the_predicate():
    """The witness is the definition's: the first answer set in
    `answer_sets` order holding a `pred` atom, smallest universe first,
    on the shipped programs and on programs whose witnesses tie on
    cardinality."""
    cases = []
    for path in sorted(PROGRAMS.glob("*.folp")):
        program = parse_program(path.read_text())
        cases += [(program, pred, 3) for pred in sorted(program.upreds)]
    for text, pred, size in [
        ("q(X) :- f(X,Y), f(X,Z), Y != Z.\nf(X,Y) v not f(X,Y).\n", "q", 2),
        ("p(X) v not p(X).\nq(a).\nq(b).\n", "p", 2),
        ("p(X) v not p(X).\nq(X) v not q(X).\n", "p", 3),
        (SCAN_ORDER_IS_NOT_ATOM_ORDER, "w", 2),
    ]:
        cases.append((parse_program(text), pred, size))
    witnesses = 0
    for program, pred, size in cases:
        witness = bounded_sat(program, pred, size)
        assert witness == reference_bounded_sat(program, pred, size), pred
        witnesses += witness is not None
    assert witnesses >= len(cases) - 2


def test_bounded_sat_breaks_ties_by_cardinality_then_atoms():
    """Among witnesses of one universe the fewest atoms win, then the
    least sorted atom list: {r(b)} beats the lexicographically smaller
    {a(a), c(a), r(a)}; of the two three-atom witnesses of q the one on
    u1 wins; and {w(a), z(b)} beats {w(b), z(a)}, which the scan finds
    first."""
    program = parse_program(SCAN_ORDER_IS_NOT_ATOM_ORDER)
    universe = Universe.for_program(program, 2)
    scanned = [
        interp.atoms for interp in answer_sets(program, universe)
        if any(atom[0] == "w" for atom in interp.atoms)
    ]
    tied = [{("w", ("a",)), ("z", ("b",))}, {("w", ("b",)), ("z", ("a",))}]
    assert scanned[:2] == tied
    idx, models = oracle._model_masks(program, universe, oracle.DEFAULT_BUDGET)
    assert [set(idx.atoms_of(m)) for m in models if m.bit_count() == 2] == tied[::-1]
    assert bounded_sat(program, "w", 2).atoms == scanned[0]
    program = parse_program(
        "a(a) v not a(a).\nc(a) v not c(a).\nz(b) v not z(b).\n"
        "r(a) :- a(a), c(a).\nr(b) :- not z(b).\n"
    )
    assert bounded_sat(program, "r", 2).atoms == {("r", ("b",))}
    program = parse_program("q(X) :- f(X,Y), f(X,Z), Y != Z.\nf(X,Y) v not f(X,Y).\n")
    tied = [s.atoms for s in answer_sets(program, Universe.for_program(program, 2))
            if ("q", ("u1",)) in s.atoms or ("q", ("u2",)) in s.atoms]
    assert [len(s) for s in tied[:2]] == [3, 3]
    assert bounded_sat(program, "q", 2).format_witness() == (
        "element u1\nelement u2\natom f(u1,u1)\natom f(u1,u2)\natom q(u1)\n"
    )

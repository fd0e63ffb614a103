import pytest

from folp import tableau
from folp.forest import NodeId, Signed, StructureError, Trail
from folp.matcher import check_sat_a2
from folp.oracle import bounded_sat, is_answer_set
from folp.syntax import RuleKind, parse_program
from folp.tableau import (
    EXP,
    UNEXP,
    A1CompletionStructure,
    EngineBudgetError,
    RedundancyPolicy,
    VerdictKind,
    check_sat_a1,
    redundancy_bound,
)
from folp.units import compile_units

from reference import assert_first_pending_agrees, checked_a1, reference_pending_instances

FIG_ATOMS = {
    ("smember", ("x",)),
    ("rmember", ("a",)),
    ("rmember", ("b",)),
    ("support", ("x", "a")),
    ("support", ("x", "b")),
}


def test_redundancy_bound_values():
    assert redundancy_bound(1) == 5
    assert redundancy_bound(3) == 4091


def test_policy_validation():
    with pytest.raises(ValueError):
        RedundancyPolicy(k_override=0)
    with pytest.raises(ValueError):
        RedundancyPolicy(max_depth=0)
    assert RedundancyPolicy(k_override=5).bounded_incomplete


def test_membership_is_satisfiable_with_the_support_model(membership, membership_t):
    verdict = check_sat_a1(membership_t, "smember")
    assert verdict.kind is VerdictKind.SAT
    interp = verdict.witness.induced_interpretation()
    assert set(interp.universe.elements) == {"x", "a", "b"}
    assert interp.atoms == FIG_ATOMS
    assert is_answer_set(membership, interp)


def test_membership_loop_is_unsatisfiable(membership_loop):
    verdict = check_sat_a1(membership_loop, "smember")
    assert verdict.kind is VerdictKind.UNSAT
    assert RedundancyPolicy().effective_k(membership_loop) == 5
    assert any(e["chain_position"] == 6 for e in verdict.stats.redundancy_events)


def test_choice_chain_verdicts(choice_chain):
    sat = check_sat_a1(choice_chain, "p")
    assert sat.kind is VerdictKind.SAT
    with pytest.raises(StructureError):
        sat.witness.induced_interpretation()  # blocked witness
    assert check_sat_a1(choice_chain, "q").kind is VerdictKind.UNSAT


def test_self_refuting_predicate_unsatisfiable():
    program = parse_program("p(X) :- not p(X).\n")
    assert check_sat_a1(program, "p").kind is VerdictKind.UNSAT


def test_engine_rejects_constraints(membership):
    with pytest.raises(ValueError):
        check_sat_a1(membership, "smember")


def test_engine_rejects_unknown_predicate(membership_t):
    with pytest.raises(ValueError):
        check_sat_a1(membership_t, "support")


# -- expansion rules, exercised directly ---------------------------------


def test_expand_unary_positive_on_the_support_rule(membership_t):
    cs = A1CompletionStructure(membership_t, pred="smember")
    x = cs.epsilon
    alternatives = cs.expand_unary_positive(x, "smember")
    two_supporters = membership_t.rules[1]
    wanted = [
        a
        for a in alternatives
        if f"rule line {two_supporters.line}" in a.description
    ]
    assert wanted  # the two-supporter rule applies at the root
    for alternative in wanted:
        mark = cs.trail.mark()
        alternative.apply()
        targets = cs.forest.successors(x)
        if targets == [NodeId("a"), NodeId("b")]:
            assert cs.content((x, NodeId("a"))) == {Signed("support", True)}
            assert cs.content(NodeId("a")) == {Signed("rmember", True)}
            assert cs.status(NodeId("a"), Signed("rmember", True)) == UNEXP
            # support is free, hence trivially expanded on insertion
            assert cs.status((x, NodeId("a")), Signed("support", True)) == EXP
            assert cs.g.arc_count() == 4
            assert cs.status(x, Signed("smember", True)) == EXP
            break
        cs.trail.undo_to(mark)
    else:
        pytest.fail("no grounding targeted the two constants")


def test_expand_unary_positive_fact_sets_status_only(membership_t):
    cs = A1CompletionStructure(membership_t, pred="smember")
    a = NodeId("a")
    cs.insert_tracked(a, Signed("rmember", True))
    (alternative,) = cs.expand_unary_positive(a, "rmember")
    alternative.apply()
    assert cs.status(a, Signed("rmember", True)) == EXP
    assert cs.content(a) == {Signed("rmember", True)}
    assert cs.g.arc_count() == 0


def test_expand_unary_positive_with_no_defining_rule_fails():
    program = parse_program("p(X) :- q(X).\n")
    cs = A1CompletionStructure(program, pred="q")
    assert cs.expand_unary_positive(cs.epsilon, "q") == []


def test_expand_unary_negative_refutes_the_constraint_rule(membership_t):
    cs = A1CompletionStructure(membership_t, pred="smember")
    x = cs.epsilon
    cs.set_status(x, Signed("smember", True), EXP)
    cs.insert_tracked(x, Signed("co", False))
    alternatives = cs.expand_unary_negative(x, "co")
    # refuting "not co(x)" or "smember(x)" would contradict the content;
    # the only viable refutation inserts "not rmember"
    assert len(alternatives) == 1
    alternatives[0].apply()
    assert Signed("rmember", False) in cs.content(x)
    assert cs.status(x, Signed("co", False)) == EXP


def test_expand_unary_negative_of_self_refuting_rule_has_no_choices():
    program = parse_program("p(X) :- not p(X).\n")
    cs = A1CompletionStructure(program, pred="p")
    cs.set_status(cs.epsilon, Signed("p", True), EXP)
    # also inject "not p": immediately contradictory is impossible, so
    # build a sibling structure where "not p" is the initial content
    cs2 = A1CompletionStructure(program)
    cs2.insert_tracked(cs2.epsilon, Signed("p", False))
    assert cs2.expand_unary_negative(cs2.epsilon, "p") == []


def test_expand_unary_negative_vacuous_without_instances():
    program = parse_program("p(a).\nq(X) :- p(X).\n")
    cs = A1CompletionStructure(program)
    x = cs.epsilon  # anonymous; the fact defines p only at constant a
    cs.insert_tracked(x, Signed("p", False))
    (alternative,) = cs.expand_unary_negative(x, "p")
    assert alternative.description == "not p at x: all instances refuted"
    alternative.apply()
    assert cs.status(x, Signed("p", False)) == EXP


def test_choose_unary_offers_negative_branch_first(membership_t):
    cs = A1CompletionStructure(membership_t, pred="smember")
    alternatives = cs.choose_unary(cs.epsilon)
    assert len(alternatives) == 2
    assert "not" in alternatives[0].description
    alternatives[0].apply()
    assert Signed("rmember", False) in cs.content(cs.epsilon)


def test_expand_binary_positive_imposes_body_and_dependency():
    # a variable second head term would require a positive connector in
    # the body, so the defining rule fixes the constant directly
    program = parse_program(
        "go(X) :- f(X,a).\nf(X,a) :- q(a).\nq(a).\n"
    )
    cs = A1CompletionStructure(program, pred="go")
    x, a = cs.epsilon, NodeId("a")
    cs.forest.add_es(x, a)
    cs.insert_tracked((x, a), Signed("f", True))
    (alternative,) = cs.expand_binary_positive((x, a), "f")
    alternative.apply()
    assert Signed("q", True) in cs.content(a)
    assert cs.status(a, Signed("q", True)) == UNEXP
    arcs = list(cs.g.arcs())
    assert (cs.atom_for((x, a), "f"), cs.atom_for(a, "q")) in arcs
    verdict = check_sat_a1(program, "go")
    assert verdict.kind is VerdictKind.SAT
    assert is_answer_set(program, verdict.witness.induced_interpretation())


def test_expand_negative_vacuous_for_undefined_predicates():
    # neither q (unary) nor f (binary) has a defining rule, so their
    # absence needs no refutation at all
    program = parse_program("p(X) :- f(X,Y), q(Y).\nr(X) v not r(X).\n")
    cs = A1CompletionStructure(program, pred="p")
    x = cs.epsilon
    child = cs.forest.add_child(x)
    cs.insert_tracked(child, Signed("q", False))
    (alternative,) = cs.expand_unary_negative(child, "q")
    assert "all instances refuted" in alternative.description
    cs.insert_tracked((x, child), Signed("f", False))
    (alternative,) = cs.expand_binary_negative((x, child), "f")
    assert "all instances refuted" in alternative.description
    alternative.apply()
    assert cs.status((x, child), Signed("f", False)) == EXP


ARC_REFUTATION = (
    "p(X) :- h(X,Y), not q(Y).\n"
    "g(X,Y) :- s(X), f(X,Y), not r(Y).\n"
    "g(X,Y) :- f(X,Y), q(Y).\n"
    "h(X,Y) v not h(X,Y).\n"
    "f(X,Y) v not f(X,Y).\n"
    "q(X) :- g(X,Y), r(Y).\n"
    "r(X) v not r(X).\n"
    "s(X) v not s(X).\n"
)


def test_arc_obligations_share_the_instance_path(monkeypatch):
    """A negative arc obligation is refuted one rule at a time through
    the instance cache and ledger of the node obligations; in a whole
    search, each of its pending instances agrees with a fresh grounding."""
    program = parse_program(ARC_REFUTATION)
    cs = A1CompletionStructure(program)
    x = cs.epsilon
    arc = (x, cs.forest.add_child(x))
    okey = (arc, Signed("g", False))
    cs.insert_tracked(arc, okey[1])
    assert [key for key, _ in cs._instances(arc, "g")] == [0, 1]
    assert_first_pending_agrees(cs, okey)
    refute_s, refute_f, refute_not_r = cs.expand_binary_negative(arc, "g")
    refute_not_r.apply()
    assert cs.handled_set(okey) == {0}
    assert cs.status(arc, okey[1]) == UNEXP
    assert_first_pending_agrees(cs, okey)
    refute_f, refute_q = cs.expand_binary_negative(arc, "g")
    refute_f.apply()
    assert cs.handled_set(okey) == {0, 1}
    assert cs.status(arc, okey[1]) == EXP
    assert Signed("f", False) in cs.content(arc)

    checked = checked_a1()
    monkeypatch.setattr(tableau, "A1CompletionStructure", checked)
    verdict = check_sat_a1(program, "p", RedundancyPolicy(k_override=2))
    assert verdict.kind is VerdictKind.SAT
    assert checked.pending_checks > 0


def test_is_saturated(membership_t):
    verdict = check_sat_a1(membership_t, "smember")
    cs = verdict.witness
    assert cs.is_saturated(cs.epsilon)
    fresh = A1CompletionStructure(membership_t, pred="smember")
    assert not fresh.is_saturated(fresh.epsilon)


def test_blocking_pair_in_final_choice_chain_witness(choice_chain):
    verdict = check_sat_a1(choice_chain, "p")
    cs = verdict.witness
    x = cs.epsilon
    child = x.child(1)
    assert cs.find_blocking_pair(child) == x
    assert cs.content_of_node(child) == cs.content_of_node(x)


def test_no_blocking_pair_in_loop_chains(membership_loop):
    cs = A1CompletionStructure(membership_loop, pred="smember")
    x = cs.epsilon
    task = cs.node_task(x)
    task.alternatives[0].apply()
    child = x.child(1)
    # same content, but the dependency path smember(x) -> smember(x.1)
    # breaks the pair
    assert cs.content(child) <= cs.content(x)
    assert cs.find_blocking_pair(child) is None


def test_is_redundant_node_counts_equal_ancestors():
    program = parse_program("p(X) :- f(X,Y), p(Y).\nf(X,Y) v not f(X,Y).\n")
    cs = A1CompletionStructure(program, pred="p", k=1)
    x = cs.epsilon
    child = cs.forest.add_child(x)
    for node in (x, child):
        cs.insert_tracked(node, Signed("p", True))
        cs.set_status(node, Signed("p", True), EXP)
    cs.insert_tracked((x, child), Signed("f", True))
    cs.g.add_arc(cs.atom_for(x, "p"), cs.atom_for(child, "p"))
    assert cs.is_redundant_node(child)
    deeper = A1CompletionStructure(program, pred="p", k=2)
    assert not deeper.is_redundant_node(deeper.epsilon)


def test_rearmed_negative_obligations_catch_late_successors():
    """not q is justified before any successor exists; the successor
    created for m afterwards revives the obligation, whose only
    refutation contradicts m's own body, so the query is unsatisfiable."""
    program = parse_program(
        "w(X) :- go(X), m(X).\n"
        "go(X) :- not q(X).\n"
        "q(X) :- f(X,Y), t(Y).\n"
        "m(X) :- f(X,Z), t(Z).\n"
        "f(X,Y) v not f(X,Y).\n"
        "t(X) v not t(X).\n"
    )
    assert check_sat_a1(program, "w").kind is VerdictKind.UNSAT
    assert bounded_sat(program, "w", 3) is None


def test_structure_invariants_after_search(membership_t, choice_chain):
    for program, pred in ((membership_t, "smember"), (choice_chain, "p")):
        verdict = check_sat_a1(program, pred)
        cs = verdict.witness
        # every content entry has exactly one status
        for key, content in cs.ct.items():
            for sp in content:
                assert cs.st.get((key, sp)) in (EXP, UNEXP)
        # graph vertices are exactly the positive content entries
        positives = set(cs.positive_atoms())
        assert set(cs.g.vertices()) >= positives
        assert all(v in positives for v in cs.g.vertices())
        assert cs.arc_positivity_ok()


def test_explicit_depth_bound_reports_unknown(membership_loop):
    verdict = check_sat_a1(
        membership_loop, "smember", RedundancyPolicy(max_depth=2)
    )
    assert verdict.kind is VerdictKind.DEPTH_BOUNDED_UNKNOWN
    assert verdict.bounded_incomplete


def test_explicit_depth_bound_still_reports_clean_unsat():
    program = parse_program("p(X) :- q(X).\n")
    verdict = check_sat_a1(program, "p", RedundancyPolicy(max_depth=3))
    assert verdict.kind is VerdictKind.UNSAT


def test_redundancy_override_prunes_earlier(membership_loop):
    verdict = check_sat_a1(
        membership_loop, "smember", RedundancyPolicy(k_override=2)
    )
    assert verdict.kind is VerdictKind.UNSAT
    assert verdict.bounded_incomplete
    assert any(e["chain_position"] == 3 for e in verdict.stats.redundancy_events)


def test_task_budget_raises(membership_t):
    with pytest.raises(EngineBudgetError):
        check_sat_a1(membership_t, "smember", RedundancyPolicy(max_tasks=3))


def test_epsilon_can_be_a_constant():
    program = parse_program("p(a).\n")
    verdict = check_sat_a1(program, "p")
    assert verdict.kind is VerdictKind.SAT
    interp = verdict.witness.induced_interpretation()
    assert ("p", ("a",)) in interp.atoms


# ----------------------------------------------------------------------
# Pinned search: the incremental bookkeeping must not move the search

HARD_P_A1 = {
    "record": "verdict", "algorithm": "a1", "predicate": "p", "verdict": "UNSAT",
    "bounded_incomplete": True, "nodes_created": 3024, "choice_points": 3398,
    "backtracks": 8162, "tasks": 13169, "max_depth": 6, "redundancy_clashes": 731,
}

FAMILY_GOAL_A1 = {
    "record": "verdict", "algorithm": "a1", "predicate": "goal", "verdict": "SAT",
    "bounded_incomplete": False, "nodes_created": 561, "choice_points": 709,
    "backtracks": 5543, "tasks": 8125, "max_depth": 3, "redundancy_clashes": 0,
}


def test_refutation_descriptions_write_arcs_as_forest_keys():
    """A refuted literal on an arc reads (x,x.1), as contents and clash
    messages write arcs; the arguments stay unformatted until read."""
    program = parse_program(ARC_REFUTATION)
    cs = A1CompletionStructure(program)
    x = cs.epsilon
    child = cs.forest.add_child(x)
    arc = (x, child)
    cs.insert_tracked(arc, Signed("g", False))
    alternatives = cs.expand_binary_negative(arc, "g")
    assert [a.description for a in alternatives] == [
        "not g on x->x.1: refute s at x",
        "not g on x->x.1: refute f at (x,x.1)",
        "not g on x->x.1: refute not r at x.1",
    ]
    assert alternatives[1].args == ("g", x, child, Signed("f", True), x, child)
    cs.insert_tracked(x, Signed("p", False))
    assert [a.description for a in cs.expand_unary_negative(x, "p")] == [
        "not p at x: refute h at (x,x.1)",
        "not p at x: refute not q at x.1",
    ]


def test_hard_search_is_pinned_and_saturation_matches_reference(hard, monkeypatch):
    """The hard program's exhaustive search, task for task: the verdict
    record is pinned, at every task selection the saturation counters
    and the blocking memo agree with a full recomputation at every node,
    and at every negative expansion the cached first pending instance
    agrees with a fresh re-grounding."""
    checked = checked_a1()
    monkeypatch.setattr(tableau, "A1CompletionStructure", checked)
    verdict = check_sat_a1(hard, "p", RedundancyPolicy(k_override=5))
    assert verdict.to_record() == HARD_P_A1
    assert checked.checks > 13169
    assert checked.pending_checks > 0


def test_family_goal_search_is_pinned(family, monkeypatch):
    checked = checked_a1()
    monkeypatch.setattr(tableau, "A1CompletionStructure", checked)
    verdict = check_sat_a1(family, "goal")
    assert verdict.to_record() == FAMILY_GOAL_A1
    assert checked.checks > 8125
    assert checked.pending_checks > 4000


def test_instance_cache_survives_undoing_and_recreating_a_child():
    """The instances of x with n children are cached under n: after the
    n-th child is undone and created again, the cached entry is reused
    and still names x's current children, the same node id object, and
    constants."""
    program = parse_program("p(X) :- f(X,Y), q(Y), not r(Y).\nr(a).\n")
    cs = A1CompletionStructure(program)
    x = cs.epsilon
    okey = (x, Signed("p", False))
    cs.insert_tracked(x, okey[1])
    mark = cs.trail.mark()
    child = cs.forest.add_child(x)
    with_child = cs._instances(x, "p")
    assert [key for key, _ in with_child] == [(0, (child,)), (0, (NodeId("a"),))]
    assert_first_pending_agrees(cs, okey)
    (refute_f, *_) = cs.expand_unary_negative(x, "p")
    refute_f.apply()
    assert cs._first_pending(x, "p", okey)[0] == (0, (NodeId("a"),))
    assert_first_pending_agrees(cs, okey)

    cs.trail.undo_to(mark)
    assert not cs.forest.has_node(child)
    assert [key for key, _ in cs._instances(x, "p")] == [(0, (NodeId("a"),))]
    assert_first_pending_agrees(cs, okey)

    again = cs.forest.add_child(x)
    assert again is child
    assert cs._instances(x, "p") is with_child
    assert cs._first_pending(x, "p", okey)[0] == (0, (again,))
    assert_first_pending_agrees(cs, okey)
    assert reference_pending_instances(cs, x, "p", okey)[0][2] == (again,)


# ----------------------------------------------------------------------
# Constant-headed choice rules: `p(a) v not p(a).` makes p non-free, so
# p(a) is justified by the choice rule (or another rule) and "not p" at
# a refutes the other rules only.

CHOICE_RULE_PROGRAMS = [
    (
        "p(a) v not p(a).\nq(X) :- p(X).\nr(X) :- not p(X).\n",
        {"p": "SAT", "q": "SAT", "r": "SAT"},
    ),
    (
        "f(a,b) v not f(a,b).\ng(X) :- f(X,Y), h(Y).\nh(b).\n"
        "u(X) :- f(X,Y), not h(Y).\n",
        {"g": "SAT", "h": "SAT", "u": "UNSAT"},
    ),
    (
        "p(a) v not p(a).\ns(X) :- p(X), not t(X).\nt(a).\n",
        {"p": "SAT", "s": "UNSAT", "t": "SAT"},
    ),
    (
        "p(a) v not p(a).\np(X) :- q(X).\nq(X) :- f(X,Y), p(Y).\n"
        "f(X,Y) v not f(X,Y).\n",
        {"p": "SAT", "q": "SAT"},
    ),
    (
        "f(a,a) v not f(a,a).\nf(X,Y) :- e(X,Y), k(Y).\ne(X,Y) v not e(X,Y).\n"
        "k(a).\ngo(X) :- f(X,Y), not m(Y).\nm(X) :- not k(X).\n",
        {"k": "SAT", "go": "SAT", "m": "SAT"},
    ),
]


@pytest.mark.parametrize(
    "text, verdicts", CHOICE_RULE_PROGRAMS,
    ids=["unary", "binary", "unary-unsat", "unary-and-rule", "binary-and-rule"],
)
def test_constant_headed_choice_rules_agree_with_the_oracle(text, verdicts):
    program = parse_program(text)
    constant_choices = {
        rule.head.pred
        for rule in program.rules
        if rule.kind is RuleKind.FREE and not any(t.is_variable for t in rule.head.args)
    }
    assert constant_choices and not constant_choices & program.free_preds
    assert sorted(program.upreds) == sorted(verdicts)
    cache = compile_units(program).cache
    for pred, expected in verdicts.items():
        for verdict in (check_sat_a1(program, pred), check_sat_a2(program, pred, cache)):
            assert verdict.kind.value == expected, (verdict.algorithm, pred)
            if verdict.witness is not None:
                model = verdict.witness.induced_interpretation()
                assert is_answer_set(program, model), (verdict.algorithm, pred)
        assert (bounded_sat(program, pred, 3) is not None) == (expected == "SAT"), pred


def test_choice_rule_alternatives_at_constants():
    text, _ = CHOICE_RULE_PROGRAMS[3]
    cs = A1CompletionStructure(parse_program(text))
    a, p = NodeId("a"), Signed("p", True)
    assert [alt.description for alt in cs.expand_unary_positive(a, "p")] == [
        "p at a by choice rule",
        "p at a by rule line 2",
    ]
    assert [alt.description for alt in cs.expand_unary_positive(cs.epsilon, "p")] == [
        "p at x by rule line 2",
    ]
    cs.insert_tracked(a, p)
    by_choice, _ = cs.expand_unary_positive(a, "p")
    by_choice.apply()
    assert cs.status(a, p) == EXP and cs.content(a) == {p}
    assert cs.g.arc_count() == 0
    # the choice rule never forces p(a), so "not p" at a refutes rule 2 only
    cs = A1CompletionStructure(parse_program(text))
    cs.insert_tracked(a, Signed("p", False))
    assert [key for key, _ in cs._instances(a, "p")] == [(1, ())]
    assert [alt.description for alt in cs.expand_unary_negative(a, "p")] == [
        "not p at a: refute q at a",
    ]

    text, _ = CHOICE_RULE_PROGRAMS[1]
    cs = A1CompletionStructure(parse_program(text))
    arc = (NodeId("a"), NodeId("b"))
    cs.forest.add_es(*arc)
    cs.insert_tracked(arc, Signed("f", True))
    assert [alt.description for alt in cs.expand_binary_positive(arc, "f")] == [
        "f on a->b by choice rule",
    ]
    assert cs.expand_binary_positive((cs.epsilon, NodeId("b")), "f") == []
    assert cs._instances(arc, "f") == []


# ----------------------------------------------------------------------
# The driver both engines share


def solver(engine: str, program):
    """check_sat of the engine on the program, with a cache for a2."""
    if engine == "a1":
        return lambda pred, policy=None: check_sat_a1(program, pred, policy)
    cache = compile_units(program).cache
    return lambda pred, policy=None: check_sat_a2(program, pred, cache, policy)


@pytest.mark.parametrize("engine", ["a1", "a2"])
def test_driver_bounds_and_budgets(engine, membership_t, membership_loop):
    loop = solver(engine, membership_loop)
    verdict = loop("smember", RedundancyPolicy(max_depth=2))
    assert verdict.kind is VerdictKind.DEPTH_BOUNDED_UNKNOWN
    assert verdict.bounded_incomplete
    assert (verdict.algorithm, verdict.depth_used) == (engine, 2)
    assert loop("smember").kind is VerdictKind.UNSAT

    member = solver(engine, membership_t)
    with pytest.raises(EngineBudgetError, match="task budget"):
        member("smember", RedundancyPolicy(max_tasks=3))
    with pytest.raises(EngineBudgetError, match="time limit"):
        member("smember", RedundancyPolicy(time_limit=0))
    assert not member("smember").bounded_incomplete
    verdict = member("smember", RedundancyPolicy(k_override=5))
    assert verdict.kind is VerdictKind.SAT
    assert verdict.bounded_incomplete


@pytest.mark.parametrize("engine", ["a1", "a2"])
@pytest.mark.parametrize("fixture, pred", [("membership_t", "smember"), ("choice_chain", "p")])
def test_sat_witness_drops_its_undo_log(engine, fixture, pred, request, monkeypatch):
    """A SAT witness is never backtracked, so it keeps no undo closures;
    it reads as it would with them."""
    solve = solver(engine, request.getfixturevalue(fixture))
    witness = solve(pred).witness
    assert witness.trail.mark() == 0
    dot, blocked = witness.to_dot(), witness.blocked_nodes()

    monkeypatch.setattr(Trail, "clear", lambda trail: None)
    kept = solve(pred).witness
    assert kept.trail.mark() > 0
    assert kept.to_dot() == dot
    assert kept.blocked_nodes() == blocked
    if not blocked:
        assert kept.induced_interpretation() == witness.induced_interpretation()

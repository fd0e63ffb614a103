from collections import Counter

import pytest

from folp import matcher
from folp.forest import NodeId, Signed, StructureError
from folp.matcher import A2CompletionStructure, check_sat_a2
from folp.oracle import bounded_sat, is_answer_set
from folp.syntax import parse_program
from folp.tableau import RedundancyPolicy, VerdictKind
from folp.units import (
    CacheFormatError,
    CacheMismatchError,
    compile_units,
    load_cache,
    save_cache,
)

from reference import checked_a2, passes_a1_completion_check

P, NOT_Q = Signed("p", True), Signed("q", False)


@pytest.fixture(scope="module")
def chain_cache(choice_chain):
    return compile_units(choice_chain).cache


@pytest.fixture(scope="module")
def membership_cache(membership_t):
    return compile_units(membership_t).cache


def final_chain_unit(chain_cache):
    (unit,) = [u for u in chain_cache.units if u.final]
    return unit


def entry_units(cs, x) -> list:
    """The units of x's match entry, which no depth bound prunes here."""
    pruned, alternatives = cs._match_entry(x)
    assert not pruned
    return [alternative.operands[1] for alternative in alternatives]


def test_covering_fits_the_root_covers_the_content_and_keeps_match_order(
    membership_t, membership_cache
):
    """A node's match entry lists the units rooted like the node whose
    root content includes the node's content, in `candidates_for`
    order."""
    program = parse_program("q(X) v not q(X).\np(a).\n")
    cache = compile_units(program).cache
    cs = A2CompletionStructure(program, cache, pred="q")
    x, a = cs.epsilon, NodeId("a")
    cs.insert(a, Signed("q", True))
    (anonymous,) = entry_units(cs, x)
    (a_rooted,) = entry_units(cs, a)
    # an anonymous unit covers {q} too, but only a's own units fit a
    assert anonymous.root_constant is None and a_rooted.root_constant == "a"
    assert Signed("q", True) in anonymous.root_content & a_rooted.root_content
    assert len(cache.candidates_for(None)) == len(cache.candidates_for("a")) == 2

    cs = A2CompletionStructure(membership_t, membership_cache, pred="smember")
    candidates = membership_cache.candidates_for(None)
    covering = entry_units(cs, cs.epsilon)
    assert covering == [u for u in candidates if Signed("smember", True) in u.root_content]
    assert 1 < len(covering) < len(candidates)


def test_expand_cs_grafts_the_unit(choice_chain, chain_cache):
    cs = A2CompletionStructure(choice_chain, chain_cache, pred="p")
    x = cs.epsilon
    unit = final_chain_unit(chain_cache)
    cs.expand_cs(x, unit)
    child = x.child(1)
    assert cs.is_saturated(x)
    assert cs.content(x) == {P, NOT_Q}
    assert cs.content(child) == {P, NOT_Q}
    assert cs.content((x, child)) == {Signed("f", True)}
    arcs = list(cs.g.arcs())
    assert (cs.atom_for(x, "p"), cs.atom_for((x, child), "f")) in arcs
    assert len(arcs) == 1
    assert cs.find_blocking_pair(child) == x


def test_a_graft_plan_is_built_once_per_unit_and_node(membership_t, membership_cache):
    """Grafting a unit onto a node again after backtracking reuses its
    plan and gives the same state; another node gets a plan of its own."""
    cs = A2CompletionStructure(membership_t, membership_cache, pred="smember")
    x = cs.epsilon
    (unit, *_) = entry_units(cs, x)
    mark = cs.trail.mark()
    first = cs.expand_cs(x, unit)
    contents = {key: frozenset(content) for key, content in cs.ct.items()}
    arcs = list(cs.g.arcs())
    cs.trail.undo_to(mark)
    assert cs.expand_cs(x, unit) == first
    assert {key: frozenset(content) for key, content in cs.ct.items()} == contents
    assert list(cs.g.arcs()) == arcs
    assert len(cs.tables.grafts) == 1
    child = first[0]
    assert not child.is_root
    cs.expand_cs(child, entry_units(cs, child)[0])
    assert len(cs.tables.grafts) == 2


def test_a_match_list_is_built_once_per_node_content_and_depth_flag(hard, monkeypatch):
    """One engine call builds the alternatives of each (node, content,
    depth flag) once, shares them between its structures, and answers
    every other match of the same key from them. The fail-fast test
    after a graft reads the same table, so the cache's unit lists are
    scanned only to build its entries."""
    builds, calls, structures, made = Counter(), Counter(), {}, iter(range(1000))

    class CountingTable(dict):
        def __setitem__(self, key, entry):
            builds[key] += 1
            super().__setitem__(key, entry)

    class Recording(A2CompletionStructure):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.number = next(made)
            # the structures of the call share its tables
            if type(self.tables.matches) is dict:
                self.tables.matches = CountingTable(self.tables.matches)

        def match(self, x):
            calls[x] += 1
            structures.setdefault(x, set()).add(self.number)
            return super().match(x)

    monkeypatch.setattr(matcher, "A2CompletionStructure", Recording)
    cache = compile_units(hard).cache
    scans, candidates_for = Counter(), cache.candidates_for
    monkeypatch.setattr(cache, "candidates_for", lambda c: scans.update([c]) or candidates_for(c))
    verdict = check_sat_a2(hard, "p", cache, RedundancyPolicy(k_override=5))
    assert verdict.kind is VerdictKind.UNSAT
    assert builds and max(builds.values()) == 1
    assert sum(scans.values()) == len(builds)
    assert sum(calls.values()) > 2 * len(builds)
    assert any(len(numbers) > 1 for numbers in structures.values())


def test_a_sat_witness_keeps_no_graft_plans(membership_t, membership_cache, monkeypatch):
    """The plans serve only the search, so a kept witness drops the
    tables of its call, which hold them."""
    kept = []

    class Recording(A2CompletionStructure):
        def keep_as_witness(self):
            kept.append(len(self.tables.grafts))
            super().keep_as_witness()

    monkeypatch.setattr(matcher, "A2CompletionStructure", Recording)
    verdict = check_sat_a2(membership_t, "smember", membership_cache)
    assert verdict.kind is VerdictKind.SAT
    assert kept[0] > 0 and verdict.witness.tables is None


def test_expand_cs_requires_local_satisfaction(choice_chain, chain_cache):
    cs = A2CompletionStructure(choice_chain, chain_cache, pred="q")
    with pytest.raises(ValueError):
        cs.expand_cs(cs.epsilon, final_chain_unit(chain_cache))


def test_expand_cs_constant_roots_match_only_themselves(membership_t, membership_cache):
    a_rooted = [u for u in membership_cache.units if u.root_constant == "a"]
    assert a_rooted
    cs = A2CompletionStructure(membership_t, membership_cache, pred="smember")
    with pytest.raises(ValueError):
        cs.expand_cs(NodeId("b"), a_rooted[0])


def test_expand_cs_successor_free_constant_unit():
    program = parse_program("p(a).\n")
    cache = compile_units(program).cache
    (unit,) = [u for u in cache.units if u.root_constant == "a"]
    assert not unit.successors
    cs = A2CompletionStructure(program, cache, pred="p", epsilon="a")
    before = list(cs.forest.nodes())
    cs.expand_cs(NodeId("a"), unit)
    assert list(cs.forest.nodes()) == before
    assert cs.is_saturated(NodeId("a"))


def test_match_offers_every_unit_for_an_empty_node(choice_chain, chain_cache):
    cs = A2CompletionStructure(choice_chain, chain_cache)
    anonymous = [u for u in chain_cache.units if u.root_constant is None]
    task_alts = cs.match(cs.epsilon)
    assert len(task_alts) == len(anonymous)
    assert [a.description for a in task_alts] == [
        f"match x with unit {u.sort_key[:3]}" for u in chain_cache.candidates_for(None)
    ]


def test_match_candidates_respect_content(choice_chain, chain_cache):
    cs = A2CompletionStructure(choice_chain, chain_cache, pred="q")
    covering = [u for u in chain_cache.units if Signed("q", True) in u.root_content]
    assert len(cs.match(cs.epsilon)) == len(covering)


def test_chain_predicate_satisfiable_through_the_final_unit(choice_chain, chain_cache):
    verdict = check_sat_a2(choice_chain, "p", chain_cache)
    assert verdict.kind is VerdictKind.SAT
    assert verdict.depth_used == 1
    cs = verdict.witness
    child = cs.epsilon.child(1)
    assert cs.find_blocking_pair(child) == cs.epsilon
    with pytest.raises(StructureError):
        cs.induced_interpretation()
    # the witness is the unraveling of a final unit, which by itself
    # passes the direct engine's completion check
    unit = final_chain_unit(chain_cache)
    assert passes_a1_completion_check(choice_chain, unit)
    assert cs.is_complete_clash_free()


def test_chain_negative_predicate_unsatisfiable(choice_chain, chain_cache):
    verdict = check_sat_a2(choice_chain, "q", chain_cache)
    assert verdict.kind is VerdictKind.UNSAT
    assert bounded_sat(choice_chain, "q", 3) is None


def test_membership_model_found_by_matching(membership, membership_t, membership_cache):
    verdict = check_sat_a2(membership_t, "smember", membership_cache)
    assert verdict.kind is VerdictKind.SAT
    interp = verdict.witness.induced_interpretation()
    assert interp.atoms == {
        ("smember", ("x",)),
        ("rmember", ("a",)),
        ("rmember", ("b",)),
        ("support", ("x", "a")),
        ("support", ("x", "b")),
    }
    assert is_answer_set(membership, interp)
    # every expanded node carries total content copied from a saturated
    # unit root
    for node in verdict.witness.forest.nodes():
        if verdict.witness.is_saturated(node):
            decided = {sp.name for sp in verdict.witness.content(node)}
            assert decided == set(membership_t.upreds)


def test_loop_program_redundancy_clash(membership_loop):
    cache = compile_units(membership_loop).cache
    verdict = check_sat_a2(membership_loop, "smember", cache)
    assert verdict.kind is VerdictKind.UNSAT
    assert any(e["chain_position"] == 6 for e in verdict.stats.redundancy_events)


def test_cache_fingerprint_is_enforced(membership_t, chain_cache):
    with pytest.raises(CacheMismatchError):
        check_sat_a2(membership_t, "smember", chain_cache)


def test_check_a2_rejects_loaded_units_that_name_constants_the_program_lacks(
    tmp_path, membership_t, membership_cache
):
    """A cache loaded without a program reaches the engine unchecked, so
    the engine checks it: a unit whose root or constant successor is no
    constant of the program is a format error, not SAT with an atom
    outside the universe (no arc), UNSAT where a1 says SAT (root) or a
    StructureError from inside the search (arc). The cache as compiled
    still answers SAT."""
    path = tmp_path / "membership.units"
    save_cache(membership_cache, path)
    compiled = path.read_text(encoding="utf-8")
    succ_a = "succ: a arc open\narc-content: support\nnode-content: smember\n"
    garcs_a = "garc: smember(@) -> smember(a)\ngarc: smember(@) -> support(@,a)\n"
    edits = [
        [(succ_a, succ_a.replace("a arc", "zz noarc").replace("support", "")),
         (garcs_a, "garc: smember(@) -> smember(zz)\n")],
        [("root: a\n", "root: zz\n")],
        [(succ_a, succ_a.replace("a arc", "zz arc")), (garcs_a, garcs_a.replace("a)", "zz)"))],
    ]
    for edit in edits:
        edited = compiled
        for old, new in edit:
            assert edited.count(old) == 1, old
            edited = edited.replace(old, new)
        path.write_text(edited, encoding="utf-8")
        cache = load_cache(path)
        message = "unit names the constant 'zz', which the program lacks"
        with pytest.raises(CacheFormatError, match=message):
            check_sat_a2(membership_t, "smember", cache)
        # a failed check is not recorded: the cache is rejected again
        with pytest.raises(CacheFormatError, match=message):
            check_sat_a2(membership_t, "smember", cache)
    path.write_text(compiled, encoding="utf-8")
    verdict = check_sat_a2(membership_t, "smember", load_cache(path))
    assert verdict.kind is VerdictKind.SAT


def test_match_statistics_recorded(membership_t, membership_cache):
    verdict = check_sat_a2(membership_t, "smember", membership_cache)
    stats = verdict.stats
    assert stats.matches >= 3  # the root and both constants
    assert stats.units_tried >= stats.matches
    assert stats.reuse_count >= 0


def test_agreement_with_direct_engine_under_override(
    membership_t, membership_loop, choice_chain, membership_cache, chain_cache
):
    from folp.tableau import check_sat_a1

    loop_cache = compile_units(membership_loop).cache
    cases = [
        (membership_t, membership_cache, membership_t.upreds),
        (membership_loop, loop_cache, membership_loop.upreds),
        (choice_chain, chain_cache, choice_chain.upreds),
    ]
    policy = RedundancyPolicy(k_override=5)
    for program, cache, preds in cases:
        for pred in preds:
            v1 = check_sat_a1(program, pred, policy)
            v2 = check_sat_a2(program, pred, cache, policy)
            assert v1.kind == v2.kind, (pred, v1.kind, v2.kind)


# ----------------------------------------------------------------------
# Pinned search: grafting order and cycle tests must not move the search

HARD_P_A2 = {
    "record": "verdict", "algorithm": "a2", "predicate": "p", "verdict": "UNSAT",
    "bounded_incomplete": True, "nodes_created": 1740, "choice_points": 431,
    "backtracks": 544, "tasks": 1301, "max_depth": 6, "redundancy_clashes": 731,
    "units_tried": 1301, "unit_matches": 1265, "unit_reuse": 1260,
}

FAMILY_GOAL_A2 = {
    "record": "verdict", "algorithm": "a2", "predicate": "goal", "verdict": "SAT",
    "bounded_incomplete": False, "nodes_created": 1971, "choice_points": 91,
    "backtracks": 1210, "tasks": 1211, "max_depth": 3, "redundancy_clashes": 0,
    "units_tried": 1232, "unit_matches": 1211, "unit_reuse": 1185,
}


def test_hard_search_is_pinned(hard, monkeypatch):
    """Pinned verdict record; at every task selection the resume node is
    unblocked and the resumed scan agrees with a full uncached scan."""
    checked = checked_a2()
    monkeypatch.setattr(matcher, "A2CompletionStructure", checked)
    cache = compile_units(hard).cache
    verdict = check_sat_a2(hard, "p", cache, RedundancyPolicy(k_override=5))
    assert verdict.to_record() == HARD_P_A2
    assert checked.count_checks > HARD_P_A2["tasks"] and checked.scans > 0


def test_family_goal_search_is_pinned(family, monkeypatch):
    """Pinned verdict record; before every task the resume node is
    unblocked and the resumed scan, which here passes blocked nodes
    that stay blocked while new arcs go in, agrees with a full uncached
    scan."""
    checked = checked_a2()
    monkeypatch.setattr(matcher, "A2CompletionStructure", checked)
    verdict = check_sat_a2(family, "goal", compile_units(family).cache)
    assert verdict.to_record() == FAMILY_GOAL_A2
    assert checked.count_checks > FAMILY_GOAL_A2["tasks"] and checked.scans > 0

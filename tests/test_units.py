import itertools

import pytest

from folp.forest import Signed
from folp.syntax import parse_program
from folp.units import (
    CacheFormatError,
    CacheMismatchError,
    compile_units,
    enumerate_unit_completions,
    is_final,
    is_redundant_ucs,
    load_cache,
    prune_redundant,
    save_cache,
)

from reference import passes_a1_completion_check

P, NOT_Q = Signed("p", True), Signed("q", False)
PQ = frozenset({P, NOT_Q})


def chain_units(program):
    """The three structures with root {p, not q}: keyed by what
    distinguishes them (successor content and root-to-successor paths)."""
    units = enumerate_unit_completions(program)
    family = [u for u in units if u.root_content == PQ]
    assert len(family) == 3
    by_shape = {}
    for unit in family:
        (succ,) = unit.successors
        by_shape[(succ.node_content == PQ, bool(succ.paths))] = unit
    most = by_shape[(True, True)]  # successor {p, not q}, path p->p
    middle = by_shape[(False, True)]  # successor {p}, path p->p
    least = by_shape[(True, False)]  # successor {p, not q}, no paths
    return most, middle, least


def test_enumeration_reproduces_the_three_way_family(choice_chain):
    most, middle, least = chain_units(choice_chain)
    for unit in (most, middle, least):
        assert unit.root_constant is None
        (succ,) = unit.successors
        assert succ.arc_content == {Signed("f", True)}
    assert least.successors[0].blocked
    assert not most.successors[0].blocked  # the path breaks the pair


def test_no_root_content_contains_the_forced_predicate_negated(choice_chain):
    # p is forced everywhere by its self-refuting rule
    for unit in enumerate_unit_completions(choice_chain):
        assert Signed("p", False) not in unit.root_content


def test_finality(choice_chain):
    most, middle, least = chain_units(choice_chain)
    assert is_final(least) and least.final
    assert not is_final(most)
    assert not is_final(middle)


def test_successor_free_structures_are_final():
    program = parse_program("p(a).\n")
    units = enumerate_unit_completions(program)
    constant_rooted = [u for u in units if u.root_constant == "a"]
    assert len(constant_rooted) == 1
    unit = constant_rooted[0]
    assert unit.root_content == {Signed("p", True)}
    assert unit.successors == ()
    assert unit.final
    # the fact cannot be refuted at its own constant
    assert all(
        Signed("p", True) in u.root_content for u in constant_rooted
    )


def test_loop_program_units_match_expected_shapes(membership_loop):
    units = enumerate_unit_completions(membership_loop)
    assert len(units) == 2
    by_root = {frozenset(u.root_content): u for u in units}
    positive = by_root[frozenset({Signed("smember", True)})]
    negative = by_root[frozenset({Signed("smember", False)})]
    (succ,) = positive.successors
    assert succ.node_content == {Signed("smember", True)}
    assert succ.paths == {("smember", "smember")}
    assert not succ.blocked
    assert negative.successors == ()
    assert negative.final and not positive.final


def test_redundancy_matrix_of_the_three_way_family(choice_chain):
    most, middle, least = chain_units(choice_chain)
    assert is_redundant_ucs(most, least)
    assert is_redundant_ucs(middle, least)
    assert is_redundant_ucs(most, middle)
    assert not is_redundant_ucs(least, most)
    assert not is_redundant_ucs(least, middle)
    assert not is_redundant_ucs(middle, most)
    for unit in (most, middle, least):
        assert not is_redundant_ucs(unit, unit)


def test_redundancy_requires_equal_root_content(choice_chain, membership_loop):
    units = enumerate_unit_completions(membership_loop)
    a, b = units
    assert not is_redundant_ucs(a, b)
    assert not is_redundant_ucs(b, a)
    cache = prune_redundant(units, membership_loop)
    assert len(cache.units) == 2  # incomparable structures are both retained


def test_prune_keeps_only_the_least_constraining(choice_chain):
    most, middle, least = chain_units(choice_chain)
    cache = prune_redundant([most, middle, least], choice_chain)
    assert cache.units == (least,)
    singleton = prune_redundant([most], choice_chain)
    assert singleton.units == (most,)


def test_prune_is_dominance_free_and_preserves_every_class(choice_chain, membership_t):
    for program in (choice_chain, membership_t):
        units = enumerate_unit_completions(program)
        cache = prune_redundant(units, program)
        retained = cache.units
        for u1, u2 in itertools.permutations(retained, 2):
            assert not is_redundant_ucs(u1, u2)
        kept_classes = {(u.root_constant, u.root_content) for u in retained}
        all_classes = {(u.root_constant, u.root_content) for u in units}
        assert kept_classes == all_classes


def test_redundancy_is_a_strict_partial_order(choice_chain, membership_t, membership_loop):
    for program in (choice_chain, membership_t, membership_loop):
        units = enumerate_unit_completions(program)
        for u in units:
            assert not is_redundant_ucs(u, u)
        for a, b, c in itertools.permutations(units, 3):
            if is_redundant_ucs(a, b) and is_redundant_ucs(b, c):
                assert is_redundant_ucs(a, c)
        for a, b in itertools.permutations(units, 2):
            assert not (is_redundant_ucs(a, b) and is_redundant_ucs(b, a))


def test_final_units_pass_the_direct_engine_completion_check(
    choice_chain, membership_t, membership_loop
):
    for program in (choice_chain, membership_t, membership_loop):
        units = enumerate_unit_completions(program)
        finals = [u for u in units if u.final]
        for unit in finals:
            assert passes_a1_completion_check(program, unit)


def test_membership_units_have_total_root_contents(membership_t):
    summary = compile_units(membership_t)
    names = set(membership_t.upreds)
    for unit in summary.cache.units:
        decided = {sp.name for sp in unit.root_content}
        assert decided == names


def test_compile_summary_counts_are_consistent(choice_chain):
    summary = compile_units(choice_chain)
    assert summary.retained == summary.enumerated - summary.redundant
    assert summary.enumerated == 7
    assert summary.final == 1
    assert summary.retained == 4


def test_cache_roundtrip(tmp_path, choice_chain):
    summary = compile_units(choice_chain)
    path = tmp_path / "chain.units"
    save_cache(summary.cache, path)
    loaded = load_cache(path, choice_chain)
    assert loaded.fingerprint == summary.cache.fingerprint
    assert loaded.units == summary.cache.units
    # byte-stable on a second save
    save_cache(loaded, tmp_path / "again.units")
    assert (tmp_path / "again.units").read_bytes() == path.read_bytes()


def test_cache_rejects_fingerprint_mismatch(tmp_path, choice_chain, membership_t):
    summary = compile_units(choice_chain)
    path = tmp_path / "chain.units"
    save_cache(summary.cache, path)
    with pytest.raises(CacheMismatchError):
        load_cache(path, membership_t)


def test_cache_rejects_truncated_file(tmp_path, choice_chain):
    summary = compile_units(choice_chain)
    path = tmp_path / "chain.units"
    save_cache(summary.cache, path)
    text = path.read_text()
    (tmp_path / "cut.units").write_text(text[: len(text) // 2])
    with pytest.raises(CacheFormatError):
        load_cache(tmp_path / "cut.units")


def test_cache_rejects_garbage(tmp_path):
    path = tmp_path / "bad.units"
    path.write_text("not a cache\n")
    with pytest.raises(CacheFormatError):
        load_cache(path)


@pytest.mark.parametrize(
    "line, corrupted",
    [
        ("count: 4", "count: many"),
        ("succ: @.1 arc open", "succ: @.x arc open"),
        ("paths: p->p", "paths: p p"),
        ("garc: p(@) -> f(@,@.1)", "garc: p(@) f(@,@.1)"),
        ("final: no", "final: yes"),
        ("garc: p(@) -> f(@,@.1)", "garc: f(@,@.1) -> p(@)\ngarc: p(@) -> f(@,@.1)"),
        ("content: p, q", "content: p, not p, q"),
        ("arc-content: f", "arc-content: f, not f"),
        ("garc: p(@) -> p(@.1)", "garc: p(@.1) -> p(@)"),
        ("garc: p(@) -> f(@,@.1)", "garc: p(@) -> q(@.1)"),
        ("garc: p(@) -> f(@,@.1)", "garc: p(@) -> p(@.2)"),
        ("count: 4", "count: 0"),
        ("count: 4", "count: -2"),
        pytest.param(
            "succ: @.1 arc open\narc-content: f\nnode-content: not p, not q\npaths: \n"
            "garc: p(@) -> f(@,@.1)\ngarc: q(@) -> f(@,@.1)",
            "succ: @.5 arc open\narc-content: f\nnode-content: not p, not q\npaths: \n"
            "garc: p(@) -> f(@,@.5)\ngarc: q(@) -> f(@,@.5)",
            id="succ: @.1 arc open-succ: @.5 arc open",
        ),
    ],
)
def test_cache_rejects_malformed_fields(tmp_path, choice_chain, line, corrupted):
    """A field that does not parse, a negative unit count or units beyond
    it, a final flag that disagrees with the unit's successors, or a unit
    that enumeration cannot make (tree successors not numbered 1..n in
    order, an inconsistent content, cyclic dependency arcs, or an arc
    that does not run from a positive entry over the root to a positive
    entry) is a format error, not a ValueError or a wrong verdict that
    the command line would report as UNSAT (exit 1)."""
    path = tmp_path / "chain.units"
    save_cache(compile_units(choice_chain).cache, path)
    text = path.read_text()
    assert line + "\n" in text
    path.write_text(text.replace(line + "\n", corrupted + "\n", 1))
    with pytest.raises(CacheFormatError):
        load_cache(path, choice_chain)


def test_candidate_order_is_least_constraining_first(choice_chain):
    cache = compile_units(choice_chain).cache
    candidates = cache.candidates_for(None)
    keys = [u.match_key() for u in candidates]
    assert keys == sorted(keys)


def test_enumeration_requires_constraint_free_input(membership):
    with pytest.raises(ValueError):
        enumerate_unit_completions(membership)

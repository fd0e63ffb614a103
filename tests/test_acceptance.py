"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with its wall time, plus a cross-check of both engines' incremental
bookkeeping over the same corpus. The random corpus is seeded and
budgeted by tasks, so every run exercises identical programs; a test
pins its hash."""

import hashlib
import json
import random
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import pytest

from folp import matcher, tableau, units as units_module
from folp.forest import Signed, StructureError
from folp.matcher import A2CompletionStructure, check_sat_a2
from folp.oracle import OpenInterpretation, bounded_sat, is_answer_set
from folp.syntax import Program, eliminate_constraints, parse_program
from folp.tableau import (
    A1CompletionStructure,
    RedundancyPolicy,
    VerdictKind,
    check_sat_a1,
    redundancy_bound,
)
from folp.units import (
    compile_units,
    enumerate_unit_completions,
    is_redundant_ucs,
    prune_redundant,
    save_cache,
)

from conftest import GOLDEN, PROGRAMS, load
from corpus import bench_family, corpus, unit_family
from reference import (
    ReferenceA1,
    ReferenceA2,
    checked_a1,
    checked_a2,
    checked_backjumps,
    checked_grafts_a2,
    checked_landings,
    checked_matches_a2,
    checked_refutations_a1,
    checked_refutations_a2,
    passes_a1_completion_check,
    reference_bounded_sat,
    reference_is_answer_set,
    reference_is_redundant_ucs,
    reference_retained,
)

CORPUS_SEED = 20260810
CORPUS_SHA256 = "f20548a8fd9c856c336d6a86a002313a2d4462d896bef57b6053af320cff8618"
ORACLE_SIZE = 3


@contextmanager
def criterion(number: int, description: str):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL ({time.monotonic() - start:.1f}s): {description}")
        raise
    print(f"ACCEPTANCE {number} PASS ({time.monotonic() - start:.1f}s): {description}")


@dataclass
class CorpusEntry:
    program: Program
    transformed: Program
    units: tuple
    cache: object
    a1: dict = field(default_factory=dict)
    a2: dict = field(default_factory=dict)
    oracle: dict = field(default_factory=dict)


@pytest.fixture(scope="module")
def corpus_run():
    """One pass over the 50-program corpus: compiled units, both engines
    under the small redundancy override, and the bounded oracle."""
    start = time.monotonic()
    policy = RedundancyPolicy(k_override=5, time_limit=120)
    entries = []
    for program in corpus(count=50, seed=CORPUS_SEED):
        transformed = eliminate_constraints(program)
        units = enumerate_unit_completions(transformed)
        cache = prune_redundant(units, transformed)
        entry = CorpusEntry(program, transformed, units, cache)
        for pred in program.upreds:
            entry.a1[pred] = check_sat_a1(transformed, pred, policy)
            entry.a2[pred] = check_sat_a2(transformed, pred, cache, policy)
            entry.oracle[pred] = bounded_sat(program, pred, ORACLE_SIZE)
        entries.append(entry)
    return entries, time.monotonic() - start


def test_criterion_1_membership_satisfiability(membership, membership_t):
    with criterion(1, "both engines find the support model and the oracle accepts it"):
        start = time.monotonic()
        expected = {
            ("smember", ("x",)),
            ("rmember", ("a",)),
            ("rmember", ("b",)),
            ("support", ("x", "a")),
            ("support", ("x", "b")),
        }

        v1 = check_sat_a1(membership_t, "smember")
        cache = compile_units(membership_t).cache
        v2 = check_sat_a2(membership_t, "smember", cache)
        assert v1.kind is VerdictKind.SAT and v2.kind is VerdictKind.SAT
        for verdict in (v1, v2):
            interp = verdict.witness.induced_interpretation()
            # equality modulo renaming of anonymous elements: the single
            # anonymous root is named canonically, constants are fixed
            renamed = {
                (p, tuple("x" if a not in ("a", "b") else a for a in args))
                for p, args in interp.atoms
            }
            assert renamed == expected
            assert is_answer_set(membership, interp)
        assert time.monotonic() - start < 5.0


def test_criterion_2_loop_unsatisfiability(membership_loop):
    with criterion(2, "the self-support loop is UNSAT with the redundancy clash at the 6th node"):
        start = time.monotonic()
        assert redundancy_bound(len(membership_loop.upreds)) == 5

        v1 = check_sat_a1(membership_loop, "smember")
        cache = compile_units(membership_loop).cache
        v2 = check_sat_a2(membership_loop, "smember", cache)
        assert v1.kind is VerdictKind.UNSAT and v2.kind is VerdictKind.UNSAT
        assert any(
            e["equal_ancestors"] == 5 and e["chain_position"] == 6
            for e in v2.stats.redundancy_events
        )
        assert bounded_sat(membership_loop, "smember", 3) is None
        assert time.monotonic() - start < 30.0


def test_criterion_3_compiled_family_matches_golden(choice_chain, tmp_path):
    with criterion(3, "compiling the choice chain reproduces the three-structure family"):
        units = enumerate_unit_completions(choice_chain)
        pq = frozenset({Signed("p", True), Signed("q", False)})
        family = [u for u in units if u.root_content == pq]
        assert len(family) == 3
        shapes = {
            (s.node_content == pq, bool(s.paths))
            for u in family
            for s in u.successors
        }
        assert shapes == {(True, True), (False, True), (True, False)}
        cache = prune_redundant(units, choice_chain)
        retained_family = [u for u in cache.units if u.root_content == pq]
        assert len(retained_family) == 1
        survivor = retained_family[0]
        assert survivor.final
        (succ,) = survivor.successors
        assert succ.blocked and not succ.paths
        out = tmp_path / "choice_chain.units"
        save_cache(cache, out)
        assert out.read_bytes() == (GOLDEN / "choice_chain.units").read_bytes()


def test_criterion_4_final_units_are_complete_structures(corpus_run):
    with criterion(4, "every final unit on the corpus passes the completion check"):
        entries, _ = corpus_run
        finals = violations = 0
        for entry in entries:
            for unit in entry.units:
                if not unit.final:
                    continue
                finals += 1
                if not passes_a1_completion_check(entry.transformed, unit):
                    violations += 1
        assert finals > 0
        assert violations == 0


def test_criterion_5_engine_agreement(corpus_run):
    with criterion(5, "direct and compiled engines agree on every corpus predicate"):
        entries, _ = corpus_run
        checked = disagreements = 0
        for entry in entries:
            for pred in entry.program.upreds:
                checked += 1
                if entry.a1[pred].kind != entry.a2[pred].kind:
                    disagreements += 1
        assert checked >= 50
        assert disagreements == 0


def test_criterion_6_oracle_agreement(corpus_run):
    with criterion(6, "bounded oracle and engines never disagree in the sound direction"):
        entries, elapsed = corpus_run
        default_policy = RedundancyPolicy(time_limit=120)
        for entry in entries:
            for pred in entry.program.upreds:
                witness = entry.oracle[pred]
                for verdicts in (entry.a1, entry.a2):
                    verdict = verdicts[pred]
                    if witness is not None and verdict.kind is VerdictKind.UNSAT:
                        # the small override can prune real models; the
                        # sound default policy must then find the witness
                        rerun = (
                            check_sat_a1(entry.transformed, pred, default_policy)
                            if verdict.algorithm == "a1"
                            else check_sat_a2(
                                entry.transformed, pred, entry.cache, default_policy
                            )
                        )
                        assert rerun.kind is VerdictKind.SAT, (
                            pred,
                            entry.program.canonical_text(),
                        )
                    if verdict.kind is VerdictKind.SAT:
                        try:
                            interp = verdict.witness.induced_interpretation()
                        except StructureError:
                            continue  # blocked: stands for an infinite model
                        assert is_answer_set(entry.program, interp), (
                            pred,
                            entry.program.canonical_text(),
                        )
        assert elapsed < 600.0


def test_criterion_7_redundancy_is_a_strict_partial_order(corpus_run):
    with criterion(7, "unit redundancy is irreflexive and transitive; pruning is dominance-free"):
        entries, _ = corpus_run
        for entry in entries:
            units = entry.units
            for u in units:
                assert not is_redundant_ucs(u, u)
            related = [
                (a, b)
                for a in units
                for b in units
                if a is not b and is_redundant_ucs(a, b)
            ]
            by_first = {}
            for a, b in related:
                by_first.setdefault(id(a), set()).add(id(b))
            for a, b in related:
                for c in units:
                    if c is not b and id(c) in by_first.get(id(b), set()):
                        assert is_redundant_ucs(a, c)
            retained = entry.cache.units
            for a in retained:
                for b in retained:
                    if a is not b:
                        assert not is_redundant_ucs(a, b)


def test_redundancy_search_agrees_with_permutations(
    corpus_run, choice_chain, membership_t, membership_loop
):
    """The backtracking injection of `is_redundant_ucs` gives the verdict
    of the exhaustive permutation search on every ordered pair of
    enumerated units of the corpus, `programs/*.folp` and P_3."""
    unit_family_3 = enumerate_unit_completions(parse_program(unit_family(3)))
    assert len(unit_family_3) == 96
    unit_sets = [entry.units for entry in corpus_run[0]] + [
        enumerate_unit_completions(program)
        for program in (choice_chain, membership_t, membership_loop)
    ] + [unit_family_3]
    related = 0
    for units in unit_sets:
        for a in units:
            for b in units:
                expected = reference_is_redundant_ucs(a, b)
                assert is_redundant_ucs(a, b) == expected, (a, b)
                related += expected
    assert related > 0


def test_bucketed_pruning_retains_what_all_pairs_retain(corpus_run):
    """`prune_redundant`, which compares units only within buckets of
    equal root constant and root content, retains the same units in the
    same order as the comparison of every pair (`reference_retained`) on
    P_3 and on every corpus program."""
    family = parse_program(unit_family(3))
    unit_sets = [(family, enumerate_unit_completions(family))] + [
        (entry.transformed, entry.units) for entry in corpus_run[0]
    ]
    dropped = []
    for program, units in unit_sets:
        retained = prune_redundant(units, program).units
        assert list(map(id, retained)) == list(map(id, reference_retained(units)))
        dropped.append(len(units) - len(retained))
    assert dropped[0] == 96 - 58 and sum(dropped[1:]) > 0


def test_criterion_8_compiled_engine_amortizes(tmp_path, capsys):
    with criterion(8, "compile-once plus five queries beats five direct queries"):
        from folp.cli import main

        family_dir = tmp_path / "family"
        family_dir.mkdir()
        (family_dir / "family.folp").write_text(bench_family())
        # one timed run flips the gate on a noisy machine; three do not
        a1_runs, a2_runs = [], []
        for _ in range(3):
            code = main(["bench", str(family_dir), "--format", "machine"])
            out = capsys.readouterr().out
            assert code == 0
            (row,) = [json.loads(line) for line in out.splitlines() if line.strip()]
            assert row["status"] == "ok"
            assert row["agree"] is True
            verdicts = dict(part.split("=") for part in row["verdicts"].split())
            assert len(verdicts) == 5
            a1_runs.append(row["a1_seconds"])
            a2_runs.append(row["a2_compile_seconds"] + row["a2_query_seconds"])
        a1_total = statistics.median(a1_runs)
        a2_total = statistics.median(a2_runs)
        record = {
            "a1_seconds": a1_total,
            "a2_total_seconds": round(a2_total, 4),
            "ratio": round(a2_total / a1_total, 3) if a1_total else None,
        }
        print(f"ACCEPTANCE 8 timing: {json.dumps(record, sort_keys=True)}")
        assert a2_total <= a1_total, record
        # the same claim in work instead of seconds, which no machine moves
        family = eliminate_constraints(parse_program(bench_family()))
        cache = compile_units(family).cache
        a1_tasks = sum(check_sat_a1(family, p).stats.tasks for p in family.upreds)
        a2_tasks = sum(check_sat_a2(family, p, cache).stats.tasks for p in family.upreds)
        print(f"ACCEPTANCE 8 tasks: a1 {a1_tasks}, a2 {a2_tasks}")
        assert a2_tasks < a1_tasks


def test_corpus_is_pinned():
    """The acceptance corpus is the same programs on every machine and
    under every hash seed: its candidates are budgeted by tasks, not by
    wall-clock time."""
    programs = corpus(count=50, seed=CORPUS_SEED)
    text = "".join(program.canonical_text() for program in programs)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == CORPUS_SHA256


# SHA-256 of `search_outputs` over the pinned workloads below and the
# corpus, sorted-key JSON: every query's verdict record under both
# engines, with its redundancy events, units used and DOT witness; the
# search statistics in it are those of the backjumping search
SEARCH_RECORDS_SHA256 = "367b9ad0a0247851c52709ad49921dd8390660f94bdb518f8e31263c12123ed0"


def pinned_workloads(hard, deep, family, entries) -> list:
    """(program the engines read, queries, policy) of the hard, deep and
    family programs at their benchmark bounds and of every corpus
    program under the corpus run's policy; every unary predicate is a
    query."""
    corpus_policy = RedundancyPolicy(k_override=5, time_limit=120)
    return [
        (hard, hard.upreds, RedundancyPolicy(k_override=5)),
        (deep, deep.upreds, RedundancyPolicy(k_override=28)),
        (family, family.upreds, RedundancyPolicy()),
    ] + [(e.transformed, e.program.upreds, corpus_policy) for e in entries]


def search_outputs(workloads, tmp_path) -> tuple[list, list]:
    """Both engines' answers to every query of `workloads`: per query and
    engine the verdict record with the redundancy events, the units used
    and the witness's DOT text; per program, the saved unit cache."""
    records, caches = [], []
    path = tmp_path / "cache.units"
    for program, queries, policy in workloads:
        cache = compile_units(program).cache
        save_cache(cache, path)
        caches.append(path.read_text(encoding="utf-8"))
        for pred in queries:
            for verdict in (
                check_sat_a1(program, pred, policy),
                check_sat_a2(program, pred, cache, policy),
            ):
                record = verdict.to_record()
                record["redundancy_events"] = verdict.stats.redundancy_events
                record["units_used"] = sorted(verdict.stats.units_used)
                record["witness"] = verdict.witness and verdict.witness.to_dot()
                records.append(record)
    return records, caches


def test_every_query_record_is_pinned(hard, deep, family, corpus_run, tmp_path):
    """One digest pins every search of the workloads, statistics,
    redundancy events, units used and witnesses included."""
    records, _ = search_outputs(pinned_workloads(hard, deep, family, corpus_run[0]), tmp_path)
    assert len(records) == 2 * (3 + 3 + 5 + sum(len(e.program.upreds) for e in corpus_run[0]))
    text = json.dumps(records, sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == SEARCH_RECORDS_SHA256


# Small programs whose searches jump where an unsound set would skip an
# alternative that succeeds, so that the replay check catches it. In
# the first, the a1 search of q meets dead ends before the depth bound
# prunes: jumping then would hide the prune. In the second, the root's
# child, which holds e, is unblocked while the root holds `not e` and
# then fails for want of a grandchild; with e at the root the child is
# blocked and p is satisfied, so the child's dead end must keep the
# root's choice of `not e`, which is why the child is unblocked.
BACKJUMP_TRAPS = (
    (
        "p(X) :- p(X), not q(X), f(X,a), p(a), p(a), f(X,Z), not p(Z).\n"
        ":- not q(X), not p(X), f(X,Y), f(X,Z), p(Z).\n"
        "p(b).\n",
        "q",
        RedundancyPolicy(k_override=5),
    ),
    (
        "f(X,Y) v not f(X,Y).\n"
        "e(X) v not e(X).\n"
        "p(X) :- f(X,Y), g(Y).\n"
        "g(X) :- f(X,Y), g(Y).\n"
        "p(X) :- f(X,Y), e(Y).\n"
        ":- e(X), not p(X).\n",
        "p",
        RedundancyPolicy(),
    ),
)


def test_backjumps_skip_only_alternatives_that_fail(
    hard, deep, family, corpus_run, monkeypatch, tmp_path
):
    """Backjumping skips only alternatives that the chronological search
    would exhaust: at every jump of either engine, each untried
    alternative of each frame the jump leaves is run by the
    chronological search (`checked_backjumps`), and fails and leaves
    `pruned` as it was; unit enumeration, which has no depth bound and
    so never prunes, makes no jump. Checked on every query of the
    workloads and of `programs/*.folp`, and on `BACKJUMP_TRAPS`; the
    answers, units and witnesses are those of the unchecked search."""
    programs = [load(path.name) for path in sorted(PROGRAMS.glob("*.folp"))]
    workloads = pinned_workloads(hard, deep, family, corpus_run[0]) + [
        (eliminate_constraints(p), p.upreds, RedundancyPolicy()) for p in programs
    ] + [
        (eliminate_constraints(parse_program(text)), [pred], policy)
        for text, pred, policy in BACKJUMP_TRAPS
    ]
    expected = search_outputs(workloads, tmp_path)
    checked = checked_backjumps()
    monkeypatch.setattr(tableau, "Search", checked)
    assert search_outputs(workloads, tmp_path) == expected
    print("jumps, alternatives replayed:", checked.jumps, checked.replays)
    assert checked.jumps > 100 and checked.replays > checked.jumps


def test_prechecks_answer_as_the_mutating_references(
    hard, deep, family, corpus_run, monkeypatch, tmp_path
):
    """The engines refute a doomed rule application or graft before it
    changes the state; engines that make every one and let the mutation
    raise (`ReferenceA1`, `ReferenceA2`) give the same verdict records,
    redundancy events, units used and tried, witnesses and unit caches on
    every query of the workloads."""
    workloads = pinned_workloads(hard, deep, family, corpus_run[0])
    expected = search_outputs(workloads, tmp_path)
    monkeypatch.setattr(tableau, "A1CompletionStructure", ReferenceA1)
    monkeypatch.setattr(units_module, "A1CompletionStructure", ReferenceA1)
    monkeypatch.setattr(matcher, "A2CompletionStructure", ReferenceA2)
    assert search_outputs(workloads, tmp_path) == expected


def test_prechecks_agree_with_the_mutation_at_every_step(
    hard, deep, family, corpus_run, monkeypatch, tmp_path
):
    """Every positive rule application of a1 and every match of a2, unit
    compilation included, is made by the reference first and then by the
    engine (`checked_refutations_a1`, `checked_refutations_a2`): the
    same clash message, statistics and end state each time, and an a1
    clash only before any mutation. On every workload the a2 pre-check
    refutes every match that the whole graft ends in the redundancy
    clash at the matched node, and on hard, deep and family a1 makes
    applications on ground plans built before. Every equal-ancestor walk
    that either engine leaves out is at a node with fewer than k proper
    ancestors, where a fresh count is below k, and both leave some out
    on every workload."""
    workloads = pinned_workloads(hard, deep, family, corpus_run[0])
    expected_records, expected_caches = search_outputs(workloads, tmp_path)
    records, caches, counts, hits, skips = [], [], [], [], []
    # hard, deep, family, then the corpus, each counted on its own
    for group in (workloads[:1], workloads[1:2], workloads[2:3], workloads[3:]):
        checked1, checked2 = checked_refutations_a1(), checked_refutations_a2()
        monkeypatch.setattr(tableau, "A1CompletionStructure", checked1)
        monkeypatch.setattr(units_module, "A1CompletionStructure", checked1)
        monkeypatch.setattr(matcher, "A2CompletionStructure", checked2)
        group_records, group_caches = search_outputs(group, tmp_path)
        records += group_records
        caches += group_caches
        counts.append((checked1.refuted, checked2.doomed, checked2.refuted))
        hits.append((checked1.applications, checked1.plan_hits))
        skips.append((checked1.skips, checked2.skips))
    assert (records, caches) == (expected_records, expected_caches)
    print("refuted by a1, doomed in a2, refuted by a2:", counts)
    print("a1 applications, on a plan built before:", hits)
    print("walks left out by a1, a2:", skips)
    assert all(a1 > 0 and doomed == refuted for a1, doomed, refuted in counts)
    assert counts[0][2] == 731
    assert all(plan_hits > 0 for _, plan_hits in hits[:3])
    assert all(a1 > 0 and a2 > 0 for a1, a2 in skips)


def test_match_lists_agree_with_a_fresh_scan_of_the_cache(
    hard, deep, family, corpus_run, monkeypatch, tmp_path
):
    """Every a2 match is checked against a fresh scan of the cached units
    (`checked_matches_a2`): the same units in the same order, filtered
    by the depth bound, `units_tried` grown by their number and the
    same `pruned`, and the same search outputs. On hard and family,
    matches are answered from lists built before. After every graft
    that goes ahead below the redundancy bound, the fail-fast test
    raises exactly for the first ungrafted, unblocked successor that a
    fresh scan finds no unit for; every workload group has such grafts,
    and on the corpus the test raises."""
    workloads = pinned_workloads(hard, deep, family, corpus_run[0])
    expected = search_outputs(workloads, tmp_path)
    records, caches, counts = [], [], []
    # hard, deep, family, then the corpus, each counted on its own
    for group in (workloads[:1], workloads[1:2], workloads[2:3], workloads[3:]):
        checked = checked_matches_a2()
        monkeypatch.setattr(matcher, "A2CompletionStructure", checked)
        group_records, group_caches = search_outputs(group, tmp_path)
        records += group_records
        caches += group_caches
        counts.append(
            (checked.matches, checked.builds, checked.hits, checked.fail_fast, checked.uncovered)
        )
    assert (records, caches) == expected
    print("matches, lists built, hits, fail-fast tests, uncovered:", counts)
    assert all(matches > 0 and fail_fast > 0 for matches, _, _, fail_fast, _ in counts)
    assert counts[0][2] > 0 and counts[2][2] > 0
    assert counts[3][4] > 0


def test_compiled_grafts_agree_with_the_entry_by_entry_graft(
    hard, deep, family, corpus_run, monkeypatch, tmp_path
):
    """Every a2 graft is made entry by entry first (`reference_graft`)
    and then from its plan (`checked_grafts_a2`): the same clash message,
    statistics, end state and successors each time, and the same search
    outputs. On hard, 18 grafts end in a dependency cycle, which only
    the per-arc fallback raises; on family, plans are reused."""
    workloads = pinned_workloads(hard, deep, family, corpus_run[0])
    expected = search_outputs(workloads, tmp_path)
    records, caches, counts = [], [], []
    # hard, deep, family, then the corpus, each counted on its own
    for group in (workloads[:1], workloads[1:2], workloads[2:3], workloads[3:]):
        checked = checked_grafts_a2()
        monkeypatch.setattr(matcher, "A2CompletionStructure", checked)
        group_records, group_caches = search_outputs(group, tmp_path)
        records += group_records
        caches += group_caches
        counts.append((checked.grafts, checked.cycles, checked.plan_hits))
    assert (records, caches) == expected
    print("grafts, cycles, plan hits:", counts)
    assert all(grafts > 0 for grafts, _, _ in counts)
    assert counts[0][1] == 18
    assert counts[2][2] > 0


def test_mutations_keep_the_precondition_of_the_scan(
    hard, deep, family, corpus_run, monkeypatch, tmp_path
):
    """The resume point changes only through its own writes and the
    trail; it stays exact, and unblocked, because every new content
    entry lands at the resume point or after it. Both engines and unit
    enumeration keep this at every new entry on every workload
    (`checked_landings`), and the searches come out as before."""
    workloads = pinned_workloads(hard, deep, family, corpus_run[0])
    expected = search_outputs(workloads, tmp_path)
    records, caches, counts = [], [], []
    # hard, deep, family, then the corpus, each counted on its own
    for group in (workloads[:1], workloads[1:2], workloads[2:3], workloads[3:]):
        a1 = checked_landings(A1CompletionStructure)
        enumeration = checked_landings(A1CompletionStructure)
        a2 = checked_landings(A2CompletionStructure)
        monkeypatch.setattr(tableau, "A1CompletionStructure", a1)
        monkeypatch.setattr(units_module, "A1CompletionStructure", enumeration)
        monkeypatch.setattr(matcher, "A2CompletionStructure", a2)
        group_records, group_caches = search_outputs(group, tmp_path)
        records += group_records
        caches += group_caches
        counts.append((a1.landings, enumeration.landings, a2.landings))
    assert (records, caches) == expected
    print("new entries checked in a1, unit enumeration, a2:", counts)
    assert all(count > 0 for group in counts for count in group)


def test_oracle_witnesses_match_their_definition_on_corpus(corpus_run):
    """Every bounded-oracle answer of the corpus run is the first answer
    set, in `answer_sets` order, that holds an atom of the predicate,
    over universes up to the oracle size."""
    entries, _ = corpus_run
    queries = witnesses = 0
    for entry in entries:
        for pred in entry.program.upreds:
            expected = reference_bounded_sat(entry.program, pred, ORACLE_SIZE)
            assert entry.oracle[pred] == expected, (pred, entry.program.canonical_text())
            queries += 1
            witnesses += expected is not None
    assert queries >= 50 and witnesses >= 10


def _finite_witnesses(verdicts):
    """The induced interpretations of the SAT verdicts whose witness has
    no blocking pair."""
    for verdict in verdicts:
        if verdict.kind is VerdictKind.SAT:
            try:
                yield verdict.witness.induced_interpretation()
            except StructureError:
                pass  # blocked: the witness stands for an infinite model


def _perturbations(program, interp, rng):
    """Seeded one-atom changes of an interpretation: one atom dropped, and
    one absent atom added of a unary predicate, of a binary predicate and
    of a predicate that no rule mentions."""
    elements = interp.universe.elements
    atoms = sorted(interp.atoms)
    changed = []
    if atoms:
        changed.append(interp.atoms - {rng.choice(atoms)})
    for candidates in (
        [(p, (e,)) for p in program.upreds for e in elements],
        [(p, (e, d)) for p in program.bpreds for e in elements for d in elements],
        [("unmentioned", (e,)) for e in elements],
    ):
        absent = [a for a in candidates if a not in interp.atoms]
        if absent:
            changed.append(interp.atoms | {rng.choice(absent)})
    return [OpenInterpretation(interp.universe, frozenset(a)) for a in changed]


def test_witness_check_agrees_with_the_reference_route(hard, deep, family, corpus_run):
    """`is_answer_set`, which checks on atom ids, answers as the route
    through ground rules, their reduct and its least model
    (`reference_is_answer_set`) on every finite engine witness of the
    hard, deep and family programs at their benchmark bounds, of the
    corpus run and of `programs/*.folp`, and on seeded one-atom
    perturbations of each. Every witness is accepted, and the
    perturbations give both answers."""
    witnesses = []  # (the program the oracle reads, interpretation)
    engine_runs = [
        (hard, hard, RedundancyPolicy(k_override=5)),
        (deep, deep, RedundancyPolicy(k_override=28)),
        (family, family, RedundancyPolicy()),
    ]
    for path in sorted(PROGRAMS.glob("*.folp")):
        program = parse_program(path.read_text(encoding="utf-8"))
        engine_runs.append((program, eliminate_constraints(program), RedundancyPolicy()))
    for program, transformed, policy in engine_runs:
        cache = compile_units(transformed).cache
        for pred in program.upreds:
            verdicts = (
                check_sat_a1(transformed, pred, policy),
                check_sat_a2(transformed, pred, cache, policy),
            )
            witnesses += [(program, w) for w in _finite_witnesses(verdicts)]
    for entry in corpus_run[0]:
        for pred in entry.program.upreds:
            verdicts = (entry.a1[pred], entry.a2[pred])
            witnesses += [(entry.program, w) for w in _finite_witnesses(verdicts)]
    rng = random.Random(20261021)
    answers = {True: 0, False: 0}
    for program, witness in witnesses:
        assert is_answer_set(program, witness) and reference_is_answer_set(program, witness)
        for interp in _perturbations(program, witness, rng):
            answer = is_answer_set(program, interp)
            assert answer == reference_is_answer_set(program, interp), (
                program.canonical_text(), sorted(interp.atoms))
            answers[answer] += 1
    print("witnesses:", len(witnesses), "perturbations accepted, rejected:", answers)
    assert len(witnesses) > 50 and answers[True] > 0 and answers[False] > 0


def test_saturation_and_scan_match_recomputation_on_corpus(corpus_run, monkeypatch):
    """At every task selection of every corpus search of both engines,
    the resume node is unblocked, the resumed scan agrees with a full
    uncached scan and `is_saturated` with a full recomputation at every
    node; the instance cache agrees at every negative expansion, unit
    enumeration included, and the searches come out as before."""
    checked = checked_a1()
    checked2 = checked_a2()
    monkeypatch.setattr(tableau, "A1CompletionStructure", checked)
    monkeypatch.setattr(units_module, "A1CompletionStructure", checked)
    monkeypatch.setattr(matcher, "A2CompletionStructure", checked2)
    policy = RedundancyPolicy(k_override=5, time_limit=120)
    entries, _ = corpus_run
    for entry in entries:
        assert enumerate_unit_completions(entry.transformed) == entry.units
        for pred, verdict in entry.a1.items():
            again = check_sat_a1(entry.transformed, pred, policy)
            assert again.to_record() == verdict.to_record()
        for pred, verdict in entry.a2.items():
            again = check_sat_a2(entry.transformed, pred, entry.cache, policy)
            assert again.to_record() == verdict.to_record()
    assert checked.checks > 0 and checked.scans > 0 and checked2.scans > 0
    assert checked.pending_checks > 0

import json
import os
import subprocess
import sys

from folp import units as units_module
from folp.cli import main
from folp.matcher import check_sat_a2
from folp.syntax import eliminate_constraints, parse_program
from folp.tableau import check_sat_a1
from folp.units import compile_units

from conftest import GOLDEN, PROGRAMS, ROOT
from corpus import bench_family

MEMBERSHIP = str(PROGRAMS / "membership.folp")
LOOP = str(PROGRAMS / "membership_loop.folp")
CHAIN = str(PROGRAMS / "choice_chain.folp")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def records(out):
    return [json.loads(line) for line in out.splitlines() if line.strip()]


def test_check_satisfiable_exits_zero(capsys):
    code, out, _ = run(capsys, "check", MEMBERSHIP, "smember", "--alg", "both")
    assert code == 0
    assert "a1: SAT" in out and "a2: SAT" in out
    assert "oracle accepts witness: yes" in out


def test_check_text_stat_lines_are_pinned(capsys):
    """The bracketed counts of the text verdict lines name the fields of
    the verdict record; only a2 reports unit counts."""
    code, out, _ = run(capsys, "check", MEMBERSHIP, "smember", "--alg", "both")
    assert code == 0
    assert [line for line in out.splitlines() if "[" in line] == [
        "a1: SAT  [nodes=0 choices=29 backtracks=57 depth=0]",
        "a2: SAT  [nodes=0 choices=1 backtracks=0 depth=0"
        " units-tried=5 matches=5 reuse=0]",
    ]
    code, out, _ = run(capsys, "check", LOOP, "smember", "--alg", "both")
    assert code == 1
    assert [line for line in out.splitlines() if "[" in line] == [
        "a1: UNSAT  [nodes=13 choices=0 backtracks=17 depth=6]",
        "a2: UNSAT  [nodes=13 choices=0 backtracks=17 depth=6"
        " units-tried=13 matches=13 reuse=12]",
    ]


def test_check_unsatisfiable_exits_one(capsys):
    code, out, _ = run(capsys, "check", LOOP, "smember")
    assert code == 1
    assert "UNSAT" in out


def test_check_depth_bounded_unknown_exits_two(capsys):
    code, out, _ = run(capsys, "check", LOOP, "smember", "--max-depth", "2")
    assert code == 2
    assert "DEPTH_BOUNDED_UNKNOWN" in out


def test_check_missing_file_exits_three(capsys):
    code, _, err = run(capsys, "check", "no/such/file.folp", "smember")
    assert code == 3
    assert "cannot read" in err


def test_program_not_utf8_exits_three_and_is_a_bench_error(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    path = corpus / "latin1.folp"
    path.write_bytes("p(X) :- q(X). % caf\xe9\n".encode("latin-1"))
    code, _, err = run(capsys, "check", str(path), "p")
    assert code == 3
    assert "cannot read" in err
    code, out, _ = run(capsys, "bench", str(corpus), "--format", "machine")
    assert code == 0
    (row,) = records(out)
    assert row["status"] == "error" and "cannot read" in row["verdicts"]


def test_bench_corpus_not_a_directory_exits_three(tmp_path, capsys):
    code, out, err = run(capsys, "bench", str(tmp_path / "no" / "such"))
    assert code == 3 and out == ""
    assert "not a directory" in err
    code, out, _ = run(capsys, "bench", MEMBERSHIP)
    assert code == 3 and out == ""


def test_output_path_in_a_missing_directory_exits_three(tmp_path, capsys):
    """An output file that cannot be written is an input error with one
    message, not a traceback with the UNSAT code."""
    missing = tmp_path / "no" / "such"
    for argv in (
        ["check", MEMBERSHIP, "smember", "--dot", str(missing / "w.dot")],
        ["export-dot", MEMBERSHIP, "smember", "--out", str(missing / "w.dot")],
        ["compile-units", MEMBERSHIP, "--out", str(missing / "m.units")],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 3, argv
        assert err.count("cannot write") == 1 and str(missing) in err, argv
    assert not missing.exists()


def test_verify_with_a_constant_named_x(tmp_path, capsys):
    """A constant named x moves the anonymous root to x1, and r's
    inequality holds a constant; both engines and the oracle agree."""
    path = tmp_path / "x.folp"
    path.write_text(
        "p(x).\n"
        "f(X,Y) v not f(X,Y).\n"
        "q(X) :- f(X,Y), p(Y).\n"
        "r(X) :- f(X,Y), f(X,x), p(Y), Y != x.\n"
    )
    for pred, verdict in (("p", "SAT"), ("q", "SAT"), ("r", "UNSAT")):
        code, out, _ = run(capsys, "verify", str(path), pred, "--format", "machine")
        (record,) = records(out)
        assert code == 0 and record["consistent"], record
        assert (record["a1"], record["a2"]) == (verdict, verdict), record
    code, out, _ = run(capsys, "check", str(path), "q", "--format", "machine")
    assert code == 0
    witnesses = [r for r in records(out) if r["record"] == "witness"]
    assert [w["elements"] for w in witnesses] == [["x1", "x"], ["x1", "x"]]


def test_check_parse_error_exits_three(tmp_path, capsys):
    path = tmp_path / "broken.folp"
    path.write_text("p(X) :- q(X\n")
    code, _, err = run(capsys, "check", str(path), "p")
    assert code == 3
    assert "parse errors" in err


def test_check_invalid_program_exits_three(tmp_path, capsys):
    path = tmp_path / "invalid.folp"
    path.write_text("p(X) :- not f(X,Y).\n")
    code, _, err = run(capsys, "check", str(path), "p")
    assert code == 3
    assert "not a valid forest logic program" in err


def test_check_unknown_predicate_exits_three(capsys):
    code, _, err = run(capsys, "check", MEMBERSHIP, "nosuch")
    assert code == 3


def test_check_machine_output_is_stable_json(capsys):
    code1, out1, _ = run(capsys, "check", MEMBERSHIP, "smember",
                         "--alg", "both", "--format", "machine")
    code2, out2, _ = run(capsys, "check", MEMBERSHIP, "smember",
                         "--alg", "both", "--format", "machine")
    assert code1 == code2 == 0
    assert out1 == out2
    recs = records(out1)
    verdicts = [r for r in recs if r["record"] == "verdict"]
    assert [v["algorithm"] for v in verdicts] == ["a1", "a2"]
    assert all(v["verdict"] == "SAT" for v in verdicts)
    witnesses = [r for r in recs if r["record"] == "witness"]
    assert all(w["oracle_accepted"] for w in witnesses)
    assert all(json.dumps(r, sort_keys=True) == json.dumps(r) for r in recs)


def test_compile_units_summary(tmp_path, capsys):
    out_path = tmp_path / "chain.units"
    code, out, _ = run(capsys, "compile-units", CHAIN, "--out", str(out_path),
                       "--format", "machine")
    assert code == 0
    (rec,) = records(out)
    assert rec["record"] == "compile-units"
    assert rec["retained"] == rec["enumerated"] - rec["redundant"]
    assert rec["enumerated"] == 7 and rec["retained"] == 4
    assert out_path.exists()


def test_check_a2_accepts_precompiled_cache(tmp_path, capsys):
    out_path = tmp_path / "chain.units"
    run(capsys, "compile-units", CHAIN, "--out", str(out_path))
    code, out, _ = run(capsys, "check", CHAIN, "p", "--alg", "a2",
                       "--cache", str(out_path))
    assert code == 0
    assert "a2: SAT" in out


def test_check_a2_without_cache_requires_auto(capsys):
    code, _, err = run(capsys, "check", CHAIN, "p", "--alg", "a2",
                       "--no-auto-cache")
    assert code == 3
    assert "--cache" in err


def test_check_a2_malformed_cache_exits_three(tmp_path, capsys):
    out_path = tmp_path / "chain.units"
    run(capsys, "compile-units", CHAIN, "--out", str(out_path))
    out_path.write_text(out_path.read_text().replace("count: 4", "count: many"))
    code, out, err = run(capsys, "check", CHAIN, "p", "--alg", "a2",
                         "--cache", str(out_path))
    assert (code, out) == (3, "")
    assert "malformed cache file" in err


def test_check_a2_rejects_units_that_enumeration_cannot_make(tmp_path, capsys):
    """The compiled engine trusts each unit to have consistent contents
    and acyclic arcs from positive entries over its root to positive
    entries: a cache whose final unit breaks this is an input error
    (exit 3). The golden cache itself still loads and answers SAT."""
    golden = (GOLDEN / "choice_chain.units").read_text()
    head, last = golden.rsplit("\nunit\n", 1)
    edits = [
        (
            last.replace("garc: p(@) -> f(@,@.1)\n",
                         "garc: f(@,@.1) -> p(@)\ngarc: p(@) -> f(@,@.1)\n"),
            "unit arcs close a cycle: f(@,@.1) -> p(@), p(@) -> f(@,@.1)",
        ),
        (
            last.replace("content: p, not q\n", "content: p, not p, not q\n", 1),
            "inconsistent unit content 'p, not p, not q'",
        ),
    ]
    path = tmp_path / "chain.units"
    for edited, message in edits:
        assert edited != last
        path.write_text(f"{head}\nunit\n{edited}")
        code, out, err = run(capsys, "check", CHAIN, "p", "--alg", "a2",
                             "--cache", str(path), "--format", "machine")
        assert (code, out) == (3, ""), message
        assert message in err
    code, out, _ = run(capsys, "check", CHAIN, "p", "--alg", "a2",
                       "--cache", str(GOLDEN / "choice_chain.units"), "--format", "machine")
    assert code == 0
    assert records(out)[0] == {
        "algorithm": "a2", "backtracks": 1, "bounded_incomplete": False,
        "choice_points": 1, "max_depth": 1, "nodes_created": 2, "predicate": "p",
        "record": "verdict", "redundancy_clashes": 0, "tasks": 2, "unit_matches": 2,
        "clashes": {"contradiction": 0, "dependency_cycle": 0, "no_unit": 1, "redundancy": 0},
        "skipped": 0, "unit_reuse": 0, "units_tried": 4, "verdict": "SAT",
    }


def test_check_a2_rejects_units_that_name_constants_the_program_lacks(tmp_path, capsys):
    """A cache is how units arrive from outside the program: a unit whose
    root or constant successor is no constant of the program is an input
    error (exit 3). Such units made a2 say SAT and then fail the witness
    check on an atom outside the universe (no arc), say UNSAT where a1
    says SAT (root), or fail inside the search (arc). The cache as
    compiled still answers SAT."""
    path = tmp_path / "membership.units"
    assert run(capsys, "compile-units", MEMBERSHIP, "--out", str(path))[0] == 0
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
        code, out, err = run(capsys, "check", MEMBERSHIP, "smember", "--alg", "a2",
                             "--cache", str(path), "--format", "machine")
        assert (code, out) == (3, ""), edit
        assert "unit names the constant 'zz', which the program lacks" in err, edit
    path.write_text(compiled, encoding="utf-8")
    code, out, _ = run(capsys, "check", MEMBERSHIP, "smember", "--alg", "a2",
                       "--cache", str(path), "--format", "machine")
    assert code == 0 and records(out)[0]["verdict"] == "SAT"


# a is free; b(x) needs a(x) and the absence of b(x), so b is
# unsatisfiable and its only unit holds not a, not b
SELF_DEFEATING = "a(X) v not a(X).\nb(X) :- a(X), not b(X).\n"


def with_unit(cache: str, unit: str) -> str:
    """The cache text with one more unit, counted."""
    count = int(cache.split("count: ", 1)[1].split("\n", 1)[0])
    return cache.replace(f"count: {count}\n", f"count: {count + 1}\n", 1) + f"\nunit\n{unit}end\n"


def test_check_a2_rejects_units_no_structure_of_the_program_can_be(tmp_path, capsys):
    """A unit is a saturated depth-1 structure of its program: its root
    content holds one sign of each unary predicate, node contents name
    only unary predicates, an arc's content holds one sign of each binary
    predicate, a tree successor's arc a positive one, and a successor
    without an arc has no arc content. A cache with a unit that breaks
    this is an input error (exit 3). The first edit made a2 say SAT with
    the witness b(x), which the oracle rejects, where a1 says UNSAT; the
    last four made it fail an assertion in the completion audit."""
    program = tmp_path / "b.folp"
    program.write_text(SELF_DEFEATING, encoding="utf-8")
    path = tmp_path / "b.units"
    assert run(capsys, "compile-units", str(program), "--out", str(path))[0] == 0
    compiled = path.read_text(encoding="utf-8")
    golden = (GOLDEN / "choice_chain.units").read_text(encoding="utf-8")
    node = "node-content: not p, not q\n"
    successor = ("unit successor @.1 has node content {!r} and arc content {!r}: "
                 "a node content names only unary predicates")
    edits = [
        (program, with_unit(compiled, "root: @\ncontent: b\nfinal: yes\n"),
         "unit root content 'b' does not hold one sign of each unary predicate"),
        (CHAIN, golden.replace(node, "node-content: f, not p, not q\n", 1),
         successor.format("f, not p, not q", "f")),
        (CHAIN, golden.replace(node, "node-content: not p, not q, r\n", 1),
         successor.format("not p, not q, r", "f")),
        (CHAIN, golden.replace("arc-content: f\n", "arc-content: f, p\n", 1),
         successor.format("not p, not q", "f, p")),
        (CHAIN, with_unit(golden, "root: @\ncontent: p, q\nfinal: yes\nsucc: @.1 arc blocked\n"
                          "arc-content: \nnode-content: \npaths: \n"),
         successor.format("", "")),
        (CHAIN, with_unit(golden, "root: @\ncontent: p, q\nfinal: yes\nsucc: @.1 noarc open\n"
                          "arc-content: f\nnode-content: \npaths: \n"),
         successor.format("", "f")),
        (CHAIN, with_unit(golden, "root: @\ncontent: p, q\nfinal: yes\nsucc: @.1 noarc open\n"
                          "arc-content: \nnode-content: \npaths: \n"),
         successor.format("", "")),
        (CHAIN, with_unit(golden, "root: @\ncontent: p, q\nfinal: yes\nsucc: @.1 arc open\n"
                          "arc-content: not f\nnode-content: \npaths: \n"),
         successor.format("", "not f")),
    ]
    for source, edited, message in edits:
        path.write_text(edited, encoding="utf-8")
        code, out, err = run(capsys, "check", str(source), "p" if source == CHAIN else "b",
                             "--alg", "a2", "--cache", str(path), "--format", "machine")
        assert (code, out) == (3, ""), message
        assert message in err


def test_check_exits_four_when_the_oracle_rejects_a_witness(tmp_path, capsys, monkeypatch):
    """A SAT witness that the oracle rejects is an inconsistency (exit 4)
    for `check` as it is for `verify`, and `check` says so in an error
    record. The unit added here is total, but it holds b without its
    support: `UnitCache.verify` refuses it (exit 3), so its rule check
    is switched off here, and a2 grafts the unit for b."""
    program = tmp_path / "b.folp"
    program.write_text(SELF_DEFEATING, encoding="utf-8")
    path = tmp_path / "b.units"
    assert run(capsys, "compile-units", str(program), "--out", str(path))[0] == 0
    cache = path.read_text(encoding="utf-8")
    path.write_text(with_unit(cache, "root: @\ncontent: b, not a\nfinal: yes\n"), encoding="utf-8")
    argv = ["check", str(program), "b", "--alg", "a2", "--cache", str(path)]
    assert run(capsys, *argv, "--format", "machine")[:2] == (3, "")
    monkeypatch.setattr(units_module, "_check_unit_justified", lambda unit, program: None)
    code, out, _ = run(capsys, *argv, "--format", "machine")
    assert code == 4
    verdict, witness, error = records(out)
    assert verdict["verdict"] == "SAT"
    assert (witness["atoms"], witness["oracle_accepted"]) == (["b(x)"], False)
    assert error == {"record": "error", "error": "oracle rejected witness", "algorithms": ["a2"]}
    code, out, _ = run(capsys, *argv)
    assert code == 4
    assert out.endswith("oracle accepts witness: NO\nfatal: the oracle rejects the witness of a2\n")
    code, out, _ = run(capsys, "verify", str(program), "b", "--cache", str(path),
                       "--format", "machine")
    (record,) = records(out)
    assert code == 4 and record["witness_checks"] == {"a2": "REJECTED"}
    path.write_text(cache, encoding="utf-8")
    code, out, _ = run(capsys, *argv, "--format", "machine")
    assert code == 1 and [r["record"] for r in records(out)] == ["verdict"]


def test_check_a2_rejects_units_the_rules_do_not_justify(tmp_path, capsys):
    """A loaded unit's root must be saturated by the program's rules: a
    positive non-free entry at the root or on a root arc needs a rule
    instance whose body the unit holds, with the dependency arcs from
    the head to its positive body atoms; a negative one needs every
    instance refuted by a literal whose negation the unit holds; and
    each successor's path set and blocked flag are those its arcs give.
    A cache with a unit that breaks this is an input error (exit 3),
    checked once per loaded cache."""
    program = tmp_path / "b.folp"
    program.write_text(SELF_DEFEATING, encoding="utf-8")
    path = tmp_path / "b.units"
    assert run(capsys, "compile-units", str(program), "--out", str(path))[0] == 0
    compiled = path.read_text(encoding="utf-8")
    golden = (GOLDEN / "choice_chain.units").read_text(encoding="utf-8")
    first = ("content: p, q\nfinal: no\nsucc: @.1 arc open\narc-content: f\n"
             "node-content: not p, not q\npaths: \ngarc: p(@) -> f(@,@.1)\n"
             "garc: q(@) -> f(@,@.1)\n")
    assert first in golden
    unjustified = "unit entry {} at @ of a unit with root content {!r} is not justified"
    edits = [
        (program, "b", with_unit(compiled, "root: @\ncontent: b, not a\nfinal: yes\n"),
         unjustified.format("b", "not a, b")),
        # q's instance over @.1 holds: f on the arc, not p at @.1
        (CHAIN, "p", golden.replace(first, first.replace("content: p, q", "content: p, not q")
                                    .replace("garc: q(@) -> f(@,@.1)\n", ""), 1),
         unjustified.format("not q", "p, not q")),
        # p's instance over @.1 holds, but its arc to f(@,@.1) is gone
        (CHAIN, "p", golden.replace(first, first.replace("garc: p(@) -> f(@,@.1)\n", ""), 1),
         unjustified.format("p", "p, q")),
        (CHAIN, "p", golden.replace("paths: p->p\n", "paths: \n", 1),
         "unit successor @.1 has the path set and blocked flag none / open"),
        (CHAIN, "p", golden.replace(first, first.replace("arc open", "arc blocked")
                                    .replace("final: no", "final: yes"), 1),
         "unit successor @.1 has the path set and blocked flag none / blocked"),
    ]
    for source, pred, edited, message in edits:
        assert edited not in (compiled, golden), message
        path.write_text(edited, encoding="utf-8")
        code, out, err = run(capsys, "check", str(source), pred, "--alg", "a2",
                             "--cache", str(path), "--format", "machine")
        assert (code, out) == (3, ""), message
        assert message in err


def test_usage_errors_exit_three(capsys):
    """Bad usage is an input error (exit 3), reported in one message:
    neither argparse's exit 2 (DEPTH_BOUNDED_UNKNOWN) nor a ValueError
    traceback (exit 1, UNSAT)."""
    for argv, message in [
        (["check", MEMBERSHIP], "required: predicate"),
        (["check", MEMBERSHIP, "smember", "--max-depth", "two"], "--max-depth"),
        (["check", MEMBERSHIP, "smember", "--max-depth", "0"], "--max-depth"),
        (["check", MEMBERSHIP, "smember", "--redundancy-k", "0"], "--redundancy-k"),
        (["bench", str(PROGRAMS), "--redundancy-k", "0"], "--redundancy-k"),
    ]:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, ""), argv
        (line,) = [line for line in err.splitlines() if "error:" in line]
        assert message in line, argv


def test_compile_units_rejects_engine_options(tmp_path, capsys):
    """compile-units runs no engine, so the options of an engine run are
    usage errors there instead of being ignored."""
    out_path = str(tmp_path / "chain.units")
    for option in (["--redundancy-k", "2"], ["--max-depth", "2"],
                   ["--cache", "nonexistent"], ["--no-auto-cache"], ["--auto-cache"]):
        code, out, err = run(capsys, "compile-units", CHAIN, "--out", out_path, *option)
        assert (code, out) == (3, ""), option
        assert "unrecognized arguments: " + " ".join(option) in err, option
    assert not (tmp_path / "chain.units").exists()
    code, _, _ = run(capsys, "compile-units", CHAIN, "--out", out_path,
                     "--time-limit", "60", "--deterministic")
    assert code == 0


def test_check_time_limit_zero_exits_five(capsys):
    code, out, err = run(capsys, "check", MEMBERSHIP, "smember", "--time-limit", "0")
    assert (code, out) == (5, "")
    assert err == "resource budget exceeded: time limit exceeded\n"


def test_time_budgets_must_be_finite_and_non_negative(tmp_path, capsys):
    """A time budget that is negative, not a number or infinite is bad
    usage (exit 3) on every command that takes one, instead of running
    unlimited (nan, inf) or reporting an exceeded budget (-1)."""
    commands = [
        (["check", MEMBERSHIP, "smember"], "--time-limit"),
        (["verify", MEMBERSHIP, "smember"], "--time-limit"),
        (["export-dot", MEMBERSHIP, "smember"], "--time-limit"),
        (["compile-units", CHAIN, "--out", str(tmp_path / "chain.units")], "--time-limit"),
        (["bench", str(PROGRAMS)], "--timeout"),
    ]
    for argv, option in commands:
        for value in ("nan", "inf", "-inf", "-1", "-0.5", "soon"):
            code, out, err = run(capsys, *argv, f"{option}={value}")
            assert (code, out) == (3, ""), (argv, value)
            (line,) = [line for line in err.splitlines() if "error:" in line]
            assert f"argument {option}: expected a finite number of seconds >= 0" in line
    assert not (tmp_path / "chain.units").exists()
    code, _, _ = run(capsys, "check", MEMBERSHIP, "smember", "--time-limit", "1e3")
    assert code == 0


def test_verify_oracle_options_must_be_positive(capsys):
    """--oracle-budget and --max-universe below 1 are bad usage (exit 3),
    not an oracle that reports budget-exceeded or a universe bound that
    silently becomes the constant count."""
    for option in ("--oracle-budget", "--max-universe"):
        for value in ("-3", "0", "two"):
            code, out, err = run(capsys, "verify", MEMBERSHIP, "smember", option, value)
            assert (code, out) == (3, ""), (option, value)
            (line,) = [line for line in err.splitlines() if "error:" in line]
            assert f"argument {option}: expected an integer >= 1" in line
    code, out, _ = run(capsys, "verify", MEMBERSHIP, "smember", "--format", "machine",
                       "--oracle-budget", "8", "--max-universe", "1")
    assert code == 0
    (rec,) = records(out)
    assert (rec["oracle"], rec["oracle_max_size"]) == ("budget-exceeded", 2)


# a program whose a1 and a2 witnesses for r differ
CHOICE_AT_A = "p(a) v not p(a).\nq(X) :- p(X).\nr(X) :- not p(X).\n"


def _witness_dots():
    """The DOT text of the a1 and of the a2 witness for r."""
    transformed = eliminate_constraints(parse_program(CHOICE_AT_A))
    cache = compile_units(transformed).cache
    a1 = check_sat_a1(transformed, "r").witness.to_dot()
    return a1, check_sat_a2(transformed, "r", cache).witness.to_dot()


def test_check_dot_writes_the_last_witness(tmp_path, capsys):
    program = tmp_path / "choice.folp"
    program.write_text(CHOICE_AT_A)
    a1_dot, a2_dot = _witness_dots()
    assert a1_dot != a2_dot
    dot_path = tmp_path / "witness.dot"
    code, _, _ = run(capsys, "check", str(program), "r", "--alg", "a1",
                     "--dot", str(dot_path))
    assert code == 0
    assert dot_path.read_text() == a1_dot
    code, _, _ = run(capsys, "check", str(program), "r", "--dot", str(dot_path))
    assert code == 0
    assert dot_path.read_text() == a2_dot
    unsat_path = tmp_path / "none.dot"
    code, _, _ = run(capsys, "check", LOOP, "smember", "--dot", str(unsat_path))
    assert code == 1
    assert not unsat_path.exists()


def test_export_dot_a2_prints_the_a2_witness(tmp_path, capsys):
    program = tmp_path / "choice.folp"
    program.write_text(CHOICE_AT_A)
    code, out, _ = run(capsys, "export-dot", str(program), "r", "--alg", "a2")
    assert code == 0
    assert out == _witness_dots()[1]


def test_help_exits_zero(capsys):
    try:
        main(["check", "--help"])
    except SystemExit as exit_:
        code = exit_.code
    assert code == 0
    assert "usage: folp check" in capsys.readouterr().out


def test_verify_consistent_on_membership(capsys):
    code, out, _ = run(capsys, "verify", MEMBERSHIP, "smember")
    assert code == 0
    assert "oracle (universes up to 3): witness" in out
    assert "consistent: yes" in out


def test_verify_consistent_on_unsat(capsys):
    code, out, _ = run(capsys, "verify", LOOP, "smember", "--max-universe", "3")
    assert code == 0
    assert "oracle (universes up to 3): none" in out
    assert "consistent: yes" in out


def test_verify_skips_blocked_witness_with_notice(capsys):
    code, out, _ = run(capsys, "verify", CHAIN, "q")
    assert code == 0
    code, out, _ = run(capsys, "verify", CHAIN, "p", "--format", "machine")
    assert code == 0
    (rec,) = records(out)
    assert rec["consistent"]
    assert rec["witness_checks"]["a1"] == "skipped-blocked"
    assert rec["witness_checks"]["a2"] == "skipped-blocked"


def test_bench_over_the_sample_corpus(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name in ("membership.folp", "membership_loop.folp", "choice_chain.folp"):
        (corpus / name).write_text((PROGRAMS / name).read_text())
    code, out, _ = run(capsys, "bench", str(corpus), "--format", "machine",
                       "--redundancy-k", "5")
    assert code == 0
    rows = records(out)
    assert len(rows) == 3
    assert all(r["status"] == "ok" for r in rows)
    assert all(r["agree"] is True for r in rows)
    assert [r["program"] for r in rows] == sorted(r["program"] for r in rows)


def test_bench_empty_corpus(tmp_path, capsys):
    corpus = tmp_path / "empty"
    corpus.mkdir()
    code, out, _ = run(capsys, "bench", str(corpus))
    assert code == 0
    rows = [line for line in out.splitlines()[1:] if line.strip()]
    assert rows == []


def test_bench_records_timeouts_without_failing(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "loop.folp").write_text((PROGRAMS / "membership_loop.folp").read_text())
    code, out, _ = run(capsys, "bench", str(corpus), "--format", "machine",
                       "--timeout", "0.000001")
    assert code == 0
    (row,) = records(out)
    assert row["status"] == "timeout"


def test_bench_zero_timeout_times_out(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "chain.folp").write_text((PROGRAMS / "choice_chain.folp").read_text())
    code, out, _ = run(capsys, "bench", str(corpus), "--format", "machine",
                       "--timeout", "0")
    assert code == 0
    (row,) = records(out)
    assert row["status"] == "timeout"


def test_export_dot_matches_golden(tmp_path, capsys):
    from conftest import GOLDEN

    out_path = tmp_path / "membership.dot"
    code, _, _ = run(capsys, "export-dot", MEMBERSHIP, "smember",
                     "--out", str(out_path))
    assert code == 0
    golden = GOLDEN / "membership_witness.dot"
    assert out_path.read_text() == golden.read_text()


def test_family_outputs_match_the_chronological_goldens(tmp_path, capsys):
    """The family program's `goal` witnesses under both engines, as DOT,
    and its compiled unit cache are byte for byte those of the
    chronological search, which wrote the goldens: backjumping skips
    only subtrees that fail."""
    program = tmp_path / "family.folp"
    program.write_text(bench_family())
    for alg in ("a1", "a2"):
        out = tmp_path / f"goal_{alg}.dot"
        code, _, _ = run(capsys, "export-dot", str(program), "goal", "--alg", alg,
                         "--out", str(out))
        assert code == 0
        assert out.read_bytes() == (GOLDEN / f"family_goal_{alg}.dot").read_bytes()
    units = tmp_path / "family.units"
    code, _, _ = run(capsys, "compile-units", str(program), "--out", str(units))
    assert code == 0
    assert units.read_bytes() == (GOLDEN / "family.units").read_bytes()


def test_export_dot_unsat_reports_verdict(capsys):
    code, out, err = run(capsys, "export-dot", LOOP, "smember")
    assert code == 1
    assert "UNSAT" in err


# Runs every program of programs/ through check, export-dot and
# compile-units in one process and prints what they wrote.
_ALL_COMMANDS = """
import contextlib, io, pathlib, sys
from folp.cli import main
from folp.syntax import parse_program

programs, out = pathlib.Path(sys.argv[1]), sys.argv[2]
for path in sorted(programs.glob("*.folp")):
    runs = [["compile-units", str(path), "--format", "machine", "--out", out]]
    for pred in parse_program(path.read_text()).upreds:
        runs.append(["check", str(path), pred, "--auto-cache", "--format", "machine"])
        runs += [["export-dot", str(path), pred, "--alg", alg, "--auto-cache"]
                 for alg in ("a1", "a2")]
        runs += [["verify", str(path), pred, "--format", fmt] for fmt in ("machine", "text")]
    for argv in runs:
        text = io.StringIO()
        with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
            code = main(argv)
        print(" ".join(argv[:3]), code, text.getvalue(), sep="\\n")
        if argv[0] == "compile-units":
            print(pathlib.Path(out).read_text())
"""


def test_cli_output_is_the_same_under_two_hash_seeds(tmp_path):
    """Interned node ids, signed predicates and ground atoms hash by
    identity, so set order follows memory addresses as well as the hash
    seed; the oracle interns atoms in dicts and sets of its own. No
    output, `verify`'s included, may follow either."""
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), env.get("PYTHONPATH", "")]
        )
        proc = subprocess.run(
            [sys.executable, "-c", _ALL_COMMANDS, str(PROGRAMS), str(tmp_path / "units")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert "digraph forest" in outputs[0] and "folp-units 1" in outputs[0]
    assert '"record": "verify"' in outputs[0] and "oracle (universes up to 3)" in outputs[0]
    assert outputs[0] == outputs[1]


def test_the_library_imports_no_numpy():
    """numpy is a benchmark extra, not a dependency: importing the
    library and its command line leaves it unloaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, folp, folp.cli; print('numpy' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"

"""Seeded random forest-logic-program corpora for the verification suite.

Programs stay within the acceptance bounds (at most 2 constants, 3 unary
and 2 binary predicates, 6 rules). Rejection sampling keeps only
programs that validate, fit the bounded oracle's budget at universe
size 3, and finish both engines within a task budget under the small
redundancy override, so corpus runs have a predictable cost. The
sampling is seeded and the budgets count tasks, not seconds, so the
corpus is the same on every machine and under every hash seed.
"""

from __future__ import annotations

import random

from folp.matcher import check_sat_a2
from folp.oracle import OracleBudgetError, Universe, _GroundIndex
from folp.syntax import Program, eliminate_constraints, parse_program, validate_folp
from folp.tableau import EngineBudgetError, RedundancyPolicy, check_sat_a1
from folp.units import compile_units

UNARY = ("p", "q", "r")
BINARY = ("f", "g")
CONSTANTS = ("a", "b")

MAX_RELEVANT_BITS = 14
# Task budgets of a candidate's engine check. The slowest kept program
# (a1 query p of the program in conftest's `hard` fixture, 13,169 tasks)
# fits, so the search the corpus exercises is not capped by them.
QUERY_TASK_BUDGET = 20_000
COMPILE_TASK_BUDGET = 200_000


def _lit(rng: random.Random, pred: str, args: str, naf_p: float) -> str:
    return f"{'not ' if rng.random() < naf_p else ''}{pred}({args})"


def _unary_body(
    rng: random.Random,
    head_term: str,
    upreds,
    bpreds,
    consts,
    require_literal: bool,
) -> str:
    parts: list[str] = []
    for _ in range(rng.randint(0, 2)):
        parts.append(_lit(rng, rng.choice(upreds), head_term, 0.4))
    succ_terms: list[str] = []
    max_succ = 2 if bpreds else 0
    for name in ("Y", "Z")[: rng.randint(0, max_succ)]:
        term = rng.choice(consts + (name,)) if consts and rng.random() < 0.3 else name
        if term in succ_terms:
            continue
        succ_terms.append(term)
        parts.append(f"{rng.choice(bpreds)}({head_term},{term})")
        if rng.random() < 0.25:
            parts.append(_lit(rng, rng.choice(bpreds), f"{head_term},{term}", 0.8))
        for _ in range(rng.randint(0, 2)):
            parts.append(_lit(rng, rng.choice(upreds), term, 0.4))
    variables = [t for t in succ_terms if t[0].isupper()]
    if len(variables) == 2 and rng.random() < 0.5:
        parts.append(f"{variables[0]} != {variables[1]}")
    if require_literal and not parts:
        parts.append(_lit(rng, rng.choice(upreds), head_term, 0.4))
    return ", ".join(parts)


def random_program_text(rng: random.Random) -> str:
    consts = CONSTANTS[: rng.randint(0, 2)]
    upreds = UNARY[: rng.randint(1, 3)]
    bpreds = BINARY[: rng.randint(0, 2)]
    free_binary = tuple(b for b in bpreds if rng.random() < 0.85)
    free_unary = tuple(u for u in upreds if rng.random() < 0.12)
    defined_unary = tuple(u for u in upreds if u not in free_unary) or upreds[:1]
    lines = [f"{b}(X,Y) v not {b}(X,Y)." for b in free_binary]
    lines += [f"{u}(X) v not {u}(X)." for u in free_unary]
    budget = 6 - len(lines)
    if budget < 1:
        return random_program_text(rng)
    for _ in range(rng.randint(1, budget)):
        roll = rng.random()
        if roll < 0.2 and consts:
            lines.append(f"{rng.choice(defined_unary)}({rng.choice(consts)}).")
        elif roll < 0.35:
            head_term = rng.choice(consts) if consts and rng.random() < 0.4 else "X"
            body = _unary_body(rng, head_term, upreds, bpreds, consts, True)
            lines.append(f":- {body}.")
        elif roll < 0.5 and set(bpreds) - set(free_binary):
            pred = rng.choice(sorted(set(bpreds) - set(free_binary)))
            parts = [f"{rng.choice(bpreds)}(X,Y)"]
            for _ in range(rng.randint(0, 1)):
                parts.append(_lit(rng, rng.choice(upreds), "X", 0.4))
            for _ in range(rng.randint(0, 1)):
                parts.append(_lit(rng, rng.choice(upreds), "Y", 0.4))
            lines.append(f"{pred}(X,Y) :- {', '.join(parts)}.")
        else:
            pred = rng.choice(defined_unary)
            head_term = rng.choice(consts) if consts and rng.random() < 0.25 else "X"
            body = _unary_body(rng, head_term, upreds, bpreds, consts, False)
            lines.append(f"{pred}({head_term}) :- {body}." if body else f"{pred}({head_term}).")
    return "\n".join(dict.fromkeys(lines)) + "\n"


def _oracle_tractable(program: Program) -> bool:
    size = max(3, max(1, len(program.constants)))
    index = _GroundIndex(program, Universe.for_program(program, size))
    return len(index.relevant) <= MAX_RELEVANT_BITS


def _engines_tractable(transformed: Program) -> bool:
    policy = RedundancyPolicy(k_override=5, max_tasks=QUERY_TASK_BUDGET)
    try:
        summary = compile_units(transformed, max_tasks=COMPILE_TASK_BUDGET)
        for pred in transformed.upreds:
            check_sat_a1(transformed, pred, policy)
            check_sat_a2(transformed, pred, summary.cache, policy)
    except (EngineBudgetError, OracleBudgetError):
        return False
    return True


def random_program(rng: random.Random) -> Program:
    while True:
        text = random_program_text(rng)
        try:
            program = parse_program(text)
        except Exception:
            continue
        if validate_folp(program):
            continue
        if not program.upreds:
            continue
        if not _oracle_tractable(program):
            continue
        if not _engines_tractable(eliminate_constraints(program)):
            continue
        return program


def corpus(count: int = 50, seed: int = 20260810) -> list[Program]:
    rng = random.Random(seed)
    return [random_program(rng) for _ in range(count)]


def bench_family(variants: int = 8) -> str:
    """A family with many repeated local justifications: a chain of
    predicates where each is defined by several doomed rule variants
    sharing one body shape (all demand the underivable `dead` on the head
    term) before the working rule. The direct engine retries and abandons
    every variant at every node of every query; the compiled engine pays
    for them once during unit enumeration."""
    chain = ["goal", "step", "aux"]
    junk = ["not base(X)", "aux(X)", "step(X)", "goal(X)", "not aux(X)",
            "not step(X)", "not goal(X)"]
    lines = []
    for i, pred in enumerate(chain):
        nxt = chain[i + 1] if i + 1 < len(chain) else "base"
        for v in range(min(variants, len(junk) + 1)):
            extras = "".join(f", {junk[j]}" for j in range(v))
            lines.append(f"{pred}(X) :- dead(X){extras}, f(X,Y), {nxt}(Y), not dead(Y).")
        lines.append(f"{pred}(X) :- f(X,Y), {nxt}(Y).")
    lines.append("base(X) v not base(X).")
    lines.append("f(X,Y) v not f(X,Y).")
    return "\n".join(dict.fromkeys(lines)) + "\n"


def unit_family(n: int) -> str:
    """P_n: a free binary f, free unary a0..a{n-1}, rules
    g_i(X) :- f(X,Y), a_i(Y), f(X,Z), a_{i+1}(Z), Y != Z for i < n-1, and
    goal(X) :- g0(X), not a0(X). Its unit count grows fast with n (96
    enumerated at n = 3, 2,368 at n = 4)."""
    lines = ["f(X,Y) v not f(X,Y)."]
    lines += [f"a{i}(X) v not a{i}(X)." for i in range(n)]
    lines += [
        f"g{i}(X) :- f(X,Y), a{i}(Y), f(X,Z), a{i + 1}(Z), Y != Z."
        for i in range(n - 1)
    ]
    lines.append("goal(X) :- g0(X), not a0(X).")
    return "\n".join(lines) + "\n"

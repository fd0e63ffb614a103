from pathlib import Path

import pytest

from folp.syntax import eliminate_constraints, parse_program

from corpus import bench_family

ROOT = Path(__file__).resolve().parent.parent
PROGRAMS = ROOT / "programs"
GOLDEN = Path(__file__).resolve().parent / "golden"


def load(name: str):
    return parse_program((PROGRAMS / name).read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def membership():
    """Support-based membership program: two constants, one constraint,
    a free binary predicate; the satisfiable flagship example."""
    return load("membership.folp")


@pytest.fixture(scope="session")
def membership_t(membership):
    return eliminate_constraints(membership)


@pytest.fixture(scope="session")
def membership_loop():
    """The self-supporting restriction: smember is unsatisfiable but every
    candidate chain keeps a dependency path, so blocking never fires."""
    return load("membership_loop.folp")


@pytest.fixture(scope="session")
def choice_chain():
    """p is forced everywhere by its self-refuting rule; q is locally
    satisfiable but globally unsatisfiable."""
    return load("choice_chain.folp")


@pytest.fixture(scope="session")
def hard():
    """Three rules whose query p is UNSAT only after an exhaustive search:
    13,169 direct-engine tasks and 731 redundancy clashes at k = 5."""
    return parse_program(
        "f(X,Y) v not f(X,Y).\n"
        "r(X) :- r(X), f(X,a), not q(a), f(X,Z), r(Z), q(Z).\n"
        "p(X) :- f(X,Y), p(Y), not q(Y), f(X,Z), p(Z), Y != Z.\n"
    )


@pytest.fixture(scope="session")
def deep():
    """A chain program, constraints eliminated: r is UNSAT only once the
    forest is k + 1 deep, so at k = 28 its search scans long chains."""
    return eliminate_constraints(
        parse_program(
            "f(X,Y) v not f(X,Y).\n"
            ":- p(X), f(X,Y).\n"
            "r(X) :- p(X).\n"
            "r(X) :- f(X,Y), r(Y).\n"
        )
    )


@pytest.fixture(scope="session")
def family():
    return parse_program(bench_family())

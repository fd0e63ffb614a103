"""Full-recomputation references for the search's incremental bookkeeping.

The engines keep saturation as counters updated on every status change,
and blocking and the equal-ancestor count in a per-node memo; the
functions here derive the same facts from scratch, so tests can compare
the two at every step of a real search.
"""

from folp.matcher import A2CompletionStructure
from folp.tableau import EXP, A1CompletionStructure


def reference_is_saturated(cs: A1CompletionStructure, x) -> bool:
    """Every unary predicate decided and expanded at x, every binary
    predicate decided and expanded on every outgoing arc, read off the
    contents and the status map."""
    program = cs.program
    if not all(cs.decided(x, q) for q in program.upreds):
        return False
    if any(cs.status(x, sp) != EXP for sp in cs.content(x)):
        return False
    for arc in cs.forest.arcs_from(x):
        if not all(cs.decided(arc, f) for f in program.bpreds):
            return False
        if any(cs.status(arc, sp) != EXP for sp in cs.content(arc)):
            return False
    return True


def reference_equal_ancestor_count(cs, x) -> int:
    content = cs.content(x)
    return sum(1 for y in x.ancestors() if cs.content(y) == content)


def assert_memo_agrees(cs, x) -> None:
    """The memoized blocking status and equal-ancestor count of x are
    those a fresh computation gives."""
    assert cs.is_blocked(x) == (cs.find_blocking_pair(x) is not None), str(x)
    assert cs.equal_ancestor_count(x) == reference_equal_ancestor_count(cs, x), str(x)


def checked_a1() -> type:
    """A fresh subclass of the direct engine's structure that, before
    every task selection, asserts at every node that the memo and the
    saturation counters agree with the references; `checks` counts the
    nodes compared."""

    class CheckedA1(A1CompletionStructure):
        checks = 0

        def next_task(self):
            for x in self.forest.nodes():
                assert_memo_agrees(self, x)
                assert self.is_saturated(x) == reference_is_saturated(self, x), str(x)
                CheckedA1.checks += 1
            return super().next_task()

    return CheckedA1


def checked_a2() -> type:
    """The same for the compiled engine's structure, which shares the
    memo but has no saturation counters."""

    class CheckedA2(A2CompletionStructure):
        checks = 0

        def next_task(self):
            for x in self.forest.nodes():
                assert_memo_agrees(self, x)
                CheckedA2.checks += 1
            return super().next_task()

    return CheckedA2

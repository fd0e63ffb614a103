"""Full-recomputation references for the search's incremental bookkeeping.

The engines keep saturation as counters updated on every status change;
the functions here derive the same facts from scratch, so tests can
compare the two at every step of a real search.
"""

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


def saturation_checked_a1() -> type:
    """A fresh subclass of the direct engine's structure that, before
    every task selection, asserts that `is_saturated` agrees with the
    reference at every node; `checks` counts the comparisons made."""

    class SaturationCheckedA1(A1CompletionStructure):
        checks = 0

        def next_task(self):
            for x in self.forest.nodes():
                assert self.is_saturated(x) == reference_is_saturated(self, x), str(x)
                SaturationCheckedA1.checks += 1
            return super().next_task()

    return SaturationCheckedA1

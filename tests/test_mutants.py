"""The committed mutant list still applies to the sources: an edit to a mutated
line has to update its entry.  Running the mutants is ``python tests/mutants.py``."""

from tests.mutants import MUTANTS, stale


def test_every_mutant_still_applies_to_the_sources():
    assert [(m.what, why) for m in MUTANTS if (why := stale(m))] == []
    assert all(m.old != m.new for m in MUTANTS)

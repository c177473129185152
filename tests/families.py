"""Seeded families shared by the test modules.

A helper here must keep drawing exactly what it drew where it came from:
the tests that read it pin their data through it, so a change to its draws
changes every such test's data at once."""

import itertools

from uendo.signs import RootNumberTable


def random_table(psi, rng):
    """A root-number table with a random sign, drawn from `rng` in
    `itertools.combinations` order over `psi.self_dual`, on every pair of
    self-dual labels of opposite cuspidal parity."""
    entries = {}
    for a, b in itertools.combinations([sp for sp, _ in psi.self_dual], 2):
        if a.mu_sign != b.mu_sign:
            entries[frozenset((a.label, b.label))] = rng.choice((1, -1))
    return RootNumberTable(entries)

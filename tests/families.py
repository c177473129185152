"""Seeded families shared by the test modules.

A helper here must keep drawing exactly what it drew where it came from:
the tests that read it pin their data through it, so a change to its draws
changes every such test's data at once."""

import itertools

from uendo.params import ORTHOGONAL, SimpleDatumTag, SimpleParameter
from uendo.signs import RootNumberTable


def sd(label, deg=1, parity=ORTHOGONAL, n=1):
    """The simple self-dual constituent mu (x) nu(n), with mu of degree
    `deg` and of duality type `parity` (ORTHOGONAL or SYMPLECTIC)."""
    return SimpleParameter(label, deg, parity, n)


def tag_for(psi, parity=1):
    """The datum (N, kappa) on the parameter's degree N whose parity
    (-1)^(N - 1) kappa is `parity`: the constituents of that sign are its
    orthogonal factors."""
    n = psi.total_degree
    return SimpleDatumTag(n, parity * (-1) ** (n - 1))


def random_table(psi, rng):
    """A root-number table with a random sign, drawn from `rng` in
    `itertools.combinations` order over `psi.self_dual`, on every pair of
    self-dual labels of opposite cuspidal parity."""
    entries = {}
    for a, b in itertools.combinations([sp for sp, _ in psi.self_dual], 2):
        if a.mu_sign != b.mu_sign:
            entries[frozenset((a.label, b.label))] = rng.choice((1, -1))
    return RootNumberTable(entries)

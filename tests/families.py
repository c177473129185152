"""Seeded families shared by the test modules.

A helper here must keep drawing exactly what it drew where it came from:
the tests that read it pin their data through it, so a change to its draws
changes every such test's data at once."""

import itertools

from uendo.params import (
    NOT_SELF_DUAL,
    ORTHOGONAL,
    SYMPLECTIC,
    GlobalParameter,
    SimpleDatumTag,
    SimpleParameter,
)
from uendo.signs import RootNumberTable


def sd(label, deg=1, parity=ORTHOGONAL, n=1):
    """The simple self-dual constituent mu (x) nu(n), with mu of degree
    `deg` and of duality type `parity` (ORTHOGONAL or SYMPLECTIC)."""
    return SimpleParameter(label, deg, parity, n)


def random_parameter(rng, max_mult=4):
    """A parameter drawn from `rng` that factors through `tag_for(psi)`,
    with at least one constituent: up to two orthogonal factors
    (multiplicity 1 to `max_mult`), up to two symplectic factors (even
    multiplicity up to max(`max_mult`, 2)) and up to two partnered orbits
    (multiplicity 1 to `max_mult`).  A self-dual constituent has nu(1) or
    nu(2), with mu's duality chosen to give the factor's sign; every mu has
    degree 1 or 2."""
    while True:
        cons = []
        # mu's duality for nu(1) and for nu(2), which flips the sign
        for family, dualities, mults in (
                ("o", (ORTHOGONAL, SYMPLECTIC), range(1, max_mult + 1)),
                ("s", (SYMPLECTIC, ORTHOGONAL), range(2, max(max_mult, 2) + 1, 2))):
            for idx in range(rng.randint(0, 2)):
                n = rng.choice((1, 2))
                cons.append((sd("%s%d" % (family, idx), rng.choice((1, 2)), dualities[n - 1], n),
                             rng.choice(mults)))
        for idx in range(rng.randint(0, 2)):
            deg, n, l = rng.choice((1, 2)), rng.choice((1, 2)), rng.randint(1, max_mult)
            for label, partner in (("g%d" % idx, "h%d" % idx), ("h%d" % idx, "g%d" % idx)):
                cons.append((SimpleParameter(label, deg, NOT_SELF_DUAL, n, partner), l))
        if cons:
            return GlobalParameter(cons)


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

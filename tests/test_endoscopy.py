import random
from fractions import Fraction

import pytest

from families import sd, tag_for
from uendo.centralizer import centralizer_shape, component_group
from uendo.endoscopy import (
    collapse_check,
    correspond,
    enumerate_standard,
    enumerate_twisted,
)
from uendo.params import (
    NOT_SELF_DUAL,
    ORTHOGONAL,
    SYMPLECTIC,
    GlobalParameter,
    SimpleDatumTag,
    SimpleParameter,
    factors_through,
)


# ---------------------------------------------------------------------------
# Tables


def test_standard_table_n3():
    data = enumerate_standard(3)
    rows = [(d.split, d.iota, d.out_order) for d in data]
    assert rows == [((3, 0), Fraction(1), 1), ((2, 1), Fraction(1, 2), 1)]


def test_standard_table_n2():
    data = enumerate_standard(2)
    rows = [(d.split, d.iota, d.out_order) for d in data]
    assert rows == [((2, 0), Fraction(1), 1), ((1, 1), Fraction(1, 4), 2)]


def test_standard_table_n1():
    data = enumerate_standard(1)
    assert len(data) == 1
    assert data[0].split == (1, 0) and data[0].iota == 1


def test_twisted_table_n2():
    data = enumerate_twisted(2)
    simple = [d for d in data if d.is_simple]
    composite = [d for d in data if not d.is_simple]
    assert len(simple) == 2
    assert {d.signature[0] for d in simple} == {1, -1}
    assert all(d.iota_twisted == Fraction(1, 2) for d in simple)
    assert len(composite) == 1
    assert composite[0].split == (1, 1)
    assert composite[0].iota_twisted == Fraction(1, 4)


@pytest.mark.parametrize("n", range(1, 7))
def test_twisted_two_simple_classes(n):
    data = enumerate_twisted(n)
    simple = [d for d in data if d.is_simple]
    assert len(simple) == 2
    assert sorted(d.parity for d in simple) == [-1, 1]


def test_twisted_equal_split_signatures_identified():
    data = [d for d in enumerate_twisted(4) if d.split == (2, 2)]
    assert len(data) == 1
    assert data[0].signature == (1, -1)


def test_twisted_kappa_constraint():
    for n in range(1, 7):
        for d in enumerate_twisted(n):
            n1, n2 = d.split
            if (n1 - n2) % 2 == 0:
                assert d.signature in ((1, -1), (-1, 1))
            else:
                assert d.signature in ((1, 1), (-1, -1))


def test_iota_values_range():
    for n in range(1, 7):
        assert all(d.iota in (Fraction(1), Fraction(1, 2), Fraction(1, 4)) for d in enumerate_standard(n))
        assert all(d.iota_twisted in (Fraction(1, 2), Fraction(1, 4)) for d in enumerate_twisted(n))


# ---------------------------------------------------------------------------
# Correspondence


def test_correspond_identity_element():
    psi = GlobalParameter([(sd("a", 2), 1), (sd("b", 1), 1)])
    tag = tag_for(psi)
    corr = correspond(psi, tag, {})
    assert corr.datum.split == (3, 0)
    assert corr.psi_plus == psi and corr.psi_minus is None


def test_correspond_two_constituent_split():
    a, b = sd("a", 2), sd("b", 1)
    psi = GlobalParameter([(a, 1), (b, 1)])
    tag = tag_for(psi)
    corr = correspond(psi, tag, {"a": (1, 0), "b": (0, 1)})
    assert corr.psi_plus == GlobalParameter([(a, 1)])
    assert corr.psi_minus == GlobalParameter([(b, 1)])
    assert corr.datum.split == (2, 1)
    # cross-check against the centralizer: O(1) x O(1)
    shape = centralizer_shape(psi, tag)
    assert [l for _, l in shape.orthogonal] == [1, 1]


def test_correspond_multiplicity_two_split():
    a = sd("a", 2)
    psi = GlobalParameter([(a, 2)])
    tag = tag_for(psi)
    corr = correspond(psi, tag, {"a": (1, 1)})
    assert corr.psi_plus == GlobalParameter([(a, 1)])
    assert corr.psi_minus == GlobalParameter([(a, 1)])
    assert corr.datum.split == (2, 2)
    assert corr.orbit == 1  # the two halves agree


def test_correspond_rejects_odd_symplectic_split():
    a = sd("a", 1, SYMPLECTIC, 1)
    b = sd("b", 1, ORTHOGONAL, 1)
    psi = GlobalParameter([(a, 2), (b, 1)])
    tag = SimpleDatumTag(3, 1)
    assert tag.parity == 1
    with pytest.raises(ValueError):
        correspond(psi, tag, {"a": (1, 1)})


def test_correspond_gl_orbit_pairs_move_together():
    a = SimpleParameter("g", 1, NOT_SELF_DUAL, 1, partner="gx")
    b = SimpleParameter("gx", 1, NOT_SELF_DUAL, 1, partner="g")
    c = sd("c", 2)
    psi = GlobalParameter([(a, 1), (b, 1), (c, 1)])
    tag = tag_for(psi)
    corr = correspond(psi, tag, {"g": (0, 1)})
    assert corr.psi_minus == GlobalParameter([(a, 1), (b, 1)])
    assert corr.psi_plus == GlobalParameter([(c, 1)])


@pytest.mark.parametrize("s, label", [({"zz": (1, 0)}, "zz"), ({"gx": (0, 1)}, "gx")])
def test_correspond_refuses_a_label_of_no_factor(s, label):
    # an unknown label, and the partner of the GL orbit's representative g,
    # were once ignored, and s read as 1 there
    g = SimpleParameter("g", 1, NOT_SELF_DUAL, 1, partner="gx")
    gx = SimpleParameter("gx", 1, NOT_SELF_DUAL, 1, partner="g")
    psi = GlobalParameter([(g, 1), (gx, 1), (sd("c", 2), 1)])
    with pytest.raises(ValueError, match="^%r is not a factor label of the parameter$" % label):
        correspond(psi, tag_for(psi), s)


def test_correspond_central_translation_swaps_roles():
    a, b = sd("a", 2), sd("b", 1)
    psi = GlobalParameter([(a, 1), (b, 1)])
    tag = tag_for(psi)
    s = {"a": (1, 0), "b": (0, 1)}
    zs = {"a": (0, 1), "b": (1, 0)}
    c1 = correspond(psi, tag, s)
    c2 = correspond(psi, tag, zs)
    assert c1.datum == c2.datum
    assert (c1.psi_plus, c1.psi_minus) == (c2.psi_minus, c2.psi_plus)


def _random_factoring_parameter(rng, N):
    """A parameter of degree N with O-, Sp- and GL-type constituents and a
    datum it factors through."""
    while True:
        cons, left = [], N
        while left:
            deg, nu, mult = rng.randint(1, 2), rng.randint(1, 3), rng.randint(1, 3)
            duality = rng.choice((ORTHOGONAL, SYMPLECTIC, NOT_SELF_DUAL))
            size = deg * nu * mult * (2 if duality == NOT_SELF_DUAL else 1)
            if size > left:
                continue
            label = "c%d" % len(cons)
            if duality == NOT_SELF_DUAL:
                cons.append((SimpleParameter(label, deg, duality, nu, partner=label + "*"), mult))
                cons.append((SimpleParameter(label + "*", deg, duality, nu, partner=label), mult))
            else:
                cons.append((SimpleParameter(label, deg, duality, nu), mult))
            left -= size
        psi = GlobalParameter(cons)
        tag = tag_for(psi, rng.choice((1, -1)))
        if factors_through(psi, tag):
            return psi, tag


@pytest.mark.parametrize("N", range(1, 13))
def test_correspond_datum_is_the_enumerated_datum_of_its_split(N):
    rng = random.Random("correspond:%d" % N)
    table = {d.split: d for d in enumerate_standard(N)}
    for _ in range(12):
        psi, tag = _random_factoring_parameter(rng, N)
        shape = centralizer_shape(psi, tag)
        for _ in range(4):
            s = {}
            for sp, l in shape.orthogonal + shape.general_linear:
                p = rng.randint(0, l)
                s[sp.label] = (p, l - p)
            for sp, l in shape.symplectic:
                p = 2 * rng.randint(0, l // 2)
                s[sp.label] = (p, l - p)
            corr = correspond(psi, tag, s)
            degrees = sorted((half.total_degree if half else 0
                              for half in (corr.psi_plus, corr.psi_minus)), reverse=True)
            assert corr.datum.split == tuple(degrees), (psi, s)
            assert corr.datum == table[corr.datum.split], (psi, s)


# ---------------------------------------------------------------------------
# Collapse identity


def test_collapse_identity_square_integrable_families():
    degs_options = [(1,), (2,), (1, 1), (1, 2), (2, 2), (1, 1, 1), (1, 1, 2), (1, 2, 3), (2, 2, 2)]
    for degs in degs_options:
        cons = [(sd("c%d" % i, deg), 1) for i, deg in enumerate(degs)]
        psi = GlobalParameter(cons)
        tag = tag_for(psi)
        records = collapse_check(psi, tag)
        shape = centralizer_shape(psi, tag)
        assert len(records) == component_group(shape).order
        for vec, corr, ok in records:
            assert ok, (degs, vec)


def test_collapse_orbit_factor_is_two_only_for_balanced_distinct_halves():
    a, b = sd("a", 1), sd("b", 1)
    psi = GlobalParameter([(a, 1), (b, 1)])
    tag = tag_for(psi)
    records = collapse_check(psi, tag)
    orbit_sizes = sorted(corr.orbit for _, corr, _ in records)
    assert orbit_sizes == [1, 2]  # identity split and the balanced split


def test_collapse_rejects_non_square_integrable():
    a = sd("a", 1)
    psi = GlobalParameter([(a, 2)])
    tag = tag_for(psi)
    with pytest.raises(ValueError):
        collapse_check(psi, tag)

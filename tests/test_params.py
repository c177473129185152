import collections
import copy
import itertools
import random

import pytest

from families import sd
from oracles import constituent_parity, global_parameter_fields
from uendo.params import (
    NOT_SELF_DUAL,
    ORTHOGONAL,
    SYMPLECTIC,
    GlobalParameter,
    SimpleDatumTag,
    SimpleParameter,
    classify,
    constituent_sign,
    factors_through,
)


def nsd_pair(label, deg=1, n=1):
    a = SimpleParameter(label, deg, NOT_SELF_DUAL, n, partner=label + "x")
    b = SimpleParameter(label + "x", deg, NOT_SELF_DUAL, n, partner=label)
    return a, b


def test_constituent_parity_examples():
    # mu conj-orthogonal, n = 1 keeps the parity
    assert constituent_parity(sd("a", 1, ORTHOGONAL, 1)) == ORTHOGONAL
    # mu conj-orthogonal, n = 2 flips it
    assert constituent_parity(sd("a", 1, ORTHOGONAL, 2)) == SYMPLECTIC
    # not self-dual is inherited
    a, _ = nsd_pair("m", 1, 3)
    assert constituent_parity(a) == NOT_SELF_DUAL


@pytest.mark.parametrize("musign,n", list(itertools.product((1, -1), range(1, 6))))
def test_constituent_sign_formula(musign, n):
    parity = ORTHOGONAL if musign == 1 else SYMPLECTIC
    assert constituent_sign(sd("a", 2, parity, n)) == musign * (-1) ** (n - 1)


@pytest.mark.parametrize("duality,n", list(itertools.product(
    (ORTHOGONAL, SYMPLECTIC, NOT_SELF_DUAL), range(1, 7))))
def test_cached_sign_matches_the_parity_oracle(duality, n):
    # the sign kept when the constituent is built against mu_sign (-1)^(n-1),
    # worked out afresh; copies rebuild it
    partner = "ax" if duality == NOT_SELF_DUAL else None
    a = SimpleParameter("a", 2, duality, n, partner)
    parity = {1: ORTHOGONAL, -1: SYMPLECTIC, None: NOT_SELF_DUAL}[constituent_sign(a)]
    assert parity == constituent_parity(a)
    assert constituent_sign(copy.deepcopy(a)) == constituent_sign(a)
    assert "_sign" not in repr(a)


def test_simple_parameter_validation():
    with pytest.raises(ValueError):
        SimpleParameter("a", 0, ORTHOGONAL)
    with pytest.raises(ValueError):
        SimpleParameter("a", 1, NOT_SELF_DUAL)  # missing partner
    with pytest.raises(ValueError):
        SimpleParameter("a", 1, ORTHOGONAL, partner="b")
    with pytest.raises(ValueError):
        SimpleParameter("a", 1, NOT_SELF_DUAL, partner="a")


def test_global_parameter_canonicalization_merges_and_sorts():
    a = sd("a", 1, ORTHOGONAL, 2)
    b = sd("b", 2, SYMPLECTIC, 1)
    p1 = GlobalParameter([(a, 1), (b, 1), (a, 1)])
    p2 = GlobalParameter([(b, 1), (a, 2)])
    assert p1 == p2
    assert hash(p1) == hash(p2)
    assert p1.total_degree == 2 * 2 + 2
    # canonical order: (deg_mu, su2_dim, label) lexicographic
    assert [sp.label for sp, _ in p1.constituents] == ["a", "b"]
    assert dict((sp.label, l) for sp, l in p1.constituents)["a"] == 2


def test_global_parameter_partner_closure_enforced():
    a, ax = nsd_pair("m")
    GlobalParameter([(a, 2), (ax, 2)])
    with pytest.raises(ValueError):
        GlobalParameter([(a, 2)])
    with pytest.raises(ValueError):
        GlobalParameter([(a, 2), (ax, 1)])


# The refusals of `GlobalParameter`, in the order the constructor checks
# them; a self-dual partner names no partner, so it is refused as not an
# involution before "partner of a non-self-dual mu must be non-self-dual".
_PARAMETER_REFUSALS = (
    "multiplicities must be >= 1",
    "duplicate label",
    "missing partner",
    "partnering is not an involution",
    "partners must share degree data",
    "partnered constituents need equal multiplicity",
    "empty parameter",
)


def _seeded_constituents(rng):
    """A seeded list of (constituent, multiplicity): self-dual constituents
    and partnered pairs, shuffled with some entries repeated, and most
    often broken in one or two of the ways `_PARAMETER_REFUSALS` names."""
    items = []
    for j in range(rng.randint(0, 5)):
        label, deg, n, mult = "m%d" % j, rng.randint(1, 2), rng.randint(1, 3), rng.randint(1, 3)
        if rng.random() < 0.4:
            a = SimpleParameter(label, deg, NOT_SELF_DUAL, n, partner=label + "x")
            b = SimpleParameter(label + "x", deg, NOT_SELF_DUAL, n, partner=label)
            items += [(a, mult), (b, mult)]
        else:
            items.append((SimpleParameter(label, deg, rng.choice((ORTHOGONAL, SYMPLECTIC)), n),
                          mult))
    for _ in range(rng.choice((0, 1, 1, 2))):
        if not items:
            break
        k = rng.randrange(len(items))
        sp, mult = items[k]
        partner = sp.partner if sp.duality == NOT_SELF_DUAL else None
        fault = rng.randrange(7)
        if fault == 0:
            items[k] = (sp, rng.choice((0, -1)))
        elif fault == 1:  # the label again, on other degree data
            items.append((SimpleParameter(sp.label, sp.deg_mu + 1, sp.duality, sp.su2_dim,
                                          partner), mult))
        elif fault == 2:
            del items[k]
        elif fault == 3:  # the label of an existing constituent as a partner
            other = rng.choice(items)[0].label
            if other != sp.label:
                items[k] = (SimpleParameter(sp.label, sp.deg_mu, NOT_SELF_DUAL, sp.su2_dim,
                                            partner=other), mult)
        elif fault == 4:
            items[k] = (SimpleParameter(sp.label, sp.deg_mu, sp.duality, sp.su2_dim + 1,
                                        partner), mult)
        elif fault == 5:  # a self-dual constituent in the place of a partner
            items[k] = (SimpleParameter(sp.label, sp.deg_mu, ORTHOGONAL, sp.su2_dim), mult)
        else:
            items[k] = (sp, mult + 1)
    items += rng.sample(items, min(len(items), rng.randint(0, 2)))  # merged on construction
    rng.shuffle(items)
    return items


def test_global_parameter_matches_its_first_form():
    rng = random.Random(20261020)
    refused, built = collections.Counter(), 0
    for _ in range(4000):
        items = _seeded_constituents(rng)
        try:
            want = global_parameter_fields(items)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                GlobalParameter(items)
            assert str(got.value) == str(exc), items
            refused[next(m for m in _PARAMETER_REFUSALS if str(exc).startswith(m))] += 1
            continue
        psi = GlobalParameter(items)
        assert (psi.constituents, psi.total_degree, psi._by_label, hash(psi)) == want, items
        built += 1
    assert built > 500 and set(refused) == set(_PARAMETER_REFUSALS), refused


def test_datum_tag_parity():
    assert SimpleDatumTag(3, -1).parity == -1
    assert SimpleDatumTag(2, -1).parity == 1
    assert SimpleDatumTag(1, 1).parity == 1


def test_factors_through_rules():
    # all same parity as datum: true
    p = GlobalParameter([(sd("a"), 1), (sd("b"), 1)])
    tag = SimpleDatumTag(2, -1)  # parity +1
    assert tag.parity == 1
    assert factors_through(p, tag)
    # one opposite-parity constituent with l = 1: false
    q = GlobalParameter([(sd("a", parity=SYMPLECTIC), 1), (sd("b"), 1)])
    assert not factors_through(q, tag)
    # with l = 2 it factors
    q2 = GlobalParameter([(sd("a", parity=SYMPLECTIC), 2), (sd("b"), 2)])
    assert factors_through(q2, SimpleDatumTag(4, -1))
    with pytest.raises(ValueError):
        factors_through(p, SimpleDatumTag(5, 1))


def test_factors_through_both_tags_iff_all_even():
    a = sd("a", 1, ORTHOGONAL, 1)
    b = sd("b", 1, SYMPLECTIC, 1)
    for la, lb in itertools.product((1, 2), repeat=2):
        psi = GlobalParameter([(a, la), (b, lb)])
        n = psi.total_degree
        tag_plus = SimpleDatumTag(n, (-1) ** (n - 1))
        tag_minus = SimpleDatumTag(n, -((-1) ** (n - 1)))
        both = factors_through(psi, tag_plus) and factors_through(psi, tag_minus)
        assert both == (la % 2 == 0 and lb % 2 == 0)


def test_classify_twisted_examples():
    single = GlobalParameter([(sd("a", 2), 1)])
    flags = classify(single)
    assert flags.in_sim and flags.in_2 and flags.in_ell and flags.in_disc
    two = GlobalParameter([(sd("a"), 1), (sd("b"), 1)])
    assert classify(two).in_ell and not classify(two).in_sim
    doubled = GlobalParameter([(sd("a"), 2)])
    assert not classify(doubled).in_ell
    assert classify(doubled).in_disc  # all constituents self-dual
    a, ax = nsd_pair("m")
    mixed = GlobalParameter([(a, 1), (ax, 1)])
    assert not classify(mixed).in_disc


def test_classify_group_chain():
    tag3 = SimpleDatumTag(3, -1)  # parity +1... (-1)^2 * -1 = -1
    assert tag3.parity == -1
    # simple: one self-dual constituent of the datum parity
    simple = GlobalParameter([(sd("a", 3, SYMPLECTIC), 1)])
    flags = classify(simple, tag3)
    assert flags.in_sim and flags.in_2 and flags.in_ell and flags.in_s_disc and flags.in_disc
    # elliptic non square-integrable: 2 a + b
    shape621 = GlobalParameter([(sd("a", 1, SYMPLECTIC), 2), (sd("b", 1, SYMPLECTIC), 1)])
    flags = classify(shape621, tag3)
    assert flags.in_ell and not flags.in_2
    assert not flags.in_s_disc and flags.in_disc
    # l = 3 case: disc and s-disc but not elliptic
    tri = GlobalParameter([(sd("a", 1, SYMPLECTIC), 3)])
    flags = classify(tri, tag3)
    assert flags.in_disc and flags.in_s_disc and not flags.in_ell
    # non-factoring parameter gets no flags but keeps genericity
    bad = GlobalParameter([(sd("a", 3, ORTHOGONAL), 1)])
    flags = classify(bad, tag3)
    assert not flags.in_disc and flags.is_generic


def test_chain_inclusions_hold_everywhere():
    parities = (ORTHOGONAL, SYMPLECTIC)
    for p1, p2, l1, l2, n1 in itertools.product(parities, parities, (1, 2), (1, 2), (1, 2)):
        psi = GlobalParameter([(sd("a", 1, p1, n1), l1), (sd("b", 1, p2, 1), l2)])
        for kappa in (1, -1):
            tag = SimpleDatumTag(psi.total_degree, kappa)
            for flags in (classify(psi, tag), classify(psi)):
                assert not flags.in_sim or flags.in_2
                assert not flags.in_2 or flags.in_ell
                assert not flags.in_ell or flags.in_disc
                assert not flags.in_2 or flags.in_s_disc
                assert not flags.in_s_disc or flags.in_disc


def test_classification_invariant_under_permutation():
    a = sd("a", 1, ORTHOGONAL, 2)
    b = sd("b", 2, SYMPLECTIC, 1)
    c = sd("c", 1, ORTHOGONAL, 1)
    p1 = GlobalParameter([(a, 1), (b, 1), (c, 2)])
    p2 = GlobalParameter([(c, 2), (a, 1), (b, 1)])
    assert p1 == p2
    tag = SimpleDatumTag(p1.total_degree, 1)
    assert classify(p1, tag) == classify(p2, tag)

import itertools
from fractions import Fraction

import pytest

from uendo.localcalc import (
    ArchCharacter,
    ArchParameter,
    MonomialLocalParameter,
    UnramifiedCharacter,
    arch_parity,
    base_change_arch,
    base_change_unramified,
    d_gauge,
    eta_for_explicit,
    is_discrete_arch,
    phi_identities_hold,
    phi_matrix,
    predicted_parity,
    verify_duality,
)
from uendo.params import NOT_SELF_DUAL, ORTHOGONAL, SYMPLECTIC


# ---------------------------------------------------------------------------
# parity rules


def test_arch_parity_examples():
    assert arch_parity(0) == ORTHOGONAL
    assert arch_parity(Fraction(1, 2)) == SYMPLECTIC
    assert arch_parity(-3) == ORTHOGONAL
    with pytest.raises(ValueError):
        arch_parity(Fraction(1, 3))


def test_unramified_character_parity():
    assert UnramifiedCharacter(0).parity == ORTHOGONAL
    assert UnramifiedCharacter(Fraction(1, 2)).parity == SYMPLECTIC
    assert UnramifiedCharacter(Fraction(1, 3)).parity == NOT_SELF_DUAL


# ---------------------------------------------------------------------------
# archimedean discrete parameters


def test_is_discrete_arch_symplectic_pair():
    p = ArchParameter((Fraction(1, 2), Fraction(-1, 2)))
    ok, _ = is_discrete_arch(p, -1)
    assert ok
    ok, _ = is_discrete_arch(p, 1)
    assert not ok


def test_is_discrete_arch_compact_form():
    # strictly decreasing integral exponents with trivial shift
    p = ArchParameter((3, 1, 0))
    ok, _ = is_discrete_arch(p, 1)
    assert ok
    bad = ArchParameter((3, 3, 0))
    ok, _ = is_discrete_arch(bad, 1)
    assert not ok


def test_d_gauge_example():
    assert d_gauge((Fraction(3, 2), Fraction(1, 2))) == Fraction(1, 2)


def test_is_discrete_invariant_under_permutation():
    p1 = ArchParameter((2, 1, 0))
    p2 = ArchParameter((0, 2, 1))
    assert is_discrete_arch(p1, 1) == is_discrete_arch(p2, 1)


# ---------------------------------------------------------------------------
# Phi matrix


def test_phi_matrix_small_values():
    assert phi_matrix(1) == ((1,),)
    assert phi_matrix(2) == ((0, 1), (-1, 0))
    assert phi_matrix(3) == ((0, 0, 1), (0, -1, 0), (1, 0, 0))


@pytest.mark.parametrize("n", range(1, 13))
def test_phi_identities(n):
    assert phi_identities_hold(n)


# ---------------------------------------------------------------------------
# explicit matrix criterion examples


def test_eta_for_explicit_phi2():
    phi2 = phi_matrix(2)
    assert eta_for_explicit(phi2, (-1, -1)) == 1  # rho(w_c^2) = -I
    assert eta_for_explicit(phi2, (1, 1)) == -1  # rho(w_c^2) = +I
    assert eta_for_explicit(((1,),), (1,)) == 1  # N = 1 trivial character


# ---------------------------------------------------------------------------
# verify_duality


def test_verify_duality_arch_uniform_parities():
    p = MonomialLocalParameter((ArchCharacter(0), ArchCharacter(1)))
    found, etas = verify_duality(p)
    assert found and etas == (1,)
    q = MonomialLocalParameter((ArchCharacter(Fraction(1, 2)), ArchCharacter(Fraction(-1, 2))))
    found, etas = verify_duality(q)
    assert found and etas == (-1,)


def test_verify_duality_arch_mixed_has_no_parity():
    p = MonomialLocalParameter((ArchCharacter(0), ArchCharacter(Fraction(1, 2))))
    found, etas = verify_duality(p)
    assert found and etas == ()


def test_verify_duality_unramified_pairings():
    # a dual pair q, -q with q of order 3: both parities realizable
    p = MonomialLocalParameter(
        (UnramifiedCharacter(Fraction(1, 3)), UnramifiedCharacter(Fraction(2, 3))))
    found, etas = verify_duality(p)
    assert found and etas == (1, -1)
    # not closed under duals: not conjugate self-dual
    q = MonomialLocalParameter((UnramifiedCharacter(Fraction(1, 3)), UnramifiedCharacter(0)))
    found, etas = verify_duality(q)
    assert not found


def test_verify_duality_order_three_character_alone_is_not_self_dual():
    p = MonomialLocalParameter((UnramifiedCharacter(Fraction(1, 3)),))
    assert verify_duality(p) == (False, ())
    # the empty sum is conjugate self-dual with either parity
    assert verify_duality(MonomialLocalParameter(())) == (True, (1, -1))


def test_characters_share_one_interface():
    for a in (Fraction(-3, 2), Fraction(0), Fraction(1, 2), Fraction(2)):
        c = ArchCharacter(a)
        assert c.dual() == c and c.w2 == a % 1
    for q in (Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(3, 4)):
        c = UnramifiedCharacter(q)
        assert c.dual() == UnramifiedCharacter(-q) and c.dual().dual() == c and c.w2 == q
        assert c.is_self_dual == (c.dual() == c) == (c.parity != NOT_SELF_DUAL)


def _arch_charsets(n):
    pool_int = [Fraction(v) for v in (-2, -1, 0, 1, 2)]
    pool_half = [Fraction(v, 2) for v in (-3, -1, 1, 3)]
    for pool, parity in ((pool_int, 1), (pool_half, -1)):
        for combo in itertools.combinations(pool, n):
            yield tuple(ArchCharacter(a) for a in combo), parity


def _unram_charsets(n):
    fixed = [Fraction(0), Fraction(1, 2)]
    pairs = [(Fraction(1, 3), Fraction(2, 3)), (Fraction(1, 4), Fraction(3, 4))]
    # sets closed under q -> -q with uniform fixed-point parity
    for n_fixed in range(n % 2, min(n, 2) + 1, 2):
        rest = (n - n_fixed) // 2
        if rest > len(pairs):
            continue
        for fix in itertools.combinations(fixed, n_fixed):
            for pair_combo in itertools.combinations(pairs, rest):
                chars = [UnramifiedCharacter(q) for q in fix]
                for a, b in pair_combo:
                    chars.append(UnramifiedCharacter(a))
                    chars.append(UnramifiedCharacter(b))
                yield tuple(chars)


def test_parity_prediction_archimedean():
    # every uniform-parity archimedean parameter realizes the predicted
    # parity of the datum it descends to
    for n in range(1, 5):
        for chars, parity in _arch_charsets(n):
            p = MonomialLocalParameter(chars)
            found, etas = verify_duality(p)
            assert found
            assert etas == (parity,)
            kappa = parity * (-1) ** (n - 1)
            assert predicted_parity(n, kappa) in etas


def test_parity_prediction_unramified():
    for n in range(1, 5):
        for chars in _unram_charsets(n):
            p = MonomialLocalParameter(chars)
            found, etas = verify_duality(p)
            assert found
            fixed = [c for c in chars if c.is_self_dual]
            if fixed:
                want = {1} if all(c.q == 0 for c in fixed) else (
                    {-1} if all(c.q == Fraction(1, 2) for c in fixed) else set()
                )
                assert set(etas) == want
            else:
                assert set(etas) == {1, -1}
            for eta in etas:
                kappa = eta * (-1) ** (n - 1)
                assert predicted_parity(n, kappa) == eta


# ---------------------------------------------------------------------------
# base change


def test_base_change_arch_shift():
    p = ArchParameter((0, 1))
    q = base_change_arch(p, -1, Fraction(1, 2))
    assert q.exponents == (Fraction(1, 2), Fraction(3, 2))
    assert all(arch_parity(a) == SYMPLECTIC for a in q.exponents)
    with pytest.raises(ValueError):
        base_change_arch(p, 1, Fraction(1, 2))


def test_base_change_arch_trivial():
    p = ArchParameter((0, 1))
    q = base_change_arch(p, 1, 0)
    assert q.exponents == p.exponents


def test_base_change_arch_multiplicative():
    p = ArchParameter((0, 1))
    one = base_change_arch(base_change_arch(p, -1, Fraction(1, 2)), -1, Fraction(1, 2))
    direct = base_change_arch(p, 1, 1)
    assert one.exponents == direct.exponents


def test_base_change_unramified_twist():
    chars = (UnramifiedCharacter(0), UnramifiedCharacter(Fraction(1, 2)))
    twisted = base_change_unramified(chars, -1)
    assert [c.parity for c in twisted] == [SYMPLECTIC, ORTHOGONAL]
    assert base_change_unramified(chars, 1) == chars


def test_base_change_parity_multiplicative():
    for q in (Fraction(0), Fraction(1, 2)):
        c = UnramifiedCharacter(q)
        t = base_change_unramified((c,), -1)[0]
        signs = {ORTHOGONAL: 1, SYMPLECTIC: -1}
        assert signs[t.parity] == signs[c.parity] * -1

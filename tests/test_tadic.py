import functools
import itertools
import math
from fractions import Fraction

import pytest

from uendo import tadic
from uendo.tadic import (
    ARCH,
    NONARCH,
    FormalCharacterCombination,
    IsobaricTerm,
    StandardSymbol,
    _BASE,
    _COEFFICIENT,
    _SEP,
    _SIGN,
    expand,
    sq_int_multiplicity,
    tempered_part,
    theta_star,
)


def sym(k, lam, case=NONARCH):
    return StandardSymbol("r", k, Fraction(lam), case)


def term(*symbols):
    return build_term(symbols)


def key(ranks, coeff):
    """A term's key, as `expand` writes it."""
    return _SEP.join(chr(_BASE + r) for r in ranks) + _SIGN[coeff]


# ---------------------------------------------------------------------------
# Oracles: the boundary conventions, a term built from any factors, the
# (ranks, coefficient) pairs and the dict of terms of a combination, one
# permutation's term, the distinguished Weyl element, and the reduction of a
# combination modulo 2


def normalize_symbol(base, k, lam, field_case):
    """None for the empty symbol, 0 for the zero symbol, else the symbol."""
    lam = Fraction(lam)
    if field_case == NONARCH:
        if k == -1:
            return None
        if k < -1:
            return 0
    return StandardSymbol(base, k, lam, field_case)


def build_term(symbols):
    """The term of some normalized factors in canonical order, by
    (base, -k, lambda); None when some factor is the zero symbol."""
    if any(s == 0 for s in symbols):
        return None
    kept = sorted((s for s in symbols if s is not None), key=lambda s: (s.base, -s.k, s.lam))
    return IsobaricTerm(tuple(kept))


def ranked(combo):
    """The (ranks of a term's symbols, coefficient) pairs, in key order."""
    return [(tuple(ord(code) - _BASE for code in key[:-1:2]), _COEFFICIENT[key[-1]])
            for key in combo.keys]


def coeffs(combo):
    """The combination as a dict of terms to coefficients, in key order."""
    return {combo.term(key): _COEFFICIENT[key[-1]] for key in combo.keys}


def term_for_permutation(base, n, k, field_case, perm):
    """The box-sum attached to one Weyl element (perm maps i -> w(i),
    zero-indexed internally)."""
    symbols = []
    for i0, wi0 in enumerate(perm):
        i, wi = i0 + 1, wi0 + 1
        symbols.append(
            normalize_symbol(base, k - (i - wi), Fraction((n + 1) - (i + wi)), field_case)
        )
    return build_term(symbols)


def w_star(n, k, field_case):
    """The distinguished Weyl element, zero-indexed."""
    if field_case == ARCH or n <= k + 1:
        return tuple(n - 1 - i for i in range(n))
    out = []
    for i in range(1, n + 1):
        if i <= k + 1:
            out.append(n + 1 - i)
        else:
            out.append(i - (k + 1))
    return tuple(v - 1 for v in out)


def mod2_reduce(coeffs):
    """A term -> coefficient mapping modulo 2, zero classes absent."""
    return {t: coeff % 2 for t, coeff in coeffs.items() if coeff % 2}


# ---------------------------------------------------------------------------
# expand


def test_symbol_hash_ignores_how_lambda_was_given():
    for case in (ARCH, NONARCH):
        for lam in (-3, 0, 2):
            from_int = StandardSymbol("r", 4, lam, case)
            from_fraction = StandardSymbol("r", 4, Fraction(lam), case)
            assert from_int == from_fraction
            assert hash(from_int) == hash(from_fraction)
            assert len({from_int: 1, from_fraction: 2}) == 1
            assert len({term(from_int): 1, term(from_fraction): 2}) == 1
    assert hash(sym(4, Fraction(1, 2))) == hash(sym(4, Fraction(2, 4)))
    assert sym(4, 1) != sym(4, 2) and sym(4, 1) != sym(4, 1, ARCH)


def test_expand_n1_is_single_symbol():
    for case, k in ((NONARCH, 0), (NONARCH, 3), (ARCH, -2), (ARCH, 5)):
        combo = expand("r", 1, k, case)
        assert list(coeffs(combo).items()) == [(term(sym(k, 0, case)), 1)]


def test_expand_nonarch_n2_k0():
    combo = expand("r", 2, 0, NONARCH)
    expected = {
        term(sym(0, 1), sym(0, -1)): 1,
        term(sym(1, 0)): -1,  # the theta(-1, .) factor is dropped
    }
    assert coeffs(combo) == expected


def test_expand_arch_n2():
    for k in (-1, 0, 2):
        combo = expand("r", 2, k, ARCH)
        expected = {
            term(sym(k, 1, ARCH), sym(k, -1, ARCH)): 1,
            term(sym(k + 1, 0, ARCH), sym(k - 1, 0, ARCH)): -1,
        }
        assert coeffs(combo) == expected


def test_expand_validates_input():
    with pytest.raises(ValueError):
        expand("r", 0, 0, NONARCH)
    with pytest.raises(ValueError):
        expand("r", 2, -1, NONARCH)
    with pytest.raises(ValueError):
        expand("r", 2, 0, "padic")


def test_expand_accounting_no_silent_loss():
    # the level-by-level expansion against the signed sum of the raw
    # per-permutation terms: the same terms, symbols in canonical order,
    # and the same ranked form, term order included, from strictly increasing
    # keys.  A permutation's term is
    # built from the cells it picks, each normalized once per case as
    # `term_for_permutation` does, which must agree at n <= 5.  A cell equal
    # to a symbol of the expansion is replaced by that symbol, so that the
    # comparisons below find equal symbols by identity
    cases = [(n, NONARCH, k) for n in range(1, 7) for k in range(0, 8)]
    cases += [(n, ARCH, k) for n in range(1, 7) for k in range(-2, 8)]
    cases += [(7, case, k) for case in (NONARCH, ARCH) for k in (0, 2)]
    for n, case, k in cases:
        combo = expand("r", n, k, case)
        same = {s: s for s in combo.symbols}
        cells = [[normalize_symbol("r", k - (i - j), Fraction((n + 1) - (i + j)), case)
                  for j in range(1, n + 1)] for i in range(1, n + 1)]
        cells = [[same.get(cell, cell) for cell in row] for row in cells]
        raw = {}
        for perm in itertools.permutations(range(n)):
            t = build_term([row[w] for row, w in zip(cells, perm)])
            if n <= 5:
                assert t == term_for_permutation("r", n, k, case, perm), (n, k, case, perm)
            if t is not None:
                raw[t] = raw.get(t, 0) + _perm_sign(perm)
        raw = {t: c for t, c in raw.items() if c}
        assert coeffs(combo) == raw, (n, k, case)
        symbols = list(combo.symbols)
        assert symbols == sorted(set(symbols), key=lambda s: (s.base, -s.k, s.lam))
        rank = {s: r for r, s in enumerate(symbols)}
        want = sorted((tuple(rank[s] for s in t.symbols), c) for t, c in raw.items())
        assert ranked(combo) == want, (n, k, case)
        assert all(a < b for a, b in zip(combo.keys, combo.keys[1:])), (n, k, case)


def test_keys_sort_as_their_ranks_and_coefficients():
    # no term of an expansion has the ranks of another followed by more, so
    # no expansion compares a key with a longer key it begins; these do, and
    # the sign codes must sort below the separator and every rank
    pairs = [((0,), 1), ((0, 1), -1), ((0, 1, 2), 1), ((0, 2), 1), ((1,), -1), ((1,), 1),
             ((1, 2), -1), ((2,), 1)]
    keys = sorted(key(ranks, coeff) for ranks, coeff in reversed(pairs))
    symbols = [sym(3, 0), sym(2, 1), sym(1, 0)]
    assert ranked(FormalCharacterCombination(symbols, keys)) == sorted(pairs)


def _expansions(n_max):
    for n in range(1, n_max + 1):
        for k in range(-3, 10):
            yield n, k, ARCH, expand("r", n, k, ARCH)
            if k >= 0:
                yield n, k, NONARCH, expand("r", n, k, NONARCH)


def test_expand_coefficients_are_plus_or_minus_one():
    # each term comes from exactly one permutation, so nothing cancels
    for n, k, case, combo in _expansions(6):
        assert {c for _, c in ranked(combo)} <= {1, -1}, (n, k, case)


def test_expand_term_count_is_the_count_of_surviving_permutations():
    # arch: every permutation; nonarch: those that avoid the zero cells
    # i - j > k + 1, all of them when n <= k + 2
    for n, k, case, combo in _expansions(7):
        if case == ARCH or n <= k + 2:
            want = math.factorial(n)
        else:
            want = (k + 2) ** (n - k - 1) * math.factorial(k + 1)
        assert len(ranked(combo)) == want, (n, k, case)


# ---------------------------------------------------------------------------
# the memo of archimedean keys


def test_arch_keys_do_not_depend_on_k():
    for n in range(1, 7):
        first = expand("r", n, -3, ARCH).keys
        for k in range(-2, 10):
            assert expand("r", n, k, ARCH).keys == first, (n, k)


def _filtered_arch_keys(n, k):
    """The archimedean keys of n read back as ranks, those with a rank on a
    zero cell (i - j > k + 1) dropped and the ranks on the empty diagonal
    i - j = k + 1 removed, written as keys again, in the archimedean order."""
    cells = [i - j for i in range(1, n + 1) for j in range(1, n + 1)]
    cells.sort()  # d = i - j ascending: the rank of a cell lies in its d's run
    kept = []
    for ranks, coeff in ranked(expand("r", n, 0, ARCH)):
        if all(cells[r] <= k + 1 for r in ranks):
            kept.append(key([r for r in ranks if cells[r] <= k], coeff))
    return kept


def test_nonarch_keys_are_the_filtered_arch_keys():
    for n in range(1, 8):
        for k in range(0, 10):
            assert expand("r", n, k, NONARCH).keys == _filtered_arch_keys(n, k), (n, k)


def test_no_nonarch_term_has_the_ranks_of_another_followed_by_more():
    # the fact that keeps the filtered keys sorted (see the module docstring)
    for n in range(1, 8):
        for k in range(0, 10):
            terms = {ranks for ranks, _ in ranked(expand("r", n, k, NONARCH))}
            for ranks in terms:
                for m in range(1, len(ranks)):
                    assert ranks[:m] not in terms, (n, k, ranks)


def test_arch_keys_are_grown_once_per_n(monkeypatch):
    grown = []

    def counted(n, grow=tadic._arch_keys.__wrapped__):
        grown.append(n)
        return grow(n)

    monkeypatch.setattr(tadic, "_arch_keys", functools.lru_cache(maxsize=4)(counted))
    for n in range(1, 6):
        for k in range(0, 6):
            expand("r", n, k, NONARCH)
            expand("r", n, k - 2, ARCH)
    assert grown == [1, 2, 3, 4, 5]


def test_returned_keys_are_copies():
    for n, k, case in ((5, 2, ARCH), (5, 4, NONARCH), (5, 1, NONARCH)):
        want = list(expand("r", n, k, case).keys)
        expand("r", n, k, case).keys.clear()
        mutated = expand("r", n, k, case).keys
        mutated[0], mutated[1:] = "", ["x"]
        assert expand("r", n, k, case).keys == want, (n, k, case)


def test_memo_holds_at_most_four_n():
    for n in range(1, 9):
        expand("r", n, 2, NONARCH)
        info = tadic._arch_keys.cache_info()
        assert info.maxsize == 4 and info.currsize == min(n, 4), n
    assert tadic._arch_keys.cache_info().misses == 8


# ---------------------------------------------------------------------------
# w* and theta*


def test_w_star_archimedean_is_longest():
    assert w_star(3, 5, ARCH) == (2, 1, 0)
    assert w_star(4, 0, ARCH) == (3, 2, 1, 0)


def test_w_star_nonarch_piecewise():
    # n = 2, k = 0: w*(1) = 2, w*(2) = 1 (one-indexed)
    assert w_star(2, 0, NONARCH) == (1, 0)
    # n <= k+1 gives the longest element
    assert w_star(2, 3, NONARCH) == (1, 0)
    # n = 3, k = 0: w* = (3, 1, 2) one-indexed
    assert w_star(3, 0, NONARCH) == (2, 0, 1)


def test_theta_star_values():
    assert theta_star("r", 2, 0, NONARCH) == term(sym(1, 0))
    assert theta_star("r", 2, 3, NONARCH) == term(sym(4, 0), sym(2, 0))
    assert theta_star("r", 3, 5, ARCH) == term(
        sym(7, 0, ARCH), sym(5, 0, ARCH), sym(3, 0, ARCH)
    )


def test_theta_star_matches_w_star_term():
    for case in (NONARCH, ARCH):
        for n in range(1, 6):
            for k in range(0, 6):
                t = term_for_permutation("r", n, k, case, w_star(n, k, case))
                assert t == theta_star("r", n, k, case)


# ---------------------------------------------------------------------------
# tempered extraction


def _perm_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


@pytest.mark.parametrize("case", [NONARCH, ARCH])
def test_tempered_part_unique_with_sign(case):
    for n in range(1, 6):
        for k in range(0, 6):
            combo = expand("r", n, k, case)
            t, coeff = tempered_part(combo)
            assert t == theta_star("r", n, k, case)
            assert coeff == _perm_sign(w_star(n, k, case))


def test_tempered_part_examples():
    t, c = tempered_part(expand("r", 2, 0, NONARCH))
    assert (t, c) == (term(sym(1, 0)), -1)
    t, c = tempered_part(expand("r", 1, 4, NONARCH))
    assert (t, c) == (term(sym(4, 0)), 1)
    t, c = tempered_part(expand("r", 3, 5, ARCH))
    assert t == theta_star("r", 3, 5, ARCH)
    assert c == _perm_sign(w_star(3, 5, ARCH))


def test_tempered_uniqueness_guard():
    # ranks 0, 1, 2 are theta(3, 0), theta(2, 1) and theta(1, 0)
    symbols = [sym(3, 0), sym(2, 1), sym(1, 0)]
    one = FormalCharacterCombination(symbols, [key((0, 2), 1), key((1,), -1)])
    assert tempered_part(one) == (term(sym(3, 0), sym(1, 0)), 1)
    two = FormalCharacterCombination(symbols, [key((0,), 1), key((2,), -1)])
    none = FormalCharacterCombination(symbols, [key((0, 1), 1), key((1,), -1)])
    for fake in (two, none):
        with pytest.raises(AssertionError, match="tempered part is not a single term"):
            tempered_part(fake)


# ---------------------------------------------------------------------------
# square-integrable multiplicity


def test_sq_int_multiplicity_examples():
    t = theta_star("r", 2, 0, NONARCH)
    assert sq_int_multiplicity(t, "r", 2, 0) == 1
    t = theta_star("r", 1, 2, NONARCH)
    assert sq_int_multiplicity(t, "r", 1, 2) == 1
    t = theta_star("r", 3, 2, NONARCH)
    # theta(4,0) + theta(2,0) + theta(0,0): the factor theta(4, 0) once
    assert sq_int_multiplicity(t, "r", 3, 2) == 1


def test_sq_int_multiplicity_family_and_disjointness():
    # For a fixed SL(2) part the leading factor of the maximal-k member does
    # not occur in the others (the separation the collapse argument needs).
    values = {}
    for n in range(1, 6):
        for k in range(0, 6):
            t = theta_star("r", n, k, NONARCH)
            assert sq_int_multiplicity(t, "r", n, k) == 1
            values[(n, k)] = t
    for n in range(1, 6):
        for k in range(0, 6):
            for kp in range(0, k):
                assert sq_int_multiplicity(values[(n, kp)], "r", n, k) == 0


# ---------------------------------------------------------------------------
# mod 2


def test_mod2_examples():
    reduced = mod2_reduce({term(sym(2, 0)): 2, term(sym(1, 0)): -1})
    assert reduced == {term(sym(1, 0)): 1}


def test_mod2_tempered_coefficient_is_one():
    for case in (NONARCH, ARCH):
        for n in range(1, 6):
            for k in range(0, 4):
                combo = expand("r", n, k, case)
                reduced = mod2_reduce(coeffs(combo))
                t, _ = tempered_part(combo)
                assert reduced.get(t) == 1

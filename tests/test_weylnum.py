import itertools
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import uendo.weylnum
from uendo.weylnum import (
    ComponentDatum,
    ConnectedShape,
    WeylElement,
    e_number,
    elliptic_classes,
    gl,
    i_number,
    sgn0,
    sigma,
    so,
    sp,
    weyl_set,
)
from uendo.weylnum import (
    SP,
    _factor_e_number,
    _factor_elliptic_classes,
    _factor_i_number,
    _sigma_factor,
)


def datum(factors, coset=None, quotient=None):
    coset = coset or (False,) * len(factors)
    return ComponentDatum(ConnectedShape(tuple(factors), quotient), tuple(coset))


def identity_component(shape):
    return ComponentDatum(shape, (False,) * len(shape.factors))


def canonical_shape(shape):
    """The shape with its factors sorted by kind and size, a factor whose
    central sign is -1 before an equal one whose sign is +1."""
    z = shape.central_quotient or (1,) * len(shape.factors)
    pairs = sorted(zip(shape.factors, z), key=lambda p: (p[0].kind, p[0].size, -p[1]))
    fs = tuple(p[0] for p in pairs)
    zs = tuple(p[1] for p in pairs)
    return ConnectedShape(fs, zs if any(s == -1 for s in zs) else None)


# ---------------------------------------------------------------------------
# Weyl sets


def _block_matrix(perm, signs):
    """The matrix of a (perm, signs) pair: column j is signs[j] e_{perm[j]}."""
    n = len(perm)
    rows = [[0] * n for _ in range(n)]
    for j, (i, s) in enumerate(zip(perm, signs)):
        rows[i][j] = s
    return tuple(tuple(r) for r in rows)


def _matrix(w):
    """The block-diagonal matrix of a Weyl element, one block per factor."""
    n = sum(len(perm) for perm, _ in w.blocks)
    rows = [[0] * n for _ in range(n)]
    off = 0
    for block in w.blocks:
        m = _block_matrix(*block)
        for i, row in enumerate(m):
            for j, x in enumerate(row):
                rows[off + i][off + j] = x
        off += len(m)
    return tuple(tuple(r) for r in rows)


def _compose(a, b):
    """The (perm, signs) pair of a b: e_j -> sb[j] sa[pb[j]] e_{pa[pb[j]]}."""
    (pa, sa), (pb, sb) = a, b
    return (tuple(pa[i] for i in pb), tuple(s * sa[i] for i, s in zip(pb, sb)))


def test_weyl_set_sp2():
    d = datum([sp(2)])
    ws = weyl_set(d)
    mats = sorted(_matrix(w) for w in ws)
    assert mats == [((-1,),), ((1,),)]


def test_weyl_set_o2_nonidentity():
    # direct normalizer computation in O(2): every coset element acts on the
    # rank-1 lattice by inversion, and there is exactly one class
    d = datum([so(2)], [True])
    ws = weyl_set(d)
    assert len(ws) == 1
    assert _matrix(ws[0]) == ((-1,),)


def test_weyl_set_gl2():
    d = datum([gl(2)])
    ws = weyl_set(d)
    mats = {_matrix(w) for w in ws}
    assert mats == {((1, 0), (0, 1)), ((0, 1), (1, 0))}


def test_weyl_count_matches_identity_component():
    cases = [
        ([so(4)], [False]),
        ([so(4)], [True]),
        ([so(3)], [True]),
        ([gl(3)], [True]),
        ([sp(4), so(2)], [False, True]),
    ]
    for factors, coset in cases:
        twisted = datum(factors, coset)
        plain = datum(factors)
        assert len(weyl_set(twisted)) == len(weyl_set(plain))


def test_weyl_elements_have_unit_determinant_blocks():
    d = datum([sp(4), gl(2)], [False, True])
    for w in weyl_set(d):
        m = _matrix(w)
        n = len(m)
        # the action has finite order: some power is the identity
        power = m
        ident = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        for _ in range(24):
            if power == ident:
                break
            power = tuple(
                tuple(sum(power[i][k] * m[k][j] for k in range(n)) for j in range(n))
                for i in range(n)
            )
        assert power == ident


def test_sgn0_multiplicative_against_w0():
    # sgn^0(w0 w) = sgn^0(w0) sgn^0(w) for w0 in the identity-component Weyl
    # group; check on O(4): coset elements times W^0
    base = datum([so(4)])
    twisted = datum([so(4)], [True])
    w0s = weyl_set(base)
    ws = weyl_set(twisted)
    for w0 in w0s:
        for w in ws:
            prod = WeylElement(tuple(_compose(a, b) for a, b in zip(w0.blocks, w.blocks)))
            assert _matrix(prod) == _matmul(_matrix(w0), _matrix(w))
            assert sgn0(twisted, prod) == sgn0(base, w0) * sgn0(twisted, w)


def test_sgn0_equals_determinant_on_weyl_groups():
    # for identity components the sign character is the determinant
    for factors in ([sp(2)], [sp(4)], [so(3)], [so(4)], [gl(3)]):
        d = datum(factors)
        for w in weyl_set(d):
            m = _matrix(w)
            det = _det(m)
            assert sgn0(d, w) == det


def _matmul(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
                 for i in range(n))


def _det(m):
    n = len(m)
    if n == 0:
        return 1
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = sign
        for i in range(n):
            prod *= m[i][perm[i]]
        total += prod
    return total


# ---------------------------------------------------------------------------
# Known constants


def test_i_number_sp2_is_minus_quarter():
    assert i_number(datum([sp(2)])) == Fraction(-1, 4)


def test_i_number_o2_coset_is_half():
    d = datum([so(2)], [True])
    assert i_number(d) == Fraction(1, 2)
    assert e_number(d) == Fraction(1, 2)


def test_i_number_so2_torus_is_zero():
    assert i_number(datum([so(2)])) == 0


def test_e_number_examples():
    assert e_number(datum([sp(2)])) == Fraction(-1, 4)
    assert e_number(datum([gl(2)])) == 0


# ---------------------------------------------------------------------------
# sigma


def test_sigma_trivial_and_torus():
    assert sigma(ConnectedShape(())) == 1
    assert sigma(ConnectedShape((gl(1),))) == 0
    assert sigma(ConnectedShape((so(2),))) == 0


def test_sigma_sl2_from_independent_solve():
    # i(SL2) computed by hand: W = {1, -1}; only -1 regular, sgn0 = -1,
    # |det(-1-1)| = 2, so i = -1/4; elliptic classes {I, -I} both with
    # centralizer SL2, so -1/4 = 2 sigma and sigma = -1/8.
    assert i_number(datum([sp(2)])) == Fraction(-1, 4)
    assert sigma(ConnectedShape((sp(2),))) == Fraction(-1, 8)


def test_sigma_so3_from_independent_solve():
    # i(SO3): W = {1, -1} on the rank-1 lattice, positive root e_1;
    # the regular element -1 flips it, so i = (1/2)(-1/2) = -1/4; the only
    # elliptic class is central, hence sigma = i = -1/4.
    assert i_number(datum([so(3)])) == Fraction(-1, 4)
    assert sigma(ConnectedShape((so(3),))) == Fraction(-1, 4)


def test_sigma_rescales_under_central_quotient():
    for factors in ((sp(2),), (sp(4),), (so(4),), (sp(2), so(4))):
        cover = ConnectedShape(factors)
        quotient = ConnectedShape(factors, (-1,) * len(factors))
        assert sigma(cover) * 2 == sigma(quotient)


def test_sigma_multiplicative():
    a = ConnectedShape((sp(2),))
    b = ConnectedShape((so(3),))
    ab = ConnectedShape((sp(2), so(3)))
    assert sigma(ab) == sigma(a) * sigma(b)


# ---------------------------------------------------------------------------
# The identity i = e, and the twisted GL cross-check


def test_twisted_gl4_pins_sigma_values():
    # i for the transpose-inverse component of GL(4) uses no sigma values;
    # e needs sigma(SO4) and sigma(Sp4): a genuinely independent check.
    d = datum([gl(4)], [True])
    i_val = i_number(d)
    assert i_val == Fraction(11, 128)
    assert e_number(d) == i_val
    assert sigma(ConnectedShape((so(4),))) == Fraction(1, 32)
    assert sigma(ConnectedShape((sp(4),))) == Fraction(9, 128)


def _menu_data():
    dressed = []
    for a in (1, 2, 3):
        dressed.append((gl(a), False))
        dressed.append((gl(a), True))
    for n in (2, 4):
        dressed.append((sp(n), False))
    for m in (1, 2, 3, 4):
        dressed.append((so(m), False))
        dressed.append((so(m), True))
    return dressed


def test_i_equals_e_on_factor_sample():
    dressed = _menu_data()
    for f, t in dressed:
        d = ComponentDatum(ConnectedShape((f,)), (t,))
        assert i_number(d) == e_number(d), (f, t)


def test_i_equals_e_on_the_largest_factors_of_a_parameter():
    # 256 constituents give at most O(256), Sp(256) or GL(128), of rank 128
    for f in (so(256), so(255), sp(256), gl(128)):
        for t in (False,) if f.kind == SP else (False, True):
            d = datum([f], [t])
            assert i_number(d) == e_number(d), (f, t)


def test_i_equals_e_on_pairs_with_quotients():
    dressed = _menu_data()
    for (f1, t1), (f2, t2) in itertools.combinations_with_replacement(dressed, 2):
        base = ConnectedShape((f1, f2))
        d = ComponentDatum(base, (t1, t2))
        i_val = i_number(d)
        assert i_val == e_number(d), (f1, t1, f2, t2)
        for z in itertools.product((1, -1), repeat=2):
            if all(s == 1 for s in z):
                continue
            if any(s == -1 and not f.has_minus_one for f, s in zip((f1, f2), z)):
                continue
            dq = ComponentDatum(ConnectedShape((f1, f2), z), (t1, t2))
            assert i_number(dq) == i_val
            assert e_number(dq) == i_val, (f1, t1, f2, t2, z)


def _fraction_loop(values):
    """The product of `values` as one Fraction product per value, from 1."""
    total = Fraction(1)
    for value in values:
        total *= value
    return total


def _assert_products_are_fraction_loops(c):
    """i, e and sigma of `c` equal, reduced term for term, the Fraction
    loop over the cached per-factor values; returns (i, e, sigma)."""
    pairs = list(zip(c.base.factors, c.coset))
    i_want = _fraction_loop(_factor_i_number(f.kind, f.size, t) for f, t in pairs)
    e_want = _fraction_loop(_factor_e_number(f.kind, f.size, t) for f, t in pairs)
    sigma_want = _fraction_loop(_sigma_factor(f.kind, f.size) for f, _ in pairs)
    if c.base.central_quotient is not None:
        sigma_want *= 2
    got = (i_number(c), e_number(c), sigma(c.base))
    for value, want in zip(got, (i_want, e_want, sigma_want)):
        assert type(value) is Fraction, c
        assert (value.numerator, value.denominator) == (want.numerator, want.denominator), c
    return got


def test_products_match_fraction_loops_on_the_menu(perfbench_workloads):
    # criterion 1's menu as the benchmark's sweep builds it, central
    # quotients included; GL identity cosets and SO(2) give exact zeros
    zeros = Counter()
    for factors, coset, z in perfbench_workloads.weyl_menu():
        c = datum([uendo.weylnum.Factor(*f) for f in factors], coset, z)
        values = _assert_products_are_fraction_loops(c)
        zeros.update(name for name, v in zip("ies", values) if v == 0)
    assert zeros["i"] > 100 and zeros["e"] > 100 and zeros["s"] > 100


def test_products_match_fraction_loops_on_large_factors():
    # every SO(m), m <= 257, and Sp(2r) and GL(a), r, a <= 128 (the parameter
    # budget gives at most O(256), Sp(256) and GL(128)), on each coset, alone
    # and beside the factor one size smaller of its kind
    factors = ([so(m) for m in range(1, 258)] + [sp(2 * r) for r in range(1, 129)]
               + [gl(a) for a in range(1, 129)])
    previous = {}
    for f in factors:
        for t in (False,) if f.kind == SP else (False, True):
            _assert_products_are_fraction_loops(datum([f], [t]))
            if f.kind in previous:
                _assert_products_are_fraction_loops(datum([previous[f.kind], f], [False, t]))
        previous[f.kind] = f


def test_i_zero_when_central_torus_fixed():
    # positive-dimensional center fixed by the coset: no regular elements
    for d in (datum([gl(2)]), datum([so(2)]), datum([gl(1), sp(2)])):
        assert i_number(d) == 0


def test_elliptic_classes_structure_sp4():
    classes = elliptic_classes(datum([sp(4)]))
    descs = {c[0] for c in classes}
    assert descs == {(("sp", 0, 4),), (("sp", 2, 2),), (("sp", 4, 0),)}


# ---------------------------------------------------------------------------
# The cycle-type i(S) against the enumeration oracle


@lru_cache(maxsize=None)
def _det_minus_one(block):
    """det(w - I) of a (perm, signs) pair, by Fraction Gaussian elimination
    on its matrix."""
    mat = _block_matrix(*block)
    n = len(mat)
    a = [[Fraction(mat[i][j] - (1 if i == j else 0)) for j in range(n)] for i in range(n)]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            ratio = a[r][col] / a[col][col]
            if ratio:
                for c in range(col, n):
                    a[r][c] -= ratio * a[col][c]
    assert det.denominator == 1
    return int(det)


def _enumerated_i_number(c):
    """i(S) as the explicit sum over W(S) of sgn0(w) / |det(w - 1)|; w acts
    block-diagonally, one block per factor."""
    ws = weyl_set(c)
    total = Fraction(0)
    for w in ws:
        d = 1
        for block in w.blocks:
            d *= _det_minus_one(block)
        if d:
            total += Fraction(sgn0(c, w), abs(d))
    return total / len(ws)


def _dressed_factors(max_rank):
    """Every factor kind and coset with rank <= max_rank."""
    out = [(so(1), False), (so(1), True)]
    for r in range(1, max_rank + 1):
        out += [(gl(r), False), (gl(r), True), (sp(2 * r), False)]
        for m in (2 * r, 2 * r + 1):
            out += [(so(m), False), (so(m), True)]
    return out


def test_cycle_type_i_number_matches_enumeration_on_factors():
    for f, t in _dressed_factors(5):
        d = datum([f], [t])
        assert i_number(d) == _enumerated_i_number(d), (f, t)


def test_cycle_type_i_number_matches_enumeration_on_pairs():
    checked = 0
    dressed = _dressed_factors(4)
    for (f1, t1), (f2, t2) in itertools.combinations_with_replacement(dressed, 2):
        if f1.rank + f2.rank > 5:
            continue
        want = _enumerated_i_number(datum([f1, f2], [t1, t2]))
        options = [(1, -1) if f.has_minus_one else (1,) for f in (f1, f2)]
        for z in itertools.product(*options):
            quotient = z if -1 in z else None
            assert i_number(datum([f1, f2], [t1, t2], quotient)) == want, (f1, t1, f2, t2, z)
            checked += 1
    assert checked > 800


def _series_coefficient(exponent, r):
    """[t^r] (1 - t)^exponent."""
    coeff = Fraction(1)
    for j in range(r):
        coeff *= Fraction(j - exponent, j + 1)
    return coeff


def test_i_number_generating_functions():
    quarter = Fraction(1, 4)
    for r in range(1, 7):
        minus = _series_coefficient(-quarter, r)
        plus = _series_coefficient(quarter, r)
        assert i_number(datum([sp(2 * r)])) == (-1) ** r * minus
        assert i_number(datum([so(2 * r + 1)])) == (-1) ** r * minus
        assert i_number(datum([so(2 * r + 1)], [True])) == (-1) ** r * minus
        assert i_number(datum([so(2 * r)])) == (-1) ** r * (minus + plus)
        assert i_number(datum([so(2 * r)], [True])) == (-1) ** (r + 1) * (minus - plus)


def _partitions(n, largest=None):
    """Partitions of n as non-increasing tuples of parts."""
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def _centralizer_order(mu) -> int:
    """z_mu: the order of the centralizer in S_n of a permutation of type mu."""
    z = 1
    for k in set(mu):
        m = mu.count(k)
        z *= k ** m * math.factorial(m)
    return z


def _partition_i_number(f, twisted):
    """i of one factor and coset as the sum over the cycle types of its
    regular elements (see `weylnum._factor_i_number`)."""
    if f.kind == "GL":
        if not twisted:
            return Fraction(0)
        odd_types = (mu for mu in _partitions(f.size) if all(k % 2 for k in mu))
        total = sum(Fraction(1, _centralizer_order(mu) * 2 ** len(mu)) for mu in odd_types)
        return (-1) ** (f.size * (f.size - 1) // 2) * total
    r = f.size // 2
    if f.kind == SP or f.size % 2:
        parities, sign = (0, 1), (-1) ** r
    else:
        parities, sign = ((1,) if twisted else (0,)), 2 * (-1) ** (r + twisted)
    total = sum(Fraction(1, _centralizer_order(mu) * 4 ** len(mu))
                for mu in _partitions(r) if len(mu) % 2 in parities)
    return sign * total


def test_closed_form_i_number_matches_partition_sums():
    dressed = _dressed_factors(20)
    assert len(dressed) == 2 + 7 * 20
    for f, t in dressed:
        assert i_number(datum([f], [t])) == _partition_i_number(f, t), (f, t)


# ---------------------------------------------------------------------------
# sigma and e by the recursion over products of classes, as the oracle for
# the per-factor products


def _translate_descriptor(desc, flip):
    """Action of the central sign -1 on a class descriptor."""
    if not flip:
        return desc
    kind = desc[0]
    if kind in ("sp", "so"):
        return (kind, desc[2], desc[1])
    return desc  # glinv classes are fixed: -g is congruent to g


def _is_central_class(desc, factors):
    for d, f in zip(desc, factors):
        kind = d[0]
        if kind == "sp" and 0 not in (d[1], d[2]):
            return False
        if kind == "so" and 0 not in (d[1], d[2]):
            return False
        if kind == "glinv":
            return False
    return True


@lru_cache(maxsize=None)
def _identity_class_tally(factors):
    """The elliptic classes of the identity component of `factors`, as
    {(canonical centralizer factors, pi0, central): number of class
    products}.  The products are tallied factor by factor and cached on the
    leading factors, which many shapes of the recursion share; a product is
    central when every factor's class is."""
    if not factors:
        return {((), 1, True): 1}
    *head, last = factors
    tally = Counter()
    for cl in _factor_elliptic_classes(last, False):
        central = _is_central_class((cl.descriptor,), (last,))
        for (cent, pi0, head_central), n in _identity_class_tally(tuple(head)).items():
            cent = canonical_shape(ConnectedShape(cent + cl.cent_factors)).factors
            tally[cent, pi0 * cl.pi0, head_central and central] += n
    return tally


@lru_cache(maxsize=None)
def _sigma_of_centralizer(factors):
    """sigma of a centralizer's identity component, cached on its factors
    in the order a class product lists them."""
    return _sigma_canonical(canonical_shape(ConnectedShape(factors)))


def _weighted_sigma_sum(counts):
    """Sum of count * sigma / weight over {(centralizer factors, weight): count}:
    the class products tallied by centralizer, one rational term per tally."""
    return sum((Fraction(n, w) * _sigma_of_centralizer(factors)
                for (factors, w), n in counts.items()), Fraction(0))


@lru_cache(maxsize=None)
def _sigma_canonical(shape):
    if shape.center_dim > 0:
        return Fraction(0)
    if not shape.factors:
        return Fraction(1)
    cover = ConnectedShape(shape.factors)
    quot = 2 if shape.central_quotient is not None else 1
    return _sigma_semisimple(cover) * quot


@lru_cache(maxsize=None)
def _sigma_semisimple(shape):
    """Solve i = e on the whole product: the central classes contribute
    sigma(S) itself, the others sigma of strictly smaller centralizers.
    Cached, since a shape and its central quotient share the cover."""
    i_val = i_number(identity_component(shape))
    central = 1
    for f in shape.factors:
        central *= f.center_order
    rest = _weighted_sigma_sum({
        (cent, pi0): n
        for (cent, pi0, is_central), n in _identity_class_tally(shape.factors).items()
        if not is_central})
    return (i_val - rest) / central


def _recursive_sigma(shape):
    return _sigma_canonical(canonical_shape(shape))


def _recursive_e_number(c):
    """e(S) summed over the products of factor classes.  A central quotient
    fuses classes under translation by the nontrivial central element z and
    rescales; per z-orbit the contribution is sigma(S_s^0) |Z| / (|Z_s| pi0)
    with Z_s the stabilizer of the class."""
    classes = elliptic_classes(c)
    z = c.base.central_quotient
    if z is None:
        return _weighted_sigma_sum(Counter((cent.factors, pi0) for _, cent, pi0 in classes))
    flips = tuple(s == -1 for s in z)
    seen = set()
    counts = Counter()
    for desc, cent, pi0 in classes:
        if desc in seen:
            continue
        tdesc = tuple(_translate_descriptor(d, f) for d, f in zip(desc, flips))
        stab = 2 if tdesc == desc else 1
        seen.add(desc)
        seen.add(tdesc)
        counts[cent.factors, stab * pi0] += 2
    return _weighted_sigma_sum(counts)


def test_sigma_and_e_match_recursion_over_class_products():
    # every shape of rank <= 12 with at most two factors, under every
    # order-2 central quotient and, for e, on every coset
    singles = [so(1)]
    for r in range(1, 13):
        singles += [gl(r), sp(2 * r), so(2 * r), so(2 * r + 1)]
    shapes = [()] + [(f,) for f in singles]
    shapes += [(f, g) for f, g in itertools.combinations_with_replacement(singles, 2)
               if f.rank + g.rank <= 12]
    checked = 0
    for factors in shapes:
        quotients = [(1, -1) if f.has_minus_one else (1,) for f in factors]
        cosets = [(False,) if f.kind == SP else (False, True) for f in factors]
        for z in itertools.product(*quotients):
            shape = ConnectedShape(factors, z if -1 in z else None)
            assert sigma(shape) == _recursive_sigma(shape), shape
            checked += 1
            for coset in itertools.product(*cosets):
                c = ComponentDatum(shape, coset)
                assert e_number(c) == _recursive_e_number(c), c
                checked += 1
    assert checked == 7138


def test_i_number_and_sigma_never_enumerate(monkeypatch):
    def refuse(*args):
        raise AssertionError("Weyl set enumerated")

    monkeypatch.setattr(uendo.weylnum, "weyl_set", refuse)
    monkeypatch.setattr(uendo.weylnum, "sgn0", refuse)
    for coset in itertools.product((False, True), repeat=2):
        d = datum([so(8), so(8)], coset)
        assert i_number(d) == e_number(d), coset
    assert sigma(ConnectedShape((so(8), so(8)))) == sigma(ConnectedShape((so(8),))) ** 2
    gl7 = datum([gl(7)], [True])
    assert i_number(gl7) == e_number(gl7)
    assert sigma(ConnectedShape((gl(7),))) == 0

"""Weyl-set invariants of components of complex reductive groups.

A `ComponentDatum` describes a connected component S of a (possibly
disconnected) reductive group over C whose identity component S^0 is a
product of classical factors GL(a), Sp(2b), SO(m), optionally divided by an
order-2 central subgroup.  The component is the identity one, or is twisted
factorwise: the non-identity coset of O(m) acting on SO(m), or the
transpose-inverse coset on a GL factor.

For such a component the module computes, in exact rational arithmetic,

    i(S) = |W(S)|^-1 sum_{w in W_reg(S)} sgn^0(w) / |det(w - 1)|,

the elliptic-class expansion

    e(S) = sum_{s in E_ell(S)} |pi_0(S_s)|^-1 sigma(S_s^0),

and the constants sigma attached to connected groups by the condition
i = e (Arthur 2013, section 4.1), with sigma(S/Z) = sigma(S) |Z|.

Weyl sets act on the character lattice of a maximal torus: by permutations
on GL factors (negated under the transpose-inverse twist), by signed
permutations of rank b on Sp(2b), and of rank floor(m/2) on SO(m), with an
even sign count on the identity component of SO(even) and an odd one on its
O-coset.  W(S), sgn^0 and det(w - 1) all split over the factors, and W(S)
does not see the central quotient, so i(S) is a product of one value per
factor and coset.  That value is a sum over cycle types, the partitions of
the rank, not over Weyl elements: a cycle of length k with sign product eps
contributes (-1)^k (1 - eps) to det(w - 1), so only all-negative cycles (on
GL: all-odd cycles of the permutation under the twist) give regular
elements (Carter, Compositio Math. 25, 1972).  The sum over cycle types is
a coefficient of a power series, (1 - t)^(-1/4) and its kin, read off in
O(rank) terms.  `weyl_set` and `sgn0` keep the explicit enumeration; the
tests use it as the oracle for the cycle-type sums at small rank.  A Weyl
element is stored as one (perm, signs) pair per factor, from
`signed_perms`, the package's one signed-permutation type; the twisted GL
action is the all-(-1) sign vector, and `sgn0` reads a root's image off the
pair by index lookup, with no matrices.

Elliptic elements are enumerated through +-1 eigenvalue patterns: an
eigenvalue pair {t, 1/t}, t != +-1, would put a GL factor in the
centralizer and hence an infinite center.  The classes, their centralizers
and their component counts are products over the factors, and sigma is
multiplicative over factors, so e(S) is a product of one cached value per
factor and coset, like i(S), and sigma(S) a product of one cached value per
factor, each solved from i = e on that factor alone; no sum runs over
products of classes.  Each product is taken on integer pairs: the
numerators multiply together, the denominators together, and one Fraction
is reduced at the end.  A central quotient changes neither i nor e,
e(S/Z) = e(S), and doubles sigma, sigma(S/Z) = 2 sigma(S).  The identity
i(S) = e(S) over the supported menu is the correctness certificate for both
expansions and is asserted in the tests, which keep the recursion over
products of classes as the oracle for sigma and e.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Tuple

from .values import Value, set_field

GL = "GL"
SP = "Sp"
SO = "SO"


class Factor(Value):
    """One classical factor: GL(size), Sp(size) with size even, or SO(size)."""

    __slots__ = ("kind", "size")

    def __init__(self, kind: str, size: int):
        if kind not in (GL, SP, SO):
            raise ValueError("unsupported factor type %r" % (kind,))
        if kind == GL and size < 1:
            raise ValueError("GL factor needs size >= 1")
        if kind == SP and (size < 2 or size % 2):
            raise ValueError("Sp factor needs positive even size")
        if kind == SO and size < 1:
            raise ValueError("SO factor needs size >= 1")
        set_field(self, "kind", kind)
        set_field(self, "size", size)

    @property
    def rank(self) -> int:
        if self.kind == GL:
            return self.size
        return self.size // 2

    @property
    def center_dim(self) -> int:
        if self.kind == GL:
            return 1
        if self.kind == SO and self.size == 2:
            return 1
        return 0

    @property
    def has_minus_one(self) -> bool:
        """Whether the scalar -1 lies in the factor."""
        if self.kind == SO:
            return self.size % 2 == 0
        return True

    @property
    def center_order(self) -> int:
        """Order of the center when finite (kinds with center_dim 0)."""
        if self.kind == SP:
            return 2
        if self.kind == SO:
            if self.size % 2 == 1:
                return 1
            return 2  # SO(even >= 4)
        raise ValueError("infinite center")


def gl(a: int) -> Factor:
    return Factor(GL, a)


def sp(n: int) -> Factor:
    return Factor(SP, n)


def so(m: int) -> Factor:
    return Factor(SO, m)


class ConnectedShape(Value):
    """A product of classical factors, optionally modulo an order-2 central
    subgroup given by one sign per factor (-1 only where the factor contains
    the scalar -1)."""

    __slots__ = ("factors", "central_quotient")

    def __init__(self, factors: Tuple[Factor, ...],
                 central_quotient: Optional[Tuple[int, ...]] = None):
        z = central_quotient
        if z is not None:
            if len(z) != len(factors):
                raise ValueError("central element needs one sign per factor")
            if any(s not in (1, -1) for s in z):
                raise ValueError("central element entries must be +-1")
            if all(s == 1 for s in z):
                raise ValueError("central quotient by the identity; use None")
            for f, s in zip(factors, z):
                if s == -1 and not f.has_minus_one:
                    raise ValueError("-1 is not central in %r" % (f,))
        set_field(self, "factors", factors)
        set_field(self, "central_quotient", central_quotient)

    @property
    def center_dim(self) -> int:
        return sum(f.center_dim for f in self.factors)


class ComponentDatum(Value):
    """A connected component: a ConnectedShape plus per-factor coset flags.

    A True flag means the non-identity coset: the O(m) coset over an SO(m)
    factor, or the transpose-inverse coset over a GL factor.  Sp factors are
    connected and admit no twist.
    """

    __slots__ = ("base", "coset")

    def __init__(self, base: ConnectedShape, coset: Tuple[bool, ...]):
        if len(coset) != len(base.factors):
            raise ValueError("one coset flag per factor required")
        for f, t in zip(base.factors, coset):
            if t and f.kind == SP:
                raise ValueError("Sp factors have no outer coset")
        set_field(self, "base", base)
        set_field(self, "coset", coset)


# ---------------------------------------------------------------------------
# Weyl sets


@lru_cache(maxsize=None)
def signed_perms(rank: int, sign_vectors=None):
    """Signed permutations of the given rank as (perm, signs) pairs, the one
    encoding of Weyl elements in this package: the pair sends e_j to
    signs[j] e_{perm[j]}.  `sign_vectors`, a tuple, lists the admitted sign
    vectors, all 2^rank of them by default.  The result is a shared tuple."""
    if sign_vectors is None:
        sign_vectors = itertools.product((1, -1), repeat=rank)
    return tuple(itertools.product(itertools.permutations(range(rank)), sign_vectors))


def is_negative(i1: int, s1: int, i2: int, s2: int) -> bool:
    """Whether s1 e_{i1} + s2 e_{i2} (i1 != i2) is a negative vector in the
    first-nonzero-coordinate order: the image of a root e_i +- e_j under a
    signed permutation, read off by index."""
    return (s1 if i1 < i2 else s2) < 0


def _factor_sign_vectors(factor: Factor, twisted: bool):
    """Sign vectors of the factor's Weyl set: none flipped on GL (all under
    the transpose-inverse twist), an even count on SO(even) and an odd one
    on its O-coset, and any (None) on Sp and O(odd) = SO(odd) x {+-1}."""
    r = factor.rank
    if factor.kind == GL:
        return ((-1 if twisted else 1,) * r,)
    if factor.kind == SO and factor.size % 2 == 0:
        vectors = itertools.product((1, -1), repeat=r)
        return tuple(s for s in vectors if s.count(-1) % 2 == twisted)
    return None


class WeylElement(Value):
    """One element of the Weyl set: a (perm, signs) pair per factor."""

    __slots__ = ("blocks",)

    def __init__(self, blocks: Tuple[Tuple[Tuple[int, ...], Tuple[int, ...]], ...]):
        set_field(self, "blocks", blocks)


def weyl_set(c: ComponentDatum):
    """Complete enumeration of W(S) = Norm(T, S)/T as lattice actions."""
    per_factor = [
        signed_perms(f.rank, _factor_sign_vectors(f, t))
        for f, t in zip(c.base.factors, c.coset)
    ]
    return [WeylElement(blocks) for blocks in itertools.product(*per_factor)]


def sgn0(c: ComponentDatum, w: WeylElement) -> int:
    """(-1) to the number of positive roots of (S^0, T) sent to negative:
    e_i - e_j (i < j) on every factor, e_i + e_j off GL, and e_i (2 e_i on
    Sp) on Sp and SO(odd)."""
    flips = 0
    for f, (perm, signs) in zip(c.base.factors, w.blocks):
        for i in range(f.rank):
            for j in range(i + 1, f.rank):
                flips += is_negative(perm[i], signs[i], perm[j], -signs[j])
                if f.kind != GL:
                    flips += is_negative(perm[i], signs[i], perm[j], signs[j])
        if f.kind == SP or (f.kind == SO and f.size % 2):
            flips += signs.count(-1)
    return -1 if flips % 2 else 1


_QUARTER = Fraction(1, 4)


def _series(x: Fraction, r: int):
    """[t^j] (1 - t)^x for j = 0, ..., r."""
    out = [Fraction(1)]
    for j in range(r):
        out.append(out[-1] * (j - x) / (j + 1))
    return out


@lru_cache(maxsize=None)
def _factor_i_number(kind: str, size: int, twisted: bool) -> Fraction:
    """i of one factor's identity component or outer coset, by cycle type,
    summed in closed form.

    A permutation of type mu has share 1/z_mu of the symmetric group.  On
    signed permutations a regular element has only negative cycles; its type
    mu has share 1/(z_mu 2^l) of the hyperoctahedral group, |det(w - 1)| =
    2^l and sgn^0 = det(w) = (-1)^r, with l = l(mu).  On SO(even) such an
    element has l sign changes mod 2, which selects the identity component
    or the O-coset; the set is half the hyperoctahedral group, so shares
    double, and as the roots e_i are missing, sgn^0 = det(w) (-1)^l gains a
    factor -1 on the O-coset.  On GL the identity component fixes the
    central torus; under the twist, -p is regular exactly when p has only
    odd cycles, with |det| = 2^l, and sgn^0(-p) = (-1)^(r(r-1)/2) sgn(p)
    with sgn(p) = 1.

    The sums over cycle types have generating functions:
    sum_mu x^l(mu) t^|mu| / z_mu = (1 - t)^-x, so the sum over the partitions
    of r with weight 4^-l is a_r(-1/4) and with weight (-4)^-l is a_r(1/4),
    where a_r(x) = [t^r] (1 - t)^x; their half-sum and half-difference keep
    the even and the odd l.  Over the all-odd types with weight 2^-l the
    function is exp(sum_{k odd} t^k / 2k) = ((1 + t) / (1 - t))^(1/4).  The
    tests keep the partition sums as the oracle.
    """
    if kind == GL:
        if not twisted:
            return Fraction(0)
        # [t^j] (1 + t)^(1/4) = (-1)^j a_j(1/4)
        plus, minus = _series(_QUARTER, size), _series(-_QUARTER, size)
        total = sum((-1) ** j * plus[j] * minus[size - j] for j in range(size + 1))
        return (-1) ** (size * (size - 1) // 2) * total
    r = size // 2
    minus = _series(-_QUARTER, r)[r]
    if kind == SP or size % 2:
        return (-1) ** r * minus
    plus = _series(_QUARTER, r)[r]
    if twisted:
        return (-1) ** (r + 1) * (minus - plus)
    return (-1) ** r * (minus + plus)


def i_number(c: ComponentDatum) -> Fraction:
    """i(S): signed count of regular Weyl classes, exact, as the product of
    the per-factor values (the central quotient does not enter)."""
    num = den = 1
    for f, t in zip(c.base.factors, c.coset):
        value = _factor_i_number(f.kind, f.size, t)
        num *= value.numerator
        den *= value.denominator
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# Elliptic classes and e(S)


class _EllClass(Value):
    """One elliptic class of a single factor component.

    descriptor: the kind and the sizes of the two eigenspace blocks;
    cent_factors: factors of the identity component of the centralizer;
    pi0: component count of the full centralizer in S^0.
    """

    __slots__ = ("descriptor", "cent_factors", "pi0")

    def __init__(self, descriptor: tuple, cent_factors: Tuple[Factor, ...], pi0: int):
        set_field(self, "descriptor", descriptor)
        set_field(self, "cent_factors", cent_factors)
        set_field(self, "pi0", pi0)


def _factor_elliptic_classes(factor: Factor, twisted: bool):
    out = []
    if factor.kind == GL:
        if not twisted:
            return out  # scalars give an infinite center
        a = factor.size
        for mplus in range(a, -1, -1):
            rest = a - mplus
            if rest % 2:
                continue
            if mplus == 2:
                continue  # SO(2) in the centralizer: infinite center
            cent = []
            if mplus >= 3:
                cent.append(so(mplus))
            if rest >= 2:
                cent.append(sp(rest))
            out.append(_EllClass(("glinv", mplus, rest), tuple(cent), 2 if mplus >= 1 else 1))
        return out
    if factor.kind == SP:
        if twisted:
            raise ValueError("Sp factors have no outer coset")
        n = factor.size
        for nplus in range(0, n + 1, 2):
            nminus = n - nplus
            cent = []
            if nplus >= 2:
                cent.append(sp(nplus))
            if nminus >= 2:
                cent.append(sp(nminus))
            out.append(_EllClass(("sp", nplus, nminus), tuple(cent), 1))
        return out
    # SO(m): the coset fixes the determinant, so the -1 eigenvalue count
    # is even on the identity component and odd on the O(m) coset.
    m = factor.size
    want_parity = 1 if twisted else 0
    for mminus in range(m + 1):
        if mminus % 2 != want_parity:
            continue
        mplus = m - mminus
        if mplus == 2 or mminus == 2:
            continue  # SO(2) in the centralizer
        cent = []
        if mplus >= 3:
            cent.append(so(mplus))
        if mminus >= 3:
            cent.append(so(mminus))
        pi0 = 2 if (mplus >= 1 and mminus >= 1) else 1
        out.append(_EllClass(("so", mplus, mminus), tuple(cent), pi0))
    return out


def elliptic_classes(c: ComponentDatum):
    """Elliptic classes of the component as products of factor classes,
    before any central quotient.  Returns (descriptor tuple, centralizer
    shape, pi0) records."""
    per_factor = [
        _factor_elliptic_classes(f, t) for f, t in zip(c.base.factors, c.coset)
    ]
    out = []
    for combo in itertools.product(*per_factor):
        desc = tuple(cl.descriptor for cl in combo)
        cent = tuple(f for cl in combo for f in cl.cent_factors)
        pi0 = 1
        for cl in combo:
            pi0 *= cl.pi0
        out.append((desc, ConnectedShape(cent), pi0))
    return out


def _sigma_of(factors) -> Fraction:
    """The product of the per-factor sigma constants."""
    num = den = 1
    for f in factors:
        value = _sigma_factor(f.kind, f.size)
        num *= value.numerator
        den *= value.denominator
    return Fraction(num, den)


@lru_cache(maxsize=None)
def _factor_e_number(kind: str, size: int, twisted: bool) -> Fraction:
    """e of one factor's identity component or outer coset: the sum of
    sigma(S_s^0) / |pi_0(S_s)| over its elliptic classes."""
    total = Fraction(0)
    for cl in _factor_elliptic_classes(Factor(kind, size), twisted):
        total += _sigma_of(cl.cent_factors) / cl.pi0
    return total


def e_number(c: ComponentDatum) -> Fraction:
    """e(S): sum over elliptic classes of sigma(S_s^0) / |pi_0(S_s)|, exact.

    The elliptic classes, their centralizers and their component counts are
    products over the factors, and sigma is multiplicative, so e(S) is the
    product of the per-factor values, like `i_number`.  A central quotient
    does not change it: e(S/Z) = e(S), as i(S/Z) = i(S).
    """
    num = den = 1
    for f, t in zip(c.base.factors, c.coset):
        value = _factor_e_number(f.kind, f.size, t)
        num *= value.numerator
        den *= value.denominator
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# sigma


def sigma(shape: ConnectedShape) -> Fraction:
    """The constant sigma of a connected reductive group.

    sigma vanishes on positive-dimensional centers, equals 1 on the trivial
    group and is multiplicative over the factors of a semisimple group,
    each factor's value fixed by solving i = e (`_sigma_factor`).  Under
    the order-2 central quotient it doubles: sigma(S/Z) = 2 sigma(S).
    """
    total = _sigma_of(shape.factors)
    if shape.central_quotient is not None:
        total *= 2
    return total


@lru_cache(maxsize=None)
def _sigma_factor(kind: str, size: int) -> Fraction:
    """sigma of one simple factor, by solving i = e for its identity
    component (Arthur 2013, section 4.1).

    The central elliptic classes, with all eigenvalues +1 or all -1, are one
    per central element and each contributes sigma of the factor itself;
    every other class has a centralizer of strictly smaller factors, whose
    sigma values are products of this function at smaller sizes.
    """
    factor = Factor(kind, size)
    if factor.center_dim:
        return Fraction(0)
    rest = Fraction(0)
    for cl in _factor_elliptic_classes(factor, False):
        if 0 not in cl.descriptor[1:]:
            rest += _sigma_of(cl.cent_factors) / cl.pi0
    return (_factor_i_number(kind, size, False) - rest) / factor.center_order

"""Elliptic endoscopic data for U(N) and the twisted GL(N), with the
stabilization coefficients and the (parameter, semisimple element)
correspondence.

Standard elliptic data of U(N) are the pairs U(N1) x U(N2), N1 + N2 = N,
with coefficient 1, 1/2 or 1/4 according to whether one part vanishes, the
parts are distinct and nonzero, or equal and nonzero; the outer group is
Z/2 exactly when N1 = N2 != 0.  Twisted elliptic data of GL(N) carry a sign
pair (kappa1, kappa2): opposite signs when N1 = N2 mod 2, equal signs
otherwise, with the two opposite-sign choices identified when N1 = N2; the
coefficient is 1/2 for the two simple data and 1/4 otherwise, and all
twisted outer groups are trivial.

`correspond` realizes the bijection sending a semisimple element s of the
centralizer (given through its +-1 eigenvalue multiplicities per factor)
to the pair (U(N+) x U(N-), psi+ x psi-) cut out by the eigenspaces of s.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .centralizer import centralizer_shape, component_group
from .params import GlobalParameter, SimpleDatumTag
from .values import Value, set_field


class StandardDatum(Value):
    __slots__ = ("split", "out_order", "iota")

    def __init__(self, split: Tuple[int, int], out_order: int, iota: Fraction):
        n1, n2 = split
        if n1 < n2 or n2 < 0 or n1 + n2 < 1:
            raise ValueError("split must satisfy N1 >= N2 >= 0, N >= 1")
        set_field(self, "split", split)
        set_field(self, "out_order", out_order)
        set_field(self, "iota", iota)


class TwistedDatum(Value):
    __slots__ = ("split", "signature", "is_simple", "iota_twisted", "parity")

    def __init__(self, split: Tuple[int, int], signature: Tuple[int, int], is_simple: bool,
                 iota_twisted: Fraction, parity: Optional[int] = None):
        set_field(self, "split", split)
        set_field(self, "signature", signature)
        set_field(self, "is_simple", is_simple)
        set_field(self, "iota_twisted", iota_twisted)
        set_field(self, "parity", parity)  # only for simple data


# The only coefficients, standard and twisted, shared by every datum.
_ONE, _HALF, _QUARTER = Fraction(1), Fraction(1, 2), Fraction(1, 4)


def _standard_datum(n1: int, n2: int) -> StandardDatum:
    """U(n1) x U(n2) with n1 >= n2: coefficient 1 when n2 = 0, else 1/4 with
    outer group Z/2 when the parts are equal, else 1/2."""
    if n2 == 0:
        return StandardDatum((n1, n2), 1, _ONE)
    if n1 == n2:
        return StandardDatum((n1, n2), 2, _QUARTER)
    return StandardDatum((n1, n2), 1, _HALF)


def enumerate_standard(N: int) -> List[StandardDatum]:
    """Equivalence classes of elliptic endoscopic data of U(N)."""
    if N < 1:
        raise ValueError("N must be positive")
    return [_standard_datum(N - n2, n2) for n2 in range(0, N // 2 + 1)]


def enumerate_twisted(N: int) -> List[TwistedDatum]:
    """Equivalence classes of twisted elliptic data of GL(N); exactly two
    simple classes, with the (1,-1)/(-1,1) identification when N1 = N2."""
    if N < 1:
        raise ValueError("N must be positive")
    out = []
    for n2 in range(0, N // 2 + 1):
        n1 = N - n2
        signatures = (((1, -1),) if n1 == n2 else ((1, -1), (-1, 1)) if (n1 - n2) % 2 == 0
                      else ((1, 1), (-1, -1)))
        simple = n2 == 0
        for sig in signatures:
            out.append(
                TwistedDatum(
                    split=(n1, n2),
                    signature=sig,
                    is_simple=simple,
                    iota_twisted=_HALF if simple else _QUARTER,
                    parity=(-1) ** (n1 - 1) * sig[0] if simple else None,
                )
            )
    return out


# ---------------------------------------------------------------------------
# (psi, s) <-> (G', psi')


class Correspondence(Value):
    """Output of `correspond`: the datum, the two parameter halves, and the
    size of the outer-orbit of the ordered pair (2 when the two halves play
    symmetric roles on a datum with nontrivial outer group)."""

    __slots__ = ("datum", "psi_plus", "psi_minus", "orbit")

    def __init__(self, datum: StandardDatum, psi_plus: Optional[GlobalParameter],
                 psi_minus: Optional[GlobalParameter], orbit: int):
        set_field(self, "datum", datum)
        set_field(self, "psi_plus", psi_plus)
        set_field(self, "psi_minus", psi_minus)
        set_field(self, "orbit", orbit)


def correspond(
    psi: GlobalParameter,
    tag: SimpleDatumTag,
    s: Dict[str, Tuple[int, int]],
) -> Correspondence:
    """The endoscopic pair attached to s in the centralizer of psi.

    `s` maps each constituent label (orthogonal and symplectic factors: one
    per self-dual constituent; general linear factors: one per partnered
    orbit representative) to the multiplicities (p, m) of its +1 and -1
    eigenvalues.  Symplectic factors need both p and m even; a partnered
    orbit contributes both members with the same split.
    """
    shape = centralizer_shape(psi, tag)
    plus_parts: List[Tuple] = []
    minus_parts: List[Tuple] = []

    def eat(sp, l, kind, *mates):
        p, m = s.get(sp.label, (l, 0))
        if p < 0 or m < 0 or p + m != l:
            raise ValueError("eigenvalue multiplicities for %r must sum to %d" % (sp.label, l))
        if kind == "Sp" and (p % 2 or m % 2):
            raise ValueError("odd eigenvalue count in a symplectic factor %r" % sp.label)
        for block in (sp,) + mates:
            if p:
                plus_parts.append((block, p))
            if m:
                minus_parts.append((block, m))

    for sp, l in shape.orthogonal:
        eat(sp, l, "O")
    for sp, l in shape.symplectic:
        eat(sp, l, "Sp")
    for sp, l in shape.general_linear:
        # the partner block carries the transpose-inverse of s, hence the
        # same +-1 eigenvalue multiplicities
        eat(sp, l, "GL", psi.constituent(sp.partner)[0])

    psi_plus = GlobalParameter(plus_parts) if plus_parts else None
    psi_minus = GlobalParameter(minus_parts) if minus_parts else None
    n_plus = psi_plus.total_degree if psi_plus else 0
    n_minus = psi_minus.total_degree if psi_minus else 0
    datum = _standard_datum(max(n_plus, n_minus), min(n_plus, n_minus))
    orbit = 2 if (n_plus == n_minus and psi_plus != psi_minus) else 1
    return Correspondence(datum, psi_plus, psi_minus, orbit)


def collapse_check(psi: GlobalParameter, tag: SimpleDatumTag):
    """Verify iota(G, G'_x) * orbit_x / |S_(psi'_x)| = 1 / |S_psi| for every
    x in the component group of a square-integrable parameter.

    orbit_x is the size of the outer-automorphism orbit of the ordered pair
    psi' (2 exactly when the two halves have equal degree but differ); it
    accounts for the two orderings of psi' occurring separately in the
    endoscopic expansion.  Returns the list of per-x records.
    """
    shape = centralizer_shape(psi, tag)
    if shape.symplectic or shape.general_linear or any(l != 1 for _, l in shape.orthogonal):
        raise ValueError("collapse check requires a square-integrable parameter")
    group = component_group(shape)
    s_order = group.order

    def half_order(half: Optional[GlobalParameter]) -> int:
        # |S| of a half on U(n) of psi's parity; the empty half gives 1
        if half is None:
            return 1
        n = half.total_degree
        return component_group(centralizer_shape(half, SimpleDatumTag(
            n, tag.parity * (-1) ** (n - 1)))).order

    records = []
    for vec in group.elements():
        s = {
            sp.label: ((l, 0) if sign == 1 else (0, l))
            for (sp, l), sign in zip(shape.orthogonal, vec)
        }
        corr = correspond(psi, tag, s)
        split_orders = half_order(corr.psi_plus) * half_order(corr.psi_minus)
        lhs = corr.datum.iota * corr.orbit * Fraction(1, split_orders)
        records.append((vec, corr, lhs == Fraction(1, s_order)))
    return records

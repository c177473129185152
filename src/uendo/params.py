"""Formal global parameters and their classification chains.

A formal parameter is an unordered sum of simple constituents mu (x) nu(n),
where mu is an opaque cuspidal label carrying (degree, duality) metadata and
nu(n) denotes the n-dimensional irreducible representation of SL(2, C).
Constituents that are not conjugate self-dual come in partnered pairs with
equal multiplicity.  Classification predicates (square-integrable, elliptic,
...) are evaluated through the shape of the centralizer the parameter would
have inside GL(N, C), both for the twisted general linear group and relative
to a unitary datum (N, kappa).
"""

from __future__ import annotations

from typing import Iterable, Optional

from .values import Value, set_field

ORTHOGONAL = "conjugate-orthogonal"
SYMPLECTIC = "conjugate-symplectic"
NOT_SELF_DUAL = "not-self-dual"

_DUALITIES = (ORTHOGONAL, SYMPLECTIC, NOT_SELF_DUAL)


class SimpleParameter(Value):
    """One simple constituent mu (x) nu(n) of a formal parameter.

    `duality` is the duality class of the cuspidal part mu alone; the class
    of the full constituent is computed by `constituent_parity`.  `partner`
    names the dual label mu* and is required exactly when mu is not
    self-dual.
    """

    __slots__ = ("label", "deg_mu", "duality", "su2_dim", "partner")

    def __init__(self, label: str, deg_mu: int, duality: str, su2_dim: int = 1,
                 partner: Optional[str] = None):
        if deg_mu < 1 or su2_dim < 1:
            raise ValueError("degrees must be positive")
        if duality not in _DUALITIES:
            raise ValueError("unknown duality %r" % (duality,))
        if (partner is not None) != (duality == NOT_SELF_DUAL):
            raise ValueError("partner must be given iff mu is not self-dual")
        if partner == label:
            raise ValueError("partnering must be fixed-point free")
        set_field(self, "label", label)
        set_field(self, "deg_mu", deg_mu)
        set_field(self, "duality", duality)
        set_field(self, "su2_dim", su2_dim)
        set_field(self, "partner", partner)

    @property
    def degree(self) -> int:
        return self.deg_mu * self.su2_dim

    @property
    def mu_sign(self) -> Optional[int]:
        """Parity of mu as a sign, or None if mu is not self-dual."""
        if self.duality == ORTHOGONAL:
            return 1
        if self.duality == SYMPLECTIC:
            return -1
        return None


def constituent_parity(sp: SimpleParameter) -> str:
    """Duality class of mu (x) nu(n): nu(n) is orthogonal for n odd and
    symplectic for n even, and parities multiply."""
    if sp.duality == NOT_SELF_DUAL:
        return NOT_SELF_DUAL
    sign = sp.mu_sign * (-1) ** (sp.su2_dim - 1)
    return ORTHOGONAL if sign == 1 else SYMPLECTIC


def constituent_sign(sp: SimpleParameter) -> Optional[int]:
    """Same as `constituent_parity` but as +1/-1, None if not self-dual."""
    if sp.duality == NOT_SELF_DUAL:
        return None
    return sp.mu_sign * (-1) ** (sp.su2_dim - 1)


class SimpleDatumTag(Value):
    """A simple twisted datum (U(N), kappa); its parity is (-1)^(N-1) kappa."""

    __slots__ = ("N", "kappa")

    def __init__(self, N: int, kappa: int):
        if N < 1:
            raise ValueError("N must be positive")
        if kappa not in (1, -1):
            raise ValueError("kappa must be +1 or -1")
        set_field(self, "N", N)
        set_field(self, "kappa", kappa)

    @property
    def parity(self) -> int:
        return (-1) ** (self.N - 1) * self.kappa


class GlobalParameter:
    """A conjugate self-dual formal sum of simple constituents.

    Constituents are stored in a canonical order, keyed by
    (deg_mu, su2_dim, label), with multiplicities merged.  Construction
    checks that not-self-dual constituents are closed under partnering with
    equal multiplicities.  A parameter is frozen, like the `Value` classes,
    because it keys memos: its hash is computed once, and copying and
    pickling rebuild it through `__init__`.
    """

    __slots__ = ("constituents", "total_degree", "_by_label", "_hash")

    def __init__(self, constituents: Iterable):
        merged = {}
        for sp, mult in constituents:
            if mult < 1:
                raise ValueError("multiplicities must be >= 1")
            if sp in merged:
                merged[sp] += mult
            else:
                merged[sp] = mult
        labels = {}
        for sp in merged:
            if sp.label in labels:
                raise ValueError("duplicate label %r" % sp.label)
            labels[sp.label] = sp
        for sp, mult in merged.items():
            if sp.duality == NOT_SELF_DUAL:
                mate = labels.get(sp.partner)
                if mate is None:
                    raise ValueError("missing partner %r" % sp.partner)
                if mate.partner != sp.label:
                    raise ValueError("partnering is not an involution")
                if (mate.deg_mu, mate.su2_dim) != (sp.deg_mu, sp.su2_dim):
                    raise ValueError("partners must share degree data")
                if mate.duality != NOT_SELF_DUAL:
                    raise ValueError("partner of a non-self-dual mu must be non-self-dual")
                if merged[mate] != mult:
                    raise ValueError("partnered constituents need equal multiplicity")
        order = sorted(merged, key=lambda s: (s.deg_mu, s.su2_dim, s.label))
        constituents = tuple((sp, merged[sp]) for sp in order)
        total_degree = sum(sp.degree * l for sp, l in constituents)
        if total_degree < 1:
            raise ValueError("empty parameter")
        set_field(self, "constituents", constituents)
        set_field(self, "total_degree", total_degree)
        set_field(self, "_by_label", {sp.label: (sp, l) for sp, l in constituents})
        set_field(self, "_hash", hash(constituents))

    __setattr__ = Value.__setattr__
    __delattr__ = Value.__delattr__

    def __reduce__(self):
        return GlobalParameter, (self.constituents,)

    def __eq__(self, other):
        return isinstance(other, GlobalParameter) and self.constituents == other.constituents

    def __hash__(self):
        return self._hash

    def __repr__(self):
        parts = []
        for sp, l in self.constituents:
            head = "%d*" % l if l > 1 else ""
            parts.append("%s%s(x)nu(%d)" % (head, sp.label, sp.su2_dim))
        return "GlobalParameter<%s>" % " + ".join(parts)

    def constituent(self, label: str):
        return self._by_label[label]

    @property
    def self_dual(self):
        """Constituents with self-dual mu, in canonical order."""
        return tuple((sp, l) for sp, l in self.constituents if sp.duality != NOT_SELF_DUAL)

    @property
    def dual_pair_orbits(self):
        """One representative (sp, l) per partnered orbit of non-self-dual
        constituents; the representative has the smaller label."""
        out = []
        for sp, l in self.constituents:
            if sp.duality == NOT_SELF_DUAL and sp.label < sp.partner:
                out.append((sp, l))
        return tuple(out)

    @property
    def is_generic(self) -> bool:
        return all(sp.su2_dim == 1 for sp, _ in self.constituents)


class ChainMembership(Value):
    """Membership flags in the discreteness chains of parameter sets.

    Satisfies in_sim => in_2 => in_ell => in_disc and
    in_2 => in_s_disc => in_disc.
    """

    __slots__ = ("in_sim", "in_2", "in_ell", "in_s_disc", "in_disc", "is_generic")

    def __init__(self, in_sim: bool, in_2: bool, in_ell: bool, in_s_disc: bool,
                 in_disc: bool, is_generic: bool):
        set_field(self, "in_sim", in_sim)
        set_field(self, "in_2", in_2)
        set_field(self, "in_ell", in_ell)
        set_field(self, "in_s_disc", in_s_disc)
        set_field(self, "in_disc", in_disc)
        set_field(self, "is_generic", is_generic)


def parity_split(psi: GlobalParameter, tag: SimpleDatumTag):
    """The self-dual constituents whose parity agrees with the datum parity
    and those whose parity is opposite, as two tuples of (constituent,
    multiplicity) in canonical order: the O and Sp factors of the
    centralizer.  Raises `ValueError` when the degrees differ."""
    if psi.total_degree != tag.N:
        raise ValueError("degree mismatch: parameter has N=%d, datum N=%d"
                         % (psi.total_degree, tag.N))
    parity = tag.parity
    split = ([], [])  # agree, opposite
    for pair in psi.constituents:
        sign = constituent_sign(pair[0])
        if sign is not None:
            split[sign != parity].append(pair)
    return tuple(split[0]), tuple(split[1])


def factors_through(psi: GlobalParameter, tag: SimpleDatumTag) -> bool:
    """Whether the parameter defines a parameter of the unitary datum.

    True iff every self-dual constituent whose parity is opposite to the
    datum parity has even multiplicity, so that its symplectic centralizer
    factor Sp(l) is well formed.  Non-self-dual constituents impose nothing
    beyond partnering, which is enforced at construction.
    """
    for _, l in parity_split(psi, tag)[1]:
        if l % 2:
            return False
    return True


def _classify_twisted(psi: GlobalParameter) -> ChainMembership:
    # The twisted centralizer is connected, so sim = 2 and s-disc = disc.
    all_self_dual = len(psi.dual_pair_orbits) == 0
    mults_one = all(l == 1 for _, l in psi.constituents)
    simple = all_self_dual and mults_one and len(psi.constituents) == 1
    elliptic = all_self_dual and mults_one
    return ChainMembership(
        in_sim=simple,
        in_2=simple,
        in_ell=elliptic,
        in_s_disc=all_self_dual,
        in_disc=all_self_dual,
        is_generic=psi.is_generic,
    )


def classify(psi: GlobalParameter, tag: Optional[SimpleDatumTag] = None) -> ChainMembership:
    """Chain membership relative to a unitary datum, or (tag=None) to the
    twisted general linear group.

    Relative to a datum the flags are read off the centralizer
    prod O(l_i) x prod Sp(l_i) x prod GL(l_j): square-integrable needs all
    factors finite, elliptic needs an element with finite centralizer,
    s-disc and disc bound the center of the identity component and of the
    full group.  A parameter that does not factor through the datum gets
    all flags False (except genericity, a property of the parameter alone).
    """
    if tag is None:
        return _classify_twisted(psi)
    generic = psi.is_generic
    agree, opposite = parity_split(psi, tag)
    minus = [l for _, l in opposite]
    if any(l % 2 for l in minus):  # does not factor through
        return ChainMembership(False, False, False, False, False, generic)
    plus = [l for _, l in agree]
    has_gl = len(psi.dual_pair_orbits) > 0
    in_2 = not has_gl and not minus and all(l == 1 for l in plus)
    in_sim = in_2 and len(plus) == 1
    in_ell = not has_gl and not minus and all(l <= 2 for l in plus)
    in_s_disc = not has_gl and all(l != 2 for l in plus)
    in_disc = not has_gl
    return ChainMembership(in_sim, in_2, in_ell, in_s_disc, in_disc, generic)

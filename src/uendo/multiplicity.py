"""Stable multiplicity coefficients and a finite global-packet model.

The stable coefficient of a parameter against a datum is

    m * |S_psi|^-1 * eps_psi(s_psi) * sigma(Sbar^0_psi),

with m = 1 exactly when the parameter factors through the datum, S_psi the
component group, eps_psi the root-number sign character evaluated at the
canonical central element, and sigma the invariant of the identity
component modulo the central +-1.

The packet model is purely combinatorial: a member is a tuple of local
characters of the localized component groups (sign-vector functionals),
almost all trivial; its global character is the product of the local ones
pulled back through the localization maps.  A character of sign vectors is
its exponent vector mod 2, and a local exponent pulls back to the global
constituents refining into its label, so the global exponents are a sum
over places.  By orthogonality of characters of the finite 2-group, the
spectral multiplicity |S|^-1 sum_x eps(x) <x, pi> of a member is 1 when its
exponents equal those of eps_psi and 0 otherwise.  Pulling back is linear
over GF(2), so `packet_counts` counts members by rank, not one by one; the
tests compare it with `enumerate_members` and `spectral_multiplicity`, and
those with the character sum itself.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .centralizer import (
    CentralizerShape,
    FiniteTwoGroup,
    LocalizationMap,
    _gf2_rank,
    centralizer_shape,
    component_group,
)
from .params import (
    GlobalParameter,
    SimpleDatumTag,
    SimpleParameter,
    classify,
    constituent_sign,
    factors_through,
)
from .signs import RootNumberTable, _epsilon_character, _evaluate, epsilon_character
from .values import Value, set_field
from .weylnum import ConnectedShape, Factor, gl, sigma, so, sp


def identity_component_shape(shape: CentralizerShape) -> ConnectedShape:
    """S^0 modulo the central +-1 when that element lies in S^0."""
    factors: List[Factor] = []
    for _, l in shape.orthogonal:
        factors.append(so(l))
    for _, l in shape.symplectic:
        factors.append(sp(l))
    for _, l in shape.general_linear:
        factors.append(gl(l))
    central_in_s0 = all(l % 2 == 0 for _, l in shape.orthogonal)
    quotient = None
    if central_in_s0 and factors:
        quotient = (-1,) * len(factors)
    return ConnectedShape(tuple(factors), quotient)


def stable_coefficient(
    psi: GlobalParameter, tag: SimpleDatumTag, table: Optional[RootNumberTable] = None
) -> Fraction:
    """The stable coefficient; 0 when the parameter does not factor."""
    if psi.total_degree != tag.N or not factors_through(psi, tag):
        return Fraction(0)
    return _coefficient_and_counts(psi, tag, table or RootNumberTable(), ())[0]


def _coefficient_and_counts(
    psi: GlobalParameter, tag: SimpleDatumTag, table: RootNumberTable, places: Sequence[Place]
) -> Tuple[Fraction, Optional[Tuple[int, int]], Tuple[Tuple[str, str], ...]]:
    """The stable coefficient of a parameter that factors through the datum,
    its `packet_counts` if it is square-integrable and has places (else None)
    and `eps_psi.defaulted`; the shape, the group and eps_psi are built once."""
    table.validate_against(psi)
    shape = centralizer_shape(psi, tag)
    group = component_group(shape)
    eps = _epsilon_character(shape, table)
    coeff = Fraction(1, group.order) * eps.value_at_s_psi * sigma(identity_component_shape(shape))
    if not (places and classify(psi, tag).in_2):
        return coeff, None, eps.defaulted
    return coeff, _packet_counts(eps, GlobalPlacesModel(shape, places)), eps.defaulted


# ---------------------------------------------------------------------------
# Places and packet members


class Place(Value):
    """A place of the model: split places carry a trivial local group,
    inert places a localization refinement of the orthogonal labels."""

    __slots__ = ("name", "kind", "refinement")

    def __init__(self, name: str, kind: str,
                 refinement: Optional[Dict[str, Tuple[str, ...]]] = None):
        if kind not in ("inert", "split"):
            raise ValueError("place kind must be inert or split")
        set_field(self, "name", name)
        set_field(self, "kind", kind)
        set_field(self, "refinement", refinement)


class GlobalPlacesModel:
    """Localization data: one map of component groups per inert place, in
    the order given.  Place names must be distinct."""

    def __init__(self, shape: CentralizerShape, places: Sequence[Place]):
        self.shape = shape
        self.places = tuple(places)
        self.maps: Dict[str, LocalizationMap] = {}
        names = set()
        for place in self.places:
            if place.name in names:
                raise ValueError("place %r declared twice" % place.name)
            names.add(place.name)
            if place.kind == "split":
                continue
            refinement = place.refinement
            if refinement is None:
                refinement = {lab: (lab,) for lab in shape.plus_labels}
            self.maps[place.name] = LocalizationMap(shape, refinement)


class PacketMember(Value):
    """Local characters, one sign per local orthogonal label per inert
    place; split places are singletons with the trivial pairing."""

    __slots__ = ("local_characters",)

    def __init__(self, local_characters: Tuple[Tuple[str, Tuple[int, ...]], ...]):
        set_field(self, "local_characters", local_characters)

    def character_at(self, place: str) -> Tuple[int, ...]:
        for name, chi in self.local_characters:
            if name == place:
                return chi
        return ()


def _member_global_character(
    member: PacketMember, model: GlobalPlacesModel, group: FiniteTwoGroup
) -> Tuple[int, ...]:
    """Exponent vector, mod 2 and aligned with the group's labels, of the
    product character x -> prod_v <x_v, pi_v>, checked well defined on the
    component group: each local exponent adds to the exponents of the
    global constituents refining into its label."""
    exponents = [0] * len(group.labels)
    for name, locmap in model.maps.items():
        chi = member.character_at(name)
        if len(chi) != len(locmap.local_labels):
            raise ValueError("character at %r has wrong arity" % name)
        if _evaluate([c == -1 for c in chi], locmap.local_sigma_bar) != 1:
            raise ValueError("local character at %r not defined on the local group" % name)
        for c, label in zip(chi, locmap.local_labels):
            if c == -1:
                for i in locmap.local_sources[label]:
                    exponents[i] ^= 1
    if sum(e for e, s in zip(exponents, group.sigma_bar) if s == -1) % 2:
        raise ValueError("global character not defined on the component group")
    return tuple(exponents)


def spectral_multiplicity(
    psi: GlobalParameter,
    tag: SimpleDatumTag,
    table: RootNumberTable,
    member: PacketMember,
    model: GlobalPlacesModel,
) -> int:
    """Multiplicity |S|^-1 sum_x eps(x) <x, pi> of a packet member; 0 or 1."""
    group, eps = _group_and_epsilon(psi, tag, table)
    return int(_member_global_character(member, model, group) == eps.exponents)


def _group_and_epsilon(psi: GlobalParameter, tag: SimpleDatumTag, table: RootNumberTable):
    """The component group and eps_psi of a square-integrable parameter."""
    if not classify(psi, tag).in_2:
        raise ValueError("spectral multiplicity needs a square-integrable parameter")
    return component_group(centralizer_shape(psi, tag)), epsilon_character(psi, tag, table)


def packet_counts(
    psi: GlobalParameter, tag: SimpleDatumTag, table: RootNumberTable, model: GlobalPlacesModel
) -> Tuple[int, int]:
    """(members, selected): 2^d members for the d pulled-back basis characters
    of the inert places, and 2^(d - rank) of them selected when eps_psi lies
    in their span, 0 otherwise.

    Each pulled-back character is defined on the component group (of even
    weight on the odd-multiplicity labels): a local label's multiplicity has
    the parity of its odd sources, since a repeated source cancels in the
    mask and adds an even amount to the multiplicity.  So an even local
    label pulls back to an even weight, and two odd ones together too."""
    return _packet_counts(_group_and_epsilon(psi, tag, table)[1], model)


def _packet_counts(eps, model: GlobalPlacesModel) -> Tuple[int, int]:
    images = [mask for locmap in model.maps.values() for mask in locmap.character_images()]
    rank = _gf2_rank(images)
    target = sum(e << i for i, e in enumerate(eps.exponents))
    selected = 0 if _gf2_rank(images + [target]) > rank else 2 ** (len(images) - rank)
    return 2 ** len(images), selected


def enumerate_members(model: GlobalPlacesModel) -> List[PacketMember]:
    """All members over the model: every tuple of local characters."""
    per_place = []
    names = tuple(model.maps)
    for name in names:
        locmap = model.maps[name]
        chars = []
        for chi in itertools.product((1, -1), repeat=len(locmap.local_labels)):
            if _evaluate([c == -1 for c in chi], locmap.local_sigma_bar) != 1:
                continue  # not defined on the local component group
            chars.append(chi)
        per_place.append(chars)
    out = []
    for combo in itertools.product(*per_place):
        out.append(PacketMember(tuple(zip(names, combo))))
    return out


class SpectrumLine(Value):
    __slots__ = ("psi", "members_selected", "members_total")

    def __init__(self, psi: GlobalParameter, members_selected: int, members_total: int):
        set_field(self, "psi", psi)
        set_field(self, "members_selected", members_selected)
        set_field(self, "members_total", members_total)


def decompose_discrete_spectrum(
    seed: Sequence[SimpleParameter],
    tag: SimpleDatumTag,
    table: RootNumberTable,
    places: Sequence[Place],
) -> List[SpectrumLine]:
    """Enumerate the square-integrable parameters of degree N built from the
    seed constituents, and count packet members of multiplicity one.

    Square-integrable parameters are multiplicity-free sums of self-dual
    constituents of the datum parity; qualifying subsets of the seed with
    the right total degree are enumerated exhaustively.
    """
    usable = [
        sp
        for sp in seed
        if constituent_sign(sp) == tag.parity
    ]
    out: List[SpectrumLine] = []
    for r in range(1, len(usable) + 1):
        for combo in itertools.combinations(usable, r):
            if len({sp.label for sp in combo}) != len(combo):
                continue
            if sum(sp.degree for sp in combo) != tag.N:
                continue
            psi = GlobalParameter([(sp, 1) for sp in combo])
            model = GlobalPlacesModel(centralizer_shape(psi, tag), places)
            members, selected = packet_counts(psi, tag, table, model)
            out.append(SpectrumLine(psi, selected, members))
    out.sort(key=lambda line: repr(line.psi))
    return out

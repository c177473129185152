import itertools
from fractions import Fraction

import pytest

from uendo import multiplicity
from uendo.centralizer import centralizer_shape, component_group
from uendo.multiplicity import (
    GlobalPlacesModel,
    PacketMember,
    Place,
    decompose_discrete_spectrum,
    enumerate_members,
    identity_component_shape,
    spectral_multiplicity,
    stable_coefficient,
)
from uendo.params import (
    ORTHOGONAL,
    SYMPLECTIC,
    GlobalParameter,
    SimpleDatumTag,
    SimpleParameter,
)
from uendo.signs import RootNumberTable, epsilon_character
from uendo.weylnum import sigma


def sd(label, deg=1, parity=ORTHOGONAL, n=1):
    return SimpleParameter(label, deg, parity, n)


def tag_for(psi, parity=1):
    n = psi.total_degree
    return SimpleDatumTag(n, parity * (-1) ** (n - 1))


# ---------------------------------------------------------------------------
# Stable coefficient


def test_stable_simple_generic_is_one():
    psi = GlobalParameter([(sd("a", 3), 1)])
    assert stable_coefficient(psi, tag_for(psi)) == 1


def test_stable_non_factoring_is_zero():
    psi = GlobalParameter([(sd("a", 3), 1)])
    assert stable_coefficient(psi, tag_for(psi, -1)) == 0


def test_stable_elliptic_non_square_integrable_is_zero():
    # shape with q >= 1 doubled constituents: positive-dimensional center
    psi = GlobalParameter([(sd("a"), 2), (sd("b"), 1)])
    assert stable_coefficient(psi, tag_for(psi)) == 0


def test_stable_square_integrable_value():
    psi = GlobalParameter([(sd("a"), 1), (sd("b", 2), 1)])
    tag = tag_for(psi)
    # |S| = 2, eps trivial (generic), sigma(trivial quotient) = 1
    assert stable_coefficient(psi, tag) == Fraction(1, 2)


def test_stable_uses_epsilon_at_s_psi():
    mu1 = sd("m1", 1, ORTHOGONAL, 2)
    mu2 = sd("m2", 1, SYMPLECTIC, 1)
    psi = GlobalParameter([(mu1, 1), (mu2, 1)])
    tag = SimpleDatumTag(3, -1)
    minus = RootNumberTable({frozenset(("m1", "m2")): -1})
    plus = RootNumberTable()
    assert stable_coefficient(psi, tag, plus) == Fraction(1, 2)
    assert stable_coefficient(psi, tag, minus) == Fraction(-1, 2)


def test_stable_sigma_factor_for_symplectic_part():
    # 2 a (opposite parity) + b: S = Sp(2) x O(1): sigma(Sp(2) mod center)
    psi = GlobalParameter([(sd("a", 1, SYMPLECTIC), 2), (sd("b"), 1)])
    tag = SimpleDatumTag(3, 1)
    shape = centralizer_shape(psi, tag)
    assert stable_coefficient(psi, tag) == sigma(identity_component_shape(shape))


# ---------------------------------------------------------------------------
# Packet model


def two_constituent_setup(eps_sign=1, places=None):
    mu1 = sd("m1", 1, ORTHOGONAL, 2)
    mu2 = sd("m2", 1, SYMPLECTIC, 1)
    psi = GlobalParameter([(mu1, 1), (mu2, 1)])
    tag = SimpleDatumTag(3, -1)
    table = RootNumberTable(
        {frozenset(("m1", "m2")): eps_sign} if eps_sign == -1 else {}
    )
    places = places or [Place("v1", "inert"), Place("v2", "inert")]
    shape = centralizer_shape(psi, tag)
    model = GlobalPlacesModel(shape, places)
    return psi, tag, table, shape, model


def test_simple_parameter_multiplicity_one():
    psi = GlobalParameter([(sd("a", 2), 1)])
    tag = tag_for(psi)
    shape = centralizer_shape(psi, tag)
    model = GlobalPlacesModel(shape, [Place("v", "inert")])
    members = enumerate_members(model)
    assert len(members) == 1
    assert spectral_multiplicity(psi, tag, RootNumberTable(), members[0], model) == 1


def test_two_term_character_sum():
    psi, tag, table, shape, model = two_constituent_setup()
    members = enumerate_members(model)
    values = [spectral_multiplicity(psi, tag, table, m, model) for m in members]
    # trivial eps: members whose global character is trivial are selected
    assert set(values) == {0, 1}
    assert sum(values) == sum(
        1 for m in members if _global_char_trivial(m, model, shape)
    )


def _global_char_trivial(member, model, shape):
    group = component_group(shape)
    for vec in itertools.product((1, -1), repeat=len(group.labels)):
        val = 1
        for name, locmap in model.maps.items():
            chi = member.character_at(name)
            img = locmap.apply(vec)
            for c, x in zip(chi, img):
                if c == -1 and x == -1:
                    val = -val
        if val != 1:
            return False
    return True


def test_selection_follows_epsilon():
    psi, tag, table, shape, model = two_constituent_setup(-1)
    eps = epsilon_character(psi, tag, table)
    group = component_group(shape)
    members = enumerate_members(model)
    for member in members:
        m = spectral_multiplicity(psi, tag, table, member, model)
        # independent route: compare the member's global character with eps
        matches = True
        for vec in group.elements():
            val = 1
            for name, locmap in model.maps.items():
                chi = member.character_at(name)
                img = locmap.apply(vec)
                for c, x in zip(chi, img):
                    if c == -1 and x == -1:
                        val = -val
            if val != eps.evaluate(vec):
                matches = False
        assert m == (1 if matches else 0)


def test_multiplicity_rejects_non_square_integrable():
    psi = GlobalParameter([(sd("a"), 2)])
    tag = tag_for(psi)
    shape = centralizer_shape(psi, tag)
    model = GlobalPlacesModel(shape, [Place("v", "inert")])
    member = PacketMember((("v", (1,)),))
    with pytest.raises(ValueError):
        spectral_multiplicity(psi, tag, RootNumberTable(), member, model)


def test_split_places_are_trivial():
    psi = GlobalParameter([(sd("a"), 1), (sd("b", 2), 1)])
    tag = tag_for(psi)
    shape = centralizer_shape(psi, tag)
    split_only = GlobalPlacesModel(shape, [Place("v", "split")])
    members = enumerate_members(split_only)
    assert len(members) == 1  # no inert data: one member, trivial character
    assert spectral_multiplicity(psi, tag, RootNumberTable(), members[0], split_only) == 1


def test_member_count_orthogonality():
    # sum over global characters of [char == eps] equals the selected count
    psi, tag, table, shape, model = two_constituent_setup(-1)
    members = enumerate_members(model)
    selected = sum(spectral_multiplicity(psi, tag, table, m, model) for m in members)
    group = component_group(shape)
    # with two inert identity places over |S| = 2 there are 4 members; the
    # global character runs over products of two local signs
    assert len(members) == 4
    assert selected == 2  # (+,-) and (-,+) give the nontrivial character


# ---------------------------------------------------------------------------
# Spectrum decomposition


def test_decompose_single_seed():
    seed = [sd("a", 3)]
    tag = SimpleDatumTag(3, 1)
    lines = decompose_discrete_spectrum(seed, tag, RootNumberTable(), [Place("v", "inert")])
    assert len(lines) == 1
    assert lines[0].members_total == 1 and lines[0].members_selected == 1


def test_decompose_two_seeds_counts_characters():
    seed = [sd("a", 1), sd("b", 2)]
    tag = SimpleDatumTag(3, 1)
    lines = decompose_discrete_spectrum(
        seed, tag, RootNumberTable(), [Place("v1", "inert"), Place("v2", "inert")]
    )
    assert len(lines) == 1
    line = lines[0]
    assert line.members_total == 4
    assert line.members_selected == 2


def test_decompose_excludes_wrong_parity():
    # an opposite-parity constituent cannot enter square-integrable sums
    seed = [sd("a", 1, SYMPLECTIC), sd("b", 2), sd("c", 1)]
    tag = SimpleDatumTag(3, 1)
    lines = decompose_discrete_spectrum(seed, tag, RootNumberTable(), [Place("v", "inert")])
    labels = {tuple(sp.label for sp, _ in line.psi.constituents) for line in lines}
    assert labels == {("c", "b")}


def test_single_injective_place_selects_exactly_one_member():
    # with one inert identity place, members correspond bijectively to the
    # characters of the component group, and exactly one matches eps
    psi = GlobalParameter([(sd("a"), 1), (sd("b", 2), 1), (sd("c", 3), 1)])
    tag = tag_for(psi)
    shape = centralizer_shape(psi, tag)
    model = GlobalPlacesModel(shape, [Place("v", "inert")])
    members = enumerate_members(model)
    assert len(members) == component_group(shape).order
    selected = sum(
        spectral_multiplicity(psi, tag, RootNumberTable(), m, model) for m in members
    )
    assert selected == 1


def test_base_change_dispatcher():
    from uendo.localcalc import ArchParameter, UnramifiedCharacter, base_change

    p = ArchParameter((0, 1))
    assert base_change(p, 1, 0).exponents == p.exponents
    chars = (UnramifiedCharacter(0),)
    assert base_change(chars, -1)[0].q == Fraction(1, 2)


def test_decompose_multiplicities_zero_or_one():
    seed = [sd("a", 1), sd("b", 1), sd("c", 2)]
    tag = SimpleDatumTag(4, -1)
    places = [Place("v1", "inert"), Place("v2", "split"), Place("v3", "inert")]
    for line in decompose_discrete_spectrum(seed, tag, RootNumberTable(), places):
        assert 0 <= line.members_selected <= line.members_total


def test_packet_work_is_done_once_per_parameter(monkeypatch):
    # eps and the component group are computed once per parameter, and each
    # member's multiplicity is the one `spectral_multiplicity` gives alone
    calls = []

    def counted(*args):
        calls.append(args)
        return epsilon_character(*args)

    monkeypatch.setattr(multiplicity, "epsilon_character", counted)
    for eps_sign in (1, -1):
        psi, tag, table, shape, model = two_constituent_setup(eps_sign)
        members = enumerate_members(model)
        calls.clear()
        values = multiplicity._multiplicities(psi, tag, table, model, members)
        assert len(calls) == 1
        calls.clear()
        assert values == [spectral_multiplicity(psi, tag, table, m, model) for m in members]
        assert len(calls) == len(members) == 4
    seed = [sd("a", 1), sd("b", 1), sd("c", 2)]
    places = [Place("v1", "inert"), Place("v2", "split"), Place("v3", "inert")]
    calls.clear()
    lines = decompose_discrete_spectrum(seed, SimpleDatumTag(4, -1), RootNumberTable(), places)
    assert len(calls) == len(lines) >= 1

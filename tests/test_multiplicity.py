import itertools
import random
from fractions import Fraction

import pytest

from uendo import multiplicity
from uendo.centralizer import LocalizationMap, centralizer_shape, component_group
from uendo.multiplicity import (
    GlobalPlacesModel,
    PacketMember,
    Place,
    decompose_discrete_spectrum,
    enumerate_members,
    identity_component_shape,
    packet_counts,
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
from uendo.signs import RootNumberTable, SignCharacter, _evaluate, epsilon_character
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


def test_places_model_refuses_a_repeated_place_name():
    psi = GlobalParameter([(sd(label), 1) for label in "abc"])
    tag = tag_for(psi)
    shape = centralizer_shape(psi, tag)
    v = Place("v", "inert", {"a": ("x",), "b": ("x",), "c": ("y",)})
    model = GlobalPlacesModel(shape, [v, Place("w", "inert")])
    members = enumerate_members(model)
    selected = sum(spectral_multiplicity(psi, tag, RootNumberTable(), m, model)
                   for m in members)
    assert (len(members), selected) == (8, 2)
    # one map per name would drop a place that its members still counted
    for places in ([v, Place("v", "inert")], [Place("v", "inert"), v],
                   [v, Place("v", "split")]):
        with pytest.raises(ValueError, match="place 'v' declared twice"):
            GlobalPlacesModel(shape, places)


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


def test_decompose_skips_sums_that_repeat_a_label():
    # a(1) + a(2) has the datum's degree, but a sum of the seed repeats no label
    seed = [sd("a", 1), sd("a", 2), sd("b", 2)]
    tag = SimpleDatumTag(3, 1)
    lines = decompose_discrete_spectrum(seed, tag, RootNumberTable(), [Place("v", "inert")])
    labels = [tuple(sp.label for sp, _ in line.psi.constituents) for line in lines]
    assert labels == [("a", "b")]
    assert [sp.degree for sp, _ in lines[0].psi.constituents] == [1, 2]


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
        counts = packet_counts(psi, tag, table, model)
        assert len(calls) == 1
        calls.clear()
        values = [spectral_multiplicity(psi, tag, table, m, model) for m in members]
        assert counts == (len(values), sum(values))
        assert len(calls) == len(members) == 4
    seed = [sd("a", 1), sd("b", 1), sd("c", 2)]
    places = [Place("v1", "inert"), Place("v2", "split"), Place("v3", "inert")]
    calls.clear()
    lines = decompose_discrete_spectrum(seed, SimpleDatumTag(4, -1), RootNumberTable(), places)
    assert len(calls) == len(lines) >= 1


# ---------------------------------------------------------------------------
# The character sum as the oracle of the exponent comparison


def minus_positions(chi):
    """A local character's exponents: its -1 positions."""
    return [c == -1 for c in chi]


def character_sum_table(member, model, group):
    """The member's global character as its values on every sign vector in
    product order, each pushed to the places through `LocalizationMap.apply`,
    with the arity, local and global well-definedness checks."""
    for name, locmap in model.maps.items():
        chi = member.character_at(name)
        if len(chi) != len(locmap.local_labels):
            raise ValueError("character at %r has wrong arity" % name)
        if _evaluate(minus_positions(chi), locmap.local_sigma_bar) != 1:
            raise ValueError("local character at %r not defined on the local group" % name)
    values = {}
    for vec in itertools.product((1, -1), repeat=len(group.labels)):
        val = 1
        for name, locmap in model.maps.items():
            val *= _evaluate(minus_positions(member.character_at(name)), locmap.apply(vec))
        values[vec] = val
    for vec, val in values.items():
        twin = tuple(a * b for a, b in zip(vec, group.sigma_bar))
        if values[twin] != val:
            raise ValueError("global character not defined on the component group")
    return [values[vec] for vec in itertools.product((1, -1), repeat=len(group.labels))]


def character_sum_multiplicities(psi, tag, table, model, members):
    """|S|^-1 sum_x eps(x) <x, pi> for each member, summed over every sign
    vector x."""
    if not multiplicity.classify(psi, tag).in_2:
        raise ValueError("spectral multiplicity needs a square-integrable parameter")
    group = component_group(centralizer_shape(psi, tag))
    eps = epsilon_character(psi, tag, table)
    eps_vals = [eps.evaluate(v) for v in itertools.product((1, -1), repeat=len(group.labels))]
    out = []
    for member in members:
        total = sum(e * m for e, m in zip(eps_vals, character_sum_table(member, model, group)))
        assert total in (0, len(eps_vals))
        out.append(total // len(eps_vals))
    return out


def member_multiplicities(psi, tag, table, model, members):
    return [spectral_multiplicity(psi, tag, table, m, model) for m in members]


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def oracle_setups():
    """Shapes of at most four orthogonal labels with multiplicities 1-3,
    alternating orthogonal nu(1) and symplectic nu(2) constituents so that
    every neighbouring pair has a root number; places with identity
    refinements, with p0 split into two local labels, and with p0 and p1
    merged into one."""
    for n in range(1, 5):
        labels = ["p%d" % i for i in range(n)]
        for mults in itertools.combinations_with_replacement((1, 2, 3), n):
            cons = [(sd(lab, 1, ORTHOGONAL, 1) if i % 2 == 0 else sd(lab, 1, SYMPLECTIC, 2), l)
                    for i, (lab, l) in enumerate(zip(labels, mults))]
            psi = GlobalParameter(cons)
            tag = tag_for(psi)
            shape = centralizer_shape(psi, tag)
            identity = {lab: (lab,) for lab in labels}
            refinements = [identity, dict(identity, p0=("p0a", "p0b"))]
            if n >= 2:
                refinements.append(dict(identity, p0=("z",), p1=("z",)))
            pairs = [frozenset(p) for p in itertools.combinations(labels, 2)
                     if (int(p[0][1:]) + int(p[1][1:])) % 2]
            tables = [RootNumberTable(), RootNumberTable({p: -1 for p in pairs})]
            for refinement in refinements:
                places = [Place("v1", "inert", refinement), Place("v2", "split"),
                          Place("v3", "inert")]
                yield psi, tag, shape, tables, GlobalPlacesModel(shape, places)


def test_multiplicities_match_character_sum():
    models = nontrivial_eps = selected = 0
    for psi, tag, shape, tables, model in oracle_setups():
        models += 1
        group = component_group(shape)
        members = enumerate_members(model)
        for member in members:
            exponents = multiplicity._member_global_character(member, model, group)
            table = [SignCharacter(group.labels, exponents, 1, ()).evaluate(v)
                     for v in itertools.product((1, -1), repeat=len(group.labels))]
            assert table == character_sum_table(member, model, group), (psi, member)
        for table in tables:
            expected = outcome(character_sum_multiplicities, psi, tag, table, model, members)
            got = outcome(member_multiplicities, psi, tag, table, model, members)
            assert got == expected, (psi, model.places)
            counts = (len(got), sum(got)) if isinstance(got, list) else got
            assert outcome(packet_counts, psi, tag, table, model) == counts, (psi, model.places)
            if isinstance(got, list):
                nontrivial_eps += not epsilon_character(psi, tag, table).is_trivial
                selected += sum(got)
    assert models == 99
    assert nontrivial_eps > 0 and selected > 0


def test_malformed_members_raise_the_character_sum_errors():
    checked = 0
    for psi, tag, shape, tables, model in oracle_setups():
        if not multiplicity.classify(psi, tag).in_2:
            continue
        group = component_group(shape)
        good = enumerate_members(model)[0]
        v1 = model.maps["v1"]
        bad_local = tuple(-1 if i == 0 else 1 for i in range(len(v1.local_labels)))
        malformed = [
            PacketMember((("v1", good.character_at("v1") + (1,)),
                          ("v3", good.character_at("v3")))),
            PacketMember((("v1", good.character_at("v1")),)),
        ]
        if _evaluate(minus_positions(bad_local), v1.local_sigma_bar) != 1:
            malformed.append(PacketMember((("v1", bad_local), ("v3", good.character_at("v3")))))
        for member in malformed:
            expected = outcome(character_sum_table, member, model, group)
            assert expected[0] == "ValueError", member
            assert outcome(multiplicity._member_global_character, member, model, group) == expected
            for table in tables:
                assert outcome(member_multiplicities, psi, tag, table, model,
                               [good, member]) == expected
            checked += 1
    assert checked == 32


# ---------------------------------------------------------------------------
# Packet counts by rank against the enumerated members


def enumerated_counts(psi, tag, table, model):
    """(members, selected) by listing every member and testing each."""
    values = member_multiplicities(psi, tag, table, model, enumerate_members(model))
    return len(values), sum(values)


def seeded_packet_setup(rng):
    """Up to five labels of multiplicity 1-3, mostly 1 (square-integrable
    parameters are multiplicity free), alternating as in `oracle_setups`,
    with -1 roots drawn on the pairs that allow them and 0-3 places whose
    refinements keep, split and merge labels at random."""
    n = rng.randint(1, 5)
    labels = ["p%d" % i for i in range(n)]
    cons = [(sd(lab, 1, ORTHOGONAL, 1) if i % 2 == 0 else sd(lab, 1, SYMPLECTIC, 2),
             1 if rng.random() < 0.9 else rng.randint(2, 3)) for i, lab in enumerate(labels)]
    psi = GlobalParameter(cons)
    tag = tag_for(psi)
    table = RootNumberTable({frozenset(p): -1 for p in itertools.combinations(labels, 2)
                             if (int(p[0][1:]) + int(p[1][1:])) % 2 and rng.random() < 0.5})
    places = []
    for j in range(rng.randint(0, 3)):
        if rng.random() < 0.25:
            places.append(Place("v%d" % j, "split"))
            continue
        pool = ["z%d" % i for i in range(rng.randint(1, n + 1))]
        refinement = {lab: tuple(rng.sample(pool, rng.randint(1, min(2, len(pool)))))
                      for lab in labels}
        places.append(Place("v%d" % j, "inert", refinement))
    return psi, tag, table, GlobalPlacesModel(centralizer_shape(psi, tag), places)


def test_packet_counts_match_enumeration_on_seeded_refinements():
    rng = random.Random(1457)
    counted = set()
    answered = 0
    for _ in range(400):
        psi, tag, table, model = seeded_packet_setup(rng)
        got = outcome(packet_counts, psi, tag, table, model)
        assert got == outcome(enumerated_counts, psi, tag, table, model), (psi, model.places)
        if got[0] == "ValueError":
            continue
        answered += 1
        merged = any(len(set(sources)) > 1
                     for loc in model.maps.values() for sources in loc.local_sources.values())
        counted.add((got[1] > 0, merged, -1 in table.entries.values()))
    # both outcomes, each with a merged refinement and -1 roots
    assert answered > 100
    assert {(False, True, True), (True, True, True)} <= counted


def test_pulled_back_characters_have_even_weight_on_the_odd_labels():
    # `packet_counts` reads each image as a character of the component group,
    # which needs even weight on the odd-multiplicity labels: a local label's
    # multiplicity has the parity of its odd sources counted with repetition,
    # and a repeated source cancels in the mask
    rng = random.Random(3061)
    images = 0
    seen = set()
    for _ in range(1000):
        n = rng.randint(1, 5)
        labels = ["p%d" % i for i in range(n)]
        psi = GlobalParameter([(sd(lab), rng.randint(1, 3)) for lab in labels])
        shape = centralizer_shape(psi, tag_for(psi))
        odd = sum(1 << i for i, s in enumerate(component_group(shape).sigma_bar) if s == -1)
        pool = ["z%d" % i for i in range(rng.randint(1, n + 1))]
        refinement = {lab: tuple(rng.choices(pool, k=rng.randint(1, 3))) for lab in labels}
        locmap = LocalizationMap(shape, refinement)
        for mask in locmap.character_images():
            assert (mask & odd).bit_count() % 2 == 0, (psi, refinement)
            images += 1
        sources = locmap.local_sources.values()
        seen.add((any(len(set(s)) < len(s) for s in sources),
                  any(len(set(s)) > 1 for s in sources), odd != 0))
    assert images > 1000
    # repeated sources and merged labels, each with odd-multiplicity labels
    assert {(True, True, True), (True, False, True), (False, True, True)} <= seen

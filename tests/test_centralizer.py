import collections
import itertools
import math
import random

import pytest

from families import random_parameter, sd, tag_for
from oracles import classify_twisted_by_orbits, levi_diagram_by_blocks
from uendo.centralizer import (
    CentralizerShape,
    FiniteTwoGroup,
    LocalizationMap,
    NormalizerElement,
    NormalizerModel,
    brute_force_order,
    centralizer_shape,
    component_group,
    levi_diagram,
)
from uendo.params import (
    NOT_SELF_DUAL,
    SYMPLECTIC,
    GlobalParameter,
    SimpleDatumTag,
    SimpleParameter,
    classify,
)


def build(mults_plus, mults_minus=(), mults_gl=(), degs_plus=None):
    cons = []
    degs_plus = degs_plus or [1] * len(mults_plus)
    for idx, (l, deg) in enumerate(zip(mults_plus, degs_plus)):
        cons.append((sd("p%d" % idx, deg), l))
    for idx, l in enumerate(mults_minus):
        cons.append((sd("q%d" % idx, 1, SYMPLECTIC), l))
    for idx, l in enumerate(mults_gl):
        a = SimpleParameter("g%d" % idx, 1, NOT_SELF_DUAL, 1, partner="g%dx" % idx)
        b = SimpleParameter("g%dx" % idx, 1, NOT_SELF_DUAL, 1, partner="g%d" % idx)
        cons.append((a, l))
        cons.append((b, l))
    psi = GlobalParameter(cons)
    n = psi.total_degree
    tag = SimpleDatumTag(n, (-1) ** (n - 1))  # datum parity +1
    return psi, tag


def seen_set_elements(model):
    """The normalizer enumerated with a duplicate filter: every Weyl element
    with every choice of odd bits, canonicalized modulo the central flip to
    the smaller of the bits and their negative, first occurrence kept."""
    out = []
    seen = set()
    for blocks in itertools.product(*model.weyl_blocks()):
        for bits in itertools.product((1, -1), repeat=len(model.odd_labels)):
            if model.odd_labels:
                bits = min(bits, tuple(-b for b in bits))
            elem = NormalizerElement(tuple(blocks), tuple(bits))
            if elem not in seen:
                seen.add(elem)
                out.append(elem)
    return out


def found_set_elements(group):
    """Component-group representatives through `canonical` and a set, in
    order of first occurrence over the sign vectors."""
    out = []
    found = set()
    for vec in itertools.product((1, -1), repeat=len(group.labels)):
        rep = group.canonical(vec)
        if rep not in found:
            found.add(rep)
            out.append(rep)
    return out


def s1_subgroup(shape):
    """Image in the component group of the sign vectors supported on the
    odd-multiplicity orthogonal indices.  sigma_bar flips exactly those
    indices, so the canonical images are the vectors supported there with
    +1 at the first of them, listed in product order (+1 before -1)."""
    odd_idx = [i for i, (_, l) in enumerate(shape.orthogonal) if l % 2]
    out = []
    for bits in itertools.product((1, -1), repeat=max(len(odd_idx) - 1, 0)):
        vec = [1] * len(shape.orthogonal)
        for pos, b in zip(odd_idx[1:], bits):
            vec[pos] = b
        out.append(tuple(vec))
    return out


def splitting_section(shape):
    """The canonical section R -> S: put the R-signs on the even indices."""
    group = component_group(shape)
    even_idx = [i for i, (_, l) in enumerate(shape.orthogonal) if l % 2 == 0]

    def section(r_vec):
        vec = [1] * len(shape.orthogonal)
        for pos, b in zip(even_idx, r_vec):
            vec[pos] = b
        return group.canonical(tuple(vec))

    return section


def _project_to_r(shape, vec):
    """Projection S -> R; well defined because sigma_bar is trivial on the
    even coordinates."""
    return tuple(vec[i] for i, (_, l) in enumerate(shape.orthogonal) if l % 2 == 0)


def enumerated_splitting_ok(shape):
    """The splitting checked on every element: proj o section = id on all of
    R, and every element of S^1 projects to the identity of R.  It holds by
    construction: the section writes only the even indices, where sigma_bar
    is +1, so `canonical` leaves them alone, and S^1 is supported on the odd
    indices."""
    section = splitting_section(shape)
    unit = (1,) * len(shape.even_plus_labels)
    return (all(_project_to_r(shape, section(r_vec)) == r_vec
                for r_vec in itertools.product((1, -1), repeat=len(unit)))
            and all(_project_to_r(shape, v) == unit for v in s1_subgroup(shape)))


def lexicographic_min(group, vector):
    """The smaller of a vector and its product with sigma_bar, ordered
    lexicographically with +1 before -1."""
    other = tuple(a * b for a, b in zip(vector, group.sigma_bar))
    key = lambda v: tuple(0 if x == 1 else 1 for x in v)
    return vector if key(vector) <= key(other) else other


def set_s1_subgroup(shape):
    """S^1 by canonicalizing every sign vector supported on the odd indices
    through a set, sorted with +1 before -1."""
    group = component_group(shape)
    odd_idx = [i for i, (_, l) in enumerate(shape.orthogonal) if l % 2]
    images = set()
    for bits in itertools.product((1, -1), repeat=len(odd_idx)):
        vec = [1] * len(shape.orthogonal)
        for pos, b in zip(odd_idx, bits):
            vec[pos] = b
        images.add(group.canonical(tuple(vec)))
    return sorted(images, key=lambda v: tuple(0 if x == 1 else 1 for x in v))


def brute_sigma_classes(mults):
    """Independent enumeration of sign vectors modulo the central relation."""
    sigma_bar = tuple(-1 if l % 2 else 1 for l in mults)
    classes = set()
    for vec in itertools.product((1, -1), repeat=len(mults)):
        twin = tuple(a * b for a, b in zip(vec, sigma_bar))
        classes.add(frozenset((vec, twin)))
    return classes


# ---------------------------------------------------------------------------
# Shape families


def test_case_sp2_times_o1s():
    # 2 psi_1 + psi_2 + ... + psi_r with psi_1 of opposite parity
    cons = [(sd("a", 1, SYMPLECTIC, 1), 2), (sd("b"), 1), (sd("c"), 1)]
    psi = GlobalParameter(cons)
    tag = SimpleDatumTag(4, -1)
    assert tag.parity == 1
    shape = centralizer_shape(psi, tag)
    assert [(s.label, l) for s, l in shape.symplectic] == [("a", 2)]
    assert [l for _, l in shape.orthogonal] == [1, 1]


def test_case_o3_times_o1s():
    psi, tag = build((3, 1, 1))
    shape = centralizer_shape(psi, tag)
    assert sorted(l for _, l in shape.orthogonal) == [1, 1, 3]
    assert not shape.symplectic and not shape.general_linear


def test_case_o2_pattern():
    psi, tag = build((2, 2, 1, 1))
    shape = centralizer_shape(psi, tag)
    assert sorted(l for _, l in shape.orthogonal) == [1, 1, 2, 2]


def test_shape_requires_factoring():
    psi = GlobalParameter([(sd("a", 1, SYMPLECTIC), 1)])
    with pytest.raises(ValueError):
        centralizer_shape(psi, SimpleDatumTag(1, 1))


# ---------------------------------------------------------------------------
# Component group orders, (2.4.15) against brute force


@pytest.mark.parametrize("mults", [(1, 1), (2, 2), (1,), (2, 1), (3, 2, 1), (4, 4)])
def test_component_group_examples(mults):
    psi, tag = build(mults)
    shape = centralizer_shape(psi, tag)
    group = component_group(shape)
    k = len(mults)
    expected = 2 ** k if all(l % 2 == 0 for l in mults) else 2 ** (k - 1)
    assert group.order == expected
    assert group.order == len(brute_sigma_classes(mults))
    assert group.order == brute_force_order(shape)


def test_component_group_elements_match_found_set_enumeration():
    checked = 0
    for n in range(7):
        for sigma_bar in itertools.product((1, -1), repeat=n):
            group = FiniteTwoGroup(tuple("x%d" % i for i in range(n)), sigma_bar)
            assert group.elements() == found_set_elements(group), sigma_bar
            checked += 1
    assert checked == 127


def test_component_group_canonical_is_lexicographic_min():
    checked = 0
    for n in range(7):
        for sigma_bar in itertools.product((1, -1), repeat=n):
            group = FiniteTwoGroup(tuple("x%d" % i for i in range(n)), sigma_bar)
            for vec in itertools.product((1, -1), repeat=n):
                assert group.canonical(vec) == lexicographic_min(group, vec), (sigma_bar, vec)
            checked += 1
    assert checked == 127


def test_component_group_order_family():
    for k in range(1, 5):
        for mults in itertools.product((1, 2, 3, 4), repeat=k):
            psi, tag = build(mults)
            shape = centralizer_shape(psi, tag)
            assert component_group(shape).order == len(brute_sigma_classes(mults))


# ---------------------------------------------------------------------------
# Levi diagram


def test_levi_diagram_221():
    d = levi_diagram(centralizer_shape(*build((2, 2, 1))))
    assert d.s_order == 4
    assert d.s1_order == 1
    assert d.r_order == 4


def test_levi_diagram_11():
    d = levi_diagram(centralizer_shape(*build((1, 1))))
    assert d.s_order == 2
    assert d.s1_order == 2
    assert d.r_order == 1


def test_levi_diagram_simple_parameter():
    d = levi_diagram(centralizer_shape(*build((1,))))
    assert d.s_order == 1 and d.s1_order == 1 and d.r_order == 1
    assert d.w_order == d.w0_order == d.n_order == 1


def test_levi_diagram_family_exactness():
    # exact by construction: |S| |W0| = 2^(#O - [#odd > 0]) |W| / 2^(#even)
    # = |W| |S1| = |N|
    for k in range(1, 4):
        for mults in itertools.product((1, 2, 3, 4), repeat=k):
            d = levi_diagram(centralizer_shape(*build(mults)))
            assert d.n_order == d.s_order * d.w0_order, mults
            assert d.n_order == d.s1_order * d.w_order, mults


def _in_w0(shape, w_key):
    """Whether a Weyl key lies in W^0: each even O(l) block (the first
    blocks, in `torus_blocks` order) flips an even number of signs."""
    return all(w_key[idx][1].count(-1) % 2 == 0
               for idx, (_, l) in enumerate(shape.orthogonal) if l % 2 == 0)


def test_levi_diagram_counts_match_enumerated_normalizer():
    # every shape of at most 3 factors; Sp(l) needs l even to factor
    items = [("O", l) for l in (1, 2, 3, 4)] + [("Sp", 2), ("Sp", 4)]
    items += [("GL", l) for l in (1, 2, 3, 4)]
    checked = 0
    for size in (1, 2, 3):
        for combo in itertools.combinations_with_replacement(items, size):
            psi, tag = build(*(tuple(l for kd, l in combo if kd == kind)
                               for kind in ("O", "Sp", "GL")))
            shape = centralizer_shape(psi, tag)
            model = NormalizerModel(shape)
            elements = model.elements()
            assert elements == seen_set_elements(model), combo
            checked += 1
            w_keys = {e.blocks for e in elements}
            d = levi_diagram(shape)
            assert (d.n_order, d.w_order) == (len(elements), len(w_keys)), combo
            assert d.w0_order == sum(_in_w0(shape, w_key) for w_key in w_keys), combo
            assert d.s1_order == len(s1_subgroup(shape)), combo
            assert d.s_order == brute_force_order(shape), combo
            assert enumerated_splitting_ok(shape), combo
    assert checked == 285


def test_one_pass_flags_and_orders_match_their_first_forms():
    # seeded draws with partnered orbits, Sp factors and O factors of odd
    # and even multiplicity up to 4: the twisted chain flags and every field
    # of the diagram, r_labels included, equal those of the first forms
    rng = random.Random(4040)
    seen = collections.Counter()
    for _ in range(1000):
        psi = random_parameter(rng, max_mult=rng.choice((1, 4)))
        flags = classify(psi)
        assert flags == classify_twisted_by_orbits(psi), psi
        shape = centralizer_shape(psi, tag_for(psi))
        assert levi_diagram(shape) == levi_diagram_by_blocks(shape), psi
        seen.update(name for name, hit in (
            ("GL", shape.general_linear), ("Sp", shape.symplectic),
            ("odd O", shape.odd_plus_labels), ("even O", shape.even_plus_labels),
            ("sim", flags.in_sim), ("ell, not sim", flags.in_ell and not flags.in_sim),
            ("disc, not ell", flags.in_disc and not flags.in_ell),
            ("not disc", not flags.in_disc), ("generic", flags.is_generic)) if hit)
    assert min(seen.values()) >= 10 and len(seen) == 9, seen


def test_block_orders_match_enumerated_blocks():
    for mults_plus, mults_minus, mults_gl in (((1, 2, 3, 4, 5), (2, 4, 6), (1, 2, 3, 4, 5)),
                                              ((6,), (), (6,))):
        shape = centralizer_shape(*build(mults_plus, mults_minus, mults_gl))
        blocks = NormalizerModel(shape).weyl_blocks()
        assert levi_diagram(shape).w_order == math.prod(len(set(block)) for block in blocks)


def test_levi_diagram_never_enumerates_the_normalizer(monkeypatch):
    def refuse(*args):
        raise AssertionError("normalizer built or enumerated")

    monkeypatch.setattr(NormalizerModel, "__init__", refuse)
    monkeypatch.setattr("uendo.centralizer.element_table", refuse)
    monkeypatch.setattr("uendo.centralizer.signed_perms", refuse)
    # O(7) x O(7) and GL(7) x O(1), the ladder's largest rungs of their kinds
    for mults_plus, mults_gl, w_order, n_order in (((7, 7), (), 48 * 48, 2 * 48 * 48),
                                                   ((1,), (7,), 5040, 5040)):
        d = levi_diagram(centralizer_shape(*build(mults_plus, mults_gl=mults_gl)))
        assert (d.w_order, d.n_order) == (w_order, n_order)
        assert d.n_order == d.s_order * d.w0_order == d.s1_order * d.w_order


def test_s1_composite_to_r_trivial_and_section():
    psi, tag = build((2, 2, 1, 3))
    shape = centralizer_shape(psi, tag)
    group = component_group(shape)
    even_idx = [i for i, (_, l) in enumerate(shape.orthogonal) if l % 2 == 0]
    for v in s1_subgroup(shape):
        assert all(v[i] == 1 for i in even_idx)
    section = splitting_section(shape)
    for r_vec in itertools.product((1, -1), repeat=len(even_idx)):
        img = section(tuple(r_vec))
        assert tuple(img[i] for i in even_idx) == tuple(r_vec)


def test_s1_subgroup_matches_set_enumeration():
    checked = 0
    for n in range(7):
        for mults in itertools.product((1, 2, 3), repeat=n):
            orth = tuple((sd("p%d" % i), l) for i, l in enumerate(mults))
            shape = CentralizerShape(orth, (), ())
            assert s1_subgroup(shape) == set_s1_subgroup(shape), mults
            checked += 1
    assert checked == 1093


def test_normalizer_component_vectors_cover_group():
    psi, tag = build((2, 1, 1))
    shape = centralizer_shape(psi, tag)
    model = NormalizerModel(shape)
    group = component_group(shape)
    images = {model.image_in_s(e) for e in model.elements()}
    assert images == set(group.elements())


# ---------------------------------------------------------------------------
# Localization


def test_localization_identity_refinement_is_identity():
    psi, tag = build((1, 1, 2))
    shape = centralizer_shape(psi, tag)
    refinement = {lab: (lab,) for lab in shape.plus_labels}
    loc = LocalizationMap(shape, refinement)
    group = component_group(shape)
    for vec in group.elements():
        assert loc.apply(vec) == loc.local_group.canonical(vec)
    assert loc.is_injective()


def test_localization_distinct_refinements_injective():
    # each global constituent refines into several distinct local characters
    psi, tag = build((1, 1))
    shape = centralizer_shape(psi, tag)
    refinement = {
        "p0": ("p0a", "p0b"),
        "p1": ("p1a", "p1b", "p1c"),
    }
    loc = LocalizationMap(shape, refinement)
    assert loc.is_injective()


def test_localization_fusion_detected_noninjective():
    # two global constituents refine to one common local character
    psi, tag = build((1, 1, 1))
    shape = centralizer_shape(psi, tag)
    refinement = {"p0": ("z",), "p1": ("z",), "p2": ("w",)}
    loc = LocalizationMap(shape, refinement)
    assert not loc.is_injective()


def injective_by_elements(loc):
    """Injectivity of the localization map, image by image over the
    component group's representatives."""
    group = component_group(loc.shape)
    images = {}
    for vec in group.elements():
        img = loc.apply(vec)
        if img in images and images[img] != group.canonical(vec):
            return False
        images[img] = group.canonical(vec)
    return True


def set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]


def refinements(labels):
    """Identity, split, merged (one local label per block of a set
    partition) and merged-and-split refinements of the labels."""
    yield {lab: (lab,) for lab in labels}
    yield {lab: tuple(lab + x for x in "abc"[:1 + i % 3]) for i, lab in enumerate(labels)}
    for part in set_partitions(list(labels)):
        merged = {lab: ("m%d" % j,) for j, block in enumerate(part) for lab in block}
        yield merged
        yield {lab: merged[lab] + (lab,) for lab in labels}


def test_is_injective_matches_image_enumeration():
    checked, verdicts = 0, set()
    for n in range(5):
        for mults in itertools.product((1, 2, 3), repeat=n):
            orth = tuple((sd("p%d" % i), l) for i, l in enumerate(mults))
            shape = CentralizerShape(orth, (), ())
            for refinement in refinements(shape.plus_labels):
                loc = LocalizationMap(shape, refinement)
                want = injective_by_elements(loc)
                assert loc.is_injective() == want, (mults, refinement)
                verdicts.add(want)
                checked += 1
    assert verdicts == {True, False}
    assert checked == 2986


def test_localization_rejects_non_orthogonal_keys():
    cons = [(sd("a", 1, SYMPLECTIC, 1), 2), (sd("b"), 1)]
    psi = GlobalParameter(cons)
    tag = SimpleDatumTag(3, 1)
    shape = centralizer_shape(psi, tag)
    with pytest.raises(ValueError):
        LocalizationMap(shape, {"a": ("a",), "b": ("b",)})


def test_localization_preserves_central_relation():
    # the image of the global central relation is the local one
    psi, tag = build((1, 3))
    shape = centralizer_shape(psi, tag)
    refinement = {"p0": ("u", "v"), "p1": ("w",)}
    loc = LocalizationMap(shape, refinement)
    group = component_group(shape)
    img_center = loc.apply(group.sigma_bar)
    assert img_center == loc.local_group.canonical(loc.local_sigma_bar)

import copy
import itertools
import math
import pickle
import random
from types import MappingProxyType

import pytest

import uendo.signs
from families import random_table, sd
from oracles import (
    candidate_pairs_by_combinations,
    epsilon_full_product,
    signs_on_table,
    su2_tensor_dims,
    validate_root_numbers,
)
from uendo.centralizer import (
    NormalizerModel,
    centralizer_shape,
    component_group,
    element_table,
    levi_diagram,
)
from uendo.params import (
    NOT_SELF_DUAL,
    ORTHOGONAL,
    SYMPLECTIC,
    GlobalParameter,
    SimpleDatumTag,
    SimpleParameter,
    factors_through,
    parity_split,
)
from uendo.signs import (
    RelativeSigns,
    RootNumberTable,
    _candidate_pairs,
    _epsilon_character,
    epsilon_character,
    even_constituent_count,
    is_epsilon_parameter,
    relative_signs,
    s_psi_vector,
)
from uendo.weylnum import is_negative, signed_perms


# ---------------------------------------------------------------------------
# Clebsch-Gordan oracle


def brute_tensor_dims(a, b):
    """Decompose nu(a) (x) nu(b) through weight multiplicities."""
    weights = {}
    for wa in range(-(a - 1), a, 2):
        for wb in range(-(b - 1), b, 2):
            weights[wa + wb] = weights.get(wa + wb, 0) + 1
    dims = []
    top = max(weights)
    while weights.get(top, 0) > 0:
        mult = weights[top]
        for _ in range(mult):
            dims.append(top + 1)
        for w in range(-top, top + 1, 2):
            weights[w] -= mult
        top -= 2
        while top >= 0 and weights.get(top, 0) == 0:
            top -= 2
        if top < 0:
            break
    return tuple(sorted(dims))


@pytest.mark.parametrize("a,b", [(a, b) for a in range(1, 7) for b in range(1, 7)])
def test_su2_tensor_dims_against_weights(a, b):
    assert tuple(sorted(su2_tensor_dims(a, b))) == brute_tensor_dims(a, b)


@pytest.mark.parametrize("a,b", [(a, b) for a in range(1, 7) for b in range(1, 7)])
def test_even_count_closed_form(a, b):
    brute = sum(1 for d in brute_tensor_dims(a, b) if d % 2 == 0)
    assert even_constituent_count(a, b) == brute
    assert brute == (min(a, b) if (a + b) % 2 else 0)


# ---------------------------------------------------------------------------
# Tensor determinant oracle for the lambda bookkeeping


def kron(a, b):
    na, nb = len(a), len(b)
    out = [[0] * (na * nb) for _ in range(na * nb)]
    for i in range(na):
        for j in range(na):
            for k in range(nb):
                for l in range(nb):
                    out[i * nb + k][j * nb + l] = a[i][j] * b[k][l]
    return out


def det(m):
    """Leibniz expansion, row by row over the nonzero entries only: a
    permutation through a zero entry contributes nothing to the sum."""

    def expand(row, used):
        if row == len(m):
            return 1
        total = 0
        for col, x in enumerate(m[row]):
            if x and col not in used:
                # columns already taken to the right of col are inversions
                inversions = sum(1 for c in used if c > col)
                total += (-1) ** inversions * x * expand(row + 1, used | {col})
        return total

    return expand(0, frozenset())


@pytest.mark.parametrize("lk,lkp", [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (1, 3)])
def test_tensor_determinant_rule(lk, lkp):
    # det(s_k (x) s_k') = det(s_k)^(l_k') det(s_k')^(l_k) on +-1 diagonals
    rng = random.Random(7)
    for _ in range(6):
        dk = [[0] * lk for _ in range(lk)]
        dkp = [[0] * lkp for _ in range(lkp)]
        for i in range(lk):
            dk[i][i] = rng.choice((1, -1))
        for i in range(lkp):
            dkp[i][i] = rng.choice((1, -1))
        assert det(kron(dk, dkp)) == det(dk) ** lkp * det(dkp) ** lk


# ---------------------------------------------------------------------------
# Root number table


def test_table_defaults_and_warnings():
    t = RootNumberTable()
    a = sd("a", 1, ORTHOGONAL)
    b = sd("b", 1, SYMPLECTIC)
    assert t.epsilon(a, b) == 1
    assert t.entries == {}
    # the sign character lists the pair it took as +1, and only that one
    psi, tag, _ = u3_data(-1)
    assert epsilon_character(psi, tag, RootNumberTable()).defaulted == (("m1", "m2"),)
    for sign in (1, -1):
        assert epsilon_character(*u3_data(sign)).defaulted == ()


def test_table_rejects_same_parity_minus_one():
    t = RootNumberTable({frozenset(("a", "b")): -1})
    a, b = sd("a"), sd("b")
    with pytest.raises(ValueError):
        t.epsilon(a, b)


def u3_data(eps_sign):
    mu1 = sd("m1", 1, ORTHOGONAL, 2)
    mu2 = sd("m2", 1, SYMPLECTIC, 1)
    psi = GlobalParameter([(mu1, 1), (mu2, 1)])
    tag = SimpleDatumTag(3, -1)
    table = RootNumberTable({frozenset(("m1", "m2")): eps_sign})
    return psi, tag, table


# ---------------------------------------------------------------------------
# The sign character


def test_epsilon_u3_example_both_signs():
    psi, tag, table = u3_data(-1)
    char = epsilon_character(psi, tag, table)
    group = component_group(centralizer_shape(psi, tag))
    nontrivial = [x for x in group.elements() if x != (1, 1)]
    assert char.evaluate(nontrivial[0]) == -1
    assert char.value_at_s_psi == -1
    psi, tag, table = u3_data(1)
    assert epsilon_character(psi, tag, table).is_trivial


def test_epsilon_generic_always_trivial():
    rng = random.Random(11)
    for _ in range(200):
        r = rng.randint(1, 4)
        cons = []
        for i in range(r):
            parity = rng.choice((ORTHOGONAL, SYMPLECTIC))
            cons.append((sd("c%d" % i, rng.randint(1, 3), parity, 1), rng.randint(1, 3)))
        psi = GlobalParameter(cons)
        parity = rng.choice((1, -1))
        tag = SimpleDatumTag(psi.total_degree, parity * (-1) ** (psi.total_degree - 1))
        if not factors_through(psi, tag):
            continue
        table = random_table(psi, rng)
        assert epsilon_character(psi, tag, table).is_trivial


def _random_shape(rng, max_cons=4, max_n=4, max_l=3):
    r = rng.randint(1, max_cons)
    cons = []
    for i in range(r):
        parity = rng.choice((ORTHOGONAL, SYMPLECTIC))
        cons.append(
            (sd("c%d" % i, rng.randint(1, 2), parity, rng.randint(1, max_n)), rng.randint(1, max_l))
        )
    return GlobalParameter(cons)


def test_epsilon_central_value_random_family():
    rng = random.Random(20260811)
    tested = 0
    while tested < 400:
        psi = _random_shape(rng)
        parity = rng.choice((1, -1))
        tag = SimpleDatumTag(psi.total_degree, parity * (-1) ** (psi.total_degree - 1))
        if not factors_through(psi, tag):
            continue
        table = random_table(psi, rng)
        shape = centralizer_shape(psi, tag)
        group = component_group(shape)
        char = epsilon_character(psi, tag, table)
        assert char.evaluate(group.sigma_bar) == 1
        tested += 1


def _property_family(size, seed=20261019):
    """`size` seeded (psi, tag, shape) that factor: two to four constituents,
    self-dual ones of either cuspidal parity with SL(2) dimension 1 to 3 and
    partnered GL pairs, multiplicities 1 to 5, and either datum parity."""
    rng = random.Random(seed)
    out = []
    while len(out) < size:
        cons = []
        for i in range(rng.randint(2, 4)):
            if rng.random() < 0.25:
                cons += _gl_pair("g%d" % i, rng.randint(1, 5))
            else:
                parity = rng.choice((ORTHOGONAL, SYMPLECTIC))
                cons.append((sd("c%d" % i, 1, parity, rng.randint(1, 3)), rng.randint(1, 5)))
        psi = GlobalParameter(cons)
        parity = rng.choice((1, -1))
        tag = SimpleDatumTag(psi.total_degree, parity * (-1) ** (psi.total_degree - 1))
        if factors_through(psi, tag):
            out.append((psi, tag, centralizer_shape(psi, tag)))
    return out


def test_sign_character_is_trivial_on_sigma_bar_pair_by_pair():
    # A candidate pair has opposite mu signs and n + n' odd, so both of its
    # constituents are orthogonal or both symplectic.  On sigma_bar it adds
    # l' count [l odd] + l count [l' odd] to the sign character, which is even
    # in every case; in `_sign_structure` that is the pair's eps^(G/M) and
    # eps1 bits differing on an even number of odd factors.
    family = _property_family(400)
    pairs = both_orthogonal_odd = both_bits = with_gl = 0
    for psi, tag, shape in family:
        with_gl += bool(shape.general_linear)
        try:
            _, _, structure = uendo.signs._sign_structure(psi, tag)
        except ValueError:  # square-integrable: no proper Levi
            continue
        multiplicity = {sp.label: l for sp, l in shape.orthogonal}
        for key, eps1_bits, _, gm_bits, _, _ in structure:
            a, b = key
            assert (gm_bits ^ eps1_bits).bit_count() % 2 == 0, (psi, tag, key)
            assert (a in multiplicity) == (b in multiplicity), (psi, tag, key)
            pairs += 1
            both_bits += (gm_bits ^ eps1_bits).bit_count() == 2
            both_orthogonal_odd += (a in multiplicity and
                                    (multiplicity[a] % 2 or multiplicity[b] % 2))
    assert pairs > 100 and both_orthogonal_odd > 50 and both_bits > 10 and with_gl > 50, (
        pairs, both_orthogonal_odd, both_bits, with_gl)


def test_levi_diagram_is_exact_on_the_property_family():
    # |S| |W0| = 2^(#O - [#odd > 0]) |W| / 2^(#even O) = |W| |S1| = |N|
    for psi, tag, shape in _property_family(400):
        d = levi_diagram(shape)
        assert d.n_order == d.s_order * d.w0_order == d.s1_order * d.w_order, (psi, tag)


class _LoggingEntries(dict):
    """Root-number entries that record every key read with `get`."""

    def __init__(self, entries):
        super().__init__(entries)
        self.asked = []

    def get(self, key, default=None):
        self.asked.append(key)
        return super().get(key, default)


class _LoggingTable(RootNumberTable):
    """A root-number table that records every pair whose entry is read, and
    refuses `epsilon`: the sign code reads each entry once, by key."""

    def __init__(self, entries=None):
        super().__init__(entries)
        self.entries = _LoggingEntries(self.entries)

    @property
    def asked(self):
        return self.entries.asked

    def epsilon(self, k, kp):
        raise AssertionError("root number asked through epsilon")


def test_pair_filter_asks_table_only_for_even_opposite_pairs():
    # the table is asked, in pair order, exactly about the self-dual pairs of
    # opposite cuspidal parity with even SL(2) parts; the character lists,
    # sorted, those the table lacks, which the epsilon report prints
    rng = random.Random(7)
    tested = 0
    while tested < 200:
        psi = _random_shape(rng)
        parity = rng.choice((1, -1))
        tag = SimpleDatumTag(psi.total_degree, parity * (-1) ** (psi.total_degree - 1))
        if not factors_through(psi, tag):
            continue
        shape = centralizer_shape(psi, tag)
        entries = random_table(psi, rng).entries
        table = _LoggingTable({k: v for k, v in entries.items() if rng.random() < 0.5})
        char = epsilon_character(psi, tag, table)
        sds = [sp for sp, _ in shape.orthogonal + shape.symplectic]
        want = [
            (k.label, kp.label)
            for k, kp in itertools.combinations(sds, 2)
            if k.mu_sign != kp.mu_sign and even_constituent_count(k.su2_dim, kp.su2_dim)
        ]
        assert table.asked == [frozenset(p) for p in want]
        assert char.defaulted == tuple(sorted(
            tuple(sorted(p)) for p in want if frozenset(p) not in table.entries))
        tested += 1


def test_epsilon_two_formulas_agree():
    # the even-count formula against the full product over all constituents
    rng = random.Random(5)
    tested = 0
    while tested < 200:
        psi = _random_shape(rng, max_cons=3)
        parity = rng.choice((1, -1))
        tag = SimpleDatumTag(psi.total_degree, parity * (-1) ** (psi.total_degree - 1))
        if not factors_through(psi, tag):
            continue
        table = random_table(psi, rng)
        shape = centralizer_shape(psi, tag)
        group = component_group(shape)
        char = epsilon_character(psi, tag, table)
        for vec in group.elements():
            assert char.evaluate(vec) == epsilon_full_product(psi, tag, table, vec)
        tested += 1


def test_epsilon_rejects_bad_table():
    psi = GlobalParameter([(sd("a"), 1), (sd("b"), 1)])
    tag = SimpleDatumTag(2, -1)
    table = RootNumberTable({frozenset(("a", "b")): -1})  # same parity
    with pytest.raises(ValueError):
        epsilon_character(psi, tag, table)


def test_s_psi_vector_values():
    psi = GlobalParameter([(sd("a", 1, ORTHOGONAL, 2), 1), (sd("b", 1, SYMPLECTIC, 1), 1)])
    tag = SimpleDatumTag(3, -1)
    shape = centralizer_shape(psi, tag)
    # nu(2) factor: scalar (-1)^(2-1) = -1 with l = 1; nu(1): +1
    values = dict(zip(shape.plus_labels, s_psi_vector(shape)))
    assert values == {"a": -1, "b": 1}


# ---------------------------------------------------------------------------
# epsilon-parameters


def test_is_epsilon_parameter_examples():
    yes = GlobalParameter([(sd("a", 1, ORTHOGONAL, 2), 1), (sd("b", 1, ORTHOGONAL, 1), 1)])
    assert is_epsilon_parameter(yes)
    no_parity = GlobalParameter([(sd("a", 1, ORTHOGONAL, 2), 1), (sd("b", 1, SYMPLECTIC, 1), 1)])
    assert not is_epsilon_parameter(no_parity)
    no_count = GlobalParameter([(sd("a", 1, ORTHOGONAL, 3), 1), (sd("b", 1, ORTHOGONAL, 2), 1)])
    assert not is_epsilon_parameter(no_count)
    # the refusals before the parity and count tests: a multiplicity above
    # 1, one or three constituents, and a pair that is not self-dual (an
    # sd=none constituent comes with its partner, so that is the only such pair)
    (k, _), (kp, _) = yes.constituents
    assert not is_epsilon_parameter(GlobalParameter([(k, 1), (kp, 2)]))
    assert not is_epsilon_parameter(GlobalParameter([(k, 2), (kp, 1)]))
    assert not is_epsilon_parameter(GlobalParameter([(k, 1)]))
    assert not is_epsilon_parameter(
        GlobalParameter([(k, 1), (kp, 1), (sd("c", 2, ORTHOGONAL, 1), 1)]))
    gl_pair = GlobalParameter(_gl_pair("g", 1))
    assert len(gl_pair.constituents) == 2
    assert all(sp.duality == NOT_SELF_DUAL for sp, _ in gl_pair.constituents)
    assert not is_epsilon_parameter(gl_pair)


def test_is_epsilon_parameter_equivalent_condition():
    for n1, n2 in itertools.product(range(1, 6), repeat=2):
        psi = GlobalParameter(
            [(sd("a", 1, ORTHOGONAL, n1), 1), (sd("b", 2, ORTHOGONAL, n2), 1)]
        )
        direct = even_constituent_count(n1, n2) % 2 == 1
        closed = (n1 + n2) % 2 == 1 and min(n1, n2) % 2 == 1
        assert is_epsilon_parameter(psi) == direct == closed


# ---------------------------------------------------------------------------
# Relative signs


def _tables_for(psi):
    sds = [sp for sp, _ in psi.self_dual]
    pairs = [
        (a, b)
        for a, b in itertools.combinations(sds, 2)
        if a.mu_sign != b.mu_sign
    ]
    tables = [RootNumberTable()]
    if pairs:
        tables.append(
            RootNumberTable({frozenset((a.label, b.label)): -1 for a, b in pairs})
        )
    if len(pairs) >= 2:
        entry = {frozenset((pairs[0][0].label, pairs[0][1].label)): -1}
        tables.append(RootNumberTable(entry))
    return tables


def test_relative_signs_worked_example():
    mu1 = sd("m1", 1, ORTHOGONAL, 2)
    mu2 = sd("m2", 1, SYMPLECTIC, 1)
    psi = GlobalParameter([(mu1, 2), (mu2, 1)])
    tag = SimpleDatumTag(5, -1)
    table = RootNumberTable({frozenset(("m1", "m2")): -1})
    rec = relative_signs(psi, tag, table)
    assert rec.fibers_constant and rec.spectral_identity
    values = sorted(rec.r_minus.values())
    assert values == [-1, 1]  # identity Weyl element and the regular flip


def test_relative_signs_trivial_for_generic():
    psi = GlobalParameter([(sd("a", 1, ORTHOGONAL, 1), 2), (sd("b", 2, ORTHOGONAL, 1), 1)])
    tag = SimpleDatumTag(4, -1)
    rec = relative_signs(psi, tag, RootNumberTable())
    assert all(v == 1 for v in rec.r_minus.values())
    assert all(v == 1 for v in rec.eps1.values())
    assert rec.spectral_identity


def test_relative_signs_identity_weyl_element_trivial():
    psi = GlobalParameter([(sd("a", 1, ORTHOGONAL, 2), 2), (sd("b", 1, SYMPLECTIC, 1), 1)])
    tag = SimpleDatumTag(5, -1)
    table = RootNumberTable({frozenset(("a", "b")): -1})
    rec = relative_signs(psi, tag, table)
    identity_key = min(rec.r_minus, key=_flip_count)
    assert _flip_count(identity_key) == 0
    assert rec.r_minus[identity_key] == 1


def _flip_count(w_key):
    return sum(block[1].count(-1) for block in w_key)


def _zero_line_sign_by_cycles(block):
    """The zero-weight-line determinant walked cycle by cycle: -1 per cycle
    with an odd number of sign flips."""
    perm, signs = block
    seen = [False] * len(perm)
    val = 1
    for start in range(len(perm)):
        flips = 0
        i = start
        while not seen[i]:
            seen[i] = True
            flips += signs[i] == -1
            i = perm[i]
        if flips % 2:
            val = -val
    return val


def _zero_line_sign(block) -> int:
    """Determinant of the lift of a signed permutation on the zero-weight
    line of the odd orthogonal standard representation: -1 per cycle with
    an odd number of sign flips (lift independent, since the torus acts
    trivially on that line), which is the product of all the signs."""
    return math.prod(block[1])


def test_zero_line_sign_matches_cycle_walk():
    # and the element table's flip mask is the zero-line sign of each block
    checked = 0
    for rank in range(6):
        for kind in ("O", "Sp"):
            rows = element_table(((kind, rank),), 0)
            assert [w_key for _, w_key, _, _ in rows] == [(b,) for b in signed_perms(rank)]
            for _, (block,), flips, bits in rows:
                assert bits == 0
                assert flips == (_zero_line_sign(block) == -1), block
        for block in signed_perms(rank):
            assert _zero_line_sign(block) == _zero_line_sign_by_cycles(block), block
            checked += 1
    assert checked == 4283


def _perm_parity(perm):
    """Parity of a permutation: its length minus its number of cycles."""
    seen = [False] * len(perm)
    cycles = 0
    for start in range(len(perm)):
        if not seen[start]:
            cycles += 1
            i = start
            while not seen[i]:
                seen[i] = True
                i = perm[i]
    return (len(perm) - cycles) % 2


def test_perm_parity_matches_inversion_count():
    for rank in range(6):
        for perm in itertools.permutations(range(rank)):
            inversions = sum(p > q for i, p in enumerate(perm) for q in perm[i + 1:])
            assert _perm_parity(perm) == inversions % 2, perm


def test_relative_signs_requires_proper_levi():
    psi = GlobalParameter([(sd("a"), 1), (sd("b"), 1)])
    tag = SimpleDatumTag(2, -1)
    with pytest.raises(ValueError):
        relative_signs(psi, tag, RootNumberTable())


def _small_family():
    """(psi, tag) with a proper Levi: one to three constituents of SL(2)
    dimension at most 3 and multiplicity at most 3, on both datum parities."""
    kinds = []
    for musign in (1, -1):
        for n in (1, 2, 3):
            kinds.append((musign, n))
    for r in (1, 2, 3):
        for combo in itertools.combinations_with_replacement(kinds, r):
            for ls in itertools.product((1, 2, 3), repeat=r):
                cons = []
                for i, ((musign, n), l) in enumerate(zip(combo, ls)):
                    parity = ORTHOGONAL if musign == 1 else SYMPLECTIC
                    cons.append((sd("c%d" % i, 1, parity, n), l))
                psi = GlobalParameter(cons)
                for parity in (1, -1):
                    tag = SimpleDatumTag(
                        psi.total_degree, parity * (-1) ** (psi.total_degree - 1)
                    )
                    if not factors_through(psi, tag):
                        continue
                    shape = centralizer_shape(psi, tag)
                    if all(l == 1 for _, l in shape.orthogonal) and not shape.symplectic:
                        continue  # square integrable: no proper Levi
                    yield psi, tag


def test_spectral_identity_small_family():
    tested = 0
    for psi, tag in _small_family():
        for table in _tables_for(psi):
            rec = relative_signs(psi, tag, table)
            assert rec.fibers_constant, (psi, tag)
            assert rec.spectral_identity, (psi, tag)
            tested += 1
    assert tested > 200


def _levi_case(cons, parity):
    """A parameter and the datum of the given parity it factors through."""
    psi = GlobalParameter(cons)
    n = psi.total_degree
    tag = SimpleDatumTag(n, parity * (-1) ** (n - 1))
    assert factors_through(psi, tag)
    return psi, tag


def _gl_pair(label, l):
    a = SimpleParameter(label, 1, NOT_SELF_DUAL, 1, partner=label + "x")
    b = SimpleParameter(label + "x", 1, NOT_SELF_DUAL, 1, partner=label)
    return [(a, l), (b, l)]


# Blocks of rank 2 and 3 with odd core constituents, as (parameter, datum,
# block kinds and ranks).  In each orthogonal pair the labels have opposite
# cuspidal parity and an odd number of even SL(2) parts, so the tables of
# `_tables_for` give root number -1 between them.
RANK_CASES = [
    # O(6) x O(5)
    (*_levi_case([(sd("a", 1, ORTHOGONAL, 2), 6), (sd("b", 1, SYMPLECTIC, 1), 5)], -1),
     [("O", 2), ("O", 3)]),
    # Sp(6) x O(3)
    (*_levi_case([(sd("a", 1, ORTHOGONAL, 2), 6), (sd("b", 1, SYMPLECTIC, 2), 3)], 1),
     [("O", 1), ("Sp", 3)]),
    # GL(3) x O(1)
    (*_levi_case(_gl_pair("g", 3) + [(sd("b", 1, ORTHOGONAL, 1), 1)], 1),
     [("O", 0), ("GL", 3)]),
    # O(4) x Sp(4) x O(1)
    (*_levi_case([(sd("a", 1, ORTHOGONAL, 2), 4), (sd("s", 1, ORTHOGONAL, 1), 4),
                  (sd("b", 1, SYMPLECTIC, 1), 1)], -1),
     [("O", 0), ("O", 2), ("Sp", 2)]),
]


def _pair_count(k, kp, table):
    """Number of symplectic root-number blocks with even SL(2) part between
    two constituents of any kind, asked of the table one pair at a time: the
    oracle's count per pair of torus coordinates."""
    if k.duality == NOT_SELF_DUAL or kp.duality == NOT_SELF_DUAL:
        return 0
    if k.mu_sign == kp.mu_sign:
        return 0
    count = even_constituent_count(k.su2_dim, kp.su2_dim)
    if count == 0 or table.epsilon(k, kp) != -1:
        return 0
    return count


def _crossing_sign(model, w_key, table):
    """(-1) to the number of symplectic root-number constituents on the
    positive coordinate roots taken negative by w, counted root by root.

    Torus coordinates correspond to the general linear blocks of the Levi:
    floor(l/2) copies of each orthogonal constituent, l/2 of each symplectic
    one, l of each partnered orbit; the core collects one copy of each
    odd-multiplicity orthogonal constituent.  A pair of coordinates carries
    the two roots e_a - e_b and e_a + e_b, a coordinate against the core
    the root e_a.
    """
    core_consts = [sp for sp, l in model.shape.orthogonal if l % 2]
    # per coordinate: its constituent and its image (coordinate, sign)
    coords = []
    images = []
    offset = 0
    for (_, sp, _, rank), (perm, signs) in zip(model.block_meta, w_key):
        for pos in range(rank):
            coords.append(sp)
            images.append((offset + perm[pos], signs[pos]))
        offset += rank

    total = 0
    n = len(coords)
    for a in range(n):
        ka = coords[a]
        ia, sa = images[a]
        # root e_a against the core (and its double 2e_a, which carries the
        # Asai family and never contributes)
        if sa == -1:
            total += sum(_pair_count(ka, c, table) for c in core_consts)
        for b in range(a + 1, n):
            ib, sb = images[b]
            # e_a - e_b and e_a + e_b cross iff their images are negative
            # roots; when both cross they add an even count
            if is_negative(ia, sa, ib, -sb) != is_negative(ia, sa, ib, sb):
                total += _pair_count(ka, coords[b], table)
    return -1 if total % 2 else 1


def test_r_minus_matches_per_element_crossing_sign():
    # the crossing sign evaluated on every Weyl element is the oracle for
    # r^- built as a character from its generators
    cases = [(psi, tag, None) for psi, tag in _small_family()] + RANK_CASES
    nontrivial = 0
    for psi, tag, blocks in cases:
        model = NormalizerModel(centralizer_shape(psi, tag))
        if blocks is not None:
            assert [(kind, rank) for kind, _, _, rank in model.block_meta] == blocks
        keys = {e.blocks for e in model.elements()}
        for table in _tables_for(psi):
            rec = relative_signs(psi, tag, table)
            assert set(rec.r_minus) == keys
            for w_key in keys:
                assert rec.r_minus[w_key] == _crossing_sign(model, w_key, table), (psi, w_key)
            nontrivial += -1 in rec.r_minus.values()
    assert nontrivial > 100


def _relative_signs_by_elements(psi, tag, table):
    """`relative_signs` evaluated element by element over
    `NormalizerModel.elements`, with per-factor sign products in place of
    bit masks and no memo: the oracle for the element table, as (eps1,
    eps_gm, r_minus, fibers_constant, spectral_identity)."""
    table.validate_against(psi)
    shape = centralizer_shape(psi, tag)
    model = NormalizerModel(shape)
    if levi_diagram(shape).w_order == 1:
        raise ValueError("parameter is square-integrable; no proper Levi")
    pairs = [(a, b, count)
             for a, b, count, _ in _candidate_pairs(shape.orthogonal, shape.symplectic)
             if table.epsilon(a[0], b[0]) == -1]
    eps = _epsilon_character(shape, table)
    core = {sp.label for sp, l in shape.orthogonal if l % 2}
    odd_core = set()
    against_core = dict.fromkeys((sp.label for sp, _ in model.orth + model.symp), 0)
    for (k, _, _), (kp, _, _), count in pairs:
        if k.label in core and kp.label in core and count % 2:
            odd_core ^= {k.label, kp.label}
        if kp.label in core:
            against_core[k.label] += count
        if k.label in core:
            against_core[kp.label] += count
    block_of = {sp.label: idx for idx, (_, sp, _, _) in enumerate(model.block_meta)}
    eps1_factors = [
        (bit, block_of[lab]) for bit, lab in enumerate(model.odd_labels) if lab in odd_core
    ]
    odd_bit = {lab: bit for bit, lab in enumerate(model.odd_labels)}
    eps_bits, eps_blocks = [], []
    for lab, e in zip(eps.labels, eps.exponents):
        if e:
            if lab in odd_bit:
                eps_bits.append(odd_bit[lab])
            else:
                eps_blocks.append(block_of[lab])
    odd_flip_blocks = [
        idx for idx, (kind, sp, _, rank) in enumerate(model.block_meta)
        if kind != "GL" and rank >= 1 and against_core[sp.label] % 2
    ]
    eps1, eps_gm, r_minus = {}, {}, {}
    fibers_constant = True
    for elem in model.elements():
        val = 1
        for bit, block in eps1_factors:
            val *= elem.odd_bits[bit] * _zero_line_sign(elem.blocks[block])
        eps1[elem] = val
        g_val = val
        for bit in eps_bits:
            g_val *= elem.odd_bits[bit]
        for block in eps_blocks:
            g_val *= _zero_line_sign(elem.blocks[block])
        w_key = elem.blocks
        if w_key not in eps_gm:
            eps_gm[w_key] = g_val
            odd = sum(w_key[b][1].count(-1) for b in odd_flip_blocks)
            r_minus[w_key] = -1 if odd % 2 else 1
        elif eps_gm[w_key] != g_val:
            fibers_constant = False
    spectral = fibers_constant and all(r_minus[w] == eps_gm[w] for w in r_minus)
    return eps1, eps_gm, r_minus, fibers_constant, spectral


def _answers(rec):
    """A record's three mappings, as dicts, and its two flags: the shape of
    the oracles' answers."""
    return (dict(rec.eps1), dict(rec.eps_gm), dict(rec.r_minus), rec.fibers_constant,
            rec.spectral_identity)


def _assert_same_answers(rec, want, where):
    """The record's mappings, in order, and flags are the oracle's."""
    for got, expected in zip((rec.eps1, rec.eps_gm, rec.r_minus), want):
        assert list(got.items()) == list(expected.items()), where
    assert (rec.fibers_constant, rec.spectral_identity) == want[3:], where


def _assert_matches_oracle(psi, tag, entries):
    """relative_signs against the oracle on the table of `entries`; returns
    the record."""
    table = RootNumberTable(entries)
    rec = relative_signs(psi, tag, table)
    _assert_same_answers(rec, _relative_signs_by_elements(psi, tag, table), (psi, tag))
    return rec


def test_relative_signs_match_oracle_on_sweep_family(perfbench_workloads):
    # criterion 8's family as the benchmark's sweep builds it, with both memos
    # cold and then warm; one record is built per distinct (signature,
    # masks) key, of which the family has 125, and the structure once per
    # distinct (psi, tag), of which it has 1,152
    family = perfbench_workloads.build_sweep_families()["rs"]
    assert len(family) == 2382
    uendo.signs._shared_record.cache_clear()
    uendo.signs._sign_structure.cache_clear()
    for _ in range(2):
        for psi, tag, table in family:
            _assert_matches_oracle(psi, tag, table.entries)
    info = uendo.signs._shared_record.cache_info()
    assert info.misses <= 125 and info.hits + info.misses == 2 * len(family)
    info = uendo.signs._sign_structure.cache_info()
    assert info.misses == 1152 and info.hits + info.misses == 2 * len(family)


def _seeded_levi_case(rng):
    """Two or three constituents with torus blocks of rank at most 3 and a
    proper Levi: self-dual ones of SL(2) dimension 1 or 2 (which make the
    pairs with even SL(2) parts) and partnered GL pairs, with a table of random signs on some opposite-parity pairs (the
    rest default); None when the draw does not qualify."""
    cons = []
    for i in range(rng.randint(2, 3)):
        if rng.random() < 0.25:
            cons += _gl_pair("g%d" % i, rng.randint(1, 3))
        else:
            parity = rng.choice((ORTHOGONAL, SYMPLECTIC))
            cons.append((sd("c%d" % i, 1, parity, rng.randint(1, 2)), rng.randint(1, 7)))
    psi = GlobalParameter(cons)
    parity = rng.choice((1, -1))
    tag = SimpleDatumTag(psi.total_degree, parity * (-1) ** (psi.total_degree - 1))
    if not factors_through(psi, tag):
        return None
    shape = centralizer_shape(psi, tag)
    model, diagram = NormalizerModel(shape), levi_diagram(shape)
    if diagram.w_order == 1 or diagram.n_order > 3000 or any(r > 3 for _, r in model.blocks):
        return None
    sds = [sp for sp, _ in psi.self_dual]
    entries = {
        frozenset((a.label, b.label)): -1 if rng.random() < 0.7 else 1
        for a, b in itertools.combinations(sds, 2)
        if a.mu_sign != b.mu_sign and rng.random() < 0.8
    }
    return psi, tag, entries, model


def test_relative_signs_match_oracle_on_seeded_shapes():
    rng = random.Random(20261018)
    tested = with_gl = with_minus = eps1_minus = r_minus_minus = 0
    while tested < 320:
        case = _seeded_levi_case(rng)
        if case is None:
            continue
        psi, tag, entries, model = case
        rec = _assert_matches_oracle(psi, tag, entries)
        tested += 1
        with_gl += any(kind == "GL" for kind, _ in model.blocks)
        with_minus += -1 in entries.values()
        eps1_minus += -1 in rec.eps1.values()
        r_minus_minus += -1 in rec.r_minus.values()
    assert with_gl > 100 and with_minus > 40 and eps1_minus > 3 and r_minus_minus > 15


def test_flag_bit_rules_match_the_table_walk():
    # the two flags read off bit tests against the walk over every row of
    # the element table, on seeded block signatures with GL blocks and
    # rank-0 blocks and on random masks; the mappings built on first read
    # are the walk's, in its order.  Parameters reach only (True, True), as
    # the sign lemma says they should; these draws reach every pair the
    # walk can give
    rng = random.Random(20261038)
    seen = dict.fromkeys(((False, False), (True, False), (True, True)), 0)
    with_gl = with_rank_zero = 0
    for _ in range(600):
        blocks = tuple((rng.choice(("O", "O", "Sp", "GL")), rng.randint(0, 2))
                       for _ in range(rng.randint(1, 3)))
        n_odd = rng.randint(0, 3)
        bits, flips = (1 << n_odd) - 1, (1 << len(blocks)) - 1
        masks = (rng.randint(0, bits), rng.randint(0, flips), rng.randint(0, bits),
                 rng.randint(0, flips), rng.randint(0, flips))
        if rng.random() < 0.5:  # often no bit but bit 0, so both flags can hold
            masks = masks[:2] + (masks[2] & rng.choice((0, 1)),) + masks[3:]
        if rng.random() < 0.3:  # often beta on the eps^(G/M) blocks
            masks = masks[:4] + (masks[3] ^ rng.choice((0, 1 << rng.randrange(len(blocks)))),)
        rec = RelativeSigns(blocks, n_odd, *masks)
        want = signs_on_table(blocks, n_odd, *masks)
        flags = (rec.fibers_constant, rec.spectral_identity)
        assert flags == want[3:], (blocks, n_odd, masks)
        seen[flags] += 1
        with_gl += any(kind == "GL" for kind, _ in blocks)
        with_rank_zero += any(rank == 0 for _, rank in blocks)
        _assert_same_answers(rec, want, (blocks, n_odd, masks))
    assert min(seen.values()) > 50 and with_gl > 100 and with_rank_zero > 100, seen


def test_relative_signs_answer_the_flags_at_rank_eight_without_the_table(monkeypatch):
    # O(16) x O(1) x O(1): |N| = 2^8 8! 2 rows, none of which the flags
    # read; only reading a mapping walks the table
    psi, tag = _levi_case([(sd("a", 1, ORTHOGONAL, 2), 16), (sd("b", 1, SYMPLECTIC, 1), 1),
                           (sd("c", 1, SYMPLECTIC, 1), 1)], -1)

    def refuse(*args):
        raise AssertionError("element table built")

    monkeypatch.setattr("uendo.centralizer.element_table", refuse)
    monkeypatch.setattr(uendo.signs, "element_table", refuse)
    # root number -1 on (a, b) sets the flip of a's block, block 2, in both
    # eps^(G/M) and beta; on (a, c) as well, the two pairs cancel
    for entries, mask in (({}, 0), ({frozenset("ab"): -1}, 4),
                          ({frozenset("ab"): -1, frozenset("ac"): -1}, 0)):
        rec = relative_signs(psi, tag, RootNumberTable(entries))
        assert rec.blocks == (("O", 0), ("O", 0), ("O", 8)) and rec.n_odd == 2
        assert (rec.fibers_constant, rec.spectral_identity) == (True, True), entries
        assert rec.gm_blocks == rec.beta_blocks == mask and rec.gm_bits == 0, entries
    with pytest.raises(AssertionError, match="element table built"):
        rec.eps1


def test_relative_signs_build_no_normalizer_model(monkeypatch):
    # the block signature, the odd labels and the refusal are read off the
    # shape: with NormalizerModel and component_group refusing, cold calls
    # give the oracle's answers, computed before the refusal is patched in
    rng = random.Random(20261019)
    cases = []
    while len(cases) < 60:
        case = _seeded_levi_case(rng)
        if case is not None:
            psi, tag, entries, _ = case
            want = _relative_signs_by_elements(psi, tag, RootNumberTable(entries))
            cases.append((psi, tag, entries, want))

    def refuse(*args):
        raise AssertionError("normalizer model or component group built")

    monkeypatch.setattr(NormalizerModel, "__init__", refuse)
    monkeypatch.setattr("uendo.centralizer.component_group", refuse)
    uendo.signs._sign_structure.cache_clear()
    uendo.signs._shared_record.cache_clear()
    for psi, tag, entries, want in cases:
        rec = relative_signs(psi, tag, RootNumberTable(entries))
        _assert_same_answers(rec, want, (psi, tag))


def test_relative_signs_refuse_exactly_the_trivial_weyl_groups():
    # the square-integrable refusal, word for word, on every parameter of one
    # or two constituents from a small menu whose normalizer model has
    # |W| = 1 (rank-0 blocks and GL(1) blocks), and on no other
    menu = [[(sd("o%d" % l, 1, ORTHOGONAL), l)] for l in (1, 2, 3)]
    menu += [[(sd("s%d" % l, 1, SYMPLECTIC), l)] for l in (1, 2, 3)]
    menu += [_gl_pair("g%d" % l, l) for l in (1, 2)]
    refused = answered = 0
    for size in (1, 2):
        for combo in itertools.combinations(menu, size):
            psi = GlobalParameter([c for cons in combo for c in cons])
            for parity in (1, -1):
                tag = SimpleDatumTag(psi.total_degree, parity * (-1) ** (psi.total_degree - 1))
                if not factors_through(psi, tag):
                    continue
                for _ in range(2):  # cold, then with the memo as it stands
                    if levi_diagram(centralizer_shape(psi, tag)).w_order == 1:
                        with pytest.raises(ValueError) as err:
                            relative_signs(psi, tag, RootNumberTable())
                        assert str(err.value) == "parameter is square-integrable; no proper Levi"
                        refused += 1
                    else:
                        _assert_matches_oracle(psi, tag, {})
                        answered += 1
    assert refused >= 8 and answered >= 20, (refused, answered)


def test_relative_signs_results_are_read_only():
    # the memo hands one record to every caller: each way of changing its
    # mappings or fields is refused, and the next call still matches the
    # element oracle
    psi, tag, _ = RANK_CASES[0]
    for entries in (table.entries for table in _tables_for(psi)):
        rec = relative_signs(psi, tag, RootNumberTable(entries))
        assert rec is relative_signs(psi, tag, RootNumberTable(entries))
        for mapping in (rec.eps1, rec.eps_gm, rec.r_minus):
            key = next(iter(mapping))
            with pytest.raises(TypeError):
                mapping[key] = 0
            with pytest.raises(TypeError):
                del mapping[key]
            with pytest.raises(TypeError):
                mapping |= {key: 0}
            # a read-only mapping has no mutating methods to call
            for method in ("clear", "pop", "popitem", "setdefault", "update"):
                assert not hasattr(mapping, method), method
        for name in RelativeSigns._fields + ("eps1", "eps_gm", "r_minus", "fibers_constant",
                                             "spectral_identity", "_tables"):
            with pytest.raises(AttributeError):
                setattr(rec, name, {})
        _assert_matches_oracle(psi, tag, entries)


def test_relative_signs_records_survive_copying_and_pickling():
    # a copy is rebuilt from the signature and masks alone: its mappings,
    # built when it is read, are the record's, and a record whose mappings
    # were read pickles to the same bytes as a fresh one
    psi, tag, _ = RANK_CASES[3]
    for table in _tables_for(psi):
        rec = relative_signs(psi, tag, RootNumberTable(table.entries))
        fresh = RelativeSigns(*(getattr(rec, name) for name in RelativeSigns._fields))
        assert fresh == rec and fresh is not rec
        assert pickle.dumps(rec) == pickle.dumps(fresh)
        for clone in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
            assert type(clone) is RelativeSigns and clone == rec and repr(clone) == repr(rec)
            assert (clone.fibers_constant, clone.spectral_identity) == (
                rec.fibers_constant, rec.spectral_identity)
            for name in ("eps1", "eps_gm", "r_minus"):
                mapping = getattr(clone, name)
                assert type(mapping) is MappingProxyType
                assert list(mapping.items()) == list(getattr(rec, name).items())
            with pytest.raises(TypeError):
                clone.eps1[next(iter(clone.eps1))] = 0
        assert pickle.dumps(rec) == pickle.dumps(fresh)


def test_relative_signs_record_keeps_its_own_dicts():
    # the record's mappings are views over dicts no caller holds: a copy
    # taken with dict(...) can be changed without touching them, and the
    # next read gives the same views
    psi, tag, _ = RANK_CASES[0]
    rec = relative_signs(psi, tag, RootNumberTable())
    views = (rec.eps1, rec.eps_gm, rec.r_minus)
    want = _answers(rec)
    for copied in _answers(rec)[:3]:
        copied.clear()
    assert _answers(rec) == want == _relative_signs_by_elements(psi, tag, RootNumberTable())
    assert all(a is b for a, b in zip((rec.eps1, rec.eps_gm, rec.r_minus), views))


def test_relative_signs_same_signature_different_labels():
    # two parameters with one block signature, O(2) x O(4) x O(1), and root
    # number -1 against the core on different blocks: different masks
    def case(a, b, c, minus):
        cons = [(sd(a, 1, ORTHOGONAL, 2), 2), (sd(b, 1, ORTHOGONAL, 2), 4),
                (sd(c, 1, SYMPLECTIC, 1), 1)]
        return (*_levi_case(cons, -1), {frozenset((minus, c)): -1})

    first, second = case("a", "b", "c", "a"), case("x", "y", "z", "y")
    signatures = [NormalizerModel(centralizer_shape(psi, tag)).blocks
                  for psi, tag, _ in (first, second)]
    assert signatures[0] == signatures[1] == (("O", 0), ("O", 1), ("O", 2))
    recs = [_assert_matches_oracle(*first), _assert_matches_oracle(*second),
            _assert_matches_oracle(*first)]
    assert recs[0].r_minus != recs[1].r_minus
    assert recs[2] == recs[0]


def test_relative_signs_memo_hit_matches_oracle():
    psi, tag, _ = RANK_CASES[0]
    first = relative_signs(psi, tag, RootNumberTable())
    hits = uendo.signs._shared_record.cache_info().hits
    rec = relative_signs(psi, tag, RootNumberTable())
    assert uendo.signs._shared_record.cache_info().hits == hits + 1
    assert rec is first
    assert _answers(rec) == _relative_signs_by_elements(psi, tag, RootNumberTable())


def test_relative_signs_counts_each_pair_once():
    # the table is asked about each candidate pair at most once per call, in
    # pair order, whether the per-(psi, tag) memo is cold or warm
    # O(2) x O(1) x O(2) x Sp(2): c has the cuspidal parity opposite to b's
    # and d's but no even SL(2) part with either, so the table is never
    # asked about those pairs
    psi, tag = _levi_case([(sd("a", 1, ORTHOGONAL, 2), 2), (sd("b", 1, SYMPLECTIC, 1), 1),
                           (sd("c", 1, ORTHOGONAL, 1), 2), (sd("d", 1, SYMPLECTIC, 1), 2)], -1)
    candidates = [frozenset((a[0].label, b[0].label))
                  for a, b, _, _ in _candidate_pairs(*parity_split(psi, tag))]
    assert candidates == [{"b", "a"}, {"d", "a"}] and len(_tables_for(psi)) == 3
    for warm in (False, True):
        if not warm:
            uendo.signs._sign_structure.cache_clear()
        for table in _tables_for(psi):
            logging = _LoggingTable(table.entries)
            rec = relative_signs(psi, tag, logging)
            assert logging.asked == candidates
            assert _answers(rec) == _relative_signs_by_elements(
                psi, tag, RootNumberTable(table.entries))


def test_relative_signs_refusals_are_never_cached():
    square_integrable = (GlobalParameter([(sd("a"), 1), (sd("b"), 1)]), SimpleDatumTag(2, -1))
    not_factoring = (GlobalParameter([(sd("a"), 1), (sd("b", 1, ORTHOGONAL, 2), 1)]),
                     SimpleDatumTag(3, 1))
    assert not factors_through(*not_factoring)
    for _ in range(3):
        for (psi, tag), message in ((square_integrable, "square-integrable"),
                                    (not_factoring, "does not factor")):
            with pytest.raises(ValueError, match=message):
                relative_signs(psi, tag, RootNumberTable())
    # a bad table is refused on a memo hit too, before the memo is read
    psi, tag, _ = RANK_CASES[0]
    relative_signs(psi, tag, RootNumberTable())
    hits = uendo.signs._sign_structure.cache_info().hits
    bad = RootNumberTable({frozenset(("a", "zz")): -1})
    for _ in range(2):
        with pytest.raises(ValueError, match="not declared"):
            relative_signs(psi, tag, bad)
    assert uendo.signs._sign_structure.cache_info().hits == hits


def test_relative_signs_memo_hit_with_an_equal_parameter():
    psi, tag, _ = RANK_CASES[0]
    twin = GlobalParameter(psi.constituents)
    assert twin == psi and twin is not psi
    for table in _tables_for(psi):
        relative_signs(psi, tag, RootNumberTable(table.entries))
        hits = uendo.signs._sign_structure.cache_info().hits
        rec = _assert_matches_oracle(twin, SimpleDatumTag(tag.N, tag.kappa), table.entries)
        assert uendo.signs._sign_structure.cache_info().hits == hits + 1
        assert rec == relative_signs(psi, tag, RootNumberTable(table.entries))


def test_relative_signs_memo_hit_builds_no_shape(monkeypatch):
    psi, tag, _ = RANK_CASES[3]
    uendo.signs._sign_structure.cache_clear()
    first = relative_signs(psi, tag, RootNumberTable())

    def refuse(*args):
        raise AssertionError("shape rebuilt on a memo hit")

    monkeypatch.setattr("uendo.signs.centralizer_shape", refuse)
    monkeypatch.setattr("uendo.signs.parity_split", refuse)
    monkeypatch.setattr("uendo.centralizer.torus_blocks", refuse)
    for table in _tables_for(psi):
        rec = relative_signs(psi, tag, RootNumberTable(table.entries))
        assert set(rec.r_minus) == set(first.r_minus)
    assert relative_signs(psi, tag, RootNumberTable()) == first


def test_validate_against_refusal_messages():
    """The three refusals, word for word: the first bad entry in table order
    is reported, and within a pair the smaller label is checked first."""
    g = SimpleParameter("g", 1, NOT_SELF_DUAL, 1, partner="gx")
    gx = SimpleParameter("gx", 1, NOT_SELF_DUAL, 1, partner="g")
    psi = GlobalParameter([(sd("a"), 1), (sd("b"), 1), (sd("c", 1, SYMPLECTIC), 1),
                           (g, 1), (gx, 1)])
    RootNumberTable().validate_against(psi)
    RootNumberTable({frozenset("ac"): -1, frozenset("ab"): 1}).validate_against(psi)
    cases = (
        ([("z", "y", 1)], "root-number label 'y' not declared"),
        ([("a", "zz", -1)], "root-number label 'zz' not declared"),
        ([("g", "zz", 1)], "root-number label 'g' is not self-dual"),
        ([("gx", "a", 1)], "root-number label 'gx' is not self-dual"),
        ([("b", "a", -1)], "same-parity pair (a, b) cannot carry root number -1"),
        ([("a", "b", -1), ("a", "q", 1)], "same-parity pair (a, b) cannot carry root number -1"),
        ([("a", "q", 1), ("a", "b", -1)], "root-number label 'q' not declared"),
    )
    for entries, message in cases:
        table = RootNumberTable({frozenset((x, y)): s for x, y, s in entries})
        for _ in range(2):
            with pytest.raises(ValueError) as err:
                table.validate_against(psi)
            assert str(err.value) == message, entries


def _raised(check):
    """The message that `check()` raises, or None."""
    try:
        check()
    except ValueError as exc:
        return str(exc)
    return None


def test_validate_against_matches_the_sorted_pair_oracle():
    # seeded tables over parameters with self-dual labels of both parities
    # and partnered ones, mixing valid entries with undeclared labels,
    # non-self-dual labels, same-parity -1 entries and entries with two bad
    # labels: the method raises exactly the oracle's message, or neither
    # raises
    rng = random.Random(20261034)
    seen = {None: 0, "not declared": 0, "not self-dual": 0, "same-parity": 0}
    two_bad = 0
    for _ in range(900):
        cons = []
        for i in range(rng.randint(1, 4)):
            if rng.random() < 0.3:
                cons += _gl_pair("g%d" % i, 1)
            else:
                parity = rng.choice((ORTHOGONAL, SYMPLECTIC))
                cons.append((sd("c%d" % i, 1, parity, rng.randint(1, 2)), 1))
        psi = GlobalParameter(cons)
        self_dual = [sp.label for sp, _ in psi.self_dual]
        pool = sorted(psi._by_label) + ["u%d" % i for i in range(rng.randint(0, 2))]
        entries = {}
        for _ in range(rng.randint(0, 4)):
            # half the draws pair two self-dual labels, valid unless they
            # share a parity and get -1
            labels = self_dual if len(self_dual) > 1 and rng.random() < 0.5 else pool
            a, b = rng.sample(labels, 2) if len(labels) > 1 else (labels[0], "u9")
            entries[frozenset((a, b))] = rng.choice((1, -1))
            bad = [lab for lab in (a, b) if lab not in psi._by_label
                   or psi._by_label[lab][0].duality == NOT_SELF_DUAL]
            two_bad += len(bad) == 2
        table = RootNumberTable(entries)
        want = _raised(lambda: validate_root_numbers(table.entries, psi))
        assert _raised(lambda: table.validate_against(psi)) == want, (psi, entries)
        seen[next((k for k in seen if k and want and k in want), None)] += 1
    assert min(seen.values()) > 50 and two_bad > 50, (seen, two_bad)


def test_sign_structure_reads_the_parity_split_once_per_parameter(monkeypatch):
    # a cold pass builds no centralizer shape, never lists the torus blocks,
    # and splits each distinct (psi, tag) and walks its pairs exactly once,
    # however many tables and repeated draws ask about it; the answers are
    # the oracle's
    rng = random.Random(20261020)
    cases = []
    while len(cases) < 160:
        case = _seeded_levi_case(rng)
        if case is not None:
            psi, tag, entries, _ = case
            for table in (RootNumberTable(entries), RootNumberTable()):
                cases.append((psi, tag, table, _relative_signs_by_elements(psi, tag, table)))
    distinct = {(psi, tag) for psi, tag, _, _ in cases}
    calls = {"parity_split": 0, "_candidate_pairs": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    def refuse(*args):
        raise AssertionError("centralizer shape or torus blocks built")

    for name in calls:
        monkeypatch.setattr(uendo.signs, name, counted(name, getattr(uendo.signs, name)))
    monkeypatch.setattr(uendo.centralizer.CentralizerShape, "__init__", refuse)
    monkeypatch.setattr(uendo.centralizer, "torus_blocks", refuse)
    uendo.signs._sign_structure.cache_clear()
    for psi, tag, table, want in cases:
        assert _answers(relative_signs(psi, tag, table)) == want, (psi, tag)
    assert calls == {"parity_split": len(distinct), "_candidate_pairs": len(distinct)}
    assert 40 < len(distinct) < 80, len(distinct)  # some draws repeat


def test_pair_rule_matches_brute_force_filter_on_seeded_shapes():
    # `_candidate_pairs` against every pair of self-dual factors, orthogonal
    # then symplectic, kept when the tensor of their SL(2) parts has an
    # even-dimensional constituent: the members with their block indices,
    # the even count, and the orthogonal factors whose exponent
    # det(s_k)^(l_k' count) det(s_k')^(l_k count) flips.  Pairs of an
    # orthogonal and a symplectic factor are tried and never kept.
    rng = random.Random(20261021)
    tested = mixed_opposite = with_gl = kept = toggling = 0
    while tested < 300:
        cons = []
        for i in range(rng.randint(2, 5)):
            if rng.random() < 0.25:
                cons += _gl_pair("g%d" % i, rng.randint(1, 3))
            else:
                parity = rng.choice((ORTHOGONAL, SYMPLECTIC))
                cons.append((sd("c%d" % i, 1, parity, rng.randint(1, 4)), rng.randint(1, 5)))
        psi = GlobalParameter(cons)
        parity = rng.choice((1, -1))
        tag = SimpleDatumTag(psi.total_degree, parity * (-1) ** (psi.total_degree - 1))
        orthogonal, symplectic = parity_split(psi, tag)
        factors = [(sp, l, idx, idx < len(orthogonal))
                   for idx, (sp, l) in enumerate(orthogonal + symplectic)]
        want = []
        for (k, lk, a, orth), (kp, lkp, b, orth_p) in itertools.combinations(factors, 2):
            if k.mu_sign == kp.mu_sign:
                continue
            count = sum(d % 2 == 0 for d in su2_tensor_dims(k.su2_dim, kp.su2_dim))
            mixed_opposite += orth != orth_p
            if count:
                assert orth == orth_p, (psi, tag, k, kp)
                flips = ((a, lkp * count), (b, lk * count)) if orth else ()
                want.append(((k, lk, a), (kp, lkp, b), count,
                             tuple(idx for idx, e in flips if e % 2)))
        got = _candidate_pairs(orthogonal, symplectic)
        assert got == want, (psi, tag)
        tested += 1
        with_gl += bool(psi.dual_pair_orbits)
        kept += len(got)
        toggling += sum(bool(toggles) for *_, toggles in got)
    assert mixed_opposite > 100 and with_gl > 100 and kept > 200 and toggling > 50, (
        mixed_opposite, with_gl, kept, toggling)


def test_pair_walk_by_index_matches_the_combinations_walk():
    # the walk by index gives the entries of the `itertools.combinations`
    # walk, in its order, on seeded shapes with both families, multiplicities
    # 1-4, SL(2) dimensions 1-6 and partnered orbits
    rng = random.Random(20261022)
    tested = both_families = with_gl = kept = toggling = 0
    dims, mults = set(), set()
    while tested < 400:
        cons = []
        for i in range(rng.randint(1, 6)):
            if rng.random() < 0.2:
                cons += _gl_pair("g%d" % i, rng.randint(1, 4))
            else:
                n, l = rng.randint(1, 6), rng.randint(1, 4)
                cons.append((sd("c%d" % i, rng.randint(1, 2),
                                rng.choice((ORTHOGONAL, SYMPLECTIC)), n), l))
                dims.add(n)
                mults.add(l)
        psi = GlobalParameter(cons)
        tag = SimpleDatumTag(psi.total_degree, rng.choice((1, -1)))
        orthogonal, symplectic = parity_split(psi, tag)
        got = _candidate_pairs(orthogonal, symplectic)
        assert got == candidate_pairs_by_combinations(orthogonal, symplectic), (psi, tag)
        tested += 1
        both_families += len(orthogonal) >= 2 and len(symplectic) >= 2
        with_gl += bool(psi.dual_pair_orbits)
        kept += len(got)
        toggling += sum(bool(toggles) for *_, toggles in got)
    assert dims == set(range(1, 7)) and mults == set(range(1, 5))
    assert both_families > 50 and with_gl > 100 and kept > 300 and toggling > 50, (
        both_families, with_gl, kept, toggling)


def test_relative_signs_refusals_keep_their_messages_and_order():
    # the degree is checked first, then that the symplectic multiplicities
    # are even, then that the Levi is proper: `both` has every multiplicity
    # 1, so it would be refused as square-integrable if it factored; each
    # refusal is raised cold and again on a repeat
    a, b = sd("a"), sd("b", 1, ORTHOGONAL, 2)
    both = GlobalParameter([(a, 1), (b, 1)])  # b is symplectic under kappa = 1
    square_integrable = GlobalParameter([(a, 1), (sd("c"), 1)])
    cases = [
        (both, SimpleDatumTag(4, 1), "degree mismatch: parameter has N=3, datum N=4"),
        (both, SimpleDatumTag(3, 1), "parameter does not factor through the datum"),
        (square_integrable, SimpleDatumTag(2, -1),
         "parameter is square-integrable; no proper Levi"),
    ]
    uendo.signs._sign_structure.cache_clear()
    for _ in range(2):
        for psi, tag, message in cases:
            with pytest.raises(ValueError) as err:
                relative_signs(psi, tag, RootNumberTable())
            assert str(err.value) == message

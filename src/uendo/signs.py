"""Sign characters from symplectic root numbers.

The adjoint Lie algebra of GL(N, C), pulled back through a parameter with
constituents mu_k (x) nu(n_k) of multiplicity l_k, decomposes into blocks
indexed by pairs of constituents.  Each block is a triple tensor of a
representation of the centralizer (an external tensor of standard factor
representations), a standard representation of the cuspidal data
(Rankin-Selberg between distinct labels, Asai family on the diagonal), and
irreducible SL(2)-constituents of nu(n_k) (x) nu(n_k').  A standard
representation is symplectic exactly when it is Rankin-Selberg between
self-dual labels of opposite cuspidal parity; diagonal blocks only carry
odd-dimensional SL(2) parts and are never symplectic.

The sign character evaluates, on a sign vector s, the determinants of the
centralizer parts over the blocks that are symplectic, have root number
epsilon(1/2, mu_k x mu_k'^c) = -1, and have an even-dimensional SL(2)
constituent: the exponent of det(s_k) is l_k' times the number of
even-dimensional constituents of nu(n_k) (x) nu(n_k'), which is
min(n_k, n_k') when n_k + n_k' is odd and zero otherwise.  So only the
Rankin-Selberg blocks between self-dual constituents of opposite cuspidal
parity with that count nonzero matter, and the module never lists the
blocks: the sign character is read in closed form off these candidate
pairs (`_candidate_pairs`).

Away from square-integrable parameters the same bookkeeping runs relative
to the Levi determined by the parameter: the character pulled back from the
Levi core, and the root-crossing sign that multiplies -1 per symplectic
root-number block crossed by a Weyl element.  Their product depends only on
the Weyl image and reproduces the crossing sign.  The crossing sign is a
character of the Weyl group, trivial on transpositions, so it is read off
the sign flips of each torus block with a closed-form value per block; the
tests keep the per-element crossing count as the oracle on every Weyl
element.

The relative signs on the normalizer N are parities of masked bit counts:
`centralizer.element_table` gives each element of N a mask of the torus
blocks with an odd number of sign flips and one of its odd component bits
that are -1, and a parameter's signs reduce to five masks.  What depends
only on (psi, tag), the shape, the block signature and each candidate
pair's contribution to the masks, is built once per (psi, tag) and
memoized; a call validates the table, asks it about the candidate pairs
and folds the masks.  The tests keep the loop over
`NormalizerModel.elements` as the oracle.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Dict, FrozenSet, Sequence, Tuple

from .centralizer import (
    CentralizerShape,
    NormalizerElement,
    centralizer_shape,
    element_table,
    torus_blocks,
)
from .params import NOT_SELF_DUAL, GlobalParameter, SimpleDatumTag, SimpleParameter
from .values import Value, set_field


# ---------------------------------------------------------------------------
# Clebsch-Gordan bookkeeping


def su2_tensor_dims(a: int, b: int) -> Tuple[int, ...]:
    """Dimensions in nu(a) (x) nu(b): |a-b|+1, |a-b|+3, ..., a+b-1."""
    return tuple(range(abs(a - b) + 1, a + b, 2))


def even_constituent_count(a: int, b: int) -> int:
    """Closed form: min(a, b) if a + b is odd, else 0."""
    return min(a, b) if (a + b) % 2 else 0


# ---------------------------------------------------------------------------
# Root number table


class RootNumberTable:
    """Signs epsilon(1/2, mu_k x mu_k'^c) for unordered pairs of self-dual
    labels of opposite cuspidal parity.  Same-parity pairs are forced to +1;
    missing opposite-parity pairs default to +1, and `SignCharacter.defaulted`
    lists those that the sign character asked about.
    """

    def __init__(self, entries: Dict[FrozenSet[str], int] | None = None):
        self.entries: Dict[FrozenSet[str], int] = {}
        for key, val in (entries or {}).items():
            key = frozenset(key)
            if len(key) != 2:
                raise ValueError("root number keys are unordered label pairs")
            if val not in (1, -1):
                raise ValueError("root numbers must be +-1")
            self.entries[key] = val

    def epsilon(self, k: SimpleParameter, kp: SimpleParameter) -> int:
        if k.duality == NOT_SELF_DUAL or kp.duality == NOT_SELF_DUAL:
            raise ValueError("root numbers apply to self-dual labels")
        key = frozenset((k.label, kp.label))
        if k.mu_sign == kp.mu_sign and self.entries.get(key, 1) != 1:
            raise ValueError("same-parity pair %r cannot carry root number -1"
                             % (tuple(sorted(key)),))
        return self.entries.get(key, 1)

    def validate_against(self, psi: GlobalParameter) -> None:
        """Reject entries that touch undeclared or non-self-dual labels or
        pair labels of equal cuspidal parity with sign -1."""
        by_label = psi._by_label  # label -> (constituent, multiplicity)
        for key, val in self.entries.items():
            a, b = sorted(key)
            for lab in (a, b):
                if lab not in by_label:
                    raise ValueError("root-number label %r not declared" % lab)
                if by_label[lab][0].duality == NOT_SELF_DUAL:
                    raise ValueError("root-number label %r is not self-dual" % lab)
            if by_label[a][0].mu_sign == by_label[b][0].mu_sign and val == -1:
                raise ValueError(
                    "same-parity pair (%s, %s) cannot carry root number -1" % (a, b)
                )


# ---------------------------------------------------------------------------
# The sign character


class SignCharacter(Value):
    """A character of the component group given by exponents of the
    orthogonal-coordinate determinants, plus its value at the image of
    -1 under the principal SL(2) and the sorted label pairs whose root
    number it took as +1 because the table lacks them."""

    __slots__ = ("labels", "exponents", "value_at_s_psi", "defaulted")

    def __init__(self, labels: Tuple[str, ...], exponents: Tuple[int, ...],
                 value_at_s_psi: int, defaulted: Tuple[Tuple[str, str], ...]):
        set_field(self, "labels", labels)
        set_field(self, "exponents", exponents)  # mod 2, aligned with labels
        set_field(self, "value_at_s_psi", value_at_s_psi)
        set_field(self, "defaulted", defaulted)

    @property
    def is_trivial(self) -> bool:
        return all(e == 0 for e in self.exponents)

    def evaluate(self, vector: Sequence[int]) -> int:
        return _evaluate(self.exponents, vector)


def _evaluate(exponents: Sequence[int], vector: Sequence[int]) -> int:
    """The character with these exponents at a sign vector."""
    val = 1
    for x, e in zip(vector, exponents):
        if e and x == -1:
            val = -val
    return val


def _candidate_pairs(shape: CentralizerShape):
    """Unordered pairs of self-dual constituents that can carry symplectic
    root-number blocks with even SL(2) parts, in `itertools.combinations`
    order over the orthogonal then the symplectic factors: opposite cuspidal
    parity and a nonzero even-constituent count.  This is the one pair
    filter of the module; only these pairs are asked of a root-number table,
    and `SignCharacter.defaulted` lists those that the table lacks.

    Pairs are walked within each family only.  A constituent's sign is
    mu_sign (-1)^(n - 1), so opposite mu signs with n + n' odd (a nonzero
    count) give two constituents of equal sign: no pair of an orthogonal
    and a symplectic factor passes the filter.

    Each entry is ((k, l_k), (k', l_k'), count, toggles) with count the
    even-constituent count.  Per even constituent the pair contributes
    det lambda(s) = det(s_k)^(l_k') det(s_k')^(l_k), so `toggles` lists the
    indices into `shape.orthogonal` of the orthogonal factors whose
    sign-character exponent the pair flips when its root number is -1: k
    when l_k' count is odd, k' when l_k count is odd; a symplectic pair
    flips none.  This is the one place that knows that rule;
    `_epsilon_character` and `_sign_structure` read it.
    """
    out = []
    for family, orthogonal in ((shape.orthogonal, True), (shape.symplectic, False)):
        for (i, (k, lk)), (j, (kp, lkp)) in itertools.combinations(enumerate(family), 2):
            if k.mu_sign != kp.mu_sign:
                count = even_constituent_count(k.su2_dim, kp.su2_dim)
                if count:
                    # (x,) * e lists x when e is odd
                    toggles = ((i,) * (lkp * count % 2) + (j,) * (lk * count % 2)
                               if orthogonal else ())
                    out.append(((k, lk), (kp, lkp), count, toggles))
    return out


def s_psi_vector(shape: CentralizerShape) -> Tuple[int, ...]:
    """Determinants, per orthogonal factor, of the canonical central element
    coming from -1 in SL(2): the scalar (-1)^(n_k - 1) on each factor."""
    return tuple(
        ((-1) ** (sp.su2_dim - 1)) ** l for sp, l in shape.orthogonal
    )


def epsilon_character(
    psi: GlobalParameter, tag: SimpleDatumTag, table: RootNumberTable
) -> SignCharacter:
    """The sign character on the component group and its value at the
    canonical central element."""
    table.validate_against(psi)
    return _epsilon_character(centralizer_shape(psi, tag), table)


def _epsilon_character(shape: CentralizerShape, table: RootNumberTable) -> SignCharacter:
    """`epsilon_character` on a built shape and a table validated against
    the parameter: one pass over the candidate pairs.

    The character is trivial on sigma_bar, so it is defined on the component
    group.  A candidate pair has opposite mu signs and n + n' odd, so its two
    constituents have equal parity: both are orthogonal or both symplectic.
    On sigma_bar, -1 on the odd-multiplicity orthogonal factors, a symplectic
    pair adds nothing and an orthogonal one adds l' count [l odd] +
    l count [l' odd]: (l + l') count when l and l' are both odd, a multiple
    of the even one when one is even, and even in every case.
    """
    exponents = [0] * len(shape.orthogonal)
    defaulted = []
    for (k, _), (kp, _), _, toggles in _candidate_pairs(shape):
        if table.epsilon(k, kp) == 1:
            if frozenset((k.label, kp.label)) not in table.entries:
                defaulted.append(tuple(sorted((k.label, kp.label))))
            continue
        for idx in toggles:
            exponents[idx] ^= 1
    exponents = tuple(exponents)
    return SignCharacter(shape.plus_labels, exponents,
                         _evaluate(exponents, s_psi_vector(shape)), tuple(sorted(defaulted)))


def epsilon_full_product(
    psi: GlobalParameter, tag: SimpleDatumTag, table: RootNumberTable, vector: Sequence[int]
) -> int:
    """Independent evaluation running over every SL(2) constituent of the
    symplectic root-number blocks, not only the even-dimensional ones.  Odd
    constituents contribute trivially through the even multiplicities of
    the symplectic factors, so this agrees with `epsilon_character`."""
    shape = centralizer_shape(psi, tag)
    coords = {sp.label: x for (sp, _), x in zip(shape.orthogonal, vector)}
    sd = list(shape.orthogonal) + list(shape.symplectic)
    val = 1
    for (k, lk), (kp, lkp) in itertools.combinations(sd, 2):
        if k.mu_sign == kp.mu_sign:
            continue
        if table.epsilon(k, kp) != -1:
            continue
        for _ in su2_tensor_dims(k.su2_dim, kp.su2_dim):
            det_k = coords.get(k.label, 1)
            det_kp = coords.get(kp.label, 1)
            val *= det_k ** lkp * det_kp ** lk
    return val


def is_epsilon_parameter(psi: GlobalParameter) -> bool:
    """Two simple self-dual constituents of equal cuspidal parity whose
    SL(2) tensor product has an odd number of even-dimensional parts.

    No test of self-duality is needed: two constituents of which one is not
    self-dual are a partnered pair, which shares its SL(2) dimension, so
    their even-constituent count is 0 and the last test returns False."""
    if len(psi.constituents) != 2:
        return False
    (k, lk), (kp, lkp) = psi.constituents
    return (lk == lkp == 1 and k.mu_sign == kp.mu_sign
            and even_constituent_count(k.su2_dim, kp.su2_dim) % 2 == 1)


# ---------------------------------------------------------------------------
# Relative signs on the normalizer


class RelativeSigns(Value):
    """eps1 on N, eps^(G/M) on W, and the crossing sign r^- on W, with the
    consistency flags of the factorization."""

    __slots__ = ("eps1", "eps_gm", "r_minus", "fibers_constant", "spectral_identity")

    def __init__(self, eps1: Dict[NormalizerElement, int], eps_gm: Dict[tuple, int],
                 r_minus: Dict[tuple, int], fibers_constant: bool, spectral_identity: bool):
        set_field(self, "eps1", eps1)
        set_field(self, "eps_gm", eps_gm)
        set_field(self, "r_minus", r_minus)
        set_field(self, "fibers_constant", fibers_constant)
        set_field(self, "spectral_identity", spectral_identity)


def relative_signs(
    psi: GlobalParameter, tag: SimpleDatumTag, table: RootNumberTable
) -> RelativeSigns:
    """Run the relative-sign bookkeeping over the torus normalizer.

    Requires a proper Levi (the parameter must not be square-integrable).
    eps1 is the determinant of an element of N on the multiplicity lines of
    the core sign-character pairs: per constituent in such a pair with an
    odd even-SL(2) count, its component bit times the sign of its Weyl part
    on the zero-weight line, which is -1 exactly when the block flips an
    odd number of signs.  The core is the sum of the odd-multiplicity
    orthogonal constituents, each once.  eps^(G/M) is eps1 times the sign
    character on the element's component vector: the free bit of an odd
    orthogonal factor, the flip parity of an even one's block.

    The crossing sign r^- is (-1) to the number of symplectic root-number
    constituents on the positive coordinate roots that w takes negative.
    The torus coordinates are floor(l/2) copies of each orthogonal
    constituent, l/2 of each symplectic one and l of each partnered orbit;
    a pair of coordinates carries e_a - e_b and e_a + e_b, a coordinate
    against the core the root e_a.  The count is constant on W-orbits
    because W preserves the torus blocks, so r^- is a character of
    W = prod W_block, fixed by two values per block:
      - a transposition inside a block crosses only roots that pair up with
        equal weights, so its value is +1;
      - the sign flip of a block's first coordinate crosses only the roots
        e_a against the core, so its value is beta_b = (-1)^(sum over core
        constituents c of the pair count of (k_b, c)).
    Hence r^-(w) is the product of beta_b^(flips_b) over the non-GL blocks.

    The signs are five masks against the rows of `element_table`: component
    bits and blocks for eps1 and for eps^(G/M), and the blocks with
    beta_b = -1, each the XOR of what the candidate pairs with root number
    -1 contribute.  Once per (psi, tag), `_sign_structure` builds the
    shape, refuses a square-integrable parameter and lists the candidate
    pairs with their contributions.  Every call validates the table, asks
    it about the candidate pairs only, folds the masks and reads the loop
    over N from `_signs_on_table`, memoized on the block signature and the
    masks; the dicts returned are copies.  Refusals are raised on every
    call, never cached.  The pairs whose root numbers default to +1 are
    reported by `epsilon_character`, not here.  Each pair's eps^(G/M) and
    eps1 bits differ on an even number of odd factors, since the sign
    character is trivial on sigma_bar (see `_epsilon_character`).
    """
    table.validate_against(psi)
    blocks, n_odd, pairs = _sign_structure(psi, tag)
    eps1_bits = eps1_blocks = gm_bits = gm_blocks = beta_blocks = 0
    for k, kp, p_eps1_bits, p_eps1_blocks, p_gm_bits, p_gm_blocks, p_beta in pairs:
        if table.epsilon(k, kp) == -1:
            eps1_bits ^= p_eps1_bits
            eps1_blocks ^= p_eps1_blocks
            gm_bits ^= p_gm_bits
            gm_blocks ^= p_gm_blocks
            beta_blocks ^= p_beta
    eps1, eps_gm, r_minus, fibers_constant, spectral = _signs_on_table(
        blocks, n_odd, eps1_bits, eps1_blocks, gm_bits, gm_blocks, beta_blocks)
    return RelativeSigns(dict(eps1), dict(eps_gm), dict(r_minus), fibers_constant, spectral)


@lru_cache(maxsize=None)
def _sign_structure(psi: GlobalParameter, tag: SimpleDatumTag):
    """The part of `relative_signs` that does not depend on the root numbers:
    (block signature, number of odd orthogonal factors, pairs), all read
    off the centralizer shape.

    A pair is (k, k', eps1 bits, eps1 blocks, eps^(G/M) bits, eps^(G/M)
    blocks, beta blocks) for each `_candidate_pairs` entry, in order: the
    masks it toggles when its root number is -1.  With count its
    even-constituent count, it toggles
      - eps1 on the bits and blocks of both constituents when both are in
        the core and count is odd;
      - the sign character's exponent of each orthogonal factor in the
        pair's `toggles`, which lands on the factor's free bit when its
        multiplicity is odd and on its block's flip parity when it is even;
      - beta_b on the block of k when k' is in the core and count is odd
        (and the other way round), for non-GL blocks of rank at least 1.
    The memo lives for the process and holds every parameter passed to
    `relative_signs`, with ints and the parameter's own constituents only.
    """
    shape = centralizer_shape(psi, tag)
    meta = torus_blocks(shape)
    # W = prod W_block is trivial when every block has rank 0 or is GL(1)
    if all(rank == 0 or (kind, rank) == ("GL", 1) for kind, _, _, rank in meta):
        raise ValueError("parameter is square-integrable; no proper Levi")
    block_of = {sp.label: 1 << idx for idx, (_, sp, _, _) in enumerate(meta)}
    odd_bit = {lab: 1 << bit for bit, lab in enumerate(shape.odd_plus_labels)}
    core = odd_bit.keys()  # the odd-multiplicity orthogonal constituents
    # per orthogonal factor, where its sign-character exponent lands
    coordinate = [(odd_bit[sp.label], 0) if l % 2 else (0, block_of[sp.label])
                  for sp, l in shape.orthogonal]
    flipping = {sp.label for kind, sp, _, rank in meta if kind != "GL" and rank >= 1}
    pairs = []
    for (k, _), (kp, _), count, toggles in _candidate_pairs(shape):
        a, b, odd = k.label, kp.label, count % 2
        eps1_bits = eps1_blocks = beta = 0
        if odd and a in core and b in core:
            eps1_bits = odd_bit[a] | odd_bit[b]
            eps1_blocks = block_of[a] | block_of[b]
        gm_bits, gm_blocks = eps1_bits, eps1_blocks
        for idx in toggles:
            gm_bits ^= coordinate[idx][0]
            gm_blocks ^= coordinate[idx][1]
        if odd:
            if b in core and a in flipping:
                beta ^= block_of[a]
            if a in core and b in flipping:
                beta ^= block_of[b]
        pairs.append((k, kp, eps1_bits, eps1_blocks, gm_bits, gm_blocks, beta))
    return tuple((kind, rank) for kind, _, _, rank in meta), len(odd_bit), tuple(pairs)


@lru_cache(maxsize=None)
def _signs_on_table(blocks, n_odd, eps1_bits, eps1_blocks, gm_bits, gm_blocks, beta_blocks):
    """eps1, eps^(G/M), r^- and the two flags on the rows of
    `element_table(blocks, n_odd)`: a sign is -1 when its masks select an
    odd number of set bits of the row's bit and flip masks."""
    eps1: Dict[NormalizerElement, int] = {}
    eps_gm: Dict[tuple, int] = {}
    r_minus: Dict[tuple, int] = {}
    fibers_constant = True
    for elem, w_key, flips, bits in element_table(blocks, n_odd):
        eps1[elem] = -1 if ((bits & eps1_bits).bit_count()
                            + (flips & eps1_blocks).bit_count()) % 2 else 1
        g_val = -1 if ((bits & gm_bits).bit_count() + (flips & gm_blocks).bit_count()) % 2 else 1
        if w_key not in eps_gm:
            eps_gm[w_key] = g_val
            r_minus[w_key] = -1 if (flips & beta_blocks).bit_count() % 2 else 1
        elif eps_gm[w_key] != g_val:
            fibers_constant = False
    spectral = fibers_constant and all(r_minus[w] == eps_gm[w] for w in r_minus)
    return eps1, eps_gm, r_minus, fibers_constant, spectral

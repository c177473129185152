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

The relative signs on the normalizer N are parities of masked bit counts
over the rows of `centralizer.element_table`.  A parameter's signs reduce
to five masks, folded per call from what is built once per (psi, tag), and
the `RelativeSigns` record is the block signature with those masks: it
reads the sign lemma's two flags off bit tests, walks N only when a mapping
is read, and is shared, read-only, by every call with the same signature
and masks.  The tests keep the table walk and the loop over
`NormalizerModel.elements` as oracles.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import Dict, FrozenSet, Mapping, Sequence, Tuple

from .centralizer import CentralizerShape, centralizer_shape, element_table
from .params import NOT_SELF_DUAL, GlobalParameter, SimpleDatumTag, SimpleParameter, parity_split
from .values import Value, set_field


# ---------------------------------------------------------------------------
# Clebsch-Gordan bookkeeping


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
        """Reject entries that touch labels the parameter does not declare
        or non-self-dual labels, or pair labels of equal cuspidal parity
        with sign -1: `validate_labels` on the parameter's label map."""
        self.validate_labels(psi._by_label)

    def validate_labels(self, by_label: Mapping[str, Tuple[SimpleParameter, int]]) -> None:
        """`validate_against` on a map label -> (constituent, multiplicity).

        Each entry costs two lookups in the map: two self-dual labels have
        equal cuspidal parity exactly when their dualities are equal.  Only
        an entry that fails is handed to `_refuse`, which walks the table
        again with each pair sorted and raises on the first bad entry, so
        the messages and their order do not depend on the fast path."""
        for key, val in self.entries.items():
            a, b = key
            ka = by_label.get(a)
            kb = by_label.get(b)
            if (ka is None or kb is None or ka[0].duality == NOT_SELF_DUAL
                    or kb[0].duality == NOT_SELF_DUAL
                    or (val == -1 and ka[0].duality == kb[0].duality)):
                self._refuse(by_label)

    def _refuse(self, by_label) -> None:
        """Raise on the first bad entry in table order, checking the smaller
        label of a pair first."""
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


def _candidate_pairs(orthogonal, symplectic):
    """Unordered pairs of self-dual constituents that can carry symplectic
    root-number blocks with even SL(2) parts, in `itertools.combinations`
    order over the orthogonal then the symplectic factors (the two halves of
    `params.parity_split`): opposite cuspidal parity and a nonzero
    even-constituent count.  This is the one pair filter of the module; only
    these pairs are asked of a root-number table, and
    `SignCharacter.defaulted` lists those that the table lacks.

    Pairs are walked within each family only, and the count alone decides.
    A constituent's sign is mu_sign (-1)^(n - 1), and the constituents of
    one family share it, so within a family opposite mu signs is exactly
    n + n' odd, a nonzero count; across the families opposite mu signs give
    n + n' even, a zero count, so no pair of an orthogonal and a symplectic
    factor passes the filter.  Each family is walked by index, i < j, which
    is the order `itertools.combinations` gives, with no list of factors
    built first; the count comes from `even_constituent_count`.

    Each entry is ((k, l_k, b_k), (k', l_k', b_k'), count, toggles) with b
    a member's torus-block index (its index among the orthogonal factors,
    or the number of orthogonal factors plus its index among the symplectic
    ones) and count the even-constituent count.  Per even constituent the
    pair contributes det lambda(s) = det(s_k)^(l_k') det(s_k')^(l_k), so
    `toggles` lists the orthogonal factors, by block index, whose
    sign-character exponent the pair flips when its root number is -1: k
    when l_k' count is odd, k' when l_k count is odd; a symplectic pair
    flips none.  This is the one place that knows that rule;
    `_epsilon_character` and `_sign_structure` read it.
    """
    out = []
    for family, start, orthogonal_family in ((orthogonal, 0, True),
                                             (symplectic, len(orthogonal), False)):
        size = len(family)
        for i in range(size - 1):
            k, lk = family[i]
            n = k.su2_dim
            for j in range(i + 1, size):
                kp, lkp = family[j]
                count = even_constituent_count(n, kp.su2_dim)
                if count:
                    a, b = start + i, start + j
                    # (x,) * e lists x when e is odd
                    toggles = ((a,) * (lkp * count % 2) + (b,) * (lk * count % 2)
                               if orthogonal_family else ())
                    out.append(((k, lk, a), (kp, lkp, b), count, toggles))
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
    the parameter, or against labels that include the parameter's: one pass
    over the candidate pairs, which read only the entries on their own
    labels.

    The character is trivial on sigma_bar, so it is defined on the component
    group.  A candidate pair has opposite mu signs and n + n' odd, so its two
    constituents have equal parity: both are orthogonal or both symplectic.
    On sigma_bar, -1 on the odd-multiplicity orthogonal factors, a symplectic
    pair adds nothing and an orthogonal one adds l' count [l odd] +
    l count [l' odd]: (l + l') count when l and l' are both odd, a multiple
    of the even one when one is even, and even in every case.  Each pair's
    table entry is read once, by key: missing, it defaults to +1.
    """
    exponents = [0] * len(shape.orthogonal)
    defaulted = []
    for (k, _, _), (kp, _, _), _, toggles in _candidate_pairs(shape.orthogonal, shape.symplectic):
        sign = table.entries.get(frozenset((k.label, kp.label)))
        if sign is None:
            defaulted.append(tuple(sorted((k.label, kp.label))))
        elif sign == -1:
            for idx in toggles:
                exponents[idx] ^= 1
    exponents = tuple(exponents)
    return SignCharacter(shape.plus_labels, exponents,
                         _evaluate(exponents, s_psi_vector(shape)), tuple(sorted(defaulted)))


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


def _sign(mask: int) -> int:
    """-1 when the mask has an odd number of set bits, else 1.  The parity
    of a ^ b is that of a plus that of b, so one call reads two masks."""
    return -1 if mask.bit_count() % 2 else 1


class RelativeSigns(Value):
    """eps1 on N, eps^(G/M) and the crossing sign r^- on W as five masks on
    the rows of `element_table(blocks, n_odd)`, component bits and blocks
    for eps1 and for eps^(G/M) and the blocks with beta_b = -1: a sign is -1
    when its masks select an odd number of a row's set bits.

    The sign lemma's flags are bit tests.  Over one Weyl element the rows
    take every bit mask with bit 0 set, and over W the flip masks take every
    mask of `flippable`, the non-GL blocks of rank at least 1.  So eps^(G/M)
    is constant on the fibres of N -> W exactly when `gm_bits` has no bit
    but bit 0, and r^- = eps^(G/M) on W exactly when, in addition, bit 0 is
    clear and `gm_blocks` and `beta_blocks` agree on `flippable`.

    The mappings walk the rows on first read only, into read-only views in
    the `_tables` slot; eps^(G/M) and r^- read each Weyl key's first row.
    """

    __slots__ = ("blocks", "n_odd", "eps1_bits", "eps1_blocks", "gm_bits", "gm_blocks",
                 "beta_blocks", "_tables")

    def __init__(self, blocks: Tuple[Tuple[str, int], ...], n_odd: int, eps1_bits: int,
                 eps1_blocks: int, gm_bits: int, gm_blocks: int, beta_blocks: int):
        masks = (eps1_bits, eps1_blocks, gm_bits, gm_blocks, beta_blocks)
        for name, value in zip(self._fields, (blocks, n_odd) + masks):
            set_field(self, name, value)
        set_field(self, "_tables", None)

    fibers_constant = property(lambda self: self.gm_bits >> 1 == 0)

    @property
    def spectral_identity(self) -> bool:
        flippable = sum(1 << b for b, (kind, r) in enumerate(self.blocks) if r and kind != "GL")
        return self.gm_bits == 0 and (self.gm_blocks ^ self.beta_blocks) & flippable == 0

    # eps1 on the elements of N, eps^(G/M) and r^- on the Weyl keys
    eps1 = property(lambda self: self._signs()[0])
    eps_gm = property(lambda self: self._signs()[1])
    r_minus = property(lambda self: self._signs()[2])

    def _signs(self):
        if self._tables is None:
            eps1, eps_gm, r_minus = {}, {}, {}
            first = (1 << self.n_odd) - 1
            for elem, w_key, flips, bits in element_table(self.blocks, self.n_odd):
                eps1[elem] = _sign(bits & self.eps1_bits ^ flips & self.eps1_blocks)
                if bits == first:
                    eps_gm[w_key] = _sign(bits & self.gm_bits ^ flips & self.gm_blocks)
                    r_minus[w_key] = _sign(flips & self.beta_blocks)
            set_field(self, "_tables", tuple(map(MappingProxyType, (eps1, eps_gm, r_minus))))
        return self._tables


# One shared record per block signature and masks.
_shared_record = lru_cache(maxsize=None)(RelativeSigns)


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

    The signs are the five masks of a `RelativeSigns` record, each the XOR
    of what the candidate pairs with root number -1 contribute (a pair's
    eps^(G/M) and eps1 bits differ on an even number of odd factors, since
    the sign character is trivial on sigma_bar).  `_sign_structure` lists
    the pairs once per (psi, tag); a call validates the table, reads each
    pair's entry once and folds the masks.  Refusals are never cached, and
    defaulted root numbers are reported by `epsilon_character`.
    """
    table.validate_against(psi)
    blocks, n_odd, pairs = _sign_structure(psi, tag)
    eps1_bits = eps1_blocks = gm_bits = gm_blocks = beta_blocks = 0
    for key, p_eps1_bits, p_eps1_blocks, p_gm_bits, p_gm_blocks, p_beta in pairs:
        if table.entries.get(key) == -1:
            eps1_bits ^= p_eps1_bits
            eps1_blocks ^= p_eps1_blocks
            gm_bits ^= p_gm_bits
            gm_blocks ^= p_gm_blocks
            beta_blocks ^= p_beta
    return _shared_record(blocks, n_odd, eps1_bits, eps1_blocks, gm_bits, gm_blocks, beta_blocks)


@lru_cache(maxsize=None)
def _sign_structure(psi: GlobalParameter, tag: SimpleDatumTag):
    """The part of `relative_signs` that does not depend on the root numbers:
    (block signature, number of odd orthogonal factors, pairs), built in one
    pass over `params.parity_split` and the partnered orbits, then one over
    `_candidate_pairs`.

    The torus blocks are the orthogonal factors (rank floor(l/2)), the
    symplectic ones (rank l/2) and the partnered orbits (GL, rank l), in
    that order, as `centralizer.torus_blocks` lists them.  W = prod W_block
    is trivial exactly when every block has rank 0 or is GL(1), that is
    when every multiplicity is 1: a symplectic factor has even l, so l >= 2
    and rank >= 1.

    A pair is (key, eps1 bits, eps1 blocks, eps^(G/M) bits, eps^(G/M)
    blocks, beta blocks) for each `_candidate_pairs` entry, in order: the
    root-number table's key, the frozenset of the two labels, and the masks
    the pair toggles when its root number is -1.  The core is the
    odd-multiplicity orthogonal factors.  With count its even-constituent
    count, a pair toggles
      - eps1 on the bits and blocks of both constituents when both are in
        the core and count is odd;
      - the sign character's exponent of each orthogonal factor in the
        pair's `toggles`, which lands on the factor's free bit when its
        multiplicity is odd and on its block's flip parity when it is even;
      - beta_b on the block of k when k' is in the core and count is odd
        (and the other way round), for blocks of rank at least 1, that is
        l_k >= 2 (a pair has no GL member).
    Refusals come in this order: degree mismatch (from `parity_split`),
    an odd symplectic multiplicity, then a square-integrable parameter.
    The memo lives for the process and holds every parameter passed to
    `relative_signs`, with ints and frozensets of its labels only.
    """
    orthogonal, symplectic = parity_split(psi, tag)
    blocks = []
    odd_bit = []  # per non-GL block: its odd component bit, 0 off the core
    n_odd = 0
    proper = False  # some block has a nontrivial Weyl group
    for _, l in orthogonal:
        odd_bit.append(l % 2 << n_odd)
        n_odd += l % 2
        blocks.append(("O", l // 2))
        proper = proper or l > 1
    for _, l in symplectic:
        if l % 2:
            raise ValueError("parameter does not factor through the datum")
        odd_bit.append(0)
        blocks.append(("Sp", l // 2))
        proper = True
    for _, l in psi.dual_pair_orbits:
        blocks.append(("GL", l))
        proper = proper or l > 1
    if not proper:
        raise ValueError("parameter is square-integrable; no proper Levi")
    pairs = []
    for (k, lk, a), (kp, lkp, b), count, toggles in _candidate_pairs(orthogonal, symplectic):
        eps1_bits = eps1_blocks = beta = 0
        if count % 2:
            if odd_bit[a] and odd_bit[b]:
                eps1_bits = odd_bit[a] | odd_bit[b]
                eps1_blocks = 1 << a | 1 << b
            if odd_bit[b] and lk > 1:
                beta ^= 1 << a
            if odd_bit[a] and lkp > 1:
                beta ^= 1 << b
        gm_bits, gm_blocks = eps1_bits, eps1_blocks
        for idx in toggles:
            if odd_bit[idx]:
                gm_bits ^= odd_bit[idx]
            else:
                gm_blocks ^= 1 << idx
        pairs.append((frozenset((k.label, kp.label)), eps1_bits, eps1_blocks, gm_bits, gm_blocks,
                      beta))
    return tuple(blocks), n_odd, tuple(pairs)

"""Centralizer shapes, component groups, and the normalizer diagram.

For a parameter factoring through a unitary datum the centralizer inside
GL(N, C) is

    S = prod_{i in I+} O(l_i) x prod_{i in I-} Sp(l_i) x prod_{j in J} GL(l_j),

where I+ (resp. I-) collects the self-dual constituents whose parity agrees
(resp. disagrees) with the datum and J holds one representative per
partnered pair.  The component group of S modulo the central {+-1} is the
elementary abelian 2-group Sigma/<sigma_bar>, with Sigma the sign vectors
on I+ and sigma_bar the vector that is -1 exactly on the odd-multiplicity
indices.  The normalizer of a maximal torus of S fits into a pair of short
exact sequences

    1 -> S^1 -> N -> W -> 1,      1 -> W^0 -> N -> S -> 1,

with S^1 the sign vectors supported on odd indices and R = W/W^0 the sign
vectors on even indices; the second sequence splits canonically.  These
groups are realized concretely: an element of N is a tuple of signed
permutations (one `weylnum.signed_perms` pair per torus block) plus free
component bits on the odd orthogonal factors, modulo the central relation.
`levi_diagram` reads every order off the torus blocks in closed form, at
a cost polynomial in the number of factors; exactness and the splitting
hold by construction (see `LeviDiagram`).  `element_table` enumerates N
once per block signature, the (kind, rank) of each torus block and the
number of odd orthogonal factors, with each element's Weyl key and its
sign data as bit masks; the relative signs read it directly and
`NormalizerModel.elements` lists its elements.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import factorial
from typing import Dict, Iterable, List, Optional, Tuple

from .params import GlobalParameter, SimpleDatumTag, SimpleParameter, parity_split
from .values import Value, set_field
from .weylnum import signed_perms


class CentralizerShape(Value):
    """Shape data of S: (constituent, multiplicity) per factor family."""

    __slots__ = ("orthogonal", "symplectic", "general_linear")

    def __init__(self, orthogonal: Tuple[Tuple[SimpleParameter, int], ...],
                 symplectic: Tuple[Tuple[SimpleParameter, int], ...],
                 general_linear: Tuple[Tuple[SimpleParameter, int], ...]):
        set_field(self, "orthogonal", orthogonal)
        set_field(self, "symplectic", symplectic)
        set_field(self, "general_linear", general_linear)

    @property
    def plus_labels(self) -> Tuple[str, ...]:
        return tuple(sp.label for sp, _ in self.orthogonal)

    @property
    def odd_plus_labels(self) -> Tuple[str, ...]:
        return tuple(sp.label for sp, l in self.orthogonal if l % 2)

    @property
    def even_plus_labels(self) -> Tuple[str, ...]:
        return tuple(sp.label for sp, l in self.orthogonal if l % 2 == 0)


def centralizer_shape(psi: GlobalParameter, tag: SimpleDatumTag) -> CentralizerShape:
    """Split the self-dual constituents by parity against the datum."""
    orth, symp = parity_split(psi, tag)
    if any(l % 2 for _, l in symp):
        raise ValueError("parameter does not factor through the datum")
    return CentralizerShape(orth, symp, psi.dual_pair_orbits)


class FiniteTwoGroup(Value):
    """Sign vectors on `labels` modulo the subgroup generated by sigma_bar."""

    __slots__ = ("labels", "sigma_bar")

    def __init__(self, labels: Tuple[str, ...], sigma_bar: Tuple[int, ...]):
        set_field(self, "labels", labels)
        set_field(self, "sigma_bar", sigma_bar)

    @property
    def ambient_order(self) -> int:
        return 2 ** len(self.labels)

    @property
    def order(self) -> int:
        if any(s == -1 for s in self.sigma_bar):
            return self.ambient_order // 2
        return self.ambient_order

    @property
    def pivot(self) -> Optional[int]:
        """The first index where sigma_bar is -1, None when it is trivial:
        each class has exactly one vector with +1 there."""
        return next((i for i, s in enumerate(self.sigma_bar) if s == -1), None)

    def canonical(self, vector: Tuple[int, ...]) -> Tuple[int, ...]:
        """Smaller of the two coset representatives (lexicographic, +1 < -1):
        the one with +1 at the pivot, where the two first differ."""
        j = self.pivot
        if j is None or vector[j] == 1:
            return vector
        return tuple(a * b for a, b in zip(vector, self.sigma_bar))

    def elements(self) -> List[Tuple[int, ...]]:
        """The canonical representatives in product order: the vectors with
        +1 at the pivot, or all vectors when sigma_bar is trivial."""
        j = self.pivot
        if j is None:
            return list(itertools.product((1, -1), repeat=len(self.labels)))
        return [v[:j] + (1,) + v[j:]
                for v in itertools.product((1, -1), repeat=len(self.labels) - 1)]


def component_group(shape: CentralizerShape) -> FiniteTwoGroup:
    """The component group of S modulo the central +-1, as sign vectors on
    the orthogonal coordinates modulo the all-(-1)-on-odd-indices relation."""
    labels = shape.plus_labels
    sigma_bar = tuple(-1 if l % 2 else 1 for _, l in shape.orthogonal)
    return FiniteTwoGroup(labels, sigma_bar)


def brute_force_order(shape: CentralizerShape) -> int:
    """Independent count of Sigma/<sigma_bar> by explicit enumeration."""
    n = len(shape.orthogonal)
    sigma_bar = tuple(-1 if l % 2 else 1 for _, l in shape.orthogonal)
    classes = set()
    for vec in itertools.product((1, -1), repeat=n):
        twin = tuple(a * b for a, b in zip(vec, sigma_bar))
        classes.add(min(vec, twin))
    return len(classes)


# ---------------------------------------------------------------------------
# Normalizer model


def _flip_parity(elem) -> int:
    return elem[1].count(-1) % 2


def _weyl_block(kind: str, rank: int):
    """A block's Weyl group as (perm, signs) pairs: permutations on a GL
    block, signed permutations on the others."""
    return signed_perms(rank, ((1,) * rank,) if kind == "GL" else None)


def torus_blocks(shape: CentralizerShape) -> List[Tuple[str, SimpleParameter, int, int]]:
    """(kind, constituent, multiplicity l, torus rank) of each torus block:
    orthogonal factors (rank floor(l/2)), then symplectic factors (rank
    l/2), then general linear factors (rank l)."""
    return ([("O", sp, l, l // 2) for sp, l in shape.orthogonal]
            + [("Sp", sp, l, l // 2) for sp, l in shape.symplectic]
            + [("GL", sp, l, l) for sp, l in shape.general_linear])


class NormalizerElement(Value):
    """An element of N: per-block signed permutations plus the component
    bits of the odd orthogonal factors (canonicalized modulo the center)."""

    __slots__ = ("blocks", "odd_bits")

    def __init__(self, blocks: Tuple[Tuple[Tuple[int, ...], Tuple[int, ...]], ...],
                 odd_bits: Tuple[int, ...]):
        set_field(self, "blocks", blocks)
        set_field(self, "odd_bits", odd_bits)


class NormalizerModel:
    """Concrete model of the groups in the torus-normalizer diagram.

    Blocks are in `torus_blocks` order.  Elements carry one free component
    bit per odd orthogonal factor; even orthogonal factors have component
    equal to the sign-flip parity of their block.  Two elements are
    identified when they differ by the central element (all bits flipped
    on the odd orthogonal factors).
    """

    def __init__(self, shape: CentralizerShape):
        self.shape = shape
        self.orth = shape.orthogonal
        self.symp = shape.symplectic
        self.block_meta = torus_blocks(shape)
        self.blocks = tuple((kind, rank) for kind, _, _, rank in self.block_meta)
        self.odd_labels = shape.odd_plus_labels
        self.group = component_group(shape)

    def weyl_blocks(self):
        """Each block's Weyl group as (perm, signs) pairs."""
        return [_weyl_block(kind, rank) for kind, rank in self.blocks]

    def elements(self) -> List[NormalizerElement]:
        """Duplicate-free enumeration of N, in `element_table` order."""
        return [row[0] for row in element_table(self.blocks, len(self.odd_labels))]

    def component_vector(self, elem: NormalizerElement) -> Tuple[int, ...]:
        """Image of the element in the sign vectors on I+ (before the
        central quotient): flip parity on even factors, free bit on odd."""
        vec = []
        odd_pos = 0
        for idx, (sp, l) in enumerate(self.orth):
            block = elem.blocks[idx]
            if l % 2 == 0:
                vec.append(-1 if _flip_parity(block) else 1)
            else:
                vec.append(elem.odd_bits[odd_pos])
                odd_pos += 1
        return tuple(vec)

    def image_in_s(self, elem: NormalizerElement) -> Tuple[int, ...]:
        return self.group.canonical(self.component_vector(elem))


@lru_cache(maxsize=None)
def element_table(blocks: Tuple[Tuple[str, int], ...], n_odd: int):
    """N for a block signature: `blocks` is the (kind, rank) of each torus
    block and `n_odd` the number of odd orthogonal factors.

    A row is (element, Weyl key, flip mask, bit mask) for every Weyl element
    with every canonical choice of odd component bits (first bit -1, since
    the central flip pairs each choice with its negative).  Bit b of the
    flip mask is set when block b flips an odd number of signs, which makes
    its determinant on the zero-weight line -1; bit j of the bit mask when
    odd component bit j is -1.  The result is a shared tuple, kept for the
    life of the process like `signed_perms`.
    """
    if n_odd:
        bit_choices = [(-1,) + t for t in itertools.product((-1, 1), repeat=n_odd - 1)]
    else:
        bit_choices = [()]
    bit_masks = [sum(1 << j for j, b in enumerate(bits) if b == -1) for bits in bit_choices]
    rows = []
    for w_key in itertools.product(*(_weyl_block(kind, rank) for kind, rank in blocks)):
        flips = sum(1 << b for b, block in enumerate(w_key) if _flip_parity(block))
        rows.extend((NormalizerElement(w_key, bits), w_key, flips, mask)
                    for bits, mask in zip(bit_choices, bit_masks))
    return tuple(rows)


class LeviDiagram(Value):
    """Orders of the groups in the normalizer diagram.

    Both sequences are exact by construction: with #O orthogonal factors,
    #odd and #even of them of odd and even multiplicity, |S| =
    2^(#O - [#odd > 0]) and |W^0| = |W| / 2^(#even), so |S| |W^0| =
    2^(#odd - [#odd > 0]) |W| = |S^1| |W| = |N|.  The canonical section
    R -> S writes the R-signs on the even indices only, where sigma_bar is
    +1, so projecting back to R is the identity and S^1, supported on the
    odd indices, maps to the identity of R.
    """

    __slots__ = ("w0_order", "w_order", "n_order", "s_order", "s1_order", "r_labels")

    def __init__(self, w0_order: int, w_order: int, n_order: int, s_order: int,
                 s1_order: int, r_labels: Tuple[str, ...]):
        set_field(self, "w0_order", w0_order)
        set_field(self, "w_order", w_order)
        set_field(self, "n_order", n_order)
        set_field(self, "s_order", s_order)
        set_field(self, "s1_order", s1_order)
        set_field(self, "r_labels", r_labels)

    @property
    def r_order(self) -> int:
        return 2 ** len(self.r_labels)


def levi_diagram(shape: CentralizerShape) -> LeviDiagram:
    """The diagram's orders in closed form over `torus_blocks(shape)`, read
    in one pass over the factors, powers of 2 as shifts: a block of rank r
    has Weyl group of order r! when it is GL and 2^r r! otherwise, and W^0
    halves each even O(l) block, whose W(SO(l)) changes an even number of
    signs.  S^1 is the sign vectors on the odd indices
    modulo sigma_bar, -1 on all of them, and N is W times the odd component
    bits modulo the central flip: |S^1| = 2^max(#odd - 1, 0), |N| = |W| |S^1|.
    S, the sign vectors on the orthogonal factors modulo sigma_bar, is
    `component_group(shape)`, whose order is read off without building it:
    |S| = 2^(#O - [#odd > 0]) = 2^#even |S^1| = |R| |S^1|.
    """
    perms, rank, n_odd, r_labels = 1, 0, 0, []  # prod r!, the O and Sp rank, #odd, R
    for sp, l in shape.orthogonal:
        perms *= factorial(l >> 1)
        rank += l >> 1
        if l & 1:
            n_odd += 1
        else:
            r_labels.append(sp.label)
    for _, l in shape.symplectic:
        perms *= factorial(l >> 1)
        rank += l >> 1
    for _, l in shape.general_linear:
        perms *= factorial(l)
    s1_shift = n_odd - 1 if n_odd else 0
    n_even = len(r_labels)
    return LeviDiagram(perms << (rank - n_even), perms << rank, perms << (rank + s1_shift),
                       1 << (n_even + s1_shift), 1 << s1_shift, tuple(r_labels))


# ---------------------------------------------------------------------------
# Localization


class LocalizationMap:
    """The component-group map induced by refining each global self-dual
    constituent into local ones with inherited multiplicity (the diagonal
    embedding O(l) -> O(l)^m on each orthogonal factor).

    Refinement keys must be exactly the orthogonal-factor labels: parity is
    preserved under localization, so a symplectic- or general-linear-factor
    constituent cannot refine into the orthogonal coordinates.
    """

    def __init__(self, shape: CentralizerShape, refinement: Dict[str, Iterable[str]]):
        self.shape = shape
        self.refinement = {k: tuple(v) for k, v in refinement.items()}
        allowed = set(shape.plus_labels)
        for key in self.refinement:
            if key not in allowed:
                raise ValueError("refinement key %r is not an orthogonal-factor label" % key)
        for sp, _ in shape.orthogonal:
            if sp.label not in self.refinement or not self.refinement[sp.label]:
                raise ValueError("refinement missing for %r" % sp.label)
        # local orthogonal labels, each possibly shared by several globals
        local: Dict[str, List[int]] = {}
        for idx, (sp, l) in enumerate(shape.orthogonal):
            for loc in self.refinement[sp.label]:
                local.setdefault(loc, []).append(idx)
        self.local_labels = tuple(sorted(local))
        self.local_sources = {k: tuple(v) for k, v in local.items()}
        self.local_sigma_bar = tuple(
            -1 if sum(shape.orthogonal[i][1] for i in self.local_sources[k]) % 2 else 1
            for k in self.local_labels
        )
        self.local_group = FiniteTwoGroup(self.local_labels, self.local_sigma_bar)

    def apply(self, vector: Tuple[int, ...]) -> Tuple[int, ...]:
        """Push a global sign vector to the local coordinates."""
        out = []
        for k in self.local_labels:
            prod = 1
            for i in self.local_sources[k]:
                prod *= vector[i]
            out.append(prod)
        return self.local_group.canonical(tuple(out))

    def character_images(self) -> List[int]:
        """Global exponent masks (bit i for orthogonal factor i), pulled back
        through `local_sources`, of a basis of the local characters: each even
        local label alone, and the first odd local label with each later one."""
        even, odd = [], []
        for k, s in zip(self.local_labels, self.local_sigma_bar):
            mask = 0
            for i in self.local_sources[k]:
                mask ^= 1 << i
            (odd if s == -1 else even).append(mask)
        return even + [odd[0] ^ mask for mask in odd[1:]]

    def is_injective(self) -> bool:
        """Whether the induced map Sigma/<sigma_bar> -> Sigma_loc/<sigma_bar_loc>
        has trivial kernel: exactly when the dual map on characters is onto,
        that is when the pulled-back basis of the local characters spans,
        over GF(2), the 2^rank characters of the global group."""
        return 2 ** _gf2_rank(self.character_images()) == component_group(self.shape).order


def _gf2_rank(vectors: List[int]) -> int:
    """Rank over GF(2) of vectors given as int bit masks."""
    basis: Dict[int, int] = {}  # leading bit -> reduced vector
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            if top not in basis:
                basis[top] = v
                break
            v ^= basis[top]
    return len(basis)

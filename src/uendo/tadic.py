"""Formal standard-character expansions of Speh-type characters.

theta_r(k, lam) denotes the standard character attached to the twist by
|.|^lam of the essentially square-integrable datum (r, k); in the
archimedean case r is the trivial label and theta(k, lam) the character
z -> (z/|z|)^k |z|^lam.  The Speh-type character expands as

    theta_r^n(k) = sum over w in S_n of sgn(w) *
                   box-sum over i of theta_r(k - (i - w(i)), (n+1) - (i + w(i))),

with the boundary conventions, in the non-archimedean case, that a factor
with first entry -1 is the trivial character on the trivial group (dropped
from the box-sum) and a factor with first entry below -1 annihilates its term.
Cell (i, j) of the n x n table holds theta_r(k - (i - j), (n+1) - (i + j)), so
no two cells hold the same symbol; the zero cells are those with i - j > k + 1,
and the empty ones lie on the diagonal i - j = k + 1 (both non-archimedean
only).  Each term therefore comes from exactly one permutation: its symbols fix
their cells, and the empty cells that complete it are forced.  Nothing cancels,
and every coefficient is +-1.  The distinguished Weyl element w* (the longest
one in the archimedean case or when n <= k+1, a piecewise variant otherwise)
produces the unique tempered term

    theta_r^(n,*)(k) = box-sum over i <= n* of theta_r(k + n + 1 - 2i, 0),

with n* = min(n, k+1) non-archimedean and n* = n archimedean; the factor
theta_r(k + n - 1, 0) occurs in it exactly once.  An expansion holds each
term as a string of codes (see `_SIGN`), and sorts them as text.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .values import Value, set_field

ARCH = "archimedean"
NONARCH = "nonarchimedean"


class StandardSymbol(Value):
    """One box-sum factor theta_r(k, lam).  Its hash is computed once, when
    it is built, since every `IsobaricTerm` key hashes its symbols again; it
    reads only the numbers k and lam.  Copying and pickling rebuild the
    symbol through `__init__`, so a copy computes its hash afresh."""

    __slots__ = ("base", "k", "lam", "field_case", "_hash")

    def __init__(self, base: str, k: int, lam: Fraction, field_case: str):
        if field_case not in (ARCH, NONARCH):
            raise ValueError("field case must be archimedean or nonarchimedean")
        set_field(self, "base", base)
        set_field(self, "k", k)
        set_field(self, "lam", lam)
        set_field(self, "field_case", field_case)
        set_field(self, "_hash", hash((k, lam)))

    def __hash__(self):
        return self._hash


def _normalize_symbol(base: str, k: int, lam, field_case: str):
    """None for the empty symbol, 0 for the zero symbol, else the symbol."""
    lam = Fraction(lam)
    if field_case == NONARCH:
        if k == -1:
            return None
        if k < -1:
            return 0
    return StandardSymbol(base, k, lam, field_case)


class IsobaricTerm(Value):
    """A box-sum of standard symbols in canonical order, by (base, -k, lambda)."""

    __slots__ = ("symbols",)

    def __init__(self, symbols: Tuple[StandardSymbol, ...]):
        set_field(self, "symbols", symbols)

    @classmethod
    def build(cls, symbols) -> Optional["IsobaricTerm"]:
        """Normalize factors; None when some factor is the zero symbol."""
        kept = []
        for s in symbols:
            if s == 0:
                return None
            if s is None:
                continue
            kept.append(s)
        kept.sort(key=lambda s: (s.base, -s.k, s.lam))
        return cls(tuple(kept))


# A term's key: its symbols' ranks, ascending, each as chr(_BASE + rank) and
# _SEP between two, then _SIGN[coefficient].  The sign codes sort below _SEP and
# every rank, so keys sort as their (ranks, coefficient) pairs.  The codes below
# _BASE are those of -1, +1 and _SEP, in this order.
_SIGN = {-1: "\x00", 1: "\x01"}
_SEP = "\x02"
_BASE = 3
_COEFFICIENT = {code: c for c, code in _SIGN.items()}


class FormalCharacterCombination:
    """Integer combination of isobaric terms with coefficients +-1: `symbols`,
    the distinct symbols in canonical order (at least those of the terms), and
    `keys`, one string per term (see `_SIGN`), sorted, which is the canonical
    term order.  The (ranks of a term's symbols, coefficient) pairs `ranked`
    and the dict `coeffs` of `IsobaricTerm` keys are built when first read."""

    def __init__(self, symbols, keys):
        self.symbols, self.keys = tuple(symbols), list(keys)

    def term(self, key: str) -> IsobaricTerm:
        return IsobaricTerm(tuple(self.symbols[ord(code) - _BASE] for code in key[:-1:2]))

    @functools.cached_property
    def ranked(self) -> List[Tuple[Tuple[int, ...], int]]:
        return [(tuple(ord(code) - _BASE for code in key[:-1:2]), _COEFFICIENT[key[-1]])
                for key in self.keys]

    @functools.cached_property
    def coeffs(self) -> Dict[IsobaricTerm, int]:
        return {self.term(key): _COEFFICIENT[key[-1]] for key in self.keys}


def expand(base: str, n: int, k: int, field_case: str) -> FormalCharacterCombination:
    """Signed sum over the symmetric group after the boundary conventions,
    its terms in canonical order and every coefficient +-1 (see the module
    docstring): a Leibniz expansion of the table of normalized symbols grown
    one row at a time, its partial terms, strings of rank codes, grouped by
    the mask of columns still free into a list of + terms and a list of -
    terms.  Each term, from one permutation, sorts its codes into its key."""
    if n < 1:
        raise ValueError("n must be positive")
    if field_case == NONARCH and k < 0:
        raise ValueError("nonarchimedean expansions need k >= 0")
    if field_case not in (ARCH, NONARCH):
        raise ValueError("unknown field case %r" % field_case)
    # cell (i, j) holds theta(k - d, n + 1 - s), d = i - j, s = i + j: canonical
    # order is d up, then s down; None marks a zero cell, "" an empty one and
    # chr(_BASE + r) the symbol of rank r
    order, table = [], [[None] * n for _ in range(n)]
    for d in range(1 - n, n):
        for s in range(2 * n - abs(d), abs(d), -2):
            symbol = _normalize_symbol(base, k - d, n + 1 - s, field_case)
            if symbol is None:
                table[(s + d) // 2 - 1][(s - d) // 2 - 1] = ""
            elif symbol != 0:
                table[(s + d) // 2 - 1][(s - d) // 2 - 1] = chr(_BASE + len(order))
                order.append(symbol)
    groups = {(1 << n) - 1: ([""], [])}
    for row in table:
        grown = {}
        while groups:  # each group is dropped once extended
            free, (plus, minus) = groups.popitem()
            # choosing column j adds the parity of the free columns below j
            for j in range(n):
                if free >> j & 1:
                    cell = row[j]
                    if cell is not None:
                        into = grown.setdefault(free ^ 1 << j, ([], []))
                        into[0].extend([t + cell for t in plus])
                        into[1].extend([t + cell for t in minus])
                    plus, minus = minus, plus
        groups = grown
    (plus, minus), = groups.values()
    keys = [_SEP.join(sorted(t)) + _SIGN[1] for t in plus]
    keys += [_SEP.join(sorted(t)) + _SIGN[-1] for t in minus]
    keys.sort()
    return FormalCharacterCombination(order, keys)


def theta_star(base: str, n: int, k: int, field_case: str) -> IsobaricTerm:
    """Box-sum over i <= n* of theta_r(k + n + 1 - 2i, 0).

    The symbols are built as they stand, with no pass through
    `_normalize_symbol`: none is empty or zero.  An archimedean symbol never
    is, and in the non-archimedean case the smallest first entry, at i = n*,
    is k + 1 - n >= 0 when n* = n <= k + 1 and n - k - 1 >= 0 when
    n* = k + 1 < n, never -1 or below.  The first entries fall as i grows, so
    the symbols are already in the canonical order of `IsobaricTerm`."""
    n_star = n if field_case == ARCH else min(n, k + 1)
    return IsobaricTerm(tuple(StandardSymbol(base, k + n + 1 - 2 * i, Fraction(0), field_case)
                              for i in range(1, n_star + 1)))


def tempered_part(c: FormalCharacterCombination) -> Tuple[IsobaricTerm, int]:
    """The unique all-lambda-zero term, by its key, with its coefficient."""
    zero = {chr(_BASE + r) for r, s in enumerate(c.symbols) if s.lam == 0}
    zero.update(_SEP, *_SIGN.values())
    found = [key for key in c.keys if zero.issuperset(key)]
    if len(found) != 1:
        raise AssertionError("tempered part is not a single term")
    return c.term(found[0]), _COEFFICIENT[found[0][-1]]


def sq_int_multiplicity(term: IsobaricTerm, base: str, n: int, k: int) -> int:
    """Occurrences of the factor theta_r(k + n - 1, 0) in the term."""
    return sum(
        1 for s in term.symbols if s.base == base and s.k == k + n - 1 and s.lam == 0
    )

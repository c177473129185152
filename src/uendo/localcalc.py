"""Local parameter arithmetic over exact data.

Conjugate self-dual characters are modelled exactly: in the archimedean
case z -> (z / zbar)^a with a half-integral (conjugate-orthogonal exactly
when a is integral), in the unramified case through the value at Frobenius
stored as a root-of-unity exponent (conjugate self-dual exactly when
quadratic, orthogonal exactly when trivial).  Both kinds answer the same
two questions: `w2`, the value at w_c^2 as a fraction of a turn, and
`dual()`, the conjugate dual; parity is read off `w2` alone.  Monomial
parameters, direct sums of characters of one kind, admit an exhaustive
search for the pairing matrix realizing conjugate self-duality together
with its parity, which verifies the predicted parity (-1)^(N-1) kappa.
Base change acts on exponents by the shift attached to the twisting
character, multiplying parities.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .params import NOT_SELF_DUAL, ORTHOGONAL, SYMPLECTIC
from .values import Value, set_field

# A character's sign and parity at w_c^2, keyed by its `w2` when that is 0
# (the value 1) or 1/2 (the value -1).
_SIGN = {Fraction(0): 1, Fraction(1, 2): -1}
_PARITY = {Fraction(0): ORTHOGONAL, Fraction(1, 2): SYMPLECTIC}


def _parity(w2: Fraction) -> str:
    return _PARITY.get(w2, NOT_SELF_DUAL)


def _as_half_integer(a) -> Fraction:
    a = Fraction(a)
    if (2 * a).denominator != 1:
        raise ValueError("exponent must be half-integral")
    return a


class ArchCharacter(Value):
    """z -> (z / zbar)^a with a in (1/2) Z."""

    __slots__ = ("a",)

    def __init__(self, a: Fraction):
        set_field(self, "a", _as_half_integer(a))

    @property
    def w2(self) -> Fraction:
        """Value at w_c^2 = -1, (-1)^(2a), as a fraction of a turn."""
        return self.a % 1

    def dual(self) -> ArchCharacter:
        """eta^c = eta^-1, so the conjugate dual of (z/zbar)^a is itself."""
        return self

    @property
    def parity(self) -> str:
        return _parity(self.w2)


def arch_parity(a) -> str:
    """Conjugate-orthogonal iff the exponent is integral."""
    return ArchCharacter(_as_half_integer(a)).parity


class UnramifiedCharacter(Value):
    """Unramified character of the quadratic unramified extension, stored
    through the Frobenius value exp(2 pi i q)."""

    __slots__ = ("q",)

    def __init__(self, q: Fraction):
        set_field(self, "q", Fraction(q) % 1)

    @property
    def w2(self) -> Fraction:
        """The Frobenius value exponent; the conjugation acts trivially on
        unramified characters, so this is the w_c^2 value."""
        return self.q

    def dual(self) -> UnramifiedCharacter:
        """eta^c = eta, so the conjugate dual is the inverse."""
        return UnramifiedCharacter(-self.q)

    @property
    def is_self_dual(self) -> bool:
        return _parity(self.w2) != NOT_SELF_DUAL

    @property
    def parity(self) -> str:
        return _parity(self.w2)


# ---------------------------------------------------------------------------
# Archimedean discrete parameters


class ArchParameter(Value):
    """Exponents (a_1, ..., a_N) of a monomial archimedean parameter, and
    the shift c of the datum character."""

    __slots__ = ("exponents", "shift")

    def __init__(self, exponents: Tuple[Fraction, ...], shift: Fraction = Fraction(0)):
        set_field(self, "exponents", tuple(_as_half_integer(a) for a in exponents))
        set_field(self, "shift", _as_half_integer(shift))

    @property
    def infinitesimal_character(self) -> Tuple[Fraction, ...]:
        return tuple(a - self.shift for a in self.exponents)


def d_gauge(b: Sequence[Fraction]) -> Fraction:
    """inf(min |b_i|, min_{i != j} |b_i - b_j|); reported, never judged."""
    b = [Fraction(x) for x in b]
    return min([abs(x) for x in b] + [abs(x - y) for x, y in itertools.combinations(b, 2)])


def is_discrete_arch(p: ArchParameter, datum_parity: int) -> Tuple[bool, Fraction]:
    """All exponents distinct and of the datum parity, plus the gauge d."""
    want = ORTHOGONAL if datum_parity == 1 else SYMPLECTIC
    distinct = len(set(p.exponents)) == len(p.exponents)
    parities_ok = all(arch_parity(a) == want for a in p.exponents)
    return distinct and parities_ok, d_gauge(p.infinitesimal_character)


# ---------------------------------------------------------------------------
# The alternating anti-diagonal matrix and the duality criterion


def phi_matrix(N: int) -> Tuple[Tuple[int, ...], ...]:
    """Anti-diagonal with entries 1, -1, ..., (-1)^(N-1) from the top right."""
    if N < 1:
        raise ValueError("N must be positive")
    return tuple(tuple((-1) ** i if i + j == N - 1 else 0 for j in range(N)) for i in range(N))


def phi_identities_hold(N: int) -> bool:
    """tPhi = (-1)^(N-1) Phi and Phi^2 = (-1)^(N-1) I, entry by entry."""
    m = phi_matrix(N)
    sign = (-1) ** (N - 1)
    rows = range(N)
    return all(m[j][i] == sign * m[i][j]
               and sum(m[i][k] * m[k][j] for k in rows) == (sign if i == j else 0)
               for i in rows for j in rows)


class MonomialLocalParameter(Value):
    """A multiplicity-free direct sum of exact characters of one kind,
    archimedean or unramified, supporting the matrix search below."""

    __slots__ = ("characters",)

    def __init__(self, characters: Tuple):
        if len(set(characters)) != len(characters):
            raise ValueError("monomial search needs multiplicity-free characters")
        if len({type(c) for c in characters}) > 1:
            raise ValueError("monomial search needs characters of one kind")
        set_field(self, "characters", characters)


def verify_duality(p: MonomialLocalParameter) -> Tuple[bool, Tuple[int, ...]]:
    """Exhaustive structure matching for the pairing matrix.

    A monomial matrix A with support (pi(i), i) satisfies the invariance
    condition exactly when pi pairs each character with its conjugate dual;
    conjugate self-duality is the existence of such a pairing.  The
    transpose symmetry tA = eta A rho(w_c^2) then forces, cellwise,
    a_i = eta a_{pi(i)} eta_{pi(i)}(w_c^2): on a fixed point this pins
    eta = eta_i(w_c^2), on a two-cycle it is solvable for any eta exactly
    when eta_i(w_c^2) eta_j(w_c^2) = 1, that is when the two `w2` add up to
    a whole turn.  A fixed point is self-dual, so its `w2` is 0 or 1/2.
    Returns (conjugate self-dual, realizable parities); the parity tuple
    has both signs when the pairing has no fixed points and the cycle
    conditions hold.

    pi is an involution: `dual()` is one on both kinds (the identity on
    archimedean characters, q -> -q on unramified ones), and the characters
    are distinct, so pi(pi(i)) is the index of the dual of the dual of
    character i, which is i.
    """
    chars = p.characters
    index = {c: i for i, c in enumerate(chars)}
    pi = [index.get(c.dual()) for c in chars]
    if None in pi:
        return False, ()
    fixed = {_SIGN.get(chars[i].w2) for i, j in enumerate(pi) if i == j}
    cycles = all((chars[i].w2 + chars[j].w2) % 1 == 0 for i, j in enumerate(pi) if i < j)
    return True, tuple(eta for eta in (1, -1) if cycles and fixed <= {eta})


def eta_for_explicit(A, w2_diag) -> Optional[int]:
    """The sign eta with tA = eta * A * diag(w2 values), if one exists."""
    n = range(len(A))
    for eta in (1, -1):
        if all(A[j][i] == eta * A[i][j] * w2_diag[j] for i in n for j in n):
            return eta
    return None


def predicted_parity(N: int, kappa: int) -> int:
    return (-1) ** (N - 1) * kappa


# ---------------------------------------------------------------------------
# Base change


def base_change_arch(p: ArchParameter, kappa: int, c) -> ArchParameter:
    """Tensor by (z/zbar)^c; kappa must equal (-1)^(2c)."""
    c = _as_half_integer(c)
    if _SIGN[ArchCharacter(c).w2] != kappa:
        raise ValueError("kappa inconsistent with the twisting exponent")
    return ArchParameter(tuple(a + c for a in p.exponents), p.shift + c)


def base_change_unramified(chars: Sequence[UnramifiedCharacter], kappa: int) -> Tuple[UnramifiedCharacter, ...]:
    """Twist by the unramified character with Frobenius sign kappa."""
    if kappa not in (1, -1):
        raise ValueError("kappa must be +-1")
    shift = Fraction(0) if kappa == 1 else Fraction(1, 2)
    return tuple(UnramifiedCharacter(c.q + shift) for c in chars)

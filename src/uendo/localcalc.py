"""Local parameter arithmetic over exact data.

Conjugate self-dual characters are modelled exactly: in the archimedean
case z -> (z / zbar)^a with a half-integral (conjugate-orthogonal exactly
when a is integral), in the unramified case through the value at Frobenius
stored as a root-of-unity exponent (conjugate self-dual exactly when
quadratic, orthogonal exactly when trivial).  Monomial parameters, direct
sums of such characters, admit an exhaustive search for the pairing matrix
realizing conjugate self-duality together with its parity, which verifies
the predicted parity (-1)^(N-1) kappa.  Base change acts on exponents by
the shift attached to the twisting character, multiplying parities.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .params import NOT_SELF_DUAL, ORTHOGONAL, SYMPLECTIC
from .values import Value, set_field

ARCH = "archimedean"
UNRAMIFIED = "unramified"


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
    def parity(self) -> str:
        return ORTHOGONAL if self.a.denominator == 1 else SYMPLECTIC

    @property
    def w_c_square_value(self) -> int:
        """Value at j^2 = -1: (-1)^(2a)."""
        return -1 if (2 * self.a) % 2 else 1


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
    def is_self_dual(self) -> bool:
        return self.q in (Fraction(0), Fraction(1, 2))

    @property
    def parity(self) -> str:
        if self.q == 0:
            return ORTHOGONAL
        if self.q == Fraction(1, 2):
            return SYMPLECTIC
        return NOT_SELF_DUAL

    @property
    def w_c_square_value(self) -> Fraction:
        """Frobenius value exponent; the conjugation acts trivially on
        unramified characters, so this is the w_c^2 value."""
        return self.q


def unramified_parity(character: str) -> str:
    """trivial -> orthogonal; nontrivial-quadratic -> symplectic."""
    if character == "trivial":
        return ORTHOGONAL
    if character == "nontrivial-quadratic":
        return SYMPLECTIC
    return NOT_SELF_DUAL


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
    vals = [abs(x) for x in b]
    for x, y in itertools.combinations(b, 2):
        vals.append(abs(x - y))
    return min(vals)


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
    rows = [[0] * N for _ in range(N)]
    for i in range(N):
        rows[i][N - 1 - i] = (-1) ** i
    return tuple(tuple(r) for r in rows)


def _transpose(m):
    return tuple(tuple(m[j][i] for j in range(len(m))) for i in range(len(m)))


def _mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


def _scalar_mul(c, m):
    return tuple(tuple(c * x for x in row) for row in m)


def phi_identities_hold(N: int) -> bool:
    """tPhi = (-1)^(N-1) Phi and Phi^2 = (-1)^(N-1) I."""
    m = phi_matrix(N)
    sign = (-1) ** (N - 1)
    ident = tuple(tuple(1 if i == j else 0 for j in range(N)) for i in range(N))
    return _transpose(m) == _scalar_mul(sign, m) and _mat_mul(m, m) == _scalar_mul(sign, ident)


class MonomialLocalParameter(Value):
    """A multiplicity-free direct sum of exact characters, archimedean or
    unramified, supporting the matrix search below."""

    __slots__ = ("characters", "case")

    def __init__(self, characters: Tuple, case: str):
        if case not in (ARCH, UNRAMIFIED):
            raise ValueError("case must be archimedean or unramified")
        if len(set(characters)) != len(characters):
            raise ValueError("monomial search needs multiplicity-free characters")
        set_field(self, "characters", characters)
        set_field(self, "case", case)

    @property
    def N(self) -> int:
        return len(self.characters)


def _conj_inverse_exponent(char, case):
    """Exponent data of (eta^c)^-1, the conjugate dual."""
    if case == ARCH:
        # eta^c = eta^-1, so the conjugate dual of (z/zbar)^a is itself
        return char
    # unramified: eta^c = eta, conjugate dual is the inverse
    return UnramifiedCharacter(-char.q)


def verify_duality(p: MonomialLocalParameter) -> Tuple[bool, Tuple[int, ...]]:
    """Exhaustive structure matching for the pairing matrix.

    A monomial matrix A with support (pi(i), i) satisfies the invariance
    condition exactly when pi pairs each character with its conjugate dual;
    conjugate self-duality is the existence of such a pairing.  The
    transpose symmetry tA = eta A rho(w_c^2) then forces, cellwise,
    a_i = eta a_{pi(i)} eta_{pi(i)}(w_c^2): on a fixed point this pins
    eta = eta_i(w_c^2), on a two-cycle it is solvable for any eta exactly
    when eta_i(w_c^2) eta_j(w_c^2) = 1.  Returns (conjugate self-dual,
    realizable parities); the parity tuple has both signs when the pairing
    has no fixed points and the cycle conditions hold.
    """
    chars = p.characters
    n = p.N
    duals = [_conj_inverse_exponent(c, p.case) for c in chars]
    partner: List[Optional[int]] = [None] * n
    for i in range(n):
        for j, d in enumerate(chars):
            if duals[i] == d:
                partner[i] = j
                break
    if any(x is None for x in partner):
        return False, ()
    pi = tuple(partner)
    assert all(pi[pi[i]] == i for i in range(n))
    valid = []
    for eta in (1, -1):
        ok = True
        for i in range(n):
            if pi[i] == i:
                if _w_square_sign(chars[i], p.case) != eta:
                    ok = False
                    break
            elif pi[i] > i:
                if not _w_square_product_trivial(chars[i], chars[pi[i]], p.case):
                    ok = False
                    break
        if ok:
            valid.append(eta)
    return True, tuple(valid)


def _w_square_sign(char, case) -> Optional[int]:
    """Value of the character at w_c^2 when it is +-1, else None.  Fixed
    points of the dual pairing always have +-1 values."""
    if case == ARCH:
        return char.w_c_square_value
    q = char.w_c_square_value
    if q == 0:
        return 1
    if q == Fraction(1, 2):
        return -1
    return None


def _w_square_product_trivial(c1, c2, case) -> bool:
    if case == ARCH:
        return c1.w_c_square_value * c2.w_c_square_value == 1
    return (c1.q + c2.q) % 1 == 0


def eta_for_explicit(A, w2_diag) -> Optional[int]:
    """The sign eta with tA = eta * A * diag(w2 values), if one exists."""
    n = len(A)
    ta = _transpose(A)
    for eta in (1, -1):
        rhs = tuple(
            tuple(eta * A[i][j] * w2_diag[j] for j in range(n)) for i in range(n)
        )
        if ta == rhs:
            return eta
    return None


def predicted_parity(N: int, kappa: int) -> int:
    return (-1) ** (N - 1) * kappa


# ---------------------------------------------------------------------------
# Base change


def base_change_arch(p: ArchParameter, kappa: int, c) -> ArchParameter:
    """Tensor by (z/zbar)^c; kappa must equal (-1)^(2c)."""
    c = _as_half_integer(c)
    if ArchCharacter(c).w_c_square_value != kappa:
        raise ValueError("kappa inconsistent with the twisting exponent")
    return ArchParameter(tuple(a + c for a in p.exponents), p.shift + c)


def base_change_unramified(chars: Sequence[UnramifiedCharacter], kappa: int) -> Tuple[UnramifiedCharacter, ...]:
    """Twist by the unramified character with Frobenius sign kappa."""
    if kappa not in (1, -1):
        raise ValueError("kappa must be +-1")
    shift = Fraction(0) if kappa == 1 else Fraction(1, 2)
    return tuple(UnramifiedCharacter(c.q + shift) for c in chars)


def base_change(p, kappa: int, c_or_order=None):
    """Dispatch on the parameter kind: exponent shift in the archimedean
    case (c_or_order is the shift), quadratic twist in the unramified one."""
    if isinstance(p, ArchParameter):
        if c_or_order is None:
            raise ValueError("archimedean base change needs the shift exponent")
        return base_change_arch(p, kappa, c_or_order)
    return base_change_unramified(tuple(p), kappa)

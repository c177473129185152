"""Independent evaluations that the tests check the library against."""

import itertools

from uendo.centralizer import centralizer_shape
from uendo.params import NOT_SELF_DUAL, ORTHOGONAL, SYMPLECTIC
from uendo.signs import even_constituent_count


def su2_tensor_dims(a, b):
    """Dimensions in nu(a) (x) nu(b): |a-b|+1, |a-b|+3, ..., a+b-1."""
    return tuple(range(abs(a - b) + 1, a + b, 2))


def epsilon_full_product(psi, tag, table, vector):
    """The sign character at a sign vector, running over every SL(2)
    constituent of the symplectic root-number blocks, not only the
    even-dimensional ones.  Odd constituents contribute trivially through
    the even multiplicities of the symplectic factors, so this agrees with
    `signs.epsilon_character`."""
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


def constituent_parity(sp):
    """Duality class of mu (x) nu(n): nu(n) is orthogonal for n odd and
    symplectic for n even, and parities multiply."""
    if sp.duality == NOT_SELF_DUAL:
        return NOT_SELF_DUAL
    sign = sp.mu_sign * (-1) ** (sp.su2_dim - 1)
    return ORTHOGONAL if sign == 1 else SYMPLECTIC


def validate_root_numbers(entries, psi):
    """`RootNumberTable.validate_against` entry by entry with each pair
    sorted: the first bad entry in table order is refused, and within a
    pair the smaller label is checked first."""
    by_label = psi._by_label
    for key, val in entries.items():
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


def candidate_pairs_by_combinations(orthogonal, symplectic):
    """`signs._candidate_pairs` as an `itertools.combinations` walk over a
    list of each family's factors with their block indices and SL(2)
    dimensions: the same entries in the same order."""
    out = []
    for family, start, orthogonal_family in ((orthogonal, 0, True),
                                             (symplectic, len(orthogonal), False)):
        # each factor's SL(2) dimension, read once
        factors = [(sp, l, start + idx, sp.su2_dim) for idx, (sp, l) in enumerate(family)]
        for (k, lk, a, n), (kp, lkp, b, n_p) in itertools.combinations(factors, 2):
            count = even_constituent_count(n, n_p)
            if count:
                # (x,) * e lists x when e is odd
                toggles = ((a,) * (lkp * count % 2) + (b,) * (lk * count % 2)
                           if orthogonal_family else ())
                out.append(((k, lk, a), (kp, lkp, b), count, toggles))
    return out

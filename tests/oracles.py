"""Independent evaluations that the tests check the library against."""

import itertools

from uendo.centralizer import centralizer_shape


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

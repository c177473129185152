"""Independent evaluations that the tests check the library against."""

import itertools

from uendo.centralizer import centralizer_shape, element_table
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


def signs_on_table(blocks, n_odd, eps1_bits, eps1_blocks, gm_bits, gm_blocks, beta_blocks):
    """eps1, eps^(G/M), r^- and the two flags of `signs.RelativeSigns` as
    (eps1, eps_gm, r_minus, fibers_constant, spectral_identity), by a walk
    over every row of `element_table(blocks, n_odd)`: a sign is -1 when its
    masks select an odd number of set bits of the row's bit and flip masks,
    eps^(G/M) and r^- are read on each Weyl element's first row, and the
    flags compare the values row by row."""
    eps1, eps_gm, r_minus = {}, {}, {}
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


def global_parameter_fields(constituents):
    """What `GlobalParameter(constituents)` keeps, as (constituents,
    total_degree, by_label, hash), or its `ValueError`, by the constructor's
    first form: a merge, one pass for duplicate labels, one that checks each
    not-self-dual constituent against its partner, then the canonical sort
    and the total degree."""
    merged = {}
    for sp, mult in constituents:
        if mult < 1:
            raise ValueError("multiplicities must be >= 1")
        if sp in merged:
            merged[sp] += mult
        else:
            merged[sp] = mult
    labels = {}
    for sp in merged:
        if sp.label in labels:
            raise ValueError("duplicate label %r" % sp.label)
        labels[sp.label] = sp
    for sp, mult in merged.items():
        if sp.duality == NOT_SELF_DUAL:
            mate = labels.get(sp.partner)
            if mate is None:
                raise ValueError("missing partner %r" % sp.partner)
            if mate.partner != sp.label:
                raise ValueError("partnering is not an involution")
            if (mate.deg_mu, mate.su2_dim) != (sp.deg_mu, sp.su2_dim):
                raise ValueError("partners must share degree data")
            if mate.duality != NOT_SELF_DUAL:
                raise ValueError("partner of a non-self-dual mu must be non-self-dual")
            if merged[mate] != mult:
                raise ValueError("partnered constituents need equal multiplicity")
    order = sorted(merged, key=lambda s: (s.deg_mu, s.su2_dim, s.label))
    constituents = tuple((sp, merged[sp]) for sp in order)
    total_degree = sum(sp.degree * l for sp, l in constituents)
    if total_degree < 1:
        raise ValueError("empty parameter")
    by_label = {sp.label: (sp, l) for sp, l in constituents}
    return constituents, total_degree, by_label, hash(constituents)

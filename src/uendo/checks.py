"""Condensed cross-module invariant battery behind the `check` command.

Each check returns a failure description or None; `run_all` collects the
failures.  The full acceptance families live in the test suite; this
battery is a fast structural health check over representative cases.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import centralizer as central
from . import endoscopy, localcalc, signs, tadic
from .multiplicity import Analysis
from .params import (
    ORTHOGONAL,
    SYMPLECTIC,
    GlobalParameter,
    SimpleDatumTag,
    SimpleParameter,
)
from .weylnum import (
    ComponentDatum,
    ConnectedShape,
    e_number,
    gl,
    i_number,
    sigma,
    so,
    sp,
)


def _check_weyl_identity():
    menu = [
        (ConnectedShape((sp(2),)), (False,)),
        (ConnectedShape((so(2),)), (True,)),
        (ConnectedShape((so(3),)), (False,)),
        (ConnectedShape((gl(2),)), (True,)),
        (ConnectedShape((sp(2), so(1))), (False, True)),
        (ConnectedShape((so(2), so(2)), (-1, -1)), (True, True)),
    ]
    for shape, coset in menu:
        datum = ComponentDatum(shape, coset)
        if i_number(datum) != e_number(datum):
            return "i(S) != e(S) for %r" % (datum,)
    return None


def _check_sigma():
    expect = [
        (ConnectedShape(()), Fraction(1)),
        (ConnectedShape((gl(1),)), Fraction(0)),
        (ConnectedShape((so(3),)), Fraction(-1, 4)),
    ]
    for shape, val in expect:
        if sigma(shape) != val:
            return "sigma(%r) != %s" % (shape, val)
    # sigma(Sp(2r)) = [t^r] (1 + t)^(-1/8), a series sharing no code with `_sigma_factor`
    coeff = Fraction(1)
    for r in range(1, 17):
        coeff *= (Fraction(-1, 8) - r + 1) / r
        if sigma(ConnectedShape((sp(2 * r),))) != coeff:
            return "sigma(Sp(%d)) != %s, the series coefficient" % (2 * r, coeff)
    return None


def _shape(mults_plus, mults_minus=(), mults_gl=()):
    cons = []
    for idx, l in enumerate(mults_plus):
        cons.append((SimpleParameter("p%d" % idx, 1, ORTHOGONAL), l))
    for idx, l in enumerate(mults_minus):
        cons.append((SimpleParameter("q%d" % idx, 1, SYMPLECTIC), l))
    for idx, l in enumerate(mults_gl):
        a = SimpleParameter("g%d" % idx, 1, "not-self-dual", 1, partner="g%dx" % idx)
        b = SimpleParameter("g%dx" % idx, 1, "not-self-dual", 1, partner="g%d" % idx)
        cons.append((a, l))
        cons.append((b, l))
    psi = GlobalParameter(cons)
    tag = SimpleDatumTag(psi.total_degree, (-1) ** (psi.total_degree - 1))
    return psi, tag


def _check_component_group():
    for mults in itertools.product((1, 2, 3), repeat=2):
        analysis = Analysis(*_shape(mults), signs.RootNumberTable())
        shape, group = analysis.shape, analysis.group
        if group.order != central.brute_force_order(shape):
            return "component group order mismatch at %r" % (mults,)
        # the closed-form orders against the enumerated normalizer
        diagram = central.levi_diagram(shape)
        rows = central.element_table(
            tuple((kind, rank) for kind, _, _, rank in central.torus_blocks(shape)),
            len(shape.odd_plus_labels))
        if (diagram.n_order, diagram.w_order, diagram.s_order) != (
                len(rows), len({row[1] for row in rows}), group.order):
            return "normalizer diagram order mismatch at %r" % (mults,)
    return None


def _check_iota():
    for n in range(1, 5):
        std = endoscopy.enumerate_standard(n)
        if any(d.iota not in (Fraction(1), Fraction(1, 2), Fraction(1, 4)) for d in std):
            return "bad standard iota at N=%d" % n
        tw = endoscopy.enumerate_twisted(n)
        if sum(1 for d in tw if d.is_simple) != 2:
            return "twisted simple count wrong at N=%d" % n
    return None


def _check_collapse():
    psi, tag = _shape((1, 1, 1))
    for vec, corr, ok in endoscopy.collapse_check(psi, tag):
        if not ok:
            return "collapse identity failed at %r" % (vec,)
    return None


def _check_epsilon():
    mu1 = SimpleParameter("m1", 1, ORTHOGONAL, 2)
    mu2 = SimpleParameter("m2", 1, SYMPLECTIC, 1)
    psi = GlobalParameter([(mu1, 1), (mu2, 1)])
    tag = SimpleDatumTag(3, -1)
    analysis = Analysis(psi, tag, signs.RootNumberTable({frozenset(("m1", "m2")): -1}))
    if analysis.eps.is_trivial:
        return "U(3)-style sign character unexpectedly trivial"
    if analysis.eps.evaluate(analysis.group.sigma_bar) != 1:
        return "sign character not trivial on the central element"
    return None


def _check_stable_coefficient():
    # U(4) parity +, psi = 4a: S^0 = SO(4) holds the central -1, so
    # sigma-bar^0 = 2 sigma(SO(4)) = 1/16, over |S-bar| = 2.  U(5) parity +,
    # psi = 4a + b: O(1) keeps -1 out of S^0, so sigma(SO(4)) = 1/32, over 2.
    for mults, want in (((4,), Fraction(1, 32)), ((4, 1), Fraction(1, 64))):
        got = Analysis(*_shape(mults), signs.RootNumberTable()).coefficient
        if got != want:
            return "stable coefficient %s != %s at O%r" % (got, want, mults)
    return None


def _check_relative_signs():
    mu1 = SimpleParameter("m1", 1, ORTHOGONAL, 2)
    mu2 = SimpleParameter("m2", 1, SYMPLECTIC, 1)
    psi = GlobalParameter([(mu1, 2), (mu2, 1)])
    tag = SimpleDatumTag(5, -1)
    table = signs.RootNumberTable({frozenset(("m1", "m2")): -1})
    rec = signs.relative_signs(psi, tag, table)
    if not rec.fibers_constant:
        return "eps^(G/M) not constant on fibers"
    if not rec.spectral_identity:
        return "crossing sign does not match eps^G eps^1"
    return None


def _check_tadic():
    for n in range(1, 4):
        for k in range(0, 3):
            combo = tadic.expand("r", n, k, tadic.NONARCH)
            term, coeff = tadic.tempered_part(combo)
            star = tadic.theta_star("r", n, k, tadic.NONARCH)
            if term != star or coeff not in (1, -1):
                return "tempered part wrong at n=%d k=%d" % (n, k)
            if tadic.sq_int_multiplicity(term, "r", n, k) != 1:
                return "square-integrable multiplicity wrong at n=%d k=%d" % (n, k)
    return None


def _check_phi():
    for n in range(1, 9):
        if not localcalc.phi_identities_hold(n):
            return "phi identities fail at N=%d" % n
    return None


def _check_roundtrip():
    from . import cli

    text = (
        "group U(3) parity -\n"
        "mu m1: deg=1, sd=+\n"
        "mu m2: deg=1, sd=-\n"
        "psi = m1 (x) nu(2) + m2 (x) nu(1)\n"
        "roots { m1, m2 : -1 }\n"
        "places [ v1 : inert v2 : split ]\n"
    )
    doc = cli.parse(text)
    if cli.parse(cli.print_document(doc)) != doc:
        return "document round trip failed"
    return None


_CHECKS = [
    _check_weyl_identity,
    _check_sigma,
    _check_component_group,
    _check_iota,
    _check_collapse,
    _check_epsilon,
    _check_stable_coefficient,
    _check_relative_signs,
    _check_tadic,
    _check_phi,
    _check_roundtrip,
]


def run_all():
    failures = []
    for check in _CHECKS:
        try:
            failure = check()
        except Exception as exc:  # surfaced as an invariant failure
            failure = "%s raised %r" % (check.__name__, exc)
        if failure:
            failures.append(failure)
    return failures

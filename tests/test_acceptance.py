"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a `criterion N (...): PASS` line when it completes; a
failed assertion fails the test (and pytest reports the line as absent).
Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import itertools
import json
import pathlib
import random
from fractions import Fraction

from test_tadic import mod2_reduce, w_star
from uendo import cli
from uendo.centralizer import (
    brute_force_order,
    centralizer_shape,
    component_group,
    levi_diagram,
)
from uendo.endoscopy import collapse_check, enumerate_standard, enumerate_twisted
from uendo.localcalc import (
    ArchCharacter,
    MonomialLocalParameter,
    UnramifiedCharacter,
    phi_identities_hold,
    predicted_parity,
    verify_duality,
)
from uendo.multiplicity import (
    GlobalPlacesModel,
    Place,
    decompose_discrete_spectrum,
    enumerate_members,
)
from uendo.params import (
    ORTHOGONAL,
    SYMPLECTIC,
    GlobalParameter,
    SimpleDatumTag,
    SimpleParameter,
    factors_through,
)
from uendo.signs import RootNumberTable, epsilon_character, relative_signs
from uendo.tadic import NONARCH, ARCH as TARCH, expand, sq_int_multiplicity, tempered_part, theta_star
from uendo.weylnum import (
    ComponentDatum,
    ConnectedShape,
    e_number,
    gl,
    i_number,
    sigma,
    so,
    sp,
)


def sd(label, deg=1, parity=ORTHOGONAL, n=1):
    return SimpleParameter(label, deg, parity, n)


def _report(n, name):
    print("criterion %d (%s): PASS" % (n, name))


# ---------------------------------------------------------------------------


def test_criterion_1_index_identity():
    dressed = []
    for a in (1, 2, 3):
        dressed.append((gl(a), False))
        dressed.append((gl(a), True))
    for n in (2, 4):
        dressed.append((sp(n), False))
    for m in (1, 2, 3, 4):
        dressed.append((so(m), False))
        dressed.append((so(m), True))
    checked = 0
    for r in (1, 2, 3):
        for combo in itertools.combinations_with_replacement(dressed, r):
            factors = tuple(f for f, _ in combo)
            coset = tuple(t for _, t in combo)
            datum = ComponentDatum(ConnectedShape(factors), coset)
            i_val = i_number(datum)
            assert i_val == e_number(datum), combo
            checked += 1
            options = [(-1, 1) if f.has_minus_one else (1,) for f in factors]
            for z in itertools.product(*options):
                if all(s == 1 for s in z):
                    continue
                quotient = ComponentDatum(ConnectedShape(factors, z), coset)
                assert i_number(quotient) == i_val
                assert e_number(quotient) == i_val, (combo, z)
                checked += 1
    assert checked > 4000
    _report(1, "i(S) = e(S) over the factor menu, %d data" % checked)


def test_criterion_2_known_constants():
    assert i_number(ComponentDatum(ConnectedShape((sp(2),)), (False,))) == Fraction(-1, 4)
    o2_coset = ComponentDatum(ConnectedShape((so(2),)), (True,))
    assert i_number(o2_coset) == Fraction(1, 2)
    assert e_number(o2_coset) == Fraction(1, 2)
    # i_psi(x) = 1/2^q on the elliptic components of the doubled shapes
    for q in (1, 2, 3):
        for extra in (0, 1, 2):
            for bits in itertools.product((False, True), repeat=q):
                factors = tuple([so(2)] * q + [so(1)] * extra)
                coset = tuple(list(bits) + [False] * extra)
                value = i_number(ComponentDatum(ConnectedShape(factors), coset))
                if all(bits):
                    assert value == Fraction(1, 2 ** q)
                else:
                    assert value == 0
    _report(2, "Sp(2), O(2) coset, and 1/2^q component values")


def test_criterion_3_sigma_values():
    assert sigma(ConnectedShape(())) == 1
    for torus in ((gl(1),), (so(2),), (gl(2), sp(2))):
        assert sigma(ConnectedShape(torus)) == 0
    # independent brute-force e-evaluations on two-element Weyl data:
    # i(SL2) from the explicit rank-1 enumeration
    terms = []
    for mat in ((1,), (-1,)):
        det = mat[0] - 1
        if det == 0:
            continue
        sgn = -1 if mat[0] == -1 else 1  # the flip sends 2e to -2e
        terms.append(Fraction(sgn, abs(det)))
    i_sl2 = sum(terms) / 2
    assert i_sl2 == Fraction(-1, 4)
    # elliptic classes of SL2 are the two central ones: i = 2 sigma
    assert sigma(ConnectedShape((sp(2),))) == i_sl2 / 2 == Fraction(-1, 8)
    # SO(3): same lattice picture, positive root e instead of 2e; the only
    # elliptic class is central, so sigma = i
    assert sigma(ConnectedShape((so(3),))) == i_sl2 * 2 / 2 == Fraction(-1, 4)
    assert e_number(ComponentDatum(ConnectedShape((sp(2),)), (False,))) == 2 * Fraction(-1, 8)
    assert e_number(ComponentDatum(ConnectedShape((so(3),)), (False,))) == Fraction(-1, 4)
    _report(3, "sigma values with brute-force e checks")


def test_criterion_4_iota_tables():
    for n in range(1, 7):
        for d in enumerate_standard(n):
            n1, n2 = d.split
            if n2 == 0:
                assert d.iota == 1 and d.out_order == 1
            elif n1 == n2:
                assert d.iota == Fraction(1, 4) and d.out_order == 2
            else:
                assert d.iota == Fraction(1, 2) and d.out_order == 1
        twisted = enumerate_twisted(n)
        simple = [d for d in twisted if d.is_simple]
        assert len(simple) == 2
        assert sorted(d.parity for d in simple) == [-1, 1]
        assert all(d.iota_twisted == Fraction(1, 2) for d in simple)
        assert all(d.iota_twisted == Fraction(1, 4) for d in twisted if not d.is_simple)
        for d in twisted:
            n1, n2 = d.split
            if (n1 - n2) % 2 == 0:
                assert d.signature in ((1, -1), (-1, 1))
                if n1 == n2:
                    assert d.signature == (1, -1)
            else:
                assert d.signature in ((1, 1), (-1, -1))
    _report(4, "standard and twisted coefficient tables, N <= 6")


def test_criterion_5_component_group_family():
    checked = 0
    for k in range(1, 5):
        for mults in itertools.product((1, 2, 3, 4), repeat=k):
            cons = [(sd("c%d" % i), l) for i, l in enumerate(mults)]
            psi = GlobalParameter(cons)
            tag = SimpleDatumTag(psi.total_degree, (-1) ** (psi.total_degree - 1))
            shape = centralizer_shape(psi, tag)
            group = component_group(shape)
            expected = (
                2 ** k if all(l % 2 == 0 for l in mults) else 2 ** (k - 1)
            )
            assert group.order == expected == brute_force_order(shape)
            diagram = levi_diagram(shape)
            assert diagram.n_order == diagram.s_order * diagram.w0_order
            assert diagram.n_order == diagram.s1_order * diagram.w_order
            checked += 1
    assert checked == 4 + 16 + 64 + 256
    _report(5, "component group orders and normalizer diagrams, %d shapes" % checked)


def test_criterion_6_collapse_identity():
    degree_options = {
        1: [(1,), (2,), (3,)],
        2: [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3)],
        3: [(1, 1, 1), (1, 1, 2), (1, 2, 2), (1, 2, 3), (2, 2, 2), (1, 1, 3)],
    }
    checked = 0
    for r, options in degree_options.items():
        for degs in options:
            cons = [(sd("c%d" % i, deg), 1) for i, deg in enumerate(degs)]
            psi = GlobalParameter(cons)
            tag = SimpleDatumTag(psi.total_degree, (-1) ** (psi.total_degree - 1))
            for vec, corr, ok in collapse_check(psi, tag):
                assert ok, (degs, vec)
                checked += 1
    _report(6, "collapse identity over %d component elements" % checked)


def _random_table(psi, rng):
    entries = {}
    for a, b in itertools.combinations([s for s, _ in psi.self_dual], 2):
        if a.mu_sign != b.mu_sign:
            entries[frozenset((a.label, b.label))] = rng.choice((1, -1))
    return RootNumberTable(entries)


def test_criterion_7_epsilon_character():
    # generic parameters: always trivial
    rng = random.Random(404)
    for _ in range(200):
        r = rng.randint(1, 4)
        cons = [
            (sd("c%d" % i, rng.randint(1, 3), rng.choice((ORTHOGONAL, SYMPLECTIC)), 1),
             rng.randint(1, 3))
            for i in range(r)
        ]
        psi = GlobalParameter(cons)
        parity = rng.choice((1, -1))
        tag = SimpleDatumTag(psi.total_degree, parity * (-1) ** (psi.total_degree - 1))
        if not factors_through(psi, tag):
            continue
        assert epsilon_character(psi, tag, _random_table(psi, rng)).is_trivial
    # the worked three-variable example, both table values
    mu1, mu2 = sd("m1", 1, ORTHOGONAL, 2), sd("m2", 1, SYMPLECTIC, 1)
    psi = GlobalParameter([(mu1, 1), (mu2, 1)])
    tag = SimpleDatumTag(3, -1)
    char = epsilon_character(psi, tag, RootNumberTable({frozenset(("m1", "m2")): -1}))
    group = component_group(centralizer_shape(psi, tag))
    nontrivial = [x for x in group.elements() if any(v == -1 for v in x)]
    assert len(nontrivial) == 1 and char.evaluate(nontrivial[0]) == -1
    assert epsilon_character(psi, tag, RootNumberTable()).is_trivial
    # central triviality over a randomized family
    rng = random.Random(20260811)
    tested = 0
    while tested < 1000:
        r = rng.randint(1, 4)
        cons = [
            (sd("c%d" % i, rng.randint(1, 2),
                rng.choice((ORTHOGONAL, SYMPLECTIC)), rng.randint(1, 4)),
             rng.randint(1, 3))
            for i in range(r)
        ]
        psi = GlobalParameter(cons)
        parity = rng.choice((1, -1))
        tag = SimpleDatumTag(psi.total_degree, parity * (-1) ** (psi.total_degree - 1))
        if not factors_through(psi, tag):
            continue
        group = component_group(centralizer_shape(psi, tag))
        char = epsilon_character(psi, tag, _random_table(psi, rng))
        assert char.evaluate(group.sigma_bar) == 1
        tested += 1
    _report(7, "sign character: generic, worked example, %d central checks" % tested)


def test_criterion_8_spectral_sign_consistency():
    kinds = [(musign, n) for musign in (1, -1) for n in (1, 2, 3)]
    tested = 0
    for r in (1, 2, 3):
        for combo in itertools.combinations_with_replacement(kinds, r):
            for ls in itertools.product((1, 2, 3), repeat=r):
                cons = []
                for i, ((musign, n), l) in enumerate(zip(combo, ls)):
                    parity = ORTHOGONAL if musign == 1 else SYMPLECTIC
                    cons.append((sd("c%d" % i, 1, parity, n), l))
                psi = GlobalParameter(cons)
                for parity in (1, -1):
                    tag = SimpleDatumTag(
                        psi.total_degree, parity * (-1) ** (psi.total_degree - 1)
                    )
                    if not factors_through(psi, tag):
                        continue
                    shape = centralizer_shape(psi, tag)
                    if all(l == 1 for _, l in shape.orthogonal) and not shape.symplectic:
                        continue
                    tables = [RootNumberTable()]
                    pairs = [
                        (a, b)
                        for a, b in itertools.combinations(
                            [s for s, _ in psi.self_dual], 2
                        )
                        if a.mu_sign != b.mu_sign
                    ]
                    if pairs:
                        tables.append(RootNumberTable(
                            {frozenset((a.label, b.label)): -1 for a, b in pairs}
                        ))
                    if len(pairs) >= 2:
                        a, b = pairs[0]
                        tables.append(RootNumberTable({frozenset((a.label, b.label)): -1}))
                    for table in tables:
                        record = relative_signs(psi, tag, table)
                        assert record.fibers_constant, (combo, ls, parity)
                        assert record.spectral_identity, (combo, ls, parity)
                        tested += 1
    assert tested > 500
    _report(8, "crossing sign equals eps^G eps^1 on %d cases" % tested)


def test_criterion_9_tadic_suite():
    def perm_sign(perm):
        sign = 1
        for i in range(len(perm)):
            for j in range(i + 1, len(perm)):
                if perm[i] > perm[j]:
                    sign = -sign
        return sign

    for case in (NONARCH, TARCH):
        for n in range(1, 6):
            for k in range(0, 6):
                combo = expand("r", n, k, case)
                term, coeff = tempered_part(combo)
                assert term == theta_star("r", n, k, case)
                assert coeff == perm_sign(w_star(n, k, case))
                assert sq_int_multiplicity(term, "r", n, k) == 1
                assert mod2_reduce(combo.coeffs).get(term) == 1
    _report(9, "standard-character expansions, n <= 5, k <= 5, both cases")


def test_criterion_10_matrix_criterion():
    for n in range(1, 13):
        assert phi_identities_hold(n)
    checked = 0
    # archimedean monomial parameters of uniform parity
    pools = {
        1: [Fraction(v) for v in (-2, -1, 0, 1, 2)],
        -1: [Fraction(v, 2) for v in (-3, -1, 1, 3)],
    }
    for n in range(1, 5):
        for eta, pool in pools.items():
            for exps in itertools.combinations(pool, n):
                p = MonomialLocalParameter(tuple(ArchCharacter(a) for a in exps))
                found, etas = verify_duality(p)
                assert found and etas == (eta,)
                kappa = eta * (-1) ** (n - 1)
                assert predicted_parity(n, kappa) == eta
                checked += 1
    # unramified parameters closed under duality
    fixed = {1: UnramifiedCharacter(0), -1: UnramifiedCharacter(Fraction(1, 2))}
    pairs = [
        (UnramifiedCharacter(Fraction(1, 3)), UnramifiedCharacter(Fraction(2, 3))),
        (UnramifiedCharacter(Fraction(1, 4)), UnramifiedCharacter(Fraction(3, 4))),
    ]
    for eta, fix in fixed.items():
        for extra in range(0, 2):
            chars = [fix]
            for a, b in pairs[:extra]:
                chars.extend((a, b))
            p = MonomialLocalParameter(tuple(chars))
            found, etas = verify_duality(p)
            n = len(chars)
            assert found and etas == (eta,)
            assert predicted_parity(n, eta * (-1) ** (n - 1)) == eta
            checked += 1
    assert checked > 30
    _report(10, "duality criterion on %d monomial parameters" % checked)


def test_criterion_11_multiplicity_model():
    place_options = [
        [Place("v", "inert")],
        [Place("v1", "inert"), Place("v2", "split")],
        [Place("v1", "inert"), Place("v2", "inert"), Place("v3", "split")],
    ]
    seeds = [
        [sd("a", 2)],
        [sd("a", 1), sd("b", 1)],
        [sd("a", 1), sd("b", 2), sd("c", 3)],
        [sd("a", 1), sd("b", 1, SYMPLECTIC), sd("c", 2)],
    ]
    table = RootNumberTable()
    lines_checked = 0
    for seed in seeds:
        degree = sum(s.degree for s in seed)
        for target in range(1, degree + 1):
            try:
                tag = SimpleDatumTag(target, (-1) ** (target - 1))
            except ValueError:
                continue
            for places in place_options:
                lines = decompose_discrete_spectrum(seed, tag, table, places)
                for line in lines:
                    assert 0 <= line.members_selected <= line.members_total
                    shape = centralizer_shape(line.psi, tag)
                    model = GlobalPlacesModel(shape, places)
                    eps = epsilon_character(line.psi, tag, table)
                    group = component_group(shape)
                    matches = 0
                    for member in enumerate_members(model):
                        is_match = True
                        for vec in group.elements():
                            val = 1
                            for name, locmap in model.maps.items():
                                chi = member.character_at(name)
                                img = locmap.apply(vec)
                                for c, x in zip(chi, img):
                                    if c == -1 and x == -1:
                                        val = -val
                            if val != eps.evaluate(vec):
                                is_match = False
                        matches += 1 if is_match else 0
                    assert line.members_selected == matches
                    lines_checked += 1
    assert lines_checked > 10
    _report(11, "packet multiplicities match character counts, %d lines" % lines_checked)


def test_criterion_12_cli_round_trip_and_determinism(capsys):
    fixtures = sorted(pathlib.Path(__file__).with_name("fixtures").glob("doc*.txt"))
    assert len(fixtures) >= 20
    for path in fixtures:
        doc = cli.parse(path.read_text())
        assert cli.parse(cli.print_document(doc)) == doc
    # deterministic JSON across repeated runs
    target = fixtures[0]
    outputs = set()
    for _ in range(2):
        code = cli.main(["centralizer", "--input", str(target)])
        captured = capsys.readouterr()
        assert code == 0
        outputs.add(captured.out)
    assert len(outputs) == 1
    json.loads(outputs.pop())
    # the check command runs the invariant battery
    code = cli.main(["check"])
    captured = capsys.readouterr()
    assert code == 0
    _report(12, "round trip on %d documents, deterministic reports, check green" % len(fixtures))

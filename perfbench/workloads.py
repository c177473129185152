"""Seeded inputs for the benchmark's workloads.

Everything in this module is plain data and depends only on the seed and
the pass number, so the same seed gives the same inputs.  The CLI
workloads (`interactive`, `ladder`) are lists of argv vectors plus the
parameter documents they read; the `sweep` workload is a list of library
calls, each naming an entry of a fixed family of data.  The families are
materialised as `uendo` objects by `build_sweep_families`, which the worker
runs before it starts timing.
"""

from __future__ import annotations

import itertools
import math
import pathlib
import random

HERE = pathlib.Path(__file__).resolve().parent
FIXTURE_DIR = HERE / "fixtures"

WORKLOADS = ("interactive", "ladder", "sweep")

DOC_COMMANDS = ("classify", "centralizer", "arthur", "epsilon", "multiplicity", "print")
LADDER_COMMANDS = ("centralizer", "multiplicity", "arthur")

GENERATED_DOCS = 600
ENDOSCOPY_MAX_N = 40
SMALL_TADIC_N = range(1, 5)
SMALL_TADIC_K = range(0, 10)
# one datum of criterion 1's factor menu in every run of this many, ordered by Weyl order
MENU_STRIDE = 5

_LABELS = ("a", "b", "c", "m1", "m2", "x")


def pass_rng(workload: str, seed: int, pass_index: int) -> random.Random:
    return random.Random("%s:%d:%d" % (workload, seed, pass_index))


# ---------------------------------------------------------------------------
# Documents


def generate_document(rng: random.Random) -> str:
    """A small well-formed document in canonical printed form.

    At most three constituents, multiplicities at most 3, every degree and
    SL(2) dimension positive; roots only on pairs of opposite cuspidal
    parity, so the document always elaborates.
    """
    labels = rng.sample(_LABELS, rng.randint(1, 3))
    decls, terms, sds = [], [], {}
    total = 0
    for label in labels:
        deg = rng.randint(1, 2)
        sd = rng.choice(("+", "-", "none"))
        nu = rng.randint(1, 3)
        mult = rng.randint(1, 3)
        sds[label] = sd
        total += deg * nu * mult * (2 if sd == "none" else 1)
        decls.append("mu %s: deg=%d, sd=%s" % (label, deg, sd))
        terms.append("%s%s (x) nu(%d)" % ("%d*" % mult if mult > 1 else "", label, nu))
    lines = ["group U(%d) parity %s" % (total, rng.choice("+-"))]
    lines += decls
    lines.append("psi = " + " + ".join(terms))
    roots = [
        "%s, %s : %s" % (a, b, rng.choice(("+1", "-1")))
        for a, b in itertools.combinations(labels, 2)
        if {sds[a], sds[b]} == {"+", "-"} and rng.random() < 0.5
    ]
    if roots:
        lines.append("roots { %s }" % " ".join(roots))
    places = ["v%d : %s" % (i, rng.choice(("inert", "split"))) for i in range(rng.randint(0, 2))]
    if places:
        lines.append("places [ %s ]" % " ".join(places))
    return "\n".join(lines) + "\n"


def fixture_documents() -> dict:
    return {"fixtures/" + p.stem: p.read_text() for p in sorted(FIXTURE_DIR.glob("doc*.txt"))}


def ladder_documents() -> dict:
    """One family per centralizer factor kind, with growing multiplicity,
    listed rung by rung: O(k) x O(k), Sp(2j) x O(1) and GL(m) x O(1)."""
    docs = {}
    for step in range(6):
        k = step + 2
        docs["ladder/o%d" % k] = (
            "group U(%d) parity +\nmu a: deg=1, sd=+\nmu b: deg=1, sd=+\n"
            "psi = %d*a (x) nu(1) + %d*b (x) nu(1)\n" % (2 * k, k, k)
        )
        j = step + 1
        if j <= 4:
            docs["ladder/sp%d" % (2 * j)] = (
                "group U(%d) parity +\nmu a: deg=1, sd=-\nmu b: deg=1, sd=+\n"
                "psi = %d*a (x) nu(1) + b (x) nu(1)\n" % (2 * j + 1, 2 * j)
            )
        m = step + 2
        docs["ladder/gl%d" % m] = (
            "group U(%d) parity +\nmu c: deg=1, sd=none\nmu b: deg=1, sd=+\n"
            "psi = %d*c (x) nu(1) + b (x) nu(1)\n" % (2 * m + 1, m)
        )
    return docs


# ---------------------------------------------------------------------------
# Request lists.  A request is {"id", "argv"} plus "doc" when it reads one;
# the runner appends the document's path to argv.


def doc_requests(docs, commands):
    return [
        {"id": "%s %s" % (cmd, name), "argv": [cmd, "--input"], "doc": name}
        for name in docs
        for cmd in commands
    ]


def _tadic_requests(ns, ks):
    return [
        {"id": "tadic %d %d %s" % (n, k, field),
         "argv": ["tadic", "--n", str(n), "--k", str(k), "--field", field]}
        for n in ns
        for k in ks
        for field in ("arch", "nonarch")
    ]


def fixed_cli_requests():
    """Every request whose input does not depend on the seed, with its docs."""
    docs = fixture_documents()
    requests = doc_requests(docs, DOC_COMMANDS)
    docs.update(ladder_documents())
    requests += _endoscopy_requests()
    requests += _tadic_requests(SMALL_TADIC_N, SMALL_TADIC_K)
    requests.append({"id": "check", "argv": ["check"]})
    requests += doc_requests(ladder_documents(), LADDER_COMMANDS)
    requests += _tadic_requests(range(5, 8), (2,))
    return docs, requests


def _endoscopy_requests():
    return [
        {"id": "endoscopy %d" % n, "argv": ["endoscopy", "--n", str(n)]}
        for n in range(1, ENDOSCOPY_MAX_N + 1)
    ]


def interactive(seed: int, pass_index: int):
    """A user at the CLI: fixtures, small generated documents, small tables."""
    rng = pass_rng("interactive", seed, pass_index)
    docs = fixture_documents()
    for i in range(GENERATED_DOCS):
        docs["gen/%03d" % i] = generate_document(rng)
    requests = doc_requests(docs, DOC_COMMANDS)
    requests += _endoscopy_requests()
    requests += _tadic_requests(SMALL_TADIC_N, SMALL_TADIC_K)
    requests.append({"id": "check", "argv": ["check"]})
    rng.shuffle(requests)
    return docs, requests


def ladder(seed: int, pass_index: int):
    """The factorial wall: documents of growing multiplicity, large tadic.

    A user climbing the ladder: rung by rung, each document through
    centralizer, multiplicity and arthur in turn, then the tadic tables.
    The inputs are the same for every seed and pass, so the order, and with
    it which request first pays for a shared sigma, never changes."""
    docs = ladder_documents()
    requests = doc_requests(docs, LADDER_COMMANDS)
    requests += _tadic_requests(range(5, 8), (2,))
    return docs, requests


# ---------------------------------------------------------------------------
# Sweep: library calls on fixed families


def weyl_menu():
    """Criterion 1's data: products of up to three dressed classical factors,
    with every order-2 central quotient.  Entries are (factors, coset, z)
    with factors as (kind, size) pairs."""
    dressed = []
    for a in (1, 2, 3):
        dressed += [(("GL", a), False), (("GL", a), True)]
    for n in (2, 4):
        dressed.append((("Sp", n), False))
    for m in (1, 2, 3, 4):
        dressed += [(("SO", m), False), (("SO", m), True)]
    menu = []
    for r in (1, 2, 3):
        for combo in itertools.combinations_with_replacement(dressed, r):
            factors = tuple(f for f, _ in combo)
            coset = tuple(t for _, t in combo)
            menu.append((factors, coset, None))
            options = [(1,) if kind == "SO" and size % 2 else (-1, 1) for kind, size in factors]
            for z in itertools.product(*options):
                if any(s == -1 for s in z):
                    menu.append((factors, coset, z))
    return menu


def weyl_order(factors) -> int:
    """|W(S)| by closed form, for every coset of the supported factors."""
    order = 1
    for kind, size in factors:
        if kind == "GL":
            order *= math.factorial(size)
        else:
            rank = size // 2
            signs = 2 ** rank
            if kind == "SO" and size % 2 == 0 and rank >= 1:
                signs //= 2
            order *= signs * math.factorial(rank)
    return order


def menu_sample(rng: random.Random, menu) -> list:
    """Indices of a stratified sample: the menu ordered by Weyl order, cut
    into runs of MENU_STRIDE, one index drawn from each run.  Every seed
    gets a sample of the same size and nearly the same cost."""
    order = sorted(range(len(menu)), key=lambda i: (weyl_order(menu[i][0]), i))
    return [rng.choice(order[s:s + MENU_STRIDE]) for s in range(0, len(order), MENU_STRIDE)]


def sweep(seed: int, pass_index: int, family_sizes: dict):
    """Many small library calls: the i = e certificate on a sample of the
    factor menu, relative signs on criterion 8's family, and the discrete
    spectrum on criterion 11's seeds and places."""
    rng = pass_rng("sweep", seed, pass_index)
    requests = [{"id": "ie/%d" % i, "op": "ie", "index": i} for i in menu_sample(rng, weyl_menu())]
    requests += [
        {"id": "rs/%d" % i, "op": "rs", "index": i} for i in range(family_sizes["rs"])
    ]
    requests += [
        {"id": "dds/%d" % i, "op": "dds", "index": i} for i in range(family_sizes["dds"])
    ]
    rng.shuffle(requests)
    return {}, requests


def build_sweep_families():
    """Materialise the sweep families as uendo objects (imports uendo).

    Returns {"ie": [ComponentDatum], "rs": [(psi, tag, table)],
    "dds": [(seed, tag, table, places)]}, each in a fixed order.
    """
    from uendo.centralizer import centralizer_shape
    from uendo.multiplicity import Place
    from uendo.params import (ORTHOGONAL, SYMPLECTIC, GlobalParameter, SimpleDatumTag,
                              SimpleParameter, factors_through)
    from uendo.signs import RootNumberTable
    from uendo.weylnum import ComponentDatum, ConnectedShape, Factor

    ie = [
        ComponentDatum(ConnectedShape(tuple(Factor(k, s) for k, s in factors), z), coset)
        for factors, coset, z in weyl_menu()
    ]

    rs = []
    kinds = [(musign, n) for musign in (1, -1) for n in (1, 2, 3)]
    for r in (1, 2, 3):
        for combo in itertools.combinations_with_replacement(kinds, r):
            for ls in itertools.product((1, 2, 3), repeat=r):
                cons = [
                    (SimpleParameter("c%d" % i, 1, ORTHOGONAL if musign == 1 else SYMPLECTIC, n), l)
                    for i, ((musign, n), l) in enumerate(zip(combo, ls))
                ]
                psi = GlobalParameter(cons)
                for parity in (1, -1):
                    tag = SimpleDatumTag(psi.total_degree, parity * (-1) ** (psi.total_degree - 1))
                    if not factors_through(psi, tag):
                        continue
                    shape = centralizer_shape(psi, tag)
                    if all(l == 1 for _, l in shape.orthogonal) and not shape.symplectic:
                        continue  # square-integrable: no proper Levi
                    pairs = [
                        frozenset((a.label, b.label))
                        for a, b in itertools.combinations([s for s, _ in psi.self_dual], 2)
                        if a.mu_sign != b.mu_sign
                    ]
                    entries = [{}]
                    if pairs:
                        entries.append({p: -1 for p in pairs})
                    if len(pairs) >= 2:
                        entries.append({pairs[0]: -1})
                    rs += [(psi, tag, RootNumberTable(e)) for e in entries]

    place_options = [
        [Place("v", "inert")],
        [Place("v1", "inert"), Place("v2", "split")],
        [Place("v1", "inert"), Place("v2", "inert"), Place("v3", "split")],
    ]

    def sd(label, deg, duality=ORTHOGONAL):
        return SimpleParameter(label, deg, duality, 1)

    seeds = [
        [sd("a", 2)],
        [sd("a", 1), sd("b", 1)],
        [sd("a", 1), sd("b", 2), sd("c", 3)],
        [sd("a", 1), sd("b", 1, SYMPLECTIC), sd("c", 2)],
    ]
    dds = []
    for seed in seeds:
        for target in range(1, sum(s.degree for s in seed) + 1):
            tag = SimpleDatumTag(target, (-1) ** (target - 1))
            for places in place_options:
                dds.append((seed, tag, RootNumberTable(), places))
    return {"ie": ie, "rs": rs, "dds": dds}

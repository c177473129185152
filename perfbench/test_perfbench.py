"""Self-tests of the benchmark: inputs, checker, tracer and scaling.

Run with `python3 -m pytest perfbench/test_perfbench.py` from the checkout
root, with `src` on PYTHONPATH.
"""

import contextlib
import io
import json
import random

import pytest

import calibrate
import checker
import run
import tracer
import workloads
from uendo import cli
from uendo.weylnum import ComponentDatum, ConnectedShape, Factor, weyl_set


@pytest.fixture(scope="module")
def reference():
    return json.loads(run.REFERENCE.read_text())


def _cli_row(request, path):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(request["argv"] + ([str(path)] if "doc" in request else []))
    return {"id": request["id"], "exc": None, "code": code, "out": out.getvalue(),
            "err": err.getvalue()}


def _run_doc(tmp_path, name, text, commands=workloads.DOC_COMMANDS):
    path = tmp_path / "doc.txt"
    path.write_text(text)
    requests = workloads.doc_requests({name: text}, commands)
    return requests, [_cli_row(r, path) for r in requests]


def test_generator_is_deterministic_per_seed():
    assert workloads.interactive(7, 0) == workloads.interactive(7, 0)
    assert workloads.interactive(7, 0) != workloads.interactive(8, 0)
    assert workloads.interactive(7, 0) != workloads.interactive(7, 1)
    assert workloads.ladder(3, 2) == workloads.ladder(3, 2)
    sizes = {"rs": 5, "dds": 2}
    assert workloads.sweep(3, 2, sizes) == workloads.sweep(3, 2, sizes)
    docs = [workloads.generate_document(random.Random(11)) for _ in range(2)]
    assert docs[0] == docs[1]


def test_generated_documents_are_small_and_parse():
    rng = random.Random(5)
    for _ in range(200):
        doc = cli.parse(workloads.generate_document(rng))
        assert 1 <= len(doc.terms) <= 3
        assert all(1 <= t.mult <= 3 and t.nu >= 1 for t in doc.terms)
        assert all(d.deg >= 1 for d in doc.decls)
        cli.elaborate(doc)


def test_each_request_appears_once_per_pass(reference):
    for workload in workloads.WORKLOADS:
        _, _, requests = run.pass_inputs(workload, 1, 0, reference)
        ids = [r["id"] for r in requests]
        assert len(ids) == len(set(ids))


def test_weyl_order_closed_form_matches_enumeration():
    for factors, coset, z in workloads.weyl_menu():
        if len(factors) > 2:
            continue
        datum = ComponentDatum(ConnectedShape(tuple(Factor(k, s) for k, s in factors), z), coset)
        assert workloads.weyl_order(factors) == len(weyl_set(datum))


def test_self_time_on_synthetic_nested_spans():
    # outer [0, 10] holds a [1, 3] and b [4, 8]; b holds c [5, 6]
    spans = [
        [0, -1, 0.0, 10.0, 0, 0, None],
        [1, 0, 1.0, 3.0, 0, 0, None],
        [2, 0, 4.0, 8.0, 0, 0, None],
        [3, 2, 5.0, 6.0, 0, 0, None],
    ]
    assert tracer.self_times(spans) == [4.0, 2.0, 3.0, 1.0]


def test_tracer_wraps_by_identity_and_restores():
    import uendo.multiplicity
    import uendo.weylnum

    original = uendo.weylnum.sigma
    assert uendo.multiplicity.sigma is original and cli.sigma is original
    trace = tracer.Tracer()
    trace.install()
    try:
        assert uendo.weylnum.sigma is not original
        assert uendo.multiplicity.sigma is uendo.weylnum.sigma is cli.sigma
        trace.request = 0
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["arthur", "--input", str(workloads.FIXTURE_DIR / "doc02.txt")]) == 0
    finally:
        trace.uninstall()
    assert uendo.weylnum.sigma is original and cli.sigma is original
    assert trace.missing == []
    spans = trace.export()
    metrics = tracer.derive(spans)
    assert metrics["cli.main.calls"] == 1
    assert metrics["cli.report_arthur.calls"] == 1
    assert metrics["weylnum.i_number.calls"] >= 1
    assert metrics["weylnum.i_number.weyl_order"] > 0
    names = [tracer.TRACED[s[0]] for s in spans]
    assert names[0] == ("cli", "main")
    assert all(s[1] < i for i, s in enumerate(spans))
    assert sum(tracer.self_times(spans)) == pytest.approx(spans[0][3] - spans[0][2])


def test_fixed_reports_match_reference(tmp_path, reference):
    name = "fixtures/doc01"
    text = (workloads.FIXTURE_DIR / "doc01.txt").read_text()
    requests, rows = _run_doc(tmp_path, name, text)
    assert checker.check_cli(requests, rows, {name: text}, reference["cli"], cli.parse) == []


def test_doctored_fixed_report_is_counted_as_failed(tmp_path, reference):
    name = "fixtures/doc01"
    text = (workloads.FIXTURE_DIR / "doc01.txt").read_text()
    requests, rows = _run_doc(tmp_path, name, text, ("centralizer",))
    report = json.loads(rows[0]["out"])
    report["component_group_order"] += 1
    rows[0]["out"] = json.dumps(report)
    failures = checker.check_cli(requests, rows, {name: text}, reference["cli"], cli.parse)
    assert [f[0] for f in failures] == ["centralizer fixtures/doc01"]
    # an extra field is allowed
    report["component_group_order"] -= 1
    report["extra"] = 1
    rows[0]["out"] = json.dumps(report)
    assert checker.check_cli(requests, rows, {name: text}, reference["cli"], cli.parse) == []


def test_doctored_seeded_reports_are_counted_as_failed(tmp_path, reference):
    text = "group U(3) parity +\nmu a: deg=1, sd=+\npsi = 3*a (x) nu(1)\n"
    requests, rows = _run_doc(tmp_path, "gen/000", text)
    docs = {"gen/000": text}
    assert checker.check_cli(requests, rows, docs, reference["cli"], cli.parse) == []
    by_command = {r["argv"][0]: row for r, row in zip(requests, rows)}

    arthur = json.loads(by_command["arthur"]["out"])
    arthur["components"][0]["e"] = {"num": 7, "den": 1}
    by_command["arthur"]["out"] = json.dumps(arthur)
    mult = json.loads(by_command["multiplicity"]["out"])
    mult["stable_coefficient"] = {"num": 99, "den": 1}
    by_command["multiplicity"]["out"] = json.dumps(mult)
    by_command["print"]["out"] = text.replace("3*a", "2*a")
    failures = dict(checker.check_cli(requests, rows, docs, reference["cli"], cli.parse))
    assert set(failures) == {"arthur gen/000", "multiplicity gen/000", "print gen/000"}
    by_command["epsilon"].update(code=2, out="")  # refused although the parameter factors
    failures = dict(checker.check_cli(requests, rows, docs, reference["cli"], cli.parse))
    assert "epsilon gen/000" in failures


def test_doctored_sweep_rows_are_counted_as_failed(reference):
    good = [{"id": "ie/0", "exc": None, "i": reference["ie"][0], "e": reference["ie"][0]},
            {"id": "rs/0", "exc": None, "fibers_constant": True, "spectral_identity": True,
             "digest": reference["rs"][0]},
            {"id": "dds/0", "exc": None, "digest": reference["dds"][0]}]
    assert checker.check_sweep(good, reference) == []
    bad = [dict(good[0], e="1/3"), dict(good[1], spectral_identity=False),
           dict(good[2], digest="0" * 16), dict(good[0], exc="ValueError: boom")]
    assert len(checker.check_sweep(bad, reference)) == 4


def test_scale_factors_follow_the_local_kernel_time():
    slices = [(0.0, 0.002), (1.0, 0.002), (2.0, 0.002), (3.0, 0.001), (4.0, 0.001), (5.0, 0.001)]
    factors = calibrate.scale_factors(slices, [(0.5, 0.6), (4.5, 4.6)])
    assert factors == pytest.approx([calibrate.REFERENCE_S / 0.002, calibrate.REFERENCE_S / 0.001])


def test_tail_has_ten_requests_beyond_it():
    value, percentile, n = run.tail([float(i) for i in range(100)])
    assert (value, n) == (89.0, 100) and percentile == pytest.approx(90.0)

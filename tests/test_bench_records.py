"""Every benchmark record `BENCH_*.json` at the root of the repository is a
JSON object that names the command its runs came from and the machine they
ran on, so that a claimed gain can be run again and its figures read.  A
record that claims a gain starts its claim with the workload and the
end-to-end metric of `BENCHMARK.json` that it claims it on, and says in how
many pairs of runs the change was lower: in at least 90 % of at least five
pairs, the pair rule of a claimed gain."""

import json
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_there_are_benchmark_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_benchmark_record_parses_and_names_command_and_machine(path):
    record = json.loads(path.read_text())
    assert isinstance(record, dict), path.name
    for field in ("command", "machine"):
        assert isinstance(record.get(field), str) and record[field].strip(), (path.name, field)


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_benchmark_record_claims_a_declared_workload_and_metric(path):
    claim = json.loads(path.read_text()).get("claim", "none")
    if claim == "none":
        return
    workloads = {workload["name"] for workload in BENCHMARK["workloads"]}
    metrics = {metric["name"] for metric in BENCHMARK["end_to_end"]}
    head, colon, _ = claim.partition(":")
    workload, _, metric = head.partition(" ")
    assert colon and workload in workloads and metric in metrics, (path.name, head)


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_benchmark_record_claims_by_the_pair_rule(path):
    claim = json.loads(path.read_text()).get("claim", "none")
    if claim == "none":
        return
    counts = [(int(w), int(p)) for w, p in re.findall(r"lower in (\d+) of (\d+)", claim)]
    assert counts, (path.name, claim)
    for won, pairs in counts:
        assert pairs >= 5 and won >= 0.9 * pairs, (path.name, won, pairs)

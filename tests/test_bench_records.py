"""Every benchmark record `BENCH_*.json` at the root of the repository is a
JSON object that names the command its runs came from and the machine they
ran on, so that a claimed gain can be run again and its figures read."""

import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_there_are_benchmark_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_benchmark_record_parses_and_names_command_and_machine(path):
    record = json.loads(path.read_text())
    assert isinstance(record, dict), path.name
    for field in ("command", "machine"):
        assert isinstance(record.get(field), str) and record[field].strip(), (path.name, field)

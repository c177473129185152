import json
import pathlib

import cli_golden
import pytest

from uendo import cli, tadic


@pytest.fixture(autouse=True)
def cold_document_memos():
    """Clear the CLI's document memos (`cli.parse`, and the elaborate memo,
    which keeps each document's `multiplicity.Analysis`), its memo of the
    `arthur` text of each identity component and the memo of archimedean
    `tadic` keys before each test, so that every test starts cold, as a
    fresh CLI process does, whatever ran before it."""
    cli.parse.cache_clear()
    cli._elaborate.cache_clear()
    cli._component_reports.cache_clear()
    tadic._arch_keys.cache_clear()


@pytest.fixture(scope="session")
def perfbench_workloads():
    """The benchmark's input builders, `perfbench/workloads.py`."""
    return cli_golden.load_workloads()


@pytest.fixture(scope="session")
def report_validator():
    """A validator for `docs/report-schema-v1.json`, the schema of every
    JSON report."""
    jsonschema = pytest.importorskip("jsonschema")
    path = pathlib.Path(__file__).resolve().parents[1] / "docs" / "report-schema-v1.json"
    schema = json.loads(path.read_text())
    jsonschema.Draft202012Validator.check_schema(schema)
    return jsonschema.Draft202012Validator(schema)

import importlib.util
import json
import pathlib

import pytest

from uendo import cli


@pytest.fixture(autouse=True)
def cold_document_memos():
    """Clear the CLI's document memos (`cli.parse` and the elaborate memo)
    before each test, so that every test starts cold, as a fresh CLI process
    does, whatever ran before it."""
    cli.parse.cache_clear()
    cli._elaborate.cache_clear()


@pytest.fixture(scope="session")
def perfbench_workloads():
    """The benchmark's input builders, `perfbench/workloads.py`, loaded from
    its file: `perfbench` is a directory of scripts, not a package."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def report_validator():
    """A validator for `docs/report-schema-v1.json`, the schema of every
    JSON report."""
    jsonschema = pytest.importorskip("jsonschema")
    path = pathlib.Path(__file__).resolve().parents[1] / "docs" / "report-schema-v1.json"
    schema = json.loads(path.read_text())
    jsonschema.Draft202012Validator.check_schema(schema)
    return jsonschema.Draft202012Validator(schema)

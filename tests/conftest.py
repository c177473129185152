import importlib.util
import pathlib

import pytest


@pytest.fixture(scope="session")
def perfbench_workloads():
    """The benchmark's input builders, `perfbench/workloads.py`, loaded from
    its file: `perfbench` is a directory of scripts, not a package."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module

"""One pass of each benchmark workload, so that a change that breaks the
benchmark's imports or its output checks fails here too."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
NAMES = ["gallery-verify", "catalog-verify", "search-16", "load-inspect"]


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.mark.parametrize("name", NAMES)
def test_every_operation_of_one_pass_succeeds(name, tmp_path):
    workloads = _workloads()
    assert list(workloads) == NAMES
    prepare, load, operations = workloads[name]
    if prepare:
        prepare(ROOT, 0, tmp_path)
    ops = operations(load(ROOT, 0, tmp_path))
    assert ops
    failures = [(label, message) for label, op in ops
                if (message := op()) is not None]
    assert failures == []

"""One pass of each benchmark workload, so that a change that breaks the
benchmark's imports or its output checks fails here too."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
NAMES = ["gallery-verify", "catalog-verify", "search-16", "load-inspect"]


def _perfbench(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _workloads():
    return _perfbench("workloads").WORKLOADS


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


def test_a_gallery_verify_operation_runs_no_law_kernel(monkeypatch, tmp_path):
    # every gallery ring is a structure-constant ring or a product of two,
    # proved without the table-law kernels, even with every cache cleared
    from ringcent import kernels

    def refuse(*tables):
        raise AssertionError("a law kernel ran in gallery-verify")

    prepare, load, operations = _workloads()["gallery-verify"]
    ops = operations(load(ROOT, 0, tmp_path))
    for clear in _perfbench("worker").cache_clearers():
        clear()
    for name in ("add_table_check", "mul_assoc_check", "distrib_check"):
        monkeypatch.setattr(kernels, name, refuse)
    assert [op() for _, op in ops] == [None]

"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from ringcent import centralizers, enumeration, gallery, suites  # noqa: E402
from ringcent.errors import PartialUniverse  # noqa: E402

ROW3 = (lambda: gallery.row_ring(3), (5, Fraction(11, 27), 1, [3, 3]))


def _last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def test_benchmark_json_declares_what_the_code_reports():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    names = [w["name"] for w in doc["workloads"]]
    assert names == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert doc["per_layer"] == [{"name": n, "unit": u, "better": b}
                                for n, u, b in spans.PER_LAYER]
    assert {m["name"] for m in doc["end_to_end"]} == {"setup_s", "wall_s", "peak_rss_mb"}
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])


def test_cache_clearers_empty_every_package_cache():
    gallery.row_ring(3)
    enumeration.cached_catalog(2)
    enumeration.canonical_form(gallery.row_ring(2))
    for clear in worker.cache_clearers():
        clear()
    assert gallery.row_ring.cache_info().currsize == 0
    assert enumeration._min_group_table.cache_info().currsize == 0
    assert enumeration._catalog_cache == {}


@pytest.mark.parametrize("corrupt", ["count", "exception", "partial"])
def test_wrong_output_or_error_is_a_failed_operation(monkeypatch, corrupt):
    if corrupt == "count":
        ops = workloads._search_ops({(16,): 17})
    else:
        exc = PartialUniverse("budget") if corrupt == "partial" else KeyError("x")

        def broken(factors):
            raise exc

        monkeypatch.setattr(enumeration, "raw_structures", broken)
        ops = workloads._search_ops({(16,): 16})
    passes = worker.run_passes(ops, [], seconds=0)
    assert [len(p["failures"]) for p in passes] == [1]


def test_load_inspect_inputs_follow_the_seed(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "INSPECT_SOURCES", [ROW3])
    texts = []
    for seed in (7, 7, 8):
        workload_dir = tmp_path / f"w{len(texts)}"
        workload_dir.mkdir()
        workloads._inspect_prepare(ROOT, seed, workload_dir)
        texts.append((workload_dir / "ring0.json").read_text())
        inputs = workloads._inspect_load(ROOT, seed, workload_dir)
        assert worker.run_pass(workloads._inspect_ops(inputs), [])[1] == []
    assert texts[0] == texts[1] != texts[2]
    # a corrupted expectation is counted, not raised
    (path, _), = inputs
    wrong = (5, Fraction(1, 3), 1, [3, 3])
    assert len(worker.run_pass(workloads._inspect_ops([(path, wrong)]), [])[1]) == 1


def test_tracer_sees_calls_made_by_the_workloads(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "INSPECT_SOURCES", [ROW3])
    workloads._inspect_prepare(ROOT, 1, tmp_path)
    ops = (workloads._search_ops({(16,): 16})
           + workloads._inspect_ops(workloads._inspect_load(ROOT, 1, tmp_path)))
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert worker.run_pass(ops, [])[1] == []
    finally:
        tracer.uninstall()
    layer = spans.layer_metrics(tracer.take())
    assert layer["enumeration.raw_structures.s"] > 0
    for name in ("kernels.structure_search", "centralizers.analyze",
                 "rings.validate", "kernels.law_check"):
        assert layer[f"{name}.calls"] > 0, name


@pytest.fixture(scope="module")
def traced_catalog_passes():
    tracer = spans.Tracer()
    ops = workloads._catalog_ops(workloads.CATALOG_CLASSES)
    clearers = worker.cache_clearers()
    passes = []
    for _ in range(2):
        tracer.install()
        try:
            _, failures = worker.run_pass(ops, clearers)
        finally:
            tracer.uninstall()
        passes.append({"failures": failures, "spans": tracer.take()})
    return passes


def test_tracer_restores_every_patched_name(traced_catalog_passes):
    assert suites.cent_set is centralizers.cent_set
    assert enumeration.cent_set is centralizers.cent_set
    assert all(body.__name__.startswith("_suite_") for body in suites.SUITES.values())


def test_traced_spans_nest_with_nonnegative_self_time(traced_catalog_passes):
    for p in traced_catalog_passes:
        assert p["failures"] == []
        recorded = p["spans"]
        assert len(recorded) > 1000
        children = [0.0] * len(recorded)
        last_end = {}
        for i, (name, parent, start, end, _) in enumerate(recorded):
            assert start <= end
            if parent >= 0:
                assert parent < i
                _, _, p_start, p_end, _ = recorded[parent]
                assert p_start <= start and end <= p_end
                children[parent] += end - start
            assert start >= last_end.get(parent, float("-inf"))  # siblings in order
            last_end[parent] = end
        for i, (_, _, start, end, _) in enumerate(recorded):
            assert (end - start) - children[i] >= 0
        assert all(st["self_s"] >= 0 for st in spans.span_stats(recorded).values())


def test_exact_counters_repeat_between_traced_passes(traced_catalog_passes):
    layers = [spans.layer_metrics(p["spans"]) for p in traced_catalog_passes]
    assert len(layers) == 2
    assert set(layers[0]) | {"trace.wall_s", "trace.untraced_wall_s",
                             "trace.overhead_s"} == {n for n, _, _ in spans.PER_LAYER}
    for name in spans.EXACT_COUNTERS:
        assert layers[0][name] == layers[1][name] > 0, name


def test_run_prints_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "search-16",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_without_the_package_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search-16",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "{" not in proc.stdout

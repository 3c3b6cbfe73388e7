"""Theorem suites: all green on shipped universes, loud on corruption."""

import random
import sys
from collections import Counter

import numpy as np
import pytest

from ringcent import (
    EmptyUniverse,
    RingError,
    UnknownSuite,
    ValidationError,
    centralizers,
)
from ringcent.gallery import default_gallery, modular_ring, row_ring
from ringcent.rings import FiniteRing, validate
from ringcent.suites import SUITES, load_universe, run_all, run_suite

from oracles import detect_mutation, mutate_entry


@pytest.fixture(scope="module")
def gallery_results(gallery_rings):
    return run_all(gallery_rings, "gallery")


def test_all_suites_pass_on_gallery(gallery_results):
    for res in gallery_results:
        assert res.passed, (res.suite_id, [v.to_json() for v in res.violations])


def test_all_suites_pass_on_catalog_up_to_8(small_universe):
    for res in run_all(small_universe, "catalog<=8"):
        assert res.passed, (res.suite_id, [v.to_json() for v in res.violations])


def test_suite_checked_counts_are_positive(gallery_results):
    for res in gallery_results:
        assert res.checked > 0, res.suite_id


def test_run_all_analyzes_each_ring_once(monkeypatch):
    # fresh ring objects, so no report is left over from another test
    rings = [FiniteRing(R.add, R.mul, R.label) for R in default_gallery()]
    seen = []  # keeps every ring alive, so no id is reused
    original = centralizers.cent_set

    def counted(R):
        seen.append(R)
        return original(R)

    for name, mod in list(sys.modules.items()):
        if name.startswith("ringcent") and getattr(mod, "cent_set", None) is original:
            monkeypatch.setattr(mod, "cent_set", counted)
    results = {res.suite_id: res for res in run_all(rings, "gallery")}
    calls = Counter(id(R) for R in seen)
    assert max(calls.values()) == 1
    # one call per universe ring and one per product that P2_product builds
    assert len(calls) == len(rings) + results["P2_product"].checked


def test_unknown_suite():
    with pytest.raises(UnknownSuite):
        run_suite("no_such_suite", [row_ring(2)])


def test_empty_universe():
    with pytest.raises(EmptyUniverse):
        run_suite("T1_no_2_3", [])


def test_result_json_round_trip(gallery_rings):
    res = run_suite("T1_no_2_3", gallery_rings, "gallery")
    doc = res.to_json()
    assert doc["suite"] == "T1_no_2_3"
    assert doc["passed"] is True
    assert doc["violations"] == []
    stable = res.to_json(with_timing=False)
    assert stable["elapsed_secs"] == 0.0


def test_load_universe_gallery_and_file(tmp_path):
    rings, name = load_universe("gallery")
    assert name == "gallery" and len(rings) == len(default_gallery())
    path = tmp_path / "r.json"
    row_ring(3).spec().save(path)
    rings, name = load_universe(str(path))
    assert len(rings) == 1 and rings[0].order == 9


def test_load_universe_gallery_construction():
    rings, name = load_universe("gallery:row_ring:3")
    assert rings == [row_ring(3)] and name == "ring gallery:row_ring:3"
    rings, name = load_universe("gallery:four_element_matrix_ring")
    assert [R.order for R in rings] == [4]
    rings, name = load_universe("catalog:2")
    assert [R.order for R in rings] == [1, 2, 2]
    assert name == "catalog orders 1..2"


@pytest.mark.parametrize("token, message", [
    ("gallery:nosuch", "unknown gallery ring 'nosuch'"),
    ("gallery:row_ring:x", "is not an integer"),
    ("gallery:row_ring:3:9", "too many fields"),
    ("gallery:four_element_matrix_ring:7", "takes no parameter"),
    ("catalog:abc", "is not an integer"),
    ("catalog:2:3", "too many fields"),
], ids=["unknown-name", "param-not-int", "gallery-four-fields", "param-unused",
        "order-not-int", "catalog-three-fields"])
def test_load_universe_rejects_malformed_tokens(token, message):
    with pytest.raises(RingError, match=message):
        load_universe(token)


def test_load_universe_catalog_dir(tmp_path):
    from ringcent import enumerate_rings

    out = tmp_path / "cat4"
    enumerate_rings(4, out_dir=str(out))
    rings, _ = load_universe(str(out))
    assert len(rings) == 11


# --- mutation harness ---------------------------------------------------------


def test_mutation_detection_50_random():
    R = row_ring(2)
    rng = random.Random(20250810)
    detected = 0
    count = 0
    while count < 50:
        i, j = rng.randrange(4), rng.randrange(4)
        v = rng.randrange(4)
        if v == int(R.mul[i, j]):
            continue
        count += 1
        how = detect_mutation(mutate_entry(R, i, j, v))
        if how != "undetected":
            detected += 1
    assert detected == 50  # 100% of mutations detected


def test_every_possible_mutation_detected_exhaustively():
    R = row_ring(2)
    for i in range(4):
        for j in range(4):
            for v in range(4):
                if v == int(R.mul[i, j]):
                    continue
                assert detect_mutation(mutate_entry(R, i, j, v)) != "undetected"


def test_a_mutant_that_is_still_a_ring_runs_every_suite(monkeypatch):
    # mul[1][1] = 0 turns Z_2 into the zero ring on Z_2: it validates, and
    # every suite holds on it, so all 17 run on the validated ring
    import oracles

    doc = mutate_entry(modular_ring(2), 1, 1, 0)
    assert validate(doc).mul.tolist() == [[0, 0], [0, 0]]
    ran = []

    def counted(sid, universe, name):
        ran.append(sid)
        assert [R.proved for R in universe] == [True]
        return run_suite(sid, universe, name)

    monkeypatch.setattr(oracles, "run_suite", counted)
    assert detect_mutation(doc) == "undetected"
    assert ran == sorted(SUITES)
    assert len(ran) == 17


def test_suites_not_vacuous_when_validation_bypassed():
    # with the law check skipped, at least one suite still fails on every
    # corrupted table; this guards the suites against vacuous green runs
    R = row_ring(2)
    for i in range(4):
        for j in range(4):
            for v in range(4):
                if v == int(R.mul[i, j]):
                    continue
                doc = mutate_entry(R, i, j, v)
                forced = FiniteRing(
                    np.asarray(doc["add"]), np.asarray(doc["mul"]), doc["label"]
                )
                tripped = False
                for sid in sorted(SUITES):
                    try:
                        if not run_suite(sid, [forced], "m").passed:
                            tripped = True
                    except ValidationError:
                        tripped = True
                    if tripped:
                        break
                assert tripped, (i, j, v)


def test_violation_reports_carry_the_offending_spec():
    # corrupt a bigger ring so the invalid table is reported, not raised
    R = row_ring(3)
    doc = R.spec().to_json()
    doc["mul"][1][2] = (doc["mul"][1][2] + 1) % 9
    forced = FiniteRing(np.asarray(doc["add"]), np.asarray(doc["mul"]), "bad")
    failures = []
    for sid in sorted(SUITES):
        try:
            res = run_suite(sid, [forced], "m")
        except ValidationError:
            failures.append(sid)
            continue
        if not res.passed:
            assert res.violations[0].ring_label == "bad"
            assert "mul" in res.violations[0].spec
            failures.append(sid)
    assert failures


def test_d_bound_names_an_empty_center():
    # mul[0][1] = 1 leaves no element commuting with everything, 0 included
    doc = mutate_entry(row_ring(2), 0, 1, 1)
    forced = FiniteRing(np.asarray(doc["add"]), np.asarray(doc["mul"]), "bad")
    with pytest.raises(ValidationError, match=r"^bad: the center is empty"):
        run_suite("D_bound", [forced], "m")

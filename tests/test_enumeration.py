"""Enumeration, isomorphism, and canonical forms."""

import itertools
import json
import math
import re
import time
from collections import Counter

import numpy as np
import pytest

from ringcent import (
    FiniteRing,
    PartialUniverse,
    RingError,
    RingSpec,
    TooLarge,
    canonical_form,
    cent_set,
    enumerate_rings,
    validate,
)
from ringcent.abelian import classify_additive
from ringcent.enumeration import (
    _constants,
    _min_group_automorphisms,
    _min_group_table,
    _orbit_classes,
    coordinates,
    raw_structures,
    read_catalog,
)
from ringcent.gallery import direct_product, modular_ring, row_ring
from ringcent.groups import abelian_group_types, group_add_table, radix_weights
from ringcent.rings import structure_tables

from oracles import (
    element_fingerprints,
    enumerate_mul_tables,
    isomorphic,
    search_n_centralizer,
)

# isomorphism classes of rings of orders 1..13 (the table in README)
CLASSES = {1: 1, 2: 2, 3: 2, 4: 11, 5: 2, 6: 4, 7: 2, 8: 52, 9: 11, 10: 4,
           11: 2, 12: 22, 13: 2}


def raw_rings(n):
    """Every raw structure of order n as a ring, in search order, unvalidated
    (the search guarantees associativity, bilinearity distributivity)."""
    rings = []
    for factors in abelian_group_types(n):
        rows = raw_structures(factors)
        add, muls = structure_tables(factors, _constants(factors, rows))
        rings.extend(FiniteRing(add, mul, f"o{n}_r{len(rings):04d}") for mul in muls)
    return rings


# --- isomorphism -------------------------------------------------------------


def brute_force_isomorphic(R1, R2):
    """Oracle: try every bijection (not just those fixing 0)."""
    n = R1.order
    for perm in itertools.permutations(range(n)):
        phi = np.array(perm)
        if np.array_equal(phi[R1.add], R2.add[phi[:, None], phi[None, :]]) and \
           np.array_equal(phi[R1.mul], R2.mul[phi[:, None], phi[None, :]]):
            return True
    return False


def test_isomorphic_to_itself_with_witness():
    R = row_ring(3)
    phi = isomorphic(R, R, witness=True)
    assert phi is not None
    assert np.array_equal(phi[R.add], R.add[phi[:, None], phi[None, :]])


def test_row_ring_2_not_isomorphic_to_its_opposite():
    # oracle first: exhaust all 24 bijections of the 4-element set
    R = row_ring(2)
    op = R.opposite()
    assert not brute_force_isomorphic(R, op)
    assert not isomorphic(R, op)


def test_row_ring_2_vs_z4():
    assert not isomorphic(row_ring(2), modular_ring(4))


def test_isomorphic_agrees_with_brute_force_on_order_4(catalog):
    reps = catalog(4).representatives
    for a in reps:
        for b in reps:
            assert isomorphic(a, b) == brute_force_isomorphic(a, b)


def test_relabelings_stay_isomorphic(catalog):
    rng = np.random.default_rng(7)
    for R in catalog(8).representatives[:12]:
        perm = np.concatenate([[0], 1 + rng.permutation(R.order - 1)])
        moved = R.relabel(perm)
        assert isomorphic(R, moved)
        assert len(cent_set(moved)) == len(cent_set(R))


def test_isomorphic_runs_no_centralizer_analysis(catalog, monkeypatch):
    # the oracle is a second route for the code the suites verify, so its
    # verdicts must not rest on that code: any call into it raises here
    def banned(*args):
        raise AssertionError("isomorphic called the centralizer analysis")

    for name in ("cent_set", "center", "commutativity_degree"):
        monkeypatch.setattr(f"ringcent.centralizers.{name}", banned)
    monkeypatch.setattr("oracles.cent_set", banned)
    # two noncommutative classes that element fingerprints cannot tell
    # apart, copied so that no report field is cached on them
    a, b = (FiniteRing(R.add, R.mul, R.label)
            for R in (catalog(8).representatives[i] for i in (3, 6)))
    assert sorted(element_fingerprints(a)) == sorted(element_fingerprints(b))
    assert not isomorphic(a, b)
    perm = np.concatenate([[0], 1 + np.random.default_rng(11).permutation(7)])
    assert isomorphic(a, a.relabel(perm))


def test_additive_basis_spans(small_universe, gallery_rings):
    # coordinates(R) is a group isomorphism from the standard table of the
    # invariant factors onto (R, +), and its basis has those orders
    for R in [*small_universe, *gallery_rings]:
        factors, coords = coordinates(R)
        assert factors == classify_additive(R).invariant_factors, R.label
        assert np.array_equal(np.sort(coords), np.arange(R.order)), R.label
        assert np.array_equal(R.add[coords[:, None], coords[None, :]],
                              coords[group_add_table(factors)]), R.label
        basis = coords[list(radix_weights(factors))]
        orders = R.additive_orders()
        assert tuple(int(orders[b]) for b in basis) == factors, R.label


def test_fingerprints_are_isomorphism_invariant(catalog):
    for R in catalog(8).representatives[:10]:
        perm = np.concatenate([[0], 1 + np.random.default_rng(3).permutation(R.order - 1)])
        moved = R.relabel(perm)
        assert sorted(element_fingerprints(moved)) == sorted(element_fingerprints(R))


# --- canonical form -----------------------------------------------------------


def test_canonical_form_idempotent(catalog):
    for R in catalog(4).representatives:
        c1 = canonical_form(R)
        c2 = canonical_form(c1)
        assert np.array_equal(c1.add, c2.add)
        assert np.array_equal(c1.mul, c2.mul)


def test_canonical_form_zero_ring_order_1():
    one = validate({"order": 1, "add": [[0]], "mul": [[0]]})
    c = canonical_form(one)
    assert np.array_equal(c.add, one.add) and np.array_equal(c.mul, one.mul)


def test_canonical_form_is_minimal_by_brute_force():
    # oracle: try all relabelings fixing 0 on small rings
    for R in [modular_ring(4), row_ring(2)]:
        flat_best = None
        for perm in itertools.permutations(range(1, R.order)):
            pi = np.array((0,) + perm)
            moved = R.relabel(pi)
            key = tuple(moved.add.ravel()) + tuple(moved.mul.ravel())
            if flat_best is None or key < flat_best:
                flat_best = key
        c = canonical_form(R)
        assert tuple(c.add.ravel()) + tuple(c.mul.ravel()) == flat_best


def test_order_16_canonical_form_survives_relabeling_and_splits_a_mutant():
    # additive group Z_2^4, with 20160 automorphisms
    R = direct_product(row_ring(2), row_ring(2))
    perm = np.concatenate([[0], 1 + np.random.default_rng(16).permutation(15)])
    moved = R.relabel(perm)
    mutant_mul = moved.mul.copy()
    mutant_mul[1, 1] = (mutant_mul[1, 1] + 1) % 16
    mutant = FiniteRing(moved.add, mutant_mul, "mutant")
    form = canonical_form(R)
    for S, same in ((moved, True), (mutant, False)):
        other = canonical_form(S)
        assert np.array_equal(other.add, form.add)
        assert np.array_equal(other.mul, form.mul) == same
        assert isomorphic(R, S) == same


def test_canonical_form_equality_iff_isomorphic(catalog):
    reps = catalog(4).representatives
    forms = [canonical_form(R) for R in reps]
    for i, a in enumerate(reps):
        for j, b in enumerate(reps):
            same = np.array_equal(forms[i].add, forms[j].add) and \
                np.array_equal(forms[i].mul, forms[j].mul)
            assert same == isomorphic(a, b)


def test_min_group_automorphisms_are_every_table_automorphism():
    # oracle: every permutation of the elements, kept if it preserves the
    # minimal group table; each such permutation fixes 0
    counts = {}
    for n in range(1, 9):
        for factors in abelian_group_types(n):
            T = _min_group_table(factors)[0]
            perms = np.array(list(itertools.permutations(range(n))))
            keep = (perms[:, T] == T[perms[:, :, None], perms[:, None, :]])
            found = perms[keep.reshape(len(perms), -1).all(axis=1)]
            assert (found[:, 0] == 0).all()
            rows = _min_group_automorphisms(factors)
            assert len({tuple(r) for r in rows.tolist()}) == len(rows)
            assert sorted(map(tuple, rows.tolist())) == \
                sorted(map(tuple, found.tolist()))
            counts[factors] = len(rows)
    assert counts[(2, 2, 2)] == 168
    assert counts[(2, 4)] == 8
    assert counts[(8,)] == 4


def test_burnside_counts_every_catalog_class(catalog):
    # second route for every class count: the classes on one group G are the
    # Aut(G)-orbits of its raw tables, and Burnside's lemma counts orbits as
    # the mean number of tables an automorphism fixes
    counts = {}
    for n in range(2, 14):
        by_type = Counter(classify_additive(R).invariant_factors
                          for R in catalog(n).representatives)
        for factors in abelian_group_types(n):
            rows = raw_structures(factors)
            _, muls = structure_tables(factors, _constants(factors, rows))
            _, sigma = _min_group_table(factors)
            inv0 = np.empty_like(sigma)
            inv0[sigma] = np.arange(n)
            auts = _min_group_automorphisms(factors)
            fixed = 0
            for aut in auts:
                s = inv0[aut[sigma]]  # the automorphism in standard coordinates
                fixed += (s[muls] == muls[:, s[:, None], s[None, :]]
                          ).all(axis=(1, 2)).sum()
            assert fixed % len(auts) == 0, factors
            counts[factors] = fixed // len(auts)
            assert counts[factors] == by_type[factors], factors
    assert counts[(2, 2, 2)] == 28
    assert counts[(2, 4)] == 20
    assert counts[(2, 2)] == 8
    assert counts[(2, 6)] == 16


def test_stacked_expansion_equals_one_structure_at_a_time():
    for factors in [(2, 2, 2), (2, 6), (9,)]:
        rows = raw_structures(factors)
        add, muls = structure_tables(factors, _constants(factors, rows))
        assert muls.shape == (len(rows), add.shape[0], add.shape[0])
        for row, mul in zip(rows[::7], muls[::7]):
            one = structure_tables(factors, _constants(factors, row))
            assert np.array_equal(one[0], add)
            assert np.array_equal(one[1], mul)


def test_raw_structures_canonicalize_onto_catalog_by_their_own_basis(catalog):
    # second route for the dedup outside order 8: canonical_form finds an
    # additive basis of each expanded raw ring, where enumerate_rings
    # minimizes in the coordinates the ring was built in
    for n in [n for n in range(1, 14) if n != 8]:
        reps = {R.add.tobytes() + R.mul.tobytes()
                for R in catalog(n).representatives}
        forms = set()
        for ring in raw_rings(n):
            c = canonical_form(ring)
            form = c.add.tobytes() + c.mul.tobytes()
            assert form in reps, (n, ring.label)
            forms.add(form)
        assert forms == reps, n


def test_canonical_form_order_cap():
    with pytest.raises(TooLarge):
        canonical_form(modular_ring(32))


# --- enumeration --------------------------------------------------------------


def test_order_2_catalog_against_hand_oracle(catalog):
    # the zero ring on Z_2 and the field Z_2, checked by hand
    zero2 = validate({"order": 2, "add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 0]]})
    field2 = validate({"order": 2, "add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 1]]})
    cat = catalog(2)
    assert cat.class_count == 2
    matched = {0: False, 1: False}
    for rep in cat.representatives:
        if isomorphic(rep, zero2):
            matched[0] = True
        if isomorphic(rep, field2):
            matched[1] = True
    assert all(matched.values())


def test_order_1_catalog(catalog):
    assert catalog(1).class_count == 1


def test_order_4_catalog_11_classes_2_noncommutative(catalog):
    cat = catalog(4)
    assert cat.class_count == 11
    assert sum(1 for R in cat if not R.is_commutative) == 2
    assert any(isomorphic(R, row_ring(2)) for R in cat)
    assert any(isomorphic(R, row_ring(2).opposite()) for R in cat)


def test_order_4_cross_validated_by_full_table_slow_path(catalog):
    # independent route: enumerate raw multiplication tables per add table,
    # then count classes via canonical forms
    cat = catalog(4)
    total_raw = 0
    forms = set()
    for factors in abelian_group_types(4):
        add = group_add_table(factors)
        tables = enumerate_mul_tables(add)
        # raw counts per additive type must agree with the generator route
        assert len(tables) == cat.per_type_raw[factors]
        total_raw += len(tables)
        for mul in tables:
            ring = FiniteRing(add, mul, "slow")
            c = canonical_form(ring)
            forms.add(tuple(c.add.ravel()) + tuple(c.mul.ravel()))
    assert total_raw == cat.raw_count
    assert len(forms) == 11


def test_order_2_slow_path():
    add = group_add_table((2,))
    tables = enumerate_mul_tables(add)
    assert len(tables) == 2  # zero product or field product


def test_slow_path_tables_all_validate():
    add = group_add_table((2, 2))
    for mul in enumerate_mul_tables(add):
        validate({"order": 4, "add": add.tolist(), "mul": mul.tolist()})


def test_raw_count_invariant_under_generator_order():
    # the raw space is the same however the generators are listed
    assert raw_structures((2, 4)).shape[0] == raw_structures((4, 2)).shape[0]
    assert raw_structures((2, 2, 2)).shape[0] == raw_structures((2, 2, 2)).shape[0]
    a = raw_structures((2, 6)).shape[0]
    b = raw_structures((6, 2)).shape[0]
    assert a == b


def test_raw_structures_of_the_trivial_group():
    # Z_1 has no generators: one empty assignment, the zero ring
    from ringcent import kernels
    from ringcent.enumeration import _search_inputs

    assert raw_structures(()).shape == (1, 0)
    rows, status, _ = kernels.structure_search((), _search_inputs(()))
    assert rows.shape == (1, 0) and status == 0
    assert enumerate_rings(1).raw_count == 1


def test_structure_to_ring_validates():
    arr = raw_structures((3,))
    rings = [validate(RingSpec.structure([3], _constants((3,), row).tolist()))
             for row in arr]
    assert len(rings) == 3
    assert sum(1 for r in rings if r.is_commutative) == 3


def test_invariants_equal_on_isomorphic_pairs(catalog):
    from ringcent import classify_additive, commutativity_degree, quotient_type
    from ringcent.centralizers import center

    rng = np.random.default_rng(11)
    for R in catalog(9).representatives:
        perm = np.concatenate([[0], 1 + rng.permutation(R.order - 1)])
        S = R.relabel(perm)
        assert isomorphic(R, S)
        assert commutativity_degree(R) == commutativity_degree(S)
        assert classify_additive(R) == classify_additive(S)
        assert (quotient_type(R, center(R)) == quotient_type(S, center(S)))


@pytest.mark.parametrize("n", range(1, 14))
def test_catalog_representatives_pairwise_non_isomorphic(catalog, n):
    # the oracle for the orbit dedup on every group type of orders 1..13,
    # the mixed types of orders 9 and 12 among them
    reps = catalog(n).representatives
    pairs = list(itertools.combinations(reps, 2))
    assert len(pairs) == math.comb(CLASSES[n], 2)  # 1326 at order 8
    for a, b in pairs:
        assert not isomorphic(a, b), (a.label, b.label)


def test_every_raw_order_8_structure_is_isomorphic_to_its_class(catalog):
    # second route for the canonical-form dedup: the representative whose
    # tables equal a raw structure's canonical form must be isomorphic to it
    by_form = {R.add.tobytes() + R.mul.tobytes(): R
               for R in catalog(8).representatives}
    raw = raw_rings(8)
    assert len(raw) == 1756
    for ring in raw:
        c = canonical_form(ring)
        rep = by_form[c.add.tobytes() + c.mul.tobytes()]
        assert isomorphic(rep, ring), (ring.label, rep.label)


def test_catalog_covers_every_raw_structure(catalog):
    # completeness at order 6: each raw structure hits exactly one class
    reps = catalog(6).representatives
    for ring in raw_rings(6):
        hits = [i for i, rep in enumerate(reps) if isomorphic(rep, ring)]
        assert len(hits) == 1


def test_search_order_cap(capsys, monkeypatch):
    # the verb refuses the order before it searches anything
    from ringcent import enumeration
    from ringcent.cli import main

    monkeypatch.setattr(enumeration, "raw_structures", None)  # nothing to search
    start = time.monotonic()
    assert main(["search", "--cent", "4", "--max-order", "17"]) == 2
    assert time.monotonic() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: TooLarge: the catalog is capped at order 16\n"


def test_enumeration_rejects_large_orders():
    with pytest.raises(TooLarge):
        enumerate_rings(17)


def test_tiny_budget_aborts_with_partial_universe(monkeypatch, capsys):
    # the CLI reads the same deadline as the API
    from ringcent.cli import main

    monkeypatch.setenv("RINGCENT_TIME_BUDGET_SECS", "0.000001")
    assert main(["enumerate", "--order", "16"]) == 2
    assert capsys.readouterr().err.startswith("error: PartialUniverse: time budget")


def test_budget_is_a_wall_clock_deadline(tmp_path, monkeypatch):
    monkeypatch.setenv("RINGCENT_TIME_BUDGET_SECS", "0.5")
    start = time.monotonic()
    with pytest.raises(PartialUniverse) as err:
        enumerate_rings(16, out_dir=str(tmp_path))
    assert time.monotonic() - start < 1.5
    m = re.fullmatch(
        r"time budget ran out on group \[([\d, ]+)\], after (\d+) search "
        r"nodes; (\d+) of (\d+) group types finished, "
        r"([\d.]+) s ran against a 0.5 s budget",
        str(err.value),
    )
    assert m, str(err.value)
    group, nodes, done, total, secs = m.groups()
    # the types with fewer generators are searched first: Z_2^4 is stopped
    # after the other four finished
    assert int(total) == len(abelian_group_types(16)) == 5
    assert (int(done), group) == (4, "2, 2, 2, 2")
    assert int(nodes) > 0
    assert 0.5 <= float(secs) < 1.5
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert not manifest["complete"]
    assert len(manifest["types"]) == int(done)
    assert [2, 2, 2, 2] not in [e["factors"] for e in manifest["types"]]


def test_budget_without_a_journal_names_the_group_types_finished(monkeypatch):
    monkeypatch.setenv("RINGCENT_TIME_BUDGET_SECS", "0.5")
    start = time.monotonic()
    with pytest.raises(PartialUniverse) as err:
        enumerate_rings(16)
    assert time.monotonic() - start < 1.5
    m = re.fullmatch(
        r"time budget ran out on group \[([\d, ]+)\], after (\d+) search "
        r"nodes; (\d+) of (\d+) group types finished, "
        r"([\d.]+) s ran against a 0.5 s budget",
        str(err.value),
    )
    assert m, str(err.value)
    group, nodes, done, total, secs = m.groups()
    # the types with fewer generators are searched first: Z_2^4 is stopped
    # after the other four finished
    assert int(total) == len(abelian_group_types(16)) == 5
    assert (int(done), group) == (4, "2, 2, 2, 2")
    assert int(nodes) > 0
    assert 0.5 <= float(secs) < 1.5


def test_search_n_centralizer(catalog):
    from ringcent.gallery import four_element_matrix_ring

    assert search_n_centralizer(2, 8) == []
    assert search_n_centralizer(3, 8) == []
    ones = search_n_centralizer(1, 4)
    assert ones and all(R.is_commutative for R in ones)
    fours = search_n_centralizer(4, 4)
    assert fours and any(isomorphic(R, four_element_matrix_ring())
                         for R in fours)


def test_env_time_budget_bounds_enumeration(monkeypatch):
    monkeypatch.setenv("RINGCENT_TIME_BUDGET_SECS", "0.000001")
    from ringcent.enumeration import enumerate_rings as run

    with pytest.raises(PartialUniverse):
        run(16)


def test_catalog_write_read_resume(tmp_path, catalog):
    out = tmp_path / "cat6"
    cat = enumerate_rings(6, out_dir=str(out))
    assert (out / "manifest.json").exists()
    loaded = read_catalog(out)
    assert loaded.class_count == cat.class_count == 4
    assert loaded.raw_count == cat.raw_count
    for a, b in zip(cat.representatives, loaded.representatives):
        assert np.array_equal(a.add, b.add)
        assert np.array_equal(a.mul, b.mul)
    # resume must reuse the recorded group types and reach the same catalog
    again = enumerate_rings(6, out_dir=str(out), resume=True)
    assert again.class_count == cat.class_count
    with open(out / "manifest.json") as fh:
        doc = json.load(fh)
    assert doc["complete"] is True
    assert doc["classes"] == 4


def _largest_part(out):
    """Path of the part with the most rows in the catalog at out."""
    doc = json.loads((out / "manifest.json").read_text())
    entry = max(doc["types"], key=lambda e: e["raw_count"])
    assert entry["raw_count"] > 1
    return out / entry["file"]


@pytest.mark.parametrize("damage", ["shortened", "truncated", "manifest",
                                    "records", "record", "99", "-1", "1.5",
                                    "true"])
def test_resume_searches_damaged_parts_again(tmp_path, damage):
    out = tmp_path / "cat9"
    fresh = enumerate_rings(9, out_dir=str(out))
    part = _largest_part(out)
    whole = part.read_text()
    if damage == "shortened":  # valid JSON, but fewer rows than the manifest
        doc = json.loads(whole)
        doc["assignments"] = doc["assignments"][:1]
        part.write_text(json.dumps(doc))
    elif damage == "truncated":  # cut mid-file, as a crash mid-write leaves it
        part.write_text(whole[: len(whole) // 2])
    elif damage in ("99", "-1", "1.5", "true"):  # no element of Z_9 or Z_3^2
        doc = json.loads(whole)
        doc["assignments"][0][0] = json.loads(damage)
        part.write_text(json.dumps(doc))
    elif damage == "manifest":  # unreadable: every type is searched again
        manifest = out / "manifest.json"
        manifest.write_text(manifest.read_text()[:100])
    else:  # records that are not a list of objects, or one bad record
        manifest = out / "manifest.json"
        doc = json.loads(manifest.read_text())
        if damage == "records":
            doc["types"] = {"t3x3": 1}
        else:
            doc["types"][0]["factors"] = 9
        manifest.write_text(json.dumps(doc))
    again = enumerate_rings(9, out_dir=str(out), resume=True)
    assert again.raw_count == fresh.raw_count == 130
    assert again.class_count == fresh.class_count == 11
    assert part.read_text() == whole  # the type was searched again
    for a, b in zip(fresh.representatives, again.representatives):
        assert np.array_equal(a.mul, b.mul)


def test_an_interrupted_run_resumes_from_its_journal(tmp_path, monkeypatch):
    # the 3rd group type's search is interrupted, as Ctrl-C or a kill would;
    # the 2 finished types must be on record for resume
    from ringcent import enumeration

    out = tmp_path / "cat8"
    search = enumeration.raw_structures
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    def interrupted(*args, **kwargs):
        if len(calls) == 2:
            raise KeyboardInterrupt
        return counted(*args, **kwargs)

    monkeypatch.setattr(enumeration, "raw_structures", interrupted)
    with pytest.raises(KeyboardInterrupt):
        enumerate_rings(8, out_dir=str(out))
    manifest = json.loads((out / "manifest.json").read_text())
    assert not manifest["complete"] and len(manifest["types"]) == 2
    calls.clear()
    monkeypatch.setattr(enumeration, "raw_structures", counted)
    again = enumerate_rings(8, out_dir=str(out), resume=True)
    assert len(calls) == 1 == 3 - 2
    monkeypatch.setattr(enumeration, "raw_structures", search)
    fresh = enumerate_rings(8)
    assert again.class_count == fresh.class_count == 52
    for a, b in zip(fresh.representatives, again.representatives, strict=True):
        assert np.array_equal(a.add, b.add) and np.array_equal(a.mul, b.mul)


def test_a_resume_interrupted_while_reusing_keeps_the_later_records(
        tmp_path, monkeypatch):
    # the journal rewritten after the first reused group type must still
    # record the finished type that run had not reached
    from ringcent import enumeration

    out = tmp_path / "cat9"
    enumerate_rings(9, out_dir=str(out))
    load = enumeration._load_part
    loads = []

    def interrupted(*args):
        loads.append(args)
        if len(loads) == 2:
            raise KeyboardInterrupt
        return load(*args)

    monkeypatch.setattr(enumeration, "_load_part", interrupted)
    with pytest.raises(KeyboardInterrupt):
        enumerate_rings(9, out_dir=str(out), resume=True)
    manifest = json.loads((out / "manifest.json").read_text())
    assert not manifest["complete"] and len(manifest["types"]) == 2
    monkeypatch.setattr(enumeration, "_load_part", load)
    monkeypatch.setattr(enumeration, "raw_structures", None)  # nothing to search
    assert enumerate_rings(9, out_dir=str(out), resume=True).class_count == 11


@pytest.mark.parametrize("row, message", [
    (1, "is not among the raw structures"),
    # row 0, the zero ring, is a whole orbit: without it the orbits cover
    # too few rows
    (0, "orbits cover 120"),
], ids=["largest-part", "zero-ring-orbit"])
def test_resume_refuses_rows_that_are_not_whole_orbits(tmp_path, row, message):
    out = tmp_path / "cat9"
    enumerate_rings(9, out_dir=str(out))
    part = _largest_part(out)
    assert part.name == "t3x3.json"
    doc = json.loads(part.read_text())
    assert doc["assignments"][row] != doc["assignments"][row + 1]
    # the row count still matches
    doc["assignments"][row] = doc["assignments"][row + 1]
    part.write_text(json.dumps(doc))
    with pytest.raises(RingError, match=re.escape(f"group {doc['factors']}")) \
            as exc:
        enumerate_rings(9, out_dir=str(out), resume=True)
    assert message in str(exc.value)


def test_orbit_stabilizer_catches_an_automorphism_listed_twice(monkeypatch):
    # with one automorphism of Z_2 x Z_2 listed twice the orbits still
    # partition the rows, into the right 11 classes; only the count of each
    # orbit's rows against |Aut(G)| sees it
    from ringcent import enumeration

    auts = enumeration._min_group_automorphisms
    monkeypatch.setattr(enumeration, "_min_group_automorphisms",
                        lambda factors: np.concatenate((auts(factors),
                                                        auts(factors)[:1])))
    with pytest.raises(RingError, match=re.escape("group [2, 2]: ")
                       + ".* breaks orbit-stabilizer"):
        enumerate_rings(4)


def test_order_one_written_with_a_journal_is_reused_on_resume(tmp_path,
                                                              monkeypatch):
    # the zero ring's part holds one row of no cells, [[]]
    from ringcent import enumeration

    enumerate_rings(1, out_dir=str(tmp_path))
    part = json.loads((tmp_path / "parts" / "t1.json").read_text())
    assert part == {"factors": [], "assignments": [[]]}
    monkeypatch.setattr(enumeration, "raw_structures", None)  # nothing to search
    again = enumerate_rings(1, out_dir=str(tmp_path), resume=True)
    assert (again.class_count, again.raw_count) == (1, 1)


def test_resume_without_out_dir_is_an_error():
    with pytest.raises(RingError):
        enumerate_rings(4, resume=True)


def test_catalog_counts_are_derived(tmp_path):
    # Z_3 carries 3 raw structures in 2 classes: the zero ring and the field
    cat = enumerate_rings(3, out_dir=str(tmp_path))
    assert cat.per_type_raw == {(3,): 3}
    assert cat.class_count == len(cat.representatives) == 2
    assert cat.raw_count == 3
    loaded = read_catalog(tmp_path)
    assert (loaded.class_count, loaded.raw_count) == (2, 3)
    manifest = tmp_path / "manifest.json"
    doc = json.loads(manifest.read_text())
    assert (doc["classes"], doc["raw_total"]) == (2, 3)
    doc["classes"] = 3  # disagrees with the ring list
    manifest.write_text(json.dumps(doc))
    with pytest.raises(RingError, match="does not list the files of its 3 classes"):
        read_catalog(tmp_path)


@pytest.mark.parametrize("classes", [10**12, -1])
def test_read_catalog_refuses_a_class_count_at_once(tmp_path, classes):
    # the list's length is checked before any file name is built
    enumerate_rings(3, out_dir=str(tmp_path))
    manifest = tmp_path / "manifest.json"
    doc = json.loads(manifest.read_text())
    doc["classes"], doc["rings"] = classes, []
    manifest.write_text(json.dumps(doc))
    start = time.monotonic()
    with pytest.raises(RingError, match=f"of its {classes} classes"):
        read_catalog(tmp_path)
    assert time.monotonic() - start < 1.0


def test_read_catalog_checks_the_raw_total(tmp_path):
    enumerate_rings(3, out_dir=str(tmp_path))
    manifest = tmp_path / "manifest.json"
    doc = json.loads(manifest.read_text())
    doc["raw_total"] = 99  # per_type_raw still sums to 3
    manifest.write_text(json.dumps(doc))
    with pytest.raises(RingError, match="counts 99 raw rings but its "
                                        "per_type_raw sums to 3"):
        read_catalog(tmp_path)


def test_orbit_classes_do_not_pin_their_transport_stacks():
    classes = _orbit_classes((2, 2, 2), raw_structures((2, 2, 2)))
    assert len(classes) == 28
    for table in classes:
        assert table.base is None or table.base.nbytes <= table.nbytes


# --- every class is proved on its generator products -------------------------


def test_validate_accepts_every_catalog_class_unchanged(catalog):
    # the oracle for the generator-product proof of enumerate_rings
    for n in range(1, 14):
        for ring in catalog(n):
            again = validate(ring)
            assert ring.proved and again.proved
            assert np.array_equal(again.add, ring.add)
            assert np.array_equal(again.mul, ring.mul)


def _forbid_law_kernels(monkeypatch):
    from ringcent import kernels

    def law_check(*tables):
        raise AssertionError("a law kernel ran on a catalog class")

    for name in ("add_table_check", "mul_assoc_check", "distrib_check"):
        monkeypatch.setattr(kernels, name, law_check)


def test_searched_classes_run_no_law_kernel(monkeypatch):
    _forbid_law_kernels(monkeypatch)
    cat = enumerate_rings(8)
    assert cat.class_count == 52
    assert all(ring.proved for ring in cat)


def test_resumed_classes_run_no_law_kernel(tmp_path, monkeypatch):
    # the rows of part files are proved on their generator products too
    from ringcent import enumeration

    enumerate_rings(8, out_dir=str(tmp_path))
    _forbid_law_kernels(monkeypatch)
    monkeypatch.setattr(enumeration, "raw_structures", None)  # every type resumes
    cat = enumerate_rings(8, out_dir=str(tmp_path), resume=True)
    assert cat.class_count == 52
    assert all(ring.proved for ring in cat)

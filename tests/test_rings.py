"""Ring-core: validation, element sets, and additive-subgroup algebra."""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringcent import (
    BadIdentityConvention,
    FiniteRing,
    ElementSet,
    IndexOutOfRange,
    NoAdditiveInverse,
    NonAbelianAddition,
    NotAssociative,
    NotDistributive,
    RingSpec,
    TooLarge,
    ValidationError,
    is_subring,
    validate,
)
from ringcent import groups, rings
from ringcent.enumeration import _constants, raw_structures
from ringcent.gallery import direct_product, modular_ring, row_ring
from ringcent.rings import (
    additive_subgroups,
    is_additive_subgroup,
    load_ring,
    structure_tables,
    subrings,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def test_zero_ring_of_order_one():
    ring = validate({"order": 1, "add": [[0]], "mul": [[0]]})
    assert ring.order == 1
    assert ring.is_commutative


def test_modular_ring_validates():
    ring = validate(
        {"order": 4,
         "add": [[(i + j) % 4 for j in range(4)] for i in range(4)],
         "mul": [[(i * j) % 4 for j in range(4)] for i in range(4)]}
    )
    assert ring.is_commutative
    assert ring.unity() == 1


def test_spec_is_saved_compact_and_indented_specs_still_load(tmp_path):
    R = modular_ring(256)
    compact = tmp_path / "compact.json"
    R.spec().save(compact)
    assert compact.read_text().count("\n") == 1
    indented = tmp_path / "indented.json"
    indented.write_text(
        json.dumps(R.spec().to_json(), indent=1, sort_keys=True) + "\n")
    assert json.loads(compact.read_text()) == json.loads(indented.read_text())
    for path in (compact, indented):
        loaded = load_ring(path)
        assert np.array_equal(loaded.add, R.add)
        assert np.array_equal(loaded.mul, R.mul)
        assert loaded.label == R.label


def test_four_element_matrix_ring_spec_is_noncommutative():
    # the ring of equal-row matrices [a b; a b] over Z_2, in listing order
    from ringcent.gallery import four_element_matrix_ring

    ring = four_element_matrix_ring()
    assert ring.order == 4
    assert not ring.is_commutative


def test_validation_error_bad_identity():
    with pytest.raises(BadIdentityConvention):
        validate({"order": 2, "add": [[1, 0], [0, 1]], "mul": [[0, 0], [0, 0]]})


def test_validation_error_nonabelian_names_triple():
    add = modular_ring(5).add.tolist()
    add[1][3] = 0
    with pytest.raises(NonAbelianAddition) as err:
        validate({"order": 5, "add": add, "mul": modular_ring(5).mul.tolist()})
    assert "1" in str(err.value) and "3" in str(err.value)


def test_validation_error_no_inverse():
    # symmetric, associative-looking, but row 1 never reaches 0
    add = [[0, 1, 2], [1, 1, 1], [2, 1, 2]]
    with pytest.raises((NoAdditiveInverse, NonAbelianAddition)):
        validate({"order": 3, "add": add, "mul": [[0] * 3 for _ in range(3)]})


def test_validation_error_not_associative():
    ring = modular_ring(6)
    mul = ring.mul.tolist()
    mul[5][5] = 3  # 25 -> 3 instead of 1
    with pytest.raises((NotAssociative, NotDistributive)):
        validate({"order": 6, "add": ring.add.tolist(), "mul": mul})


def test_validation_error_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        validate({"order": 2, "add": [[0, 1], [1, 5]], "mul": [[0, 0], [0, 0]]})


def test_validation_rejects_mismatched_declared_order():
    from ringcent import ValidationError

    with pytest.raises(ValidationError):
        validate({"order": 3, "add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 0]]})


@pytest.mark.parametrize("doc,what", [
    ({"add": [[18446744073709551615]], "mul": [[0]]}, "add"),  # not -1
    ({"add": [[0]], "mul": [[2 ** 63]]}, "mul"),
    ({"add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, True]]}, "mul"),
    ({"add": [[0, True], [1, 0]], "mul": [[0, 0], [0, 0]]}, "add"),
    ({"group": [2, True], "mul_constants": [[[0]]]}, "group"),
    ({"group": [2, 2], "mul_constants": [[[1, 0], [0, True]],
                                         [[0, 0], [0, 0]]]}, "mul_constants"),
    ({"group": [2], "mul_constants": [[[2 ** 64 - 1]]]}, "mul_constants"),
], ids=["2**64-1", "2**63", "true in mul", "true in add", "true in group",
        "true in mul_constants", "2**64-1 in mul_constants"])
def test_validation_rejects_booleans_and_integers_past_int64(doc, what):
    from ringcent import ValidationError

    with pytest.raises(ValidationError) as exc:
        validate(doc)
    assert str(exc.value) == f"{what} is not a rectangular array of integers"


@pytest.mark.parametrize("order, n, message", [
    ("2", 2, "declared order '2' is a str, not an integer"),
    (2.0, 2, "declared order 2.0 is a float, not an integer"),
    (True, 1, "declared order True is a bool, not an integer"),
    (3, 2, "declared order 3 != table size 2"),
], ids=["string", "float", "true", "mismatch"])
def test_declared_order_must_be_the_integer_table_size(order, n, message):
    from ringcent import ValidationError

    tables = {"add": (np.add.outer(range(n), range(n)) % n).tolist(),
              "mul": [[0] * n for _ in range(n)]}
    validate({"order": n, **tables})
    with pytest.raises(ValidationError) as exc:
        validate({"order": order, **tables})
    assert str(exc.value) == message


def test_validation_order_cap():
    with pytest.raises(TooLarge):
        n = 257
        validate({"order": n,
                  "add": [[(i + j) % n for j in range(n)] for i in range(n)],
                  "mul": [[0] * n for _ in range(n)]})


def test_structure_constant_spec_expands_to_z4():
    # one generator of order 4 with g*g = g: this is Z_4 with usual product
    spec = {"group": [4], "mul_constants": [[[1]]], "label": "cyclic"}
    ring = validate(spec)
    assert ring.order == 4
    assert np.array_equal(ring.mul, modular_ring(4).mul)


def _kernel_outcome(add, mul, label=None):
    """validate on explicit tables: (ring, None) or (None, (class, message))."""
    try:
        return validate(FiniteRing(add, mul, label)), None
    except ValidationError as exc:
        return None, (type(exc), str(exc))


def _spec_outcome(factors, constants, label=None):
    try:
        return validate(RingSpec.structure(factors, constants, label)), None
    except ValidationError as exc:
        return None, (type(exc), str(exc))


def test_structure_constant_incompatible_orders_fail_distributivity():
    # Z_2 x Z_4 with g1*g1 = g2 (order 4 > ord(g1) = 2): not biadditive
    spec = {"group": [2, 4],
            "mul_constants": [[[0, 1], [0, 0]], [[0, 0], [0, 0]]]}
    with pytest.raises(NotDistributive) as info:
        validate(spec)
    # the same message as the kernels give on the expanded tables
    tables = structure_tables((2, 4), spec["mul_constants"])
    assert _kernel_outcome(*tables)[1] == (NotDistributive, str(info.value))


CONSTANT_GROUPS = [(4,), (2, 2), (2, 4), (3, 3), (2, 2, 2), (2, 6)]


@st.composite
def generator_products(draw):
    """Constants of a searched ring of one of CONSTANT_GROUPS, with up to
    three products overwritten by any vector of coefficients in [-d, 2d):
    rings, ill-defined products outside the gcd torsion and non-associative
    ones all occur."""
    factors = draw(st.sampled_from(CONSTANT_GROUPS))
    rows = raw_structures(factors)
    C = _constants(factors, rows[draw(st.integers(0, len(rows) - 1))]).copy()
    k = len(factors)
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        C[i, j] = [draw(st.integers(-d, 2 * d - 1)) for d in factors]
    return factors, C


@settings(max_examples=300, deadline=None)
@given(generator_products())
def test_the_constants_prove_a_ring_exactly_when_the_kernels_do(case):
    factors, C = case
    ring, error = _kernel_outcome(*structure_tables(factors, C))
    assert rings._constants_make_ring(factors, C) == (error is None)
    # and validate on the spec gives the kernels' ring or their error
    spec_ring, spec_error = _spec_outcome(factors, C)
    assert spec_error == error
    if ring is not None:
        assert spec_ring.proved
        assert np.array_equal(spec_ring.add, ring.add)
        assert np.array_equal(spec_ring.mul, ring.mul)


def test_the_constants_prove_a_ring_exactly_when_the_kernels_do_on_z2_z4():
    # every one of the 8**4 assignments of generator products on Z_2 x Z_4,
    # where the gcd(2, 4) torsion differs from the 4-torsion
    factors = (2, 4)
    cv = groups.coeff_vectors(factors)
    proved = []
    for cells in itertools.product(range(8), repeat=4):
        C = cv[list(cells)].reshape(2, 2, 2)
        _, error = _kernel_outcome(*structure_tables(factors, C))
        assert rings._constants_make_ring(factors, C) == (error is None), cells
        proved.append(error is None)
    assert sum(proved) == raw_structures(factors).shape[0]
    # and all of them at once, as one (4096, 2, 2, 2) stack
    stack = cv[list(itertools.product(range(8), repeat=4))].reshape(-1, 2, 2, 2)
    assert rings._constants_make_ring(factors, stack).tolist() == proved


def test_a_non_associative_structure_spec_raises_as_its_tables_do():
    # Z_2^2 with g1 g1 = g2 and g2 g1 = g1: (g1 g1) g1 = g1, g1 (g1 g1) = 0
    factors, constants = (2, 2), [[[0, 1], [0, 0]], [[1, 0], [0, 0]]]
    _, error = _kernel_outcome(*structure_tables(factors, constants), "spec")
    assert error is not None and error[0] is NotAssociative
    assert _spec_outcome(factors, constants, "spec") == (None, error)


def test_round_trip_explicit_spec():
    ring = row_ring(3)
    doc = ring.spec().to_json()
    again = validate(RingSpec.from_json(doc))
    assert np.array_equal(again.add, ring.add)
    assert np.array_equal(again.mul, ring.mul)
    assert again.label == ring.label


NO_GROUP_WALK = """
import numpy as np
from ringcent import FiniteRing, ValidationError, analyze, classify_additive
# 1 + 1 = 1 and 2 + 2 = 2: no multiple of 1 or 2 is 0
R = FiniteRing(np.array([[0, 1, 2], [1, 1, 1], [2, 1, 2]]), np.zeros((3, 3)))
for walk in (R.additive_orders, lambda: classify_additive(R),
             lambda: analyze(R).additive_type):
    try:
        walk()
    except ValidationError as exc:
        print(exc)
"""


def test_additive_orders_stop_on_a_table_whose_multiples_never_reach_0():
    # in a subprocess, so that a walk that never ends fails on the timeout
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", NO_GROUP_WALK],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    message = "element 1 has no additive order: its multiples never reach 0"
    assert proc.stdout.splitlines() == [message] * 3


def test_element_set_canonical():
    s = ElementSet.of([3, 1, 1, 2], 5)
    assert s.members == (1, 2, 3)
    with pytest.raises(IndexOutOfRange):
        ElementSet.of([7], 5)


# --- sums and indices of subgroups --------------------------------------------


def test_set_sum_centralizers_cover_row_ring_z2():
    # oracle: enumerate all pairwise sums by brute force
    from ringcent.centralizers import centralizer

    R = row_ring(2)
    A = centralizer(R, 2)  # [1 0; 0 0]
    B = centralizer(R, 1)  # [0 1; 0 0]
    brute = sorted({int(R.add[a, b]) for a in A.members for b in B.members})
    assert brute == list(R.whole_set().members)
    inter = set(A.members) & set(B.members)
    assert len(A) * len(B) // len(inter) == R.order


def test_set_sum_rejects_foreign_sets():
    # a set over another order is refused, not read as a set of this ring
    with pytest.raises(IndexOutOfRange):
        is_subring(modular_ring(4), ElementSet.of([0], 5))


def test_index_of_trivial_center_in_row_ring_3():
    from ringcent.centralizers import center

    R = row_ring(3)
    z = center(R)
    assert z.members == (0,)
    assert R.order // len(z) == 9  # |R : Z(R)| = p^2 at the degree bound


# --- is_subring ---------------------------------------------------------------


def test_is_subring_trivial_and_whole():
    R = row_ring(5)
    assert is_subring(R, ElementSet.of([0], R.order))
    assert is_subring(R, R.whole_set())


def test_is_subring_centralizer_by_brute_force():
    # S = {0, [1 1; 0 0]} inside the row ring over Z_2
    R = row_ring(2)
    S = ElementSet.of([0, 3], 4)
    closed = all(
        int(R.add[a, b]) in S.members and int(R.mul[a, b]) in S.members
        for a in S.members for b in S.members
    )
    assert closed
    assert is_subring(R, S)
    assert not is_subring(R, ElementSet.of([0, 1, 3], 4))


# --- subgroup machinery --------------------------------------------------------


def test_additive_subgroups_of_z6():
    R = modular_ring(6)
    groups_found = [s.members for s in additive_subgroups(R)]
    assert groups_found == [(0,), (0, 3), (0, 2, 4), (0, 1, 2, 3, 4, 5)]


def test_subgroup_count_z2_squared():
    R = row_ring(2)
    assert len(additive_subgroups(R)) == 5  # 1 + 3 + 1


def test_product_formula_for_disjoint_subgroups(small_universe):
    # |A + B| = |A| |B| whenever A cap B = {0}
    for R in small_universe:
        subs = additive_subgroups(R)
        for A in subs:
            for B in subs:
                if set(A.members) & set(B.members) == {0}:
                    sums = np.unique(R.add[np.ix_(A.members, B.members)])
                    assert sums.size == len(A) * len(B), R.label


def test_index_times_size(small_universe):
    for R in small_universe:
        for S in additive_subgroups(R):
            assert is_additive_subgroup(R, S), R.label
            assert R.order % len(S) == 0, R.label


def test_no_ring_is_union_of_two_proper_subrings(small_universe):
    for R in small_universe:
        if R.order < 2:
            continue
        proper = [set(S.members) for S in subrings(R) if len(S) < R.order]
        for i in range(len(proper)):
            for j in range(len(proper)):
                assert len(proper[i] | proper[j]) < R.order, R.label


def _brute_force_subgroups(R) -> list[tuple[int, ...]]:
    """Every subset containing 0 that is closed under +, by (len, members)."""
    n = R.order
    masks = np.arange(1 << (n - 1))
    inside = np.ones((masks.size, n), dtype=bool)  # row k: the subset of mask k
    inside[:, 1:] = (masks[:, None] >> np.arange(n - 1)) & 1
    pairs = inside[:, :, None] & inside[:, None, :]
    closed = ~(pairs & ~inside[:, R.add]).any(axis=(1, 2))
    found = [tuple(np.flatnonzero(row).tolist()) for row in inside[closed]]
    return sorted(found, key=lambda s: (len(s), s))


def test_additive_subgroups_match_brute_force(small_universe):
    for R in small_universe:
        got = [S.members for S in additive_subgroups(R)]
        assert got == _brute_force_subgroups(R), R.label


def test_subgroup_count_over_the_ceiling_is_too_large(monkeypatch):
    R = direct_product(row_ring(2), row_ring(2))
    assert len(additive_subgroups(R)) == 67
    monkeypatch.setattr("ringcent.rings.MAX_SUBGROUPS", 50)
    with pytest.raises(TooLarge):
        additive_subgroups(R)


def test_a_cached_lattice_still_meets_the_ceiling_of_each_call(monkeypatch):
    R = direct_product(row_ring(2), row_ring(2))
    assert len(additive_subgroups(R)) == 67
    other = FiniteRing(R.add, R.mul, "same addition table")
    monkeypatch.setattr(rings, "MAX_SUBGROUPS", 50)
    with pytest.raises(TooLarge, match="more than 50 additive subgroups in "
                                       "same addition table$"):
        additive_subgroups(other)
    monkeypatch.setattr(rings, "MAX_SUBGROUPS", 100_000)
    assert len(additive_subgroups(other)) == 67


def test_mutating_the_returned_subgroups_leaves_the_next_result(monkeypatch):
    R = direct_product(row_ring(2), row_ring(2))
    first = additive_subgroups(R)
    expected = list(first)
    first.clear()
    assert additive_subgroups(R) == expected


def test_l3_over_the_catalog_builds_one_lattice_per_group_type(catalog,
                                                               monkeypatch):
    from ringcent import suites
    from ringcent.enumeration import catalog_rings

    universe = [R for R in catalog_rings(8) if R.order >= 2]
    assert len(universe) == 75
    builds = []
    multiples = rings._multiples  # called once per lattice built

    def counted(add):
        builds.append(add.shape[0])
        return multiples(add)

    rings._subgroup_lattice.cache_clear()
    monkeypatch.setattr(rings, "_multiples", counted)
    assert suites.run_suite("L3_two_subrings", universe, "catalog:8").passed
    # the group types of orders 2..8: one each of order 2, 3, 5, 6 and 7,
    # two of order 4 and three of order 8
    assert builds == [2, 3, 4, 4, 5, 6, 7, 8, 8, 8]


def _zero_ring(factors):
    """Z_{d1} x ... x Z_{dk} with every product 0."""
    add = groups.group_add_table(factors)
    return FiniteRing(add, np.zeros_like(add), "zero ring on " + repr(factors))


# Subgroup counts of zero-multiplication rings, a route to lattices far beyond
# the brute-force oracle: the Galois numbers of Z_2^k (OEIS A006116) and Z_3^k
# (A006117), and the counts of Z_4 x Z_4, Z_2 x Z_8, Z_5^3 and Z_256.
SUBGROUP_COUNTS = {
    **{f"Z_2^{k}": ((2,) * k, count)
       for k, count in enumerate([1, 2, 5, 16, 67, 374, 2825])},
    **{f"Z_3^{k}": ((3,) * k, count) for k, count in enumerate([1, 2, 6, 28, 212])},
    "Z_4xZ_4": ((4, 4), 15), "Z_2xZ_8": ((2, 8), 11),
    "Z_5^3": ((5, 5, 5), 64), "Z_256": ((256,), 9),
}


@pytest.mark.parametrize("factors,count", SUBGROUP_COUNTS.values(),
                         ids=SUBGROUP_COUNTS.keys())
def test_subgroup_counts_of_zero_rings_are_the_published_numbers(factors, count):
    R = _zero_ring(factors)
    found = additive_subgroups(R)
    assert len(found) == count
    assert found[0].members == (0,) and len(found[-1]) == R.order
    # every subgroup of a zero ring is a subring
    assert [S.members for S in subrings(R)] == [S.members for S in found]


def test_subrings_are_the_subgroups_closed_under_multiplication(small_universe,
                                                                gallery_rings):
    for R in [*small_universe, *gallery_rings]:
        expected = [S for S in additive_subgroups(R) if is_subring(R, S)]
        assert subrings(R) == expected, R.label


def test_the_ceiling_stops_a_lattice_of_order_256_within_its_level(monkeypatch):
    # Z_2^8 has 10795 subgroups of order 4, all found from the 255 of order 2:
    # the ceiling is checked after each block, before that level is done
    blocks = []
    joins = rings._joins

    def counted_joins(*args):
        blocks.append(len(args[-1]))
        return joins(*args)

    monkeypatch.setattr(rings, "_joins", counted_joins)
    monkeypatch.setattr(rings, "MAX_SUBGROUPS", 3000)
    with pytest.raises(TooLarge, match="more than 3000 additive subgroups"):
        additive_subgroups(_zero_ring((2,) * 8))
    assert 1 < len(blocks) and sum(blocks) < 1 + 255


# --- relabeling is an isomorphism (property test) ------------------------------


@settings(max_examples=40, deadline=None)
@given(st.permutations(list(range(1, 6))))
def test_relabeling_preserves_validity(perm):
    R = modular_ring(6)
    full = np.array([0] + list(perm))
    moved = R.relabel(full)
    validate(moved)  # all laws survive any relabeling fixing 0
    assert moved.order == R.order


# --- relabel takes a permutation; only validate marks a ring proved -----------


@pytest.mark.parametrize("perm", [[0, 1, 1, 3], [0, 1, 2], [[0, 1], [2, 3]]])
def test_relabel_rejects_a_map_that_is_not_a_permutation(perm):
    # a repeated index left uninitialised entries in the tables; a short map
    # raised a bare numpy ValueError
    with pytest.raises(IndexOutOfRange, match=r"not a permutation of 0\.\.3"):
        row_ring(2).relabel(perm)


def test_only_validate_marks_a_ring_proved():
    R = row_ring(2)
    assert R.proved
    bare = FiniteRing(R.add, R.mul)
    assert not bare.proved
    assert not R.relabel([0, 2, 1, 3]).proved
    assert not R.opposite().proved
    assert validate(bare).proved
    assert not bare.proved  # validate returns a new ring; its input is untouched

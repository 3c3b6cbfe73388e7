"""Kernels against naive oracles: pure-Python triple loops for the law
checks (same error raised, with the same message naming the same first
failing triple) and brute-force expansion for
the structure search (same rows, same order).  The law checks prove a valid
table valid on its additive generators; the structural tests below pin that
they do so without scanning triples."""

import hashlib
import itertools
import sys
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringcent import kernels, rings
from ringcent.enumeration import _search_inputs
from ringcent.errors import (
    BadIdentityConvention,
    NoAdditiveInverse,
    NonAbelianAddition,
    NotAssociative,
    NotDistributive,
    ValidationError,
)
from ringcent.groups import coeff_vectors
from ringcent.gallery import (
    default_gallery,
    four_element_matrix_ring,
    modular_ring,
    quaternion_ring,
    row_ring,
    upper_triangular_ring,
)
from ringcent.groups import group_add_table

# ---------------------------------------------------------------------------
# naive law checks, scanning triples in lexicographic order


def naive_add_check(A):
    n = len(A)
    for j in range(n):
        if A[0][j] != j:
            raise BadIdentityConvention(
                f"element 0 is not the additive identity: add[0][{j}] != {j}")
    for i in range(n):
        if A[i][0] != i:
            raise BadIdentityConvention(
                f"element 0 is not the additive identity: add[{i}][0] != {i}")
    for i in range(n):
        for j in range(i + 1, n):
            if A[i][j] != A[j][i]:
                raise NonAbelianAddition(f"add[{i}][{j}] != add[{j}][{i}]")
    for i, j, k in itertools.product(range(n), repeat=3):
        if A[A[i][j]][k] != A[i][A[j][k]]:
            raise NonAbelianAddition(
                f"addition not associative at triple ({i}, {j}, {k})")
    for i in range(n):
        if 0 not in A[i]:
            raise NoAdditiveInverse(f"element {i} has no additive inverse")


def naive_mul_assoc(M):
    n = len(M)
    for i, j, k in itertools.product(range(n), repeat=3):
        if M[M[i][j]][k] != M[i][M[j][k]]:
            raise NotAssociative(
                f"multiplication not associative at triple ({i}, {j}, {k})")


def naive_distrib(A, M):
    n = len(A)
    for i, j, k in itertools.product(range(n), repeat=3):
        if M[i][A[j][k]] != A[M[i][j]][M[i][k]]:
            raise NotDistributive(
                f"left distributivity fails at triple ({i}, {j}, {k})")
    for i, j, k in itertools.product(range(n), repeat=3):
        if M[A[i][j]][k] != A[M[i][k]][M[j][k]]:
            raise NotDistributive(
                f"right distributivity fails at triple ({i}, {j}, {k})")


def outcome(check, *tables):
    """"ok" if check(*tables) returns None, else "<Class>: <message>" of the
    ValidationError it raises."""
    try:
        assert check(*tables) is None
    except ValidationError as exc:
        return f"{type(exc).__name__}: {exc}"
    return "ok"


BASES = [modular_ring(n) for n in range(2, 7)] + [
    row_ring(2), four_element_matrix_ring(), upper_triangular_ring(2),
]


@st.composite
def perturbed(draw, table):
    """A small ring and a copy of its `table` ("add" or "mul") with up to
    three cells overwritten, mirrored across the diagonal half the time so
    that failures past the symmetry check are reached too."""
    ring = draw(st.sampled_from(BASES))
    n = ring.order
    out = getattr(ring, table).copy()
    mirror = draw(st.booleans())
    cell = st.tuples(*[st.integers(0, n - 1)] * 3)
    for i, j, v in draw(st.lists(cell, max_size=3)):
        out[i, j] = v
        if mirror:
            out[j, i] = v
    return ring, out


@settings(max_examples=300, deadline=None)
@given(perturbed("add"))
def test_add_check_matches_naive_triple_loop(case):
    _, A = case
    assert outcome(kernels.add_table_check, A) == outcome(naive_add_check,
                                                          A.tolist())


@settings(max_examples=300, deadline=None)
@given(perturbed("mul"))
def test_mul_assoc_check_matches_naive_triple_loop(case):
    ring, M = case
    assert outcome(kernels.mul_assoc_check, ring.add, M) == outcome(
        naive_mul_assoc, M.tolist())


@settings(max_examples=300, deadline=None)
@given(perturbed("mul"))
def test_distrib_check_matches_naive_triple_loop(case):
    ring, M = case
    assert outcome(kernels.distrib_check, ring.add, M) == outcome(
        naive_distrib, ring.add.tolist(), M.tolist())


@st.composite
def perturbed_pair(draw):
    """A small ring with up to two cells of each table overwritten, so that
    the addition table the proofs rest on can be broken too."""
    ring = draw(st.sampled_from(BASES))
    n = ring.order
    cell = st.tuples(*[st.integers(0, n - 1)] * 3)
    A, M = ring.add.copy(), ring.mul.copy()
    for table in (A, M):
        for i, j, v in draw(st.lists(cell, max_size=2)):
            table[i, j] = v
    return A, M


@settings(max_examples=200, deadline=None)
@given(perturbed_pair())
def test_mul_checks_match_naive_loops_over_any_addition_table(case):
    A, M = case
    assert outcome(kernels.mul_assoc_check, A, M) == outcome(naive_mul_assoc,
                                                             M.tolist())
    assert outcome(kernels.distrib_check, A, M) == outcome(
        naive_distrib, A.tolist(), M.tolist())


def closure(A, seed):
    """Everything reached from `seed` by the table A, by naive iteration."""
    out = set(seed)
    while True:
        more = {A[x][y] for x in out for y in out} - out
        if not more:
            return out
        out |= more


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
    min_size=n, max_size=n)))
def test_generators_are_the_greedy_generators_of_any_table(A):
    gens = kernels._generators(np.array(A)).tolist()
    order = [*range(1, len(A)), 0]
    for i, g in enumerate(gens):
        reached = closure(A, gens[:i])
        assert g == next(x for x in order if x not in reached)
    assert closure(A, gens) == set(range(len(A)))


@st.composite
def bilinear(draw):
    """A relabeled table of a random bilinear product on a small cyclic or
    elementary abelian group, where any structure constants are well
    defined: distributive by construction, associative or not."""
    factors = draw(st.sampled_from([(4,), (2, 2), (3, 3), (2, 2, 2)]))
    k = len(factors)
    constants = draw(st.lists(st.integers(0, 3), min_size=k ** 3,
                              max_size=k ** 3))
    A, M = rings.structure_tables(factors, np.reshape(constants, (k, k, k)))
    n = A.shape[0]
    ring = rings.FiniteRing(A, M).relabel(np.concatenate(
        [[0], 1 + np.array(draw(st.permutations(range(n - 1))), dtype=int)]))
    return ring.add, ring.mul


@settings(max_examples=200, deadline=None)
@given(bilinear())
def test_mul_assoc_check_matches_naive_loop_on_distributive_tables(case):
    A, M = case
    assert outcome(kernels.distrib_check, A, M) == "ok"
    assert outcome(kernels.mul_assoc_check, A, M) == outcome(naive_mul_assoc,
                                                             M.tolist())


def test_order_one_ring_is_generated_by_its_zero():
    A = M = np.zeros((1, 1), dtype=np.int64)
    assert kernels._generators(A).tolist() == [0]
    assert outcome(kernels.add_table_check, A) == "ok"
    assert outcome(kernels.mul_assoc_check, A, M) == "ok"
    assert outcome(kernels.distrib_check, A, M) == "ok"


def test_zero_ring_on_z2_to_the_4_is_proved_on_four_additive_generators():
    # Multiplicatively every nonzero element is needed to generate this ring,
    # but the proofs run on the 4 additive generators.
    A = group_add_table((2, 2, 2, 2))
    M = np.zeros_like(A)
    assert kernels._generators(A).tolist() == [1, 2, 4, 8]
    assert outcome(kernels.add_table_check, A) == "ok"
    assert outcome(kernels.mul_assoc_check, A, M) == "ok"
    assert outcome(kernels.distrib_check, A, M) == "ok"
    M[3, 5] = 6
    assert outcome(kernels.mul_assoc_check, A, M) == outcome(naive_mul_assoc,
                                                             M.tolist())
    got = outcome(kernels.distrib_check, A, M)
    assert got == outcome(naive_distrib, A.tolist(), M.tolist())
    assert got.startswith("NotDistributive: left distributivity fails")


def _no_scan(*args):
    raise AssertionError("a valid table was scanned triple by triple")


def test_valid_rings_are_validated_without_a_triple_scan(monkeypatch):
    R = modular_ring(256)
    perm = np.concatenate([[0], 1 + np.random.default_rng(3).permutation(255)])
    moved = R.relabel(perm, "Z_256 relabeled")
    gallery = default_gallery()
    monkeypatch.setattr(kernels, "_scan", _no_scan)
    for ring in [moved] + gallery:
        rings.validate(ring)


def test_add_check_accepts_group_tables():
    for factors in [(2,), (6,), (2, 4), (3, 3)]:
        A = group_add_table(factors)
        assert outcome(kernels.add_table_check, A) == "ok"


def test_add_check_identity_failure():
    A = group_add_table((4,)).copy()
    A[0, 2] = 3
    assert outcome(kernels.add_table_check, A) == (
        "BadIdentityConvention: element 0 is not the additive identity: "
        "add[0][2] != 2")


def test_add_check_symmetry_failure_names_first_pair():
    A = group_add_table((5,)).copy()
    A[1, 3] = 0  # breaks symmetry (and more); symmetry is checked first
    assert outcome(kernels.add_table_check, A) == (
        "NonAbelianAddition: add[1][3] != add[3][1]")


def test_add_check_associativity_failure():
    A = group_add_table((5,)).copy()
    A[1, 1] = 3  # diagonal change keeps symmetry and identity, breaks assoc
    assert outcome(kernels.add_table_check, A) == (
        "NonAbelianAddition: addition not associative at triple (1, 1, 2)")


def test_mul_and_distrib_checks_agree_on_real_rings():
    for ring in [modular_ring(12), row_ring(3)]:
        assert outcome(kernels.mul_assoc_check, ring.add, ring.mul) == "ok"
        assert outcome(kernels.distrib_check, ring.add, ring.mul) == "ok"


def test_mul_assoc_first_failure_triple_matches():
    ring = modular_ring(6)
    M = ring.mul.copy()
    M[2, 3] = 1
    got = outcome(kernels.mul_assoc_check, ring.add, M)
    assert got.startswith("NotAssociative: ")
    assert got == outcome(naive_mul_assoc, M.tolist())


def test_distrib_first_failure_triple_matches():
    ring = modular_ring(6)
    M = ring.mul.copy()
    M[2, 3] = 1
    got = outcome(kernels.distrib_check, ring.add, M)
    assert got.startswith("NotDistributive: ")
    assert got == outcome(naive_distrib, ring.add.tolist(), M.tolist())


# ---------------------------------------------------------------------------
# the left law proved on generator rows, and the proofs' memo in validate


def _s3_case():
    """S_3 with the identity at 0 and x*y = c x c^-1 for odd y, else 0,
    for the transposition c: every map x -> x*y is an endomorphism, so the
    right law holds, and the left law holds on the generator rows but fails
    elsewhere, which only the commutativity premise rules out."""
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}

    def compose(p, q):
        return tuple(p[q[i]] for i in range(3))

    c = perms[2]
    odd = [sum(p[a] > p[b] for a, b in itertools.combinations(range(3), 2)) % 2
           for p in perms]
    A = np.array([[index[compose(p, q)] for q in perms] for p in perms])
    M = np.array([[index[compose(c, compose(x, c))] if odd[y] else 0
                   for y in range(6)] for x in perms])
    return A, M


_Z5 = modular_ring(5).add
_x, _y = np.indices((5, 5))
ONE_SIDED = {
    "x y^2 on Z_5": (_Z5, _x * _y * _y % 5),   # right law only
    "x^2 y on Z_5": (_Z5, _x * _x * _y % 5),   # left law only
    "x on Z_5": (_Z5, _x),                     # associative, right law only
    "y on Z_5": (_Z5, _y),                     # associative, left law only
    "S_3": _s3_case(),
}


@pytest.mark.parametrize("name", list(ONE_SIDED))
def test_one_sided_proof_matches_naive_loops(name):
    A, M = ONE_SIDED[name]
    want = [outcome(naive_add_check, A.tolist()),
            outcome(naive_mul_assoc, M.tolist()),
            outcome(naive_distrib, A.tolist(), M.tolist())]
    got = [outcome(kernels.add_table_check, A),
           outcome(kernels.mul_assoc_check, A, M),
           outcome(kernels.distrib_check, A, M)]
    assert got == want
    with pytest.raises(ValidationError) as exc:
        rings.validate(rings.FiniteRing(A, M))
    first = next(w for w in got if w != "ok")
    assert f"{type(exc.value).__name__}: {exc.value}" == first


def test_one_sided_cases_reach_each_branch():
    left, right = "NotDistributive: left", "NotDistributive: right"
    kinds = {name: outcome(kernels.distrib_check, *ONE_SIDED[name]).split(
        " distributivity")[0] for name in ONE_SIDED}
    assert kinds == {"x y^2 on Z_5": left, "x^2 y on Z_5": right,
                     "x on Z_5": left, "y on Z_5": right, "S_3": left}
    A, M = ONE_SIDED["S_3"]
    gens = kernels._generators(A)
    X = M[gens]  # the left law on the generator rows alone holds
    assert np.array_equal(X[:, A], A[X[:, :, None], X[:, None, :]])
    assert not np.array_equal(A, A.T)


@pytest.mark.parametrize("cells", [1, 128])
def test_every_generator_slab_is_proved(monkeypatch, cells):
    # Z_2^3 has generators 1, 2, 4: one per slab, or slabs [1, 2] and [4].
    monkeypatch.setattr(kernels, "_SLAB_CELLS", cells)
    A0, M0 = group_add_table((2, 2, 2)), np.zeros((8, 8), dtype=np.int64)
    for i, j, v in itertools.product(range(8), range(8), (1, 6)):
        A, M = A0.copy(), M0.copy()
        M[i, j] = v
        assert outcome(kernels.mul_assoc_check, A, M) == outcome(
            naive_mul_assoc, M.tolist())
        assert outcome(kernels.distrib_check, A, M) == outcome(
            naive_distrib, A.tolist(), M.tolist())
        A[i, j] = A[j, i] = v
        assert outcome(kernels.add_table_check, A) == outcome(
            naive_add_check, A.tolist())


def test_a_table_changed_in_place_is_proved_again():
    ring = modular_ring(5)
    A, M = ring.add.copy(), ring.mul.copy()
    assert outcome(kernels.mul_assoc_check, A, M) == "ok"
    assert outcome(kernels.distrib_check, A, M) == "ok"
    M[2, 3] = 1
    assert outcome(kernels.mul_assoc_check, A, M) == outcome(naive_mul_assoc,
                                                             M.tolist())
    assert outcome(kernels.distrib_check, A, M) == outcome(
        naive_distrib, A.tolist(), M.tolist())
    assert outcome(kernels.add_table_check, A) == "ok"
    A[1, 1] = 3
    assert outcome(kernels.add_table_check, A) == (
        "NonAbelianAddition: addition not associative at triple (1, 1, 2)")
    assert outcome(kernels.distrib_check, A, M) == outcome(
        naive_distrib, A.tolist(), M.tolist())


def test_one_validate_proves_each_table_once_and_keeps_no_memo(monkeypatch):
    R = quaternion_ring(3)
    found, proofs = [], []
    generators, distributes = kernels._generators, kernels._distributes

    def counted_generators(A):
        found.append(A)
        return generators(A)

    def counted_distributes(A, M):
        proofs.append((A, M))
        return distributes(A, M)

    monkeypatch.setattr(kernels, "_generators", counted_generators)
    monkeypatch.setattr(kernels, "_distributes", counted_distributes)
    rings.validate(R)
    assert len(found) == 1 and found[0] is R.add
    assert len(proofs) == 1 and proofs[0][0] is R.add and proofs[0][1] is R.mul
    assert kernels._proofs is None  # nothing outlives validate
    kernels.distrib_check(R.add, R.mul)  # alone, a kernel proves afresh
    assert (len(found), len(proofs)) == (2, 2)
    M = R.mul.copy()
    M[2, 3] = 1
    with pytest.raises(rings.ValidationError):
        rings.validate(rings.FiniteRing(R.add, M))
    assert kernels._proofs is None  # nor a validate that raises


# ---------------------------------------------------------------------------
# structure search


def brute_force_structures(factors, allowed=None):
    """Every allowed assignment, in lexicographic order, whose generator
    products satisfy (g_a g_b) g_c = g_a (g_b g_c) for all a, b, c."""
    cv = coeff_vectors(factors)
    allowed = _search_inputs(factors) if allowed is None else allowed
    k = len(factors)
    d = np.asarray(factors)
    choices = [np.flatnonzero(allowed[t]).tolist() for t in range(k * k)]
    rows = []
    for assign in itertools.product(*choices):
        C = cv[list(assign)].reshape(k, k, k)  # C[a, b] = coords of g_a g_b
        left = np.einsum("abm,mcq->abcq", C, C)
        right = np.einsum("bcm,amq->abcq", C, C)
        if ((left - right) % d == 0).all():
            rows.append(assign)
    return np.array(rows, dtype=np.int64).reshape(-1, k * k)


def test_structure_search_matches_brute_force():
    for factors in [(2,), (4,), (9,), (2, 2), (2, 4), (2, 6), (3, 3)]:
        allowed = _search_inputs(factors)
        rows, status, _ = kernels.structure_search(factors, allowed)
        assert status == 0
        assert np.array_equal(rows, brute_force_structures(factors)), factors


def test_structure_search_matches_brute_force_on_subsets_of_the_torsion():
    # the values forcing leaves a cell must still be admissible where it
    # admits only part of its torsion subgroup; on Z_4 x Z_4 and Z_2 x Z_8
    # a forcing coefficient of 2 or 4 is no unit and leaves several values
    rng = np.random.default_rng(7)
    for factors in [(4,), (9,), (2, 4), (2, 6), (3, 3), (4, 4), (2, 8)] * 4:
        torsion = _search_inputs(factors)
        allowed = torsion & (rng.random(torsion.shape) < 0.6)
        rows, status, _ = kernels.structure_search(factors, allowed)
        assert status == 0
        assert np.array_equal(
            rows, brute_force_structures(factors, allowed)), factors


@pytest.mark.parametrize("cell, forcing", [(0, True), (8, False)],
                         ids=["forcing-level", "plain-level"])
def test_structure_search_with_a_cell_admitting_nothing(monkeypatch, cell,
                                                        forcing):
    # every other cell admits only 0, so each level keeps the zero product
    # and cell 0 comes last, at a level with forcing constraints, while
    # cell 8, the square g_3 g_3, comes first, at a level without; either
    # way no row survives
    sizes = []
    solutions = kernels._Plan.solutions

    def recorded(self, vals):
        sizes.append(vals.size)
        return solutions(self, vals)

    monkeypatch.setattr(kernels._Plan, "solutions", recorded)
    allowed = np.zeros((9, 8), dtype=np.uint8)
    allowed[:, 0] = 1
    allowed[cell] = 0
    rows, status, _ = kernels.structure_search((2, 2, 2), allowed)
    assert (rows.shape, status) == ((0, 9), 0)
    assert (0 in sizes) == forcing


def test_structure_search_counts_on_z2_cubed():
    allowed = _search_inputs((2, 2, 2))
    rows, status, nodes = kernels.structure_search(
        (2, 2, 2), allowed, deadline=time.monotonic() + 3600
    )
    assert (rows.shape, status, nodes) == ((1688, 9), 0, 17302)


@pytest.mark.parametrize("factors, shape, nodes, digest", [
    ((16,), (16, 1), 16, "f23d672bb9b341f9"),
    ((2, 8), (120, 4), 352, "4a83b21ff251e1cd"),
    ((4, 4), (616, 4), 2208, "432ddb630ab35fd4"),
    ((2, 2, 4), (4864, 9), 40080, "4f5a00b13a292b97"),
], ids=["16", "2x8", "4x4", "2x2x4"])
def test_structure_search_rows_pinned_on_order_16(factors, shape, nodes, digest):
    # rows and their order as the search has always given them, and the
    # node count of the constraint-first order with forward checking
    allowed = _search_inputs(factors)
    rows, status, got = kernels.structure_search(factors, allowed)
    blob = rows.astype(np.int64).tobytes()
    assert (rows.shape, status, got) == (shape, 0, nodes)
    assert hashlib.sha256(blob).hexdigest()[:16] == digest


def test_structure_search_rows_pinned_on_z3_cubed():
    # filling each generator's square before the rest of its row and column
    # takes 1,410,049 nodes here; without that tie-break the same rows take
    # 5,178,077
    factors = (3, 3, 3)
    rows, status, nodes = kernels.structure_search(factors,
                                                   _search_inputs(factors))
    blob = rows.astype(np.int64).tobytes()
    assert (rows.shape, status, nodes) == ((40873, 9), 0, 1410049)
    assert hashlib.sha256(blob).hexdigest()[:16] == "4a70b77198b42441"


def test_structure_search_stops_at_past_deadline():
    allowed = _search_inputs((2, 2, 2))
    rows, status, nodes = kernels.structure_search(
        (2, 2, 2), allowed, deadline=time.monotonic() - 1
    )
    assert (rows.shape, status, nodes) == ((0, 9), -1, 0)


@pytest.mark.parametrize("chunk", [1, 7, 500])
@pytest.mark.parametrize("factors, shape, nodes, digest", [
    ((2, 2, 2), (1688, 9), 17302, "77da948d08eb79e3"),
    ((2, 2, 4), (4864, 9), 40080, "4f5a00b13a292b97"),
], ids=["2x2x2", "2x2x4"])
def test_structure_search_rows_pinned_across_slabs(monkeypatch, chunk, factors,
                                                   shape, nodes, digest):
    # slabs of `chunk` parents split every level wider than that (the widest
    # here holds thousands of rows); where the splits fall changes neither
    # the rows, nor their order, nor the node count
    monkeypatch.setattr(kernels, "_SLAB_COLUMNS", chunk)
    rows, status, got = kernels.structure_search(factors, _search_inputs(factors))
    blob = rows.astype(np.int64).tobytes()
    assert (rows.shape, status, got) == (shape, 0, nodes)
    assert hashlib.sha256(blob).hexdigest()[:16] == digest


@pytest.mark.parametrize("chunk", [1, 7, 500])
def test_structure_search_matches_brute_force_across_slabs(monkeypatch, chunk):
    # cells admitting only part of their torsion; the widest level holds
    # 292 rows, so slabs of 1 and 7 parents split its wider levels
    rng = np.random.default_rng(7)
    torsion = _search_inputs((3, 9))
    allowed = torsion & (rng.random(torsion.shape) < 0.9)
    monkeypatch.setattr(kernels, "_SLAB_COLUMNS", chunk)
    rows, status, _ = kernels.structure_search((3, 9), allowed)
    assert status == 0
    assert np.array_equal(rows, brute_force_structures((3, 9), allowed))


def _deadline_polls(monkeypatch, factors, allowed):
    """(function, line) of every deadline poll of a search that finishes."""
    polls = []

    def monotonic():
        caller = sys._getframe(2)  # monotonic <- expired <- caller
        polls.append((caller.f_code.co_name, caller.f_lineno))
        return 0.0

    monkeypatch.setattr(kernels.time, "monotonic", monotonic)
    kernels.structure_search(factors, allowed, deadline=1.0)
    return polls


@pytest.mark.parametrize("where", ["checks", "value_mask"])
def test_structure_search_stops_at_deadline_passing_mid_search(monkeypatch, where):
    # the clock passes the deadline at the middle poll of one site: the
    # check of a constraint on a slab (the line of structure_search that
    # polls most), or a forcing constraint in value_mask
    factors = (2, 2, 2)
    allowed = _search_inputs(factors)
    polls = _deadline_polls(monkeypatch, factors, allowed)
    if where == "checks":
        site = Counter(p for p in polls
                       if p[0] == "structure_search").most_common(1)[0][0]
    else:
        site = next(p for p in polls if p[0] == where)
    at_site = [i for i, p in enumerate(polls) if p == site]
    stop = at_site[len(at_site) // 2]
    calls = itertools.count()
    monkeypatch.setattr(kernels.time, "monotonic",
                        lambda: 1.0 if next(calls) >= stop else 0.0)
    rows, status, nodes = kernels.structure_search(factors, allowed, deadline=1.0)
    assert (rows.shape, status) == ((0, 9), -1)
    assert 0 < nodes < 17302
    assert next(calls) == stop + 1  # no poll after the one that passed


def test_structure_search_memory_stays_bounded_on_z2_to_the_4(monkeypatch):
    # the walk keeps one path of slabs, not a whole level: after 1000
    # deadline polls on Z_2^4 a breadth-first frontier held about 200 MB
    factors = (2, 2, 2, 2)
    calls = itertools.count()
    monkeypatch.setattr(kernels.time, "monotonic",
                        lambda: 1.0 if next(calls) >= 1000 else 0.0)
    tracemalloc.start()
    try:
        rows, status, nodes = kernels.structure_search(
            factors, _search_inputs(factors), deadline=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rows.shape, status) == ((0, 16), -1) and nodes > 0
    assert peak < 100 * 2**20, f"{peak / 2**20:.1f} MB"

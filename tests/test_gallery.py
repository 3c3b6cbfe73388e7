"""Gallery constructions match their documented structure."""

import itertools

import numpy as np
import pytest

from ringcent import (
    FiniteRing,
    NotAssociative,
    NotOddPrime,
    NotPrime,
    RingError,
    TooLarge,
    cent_set,
    center,
    classify_additive,
    validate,
)
from ringcent.gallery import (
    by_name,
    default_gallery,
    direct_product,
    four_element_matrix_ring,
    modular_ring,
    quaternion_ring,
    row_ring,
    upper_triangular_ring,
)


def mat2_mul(a, b, p):
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(2)) % p for j in range(2))
        for i in range(2)
    )


def test_four_element_matrix_ring_against_matrix_arithmetic():
    # oracle: 2x2 matrix arithmetic over Z_2 on the listed elements
    mats = [((0, 0), (0, 0)), ((1, 0), (1, 0)), ((0, 1), (0, 1)), ((1, 1), (1, 1))]
    idx = {m: i for i, m in enumerate(mats)}
    R = four_element_matrix_ring()
    for i, a in enumerate(mats):
        for j, b in enumerate(mats):
            s = tuple(
                tuple((a[r][c] + b[r][c]) % 2 for c in range(2)) for r in range(2)
            )
            assert R.add[i, j] == idx[s]
            assert R.mul[i, j] == idx[mat2_mul(a, b, 2)]
    # AB != BA for A = [1 0; 1 0], B = [0 1; 0 1]
    A, B = mats[1], mats[2]
    assert mat2_mul(A, B, 2) != mat2_mul(B, A, 2)
    assert not R.is_commutative
    assert len(cent_set(R)) == 4


def test_row_ring_matches_matrix_arithmetic():
    for p in (2, 3, 5, 7, 11, 13):
        R = row_ring(p)
        for a, b, x, y in itertools.product(range(p), repeat=4):
            i, j = a * p + b, x * p + y
            prod = mat2_mul(((a, b), (0, 0)), ((x, y), (0, 0)), p)
            assert R.add[i, j] == (a + x) % p * p + (b + y) % p
            assert R.mul[i, j] == prod[0][0] * p + prod[0][1]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_upper_triangular_ring_matches_matrix_arithmetic(p):
    # oracle: [a b; 0 c] over Z_p at index a*p^2 + b*p + c
    mats = [((a, b), (0, c)) for a in range(p) for b in range(p) for c in range(p)]
    idx = {m: i for i, m in enumerate(mats)}
    R = upper_triangular_ring(p)
    for i, m1 in enumerate(mats):
        for j, m2 in enumerate(mats):
            s = tuple(tuple((m1[r][c] + m2[r][c]) % p for c in range(2))
                      for r in range(2))
            assert R.add[i, j] == idx[s]
            assert R.mul[i, j] == idx[mat2_mul(m1, m2, p)]


def quaternion_mul(x, y, p):
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    return (
        (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2) % p,
        (a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2) % p,
        (a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2) % p,
        (a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2) % p,
    )


def test_quaternion_ring_matches_quaternion_arithmetic():
    # oracle: (a + bi + cj + dk) products over Z_3 at index mixed-radix (a, b, c, d)
    p = 3
    quats = list(itertools.product(range(p), repeat=4))
    idx = {q: i for i, q in enumerate(quats)}
    R = quaternion_ring(p)
    for i, x in enumerate(quats):
        for j, y in enumerate(quats):
            assert R.add[i, j] == idx[tuple((u + v) % p for u, v in zip(x, y))]
            assert R.mul[i, j] == idx[quaternion_mul(x, y, p)]


def test_modular_ring_matches_mod_n_arithmetic():
    for n in range(1, 257):
        R = modular_ring(n)
        ar = np.arange(n)
        assert R.label == f"Z_{n}"
        assert np.array_equal(R.add, (ar[:, None] + ar[None, :]) % n), n
        assert np.array_equal(R.mul, (ar[:, None] * ar[None, :]) % n), n


def test_row_ring_centralizer_counts():
    assert len(cent_set(row_ring(2))) == 4
    assert len(cent_set(row_ring(5))) == 7
    assert center(row_ring(3)).members == (0,)


def test_upper_triangular_ring_unital_and_counts():
    for p in (2, 3, 5):
        R = upper_triangular_ring(p)
        assert R.has_unity()
        assert len(cent_set(R)) == p + 2
    assert len(center(upper_triangular_ring(2))) == 2


def test_quaternion_ring_structure():
    R = quaternion_ring(3)
    assert R.order == 81
    assert not R.is_commutative
    # ij = k and ji = -k = 2k in the mixed-radix indexing (a, b, c, d)
    i_idx, j_idx, k_idx = 9, 3, 1
    assert R.mul[i_idx, j_idx] == k_idx
    assert R.mul[j_idx, i_idx] == 2 * k_idx
    assert classify_additive(R).invariant_factors == (3, 3, 3, 3)


def test_quaternion_ring_centralizer_count_is_lines_plus_one():
    # Non-central elements a + v (v a nonzero pure quaternion) have
    # centralizer Z_p + Z_p v, so the proper centralizers biject with the
    # lines of P^2(F_p): (p^2 + p + 1) of them, plus R itself.
    R = quaternion_ring(3)
    p = 3
    assert len(cent_set(R)) == p * p + p + 2  # = 14 for p = 3
    assert len(center(R)) == p


def test_quaternion_rejects_two_and_large():
    with pytest.raises(NotOddPrime):
        quaternion_ring(2)
    with pytest.raises(NotOddPrime):
        quaternion_ring(9)
    with pytest.raises(TooLarge):
        quaternion_ring(5)


def test_row_ring_parameter_errors():
    with pytest.raises(NotPrime):
        row_ring(6)
    with pytest.raises(TooLarge):
        row_ring(17)
    with pytest.raises(TooLarge):
        upper_triangular_ring(7)
    with pytest.raises(TooLarge):
        modular_ring(300)


def test_direct_product_cent_counts():
    r2 = row_ring(2)
    assert len(cent_set(direct_product(r2, modular_ring(3)))) == 4
    assert len(cent_set(direct_product(r2, r2))) == 16


def test_direct_product_too_large():
    with pytest.raises(TooLarge):
        direct_product(modular_ring(100), modular_ring(3))


def test_direct_product_with_zero_ring_is_isomorphic():
    from oracles import isomorphic

    one = validate({"order": 1, "add": [[0]], "mul": [[0]]})
    R = row_ring(2)
    assert isomorphic(direct_product(one, R), R)
    assert isomorphic(direct_product(R, one), R)


def test_direct_product_associative_up_to_isomorphism():
    from oracles import isomorphic

    a, b, c = modular_ring(2), row_ring(2), modular_ring(3)
    left = direct_product(direct_product(a, b), c)
    right = direct_product(a, direct_product(b, c))
    assert isomorphic(left, right)


def test_modular_ring_properties():
    assert len(cent_set(modular_ring(6))) == 1
    from ringcent import commutativity_degree

    assert commutativity_degree(modular_ring(7)) == 1
    assert classify_additive(modular_ring(8)).invariant_factors == (8,)


def test_every_gallery_ring_revalidates():
    for ring in default_gallery():
        validate(ring)  # full law check on the already-built tables


def test_by_name_dispatch():
    assert by_name("row_ring", 3).order == 9
    assert by_name("four_element_matrix_ring").order == 4
    assert by_name("modular_ring", 11).order == 11
    with pytest.raises(KeyError):
        by_name("nonexistent")


def test_by_name_refuses_a_parameter_the_construction_does_not_take():
    with pytest.raises(RingError, match="takes no parameter"):
        by_name("four_element_matrix_ring", 7)


def test_quotient_of_row_rings_is_p_p():
    from ringcent import quotient_type

    for p in (2, 3, 5, 7, 11):
        R = row_ring(p)
        assert quotient_type(R, center(R)).invariant_factors == (p, p)


# --- a product of proved rings keeps the proof ---------------------------------


@pytest.mark.parametrize("token", ["gallery", "catalog:8"])
def test_every_product_p2_samples_passes_the_full_proof(token, monkeypatch):
    from ringcent import gallery, run_suite
    from ringcent.suites import load_universe

    universe, _ = load_universe(token)
    products = []

    def recording(R, S):
        products.append((R, S, direct_product(R, S)))
        return products[-1][2]

    monkeypatch.setattr(gallery, "direct_product", recording)
    assert run_suite("P2_product", universe).passed
    assert len(products) == 60
    for R, S, P in products:
        assert R.proved and S.proved and P.proved
        proved = validate(P)  # the law proof the product skipped
        # unproved copies of the factors send the product through validate
        checked = direct_product(FiniteRing(R.add, R.mul), FiniteRing(S.add, S.mul))
        for ring in (proved, checked):
            assert np.array_equal(ring.add, P.add)
            assert np.array_equal(ring.mul, P.mul)


def test_product_of_proved_rings_runs_no_law_kernel(monkeypatch):
    from ringcent import kernels

    R, S = row_ring(2), modular_ring(3)

    def refuse(*tables):
        raise AssertionError("a law kernel ran on a product of proved rings")

    for name in ("add_table_check", "mul_assoc_check", "distrib_check"):
        monkeypatch.setattr(kernels, name, refuse)
    P = direct_product(R, S)
    assert P.proved and P.order == 12
    with pytest.raises(AssertionError, match="law kernel ran"):
        validate(P)  # validate on a FiniteRing always proves again


def test_a_structure_constant_ring_runs_no_law_kernel(monkeypatch):
    from ringcent import kernels

    def refuse(*tables):
        raise AssertionError("a law kernel ran on a structure-constant ring")

    for name in ("add_table_check", "mul_assoc_check", "distrib_check"):
        monkeypatch.setattr(kernels, name, refuse)
    # the gallery's constructions and a structure spec, proved on their
    # generator products; __wrapped__ builds past the constructors' caches
    Q = quaternion_ring.__wrapped__(3)
    T = upper_triangular_ring.__wrapped__(5)
    S = validate({"group": [2, 2], "mul_constants": [[[1, 0], [0, 1]],
                                                     [[0, 0], [0, 0]]]})
    assert Q.proved and T.proved and S.proved
    assert np.array_equal(S.mul, row_ring(2).mul)
    with pytest.raises(AssertionError, match="law kernel ran"):
        validate(Q)  # validate on a FiniteRing always proves again


def test_product_of_a_forced_mutant_names_the_first_failing_triple():
    R = row_ring(2)
    mul = R.mul.copy()
    mul[3][2] = 1
    forced = FiniteRing(R.add, mul, "mutant")
    with pytest.raises(NotAssociative) as info:
        direct_product(forced, forced)
    assert str(info.value) == "multiplication not associative at triple (3, 2, 1)"

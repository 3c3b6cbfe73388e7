"""Centralizer engine: C(r), Z(R), Cent(R), d(R), and the full report."""

import json
from fractions import Fraction

import numpy as np
import pytest

from ringcent import (
    FiniteRing,
    IndexOutOfRange,
    NotAdditiveSubgroup,
    analyze,
    cent_set,
    center,
    centralizer,
    commutativity_degree,
    is_subring,
)
from ringcent.gallery import (
    four_element_matrix_ring,
    modular_ring,
    quaternion_ring,
    row_ring,
    upper_triangular_ring,
)

from oracles import mutate_entry


def brute_force_commuting_pairs(R):
    return sum(
        1
        for r in range(R.order)
        for s in range(R.order)
        if R.mul[r, s] == R.mul[s, r]
    )


def test_centralizer_of_zero_is_whole_ring():
    for R in (modular_ring(6), row_ring(3), quaternion_ring(3)):
        assert centralizer(R, 0) == R.whole_set()


def test_centralizer_index_bounds():
    with pytest.raises(IndexOutOfRange):
        centralizer(modular_ring(4), 4)


def test_row_ring_centralizer_of_diagonal_element():
    # C([a 0; 0 0]) = {[x 0; 0 0]} for a != 0: indices a*p with x*p encoding
    for p in (3, 5):
        R = row_ring(p)
        c = centralizer(R, p)  # element (a, b) = (1, 0)
        assert c.members == tuple(x * p for x in range(p))
        assert len(c) == p


def test_quaternion_centralizer_of_j_and_i():
    R = quaternion_ring(3)
    # index of i is 9, of j is 3 under mixed-radix (a, b, c, d)
    ci = centralizer(R, 9)
    cj = centralizer(R, 3)
    assert len(ci) == 9 and len(cj) == 9
    # C(j) = {x + zj}: indices 27x + 3z
    assert cj.members == tuple(sorted(27 * x + 3 * z
                                      for x in range(3) for z in range(3)))


def test_center_commutative_is_whole():
    R = modular_ring(12)
    assert center(R) == R.whole_set()


def test_center_of_noncommutative_p2_is_zero():
    for p in (2, 3, 5, 7):
        assert center(row_ring(p)).members == (0,)


def test_center_of_upper_triangular_is_scalars():
    for p in (2, 3, 5):
        R = upper_triangular_ring(p)
        z = center(R)
        assert len(z) == p
        # scalar matrices a*I have index a*p^2 + a
        assert z.members == tuple(a * p * p + a for a in range(p))


def test_cent_set_commutative_is_single():
    assert len(cent_set(modular_ring(9))) == 1


def test_cent_set_four_element_matrix_ring():
    cs = cent_set(four_element_matrix_ring())
    assert len(cs) == 4
    assert {c.members for c in cs} == {(0, 1, 2, 3), (0, 1), (0, 2), (0, 3)}


def test_cent_set_row_rings_have_p_plus_2():
    for p in (2, 3, 5, 7, 11):
        assert len(cent_set(row_ring(p))) == p + 2


def test_row_ring_centralizer_structure():
    # p+1 proper centralizers of size p, pairwise meeting in {0}
    for p in (2, 3, 5):
        R = row_ring(p)
        proper = [c for c in cent_set(R) if len(c) < R.order]
        assert len(proper) == p + 1
        assert all(len(c) == p for c in proper)
        for i in range(len(proper)):
            for j in range(i + 1, len(proper)):
                assert set(proper[i].members) & set(proper[j].members) == {0}


def test_every_centralizer_is_subring_containing_center(small_universe):
    for R in small_universe:
        z = set(center(R).members)
        for c in cent_set(R):
            assert is_subring(R, c), R.label
            assert z <= set(c.members), R.label


def test_degree_commutative_is_one():
    assert commutativity_degree(modular_ring(7)) == 1


def test_degree_four_centralizer_is_5_8():
    assert commutativity_degree(four_element_matrix_ring()) == Fraction(5, 8)


def test_degree_row_ring_3_is_11_27():
    assert commutativity_degree(row_ring(3)) == Fraction(11, 27)


def test_degree_equals_brute_force_pair_count(small_universe):
    for R in small_universe:
        pairs = brute_force_commuting_pairs(R)
        assert commutativity_degree(R) == Fraction(pairs, R.order**2), R.label


def test_degree_one_iff_commutative(small_universe):
    for R in small_universe:
        assert (commutativity_degree(R) == 1) == R.is_commutative


def test_center_is_intersection_of_centralizers(small_universe):
    for R in small_universe:
        inter = set(range(R.order))
        for r in range(R.order):
            inter &= set(centralizer(R, r).members)
        assert tuple(sorted(inter)) == center(R).members


def test_union_of_noncentral_centralizers(small_universe):
    for R in small_universe:
        if R.is_commutative:
            continue
        z = set(center(R).members)
        union = set()
        for r in range(R.order):
            if r not in z:
                union |= set(centralizer(R, r).members)
        assert union == set(range(R.order)), R.label


def test_one_centralizer_iff_commutative(small_universe):
    for R in small_universe:
        assert (len(cent_set(R)) == 1) == R.is_commutative


def test_no_two_or_three_centralizers(small_universe):
    for R in small_universe:
        assert len(cent_set(R)) not in (2, 3), R.label


def test_analyze_z2():
    rep = analyze(modular_ring(2))
    assert rep.is_commutative and rep.cent_count == 1 and rep.degree == 1


def test_analyze_four_element_matrix_ring():
    rep = analyze(four_element_matrix_ring())
    assert rep.cent_count == 4
    assert rep.degree == Fraction(5, 8)
    assert rep.quotient_type.invariant_factors == (2, 2)


def test_analyze_row_ring_3():
    rep = analyze(row_ring(3))
    assert rep.cent_count == 5
    assert rep.degree == Fraction(11, 27)
    assert rep.quotient_type.invariant_factors == (3, 3)


def test_report_json_shape():
    rep = analyze(row_ring(2))
    doc = json.loads(json.dumps(rep.to_json()))
    assert doc["degree"] == {"num": 5, "den": 8}
    assert doc["cent_count"] == 4
    assert doc["quotient_type"] == [2, 2]
    # lexicographic centralizer order: (0,1) < (0,1,2,3) < (0,2) < (0,3)
    assert doc["centralizers"] == [[0, 1], [0, 1, 2, 3], [0, 2], [0, 3]]


def test_report_deterministic(small_universe):
    for R in small_universe[:20]:
        assert analyze(R).to_json() == analyze(R).to_json()


def test_whole_ring_always_in_cent_set(small_universe):
    for R in small_universe:
        assert any(len(c) == R.order for c in cent_set(R))


def test_reports_of_one_ring_share_their_fields():
    R = row_ring(2)
    assert analyze(R).ring is R
    assert analyze(R).centralizers is analyze(R).centralizers
    copy = FiniteRing(R.add, R.mul, R.label)
    assert analyze(copy).centralizers is not analyze(R).centralizers
    assert analyze(copy).to_json() == analyze(R).to_json()


def test_report_fields_are_computed_on_first_read():
    # with mul[0][1] = 1 the table is not a ring and its "center" is empty,
    # so not an additive subgroup: only R/Z(R) fails, and only when read
    doc = mutate_entry(row_ring(2), 0, 1, 1)
    forced = FiniteRing(np.asarray(doc["add"]), np.asarray(doc["mul"]), "bad")
    rep = analyze(forced)
    assert rep.cent_count == len(cent_set(forced))
    with pytest.raises(NotAdditiveSubgroup):
        rep.quotient_type
    with pytest.raises(NotAdditiveSubgroup):
        rep.to_json()

"""Invariant-factor classification and additive quotients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringcent import (
    AbelianGroupType,
    ElementSet,
    FiniteRing,
    NotAdditiveSubgroup,
    classify_additive,
    quotient_type,
)
from ringcent.centralizers import center
from ringcent.gallery import (
    four_element_matrix_ring,
    modular_ring,
    quaternion_ring,
    row_ring,
    upper_triangular_ring,
)
from ringcent.groups import abelian_group_types, group_add_table


def _zero_ring_on(factors):
    add = group_add_table(factors)
    return FiniteRing(add, np.zeros_like(add), f"zero{factors}")


def table_walk_orders(R):
    """Independent oracle: additive order of each element by repeated adds."""
    out = []
    for x in range(R.order):
        t, y = 1, x
        while y != 0:
            y = int(R.add[y, x])
            t += 1
        out.append(t)
    return out


def test_cyclic_classification():
    assert classify_additive(modular_ring(4)).invariant_factors == (4,)
    assert classify_additive(modular_ring(8)).invariant_factors == (8,)
    assert classify_additive(modular_ring(1)).invariant_factors == ()


def test_row_ring_z2_is_elementary():
    # oracle: all three nonzero elements have additive order 2 by table walk
    R = row_ring(2)
    assert table_walk_orders(R) == [1, 2, 2, 2]
    assert classify_additive(R).invariant_factors == (2, 2)


def test_quaternion_ring_additive_type():
    # oracle: every nonzero element has additive order 3 by table walk
    R = quaternion_ring(3)
    walk = table_walk_orders(R)
    assert walk[0] == 1 and all(t == 3 for t in walk[1:])
    assert classify_additive(R).invariant_factors == (3, 3, 3, 3)


def test_mixed_group_type():
    assert classify_additive(_zero_ring_on((2, 6))).invariant_factors == (2, 6)
    assert classify_additive(_zero_ring_on((2, 4))).invariant_factors == (2, 4)
    assert classify_additive(_zero_ring_on((12,))).invariant_factors == (12,)


def test_classification_round_trip_all_groups_up_to_64():
    # census of the rebuilt group matches the original census
    for n in range(1, 65):
        for factors in abelian_group_types(n):
            R = _zero_ring_on(factors)
            t = classify_additive(R)
            assert t.invariant_factors == factors
            rebuilt = _zero_ring_on(t.invariant_factors)
            assert sorted(table_walk_orders(rebuilt)) == sorted(table_walk_orders(R))


def test_divisibility_chain_enforced():
    with pytest.raises(ValueError):
        AbelianGroupType((4, 2))
    with pytest.raises(ValueError):
        AbelianGroupType((1, 2))


def test_quotient_whole_and_trivial():
    R = modular_ring(6)
    assert quotient_type(R, R.whole_set()).invariant_factors == ()
    assert quotient_type(R, ElementSet.of([0], 6)).invariant_factors == (6,)


def test_quotient_rejects_non_subgroup():
    with pytest.raises(NotAdditiveSubgroup):
        quotient_type(modular_ring(6), ElementSet.of([0, 1], 6))


def test_quotient_by_center_of_noncommutative_p2_rings():
    for p in (2, 3, 5):
        R = row_ring(p)
        z = center(R)
        assert z.members == (0,)
        assert quotient_type(R, z).invariant_factors == (p, p)


def test_quotient_by_center_of_upper_triangular():
    for p in (2, 3, 5):
        R = upper_triangular_ring(p)
        z = center(R)
        assert len(z) == p
        assert quotient_type(R, z).invariant_factors == (p, p)


def test_quotient_matches_classification_at_trivial_subgroup(small_universe):
    for R in small_universe:
        assert (quotient_type(R, ElementSet.of([0], R.order))
                == classify_additive(R))


def test_quotient_order_times_subgroup_size(small_universe):
    from ringcent.rings import additive_subgroups

    for R in small_universe:
        for S in additive_subgroups(R):
            q = quotient_type(R, S)
            assert q.order * len(S) == R.order


def test_noncommutative_quotient_never_cyclic(small_universe):
    for R in small_universe:
        if not R.is_commutative:
            q = quotient_type(R, center(R))
            assert len(q.invariant_factors) >= 2, R.label


def test_render():
    assert AbelianGroupType((2, 6)).render() == "Z_2 x Z_6"
    assert AbelianGroupType(()).render() == "trivial"
    assert AbelianGroupType((3, 3)).to_json() == [3, 3]


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=48))
def test_every_type_of_each_order_is_distinct(n):
    types = abelian_group_types(n)
    assert len(set(types)) == len(types)
    for factors in types:
        t = AbelianGroupType(factors)  # divisibility chain validates
        assert t.order == n


def test_four_element_matrix_ring_quotient():
    R = four_element_matrix_ring()
    assert quotient_type(R, center(R)).invariant_factors == (2, 2)

"""The array steps of a ring's analysis against naive oracles: the distinct
centralizers against one `centralizer` call per element, the additive orders
against an element-by-element walk of the addition table, and the quotient
type against a coset table built entry by entry, whose element-order census
is matched against that of each abelian group of its order.  They run over
every gallery ring, every catalog ring of order <= 8, and every additive
subgroup of the gallery rings of order <= 36."""

import math
from collections import Counter

import numpy as np
import pytest

from ringcent import groups, rings
from ringcent.abelian import AbelianGroupType, quotient_type
from ringcent.centralizers import analyze, cent_set, center, centralizer
from ringcent.gallery import default_gallery
from ringcent.rings import FiniteRing, additive_subgroups


def naive_cent_set(R):
    distinct = {centralizer(R, r) for r in range(R.order)}
    return sorted(distinct, key=lambda s: s.members)


def naive_additive_orders(R):
    out = [1] * R.order
    for x in range(1, R.order):
        y, t = x, 1
        while y != 0:
            y = int(R.add[y, x])
            t += 1
        out[x] = t
    return out


def naive_quotient_type(R, S):
    """Classify R/S from a coset table built one entry at a time, each coset
    named by its smallest element: the one abelian group of its order with
    the same number of elements of each order.  The orders of
    Z_d1 x ... x Z_dk are those of the digit vectors of groups.coeff_vectors,
    lcm_i d_i / gcd(c_i, d_i)."""
    rep = [min(int(R.add[x, s]) for s in S) for x in range(R.order)]
    reps = sorted(set(rep))
    pos = {r: i for i, r in enumerate(reps)}
    table = [[pos[rep[int(R.add[a, b])]] for b in reps] for a in reps]
    q = len(reps)
    quotient = FiniteRing(np.array(table), np.zeros((q, q), dtype=np.int64))
    census = Counter(naive_additive_orders(quotient))
    matches = [
        factors for factors in groups.abelian_group_types(q)
        if census == Counter(
            math.lcm(*(d // math.gcd(int(c), d) for c, d in zip(row, factors)))
            for row in groups.coeff_vectors(factors))]
    assert len(matches) == 1, (census, matches)
    return AbelianGroupType(matches[0])


def _rings(gallery_rings, small_universe):
    return list(gallery_rings) + list(small_universe)


def test_cent_set_is_the_distinct_centralizers(gallery_rings, small_universe):
    for R in _rings(gallery_rings, small_universe):
        assert cent_set(R) == naive_cent_set(R), R.label


def test_additive_orders_match_the_walk(gallery_rings, small_universe):
    for R in _rings(gallery_rings, small_universe):
        assert R.additive_orders().tolist() == naive_additive_orders(R), R.label


def test_order_one_ring_has_orders_one():
    R = FiniteRing(np.zeros((1, 1)), np.zeros((1, 1)))
    assert R.additive_orders().tolist() == [1]


def test_quotient_by_center_matches_coset_loop(gallery_rings, small_universe):
    for R in _rings(gallery_rings, small_universe):
        Z = center(R)
        assert quotient_type(R, Z) == naive_quotient_type(R, Z), R.label


@pytest.mark.parametrize(
    "R", [R for R in default_gallery() if R.order <= 36], ids=lambda R: R.label)
def test_quotient_by_every_additive_subgroup_matches_coset_loop(R):
    for S in additive_subgroups(R):
        assert quotient_type(R, S) == naive_quotient_type(R, S), S.members


def test_one_analysis_builds_one_table_of_multiples_per_ring(gallery_rings,
                                                             monkeypatch):
    built = []
    multiples = rings._multiples

    def counted(add):
        built.append(add.shape[0])
        return multiples(add)

    monkeypatch.setattr(rings, "_multiples", counted)
    for R in gallery_rings:
        R = FiniteRing(R.add, R.mul, R.label)  # nothing cached yet
        built.clear()
        analyze(R).to_json()
        # (R, +) of order 1 is classified without one
        assert built == ([R.order] if R.order > 1 else []), R.label

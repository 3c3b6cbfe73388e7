"""The array steps of a ring's analysis against naive oracles: the distinct
centralizers against one `centralizer` call per element, the additive orders
against an element-by-element walk of the addition table, and the quotient
type against a coset table built entry by entry.  They run over every gallery
ring, every catalog ring of order <= 8, and every additive subgroup of the
gallery rings of order <= 36."""

import numpy as np
import pytest

from ringcent.abelian import _classify_orders, quotient_type
from ringcent.centralizers import cent_set, center, centralizer
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
    named by its smallest element."""
    rep = [min(int(R.add[x, s]) for s in S) for x in range(R.order)]
    reps = sorted(set(rep))
    pos = {r: i for i, r in enumerate(reps)}
    table = [[pos[rep[int(R.add[a, b])]] for b in reps] for a in reps]
    q = len(reps)
    quotient = FiniteRing(np.array(table), np.zeros((q, q), dtype=np.int64))
    return _classify_orders(np.array(naive_additive_orders(quotient)))


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

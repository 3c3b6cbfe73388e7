"""Golden of the lex-min group tables behind every canonical form.

For each abelian group type of order 2..16, and for (17,), (18,), (3, 6),
(19,), (21,), (23,), (25,), (5, 5) and (3, 3, 3), the golden records the
sha256 of the `table` and of the `sigma` that `_min_group_table` returns, so
a change that picks another minimal relabeling, or another table, shows.
Every entry is the output of the symmetry-pruned branch and bound that
searched for the lex-min table before the closed form replaced it.  The file
is not regenerated from `_min_group_table`: a golden written by the code it
checks would check nothing.
"""

import hashlib
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from ringcent import groups, kernels
from ringcent.enumeration import _min_group_table

GOLDEN = Path(__file__).parent / "golden" / "min_group_tables.json"
GOLDEN_TYPES = [tuple(int(d) for d in key.split("x"))
                for key in sorted(json.loads(GOLDEN.read_text()))]
TYPES = [f for n in range(2, 17) for f in groups.abelian_group_types(n)]


def _key(factors: tuple[int, ...]) -> str:
    return "x".join(map(str, factors))


def table_digest(factors: tuple[int, ...]) -> dict:
    table, sigma = _min_group_table(factors)
    return {name: hashlib.sha256(
                np.ascontiguousarray(a, dtype=np.int64).tobytes()).hexdigest()
            for name, a in (("table", table), ("sigma", sigma))}


def test_golden_covers_every_type_up_to_16():
    assert set(TYPES) <= set(GOLDEN_TYPES)


@pytest.mark.parametrize("factors", GOLDEN_TYPES, ids=_key)
def test_min_group_table_matches_golden(factors):
    expected = json.loads(GOLDEN.read_text())
    assert table_digest(factors) == expected[_key(factors)]


@pytest.mark.parametrize(
    "factors", [f for f in TYPES if len(groups.group_add_table(f)) <= 8],
    ids=_key)
def test_min_group_table_is_lex_min_over_every_relabeling(factors):
    T = groups.group_add_table(factors)
    n = T.shape[0]
    # every relabeling fixing 0, as sigma: old element -> new label
    sigmas = np.array([(0,) + p for p in itertools.permutations(range(1, n))])
    invs = np.empty_like(sigmas)
    invs[np.arange(len(sigmas))[:, None], sigmas] = np.arange(n)
    tables = sigmas[np.arange(len(sigmas))[:, None, None],
                    T[invs[:, :, None], invs[:, None, :]]]
    flat = tables.reshape(len(tables), -1)
    least = tables[np.lexsort(flat.T[::-1])[0]]
    table, sigma = _min_group_table(factors)
    assert np.array_equal(table, least)
    inv = np.argsort(sigma)
    assert np.array_equal(sigma[T[np.ix_(inv, inv)]], table)


def test_min_group_table_relabels_every_group_up_to_256():
    for n in range(1, 257):
        for factors in groups.abelian_group_types(n):
            T = groups.group_add_table(factors)
            table, sigma = _min_group_table(factors)
            assert sigma[0] == 0, factors
            assert np.array_equal(np.sort(sigma), np.arange(n)), factors
            inv = np.argsort(sigma)
            assert np.array_equal(sigma[T[np.ix_(inv, inv)]], table), factors
            assert kernels.add_table_check(table) is None, factors

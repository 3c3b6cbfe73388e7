"""Golden of the lex-min group tables behind every canonical form.

For each abelian group type of order 2..16 the golden records the sha256 of
the `table` and of the `sigma` that `_min_group_table` returns, so a change
to the search that picks another minimal leaf, or another table, shows.
(16,) and (2,8) stay in the file but are not checked here: they cost about
1.5 s each.  Regenerate with:

    PYTHONPATH=src python tests/test_min_group_golden.py
"""

import hashlib
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from ringcent import groups
from ringcent.enumeration import _min_group_table

GOLDEN = Path(__file__).parent / "golden" / "min_group_tables.json"
TYPES = [f for n in range(2, 17) for f in groups.abelian_group_types(n)]
UNCHECKED = {(16,), (2, 8)}


def _key(factors: tuple[int, ...]) -> str:
    return "x".join(map(str, factors))


def table_digest(factors: tuple[int, ...]) -> dict:
    table, sigma = _min_group_table(factors)
    return {name: hashlib.sha256(
                np.ascontiguousarray(a, dtype=np.int64).tobytes()).hexdigest()
            for name, a in (("table", table), ("sigma", sigma))}


@pytest.mark.parametrize(
    "factors", [f for f in TYPES if f not in UNCHECKED], ids=_key)
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


if __name__ == "__main__":
    doc = {_key(f): table_digest(f) for f in TYPES}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")

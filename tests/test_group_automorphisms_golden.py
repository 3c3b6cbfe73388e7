"""Golden of Aut(G) on the minimal group table behind every canonical form.

For each abelian group type of order 2..16, and for the order-17..27 types
of min_group_tables.json, the golden records how many automorphisms
`_min_group_automorphisms` lists and the sha256 of its rows sorted
lexicographically, so the row order may change but not the set.  The file
was written by the basis search over the zero ring on the group, which
listed the automorphisms before the coefficient-vector construction; the
brute-force test in test_enumeration.py covers only orders <= 8.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from ringcent import groups
from ringcent.enumeration import _min_group_automorphisms

GOLDEN = Path(__file__).parent / "golden" / "group_automorphisms.json"
GOLDEN_TYPES = [tuple(int(d) for d in key.split("x"))
                for key in sorted(json.loads(GOLDEN.read_text()))]


def _key(factors: tuple[int, ...]) -> str:
    return "x".join(map(str, factors))


def test_golden_covers_every_type_up_to_16():
    types = {f for n in range(2, 17) for f in groups.abelian_group_types(n)}
    assert types <= set(GOLDEN_TYPES)


@pytest.mark.parametrize("factors", GOLDEN_TYPES, ids=_key)
def test_min_group_automorphisms_match_golden(factors):
    rows = np.ascontiguousarray(_min_group_automorphisms(factors), dtype=np.int64)
    rows = rows[np.lexsort(rows.T[::-1])]
    expected = json.loads(GOLDEN.read_text())[_key(factors)]
    assert {"count": rows.shape[0],
            "sha256": hashlib.sha256(rows.tobytes()).hexdigest()} == expected

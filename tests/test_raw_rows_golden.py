"""Golden of the raw rows the structure search gives.

For (2,2,2), (3,3), (5,5), (7,7), (3,9) and (2,2,3), and for every g1*g1
value v of (2,2,2) and (2,2,4), the golden records the row count and the
sha256 of the int64 rows of `raw_structures`, in the order they come; the
rows of value v are those whose column 0, g1*g1 and the most significant
sort key, equals v, a contiguous slice of the whole type's rows.  These types
exercise forced cells by units mod 2, 3, 5 and 7.  Every entry was written
by the row-major search that the constraint-first search replaced; the file
is not regenerated from the code it checks.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from ringcent.enumeration import _search_inputs, raw_structures

GOLDEN = json.loads((Path(__file__).parent / "golden" / "raw_rows.json").read_text())
CASES = (
    [(key, None) for key in GOLDEN["types"]]
    + [(key, int(v)) for key, parts in GOLDEN["partitions"].items() for v in parts]
)


def _factors(key: str) -> tuple[int, ...]:
    return tuple(int(d) for d in key.split("x"))


@pytest.mark.parametrize("key, g11", CASES,
                         ids=[f"{k}" if v is None else f"{k}-g{v}" for k, v in CASES])
def test_raw_rows_match_golden(key, g11):
    rows = raw_structures(_factors(key))
    if g11 is not None:
        rows = rows[rows[:, 0] == g11]
    expected = (GOLDEN["types"][key] if g11 is None
                else GOLDEN["partitions"][key][str(g11)])
    got = {"rows": int(rows.shape[0]),
           "sha256": hashlib.sha256(
               np.ascontiguousarray(rows, dtype=np.int64).tobytes()).hexdigest()}
    assert got == expected


def test_golden_covers_every_partition():
    for key, parts in GOLDEN["partitions"].items():
        values = np.flatnonzero(_search_inputs(_factors(key))[0])
        assert sorted(map(int, parts)) == values.tolist()

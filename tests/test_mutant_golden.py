"""Golden of what each suite does on a table that is not a ring.

Each of the 48 single-entry multiplication mutants of row_ring(2) is loaded
without the law checks, and every suite is run alone on a fresh copy of it.
The outcome is "pass", "violation", or the class name of the exception the
suite raised.  The golden lists the distinct rows of outcomes (one per suite,
in suite-id order) and, for each mutant, the index of its row.  Regenerate
with:

    PYTHONPATH=src python tests/test_mutant_golden.py
"""

import json
from pathlib import Path

import numpy as np

from ringcent.gallery import row_ring
from ringcent.rings import FiniteRing
from ringcent.suites import SUITES, run_suite

from oracles import mutate_entry

GOLDEN = Path(__file__).parent / "golden" / "mutant_outcomes.json"


def _outcome(doc: dict, suite_id: str) -> str:
    forced = FiniteRing(np.asarray(doc["add"]), np.asarray(doc["mul"]),
                        doc["label"])
    try:
        return "pass" if run_suite(suite_id, [forced], "m").passed else "violation"
    except Exception as exc:  # the class of the error is what is pinned
        return type(exc).__name__


def mutant_outcomes() -> dict:
    R = row_ring(2)
    suite_ids = sorted(SUITES)
    rows: list[list[str]] = []
    mutants = {}
    for i in range(4):
        for j in range(4):
            for v in range(4):
                if v == int(R.mul[i, j]):
                    continue
                doc = mutate_entry(R, i, j, v)
                row = [_outcome(doc, sid) for sid in suite_ids]
                if row not in rows:
                    rows.append(row)
                mutants[f"mul[{i}][{j}]={v}"] = rows.index(row)
    return {"suites": suite_ids, "rows": rows, "mutants": mutants}


def test_suite_outcomes_on_forced_mutants_match_golden():
    assert mutant_outcomes() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(mutant_outcomes(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")

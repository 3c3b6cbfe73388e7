"""Golden of what `validate` says about every single-entry table mutant.

For each of four small rings, every entry of the addition table and of the
multiplication table is overwritten with each other element in turn, and the
mutant is validated.  The golden records, per ring and mutant, "ok" or the
class name and message of the error raised, so the first-failing-triple
messages are pinned byte for byte.  Both the FiniteRing and the parsed-JSON
forms of `validate` must give it.  Regenerate with:

    PYTHONPATH=src python tests/test_validate_golden.py
"""

import json
from pathlib import Path

from ringcent.errors import RingError
from ringcent.gallery import (
    four_element_matrix_ring,
    modular_ring,
    row_ring,
    upper_triangular_ring,
)
from ringcent.rings import FiniteRing, validate

GOLDEN = Path(__file__).parent / "golden" / "validate_errors.json"

SOURCES = [row_ring(2), modular_ring(4), four_element_matrix_ring(),
           upper_triangular_ring(2)]


def _outcome(spec) -> str:
    try:
        validate(spec)
    except RingError as exc:
        return f"{type(exc).__name__}: {exc}"
    return "ok"


def mutants(R):
    """(name, add, mul) for every single-entry mutant of R's two tables."""
    n = R.order
    for table in ("add", "mul"):
        for i in range(n):
            for j in range(n):
                for v in range(n):
                    if v == int(getattr(R, table)[i, j]):
                        continue
                    tables = {"add": R.add.copy(), "mul": R.mul.copy()}
                    tables[table][i, j] = v
                    yield f"{table}[{i}][{j}]={v}", tables["add"], tables["mul"]


def validate_errors(as_json: bool = False) -> str:
    doc = {}
    for R in SOURCES:
        out = {}
        for name, add, mul in mutants(R):
            spec = ({"order": R.order, "add": add.tolist(), "mul": mul.tolist(),
                     "label": R.label} if as_json
                    else FiniteRing(add, mul, R.label))
            out[name] = _outcome(spec)
        doc[R.label] = out
    return json.dumps(doc, indent=1) + "\n"


def test_validate_errors_on_ring_mutants_match_golden():
    assert validate_errors() == GOLDEN.read_text()


def test_validate_errors_on_json_mutants_match_golden():
    assert validate_errors(as_json=True) == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(validate_errors())
    print(f"wrote {GOLDEN}")

"""Golden of `inspect --json` on six rings of order 81..256.

For each ring the golden records the sha256 of
`json.dumps(analyze(R).to_json(), indent=2, sort_keys=True)`, the document
`ringcent inspect --json` prints, so any change to the centre, the
centralizers, d(R), R/Z(R) or the additive type of a large ring shows.  The
rings are the sources of the load-inspect benchmark workload, as built, not
relabeled.  Regenerate with:

    PYTHONPATH=src python tests/test_inspect_golden.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from ringcent.centralizers import analyze
from ringcent.gallery import (
    direct_product,
    modular_ring,
    quaternion_ring,
    row_ring,
    upper_triangular_ring,
)

GOLDEN = Path(__file__).parent / "golden" / "inspect_large.json"

SOURCES = {
    "modular_256": lambda: modular_ring(256),
    "row_2_x_modular_64": lambda: direct_product(row_ring(2), modular_ring(64)),
    "upper_triangular_5": lambda: upper_triangular_ring(5),
    "row_11": lambda: row_ring(11),
    "quaternion_3": lambda: quaternion_ring(3),
    "row_3_x_modular_27": lambda: direct_product(row_ring(3), modular_ring(27)),
}


def inspect_digest(name: str) -> str:
    doc = analyze(SOURCES[name]()).to_json()
    text = json.dumps(doc, indent=2, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_inspect_json_of_large_ring_matches_golden(name):
    assert inspect_digest(name) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    doc = {name: inspect_digest(name) for name in sorted(SOURCES)}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")

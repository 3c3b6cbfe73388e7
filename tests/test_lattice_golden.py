"""Golden of the subgroup and subring lattices of the 19 gallery rings.

For each gallery ring, in gallery order, the golden records its label, the
number of additive subgroups and of subrings, and the sha256 of both member
lists serialized as one JSON document.  Regenerate with:

    PYTHONPATH=src python tests/test_lattice_golden.py
"""

import hashlib
import json
from pathlib import Path

from ringcent.gallery import default_gallery
from ringcent.rings import additive_subgroups, subrings

GOLDEN = Path(__file__).parent / "golden" / "gallery_lattice.json"


def lattice_digest(R) -> dict:
    groups = [list(S.members) for S in additive_subgroups(R)]
    rings = [list(S.members) for S in subrings(R)]
    blob = json.dumps({"subgroups": groups, "subrings": rings})
    return {"ring": R.label, "subgroups": len(groups), "subrings": len(rings),
            "sha256": hashlib.sha256(blob.encode()).hexdigest()}


def test_gallery_lattices_match_golden():
    expected = json.loads(GOLDEN.read_text())
    assert [lattice_digest(R) for R in default_gallery()] == expected


if __name__ == "__main__":
    doc = [lattice_digest(R) for R in default_gallery()]
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {GOLDEN}")

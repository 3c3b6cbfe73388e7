"""Byte-for-byte golden of the iso-class catalogs of orders 1..13.

For each order the golden records the class count and the sha256 of the
representatives' specs (label, canonical add and mul tables) serialized as
one JSON list.  enumerate_rings must give it both without a catalog
directory and with one, whose journal writes each group type's rows to a
part file, read back by read_catalog.  Regenerate with:

    PYTHONPATH=src python tests/test_catalog_golden.py
"""

import hashlib
import json
from pathlib import Path

from ringcent.enumeration import cached_catalog, enumerate_rings, read_catalog

GOLDEN = Path(__file__).parent / "golden" / "catalog_1_13.json"
ORDERS = range(1, 14)


def digest(catalog) -> dict:
    reps = catalog.representatives
    blob = json.dumps([r.spec().to_json() for r in reps], sort_keys=True)
    return {"classes": len(reps),
            "sha256": hashlib.sha256(blob.encode()).hexdigest()}


def catalog_digest(n: int) -> dict:
    return digest(cached_catalog(n))


def test_catalog_matches_golden():
    expected = json.loads(GOLDEN.read_text())
    assert {str(n): catalog_digest(n) for n in ORDERS} == expected


def test_catalog_written_per_partition_and_read_back_matches_golden(tmp_path):
    expected = json.loads(GOLDEN.read_text())
    got = {}
    for n in ORDERS:
        enumerate_rings(n, out_dir=str(tmp_path / str(n)))
        got[str(n)] = digest(read_catalog(tmp_path / str(n)))
    assert got == expected


if __name__ == "__main__":
    doc = {str(n): catalog_digest(n) for n in ORDERS}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")

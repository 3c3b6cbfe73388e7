"""The benchmark's four workloads: set-up, the operations of one pass, and
the check of every operation's output.

Each workload drives the public API that one CLI verb calls.  A workload
is (prepare, load, operations): ``prepare`` writes input files into the
work directory (only ``load-inspect`` has files, and only they depend on the
seed), ``load`` returns the inputs, and ``operations`` lists the pass's
operations as (label, callable) pairs.  A callable returns None when its
output is right and a message when it is wrong; an exception it raises
counts as a failure too.
"""

import json
from collections import Counter
from fractions import Fraction

import numpy as np

# Package functions are called through their modules, so that the tracer,
# which patches module attributes, sees the calls made from here too.
from ringcent import centralizers, enumeration, gallery, rings, suites

GOLDEN = "tests/golden/verify_gallery.json"

# Isomorphism classes of rings of orders 1..13 (the table in README).
CATALOG_CLASSES = {1: 1, 2: 2, 3: 2, 4: 11, 5: 2, 6: 4, 7: 2, 8: 52, 9: 11,
                   10: 4, 11: 2, 12: 22, 13: 2}

# Raw structure counts of every order-16 additive group except Z_2^4,
# whose search does not finish in a benchmark run.
SEARCH16_RAW = {(16,): 16, (2, 8): 120, (4, 4): 616, (2, 2, 4): 4864}


def _product(a, b):
    return lambda: gallery.direct_product(a(), b())


# Source rings of load-inspect with their invariants: |Cent(R)|, d(R),
# |Z(R)| and the invariant factors of R/Z(R).  Relabeling keeps all four.
INSPECT_SOURCES = [
    (lambda: gallery.modular_ring(256), (1, Fraction(1), 256, [])),
    (_product(lambda: gallery.row_ring(2), lambda: gallery.modular_ring(64)),
     (4, Fraction(5, 8), 64, [2, 2])),
    (lambda: gallery.upper_triangular_ring(5), (7, Fraction(29, 125), 5, [5, 5])),
    (lambda: gallery.row_ring(11), (13, Fraction(131, 1331), 1, [11, 11])),
    (lambda: gallery.quaternion_ring(3), (14, Fraction(35, 243), 3, [3, 3, 3])),
    (_product(lambda: gallery.row_ring(3), lambda: gallery.modular_ring(27)),
     (5, Fraction(11, 27), 27, [3, 3])),
]


def _verify(universe):
    """`verify --suite all --universe <universe>`: the universe and results."""
    universe, name = suites.load_universe(universe)
    return universe, [suites.run_suite(sid, universe, name)
                      for sid in sorted(suites.SUITES)]


def _gallery_load(root, seed, workdir):
    return (root / GOLDEN).read_text()


def _gallery_ops(golden):
    def op():
        _, results = _verify("gallery")
        docs = [res.to_json(with_timing=False) for res in results]
        if json.dumps(docs, indent=2, sort_keys=True) + "\n" != golden:
            return f"verify JSON differs from {GOLDEN}"
        return None

    return [("verify gallery", op)]


def _catalog_load(root, seed, workdir):
    return CATALOG_CLASSES


def _catalog_ops(expected):
    def op():
        universe, results = _verify("catalog")
        counts = dict(sorted(Counter(R.order for R in universe).items()))
        if counts != expected:
            return f"class counts {counts} != {expected}"
        bad = sum(len(res.violations) for res in results)
        return f"{bad} violations" if bad else None

    return [("verify catalog", op)]


def _search_load(root, seed, workdir):
    return SEARCH16_RAW


def _search_ops(expected):
    def op_for(factors, count):
        def op():
            got = enumeration.raw_structures(factors).shape[0]
            return None if got == count else f"{got} raw structures, not {count}"

        return op

    return [(f"search {list(f)}", op_for(f, c)) for f, c in expected.items()]


def _inspect_prepare(root, seed, workdir):
    """Write one relabeled spec file per source ring; the seed picks each
    permutation (index 0 stays the additive zero)."""
    rng = np.random.default_rng(seed)
    for i, (build, _) in enumerate(INSPECT_SOURCES):
        ring = build()
        perm = np.concatenate([[0], 1 + rng.permutation(ring.order - 1)])
        ring.relabel(perm, f"{ring.label} relabeled").spec().save(
            workdir / f"ring{i}.json")


def _inspect_load(root, seed, workdir):
    return [(workdir / f"ring{i}.json", expected)
            for i, (_, expected) in enumerate(INSPECT_SOURCES)]


def _inspect_ops(inputs):
    def op_for(path, expected):
        def op():
            doc = centralizers.analyze(rings.load_ring(path)).to_json()
            json.dumps(doc, indent=2, sort_keys=True)  # what `inspect --json` prints
            degree = doc["degree"]
            got = (doc["cent_count"], Fraction(degree["num"], degree["den"]),
                   len(doc["center"]), doc["quotient_type"])
            return None if got == expected else f"{got} != {expected}"

        return op

    return [(f"inspect {path.name}", op_for(path, exp)) for path, exp in inputs]


WORKLOADS = {
    "gallery-verify": (None, _gallery_load, _gallery_ops),
    "catalog-verify": (None, _catalog_load, _catalog_ops),
    "search-16": (None, _search_load, _search_ops),
    "load-inspect": (_inspect_prepare, _inspect_load, _inspect_ops),
}

"""Exhaustive generation of small rings up to isomorphism.

The search space for order n is, per abelian group of that order, every
assignment of generator products compatible with the generator orders;
associativity is enforced on generators (bilinearity gives the rest, and
distributivity is automatic).  Each group type is searched whole, in one
depth-first walk; a run that keeps a journal writes each type's rows to a
part file as the type finishes, so a run that stops loses only the type it
was searching.
"""

import json
import math
import os
import time
from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from pathlib import Path
from typing import Optional

import numpy as np

from . import groups, kernels
from .abelian import classify_additive
# unused here; perfbench/test_perfbench.py checks that its tracer restores
# enumeration.cent_set (ROADMAP item 2 drops both)
from .centralizers import cent_set  # noqa: F401
from .errors import PartialUniverse, RingError, TooLarge, ValidationError
from .rings import (
    FiniteRing,
    RingSpec,
    _constants_make_ring,
    _int_array,
    structure_tables,
    validate,
)

MAX_ENUM_ORDER = 16

SCHEMA = 2  # of manifest.json: one journal record per group type

ENV_TIME_BUDGET = "RINGCENT_TIME_BUDGET_SECS"
DEFAULT_TIME_BUDGET_SECS = 120.0


# ---------------------------------------------------------------------------
# additive coordinates, read off the tables alone


def coordinates(R: FiniteRing) -> tuple[tuple[int, ...], np.ndarray]:
    """The invariant factors d1..dk of (R, +) and the coordinate map coords:
    coords[x] is the element of R with standard index x (groups.coeff_vectors)
    over an additive basis with ord(b_i) = d_i, coords[radix_weights(factors)].

    One greedy pass, largest factor first: for each factor d, the first
    element of order d whose multiples, added to the map so far, keep it
    injective becomes the next more significant digit.  It never
    backtracks: if G = H + K is direct and b, of the largest order e in K,
    meets H in 0, then b's K-part k has order e, so K = <k> + K' and
    H + <b> = H + <k> is again a direct summand, with a complement K' of the
    factors still to take (the standard proof of the structure theorem).
    """
    factors = classify_additive(R).invariant_factors
    orders = R.additive_orders()
    coords = np.zeros(1, dtype=np.int64)
    for d in factors[::-1]:
        for b in np.flatnonzero(orders == d):
            steps = R.multiples[b, :d]
            grown = R.add[steps[:, None], coords[None, :]].reshape(-1)
            if np.unique(grown).size == grown.size:
                coords = grown
                break
        else:
            raise ValidationError(f"no element of order {d} extends the "
                                  f"additive basis of {R.label}")
    return factors, coords


def _inverse(perm: np.ndarray) -> np.ndarray:
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.shape[0])
    return inv


# ---------------------------------------------------------------------------
# canonical form: one fixed addition table per additive type (a per-type
# constant), then the least multiplication transported onto it by the
# additive isomorphisms


@lru_cache(maxsize=None)
def _min_group_table(factors: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Lex-min Cayley table of the group over relabelings fixing 0, plus one
    relabeling sigma: standard index -> minimal-table label achieving it.

    The labels are mixed-radix digits, least significant first, along a
    composition series of the group: the primes p in ascending order, and
    for each p the Omega-layers l = 1, 2, ... from the bottom.  Layer l holds
    one radix-p digit per invariant factor d_j divisible by p^l, for the
    element (d_j // p^l) * g_j, the layer in ascending standard index.  The
    element with label digits c is c times the coefficient vectors of those
    elements, one product mod d.

    That this labeling is lex-min is checked, not proved: against every
    relabeling for orders <= 8 (tests/test_min_group_golden.py), and against
    the symmetry-pruned branch and bound this replaced, whose table and sigma
    the golden records for every type of order <= 16 (all of
    MAX_ENUM_ORDER) and for (17,), (18,), (3, 6), (19,), (21,), (23,),
    (25,), (5, 5) and (3, 3, 3).  Beyond those it is unproved.
    """
    T = groups.group_add_table(factors)
    w = groups.radix_weights(factors)
    gens, radices = [], []
    for p in sorted(groups.prime_factorization(math.prod(factors))):
        l = 1
        while any(d % p ** l == 0 for d in factors):
            layer = sorted(d // p ** l * w[j] for j, d in enumerate(factors)
                           if d % p ** l == 0)
            gens += layer
            radices += [p] * len(layer)
            l += 1
    labels = groups.coeff_vectors(tuple(radices[::-1]))
    inv = groups.encode(factors, labels @ groups.coeff_vectors(factors)[gens[::-1]])
    sigma = _inverse(inv)
    return sigma[T[np.ix_(inv, inv)]], sigma


@lru_cache(maxsize=None)
def _min_group_automorphisms(factors: tuple[int, ...]) -> np.ndarray:
    """(count, n) array of every automorphism of the minimal-table group:
    sigma o a o sigma^-1 for each automorphism a of groups.group_add_table.

    An automorphism a is fixed by the images x_i of the generators g_i: each
    x_i lies in the d_i-torsion, and a sends coefficient vector c to
    sum c_i x_i mod d.  The maps are built one generator at a time, keeping
    those injective on <g_1..g_i>; every map left after the last generator
    is a bijection, so an automorphism, and every automorphism is left."""
    cv = groups.coeff_vectors(factors)
    images = np.zeros((1, 0, len(factors)), dtype=np.int64)  # x_1..x_i per map
    for i, d in enumerate(factors):
        x = cv[groups.torsion_mask(factors, d)]
        images = np.concatenate((np.repeat(images, len(x), axis=0),
                                 np.tile(x, (len(images), 1))[:, None, :]), axis=1)
        span = groups.encode(factors, groups.coeff_vectors(factors[:i + 1]) @ images)
        images = images[(np.diff(np.sort(span), axis=1) != 0).all(axis=1)]
    std = groups.encode(factors, cv @ images)
    _, sigma = _min_group_table(factors)
    rows = sigma[std[:, _inverse(sigma)]]
    rows.setflags(write=False)  # shared by every caller of the cache
    return rows


def _transports(factors: tuple[int, ...],
                mul: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(least, orbit) for `mul`, given in standard coordinates (the encoding
    of groups.coeff_vectors), relabeled onto the minimal group table of
    `factors` and transported by each of its automorphisms.  least is the
    lexicographically least transport; orbit is (count, k*k) for k factors,
    every transport read back at the generators in standard coordinates, one
    row per automorphism of _min_group_automorphisms.  The (count, n, n)
    stack of transports lives only in this call."""
    _, sigma = _min_group_table(factors)
    inv0 = _inverse(sigma)
    M0 = sigma[mul[np.ix_(inv0, inv0)]]
    auts = _min_group_automorphisms(factors)
    inv = np.empty_like(auts)
    rows = np.arange(auts.shape[0])[:, None]
    inv[rows, auts] = np.arange(auts.shape[1])[None, :]
    tables = auts[rows[:, None], M0[inv[:, :, None], inv[:, None, :]]]
    flat = tables.reshape(tables.shape[0], -1)
    least = tables[np.lexsort(flat.T[::-1])[0]].copy()
    gens = sigma[list(groups.radix_weights(factors))]  # g_i on the minimal table
    orbit = inv0[tables[:, gens[:, None], gens[None, :]]]
    return least, orbit.reshape(tables.shape[0], len(factors) ** 2)


def canonical_form(R: FiniteRing) -> FiniteRing:
    """Canonical (add table, mul table) of R: isomorphic rings map to
    identical canonical forms, so equal forms decide isomorphism.  It and the
    orbit dedup of enumerate_rings read one action of Aut(G), _transports,
    the package's one isomorphism mechanism.

    R is relabeled by its coordinate map (coordinates), so its
    multiplication is read in standard coordinates; the least of its
    transports onto the minimal group table, the first value of _transports,
    is the canonical multiplication.  Isomorphic rings meet because the
    labelling per additive type is fixed and the transports run over all of
    Aut(G): the standard-coordinate multiplications of two isomorphic rings
    differ by an automorphism, so their transports are the same tables.  That
    _min_group_table is lex-min is checked for the pinned types, not relied
    on."""
    if R.order > MAX_ENUM_ORDER:
        raise TooLarge(f"canonical_form supports order <= {MAX_ENUM_ORDER}")
    factors, coords = coordinates(R)
    std = R.relabel(coords)
    return FiniteRing(_min_group_table(factors)[0],
                      _transports(factors, std.mul)[0], R.label)


# ---------------------------------------------------------------------------
# structure-constant enumeration


def _search_inputs(factors: tuple[int, ...]) -> np.ndarray:
    """(k*k, n) 0/1 mask: g_i*g_j lies in the gcd(d_i, d_j)-torsion."""
    masks = [groups.torsion_mask(factors, gcd(a, b)) for a in factors for b in factors]
    return np.array(masks, dtype=np.uint8).reshape(-1, math.prod(factors))


def raw_structures(factors: tuple[int, ...],
                   deadline: Optional[float] = None) -> np.ndarray:
    """All associative generator-product assignments on the given group, in
    lexicographic order.

    `deadline` is a time.monotonic() value; a search still running when it
    passes raises PartialUniverse naming the group and the nodes searched.
    """
    factors = tuple(int(d) for d in factors)
    assignments, status, nodes = kernels.structure_search(
        factors, _search_inputs(factors), deadline
    )
    if status != 0:
        raise PartialUniverse(f"time budget ran out on group {list(factors)}, "
                              f"after {nodes} search nodes")
    return assignments


def _constants(factors: tuple[int, ...], assignment: np.ndarray) -> np.ndarray:
    """(k, k, k) structure constants of one generator-product assignment, or
    (r, k, k, k) for a stack of r assignments."""
    k = len(factors)
    cv = groups.coeff_vectors(factors)
    assignment = np.asarray(assignment, dtype=np.int64)
    return cv[assignment].reshape(*assignment.shape[:-1], k, k, k)


def _orbit_classes(factors: tuple[int, ...], rows: np.ndarray) -> list[np.ndarray]:
    """Canonical multiplication of each Aut(G)-orbit among the raw rows of one
    group type, in the order of each orbit's first row.

    Rows are walked in search order, over one index from row bytes to row
    position (a repeated row maps to its last copy).  A row not yet seen is
    transported under every automorphism of the group (_transports): the
    least transport is its class's canonical multiplication, and the orbit's
    rows are marked seen.  The orbits must partition the rows, so an image
    that is not a raw row, an orbit in which the row itself does not occur
    |Stab| = |Aut(G)| / |orbit| times (orbit-stabilizer), or orbits that do
    not cover the rows (a row missing or repeated) raise RingError naming
    the group rather than give a wrong catalog.  The last two make the sum
    of |Aut(G)| / |Stab| over the classes equal the row count.

    One _constants_make_ring call proves the orbits' first rows, whose images
    are all the rows and classes; validate raises on a class it fails.
    """
    index = {row.tobytes(): i for i, row in enumerate(rows)}
    seen = np.zeros(rows.shape[0], dtype=bool)
    classes, firsts = [], []
    for i, row in enumerate(rows):
        if seen[i]:
            continue
        firsts.append(i)
        _, mul = structure_tables(factors, _constants(factors, row))
        least, images = _transports(factors, mul)
        orbit = [index.get(image.tobytes(), -1) for image in images]
        if -1 in orbit:
            raise RingError(
                f"group {list(factors)}: an automorphic image of raw structure "
                f"{row.tolist()} is not among the raw structures"
            )
        if len(set(orbit)) * orbit.count(index[row.tobytes()]) != len(orbit):
            raise RingError(f"group {list(factors)}: the orbit of raw structure "
                            f"{row.tolist()} breaks orbit-stabilizer")
        seen[orbit] = True
        classes.append(least)
    if seen.sum() != rows.shape[0]:
        raise RingError(
            f"group {list(factors)}: the automorphism orbits cover {seen.sum()} "
            f"structures, but the search gave {rows.shape[0]} rows"
        )
    proved = _constants_make_ring(factors, _constants(factors, rows[firsts]))
    for i in np.flatnonzero(~proved):
        validate(FiniteRing(_min_group_table(factors)[0], classes[i]))
    return classes


@dataclass
class IsoClassCatalog:
    """The isomorphism classes of rings of one order: one representative per
    class, and the raw structure count of each additive type."""

    order: int
    representatives: list[FiniteRing]
    per_type_raw: dict[tuple[int, ...], int]

    @property
    def class_count(self) -> int:
        return len(self.representatives)

    @property
    def raw_count(self) -> int:
        return sum(self.per_type_raw.values())

    def __iter__(self):
        return iter(self.representatives)


def _type_key(factors: tuple[int, ...]) -> str:
    """'2x2x4' for Z_2 x Z_2 x Z_4, and '1' for the trivial group."""
    return "x".join(map(str, factors)) or "1"


def time_budget() -> float:
    """Enumeration wall-clock budget from RINGCENT_TIME_BUDGET_SECS, 120 s
    when unset; anything but a positive number of seconds is a RingError."""
    raw = os.environ.get(ENV_TIME_BUDGET, "").strip()
    if not raw:
        return DEFAULT_TIME_BUDGET_SECS
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not value > 0:
        raise RingError(
            f"{ENV_TIME_BUDGET} must be a positive number of seconds, "
            f"not {raw!r}"
        )
    return value


def _stopped(exc: PartialUniverse, progress: str, start: float,
             budget: float) -> PartialUniverse:
    """exc, the search that ran out of time, with how far the run got."""
    return PartialUniverse(
        f"{exc}; {progress} finished, {time.monotonic() - start:.2f} s ran "
        f"against a {budget:g} s budget"
    )


def enumerate_rings(n: int, out_dir: Optional[str] = None,
                    resume: bool = False) -> IsoClassCatalog:
    """Catalog of the isomorphism classes of rings of order n.

    Dedup walks the raw structures of each group type in search order and
    takes the Aut(G)-orbit of each one not yet covered (_orbit_classes): two
    structures on one group are isomorphic exactly when an automorphism of
    the group carries one onto the other.  The first structure of each orbit
    becomes representative o{n}_c{k:03d}, stored in canonical tables: the
    least transported multiplication over the minimal group table, read from
    the same _transports call that gives the orbit, so the tables
    canonical_form gives.  The classes are numbered type by type in
    groups.abelian_group_types order.  Every class, searched or resumed, is
    proved on its orbit's first generator products (_orbit_classes).

    The search is bounded by a wall-clock deadline time_budget() from the
    start; a search still running at the deadline raises PartialUniverse,
    saying how far the run got, instead of returning a silently truncated
    catalog.  Each group type is searched whole, in one search, the types
    with the fewest invariant factors first (then in abelian_group_types
    order): the search grows with the k*k generator products, so a stop
    at the deadline has finished every cheaper type.  With out_dir set,
    each type's rows go to a part file and the manifest is rewritten after
    every type, so however the run stops, resume=True reuses the part files
    the manifest records as done, if they match it (see _load_part).
    """
    if n > MAX_ENUM_ORDER:
        raise TooLarge(f"exhaustive enumeration is capped at order {MAX_ENUM_ORDER}")
    if n < 1:
        raise TooLarge("order must be >= 1")
    if resume and not out_dir:
        raise RingError("resume needs out_dir, the catalog to resume from")
    budget = time_budget()
    start = time.monotonic()
    out_path = Path(out_dir) if out_dir else None
    recorded: list[dict] = []
    if out_path:
        recorded = _read_records(out_path, n, resume)
        (out_path / "parts").mkdir(parents=True, exist_ok=True)
        (out_path / "rings").mkdir(parents=True, exist_ok=True)
        _flush_manifest(out_path, n, recorded, complete=False)

    types = groups.abelian_group_types(n)
    raw_rows: dict[tuple[int, ...], np.ndarray] = {}
    type_log: dict[tuple[int, ...], dict] = {}
    for factors in sorted(types, key=len):  # fewest generators first
        name = f"t{_type_key(factors)}.json"
        rows = _load_part(out_path, name, recorded, factors)
        if rows is None:
            try:
                rows = raw_structures(factors, start + budget)
            except PartialUniverse as exc:
                raise _stopped(exc, f"{len(raw_rows)} of {len(types)} group "
                               "types", start, budget) from None
            if out_path:
                _save_part(out_path, name, factors, rows)
        raw_rows[factors] = rows
        type_log[factors] = {"factors": list(factors), "raw_count": int(rows.shape[0]),
                             "status": "done", "file": f"parts/{name}"}
        # keep the resumed records of the types not reached yet
        finished = [list(done) for done in type_log]
        _flush_manifest(out_path, n, list(type_log.values()) + [
            e for e in recorded if e.get("factors") not in finished],
            complete=False)

    reps = []
    for factors in types:
        table = _min_group_table(factors)[0]
        for cmul in _orbit_classes(factors, raw_rows[factors]):
            reps.append(FiniteRing(table, cmul, f"o{n}_c{len(reps):03d}"))
            reps[-1].proved = True  # by _orbit_classes
    catalog = IsoClassCatalog(
        n, reps, {factors: raw_rows[factors].shape[0] for factors in types})
    _flush_manifest(out_path, n, [type_log[factors] for factors in types],
                    complete=True, catalog=catalog)
    return catalog


# ---------------------------------------------------------------------------
# catalog persistence


def _write_atomic(path: Path, text: str) -> None:
    """Write via a temporary file in the same directory, so an interrupted
    run leaves either the old file or the new one, never a torn one."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _read_records(out_path: Path, n: int, resume: bool) -> list[dict]:
    """The group-type records of the order-n manifest at out_path to resume
    from; none without resume, or if the manifest is absent, unreadable or
    malformed.  A manifest of another order, or of another schema than
    SCHEMA (schema 1 journaled g1*g1 partitions), is a RingError, raised
    before anything is written: resuming into it, or writing over it, would
    orphan that catalog's files."""
    try:
        doc = json.loads((out_path / "manifest.json").read_text())
        order, schema = doc["order"], doc.get("schema")
    except (OSError, ValueError, KeyError, TypeError):
        return []
    refusal = (f"cannot {'resume' if resume else 'write'} order {n} in "
               f"{out_path}: its manifest.json ")
    if order != n:
        raise RingError(refusal + f"records a catalog of order {order}")
    if schema != SCHEMA:
        raise RingError(refusal + f"has schema {schema}, not {SCHEMA}")
    records = doc.get("types")
    ok = (resume and isinstance(records, list)
          and all(isinstance(e, dict) for e in records))
    return records if ok else []


def _save_part(out_path, name, factors, assignments) -> None:
    doc = {"factors": list(factors), "assignments": assignments.tolist()}
    _write_atomic(out_path / "parts" / name, json.dumps(doc))


def _load_part(out_path, name, recorded, factors) -> Optional[np.ndarray]:
    """Rows of group type factors if the manifest records it as done and its
    part file parses, matches that record on group and row count, and names
    only elements of the group; otherwise None, and the type is searched
    again."""
    done = [e for e in recorded if e.get("factors") == list(factors)
            and e.get("status") == "done" and e.get("file")]
    if not done:
        return None
    try:
        doc = json.loads((out_path / "parts" / name).read_text())
        rows = _int_array(doc["assignments"], "assignments")
        rows = rows.reshape(len(rows), len(factors) ** 2)  # order 1: (1, 0)
        ok = (tuple(doc["factors"]) == factors
              and rows.shape[0] == done[0].get("raw_count")
              and ((rows >= 0) & (rows < math.prod(factors))).all())
    except (OSError, ValueError, KeyError, TypeError, ValidationError):
        return None
    return rows if ok else None


def _flush_manifest(out_path, n, type_log, complete, catalog=None) -> None:
    if out_path is None:
        return
    doc = {
        "schema": SCHEMA,
        "order": n,
        "complete": complete,
        "types": type_log,
    }
    if catalog is not None:
        doc["raw_total"] = catalog.raw_count
        doc["classes"] = catalog.class_count
        doc["per_type_raw"] = {
            _type_key(t): c for t, c in catalog.per_type_raw.items()
        }
        files = []
        for ring in catalog.representatives:
            name = f"rings/{ring.label}.json"
            ring.spec().save(out_path / name)
            files.append(name)
        doc["rings"] = files
    _write_atomic(out_path / "manifest.json",
                  json.dumps(doc, indent=1, sort_keys=True) + "\n")


def read_catalog(path) -> IsoClassCatalog:
    """Load a catalog written by enumerate_rings(out_dir=...): class k of order n
    from rings/o{n}_c{k:03d}.json.  A manifest whose "complete" is not JSON
    true is a PartialUniverse; one whose order is outside 1..MAX_ENUM_ORDER,
    whose per_type_raw keys are not the group types of its order, or that
    lists other files is refused."""
    path = Path(path)
    try:
        doc = json.loads((path / "manifest.json").read_text())
        order, counts = doc["order"], doc.get("per_type_raw", {})
        if any(type(v) is not int for v in [order, *counts.values()]):
            raise TypeError("order and per_type_raw counts must be integers")
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise RingError(f"catalog at {path}: manifest.json is missing or "
                        f"malformed ({exc.__class__.__name__}: {exc})") from None
    if not 1 <= order <= MAX_ENUM_ORDER:  # before factoring it
        raise RingError(f"catalog at {path}: manifest.json order {order} is "
                        f"outside 1..{MAX_ENUM_ORDER}")
    if doc.get("complete") is not True:
        raise PartialUniverse(f"catalog at {path} is incomplete")
    types = {_type_key(t): t for t in groups.abelian_group_types(order)}
    if counts.keys() != types.keys():
        raise RingError(f"catalog at {path}: manifest.json per_type_raw keys "
                        f"{sorted(counts)} are not the group types "
                        f"{sorted(types)} of order {order}")
    per_type = {types[key]: count for key, count in counts.items()}
    classes, raw_total = doc.get("classes"), doc.get("raw_total")
    for field, value in (("classes", classes), ("raw_total", raw_total)):
        if type(value) is not int:
            raise RingError(f"catalog at {path}: manifest.json {field} is "
                            f"{json.dumps(value)}, not an integer")
    listed = doc.get("rings")
    ok = isinstance(listed, list) and len(listed) == classes  # before building names
    names = [f"rings/o{order}_c{k:03d}.json" for k in range(classes)] if ok else []
    if not ok or names != listed:
        raise RingError(f"catalog at {path}: manifest.json does not list the "
                        f"files of its {classes} classes")
    if raw_total != sum(per_type.values()):
        raise RingError(f"catalog at {path}: manifest.json counts "
                        f"{raw_total} raw rings but its per_type_raw "
                        f"sums to {sum(per_type.values())}")
    reps = []
    for name in names:
        spec = RingSpec.load(path / name)
        try:
            reps.append(validate(spec))
        except RingError as exc:
            raise type(exc)(f"catalog at {path}: {name}: {exc}") from None
        if reps[-1].order != order:
            raise RingError(f"catalog at {path}: {name} holds a ring of "
                            f"order {reps[-1].order}, not {order}")
    return IsoClassCatalog(order, reps, per_type)


# ---------------------------------------------------------------------------
# the catalog universe


_catalog_cache: dict[int, IsoClassCatalog] = {}


def cached_catalog(n: int) -> IsoClassCatalog:
    if n not in _catalog_cache:
        _catalog_cache[n] = enumerate_rings(n)
    return _catalog_cache[n]


def catalog_rings(max_order: int) -> list[FiniteRing]:
    """The catalog representatives of orders 1..max_order, by order."""
    if max_order > MAX_ENUM_ORDER:
        raise TooLarge(f"the catalog is capped at order {MAX_ENUM_ORDER}")
    return [ring for n in range(1, max_order + 1) for ring in cached_catalog(n)]

"""Finite rings as validated Cayley tables, plus element-set algebra.

A ring of order n is a pair of n x n tables over element indices 0..n-1 with
index 0 the additive identity.  Validation is eager and total: validate
proves every law on load and marks the ring it returns as proved, so
downstream code never revalidates.  The kernels prove each law on the
additive generators, which proves it for every triple, and scan triples only
to find the first failure of a table that is not a ring, which they raise
as its law's ValidationError; validate runs the three checks in order and
lets the first raise pass, proving each table's generators once
(kernels.shared_proofs).  Two kinds of ring are proved without the kernels.
A structure-constant ring, whether a RingSpec.structure, a gallery
construction or a catalog class, searched or resumed, is proved on its k^3
generator triples by _constants_make_ring: validate calls it on a spec, and
enumerate_rings on the first generator products of each class's orbit.  A
direct product of two proved rings (gallery.direct_product) inherits the
proof.  validate on a FiniteRing always proves again; any other new
FiniteRing, from the constructor, relabel or opposite, is unproved.
"""

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from json.scanner import py_make_scanner
from typing import Iterable, Optional

import numpy as np

from . import groups, kernels
from .errors import IndexOutOfRange, RingError, TooLarge, ValidationError

MAX_ORDER = 256


@dataclass(frozen=True)
class ElementSet:
    """Canonical subset of a ring's element indices: sorted, deduplicated."""

    members: tuple[int, ...]
    parent_order: int

    @staticmethod
    def of(indices: Iterable[int], parent_order: int) -> "ElementSet":
        members = tuple(sorted({int(i) for i in indices}))
        for i in members:
            if not 0 <= i < parent_order:
                raise IndexOutOfRange(
                    f"element {i} outside ring of order {parent_order}"
                )
        return ElementSet(members, parent_order)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, x: int) -> bool:
        return x in self.members

    def __iter__(self):
        return iter(self.members)


class FiniteRing:
    """Order-n ring as immutable addition and multiplication tables."""

    proved = False  # True once validate has proved every law on the tables

    def __init__(self, add: np.ndarray, mul: np.ndarray, label: Optional[str] = None):
        add = np.ascontiguousarray(np.asarray(add, dtype=np.int64))
        mul = np.ascontiguousarray(np.asarray(mul, dtype=np.int64))
        if add.ndim != 2 or add.shape[0] != add.shape[1] or add.shape != mul.shape:
            raise ValidationError("tables must be equal-sized square matrices")
        add.setflags(write=False)
        mul.setflags(write=False)
        self.add = add
        self.mul = mul
        self.label = label or f"ring{add.shape[0]}"
        self.analysis: dict = {}  # CentReport fields, computed once per ring

    @property
    def order(self) -> int:
        return self.add.shape[0]

    @cached_property  # the tables are read-only
    def is_commutative(self) -> bool:
        return bool(np.array_equal(self.mul, self.mul.T))

    @cached_property  # read-only, like the tables it is read off
    def multiples(self) -> np.ndarray:
        """The table j*x of the addition (rings._multiples)."""
        return _multiples(self.add)

    def additive_orders(self) -> np.ndarray:
        """Additive order of every element: the least j >= 1 with j*x = 0."""
        # columns 1..e of the multiples, since e*x = 0*x
        return (np.roll(self.multiples, -1, axis=1) == 0).argmax(axis=1) + 1

    def unity(self) -> Optional[int]:
        n = self.order
        ar = np.arange(n)
        for e in range(n):
            if np.array_equal(self.mul[e], ar) and np.array_equal(self.mul[:, e], ar):
                return e
        return None

    def has_unity(self) -> bool:
        return self.unity() is not None

    def whole_set(self) -> ElementSet:
        return ElementSet(tuple(range(self.order)), self.order)

    def relabel(self, perm: np.ndarray, label: Optional[str] = None) -> "FiniteRing":
        """Transport the tables along new_index -> old_index map `perm`."""
        perm = np.asarray(perm, dtype=np.int64)
        if perm.shape != (self.order,) or not np.array_equal(
                np.sort(perm), np.arange(self.order)):
            raise IndexOutOfRange(
                f"relabel map is not a permutation of 0..{self.order - 1}")
        inv = np.empty_like(perm)
        inv[perm] = np.arange(self.order)
        add = inv[self.add[np.ix_(perm, perm)]]
        mul = inv[self.mul[np.ix_(perm, perm)]]
        return FiniteRing(add, mul, label or self.label)

    def opposite(self) -> "FiniteRing":
        return FiniteRing(self.add, self.mul.T, f"{self.label}^op")

    def spec(self) -> "RingSpec":
        return RingSpec.explicit(self.add, self.mul, self.label)

    def __repr__(self) -> str:
        return f"FiniteRing({self.label!r}, order={self.order})"


class RingSpec:
    """On-disk ring description: explicit tables or structure constants."""

    def __init__(self, label, order=None, add=None, mul=None,
                 group=None, mul_constants=None):
        self.label = label
        self.order = order
        self.add = add
        self.mul = mul
        self.group = group
        self.mul_constants = mul_constants

    @staticmethod
    def explicit(add, mul, label=None) -> "RingSpec":
        return RingSpec(label, order=len(add), add=add, mul=mul)

    @staticmethod
    def structure(group, mul_constants, label=None) -> "RingSpec":
        return RingSpec(label, group=list(group), mul_constants=mul_constants)

    @property
    def is_explicit(self) -> bool:
        return self.add is not None

    @staticmethod
    def from_json(doc: dict) -> "RingSpec":
        if not isinstance(doc, dict):
            raise ValidationError("ring spec must be a JSON object")
        label = doc.get("label")
        if label is not None and not isinstance(label, str):
            raise ValidationError(f"ring spec label must be a string, not {label!r}")
        try:
            if "add" in doc:
                spec = RingSpec.explicit(doc["add"], doc["mul"], label)
                if "order" in doc:
                    spec.order = doc["order"]
                return spec
            if "group" in doc:
                return RingSpec.structure(doc["group"], doc["mul_constants"], label)
        except KeyError as exc:
            raise ValidationError(f"ring spec is missing key {exc}") from None
        except TypeError:
            raise ValidationError("ring spec tables and group must be lists") from None
        raise ValidationError("ring spec needs either explicit tables or a group")

    def to_json(self) -> dict:
        if self.is_explicit:
            add, mul = (t.tolist() if isinstance(t, np.ndarray) else t
                        for t in (self.add, self.mul))
            doc = {"order": self.order, "add": add, "mul": mul}
        else:
            doc = {"group": self.group, "mul_constants": self.mul_constants}
        if self.label is not None:
            doc = {"label": self.label, **doc}
        return doc

    @staticmethod
    def load(path) -> "RingSpec":
        """Read a spec file.  Below _DECODE_MIN characters, or with text
        other than ASCII, plain json decodes it; otherwise _SpecDecoder."""
        try:
            with open(path) as fh:
                text = fh.read()
            fast = len(text) >= _DECODE_MIN and text.isascii()
            doc = json.loads(text, cls=_SpecDecoder if fast else None)
        except OSError as exc:
            raise RingError(f"cannot read {path}: {exc.strerror}") from None
        except ValueError as exc:
            raise ValidationError(f"{path} is not valid JSON: {exc}") from None
        return RingSpec.from_json(doc)

    def save(self, path) -> None:
        """Write the spec compact, on one line: without indentation json
        runs its C encoder, several times faster on a 256-element table."""
        with open(path, "w") as fh:
            fh.write(json.dumps(self.to_json(), sort_keys=True) + "\n")


# Spec files in the layout RingSpec.save writes decode their tables straight
# into int64 arrays, a block of rows at a time, with byte masks in the way of
# Langdale & Lemire, "Parsing gigabytes of JSON per second" (VLDB J. 2019).
# Below _DECODE_MIN characters (order ~32) json's C decoder is faster.
_DECODE_MIN = 8192
_TABLE_BLOCK = 1 << 16  # characters of rows per block
_UNBRACKET = bytes.maketrans(b"[]", b"  ")


def _table_block(raw: bytes, width: int) -> Optional[np.ndarray]:
    """The rows in `raw`, such as b"[0, 1], [1, 0]", as an int64 array of
    `width` columns, or None unless `raw` is in the save layout: rows of
    `width` numbers, ", " between numbers, "], [" between rows, and numbers
    of at most 18 digits with no leading zero."""
    b = np.frombuffer(b"], " + raw + b", [", dtype=np.uint8)  # pad as rows
    digit = (b - 48) < 10
    comma, space, opening, closing = b == 44, b == 32, b == 91, b == 93
    # commas from each "[" to the next: one per number of that row (a block
    # has under 2**16 of them)
    widths = np.add.reduceat(comma, np.flatnonzero(opening), dtype=np.uint16)
    if not ((digit | comma | space | opening | closing).all()
            and np.array_equal(comma[:-1], space[1:])  # ", " and only that
            and np.array_equal(closing[:-3], opening[3:])  # "]" ... "["
            and (closing[:-1] <= comma[1:]).all()  # so "], [" between rows
            and ((space | opening)[:-1] <= (digit | opening)[1:]).all()
            and not ((b[1:-1] == 48) & digit[2:] & ~digit[:-2]).any()
            and (widths[:-1] == width).all()):
        return None
    # the C strtoll under np.fromstring clamps past 2**63, so a value below
    # 10**18 had at most 18 digits and is exact
    values = np.fromstring(raw.translate(_UNBRACKET), dtype=np.int64, sep=",")
    return values.reshape(-1, width) if values.max() < 10 ** 18 else None


def _scan_table(s: str, idx: int):
    """(int64 array, index past its "]") of the table whose first row starts
    at s[idx], if the table is in the save layout; None if not."""
    stop = s.find("]]", idx)  # where the first row-of-rows ends
    if stop < 0 or not s.startswith("[", idx):
        return None
    width = s.count(",", idx, s.find("]", idx)) + 1  # of the first row
    rows = s.count("], [", idx, stop) + 1
    if 3 * rows * width > stop + 1 - idx:  # each number takes 3 characters or more
        return None
    table = np.empty((rows, width), dtype=np.int64)
    row = 0
    while idx < stop:
        cut = 1 + (stop if stop - idx < _TABLE_BLOCK
                   else s.rfind("], [", idx, idx + _TABLE_BLOCK))
        block = _table_block(s[idx:cut].encode(), width) if cut > idx else None
        if block is None:
            return None
        table[row:row + len(block)] = block
        row += len(block)
        idx = cut + 2
    return table, stop + 2


class _SpecDecoder(json.JSONDecoder):
    """Decodes the value of an "add" or "mul" key with _scan_table.  Any
    other array goes whole to json's C scanner, so it decodes, or fails with
    the same message, exactly as under json.loads."""

    def __init__(self):
        super().__init__()
        scan_whole = self.scan_once  # the C scanner

        def parse_array(s_and_end, scan_once):
            s, end = s_and_end
            table = (_scan_table(s, end)
                     if s.endswith(('"add": ', '"mul": '), 0, end - 1) else None)
            return table or scan_whole(s, end - 1)

        self.parse_array = parse_array
        self.scan_once = py_make_scanner(self)  # calls parse_array


def structure_tables(factors: tuple[int, ...],
                     constants) -> tuple[np.ndarray, np.ndarray]:
    """Addition and multiplication tables of Z_{d1} x ... x Z_{dk} with
    generator products g_i g_j = sum_m constants[i][j][m] g_m.  A stack of
    constants, shape (r, k, k, k), gives a stack of r multiplication tables,
    shape (r, n, n), over the one addition table."""
    k = len(factors)
    d = np.array(factors, dtype=np.int64)
    C = np.asarray(constants, dtype=np.int64) % d  # coefficient m mod d_m
    add = groups.group_add_table(factors)
    cv = groups.coeff_vectors(factors)
    n = cv.shape[0]
    # (sum a_i g_i)(sum b_j g_j) = sum_i a_i (sum_j b_j (g_i g_j))
    stack = C.shape[:-3]
    right = (cv @ C).reshape(*stack, k, n * k)  # [i, (y, m)]
    return add, groups.encode(factors, (cv @ right).reshape(*stack, n, n, k))


def _int_array(value, what: str) -> np.ndarray:
    """value as an int64 array, if it is a rectangular array of integers
    below 2**63.  The dtype numpy infers tells, where an int64 conversion
    would truncate a float such as 1.7 or wrap 2**64 - 1 round to -1.  numpy
    reads a JSON true among integers as 1, so nested lists are searched for
    booleans."""
    try:
        array = np.asarray(value)
    except ValueError:  # ragged
        array = None
    if array is not None and array.ndim and not isinstance(value, np.ndarray):
        flat = value
        for _ in range(array.ndim - 1):
            flat = itertools.chain.from_iterable(flat)
        if bool in map(type, flat):
            array = None
    if array is None or (array.size and (array.dtype.kind not in "iu" or
                                         array.max() > np.iinfo(np.int64).max)):
        raise ValidationError(f"{what} is not a rectangular array of integers")
    return array.astype(np.int64, copy=False)


def _structure_constants(spec: RingSpec) -> tuple[tuple[int, ...], np.ndarray]:
    """The generator orders and (k, k, k) constants of a structure spec."""
    group = _int_array(spec.group, "group")
    if group.ndim != 1:
        raise ValidationError("group must be a list of integer generator orders")
    factors = tuple(int(d) for d in group)
    if any(d < 2 for d in factors):
        raise ValidationError("generator orders must all be >= 2")
    k = len(factors)
    n = math.prod(factors)
    if n > MAX_ORDER:
        raise TooLarge(f"structure-constant group has order {n} > {MAX_ORDER}")
    C = _int_array(spec.mul_constants, "mul_constants")
    if C.shape != (k, k, k):
        raise ValidationError(
            f"mul_constants must be {k}x{k} coefficient vectors of length {k}"
        )
    return factors, C


def _constants_make_ring(factors: tuple[int, ...], constants) -> np.ndarray:
    """Whether structure_tables(factors, C) makes a ring, for each (k, k, k) C
    of a (..., k, k, k) stack, decided on its k*k generator products alone.

    The expansion is bilinear, and so distributes on both sides, exactly
    when each g_i g_j lies in the gcd(d_i, d_j)-torsion: a product with
    d_j g_i g_j != 0 breaks g_i ((d_j - 1) g_j + g_j) = g_i 0, and likewise
    on the right.  A bilinear product is associative exactly when
    (g_a g_b) g_c = g_a (g_b g_c) for all k^3 generator triples, since both
    sides are trilinear.  These are the constraints structure_search imposes;
    the addition table is a group by construction.
    """
    d = np.array(factors, dtype=np.int64)
    C = constants % d  # coefficient m mod d_m
    torsion = (np.gcd.outer(d, d)[:, :, None] * C % d == 0).all(axis=(-3, -2, -1))
    # (g_a g_b) g_c = sum_m C[a,b,m] g_m g_c, g_a (g_b g_c) = sum_m C[b,c,m] g_a g_m
    left = np.einsum("...abm,...mcn->...abcn", C, C) % d
    right = np.einsum("...bcm,...amn->...abcn", C, C) % d
    return torsion & (left == right).all(axis=(-4, -3, -2, -1))


def validate(spec) -> FiniteRing:
    """Check every ring law on the spec's tables and return the ring.

    Accepts a RingSpec (either form), a parsed JSON dict, or a FiniteRing
    whose tables should be (re)checked; a FiniteRing's arrays are checked as
    they are.  A structure-constant spec is proved on its generator products
    (_constants_make_ring); explicit tables, a FiniteRing, and constants
    that make no ring go through the three law kernels.  Raises the specific
    law violation, as the first law check to fail raises it, naming the
    first failing triple in scan order.
    """
    if isinstance(spec, dict):
        spec = RingSpec.from_json(spec)
    proved = False
    if isinstance(spec, FiniteRing):
        add, mul = spec.add, spec.mul
    elif spec.is_explicit:
        add = _int_array(spec.add, "add")
        mul = _int_array(spec.mul, "mul")
        if spec.order is not None and type(spec.order) is not int:
            raise ValidationError(f"declared order {spec.order!r} is a "
                                  f"{type(spec.order).__name__}, not an integer")
        if spec.order is not None and spec.order != add.shape[0]:
            raise ValidationError(
                f"declared order {spec.order} != table size {add.shape[0]}"
            )
    else:
        factors, constants = _structure_constants(spec)
        add, mul = structure_tables(factors, constants)
        proved = bool(_constants_make_ring(factors, constants))
    n = add.shape[0]
    if n > MAX_ORDER:
        raise TooLarge(f"order {n} exceeds the ceiling of {MAX_ORDER}")
    if add.ndim != 2 or add.shape != (n, n) or mul.shape != (n, n):
        raise ValidationError("tables must be n x n")
    for name, t in (("add", add), ("mul", mul)):
        if t.min() < 0 or t.max() >= n:
            bad = np.argwhere((t < 0) | (t >= n))[0]
            raise IndexOutOfRange(
                f"{name}[{bad[0]}][{bad[1]}] = {t[bad[0], bad[1]]} "
                f"outside 0..{n - 1}"
            )

    if not proved:
        with kernels.shared_proofs():  # each check raises the law it breaks
            kernels.add_table_check(add)
            kernels.mul_assoc_check(add, mul)
            kernels.distrib_check(add, mul)

    ring = FiniteRing(add, mul, spec.label)
    ring.proved = True
    return ring


def load_ring(path) -> FiniteRing:
    return validate(RingSpec.load(path))


# ---------------------------------------------------------------------------
# element-set algebra


def _require_same_ring(R: FiniteRing, S: ElementSet) -> None:
    if S.parent_order != R.order:
        raise IndexOutOfRange(
            f"set over order {S.parent_order} used with ring of order {R.order}"
        )


def _closed(table: np.ndarray, S: ElementSet) -> bool:
    """True iff table[x, y] lies in S for all x, y in S."""
    mask = np.zeros(table.shape[0], dtype=bool)
    m = np.array(S.members, dtype=np.int64)
    mask[m] = True
    return bool(mask[table[np.ix_(m, m)]].all())


def is_additive_subgroup(R: FiniteRing, S: ElementSet) -> bool:
    """True iff S contains 0 and is closed under addition.  Negation needs
    no check: in a finite group, such a set is a subgroup."""
    _require_same_ring(R, S)
    return 0 in S.members and _closed(R.add, S)


def is_subring(R: FiniteRing, S: ElementSet) -> bool:
    """True iff S is an additive subgroup closed under multiplication."""
    return is_additive_subgroup(R, S) and _closed(R.mul, S)


MAX_SUBGROUPS = 100_000
# The lattice handles its subgroups a block at a time, each subgroup a row of
# a boolean member mask; BLOCK_CELLS bounds the cells of every temporary of
# a block, whatever the order of the ring.
BLOCK_CELLS = 1 << 16


def _multiples(add: np.ndarray) -> np.ndarray:
    """Read-only table m[x, j] = j*x for j below the exponent e of the
    group, the least j >= 1 with j*x = 0 for every x, built by doubling the
    number of columns until e is among them; element orders and group types
    are read off it.  On a table that is no group, the first x whose
    multiples never reach 0 is a ValidationError."""
    n = add.shape[0]
    m = np.zeros((n, 1), dtype=np.int64)
    step = np.arange(n)  # w*x for the current width w
    zero = [0]  # the j < w with j*x = 0 for every x
    while len(zero) == 1 and m.shape[1] < n and step.any():
        m = np.concatenate([m, add[m, step[:, None]]], axis=1)
        step = add[step, step]
        zero = np.flatnonzero(~m.any(axis=0))
    m = m[:, :zero[1]].copy() if len(zero) > 1 else m  # drop the wider table
    stray = np.flatnonzero(add[m[:, -1], np.arange(n)])  # e*x != 0
    if stray.size:
        raise ValidationError(f"element {stray[0]} has no additive order: "
                              f"its multiples never reach 0")
    m.setflags(write=False)
    return m


def _masks(keys: list[bytes], n: int) -> np.ndarray:
    """Member masks, one row per np.packbits row key."""
    packed = np.frombuffer(b"".join(keys), dtype=np.uint8)
    return np.unpackbits(packed.reshape(len(keys), -1), axis=1, count=n).view(bool)


def _joins(add16: np.ndarray, mult: np.ndarray, M: np.ndarray) -> np.ndarray:
    """S + <x> for every subgroup S (a row of M) and one x per coset x + S
    other than S, as mask rows."""
    n = add16.shape[0]
    # label[S, y] = least element of y + S, a masked min over S's columns
    label = np.maximum(add16, (~M * np.int16(n))[:, None, :]).min(axis=2)
    least = label == np.arange(n, dtype=np.int16)
    least[:, 0] = False  # the coset S itself
    row, x = np.nonzero(least)
    # S + <x> is the union of the cosets S + j*x: the y whose label is hit
    # (flat indices into label and into the (pair, label) table of hits)
    hit = np.zeros(row.size * n, dtype=bool)
    base = (np.arange(row.size) * n)[:, None]
    hit[base + label.ravel()[(row * n)[:, None] + mult[x]]] = True
    return hit[base + label[row]]


def additive_subgroups(R: FiniteRing) -> list[ElementSet]:
    """All additive subgroups, smallest first (then lexicographic).

    The lattice depends on the addition table alone, so it is built once
    per table content (_subgroup_lattice) and shared by every ring on that
    table, as all catalog representatives of one group type are.  More than
    MAX_SUBGROUPS subgroups, the ceiling as it reads at this call, is
    TooLarge naming R.
    """
    try:
        lattice = _subgroup_lattice(R.add.tobytes(), R.order)
        if len(lattice) <= MAX_SUBGROUPS:
            return list(lattice)
    except TooLarge:
        pass
    raise TooLarge(f"more than {MAX_SUBGROUPS} additive subgroups in {R.label}")


@lru_cache(maxsize=1)
def _subgroup_lattice(table: bytes, n: int) -> tuple[ElementSet, ...]:
    """The additive subgroups of the n x n int64 addition table whose bytes
    are `table`, in the order additive_subgroups returns them.

    Built breadth-first from {0}: each subgroup S is extended to S + <x> for
    one x per coset x + S, since every element of a coset gives the same
    S + <x>.  Each level is handled BLOCK_CELLS // n**2 subgroups at a time
    and deduplicated on packed mask bytes.  Past MAX_SUBGROUPS subgroups it
    stops with TooLarge, which the cache does not keep.
    """
    A = np.frombuffer(table, dtype=np.int64).reshape(n, n)
    add16 = A.astype(np.int16)
    mult = _multiples(A)
    rows = max(1, BLOCK_CELLS // (n * n))
    zero = np.packbits(np.arange(n) == 0).tobytes()
    width = len(zero)
    whole = np.packbits(np.ones(n, dtype=bool)).tobytes()  # extends to nothing
    seen = {zero, whole}
    frontier = [zero] if n > 1 else []
    while frontier:
        new = []
        for start in range(0, len(frontier), rows):
            joins = _joins(add16, mult, _masks(frontier[start:start + rows], n))
            buf = np.packbits(joins, axis=1).tobytes()
            for i in range(0, len(buf), width):
                key = buf[i:i + width]
                if key not in seen:
                    seen.add(key)
                    new.append(key)
            if len(seen) > MAX_SUBGROUPS:
                raise TooLarge(f"more than {MAX_SUBGROUPS} additive subgroups")
        frontier = new
    masks = _masks(list(seen), n)
    members = np.nonzero(masks)[1].tolist()
    ends = np.cumsum(masks.sum(axis=1)).tolist()
    return tuple(sorted((ElementSet(tuple(members[a:b]), n)
                         for a, b in zip([0, *ends], ends)),
                        key=lambda S: (len(S), S.members)))


def subrings(R: FiniteRing) -> list[ElementSet]:
    """All subrings: the additive subgroups closed under multiplication.

    A block of subgroups is tested at once on the products of its members.
    Each subgroup's members are padded to the block's widest with 0, whose
    products are 0 again; the subgroups come smallest first, and a block
    grows while its products and its member masks fit in BLOCK_CELLS cells.
    """
    groups = additive_subgroups(R)
    out = []
    start = 0
    while start < len(groups):
        end = start + 1
        while (end < len(groups) and (end + 1 - start) * max(
                len(groups[end]) ** 2, R.order) <= BLOCK_CELLS):
            end += 1
        block = groups[start:end]
        width = len(block[-1])
        members = np.array([S.members + (0,) * (width - len(S)) for S in block])
        row = np.arange(len(block))[:, None]
        inside = np.zeros((len(block), R.order), dtype=bool)
        inside[row, members] = True
        products = R.mul[members[:, :, None], members[:, None, :]]
        closed = inside[row, products.reshape(len(block), -1)].all(axis=1)
        out.extend(S for S, ok in zip(block, closed) if ok)
        start = end
    return out

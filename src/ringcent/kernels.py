"""Hot loops: table-law checking and structure-constant search.

Each kernel has one numpy implementation working on vectorized slabs.  The
law checks first try to prove their law from the additive generators of the
table, in O(k n^2) for k generators; only when that proof fails do they scan
all n^3 triples, to report the *first* failing triple in lexicographic scan
order, which is what validation error messages quote.  The structure search
emits its rows in lexicographic order and can stop at a wall-clock deadline.
"""

import time
import weakref
from functools import lru_cache

import numpy as np

OK = 0
BAD_IDENTITY = 1
NONCOMMUTATIVE_ADD = 2
NONASSOCIATIVE_ADD = 3
NO_INVERSE = 4
NONASSOCIATIVE_MUL = 5
NONDISTRIBUTIVE_LEFT = 6
NONDISTRIBUTIVE_RIGHT = 7

_PASS = (OK, -1, -1, -1)
_CHUNK_ROWS = 32          # slab height for vectorized triple checks
_BFS_CHUNK = 1 << 14      # partial assignments per slab in the search


def _scan(code, n, sides):
    """(code, i, j, k) for the first triple in lexicographic order where the
    two sides of a law differ, or None.  `sides(rows)` gives both sides for
    the triples whose first index is in `rows`, as two (rows, n, n) arrays."""
    for lo in range(0, n, _CHUNK_ROWS):
        rows = np.arange(lo, min(lo + _CHUNK_ROWS, n))
        lhs, rhs = sides(rows)
        bad = np.argwhere(lhs != rhs)
        if bad.size:
            i, j, k = bad[0]
            return code, int(rows[i]), int(j), int(k)
    return None


# ---------------------------------------------------------------------------
# proofs on additive generators
#
# Let G be a set of elements such that closing G under the addition table A
# reaches every element.  A law that holds on G and whose set of good
# elements is closed under A holds everywhere.  So:
#
# - A is associative iff (x+a)+y = x+(a+y) for all a in G and all x, y
#   (Light's test; Clifford & Preston, The Algebraic Theory of Semigroups I,
#   1961, section 1.2).
# - Once A is associative, M distributes over A on the left iff
#   x(y+g) = xy + xg for all g in G and all x, y, and on the right likewise.
# - Once both distributive laws hold, (xy)z = x(yz) is closed under A in each
#   of x, y and z, so M is associative iff it is on G x G x G.
#
# None of this needs an identity, commutativity or inverses in A, and every
# premise is checked on the tables given, so each kernel is exact for any
# input.


def _generators(A):
    """Generators of table A: closing them under A reaches every element.
    Each is the least element, taking 0 last, not reached by the ones before
    it, so a group of order n > 1 has at most log2(n) of them."""
    n = A.shape[0]
    reached = np.zeros(n, dtype=bool)
    gens = []
    for g in [*range(1, n), 0]:
        if reached[g]:
            continue
        gens.append(g)
        reached[g] = True
        new = np.array([g])
        while new.size:  # pair the new elements with all reached ones
            old = np.flatnonzero(reached)
            fresh = np.zeros(n, dtype=bool)
            fresh[A[np.ix_(new, old)]] = True
            fresh[A[np.ix_(old, new)]] = True
            fresh &= ~reached
            reached |= fresh
            new = np.flatnonzero(fresh)
    return np.array(gens, dtype=np.int64)


# The proofs are cached by table content.  When validate runs the three law
# kernels on one pair of tables, the generators are found and each law is
# proved on them once; each kernel stays exact for any input given alone.


class _Table:
    """Table T as a cache key: hashed by its bytes and compared entry by
    entry, holding only a weak reference to T, so a cache keeps no table
    alive.  A table changed in place after a check hashes anew, so it is
    proved again."""

    __slots__ = ("ref", "_hash")

    def __init__(self, T):
        self.ref = weakref.ref(T)
        self._hash = hash((T.shape, T.tobytes()))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        a, b = self.ref(), other.ref()
        return (a is not None and b is not None and a.shape == b.shape
                and bool((a == b).all()))


@lru_cache(maxsize=1)
def _associative_generators(a):
    """Generators of table a if it passes Light's associativity test on
    them, else None."""
    A = a.ref()
    gens = _generators(A)
    if not np.array_equal(A[A[:, gens], :], A[:, A[gens, :]]):
        return None
    gens.setflags(write=False)  # shared by every caller of the cache
    return gens


@lru_cache(maxsize=1)
def _distributes(a, m):
    """(left, right): whether table m distributes over table a on each side,
    proved on the generators of a; both False when a fails Light's test."""
    gens = _associative_generators(a)
    if gens is None:
        return False, False
    A, M = a.ref(), m.ref()
    # x(y+g) = xy + xg and (y+g)x = yx + gx for every generator g, all x, y
    left = np.array_equal(
        M[:, A[:, gens]], A[M[:, :, None], M[:, gens][:, None, :]])
    right = np.array_equal(
        M[A[:, gens], :], A[M[:, None, :], M[gens][None, :, :]])
    return left, right


# ---------------------------------------------------------------------------
# addition table: identity at 0, commutative, associative, inverses


def add_table_check(A):
    """First violated additive-group law in table A, or (OK, -1, -1, -1)."""
    n = A.shape[0]
    ar = np.arange(n)
    bad = np.flatnonzero(A[0] != ar)
    if bad.size:
        return BAD_IDENTITY, 0, int(bad[0]), -1
    bad = np.flatnonzero(A[:, 0] != ar)
    if bad.size:
        return BAD_IDENTITY, int(bad[0]), 0, -1
    sym = np.argwhere(A != A.T)
    if sym.size:
        up = sym[sym[:, 0] < sym[:, 1]]
        i, j = up[np.lexsort((up[:, 1], up[:, 0]))][0]
        return NONCOMMUTATIVE_ADD, int(i), int(j), -1
    if _associative_generators(_Table(A)) is None:
        bad = _scan(NONASSOCIATIVE_ADD, n,
                    lambda rows: (A[A[rows, :], :], A[rows][:, A]))
        if bad:
            return bad
    bad = np.flatnonzero(~(A == 0).any(axis=1))
    if bad.size:
        return NO_INVERSE, int(bad[0]), -1, -1
    return _PASS


# ---------------------------------------------------------------------------
# multiplication: associativity


def mul_assoc_check(A, M):
    """First associativity failure in M, or (OK, -1, -1, -1).  The addition
    table A only serves the proof on generators."""
    a = _Table(A)
    if all(_distributes(a, _Table(M))):
        gens = _associative_generators(a)
        prods = M[np.ix_(gens, gens)]
        if np.array_equal(M[prods][:, :, gens], M[gens][:, prods]):
            return _PASS
    return _scan(NONASSOCIATIVE_MUL, M.shape[0],
                 lambda rows: (M[M[rows, :], :], M[rows][:, M])) or _PASS


# ---------------------------------------------------------------------------
# distributivity (both sides)


def distrib_check(A, M):
    """First distributivity failure of M over A, or (OK, -1, -1, -1)."""
    n = A.shape[0]
    left, right = _distributes(_Table(A), _Table(M))
    if not left:
        bad = _scan(NONDISTRIBUTIVE_LEFT, n, lambda rows: (
            M[rows][:, A],
            A[M[rows, :][:, :, None], M[rows, :][:, None, :]]))
        if bad:
            return bad
    if not right:
        bad = _scan(NONDISTRIBUTIVE_RIGHT, n, lambda rows: (
            M[A[rows, :], :],
            A[M[rows][:, None, :], M[None, :, :]]))
        if bad:
            return bad
    return _PASS


# ---------------------------------------------------------------------------
# structure-constant search
#
# A bilinear multiplication on Z_{d1} x ... x Z_{dk} is a choice of g_i*g_j
# for every generator pair, i.e. k*k cells each holding a group element.
# Cells are filled in row-major order, one breadth-first level per cell;
# after each assignment every generator associativity constraint
# (g_a g_b) g_c = g_a (g_b g_c) whose inputs are all available is evaluated,
# pruning the row on a mismatch.  A constraint's inputs are cells (a,b),
# (b,c), plus (m,c) for m in the support of g_a*g_b and (a,m) for m in the
# support of g_b*g_c; the support-dependent cells make availability dynamic,
# so constraints are re-attempted while filling.  The candidate lists below
# guarantee each constraint is attempted at the depth where its last input
# arrives.
#
# Both sides are computed on element indices through lookup tables built
# once per search (_lookup_tables): with x = g_a g_b,
# (g_a g_b) g_c = sum_m x_m (g_m g_c) folds the elements x_m * (g_m g_c)
# with the group sum, and likewise for g_a (g_b g_c) = sum_m y_m (g_a g_m)
# with y = g_b g_c.  A term whose cell is not filled yet must have a zero
# coefficient for the constraint to be checkable.  Each constraint is
# evaluated only on the rows of the slab that passed the ones before it.


def constraint_candidates(k):
    """Per-cell candidate constraint triples.

    Cell t = i*k+j can complete exactly those constraints (a,b,c) whose input
    set meets it: inputs live in row a, column c, or are (a,b)/(b,c), so it
    suffices to take every triple with a == i or c == j or (a,b) == t or
    (b,c) == t.
    """
    offs = np.zeros(k * k + 1, dtype=np.int64)
    per_cell = []
    for t in range(k * k):
        i, j = divmod(t, k)
        lst = []
        for a in range(k):
            for b in range(k):
                for c in range(k):
                    if a == i or c == j or a * k + b == t or b * k + c == t:
                        lst.append((a, b, c))
        per_cell.append(np.array(lst, dtype=np.int64))
        offs[t + 1] = offs[t] + len(lst)
    return offs, np.concatenate(per_cell)


def _lookup_tables(factors, coeff):
    """Element-index tables of the group whose element x has coefficient
    vector coeff[x]: add[x*n+y] = x + y, scale[m][x*n+y] = coeff[x, m] * y,
    and zero[m][x] = (coeff[x, m] == 0)."""
    n, k = coeff.shape
    d = np.asarray(factors, dtype=np.int64)

    def number(vectors):  # mixed radix: one number per coefficient vector
        return np.ravel_multi_index(np.moveaxis(vectors % d, -1, 0), factors)

    index = np.empty(n, dtype=np.int64)
    index[number(coeff)] = np.arange(n)

    def elements(vectors):
        return index[number(vectors)].astype(np.int16).reshape(-1)

    add = elements(coeff[:, None, :] + coeff[None, :, :])
    scale = [elements(coeff[:, m, None, None] * coeff[None, :, :])
             for m in range(k)]
    zero = [coeff[:, m] == 0 for m in range(k)]
    return add, scale, zero


def structure_search(factors, coeff, allowed, deadline=None):
    """All associative generator-product assignments for one additive group.

    `factors` are the generator orders, `coeff[x]` the coefficient vector of
    element x, `allowed[cell, x]` a 0/1 mask of admissible products per cell.
    Returns (assignments, status, nodes) with the rows in lexicographic
    order.  `deadline` is a `time.monotonic()` value checked before every
    slab of _BFS_CHUNK partial assignments and before every constraint
    evaluated on a slab, so a run overshoots it by at most one constraint
    evaluation; once it has passed the search stops with status -1 and no
    rows.  `nodes` counts the partial assignments built.
    """

    def expired():
        return deadline is not None and time.monotonic() >= deadline

    k = len(factors)
    kk = k * k
    coeff = np.asarray(coeff, dtype=np.int64)
    n = coeff.shape[0]
    add, scale, zero = _lookup_tables(factors, coeff)

    def fold(total, term):
        return term if total is None else add[total.astype(np.intp) * n + term]

    cand_off, cand_abc = constraint_candidates(k)
    frontier = np.zeros((1, 0), dtype=np.int16)
    nodes = 0
    for t in range(kk):
        vals = np.flatnonzero(allowed[t]).astype(np.int16)
        cands = [(a, b, c)
                 for a, b, c in cand_abc[cand_off[t]:cand_off[t + 1]].tolist()
                 if a * k + b <= t and b * k + c <= t]
        survivors = []
        for lo in range(0, frontier.shape[0], _BFS_CHUNK):
            if expired():
                return np.zeros((0, kk), dtype=np.int64), -1, nodes
            part = frontier[lo:lo + _BFS_CHUNK]
            w, v = part.shape[0], vals.shape[0]
            ext = np.empty((w * v, t + 1), dtype=np.int16)
            ext[:, :t] = np.repeat(part, v, axis=0)
            ext[:, t] = np.tile(vals, w)
            nodes += ext.shape[0]
            cells = ext.T.astype(np.intp)  # cells[t] = column t of the live rows
            live = np.arange(ext.shape[0])
            for a, b, c in cands:
                if expired():
                    return np.zeros((0, kk), dtype=np.int64), -1, nodes
                x, y = cells[a * k + b], cells[b * k + c]
                xn, yn = x * n, y * n
                lhs = rhs = None  # m = b gives each side a filled term
                checkable = True
                for m in range(k):
                    mc, am = m * k + c, a * k + m
                    if mc <= t:
                        lhs = fold(lhs, scale[m][xn + cells[mc]])
                    else:
                        checkable = checkable & zero[m][x]
                    if am <= t:
                        rhs = fold(rhs, scale[m][yn + cells[am]])
                    else:
                        checkable = checkable & zero[m][y]
                bad = checkable & (lhs != rhs)
                if bad.any():
                    cells = cells[:, ~bad]
                    live = live[~bad]
            survivors.append(ext[live])
        frontier = (
            np.concatenate(survivors)
            if survivors
            else np.zeros((0, t + 1), dtype=np.int16)
        )
        if frontier.shape[0] == 0:
            return np.zeros((0, kk), dtype=np.int64), 0, nodes
    return frontier.astype(np.int64), 0, nodes

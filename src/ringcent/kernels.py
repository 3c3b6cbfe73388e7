"""Hot loops: table-law checking and structure-constant search.

Each kernel has one numpy implementation working on vectorized slabs.  The
law checks first try to prove their law from the additive generators of the
table, in O(k n^2) for k generators; only when that proof fails do they scan
all n^3 triples.  A check returns None when its law holds and otherwise
raises the ValidationError subclass of the law it finds broken, naming the
*first* failing triple in lexicographic scan order; validate passes these
errors on as they are.  The structure search emits its rows in
lexicographic order and can stop at a wall-clock deadline.
"""

import itertools
import time
from contextlib import contextmanager
from math import lcm
from typing import NamedTuple, Optional

import numpy as np

from . import groups
from .errors import (
    BadIdentityConvention,
    NoAdditiveInverse,
    NonAbelianAddition,
    NotAssociative,
    NotDistributive,
)

_CHUNK_ROWS = 32          # slab height for vectorized triple checks
_SLAB_CELLS = 1 << 16     # table entries per generator slab; cache-sized
_SLAB_COLUMNS = 1 << 14   # partial assignments per slab in the search
_proofs = None            # (proof, table ids) -> result in shared_proofs()


def _scan(error, law, n, sides):
    """Raise error("<law> at triple (i, j, k)") for the first triple in
    lexicographic order where the two sides of a law differ; None if there
    is none.  `sides(rows)` gives both sides for the triples whose first
    index is in `rows`, as two (rows, n, n) arrays."""
    for lo in range(0, n, _CHUNK_ROWS):
        rows = np.arange(lo, min(lo + _CHUNK_ROWS, n))
        lhs, rhs = sides(rows)
        bad = np.argwhere(lhs != rhs)
        if bad.size:
            i, j, k = bad[0]
            raise error(f"{law} at triple ({rows[i]}, {j}, {k})")


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
# - Once A is associative, M distributes over A on the right iff
#   (y+g)x = yx + gx for all g in G and all x, y.  If so and A is
#   commutative, the x whose x -> xy is additive are closed under A, so M
#   distributes on the left iff h(y+g) = hy + hg for all h, g in G and all
#   y; without both premises, it is checked for every h.
# - Once both distributive laws hold, (xy)z = x(yz) is closed under A in each
#   of x, y and z, so M is associative iff it is on G x G x G.
#
# None of this needs an identity or inverses in A, and every premise, the
# commutativity of A too, is checked on the tables given, so each kernel is
# exact for any input.


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


@contextmanager
def shared_proofs():
    """Memoize the generator proofs of the law checks run inside, by the ids
    of their tables: the caller keeps the tables alive and unchanged, as
    validate does for the three checks it runs on one pair.  Outside it,
    every check proves afresh."""
    global _proofs
    _proofs = {}
    try:
        yield
    finally:
        _proofs = None


def _proved(proof, *tables):
    """proof(*tables), memoized inside shared_proofs()."""
    if _proofs is None:
        return proof(*tables)
    key = (proof, *map(id, tables))
    if key not in _proofs:
        _proofs[key] = proof(*tables)
    return _proofs[key]


def _associative_generators(A):
    """Generators of table A in slabs of _SLAB_CELLS entries per table (one
    slab of all is twice as slow at n = 256), or None if Light's test fails."""
    gens = _generators(A)
    step = max(1, _SLAB_CELLS // A.size)
    slabs = [gens[i:i + step] for i in range(0, len(gens), step)]
    if all(np.array_equal(A[A[:, gs], :], A[:, A[gs, :]]) for gs in slabs):
        return slabs


def _distributes(A, M):
    """(left, right): whether table M distributes over table A on each side,
    proved on the generators of A; both False when A fails Light's test."""
    slabs = _proved(_associative_generators, A)
    if slabs is None:
        return False, False
    # (y+g)x = yx + gx for every generator g, all x, y
    right = all(np.array_equal(M[A[:, gs], :], A[M[:, None, :], M[gs][None]])
                for gs in slabs)
    # x(y+g) = xy + xg for x in gens when right and A commutative, else all x
    X = M[np.concatenate(slabs)] if right and np.array_equal(A, A.T) else M
    left = all(np.array_equal(X[:, A[:, gs]], A[X[:, :, None], X[:, gs][:, None]])
               for gs in slabs)
    return left, right


# ---------------------------------------------------------------------------
# addition table: identity at 0, commutative, associative, inverses


def add_table_check(A):
    """Raise the first additive-group law table A breaks, checked in the
    order identity at 0, commutativity, associativity, inverses."""
    n = A.shape[0]
    ar = np.arange(n)
    for line, cell in ((A[0], "add[0][{}]"), (A[:, 0], "add[{}][0]")):
        bad = np.flatnonzero(line != ar)
        if bad.size:
            at = cell.format(bad[0])
            raise BadIdentityConvention(
                f"element 0 is not the additive identity: {at} != {bad[0]}")
    sym = np.argwhere(A != A.T)
    if sym.size:
        i, j = sym[sym[:, 0] < sym[:, 1]][0]  # argwhere is in scan order
        raise NonAbelianAddition(f"add[{i}][{j}] != add[{j}][{i}]")
    if _proved(_associative_generators, A) is None:
        _scan(NonAbelianAddition, "addition not associative", n,
              lambda rows: (A[A[rows, :], :], A[rows][:, A]))
    bad = np.flatnonzero(~(A == 0).any(axis=1))
    if bad.size:
        raise NoAdditiveInverse(f"element {bad[0]} has no additive inverse")


# ---------------------------------------------------------------------------
# multiplication: associativity


def mul_assoc_check(A, M):
    """Raise NotAssociative at the first triple where M is not associative.
    The addition table A only serves the proof on generators."""
    if all(_proved(_distributes, A, M)):
        gens = np.concatenate(_proved(_associative_generators, A))
        prods = M[np.ix_(gens, gens)]
        if np.array_equal(M[prods][:, :, gens], M[gens][:, prods]):
            return
    _scan(NotAssociative, "multiplication not associative", M.shape[0],
          lambda rows: (M[M[rows, :], :], M[rows][:, M]))


# ---------------------------------------------------------------------------
# distributivity (both sides)


def distrib_check(A, M):
    """Raise NotDistributive at the first triple where M fails to distribute
    over A, the left law checked before the right."""
    n = A.shape[0]
    left, right = _proved(_distributes, A, M)
    if not left:
        _scan(NotDistributive, "left distributivity fails", n, lambda rows: (
            M[rows][:, A],
            A[M[rows, :][:, :, None], M[rows, :][:, None, :]]))
    if not right:
        _scan(NotDistributive, "right distributivity fails", n, lambda rows: (
            M[A[rows, :], :],
            A[M[rows][:, None, :], M[None, :, :]]))


# ---------------------------------------------------------------------------
# structure-constant search
#
# A bilinear multiplication on Z_{d1} x ... x Z_{dk} is a choice of g_i*g_j
# for every generator pair, i.e. k*k cells each holding a group element.
# The search fills one cell per level of a depth-first walk and checks the
# generator associativity constraints (g_a g_b) g_c = g_a (g_b g_c) as their
# inputs arrive.  A constraint's inputs are cells (a,b), (b,c), plus (m,c) for
# m in the support of g_a*g_b and (a,m) for m in the support of g_b*g_c.  So
# every input lies in row a or column c.  A constraint is checked on the
# children at the level of the later of (a,b) and (b,c), and forward checks
# every later level whose cell is in row a or column c (see below); the
# support-dependent inputs make availability differ from row to row, and a row
# is pruned only where every input is filled.  At the level of its last input a
# constraint is complete, so the rows left at the end are exactly the
# associative assignments, whatever the order.
#
# Cells are filled constraint first (fail first; Haralick & Elliott, 1980):
# the cells with one admissible value, then the row and column of the last
# generator, then those of the one before it, and so on, each generator's
# square g_k g_k first and the rest row-major within each group.  The square
# goes first because it is the product x or y of every constraint (k,k,c) and
# (a,k,k) and its support names their other inputs, so the rest of its row
# and column meet those constraints, as checks or forcing, as they are filled
# (Z_2^4 takes 36.6M nodes this way, 365M with the square last).  One lexsort
# restores row-major lexicographic order at the end.
#
# Forward checking into a value mask (same source): a constraint in which
# the new cell z = g_i g_j appears only as a term reads s z = r, where
# s = [c==j] x_i - [a==i] y_j for x = g_a g_b and y = g_b g_c, and r is the
# right side minus the left side over the other filled terms.  The cell's
# admissible values lie in the e-torsion, e the lcm of their orders, so one
# table per level, sol[s mod e, r], holds the values that solve it for any
# s, unit or not.  A parent keeps the values in sol[s, r] of every such
# constraint it can evaluate, so its children satisfy them all exactly, and
# only the constraints whose x or y is the new cell remain as checks.
#
# Both sides are computed on element indices through lookup tables built once
# per search (_Plan), in the standard encoding of groups.coeff_vectors, which
# reads an element's index off its coefficient vector with one product by the
# radix weights: with x = g_a g_b,
# (g_a g_b) g_c = sum_m x_m (g_m g_c) folds the elements x_m * (g_m g_c)
# with the group sum, and likewise for g_a (g_b g_c) = sum_m y_m (g_a g_m)
# with y = g_b g_c.  A term whose cell is not filled yet must have a zero
# coefficient for the constraint to be checkable.
#
# Layout: the walk keeps a stack of (level, slab) pairs, a slab being at most
# _SLAB_COLUMNS partial assignments of one level, column-major: one int16 row
# per filled cell and one column per assignment.  It pops the slab pushed last,
# expands it into the next level and pushes the survivors back in slabs, the
# first on top, so the stack holds one path of slabs at a time and not a whole
# level.  A popped slab is cast once to intp, the type the lookup tables hold
# and index with.  A parent's value mask is a row of uint64 words, one bit per
# admissible value; its children, or without forcing constraints the whole
# parents x values grid, go into one preallocated (cells, children) intp
# array.  A check masks the children it fails; the slab is compacted only once
# more than half of it is dead, so a constraint may be evaluated on children
# an earlier one failed, and its result there is ignored.  Complete
# assignments are gathered as int16 and transposed to rows once, at the end.


def _lookup_tables(factors):
    """Element-index tables of the group, with x_m the m-th coefficient of
    element x: add[x*n+y] = x + y, scale[m][x*n+y] = x_m * y,
    zero[m][x] = (x_m == 0), times[u*n+y] = u * y for u below the exponent
    of the group, and neg[y] = -y.  They hold intp, so their entries index
    the tables again without a cast."""
    coeff = groups.coeff_vectors(factors)
    k = len(factors)

    def elements(vectors):
        return groups.encode(factors, vectors).astype(np.intp).reshape(-1)

    add = elements(coeff[:, None, :] + coeff[None, :, :])
    scale = [elements(coeff[:, m, None, None] * coeff[None, :, :])
             for m in range(k)]
    zero = [coeff[:, m] == 0 for m in range(k)]
    times = elements(np.arange(lcm(*factors))[:, None, None] * coeff)
    neg = elements(-coeff)
    return add, scale, zero, times, neg


class _Constraint(NamedTuple):
    """One constraint (a,b,c) at one level, on the filled columns: x, y are
    the columns of g_a g_b and g_b g_c; lhs[m], rhs[m] the column of the term
    cells (m,c) and (a,m), -1 when not filled, None for the new cell's term
    in a forcing constraint; zi, zj the coordinates of x and y that multiply
    the new cell (None where it is not a term on that side)."""

    x: int
    y: int
    lhs: tuple
    rhs: tuple
    zi: Optional[int] = None
    zj: Optional[int] = None


class _Plan:
    """What one search derives from the group and the fill order, built once
    at its start: element-index lookup tables, the column of each cell, and
    per level the constraints to check on its children (x or y is its cell)
    and to forward check its parents with (its cell is a term)."""

    def __init__(self, factors, order):
        coeff = groups.coeff_vectors(factors)
        n, k = coeff.shape
        d = np.asarray(factors, dtype=np.int64)
        self.n, self.coeff = n, coeff
        self.add, self.scale, self.zero, self.times, self.neg = _lookup_tables(
            factors)
        # initial=1 for the trivial group: it has no factors, lcm no identity
        self.orders = np.lcm.reduce(d // np.gcd(d, coeff), axis=1, initial=1)

        pos = {cell: col for col, cell in enumerate(order)}
        self.pos = np.array([pos[t] for t in range(k * k)], dtype=np.intp)

        def terms(cells, level, skip):
            return tuple(None if cell == skip
                         else pos[cell] if pos[cell] <= level else -1
                         for cell in cells)

        self.checks = [[] for _ in order]
        self.forcing = [[] for _ in order]
        for a, b, c in itertools.product(range(k), repeat=3):
            ab, bc = pos[a * k + b], pos[b * k + c]
            lhs_cells = [m * k + c for m in range(k)]
            rhs_cells = [a * k + m for m in range(k)]
            q = max(ab, bc)
            self.checks[q].append(_Constraint(
                ab, bc, terms(lhs_cells, q, None), terms(rhs_cells, q, None)))
            for p, t in enumerate(order[q + 1:], q + 1):
                i, j = divmod(t, k)
                if a == i or c == j:
                    self.forcing[p].append(_Constraint(
                        ab, bc, terms(lhs_cells, p - 1, t),
                        terms(rhs_cells, p - 1, t),
                        i if c == j else None, j if a == i else None))

    def sides(self, cols, con):
        """(lhs, rhs, ok) of constraint con on the partial assignments whose
        filled cells are the rows of cols, an intp array of shape (cells,
        assignments): each side summed over its filled terms, one entry per
        assignment, and ok where every unfilled term has a zero coefficient.
        The new cell's term, in a forcing step, is in neither.  Each sum is
        accumulated in place in the array of its first term."""
        n, add = self.n, self.add
        sums, ok = [], True
        for v, term_cols in ((cols[con.x], con.lhs), (cols[con.y], con.rhs)):
            vn = v * n
            total = None
            for m, col in enumerate(term_cols):
                if col is None:
                    continue
                if col < 0:
                    ok = ok & self.zero[m][v]
                    continue
                term = self.scale[m][vn + cols[col]]
                if total is None:
                    total = term
                else:
                    total *= n
                    total += term
                    total = add[total]
            sums.append(total)  # the term m = b is always filled
        return sums[0], sums[1], ok

    def solutions(self, vals):
        """(e, sol) for a cell's admissible values vals, e the lcm of their
        orders: bit v of row s*n + r of sol is (s vals[v] == r) for s below
        e, then a row of ones for the assignments a constraint cannot check
        yet.  Each row is packed into uint64 words, little-endian bits."""
        n = self.n
        e = int(np.lcm.reduce(self.orders[vals], initial=1))
        prods = self.times[np.arange(e)[:, None] * n + vals]
        rows = np.ones((e * n + 1, vals.size), dtype=bool)
        rows[:-1] = (prods[:, None] == np.arange(n)[:, None]).reshape(
            e * n, vals.size)
        bits = np.packbits(rows, axis=1, bitorder="little")
        words = np.pad(bits, ((0, 0), (0, -bits.shape[1] % 8)))  # 8-byte rows
        return e, words.view(np.uint64)

    def value_mask(self, cols, forcing, e, sol, size, expired):
        """(assignments, size) 0/1 mask of the values every forcing constraint
        leaves the new cell, per column of cols laid out as in sides, with
        (e, sol) from solutions(); None once `expired()` is true."""
        coeff, add, neg, n = self.coeff, self.add, self.neg, self.n
        mask = np.repeat(sol[-1:], cols.shape[1], axis=0)
        for con in forcing:
            if expired():
                return None
            s = 0
            if con.zi is not None:
                s = coeff[cols[con.x], con.zi]
            if con.zj is not None:
                s = s - coeff[cols[con.y], con.zj]
            lhs, rhs, ok = self.sides(cols, con)
            row = s % e * n + add[rhs * n + neg[lhs]]
            mask &= sol[np.where(ok, row, e * n)]
        return np.unpackbits(mask.view(np.uint8), axis=1, count=size,
                             bitorder="little")


def structure_search(factors, allowed, deadline=None):
    """All associative generator-product assignments for one additive group.

    `factors` are the generator orders, elements are encoded as in
    groups.coeff_vectors, and `allowed[cell, x]` is a 0/1 mask of admissible
    products per cell.
    Returns (assignments, status, nodes) with the rows in lexicographic
    order.  `deadline` is a `time.monotonic()` value checked before every
    slab of at most _SLAB_COLUMNS parent partial assignments and before every
    constraint evaluated on a slab, forcing or checking, so a run overshoots
    it by at most one constraint evaluation; once it has passed the search
    stops with status -1 and no rows.  `nodes` counts the children built,
    at a level with forcing constraints only those that pass them all.  The
    slabs are walked depth first; a slab's children live in one column-major
    intp array, compacted once more than half of them fail (see the comment
    above _lookup_tables).
    """

    def expired():
        return deadline is not None and time.monotonic() >= deadline

    def stopped():
        return np.zeros((0, kk), dtype=np.int64), -1, nodes

    factors = tuple(int(f) for f in factors)
    k = len(factors)
    kk = k * k
    allowed = np.asarray(allowed).astype(bool)
    counts = allowed.sum(axis=1)
    order = tuple(sorted(range(kk), key=lambda t: (
        counts[t] > 1, -max(divmod(t, k)), t != (k + 1) * max(divmod(t, k)),
        t)))
    plan = _Plan(factors, order)
    vals = [np.flatnonzero(allowed[t]) for t in order]
    tables = [plan.solutions(v) if plan.forcing[p] else None
              for p, v in enumerate(vals)]
    stack = [(0, np.zeros((0, 1), dtype=np.int16))]  # one empty assignment
    leaves = [np.zeros((kk, 0), dtype=np.int16)]
    nodes = 0
    while stack:
        p, slab = stack.pop()
        if p == kk:
            leaves.append(slab)
            continue
        if expired():
            return stopped()
        part = slab.astype(np.intp)
        forcing, size = plan.forcing[p], vals[p].size
        if forcing:  # each parent with the values forcing leaves it
            mask = plan.value_mask(part, forcing, *tables[p], size, expired)
            if mask is None:
                return stopped()
            parent, value = np.divmod(np.flatnonzero(mask), size)
            cols = np.empty((p + 1, parent.size), dtype=np.intp)
            np.take(part, parent, axis=1, out=cols[:p])
            cols[p] = vals[p][value]
        else:  # every parent with every value
            w = part.shape[1]
            cols = np.empty((p + 1, w * size), dtype=np.intp)
            grid = cols.reshape(p + 1, w, size)
            grid[:p] = part[:, :, None]
            grid[p] = vals[p]
        nodes += cols.shape[1]
        dead = np.zeros(cols.shape[1], dtype=bool)
        for con in plan.checks[p]:
            if expired():
                return stopped()
            lhs, rhs, ok = plan.sides(cols, con)
            dead |= ok & (lhs != rhs)
            if 2 * np.count_nonzero(dead) > dead.size:
                cols = cols[:, ~dead]
                dead = np.zeros(cols.shape[1], dtype=bool)
        kept = cols.compress(~dead, axis=1).astype(np.int16)
        # the first slab goes on top, so children are walked in order
        stack.extend((p + 1, kept[:, lo:lo + _SLAB_COLUMNS]) for lo in
                     reversed(range(0, kept.shape[1], _SLAB_COLUMNS)))
    cols = np.concatenate(leaves, axis=1)[plan.pos]  # cells in row-major order
    if kk:  # lexsort needs a key; the trivial group has its one empty row
        cols = cols[:, np.lexsort(cols[::-1])]
    return np.ascontiguousarray(cols.T, dtype=np.int64), 0, nodes

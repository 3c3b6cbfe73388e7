"""Concrete ring constructions, materialized to validated Cayley tables.

Each construction is declared by structure constants: the orders of its
additive generators g_1..g_k and each product g_i g_j as a coefficient
vector.  Elements are indexed by the standard encoding of their coefficient
vectors (groups.coeff_vectors), so tables, reports and golden files are
stable across runs.
"""

import math
from functools import lru_cache

import numpy as np

from .errors import NotOddPrime, NotPrime, RingError, TooLarge
from .groups import is_prime
from .rings import MAX_ORDER, FiniteRing, RingSpec, validate


def _from_constants(factors, products, label) -> FiniteRing:
    """The validated ring on Z_{d1} x ... x Z_{dk} whose generator products
    are `products`, the k*k coefficient vectors of g_i g_j in row-major
    order (i, j).  It is validated as a structure-constant spec, so its
    generator products prove it, as they prove a spec file's ring.  Every
    construction's size cap is here."""
    n = math.prod(factors)
    if n > MAX_ORDER:
        raise TooLarge(f"{label} has order {n} > {MAX_ORDER}")
    k = len(factors)
    constants = np.reshape(np.asarray(products, dtype=np.int64), (k, k, k))
    return validate(RingSpec.structure(factors, constants, label))


@lru_cache(maxsize=None)
def four_element_matrix_ring() -> FiniteRing:
    """The noncommutative ring of the four equal-row 2x2 matrices over Z_2.

    Elements indexed in listing order: 0 -> [0 0;0 0], 1 -> [1 0;1 0],
    2 -> [0 1;0 1], 3 -> [1 1;1 1], so g1 = [0 1;0 1] and g2 = [1 0;1 0].
    [a b; a b][x y; x y] = (a+b) [x y; x y], so g_i g_j = g_j.
    """
    return _from_constants((2, 2), [(1, 0), (0, 1), (1, 0), (0, 1)],
                           "four_element_matrix_ring")


@lru_cache(maxsize=None)
def row_ring(p: int) -> FiniteRing:
    """Matrices [a b; 0 0] over Z_p; index = a*p + b.

    Generators E11, E12: E11 E11 = E11, E11 E12 = E12, and E12 x = 0."""
    if not is_prime(p):
        raise NotPrime(f"row_ring needs a prime, got {p}")
    return _from_constants((p, p), [(1, 0), (0, 1), (0, 0), (0, 0)],
                           f"row_ring({p})")


@lru_cache(maxsize=None)
def upper_triangular_ring(p: int) -> FiniteRing:
    """Unital ring of matrices [a b; 0 c] over Z_p; index = a*p^2 + b*p + c.

    Generators E11, E12, E22 with E_ij E_jl = E_il and every other product 0.
    """
    if not is_prime(p):
        raise NotPrime(f"upper_triangular_ring needs a prime, got {p}")
    e11, e12, e22, zero = (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)
    return _from_constants((p, p, p), [e11, e12, zero,
                                       zero, zero, e12,
                                       zero, zero, e22],
                           f"upper_triangular_ring({p})")


@lru_cache(maxsize=None)
def quaternion_ring(p: int) -> FiniteRing:
    """a + bi + cj + dk over Z_p with i^2 = j^2 = k^2 = -1, ij = k = -ji.

    Index is mixed-radix over (a, b, c, d).  p = 2 is rejected: with -1 = 1
    the displayed relations collapse to a commutative ring.  The default size
    budget supports p = 3 only.
    """
    if p == 2 or not is_prime(p):
        raise NotOddPrime(f"quaternion_ring needs an odd prime, got {p}")
    one, i, j, k = np.eye(4, dtype=np.int64)
    return _from_constants((p,) * 4, [one, i, j, k,
                                      i, -one, k, -j,
                                      j, -k, -one, i,
                                      k, j, -i, -one],
                           f"quaternion_ring({p})")


def direct_product(R: FiniteRing, S: FiniteRing) -> FiniteRing:
    """Componentwise ring on pairs; index = r*|S| + s.  A law holds on
    R x S exactly when it holds on R and on S, so the product of two proved
    rings is proved as built; otherwise validate checks it."""
    n = R.order * S.order
    if n > MAX_ORDER:
        raise TooLarge(f"product order {n} > {MAX_ORDER}")
    m = S.order
    add = (R.add[:, None, :, None] * m + S.add[None, :, None, :]).reshape(n, n)
    mul = (R.mul[:, None, :, None] * m + S.mul[None, :, None, :]).reshape(n, n)
    P = FiniteRing(add, mul, f"({R.label} x {S.label})")
    if R.proved and S.proved:
        P.proved = True
        return P
    return validate(P)


@lru_cache(maxsize=None)
def modular_ring(n: int) -> FiniteRing:
    """Z_n with mod-n addition and multiplication: g1 g1 = g1 for n > 1."""
    if n < 1:
        raise TooLarge(f"modular_ring order must be in 1..{MAX_ORDER}, got {n}")
    factors = (n,) if n > 1 else ()
    return _from_constants(factors, [(1,)] * len(factors), f"Z_{n}")


CONSTRUCTORS = {
    "four_element_matrix_ring": (four_element_matrix_ring, None),
    "row_ring": (row_ring, 2),
    "upper_triangular_ring": (upper_triangular_ring, 2),
    "quaternion_ring": (quaternion_ring, 3),
    "modular_ring": (modular_ring, 6),
}


def by_name(name: str, param: int | None = None) -> FiniteRing:
    """Look up a gallery constructor, e.g. by_name("row_ring", 3).  An
    unknown name is a KeyError; a parameter for a construction without one
    is a RingError."""
    if name not in CONSTRUCTORS:
        raise KeyError(f"unknown gallery ring {name!r}; "
                       f"choices: {', '.join(sorted(CONSTRUCTORS))}")
    func, default = CONSTRUCTORS[name]
    if default is None:
        if param is not None:
            raise RingError(f"{name} takes no parameter, got {param}")
        return func()
    return func(param if param is not None else default)


def default_gallery() -> list[FiniteRing]:
    """The standard verification universe of concrete constructions."""
    rings = [four_element_matrix_ring()]
    rings += [row_ring(p) for p in (2, 3, 5, 7, 11)]
    rings += [upper_triangular_ring(p) for p in (2, 3, 5)]
    rings.append(quaternion_ring(3))
    rings += [modular_ring(n) for n in (1, 2, 4, 6, 9, 16)]
    rings.append(direct_product(row_ring(2), modular_ring(3)))
    rings.append(direct_product(row_ring(2), row_ring(2)))
    rings.append(direct_product(row_ring(2), row_ring(3)))
    return rings

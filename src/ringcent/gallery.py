"""Concrete ring constructions, materialized to validated Cayley tables.

Element indexing is fixed per constructor (mixed-radix over the stated
coordinates) so tables, reports, and golden files are stable across runs.
"""

from functools import lru_cache

import numpy as np

from .errors import NotOddPrime, NotPrime, TooLarge
from .groups import is_prime
from .rings import MAX_ORDER, FiniteRing, validate


def _validated(add, mul, label) -> FiniteRing:
    return validate(FiniteRing(add, mul, label))


@lru_cache(maxsize=None)
def four_element_matrix_ring() -> FiniteRing:
    """The noncommutative ring of the four equal-row 2x2 matrices over Z_2.

    Elements indexed in listing order: 0 -> [0 0;0 0], 1 -> [1 0;1 0],
    2 -> [0 1;0 1], 3 -> [1 1;1 1].
    """
    mats = [((0, 0), (1, 0), (0, 1), (1, 1))[i] for i in range(4)]
    idx = {m: i for i, m in enumerate(mats)}
    add = [[idx[((a + x) % 2, (b + y) % 2)] for (x, y) in mats] for (a, b) in mats]
    # [a b; a b][x y; x y] = (a+b) [x y; x y]
    mul = [[idx[(((a + b) * x) % 2, ((a + b) * y) % 2)] for (x, y) in mats]
           for (a, b) in mats]
    return _validated(add, mul, "four_element_matrix_ring")


@lru_cache(maxsize=None)
def row_ring(p: int) -> FiniteRing:
    """Matrices [a b; 0 0] over Z_p; index = a*p + b."""
    if not is_prime(p):
        raise NotPrime(f"row_ring needs a prime, got {p}")
    if p * p > MAX_ORDER:
        raise TooLarge(f"row_ring({p}) has order {p * p} > {MAX_ORDER}")
    a, b = np.divmod(np.arange(p * p), p)
    add = ((a[:, None] + a[None, :]) % p) * p + (b[:, None] + b[None, :]) % p
    # [a b; 0 0][x y; 0 0] = [ax ay; 0 0]
    mul = ((a[:, None] * a[None, :]) % p) * p + (a[:, None] * b[None, :]) % p
    return _validated(add, mul, f"row_ring({p})")


@lru_cache(maxsize=None)
def upper_triangular_ring(p: int) -> FiniteRing:
    """Unital ring of matrices [a b; 0 c] over Z_p; index = a*p^2 + b*p + c."""
    if not is_prime(p):
        raise NotPrime(f"upper_triangular_ring needs a prime, got {p}")
    if p**3 > MAX_ORDER:
        raise TooLarge(f"upper_triangular_ring({p}) has order {p**3} > {MAX_ORDER}")
    n = p**3
    a, rem = np.divmod(np.arange(n), p * p)
    b, c = np.divmod(rem, p)

    def enc(x, y, z):
        return (x % p) * p * p + (y % p) * p + (z % p)

    A1, A2 = a[:, None], a[None, :]
    B1, B2 = b[:, None], b[None, :]
    C1, C2 = c[:, None], c[None, :]
    add = enc(A1 + A2, B1 + B2, C1 + C2)
    mul = enc(A1 * A2, A1 * B2 + B1 * C2, C1 * C2)
    return _validated(add, mul, f"upper_triangular_ring({p})")


@lru_cache(maxsize=None)
def quaternion_ring(p: int) -> FiniteRing:
    """a + bi + cj + dk over Z_p with i^2 = j^2 = k^2 = -1, ij = k = -ji.

    Index is mixed-radix over (a, b, c, d).  p = 2 is rejected: with -1 = 1
    the displayed relations collapse to a commutative ring.  The default size
    budget supports p = 3 only.
    """
    if p == 2 or not is_prime(p):
        raise NotOddPrime(f"quaternion_ring needs an odd prime, got {p}")
    if p**4 > MAX_ORDER:
        raise TooLarge(
            f"quaternion_ring({p}) has order {p**4} > {MAX_ORDER}; "
            "only p = 3 fits the default budget"
        )
    n = p**4
    digits = np.stack(
        [(np.arange(n) // p ** (3 - i)) % p for i in range(4)], axis=1
    )
    a1, b1, c1, d1 = (digits[:, i][:, None] for i in range(4))
    a2, b2, c2, d2 = (digits[:, i][None, :] for i in range(4))

    def enc(w, x, y, z):
        return ((w % p) * p**3 + (x % p) * p**2 + (y % p) * p + (z % p))

    add = enc(a1 + a2, b1 + b2, c1 + c2, d1 + d2)
    mul = enc(
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    )
    return _validated(add, mul, f"quaternion_ring({p})")


def direct_product(R: FiniteRing, S: FiniteRing) -> FiniteRing:
    """Componentwise ring on pairs; index = r*|S| + s."""
    n = R.order * S.order
    if n > MAX_ORDER:
        raise TooLarge(f"product order {n} > {MAX_ORDER}")
    m = S.order
    add = (R.add[:, None, :, None] * m + S.add[None, :, None, :]).reshape(n, n)
    mul = (R.mul[:, None, :, None] * m + S.mul[None, :, None, :]).reshape(n, n)
    return _validated(add, mul, f"({R.label} x {S.label})")


@lru_cache(maxsize=None)
def modular_ring(n: int) -> FiniteRing:
    """Z_n with mod-n addition and multiplication."""
    if not 1 <= n <= MAX_ORDER:
        raise TooLarge(f"modular_ring order must be in 1..{MAX_ORDER}, got {n}")
    ar = np.arange(n)
    add = (ar[:, None] + ar[None, :]) % n
    mul = (ar[:, None] * ar[None, :]) % n
    return _validated(add, mul, f"Z_{n}")


CONSTRUCTORS = {
    "four_element_matrix_ring": (four_element_matrix_ring, None),
    "row_ring": (row_ring, 2),
    "upper_triangular_ring": (upper_triangular_ring, 2),
    "quaternion_ring": (quaternion_ring, 3),
    "modular_ring": (modular_ring, 6),
}


def by_name(name: str, param: int | None = None) -> FiniteRing:
    """Look up a gallery constructor, e.g. by_name("row_ring", 3)."""
    if name not in CONSTRUCTORS:
        raise KeyError(f"unknown gallery ring {name!r}; "
                       f"choices: {', '.join(sorted(CONSTRUCTORS))}")
    func, default = CONSTRUCTORS[name]
    if default is None:
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

"""Finite abelian group plumbing: mixed-radix coordinates and group tables.

Elements of Z_{d1} x ... x Z_{dk} are encoded by the fixed mixed-radix rule
(c1, ..., ck) -> sum ci * prod(dj for j > i), i.e. c1 is the most significant
digit.  This is the package's one coordinate system: the structure search,
the expansion of structure constants (and so every gallery construction),
Aut(G) and the minimal group table, and the coordinate map of a given ring
(enumeration.coordinates) all use this one bijection.
"""

import itertools
import math
from functools import lru_cache

import numpy as np


def prime_factorization(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and prime_factorization(n) == {n: 1}


def smallest_prime_divisor(n: int) -> int:
    if n < 2:
        raise ValueError("no prime divisor of %d" % n)
    return min(prime_factorization(n))


def radix_weights(factors: tuple[int, ...]) -> tuple[int, ...]:
    k = len(factors)
    w = [1] * k
    for i in range(k - 2, -1, -1):
        w[i] = w[i + 1] * factors[i + 1]
    return tuple(w)


@lru_cache(maxsize=None)
def coeff_vectors(factors: tuple[int, ...]) -> np.ndarray:
    """(n, k) array: row x is the digit vector of element x.  Built once per
    group type and read-only, since every caller shares it."""
    k = len(factors)
    n = math.prod(factors)
    out = np.zeros((n, k), dtype=np.int64)
    w = radix_weights(factors)
    for i in range(k):
        out[:, i] = (np.arange(n) // w[i]) % factors[i]
    out.setflags(write=False)
    return out


def encode(factors: tuple[int, ...], vectors) -> np.ndarray:
    """Index of each coefficient vector along the last axis of `vectors`,
    digit i taken mod d_i: the inverse of coeff_vectors."""
    d = np.array(factors, dtype=np.int64)
    w = np.array(radix_weights(factors), dtype=np.int64)
    return (np.asarray(vectors, dtype=np.int64) % d) @ w


def group_add_table(factors: tuple[int, ...]) -> np.ndarray:
    """Cayley table of Z_{d1} x ... x Z_{dk} under the mixed-radix encoding."""
    factors = tuple(int(d) for d in factors)
    n = math.prod(factors)
    if not factors:
        return np.zeros((1, 1), dtype=np.int64)
    cv = coeff_vectors(factors)
    return encode(factors, cv[:, None, :] + cv[None, :, :])


def _partitions(n: int) -> list[tuple[int, ...]]:
    if n == 0:
        return [()]
    out = []

    def rec(rest, maxpart, acc):
        if rest == 0:
            out.append(tuple(acc))
            return
        for p in range(min(rest, maxpart), 0, -1):
            acc.append(p)
            rec(rest - p, p, acc)
            acc.pop()

    rec(n, n, [])
    return out


def invariant_factors(parts_by_prime: dict[int, list[int]]) -> tuple[int, ...]:
    """Ascending invariant-factor chain of the group whose p-part is
    Z_{p^a1} x Z_{p^a2} x ... for each p -> [a1 >= a2 >= ...]."""
    depth = max((len(parts) for parts in parts_by_prime.values()), default=0)
    descending = []
    for pos in range(depth):
        f = 1
        for p, parts in parts_by_prime.items():
            if pos < len(parts):
                f *= p ** parts[pos]
        descending.append(f)
    # descending prime partitions give descending invariant factors
    return tuple(reversed(descending))


def abelian_group_types(n: int) -> tuple[tuple[int, ...], ...]:
    """Invariant-factor chains (ascending divisibility) of all abelian groups
    of order n, in deterministic sorted order."""
    fact = prime_factorization(n)
    primes = sorted(fact)
    return tuple(sorted(
        invariant_factors(dict(zip(primes, parts)))
        for parts in itertools.product(*(_partitions(fact[p]) for p in primes))))


def torsion_mask(factors: tuple[int, ...], g: int) -> np.ndarray:
    """Boolean mask of elements x with g*x = 0 in the encoded group."""
    cv = coeff_vectors(factors)
    d = np.array(factors, dtype=np.int64)
    return ((cv * g) % d == 0).all(axis=1)

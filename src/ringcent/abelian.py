"""Invariant-factor classification of finite abelian groups.

Classification works from a census of the ring's table of multiples j*x
(FiniteRing.multiples): for each prime p, the count of elements killed by
p^j determines the p-part partition, and the p-part partitions merge into
one divisibility chain.  A quotient R/S is counted on the same table, an
element x + S being killed by p^j when p^j * x lies in S, so neither R/Z(R)
nor any other quotient is built as a group of its own.
"""

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import NotAdditiveSubgroup, ValidationError
from .groups import invariant_factors, prime_factorization
from .rings import ElementSet, FiniteRing, is_additive_subgroup


@dataclass(frozen=True)
class AbelianGroupType:
    """Invariant factors d1 | d2 | ... | dk (ascending); [] is the trivial
    group.  Equal types == isomorphic groups."""

    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        f = self.invariant_factors
        for a, b in zip(f, f[1:]):
            if b % a != 0:
                raise ValueError(f"{f} is not a divisibility chain")
        if f and f[0] < 2:
            raise ValueError("invariant factors must be >= 2")

    @property
    def order(self) -> int:
        return reduce(lambda a, b: a * b, self.invariant_factors, 1)

    def render(self) -> str:
        if not self.invariant_factors:
            return "trivial"
        return " x ".join(f"Z_{d}" for d in self.invariant_factors)

    def to_json(self) -> list[int]:
        return list(self.invariant_factors)


def _census(R: FiniteRing, S: tuple[int, ...]) -> AbelianGroupType:
    """Type of R/S for the additive subgroup with members S: for each prime
    p, R/S has p^e_j elements killed by p^j, where
    p^e_j * |S| = #{x : p^j * x in S}, and e_j - e_{j-1} parts of its
    p-partition are >= j."""
    inside = np.zeros(R.order, dtype=bool)
    inside[list(S)] = True
    partitions: dict[int, list[int]] = {}
    for p, a in prime_factorization(R.order // len(S)).items():
        m = R.multiples  # read on first use: a trivial R/S needs none
        e = [0]
        for j in range(1, a + 1):
            count = int(inside[m[:, p**j % m.shape[1]]].sum()) // len(S)
            e.append(round(math.log(count, p)))
            if p ** e[-1] != count:
                raise ValidationError("census is not a p-group layer")
        at_least = np.diff(e)
        partitions[p] = [int((at_least > i).sum()) for i in range(at_least.max())]
    return AbelianGroupType(invariant_factors(partitions))


def classify_additive(R: FiniteRing) -> AbelianGroupType:
    """Invariant factors of the additive group (R, +): the census of R/{0}."""
    return _census(R, (0,))


def quotient_type(R: FiniteRing, S: ElementSet) -> AbelianGroupType:
    """Type of the additive quotient group R/S, counted on the multiples of
    R (_census)."""
    if not is_additive_subgroup(R, S):
        raise NotAdditiveSubgroup(f"{S.members} is not an additive subgroup")
    return _census(R, S.members)

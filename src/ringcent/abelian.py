"""Invariant-factor classification of finite abelian groups.

Classification works from the element-order census: for each prime p, the
count of elements killed by p^j determines the p-part partition, and the
p-part partitions merge into one divisibility chain.  No matrix machinery is
needed because we always hold a full Cayley table.
"""

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import NotAdditiveSubgroup, ValidationError
from .groups import invariant_factors, prime_factorization
from .rings import ElementSet, FiniteRing, additive_orders, is_additive_subgroup


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


def _classify_orders(orders: np.ndarray) -> AbelianGroupType:
    n = orders.shape[0]
    if n == 1:
        return AbelianGroupType(())
    partitions: dict[int, list[int]] = {}
    for p, a in prime_factorization(n).items():
        # e_j = log_p #{x : p^j x = 0}; parts >= j in the p-partition = e_j - e_{j-1}
        prev = 0
        at_least = []
        for j in range(1, a + 1):
            pj = p**j
            count = int((pj % orders == 0).sum())
            e_j = count.bit_length() - 1 if p == 2 else round(np.log(count) / np.log(p))
            if p**e_j != count:
                raise ValidationError("census is not a p-group layer")
            at_least.append(e_j - prev)
            prev = e_j
            if e_j == a:
                break
        parts = [sum(1 for m in at_least if m >= i + 1) for i in range(max(at_least, default=0))]
        partitions[p] = sorted(parts, reverse=True)
    return AbelianGroupType(invariant_factors(partitions))


def classify_additive(R: FiniteRing) -> AbelianGroupType:
    """Invariant factors of the additive group (R, +)."""
    return _classify_orders(R.additive_orders())


def quotient_type(R: FiniteRing, S: ElementSet) -> AbelianGroupType:
    """Type of the additive quotient group R/S.

    Each coset is represented by its smallest element index; the quotient's
    Cayley table on those representatives is classified from its element
    orders (rings.additive_orders).
    """
    if not is_additive_subgroup(R, S):
        raise NotAdditiveSubgroup(f"{S.members} is not an additive subgroup")
    rep = R.add[:, list(S.members)].min(axis=1)  # smallest index in x + S
    reps = np.unique(rep)
    pos = np.zeros(R.order, dtype=np.int64)  # pos[r] = index of representative r
    pos[reps] = np.arange(reps.shape[0])
    table = pos[rep[R.add[np.ix_(reps, reps)]]]
    return _classify_orders(additive_orders(table))

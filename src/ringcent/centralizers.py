"""Centralizers, the center, the centralizer set, and commutativity degree.

The whole engine runs off one boolean matrix B = (mul == mul.T): row r is the
indicator of C(r), the center is the all-true rows, and the distinct rows are
exactly the distinct centralizers.
"""

from fractions import Fraction

import numpy as np

from .abelian import AbelianGroupType, classify_additive, quotient_type
from .errors import IndexOutOfRange, ValidationError
from .rings import ElementSet, FiniteRing, is_subring


def _commutation_matrix(R: FiniteRing) -> np.ndarray:
    return R.mul == R.mul.T


def centralizer(R: FiniteRing, r: int) -> ElementSet:
    """C(r) = {s : rs = sr}, always a subring containing the center."""
    if not 0 <= r < R.order:
        raise IndexOutOfRange(f"element {r} outside ring of order {R.order}")
    members = np.flatnonzero(R.mul[r] == R.mul[:, r])
    result = ElementSet.of(members, R.order)
    if not is_subring(R, result):
        raise ValidationError("centralizer is not a subring")
    return result


def center(R: FiniteRing) -> ElementSet:
    """Z(R) = elements commuting with everything."""
    return ElementSet.of(np.flatnonzero(_commutation_matrix(R).all(axis=1)), R.order)


def cent_set(R: FiniteRing) -> list[ElementSet]:
    """Distinct centralizers of all elements, sorted lexicographically.

    The whole ring is always a member (it is C(0)); a commutative ring has
    exactly one centralizer.
    """
    B = _commutation_matrix(R)
    packed = np.packbits(B, axis=1)
    _, first = np.unique(packed.view(np.dtype((np.void, packed.shape[1]))),
                         return_index=True)
    sets = [ElementSet(tuple(np.flatnonzero(B[r]).tolist()), R.order)
            for r in first]
    return sorted(sets, key=lambda s: s.members)


def commutativity_degree(R: FiniteRing) -> Fraction:
    """d(R) = sum |C(r)| / |R|^2, exact and reduced."""
    commuting_pairs = int(_commutation_matrix(R).sum())
    return Fraction(commuting_pairs, R.order**2)


class _per_ring:
    """A CentReport field computed on first read and kept in the ring's
    `analysis` (not on the report, which would make a ring-report cycle)."""

    def __init__(self, compute):
        self.compute = compute
        self.name = compute.__name__

    def __get__(self, report, owner=None):
        if report is None:
            return self
        values = report.ring.analysis
        if self.name not in values:
            values[self.name] = self.compute(report)
        return values[self.name]


class CentReport:
    """Everything the package knows about one ring's centralizer structure.

    The report keeps its ring, label, order and commutativity (which the
    ring caches), and computes every other field on first access, once per
    ring, so a field nobody reads is never computed.  A field that fails on
    a bad table raises for every reader of it, not when the report is made.
    """

    def __init__(self, ring: FiniteRing):
        self.ring = ring
        self.ring_label = ring.label
        self.order = ring.order
        self.is_commutative = ring.is_commutative

    @_per_ring
    def center(self) -> ElementSet:
        return center(self.ring)

    @_per_ring
    def centralizers(self) -> tuple[ElementSet, ...]:
        return tuple(cent_set(self.ring))

    @property
    def cent_count(self) -> int:
        return len(self.centralizers)

    @_per_ring
    def degree(self) -> Fraction:
        return commutativity_degree(self.ring)

    @_per_ring
    def quotient_type(self) -> AbelianGroupType:
        return quotient_type(self.ring, self.center)

    @_per_ring
    def additive_type(self) -> AbelianGroupType:
        return classify_additive(self.ring)

    def to_json(self) -> dict:
        return {
            "ring_label": self.ring_label,
            "order": self.order,
            "is_commutative": self.is_commutative,
            "center": list(self.center.members),
            "centralizers": [list(c.members) for c in self.centralizers],
            "cent_count": self.cent_count,
            "degree": {"num": self.degree.numerator, "den": self.degree.denominator},
            "quotient_type": self.quotient_type.to_json(),
            "additive_type": self.additive_type.to_json(),
        }


def analyze(R: FiniteRing) -> CentReport:
    """Lazy report of R; all reports of one ring object share its fields, so
    each is computed at most once per ring."""
    return CentReport(R)

"""Centralizer structure, commutativity degree, and exhaustive enumeration
of small finite rings represented as Cayley tables."""

from .abelian import (
    AbelianGroupType,
    classify_additive,
    quotient_type,
)
from .centralizers import (
    CentReport,
    analyze,
    cent_set,
    center,
    centralizer,
    commutativity_degree,
)
from .enumeration import (
    IsoClassCatalog,
    canonical_form,
    enumerate_rings,
)
from .errors import (
    BadIdentityConvention,
    EmptyUniverse,
    IndexOutOfRange,
    NoAdditiveInverse,
    NonAbelianAddition,
    NotAdditiveSubgroup,
    NotAssociative,
    NotDistributive,
    NotOddPrime,
    NotPrime,
    PartialUniverse,
    RingError,
    TooLarge,
    UnknownSuite,
    ValidationError,
)
from .rings import (
    ElementSet,
    FiniteRing,
    RingSpec,
    is_subring,
    load_ring,
    validate,
)
from .suites import SUITES, SuiteResult, run_all, run_suite

__version__ = "0.1.0"

__all__ = [
    "AbelianGroupType", "CentReport", "ElementSet", "FiniteRing",
    "IsoClassCatalog", "RingSpec", "SuiteResult", "SUITES",
    "analyze", "canonical_form", "cent_set", "center", "centralizer",
    "classify_additive", "commutativity_degree", "enumerate_rings",
    "is_subring", "load_ring", "quotient_type", "run_all", "run_suite",
    "validate",
    "RingError", "ValidationError", "BadIdentityConvention",
    "NonAbelianAddition", "NoAdditiveInverse", "NotAssociative",
    "NotDistributive", "IndexOutOfRange", "NotAdditiveSubgroup",
    "NotPrime", "NotOddPrime", "TooLarge", "UnknownSuite",
    "EmptyUniverse", "PartialUniverse",
]

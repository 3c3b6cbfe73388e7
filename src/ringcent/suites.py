"""Named theorem suites run over a universe of rings.

Each suite checks one proved statement about centralizer structure across
every ring in the universe.  A violation therefore indicates an artifact
bug, not a counterexample; the offending ring's spec is kept on the result
so the CLI can dump it for triage.  Every suite reads the same lazy
CentReport of each ring, so Cent(R), Z(R), d(R) and R/Z(R) are computed at
most once per ring however many suites run.
"""

import functools
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, Optional

from . import gallery
from .centralizers import CentReport, analyze, cent_set
from .enumeration import catalog_rings, read_catalog
from .errors import EmptyUniverse, RingError, UnknownSuite, ValidationError
from .groups import is_prime, prime_factorization, smallest_prime_divisor
from .rings import ElementSet, FiniteRing, load_ring, subrings


@dataclass
class Violation:
    ring_label: str
    expected: str
    observed: str
    spec: dict

    def to_json(self) -> dict:
        return {
            "ring": self.ring_label,
            "expected": self.expected,
            "observed": self.observed,
        }


@dataclass
class SuiteResult:
    suite_id: str
    universe: str
    checked: int
    violations: list[Violation] = field(default_factory=list)
    elapsed_secs: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json(self, with_timing: bool = True) -> dict:
        return {
            "suite": self.suite_id,
            "universe": self.universe,
            "checked": self.checked,
            "passed": self.passed,
            "violations": [v.to_json() for v in self.violations],
            "elapsed_secs": round(self.elapsed_secs, 3) if with_timing else 0.0,
        }


def _report(violations: list[Violation], rep: CentReport,
            expected: str, observed: str) -> None:
    violations.append(
        Violation(rep.ring_label, expected, observed, rep.ring.spec().to_json())
    )


def _proper_centralizers(rep: CentReport) -> list[ElementSet]:
    return [c for c in rep.centralizers if len(c) < rep.order]


def _is_prime_power(n: int) -> Optional[int]:
    fact = prime_factorization(n)
    if len(fact) == 1:
        return next(iter(fact))
    return None


def _noncommutative_p_ring(rep: CentReport, exponent: Optional[int] = None) -> bool:
    """R is noncommutative of order p^k for a prime p (and k = exponent)."""
    p = _is_prime_power(rep.order)
    return (p is not None and not rep.is_commutative
            and (exponent is None or rep.order == p**exponent))


def _each_ring(scope: Callable[[CentReport], bool] = lambda rep: True):
    """Suite body (reports, violations) -> checked from a per-ring check.

    The check runs on every report in scope and yields (expected, observed)
    for each violation; the body counts the rings in scope.
    """
    def wrap(check):
        @functools.wraps(check)
        def body(reports, violations):
            checked = 0
            for rep in reports:
                if scope(rep):
                    checked += 1
                    for expected, observed in check(rep):
                        _report(violations, rep, expected, observed)
            return checked

        return body

    return wrap


# --- suite bodies: (reports, violations) -> number of rings checked -------


@_each_ring()
def _suite_t1_no_2_3(rep):
    if rep.cent_count in (2, 3):
        yield "|Cent(R)| not in {2, 3}", f"|Cent(R)| = {rep.cent_count}"


def _suite_p2_product(reports, v):
    # deterministic sample: ordered pairs with small product order
    pool = [rep for rep in reports if rep.order <= 36]
    pairs = [(a, b) for a in pool for b in pool if a.order * b.order <= 36]
    pairs = pairs[:60]
    for A, B in pairs:
        P = gallery.direct_product(A.ring, B.ring)
        ca, cb, cp = A.centralizers, B.centralizers, cent_set(P)
        if len(cp) != len(ca) * len(cb):
            _report(v, analyze(P), f"|Cent| = {len(ca)}*{len(cb)}", str(len(cp)))
            continue
        expected = {
            tuple(sorted(x * B.order + y for x in Sa for y in Sb))
            for Sa in ca for Sb in cb
        }
        got = {c.members for c in cp}
        if expected != got:
            _report(v, analyze(P), "Cent(RxS) = Cent(R) x Cent(S)", "set mismatch")
    return len(pairs)


@_each_ring(lambda rep: _noncommutative_p_ring(rep, 2))
def _suite_t_p2(rep):
    p = _is_prime_power(rep.order)
    if rep.cent_count != p + 2:
        yield f"|Cent(R)| = {p + 2}", str(rep.cent_count)
    if rep.center.members != (0,):
        yield "Z(R) = {0}", str(rep.center.members)


@_each_ring(lambda rep: _noncommutative_p_ring(rep, 3) and rep.ring.has_unity())
def _suite_t_p3_unital(rep):
    p = _is_prime_power(rep.order)
    if rep.cent_count != p + 2:
        yield f"|Cent(R)| = {p + 2}", str(rep.cent_count)


@_each_ring()
def _suite_t_dc(rep):
    qt = rep.quotient_type.invariant_factors
    if len(qt) == 2 and qt[0] == qt[1] and is_prime(qt[0]):
        p = qt[0]
        if rep.cent_count != p + 2:
            yield (f"R/Z = [p,p] implies |Cent(R)| = {p + 2}",
                   str(rep.cent_count))


@_each_ring(_noncommutative_p_ring)
def _suite_t_pring(rep):
    p = _is_prime_power(rep.order)
    cc = rep.cent_count
    qt = rep.quotient_type.invariant_factors
    if cc < p + 2:
        yield f"|Cent(R)| >= {p + 2}", str(cc)
    if (cc == p + 2) != (qt == (p, p)):
        yield (f"|Cent(R)| = {p + 2} iff R/Z = Z_{p} x Z_{p}",
               f"|Cent(R)| = {cc}, R/Z = {list(qt)}")


@_each_ring()
def _suite_t_4c(rep):
    cc = rep.cent_count
    qt = rep.quotient_type.invariant_factors
    if (cc == 4) != (qt == (2, 2)):
        yield ("|Cent(R)| = 4 iff R/Z = Z_2 x Z_2",
               f"|Cent(R)| = {cc}, R/Z = {list(qt)}")


@_each_ring(lambda rep: rep.cent_count == 4)
def _suite_l4_index2(rep):
    proper = _proper_centralizers(rep)
    if not any(rep.order == 2 * len(c) for c in proper):
        yield "some proper centralizer of index 2", str([len(c) for c in proper])


@_each_ring()
def _suite_t_5c(rep):
    cc = rep.cent_count
    qt = rep.quotient_type.invariant_factors
    if (cc == 5) != (qt == (3, 3)):
        yield ("|Cent(R)| = 5 iff R/Z = Z_3 x Z_3",
               f"|Cent(R)| = {cc}, R/Z = {list(qt)}")


@_each_ring(lambda rep: rep.cent_count == 5)
def _suite_l5c2_counting(rep):
    z = rep.center
    proper = _proper_centralizers(rep)
    if len(proper) != 4:
        yield "exactly 4 proper centralizers", str(len(proper))
        return
    total = sum(len(c) for c in proper) - 3 * len(z)
    if total != rep.order:
        yield "|R| = |A|+|B|+|C|+|D| - 3|Z(R)|", f"{total} != {rep.order}"
    for i in range(4):
        for j in range(i + 1, 4):
            cap = tuple(sorted(set(proper[i].members) & set(proper[j].members)))
            if cap != z.members:
                yield "pairwise intersections equal Z(R)", str(cap)
    if 6 * len(z) > rep.order:
        yield "|Z(R)| <= |R|/6", f"|Z| = {len(z)}, |R| = {rep.order}"


@_each_ring()
def _suite_d_58(rep):
    cc, d = rep.cent_count, rep.degree
    if (cc == 4) != (d == Fraction(5, 8)):
        yield "|Cent(R)| = 4 iff d(R) = 5/8", f"|Cent(R)| = {cc}, d = {d}"


def _machale_bound(n: int) -> Fraction:
    p = smallest_prime_divisor(n)
    return Fraction(p * p + p - 1, p**3)


def _noncommutative(rep: CentReport) -> bool:
    return not rep.is_commutative


@_each_ring(_noncommutative)
def _suite_d_bound(rep):
    d = rep.degree
    bound = _machale_bound(rep.order)
    p = smallest_prime_divisor(rep.order)
    if d > bound:
        yield f"d(R) <= {bound}", str(d)
    if not len(rep.center):  # 0 is central in every ring
        raise ValidationError(f"{rep.ring_label}: the center is empty, so "
                              "|R:Z(R)| is undefined; the table is not a ring")
    index_z = rep.order // len(rep.center)
    if (d == bound) != (index_z == p * p):
        yield (f"d(R) = {bound} iff |R:Z(R)| = {p * p}",
               f"d = {d}, |R:Z| = {index_z}")


@_each_ring(_noncommutative)
def _suite_d_rc(rep):
    p = smallest_prime_divisor(rep.order)
    if rep.degree == _machale_bound(rep.order) and rep.cent_count != p + 2:
        yield f"d at the bound implies |Cent(R)| = {p + 2}", str(rep.cent_count)


@_each_ring(_noncommutative_p_ring)
def _suite_d_conv(rep):
    p = _is_prime_power(rep.order)
    expected = _machale_bound(rep.order)
    if rep.cent_count == p + 2 and rep.degree != expected:
        yield f"|Cent(R)| = {p + 2} implies d(R) = {expected}", str(rep.degree)


@_each_ring()
def _suite_l1_intersection(rep):
    inter = set(range(rep.order))
    for c in rep.centralizers:
        inter &= set(c.members)
    if tuple(sorted(inter)) != rep.center.members:
        yield "Z(R) = intersection of all centralizers", str(sorted(inter))


@_each_ring(_noncommutative)
def _suite_l2_union(rep):
    # C(r) is proper exactly when r is not central
    union = set().union(*(c.members for c in _proper_centralizers(rep)))
    if union != set(range(rep.order)):
        yield ("union of non-central centralizers is R",
               f"covers {len(union)} of {rep.order}")


@_each_ring(lambda rep: rep.order >= 2)
def _suite_l3_two_subrings(rep):
    proper = [set(S.members) for S in subrings(rep.ring) if len(S) < rep.order]
    for i in range(len(proper)):
        for j in range(i, len(proper)):
            if len(proper[i] | proper[j]) == rep.order:
                yield ("no union of two proper subrings covers R",
                       f"{sorted(proper[i])} + {sorted(proper[j])}")


SUITES: dict[str, Callable] = {
    "T1_no_2_3": _suite_t1_no_2_3,
    "P2_product": _suite_p2_product,
    "T_p2": _suite_t_p2,
    "T_p3_unital": _suite_t_p3_unital,
    "T_dc": _suite_t_dc,
    "T_pring": _suite_t_pring,
    "T_4c": _suite_t_4c,
    "L4_index2": _suite_l4_index2,
    "T_5c": _suite_t_5c,
    "L5C2_counting": _suite_l5c2_counting,
    "D_58": _suite_d_58,
    "D_bound": _suite_d_bound,
    "D_rc": _suite_d_rc,
    "D_conv": _suite_d_conv,
    "L1_intersection": _suite_l1_intersection,
    "L2_union": _suite_l2_union,
    "L3_two_subrings": _suite_l3_two_subrings,
}


def run_all(universe: Iterable[FiniteRing], universe_name: str = "universe",
            suite_ids: Optional[Iterable[str]] = None) -> list[SuiteResult]:
    """Run the named suites (all of them by default, in id order) over the
    rings; every suite reads the same one report per ring."""
    suite_ids = sorted(SUITES) if suite_ids is None else list(suite_ids)
    for sid in suite_ids:
        if sid not in SUITES:
            raise UnknownSuite(f"unknown suite {sid!r}; "
                               f"choices: {', '.join(sorted(SUITES))}")
    reports = [analyze(R) for R in universe]
    if not reports:
        raise EmptyUniverse("the universe contains no rings")
    results = []
    for sid in suite_ids:
        t0 = time.perf_counter()
        violations: list[Violation] = []
        checked = SUITES[sid](reports, violations)
        results.append(SuiteResult(
            sid, universe_name, checked, violations,
            elapsed_secs=time.perf_counter() - t0,
        ))
    return results


def run_suite(suite_id: str, universe: Iterable[FiniteRing],
              universe_name: str = "universe") -> SuiteResult:
    """Run one named suite over the given rings."""
    return run_all(universe, universe_name, [suite_id])[0]


# --- universes -------------------------------------------------------------


def load_universe(token: str) -> tuple[list[FiniteRing], str]:
    """The rings a token names, and the universe's name.  The one parser of
    ring and universe tokens, it reads five forms: gallery (the default
    gallery), gallery:NAME[:P] (one construction, gallery.by_name),
    catalog[:N] (orders 1..N, N = 13 when omitted), a catalog directory, or
    a RingSpec file.  A malformed gallery or catalog token is a RingError."""
    head, *fields = token.split(":")
    if token == "gallery":
        return gallery.default_gallery(), "gallery"
    if head in ("gallery", "catalog"):
        name = fields.pop(0) if head == "gallery" else None
        if len(fields) > 1:
            raise RingError(f"{token!r} has too many fields; expected "
                            "gallery:NAME[:P] or catalog[:N]")
        try:
            number = int(fields[0]) if fields else None
        except ValueError:
            what = "gallery parameter" if head == "gallery" else "catalog order"
            raise RingError(f"{what} in {token!r} is not an integer") from None
        if head == "catalog":
            hi = 13 if number is None else number
            return catalog_rings(hi), f"catalog orders 1..{hi}"
        try:
            return [gallery.by_name(name, number)], f"ring {token}"
        except KeyError as exc:  # an unknown name
            raise RingError(exc.args[0]) from None
    path = Path(token)
    if path.is_dir():
        catalog = read_catalog(path)
        return list(catalog.representatives), f"catalog {path}"
    return [load_ring(path)], f"ring {path}"

"""Test oracles: second routes the tests check the engine against.

No CLI verb runs these.  `isomorphic` decides ring isomorphism by
backtracking over additive bases, independently of the Aut(G)-orbit dedup
and canonical forms of ringcent.enumeration; `enumerate_mul_tables` lists
every multiplication table on a tiny group by plain backtracking, the
full-table slow path beside the structure-constant search;
`search_n_centralizer` is the catalog filter the `search` verb replaced by
load_universe and analyze; `mutate_entry` and `detect_mutation` are the
mutation harness, which shows that validation and the suites catch
single-entry corruptions.  The module has no test_ prefix, so pytest does
not collect it; test files import it by name.
"""

from typing import Optional

import numpy as np

from ringcent import groups
from ringcent.centralizers import cent_set
from ringcent.enumeration import catalog_rings, coordinates
from ringcent.errors import TooLarge, ValidationError
from ringcent.rings import FiniteRing, validate
from ringcent.suites import SUITES, run_suite


# ---------------------------------------------------------------------------
# ring isomorphism


def element_fingerprints(R: FiniteRing) -> list[tuple[int, int, int]]:
    """Per-element isomorphism invariant: additive order, centralizer size,
    additive order of the square."""
    orders = R.additive_orders()
    csize = (R.mul == R.mul.T).sum(axis=1)
    squares = R.mul[np.arange(R.order), np.arange(R.order)]
    return [
        (int(orders[x]), int(csize[x]), int(orders[squares[x]]))
        for x in range(R.order)
    ]


def isomorphic(R1: FiniteRing, R2: FiniteRing, witness: bool = False):
    """Ring isomorphism test: additive isomorphism preserving multiplication.

    Reads the two tables only.  Rings whose sorted element fingerprints
    differ are not isomorphic; otherwise it backtracks over images of R1's
    additive basis coords[radix_weights(factors)] (see coordinates), pruned
    by element fingerprints, by direct-sum feasibility of the image span,
    and by partial multiplicative consistency, and a full-table check
    decides.  With witness=True returns the mapping array (or None) instead.
    """
    def result(phi):
        return phi if witness else phi is not None

    if R1.order != R2.order:
        return result(None)
    fp1 = element_fingerprints(R1)
    fp2 = element_fingerprints(R2)
    if sorted(fp1) != sorted(fp2):
        return result(None)
    n = R1.order
    if n == 1:
        return result(np.zeros(1, dtype=np.int64))
    factors, coords = coordinates(R1)
    basis = coords[list(groups.radix_weights(factors))].tolist()
    orders2 = R2.additive_orders()
    k = len(basis)
    cands = [
        [y for y in range(1, n)
         if orders2[y] == factors[i] and fp2[y] == fp1[basis[i]]]
        for i in range(k)
    ]
    cyc1 = R1.multiples[basis].tolist()
    mult2 = R2.multiples

    images: list[int] = []
    phi_partial: dict[int, int] = {0: 0}
    image_set: set[int] = {0}

    def place(i: int, f: int) -> Optional[dict]:
        steps2 = mult2[f].tolist()
        added: dict[int, int] = {}
        for m in range(1, factors[i]):
            b_m, f_m = cyc1[i][m], steps2[m]
            for s, im in phi_partial.items():
                dst = int(R2.add[im, f_m])
                if dst in image_set or dst in added.values():
                    return None  # image span is not a direct extension
                added[int(R1.add[s, b_m])] = dst
        return added

    def consistent(i: int) -> bool:
        for a in range(i + 1):
            for b in range(i + 1):
                p1 = int(R1.mul[basis[a], basis[b]])
                if p1 in phi_partial:
                    if phi_partial[p1] != int(R2.mul[images[a], images[b]]):
                        return False
        return True

    def rec(i: int):
        if i == k:
            phi = np.zeros(n, dtype=np.int64)
            for s, im in phi_partial.items():
                phi[s] = im
            ok = np.array_equal(phi[R1.add], R2.add[phi[:, None], phi[None, :]]) \
                and np.array_equal(phi[R1.mul], R2.mul[phi[:, None], phi[None, :]])
            return phi if ok else None
        for f in cands[i]:
            if f in image_set:
                continue
            added = place(i, f)
            if added is None:
                continue
            images.append(f)
            phi_partial.update(added)
            image_set.update(added.values())
            if consistent(i):
                found = rec(i + 1)
                if found is not None:
                    return found
            images.pop()
            for src, dst in added.items():
                del phi_partial[src]
                image_set.discard(dst)
        return None

    return result(rec(0))


# ---------------------------------------------------------------------------
# searches over the catalog universe


def search_n_centralizer(target: int, max_order: int) -> list[FiniteRing]:
    """All catalog representatives with exactly target distinct centralizers
    and order <= max_order.  An empty answer is meaningful."""
    return [ring for ring in catalog_rings(max_order)
            if len(cent_set(ring)) == target]


# ---------------------------------------------------------------------------
# independent slow path: full multiplication-table enumeration


def enumerate_mul_tables(add: np.ndarray) -> list[np.ndarray]:
    """Every multiplication table that makes (add, mul) a ring.

    Deliberately plain backtracking over all n*n cells with partial law
    checks; serves as the independent cross-check of the structure-constant
    route for tiny orders.
    """
    add = np.asarray(add, dtype=np.int64)
    n = add.shape[0]
    if n > 8:
        raise TooLarge("full-table enumeration is a cross-check for n <= 8")
    A = add.tolist()
    nn = n * n

    dist_at: list[list[tuple]] = [[] for _ in range(nn)]
    for x in range(n):
        for y in range(n):
            for z in range(n):
                r = max(x * n + A[y][z], x * n + y, x * n + z)
                dist_at[r].append((0, x, y, z))
                r = max(A[x][y] * n + z, x * n + z, y * n + z)
                dist_at[r].append((1, x, y, z))
    assoc_at: list[list[tuple]] = [[] for _ in range(nn)]
    for x in range(n):
        for y in range(n):
            for z in range(n):
                touched = {x * n + y, y * n + z}
                touched.update(x * n + j for j in range(n))
                touched.update(i * n + z for i in range(n))
                for t in touched:
                    assoc_at[t].append((x, y, z))

    mul = [0] * nn
    out: list[np.ndarray] = []

    def laws_ok(t: int) -> bool:
        for side, x, y, z in dist_at[t]:
            if side == 0:
                if mul[x * n + A[y][z]] != A[mul[x * n + y]][mul[x * n + z]]:
                    return False
            else:
                if mul[A[x][y] * n + z] != A[mul[x * n + z]][mul[y * n + z]]:
                    return False
        for x, y, z in assoc_at[t]:
            xy = x * n + y
            yz = y * n + z
            if xy > t or yz > t:
                continue
            left = mul[xy] * n + z
            right = x * n + mul[yz]
            if left > t or right > t:
                continue
            if mul[left] != mul[right]:
                return False
        return True

    def rec(t: int):
        if t == nn:
            out.append(np.array(mul, dtype=np.int64).reshape(n, n))
            return
        for v in range(n):
            mul[t] = v
            if laws_ok(t):
                rec(t + 1)
        mul[t] = 0

    rec(0)
    return out


# ---------------------------------------------------------------------------
# mutation harness


def mutate_entry(R: FiniteRing, i: int, j: int, value: int) -> dict:
    """Explicit spec of R with mul[i][j] overwritten."""
    doc = R.spec().to_json()
    doc["mul"][i][j] = value
    doc["label"] = f"{R.label}~mut({i},{j}->{value})"
    return doc


def detect_mutation(doc: dict) -> str:
    """Classify a (possibly corrupted) explicit spec.

    Returns "validation" when the tables no longer form a ring, else the id
    of the first suite that reports a violation on it, else "undetected".
    """
    try:
        R = validate(doc)
    except ValidationError:
        return "validation"
    for sid in sorted(SUITES):
        if not run_suite(sid, [R], "mutation").passed:
            return sid
    return "undetected"

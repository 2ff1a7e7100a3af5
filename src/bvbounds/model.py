"""Problem-instance representations: joint pmfs of a pair of bounded counting
variables, finite weighted event systems, and grids of bivariate binomial
moments, together with the bridges between them."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Sequence, Tuple

from . import _kernel
from .combinatorics import DomainError

Grid = Tuple[Tuple[Fraction, ...], ...]


def _freeze_grid(rows: Sequence[Sequence], m: int, n: int, what: str) -> Grid:
    if len(rows) != m + 1 or any(len(row) != n + 1 for row in rows):
        raise DomainError(f"{what} grid must be ({m + 1})x({n + 1})")
    return tuple(
        tuple(x if type(x) is Fraction else Fraction(x) for x in row)
        for row in rows
    )


@dataclass(frozen=True)
class JointPMF:
    """Exact joint law of (S, T) on {0..m} x {0..n}."""

    m: int
    n: int
    p: Grid

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise DomainError("JointPMF requires m >= 1 and n >= 1")
        grid = _freeze_grid(self.p, self.m, self.n, "pmf")
        object.__setattr__(self, "p", grid)
        # On the integer numerators over the common denominator, which the
        # kernel keeps for moments_from_pmf.
        nums, den = _kernel.exact(self, grid)
        if any(x < 0 for row in nums for x in row):
            raise DomainError("pmf entries must be nonnegative")
        total = sum(map(sum, nums))
        if total != den:
            raise DomainError(
                f"pmf must sum to 1 exactly, got {Fraction(total, den)}"
            )


@dataclass(frozen=True)
class EventSystem:
    """Finite weighted sample space with two indicator families of sizes
    m and n.  Atom indicators are 0/1 tuples."""

    m: int
    n: int
    atoms: Tuple[Tuple[Fraction, Tuple[int, ...], Tuple[int, ...]], ...]

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise DomainError("EventSystem requires m >= 1 and n >= 1")
        frozen = []
        for w, a, b in self.atoms:
            w = Fraction(w)
            if w < 0:
                raise DomainError("atom weights must be nonnegative")
            if w == 0:
                continue  # zero-weight atoms carry no probability
            a, b = tuple(a), tuple(b)
            if len(a) != self.m or len(b) != self.n:
                raise DomainError("indicator lengths must match (m, n)")
            if any(x not in (0, 1) for x in a + b):
                raise DomainError("indicators must be 0/1")
            frozen.append((w, a, b))
        object.__setattr__(self, "atoms", tuple(frozen))
        total = sum(w for w, _, _ in self.atoms)
        if total != 1:
            raise DomainError(f"atom weights must sum to 1 exactly, got {total}")


@dataclass(frozen=True)
class MomentMatrix:
    """Grid of bivariate binomial moments s[i][j] = E binom(S,i) binom(T,j)."""

    m: int
    n: int
    s: Grid

    def __post_init__(self):
        # extents may be 0 for truncated Bonferroni-sum grids
        if self.m < 0 or self.n < 0:
            raise DomainError("MomentMatrix requires m >= 0 and n >= 0")
        object.__setattr__(
            self, "s", _freeze_grid(self.s, self.m, self.n, "moment")
        )


def moments_from_pmf(pmf: JointPMF) -> MomentMatrix:
    """Full grid of binomial moments of (S, T), computed exactly:
    s[i][j] = sum_{u,v} C(u,i) C(v,j) p[u][v]."""
    return MomentMatrix(
        pmf.m, pmf.n, _kernel.mapped(pmf, pmf.p, _kernel.moments_map)
    )


# Most (subset pair, atom) checks `bonferroni_sums` will make, about one
# second of CPython 3.11 on one core.  The oracle's event systems (m, n <= 4,
# at most 16 atoms) need at most 2**4 * 2**4 * 16 = 4096.
SUBSET_CHECK_LIMIT = 1_000_000


def bonferroni_sums(es: EventSystem, kmax: int, lmax: int) -> MomentMatrix:
    """Bonferroni sums over all (k, l)-fold intersections of the two event
    families, by direct subset enumeration over atoms.

    Entry (k, 0) and (0, l) are the univariate sums; entry (0, 0) = 1.
    Deliberately independent of the counting-pmf route so the two can be
    cross-checked.  Its cost is exponential in m and n, so it refuses to
    make more than SUBSET_CHECK_LIMIT (subset pair, atom) checks.
    """
    if not (0 <= kmax <= es.m and 0 <= lmax <= es.n):
        raise DomainError("need 0 <= kmax <= m and 0 <= lmax <= n")
    checks = (sum(comb(es.m, k) for k in range(kmax + 1))
              * sum(comb(es.n, l) for l in range(lmax + 1)) * len(es.atoms))
    if checks > SUBSET_CHECK_LIMIT:
        raise DomainError(
            f"Bonferroni sums by subset enumeration need {checks} "
            f"(subset pair, atom) checks, over the limit of "
            f"{SUBSET_CHECK_LIMIT}; lower kmax/lmax"
        )
    grid = []
    for k in range(kmax + 1):
        row = []
        for l in range(lmax + 1):
            total = Fraction(0)
            for a_sub in combinations(range(es.m), k):
                for b_sub in combinations(range(es.n), l):
                    total += sum(
                        w
                        for w, a, b in es.atoms
                        if all(a[i] for i in a_sub) and all(b[j] for j in b_sub)
                    )
            row.append(total)
        grid.append(row)
    return MomentMatrix(kmax, lmax, grid)


def counting_pmf(es: EventSystem) -> JointPMF:
    """Joint law of the pair of counting variables of an event system."""
    p = [[Fraction(0)] * (es.n + 1) for _ in range(es.m + 1)]
    for w, a, b in es.atoms:
        p[sum(a)][sum(b)] += w
    return JointPMF(es.m, es.n, p)


def event_system_from_pmf(pmf: JointPMF) -> EventSystem:
    """Event system whose counting variables have the given joint law: one
    atom per support point (u, v), belonging to the first u A-events and the
    first v B-events."""
    atoms = []
    for u in range(pmf.m + 1):
        for v in range(pmf.n + 1):
            w = pmf.p[u][v]
            if w == 0:
                continue
            a = tuple(1 if i <= u else 0 for i in range(1, pmf.m + 1))
            b = tuple(1 if j <= v else 0 for j in range(1, pmf.n + 1))
            atoms.append((w, a, b))
    return EventSystem(pmf.m, pmf.n, tuple(atoms))


def complement_pmf(pmf: JointPMF) -> JointPMF:
    """Law of (m - S, n - T); an involution."""
    q = [
        [pmf.p[pmf.m - u][pmf.n - v] for v in range(pmf.n + 1)]
        for u in range(pmf.m + 1)
    ]
    return JointPMF(pmf.m, pmf.n, q)

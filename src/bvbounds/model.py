"""Problem-instance representations: joint pmfs of a pair of bounded counting
variables, finite weighted event systems, and grids of bivariate binomial
moments, together with the bridges between them.

Every grid of rationals (a `RationalGrid`: `JointPMF`, `MomentMatrix`,
`transforms.TailTable`) is held once, as integer numerators `nums` over the
least common denominator `den` of its reduced entries, so equality and
hashing follow the values.  Its `Fraction` view (`p`, `s`, `q` or `cells`),
a `cached_property` of one `RationalGrid._view`, is built when first read; a
grid constructed from rationals keeps them as its view.  The kernel reads the
numerators and its products come back as ints."""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations
from math import comb, gcd, lcm
from typing import List, Sequence, Tuple

from . import _kernel
from .combinatorics import DomainError

Grid = Tuple[Tuple[Fraction, ...], ...]


def common_denominator(pairs) -> Tuple[List[List[int]], int]:
    """(numerators, lcm of the denominators) of rows of (num, den > 0)."""
    den = lcm(*(d for row in pairs for _, d in row))
    return [[a * (den // d) for a, d in row] for row in pairs], den


class RationalGrid:
    """A frozen (m+1) x (n+1) grid of rationals, held as `nums` over `den`.
    RationalGrid(m, n, cells) keeps the Fractions of its cells as its view;
    from_ints(m, n, nums, den) holds nums[u][v] / den (ints; a den <= 0 is
    refused) and builds the view when it is first read.  A subclass names
    its view (VIEW, a `cached_property` of `_view`), its grid in a shape
    error (WHAT) and its least extent (LEAST), and may extend `_hold` to
    check its values."""

    VIEW, WHAT, LEAST = "cells", "rational", 0

    def __init__(self, m: int, n: int, cells: Sequence[Sequence]):
        self._check_shape(m, n, cells)
        view = tuple(tuple(x if type(x) is Fraction else Fraction(x)
                           for x in row) for row in cells)
        self._hold(m, n, *common_denominator(
            [[(x.numerator, x.denominator) for x in row] for row in view]))
        self.__dict__[self.VIEW] = view

    @classmethod
    def from_ints(cls, m: int, n: int, nums, den: int):
        if den <= 0:
            raise DomainError(f"den must be > 0, got {den}")
        grid = cls.__new__(cls)
        grid._check_shape(m, n, nums)
        grid._hold(m, n, nums, den)
        return grid

    def _check_shape(self, m: int, n: int, rows) -> None:
        if m < self.LEAST or n < self.LEAST:
            raise DomainError(f"{type(self).__name__} requires "
                              f"m >= {self.LEAST} and n >= {self.LEAST}")
        if len(rows) != m + 1 or any(len(row) != n + 1 for row in rows):
            raise DomainError(f"{self.WHAT} grid must be ({m + 1})x({n + 1})")

    def _hold(self, m: int, n: int, nums, den: int) -> None:
        # dividing by the gcd leaves den the least common denominator of
        # the reduced entries: one form per value
        g = gcd(den, *chain.from_iterable(nums))
        if g != 1:
            den, nums = den // g, [[x // g for x in row] for row in nums]
        self.__dict__.update(m=m, n=n, den=den, nums=tuple(map(tuple, nums)))

    def _view(self) -> Grid:
        return tuple(tuple(Fraction(x, self.den) for x in row)
                     for row in self.nums)

    cells = cached_property(_view)

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        return (self._key() == other._key() if type(other) is type(self)
                else NotImplemented)

    def __hash__(self) -> int:
        return hash(self._key())

    def _key(self):
        return self.m, self.n, self.den, self.nums

    def __repr__(self) -> str:  # the constructor call, with cells positional
        return (f"{type(self).__name__}({self.m}, {self.n}, "
                f"{getattr(self, self.VIEW)!r})")


def _check_cell(grid, names: Sequence[str], i: int, j: int,
                lo_i: int, lo_j: int) -> None:
    """Raise a DomainError naming the first of i (names[0]) and j (names[1])
    outside [lo_i, grid.m] and [lo_j, grid.n]; grid is anything with
    extents m and n, a grid or an event system."""
    if not (lo_i <= i <= grid.m and lo_j <= j <= grid.n):
        name, value, lo, hi = (
            (names[0], i, lo_i, grid.m) if not lo_i <= i <= grid.m
            else (names[1], j, lo_j, grid.n))
        raise DomainError(f"{name}={value} outside [{lo}, {hi}]")


class JointPMF(RationalGrid):
    """Exact joint law of (S, T) on {0..m} x {0..n}."""

    VIEW, WHAT, LEAST = "p", "pmf", 1
    p = cached_property(RationalGrid._view)

    def _hold(self, m: int, n: int, nums, den: int) -> None:
        super()._hold(m, n, nums, den)
        if any(x < 0 for row in self.nums for x in row):
            raise DomainError("pmf entries must be nonnegative")
        total = sum(map(sum, self.nums))
        if total != self.den:
            raise DomainError(
                f"pmf must sum to 1 exactly, got {Fraction(total, self.den)}"
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


class MomentMatrix(RationalGrid):
    """Grid of bivariate binomial moments s[i][j] = E binom(S,i) binom(T,j);
    its extents may be 0 (truncated Bonferroni-sum grids)."""

    VIEW, WHAT, LEAST = "s", "moment", 0
    s = cached_property(RationalGrid._view)


def moments_from_pmf(pmf: JointPMF) -> MomentMatrix:
    """Full grid of binomial moments of (S, T), computed exactly:
    s[i][j] = sum_{u,v} C(u,i) C(v,j) p[u][v]."""
    return MomentMatrix.from_ints(pmf.m, pmf.n, _kernel.shift_grid(
        pmf.nums, _kernel.moments_axis, _kernel.moments_axis), pmf.den)


# Most (subset pair, atom) checks `bonferroni_sums` will make, about 0.13 s
# of CPython 3.11 on one core with every atom in every event.  The oracle's
# event systems (m, n <= 4, at most 16 atoms) need at most
# 2**4 * 2**4 * 16 = 4096.
SUBSET_CHECK_LIMIT = 1_000_000


def _bits(indices) -> int:
    """The bitmask with bit i set for each i in indices."""
    return sum(1 << i for i in indices)


def bonferroni_sums(es: EventSystem, kmax: int, lmax: int) -> MomentMatrix:
    """Bonferroni sums over all (k, l)-fold intersections of the two event
    families, by direct subset enumeration over atoms (a subset's bitmask
    tested against each atom's indicator bitmask), summing their integer
    weights over the lcm of their denominators.

    Entry (k, 0) and (0, l) are the univariate sums; entry (0, 0) = 1.
    Deliberately independent of the counting-pmf route so the two can be
    cross-checked.  Its cost is exponential in m and n, so it refuses to
    make more than SUBSET_CHECK_LIMIT (subset pair, atom) checks.
    """
    _check_cell(es, ("kmax", "lmax"), kmax, lmax, 0, 0)
    checks = (sum(comb(es.m, k) for k in range(kmax + 1))
              * sum(comb(es.n, l) for l in range(lmax + 1)) * len(es.atoms))
    if checks > SUBSET_CHECK_LIMIT:
        raise DomainError(
            f"Bonferroni sums by subset enumeration need {checks} "
            f"(subset pair, atom) checks, over the limit of "
            f"{SUBSET_CHECK_LIMIT}; lower kmax/lmax"
        )
    den = lcm(*(w.denominator for w, _, _ in es.atoms))
    atoms = [(w.numerator * (den // w.denominator),
              _bits(i for i, x in enumerate(a) if x),
              _bits(j for j, x in enumerate(b) if x)) for w, a, b in es.atoms]
    a_subs = [[_bits(sub) for sub in combinations(range(es.m), k)]
              for k in range(kmax + 1)]
    b_subs = [[_bits(sub) for sub in combinations(range(es.n), l)]
              for l in range(lmax + 1)]

    def total(k: int, l: int) -> int:
        return sum(x for a_sub in a_subs[k] for b_sub in b_subs[l]
                   for x, a, b in atoms
                   if a_sub & a == a_sub and b_sub & b == b_sub)

    return MomentMatrix.from_ints(kmax, lmax, [
        [total(k, l) for l in range(lmax + 1)] for k in range(kmax + 1)], den)


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
    return EventSystem(pmf.m, pmf.n, tuple(
        (w, tuple(int(i <= u) for i in range(1, pmf.m + 1)),
         tuple(int(j <= v) for j in range(1, pmf.n + 1)))
        for u, row in enumerate(pmf.p) for v, w in enumerate(row) if w))


def complement_pmf(pmf: JointPMF) -> JointPMF:
    """Law of (m - S, n - T); an involution."""
    return JointPMF.from_ints(pmf.m, pmf.n,
                              [row[::-1] for row in pmf.nums[::-1]], pmf.den)

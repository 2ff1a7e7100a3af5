"""Exact separable kernel behind the transforms and the bound catalogue.

Every map from the moment grid used by this package is L . S . R^T for two
triangular integer matrices, one per axis, or a ratio of such a map and a
product of binomial coefficients.  A grid of rationals enters as integer
numerators over one common denominator (the lcm of its entries'
denominators); both passes of the product run on Python ints, and a
`Fraction` is built only when a value leaves the public API.

Results are memoised per instance in the frozen object's `__dict__`, which
dataclass equality and hashing never look at.  The brute-force oracle must
not use anything from this module: it checks the kernel.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from operator import mul
from typing import Callable, List, Sequence, Tuple, TypeVar

IntGrid = List[List[int]]
Matrix = Tuple[Tuple[int, ...], ...]
T = TypeVar("T")


def memo(obj, key, compute: Callable[[], T]) -> T:
    """compute(), evaluated once per (obj, key)."""
    store = vars(obj).setdefault("_kernel_memo", {})
    if key not in store:
        store[key] = compute()
    return store[key]


def exact(obj, grid: Sequence[Sequence[Fraction]]) -> Tuple[IntGrid, int]:
    """(numerators, common denominator) of a frozen grid of `obj`."""

    def compute():
        den = lcm(*(x.denominator for row in grid for x in row))
        return [[x.numerator * (den // x.denominator) for x in row]
                for row in grid], den

    return memo(obj, "exact", compute)


def apply(left: Matrix, nums: IntGrid, right: Matrix) -> IntGrid:
    """left . nums . right^T over the integers."""
    half = [[sum(map(mul, row, r)) for r in right] for row in nums]
    cols = list(zip(*half))
    return [[sum(map(mul, l, c)) for c in cols] for l in left]


def product(obj, grid, key, left: Matrix, right: Matrix) -> Tuple[IntGrid, int]:
    """(numerators of left . grid . right^T, common denominator), computed
    once per (obj, key)."""

    def compute():
        nums, den = exact(obj, grid)
        return apply(left, nums, right), den

    return memo(obj, key, compute)


def mapped(obj, grid, coefficients: Callable[[int], Matrix]):
    """coefficients(m) . grid . coefficients(n)^T as a grid of Fractions,
    computed once per obj (which has extents m and n)."""

    def compute():
        nums, den = exact(obj, grid)
        out = apply(coefficients(obj.m), nums, coefficients(obj.n))
        return tuple(tuple(Fraction(x, den) for x in row) for row in out)

    return memo(obj, coefficients, compute)


# Coefficient matrices, built on first use for each size.


@lru_cache(maxsize=128)
def moments_map(m: int) -> Matrix:
    """[i][u] = C(u, i): pmf -> binomial moments."""
    return tuple(tuple(comb(u, i) for u in range(m + 1)) for i in range(m + 1))


@lru_cache(maxsize=128)
def pmf_map(m: int) -> Matrix:
    """[u][i] = (-1)^(i-u) C(i, u): binomial moments -> pmf."""
    return tuple(
        tuple((-1) ** (i - u) * comb(i, u) if i >= u else 0
              for i in range(m + 1))
        for u in range(m + 1)
    )


@lru_cache(maxsize=128)
def tails_map(m: int) -> Matrix:
    """[u][i] = (-1)^(i-u) C(i-1, u-1) for u >= 1, row 0 the unit vector:
    binomial moments -> upper-orthant tails."""
    return tuple(
        tuple(
            int(i == 0) if u == 0
            else (-1) ** (i - u) * comb(i - 1, u - 1) if i >= u else 0
            for i in range(m + 1)
        )
        for u in range(m + 1)
    )


@lru_cache(maxsize=128)
def tails_inverse_map(m: int) -> Matrix:
    """[i][u] = C(u-1, i-1) for i >= 1, row 0 the unit vector: upper-orthant
    tails -> binomial moments."""
    return tuple(
        tuple(
            int(u == 0) if i == 0 else comb(u - 1, i - 1) if u >= i else 0
            for u in range(m + 1)
        )
        for i in range(m + 1)
    )


@lru_cache(maxsize=128)
def complement_map(m: int) -> Matrix:
    """[k][s] = (-1)^s C(m-s, k-s) for 1 <= s <= k: the moment part of the
    complementary moment."""
    return tuple(
        tuple((-1) ** s * comb(m - s, k - s) if 1 <= s <= k else 0
              for s in range(m + 1))
        for k in range(m + 1)
    )


@lru_cache(maxsize=128)
def chung_map(m: int, s: int) -> Matrix:
    """[k][i] = (-1)^(i-s) C(i-1, s-1) C(m-i, k-i) for s <= i <= k: the
    numerator weights of the Chung bound targeting s."""
    return tuple(
        tuple((-1) ** (i - s) * comb(i - 1, s - 1) * comb(m - i, k - i)
              if s <= i <= k else 0
              for i in range(m + 1))
        for k in range(m + 1)
    )


def antidiagonal_prefix(nums: IntGrid, wa: Sequence[int],
                        wb: Sequence[int]) -> List[int]:
    """[c] = sum over i + j <= c of wa[i] wb[j] nums[i][j]."""
    diag = [0] * (len(wa) + len(wb) - 1)
    for i, (a, row) in enumerate(zip(wa, nums)):
        if a:
            for j, (b, x) in enumerate(zip(wb, row)):
                diag[i + j] += a * b * x
    for c in range(1, len(diag)):
        diag[c] += diag[c - 1]
    return diag

"""Exact separable kernel behind the transforms and the bound catalogue.

Every map from the moment grid used by this package is L . S . R^T for two
triangular integer matrices, one per axis, or a ratio of such a map and a
product of binomial coefficients.  A grid (`model.RationalGrid`) is held
once, as integer numerators `nums` over one denominator `den`, and builds
its `Fraction` view only when that is read; both passes of the product run
on the numerators, and the result is returned as ints over the same
denominator, from which the callers build their grids or single values.

A product read more than once is memoised once per grid, in one form, in
the frozen object's `__dict__`, which grid equality and hashing ignore.  The
brute-force oracle must not use this module: it checks the kernel.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
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


def apply(left: Matrix, nums: Sequence[Sequence[int]],
          right: Matrix) -> IntGrid:
    """left . nums . right^T over the integers."""
    half = [[sum(map(mul, row, r)) for r in right] for row in nums]
    cols = list(zip(*half))
    return [[sum(map(mul, l, c)) for c in cols] for l in left]


def chung_product(grid, s: int, t: int) -> Tuple[IntGrid, int]:
    """(numerators of chung_map(m, s)[s:] . grid . chung_map(n, t)[t:]^T,
    grid.den), once per (grid, s, t).  At (1, 1) it is also A . s . B^T of
    the complementary moments: A = -chung_map(m, 1), and the signs cancel."""
    return memo(grid, (chung_map, s, t), lambda: (
        apply(chung_map(grid.m, s)[s:], grid.nums, chung_map(grid.n, t)[t:]),
        grid.den))


# Coefficient matrices, built on first use for each size.


def _square(m: int, entry: Callable[[int, int], int]) -> Matrix:
    """[r][c] = entry(r, c) for 0 <= r, c <= m."""
    return tuple(tuple(entry(r, c) for c in range(m + 1))
                 for r in range(m + 1))


@lru_cache(maxsize=128)
def moments_map(m: int) -> Matrix:
    """[i][u] = C(u, i): pmf -> binomial moments."""
    return _square(m, lambda i, u: comb(u, i))


@lru_cache(maxsize=128)
def pmf_map(m: int) -> Matrix:
    """[u][i] = (-1)^(i-u) C(i, u): binomial moments -> pmf."""
    return _square(m, lambda u, i: (-1) ** (i + u) * comb(i, u))


@lru_cache(maxsize=128)
def tails_map(m: int) -> Matrix:
    """[u][i] = (-1)^(i-u) C(i-1, u-1) for u >= 1, row 0 the unit vector:
    binomial moments -> upper-orthant tails."""
    return _square(m, lambda u, i: int(i == 0) if u == 0 else
                   (-1) ** (i + u) * comb(i - 1, u - 1) if i else 0)


@lru_cache(maxsize=128)
def tails_inverse_map(m: int) -> Matrix:
    """[i][u] = C(u-1, i-1) for i >= 1, row 0 the unit vector: upper-orthant
    tails -> binomial moments."""
    return _square(m, lambda i, u: int(u == 0) if i == 0 else
                   comb(u - 1, i - 1) if u else 0)


@lru_cache(maxsize=128)
def chung_map(m: int, s: int) -> Matrix:
    """[k][i] = (-1)^(i-s) C(i-1, s-1) C(m-i, k-i) for s <= i <= k: the
    numerator weights of the Chung bound targeting s."""
    return _square(m, lambda k, i: (-1) ** (i + s) * comb(i - 1, s - 1)
                   * comb(m - i, k - i) if s <= i <= k else 0)


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

"""Exact separable kernel behind the transforms and the bound catalogue.

Every map from the moment grid used by this package is a Taylor shift
x -> x + 1 or x - 1 along each axis of the grid, possibly after a diagonal
integer scaling and a reversal, or a ratio of such a map and a product of
binomial coefficients.  The one scaling, of the Chung numerators, is the
tail inversion's row `tail_weights`, which the Bonferroni cuts read too.
The shift runs by the Pascal rule on whole rows: for i in 0..m-1 and j
from m-1 down to i, row j becomes row j plus (or minus) row j+1.  That is
m(m+1)/2 row additions along the first axis and, after one transpose,
n(n+1)/2 along the second, and no multiplication outside the scaling.  It
runs on a grid's integer numerators (`model.RationalGrid.nums`), and its
ints are read over the grid's denominator `den`.

A product read more than once is memoised once per grid, in one form, by
the `memoised` decorator: `fn(grid, *args)` is held under the key
`(fn, *args)` in the frozen grid's `__dict__`, which grid equality and
hashing ignore, so a call that finds it held costs one dict probe.  The
brute-force oracle must not use this module: it checks the kernel.
"""

from __future__ import annotations

from functools import partial, wraps
from math import comb
from operator import add, sub
from typing import Callable, List, Sequence, Tuple, TypeVar

IntGrid = List[List[int]]
F = TypeVar("F", bound=Callable)


def memoised(fn: F) -> F:
    """fn(grid, *args), computed once per (grid, args) and then returned
    after one probe of the grid's memo, before fn checks its arguments: a
    result is stored only once fn has returned, and a grid's extents never
    change, so arguments found held are valid.  A call that raises stores
    nothing."""
    @wraps(fn)
    def held(grid, *args):
        key = (fn, *args)
        try:
            return grid.__dict__["_kernel_memo"][key]
        except KeyError:
            pass
        value = fn(grid, *args)
        grid.__dict__.setdefault("_kernel_memo", {})[key] = value
        return value

    return held


def _pascal(lines: list, op, first: int = 0) -> list:
    """lines, in place, Taylor-shifted by +1 (op = add) or -1 (op = sub)
    from index `first` on, the lines before it passed through: [i] = sum
    over j >= i of (+-1)^(j-i) C(j-first, i-first) lines[j] for i >= first."""
    last = len(lines) - 1
    for i in range(first, last):
        for j in range(last - 1, i - 1, -1):
            lines[j] = list(map(op, lines[j], lines[j + 1]))
    return lines


# The maps along one axis, by which the inversions are memoised: binomial
# moments from the pmf, [i] = sum_u C(u, i) x[u]; the pmf from them, [u] =
# sum_i (-1)^(i-u) C(i, u) x[i]; the upper-orthant tails from them, [u] =
# sum_i (-1)^(i-u) C(i-1, u-1) x[i] for u >= 1; and back, [i] = sum_u
# C(u-1, i-1) x[u] for i >= 1.  Both tail maps pass [0] through.
moments_axis = partial(_pascal, op=add)
pmf_axis = partial(_pascal, op=sub)
tails_axis = partial(_pascal, op=sub, first=1)
tails_inverse_axis = partial(_pascal, op=add, first=1)


def tail_weights(m: int, s: int) -> List[int]:
    """[i] = (-1)^(i-s) C(i-1, s-1) for s <= i <= m, 0 below: the tail
    inversion's row at s >= 1, read by the Bonferroni and Chung bounds."""
    return [(-1) ** (i - s) * comb(i - 1, s - 1) if i >= s else 0
            for i in range(m + 1)]


def _chung_axis(lines: list, s: int) -> list:
    """[k-s] = sum over s <= i <= k of tail_weights(m, s)[i] C(m-i, k-i)
    lines[i] for s <= k <= m = len(lines) - 1: the Chung numerator weights
    of target s.  Since C(m-i, k-i) = C(m-i, m-k), this is the shift by +1
    of the scaled entries in reverse order, read in reverse order."""
    weights = tail_weights(len(lines) - 1, s)[s:]
    scaled = [[w * x for x in line] for w, line in zip(weights, lines[s:])]
    return _pascal(scaled[::-1], add)[::-1]


def shift_grid(nums: Sequence[Sequence[int]], along_rows: Callable,
               along_cols: Callable) -> IntGrid:
    """nums with the axis map `along_rows` applied to its list of rows, then
    `along_cols` to its list of columns."""
    half = along_rows(list(nums))
    return list(map(list, zip(*along_cols(list(zip(*half))))))


@memoised
def chung_product(grid, s: int, t: int) -> Tuple[IntGrid, int]:
    """(numerators [k-s][l-t] = sum over s <= i <= k, t <= j <= l of
    (-1)^(i+j-s-t) C(i-1, s-1) C(m-i, k-i) C(j-1, t-1) C(n-j, l-j) s[i][j],
    grid.den), once per (grid, s, t): the scaled and reversed shift by +1
    of `_chung_axis` along each axis.  At (1, 1) it is also A . s . B^T of
    the complementary moments, A[k][i] = (-1)^i C(m-i, k-i) and B likewise:
    the signs cancel."""
    return (shift_grid(grid.nums, partial(_chung_axis, s=s),
                       partial(_chung_axis, s=t)), grid.den)


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

"""Exact separable kernel behind the transforms and the bound catalogue.

Every map from the moment grid used by this package is a Taylor shift
x -> x + 1 or x - 1 along each axis of the grid, possibly after a diagonal
integer scaling and a reversal, or a ratio of such a map and a product of
binomial coefficients.  The one scaling, of the Chung numerators, is the
tail inversion's row `tail_weights`, which the Bonferroni cuts read too;
the Chung product reverses its target's sub-grid, and its result, itself.
An axis map is data, an `Axis`, and `shift_grid` runs any pair of them on
a grid's integer numerators (`model.RationalGrid.nums`), whose ints are
read over the grid's denominator `den`.

The shift is two Horner passes on packed integers.  With a lane width of W
bits and Y = 2^W, Horner's rule at Y + 1 (or Y - 1) over the entries of a
row, `acc = (acc << W) + acc + x`, yields one int whose W-bit lanes, lowest
first, are the row's shifted entries, since p(Y + 1) = sum_i q_i Y^i when
q is p shifted by +1.  Horner's rule at X + 1 (or X - 1), X = Y^c for c
lanes a row, over those ints then shifts the rows, and the result holds
every output entry in a lane of its own.  It is decoded once: adding
2^(W-1) to every lane makes each lane's digit nonnegative, `to_bytes`
splits the lanes, and each is read back with `from_bytes` less 2^(W-1).
The lanes are exact when every output has |out| < 2^(W-1).  A map
along an axis of extent e multiplies the largest |entry| by less than its
largest |weight| times 2^(e+1), a bound on the sum of the binomials of a
shift, so W is the bit length of the largest |entry|, plus e + 2 plus the
bit length of the largest |weight| (0 unweighted) for each axis, plus one
sign bit, rounded up to whole bytes.

A product read more than once is memoised once per grid, in one form, by
the `memoised` decorator: `fn(grid, *args)` is held under the key
`(fn, *args)` in the frozen grid's `__dict__`, which grid equality and
hashing ignore, so a call that finds it held costs one dict probe.  The
brute-force oracle must not use this module: it checks the kernel.
"""

from __future__ import annotations

from functools import wraps
from itertools import chain, repeat
from math import comb
from operator import mul, sub
from struct import unpack
from typing import (Callable, List, NamedTuple, Optional, Sequence, Tuple,
                    TypeVar)

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


class Axis(NamedTuple):
    """A map along one axis of a line x[0..e], on its L = e + 1 - first
    entries from `first` on times w = `weights` (all 1 if None): for
    0 <= r < L, y[r] = sum over r <= k < L of sign^(k-r) C(k, r) w[k]
    x[first+k], their Taylor shift by `sign`.  The map's line is
    x[0..first-1] followed by y."""

    sign: int
    first: int
    weights: Optional[Tuple[int, ...]]


# The maps along one axis, by which the inversions are memoised: binomial
# moments from the pmf, [i] = sum_u C(u, i) x[u]; the pmf from them, [u] =
# sum_i (-1)^(i-u) C(i, u) x[i]; the upper-orthant tails from them, [u] =
# sum_i (-1)^(i-u) C(i-1, u-1) x[i] for u >= 1; and back, [i] = sum_u
# C(u-1, i-1) x[u] for i >= 1.  Both tail maps pass [0] through.
moments_axis = Axis(1, 0, None)
pmf_axis = Axis(-1, 0, None)
tails_axis = Axis(-1, 1, None)
tails_inverse_axis = Axis(1, 1, None)


def _growth(axis: Axis, extent: int) -> int:
    """Bits by which `axis` on a line of extent `extent` can grow an entry:
    extent + 2 + the bit length of its largest |weight|."""
    _, _, weights = axis
    return extent + 2 + (max(map(abs, weights)).bit_length() if weights
                         else 0)


def _pack(lines: Sequence[Sequence[int]], axis: Axis,
          width: int) -> List[int]:
    """[r] = sum over k of lane[k] 2^(width k), whose lanes are `axis` of
    lines[r]."""
    sign, first, weights = axis
    packed = []
    for line in lines:
        tail = line[first:]
        if weights:
            tail = list(map(mul, weights, tail))
        acc = 0
        if sign > 0:
            for x in reversed(tail):
                acc = (acc << width) + acc + x
        else:
            for x in reversed(tail):
                acc = (acc << width) - acc + x
        if first:
            for x in reversed(line[:first]):
                acc = (acc << width) + x
        packed.append(acc)
    return packed


def shift_grid(nums: Sequence[Sequence[int]], rows: Axis,
               cols: Axis) -> IntGrid:
    """nums with the axis map `rows` applied to its list of rows, and
    `cols` to its list of columns."""
    per_row = len(nums[0])
    growth = _growth(rows, len(nums) - 1) + _growth(cols, per_row - 1)
    bits = max(map(int.bit_length, chain.from_iterable(nums))) + growth + 1
    size = -(-bits // 8)
    width = 8 * size
    lanes = per_row * len(nums)
    total, = _pack([_pack(nums, cols, width)], rows, width * per_row)
    half = 1 << width - 1
    offset = int.from_bytes(half.to_bytes(size, "little") * lanes, "little")
    values = map(sub, map(int.from_bytes, unpack(
        f"{size}s" * lanes, (total + offset).to_bytes(size * lanes, "little")),
        repeat("little")), repeat(half))
    return list(map(list, zip(*[values] * per_row)))  # runs of per_row lanes


def tail_weights(m: int, s: int) -> List[int]:
    """[i-s] = (-1)^(i-s) C(i-1, s-1) for s <= i <= m: the tail inversion's
    row at s >= 1 from s on, read by the Bonferroni and Chung bounds."""
    return [(-1) ** (i - s) * comb(i - 1, s - 1) for i in range(s, m + 1)]


@memoised
def chung_product(grid, s: int, t: int) -> Tuple[IntGrid, int]:
    """(numerators [k-s][l-t] = sum over s <= i <= k, t <= j <= l of
    (-1)^(i+j-s-t) C(i-1, s-1) C(m-i, k-i) C(j-1, t-1) C(n-j, l-j) s[i][j],
    grid.den), once per (grid, s, t).  Since C(m-i, k-i) = C(m-i, m-k),
    each axis is the shift by +1 of the entries from s on, scaled by
    `tail_weights(m, s)`, in reverse order and read in reverse order.  At
    (1, 1) it is also A . s . B^T of the complementary moments, A[k][i] =
    (-1)^i C(m-i, k-i) and B likewise: the signs cancel."""
    along_m = Axis(1, 0, tuple(tail_weights(grid.m, s)[::-1]))
    along_n = Axis(1, 0, tuple(tail_weights(grid.n, t)[::-1]))
    shifted = shift_grid([row[:t - 1:-1] for row in grid.nums[:s - 1:-1]],
                         along_m, along_n)
    return [row[::-1] for row in shifted[::-1]], grid.den


def antidiagonal_prefix(nums: IntGrid, wa: Sequence[int],
                        wb: Sequence[int]) -> List[int]:
    """[c] = sum over i + j <= c of wa[i] wb[j] nums[i][j]."""
    diag = [0] * (len(wa) + len(wb) - 1)
    for i, (a, row) in enumerate(zip(wa, nums)):
        for j, (b, x) in enumerate(zip(wb, row)):
            diag[i + j] += a * b * x
    for c in range(1, len(diag)):
        diag[c] += diag[c - 1]
    return diag

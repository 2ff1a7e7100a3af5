"""Exact conversions between the pmf/tail and moment representations of a
pair of bounded counting variables.

The moment grid determines the joint law: the pmf comes back by an
alternating double sum, the upper-orthant tails by the inversion pair

    P(S>=u, T>=v) = sum_{i>=u, j>=v} (-1)^(i+j-u-v) C(i-1,u-1) C(j-1,v-1) s[i][j]
    s[i][j]       = sum_{u>=i, v>=j} C(u-1,i-1) C(v-1,j-1) P(S>=u, T>=v)

valid for u, v >= 1.  Boundary indices (u = 0 or v = 0) reduce to the
univariate versions on the marginals, since P(S>=0, T>=v) = P(T>=v).

Each of these maps is a Taylor shift x -> x - 1 or x + 1 along each axis
(along indices 1.. for the tail pair, index 0 passed through), and the
complementary moments read the Chung numerators at (1, 1), a shift by +1
after a diagonal scaling and a reversal.  Each axis map is a
`_kernel.Axis`, and the private `_kernel` module runs a pair of them on
the grid's integer numerators as two Horner passes on packed integers:
each row becomes one int of fixed-width lanes, the rows are then shifted
as one int, and its lanes are decoded once.  Each inversion is memoised
once per grid by `_kernel.memoised`, keyed by its axis map, as a grid with
its corner set, that the per-cell functions read one cell of after one
memo probe.
Every index read here, in `bounds` and by the commands of `cli` is checked
by one call to `model._check_cell`, a chained comparison against each
axis's least legal index that names the first index out of range.  The
brute-force oracle never uses that kernel or that check, so that it
checks these results by independent routes.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import comb
from operator import mul

from . import _kernel
from .combinatorics import Rational
from .model import JointPMF, MomentMatrix, RationalGrid, _check_cell


class TailTable(RationalGrid):
    """Grid of upper-orthant tail probabilities q[u][v] = P(S>=u, T>=v)."""

    VIEW, WHAT, LEAST = "q", "tail", 1
    q = cached_property(RationalGrid._view)


# The tail maps pin the corner: P(S>=0, T>=0) = 1 and s[0][0] = 1 whatever
# the grid they map holds there.
_CORNER_ONE = (_kernel.tails_axis, _kernel.tails_inverse_axis)


@_kernel.memoised
def _inverse(grid: RationalGrid, axis) -> RationalGrid:
    """The grid shifted by the kernel's `axis` map along both axes, 1 at
    (0, 0) for the tail maps, as a grid of least extent 0, built once per
    (grid, axis)."""
    nums = _kernel.shift_grid(grid.nums, axis, axis)
    if axis in _CORNER_ONE:
        nums[0][0] = grid.den
    return RationalGrid.from_ints(grid.m, grid.n, nums, grid.den)


def _cell(grid: RationalGrid, axis, names: str, i: int, j: int) -> Fraction:
    """Cell (i, j), checked in range and named by `names`, of the inversion."""
    _check_cell(grid, names, i, j, 0, 0)
    held = _inverse(grid, axis)
    return Fraction(held.nums[i][j], held.den)


def pmf_grid_from_moments(mm: MomentMatrix) -> RationalGrid:
    """Every P(S=u, T=v) recovered from the moment grid (negative where the
    grid is not the moment grid of a pmf), built once per moment grid."""
    return _inverse(mm, _kernel.pmf_axis)


def pmf_from_moments(mm: MomentMatrix, u: int, v: int) -> Fraction:
    """P(S=u, T=v) recovered from the moment grid."""
    return _cell(mm, _kernel.pmf_axis, "uv", u, v)


def tails_from_moments(mm: MomentMatrix, u: int, v: int) -> Fraction:
    """P(S>=u, T>=v) recovered from the moment grid.

    u = 0 or v = 0 reduce to the univariate marginal inversion; the
    bivariate coefficient C(i-1, u-1) is only meaningful for u >= 1.
    P(S>=0, T>=0) is 1 whatever s[0][0] holds.
    """
    return _cell(mm, _kernel.tails_axis, "uv", u, v)


def tail_table_from_moments(mm: MomentMatrix) -> TailTable:
    """Every P(S>=u, T>=v) recovered from the moment grid, q[0][0] = 1; the
    memoised tail grid it copies may have extent 0, unlike a TailTable."""
    held = _inverse(mm, _kernel.tails_axis)
    return TailTable.from_ints(mm.m, mm.n, held.nums, held.den)


def moments_from_tails(tt: TailTable, i: int, j: int) -> Fraction:
    """Binomial moment s[i][j] recovered from the tail grid; inverse of
    tails_from_moments.  i = 0 or j = 0 use the univariate marginal form;
    s[0][0] is 1 whatever q[0][0] holds."""
    return _cell(tt, _kernel.tails_inverse_axis, "ij", i, j)


def _poly_eval(grid: RationalGrid, t: Rational, s: Rational) -> Fraction:
    """sum_{u,v} grid[u][v] t^u s^v (0^0 = 1) on integers: with t = a/b and
    s = c/d, the grid's numerators over its denominator D are weighted by
    a^u b^(m-u) and c^v d^(n-v), and the sum is over D b^m d^n."""
    t, s = Fraction(t), Fraction(s)
    a, b, c, d = t.numerator, t.denominator, s.numerator, s.denominator
    m, n = grid.m, grid.n
    wt = [c**v * d**(n - v) for v in range(n + 1)]
    total = sum(a**u * b**(m - u) * sum(map(mul, row, wt))
                for u, row in enumerate(grid.nums))
    return Fraction(total, grid.den * b**m * d**n)


def pgf_eval(pmf: JointPMF, t: Rational, s: Rational) -> Fraction:
    """Ordinary bivariate probability generating function at (t, s)."""
    return _poly_eval(pmf, t, s)


def moment_poly_eval(mm: MomentMatrix, t: Rational, s: Rational) -> Fraction:
    """The moment polynomial sum_{i,j} s[i][j] t^i s^j."""
    return _poly_eval(mm, t, s)


def pgf_identity_holds(
    pmf: JointPMF, mm: MomentMatrix, t: Rational, s: Rational
) -> bool:
    """Whether pgf(1+t, 1+s) equals the moment polynomial at (t, s); an
    exact identity when mm holds the moments of pmf."""
    return pgf_eval(pmf, 1 + Fraction(t), 1 + Fraction(s)) == moment_poly_eval(
        mm, t, s
    )


def complementary_moment(mm: MomentMatrix, k: int, l: int) -> Fraction:
    """The complementary moment

        C(m,k) E C(n-T,l) + C(n,l) E C(m-S,k) - E C(m-S,k) C(n-T,l)

    expressed as a linear combination of the moment grid:

        Sbar[k][l] = C(m,k) C(n,l) - (A . s . B^T)[k][l],
        A[k][i] = (-1)^i C(m-i, k-i) for 1 <= i <= k, B likewise in n;

    A . s . B^T is the Chung numerator product at (1, 1)."""
    _check_cell(mm, "kl", k, l, 1, 1)
    part, den = _kernel.chung_product(mm, 1, 1)
    return Fraction(comb(mm.m, k) * comb(mm.n, l) * den - part[k - 1][l - 1],
                    den)

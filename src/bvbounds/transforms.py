"""Exact conversions between the pmf/tail and moment representations of a
pair of bounded counting variables.

The moment grid determines the joint law: the pmf comes back by an
alternating double sum, the upper-orthant tails by the inversion pair

    P(S>=u, T>=v) = sum_{i>=u, j>=v} (-1)^(i+j-u-v) C(i-1,u-1) C(j-1,v-1) s[i][j]
    s[i][j]       = sum_{u>=i, v>=j} C(u-1,i-1) C(v-1,j-1) P(S>=u, T>=v)

valid for u, v >= 1.  Boundary indices (u = 0 or v = 0) reduce to the
univariate versions on the marginals, since P(S>=0, T>=v) = P(T>=v).

Each of these maps, and the complementary moments, is L . s . R^T with
triangular binomial matrices L and R.  The private `_kernel` module
evaluates them once per grid on the grid's own integer numerators; a grid
result is built straight from the ints, its `Fraction` view left unbuilt
until read, and a single value is one `Fraction`.  The brute-force oracle
never uses that kernel, so that it checks these results by independent
routes.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Sequence, Tuple

from . import _kernel
from .combinatorics import DomainError, Rational
from .model import Grid, JointPMF, MomentMatrix, RationalGrid


class TailTable(RationalGrid):
    """Grid of upper-orthant tail probabilities q[u][v] = P(S>=u, T>=v)."""

    VIEW, WHAT, LEAST = "q", "tail", 1
    q: Grid

    def __init__(self, m: int, n: int, q: Sequence[Sequence]):
        super().__init__(m, n, q)


def _check_range(name: str, value: int, lo: int, hi: int) -> None:
    if not (lo <= value <= hi):
        raise DomainError(f"{name}={value} outside [{lo}, {hi}]")


def _cell(grid: RationalGrid, coefficients, names: str, i: int, j: int,
          corner: bool) -> Fraction:
    """Cell (i, j), checked in range and named by `names`, of the kernel
    product of grid by coefficients; 1 at (0, 0) if `corner`."""
    _check_range(names[0], i, 0, grid.m)
    _check_range(names[1], j, 0, grid.n)
    if corner and i == j == 0:
        return Fraction(1)
    nums, den = _kernel.product(grid, coefficients)
    return Fraction(nums[i][j], den)


def pmf_grid_from_moments(mm: MomentMatrix) -> RationalGrid:
    """Every P(S=u, T=v) recovered from the moment grid (negative where the
    grid is not the moment grid of a pmf), built once per moment grid."""
    return _kernel.memo(mm, pmf_grid_from_moments, lambda: (
        RationalGrid.from_ints(mm.m, mm.n, _kernel.apply(
            _kernel.pmf_map(mm.m), mm.nums, _kernel.pmf_map(mm.n)), mm.den)))


def pmf_from_moments(mm: MomentMatrix, u: int, v: int) -> Fraction:
    """P(S=u, T=v) recovered from the moment grid."""
    return _cell(mm, _kernel.pmf_map, "uv", u, v, False)


def tails_from_moments(mm: MomentMatrix, u: int, v: int) -> Fraction:
    """P(S>=u, T>=v) recovered from the moment grid.

    u = 0 or v = 0 reduce to the univariate marginal inversion; the
    bivariate coefficient C(i-1, u-1) is only meaningful for u >= 1.
    P(S>=0, T>=0) is 1 whatever s[0][0] holds.
    """
    return _cell(mm, _kernel.tails_map, "uv", u, v, True)


def tail_table_from_moments(mm: MomentMatrix) -> TailTable:
    """Every P(S>=u, T>=v) recovered from the moment grid, q[0][0] = 1."""
    nums, den = _kernel.product(mm, _kernel.tails_map)
    return TailTable.from_ints(mm.m, mm.n, [[den, *nums[0][1:]], *nums[1:]],
                               den)


def moments_from_tails(tt: TailTable, i: int, j: int) -> Fraction:
    """Binomial moment s[i][j] recovered from the tail grid; inverse of
    tails_from_moments.  i = 0 or j = 0 use the univariate marginal form;
    s[0][0] is 1 whatever q[0][0] holds."""
    return _cell(tt, _kernel.tails_inverse_map, "ij", i, j, True)


def _poly_eval(grid: RationalGrid, t: Rational, s: Rational) -> Fraction:
    """sum_{u,v} grid[u][v] t^u s^v (0^0 = 1) on integers: with t = a/b and
    s = c/d, the grid's numerators over its denominator D are weighted by
    a^u b^(m-u) and c^v d^(n-v), and the sum is over D b^m d^n."""
    t, s = Fraction(t), Fraction(s)
    a, b, c, d = t.numerator, t.denominator, s.numerator, s.denominator
    m, n = grid.m, grid.n
    [[total]] = _kernel.apply(
        (tuple(a**u * b**(m - u) for u in range(m + 1)),),
        grid.nums,
        (tuple(c**v * d**(n - v) for v in range(n + 1)),),
    )
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


def complementary_part(mm: MomentMatrix) -> Tuple[_kernel.IntGrid, int]:
    """(numerators of A . s . B^T, common denominator), the moment part of
    every complementary moment (see `complementary_moment`), computed once
    per grid."""
    return _kernel.product(mm, _kernel.complement_map)


def complementary_moment(mm: MomentMatrix, k: int, l: int) -> Fraction:
    """The complementary moment

        C(m,k) E C(n-T,l) + C(n,l) E C(m-S,k) - E C(m-S,k) C(n-T,l)

    expressed as a linear combination of the moment grid:

        Sbar[k][l] = C(m,k) C(n,l) - (A . s . B^T)[k][l],
        A[k][i] = (-1)^i C(m-i, k-i) for 1 <= i <= k, B likewise in n."""
    _check_range("k", k, 1, mm.m)
    _check_range("l", l, 1, mm.n)
    part, den = complementary_part(mm)
    return Fraction(comb(mm.m, k) * comb(mm.n, l) * den - part[k][l], den)

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
evaluates them once per grid on integers: the grid is held as numerators
over one common denominator, and Fractions are built only for the values
returned.  The brute-force oracle never uses that kernel, so that it checks
these results by independent routes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Tuple

from . import _kernel
from .combinatorics import DomainError, Rational
from .model import Grid, JointPMF, MomentMatrix, _freeze_grid


@dataclass(frozen=True)
class TailTable:
    """Grid of upper-orthant tail probabilities q[u][v] = P(S>=u, T>=v)."""

    m: int
    n: int
    q: Grid

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise DomainError("TailTable requires m >= 1 and n >= 1")
        object.__setattr__(
            self, "q", _freeze_grid(self.q, self.m, self.n, "tail")
        )


def _check_range(name: str, value: int, lo: int, hi: int) -> None:
    if not (lo <= value <= hi):
        raise DomainError(f"{name}={value} outside [{lo}, {hi}]")


def pmf_grid_from_moments(mm: MomentMatrix) -> Grid:
    """Every P(S=u, T=v) recovered from the moment grid, computed once per
    grid."""
    return _kernel.mapped(mm, mm.s, _kernel.pmf_map)


def pmf_from_moments(mm: MomentMatrix, u: int, v: int) -> Fraction:
    """P(S=u, T=v) recovered from the moment grid."""
    _check_range("u", u, 0, mm.m)
    _check_range("v", v, 0, mm.n)
    return pmf_grid_from_moments(mm)[u][v]


def tails_from_moments(mm: MomentMatrix, u: int, v: int) -> Fraction:
    """P(S>=u, T>=v) recovered from the moment grid.

    u = 0 or v = 0 reduce to the univariate marginal inversion; the
    bivariate coefficient C(i-1, u-1) is only meaningful for u >= 1.
    P(S>=0, T>=0) is 1 whatever s[0][0] holds.
    """
    _check_range("u", u, 0, mm.m)
    _check_range("v", v, 0, mm.n)
    if u == 0 and v == 0:
        return Fraction(1)
    return _kernel.mapped(mm, mm.s, _kernel.tails_map)[u][v]


def tail_table_from_moments(mm: MomentMatrix) -> TailTable:
    q = [
        [tails_from_moments(mm, u, v) for v in range(mm.n + 1)]
        for u in range(mm.m + 1)
    ]
    return TailTable(mm.m, mm.n, q)


def moments_from_tails(tt: TailTable, i: int, j: int) -> Fraction:
    """Binomial moment s[i][j] recovered from the tail grid; inverse of
    tails_from_moments.  i = 0 or j = 0 use the univariate marginal form;
    s[0][0] is 1 whatever q[0][0] holds."""
    _check_range("i", i, 0, tt.m)
    _check_range("j", j, 0, tt.n)
    if i == 0 and j == 0:
        return Fraction(1)
    return _kernel.mapped(tt, tt.q, _kernel.tails_inverse_map)[i][j]


def _poly_eval(obj, grid: Grid, t: Rational, s: Rational) -> Fraction:
    """sum_{u,v} grid[u][v] t^u s^v (0^0 = 1) on integers: with t = a/b and
    s = c/d, the grid's numerators over their common denominator D are
    weighted by a^u b^(m-u) and c^v d^(n-v), and the sum is over
    D b^m d^n."""
    t, s = Fraction(t), Fraction(s)
    a, b, c, d = t.numerator, t.denominator, s.numerator, s.denominator
    m, n = obj.m, obj.n
    nums, den = _kernel.exact(obj, grid)
    [[total]] = _kernel.apply(
        (tuple(a**u * b**(m - u) for u in range(m + 1)),),
        nums,
        (tuple(c**v * d**(n - v) for v in range(n + 1)),),
    )
    return Fraction(total, den * b**m * d**n)


def pgf_eval(pmf: JointPMF, t: Rational, s: Rational) -> Fraction:
    """Ordinary bivariate probability generating function at (t, s)."""
    return _poly_eval(pmf, pmf.p, t, s)


def moment_poly_eval(mm: MomentMatrix, t: Rational, s: Rational) -> Fraction:
    """The moment polynomial sum_{i,j} s[i][j] t^i s^j."""
    return _poly_eval(mm, mm.s, t, s)


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
    return _kernel.product(
        mm, mm.s, "complementary",
        _kernel.complement_map(mm.m), _kernel.complement_map(mm.n),
    )


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

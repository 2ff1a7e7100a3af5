"""The bound catalogue for upper-orthant probabilities P(S>=u, T>=v) of a
pair of bounded counting variables, computed from the binomial-moment grid
alone.

Families:
  * truncated alternating (Bonferroni-style) lower/upper pairs,
  * the product-form lower bound (Frechet family) and its ratio-form upper
    companion (Gumbel family) for P(S>=1, T>=1),
  * their generalizations targeting arbitrary (s, t),
  * the alternating ratio bound (Chung family), nonincreasing in its depth
    parameters and exact at full depth,
  * three closed-form literature bounds on P(S>=1, T>=1) built from the four
    moments s11, s12, s21, s22.

Values are reported raw (they may fall outside [0, 1]); a vanishing
denominator yields an undefined BoundValue rather than an error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Dict, Optional, Tuple

from . import _kernel
from .combinatorics import DomainError
from .model import MomentMatrix
from .transforms import _check_range, complementary_moment

LOWER = "lower"
UPPER = "upper"


@dataclass(frozen=True)
class BoundValue:
    """A computed bound: value (None when undefined), direction, family,
    and the parameters it was evaluated at."""

    value: Optional[Fraction]
    direction: str
    family: str
    params: Dict[str, int] = field(default_factory=dict)
    note: Optional[str] = None

    @property
    def defined(self) -> bool:
        return self.value is not None


def _ratio(num: int, denom: int, direction: str, family: str,
           params: Dict[str, int]) -> BoundValue:
    """The bound num / denom, undefined when denom vanishes."""
    if denom == 0:
        return BoundValue(
            None, direction, family, params,
            note="bound undefined for these parameters (zero denominator)",
        )
    return BoundValue(Fraction(num, denom), direction, family, params)


def bonferroni_pair(
    mm: MomentMatrix, u: int, v: int, k: int
) -> Tuple[BoundValue, BoundValue]:
    """Truncated alternating bounds on P(S>=u, T>=v): anti-diagonal partial
    sums of the tail inversion, cut at total order u+v+2k+1 (lower) and
    u+v+2k (upper).  Both equal the exact tail once the cutoff reaches m+n.
    """
    _check_range("u", u, 1, mm.m)
    _check_range("v", v, 1, mm.n)
    if k < 0:
        raise DomainError("k must be nonnegative")

    def compute():
        nums, den = _kernel.exact(mm, mm.s)
        return _kernel.antidiagonal_prefix(
            nums, _kernel.tails_map(mm.m)[u], _kernel.tails_map(mm.n)[v]
        ), den

    prefix, den = _kernel.memo(mm, ("bonferroni", u, v), compute)
    last = mm.m + mm.n
    params = {"u": u, "v": v, "k": k}
    lower = Fraction(prefix[min(u + v + 2 * k + 1, last)], den)
    upper = Fraction(prefix[min(u + v + 2 * k, last)], den)
    return (BoundValue(lower, LOWER, "bonferroni", params),
            BoundValue(upper, UPPER, "bonferroni", params))


def frechet_lower(mm: MomentMatrix, k: int, l: int) -> BoundValue:
    """Product-form lower bound on P(S>=1, T>=1)."""
    _check_range("k", k, 1, mm.m)
    _check_range("l", l, 1, mm.n)
    sbar = complementary_moment(mm, k, l)
    denom = comb(mm.m, k) * comb(mm.n, l) * sbar.denominator
    return _ratio(denom - sbar.numerator, denom, LOWER, "frechet",
                  {"k": k, "l": l})


def gumbel_upper(mm: MomentMatrix, k: int, l: int) -> BoundValue:
    """Ratio-form upper bound on P(S>=1, T>=1); at k=l=1 it reduces to
    s[1][1], the first-order truncation."""
    _check_range("k", k, 1, mm.m)
    _check_range("l", l, 1, mm.n)
    sbar = complementary_moment(mm, k, l)
    num = comb(mm.m, k) * comb(mm.n, l) * sbar.denominator - sbar.numerator
    denom = comb(mm.m - 1, k - 1) * comb(mm.n - 1, l - 1) * sbar.denominator
    return _ratio(num, denom, UPPER, "gumbel", {"k": k, "l": l})


def frechet_gumbel_type(
    mm: MomentMatrix, s: int, t: int, k: int, l: int
) -> Tuple[BoundValue, BoundValue]:
    """Generalized lower/upper pair targeting P(S>=s, T>=t):

        lower = 1 - Sbar_{k,l} / (C(m-s+1,k) C(n-t+1,l))
        upper = (C(m,k)C(n,l) - Sbar_{k,l})
                / ((C(m,k) - C(m-s,k)) (C(n,l) - C(n-t,l)))

    Either bound is undefined when its denominator vanishes.
    """
    _check_range("s", s, 1, mm.m)
    _check_range("t", t, 1, mm.n)
    _check_range("k", k, 1, mm.m)
    _check_range("l", l, 1, mm.n)
    sbar = complementary_moment(mm, k, l)
    num, den = sbar.numerator, sbar.denominator
    params = {"s": s, "t": t, "k": k, "l": l}
    lo_denom = comb(mm.m - s + 1, k) * comb(mm.n - t + 1, l) * den
    up_denom = (comb(mm.m, k) - comb(mm.m - s, k)) * (
        comb(mm.n, l) - comb(mm.n - t, l)
    ) * den
    lower = _ratio(lo_denom - num, lo_denom, LOWER, "frechet_type", params)
    upper = _ratio(
        comb(mm.m, k) * comb(mm.n, l) * den - num, up_denom,
        UPPER, "gumbel_type", params,
    )
    return lower, upper


def chung_bound(mm: MomentMatrix, s: int, t: int, k: int, l: int) -> BoundValue:
    """Alternating ratio bound on P(S>=s, T>=t), nonincreasing in k and l
    and equal to the exact tail at (k, l) = (m, n).  Its numerators for
    every (k, l) are alpha . s . beta^T, computed once per target (s, t)."""
    if not (1 <= s <= k <= mm.m):
        raise DomainError("need 1 <= s <= k <= m")
    if not (1 <= t <= l <= mm.n):
        raise DomainError("need 1 <= t <= l <= n")
    num, den = _kernel.product(
        mm, mm.s, ("chung", s, t),
        _kernel.chung_map(mm.m, s), _kernel.chung_map(mm.n, t),
    )
    denom = comb(mm.m - s, k - s) * comb(mm.n - t, l - t) * den
    return _ratio(num[k][l], denom, UPPER, "chung",
                  {"s": s, "t": t, "k": k, "l": l})


_COMPARISON_FAMILY = {
    "c1": "galambos_xu",
    "c3": "chen_seneta",
    "c6": "madi_nagy_prekopa",
}


def comparison_bound(
    mm: MomentMatrix,
    which: str,
    a: Optional[int] = None,
    b: Optional[int] = None,
) -> BoundValue:
    """Literature bounds on P(S>=1, T>=1) from {s11, s12, s21, s22}.

    c1 (upper):  s11 - (2/n)s12 - (2/m)s21 + (4/mn)s22
    c3 (lower):  the two-parameter family requiring integers a, b with
                 m <= 2a+1 and n <= 2b+1; at a=m-1, b=n-1 it coincides with
                 frechet_lower(2, 2)
    c6 (upper):  min of the two asymmetric three-term combinations
    """
    if which not in _COMPARISON_FAMILY:
        raise DomainError(f"unknown comparison bound {which!r}; expected c1/c3/c6")
    m, n = mm.m, mm.n
    if m < 2 or n < 2:
        raise DomainError("comparison bounds require m >= 2 and n >= 2")
    s11, s12 = mm.s[1][1], mm.s[1][2]
    s21, s22 = mm.s[2][1], mm.s[2][2]
    family = _COMPARISON_FAMILY[which]
    if which == "c1":
        value = (
            s11
            - Fraction(2, n) * s12
            - Fraction(2, m) * s21
            + Fraction(4, m * n) * s22
        )
        return BoundValue(value, UPPER, family, {"u": 1, "v": 1})
    if which == "c3":
        if a is None or b is None:
            raise DomainError("c3 requires integer parameters a and b")
        if a < 1 or b < 1:
            raise DomainError("c3 requires a >= 1 and b >= 1")
        if m - 2 * a - 1 > 0:
            raise DomainError(f"c3 requires m - 2a - 1 <= 0 (m={m}, a={a})")
        if n - 2 * b - 1 > 0:
            raise DomainError(f"c3 requires n - 2b - 1 <= 0 (n={n}, b={b})")
        c = Fraction(4, (a + 1) * (b + 1))
        value = (
            c * s11 - c / b * s12 - c / a * s21 + c / (a * b) * s22
        )
        return BoundValue(value, LOWER, family, {"u": 1, "v": 1, "a": a, "b": b})
    # c6
    first = s11 - Fraction(2, m * n) * s12 - Fraction(2, m) * s21
    second = s11 - Fraction(2, n) * s12 - Fraction(2, m * n) * s21
    return BoundValue(min(first, second), UPPER, family, {"u": 1, "v": 1})

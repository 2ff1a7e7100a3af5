"""Exact generalized binomial coefficients and the paper's combinatorial
identities, checked exactly, as a public API that the package re-exports.
The other modules take only `DomainError` and `Rational` from here; the
kernel uses `math.comb`.

The binomial convention: for any rational d and integer r > 0,
binom(d, r) = d(d-1)...(d-r+1) / r!; binom(d, 0) = 1; binom(d, r) = 0 for
r < 0.  For nonnegative integer d with r > d the falling factorial contains
a zero factor, so the coefficient vanishes as expected.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Union

Rational = Union[int, Fraction]


class DomainError(ValueError):
    """A parameter fell outside the domain stated for an operation."""


def binom(d: Rational, r: int) -> Rational:
    """Generalized binomial coefficient, exact.

    Returns an int for integer d, by math.comb ((-1)^r C(r-d-1, r) for
    d < 0), a Fraction otherwise.
    """
    if r < 0:
        return 0
    if r == 0:
        return 1
    q = Fraction(d)
    if q.denominator == 1:
        d = q.numerator
        return comb(d, r) if d >= 0 else (-1) ** r * comb(r - d - 1, r)
    num = Fraction(1)
    for i in range(r):
        num *= q - i
    return num / factorial(r)


def _require(cond: bool, constraint: str) -> None:
    if not cond:
        raise DomainError(f"parameter outside identity domain: {constraint}")


def _identity1(d: Rational, k: int) -> bool:
    _require(k >= 1, "k >= 1")
    return binom(d, k) == binom(d - 1, k) + binom(d - 1, k - 1)


def _identity2(n: int, k: int) -> bool:
    _require(n >= 1, "n >= 1")
    _require(k >= 0, "k >= 0")
    lhs = sum((-1) ** x * binom(n, x) for x in range(k + 1))
    return lhs == (-1) ** k * binom(n - 1, k)


def _identity3(n: int, k: int) -> bool:
    _require(k >= 1, "k >= 1")
    _require(n >= 0, "n >= 0")
    return binom(n, k) == sum(binom(x - 1, k - 1) for x in range(k, n + 1))


def _identity4(n: int, k: int, r: int) -> bool:
    _require(n >= k >= 1, "n >= k >= 1")
    _require(r >= 1, "r >= 1")
    rhs = sum(binom(n - j, k - 1) for j in range(1, r)) + binom(n - r + 1, k)
    return binom(n, k) == rhs


def _identity5(n: int, l: int, t: int) -> bool:
    _require(0 <= t <= n, "0 <= T <= n")
    _require(0 <= l <= n, "0 <= l <= n")
    rhs = sum(
        (-1) ** r * binom(n - r, l - r) * binom(t, r) for r in range(l + 1)
    )
    return binom(n - t, l) == rhs


_IDENTITIES = {
    1: _identity1,
    2: _identity2,
    3: _identity3,
    4: _identity4,
    5: _identity5,
}


def check_identity(which: int, params: tuple) -> bool:
    """Evaluate both sides of a combinatorial identity exactly.

    Parameter tuples: 1 -> (d, k); 2 -> (n, k); 3 -> (n, k);
    4 -> (n, k, r); 5 -> (n, l, T).
    """
    if which not in _IDENTITIES:
        raise DomainError(f"unknown identity id {which!r}; expected 1..5")
    return _IDENTITIES[which](*params)

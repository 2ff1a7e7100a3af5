"""Reference implementations for the kernel and model tests.

The direct per-cell double sums are what the package evaluated before its
maps went through the separable integer kernel; each returns the value
(None for an undefined bound) or raises the same DomainError as the
package function it mirrors.  `bonferroni_sums` is the Fraction sum over
subset pairs that the package made before it summed integer weights.  The
coefficient matrices are the kernel's maps as the package applied them
before it ran them as Taylor shifts, with a literal matrix product.
`compare_lines` builds the row lines of `compare` as the package did
before it formatted each run of equal pairs once: it sorts every row on
its key and formats every row on its own."""

from fractions import Fraction
from itertools import combinations
from math import comb, gcd

from bvbounds import DomainError, binom


def _check_range(name, value, lo, hi):
    if not (lo <= value <= hi):
        raise DomainError(f"{name}={value} outside [{lo}, {hi}]")


def moments_from_pmf(pmf):
    return [
        [
            sum(
                binom(u, i) * binom(v, j) * pmf.p[u][v]
                for u in range(i, pmf.m + 1)
                for v in range(j, pmf.n + 1)
            )
            for j in range(pmf.n + 1)
        ]
        for i in range(pmf.m + 1)
    ]


def bonferroni_sums(es, kmax, lmax):
    """[k][l]: the Fraction weights of the atoms in every k-subset of the A
    events and l-subset of the B events, summed over all subset pairs."""
    def total(k, l):
        return sum((w for a_sub in combinations(range(es.m), k)
                    for b_sub in combinations(range(es.n), l)
                    for w, a, b in es.atoms
                    if all(a[i] for i in a_sub) and all(b[j] for j in b_sub)),
                   Fraction(0))

    return [[total(k, l) for l in range(lmax + 1)] for k in range(kmax + 1)]


def pmf_from_moments(mm, u, v):
    _check_range("u", u, 0, mm.m)
    _check_range("v", v, 0, mm.n)
    total = Fraction(0)
    for i in range(u, mm.m + 1):
        for j in range(v, mm.n + 1):
            total += (
                (-1) ** (i + j - u - v) * binom(i, u) * binom(j, v) * mm.s[i][j]
            )
    return total


def tails_from_moments(mm, u, v):
    _check_range("u", u, 0, mm.m)
    _check_range("v", v, 0, mm.n)
    if u == 0 and v == 0:
        return Fraction(1)
    if u == 0:
        return Fraction(sum(
            (-1) ** (j - v) * binom(j - 1, v - 1) * mm.s[0][j]
            for j in range(v, mm.n + 1)
        ))
    if v == 0:
        return Fraction(sum(
            (-1) ** (i - u) * binom(i - 1, u - 1) * mm.s[i][0]
            for i in range(u, mm.m + 1)
        ))
    total = Fraction(0)
    for i in range(u, mm.m + 1):
        for j in range(v, mm.n + 1):
            total += (
                (-1) ** (i + j - u - v)
                * binom(i - 1, u - 1)
                * binom(j - 1, v - 1)
                * mm.s[i][j]
            )
    return total


def moments_from_tails(tt, i, j):
    _check_range("i", i, 0, tt.m)
    _check_range("j", j, 0, tt.n)
    if i == 0 and j == 0:
        return Fraction(1)
    if i == 0:
        return Fraction(sum(
            binom(v - 1, j - 1) * tt.q[0][v] for v in range(j, tt.n + 1)
        ))
    if j == 0:
        return Fraction(sum(
            binom(u - 1, i - 1) * tt.q[u][0] for u in range(i, tt.m + 1)
        ))
    total = Fraction(0)
    for u in range(i, tt.m + 1):
        for v in range(j, tt.n + 1):
            total += binom(u - 1, i - 1) * binom(v - 1, j - 1) * tt.q[u][v]
    return total


def complementary_moment(mm, k, l):
    _check_range("k", k, 1, mm.m)
    _check_range("l", l, 1, mm.n)
    acc = Fraction(binom(mm.m, k) * binom(mm.n, l))
    for s_ in range(1, k + 1):
        for r in range(1, l + 1):
            acc -= (
                (-1) ** (s_ + r)
                * binom(mm.m - s_, k - s_)
                * binom(mm.n - r, l - r)
                * mm.s[s_][r]
            )
    return acc


def bonferroni_pair(mm, u, v, k):
    _check_range("u", u, 1, mm.m)
    _check_range("v", v, 1, mm.n)
    if k < 0:
        raise DomainError("k must be nonnegative")

    def truncated(cutoff):
        total = Fraction(0)
        for t in range(u + v, min(cutoff, mm.m + mm.n) + 1):
            sign = (-1) ** (t - (u + v))
            for i in range(max(u, t - mm.n), min(mm.m, t - v) + 1):
                j = t - i
                total += (
                    sign * binom(i - 1, u - 1) * binom(j - 1, v - 1) * mm.s[i][j]
                )
        return total

    return truncated(u + v + 2 * k + 1), truncated(u + v + 2 * k)


def frechet_lower(mm, k, l):
    _check_range("k", k, 1, mm.m)
    _check_range("l", l, 1, mm.n)
    denom = binom(mm.m, k) * binom(mm.n, l)
    return (denom - complementary_moment(mm, k, l)) / denom


def gumbel_upper(mm, k, l):
    _check_range("k", k, 1, mm.m)
    _check_range("l", l, 1, mm.n)
    num = binom(mm.m, k) * binom(mm.n, l) - complementary_moment(mm, k, l)
    return num / (binom(mm.m - 1, k - 1) * binom(mm.n - 1, l - 1))


def frechet_gumbel_type(mm, s, t, k, l):
    _check_range("s", s, 1, mm.m)
    _check_range("t", t, 1, mm.n)
    _check_range("k", k, 1, mm.m)
    _check_range("l", l, 1, mm.n)
    sbar = complementary_moment(mm, k, l)
    lo_denom = binom(mm.m - s + 1, k) * binom(mm.n - t + 1, l)
    lower = None if lo_denom == 0 else 1 - sbar / lo_denom
    up_denom = (binom(mm.m, k) - binom(mm.m - s, k)) * (
        binom(mm.n, l) - binom(mm.n - t, l)
    )
    upper = (
        None if up_denom == 0
        else (binom(mm.m, k) * binom(mm.n, l) - sbar) / up_denom
    )
    return lower, upper


def chung_bound(mm, s, t, k, l):
    _check_range("s", s, 1, mm.m)
    _check_range("t", t, 1, mm.n)
    _check_range("k", k, s, mm.m)
    _check_range("l", l, t, mm.n)
    num = Fraction(0)
    for i in range(s, k + 1):
        for j in range(t, l + 1):
            num += (
                (-1) ** (i + j - s - t)
                * binom(i - 1, i - s)
                * binom(mm.m - i, k - i)
                * binom(j - 1, j - t)
                * binom(mm.n - j, l - j)
                * mm.s[i][j]
            )
    return num / (binom(mm.m - s, k - s) * binom(mm.n - t, l - t))


def comparison_bound(mm, which, a=None, b=None):
    """Literature bounds on P(S>=1, T>=1) from {s11, s12, s21, s22}.

    c1 (upper):  s11 - (2/n)s12 - (2/m)s21 + (4/mn)s22
    c3 (lower):  the two-parameter family requiring integers a, b with
                 m <= 2a+1 and n <= 2b+1; at a=m-1, b=n-1 it coincides with
                 frechet_lower(2, 2)
    c6 (upper):  min of the two asymmetric three-term combinations
    """
    if which not in ("c1", "c3", "c6"):
        raise DomainError(f"unknown comparison bound {which!r}; expected c1/c3/c6")
    m, n = mm.m, mm.n
    if m < 2 or n < 2:
        raise DomainError("comparison bounds require m >= 2 and n >= 2")
    s11, s12, s21, s22 = (Fraction(mm.nums[i][j], mm.den)
                          for i, j in ((1, 1), (1, 2), (2, 1), (2, 2)))
    if which == "c1":
        value = (s11 - Fraction(2, n) * s12 - Fraction(2, m) * s21
                 + Fraction(4, m * n) * s22)
        return value
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
        value = c * s11 - c / b * s12 - c / a * s21 + c / (a * b) * s22
        return value
    # c6
    first = s11 - Fraction(2, m * n) * s12 - Fraction(2, m) * s21
    second = s11 - Fraction(2, n) * s12 - Fraction(2, m * n) * s21
    return min(first, second)


def pgf_eval(pmf, t, s):
    t, s = Fraction(t), Fraction(s)
    return Fraction(sum(
        pmf.p[u][v] * t**u * s**v
        for u in range(pmf.m + 1)
        for v in range(pmf.n + 1)
    ))


def moment_poly_eval(mm, t, s):
    t, s = Fraction(t), Fraction(s)
    return Fraction(sum(
        mm.s[i][j] * t**i * s**j
        for i in range(mm.m + 1)
        for j in range(mm.n + 1)
    ))


# The kernel's maps as the literal coefficient matrices the package used
# before its Taylor shifts: [r][c] for 0 <= r, c <= m.


def _square(m, entry):
    return [[entry(r, c) for c in range(m + 1)] for r in range(m + 1)]


def moments_map(m):
    """[i][u] = C(u, i): pmf -> binomial moments."""
    return _square(m, lambda i, u: comb(u, i))


def pmf_map(m):
    """[u][i] = (-1)^(i-u) C(i, u): binomial moments -> pmf."""
    return _square(m, lambda u, i: (-1) ** (i + u) * comb(i, u))


def tails_map(m):
    """[u][i] = (-1)^(i-u) C(i-1, u-1) for u >= 1, row 0 the unit vector:
    binomial moments -> upper-orthant tails."""
    return _square(m, lambda u, i: int(i == 0) if u == 0 else
                   (-1) ** (i + u) * comb(i - 1, u - 1) if i else 0)


def tails_inverse_map(m):
    """[i][u] = C(u-1, i-1) for i >= 1, row 0 the unit vector: upper-orthant
    tails -> binomial moments."""
    return _square(m, lambda i, u: int(u == 0) if i == 0 else
                   comb(u - 1, i - 1) if u else 0)


def chung_map(m, s):
    """[k][i] = (-1)^(i-s) C(i-1, s-1) C(m-i, k-i) for s <= i <= k: the
    numerator weights of the Chung bound targeting s."""
    return _square(m, lambda k, i: (-1) ** (i + s) * comb(i - 1, s - 1)
                   * comb(m - i, k - i) if s <= i <= k else 0)


def matrix_product(left, nums, right):
    """left . nums . right^T over the integers, by two triple loops."""
    half = [[sum(x * w for x, w in zip(row, r)) for r in right]
            for row in nums]
    return [[sum(l[i] * half[i][c] for i in range(len(half)))
             for c in range(len(right))] for l in left]


def cell_text(num: int, den: int) -> str:
    """str(Fraction(num, den)) for den > 0, built from the ints."""
    g = gcd(num, den)
    return str(num // g) if den == g else f"{num // g}/{den // g}"


def fmt_ratio(num: int, den: int) -> str:
    """num/den (den > 0) as str and float of the Fraction print it."""
    return f"{cell_text(num, den)} (≈{num / den:.4f})"


def _ordered(rows):
    """((numerator, denominator), direction, label, starred) for each
    (label, direction, numerator, denominator > 0) row, in the order of
    (exact value, direction, label).  The starred rows hold the best
    bounds: the greatest lower and the least upper value.

    Each row is keyed by floor(value * 2**shift), shift = 2 * the bit
    length of the largest denominator D.  Two distinct values a/b and c/d
    differ by at least 1/(b d) >= 1/D**2 > 2**-shift, so their keys
    differ, and equal values share one: the keys order the values exactly."""
    shift = 2 * max((den for *_, den in rows), default=1).bit_length()
    keyed = sorted(((num << shift) // den, direction, lbl, num, den)
                   for lbl, direction, num, den in rows)
    best = {
        "lower": next((k[0] for k in reversed(keyed) if k[1] == "lower"),
                      None),
        "upper": next((k[0] for k in keyed if k[1] == "upper"), None),
    }
    return [((num, den), direction, lbl, key == best[direction])
            for key, direction, lbl, num, den in keyed]


def compare_lines(rows):
    """The row lines of `compare` for (label, direction, numerator,
    denominator > 0) rows."""
    lines = []
    for (num, den), direction, lbl, starred in _ordered(rows):
        star = f"  *best {direction}*" if starred else ""
        lines.append(
            f"{direction:5s}  {fmt_ratio(num, den):24s}  {lbl}{star}"
        )
    return lines

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

Every bound is an integer numerator over an integer denominator.  A
*sweep* of each of the first four families at a target holds the
(numerator, denominator) ints of every legal depth (k, l), or k for
Bonferroni, read off one memoised kernel product (the Chung numerators of
the target, or at (1, 1) for the type pair) or the Bonferroni
anti-diagonal prefix; (0, 0) marks an undefined bound.  Each sweep
function is wrapped by `_kernel.memoised`, so it checks the target and
computes once per grid and target, and a repeat call returns the held
sweep after one memo probe.  Every target (a sweep's, a table's) and
every depth (k, l) is checked by one call to `model._check_cell`, which
the inversions share; a Chung depth ranges from its target on.  The one
Bonferroni depth k need only be >= 0: deeper cuts clamp.  A per-bound
function reads one cell (c1, c3 and c6 compute one pair) and returns a
`BoundValue`, a record of that pair whose `value` is its `Fraction`,
built on each read.  The Frechet and Gumbel families are the type
pair at target (1, 1), and Gumbel is Chung at (1, 1): both hold the same
unreduced pair, since C(m,k) - C(m-1,k) = C(m-1,k-1).

`FAMILIES` states each family of `bound` once: its parameters, which are
the CLI's flags, and the call that evaluates it.  `tables(mm, u, v)`
checks its target and holds the two-depth tables there, each with its
label(s), direction, first depth (k, l) and cells: the type pair's and
Chung's.  At (1, 1) it holds two: the type lower table, labelled
type-lower and frechet, and the type upper table, labelled type-upper,
gumbel and chung, since it holds the Chung pairs there.
`compare_rows(mm, u, v)` builds every row of `compare` from them, the
rows of one cell's labels next to each other, then from the Bonferroni
sweep, and c1, c6 and c3 at (a, b) = (m-1, n-1) at (1, 1), or the note
that skips those when m or n < 2.

Values are reported raw (they may fall outside [0, 1]); a vanishing
denominator yields the pair (0, 0), an undefined BoundValue, rather than
an error.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from . import _kernel
from .combinatorics import DomainError
from .model import MomentMatrix, _check_cell

LOWER = "lower"
UPPER = "upper"

Pair = Tuple[int, int]  # (numerator, denominator), (0, 0) when undefined
PairGrid = List[List[Pair]]  # [i][j]: depth (first k + i, first l + j)
Row = Tuple[str, str, int, int]  # (label, direction, numerator, denominator)


class BoundValue(NamedTuple):
    """A computed bound: its (numerator, denominator > 0) pair, not
    necessarily reduced, or (0, 0) when undefined; its direction, family,
    and the parameters it was evaluated at.  `value` is the pair's rational
    (None when undefined), and bounds compare equal by value."""

    pair: Pair
    direction: str
    family: str
    params: Dict[str, int]

    @property
    def value(self) -> Optional[Fraction]:
        return Fraction(*self.pair) if self.pair[1] else None

    def __eq__(self, other):
        if not isinstance(other, BoundValue):
            return NotImplemented
        return self.value == other.value and self[1:] == other[1:]

    __ne__ = object.__ne__  # else tuple.__ne__ compares the pairs as tuples

    @property
    def defined(self) -> bool:
        return self.pair[1] != 0

    @property
    def note(self) -> Optional[str]:
        return (None if self.defined else
                "bound undefined for these parameters (zero denominator)")


def _grid(nums, a, b) -> PairGrid:
    """[i][j] = (nums[i][j], a[i] b[j])."""
    return [[(x, ai * bj) for x, bj in zip(row, b)]
            for row, ai in zip(nums, a)]


@_kernel.memoised
def bonferroni_sweep(
    mm: MomentMatrix, u: int, v: int
) -> Tuple[List[Pair], List[Pair]]:
    """(lower, upper) truncated alternating bounds on P(S>=u, T>=v): [k] is
    the anti-diagonal partial sum of the tail inversion cut at total order
    u+v+2k+1 (lower) and u+v+2k (upper), for 0 <= k <= K = (m+n-u-v)//2 + 1.
    Both equal the exact tail at K, as does every deeper cut."""
    _check_cell(mm, "uv", u, v, 1, 1)
    den = mm.den
    # the sub-grid from (u, v) on, its cuts counted from order u + v
    prefix = _kernel.antidiagonal_prefix(
        [row[v:] for row in mm.nums[u:]], _kernel.tail_weights(mm.m, u),
        _kernel.tail_weights(mm.n, v))
    last = mm.m + mm.n - u - v
    cuts = range(0, last + 3, 2)
    return ([(prefix[min(c + 1, last)], den) for c in cuts],
            [(prefix[min(c, last)], den) for c in cuts])


@_kernel.memoised
def type_sweep(mm: MomentMatrix, s: int,
               t: int) -> Tuple[PairGrid, PairGrid]:
    """(lower, upper) pair targeting P(S>=s, T>=t), [k-1][l-1] for
    1 <= k <= m and 1 <= l <= n:

        lower = 1 - Sbar_{k,l} / (C(m-s+1,k) C(n-t+1,l))
        upper = (C(m,k)C(n,l) - Sbar_{k,l})
                / ((C(m,k) - C(m-s,k)) (C(n,l) - C(n-t,l)))

    Over the grid's common denominator, Sbar_{k,l} = C(m,k)C(n,l) -
    part[k-1][l-1], so the Chung numerator at (1, 1) is the upper one.
    (0, 0) marks a lower cell whose denominator vanishes (k > m-s+1 or
    l > n-t+1); no upper denominator does."""
    _check_cell(mm, "st", s, t, 1, 1)
    m, n = mm.m, mm.n
    ks, ls = range(1, m + 1), range(1, n + 1)
    part, den = _kernel.chung_product(mm, 1, 1)
    full_a = [comb(m, k) * den for k in ks]
    full_b = [comb(n, l) for l in ls]
    lo_a = [comb(m - s + 1, k) * den for k in ks]
    lo_b = [comb(n - t + 1, l) for l in ls]
    # 1 - Sbar / d = (d - C(m,k) C(n,l) + part) / d
    lower = [[(a * b - fa * fb + x, a * b) if a * b else (0, 0)
              for x, b, fb in zip(row, lo_b, full_b)]
             for row, a, fa in zip(part, lo_a, full_a)]
    return lower, _grid(
        part, [(comb(m, k) - comb(m - s, k)) * den for k in ks],
        [comb(n, l) - comb(n - t, l) for l in ls])


@_kernel.memoised
def chung_sweep(mm: MomentMatrix, s: int, t: int) -> PairGrid:
    """Alternating ratio bound on P(S>=s, T>=t), [k-s][l-t] for s <= k <= m,
    t <= l <= n: alpha . s . beta^T over C(m-s,k-s) C(n-t,l-t)."""
    _check_cell(mm, "st", s, t, 1, 1)
    m, n = mm.m, mm.n
    nums, den = _kernel.chung_product(mm, s, t)
    return _grid(nums, [comb(m - s, k - s) * den for k in range(s, m + 1)],
                 [comb(n - t, l - t) for l in range(t, n + 1)])


class Table(NamedTuple):
    """A family's bounds on one target at every legal depth, as pairs:
    cells()[i][j] is the one at depth (k, l) = (first[0] + i, first[1] + j)."""

    labels: Tuple[str, ...]
    direction: str
    first: Tuple[int, int]
    cells: Callable[[], PairGrid]


def tables(mm: MomentMatrix, u: int, v: int) -> List[Table]:
    """The type pair's and Chung's tables on P(S>=u, T>=v).  At (1, 1) the
    type lower table is also Frechet's, and the type upper table is also
    Gumbel's and Chung's, whose pairs it holds, so Chung has no table of
    its own there.  The target is checked here; no bound is computed until
    cells() runs."""
    _check_cell(mm, "uv", u, v, 1, 1)
    at_11 = (u, v) == (1, 1)
    found = [
        Table(("type-lower",) + ("frechet",) * at_11, LOWER, (1, 1),
              lambda: type_sweep(mm, u, v)[0]),
        Table(("type-upper",) + ("gumbel", "chung") * at_11, UPPER, (1, 1),
              lambda: type_sweep(mm, u, v)[1]),
    ]
    if not at_11:
        found.append(Table(("chung",), UPPER, (u, v),
                           lambda: chung_sweep(mm, u, v)))
    return found


def compare_rows(mm: MomentMatrix, u: int, v: int) -> Tuple[List[Row], list]:
    """((label, direction, num, den) of each defined bound on P(S>=u, T>=v),
    its pair as computed (den > 0, not necessarily reduced), (label, note)
    of each family skipped there).  The rows of a cell's labels are
    adjacent and hold one pair."""
    rows = [(f"{lbl} k={k} l={l}", t.direction, num, den)
            for t in tables(mm, u, v)
            for k, row in enumerate(t.cells(), t.first[0])
            for l, (num, den) in enumerate(row, t.first[1]) if den
            for lbl in t.labels]
    for side, sweep in zip((LOWER, UPPER), bonferroni_sweep(mm, u, v)):
        rows += [(f"bonferroni-{side} k={k}", side, num, den)
                 for k, (num, den) in enumerate(sweep) if den]
    if (u, v) != (1, 1):
        return rows, []
    if mm.m < 2 or mm.n < 2:
        return rows, [("c1/c3/c6", "require m >= 2 and n >= 2")]
    a, b = mm.m - 1, mm.n - 1
    closed = (("c1", comparison_bound(mm, "c1")),
              ("c6", comparison_bound(mm, "c6")),
              (f"c3 a={a} b={b}", comparison_bound(mm, "c3", a, b)))
    return rows + [(label, bound.direction, *bound.pair)
                   for label, bound in closed if bound.defined], []


def bonferroni_pair(
    mm: MomentMatrix, u: int, v: int, k: int
) -> Tuple[BoundValue, BoundValue]:
    """Truncated alternating bounds on P(S>=u, T>=v) at depth k."""
    lower, upper = bonferroni_sweep(mm, u, v)
    if k < 0:
        raise DomainError("k must be nonnegative")
    depth, params = min(k, len(lower) - 1), {"u": u, "v": v, "k": k}
    return (BoundValue(lower[depth], LOWER, "bonferroni", params),
            BoundValue(upper[depth], UPPER, "bonferroni", params))


def frechet_lower(mm: MomentMatrix, k: int, l: int) -> BoundValue:
    """Product-form lower bound on P(S>=1, T>=1)."""
    _check_cell(mm, "kl", k, l, 1, 1)
    return BoundValue(type_sweep(mm, 1, 1)[0][k - 1][l - 1], LOWER,
                      "frechet", {"k": k, "l": l})


def gumbel_upper(mm: MomentMatrix, k: int, l: int) -> BoundValue:
    """Ratio-form upper bound on P(S>=1, T>=1); at k=l=1 it reduces to
    s[1][1], the first-order truncation."""
    _check_cell(mm, "kl", k, l, 1, 1)
    return BoundValue(type_sweep(mm, 1, 1)[1][k - 1][l - 1], UPPER,
                      "gumbel", {"k": k, "l": l})


def frechet_gumbel_type(
    mm: MomentMatrix, s: int, t: int, k: int, l: int
) -> Tuple[BoundValue, BoundValue]:
    """Generalized lower/upper pair targeting P(S>=s, T>=t); either bound is
    undefined when its denominator vanishes."""
    lower, upper = type_sweep(mm, s, t)
    _check_cell(mm, "kl", k, l, 1, 1)
    params = {"s": s, "t": t, "k": k, "l": l}
    return (BoundValue(lower[k - 1][l - 1], LOWER, "frechet_type", params),
            BoundValue(upper[k - 1][l - 1], UPPER, "gumbel_type", params))


def chung_bound(mm: MomentMatrix, s: int, t: int, k: int, l: int) -> BoundValue:
    """Alternating ratio bound on P(S>=s, T>=t), nonincreasing in k and l
    and equal to the exact tail at (k, l) = (m, n)."""
    sweep = chung_sweep(mm, s, t)
    _check_cell(mm, "kl", k, l, s, t)
    return BoundValue(sweep[k - s][l - t], UPPER, "chung",
                      {"s": s, "t": t, "k": k, "l": l})


def comparison_bound(mm: MomentMatrix, which: str, a: Optional[int] = None,
                     b: Optional[int] = None) -> BoundValue:
    """Literature bounds on P(S>=1, T>=1) from {s11, s12, s21, s22}.

    c1 (upper):  s11 - (2/n)s12 - (2/m)s21 + (4/mn)s22
    c3 (lower):  the two-parameter family requiring integers a, b with
                 m <= 2a+1 and n <= 2b+1; at a=m-1, b=n-1 it coincides with
                 frechet_lower(2, 2)
    c6 (upper):  min of the two asymmetric three-term combinations
    With D = mm.den, c1 and c6 are pairs over mn D, c3 over (a+1)(b+1)ab D.
    """
    if which not in ("c1", "c3", "c6"):
        raise DomainError(f"unknown comparison bound {which!r}; expected c1/c3/c6")
    m, n = mm.m, mm.n
    if m < 2 or n < 2:
        raise DomainError("comparison bounds require m >= 2 and n >= 2")
    (_, s11, s12, *_), (_, s21, s22, *_) = mm.nums[1:3]
    mn, den = m * n, mm.den
    if which == "c1":
        return BoundValue((mn * s11 - 2 * m * s12 - 2 * n * s21 + 4 * s22,
                           mn * den), UPPER, "galambos_xu", {"u": 1, "v": 1})
    if which == "c3":
        if a is None or b is None:
            raise DomainError("c3 requires integer parameters a and b")
        if a < 1 or b < 1:
            raise DomainError("c3 requires a >= 1 and b >= 1")
        if m - 2 * a - 1 > 0:
            raise DomainError(f"c3 requires m - 2a - 1 <= 0 (m={m}, a={a})")
        if n - 2 * b - 1 > 0:
            raise DomainError(f"c3 requires n - 2b - 1 <= 0 (n={n}, b={b})")
        return BoundValue((4 * (a * b * s11 - a * s12 - b * s21 + s22),
                           (a + 1) * (b + 1) * a * b * den), LOWER,
                          "chen_seneta", {"u": 1, "v": 1, "a": a, "b": b})
    # c6: both terms over mn D, so the min of their numerators
    return BoundValue((min(mn * s11 - 2 * s12 - 2 * n * s21,
                           mn * s11 - 2 * m * s12 - 2 * s21), mn * den),
                      UPPER, "madi_nagy_prekopa", {"u": 1, "v": 1})


# Each family of `bound --family`: (the parameters that follow the moment
# grid, in order, which are also the CLI's flags; a function of the grid and
# those parameters that returns the family's bounds).  Each function looks
# its bound up when called, so a rebound module attribute is the one run.
FAMILIES: Dict[str, Tuple[Tuple[str, ...], Callable[..., tuple]]] = {
    "bonferroni": (("u", "v", "k"), lambda mm, *p: bonferroni_pair(mm, *p)),
    "frechet": (("k", "l"), lambda mm, *p: (frechet_lower(mm, *p),)),
    "gumbel": (("k", "l"), lambda mm, *p: (gumbel_upper(mm, *p),)),
    "type": (("s", "t", "k", "l"), lambda mm, *p: frechet_gumbel_type(mm, *p)),
    "chung": (("s", "t", "k", "l"), lambda mm, *p: (chung_bound(mm, *p),)),
    "c1": ((), lambda mm: (comparison_bound(mm, "c1"),)),
    "c3": (("a", "b"), lambda mm, *p: (comparison_bound(mm, "c3", *p),)),
    "c6": ((), lambda mm: (comparison_bound(mm, "c6"),)),
}

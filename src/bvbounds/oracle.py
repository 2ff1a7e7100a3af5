"""Brute-force ground truth and randomized property validation.

Everything here works directly on pmfs and event systems by exact
summation, never through the moment machinery, so a disagreement between
this module and the transform/bound formulas is a genuine bug on the
formula side.  The pmf is summed on integers: its cells as weights over
the lcm of their denominators, computed here from the cells themselves;
the tail table is their two-dimensional suffix sums, and `exact_tail`
keeps the literal sum over the orthant.

Each trial of `validate` builds one context (`_Trial`) that its properties
read, built on first use and never kept across instances.  Every property
is in one table, in the default run order (`ALL_PROPERTIES`).  It yields
its checks, each a tuple (equal, property id, params, lhs, rhs) on two
integer pairs, and one function, `_record`, compares them exactly and
builds a `Failure` only for a check that fails.

`FAMILY_TABLE` states each bound family once: the check ids of its lower
and upper bounds, its `bounds` function, its cells at (m, n) and its
shape in the depths (`RISING`).  A trial calls each family's function
once per cell, on first use (never a sweep, `bounds.tables` or
`bounds.compare_rows`), and keeps the cells for the trial.  Every check of
a bound reads them: `_sandwich` puts each on its side of the exact tail,
`_shape` runs `check_shape` on each target's grid, which `shape_failures`
also records for the CLI's `sweep`, and the anchors read the cells where a
bound is exact.
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass, field
from functools import cached_property, partial
from fractions import Fraction
from itertools import chain, repeat
from math import comb, lcm
from typing import (Callable, Dict, Iterable, Iterator, List, NamedTuple,
                    Optional, Tuple, Union)

from . import bounds as bnd
from . import model, transforms
from .combinatorics import DomainError
from .model import EventSystem, JointPMF
from .transforms import TailTable

WEIGHT_GRANULARITY = 16

KINDS = ("dense_pmf", "sparse_pmf", "event_system")


@dataclass(frozen=True)
class InstanceSpec:
    """Seeded recipe for one random instance; identical specs always
    regenerate identical instances."""

    seed: int
    m: int
    n: int
    kind: str = "dense_pmf"
    atoms: Optional[int] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown instance kind {self.kind!r}")
        if self.m < 1 or self.n < 1:
            raise DomainError("instance dimensions must be >= 1")
        if self.kind == "event_system" and (self.atoms is None or self.atoms < 1):
            raise DomainError("event_system instances need atoms >= 1")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class Failure:
    spec: InstanceSpec
    property_id: str
    params: Dict[str, int]
    lhs: Fraction
    rhs: Fraction

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "property": self.property_id,
            "params": dict(self.params),
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
        }


@dataclass
class ValidationReport:
    """Trials run, exact violations found and, for each selected property
    id, the checks it made (`to_dict` leaves the counts out)."""

    trials: int = 0
    failures: List[Failure] = field(default_factory=list)
    elapsed: float = 0.0
    checks: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "failures": [f.to_dict() for f in self.failures],
        }


def random_instance(spec: InstanceSpec) -> Union[JointPMF, EventSystem]:
    """Deterministic random instance: integer weights 0..16 normalized
    exactly to rationals."""
    rng = random.Random(spec.seed)
    if spec.kind == "event_system":
        return _random_event_system(rng, spec.m, spec.n, spec.atoms)
    sparse = spec.kind == "sparse_pmf"
    while True:
        w = [
            [rng.randint(0, WEIGHT_GRANULARITY) for _ in range(spec.n + 1)]
            for _ in range(spec.m + 1)
        ]
        if sparse:
            w = [[0 if rng.random() < 0.5 else x for x in row] for row in w]
        total = sum(map(sum, w))
        if total:
            break
    p = [[Fraction(x, total) for x in row] for row in w]
    return JointPMF(spec.m, spec.n, p)


def _random_event_system(rng, m: int, n: int, count: int) -> EventSystem:
    while True:
        weights = [rng.randint(0, WEIGHT_GRANULARITY) for _ in range(count)]
        total = sum(weights)
        if total:
            break
    atoms = []
    for w in weights:
        a = tuple(rng.randint(0, 1) for _ in range(m))
        b = tuple(rng.randint(0, 1) for _ in range(n))
        if w:
            atoms.append((Fraction(w, total), a, b))
    return EventSystem(m, n, atoms)


def exact_tail(pmf: JointPMF, u: int, v: int) -> Fraction:
    """Suffix sum P(S>=u, T>=v) straight from the pmf."""
    if not (0 <= u <= pmf.m and 0 <= v <= pmf.n):
        name, x, hi = (("u", u, pmf.m) if not 0 <= u <= pmf.m
                       else ("v", v, pmf.n))
        raise DomainError(f"{name}={x} outside [0, {hi}]")
    return Fraction(sum(
        pmf.p[i][j]
        for i in range(u, pmf.m + 1)
        for j in range(v, pmf.n + 1)
    ))


def _over_lcm(rows) -> Tuple[List[List[int]], int]:
    """(ints, d) with rows[i][j] = ints[i][j] / d, for rows of Fractions
    and d the lcm of their denominators."""
    d = lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (d // x.denominator) for x in row]
            for row in rows], d


def _suffix_sums(weights: List[List[int]]) -> List[List[int]]:
    """q[u][v] = sum of weights[i][j] over i >= u, j >= v."""
    cols = len(weights[0])
    q = [[0] * (cols + 1) for _ in range(len(weights) + 1)]
    for u in range(len(weights) - 1, -1, -1):
        row, below, here = weights[u], q[u + 1], q[u]
        for v in range(cols - 1, -1, -1):
            here[v] = row[v] + below[v] + here[v + 1] - below[v + 1]
    return [row[:cols] for row in q[:-1]]


def tail_table_from_pmf(pmf: JointPMF) -> TailTable:
    """Full tail grid by two-dimensional suffix sums; independent of the
    moment route."""
    return _Trial(pmf).tt


# ---------------------------------------------------------------------------
# the oracle's table of bound families

def _targets(m: int, n: int) -> Iterator[Tuple[int, int]]:
    return ((s, t) for s in range(1, m + 1) for t in range(1, n + 1))


def _sides(got) -> Tuple[List[bnd.Pair], List[bnd.Pair]]:
    """The pairs of the lower and of the upper bounds of (lower, upper)s."""
    return [lo.pair for lo, _ in got], [up.pair for _, up in got]


def _bonferroni_cells(mm, call):
    for u, v in _targets(mm.m, mm.n):
        ks = range((mm.m + mm.n - u - v) // 2 + 2)
        yield ((u, v), len(ks), [{"u": u, "v": v, "k": k} for k in ks],
               _sides([call(mm, u, v, k) for k in ks]))


def _depth_cells(mm, call):
    ks, ls = range(1, mm.m + 1), range(1, mm.n + 1)
    yield ((1, 1), len(ls), [{"k": k, "l": l} for k in ks for l in ls],
           ([call(mm, k, l).pair for k in ks for l in ls],))


def _type_cells(mm, call):
    ks, ls = range(1, mm.m + 1), range(1, mm.n + 1)
    for s, t in _targets(mm.m, mm.n):
        yield ((s, t), len(ls),
               [{"s": s, "t": t, "k": k, "l": l} for k in ks for l in ls],
               _sides([call(mm, s, t, k, l) for k in ks for l in ls]))


def _chung_cells(mm, call):
    for s, t in _targets(mm.m, mm.n):
        ks, ls = range(s, mm.m + 1), range(t, mm.n + 1)
        yield ((s, t), len(ls),
               [{"s": s, "t": t, "k": k, "l": l} for k in ks for l in ls],
               ([call(mm, s, t, k, l).pair for k in ks for l in ls],))


def _closed_cells(mm, call, which: str):
    if mm.m >= 2 and mm.n >= 2:
        yield (1, 1), 1, [{}], ([call(mm, which).pair],)


def _c3_cells(mm, call):
    if mm.m >= 2 and mm.n >= 2:
        # from the least a and b with m <= 2a + 1 and n <= 2b + 1
        as_ = range(max(1, mm.m // 2), mm.m + 1)
        bs = range(max(1, mm.n // 2), mm.n + 1)
        yield ((1, 1), len(bs), [{"a": a, "b": b} for a in as_ for b in bs],
               ([call(mm, "c3", a, b).pair for a in as_ for b in bs],))


class Family(NamedTuple):
    """How the oracle checks one family of `bound --family`: the check ids of
    its lower and upper bounds, None for a side it does not bound; the name
    of its `bounds` function, which returns the bound, or the pair (lower,
    upper); its `cells(mm, call)`, which calls that function once per cell,
    in check order, and yields each target (u, v), its number of columns
    (one row per depth), the params of its cells row by row, and the pairs
    of its bounds on each side it bounds, the lower first; and, for a swept
    family, its shape in the depths k and l: rising (True) is nondecreasing
    and concave, falling (False) nonincreasing and convex."""

    lower: Optional[str]
    upper: Optional[str]
    call: str
    cells: Callable[..., Iterator[tuple]]
    rising: Optional[bool] = None


FAMILY_TABLE: Dict[str, Family] = {
    "bonferroni": Family("sandwich_bonferroni_lower",
                         "sandwich_bonferroni_upper", "bonferroni_pair",
                         _bonferroni_cells),
    "frechet": Family("sandwich_frechet", None, "frechet_lower",
                      _depth_cells, rising=True),
    "gumbel": Family(None, "sandwich_gumbel", "gumbel_upper", _depth_cells,
                     rising=False),
    "type": Family("sandwich_frechet_type", "sandwich_gumbel_type",
                   "frechet_gumbel_type", _type_cells),
    "chung": Family(None, "sandwich_chung", "chung_bound", _chung_cells,
                    rising=False),
    "c1": Family(None, "sandwich_c1", "comparison_bound",
                 partial(_closed_cells, which="c1")),
    "c3": Family("sandwich_c3", None, "comparison_bound", _c3_cells),
    "c6": Family(None, "sandwich_c6", "comparison_bound",
                 partial(_closed_cells, which="c6")),
}

RISING = {name: family.rising for name, family in FAMILY_TABLE.items()
          if family.rising is not None}


# ---------------------------------------------------------------------------
# property suite

def _pair(x: Fraction) -> bnd.Pair:
    return x.numerator, x.denominator


class _Trial:
    """One trial's instance and the exact data its properties share: the
    pmf (for an event system, its counting pmf) as integer `weights` over
    `total`, the lcm of its denominators, and, each built on first use, the
    integer suffix sums `tails` over `total`, the moment grid of that pmf,
    its tail table and the cells of each family of `FAMILY_TABLE`."""

    def __init__(self, instance: Union[JointPMF, EventSystem]):
        is_es = isinstance(instance, EventSystem)
        self.es = instance if is_es else None
        self.pmf = model.counting_pmf(instance) if is_es else instance
        self.weights, self.total = _over_lcm(self.pmf.p)
        self._bounds: Dict[str, list] = {}

    @cached_property
    def tails(self) -> List[List[int]]:
        return _suffix_sums(self.weights)

    def tail(self, u: int, v: int) -> bnd.Pair:
        """P(S>=u, T>=v) as a pair."""
        return self.tails[u][v], self.total

    @cached_property
    def mm(self) -> model.MomentMatrix:
        return model.moments_from_pmf(self.pmf)

    @cached_property
    def tt(self) -> TailTable:
        return TailTable.from_ints(self.pmf.m, self.pmf.n, self.tails,
                                   self.total)

    def bounds(self, name: str) -> List[tuple]:
        """The cells of the family `name` of `FAMILY_TABLE`, made on first
        read, with its `bounds` function as bound then, so a rebound module
        attribute is the one checked, and kept for the trial."""
        found = self._bounds.get(name)
        if found is None:
            family = FAMILY_TABLE[name]
            found = self._bounds[name] = list(
                family.cells(self.mm, getattr(bnd, family.call)))
        return found


# A check is (_EQ or _LE, property id, params, lhs, rhs) on integer pairs:
# it holds when lhs == rhs for _EQ, lhs <= rhs for _LE.
_EQ, _LE = True, False
Check = Tuple[bool, str, Dict[str, int], bnd.Pair, bnd.Pair]


def _record(spec: Optional[InstanceSpec], checks: Iterable[Check],
            failures: List[Failure]) -> int:
    """Compare each check's pairs a/b and c/d by cross-multiplication,
    append a `Failure`, with its `Fraction`s, for each that fails, and
    return how many checks there were."""
    count = 0
    for equal, prop, params, (a, b), (c, d) in checks:
        count += 1
        if (a * d != c * b) if equal else (a * d > c * b):
            failures.append(
                Failure(spec, prop, params, Fraction(a, b), Fraction(c, d)))
    return count


def _second_difference(x: bnd.Pair, y: bnd.Pair,
                       z: bnd.Pair) -> bnd.Pair:
    """z - 2y + x as a pair: the sign of its numerator a·d·f − 2·c·b·f +
    e·b·d is the sign of the curvature at y."""
    (a, b), (c, d), (e, f) = x, y, z
    return a * d * f - 2 * c * b * f + e * b * d, b * d * f


def check_shape(family: str, grid: bnd.PairGrid,
                params: List[List[Dict[str, int]]],
                then: Optional[Callable[..., Iterable[Check]]] = None
                ) -> Iterator[Check]:
    """Yield the checks of the shape `RISING` states for a swept family on
    grid[i][j], the pair of its bound at params[i][j], whose depth (k, l)
    is one more in k at i + 1 and one more in l at j + 1.  At each cell, in
    order: monotone in k, monotone in l, curvature in k, curvature in l,
    then the checks of `then(i, j, params[i][j])` if given."""
    rising = RISING[family]

    def le(prop, p, lhs, rhs):
        return (_LE, prop, p, lhs, rhs) if rising else (_LE, prop, p, rhs, lhs)

    bend = "concave" if rising else "convex"
    mono_k, mono_l = f"{family}_monotone_k", f"{family}_monotone_l"
    bend_k, bend_l = f"{family}_{bend}_k", f"{family}_{bend}_l"
    rows, cols = len(grid), len(grid[0])
    for i, (row, prow) in enumerate(zip(grid, params)):
        for j, (x, p) in enumerate(zip(row, prow)):
            if i + 1 < rows:
                yield le(mono_k, p, x, grid[i + 1][j])
            if j + 1 < cols:
                yield le(mono_l, p, x, row[j + 1])
            if i + 2 < rows:
                yield le(bend_k, p, _second_difference(x, grid[i + 1][j],
                                                       grid[i + 2][j]), (0, 1))
            if j + 2 < cols:
                yield le(bend_l, p,
                         _second_difference(x, row[j + 1], row[j + 2]), (0, 1))
            if then is not None:
                yield from then(i, j, p)


def shape_failures(family: str, grid: bnd.PairGrid,
                   first: Tuple[int, int]) -> List[Failure]:
    """The shape checks of `check_shape` that grid fails, with no spec, for
    grid[i][j] at depth (k, l) = (first[0] + i, first[1] + j)."""
    k0, l0 = first
    params = [[{"k": k, "l": l} for l in range(l0, l0 + len(grid[0]))]
              for k in range(k0, k0 + len(grid))]
    failures: List[Failure] = []
    _record(None, check_shape(family, grid, params), failures)
    return failures


def _prop_theorem1_roundtrip(trial: _Trial) -> Iterator[Check]:
    pmf, mm = trial.pmf, trial.mm
    for u in range(pmf.m + 1):
        for v in range(pmf.n + 1):
            yield (_EQ, "theorem1_roundtrip", {"u": u, "v": v},
                   _pair(transforms.pmf_from_moments(mm, u, v)),
                   (trial.weights[u][v], trial.total))


def _prop_theorem2_roundtrip(trial: _Trial) -> Iterator[Check]:
    pmf, mm, tt = trial.pmf, trial.mm, trial.tt
    for u in range(pmf.m + 1):
        for v in range(pmf.n + 1):
            yield (_EQ, "theorem2_tails", {"u": u, "v": v},
                   _pair(transforms.tails_from_moments(mm, u, v)),
                   trial.tail(u, v))
    for i in range(pmf.m + 1):
        for j in range(pmf.n + 1):
            yield (_EQ, "theorem2_moments", {"i": i, "j": j},
                   _pair(transforms.moments_from_tails(tt, i, j)),
                   _pair(mm.s[i][j]))


def _prop_pgf_identity(trial: _Trial) -> Iterator[Check]:
    pmf, mm = trial.pmf, trial.mm
    grid = [Fraction(-1), Fraction(1, 2), Fraction(2)]
    for t in grid:
        for s in grid:
            yield (
                _EQ, "pgf_identity",
                {"t_num": t.numerator, "t_den": t.denominator,
                 "s_num": s.numerator, "s_den": s.denominator},
                _pair(transforms.pgf_eval(pmf, 1 + t, 1 + s)),
                _pair(transforms.moment_poly_eval(mm, t, s)),
            )


def _prop_event_roundtrip(trial: _Trial) -> Iterator[Check]:
    pmf = trial.pmf
    back = model.counting_pmf(model.event_system_from_pmf(pmf))
    for u in range(pmf.m + 1):
        for v in range(pmf.n + 1):
            yield (_EQ, "event_roundtrip", {"u": u, "v": v},
                   _pair(back.p[u][v]), (trial.weights[u][v], trial.total))


def _prop_moment_bounds(trial: _Trial) -> Iterator[Check]:
    pmf, mm = trial.pmf, trial.mm
    yield _EQ, "moment_bounds", {"i": 0, "j": 0}, _pair(mm.s[0][0]), (1, 1)
    for i in range(pmf.m + 1):
        for j in range(pmf.n + 1):
            s = _pair(mm.s[i][j])
            yield _LE, "moment_bounds", {"i": i, "j": j}, (0, 1), s
            yield (_LE, "moment_bounds", {"i": i, "j": j}, s,
                   (comb(pmf.m, i) * comb(pmf.n, j), 1))


def _prop_complementary_expansion(trial: _Trial) -> Iterator[Check]:
    # linear-in-moments form of the complementary moments vs direct
    # expectations over the pmf, bivariate and univariate, each expectation
    # a numerator over trial.total
    mm, total = trial.mm, trial.total
    m, n = trial.pmf.m, trial.pmf.n
    cells = [(u, v, x) for u, row in enumerate(trial.weights)
             for v, x in enumerate(row) if x]
    # E C(m-S, k) and E C(n-T, l)
    e_a = [sum(comb(m - u, k) * x for u, _, x in cells)
           for k in range(m + 1)]
    e_b = [sum(comb(n - v, l) * x for _, v, x in cells)
           for l in range(n + 1)]
    (s0,), s0_den = _over_lcm([mm.s[0]])
    for l in range(n + 1):
        linear = sum((-1) ** r * comb(n - r, l - r) * s0[r]
                     for r in range(l + 1))
        yield (_EQ, "complementary_univariate", {"l": l}, (linear, s0_den),
               (e_b[l], total))
    for k in range(1, m + 1):
        for l in range(1, n + 1):
            e_ab = sum(comb(m - u, k) * comb(n - v, l) * x
                       for u, v, x in cells)
            direct = comb(m, k) * e_b[l] + comb(n, l) * e_a[k] - e_ab
            yield (_EQ, "complementary_bivariate", {"k": k, "l": l},
                   _pair(transforms.complementary_moment(mm, k, l)),
                   (direct, total))


def _prop_gumbel_identity(trial: _Trial) -> Iterator[Check]:
    es = trial.es
    if es is None:  # a pmf trial has no events to enumerate
        return
    mm, sums = trial.mm, model.bonferroni_sums(es, es.m, es.n)
    for k in range(es.m + 1):
        for l in range(es.n + 1):
            yield (_EQ, "gumbel_identity", {"k": k, "l": l},
                   _pair(sums.s[k][l]), _pair(mm.s[k][l]))


def _sandwich(trial: _Trial, name: str,
              upper: Optional[str] = None) -> Iterator[Check]:
    """Each defined bound of the family `name` on its side of the exact tail
    at its target, cell by cell, the lower first.  Given `upper`, a family
    with the same cells, the upper bounds are its own, read in lockstep."""
    upper = upper or name
    below, above = FAMILY_TABLE[name], FAMILY_TABLE[upper]
    for (target, _, params, lows), (*_, ups) in zip(trial.bounds(name),
                                                     trial.bounds(upper)):
        tail = trial.tail(*target)
        for p, lo, up in zip(params, lows[0] if below.lower else _UNBOUNDED,
                             ups[-1] if above.upper else _UNBOUNDED):
            if lo[1]:  # an undefined bound has no side to check
                yield _LE, below.lower, p, lo, tail
            if up[1]:
                yield _LE, above.upper, p, tail, up


_UNBOUNDED = repeat((0, 0))  # undefined at every cell: the side not bounded


def _shape(trial: _Trial, name: str) -> Iterator[Check]:
    """The shape checks of a swept family at each target; at each Chung
    cell they end with its recursion in s."""
    m, n = trial.pmf.m, trial.pmf.n
    grids = [(target, _rows(params, cols), _rows(pairs, cols))
             for target, cols, params, (pairs,) in trial.bounds(name)]
    for at, ((s, _), params, grid) in enumerate(grids):
        then = None
        if name == "chung" and s < m:  # grids[at + n] is at (s + 1, t)
            then = partial(_chung_recursion, m, s, grid, grids[at + n][2])
        yield from check_shape(name, grid, params, then)


def _rows(cells: list, cols: int) -> list:
    return [cells[c:c + cols] for c in range(0, len(cells), cols)]


def _chung_recursion(m: int, s: int, a: bnd.PairGrid, after: bnd.PairGrid,
                     i: int, j: int, p: Dict[str, int]) -> Iterator[Check]:
    """a(k, l) - a(k+1, l) = s/(m-s) a_{s+1}(k+1, l) at a[i][j], Chung at
    (s, t), for k < m: after[i][j] is a_{s+1}(k+1, l), at (s + 1, t)."""
    if i + 1 < len(a):
        (x, y), (z, w), (e, f) = a[i][j], a[i + 1][j], after[i][j]
        yield (_EQ, "chung_recursion", p, (x * w - z * y, y * w),
               (s * e, (m - s) * f))


def _prop_anchors(trial: _Trial) -> Iterator[Check]:
    """The bounds that equal the tail or a moment, read from their families'
    cells (the last cell of a depth table is its deepest): full-depth Chung
    and Bonferroni, Fréchet at (m, n), Gumbel at (1, 1) and c3 at (m-1, n-1)."""
    m, n = trial.pmf.m, trial.pmf.n
    [(_, _, _, (frechet,))] = trial.bounds("frechet")
    [(_, _, _, (gumbel,))] = trial.bounds("gumbel")
    yield (_EQ, "anchor_frechet_full", {"k": m, "l": n}, frechet[-1],
           trial.tail(1, 1))
    yield (_EQ, "anchor_gumbel_11", {"k": 1, "l": 1}, gumbel[0],
           _pair(trial.mm.s[1][1]))
    for ((s, t), _, _, (chung,)), (*_, (lows, ups)) in zip(
            trial.bounds("chung"), trial.bounds("bonferroni")):
        tail = trial.tail(s, t)
        p = {"s": s, "t": t}
        yield _EQ, "anchor_chung_full", p, chung[-1], tail
        yield _EQ, "anchor_bonferroni_full_lower", p, lows[-1], tail
        yield _EQ, "anchor_bonferroni_full_upper", p, ups[-1], tail
    for _, cols, _, (c3,) in trial.bounds("c3"):  # none unless m, n >= 2
        # (m-1, n-1) is a row and a column before c3's last cell, and (2, 2)
        # a row and a column after Fréchet's first
        yield (_EQ, "anchor_c4", {"a": m - 1, "b": n - 1}, c3[-cols - 2],
               frechet[n + 1])


# Every property, in the default run order.
_PROPERTIES: Dict[str, Callable[[_Trial], Iterable[Check]]] = {
    "gumbel_identity": _prop_gumbel_identity,
    "theorem1_roundtrip": _prop_theorem1_roundtrip,
    "theorem2_roundtrip": _prop_theorem2_roundtrip,
    "pgf_identity": _prop_pgf_identity,
    "event_roundtrip": _prop_event_roundtrip,
    "moment_bounds": _prop_moment_bounds,
    "complementary_expansion": _prop_complementary_expansion,
    "sandwich_bonferroni": lambda trial: _sandwich(trial, "bonferroni"),
    "sandwich_frechet_gumbel": lambda trial: _sandwich(trial, "frechet",
                                                       upper="gumbel"),
    "sandwich_type": lambda trial: _sandwich(trial, "type"),
    "sandwich_chung": lambda trial: _sandwich(trial, "chung"),
    "sandwich_comparison": lambda trial: chain(
        _sandwich(trial, "c1"), _sandwich(trial, "c6"),
        _sandwich(trial, "c3")),
    "frechet_shape": lambda trial: _shape(trial, "frechet"),
    "gumbel_shape": lambda trial: _shape(trial, "gumbel"),
    "chung_shape": lambda trial: _shape(trial, "chung"),
    "anchors": _prop_anchors,
}

ALL_PROPERTIES = tuple(_PROPERTIES)


def validate(
    specs: Iterable[InstanceSpec],
    properties: Optional[Iterable[str]] = None,
) -> ValidationReport:
    """Run the selected properties on each instance, in the order given
    (by default `ALL_PROPERTIES`), recording exact violations as data rather
    than raising; a repeated id runs once."""
    selected = tuple(dict.fromkeys(
        ALL_PROPERTIES if properties is None else properties))
    for prop in selected:
        if prop not in _PROPERTIES:
            raise DomainError(f"unknown property id {prop!r}")
    report = ValidationReport(checks=dict.fromkeys(selected, 0))
    start = time.perf_counter()
    for spec in specs:
        trial = _Trial(random_instance(spec))
        report.trials += 1
        for prop in selected:
            report.checks[prop] += _record(spec, _PROPERTIES[prop](trial),
                                           report.failures)
    report.elapsed = time.perf_counter() - start
    return report

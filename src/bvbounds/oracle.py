"""Brute-force ground truth and randomized property validation.

Everything here works directly on pmfs and event systems by exact
summation, never through the moment machinery, so a disagreement between
this module and the transform/bound formulas is a genuine bug on the
formula side.

The pmf is summed on integers: its cells as weights over the lcm of their
denominators, which this module computes from the cells themselves.  The
tail table comes from two-dimensional suffix sums of those weights,
q[u][v] = w[u][v] + q[u+1][v] + q[u][v+1] - q[u+1][v+1], in O(mn);
`exact_tail` keeps the literal sum over the orthant for a single target.

Each trial of `validate` builds one context (`_Trial`) that every property
reads: the pmf and its weights, and, built on first use, the suffix sums,
the moment grid from `model.moments_from_pmf` and the tail table.  The
context lives for one trial only, so nothing is cached across instances.
`tail_table_from_pmf` is the tail table of such a context.

Every property is in one table, whose order is the default run order
(`ALL_PROPERTIES`): `gumbel_identity` first, which checks nothing on a pmf
trial, then the properties of the pmf.  `validate` runs the selected ids
in the order given.

Every property takes the trial and yields its checks, each a plain tuple
(equal, property id, params, lhs, rhs) on two integer pairs.  One
function, `_record`, compares a/b with c/d by cross-multiplication (both
denominators are positive), builds the `Fraction`s of a `Failure` only
when a check fails, and returns the count that `validate` adds to the
property's total.  A bound gives its `BoundValue.pair`, a transform's
`Fraction` its numerator and denominator, and the theorem checks read the
trial's own weights and suffix sums over `total`, not the model's
`Fraction` views.

`RISING` states the shape theorem of each swept family once.
`check_shape` yields its checks on a grid of pairs for the `*_shape`
properties, which read the bounds one cell at a time (never
`bounds.tables`, `bounds.compare_rows` or a sweep), and `shape_failures`
records them the same way to give the CLI's `sweep` the checks a table
fails.
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass, field
from functools import cached_property
from fractions import Fraction
from math import comb, lcm
from typing import (Callable, Dict, Iterable, Iterator, List, Optional, Tuple,
                    Union)

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
            for u in range(spec.m + 1):
                for v in range(spec.n + 1):
                    if rng.random() < 0.5:
                        w[u][v] = 0
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
        raise DomainError("tail indices out of range")
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
# property suite

# Each swept family's shape in each of its depths k and l: rising (True)
# is nondecreasing and concave, falling (False) nonincreasing and convex.
RISING = {"frechet": True, "gumbel": False, "chung": False}


def _pair(x: Fraction) -> bnd.Pair:
    return x.numerator, x.denominator


class _Trial:
    """One trial's instance and the exact data its properties share: the
    pmf (for an event system, its counting pmf) as integer `weights` over
    `total`, the lcm of its denominators, and, each built on first use, the
    integer suffix sums `tails` over `total`, the moment grid of that pmf
    and its tail table."""

    def __init__(self, instance: Union[JointPMF, EventSystem]):
        is_es = isinstance(instance, EventSystem)
        self.es = instance if is_es else None
        self.pmf = model.counting_pmf(instance) if is_es else instance
        self.weights, self.total = _over_lcm(self.pmf.p)

    @cached_property
    def tails(self) -> List[List[int]]:
        return _suffix_sums(self.weights)

    def tail(self, u: int, v: int) -> bnd.Pair:
        """P(S>=u, T>=v) as a pair."""
        return self.tails[u][v], self.total

    def targets(self) -> Iterable[Tuple[int, int, bnd.Pair]]:
        """(s, t, P(S>=s, T>=t) as a pair) for every 1 <= s <= m and
        1 <= t <= n, row by row."""
        for s in range(1, self.pmf.m + 1):
            for t in range(1, self.pmf.n + 1):
                yield s, t, self.tail(s, t)

    @cached_property
    def mm(self) -> model.MomentMatrix:
        return model.moments_from_pmf(self.pmf)

    @cached_property
    def tt(self) -> TailTable:
        return TailTable.from_ints(self.pmf.m, self.pmf.n, self.tails,
                                   self.total)


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


def check_shape(family: str, grid: bnd.PairGrid, first: Tuple[int, int],
                fixed: Dict[str, int],
                then: Optional[Callable[[Dict[str, int]], Iterable[Check]]]
                ) -> Iterator[Check]:
    """Yield the checks of the shape `RISING` states for a swept family on
    grid[i][j], the pair of its bound at depth (k, l) = (first[0] + i,
    first[1] + j), with params `fixed` plus k and l.  At each cell, in
    order: monotone in k, monotone in l, curvature in k, curvature in l,
    then the checks of `then(params)` if given."""
    rising = RISING[family]

    def le(prop, p, lhs, rhs):
        return (_LE, prop, p, lhs, rhs) if rising else (_LE, prop, p, rhs, lhs)

    bend = "concave" if rising else "convex"
    mono_k, mono_l = f"{family}_monotone_k", f"{family}_monotone_l"
    bend_k, bend_l = f"{family}_{bend}_k", f"{family}_{bend}_l"
    k0, l0 = first
    rows, cols = len(grid), len(grid[0])
    for i, row in enumerate(grid):
        for j, x in enumerate(row):
            p = {**fixed, "k": k0 + i, "l": l0 + j}
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
                yield from then(p)


def shape_failures(family: str, grid: bnd.PairGrid,
                   first: Tuple[int, int]) -> List[Failure]:
    """The shape checks of `check_shape` that grid fails, with no spec."""
    failures: List[Failure] = []
    _record(None, check_shape(family, grid, first, {}, None), failures)
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


def _prop_sandwich_bonferroni(trial: _Trial) -> Iterator[Check]:
    pmf, mm = trial.pmf, trial.mm
    for u, v, tail in trial.targets():
        kmax = (pmf.m + pmf.n - u - v) // 2 + 1
        for k in range(kmax + 1):
            lo, up = bnd.bonferroni_pair(mm, u, v, k)
            p = {"u": u, "v": v, "k": k}
            yield _LE, "sandwich_bonferroni_lower", p, lo.pair, tail
            yield _LE, "sandwich_bonferroni_upper", p, tail, up.pair


def _prop_sandwich_frechet_gumbel(trial: _Trial) -> Iterator[Check]:
    pmf, mm = trial.pmf, trial.mm
    tail = trial.tail(1, 1)
    for k in range(1, pmf.m + 1):
        for l in range(1, pmf.n + 1):
            p = {"k": k, "l": l}
            yield (_LE, "sandwich_frechet", p,
                   bnd.frechet_lower(mm, k, l).pair, tail)
            yield (_LE, "sandwich_gumbel", p, tail,
                   bnd.gumbel_upper(mm, k, l).pair)


def _prop_sandwich_type(trial: _Trial) -> Iterator[Check]:
    pmf, mm = trial.pmf, trial.mm
    for s, t, tail in trial.targets():
        for k in range(1, pmf.m + 1):
            for l in range(1, pmf.n + 1):
                lo, up = bnd.frechet_gumbel_type(mm, s, t, k, l)
                p = {"s": s, "t": t, "k": k, "l": l}
                if lo.defined:
                    yield _LE, "sandwich_frechet_type", p, lo.pair, tail
                if up.defined:
                    yield _LE, "sandwich_gumbel_type", p, tail, up.pair


def _prop_sandwich_chung(trial: _Trial) -> Iterator[Check]:
    pmf, mm = trial.pmf, trial.mm
    for s, t, tail in trial.targets():
        for k in range(s, pmf.m + 1):
            for l in range(t, pmf.n + 1):
                yield (_LE, "sandwich_chung", {"s": s, "t": t, "k": k, "l": l},
                       tail, bnd.chung_bound(mm, s, t, k, l).pair)


def _prop_sandwich_comparison(trial: _Trial) -> Iterator[Check]:
    pmf = trial.pmf
    if pmf.m < 2 or pmf.n < 2:
        return
    mm = trial.mm
    tail = trial.tail(1, 1)
    yield _LE, "sandwich_c1", {}, tail, bnd.comparison_bound(mm, "c1").pair
    yield _LE, "sandwich_c6", {}, tail, bnd.comparison_bound(mm, "c6").pair
    a_lo = max(1, -(-(pmf.m - 1) // 2))  # smallest a with m - 2a - 1 <= 0
    b_lo = max(1, -(-(pmf.n - 1) // 2))
    for a in range(a_lo, pmf.m + 1):
        for b in range(b_lo, pmf.n + 1):
            yield (_LE, "sandwich_c3", {"a": a, "b": b},
                   bnd.comparison_bound(mm, "c3", a, b).pair, tail)


def _depth_shape(trial: _Trial, family: str, bound) -> Iterator[Check]:
    pmf, mm = trial.pmf, trial.mm
    grid = [[bound(mm, k, l).pair for l in range(1, pmf.n + 1)]
            for k in range(1, pmf.m + 1)]
    return check_shape(family, grid, (1, 1), {}, None)


def _prop_chung_shape(trial: _Trial) -> Iterator[Check]:
    pmf, mm = trial.pmf, trial.mm
    m, n = pmf.m, pmf.n
    for s in range(1, m + 1):
        for t in range(1, n + 1):
            a = [[bnd.chung_bound(mm, s, t, k, l).pair
                  for l in range(t, n + 1)] for k in range(s, m + 1)]

            def recursion(p):  # run at once, for this s, t and a
                # a(k, l) - a(k+1, l) = s/(m-s) a_{s+1}(k+1, l)
                k, l = p["k"], p["l"]
                if k < m:
                    (x, y), (z, w) = a[k - s][l - t], a[k - s + 1][l - t]
                    e, f = bnd.chung_bound(mm, s + 1, t, k + 1, l).pair
                    yield (_EQ, "chung_recursion", p, (x * w - z * y, y * w),
                           (s * e, (m - s) * f))

            yield from check_shape("chung", a, (s, t), {"s": s, "t": t},
                                   recursion)


def _prop_anchors(trial: _Trial) -> Iterator[Check]:
    pmf, mm = trial.pmf, trial.mm
    m, n = pmf.m, pmf.n
    yield (_EQ, "anchor_frechet_full", {"k": m, "l": n},
           bnd.frechet_lower(mm, m, n).pair, trial.tail(1, 1))
    yield (_EQ, "anchor_gumbel_11", {"k": 1, "l": 1},
           bnd.gumbel_upper(mm, 1, 1).pair, _pair(mm.s[1][1]))
    for s, t, tail in trial.targets():
        yield (_EQ, "anchor_chung_full", {"s": s, "t": t},
               bnd.chung_bound(mm, s, t, m, n).pair, tail)
        k_full = (m + n - s - t) // 2 + 1
        lo, up = bnd.bonferroni_pair(mm, s, t, k_full)
        p = {"s": s, "t": t}
        yield _EQ, "anchor_bonferroni_full_lower", p, lo.pair, tail
        yield _EQ, "anchor_bonferroni_full_upper", p, up.pair, tail
    if m >= 2 and n >= 2:
        yield (_EQ, "anchor_c4", {"a": m - 1, "b": n - 1},
               bnd.comparison_bound(mm, "c3", m - 1, n - 1).pair,
               bnd.frechet_lower(mm, 2, 2).pair)


# Every property, in the default run order.  The shape entries look their
# bound up when called, so a rebound module attribute is the one checked.
_PROPERTIES: Dict[str, Callable[[_Trial], Iterable[Check]]] = {
    "gumbel_identity": _prop_gumbel_identity,
    "theorem1_roundtrip": _prop_theorem1_roundtrip,
    "theorem2_roundtrip": _prop_theorem2_roundtrip,
    "pgf_identity": _prop_pgf_identity,
    "event_roundtrip": _prop_event_roundtrip,
    "moment_bounds": _prop_moment_bounds,
    "complementary_expansion": _prop_complementary_expansion,
    "sandwich_bonferroni": _prop_sandwich_bonferroni,
    "sandwich_frechet_gumbel": _prop_sandwich_frechet_gumbel,
    "sandwich_type": _prop_sandwich_type,
    "sandwich_chung": _prop_sandwich_chung,
    "sandwich_comparison": _prop_sandwich_comparison,
    "frechet_shape": lambda trial: _depth_shape(trial, "frechet",
                                                bnd.frechet_lower),
    "gumbel_shape": lambda trial: _depth_shape(trial, "gumbel",
                                               bnd.gumbel_upper),
    "chung_shape": _prop_chung_shape,
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

"""`_kernel.memoised`, on every function it wraps: a held result comes back
after one probe without running the function again, a call that raises
holds nothing, and the per-cell functions in front of the held results
raise the same `DomainError`s, first check first, whether or not their
sweep or inversion is held."""

import itertools
import sys
from fractions import Fraction

import pytest

from bvbounds import (DomainError, JointPMF, bonferroni_pair, chung_bound,
                      complementary_moment, frechet_gumbel_type, frechet_lower,
                      gumbel_upper, moments_from_pmf, moments_from_tails,
                      pmf_from_moments, tail_table_from_moments,
                      tails_from_moments)
from bvbounds import _kernel, bounds, transforms

M, N = 2, 3  # unequal, so that a check against the wrong extent shows


def grid():
    """A fresh moment grid at (M, N), nothing held on it."""
    weights = [[(3 * u + 5 * v) % 7 + 1 for v in range(N + 1)]
               for u in range(M + 1)]
    total = sum(map(sum, weights))
    return moments_from_pmf(JointPMF(M, N, [[Fraction(w, total) for w in row]
                                            for row in weights]))


def memo(obj) -> dict:
    return dict(vars(obj).get("_kernel_memo", {}))


def runs_of(fn, call):
    """(call(), how many times the function fn wraps ran during it)."""
    code, runs = fn.__wrapped__.__code__, [0]

    def hook(frame, event, arg):
        if event == "call" and frame.f_code is code:
            runs[0] += 1

    old = sys.getprofile()
    sys.setprofile(hook)
    try:
        result = call()
    finally:
        sys.setprofile(old)
    return result, runs[0]


# (decorated function, valid arguments after the grid, arguments that raise)
DECORATED = [
    (bounds.type_sweep, (2, 3), (M + 1, 1)),
    (bounds.chung_sweep, (1, 2), (1, -1)),
    (bounds.bonferroni_sweep, (2, 1), (0, 1)),
    (_kernel.chung_product, (2, 2), (0, 1)),
    (transforms._inverse, (_kernel.pmf_axis,), (None,)),
]
NAMES = [fn.__name__ for fn, *_ in DECORATED]


@pytest.mark.parametrize("fn, args, _", DECORATED, ids=NAMES)
def test_a_held_result_is_returned_without_running_again(fn, args, _):
    mm = grid()
    first, runs = runs_of(fn, lambda: fn(mm, *args))
    assert runs == 1
    assert memo(mm)[(fn.__wrapped__, *args)] is first
    again, runs = runs_of(fn, lambda: fn(mm, *args))
    assert again is first and runs == 0
    # held per grid: an equal grid computes its own
    other = grid()
    assert other == mm
    assert runs_of(fn, lambda: fn(other, *args))[1] == 1


@pytest.mark.parametrize("fn, args, bad", DECORATED, ids=NAMES)
def test_a_call_that_raises_holds_nothing(fn, args, bad):
    mm = grid()
    bounds.type_sweep(mm, 1, 1)  # holds it and the product at (1, 1)
    before = memo(mm)
    assert len(before) == 2
    for _ in range(2):  # the second call raises too: nothing was held
        with pytest.raises((DomainError, ValueError, TypeError)):
            fn(mm, *bad)
        after = memo(mm)
        assert after.keys() == before.keys()
        assert all(after[key] is before[key] for key in before)
    assert runs_of(fn, lambda: fn(mm, *args))[1] == 1


def test_a_call_that_raises_on_a_fresh_grid_adds_no_memo():
    mm = grid()
    with pytest.raises(DomainError):
        bounds.type_sweep(mm, 0, 1)
    assert memo(mm) == {}


def outside(name, value, lo, hi):
    """(whether value is in range, the message `_check_cell` raises for it)."""
    return lo <= value <= hi, f"{name}={value} outside [{lo}, {hi}]"


def depth(name, value, extent):
    return outside(name, value, 1, extent)


# Each per-cell function: (its parameters, the checks it makes in order,
# each an (ok, message) pair, as a function of those parameters).
PER_CELL = {
    frechet_lower: ("kl", lambda k, l: [depth("k", k, M), depth("l", l, N)]),
    gumbel_upper: ("kl", lambda k, l: [depth("k", k, M), depth("l", l, N)]),
    frechet_gumbel_type: ("stkl", lambda s, t, k, l: [
        depth("s", s, M), depth("t", t, N), depth("k", k, M),
        depth("l", l, N)]),
    chung_bound: ("stkl", lambda s, t, k, l: [
        depth("s", s, M), depth("t", t, N), outside("k", k, s, M),
        outside("l", l, t, N)]),
    bounds.compare_rows: ("uv", lambda u, v: [depth("u", u, M),
                                              depth("v", v, N)]),
    bonferroni_pair: ("uvk", lambda u, v, k: [
        depth("u", u, M), depth("v", v, N), (k >= 0, "k must be nonnegative")]),
    complementary_moment: ("kl", lambda k, l: [depth("k", k, M),
                                               depth("l", l, N)]),
    pmf_from_moments: ("uv", lambda u, v: [outside("u", u, 0, M),
                                           outside("v", v, 0, N)]),
    tails_from_moments: ("uv", lambda u, v: [outside("u", u, 0, M),
                                             outside("v", v, 0, N)]),
    moments_from_tails: ("ij", lambda i, j: [outside("i", i, 0, M),
                                             outside("j", j, 0, N)]),
}


def values(param):
    """Every value a parameter is tried at: negative, 0, in range and one
    past its extent."""
    extent = M if param in "skui" else N
    return sorted({-1, 0, 1, extent, extent + 1})


def outcome(fn, target, params):
    try:
        return "value", fn(target, *params)
    except DomainError as exc:
        return "error", str(exc)


def targets(mm):
    """{per-cell function: the grid it reads}: the tail table of mm for
    `moments_from_tails`, mm for the others."""
    tt = tail_table_from_moments(mm)
    return {fn: tt if fn is moments_from_tails else mm for fn in PER_CELL}


def held_targets():
    """targets() of a grid on which every sweep, product and inversion that
    a per-cell function reads is held."""
    held = targets(grid())
    for fn, (names, _) in PER_CELL.items():
        for params in itertools.product(*map(values, names)):
            outcome(fn, held[fn], params)
    return held


@pytest.mark.parametrize("fn", PER_CELL, ids=lambda fn: fn.__name__)
def test_per_cell_errors_do_not_depend_on_what_is_held(fn):
    names, checks = PER_CELL[fn]
    held = held_targets()[fn]
    assert memo(held)
    for params in itertools.product(*map(values, names)):
        first_failure = next((message for ok, message in checks(*params)
                              if not ok), None)
        cold = outcome(fn, targets(grid())[fn], params)
        assert outcome(fn, held, params) == cold, params
        if first_failure is None:
            assert cold[0] == "value", params
        else:
            assert cold == ("error", first_failure), params

"""The integer separable kernel against the direct double sums it replaced
and its Taylor shifts against the coefficient matrices they replaced
(tests/reference.py), on random grids and on grids whose outputs reach the
bound of the kernel's lane width, the CLI against golden output, and the
oracle's independence from the kernel."""

import ast
from fractions import Fraction
from itertools import groupby
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import bvbounds
import reference as ref
from bvbounds import (
    DomainError,
    JointPMF,
    MomentMatrix,
    TailTable,
    bonferroni_pair,
    chung_bound,
    comparison_bound,
    complementary_moment,
    frechet_gumbel_type,
    frechet_lower,
    gumbel_upper,
    moments_from_pmf,
    moments_from_tails,
    pgf_eval,
    pmf_from_moments,
    tail_table_from_moments,
    tails_from_moments,
)
from bvbounds._kernel import (
    chung_product,
    moments_axis,
    pmf_axis,
    shift_grid,
    tails_axis,
    tails_inverse_axis,
)
from bvbounds.bounds import bonferroni_sweep, chung_sweep, type_sweep
from bvbounds.cli import main
from bvbounds.transforms import moment_poly_eval

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(bvbounds.__file__).parent

# Entries with unequal denominators, both signs.
entries = st.fractions(min_value=-8, max_value=8, max_denominator=12)


@st.composite
def moment_matrices(draw, lo=0):
    m = draw(st.integers(lo, 4))
    n = draw(st.integers(lo, 4))
    rows = st.lists(entries, min_size=n + 1, max_size=n + 1)
    return MomentMatrix(m, n, draw(st.lists(rows, min_size=m + 1,
                                            max_size=m + 1)))


@st.composite
def tail_tables(draw):
    mm = draw(moment_matrices(lo=1))
    return TailTable(mm.m, mm.n, mm.s)


@st.composite
def pmfs(draw):
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    weight = st.fractions(min_value=0, max_value=5, max_denominator=7)
    w = draw(st.lists(st.lists(weight, min_size=n + 1, max_size=n + 1),
                      min_size=m + 1, max_size=m + 1))
    w[0][0] += 1
    total = sum(map(sum, w))
    return JointPMF(m, n, [[x / total for x in row] for row in w])


def outcome(fn, *args):
    """A function's value, or the DomainError message it raised; a bound
    (pair) becomes its value(s)."""
    try:
        value = fn(*args)
    except DomainError as exc:
        return ("error", str(exc))
    if isinstance(value, bvbounds.BoundValue):  # a tuple too, so tested first
        value = value.value
    elif isinstance(value, tuple):
        return tuple(outcome(lambda: v) for v in value)
    assert value is None or type(value) is Fraction
    return value


def span(extent):
    """Every legal index and one illegal one on either side."""
    return range(-1, extent + 2)


kernel_settings = settings(max_examples=60, deadline=None)


@st.composite
def int_grids(draw, lo=0):
    """Integer numerators of an (m+1) x (n+1) grid, lo <= m, n <= 8, both
    signs."""
    m = draw(st.integers(lo, 8))
    n = draw(st.integers(lo, 8))
    row = st.lists(st.integers(-10**12, 10**12), min_size=n + 1,
                   max_size=n + 1)
    return draw(st.lists(row, min_size=m + 1, max_size=m + 1))


AXIS_MAPS = ((moments_axis, ref.moments_map), (pmf_axis, ref.pmf_map),
             (tails_axis, ref.tails_map),
             (tails_inverse_axis, ref.tails_inverse_map))


@kernel_settings
@given(int_grids())
def test_shifts_equal_the_coefficient_matrices(nums):
    m, n = len(nums) - 1, len(nums[0]) - 1
    before = [row[:] for row in nums]
    for axis, matrix in AXIS_MAPS:
        assert shift_grid(nums, axis, axis) == ref.matrix_product(
            matrix(m), nums, matrix(n))
    assert nums == before


@pytest.mark.parametrize("big", [1, 2**61 - 1, 2**300],
                         ids=["1", "2^61-1", "2^300"])
@pytest.mark.parametrize("alternating", [False, True],
                         ids=["flat", "alternating"])
@pytest.mark.parametrize("m, n", [(0, 0), (1, 1), (2, 2), (24, 24), (40, 40),
                                  (0, 40), (40, 1), (2, 24)])
def test_lanes_hold_the_largest_outputs(m, n, big, alternating):
    # every entry B, or B (-1)^(i+j), so that the signs of the shift by
    # -1 and of the Chung weights line up: each map's outputs then reach the
    # size that the kernel's lane width is bounded for
    nums = [[(-1) ** ((i + j) * alternating) * big for j in range(n + 1)]
            for i in range(m + 1)]
    for axis, matrix in AXIS_MAPS:
        assert shift_grid(nums, axis, axis) == ref.matrix_product(
            matrix(m), nums, matrix(n))
    grid = MomentMatrix.from_ints(m, n, nums, 1)
    for s, t in {(1, 1), (2, 3), (1, n), (m, 1), (m, n)}:
        if 1 <= s <= m and 1 <= t <= n:
            assert chung_product(grid, s, t) == (ref.matrix_product(
                ref.chung_map(m, s)[s:], nums, ref.chung_map(n, t)[t:]), 1)


@kernel_settings
@given(int_grids(lo=1))
def test_chung_product_equals_the_coefficient_matrices(nums):
    m, n = len(nums) - 1, len(nums[0]) - 1
    grid = MomentMatrix.from_ints(m, n, nums, 1)
    for s in range(1, m + 1):
        for t in range(1, n + 1):
            assert chung_product(grid, s, t) == (ref.matrix_product(
                ref.chung_map(m, s)[s:], nums, ref.chung_map(n, t)[t:]), 1)


@kernel_settings
@given(pmfs())
def test_moments_from_pmf(pmf):
    mm = moments_from_pmf(pmf)
    assert [list(row) for row in mm.s] == ref.moments_from_pmf(pmf)
    assert all(type(x) is Fraction for row in mm.s for x in row)


@kernel_settings
@given(moment_matrices())
def test_inversions(mm):
    for u in span(mm.m):
        for v in span(mm.n):
            for fn, want in ((pmf_from_moments, ref.pmf_from_moments),
                             (tails_from_moments, ref.tails_from_moments)):
                assert outcome(fn, mm, u, v) == outcome(want, mm, u, v)
    if mm.m and mm.n:
        assert [list(row) for row in tail_table_from_moments(mm).q] == [
            [ref.tails_from_moments(mm, u, v) for v in range(mm.n + 1)]
            for u in range(mm.m + 1)
        ]


@kernel_settings
@given(tail_tables())
def test_moments_from_tails(tt):
    for i in span(tt.m):
        for j in span(tt.n):
            assert outcome(moments_from_tails, tt, i, j) == outcome(
                ref.moments_from_tails, tt, i, j
            )


@kernel_settings
@given(moment_matrices())
def test_complementary_frechet_gumbel(mm):
    for k in span(mm.m):
        for l in span(mm.n):
            for fn, want in ((complementary_moment, ref.complementary_moment),
                             (frechet_lower, ref.frechet_lower),
                             (gumbel_upper, ref.gumbel_upper)):
                assert outcome(fn, mm, k, l) == outcome(want, mm, k, l)


@kernel_settings
@given(moment_matrices())
def test_type_and_chung(mm):
    for s in span(mm.m):
        for t in span(mm.n):
            for k in range(mm.m + 1):
                for l in range(mm.n + 1):
                    args = (mm, s, t, k, l)
                    assert outcome(frechet_gumbel_type, *args) == outcome(
                        ref.frechet_gumbel_type, *args
                    )
                    assert outcome(chung_bound, *args) == outcome(
                        ref.chung_bound, *args
                    )


@kernel_settings
@given(moment_matrices())
def test_bonferroni(mm):
    for u in span(mm.m):
        for v in span(mm.n):
            for k in range(-1, (mm.m + mm.n) // 2 + 3):
                assert outcome(bonferroni_pair, mm, u, v, k) == outcome(
                    ref.bonferroni_pair, mm, u, v, k
                )


@kernel_settings
@given(moment_matrices(lo=2))
def test_comparison(mm):
    # c1, c6 and c3 at every (a, b), legal or not, and the errors
    cases = [("c1",), ("c6",), ("c3",), ("c2",)]
    cases += [("c3", a, b) for a in span(mm.m) for b in span(mm.n)]
    for args in cases:
        assert outcome(comparison_bound, mm, *args) == outcome(
            ref.comparison_bound, mm, *args
        )


# Evaluation points as int, Fraction or str, zero and negatives included.
point_values = st.fractions(min_value=-3, max_value=3, max_denominator=5)
points = st.one_of(st.integers(-3, 3), point_values, point_values.map(str))


@kernel_settings
@given(pmfs(), moment_matrices(), points, points)
def test_pgf_and_moment_polynomial(pmf, mm, t, s):
    for value, want in ((pgf_eval(pmf, t, s), ref.pgf_eval(pmf, t, s)),
                        (moment_poly_eval(mm, t, s),
                         ref.moment_poly_eval(mm, t, s))):
        assert type(value) is Fraction and value == want


def test_type_zero_denominator_is_undefined():
    mm = moments_from_pmf(JointPMF(3, 3, [[Fraction(1, 16)] * 4] * 4))
    # C(m-s+1, k) = C(1, 2) = 0
    lo, up = frechet_gumbel_type(mm, 3, 1, 2, 1)
    assert lo.value is None and not lo.defined
    assert lo.note == "bound undefined for these parameters (zero denominator)"
    assert up.value == ref.frechet_gumbel_type(mm, 3, 1, 2, 1)[1]


# Each per-cell read on an extent-0 grid, with the error it raises when m = 0;
# when n = 0 the second name of each pair is named instead.
EXTENT_ZERO_ERRORS = [
    (lambda mm: complementary_moment(mm, 1, 1), "{k}=1 outside [1, 0]"),
    (lambda mm: frechet_lower(mm, 1, 1), "{k}=1 outside [1, 0]"),
    (lambda mm: gumbel_upper(mm, 1, 1), "{k}=1 outside [1, 0]"),
    (lambda mm: frechet_gumbel_type(mm, 1, 1, 1, 1), "{s}=1 outside [1, 0]"),
    (lambda mm: type_sweep(mm, 1, 1), "{s}=1 outside [1, 0]"),
    (lambda mm: chung_sweep(mm, 1, 1), "{s}=1 outside [1, 0]"),
    (lambda mm: bonferroni_pair(mm, 1, 1, 0), "{u}=1 outside [1, 0]"),
    (lambda mm: bonferroni_sweep(mm, 1, 1), "{u}=1 outside [1, 0]"),
    (lambda mm: chung_bound(mm, 1, 1, 1, 1), "{s}=1 outside [1, 0]"),
    (lambda mm: tails_from_moments(mm, 1, 1), "{u}=1 outside [0, 0]"),
]


def test_extent_zero_moment_grid():
    mm = MomentMatrix(0, 2, [[Fraction(1), Fraction(-1, 2), Fraction(1, 3)]])
    for v in range(3):
        assert pmf_from_moments(mm, 0, v) == ref.pmf_from_moments(mm, 0, v)
        assert tails_from_moments(mm, 0, v) == ref.tails_from_moments(mm, 0, v)
    empty_m = dict(k="k", s="s", u="u")
    empty_n = dict(k="l", s="t", u="v")
    for grid, names in ((mm, empty_m),
                        (MomentMatrix(2, 0, [[1], [Fraction(1, 2)], [0]]),
                         empty_n)):
        for call, message in EXTENT_ZERO_ERRORS:
            with pytest.raises(DomainError) as err:
                call(grid)
            assert str(err.value) == message.format(**names)


def test_results_are_cached_per_instance_without_changing_equality():
    mm = MomentMatrix(2, 2, [[1, 2, 1], [2, 4, 2], [1, 2, 1]])
    fresh = MomentMatrix(2, 2, mm.s)
    complementary_moment(mm, 1, 1)
    chung_bound(mm, 1, 1, 2, 2)
    assert vars(mm) != vars(fresh)
    assert mm == fresh and hash(mm) == hash(fresh)


def count_products(monkeypatch):
    """A list that gains one entry for each `_kernel.shift_grid` call from
    now."""
    calls, shift = [], bvbounds._kernel.shift_grid
    monkeypatch.setattr(bvbounds._kernel, "shift_grid",
                        lambda *args: calls.append(args) or shift(*args))
    return calls


@pytest.mark.parametrize("u, v, products", [("1", "1", 2), ("2", "3", 3)])
def test_compare_makes_each_product_once(u, v, products, monkeypatch,
                                         capsys):
    # the moments, the Chung numerators at (1, 1), which the type bounds
    # and the Chung bounds at (1, 1) share, and those at any other target
    calls = count_products(monkeypatch)
    assert main(["compare", "--in", str(GOLDEN / "pmf6.json"),
                 "--u", u, "--v", v]) == 0
    assert capsys.readouterr().out == (
        GOLDEN / f"compare_u{u}_v{v}.txt").read_text()
    assert len(calls) == products


def test_compare_at_one_one_reduces_each_run_once(monkeypatch, capsys):
    # the Chung bounds at (1, 1) are labels of the type upper table, which
    # holds their pairs: no Chung sweep runs, and the exact tail and then
    # each run of equal pairs in the rows, such as the labels of one cell,
    # is reduced once
    sweeps, reductions = [], []
    chung_sweep, gcd = bvbounds.bounds.chung_sweep, bvbounds.cli.gcd
    monkeypatch.setattr(bvbounds.bounds, "chung_sweep",
                        lambda *args: sweeps.append(args) or chung_sweep(*args))
    monkeypatch.setattr(bvbounds.cli, "gcd",
                        lambda *args: reductions.append(args) or gcd(*args))
    pmf6 = str(GOLDEN / "pmf6.json")
    assert main(["compare", "--in", pmf6, "--u", "1", "--v", "1"]) == 0
    assert capsys.readouterr().out == (
        GOLDEN / "compare_u1_v1.txt").read_text()
    rows, _ = bvbounds.bounds.compare_rows(
        moments_from_pmf(bvbounds.cli.load_instance(pmf6)), 1, 1)
    runs = [pair for pair, _ in groupby((num, den) for *_, num, den in rows)]
    assert sweeps == []
    assert reductions[1:] == runs and len(runs) < len(rows)


# One `golden args...` line per case, args relative to tests/golden; CI
# runs the same cases through the installed console script.
GOLDEN_CASES = [line.split() for line in
                (GOLDEN / "cases.txt").read_text().splitlines()]


@pytest.mark.parametrize("argv, golden",
                         [(args, golden) for golden, *args in GOLDEN_CASES])
def test_cli_output_matches_golden(argv, golden, capsys):
    argv = [str(GOLDEN / a) if a.endswith((".json", ".csv")) else a
            for a in argv]
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()


def test_oracle_does_not_import_the_kernel():
    kernel_names = {
        node.name
        for node in ast.parse((SRC / "_kernel.py").read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    } | {"_kernel"}
    tree = ast.parse((SRC / "oracle.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert "_kernel" not in (node.module or "")
            assert not {a.name for a in node.names} & kernel_names
        elif isinstance(node, ast.Import):
            assert not any("_kernel" in a.name for a in node.names)
        elif isinstance(node, ast.Attribute):
            assert node.attr not in kernel_names
        elif isinstance(node, ast.Name):
            assert node.id not in kernel_names

"""Every cell of every bound sweep against the direct per-cell double sums
of tests/reference.py: mixed denominators, negative entries, zero
denominators and extents of 1 included."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings

import reference as ref
import bvbounds
from bvbounds import DomainError, JointPMF, MomentMatrix, moments_from_pmf
from bvbounds.bounds import bonferroni_sweep, chung_sweep, type_sweep
from test_kernel import moment_matrices


def value(cell):
    """The bound a sweep cell holds: None when its denominator is 0."""
    num, den = cell
    assert type(num) is int and type(den) is int and den >= 0
    return Fraction(num, den) if den else None


sweep_settings = settings(max_examples=60, deadline=None)


@sweep_settings
@given(moment_matrices(lo=1))
def test_type_sweep(mm):
    for s in range(1, mm.m + 1):
        for t in range(1, mm.n + 1):
            lower, upper = type_sweep(mm, s, t)
            assert len(lower) == len(upper) == mm.m
            assert {len(row) for row in lower + upper} == {mm.n}
            for k in range(1, mm.m + 1):
                for l in range(1, mm.n + 1):
                    cells = lower[k - 1][l - 1], upper[k - 1][l - 1]
                    assert tuple(map(value, cells)) == \
                        ref.frechet_gumbel_type(mm, s, t, k, l)
                    if k > mm.m - s + 1:  # C(m-s+1, k) = 0
                        assert cells[0][1] == 0


@sweep_settings
@given(moment_matrices(lo=1))
def test_frechet_and_gumbel_are_the_type_sweep_at_one_one(mm):
    lower, upper = type_sweep(mm, 1, 1)
    for k in range(1, mm.m + 1):
        for l in range(1, mm.n + 1):
            assert value(lower[k - 1][l - 1]) == ref.frechet_lower(mm, k, l)
            assert value(upper[k - 1][l - 1]) == ref.gumbel_upper(mm, k, l)


@sweep_settings
@given(moment_matrices(lo=1))
def test_chung_sweep(mm):
    for s in range(1, mm.m + 1):
        for t in range(1, mm.n + 1):
            sweep = chung_sweep(mm, s, t)
            assert len(sweep) == mm.m - s + 1
            for k in range(s, mm.m + 1):
                assert len(sweep[k - s]) == mm.n - t + 1
                for l in range(t, mm.n + 1):
                    assert value(sweep[k - s][l - t]) == \
                        ref.chung_bound(mm, s, t, k, l)


@sweep_settings
@given(moment_matrices(lo=1))
def test_bonferroni_sweep(mm):
    for u in range(1, mm.m + 1):
        for v in range(1, mm.n + 1):
            lower, upper = bonferroni_sweep(mm, u, v)
            depth = (mm.m + mm.n - u - v) // 2 + 1
            assert len(lower) == len(upper) == depth + 1
            for k in range(depth + 1):
                assert (value(lower[k]), value(upper[k])) == \
                    ref.bonferroni_pair(mm, u, v, k)
            # every deeper cut has the value at the last depth
            assert ref.bonferroni_pair(mm, u, v, depth + 1) == \
                (value(lower[-1]), value(upper[-1]))


def test_zero_denominator_cells():
    mm = moments_from_pmf(JointPMF(3, 1, [[Fraction(1, 8)] * 2] * 4))
    lower, upper = type_sweep(mm, 3, 1)
    # C(m-s+1, k) = C(1, k) vanishes for k = 2, 3
    assert [row[0][1] for row in lower] == [8, 0, 0]
    assert all(row[0][1] for row in upper)


@pytest.mark.parametrize("sweep, target, message", [
    (type_sweep, (0, 1), r"s=0 outside \[1, 2\]"),
    (type_sweep, (1, 3), r"t=3 outside \[1, 2\]"),
    (chung_sweep, (3, 1), r"need 1 <= s <= k <= m"),
    (chung_sweep, (1, 0), r"need 1 <= t <= l <= n"),
    (bonferroni_sweep, (1, 0), r"v=0 outside \[1, 2\]"),
])
def test_target_out_of_range(sweep, target, message):
    mm = MomentMatrix(2, 2, [[1, 2, 1], [2, 4, 2], [1, 2, 1]])
    with pytest.raises(DomainError, match=message):
        sweep(mm, *target)


def test_oracle_does_not_read_the_sweeps():
    # The oracle checks the bound functions; it must not share their sweeps.
    sweeps = {"bonferroni_sweep", "chung_sweep", "type_sweep",
              "complementary_part"}
    tree = ast.parse((Path(bvbounds.__file__).parent / "oracle.py")
                     .read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names |= {a.name for a in node.names}
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
    assert "frechet_lower" in names  # the walk sees the bound calls
    assert not names & sweeps

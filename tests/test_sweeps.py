"""Every cell of every bound sweep against the direct per-cell double sums
of tests/reference.py: mixed denominators, negative entries, zero
denominators and extents of 1 included."""

import argparse
import ast
import contextlib
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings

import reference as ref
import bvbounds
import bvbounds.bounds as bounds_mod
from bvbounds import (BoundValue, DomainError, InstanceSpec, JointPMF,
                      MomentMatrix, moments_from_pmf, oracle, validate)
from bvbounds.bounds import (bonferroni_pair, bonferroni_sweep, chung_bound,
                              chung_sweep, compare_rows, comparison_bound,
                              frechet_gumbel_type, frechet_lower,
                              gumbel_upper, type_sweep)
from bvbounds.cli import build_parser, main
from conftest import with_value
from test_kernel import GOLDEN, SRC, moment_matrices

# m = n = 2, mass 1/3 at (0, 0), (1, 1) and (2, 2)
MM2 = moments_from_pmf(JointPMF(2, 2, [[Fraction(1, 3), 0, 0],
                                       [0, Fraction(1, 3), 0],
                                       [0, 0, Fraction(1, 3)]]))


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
                    # C(m-s+1, k) = 0 or C(n-t+1, l) = 0
                    if k > mm.m - s + 1 or l > mm.n - t + 1:
                        assert cells[0] == (0, 0)


@sweep_settings
@given(moment_matrices(lo=1))
def test_frechet_and_gumbel_are_the_type_sweep_at_one_one(mm):
    lower, upper = type_sweep(mm, 1, 1)
    chung = chung_sweep(mm, 1, 1)
    for k in range(1, mm.m + 1):
        for l in range(1, mm.n + 1):
            assert value(lower[k - 1][l - 1]) == ref.frechet_lower(mm, k, l)
            assert value(upper[k - 1][l - 1]) == ref.gumbel_upper(mm, k, l)
            # Gumbel is Chung at (1, 1), down to the unreduced int pair
            assert upper[k - 1][l - 1] == chung[k - 1][l - 1]


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
    assert lower[1][0] == lower[2][0] == (0, 0)
    assert all(row[0][1] for row in upper)


@pytest.mark.parametrize("sweep, target, message", [
    (type_sweep, (0, 1), r"s=0 outside \[1, 2\]"),
    (type_sweep, (1, 3), r"t=3 outside \[1, 2\]"),
    (chung_sweep, (3, 1), r"s=3 outside \[1, 2\]"),
    (chung_sweep, (1, 0), r"t=0 outside \[1, 2\]"),
    (bonferroni_sweep, (1, 0), r"v=0 outside \[1, 2\]"),
])
def test_target_out_of_range(sweep, target, message):
    mm = MomentMatrix(2, 2, [[1, 2, 1], [2, 4, 2], [1, 2, 1]])
    with pytest.raises(DomainError, match=message):
        sweep(mm, *target)


def test_oracle_does_not_read_the_sweeps():
    # The oracle checks the bound functions; it must not share their sweeps.
    # FAMILY_TABLE names each function as a string, so strings count too.
    sweeps = {"bonferroni_sweep", "chung_sweep", "type_sweep",
              "complementary_part", "chung_product", "tables",
              "compare_rows"}
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
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    assert "frechet_lower" in names  # the walk sees the bound functions
    assert not names & sweeps


def test_oracle_does_not_read_grid_numerators():
    # The oracle sums the pmf on integers over a denominator it computes
    # itself, never on a grid's held numerators or denominator.
    tree = ast.parse((SRC / "oracle.py").read_text())
    attrs = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)}
    assert "pair" in attrs  # the walk sees the bounds' pairs
    assert not attrs & {"nums", "den"}


def test_cli_does_not_name_the_sweeps():
    # compare reads its rows from bounds.compare_rows, sweep its table from
    # bounds.tables, and bound its families from bounds.FAMILIES: cli.py
    # names no family
    names, strings = set(), set()
    for node in ast.walk(ast.parse((SRC / "cli.py").read_text())):
        if isinstance(node, ast.alias):  # an imported name
            names.add(node.name)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            strings.add(node.value)
    assert {"compare_rows", "tables", "FAMILIES"} <= names  # the reads
    assert "compare" in strings  # and the string constants
    assert not names & {"type_sweep", "chung_sweep", "bonferroni_sweep",
                        "comparison_bound"}
    rows, _ = bounds_mod.compare_rows(MM2, 1, 1)
    labels = {lbl.split(" k=")[0] for lbl, *_ in rows}
    assert {"c3 a=1 b=1", "frechet", "bonferroni-upper"} <= labels
    assert not strings & (set(bounds_mod.FAMILIES) | labels | {"c1/c3/c6"})


def bound_actions():
    """The arguments of the `bound` subcommand."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return sub.choices["bound"]._actions


def test_bound_family_choices_are_the_families():
    family = next(a for a in bound_actions() if a.dest == "family")
    assert tuple(family.choices) == tuple(bounds_mod.FAMILIES)


def test_bound_flags_are_the_family_parameters():
    flags = [a.dest for a in bound_actions() if a.type is int]
    named = [p for params, _ in bounds_mod.FAMILIES.values() for p in params]
    assert flags == sorted(set(named), key=named.index)
    assert flags == ["u", "v", "k", "l", "s", "t", "a", "b"]


def test_rising_families_are_two_depth_tables():
    # The oracle's table names the families of `bound --family` in order,
    # each with its parameters in order, read off its first cell at
    # m = n = 3, where it holds the bounds the catalogue gives there.
    mm = moments_from_pmf(JointPMF(3, 3, [[Fraction(1, 16)] * 4] * 4))
    named = {}
    for name, family in oracle.FAMILY_TABLE.items():
        _, _, params, sides = next(family.cells(mm, getattr(bounds_mod,
                                                            family.call)))
        named[name] = tuple(params[0])
        _, evaluate = bounds_mod.FAMILIES[name]
        assert [pairs[0] for pairs in sides] == [
            b.pair for b in evaluate(mm, *params[0].values())]
    assert list(named.items()) == [(name, params) for name, (params, _)
                                   in bounds_mod.FAMILIES.items()]
    assert oracle.RISING == {"frechet": True, "gumbel": False, "chung": False}
    tables = bounds_mod.tables(MM2, 1, 1)
    for family in oracle.RISING:
        assert [len(t.first) for t in tables if family in t.labels] == [2]


@pytest.mark.parametrize("u, v, message", [
    (3, 1, "u=3 outside [1, 2]"), (1, 0, "v=0 outside [1, 2]")])
def test_tables_check_their_target(u, v, message):
    with pytest.raises(DomainError) as err:
        bounds_mod.tables(MM2, u, v)
    assert str(err.value) == message


def test_comparison_tables_hold_the_comparison_bounds():
    # one row each at (1, 1), in the direction the bound states
    rows, skips = bounds_mod.compare_rows(MM2, 1, 1)
    cells = {lbl: (direction, (num, den))
             for lbl, direction, num, den in rows if " k=" not in lbl}
    assert skips == []
    assert cells == {
        label: (b.direction, b.pair) for label, b in (
            ("c1", bounds_mod.comparison_bound(MM2, "c1")),
            ("c6", bounds_mod.comparison_bound(MM2, "c6")),
            ("c3 a=1 b=1", bounds_mod.comparison_bound(MM2, "c3", 1, 1)))}
    # away from (1, 1), every row has a depth
    assert all(" k=" in lbl for lbl, *_ in bounds_mod.compare_rows(MM2, 1, 2)[0])
    small = MomentMatrix(1, 2, [[1, 0, 0], [0, 0, 0]])
    assert bounds_mod.compare_rows(small, 1, 1)[1] == [
        ("c1/c3/c6", "require m >= 2 and n >= 2")]


@sweep_settings
@given(moment_matrices(lo=1))
def test_compare_rows_are_the_defined_bounds(mm):
    # every row of compare, and only those, at every target: each defined
    # bound of the per-bound functions, with its label and direction
    def row(label, bound):
        return [(label, bound.direction, bound.value)] if bound.defined else []

    m, n = mm.m, mm.n
    for u in range(1, m + 1):
        for v in range(1, n + 1):
            expected = []
            for k in range(1, m + 1):
                for l in range(1, n + 1):
                    depth = f" k={k} l={l}"
                    lower, upper = frechet_gumbel_type(mm, u, v, k, l)
                    expected += row("type-lower" + depth, lower)
                    expected += row("type-upper" + depth, upper)
                    if (u, v) == (1, 1):
                        expected += row("frechet" + depth,
                                        frechet_lower(mm, k, l))
                        expected += row("gumbel" + depth,
                                        gumbel_upper(mm, k, l))
                    if k >= u and l >= v:
                        expected += row("chung" + depth,
                                        chung_bound(mm, u, v, k, l))
            for k in range((m + n - u - v) // 2 + 2):
                lower, upper = bonferroni_pair(mm, u, v, k)
                expected += row(f"bonferroni-lower k={k}", lower)
                expected += row(f"bonferroni-upper k={k}", upper)
            skips = []
            if (u, v) == (1, 1) and min(m, n) < 2:
                skips = [("c1/c3/c6", "require m >= 2 and n >= 2")]
            elif (u, v) == (1, 1):
                expected += row("c1", comparison_bound(mm, "c1"))
                expected += row("c6", comparison_bound(mm, "c6"))
                expected += row(f"c3 a={m - 1} b={n - 1}",
                                comparison_bound(mm, "c3", m - 1, n - 1))
            rows, got_skips = compare_rows(mm, u, v)
            assert all(den > 0 for *_, den in rows)
            assert sorted((lbl, direction, Fraction(num, den))
                          for lbl, direction, num, den in rows) == \
                sorted(expected)
            assert got_skips == skips


def test_families_look_their_functions_up_when_called(monkeypatch):
    # a rebinding of a bound function (a trace or a planted fault) runs
    called = []
    for name in ("bonferroni_pair", "frechet_lower", "gumbel_upper",
                 "frechet_gumbel_type", "chung_bound", "comparison_bound"):
        def traced(*args, real=getattr(bounds_mod, name), name=name):
            called.append(name)
            return real(*args)
        monkeypatch.setattr(bounds_mod, name, traced)
    for params, evaluate in bounds_mod.FAMILIES.values():
        bounds = evaluate(MM2, *[1] * len(params))
        assert bounds and all(isinstance(b, BoundValue) for b in bounds)
    assert called == ["bonferroni_pair", "frechet_lower", "gumbel_upper",
                      "frechet_gumbel_type", "chung_bound"] + [
                          "comparison_bound"] * 3


def planted_term(k, l):
    """A term nonlinear in (k, l), times 100: cubic in each depth with an
    inflection between 2 and 3, so that it breaks the monotonicity and the
    curvature of every family in both depths somewhere."""
    return (((2 * k - 5) ** 3 - 9 * (2 * k - 5)) * l
            + ((2 * l - 5) ** 3 - 9 * (2 * l - 5)) * k)


def test_sweep_planted_fault_matches_golden(monkeypatch):
    # golden `sweep` output of the parent of the shared shape checker, on
    # sweeps bent by the planted term: the same violation lines, in order
    def bend(grid):
        return [[(num * 100 + den * planted_term(i + 1, j + 1), den * 100)
                 for j, (num, den) in enumerate(row)]
                for i, row in enumerate(grid)]

    real_type, real_chung = bounds_mod.type_sweep, bounds_mod.chung_sweep
    monkeypatch.setattr(bounds_mod, "type_sweep",
                        lambda mm, s, t: tuple(map(bend, real_type(mm, s, t))))
    monkeypatch.setattr(bounds_mod, "chung_sweep",
                        lambda mm, s, t: bend(real_chung(mm, s, t)))
    golden = json.loads((GOLDEN / "sweep_planted.json").read_text())
    assert sum(want["status"] == 2 for want in golden.values()) == 7
    for case, want in golden.items():
        path, family, u, v = case.split()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = main(["sweep", "--in", str(GOLDEN / path), "--family",
                           family, "--u", u, "--v", v])
        assert (status, out.getvalue()) == (want["status"], want["stdout"])


def test_shape_planted_fault_matches_golden(monkeypatch):
    # golden failure records and check counts of the parent of the shared
    # shape checker, with the planted term added to every per-cell bound
    def planted(real):
        def bound(mm, *args):
            value = real(mm, *args)
            k, l = args[-2:]
            return with_value(value, value.value
                              + Fraction(planted_term(k, l), 100))
        return bound

    for name in ("frechet_lower", "gumbel_upper", "chung_bound"):
        monkeypatch.setattr(bounds_mod, name,
                            planted(getattr(bounds_mod, name)))
    report = validate([
        InstanceSpec(11, 3, 2, "dense_pmf"),
        InstanceSpec(12, 2, 3, "sparse_pmf"),
        InstanceSpec(13, 2, 2, "event_system", atoms=5),
        InstanceSpec(14, 4, 4, "dense_pmf"),
    ], ["frechet_shape", "gumbel_shape", "chung_shape"])
    golden = json.loads((GOLDEN / "shape_planted.json").read_text())
    assert report.checks == golden["checks"]
    assert report.to_dict()["failures"] == golden["failures"]
    # every check id fails somewhere
    assert len({f["property"] for f in golden["failures"]}) == 13

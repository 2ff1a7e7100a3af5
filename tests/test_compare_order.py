"""The order, text and best-bound stars of `compare` rows."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import reference as ref
from bvbounds.bounds import BoundValue, compare_rows as bound_rows
from bvbounds.cli import _compare_lines
from test_kernel import moment_matrices

# direction, reduced value, its float, label and the best-bound star
LINE = re.compile(r"(lower|upper)  (\S+) \(≈(\S+)\) *  (.*?)(  \*best \1\*)?")

TINY = Fraction(1, 2**80)


@st.composite
def compare_rows(draw):
    """(label, bound) rows whose values repeat exactly, across directions
    too, or differ by less than 2**-64; negative values and values above 1
    included."""
    bases = draw(st.lists(
        st.fractions(min_value=-40, max_value=40, max_denominator=500),
        min_size=1, max_size=4,
    ))
    pool = [b + d for b in bases
            for d in (0, TINY, -TINY, Fraction(1, 2**64),
                      Fraction(1, 3**200))]
    rows = draw(st.lists(
        st.tuples(
            st.sampled_from(["chung k=1 l=2", "chung k=10 l=2", "c1",
                             "gumbel k=2 l=1", "type-upper k=1 l=1"]),
            st.sampled_from(pool),
            st.sampled_from(["lower", "upper"]),
        ),
        max_size=14,
    ))
    return [(lbl, bound(value, direction)) for lbl, value, direction in rows]


def bound(x, direction):
    """A bound of the rational x, built from its reduced pair."""
    return BoundValue((x.numerator, x.denominator), direction, "test", {})


def _ordered(rows):
    """`cli._compare_lines` on (label, bound) rows, each line read back as
    (value, direction, label, starred)."""
    pairs = [(lbl, b.direction, *b.pair) for lbl, b in rows]
    lines = _compare_lines(pairs)
    assert lines == ref.compare_lines(pairs)
    ordered = []
    for line in lines:
        direction, text, approx, lbl, star = LINE.fullmatch(line).groups()
        value = Fraction(text)
        assert text == str(value) and approx == f"{float(value):.4f}"
        ordered.append((value, direction, lbl, star is not None))
    return ordered


def check_ordered(rows):
    ordered = _ordered(rows)
    want = sorted(rows, key=lambda r: (r[1].value, r[1].direction, r[0]))
    assert [row[:3] for row in ordered] == [
        (b.value, b.direction, lbl) for lbl, b in want
    ]
    best = {
        "lower": max((b.value for _, b in rows if b.direction == "lower"),
                     default=None),
        "upper": min((b.value for _, b in rows if b.direction == "upper"),
                     default=None),
    }
    assert [starred for *_, starred in ordered] == [
        value == best[direction] for value, direction, _, _ in ordered
    ]


@given(compare_rows())
def test_ordered_matches_exact_sort_and_stars(rows):
    check_ordered(rows)


@pytest.mark.parametrize("directions", [
    (), ("lower",) * 3, ("upper",) * 3, ("lower", "upper", "lower"),
])
def test_ordered_one_sided_and_tied(directions):
    # Every row has the same value: a tie across both directions.
    rows = [(f"row {i}", bound(Fraction(7, 3), d))
            for i, d in enumerate(directions)]
    check_ordered(rows)
    assert all(starred for *_, starred in _ordered(rows))


def test_values_closer_than_the_prefix_stay_apart():
    x = Fraction(-5, 7)
    rows = [("b", bound(x + TINY, "lower")), ("a", bound(x, "lower")),
            ("c", bound(x - TINY, "upper"))]
    assert [(lbl, starred) for _, _, lbl, starred in _ordered(rows)] == [
        ("c", True), ("a", False), ("b", True)]


@settings(max_examples=60, deadline=None)
@given(moment_matrices(lo=1))
def test_lines_match_the_reference_at_every_target(mm):
    # byte for byte the lines of a sort and a format of every row, whose
    # pairs are unreduced and, for the labels of one cell, repeated
    for u in range(1, mm.m + 1):
        for v in range(1, mm.n + 1):
            rows, _ = bound_rows(mm, u, v)
            assert _compare_lines(rows) == ref.compare_lines(rows)

import random
from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings

from bvbounds import (
    DomainError,
    JointPMF,
    bonferroni_pair,
    chung_bound,
    comparison_bound,
    exact_tail,
    frechet_gumbel_type,
    frechet_lower,
    gumbel_upper,
    moments_from_pmf,
)
import bvbounds.bounds as bounds_mod
from bvbounds.bounds import LOWER, UPPER, BoundValue
from conftest import with_value
from test_kernel import moment_matrices

third = Fraction(1, 3)


@pytest.fixture
def mm2(e2):
    return moments_from_pmf(e2)


class TestBonferroniPair:
    def test_e2_depth_zero(self, e2, mm2):
        lo, up = bonferroni_pair(mm2, 1, 1, 0)
        assert up.value == Fraction(5, 3)
        assert lo.value == third
        assert lo.value <= exact_tail(e2, 1, 1) <= up.value

    def test_e2_depth_one_is_exact(self, e2, mm2):
        lo, up = bonferroni_pair(mm2, 1, 1, 1)
        assert lo.value == up.value == Fraction(2, 3) == exact_tail(e2, 1, 1)

    def test_point_mass_corner(self):
        pmf = JointPMF(2, 2, [[0] * 3, [0] * 3, [0, 0, 1]])
        mm = moments_from_pmf(pmf)
        for k in range(4):
            lo, up = bonferroni_pair(mm, 2, 2, k)
            assert lo.value == up.value == 1

    def test_rejects_negative_depth(self, mm2):
        with pytest.raises(DomainError):
            bonferroni_pair(mm2, 1, 1, -1)

    def test_rejects_boundary_target(self, mm2):
        with pytest.raises(DomainError):
            bonferroni_pair(mm2, 0, 1, 0)


class TestFrechet:
    def test_e2_first_order(self, mm2):
        b = frechet_lower(mm2, 1, 1)
        assert b.value == Fraction(5, 12)
        assert b.direction == "lower"

    def test_e2_full_depth_attains(self, e2, mm2):
        assert frechet_lower(mm2, 2, 2).value == exact_tail(e2, 1, 1)

    def test_uniform_square_attains(self):
        q = Fraction(1, 4)
        pmf = JointPMF(1, 1, [[q, q], [q, q]])
        b = frechet_lower(moments_from_pmf(pmf), 1, 1)
        assert b.value == q == exact_tail(pmf, 1, 1)

    def test_out_of_range(self, mm2):
        with pytest.raises(DomainError):
            frechet_lower(mm2, 3, 1)


class TestGumbel:
    def test_e2_first_order_equals_s11(self, mm2):
        b = gumbel_upper(mm2, 1, 1)
        assert b.value == mm2.s[1][1] == Fraction(5, 3)
        assert b.direction == "upper"

    def test_e2_second_order(self, mm2):
        expected = (
            mm2.s[1][1] - mm2.s[1][2] - mm2.s[2][1] + mm2.s[2][2]
        )
        assert gumbel_upper(mm2, 2, 2).value == expected == Fraction(2, 3)
        # at m = n = 2 this coincides with the optimal four-moment bound
        assert gumbel_upper(mm2, 2, 2).value == comparison_bound(mm2, "c1").value

    def test_empty_corner(self):
        pmf = JointPMF(1, 1, [[1, 0], [0, 0]])
        mm = moments_from_pmf(pmf)
        assert gumbel_upper(mm, 1, 1).value == 0 == exact_tail(pmf, 1, 1)


class TestFrechetGumbelType:
    def test_reduces_to_gumbel_at_s_t_one(self, mm2):
        for k in range(1, 3):
            for l in range(1, 3):
                _, up = frechet_gumbel_type(mm2, 1, 1, k, l)
                assert up.value == gumbel_upper(mm2, k, l).value

    def test_e2_corner_upper(self, e2, mm2):
        _, up = frechet_gumbel_type(mm2, 2, 2, 1, 1)
        assert up.value == Fraction(5, 12)
        assert up.value >= exact_tail(e2, 2, 2) == third

    def test_e2_corner_lower_vacuous_but_valid(self, e2, mm2):
        lo, _ = frechet_gumbel_type(mm2, 2, 2, 1, 1)
        assert lo.value == Fraction(-4, 3)
        assert lo.value <= exact_tail(e2, 2, 2)

    def test_zero_denominator_reported_not_raised(self):
        # m=3, s=3, k=3: C(m-s+1,k) = C(1,3) = 0
        pmf = JointPMF(3, 1, [[Fraction(1, 2), 0], [0, 0], [0, 0],
                              [0, Fraction(1, 2)]])
        mm = moments_from_pmf(pmf)
        lo, up = frechet_gumbel_type(mm, 3, 1, 3, 1)
        assert not lo.defined
        assert "undefined" in lo.note
        assert up.defined


class TestChung:
    def test_full_depth_is_exact(self, e2, mm2):
        assert chung_bound(mm2, 1, 1, 2, 2).value == exact_tail(e2, 1, 1)

    def test_e2_partial_depth_upper(self, e2, mm2):
        val = chung_bound(mm2, 1, 1, 1, 2).value
        assert val == 1  # (s11 - s12) / C(1,0)C(1,1)
        assert val >= exact_tail(e2, 1, 1)

    def test_depth_equal_target_collapses_to_single_moment(self, mm2):
        for s in (1, 2):
            for t in (1, 2):
                assert chung_bound(mm2, s, t, s, t).value == mm2.s[s][t]

    def test_parameter_order_enforced(self, mm2):
        with pytest.raises(DomainError):
            chung_bound(mm2, 2, 1, 1, 2)


class TestComparisonBounds:
    def test_c1_e2(self, e2, mm2):
        b = comparison_bound(mm2, "c1")
        assert b.value == Fraction(2, 3)
        assert b.direction == "upper"
        assert b.value >= exact_tail(e2, 1, 1)

    def test_c3_e2_matches_frechet(self, mm2):
        b = comparison_bound(mm2, "c3", 1, 1)
        assert b.value == Fraction(2, 3)
        assert b.value == frechet_lower(mm2, 2, 2).value

    def test_c6_e2(self, mm2):
        assert comparison_bound(mm2, "c6").value == Fraction(2, 3)

    def test_c3_constraint_violation_named(self):
        pmf = JointPMF(5, 5, [[1] + [0] * 5] + [[0] * 6] * 5)
        mm = moments_from_pmf(pmf)
        with pytest.raises(DomainError, match="m - 2a - 1"):
            comparison_bound(mm, "c3", 1, 5)
        with pytest.raises(DomainError, match="n - 2b - 1"):
            comparison_bound(mm, "c3", 5, 1)

    def test_c3_requires_parameters(self, mm2):
        with pytest.raises(DomainError, match="requires integer"):
            comparison_bound(mm2, "c3")

    def test_small_dimensions_rejected(self):
        pmf = JointPMF(1, 1, [[Fraction(1, 2), 0], [0, Fraction(1, 2)]])
        mm = moments_from_pmf(pmf)
        with pytest.raises(DomainError, match="m >= 2"):
            comparison_bound(mm, "c1")

    def test_unknown_id(self, mm2):
        with pytest.raises(DomainError, match="unknown comparison"):
            comparison_bound(mm2, "c2")


class TestBoundValuePair:
    def test_pair_built_equals_value_built(self, mm2):
        b = chung_bound(mm2, 1, 1, 1, 2)
        x = b.value
        built = BoundValue((x.numerator, x.denominator), b.direction,
                           b.family, dict(b.params))
        assert built == b
        # equal by value, while each keeps and shows its own pair
        assert (built.pair, b.pair) == ((1, 1), (3, 3))
        assert repr(built) == repr(b).replace("(3, 3)", "(1, 1)")

    def test_pair_read_before_value(self, mm2):
        b = frechet_lower(mm2, 1, 1)
        assert Fraction(*b.pair) == Fraction(5, 12)
        assert b.value == Fraction(5, 12)

    def test_replace_updates_pair(self, mm2):
        b = gumbel_upper(mm2, 2, 2)
        bumped = with_value(b, b.value + 1)
        assert bumped.pair == (5, 3)
        assert bumped != b

    def test_undefined(self):
        pmf = JointPMF(3, 1, [[Fraction(1, 2), 0], [0, 0], [0, 0],
                              [0, Fraction(1, 2)]])
        lo, _ = frechet_gumbel_type(moments_from_pmf(pmf), 3, 1, 3, 1)
        assert lo.pair == (0, 0)
        assert lo.value is None and not lo.defined
        assert "undefined" in lo.note

    def test_undefined_built_from_a_value_has_the_note(self):
        pmf = JointPMF(3, 1, [[Fraction(1, 2), 0], [0, 0], [0, 0],
                              [0, Fraction(1, 2)]])
        lo, up = frechet_gumbel_type(moments_from_pmf(pmf), 3, 1, 3, 1)
        built = BoundValue((0, 0), lo.direction, lo.family, dict(lo.params))
        note = "bound undefined for these parameters (zero denominator)"
        assert built == lo
        assert built.note == lo.note == note
        assert up.defined and up.note is None
        assert up._replace(pair=(0, 0)).note == note

    def test_built_from_a_pair(self):
        b = BoundValue((2, 4), UPPER, "chung", {"k": 1})
        assert b.pair == (2, 4) and b.defined
        assert b == BoundValue((1, 2), UPPER, "chung", {"k": 1})

    def test_unreduced_pairs_are_not_unequal(self):
        # a tuple's own != would compare the pairs (2, 4) and (1, 2)
        half = BoundValue((1, 2), UPPER, "chung", {})
        assert not BoundValue((2, 4), UPPER, "chung", {}) != half
        assert BoundValue((2, 4), LOWER, "chung", {}) != half
        assert BoundValue((3, 4), UPPER, "chung", {}) != half
        assert half != (1, 2) and (half == (1, 2)) is False

    def test_built_from_a_pair_with_zero_denominator(self):
        b = BoundValue((0, 0), LOWER, "frechet_type", {})
        assert b.pair == (0, 0) and not b.defined
        assert b.note == ("bound undefined for these parameters (zero "
                          "denominator)")
        assert b.value is None and b.params == {}
        assert b == BoundValue((0, 0), LOWER, "frechet_type", {})
        assert b != BoundValue((0, 1), LOWER, "frechet_type", {})

    def test_no_other_attribute_is_made_up(self, mm2):
        b = chung_bound(mm2, 1, 1, 1, 2)
        for bound in (b, BoundValue(b.pair, b.direction, b.family, {})):
            assert not hasattr(bound, "nope")

    @given(moment_matrices(lo=1))
    @settings(max_examples=40, deadline=None)
    def test_every_defined_pair_has_a_positive_denominator(self, mm):
        # the oracle's cross-multiplication needs den > 0 and the pair's
        # value to be the bound's value
        m, n = mm.m, mm.n
        bounds = [frechet_lower(mm, k, l) for k in range(1, m + 1)
                  for l in range(1, n + 1)]
        bounds += [gumbel_upper(mm, k, l) for k in range(1, m + 1)
                   for l in range(1, n + 1)]
        for s in range(1, m + 1):
            for t in range(1, n + 1):
                for k in range(1, m + 1):
                    for l in range(1, n + 1):
                        bounds += frechet_gumbel_type(mm, s, t, k, l)
                        if k >= s and l >= t:
                            bounds.append(chung_bound(mm, s, t, k, l))
                for k in range((m + n - s - t) // 2 + 2):
                    bounds += bonferroni_pair(mm, s, t, k)
        if m >= 2 and n >= 2:
            bounds += [comparison_bound(mm, "c1"), comparison_bound(mm, "c6")]
            bounds += [comparison_bound(mm, "c3", a, b)
                       for a in range(max(1, m // 2), m + 1)
                       for b in range(max(1, n // 2), n + 1)]
        for b in bounds:
            if b.defined:
                assert b.pair[1] > 0
                assert Fraction(*b.pair) == b.value
            else:
                assert b.pair == (0, 0) and b.value is None


def _univariate_chung(law, s, k):
    """Hoppe-Seneta bound on P(X >= s) at depth k for a law on 0..m:
    sum over i = s..k of (-1)^(i-s) C(i-1, s-1) C(m-i, k-i) E C(X, i),
    over C(m-s, k-s)."""
    m = len(law) - 1
    return sum((-1) ** (i - s) * comb(i - 1, s - 1) * comb(m - i, k - i)
               * sum(comb(x, i) * p for x, p in enumerate(law))
               for i in range(s, k + 1)) / comb(m - s, k - s)


def _univariate_type_upper(law, s, k):
    """E[C(m,k) - C(m-X,k)] / (C(m,k) - C(m-s,k)), None when the
    denominator is 0."""
    m = len(law) - 1
    den = comb(m, k) - comb(m - s, k)
    if den == 0:
        return None
    return sum((comb(m, k) - comb(m - x, k)) * p
               for x, p in enumerate(law)) / den


def _product_law_mismatches(seeds):
    """(checks, mismatches) of the Chung and type upper bounds of the
    product of two random marginal laws against the products of their
    univariate forms, at every (s, t, k, l)."""
    checks = mismatches = 0
    for seed in seeds:
        rng = random.Random(seed)
        a, b = ([Fraction(rng.randint(1, 9)) for _ in range(rng.randint(2, 7))]
                for _ in range(2))
        a, b = [x / sum(a) for x in a], [y / sum(b) for y in b]
        m, n = len(a) - 1, len(b) - 1
        mm = moments_from_pmf(JointPMF(m, n, [[x * y for y in b] for x in a]))
        depths_a = list(product(range(1, m + 1), repeat=2))
        depths_b = list(product(range(1, n + 1), repeat=2))
        chung_a = {(s, k): _univariate_chung(a, s, k)
                   for s, k in depths_a if k >= s}
        chung_b = {(t, l): _univariate_chung(b, t, l)
                   for t, l in depths_b if l >= t}
        type_a = {sk: _univariate_type_upper(a, *sk) for sk in depths_a}
        type_b = {tl: _univariate_type_upper(b, *tl) for tl in depths_b}
        for (s, k), (t, l) in product(depths_a, depths_b):
            if k >= s and l >= t:
                checks += 1
                mismatches += (bounds_mod.chung_bound(mm, s, t, k, l).value
                               != chung_a[s, k] * chung_b[t, l])
            ua, ub = type_a[s, k], type_b[t, l]
            checks += 1
            mismatches += (bounds_mod.frechet_gumbel_type(mm, s, t, k, l)[1]
                           .value != (None if None in (ua, ub) else ua * ub))
    return checks, mismatches


def test_product_laws_factor_into_univariate_bounds(monkeypatch):
    # the paper's special univariate properties: for independent S and T
    # the bivariate Chung and type upper bounds are products of the
    # univariate ones, which this test states by direct sums
    checks, mismatches = _product_law_mismatches(range(40))
    assert checks > 5000 and mismatches == 0
    real = bounds_mod.frechet_gumbel_type

    def doubled(mm, s, t, k, l):  # still a valid upper bound
        lo, up = real(mm, s, t, k, l)
        return lo, (up if (s, t) == (1, 1) else with_value(up, 2 * up.value))

    monkeypatch.setattr(bounds_mod, "frechet_gumbel_type", doubled)
    assert _product_law_mismatches(range(5))[1] > 0

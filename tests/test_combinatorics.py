from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

from bvbounds import DomainError, binom, check_identity


class TestBinom:
    def test_r_zero_is_one(self):
        assert binom(5, 0) == 1
        assert binom(Fraction(-7, 3), 0) == 1
        assert binom(0, 0) == 1

    def test_r_exceeding_integer_upper_is_zero(self):
        assert binom(3, 5) == 0
        assert binom(0, 1) == 0

    def test_negative_r_is_zero(self):
        assert binom(5, -1) == 0
        assert binom(Fraction(1, 2), -3) == 0

    def test_rational_upper_argument(self):
        assert binom(Fraction(5, 2), 2) == Fraction(15, 8)

    def test_pascal_instance(self):
        assert binom(7, 3) == 35
        assert binom(6, 3) + binom(6, 2) == 35

    def test_negative_integer_upper(self):
        # binom(-1, r) = (-1)^r
        assert binom(-1, 3) == -1
        assert binom(-2, 2) == 3

    def test_integer_upper_argument_gives_an_int(self):
        for d, r, value in ((Fraction(4), 2, 6), (-3, 2, 6), (-1, 3, -1),
                            (Fraction(-2), 2, 3), (7, 3, 35), (3, 5, 0)):
            assert type(binom(d, r)) is int and binom(d, r) == value

    @given(st.fractions(min_value=-10, max_value=10, max_denominator=12),
           st.integers(1, 8))
    def test_return_type_follows_the_upper_argument(self, d, r):
        # an int exactly when d is an integer, whether given as int or not
        value = binom(d, r)
        if d.denominator == 1:
            assert type(value) is int
            assert type(binom(d.numerator, r)) is int
            assert binom(d.numerator, r) == value
        else:
            assert type(value) is Fraction

    @given(st.integers(0, 30), st.integers(0, 30))
    def test_matches_factorial_ratio(self, d, r):
        assert binom(d, r) == (comb(d, r) if r <= d else 0)

    @given(
        st.fractions(
            min_value=-10, max_value=10, max_denominator=12
        ),
        st.integers(0, 8),
    )
    def test_falling_factorial_definition(self, d, r):
        expected = Fraction(1)
        for i in range(r):
            expected *= d - i
        for i in range(1, r + 1):
            expected /= i
        assert binom(d, r) == expected


class TestIdentities:
    def test_identity2_example(self):
        assert check_identity(2, (4, 2))

    def test_identity4_example(self):
        assert check_identity(4, (5, 2, 3))

    def test_identity5_example(self):
        assert check_identity(5, (3, 2, 1))

    @given(
        st.fractions(min_value=-8, max_value=8, max_denominator=10),
        st.integers(1, 12),
    )
    def test_identity1_rational_upper(self, d, k):
        assert check_identity(1, (d, k))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_identity2_exhaustive(self, n):
        for k in range(13):
            assert check_identity(2, (n, k))

    @pytest.mark.parametrize("n", range(0, 13))
    def test_identity3_exhaustive(self, n):
        for k in range(1, 13):
            assert check_identity(3, (n, k))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_identity4_exhaustive(self, n):
        for k in range(1, n + 1):
            for r in range(1, 13):
                assert check_identity(4, (n, k, r))

    @pytest.mark.parametrize("n", range(0, 13))
    def test_identity5_exhaustive(self, n):
        for l in range(n + 1):
            for t in range(n + 1):
                assert check_identity(5, (n, l, t))

    def test_identity5_at_t_zero_reduces_to_binom(self):
        # only the r=0 term survives; both sides equal binom(n, l)
        for n in range(13):
            for l in range(n + 1):
                assert check_identity(5, (n, l, 0))
                assert binom(n - 0, l) == binom(n, l)

    def test_domain_errors_name_constraint(self):
        with pytest.raises(DomainError, match="k >= 1"):
            check_identity(1, (Fraction(1, 2), 0))
        with pytest.raises(DomainError, match="n >= 1"):
            check_identity(2, (0, 3))
        with pytest.raises(DomainError, match="r >= 1"):
            check_identity(4, (5, 2, 0))
        with pytest.raises(DomainError, match="T <= n"):
            check_identity(5, (3, 1, 4))

    def test_unknown_identity_id(self):
        with pytest.raises(DomainError, match="unknown identity"):
            check_identity(6, (1, 2))

from fractions import Fraction

import pytest

from bvbounds import JointPMF, binom


@pytest.fixture
def e2():
    """m=n=2, mass 1/3 at (0,0), (1,1), (2,2)."""
    third = Fraction(1, 3)
    return JointPMF(2, 2, [
        [third, 0, 0],
        [0, third, 0],
        [0, 0, third],
    ])


def complementary_moment_from_pmf(pmf, k, l):
    """Independent expectation-form oracle for the complementary moment:
    C(m,k) E C(n-T,l) + C(n,l) E C(m-S,k) - E C(m-S,k)C(n-T,l)."""
    m, n = pmf.m, pmf.n
    e_b = sum(binom(n - v, l) * p for u, v, p in _support(pmf))
    e_a = sum(binom(m - u, k) * p for u, v, p in _support(pmf))
    e_ab = sum(
        binom(m - u, k) * binom(n - v, l) * p for u, v, p in _support(pmf)
    )
    return binom(m, k) * e_b + binom(n, l) * e_a - e_ab


def with_value(bound, x):
    """bound with the rational x in place of its value, as a planted fault
    sets it: its pair is x's reduced numerator and denominator."""
    return bound._replace(pair=(x.numerator, x.denominator))


def _support(pmf):
    for u in range(pmf.m + 1):
        for v in range(pmf.n + 1):
            yield u, v, pmf.p[u][v]

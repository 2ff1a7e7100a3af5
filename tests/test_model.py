import json
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import reference as ref
from bvbounds import (
    DomainError,
    EventSystem,
    InstanceSpec,
    JointPMF,
    MomentMatrix,
    TailTable,
    binom,
    bonferroni_sums,
    complement_pmf,
    counting_pmf,
    event_system_from_pmf,
    moments_from_pmf,
    pmf_from_moments,
    random_instance,
    tail_table_from_moments,
    tail_table_from_pmf,
    tails_from_moments,
)
from bvbounds.cli import load_instance
from bvbounds.model import SUBSET_CHECK_LIMIT, RationalGrid
from bvbounds.transforms import pmf_grid_from_moments
from test_kernel import count_products

half = Fraction(1, 2)


def test_pmf_must_sum_to_one():
    with pytest.raises(DomainError, match="sum to 1"):
        JointPMF(1, 1, [[half, 0], [0, Fraction(1, 4)]])


def test_pmf_rejects_negative_mass():
    with pytest.raises(DomainError, match="nonnegative"):
        JointPMF(1, 1, [[Fraction(3, 2), 0], [0, -half]])


@pytest.mark.parametrize("cls, m, n, rows, message", [
    (JointPMF, 0, 1, [[1, 0]], r"JointPMF requires m >= 1 and n >= 1"),
    (TailTable, 1, 0, [[1], [0]], r"TailTable requires m >= 1 and n >= 1"),
    (MomentMatrix, -1, 0, [], r"MomentMatrix requires m >= 0 and n >= 0"),
    (JointPMF, 1, 1, [[1, 0]], r"pmf grid must be \(2\)x\(2\)"),
    (MomentMatrix, 1, 1, [[1, 0], [0]], r"moment grid must be \(2\)x\(2\)"),
    (TailTable, 1, 2, [[1, 0], [0, 0]], r"tail grid must be \(2\)x\(3\)"),
])
def test_grid_extent_and_shape_errors(cls, m, n, rows, message):
    with pytest.raises(DomainError, match=message):
        cls(m, n, rows)
    with pytest.raises(DomainError, match=message):
        cls.from_ints(m, n, rows, 1)


@pytest.mark.parametrize("den", [-2, 0])
@pytest.mark.parametrize("cls", [JointPMF, MomentMatrix, TailTable])
def test_from_ints_refuses_a_denominator_below_one(cls, den):
    # held as given, -2 would leave den = -1 after the gcd and 0 a view
    # that divides by zero
    with pytest.raises(DomainError, match=rf"^den must be > 0, got {den}$"):
        cls.from_ints(1, 1, [[2, 4], [6, 8]], den)


@pytest.mark.parametrize("m, n, atoms, message", [
    (0, 1, [(1, (), (1,))], "requires m >= 1 and n >= 1"),
    (1, 0, [(1, (1,), ())], "requires m >= 1 and n >= 1"),
    (1, 1, [(-half, (1,), (0,)), (Fraction(3, 2), (0,), (0,))],
     "weights must be nonnegative"),
    (1, 1, [(1, (1, 0), (0,))], "indicator lengths must match"),
    (1, 1, [(1, (1,), ())], "indicator lengths must match"),
    (1, 1, [(1, (2,), (0,))], "indicators must be 0/1"),
    (1, 1, [(half, (1,), (0,))], "weights must sum to 1 exactly, got 1/2"),
])
def test_event_system_errors(m, n, atoms, message):
    with pytest.raises(DomainError, match=message):
        EventSystem(m, n, tuple(atoms))


def test_moments_of_point_mass():
    pmf = JointPMF(2, 3, [[0] * 4, [0] * 4, [0, 0, 0, 1]])
    mm = moments_from_pmf(pmf)
    for i in range(3):
        for j in range(4):
            assert mm.s[i][j] == binom(2, i) * binom(3, j)
    assert mm.s[1][1] == 6


def test_moments_normalized(e2):
    assert moments_from_pmf(e2).s[0][0] == 1


def test_moments_e2(e2):
    mm = moments_from_pmf(e2)
    assert mm.s[1][1] == Fraction(5, 3)
    assert mm.s[2][1] == mm.s[1][2] == Fraction(2, 3)
    assert mm.s[2][2] == Fraction(1, 3)


class TestBonferroniSums:
    def test_single_full_atom(self):
        es = EventSystem(2, 2, (((Fraction(1), (1, 1), (1, 1))),))
        sums = bonferroni_sums(es, 2, 2)
        for k in range(3):
            for l in range(3):
                assert sums.s[k][l] == binom(2, k) * binom(2, l)

    def test_disjoint_indicators(self):
        es = EventSystem(
            1, 1, ((half, (1,), (0,)), (half, (0,), (1,)))
        )
        assert bonferroni_sums(es, 1, 1).s[1][1] == 0

    def test_matches_counting_pmf_moments(self):
        es = random_instance(InstanceSpec(7, 3, 2, "event_system", atoms=3))
        sums = bonferroni_sums(es, es.m, es.n)
        mm = moments_from_pmf(counting_pmf(es))
        assert sums.s == mm.s

    @given(st.data())
    def test_integer_sums_equal_the_fraction_sums(self, data):
        # zero weights (dropped by EventSystem), repeated atoms, and every
        # kmax <= m and lmax <= n
        m, n = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        atom = st.tuples(st.fractions(0, 3, max_denominator=9),
                         st.tuples(*[st.integers(0, 1)] * m),
                         st.tuples(*[st.integers(0, 1)] * n))
        atoms = data.draw(st.lists(atom, min_size=1, max_size=6))
        atoms += data.draw(st.lists(st.sampled_from(atoms), max_size=3))
        total = sum(w for w, _, _ in atoms)
        if total == 0:
            atoms[0] = (Fraction(1), *atoms[0][1:])
            total = 1
        es = EventSystem(m, n, tuple((w / total, a, b) for w, a, b in atoms))
        kmax, lmax = data.draw(st.integers(0, m)), data.draw(st.integers(0, n))
        sums = bonferroni_sums(es, kmax, lmax)
        expected = ref.bonferroni_sums(es, kmax, lmax)
        assert sums == MomentMatrix(kmax, lmax, expected)
        assert sums.s == tuple(map(tuple, expected))

    def test_range_check(self):
        es = EventSystem(1, 1, ((Fraction(1), (1,), (1,)),))
        with pytest.raises(DomainError):
            bonferroni_sums(es, 2, 1)

    def test_size_limit(self):
        # 2**10 * 2**10 subset pairs over 1 atom: 1048576 checks.
        es = EventSystem(10, 10, ((Fraction(1), (1,) * 10, (0,) * 10),))
        with pytest.raises(DomainError, match=r"need 1048576 \(subset pair, "
                           r"atom\) checks, over the limit of 1000000"):
            bonferroni_sums(es, 10, 10)
        assert bonferroni_sums(es, 3, 3).s[3][0] == 120  # C(10, 3)

    def test_oracle_event_systems_are_well_under_the_limit(self):
        # The largest system the oracle draws: m = n = 4, 16 atoms.
        es = random_instance(InstanceSpec(3, 4, 4, "event_system", atoms=16))
        mm = moments_from_pmf(counting_pmf(es))
        assert bonferroni_sums(es, 4, 4).s == mm.s
        assert 2**4 * 2**4 * 16 * 100 <= SUBSET_CHECK_LIMIT


class TestCountingPMF:
    def test_one_atom(self):
        es = EventSystem(2, 1, ((Fraction(1), (1, 1), (0,)),))
        pmf = counting_pmf(es)
        assert pmf.p[2][0] == 1

    def test_duplicate_atoms_aggregate(self):
        one = EventSystem(2, 2, ((Fraction(1), (1, 0), (0, 1)),))
        two = EventSystem(
            2, 2, ((half, (1, 0), (0, 1)), (half, (1, 0), (0, 1)))
        )
        assert counting_pmf(one).p == counting_pmf(two).p

    def test_total_mass(self):
        es = random_instance(InstanceSpec(3, 2, 3, "event_system", atoms=5))
        pmf = counting_pmf(es)
        assert sum(x for row in pmf.p for x in row) == 1


class TestEventSystemFromPMF:
    def test_point_mass(self):
        pmf = JointPMF(1, 1, [[0, 0], [1, 0]])
        es = event_system_from_pmf(pmf)
        assert len(es.atoms) == 1
        w, a, b = es.atoms[0]
        assert (w, a, b) == (1, (1,), (0,))

    def test_uniform_round_trip(self):
        q = Fraction(1, 4)
        pmf = JointPMF(1, 1, [[q, q], [q, q]])
        es = event_system_from_pmf(pmf)
        assert len(es.atoms) == 4
        assert counting_pmf(es).p == pmf.p

    def test_gumbel_identity_on_constructed_system(self, e2):
        es = event_system_from_pmf(e2)
        assert len(es.atoms) == 3
        assert bonferroni_sums(es, 2, 2).s == moments_from_pmf(e2).s


class TestComplement:
    def test_point_mass_reflected(self):
        pmf = JointPMF(2, 2, [[1, 0, 0], [0] * 3, [0] * 3])
        assert complement_pmf(pmf).p[2][2] == 1

    def test_involution(self, e2):
        assert complement_pmf(complement_pmf(e2)).p == e2.p

    def test_complement_moments_match_linear_form(self, e2):
        # E C(m-S,k)C(n-T,l) expanded as an alternating moment combination
        mm = moments_from_pmf(e2)
        cm = moments_from_pmf(complement_pmf(e2))
        m, n = e2.m, e2.n
        for k in range(m + 1):
            for l in range(n + 1):
                expanded = sum(
                    (-1) ** (s + r)
                    * binom(m - s, k - s)
                    * binom(n - r, l - r)
                    * mm.s[s][r]
                    for s in range(k + 1)
                    for r in range(l + 1)
                )
                assert cm.s[k][l] == expanded


class TestHeldGrids:
    """A grid is held once, as integer numerators over the least common
    denominator of its entries, so equality and hashing follow the value
    however the grid was built."""

    # moments of the pmf below: [[1, 1/2], [1/4, 1/8]]
    PMF = [[Fraction(3, 8), Fraction(3, 8)], [Fraction(1, 8), Fraction(1, 8)]]

    def grids(self, tmp_path):
        pmf_path = tmp_path / "pmf.json"
        pmf_path.write_text(json.dumps(
            {"m": 1, "n": 1, "p": [["6/16", "0.375"], [" 2/16 ", "1/8"]]}))
        mm_path = tmp_path / "mm.json"
        mm_path.write_text(json.dumps(
            {"m": 1, "n": 1, "s": [["3/3", "0.50"], ["2/8", " 125e-3 "]]}))
        moments = [
            MomentMatrix(1, 1, [[1, Fraction(1, 2)],
                                [Fraction(1, 4), Fraction(1, 8)]]),
            MomentMatrix(1, 1, [["2/2", "4/8"], ["3/12", "0.125"]]),
            MomentMatrix.from_ints(1, 1, [[24, 12], [6, 3]], 24),
            moments_from_pmf(JointPMF(1, 1, self.PMF)),
            moments_from_pmf(load_instance(str(pmf_path))),
            load_instance(str(mm_path)),
        ]
        return load_instance(str(pmf_path)), moments

    def test_equal_values_are_equal_grids(self, tmp_path):
        pmf, moments = self.grids(tmp_path)
        assert pmf == JointPMF(1, 1, self.PMF)
        assert pmf == complement_pmf(complement_pmf(pmf))
        assert len({hash(mm) for mm in moments}) == 1
        assert all(mm == moments[0] for mm in moments)
        assert {mm.den for mm in moments} == {8}
        tt = tail_table_from_moments(moments[-1])
        assert tt == tail_table_from_pmf(pmf)
        assert hash(tt) == hash(tail_table_from_pmf(pmf))

    def test_other_values_or_types_are_unequal(self, tmp_path):
        _, moments = self.grids(tmp_path)
        mm = moments[0]
        assert mm != MomentMatrix(1, 1, [[1, Fraction(1, 2)],
                                         [Fraction(1, 4), Fraction(1, 9)]])
        assert mm != MomentMatrix(1, 2, [[1, Fraction(1, 2), 0],
                                         [Fraction(1, 4), Fraction(1, 8), 0]])
        assert mm != TailTable(1, 1, mm.s)
        # equal numerators over different denominators
        halves = MomentMatrix(1, 1, [[Fraction(1, 2)] * 2] * 2)
        assert halves != MomentMatrix(1, 1, [[1, 1], [1, 1]])
        assert MomentMatrix(1, 1, [[0, 0], [0, 0]]) == MomentMatrix.from_ints(
            1, 1, [[0, 0], [0, 0]], 7)

    def test_kernel_results_build_their_views_when_read(self):
        pmf = JointPMF(1, 1, self.PMF)
        assert pmf.p[0][0] is self.PMF[0][0]  # kept, not rebuilt
        mm = moments_from_pmf(pmf)
        inverted = pmf_grid_from_moments(mm)
        tt = tail_table_from_moments(mm)
        assert "s" not in vars(mm) and "cells" not in vars(inverted)
        assert "q" not in vars(tt)
        assert mm.s == ((1, Fraction(1, 2)), (Fraction(1, 4), Fraction(1, 8)))
        assert inverted.cells == pmf.p
        assert tt.q == tail_table_from_pmf(pmf).q
        assert "s" in vars(mm) and "cells" in vars(inverted)
        assert "q" in vars(tt)
        assert all(type(x) is Fraction for grid in (mm.s, inverted.cells, tt.q)
                   for row in grid for x in row)

    def test_kernel_results_are_held_once(self, monkeypatch):
        pmf = JointPMF(1, 1, self.PMF)
        mm = moments_from_pmf(pmf)
        assert "_kernel_memo" not in vars(pmf)
        assert pmf_grid_from_moments(mm) is pmf_grid_from_moments(mm)
        # a cell and the whole grid of one inversion share one product
        calls = count_products(monkeypatch)
        for cell, grid in ((pmf_from_moments, pmf_grid_from_moments),
                           (tails_from_moments, tail_table_from_moments)):
            fresh = MomentMatrix(1, 1, mm.s)
            calls.clear()
            held = grid(fresh)
            assert [[cell(fresh, u, v) for v in range(2)] for u in range(2)] \
                == [[Fraction(x, held.den) for x in row] for row in held.nums]
            assert grid(fresh) == held
            assert len(calls) == 1

    def test_repr_round_trips(self):
        # repr is the constructor call, its cells positional: eval of it
        # rebuilds an equal grid of the same kind, for all four kinds
        pmf = JointPMF(1, 1, self.PMF)
        mm = moments_from_pmf(pmf)
        names = {"Fraction": Fraction, "JointPMF": JointPMF,
                 "MomentMatrix": MomentMatrix, "TailTable": TailTable,
                 "RationalGrid": RationalGrid}
        for grid, view in ((pmf, "p"), (mm, "s"),
                           (tail_table_from_moments(mm), "q"),
                           (pmf_grid_from_moments(mm), "cells")):
            assert repr(grid) == (f"{type(grid).__name__}(1, 1, "
                                  f"{getattr(grid, view)!r})")
            back = eval(repr(grid), names)
            assert type(back) is type(grid) and back == grid

    def test_grids_are_frozen(self):
        mm = MomentMatrix(1, 1, [[1, 0], [0, 0]])
        with pytest.raises(FrozenInstanceError):
            mm.s = ((1, 1), (1, 1))
        with pytest.raises(FrozenInstanceError, match="cannot delete field"):
            del mm.den
        assert mm == MomentMatrix(1, 1, [[1, 0], [0, 0]])
        with pytest.raises(AttributeError):
            mm.p

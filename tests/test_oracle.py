import json
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from bvbounds import (
    DomainError,
    EventSystem,
    InstanceSpec,
    JointPMF,
    exact_tail,
    random_instance,
    tail_table_from_pmf,
    validate,
)
from bvbounds.oracle import ALL_PROPERTIES
from conftest import with_value

GOLDEN = Path(__file__).parent / "golden"

PAIR_FAULT_SPECS = [
    InstanceSpec(11, 3, 2, "dense_pmf"),
    InstanceSpec(12, 2, 3, "sparse_pmf"),
    InstanceSpec(13, 2, 2, "event_system", atoms=5),
    InstanceSpec(14, 4, 4, "dense_pmf"),
]


def _type_lower_plus_1(real):
    def planted(*args):
        lo, up = real(*args)
        return (with_value(lo, lo.value + 1) if lo.defined else lo), up
    return planted


def _bonferroni_upper_minus_1(real):
    def planted(*args):
        lo, up = real(*args)
        return lo, with_value(up, up.value - 1)
    return planted


def _shifted(delta):
    def wrap(real):
        def planted(*args):
            bound = real(*args)
            return with_value(bound, bound.value + delta)
        return planted
    return wrap


def _comparison_shifted(which, delta):
    def wrap(real):
        def planted(mm, name, *args):
            bound = real(mm, name, *args)
            if name != which:
                return bound
            return with_value(bound, bound.value + delta)
        return planted
    return wrap


# fault id: the (bound function, wrapper that plants the fault) of each
# fault it plants, together
PAIR_FAULTS = {
    "frechet_gumbel_type_lower_plus_1": (("frechet_gumbel_type",
                                          _type_lower_plus_1),),
    "bonferroni_pair_upper_minus_1": (("bonferroni_pair",
                                       _bonferroni_upper_minus_1),),
    "comparison_c1_minus_1": (("comparison_bound",
                               _comparison_shifted("c1", -1)),),
    # Frechet and Gumbel fail in the same trials, as do c1 and c3
    "frechet_lower_plus_1_gumbel_upper_minus_1": (
        ("frechet_lower", _shifted(1)), ("gumbel_upper", _shifted(-1))),
    "comparison_c1_minus_1_c3_plus_1": (
        ("comparison_bound", _comparison_shifted("c1", -1)),
        ("comparison_bound", _comparison_shifted("c3", 1))),
}


def plant_pair_fault(monkeypatch, fault):
    import bvbounds.bounds as bounds_mod

    for name, wrap in PAIR_FAULTS[fault]:
        monkeypatch.setattr(bounds_mod, name,
                            wrap(getattr(bounds_mod, name)))


class TestInstanceSpec:
    def test_kind_checked(self):
        with pytest.raises(DomainError):
            InstanceSpec(0, 2, 2, "gaussian")

    @pytest.mark.parametrize("m, n", [(0, 2), (2, 0), (-1, 1)])
    def test_dimensions_checked(self, m, n):
        with pytest.raises(DomainError, match="dimensions must be >= 1"):
            InstanceSpec(0, m, n)

    def test_event_system_needs_atoms(self):
        with pytest.raises(DomainError):
            InstanceSpec(0, 2, 2, "event_system")


class TestRandomInstance:
    def test_deterministic(self):
        a = random_instance(InstanceSpec(0, 1, 1))
        b = random_instance(InstanceSpec(0, 1, 1))
        assert a.p == b.p

    def test_mass_is_one(self):
        for seed in range(20):
            pmf = random_instance(InstanceSpec(seed, 3, 2, "sparse_pmf"))
            assert sum(x for row in pmf.p for x in row) == 1

    def test_event_system_deterministic_and_normalized(self):
        spec = InstanceSpec(5, 3, 3, "event_system", atoms=6)
        a, b = random_instance(spec), random_instance(spec)
        assert isinstance(a, EventSystem)
        assert a.atoms == b.atoms
        assert sum(w for w, _, _ in a.atoms) == 1


class TestExactTail:
    def test_total(self, e2):
        assert exact_tail(e2, 0, 0) == 1

    def test_e2_values(self, e2):
        assert exact_tail(e2, 1, 1) == Fraction(2, 3)
        assert exact_tail(e2, 2, 1) == Fraction(1, 3)

    def test_out_of_range(self, e2):
        # the first index outside its range is named, with that range
        for u, v, message in [(3, 0, "u=3"), (0, 3, "v=3"), (-1, 1, "u=-1"),
                              (1, -1, "v=-1"), (3, -1, "u=3")]:
            with pytest.raises(DomainError,
                               match=rf"^{message} outside \[0, 2\]$"):
                exact_tail(e2, u, v)

    def test_table_matches_pointwise(self, e2):
        tt = tail_table_from_pmf(e2)
        for u in range(3):
            for v in range(3):
                assert tt.q[u][v] == exact_tail(e2, u, v)

    @pytest.mark.parametrize("kind", ["dense_pmf", "sparse_pmf"])
    def test_suffix_sums_match_exact_tail(self, kind):
        # the suffix-sum table against the literal sum of each cell
        for seed, (m, n) in enumerate([(1, 1), (1, 5), (4, 1), (3, 6),
                                       (6, 6), (7, 2)]):
            pmf = random_instance(InstanceSpec(seed, m, n, kind))
            tt = tail_table_from_pmf(pmf)
            assert (tt.m, tt.n) == (m, n)
            for u in range(m + 1):
                for v in range(n + 1):
                    assert tt.q[u][v] == exact_tail(pmf, u, v)


class TestValidate:
    def test_clean_run(self):
        specs = [InstanceSpec(s, 3, 3) for s in range(20)]
        report = validate(specs)
        assert report.trials == 20
        assert report.ok
        assert report.failures == []

    def test_event_system_specs_exercise_gumbel_identity(self):
        specs = [
            InstanceSpec(s, 3, 2, "event_system", atoms=5) for s in range(10)
        ]
        report = validate(specs, ["gumbel_identity"])
        assert report.ok

    def test_empty_property_set(self):
        report = validate([InstanceSpec(0, 2, 2)], [])
        assert report.trials == 1
        assert report.ok

    def test_unknown_property(self):
        with pytest.raises(DomainError, match="unknown property"):
            validate([InstanceSpec(0, 2, 2)], ["no_such_property"])

    def test_reproducible_reports(self):
        specs = [InstanceSpec(s, 2, 4, "sparse_pmf") for s in range(8)]
        r1 = validate(specs, ["theorem1_roundtrip", "sandwich_chung"])
        r2 = validate(specs, ["theorem1_roundtrip", "sandwich_chung"])
        assert r1.trials == r2.trials
        assert [f.to_dict() for f in r1.failures] == [
            f.to_dict() for f in r2.failures
        ]

    def test_corrupted_moments_are_caught(self, e2, monkeypatch):
        # fault injection: perturb s[1][1] and confirm the round trip fails
        import bvbounds.model as model_mod
        import bvbounds.oracle as oracle_mod

        real = model_mod.moments_from_pmf

        def corrupted(pmf):
            mm = real(pmf)
            s = [list(row) for row in mm.s]
            s[1][1] -= 1
            return model_mod.MomentMatrix(mm.m, mm.n, s)

        monkeypatch.setattr(oracle_mod.model, "moments_from_pmf", corrupted)
        report = validate([InstanceSpec(0, 2, 2)], ["theorem1_roundtrip"])
        assert not report.ok
        bad = report.failures[0]
        assert bad.property_id == "theorem1_roundtrip"
        # failure record carries full reproduction data
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["failures"][0]["spec"]["seed"] == 0
        assert "lhs" in doc["failures"][0]

    def test_checks_counted_per_selected_property(self):
        report = validate([InstanceSpec(0, 1, 3), InstanceSpec(1, 2, 2)],
                          ["sandwich_comparison", "pgf_identity",
                           "gumbel_identity"])
        # c1, c6 and c3 at a, b in {1, 2}, on the 2 x 2 instance only; no
        # event system, so gumbel_identity checks nothing
        assert report.checks == {"sandwich_comparison": 6,
                                 "pgf_identity": 18, "gumbel_identity": 0}
        assert report.to_dict() == {"trials": 2, "failures": []}

    @pytest.mark.parametrize("kind, atoms", [("dense_pmf", None),
                                             ("event_system", 6)])
    def test_moment_grid_built_once_per_trial(self, monkeypatch, kind,
                                              atoms):
        import bvbounds.model as model_mod

        real, calls = model_mod.moments_from_pmf, []

        def counted(pmf):
            calls.append(pmf)
            return real(pmf)

        monkeypatch.setattr(model_mod, "moments_from_pmf", counted)
        report = validate([InstanceSpec(3, 3, 4, kind, atoms=atoms)])
        assert report.ok and len(calls) == 1

    @pytest.mark.parametrize("fault", ["chung_bound_plus_1",
                                       "moment_s11_plus_1_7"])
    def test_planted_fault_failure_records(self, monkeypatch, fault):
        # golden failure records of the parent of the per-trial context:
        # same properties, parameters, values and order
        import bvbounds.bounds as bounds_mod
        import bvbounds.model as model_mod

        if fault == "chung_bound_plus_1":
            real = bounds_mod.chung_bound

            def planted(*args):
                bound = real(*args)
                return with_value(bound, bound.value + 1)

            monkeypatch.setattr(bounds_mod, "chung_bound", planted)
        else:
            real = model_mod.moments_from_pmf

            def planted(pmf):
                s = [list(row) for row in real(pmf).s]
                s[1][1] += Fraction(1, 7)
                return model_mod.MomentMatrix(pmf.m, pmf.n, s)

            monkeypatch.setattr(model_mod, "moments_from_pmf", planted)
        report = validate([
            InstanceSpec(11, 3, 2, "dense_pmf"),
            InstanceSpec(12, 2, 3, "sparse_pmf"),
            InstanceSpec(13, 2, 2, "event_system", atoms=5),
        ])
        golden = json.loads((GOLDEN / "validate_planted.json").read_text())
        assert report.to_dict()["failures"] == golden[fault]

    @pytest.mark.parametrize("fault", PAIR_FAULTS)
    def test_planted_fault_on_pair_checks(self, monkeypatch, fault):
        # golden check counts and failure records of the parent of the
        # oracle's pair comparisons, under faults planted with with_value
        plant_pair_fault(monkeypatch, fault)
        report = validate(PAIR_FAULT_SPECS)
        golden = json.loads((GOLDEN / "validate_planted_pairs.json")
                            .read_text())[fault]
        assert report.checks == golden["checks"]
        assert report.to_dict()["failures"] == golden["failures"]
        assert golden["failures"]

    def test_check_counts_of_the_cli_validate_run(self):
        # the checks of each property, in run order, over the specs of the
        # golden run `validate --trials 60 --seed 0`
        from bvbounds.cli import _specs, build_parser

        args = build_parser().parse_args(["validate", "--trials", "60",
                                          "--seed", "0"])
        report = validate(_specs(args))
        golden = json.loads((GOLDEN / "validate60_seed0_checks.json")
                            .read_text())
        assert list(report.checks.items()) == list(golden.items())
        assert report.trials == 60 and report.ok

    def test_each_bound_is_called_once_per_cell(self, monkeypatch):
        # a family's sandwich, shape and anchor checks share one call per
        # cell, Chung's recursion included
        import bvbounds.bounds as bounds_mod

        calls = dict.fromkeys(["frechet_gumbel_type", "chung_bound",
                               "bonferroni_pair", "frechet_lower",
                               "gumbel_upper", "comparison_bound"], 0)
        for name in calls:
            def counted(*args, real=getattr(bounds_mod, name), name=name):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(bounds_mod, name, counted)
        m, n = 3, 4
        report = validate([InstanceSpec(5, m, n)], ALL_PROPERTIES)
        assert report.ok
        targets = list(product(range(1, m + 1), range(1, n + 1)))
        assert calls == {
            "frechet_gumbel_type": len(targets) * m * n,
            "chung_bound": sum((m - s + 1) * (n - t + 1) for s, t in targets),
            "bonferroni_pair": sum((m + n - s - t) // 2 + 2
                                   for s, t in targets),
            "frechet_lower": m * n,
            "gumbel_upper": m * n,
            "comparison_bound": 2 + 3 * 3,  # c1, c6, c3 at a = 1..3, b = 2..4
        }

    def test_repeated_property_runs_once(self, monkeypatch):
        # the same checks and failures with and without a repeated id
        assert validate([InstanceSpec(1, 3, 3)], ["anchors", "anchors"]
                        ).checks == {"anchors": 30}
        plant_pair_fault(monkeypatch, "comparison_c1_minus_1")
        once = validate(PAIR_FAULT_SPECS, ["sandwich_comparison", "anchors"])
        twice = validate(PAIR_FAULT_SPECS, ["sandwich_comparison", "anchors",
                                            "sandwich_comparison", "anchors"])
        assert twice.checks == once.checks
        assert twice.to_dict() == once.to_dict()
        assert once.failures

    def test_properties_run_in_the_order_given(self, monkeypatch):
        # faults in an anchored bound and in a Bonferroni sum: each
        # property's failures come in the order the properties were given
        import bvbounds.model as model_mod

        plant_pair_fault(monkeypatch, "bonferroni_pair_upper_minus_1")
        real = model_mod.bonferroni_sums

        def bumped(es, kmax, lmax):
            s = [list(row) for row in real(es, kmax, lmax).s]
            s[1][1] += 1
            return model_mod.MomentMatrix(kmax, lmax, s)

        monkeypatch.setattr(model_mod, "bonferroni_sums", bumped)
        es_spec = [InstanceSpec(13, 2, 2, "event_system", atoms=5)]

        def failing(properties=None):
            return [f.property_id for f in validate(es_spec,
                                                    properties).failures]

        given = failing(["anchors", "gumbel_identity"])
        assert given[0].startswith("anchor_")
        assert given[-1] == "gumbel_identity"
        default = failing()
        assert default[0] == "gumbel_identity"
        assert "anchor_bonferroni_full_upper" in default
        pmf_specs = [InstanceSpec(11, 3, 2, "dense_pmf"),
                     InstanceSpec(12, 2, 3, "sparse_pmf")]
        assert validate(pmf_specs).checks["gumbel_identity"] == 0

    def test_each_property_yields_the_checks_it_counts(self):
        from bvbounds.oracle import _PROPERTIES, _Trial

        specs = [InstanceSpec(21, 3, 2), InstanceSpec(22, 2, 3, "sparse_pmf"),
                 InstanceSpec(23, 2, 2, "event_system", atoms=5)]
        counted = dict.fromkeys(ALL_PROPERTIES, 0)
        for spec, prop in product(specs, ALL_PROPERTIES):
            trial = _Trial(random_instance(spec))
            checks = list(_PROPERTIES[prop](trial))
            assert list(_PROPERTIES[prop](trial)) == checks
            assert validate([spec], [prop]).checks[prop] == len(checks)
            counted[prop] += len(checks)
        assert all(counted.values())

    def test_all_properties_listed(self):
        assert "theorem1_roundtrip" in ALL_PROPERTIES
        assert "gumbel_identity" in ALL_PROPERTIES

"""End-to-end acceptance gate: every criterion checked exactly (zero
tolerance), one pass/fail line printed per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the lines.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from bvbounds import InstanceSpec, check_identity, validate
from bvbounds.cli import main

_SEED = 20260826


def _specs(count, mmax, nmax, kind="dense_pmf", atoms=None, salt=0):
    rng = random.Random(_SEED + salt)
    out = []
    for _ in range(count):
        out.append(
            InstanceSpec(
                rng.randrange(2**63),
                rng.randint(1, mmax),
                rng.randint(1, nmax),
                kind,
                atoms=rng.randint(1, atoms) if atoms else None,
            )
        )
    return out


def _checked_all(report):
    """Whether every selected property made at least one check."""
    return bool(report.checks) and min(report.checks.values()) >= 1


def _report(tag, report, budget=None):
    ok = (report.ok and _checked_all(report)
          and (budget is None or report.elapsed < budget))
    line = f"{'PASS' if ok else 'FAIL'} {tag}: trials={report.trials} " \
           f"failures={len(report.failures)} checks={report.checks} " \
           f"elapsed={report.elapsed:.1f}s"
    print(line)
    for f in report.failures[:10]:
        print(f"    {f.property_id} {f.params} lhs={f.lhs} rhs={f.rhs} "
              f"spec={f.spec.to_dict()}")
    assert report.ok, f"{tag}: exact property violations recorded"
    assert _checked_all(report), f"{tag}: a property made no check"
    if budget is not None:
        assert report.elapsed < budget, f"{tag}: exceeded {budget}s budget"


def test_criterion_1_inversion_round_trips():
    specs = _specs(500, 6, 6, salt=1)
    half = len(specs) // 2
    specs = specs[:half] + [
        InstanceSpec(s.seed, s.m, s.n, "sparse_pmf") for s in specs[half:]
    ]
    report = validate(specs, ["theorem1_roundtrip", "theorem2_roundtrip"])
    _report("criterion 1 (moment/pmf/tail round trips, 500 pmfs)", report,
            budget=30.0)


def test_criterion_2_bonferroni_sums_equal_moments():
    specs = _specs(200, 4, 4, kind="event_system", atoms=16, salt=2)
    report = validate(specs, ["gumbel_identity"])
    _report("criterion 2 (subset sums vs counting moments, 200 systems)",
            report)


def test_criterion_3_sandwich_suite():
    specs = _specs(500, 6, 6, salt=3)
    report = validate(
        specs,
        [
            "sandwich_bonferroni",
            "sandwich_frechet_gumbel",
            "sandwich_type",
            "sandwich_chung",
            "sandwich_comparison",
        ],
    )
    _report("criterion 3 (all bound families sandwich the exact tail)", report)


def test_criterion_4_shape_theorems():
    specs = _specs(500, 6, 6, salt=4)
    report = validate(specs, ["frechet_shape", "gumbel_shape", "chung_shape"])
    _report("criterion 4 (monotonicity/curvature/recursion of bounds)", report)


def test_criterion_5_exact_attainment_anchors():
    specs = _specs(500, 6, 6, salt=5)
    report = validate(specs, ["anchors"])
    _report("criterion 5 (full-depth bounds equal the exact tail)", report)


def test_criterion_6_identity_suite():
    start = time.perf_counter()
    failures = 0
    for d in [Fraction(a, b) for a in range(-12, 13) for b in (1, 2, 3)]:
        for k in range(1, 13):
            failures += not check_identity(1, (d, k))
    for n in range(1, 13):
        for k in range(0, 13):
            failures += not check_identity(2, (n, k))
    for n in range(0, 13):
        for k in range(1, 13):
            failures += not check_identity(3, (n, k))
    for n in range(1, 13):
        for k in range(1, n + 1):
            for r in range(1, 13):
                failures += not check_identity(4, (n, k, r))
    for n in range(0, 13):
        for l in range(n + 1):
            for t in range(n + 1):
                failures += not check_identity(5, (n, l, t))
    # linear expansions of the complementary moments, all (k, l), m, n <= 12
    report = validate(_specs(30, 12, 12, salt=6), ["complementary_expansion"])
    elapsed = time.perf_counter() - start
    ok = (failures == 0 and report.ok and _checked_all(report)
          and elapsed < 10.0)
    print(f"{'PASS' if ok else 'FAIL'} criterion 6 (identity suite, "
          f"exhaustive to 12): failures={failures} checks={report.checks} "
          f"elapsed={elapsed:.1f}s")
    assert failures == 0
    assert report.ok
    assert _checked_all(report)
    assert elapsed < 10.0


def test_criterion_7_pgf_shift_identity():
    specs = _specs(100, 6, 6, salt=7)
    report = validate(specs, ["pgf_identity"])
    _report("criterion 7 (pgf shift identity at 9 rational points x 100)",
            report)


def test_criterion_8_cli_end_to_end(tmp_path, capsys):
    fixture = tmp_path / "e2.json"
    fixture.write_text(json.dumps({
        "m": 2,
        "n": 2,
        "p": [["1/3", "0", "0"], ["0", "1/3", "0"], ["0", "0", "1/3"]],
    }))
    argv = ["compare", "--in", str(fixture), "--u", "1", "--v", "1"]
    status = main(argv)
    first = capsys.readouterr().out
    status2 = main(argv)
    second = capsys.readouterr().out
    ok = (
        status == status2 == 0
        and first == second
        and "exact  2/3 (≈0.6667)" in first
        and "upper  2/3 (≈0.6667)" in first  # c1, c6, gumbel(2,2) attain
        and "frechet k=2 l=2" in first
        and "c1" in first and "c6" in first and "c3 a=1 b=1" in first
    )
    # the worked-example bound values on this fixture
    lines = first.splitlines()

    def value_of(label):
        for line in lines:
            core = line.replace("  *best lower*", "")
            core = core.replace("  *best upper*", "").rstrip()
            if core.endswith("  " + label):
                return core.split("(")[0].split()[-1]
        raise AssertionError(f"{label} missing from compare output")
    checks = {
        "frechet k=1 l=1": "5/12",
        "gumbel k=1 l=1": "5/3",
        "gumbel k=2 l=2": "2/3",
        "frechet k=2 l=2": "2/3",
        "c1": "2/3",
        "c6": "2/3",
        "c3 a=1 b=1": "2/3",
    }
    mismatches = {
        lbl: (value_of(lbl), want)
        for lbl, want in checks.items()
        if value_of(lbl) != want
    }
    ok = ok and not mismatches
    print(f"{'PASS' if ok else 'FAIL'} criterion 8 (CLI compare on the "
          f"three-point fixture, byte-stable): mismatches={mismatches}")
    assert status == 0 and first == second
    assert not mismatches
    assert "exact  2/3 (≈0.6667)" in first

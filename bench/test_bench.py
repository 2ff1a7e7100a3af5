"""Tests of the benchmark itself, on small instances:

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bvbounds.cli  # noqa: E402
import bvbounds.combinatorics  # noqa: E402
import bvbounds.oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from bvbounds import bounds, model, transforms  # noqa: E402

PKG = SimpleNamespace(cli=bvbounds.cli, oracle=bvbounds.oracle, model=model,
                      transforms=transforms, bounds=bounds,
                      combinatorics=bvbounds.combinatorics)


def small(name, tmp_path, seed=7):
    if name == "validate_mix":
        return workloads.ValidateMix(seed, tmp_path, PKG, mmax=3, blocks=1)
    return workloads.WORKLOADS[name](seed, tmp_path, PKG, m=4, pool=4)


@pytest.mark.parametrize("name", ["compare_m24", "roundtrip_m24"])
def test_equal_seeds_give_identical_inputs(name, tmp_path):
    files = []
    for sub, seed in (("a", 3), ("b", 3), ("c", 4)):
        (tmp_path / sub).mkdir()
        small(name, tmp_path / sub, seed)
        files.append([p.read_text()
                      for p in sorted((tmp_path / sub).iterdir())])
    assert files[0] == files[1]
    assert files[0] != files[2]


def test_equal_seeds_give_identical_validate_specs():
    assert (workloads.validate_specs(PKG.oracle, 3, 2)
            == workloads.validate_specs(PKG.oracle, 3, 2)
            != workloads.validate_specs(PKG.oracle, 4, 2))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_untampered_ops_pass(name, tmp_path):
    wl = small(name, tmp_path)
    assert all(run.run_op(wl, i)[2] for i in range(wl.cycle))


def nudge_lower_bound(out: str) -> str:
    """Pushes the first printed lower bound just past the exact tail."""
    lines = out.splitlines()
    exact = Fraction(lines[1].split()[1])
    k = next(i for i, line in enumerate(lines) if line.startswith("lower"))
    value = lines[k].split()[1]
    lines[k] = lines[k].replace(value, str(exact + Fraction(1, 10**9)), 1)
    return "\n".join(lines) + "\n"


def test_tampered_compare_output_counts_as_failed(tmp_path):
    wl = small("compare_m24", tmp_path)
    real_op = wl.op
    wl.op = lambda i: nudge_lower_bound(real_op(i))
    intervals, failed = run.timed_pass(wl, 0.0)
    assert failed == len(intervals) == wl.cycle


def test_tampered_roundtrip_output_counts_as_failed(tmp_path):
    wl = small("roundtrip_m24", tmp_path)
    real_op = wl.op

    def op(i):
        moments, pmf, tails = real_op(i)
        doc = json.loads(pmf)
        doc["p"][0][0] = str(Fraction(doc["p"][0][0]) + Fraction(1, 10**9))
        return moments, json.dumps(doc), tails

    wl.op = op
    assert not run.run_op(wl, 0)[2]


def test_failed_validation_counts_as_failed(tmp_path):
    wl = small("validate_mix", tmp_path)
    real_op = wl.op

    def op(i):
        report = real_op(i)
        report.failures.append("injected")
        return report

    wl.op = op
    assert not run.run_op(wl, 0)[2]


def test_nonzero_exit_and_exceptions_count_as_failed(tmp_path):
    wl = small("compare_m24", tmp_path)
    wl.inputs[0][0].write_text('{"m": 4}')
    assert not run.run_op(wl, 0)[2]
    wl.op = lambda i: 1 / 0
    assert not run.run_op(wl, 1)[2]


def test_suffix_tails_match_oracle():
    for seed, sparse in ((0, False), (1, True)):
        p = workloads.random_pmf(random.Random(seed), 3, 5, sparse)
        pmf = model.JointPMF(3, 5, p)
        assert workloads.suffix_tails(p) == [
            list(row) for row in PKG.oracle.tail_table_from_pmf(pmf).q
        ]


def test_spans_reach_names_imported_by_name(tmp_path):
    # bounds calls complementary_moment through its own module globals and
    # the package re-exports every function; both must see the wrapper.
    wl = small("compare_m24", tmp_path)
    original = transforms.complementary_moment
    rec = spans.Recorder(vars(PKG))
    rec.install_timed()
    try:
        assert bounds.complementary_moment is not original
        assert bvbounds.complementary_moment is bounds.complementary_moment
        start, end, ok = run.run_op(wl, 0)
    finally:
        rec.uninstall()
    assert ok
    assert bounds.complementary_moment is original
    calls, self_s, total_s, coverage = rec.span_stats({-1: end - start})
    assert calls[spans.NAMES.index("transforms.complementary_moment")] > 0
    assert calls[spans.NAMES.index("cli.main")] == 1
    assert coverage >= 0.95
    assert all(s >= -1e-9 for s in self_s)


def test_counting_pass_repeats(tmp_path):
    wl = small("compare_m24", tmp_path)
    rec = spans.Recorder(vars(PKG))
    results = []
    for _ in range(2):
        rec.install_counting()
        try:
            out, rational, binom_calls = rec.counting(wl.op, 0)
        finally:
            rec.uninstall()
        wl.check(0, out)
        results.append((rational, binom_calls))
    assert results[0] == results[1]
    rational, binom_calls = results[0]
    assert binom_calls > 0
    assert rational[spans.NAMES.index("transforms.complementary_moment")] > 0


def test_refuses_package_outside_src(tmp_path, monkeypatch):
    loaded = {k: v for k, v in sys.modules.items() if k.startswith("bvbounds")}
    monkeypatch.setattr(run, "SRC", tmp_path)
    try:
        with pytest.raises(run.BenchError, match="outside"):
            run.import_package()
    finally:
        sys.modules.update(loaded)


def test_fails_without_the_package(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "validate_mix",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

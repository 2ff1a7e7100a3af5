"""Benchmark of the bvbounds package, driven in-process from one thread.

    python3 bench/run.py --workload compare_m24 --seed 0 --seconds 25 --trace 0

Run from the root of a checkout.  `--trace 0` is the timed pass and prints
the end-to-end metrics; `--trace 1` runs the untraced, traced, counting
and per-property passes and prints the per-layer metrics.  Every op
is checked exactly; the last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from bisect import bisect_left, bisect_right
from fractions import Fraction
from pathlib import Path
from time import perf_counter, sleep
from types import SimpleNamespace

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 7
# Times are reported in reference seconds (see RefSampler).  REF_S is about
# the fastest time of reference_loop() on a shared 2-core x86-64 host under
# CPython 3.11 (over 2,000 passes: 1.14 ms minimum, 1.26 ms 10th percentile,
# 2.5 ms median).
REF_S = 0.00125
PERIOD_S = 0.05
NEIGHBOURS = 4
MODULES = ("cli", "model", "transforms", "bounds", "oracle", "combinatorics")


class BenchError(Exception):
    """The benchmark cannot measure the commit under test."""


def import_package():
    """Imports bvbounds afresh from the checkout's src/ and nowhere else."""
    for name in [k for k in sys.modules
                 if k == "bvbounds" or k.startswith("bvbounds.")]:
        del sys.modules[name]
    try:
        pkg = importlib.import_module("bvbounds")
    except ImportError as exc:
        raise BenchError(f"cannot import bvbounds from {SRC}: {exc}")
    where = Path(pkg.__file__).resolve()
    if not where.is_relative_to(SRC.resolve()):
        raise BenchError(f"bvbounds resolves to {where}, outside {SRC}")
    return SimpleNamespace(
        package=pkg,
        **{m: importlib.import_module(f"bvbounds.{m}") for m in MODULES},
    )


def reference_loop():
    """A fixed Fraction computation, independent of bvbounds."""
    acc = Fraction(0)
    for i in range(200):
        x = Fraction(i % 17, 4999)
        acc += x * x - Fraction(i % 5, 4999)
    return acc


class RefSampler:
    """Samples the speed of the host during the timed work itself.

    On a shared host the speed of a core drifts by up to 2x within seconds,
    and differently on each core.  So while the sampler is active, a SIGALRM
    every PERIOD_S runs reference_loop() in this thread, between two
    bytecodes of whatever is being timed.  An interval is converted to
    reference seconds by taking its wall time less the time spent in the
    handler, times REF_S / r, where r is the loop's mean time over the
    samples taken during the interval and the NEIGHBOURS samples on either
    side of it."""

    def __enter__(self):
        self.starts, self.seconds = [], []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame):
        start = perf_counter()
        reference_loop()
        self.seconds.append(perf_counter() - start)
        self.starts.append(start)

    def settle(self) -> None:
        """Waits for a sample later than everything timed so far."""
        now = perf_counter()
        while not self.starts or self.starts[-1] < now:
            sleep(PERIOD_S / 10)

    def reference_seconds(self, start: float, end: float) -> float:
        lo = bisect_left(self.starts, start)
        hi = bisect_right(self.starts, end)
        near = self.seconds[max(0, lo - NEIGHBOURS):hi + NEIGHBOURS]
        if not near:
            raise BenchError("no reference sample near a timed interval")
        busy = end - start - sum(self.seconds[lo:hi])
        return busy * REF_S * len(near) / sum(near)


def set_up(workload, seed: int, workdir: Path):
    """Imports, input generation and a warm-up that fills `binom`'s cache.

    The objects alive afterwards, the benchmark's inputs among them, are
    moved out of the collector's reach, so that the garbage collections the
    ops trigger cost what they would without the benchmark around them."""
    pkg = import_package()
    wl = workload(seed, workdir, pkg)
    binom = pkg.combinatorics.binom
    for d in range(-1, wl.size + 1):
        for r in range(wl.size + 1):
            binom(d, r)
    gc.collect()
    gc.freeze()
    return pkg, wl


def passes(wl, i: int, result) -> bool:
    try:
        wl.check(i, result)
    except Exception as exc:
        print(f"{wl.name} op {i} failed its check: {exc!r}", file=sys.stderr)
        return False
    return True


def run_op(wl, i: int):
    """Runs and checks op i; returns its start and end time and whether it
    passed."""
    start = perf_counter()
    try:
        result = wl.op(i)
    except Exception:
        end = perf_counter()
        print(f"{wl.name} op {i} raised:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return start, end, False
    end = perf_counter()
    return start, end, passes(wl, i, result)


def timed_pass(wl, seconds: float):
    """Closed loop, one client: ops back to back until `seconds` of op wall
    time have passed, stopping only at the end of a cycle of the workload.
    Returns each op's start and end time, and the number of failed ops."""
    intervals, wall, failed = [], 0.0, 0
    while True:
        start, end, ok = run_op(wl, len(intervals))
        intervals.append((start, end))
        wall += end - start
        failed += not ok
        if wall >= seconds and len(intervals) % wl.cycle == 0:
            return intervals, failed


def end_to_end(latencies, failed: int, setup_times):
    return {
        "ops_per_s": ((len(latencies) - failed) / sum(latencies), "1/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_p90_s": (statistics.quantiles(latencies, n=10)[-1], "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(pkg, wl, seed: int, label: str):
    """Untraced and traced passes, interleaved op by op so that both see the
    host at the same speed, and two counting passes, all over the first
    cycle of the workload, a fixed set of ops so that counts repeat exactly
    for a seed; then one validate pass per property on a validate_mix
    block."""
    ops = range(wl.cycle)
    attempted, failed = 0, 0

    def tally(ok):
        nonlocal attempted, failed
        attempted += 1
        failed += not ok

    rec = spans.Recorder(vars(pkg))
    untraced, op_latency = 0.0, {}
    for i in ops:
        start, end, ok = run_op(wl, i)
        untraced += end - start
        tally(ok)
        rec.op = i
        rec.install_timed()
        try:
            start, end, ok = run_op(wl, i)
        finally:
            rec.uninstall()
        op_latency[i] = end - start
        tally(ok)
    calls, self_s, total_s, coverage = rec.span_stats(op_latency)
    rec.write_spans(OUT / f"spans-{label}.csv")

    counts = []
    for _ in range(2):
        rational = [0] * (len(spans.NAMES) + 1)
        binom_calls = 0
        rec.install_counting()
        try:
            for i in ops:
                try:
                    result, r, b = rec.counting(wl.op, i)
                except Exception:
                    print(f"{wl.name} op {i} raised:", file=sys.stderr)
                    traceback.print_exc(file=sys.stderr)
                    tally(False)
                    continue
                rational = [x + y for x, y in zip(rational, r)]
                binom_calls += b
                tally(passes(wl, i, result))
        finally:
            rec.uninstall()
        counts.append((rational, binom_calls))
    if counts[0] != counts[1]:
        raise BenchError(
            f"counting pass not repeatable: {counts[0]} != {counts[1]}")
    rational, binom_calls = counts[0]

    n = len(ops)
    metrics = {}
    for k, name in enumerate(spans.NAMES):
        metrics[f"{name}.calls"] = (calls[k] / n, "count")
        metrics[f"{name}.self_s"] = (self_s[k] / n, "s")
        if name in spans.ENTRY_POINTS:
            metrics[f"{name}.total_s"] = (total_s[k] / n, "s")
        metrics[f"{name}.rational_ops"] = (rational[k] / n, "count")
    metrics["trace.rational_ops"] = (sum(rational) / n, "count")
    metrics["combinatorics.binom.calls"] = (binom_calls / n, "count")
    metrics["trace.overhead_ratio"] = (
        sum(op_latency.values()) / untraced, "ratio")
    metrics["trace.top_span_coverage"] = (coverage, "ratio")

    specs = workloads.validate_specs(pkg.oracle, seed, blocks=1)
    for prop in pkg.oracle.ALL_PROPERTIES:
        start = perf_counter()
        report = pkg.oracle.validate(specs, [prop])
        metrics[f"oracle.{prop}.s_per_trial"] = (
            (perf_counter() - start) / len(specs), "s")
        tally(report.ok and report.trials == len(specs))
    return metrics, attempted, failed


def provenance(args, pkg, ops: int):
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}

    def git(*cmd):
        try:
            done = subprocess.run(
                ["git", *cmd], cwd=ROOT, env=env, capture_output=True,
                text=True, timeout=30, check=True,
            )
        except (OSError, subprocess.SubprocessError):
            return None
        return done.stdout.strip()

    digest = hashlib.sha256()
    for path in sorted((SRC / "bvbounds").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    status = git("status", "--porcelain")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": ops,
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "src_sha256": digest.hexdigest(),
        "bvbounds_file": pkg.package.__file__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"inputs-{label}"
    workdir.mkdir(parents=True, exist_ok=True)
    details = {}
    workload = workloads.WORKLOADS[args.workload]
    try:
        if args.trace:
            pkg, wl = set_up(workload, args.seed, workdir)
            metrics, attempted, failed = per_layer(pkg, wl, args.seed, label)
        else:
            with RefSampler() as sampler:
                setups = []
                for _ in range(SETUP_REPEATS):
                    gc.unfreeze()
                    pkg = wl = None  # let the previous set-up's objects go
                    start = perf_counter()
                    pkg, wl = set_up(workload, args.seed, workdir)
                    setups.append((start, perf_counter()))
                ops, failed = timed_pass(wl, args.seconds)
                sampler.settle()
            attempted = len(ops)
            metrics = end_to_end(
                [sampler.reference_seconds(*i) for i in ops], failed,
                [sampler.reference_seconds(*i) for i in setups])
            details["wall_clock"] = {
                k: v for k, (v, _) in end_to_end(
                    [e - s for s, e in ops], failed,
                    [e - s for s, e in setups]).items()}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    details["provenance"] = provenance(args, pkg, attempted)
    (OUT / f"result-{label}.json").write_text(
        json.dumps({**details, **result}, indent=2))
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: seeded inputs, one op each, and an exact check
of every op's output.

Inputs come from the benchmark's own generator, never from the package, so
that a change to the package cannot change what it is measured on.  The
recipe is the oracle's: integer weights 0..16, normalised exactly, and for a
sparse pmf each cell zeroed with probability 1/2.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from fractions import Fraction
from pathlib import Path

WEIGHT_MAX = 16
# Each m = n = 24 op reads its own pmf file; op i uses pmf i % POOL.
POOL = 32


class CheckFailed(Exception):
    """An op's output disagreed with the exact expected result."""


def random_pmf(rng: random.Random, m: int, n: int, sparse: bool):
    while True:
        w = [[rng.randint(0, WEIGHT_MAX) for _ in range(n + 1)]
             for _ in range(m + 1)]
        if sparse:
            w = [[0 if rng.random() < 0.5 else x for x in row] for row in w]
        total = sum(map(sum, w))
        if total:
            return [[Fraction(x, total) for x in row] for row in w]


def suffix_tails(p):
    """q[u][v] = P(S>=u, T>=v) by two-dimensional suffix sums of the pmf."""
    m, n = len(p) - 1, len(p[0]) - 1
    q = [[Fraction(0)] * (n + 2) for _ in range(m + 2)]
    for u in range(m, -1, -1):
        for v in range(n, -1, -1):
            q[u][v] = p[u][v] + q[u + 1][v] + q[u][v + 1] - q[u + 1][v + 1]
    return [row[: n + 1] for row in q[: m + 1]]


def write_pmf(path: Path, p) -> None:
    doc = {"m": len(p) - 1, "n": len(p[0]) - 1,
           "p": [[str(x) for x in row] for row in p]}
    path.write_text(json.dumps(doc))


def pmf_pool(name: str, seed: int, workdir: Path, m: int, pool: int,
             sparse):
    """Writes `pool` seeded m x m pmfs, the k-th sparse if sparse(k); returns
    (path, pmf, tails) for each."""
    rng = random.Random(f"{name}:{seed}")
    inputs = []
    for k in range(pool):
        p = random_pmf(rng, m, m, sparse(k))
        path = workdir / f"{name}-{k}.json"
        write_pmf(path, p)
        inputs.append((path, p, suffix_tails(p)))
    return inputs


def call_cli(cli, argv) -> str:
    """Runs the CLI in-process; returns its stdout or raises on a nonzero
    exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise CheckFailed(f"exit {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _grid(text: str, key: str, m: int, n: int):
    doc = json.loads(text)
    _require(doc.get("m") == m and doc.get("n") == n, f"{key} grid dimensions")
    rows = doc[key]
    _require(len(rows) == m + 1 and all(len(r) == n + 1 for r in rows),
             f"{key} grid shape")
    return [[Fraction(x) for x in row] for row in rows]


# ---------------------------------------------------------------------------
# compare_m24


_ROW = re.compile(
    r"^(lower|upper)\s+(\S+) \(≈[^)]*\)\s+(.*?)(  \*best (lower|upper)\*)?$"
)


def compare_labels(m: int, n: int, u: int, v: int):
    """Labels of the rows `compare` prints for target (u, v): every bound
    whose denominator is nonzero."""
    labels = set()
    for k in range(1, m + 1):
        for l in range(1, n + 1):
            if k <= m - u + 1 and l <= n - v + 1:
                labels.add(f"type-lower k={k} l={l}")
            labels.add(f"type-upper k={k} l={l}")
            if (u, v) == (1, 1):
                labels.add(f"frechet k={k} l={l}")
                labels.add(f"gumbel k={k} l={l}")
    for k in range(u, m + 1):
        for l in range(v, n + 1):
            labels.add(f"chung k={k} l={l}")
    for k in range((m + n - u - v) // 2 + 2):
        labels.add(f"bonferroni-lower k={k}")
        labels.add(f"bonferroni-upper k={k}")
    if (u, v) == (1, 1):
        labels |= {"c1", "c6", f"c3 a={m - 1} b={n - 1}"}
    return labels


def check_compare(out: str, m: int, n: int, u: int, v: int, exact) -> None:
    """Every printed lower <= exact <= every printed upper, exactly; the
    full-depth Chung row equals the exact tail; no row is missing or extra;
    the best-bound stars sit on the best rows."""
    lines = out.splitlines()
    _require(len(lines) >= 2, "output too short")
    _require(lines[0] == f"target P(S>={u}, T>={v})", "target line")
    head = lines[1].split()
    _require(head[0] == "exact" and Fraction(head[1]) == exact,
             f"exact tail {head[1]} != {exact}")
    rows = {}
    starred = {"lower": set(), "upper": set()}
    for line in lines[2:]:
        match = _ROW.match(line)
        _require(match is not None, f"unparsed row {line!r}")
        direction, value, label, _, star = match.groups()
        _require(label not in rows, f"duplicate row {label!r}")
        value = Fraction(value)
        rows[label] = (direction, value)
        if star:
            _require(star == direction, f"star on wrong side {line!r}")
            starred[direction].add(label)
        if direction == "lower":
            _require(value <= exact, f"lower bound above exact: {line!r}")
        else:
            _require(value >= exact, f"upper bound below exact: {line!r}")
    _require(set(rows) == compare_labels(m, n, u, v), "row labels")
    _require(rows[f"chung k={m} l={n}"][1] == exact, "full-depth chung")
    for direction, pick in (("lower", max), ("upper", min)):
        best = pick(val for d, val in rows.values() if d == direction)
        want = {lbl for lbl, (d, val) in rows.items()
                if d == direction and val == best}
        _require(starred[direction] == want, f"best {direction} stars")


class CompareM24:
    """`bvbounds compare` on a dense pmf, targets (1,1), (2,3), (2,3) in turn.

    Only (1,1) adds the Frechet, Gumbel and c1/c3/c6 rows, so it costs about
    twice as much; with one (1,1) op in three, the median latency lies
    inside the (2,3) ops and the 90th percentile inside the (1,1) ops, not on
    the edge between them, where it would swing from run to run."""

    name = "compare_m24"
    targets = ((1, 1), (2, 3), (2, 3))
    cycle = len(targets)

    def __init__(self, seed: int, workdir: Path, pkg, m: int = 24,
                 pool: int = POOL):
        self.cli = pkg.cli
        self.size = m
        self.inputs = pmf_pool(self.name, seed, workdir, m, pool,
                               lambda k: False)

    def op(self, i: int) -> str:
        path = self.inputs[i % len(self.inputs)][0]
        u, v = self.targets[i % self.cycle]
        return call_cli(self.cli, ["compare", "--in", str(path),
                                   "--u", str(u), "--v", str(v)])

    def check(self, i: int, out: str) -> None:
        _, p, q = self.inputs[i % len(self.inputs)]
        u, v = self.targets[i % self.cycle]
        check_compare(out, len(p) - 1, len(p[0]) - 1, u, v, q[u][v])


# ---------------------------------------------------------------------------
# roundtrip_m24


class RoundtripM24:
    """pmf -> `moments --json` -> `invert --to pmf` and `invert --to tails`;
    dense and sparse pmfs alternate."""

    name = "roundtrip_m24"
    cycle = 2

    def __init__(self, seed: int, workdir: Path, pkg, m: int = 24,
                 pool: int = POOL):
        self.cli = pkg.cli
        self.size = m
        self.moments_path = workdir / f"{self.name}-moments.json"
        self.inputs = pmf_pool(self.name, seed, workdir, m, pool,
                               lambda k: k % 2 == 1)

    def op(self, i: int):
        path = self.inputs[i % len(self.inputs)][0]
        moments = call_cli(self.cli, ["moments", "--in", str(path), "--json"])
        self.moments_path.write_text(moments)
        mpath = str(self.moments_path)
        pmf = call_cli(self.cli, ["invert", "--in", mpath, "--to", "pmf"])
        tails = call_cli(self.cli, ["invert", "--in", mpath, "--to", "tails"])
        return moments, pmf, tails

    def check(self, i: int, result) -> None:
        _, p, q = self.inputs[i % len(self.inputs)]
        m, n = len(p) - 1, len(p[0]) - 1
        moments, pmf, tails = result
        s = _grid(moments, "s", m, n)
        _require(s[0][0] == 1, "s[0][0] != 1")
        _require(s[1][0] == sum(u * sum(row) for u, row in enumerate(p)),
                 "s[1][0] != E S")
        _require(_grid(pmf, "p", m, n) == p, "recovered pmf != input pmf")
        _require(_grid(tails, "q", m, n) == q,
                 "recovered tails != exact tails")


# ---------------------------------------------------------------------------
# validate_mix

# One block is 3 * 36 = 108 trials: every (m, n) in 1..6 x 1..6 once as a
# dense and once as a sparse pmf, interleaved with 36 event systems.  The mix
# is the one `bvbounds validate` draws (kinds in rotation, sizes and atom
# counts uniform), but stratified, because the cost of a trial grows steeply
# with m and n and an unstratified draw would make a run's cost depend on
# its seed.


def _balanced(rng, values, count, block):
    """`count` draws in which every value appears equally often; the
    remainder rotates through the values from block to block."""
    reps, extra = divmod(count, len(values))
    out = values * reps + [values[(block * extra + k) % len(values)]
                           for k in range(extra)]
    rng.shuffle(out)
    return out


def validate_specs(oracle, seed: int, blocks: int, mmax: int = 6):
    rng = random.Random(f"validate_mix:{seed}")
    sizes = [(m, n) for m in range(1, mmax + 1) for n in range(1, mmax + 1)]
    emax = min(mmax, 4)
    event_sizes = [(m, n) for m in range(1, emax + 1)
                   for n in range(1, emax + 1)]
    specs = []
    for b in range(blocks):
        dense = _balanced(rng, sizes, len(sizes), b)
        sparse = _balanced(rng, sizes, len(sizes), b)
        events = _balanced(rng, event_sizes, len(sizes), b)
        atoms = _balanced(rng, list(range(1, 17)), len(sizes), b)
        for j in range(len(sizes)):
            for kind, (m, n) in (("dense_pmf", dense[j]),
                                 ("sparse_pmf", sparse[j])):
                specs.append(
                    oracle.InstanceSpec(rng.randrange(2**63), m, n, kind))
            m, n = events[j]
            specs.append(oracle.InstanceSpec(rng.randrange(2**63), m, n,
                                             "event_system", atoms=atoms[j]))
    return specs


class ValidateMix:
    """`oracle.validate([spec])` for one trial of the `bvbounds validate`
    instance mix."""

    name = "validate_mix"

    def __init__(self, seed: int, workdir: Path, pkg, mmax: int = 6,
                 blocks: int = 16):
        self.oracle = pkg.oracle
        self.size = mmax
        self.cycle = 3 * mmax * mmax
        self.specs = validate_specs(pkg.oracle, seed, blocks, mmax)

    def op(self, i: int):
        return self.oracle.validate([self.specs[i % len(self.specs)]])

    def check(self, i: int, report) -> None:
        _require(report.trials == 1, f"trials {report.trials} != 1")
        _require(report.ok, f"{len(report.failures)} property failure(s)")


WORKLOADS = {w.name: w for w in (CompareM24, RoundtripM24, ValidateMix)}

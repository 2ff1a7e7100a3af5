"""Command-line front end.

Input formats:
  * pmf JSON: {"m": int, "n": int, "p": [[rational-string]]} row-major by u;
    entries may be "a/b" fractions or decimal strings, parsed exactly.
  * moment JSON: {"m": int, "n": int, "s": [[rational-string]]}; the grid
    must be feasible: s[0][0] = 1 and the pmf it inverts to nonnegative.
  * event CSV: header exactly "weight,A1..Am,B1..Bn", one atom per row.
m, n, --mmax and --nmax may be at most DIMENSION_LIMIT, and a decimal
exponent at most EXPONENT_LIMIT in absolute value.

Exit status: 0 success, 1 usage/parse error, 2 property violation found by
`validate` or `sweep`, or a `moments` MISMATCH on an event CSV.
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import re
import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import itemgetter
from pathlib import Path
from typing import List, Optional, Tuple, Union

from . import bounds as bnd
from . import model, oracle, transforms
from .bounds import BoundValue
from .combinatorics import DomainError
from .model import EventSystem, JointPMF, MomentMatrix

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2


class InputError(Exception):
    """A problem with an input file, carrying a location hint."""


# Times below: one run each, 2-core x86-64 host, CPython 3.11.
# Largest decimal exponent, in absolute value, that parse_rational accepts:
# `Fraction` builds 10**exponent, so "1e-99999999" would take minutes.  At
# m = n = 24, `compare` on a pmf whose cells all have exponent -1000 (one
# with a 1000-digit mantissa) takes 0.4 s instead of 0.2 s.  Digit runs are
# bounded by CPython's limit of 4300 digits on int().
EXPONENT_LIMIT = 1000
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\Z", re.IGNORECASE)
# Largest m or n of an input or of `validate`.  In process on CPython 3.11.7
# (2-core x86-64 host, a dense random pmf, median of 7 runs), `compare` at
# m = n = 128 takes about 0.73 s with a peak RSS of 137 MB at target (1, 1),
# and about 0.82 s and 100 MB at (2, 3), as README gives: about 7 times its
# time at m = n = 64.
DIMENSION_LIMIT = 128


def parse_rational(text: str, where: str) -> Tuple[int, int]:
    """(numerator, denominator > 0) of the rational `Fraction(text)` reads,
    not necessarily reduced.  A plain integer or a/b of decimal digits is
    read straight into ints; any other text goes through `Fraction`, under
    the exponent limit.  Apart from that limit, the errors are Fraction's."""
    core = text.strip()
    if "e" in core or "E" in core:
        match = _EXPONENT.search(core)
        # int() raises beyond 4300 digits, far over the limit anyway
        if match and (len(match[1]) > 4300
                      or abs(int(match[1])) > EXPONENT_LIMIT):
            raise InputError(
                f"{where}: the decimal exponent of {core[:40]!r} exceeds "
                f"the limit of {EXPONENT_LIMIT} in absolute value"
            )
    num, slash, den = core.partition("/")
    digits = num[1:] if num[:1] in ("+", "-") else num
    try:
        # isdecimal() is the \d of Fraction's pattern, and int() reads it
        if digits.isdecimal() and (not slash or den.isdecimal()):
            a, b = int(num), int(den) if slash else 1
            if b:
                return a, b
        value = Fraction(core)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"{where}: cannot parse rational {text!r}: {exc}")
    return value.numerator, value.denominator


def _check_dimension(value: int, what: str) -> None:
    if value > DIMENSION_LIMIT:
        raise InputError(
            f"{what} is {value}, above the limit of {DIMENSION_LIMIT}"
        )


def _dimension(doc: dict, key: str, path: str) -> int:
    value = doc[key]
    if type(value) is not int or value < 1:
        raise InputError(f"{path}: {key!r} must be an integer >= 1, got {value!r}")
    _check_dimension(value, f"{path}: {key!r}")
    return value


def _grid_from_json(doc: dict, key: str, path: str, cls):
    """The cls grid under `key`, parsed into ints."""
    for field in ("m", "n", key):
        if field not in doc:
            raise InputError(f"{path}: missing key {field!r}")
    m, n = _dimension(doc, "m", path), _dimension(doc, "n", path)
    rows = doc[key]
    if not isinstance(rows, list) or len(rows) != m + 1:
        raise InputError(f"{path}: {key!r} must have {m + 1} rows")
    grid = []
    for u, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n + 1:
            raise InputError(f"{path}: row {u} must have {n + 1} entries")
        try:
            grid.append([parse_rational(str(x), path) for x in row])
        except InputError:
            # name the first bad cell: its location is built only here
            for v, x in enumerate(row):
                parse_rational(str(x), f"{path} row {u} col {v}")
            raise
    return cls.from_ints(m, n, *model.common_denominator(grid))


def load_events_csv(path: str) -> EventSystem:
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            rows = list(reader)
    except (OSError, ValueError, csv.Error) as exc:  # also bad UTF-8
        raise InputError(f"{path}: {exc}")
    if not rows:
        raise InputError(f"{path}: empty file")
    header = [h.strip() for h in rows[0]]
    m = sum(1 for h in header if h.startswith("A"))
    n = len(header) - 1 - m
    expected = (["weight"] + [f"A{i}" for i in range(1, m + 1)]
                + [f"B{j}" for j in range(1, n + 1)])
    if header != expected or m < 1 or n < 1:
        raise InputError(
            f"{path}: line 1: header must be weight,A1..Am,B1..Bn "
            f"with m, n >= 1, got {','.join(header)!r}"
        )
    _check_dimension(m, f"{path}: line 1: m")
    _check_dimension(n, f"{path}: line 1: n")
    atoms = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise InputError(f"{path}: line {lineno}: expected {len(header)} cells")
        w = Fraction(*parse_rational(row[0], f"{path} line {lineno}"))
        bits = []
        for cell in row[1:]:
            cell = cell.strip()
            if cell not in ("0", "1"):
                raise InputError(
                    f"{path}: line {lineno}: indicator cells must be 0 or 1"
                )
            bits.append(int(cell))
        atoms.append((w, tuple(bits[:m]), tuple(bits[m:])))
    try:
        return EventSystem(m, n, tuple(atoms))
    except DomainError as exc:
        raise InputError(f"{path}: {exc}")


def _feasible(mm: MomentMatrix, path: str) -> MomentMatrix:
    """mm, if it is the moment grid of a pmf: s[0][0] = 1 and the exactly
    inverted pmf is nonnegative (it then sums to s[0][0])."""
    if mm.nums[0][0] != mm.den:
        raise InputError(f"{path}: infeasible moment grid: s[0][0] = "
                         f"{cell_text(mm.nums[0][0], mm.den)}, must be 1")
    pmf = transforms.pmf_grid_from_moments(mm)
    for u, row in enumerate(pmf.nums):
        for v, x in enumerate(row):
            if x < 0:
                raise InputError(
                    f"{path}: infeasible moment grid: it inverts to "
                    f"P(S={u}, T={v}) = {cell_text(x, pmf.den)} < 0"
                )
    return mm


def load_instance(path: str) -> Union[JointPMF, EventSystem, MomentMatrix]:
    """pmf JSON, moment JSON, or event CSV, decided by extension/keys; the
    file is read and parsed once."""
    if path.lower().endswith(".csv"):
        return load_events_csv(path)
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except (OSError, ValueError, RecursionError) as exc:  # deep nesting too
        raise InputError(f"{path}: {exc}")
    if not isinstance(doc, dict):
        raise InputError(f"{path}: top level must be a JSON object")
    if "p" in doc and "s" in doc:
        raise InputError(f"{path}: JSON must contain a 'p' (pmf) or an 's' "
                         "(moments) grid, not both")
    try:
        if "p" in doc:
            return _grid_from_json(doc, "p", path, JointPMF)
        if "s" in doc:
            return _feasible(_grid_from_json(doc, "s", path, MomentMatrix),
                             path)
    except DomainError as exc:
        raise InputError(f"{path}: {exc}")
    raise InputError(f"{path}: JSON must contain a 'p' (pmf) or 's' (moments) grid")


def to_moments(obj) -> MomentMatrix:
    if isinstance(obj, MomentMatrix):
        return obj
    if isinstance(obj, EventSystem):
        obj = model.counting_pmf(obj)
    return model.moments_from_pmf(obj)


def cell_text(num: int, den: int) -> str:
    """str(Fraction(num, den)) for den > 0, built from the ints."""
    g = gcd(num, den)
    return str(num // g) if den == g else f"{num // g}/{den // g}"


def fmt_ratio(num: int, den: int) -> str:
    """num/den (den > 0) as str and float of the Fraction print it."""
    return f"{cell_text(num, den)} (≈{num / den:.4f})"


def fmt(q: Fraction) -> str:
    return fmt_ratio(q.numerator, q.denominator)


def grid_json(key: str, grid) -> str:
    """A held grid as JSON: m, n and its cells under `key`, byte for byte
    what json.dumps({"m": m, "n": n, key: cells}, indent=2) writes.

    The text is joined here because json.dumps runs its pure-Python encoder
    whenever `indent` is set, and that took about a third of the time a
    625-cell grid takes to write.  Nothing needs escaping: `cell_text` yields only digits,
    "-" and "/", and `key` is one of the literals "s", "p" and "q"."""
    den = grid.den
    rows = '"\n    ],\n    [\n      "'.join(
        '",\n      "'.join([cell_text(x, den) for x in row])
        for row in grid.nums)
    return (f'{{\n  "m": {grid.m},\n  "n": {grid.n},\n  "{key}": [\n'
            f'    [\n      "{rows}"\n    ]\n  ]\n}}')


def print_matrix(title: str, grid, out) -> None:
    print(title, file=out)
    for row in grid.nums:
        print("  " + "  ".join(cell_text(x, grid.den) for x in row), file=out)


def _emit_bound(b: BoundValue, clamp: bool, out) -> None:
    if not b.defined:
        print(f"undefined [{b.direction}] {b.family}: {b.note}", file=out)
        return
    v = min(max(b.value, Fraction(0)), Fraction(1)) if clamp else b.value
    print(f"{fmt(v)} [{b.direction}]", file=out)


# ---------------------------------------------------------------------------
# subcommands


def cmd_moments(args, out) -> int:
    obj = load_instance(args.infile)
    if isinstance(obj, MomentMatrix):
        raise InputError(f"{args.infile}: moments input makes no sense here")
    agree = None
    if isinstance(obj, EventSystem):
        kmax = args.kmax if args.kmax is not None else obj.m
        lmax = args.lmax if args.lmax is not None else obj.n
        grid = model.bonferroni_sums(obj, kmax, lmax)
        mm = model.moments_from_pmf(model.counting_pmf(obj))
        agree = grid.s == tuple(row[:lmax + 1] for row in mm.s[:kmax + 1])
        title = "bonferroni sums S_{k,l}:"
    elif args.kmax is not None or args.lmax is not None:
        raise InputError(f"{args.infile}: --kmax/--lmax apply to an event "
                         "CSV input only")
    else:
        grid, title = model.moments_from_pmf(obj), "binomial moments s[i][j]:"
    if args.json:
        print(grid_json("s", grid), file=out)
    else:
        print_matrix(title, grid, out)
        if agree is not None:
            print("gumbel identity vs counting-pmf moments: "
                  + ("OK" if agree else "MISMATCH"), file=out)
    return EXIT_VIOLATION if agree is False else EXIT_OK


def cmd_invert(args, out) -> int:
    mm = to_moments(load_instance(args.infile))
    if args.to == "pmf":
        key, grid = "p", transforms.pmf_grid_from_moments(mm)
    else:
        key, grid = "q", transforms.tail_table_from_moments(mm)
    print(grid_json(key, grid), file=out)
    return EXIT_OK


def _require_flag(args, name: str) -> int:
    v = getattr(args, name)
    if v is None:
        raise InputError(f"--family {args.family} requires --{name}")
    return v


def cmd_bound(args, out) -> int:
    mm = to_moments(load_instance(args.infile))
    flags, bounds = bnd.FAMILIES[args.family]
    values = [_require_flag(args, flag) for flag in flags]
    for flag in BOUND_FLAGS:
        if flag not in flags and getattr(args, flag) is not None:
            raise InputError(f"--family {args.family} does not take --{flag}")
    for b in bounds(mm, *values):
        _emit_bound(b, args.clamp, out)
    return EXIT_OK


def cmd_sweep(args, out) -> int:
    mm = to_moments(load_instance(args.infile))
    fam = args.family
    table = next((t for t in bnd.tables(mm, args.u, args.v)
                  if fam in t.labels), None)
    if table is None:
        raise InputError(f"--family {fam} targets u=1, v=1 only")
    grid = table.cells()
    print(f"{fam} sweep over (k, l):", file=out)
    for row in grid:
        print("  " + "  ".join(cell_text(*cell) for cell in row), file=out)
    # by cell, then axis; an axis's monotonicity check precedes its curvature
    failures = sorted(oracle.shape_failures(fam, grid, table.first),
                      key=lambda f: (f.params["k"], f.params["l"],
                                     f.property_id[-1]))
    for f in failures:
        kind = "MONOTONICITY" if "_monotone_" in f.property_id else "CURVATURE"
        print(f"{kind} VIOLATION in {f.property_id[-1]} "
              f"at k={f.params['k']}, l={f.params['l']}", file=out)
    if failures:
        print(f"{len(failures)} violation(s) found", file=out)
        return EXIT_VIOLATION
    print("no monotonicity/convexity violations", file=out)
    return EXIT_OK


def _compare_lines(rows) -> List[str]:
    """The line of `compare` for each (label, direction, numerator,
    denominator > 0) row, in the order of (exact value, direction, label).
    The best bounds, the greatest lower and the least upper value, are
    starred.  The text and the key of a pair are made once for each run of
    rows that hold it in turn, as the labels of one cell do.

    Each row is keyed by floor(value * 2**shift), shift = 2 * the bit
    length of the largest denominator D.  Two distinct values a/b and c/d
    differ by at least 1/(b d) >= 1/D**2 > 2**-shift, so their keys
    differ, and equal values share one: the keys order the values exactly."""
    shift = 2 * max(map(itemgetter(3), rows), default=1).bit_length()
    keyed, last_num, last_den = [], None, None
    for lbl, direction, num, den in rows:
        if num != last_num or den != last_den:
            last_num, last_den = num, den
            key, text = (num << shift) // den, f"{fmt_ratio(num, den):24s}"
        keyed.append((key, direction, lbl, text))
    keyed.sort()
    best = {bnd.LOWER: next((k[0] for k in reversed(keyed)
                             if k[1] == bnd.LOWER), None),
            bnd.UPPER: next((k[0] for k in keyed if k[1] == bnd.UPPER),
                            None)}
    return [f"{direction:5s}  {text}  {lbl}"
            + (f"  *best {direction}*" if key == best[direction] else "")
            for key, direction, lbl, text in keyed]


def cmd_compare(args, out) -> int:
    obj = load_instance(args.infile)
    if isinstance(obj, MomentMatrix):
        raise InputError(
            f"{args.infile}: compare needs a pmf or event-system input "
            "(the exact tail is computed from it)"
        )
    pmf = model.counting_pmf(obj) if isinstance(obj, EventSystem) else obj
    u, v = args.u, args.v
    rows, skips = bnd.compare_rows(model.moments_from_pmf(pmf), u, v)
    tail = sum(x for row in pmf.nums[u:] for x in row[v:])  # over pmf.den
    lines = [f"target P(S>={u}, T>={v})",
             f"exact  {fmt_ratio(tail, pmf.den)}"]
    lines += _compare_lines(rows)
    lines.extend(f"skip   {lbl}: {note}" for lbl, note in skips)
    out.write("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_validate(args, out) -> int:
    for flag, value in (("mmax", args.mmax), ("nmax", args.nmax)):
        if value < 1:
            raise InputError(f"--{flag} must be >= 1, got {value}")
        _check_dimension(value, f"--{flag}")
    if args.trials < 0:
        raise InputError(f"--trials must be >= 0, got {args.trials}")
    if args.properties == []:
        raise InputError("--properties needs at least one property id")
    report = oracle.validate(_specs(args), args.properties)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2), file=out)
    else:
        print(f"trials: {report.trials}", file=out)
        print(f"failures: {len(report.failures)}", file=out)
        for f in report.failures[:50]:
            print(
                f"  {f.property_id} {f.params} lhs={f.lhs} rhs={f.rhs} "
                f"spec={f.spec.to_dict()}",
                file=out,
            )
    return EXIT_OK if report.ok else EXIT_VIOLATION


def _specs(args):
    """The seeded InstanceSpecs of `validate`, made one at a time."""
    rng = random.Random(args.seed)
    for i in range(args.trials):
        kind = ("dense_pmf", "sparse_pmf", "event_system")[i % 3]
        es = kind == "event_system"  # at most 4 x 4 events, 1..16 atoms
        m = rng.randint(1, min(args.mmax, 4) if es else args.mmax)
        n = rng.randint(1, min(args.nmax, 4) if es else args.nmax)
        seed = rng.randrange(2**63)
        atoms = rng.randint(1, 16) if es else None
        yield oracle.InstanceSpec(seed, m, n, kind, atoms=atoms)


FAMILY_CHOICES = tuple(bnd.FAMILIES)
# `bound`'s flags: the `bounds.FAMILIES` parameters, in first-named order
BOUND_FLAGS = tuple(dict.fromkeys(
    flag for flags, _ in bnd.FAMILIES.values() for flag in flags))


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every
    `main` call; nothing may modify it."""
    parser = argparse.ArgumentParser(
        prog="bvbounds",
        description="Exact bivariate binomial moments, inversions, and "
        "joint tail-probability bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, infile=True):
        p = sub.add_parser(name, help=help)
        if infile:
            p.add_argument("--in", dest="infile", required=True)
        p.set_defaults(func=func)
        return p

    p = command("moments", cmd_moments, "moment matrix / Bonferroni sums")
    p.add_argument("--kmax", type=int)
    p.add_argument("--lmax", type=int)
    p.add_argument("--json", action="store_true")

    p = command("invert", cmd_invert, "moments -> pmf or tails")
    p.add_argument("--to", choices=("pmf", "tails"), required=True)

    p = command("bound", cmd_bound, "evaluate one bound")
    p.add_argument("--family", choices=FAMILY_CHOICES, required=True)
    for flag in BOUND_FLAGS:
        p.add_argument(f"--{flag}", type=int)
    p.add_argument("--clamp", action="store_true")

    sweep = command("sweep", cmd_sweep,
                    "bound table over (k, l) with shape checks")
    sweep.add_argument("--family", choices=tuple(oracle.RISING),
                       required=True)
    compare = command("compare", cmd_compare,
                      "all applicable bounds vs the exact tail")
    for p in (sweep, compare):
        p.add_argument("--u", type=int, required=True)
        p.add_argument("--v", type=int, required=True)

    p = command("validate", cmd_validate, "randomized exact property suite",
                infile=False)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mmax", type=int, default=6)
    p.add_argument("--nmax", type=int, default=6)
    p.add_argument("--properties", nargs="*", default=None)
    p.add_argument("--json", action="store_true")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args, sys.stdout)
    except (InputError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

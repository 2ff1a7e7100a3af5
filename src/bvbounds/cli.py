"""Command-line front end.

Input formats:
  * pmf JSON: {"m": int, "n": int, "p": [[rational-string]]} row-major by u;
    entries may be "a/b" fractions or decimal strings, parsed exactly.
  * moment JSON: {"m": int, "n": int, "s": [[rational-string]]}; the grid
    must be feasible: s[0][0] = 1 and the pmf it inverts to nonnegative.
  * event CSV: header exactly "weight,A1..Am,B1..Bn", one atom per row.

Exit status: 0 success, 1 usage/parse error, 2 property violation found by
`validate` or `sweep`.
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import sys
from fractions import Fraction
from functools import lru_cache
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


def parse_rational(text: str, where: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"{where}: cannot parse rational {text!r}: {exc}")


def _dimension(doc: dict, key: str, path: str) -> int:
    value = doc[key]
    if type(value) is not int or value < 1:
        raise InputError(f"{path}: {key!r} must be an integer >= 1, got {value!r}")
    return value


def _grid_from_json(doc: dict, key: str, path: str) -> Tuple[int, int, list]:
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
        grid.append(
            [parse_rational(str(x), f"{path} row {u} col {v}")
             for v, x in enumerate(row)]
        )
    return m, n, grid


def load_events_csv(path: str) -> EventSystem:
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            rows = list(reader)
    except OSError as exc:
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
    atoms = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise InputError(f"{path}: line {lineno}: expected {len(header)} cells")
        w = parse_rational(row[0], f"{path} line {lineno}")
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
    if mm.s[0][0] != 1:
        raise InputError(
            f"{path}: infeasible moment grid: s[0][0] = {mm.s[0][0]}, must be 1"
        )
    for u, row in enumerate(transforms.pmf_grid_from_moments(mm)):
        for v, x in enumerate(row):
            if x.numerator < 0:  # cheaper than x < 0, same sign
                raise InputError(
                    f"{path}: infeasible moment grid: it inverts to "
                    f"P(S={u}, T={v}) = {x} < 0"
                )
    return mm


def load_instance(path: str) -> Union[JointPMF, EventSystem, MomentMatrix]:
    """pmf JSON, moment JSON, or event CSV, decided by extension/keys; the
    file is read and parsed once."""
    if path.endswith(".csv"):
        return load_events_csv(path)
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise InputError(f"{path}: {exc}")
    if not isinstance(doc, dict):
        raise InputError(f"{path}: top level must be a JSON object")
    try:
        if "p" in doc:
            return JointPMF(*_grid_from_json(doc, "p", path))
        if "s" in doc:
            return _feasible(MomentMatrix(*_grid_from_json(doc, "s", path)),
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


def fmt(q: Fraction) -> str:
    return f"{q} (≈{float(q):.4f})"


def grid_json(m: int, n: int, key: str, grid) -> str:
    return json.dumps(
        {"m": m, "n": n, key: [[str(x) for x in row] for row in grid]},
        indent=2,
    )


def print_matrix(title: str, grid, out) -> None:
    print(title, file=out)
    for row in grid:
        print("  " + "  ".join(str(x) for x in row), file=out)


def _clamp(v: Fraction) -> Fraction:
    return min(max(v, Fraction(0)), Fraction(1))


def _emit_bound(b: BoundValue, clamp: bool, out) -> None:
    if not b.defined:
        print(f"undefined [{b.direction}] {b.family}: {b.note}", file=out)
        return
    v = _clamp(b.value) if clamp else b.value
    print(f"{fmt(v)} [{b.direction}]", file=out)


# ---------------------------------------------------------------------------
# subcommands


def cmd_moments(args, out) -> int:
    obj = load_instance(args.infile)
    if isinstance(obj, MomentMatrix):
        raise InputError(f"{args.infile}: moments input makes no sense here")
    if isinstance(obj, EventSystem):
        kmax = args.kmax if args.kmax is not None else obj.m
        lmax = args.lmax if args.lmax is not None else obj.n
        sums = model.bonferroni_sums(obj, kmax, lmax)
        mm = model.moments_from_pmf(model.counting_pmf(obj))
        agree = all(
            sums.s[k][l] == mm.s[k][l]
            for k in range(kmax + 1)
            for l in range(lmax + 1)
        )
        if args.json:
            print(grid_json(sums.m, sums.n, "s", sums.s), file=out)
        else:
            print_matrix("bonferroni sums S_{k,l}:", sums.s, out)
            print(
                "gumbel identity vs counting-pmf moments: "
                + ("OK" if agree else "MISMATCH"),
                file=out,
            )
        return EXIT_OK if agree else EXIT_VIOLATION
    mm = model.moments_from_pmf(obj)
    if args.json:
        print(grid_json(mm.m, mm.n, "s", mm.s), file=out)
    else:
        print_matrix("binomial moments s[i][j]:", mm.s, out)
    return EXIT_OK


def cmd_invert(args, out) -> int:
    obj = load_instance(args.infile)
    mm = to_moments(obj)
    if args.to == "pmf":
        grid = transforms.pmf_grid_from_moments(mm)
        print(grid_json(mm.m, mm.n, "p", grid), file=out)
    else:
        tt = transforms.tail_table_from_moments(mm)
        print(grid_json(tt.m, tt.n, "q", tt.q), file=out)
    return EXIT_OK


def _require_flag(args, name: str) -> int:
    v = getattr(args, name)
    if v is None:
        raise InputError(f"--family {args.family} requires --{name}")
    return v


def cmd_bound(args, out) -> int:
    mm = to_moments(load_instance(args.infile))
    fam = args.family
    if fam == "bonferroni":
        lo, up = bnd.bonferroni_pair(
            mm, _require_flag(args, "u"), _require_flag(args, "v"),
            _require_flag(args, "k"),
        )
        _emit_bound(lo, args.clamp, out)
        _emit_bound(up, args.clamp, out)
    elif fam == "frechet":
        _emit_bound(
            bnd.frechet_lower(mm, _require_flag(args, "k"), _require_flag(args, "l")),
            args.clamp, out,
        )
    elif fam == "gumbel":
        _emit_bound(
            bnd.gumbel_upper(mm, _require_flag(args, "k"), _require_flag(args, "l")),
            args.clamp, out,
        )
    elif fam == "type":
        lo, up = bnd.frechet_gumbel_type(
            mm, _require_flag(args, "s"), _require_flag(args, "t"),
            _require_flag(args, "k"), _require_flag(args, "l"),
        )
        _emit_bound(lo, args.clamp, out)
        _emit_bound(up, args.clamp, out)
    elif fam == "chung":
        _emit_bound(
            bnd.chung_bound(
                mm, _require_flag(args, "s"), _require_flag(args, "t"),
                _require_flag(args, "k"), _require_flag(args, "l"),
            ),
            args.clamp, out,
        )
    elif fam in ("c1", "c6"):
        _emit_bound(bnd.comparison_bound(mm, fam), args.clamp, out)
    elif fam == "c3":
        _emit_bound(
            bnd.comparison_bound(
                mm, "c3", _require_flag(args, "a"), _require_flag(args, "b")
            ),
            args.clamp, out,
        )
    return EXIT_OK


def cmd_sweep(args, out) -> int:
    mm = to_moments(load_instance(args.infile))
    fam = args.family
    violations = 0
    if fam in ("frechet", "gumbel"):
        if args.u != 1 or args.v != 1:
            raise InputError(f"--family {fam} targets u=1, v=1 only")
        get = (
            (lambda k, l: bnd.frechet_lower(mm, k, l).value)
            if fam == "frechet"
            else (lambda k, l: bnd.gumbel_upper(mm, k, l).value)
        )
        ks, ls = range(1, mm.m + 1), range(1, mm.n + 1)
    else:  # chung: sweep depth parameters at target (u, v)
        s, t = args.u, args.v
        get = lambda k, l: bnd.chung_bound(mm, s, t, k, l).value
        ks, ls = range(s, mm.m + 1), range(t, mm.n + 1)
    vals = {(k, l): get(k, l) for k in ks for l in ls}
    increasing = fam == "frechet"
    print(f"{fam} sweep over (k, l):", file=out)
    for k in ks:
        print(
            "  " + "  ".join(str(vals[(k, l)]) for l in ls), file=out
        )
    ks, ls = list(ks), list(ls)
    for k in ks:
        for l in ls:
            for dk, dl, tag in ((1, 0, "k"), (0, 1, "l")):
                if (k + dk, l + dl) in vals:
                    step = vals[(k + dk, l + dl)] - vals[(k, l)]
                    bad = step < 0 if increasing else step > 0
                    if bad:
                        violations += 1
                        print(
                            f"MONOTONICITY VIOLATION in {tag} at k={k}, l={l}",
                            file=out,
                        )
                if (k + 2 * dk, l + 2 * dl) in vals:
                    d2 = (
                        vals[(k + 2 * dk, l + 2 * dl)]
                        - 2 * vals[(k + dk, l + dl)]
                        + vals[(k, l)]
                    )
                    bad = d2 > 0 if increasing else d2 < 0
                    if bad:
                        violations += 1
                        print(
                            f"CURVATURE VIOLATION in {tag} at k={k}, l={l}",
                            file=out,
                        )
    if violations:
        print(f"{violations} violation(s) found", file=out)
        return EXIT_VIOLATION
    print("no monotonicity/convexity violations", file=out)
    return EXIT_OK


def _compare_rows(mm: MomentMatrix, u: int, v: int):
    rows: List[Tuple[str, BoundValue]] = []

    def add(label: str, b: BoundValue) -> None:
        if b.defined:
            rows.append((label, b))

    for k in range(1, mm.m + 1):
        for l in range(1, mm.n + 1):
            lo, up = bnd.frechet_gumbel_type(mm, u, v, k, l)
            add(f"type-lower k={k} l={l}", lo)
            add(f"type-upper k={k} l={l}", up)
            if u == 1 and v == 1:
                add(f"frechet k={k} l={l}", bnd.frechet_lower(mm, k, l))
                add(f"gumbel k={k} l={l}", bnd.gumbel_upper(mm, k, l))
    for k in range(u, mm.m + 1):
        for l in range(v, mm.n + 1):
            add(f"chung k={k} l={l}", bnd.chung_bound(mm, u, v, k, l))
    for k in range((mm.m + mm.n - u - v) // 2 + 2):
        lo, up = bnd.bonferroni_pair(mm, u, v, k)
        add(f"bonferroni-lower k={k}", lo)
        add(f"bonferroni-upper k={k}", up)
    if u == 1 and v == 1:
        if mm.m >= 2 and mm.n >= 2:
            add("c1", bnd.comparison_bound(mm, "c1"))
            add("c6", bnd.comparison_bound(mm, "c6"))
            add(
                f"c3 a={mm.m - 1} b={mm.n - 1}",
                bnd.comparison_bound(mm, "c3", mm.m - 1, mm.n - 1),
            )
        else:
            rows.append(
                ("c1/c3/c6", BoundValue(None, "upper", "galambos_xu",
                                        note="require m >= 2 and n >= 2"))
            )
    return rows


def _ordered(defined):
    """(value, direction, label, starred) for each defined (label, bound)
    row, in the order of (exact value, direction, label).  The starred rows
    hold the best bounds: the greatest lower and the least upper value.

    Each row is keyed by floor(value * 2**64) first, an int that never
    decreases as the value grows, so int comparisons decide almost every
    pair; the exact Fraction is compared only where two values agree to
    2**-64."""
    keyed = sorted(
        ((b.value.numerator << 64) // b.value.denominator, b.value,
         b.direction, lbl)
        for lbl, b in defined
    )
    best = {
        "lower": next((k[:2] for k in reversed(keyed) if k[2] == "lower"),
                      None),
        "upper": next((k[:2] for k in keyed if k[2] == "upper"), None),
    }
    return [(value, direction, lbl, (prefix, value) == best[direction])
            for prefix, value, direction, lbl in keyed]


def cmd_compare(args, out) -> int:
    obj = load_instance(args.infile)
    if isinstance(obj, MomentMatrix):
        raise InputError(
            f"{args.infile}: compare needs a pmf or event-system input "
            "(the exact tail is computed from it)"
        )
    pmf = model.counting_pmf(obj) if isinstance(obj, EventSystem) else obj
    u, v = args.u, args.v
    if not (1 <= u <= pmf.m and 1 <= v <= pmf.n):
        raise InputError("need 1 <= u <= m and 1 <= v <= n")
    mm = model.moments_from_pmf(pmf)
    exact = oracle.exact_tail(pmf, u, v)
    rows = _compare_rows(mm, u, v)
    lines = [f"target P(S>={u}, T>={v})", f"exact  {fmt(exact)}"]
    for value, direction, lbl, starred in _ordered(
        (lbl, b) for lbl, b in rows if b.defined
    ):
        star = f"  *best {direction}*" if starred else ""
        lines.append(f"{direction:5s}  {fmt(value):24s}  {lbl}{star}")
    lines.extend(f"skip   {lbl}: {b.note}" for lbl, b in rows if not b.defined)
    out.write("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_validate(args, out) -> int:
    for flag in ("mmax", "nmax"):
        if getattr(args, flag) < 1:
            raise InputError(f"--{flag} must be >= 1, got {getattr(args, flag)}")
    rng = random.Random(args.seed)
    specs = []
    for i in range(args.trials):
        kind = ("dense_pmf", "sparse_pmf", "event_system")[i % 3]
        if kind == "event_system":
            m = rng.randint(1, min(args.mmax, 4))
            n = rng.randint(1, min(args.nmax, 4))
            specs.append(
                oracle.InstanceSpec(rng.randrange(2**63), m, n, kind,
                                    atoms=rng.randint(1, 16))
            )
        else:
            m = rng.randint(1, args.mmax)
            n = rng.randint(1, args.nmax)
            specs.append(oracle.InstanceSpec(rng.randrange(2**63), m, n, kind))
    report = oracle.validate(specs, args.properties)
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


FAMILY_CHOICES = ("bonferroni", "frechet", "gumbel", "type", "chung",
                  "c1", "c3", "c6")


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

    p = sub.add_parser("moments", help="moment matrix / Bonferroni sums")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--kmax", type=int)
    p.add_argument("--lmax", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("invert", help="moments -> pmf or tails")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--to", choices=("pmf", "tails"), required=True)
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("bound", help="evaluate one bound")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--family", choices=FAMILY_CHOICES, required=True)
    for flag in ("u", "v", "s", "t", "k", "l", "a", "b"):
        p.add_argument(f"--{flag}", type=int)
    p.add_argument("--clamp", action="store_true")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("sweep", help="bound table over (k, l) with shape checks")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--family", choices=("frechet", "gumbel", "chung"),
                   required=True)
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--v", type=int, required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("compare", help="all applicable bounds vs the exact tail")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--v", type=int, required=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("validate", help="randomized exact property suite")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mmax", type=int, default=6)
    p.add_argument("--nmax", type=int, default=6)
    p.add_argument("--properties", nargs="*", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_validate)

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

"""Fuzzing the command line: whatever its arguments and input file, `main`
never raises, exits 0, 1 or 2, and every exit 1 writes an `error:` line to
stderr.  One test feeds well-formed pmf, moment and event files with every
flag a small integer, in range or not; a second feeds the same with only
the flags each subcommand takes for its input and family, so that the
computing paths run; the third feeds malformed JSON and CSV, arbitrary
bytes, non-integer flag values, missing and foreign flags."""

import contextlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bvbounds import JointPMF, bounds as bnd, moments_from_pmf
from bvbounds.cli import BOUND_FLAGS, FAMILY_CHOICES, main
from bvbounds.oracle import ALL_PROPERTIES

# True about one time in four.  (Hypothesis leans towards the least
# integer, so the rare branch is the greatest value, not 0.)
rarely = st.integers(0, 3).map(lambda x: x == 3)


def mostly(good, bad):
    """A value of `good`, or of `bad` about one time in four."""
    return st.tuples(rarely, good, bad).map(lambda r: r[2] if r[0] else r[1])


# ---------------------------------------------------------------------------
# input files: (content, suffix)

dims = st.integers(1, 4)


@st.composite
def pmf_grids(draw, m, n):
    """A pmf on {0..m} x {0..n}: integer weights over their total."""
    w = draw(st.lists(st.lists(st.integers(0, 5), min_size=n + 1,
                               max_size=n + 1),
                      min_size=m + 1, max_size=m + 1))
    w[0][0] += 1
    total = sum(map(sum, w))
    return [[Fraction(x, total) for x in row] for row in w]


def _json(m, n, key, grid):
    return json.dumps({"m": m, "n": n,
                       key: [[str(x) for x in row] for row in grid]}).encode()


@st.composite
def well_formed_files(draw):
    m, n = draw(dims), draw(dims)
    grid = draw(pmf_grids(m, n))
    kind = draw(st.sampled_from(["pmf", "moments", "events"]))
    if kind == "pmf":
        return _json(m, n, "p", grid), ".json"
    if kind == "moments":
        return _json(m, n, "s", moments_from_pmf(JointPMF(m, n, grid)).s), \
            ".json"
    # one atom per support point, on random subsets of the events
    lines = [",".join(["weight"] + [f"A{i}" for i in range(1, m + 1)]
                      + [f"B{j}" for j in range(1, n + 1)])]
    for row in grid:
        for w in row:
            bits = draw(st.lists(st.sampled_from("01"), min_size=m + n,
                                 max_size=m + n))
            lines.append(",".join([str(w)] + bits))
    return "\n".join(lines).encode(), ".csv"


# Rational-looking and broken cell texts, with decimal exponents of any
# size: those beyond the parser's limit must end in exit 1, not in a
# 10**exponent integer.
cells = st.one_of(
    st.sampled_from(["0", "1", "1/2", "-1/3", "0.25", "1/0", "x", "", " 1 ",
                     "2", "1//2", "nan", "2.5e-1", "1e-99999999", "1E1001",
                     "1e" + "9" * 5000, "1_0e-1_0", "1e", "e5", "1/2e3"]),
    st.text(alphabet="0123456789/-.eE_ ", max_size=6),
    st.builds("{}e{}".format, st.sampled_from(["1", "-2.5", ".5", "7/2"]),
              st.integers(-10**9, 10**9)),
)
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 6),
              st.floats(allow_nan=True), cells),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(cells, inner, max_size=3)),
    max_leaves=12,
)


@st.composite
def malformed_json(draw):
    """A pmf or moment document with a cell, a row or a key broken, or any
    JSON value."""
    m, n = draw(dims), draw(dims)
    rows = [[str(x) for x in row] for row in draw(pmf_grids(m, n))]
    if draw(rarely):
        rows[draw(st.integers(0, m))][draw(st.integers(0, n))] = \
            draw(json_values)
    if draw(rarely):
        rows[draw(st.integers(0, m))] = draw(json_values)
    doc = {"m": m, "n": n, draw(st.sampled_from("psq")): rows}
    if draw(st.booleans()):
        key = draw(st.sampled_from(["m", "n", "p", "s"]))
        if draw(st.booleans()):
            doc.pop(key, None)
        else:
            doc[key] = draw(json_values)
    if draw(rarely):
        doc = draw(json_values)
    return json.dumps(doc).encode()


@st.composite
def malformed_csv(draw):
    """Headers with missing, extra or shuffled columns; cells that are not
    0/1; weights that do not parse or do not sum to 1; ragged rows; bytes
    that do not decode."""
    m, n = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    header = (["weight"] + [f"A{i}" for i in range(1, m + 1)]
              + [f"B{j}" for j in range(1, n + 1)])
    if draw(rarely):
        header = draw(st.permutations(header + draw(
            st.lists(st.sampled_from(["A0", "B9", "C1", "weight", ""]),
                     max_size=2))))
    atoms = draw(st.lists(
        st.lists(st.sampled_from(["0", "1", "1", "2", ""]),
                 min_size=m + n, max_size=m + n + draw(st.integers(0, 1))),
        max_size=8,
    ))
    weights = draw(st.lists(cells, min_size=len(atoms), max_size=len(atoms)))
    lines = [",".join(header)] + [",".join([w] + a)
                                  for w, a in zip(weights, atoms)]
    # sometimes a last line of bytes that are not UTF-8
    tail = draw(mostly(st.just(b""), st.binary(min_size=1, max_size=4).map(
        lambda junk: b"\n\xff" + junk)))
    return "\n".join(lines).encode() + tail


suffixes = st.sampled_from([".json", ".csv"])
malformed_files = st.one_of(
    st.tuples(malformed_json(), suffixes),
    st.tuples(malformed_csv(), suffixes),
    st.tuples(st.binary(max_size=64), suffixes),
    st.tuples(st.just(b"[" * 50_000), suffixes),
    well_formed_files(),
)

# ---------------------------------------------------------------------------
# argument lists

small = mostly(st.integers(1, 4), st.integers(-2, 6)).map(str)
INT_FLAGS = ("u", "v", "s", "t", "k", "l", "a", "b", "kmax", "lmax", "seed")
WELL_FORMED_VALUES = {
    **{flag: small for flag in INT_FLAGS},
    # validate's own work grows with these, so they stay small
    "trials": st.integers(-1, 2).map(str),
    "mmax": st.integers(-1, 3).map(str),
    "nmax": st.integers(-1, 3).map(str),
    "to": st.sampled_from(["pmf", "tails"]),
    "properties": st.sampled_from(ALL_PROPERTIES),
}
MALFORMED_VALUES = {
    **WELL_FORMED_VALUES,
    **{flag: mostly(small, st.sampled_from(["x", "", "1.5", "10" * 12]))
       for flag in INT_FLAGS},
    "family": st.sampled_from(FAMILY_CHOICES + ("nope",)),
    "to": st.sampled_from(["pmf", "tails", "moments"]),
    "properties": mostly(st.sampled_from(ALL_PROPERTIES), st.just("nope")),
}
SWITCHES = ("json", "clamp")
# Each subcommand's (required, optional) flags.
COMMANDS = {
    "moments": ((), ("kmax", "lmax", "json")),
    "invert": (("to",), ()),
    "bound": (("family",), ("u", "v", "s", "t", "k", "l", "a", "b",
                            "clamp")),
    "sweep": (("family", "u", "v"), ()),
    "compare": (("u", "v"), ()),
    "validate": (("trials",), ("seed", "mmax", "nmax", "properties",
                               "json")),
}
FAMILIES = {"bound": FAMILY_CHOICES, "sweep": ("frechet", "gumbel", "chung")}


@st.composite
def invocations(draw, malformed):
    """(argv, input file content, input file suffix); argv names the input
    file INPUT.  Malformed ones have a malformed file or malformed flags:
    values that are not integers, a required flag left out, a flag of
    another subcommand added."""
    bad_flags = malformed and draw(st.booleans())
    command = draw(st.sampled_from(sorted(COMMANDS) + ["bogus"] * bad_flags))
    required, optional = COMMANDS.get(command, ((), ()))
    flags = [f for f in required if not (bad_flags and draw(rarely))]
    if bad_flags and optional:
        flags += draw(st.lists(st.sampled_from(optional), unique=True,
                               max_size=len(optional)))
    else:  # every flag the subcommand may need, and some it refuses
        flags += [f for f in optional if f not in SWITCHES or draw(rarely)]
    values = MALFORMED_VALUES if bad_flags else WELL_FORMED_VALUES
    if bad_flags and draw(rarely):
        flags.append(draw(st.sampled_from(sorted(values))))
    argv = [command]
    if command != "validate" and not (bad_flags and draw(rarely)):
        argv += ["--in", "INPUT"]
    for flag in flags:
        argv.append(f"--{flag}")
        if flag == "family" and not bad_flags:
            argv.append(draw(st.sampled_from(FAMILIES[command])))
        elif flag not in SWITCHES:
            argv.append(draw(values[flag]))
    files = malformed_files if malformed else well_formed_files()
    return (argv, *draw(files))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def check(workdir, case):
    argv, content, suffix = case
    path = workdir / f"input{suffix}"
    path.write_bytes(content)
    argv = [str(path) if a == "INPUT" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    assert status in (0, 1, 2)
    if status == 1:
        assert "error:" in err.getvalue()


fuzz_settings = settings(max_examples=250, deadline=None,
                         suppress_health_check=[HealthCheck.too_slow,
                                                HealthCheck.data_too_large])


@fuzz_settings
@given(invocations(malformed=False))
def test_well_formed_input_never_raises(workdir, case):
    check(workdir, case)


def taken_flags_only(case):
    """case without the flags its subcommand refuses: `bound` takes only its
    family's parameters, and `moments` takes --kmax/--lmax only with an
    event CSV."""
    argv, content, suffix = case
    refused = set()
    if argv[0] == "bound":
        family = argv[argv.index("--family") + 1]
        refused = set(BOUND_FLAGS) - set(bnd.FAMILIES[family][0])
    elif argv[0] == "moments" and suffix != ".csv":
        refused = {"kmax", "lmax"}
    kept, args = [], iter(argv)
    for arg in args:
        if arg[2:] in refused and arg.startswith("--"):
            next(args)  # its value
        else:
            kept.append(arg)
    return kept, content, suffix


@settings(fuzz_settings, max_examples=100)
@given(invocations(malformed=False).map(taken_flags_only))
def test_taken_flags_only_never_raises(workdir, case):
    check(workdir, case)


@fuzz_settings
@given(invocations(malformed=True))
def test_malformed_input_never_raises(workdir, case):
    check(workdir, case)


@pytest.mark.parametrize("content, suffix", [
    (b"[" * 50_000, ".json"),
    (b"weight,A1,B1\n\xff\xfe,1,1\n", ".csv"),
    (b"weight,A1,B1\n" + b"1" * 200_000 + b",1,1\n", ".csv"),
])
def test_unreadable_input_is_an_error(tmp_path, capsys, content, suffix):
    path = tmp_path / f"input{suffix}"
    path.write_bytes(content)
    assert main(["compare", "--in", str(path), "--u", "1", "--v", "1"]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: ")

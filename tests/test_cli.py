import io
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bvbounds import bounds as bnd, cli, model, oracle
from bvbounds.cli import InputError, main, parse_rational
from conftest import with_value

GOLDEN = Path(__file__).parent / "golden"

E2_JSON = {
    "m": 2,
    "n": 2,
    "p": [["1/3", "0", "0"], ["0", "1/3", "0"], ["0", "0", "1/3"]],
}

EVENTS_CSV = """weight,A1,A2,B1,B2
1/3,0,0,0,0
1/3,1,0,1,0
1/3,1,1,1,1
"""


@pytest.fixture
def e2_file(tmp_path):
    path = tmp_path / "e2.json"
    path.write_text(json.dumps(E2_JSON))
    return str(path)


@pytest.fixture
def events_file(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text(EVENTS_CSV)
    return str(path)


def run(argv, capsys):
    status = main(argv)
    out = capsys.readouterr()
    return status, out.out, out.err


class TestMoments:
    def test_pmf_input(self, e2_file, capsys):
        status, out, _ = run(["moments", "--in", e2_file], capsys)
        assert status == 0
        assert "5/3" in out

    def test_event_input_reports_identity_check(self, events_file, capsys):
        status, out, _ = run(["moments", "--in", events_file], capsys)
        assert status == 0
        assert "bonferroni sums" in out
        assert "gumbel identity" in out and "OK" in out

    def test_identity_mismatch_exits_2(self, capsys, monkeypatch):
        bonferroni_sums = model.bonferroni_sums

        def planted(es, kmax, lmax):  # one cell off by 1
            grid = bonferroni_sums(es, kmax, lmax)
            nums = [list(row) for row in grid.nums]
            nums[1][1] += grid.den
            return model.MomentMatrix.from_ints(grid.m, grid.n, nums, grid.den)

        monkeypatch.setattr(model, "bonferroni_sums", planted)
        status, out, err = run(
            ["moments", "--in", str(GOLDEN / "events3x2.csv")], capsys)
        assert (status, err) == (2, "")
        assert out.endswith(
            "gumbel identity vs counting-pmf moments: MISMATCH\n")
        assert "  7/4  4  5/4\n" in out

    def test_json_round_trip_via_invert(self, e2_file, tmp_path, capsys):
        status, out, _ = run(["moments", "--in", e2_file, "--json"], capsys)
        assert status == 0
        mfile = tmp_path / "mm.json"
        mfile.write_text(out)
        status, pmf_out, _ = run(
            ["invert", "--in", str(mfile), "--to", "pmf"], capsys
        )
        assert status == 0
        pfile = tmp_path / "back.json"
        pfile.write_text(pmf_out)
        status, again, _ = run(["moments", "--in", str(pfile), "--json"], capsys)
        assert status == 0
        assert again == out  # byte-identical canonical formatting

    @pytest.mark.parametrize("name", ["EV.CSV", "ev.Csv"])
    def test_csv_suffix_in_any_case(self, tmp_path, capsys, name):
        path = tmp_path / name
        path.write_bytes((GOLDEN / "events3x2.csv").read_bytes())
        status, out, err = run(["moments", "--in", str(path)], capsys)
        assert (status, err) == (0, "")
        assert out == (GOLDEN / "moments_events3x2.txt").read_text()


def test_grid_json_is_what_json_dumps_writes():
    # zero, negative, integer and fractional cells, over den 1 and den 6
    values = [0, -3, 12, 5, -7, 1, 6, -12]
    for m in range(4):
        for n in range(4):
            nums = [[values[(u * (n + 1) + v) % len(values)]
                     for v in range(n + 1)] for u in range(m + 1)]
            for den in (1, 6):
                grid = model.RationalGrid.from_ints(m, n, nums, den)
                cells = [[str(Fraction(x, den)) for x in row] for row in nums]
                for key in "spq":
                    text = cli.grid_json(key, grid)
                    assert text == json.dumps(
                        {"m": m, "n": n, key: cells}, indent=2)
                    assert json.loads(text) == {"m": m, "n": n, key: cells}


class TestInvert:
    def test_tails(self, e2_file, tmp_path, capsys):
        status, out, _ = run(["moments", "--in", e2_file, "--json"], capsys)
        mfile = tmp_path / "mm.json"
        mfile.write_text(out)
        status, out, _ = run(
            ["invert", "--in", str(mfile), "--to", "tails"], capsys
        )
        assert status == 0
        doc = json.loads(out)
        assert doc["q"][0][0] == "1"
        assert doc["q"][1][1] == "2/3"


class TestBound:
    def test_gumbel_example(self, e2_file, capsys):
        status, out, _ = run(
            ["bound", "--in", e2_file, "--family", "gumbel",
             "--k", "1", "--l", "1"],
            capsys,
        )
        assert status == 0
        assert out.strip() == "5/3 (≈1.6667) [upper]"

    def test_clamp(self, e2_file, capsys):
        status, out, _ = run(
            ["bound", "--in", e2_file, "--family", "gumbel",
             "--k", "1", "--l", "1", "--clamp"],
            capsys,
        )
        assert out.strip() == "1 (≈1.0000) [upper]"

    def test_bonferroni_prints_pair(self, e2_file, capsys):
        status, out, _ = run(
            ["bound", "--in", e2_file, "--family", "bonferroni",
             "--u", "1", "--v", "1", "--k", "0"],
            capsys,
        )
        assert status == 0
        lines = out.strip().splitlines()
        assert lines[0] == "1/3 (≈0.3333) [lower]"
        assert lines[1] == "5/3 (≈1.6667) [upper]"

    def test_missing_flag_is_usage_error(self, e2_file, capsys):
        status, _, err = run(
            ["bound", "--in", e2_file, "--family", "gumbel", "--k", "1"],
            capsys,
        )
        assert status == 1
        assert "--l" in err

    def test_c3_constraint_violation(self, e2_file, capsys):
        status, _, err = run(
            ["bound", "--in", e2_file, "--family", "c3", "--a", "1", "--b", "0"],
            capsys,
        )
        assert status == 1
        assert "b >= 1" in err


class TestSweep:
    def test_frechet_no_violations(self, e2_file, capsys):
        status, out, _ = run(
            ["sweep", "--in", e2_file, "--family", "frechet",
             "--u", "1", "--v", "1"],
            capsys,
        )
        assert status == 0
        assert "no monotonicity/convexity violations" in out

    def test_chung_sweep(self, e2_file, capsys):
        status, out, _ = run(
            ["sweep", "--in", e2_file, "--family", "chung",
             "--u", "1", "--v", "1"],
            capsys,
        )
        assert status == 0

    @pytest.mark.parametrize("u, v, message", [
        ("3", "1", "u=3 outside [1, 2]"), ("1", "3", "v=3 outside [1, 2]"),
        ("0", "3", "u=0 outside [1, 2]"), ("2", "0", "v=0 outside [1, 2]")],
        ids=["3-1", "1-3", "0-3", "2-0"])
    def test_chung_target_outside_the_grid(self, e2_file, capsys, u, v,
                                           message):
        # the text compare prints, not the flags of `bound --family chung`
        status, out, err = run(
            ["sweep", "--in", e2_file, "--family", "chung",
             "--u", u, "--v", v],
            capsys,
        )
        assert (status, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("family", ["frechet", "gumbel"])
    @pytest.mark.parametrize("u, v", [("0", "1"), ("2", "1"), ("1", "3")])
    def test_frechet_gumbel_target_one_one_only(self, e2_file, capsys,
                                                family, u, v):
        status, out, err = run(
            ["sweep", "--in", e2_file, "--family", family,
             "--u", u, "--v", v],
            capsys,
        )
        assert (status, out) == (1, "")
        # a target outside the 2 x 2 grid is named before the family
        outside = {("0", "1"): "u=0 outside [1, 2]",
                   ("1", "3"): "v=3 outside [1, 2]"}.get((u, v))
        assert err == (f"error: {outside}\n" if outside else
                       f"error: --family {family} targets u=1, v=1 only\n")


class TestCompare:
    def test_e2_values(self, e2_file, capsys):
        status, out, _ = run(
            ["compare", "--in", e2_file, "--u", "1", "--v", "1"], capsys
        )
        assert status == 0
        assert "exact  2/3 (≈0.6667)" in out
        assert "c1" in out and "c6" in out
        assert "*best lower*" in out and "*best upper*" in out

    def test_neighbours_with_large_denominators_stay_apart(self):
        # (N-1)/N < N/(N+1) differ by 1/(N (N+1)), about 2**-634: rows
        # keyed to fewer bits than twice the denominators' would tie, and
        # the "lower" rows would sort first.  Unreduced pairs keep their
        # values, and equal values share the best-bound star.
        big = 3**200
        rows = [("d", "lower", 2 * big, 2 * big + 2),
                ("a", "lower", big, big + 1),
                ("b", "upper", 2 * (big - 1), 2 * big),
                ("c", "upper", 2, 2)]
        assert cli._compare_lines(rows) == [
            f"upper  {big - 1}/{big} (≈1.0000)  b  *best upper*",
            f"lower  {big}/{big + 1} (≈1.0000)  a  *best lower*",
            f"lower  {big}/{big + 1} (≈1.0000)  d  *best lower*",
            "upper  1 (≈1.0000)               c"]

    def test_byte_stable(self, e2_file, capsys):
        _, first, _ = run(
            ["compare", "--in", e2_file, "--u", "1", "--v", "1"], capsys
        )
        _, second, _ = run(
            ["compare", "--in", e2_file, "--u", "1", "--v", "1"], capsys
        )
        assert first == second

    def test_event_csv_input(self, events_file, capsys):
        status, out, _ = run(
            ["compare", "--in", events_file, "--u", "1", "--v", "1"], capsys
        )
        assert status == 0
        assert out.startswith("target P(S>=1, T>=1)")


class TestValidate:
    def test_zero_trials(self, capsys):
        status, out, _ = run(["validate", "--trials", "0"], capsys)
        assert status == 0
        assert "trials: 0" in out

    @pytest.mark.parametrize("argv, message", [
        (["--trials", "-3"], "--trials must be >= 0, got -3"),
        (["--trials", "2", "--properties"],
         "--properties needs at least one property id"),
    ])
    def test_run_that_checks_nothing_is_refused(self, capsys, argv, message):
        status, out, err = run(["validate", *argv], capsys)
        assert (status, out, err) == (1, "", f"error: {message}\n")

    def test_small_clean_run_json(self, capsys):
        status, out, _ = run(
            ["validate", "--trials", "6", "--seed", "1",
             "--mmax", "3", "--nmax", "3", "--json"],
            capsys,
        )
        assert status == 0
        doc = json.loads(out)
        assert doc["trials"] == 6
        assert doc["failures"] == []

    def test_json_stdout_is_byte_stable(self, capsys):
        argv = ["validate", "--trials", "9", "--seed", "4", "--mmax", "3",
                "--nmax", "3", "--json"]
        first = run(argv, capsys)
        assert first[0] == 0
        assert run(argv, capsys) == first
        assert set(json.loads(first[1])) == {"trials", "failures"}

    def test_specs_are_made_one_at_a_time(self, capsys, monkeypatch):
        # the specs `validate` made when it built them all in a list first
        rng = random.Random(4)
        expected = []
        for i in range(60):
            kind = ("dense_pmf", "sparse_pmf", "event_system")[i % 3]
            es = kind == "event_system"
            m = rng.randint(1, 4 if es else 5)
            n = rng.randint(1, 3)  # --nmax 3 is below 4
            seed = rng.randrange(2**63)
            atoms = rng.randint(1, 16) if es else None
            expected.append(oracle.InstanceSpec(seed, m, n, kind, atoms=atoms))
        real, received = oracle.validate, []

        def spy(specs, properties=None):
            assert iter(specs) is specs  # an iterator, not a list
            received.extend(specs)
            return real(received, properties)

        monkeypatch.setattr(oracle, "validate", spy)
        props = ["theorem1_roundtrip", "gumbel_identity"]
        status, out, _ = run(["validate", "--trials", "60", "--seed", "4",
                              "--mmax", "5", "--nmax", "3", "--json",
                              "--properties", *props], capsys)
        assert received == expected
        assert status == 0
        assert out == json.dumps(real(expected, props).to_dict(),
                                 indent=2) + "\n"

    def test_plain_text_failure_listing(self, capsys, monkeypatch):
        # the planted chung_bound fault of test_planted_fault_failure_records
        real = bnd.chung_bound

        def planted(*args):
            bound = real(*args)
            return with_value(bound, bound.value + 1)

        monkeypatch.setattr(bnd, "chung_bound", planted)
        argv = ["validate", "--trials", "9", "--mmax", "3", "--nmax", "3"]
        status, out, err = run(argv, capsys)
        _, doc, _ = run(argv + ["--json"], capsys)
        failures = json.loads(doc)["failures"]
        assert (status, err) == (2, "") and len(failures) > 50
        lines = out.splitlines()
        assert lines[:2] == ["trials: 9", f"failures: {len(failures)}"]
        assert lines[2:] == [
            f"  {f['property']} {f['params']} lhs={f['lhs']} rhs={f['rhs']} "
            f"spec={f['spec']}" for f in failures[:50]]


class TestErrors:
    def test_subset_enumeration_limit(self, tmp_path, capsys):
        # 2**10 * 2**10 subset pairs times 2 atoms = 2097152 checks.
        path = tmp_path / "big.csv"
        header = (["weight"] + [f"A{i}" for i in range(1, 11)]
                  + [f"B{j}" for j in range(1, 11)])
        path.write_text(",".join(header) + "\n"
                        + "1/2" + ",1" * 20 + "\n" + "1/2" + ",0" * 20 + "\n")
        status, out, err = run(["moments", "--in", str(path)], capsys)
        assert (status, out) == (1, "")
        assert err.startswith("error: ")
        assert "2097152" in err and "1000000" in err
        # With kmax = lmax = 3 the same file needs 176**2 * 2 = 61952.
        status, out, _ = run(["moments", "--in", str(path), "--kmax", "3",
                              "--lmax", "3"], capsys)
        assert status == 0 and "OK" in out

    # each family's own flags, with values in range on pmf6.json
    FAMILY_ARGS = {
        "bonferroni": ["--u", "1", "--v", "1", "--k", "0"],
        "frechet": ["--k", "1", "--l", "1"],
        "gumbel": ["--k", "1", "--l", "1"],
        "type": ["--s", "1", "--t", "1", "--k", "1", "--l", "1"],
        "chung": ["--s", "1", "--t", "1", "--k", "1", "--l", "1"],
        "c1": [],
        "c3": ["--a", "5", "--b", "5"],
        "c6": [],
    }

    @pytest.mark.parametrize("family", sorted(FAMILY_ARGS))
    def test_bound_refuses_a_flag_its_family_does_not_take(self, capsys,
                                                           family):
        base = ["bound", "--in", str(GOLDEN / "pmf6.json"), "--family",
                family] + self.FAMILY_ARGS[family]
        assert run(base, capsys)[0] == 0
        taken = bnd.FAMILIES[family][0]
        for flag in cli.BOUND_FLAGS:
            if flag not in taken:
                status, out, err = run(base + [f"--{flag}", "2"], capsys)
                assert (status, out) == (1, "")
                assert err == (f"error: --family {family} does not take "
                               f"--{flag}\n")

    def test_bound_names_the_first_stray_flag_after_a_missing_one(self,
                                                                  capsys):
        pmf6 = str(GOLDEN / "pmf6.json")
        # the stray flags in the parser's order, whatever their order here
        status, out, err = run(["bound", "--in", pmf6, "--family", "gumbel",
                                "--t", "4", "--s", "3", "--k", "1", "--l",
                                "1"], capsys)
        assert (status, out) == (1, "")
        assert err == "error: --family gumbel does not take --s\n"
        # a missing flag is reported first, as before
        status, out, err = run(["bound", "--in", pmf6, "--family", "gumbel",
                                "--s", "3", "--k", "1"], capsys)
        assert (status, out) == (1, "")
        assert err == "error: --family gumbel requires --l\n"

    @pytest.mark.parametrize("flags", [["--kmax", "1", "--lmax", "1"],
                                       ["--kmax", "6"], ["--lmax", "0"]])
    def test_moments_depth_flags_need_an_event_csv(self, capsys, flags):
        pmf6 = GOLDEN / "pmf6.json"
        status, out, err = run(["moments", "--in", str(pmf6)] + flags,
                               capsys)
        assert (status, out) == (1, "")
        assert err == (f"error: {pmf6}: --kmax/--lmax apply to an event CSV "
                       "input only\n")
        # a moment grid is refused for what it is, as before
        moments6 = GOLDEN / "moments6.json"
        status, out, err = run(["moments", "--in", str(moments6)] + flags,
                               capsys)
        assert (status, out) == (1, "")
        assert err == (f"error: {moments6}: moments input makes no sense "
                       "here\n")

    @pytest.mark.parametrize("flags, message", [
        (["--kmax", "4"], "kmax=4 outside [0, 3]"),
        (["--lmax", "-1"], "lmax=-1 outside [0, 2]"),
        (["--kmax", "-1", "--lmax", "3"], "kmax=-1 outside [0, 3]"),
    ], ids=["kmax", "lmax", "both"])
    def test_moments_depth_error_names_the_flag_and_its_range(
            self, capsys, flags, message):
        events = GOLDEN / "events3x2.csv"
        status, out, err = run(["moments", "--in", str(events)] + flags,
                               capsys)
        assert (status, out, err) == (1, "", f"error: {message}\n")

    CHUNG = ["bound", "--family", "chung"]

    @pytest.mark.parametrize("argv, message", [
        (["compare", "--u", "7", "--v", "1"], "u=7 outside [1, 6]"),
        (["compare", "--u", "0", "--v", "1"], "u=0 outside [1, 6]"),
        (["compare", "--u", "1", "--v", "7"], "v=7 outside [1, 6]"),
        (["sweep", "--family", "chung", "--u", "7", "--v", "1"],
         "u=7 outside [1, 6]"),
        (["sweep", "--family", "chung", "--u", "2", "--v", "0"],
         "v=0 outside [1, 6]"),
        (CHUNG + ["--s", "0", "--t", "1", "--k", "1", "--l", "1"],
         "s=0 outside [1, 6]"),
        (CHUNG + ["--s", "1", "--t", "7", "--k", "1", "--l", "7"],
         "t=7 outside [1, 6]"),
        (CHUNG + ["--s", "3", "--t", "1", "--k", "2", "--l", "1"],
         "k=2 outside [3, 6]"),
        (CHUNG + ["--s", "1", "--t", "2", "--k", "7", "--l", "1"],
         "k=7 outside [1, 6]"),
        (CHUNG + ["--s", "1", "--t", "2", "--k", "1", "--l", "1"],
         "l=1 outside [2, 6]"),
    ], ids=["compare-u-high", "compare-u-zero", "compare-v-high",
            "sweep-u-high", "sweep-v-zero", "chung-s", "chung-t",
            "chung-k-below-s", "chung-k-high", "chung-l-below-t"])
    def test_target_or_depth_outside_the_grid_is_named(self, capsys, argv,
                                                       message):
        pmf6 = str(GOLDEN / "pmf6.json")
        status, out, err = run([argv[0], "--in", pmf6, *argv[1:]], capsys)
        assert (status, out, err) == (1, "", f"error: {message}\n")

    def test_bad_pmf_sum(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"m": 1, "n": 1,
                                    "p": [["1/2", "0"], ["0", "1/4"]]}))
        status, _, err = run(["moments", "--in", str(path)], capsys)
        assert status == 1
        assert "sum to 1" in err

    def test_bad_rational_names_location(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"m": 1, "n": 1,
                                    "p": [["x", "0"], ["0", "1"]]}))
        status, _, err = run(["moments", "--in", str(path)], capsys)
        assert status == 1
        assert "row 0 col 0" in err

    @pytest.mark.parametrize("u, v, cell, reason", [
        (2, 1, "x", "cannot parse rational 'x': Invalid literal for "
                    "Fraction: 'x'"),
        (1, 2, "3/0", "cannot parse rational '3/0': Fraction(3, 0)"),
        (2, 2, "1/2e5000", "the decimal exponent of '1/2e5000' exceeds the "
                           "limit of 1000 in absolute value"),
    ])
    @pytest.mark.parametrize("grid", ["p", "s"])
    def test_bad_rational_error_text(self, tmp_path, capsys, u, v, cell,
                                     reason, grid):
        # good cells before the bad one, in its row and in the rows above,
        # and a second bad cell after it that must not be the one named
        cells = [["1/3", "0", "0"], ["0", "1/3", "0"], ["0", "0", "1/3"]]
        cells[u][v] = cell
        if v < 2:
            cells[u][2] = "y"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"m": 2, "n": 2, grid: cells}))
        status, out, err = run(["moments", "--in", str(path)], capsys)
        assert status == 1 and out == ""
        assert err == f"error: {path} row {u} col {v}: {reason}\n"

    def test_bad_csv_indicator(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("weight,A1,B1\n1,2,0\n")
        status, _, err = run(["moments", "--in", str(path)], capsys)
        assert status == 1
        assert "line 2" in err

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    @pytest.mark.parametrize("key, value", [
        ("m", "1"), ("n", "1"), ("m", True), ("n", 1.0), ("m", 0), ("n", -1),
        ("m", None),
    ])
    @pytest.mark.parametrize("grid", ["p", "s"])
    def test_bad_dimension(self, tmp_path, capsys, key, value, grid):
        doc = {"m": 1, "n": 1, grid: [["1", "0"], ["0", "0"]], key: value}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        status, out, err = run(["invert", "--in", str(path), "--to", "pmf"],
                               capsys)
        assert status == 1 and out == ""
        assert err.startswith(f"error: {path}: {key!r} must be an integer")

    @pytest.mark.parametrize("cell", [
        # cheap ones first: without the limit the third takes minutes
        "1E+1001", "-2.5e-1_001", "1e-99999999", "1e" + "9" * 5000,
    ])
    def test_decimal_exponent_limit(self, tmp_path, capsys, cell):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(
            {"m": 1, "n": 1, "p": [["1/2", "0"], ["1/2", cell]]}))
        status, out, err = run(["compare", "--in", str(path), "--u", "1",
                                "--v", "1"], capsys)
        assert status == 1 and out == ""
        assert err.startswith(f"error: {path} row 1 col 1: the decimal "
                              "exponent of ")
        assert "exceeds the limit of 1000 in absolute value" in err

    def test_decimal_exponents_within_the_limit(self, tmp_path, capsys):
        path = tmp_path / "dec.json"
        path.write_text(json.dumps({"m": 1, "n": 1, "p": [
            ["2.5e-1", "25E-2"], [" 0.0025e2 ", "25" + "0" * 998 + "e-1000"],
        ]}))
        status, out, _ = run(["invert", "--in", str(path), "--to", "pmf"],
                             capsys)
        assert status == 0
        assert json.loads(out)["p"] == [["1/4", "1/4"], ["1/4", "1/4"]]

    @pytest.mark.parametrize("key", ["m", "n"])
    def test_dimension_limit(self, tmp_path, capsys, key):
        def compare(size):
            doc = {"m": 1, "n": 1, key: size}
            doc["p"] = [["0"] * (doc["n"] + 1) for _ in range(doc["m"] + 1)]
            doc["p"][0][0] = "1"
            path = tmp_path / f"{size}.json"
            path.write_text(json.dumps(doc))
            return path, run(["compare", "--in", str(path), "--u", "1",
                              "--v", "1"], capsys)

        assert compare(128)[1][0] == 0
        path, (status, out, err) = compare(129)
        assert status == 1 and out == ""
        assert err == (f"error: {path}: {key!r} is 129, above the limit "
                       "of 128\n")

    def test_event_csv_dimension_limit(self, tmp_path, capsys):
        path = tmp_path / "wide.csv"
        path.write_text(",".join(["weight", "A1"]
                                 + [f"B{j}" for j in range(1, 130)]) + "\n")
        status, _, err = run(["moments", "--in", str(path)], capsys)
        assert status == 1
        assert err == (f"error: {path}: line 1: n is 129, above the limit "
                       "of 128\n")

    def test_json_with_both_grids(self, tmp_path, capsys):
        path = tmp_path / "both.json"
        path.write_text(json.dumps({"m": 1, "n": 1,
                                    "p": [["1/2", "0"], ["0", "1/2"]],
                                    "s": [["1", "5"], ["5", "9"]]}))
        status, out, err = run(["moments", "--in", str(path)], capsys)
        assert (status, out) == (1, "")
        assert err == (f"error: {path}: JSON must contain a 'p' (pmf) or an "
                       "'s' (moments) grid, not both\n")

    def test_top_level_not_an_object(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2]")
        status, _, err = run(["moments", "--in", str(path)], capsys)
        assert status == 1
        assert err.startswith(f"error: {path}: top level")

    @pytest.mark.parametrize("flag", ["--mmax", "--nmax"])
    def test_validate_dimension_below_one(self, capsys, flag):
        status, out, err = run(["validate", "--trials", "3", flag, "0"],
                               capsys)
        assert status == 1 and out == ""
        assert err.startswith(f"error: {flag} must be >= 1")

    @pytest.mark.parametrize("flag", ["--mmax", "--nmax"])
    def test_validate_dimension_above_the_limit(self, capsys, flag):
        # --trials 0: a missing check cannot start a large run
        status, out, err = run(["validate", "--trials", "0", flag, "129"],
                               capsys)
        assert status == 1 and out == ""
        assert err == f"error: {flag} is 129, above the limit of 128\n"
        status, out, err = run(["validate", "--trials", "0", flag, "128"],
                               capsys)
        assert (status, out, err) == (0, "trials: 0\nfailures: 0\n", "")


@pytest.mark.parametrize("grid", [
    {"m": 1, "n": 1, "p": [["1/2", "0"], ["0", "1/2"]]},
    {"m": 1, "n": 1, "s": [["1", "1/2"], ["1/2", "1/2"]]},
])
def test_input_file_is_read_once(tmp_path, capsys, monkeypatch, grid):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(grid))
    reads = []
    read_text = Path.read_text

    def counting(self, *args, **kwargs):
        reads.append(self)
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counting)
    status, _, _ = run(["invert", "--in", str(path), "--to", "tails"], capsys)
    assert status == 0
    assert reads == [path]


class TestInputChecks:
    @pytest.mark.parametrize("header, row", [
        ("weight,B1,A1", "1,1,0"),            # columns out of order
        ("weight,A1,B1,A2,B2", "1,1,0,0,1"),  # interleaved families
        ("weight,Ax,B1", "1,1,0"),            # bad event name
        ("weight,A1,A1,B1", "1,1,0,0"),       # repeated event name
    ])
    def test_csv_header_must_be_exact(self, tmp_path, capsys, header, row):
        path = tmp_path / "events.csv"
        path.write_text(f"{header}\n{row}\n")
        status, out, err = run(["moments", "--in", str(path)], capsys)
        assert status == 1 and out == ""
        assert err.startswith(f"error: {path}: line 1: header must be")

    @pytest.mark.parametrize("s, cell", [
        ([["2", "1"], ["1", "1"]], "s[0][0] = 2"),
        ([["1", "1"], ["1", "2"]], "P(S=0, T=1) = -1"),
    ])
    @pytest.mark.parametrize("argv", [
        ["invert", "--to", "pmf"],
        ["bound", "--family", "chung", "--s", "1", "--t", "1", "--k", "1",
         "--l", "1"],
    ])
    def test_infeasible_moment_grid(self, tmp_path, capsys, s, cell, argv):
        path = tmp_path / "mm.json"
        path.write_text(json.dumps({"m": 1, "n": 1, "s": s}))
        status, out, err = run(argv + ["--in", str(path)], capsys)
        assert status == 1 and out == ""
        assert err.startswith(f"error: {path}: infeasible moment grid")
        assert cell in err

    def test_feasible_moment_grid_with_zero_cells(self, tmp_path, capsys):
        path = tmp_path / "mm.json"
        path.write_text(json.dumps({"m": 1, "n": 1,
                                    "s": [["1", "1"], ["1", "1"]]}))
        status, out, _ = run(["invert", "--in", str(path), "--to", "pmf"],
                             capsys)
        assert status == 0
        assert json.loads(out)["p"] == [["0", "0"], ["0", "1"]]

    @pytest.mark.parametrize("grid", ["p", "s"])
    @pytest.mark.parametrize("doc, message", [
        ({"n": 1, "G": [["1", "0"]] * 2}, "missing key 'm'"),
        ({"m": 1, "G": [["1", "0"]] * 2}, "missing key 'n'"),
        ({"m": 1, "n": 1, "G": [["1", "0"]]}, "'G' must have 2 rows"),
        ({"m": 1, "n": 1, "G": "10"}, "'G' must have 2 rows"),
        ({"m": 1, "n": 1, "G": [["1", "0"], ["0"]]},
         "row 1 must have 2 entries"),
        ({"m": 1, "n": 1, "G": [["1", "0"], "00"]},
         "row 1 must have 2 entries"),
    ])
    def test_grid_json_errors(self, tmp_path, capsys, grid, doc, message):
        # "G" stands for the grid's key
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc).replace('"G"', f'"{grid}"'))
        status, out, err = run(["invert", "--in", str(path), "--to", "pmf"],
                               capsys)
        assert (status, out) == (1, "")
        assert err == f"error: {path}: {message.replace('G', grid)}\n"

    @pytest.mark.parametrize("text, message", [
        ("weight,A1,B1\n\n1,1\n", "line 3: expected 3 cells"),
        ("weight,A1,B1\n\n1,1,0,0\n", "line 3: expected 3 cells"),
        ("weight,A1,B1\n-1/2,1,0\n3/2,0,0\n",
         "atom weights must be nonnegative"),
        ("", "empty file"),
    ])
    def test_event_csv_errors(self, tmp_path, capsys, text, message):
        path = tmp_path / "events.csv"
        path.write_text(text)
        status, out, err = run(["moments", "--in", str(path)], capsys)
        assert (status, out) == (1, "")
        assert err == f"error: {path}: {message}\n"

    def test_byte_order_mark_is_accepted(self, tmp_path, capsys):
        # as written by spreadsheets' "CSV UTF-8": the same stdout with it
        for name in ("events3x2.csv", "pmf6.json"):
            text = (GOLDEN / name).read_bytes()
            plain, marked = tmp_path / name, tmp_path / f"bom_{name}"
            plain.write_bytes(text)
            marked.write_bytes(b"\xef\xbb\xbf" + text)
            for argv in (["compare", "--u", "1", "--v", "1"], ["moments"]):
                got = [run(argv + ["--in", str(path)], capsys)
                       for path in (plain, marked)]
                assert got[0] == got[1] and got[0][0] == 0

    def test_event_csv_blank_lines_are_skipped(self, tmp_path, capsys):
        path = tmp_path / "events.csv"
        path.write_text("weight,A1,B1\n\n1/2,1,1\n\n1/2,0,1\n\n")
        status, out, _ = run(["moments", "--in", str(path), "--json"], capsys)
        assert status == 0
        assert json.loads(out)["s"] == [["1", "1"], ["1/2", "1/2"]]


def test_invert_to_pmf_builds_the_pmf_once(monkeypatch, capsys):
    held, hold = [], model.RationalGrid._hold

    def counting(self, *args):
        held.append(type(self))
        hold(self, *args)

    monkeypatch.setattr(model.RationalGrid, "_hold", counting)
    argv = ["invert", "--in", str(GOLDEN / "moments6.json"), "--to", "pmf"]
    status, out, _ = run(argv, capsys)
    assert status == 0 and out == (GOLDEN / "invert_pmf.txt").read_text()
    assert held == [model.MomentMatrix, model.RationalGrid]


# Texts on which parse_rational must agree with Fraction; "3 / 4" and "3/+4"
# are what a naive split at "/" with two int() calls would accept.
PARSE_TEXTS = [
    "3 / 4", "3/+4", "3/-4", "1/0", "+3/6", "-0/5", "1_000/3", " 7 ",
    "\u0663/\u0664", "0x10", ".5", "1e3", "2.5E-1", "", " ", "-", "+", "/",
    "3/", "/4", "--3", "+-3", "2/4/8", "00/07", "-12/08", "\uff11\uff12/3",
    "\u00b3/4", "1__0", "1_/2", "_1", "\t5/10\n", "\u22123", "-5/0", "0/0",
    "9" * 4301, "1/" + "9" * 4301, "-" + "9" * 4301 + "/" + "9" * 4400, "7.",
    "1.5/2", "3/4.0",
]


def fraction_outcome(text):
    """What parse_rational has always returned or raised for `text`: the
    value Fraction(text) reads, or the error Fraction gives on the text
    with its surrounding whitespace stripped."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        pass
    try:
        Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        return f"here: cannot parse rational {text!r}: {exc}"


def parse_outcome(text):
    try:
        num, den = parse_rational(text, "here")
    except InputError as exc:
        return str(exc)
    assert type(num) is int and type(den) is int and den > 0
    return Fraction(num, den)


@pytest.mark.parametrize("text", PARSE_TEXTS)
def test_parse_rational_agrees_with_fraction(text):
    assert parse_outcome(text) == fraction_outcome(text)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="0123456789/+-_. \u0663\uff15", max_size=9))
def test_parse_rational_agrees_with_fraction_on_any_text(text):
    assert parse_outcome(text) == fraction_outcome(text)


def test_integers_and_ratios_are_read_without_fraction(monkeypatch):
    monkeypatch.setattr(cli, "Fraction", None)  # any call would raise
    assert parse_rational(" 12/8 ", "here") == (12, 8)
    assert parse_rational("-7", "here") == (-7, 1)
    assert parse_rational("+0/3", "here") == (0, 3)

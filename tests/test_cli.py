import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from combsplit import __version__, cli, cps, inflate, stochastic, suites
from combsplit.cli import main
from combsplit.zroot5 import TAU


def run(*argv):
    return main(list(argv))


def test_generate_row_count_and_determinism(tmp_path):
    out1 = tmp_path / "fib1.csv"
    out2 = tmp_path / "fib2.csv"
    assert run("generate", "--system", "fibonacci", "--R", "1e4",
               "--out", str(out1)) == 0
    assert run("generate", "--system", "fibonacci", "--R", "1e4",
               "--out", str(out2)) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    rows = b1.decode().strip().splitlines()
    assert rows[0].startswith(f"# combsplit {__version__} config_hash=")
    assert rows[1] == "type,m,n,value"
    n_points = len(rows) - 2
    assert abs(n_points - 7236) <= 10


def test_verify_bernoulli_reports_byte_identical(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert run("verify", "--suite", "bernoulli", "--seed", "42",
               "--out", str(out1)) == 0
    assert run("verify", "--suite", "bernoulli", "--seed", "42",
               "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    # as written by three comb correlations over the 2N + 1 sites; an explicit
    # seed enters the config hash, so this differs from verify_bern.json
    assert hashlib.sha256(out1.read_bytes()).hexdigest() == (
        "d9d66b80c4ae593d080a59e589ef50db20eb3ad99bf4626ba7dd788965caaaa4")
    doc = json.loads(out1.read_text())
    assert doc["passed"] is True
    assert doc["_meta"]["version"] == __version__


def test_diffract_eta_table(tmp_path):
    out = tmp_path / "eta.csv"
    assert run("diffract", "--system", "thue_morse", "--eta", "32",
               "--out", str(out)) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[1] == "m,eta_numerator,eta_denominator,eta_float"
    assert rows[2] == "0,1,1,1.0"
    assert len(rows) == 2 + 33


def test_verify_unknown_suite_errors(tmp_path, capsys):
    assert run("verify", "--suite", "nope") == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "KeyError"
    assert "nope" in err["message"]


def test_config_merge_and_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"system": "fibonacci", "R": 100.0}))
    out = tmp_path / "gen.csv"
    assert run("--config", str(cfg), "generate", "--R", "50",
               "--out", str(out)) == 0
    rows = out.read_text().strip().splitlines()
    values = [float(r.split(",")[-1]) for r in rows[2:]]
    assert max(values) <= 50.0


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"system": "fibonacci", "bogus": 1}))
    assert run("--config", str(cfg), "generate", "--R", "10",
               "--out", str(tmp_path / "x.csv")) == 1
    err = json.loads(capsys.readouterr().err)
    assert "bogus" in err["message"]


def test_every_flag_is_accepted_from_the_config(tmp_path, capsys):
    # each subcommand's config keys are its flags' dests, and a config holding
    # a valid value of every one of them is taken, converted as its flag is
    parser = cli._build_parser()
    settable = 0
    for command, kinds in cli._OPTIONS.items():
        args = parser.parse_args([command])
        assert set(vars(args)) - {"command", "config"} == set(kinds), command
        config = {key: kind[0] if isinstance(kind, tuple) else {int: 1, float: 1.0}.get(kind, "1")
                  for key, kind in kinds.items()}
        assert cli._merge(args, config) == config
        settable += len(kinds)
    # 73 when every command took --seed, --stream and --format: 9 of those go,
    # and correlate and fb gain --seed-letter, which their config could give;
    # diffract's --R went with its measured alphas, and project's --system,
    # an alias of --window-preset
    assert settable == 64
    # anything else is refused with the same message as before
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"system": "fibonacci", "zeta": 1, "bogus": 2, "help": 3}))
    assert run("--config", str(cfg), "generate", "--R", "10",
               "--out", str(tmp_path / "x.csv")) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "CliError",
                   "message": "unknown config keys: ['bogus', 'help', 'zeta']"}


@pytest.mark.parametrize("argv", [("--help",), ("--version",), ("split", "--help")])
def test_help_and_version_still_exit_0(argv, capsys):
    # the parser raises CliError on a bad command line, not on these
    with pytest.raises(SystemExit) as done:
        run(*argv)
    assert done.value.code == 0
    assert capsys.readouterr().err == ""


def test_missing_required_flag_errors(tmp_path, capsys):
    assert run("generate", "--system", "fibonacci",
               "--out", str(tmp_path / "x.csv")) == 1
    err = json.loads(capsys.readouterr().err)
    assert "--R" in err["message"] or "R" in err["message"]


def test_sample_random_fibonacci_points(tmp_path):
    out = tmp_path / "rf.csv"
    assert run("sample", "--system", "random_fibonacci", "--p", "0.5",
               "--R", "500", "--seed", "7", "--out", str(out)) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[1] == "type,m,n,value"
    assert len(rows) > 300


def test_point_files_match_per_cell_repr(tmp_path):
    # generate and sample write type,m,n,value from _key_lines with a
    # constant type cell: the bytes of one repr per cell, row by row
    from combsplit import inflate, stochastic

    # a rule file's type names may hold a %, which the row format must not read
    rule = {"alphabet": ["a%d", "b%"], "images": {"a%d": ["a%d", "b%"], "b%": ["a%d"]},
            "lengths": {"a%d": {"m": 0, "n": 1}, "b%": 1}}
    rule_file = tmp_path / "rule.json"
    rule_file.write_text(json.dumps(rule))
    runs = (
        (("generate", "--system", "twisted_fibonacci", "--R", "700"),
         inflate.realize_geometric(inflate.twisted_fibonacci_rule(), "a", 700.0)),
        (("generate", "--rule-file", str(rule_file), "--R", "700"),
         inflate.realize_geometric(inflate.rule_from_json(rule), "a%d", 700.0)),
        (("sample", "--system", "random_fibonacci", "--R", "700", "--seed", "7"),
         stochastic.random_fibonacci(0.5, 700.0, stochastic.RngSpec(7))),
    )
    for argv, tps in runs:
        out = tmp_path / "points.csv"
        assert run(*argv, "--out", str(out)) == 0
        want = ["type,m,n,value"] + [
            f"{t},{m},{n},{m + n * TAU!r}"
            for t, pts in tps.points.items() for m, n in pts.tolist()
        ]
        assert out.read_text().splitlines()[1:] == want, argv


def test_sample_bernoulli_report(tmp_path):
    out = tmp_path / "bern.json"
    pts = tmp_path / "bern_points.csv"
    assert run("sample", "--system", "bernoulli", "--p", "0.6", "--N", "20000",
               "--seed", "42", "--out", str(out),
               "--points-out", str(pts)) == 0
    doc = json.loads(out.read_text())
    assert doc["params"] == {"model": "bernoulli", "p": 0.6, "N": 20000}
    assert set(doc["predictions"]) == {"gamma_0", "gamma_off", "nu_corr_0"}
    assert pts.exists()


def test_split_outputs(tmp_path):
    out_dir = tmp_path / "split"
    assert run("split", "--system", "thue_morse", "--R", "512",
               "--out", str(out_dir)) == 0
    files = sorted(p.name for p in out_dir.iterdir())
    assert files == ["nu_a.csv", "nu_b.csv", "omega_a.csv", "omega_b.csv",
                     "splitting.json"]
    doc = json.loads((out_dir / "splitting.json").read_text())
    assert doc["alphas"] == {"a": 0.5, "b": 0.5}


def test_fb_scan_csv(tmp_path):
    out = tmp_path / "fb.csv"
    assert run("fb", "--system", "fibonacci", "--R-grid", "100,400",
               "--k-preset", "module", "--out", str(out)) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[1] == "k_a,k_b,k_value,R,re,im,abs,cauchy_diff"
    # first row of each k has an empty cauchy field
    first = rows[2].split(",")
    assert first[-1] == ""


def test_fb_of_the_doubling_chain_split_covers_R(tmp_path):
    # omega is 1/2 on the sites 0..100 of Z and covers (0, 100.5): at k = 1
    # every site adds 1/2, at k = 1/2 the sites alternate in sign
    out = tmp_path / "omega.csv"
    assert run("fb", "--system", "thue_morse", "--measure", "omega", "--R-grid", "100.5",
               "--k-values", "1,0.5", "--out", str(out)) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    assert [tuple(map(float, row[2:6])) for row in rows] == [
        (1.0, 100.5, 0.5 * 101 / 100.5, 0.0), (0.5, 100.5, 0.5 / 100.5, 0.0)]


def test_project_json_format(tmp_path):
    out = tmp_path / "proj.json"
    assert run("project", "--window-preset", "fibonacci", "--type", "b",
               "--R", "30", "--format", "json", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["type"] == "b"
    assert all(set(p) == {"m", "n", "value"} for p in doc["points"])


def test_project_with_windows_file(tmp_path):
    wf = tmp_path / "win.json"
    wf.write_text(json.dumps({
        "a": [{"lo": {"m": -2, "n": 1}, "hi": {"m": -1, "n": 1},
               "lo_closed": True, "hi_closed": False}],
    }))
    out = tmp_path / "proj.csv"
    assert run("project", "--windows-file", str(wf), "--type", "a",
               "--R", "100", "--out", str(out)) == 0
    rows = out.read_text().strip().splitlines()
    assert len(rows) > 40  # about 100/sqrt(5) points


@pytest.mark.parametrize("interval,message", [
    ({"lo": {"m": -2.7, "n": 1}, "hi": {"m": -1, "n": 1}},
     "endpoint m must be a whole number, got -2.7"),
    ({"lo": {"m": -2, "n": 1}, "hi": {"m": -1, "n": "1"}},
     "endpoint n must be a whole number, got '1'"),
    ({"lo": {"m": -2, "n": 1}, "hi": {"m": -1, "n": 1}, "lo_closed": "no"},
     "window lo_closed must be true or false, got 'no'"),
    ({"lo": {"m": -2, "n": 1}, "hi": {"m": -1, "n": 1}, "hi_closed": 0},
     "window hi_closed must be true or false, got 0"),
], ids=["m-fraction", "n-string", "lo-closed-string", "hi-closed-integer"])
def test_windows_file_refuses_what_it_would_coerce(interval, message, tmp_path, capsys):
    wf = tmp_path / "win.json"
    wf.write_text(json.dumps({"a": [interval]}))
    out = tmp_path / "proj.csv"
    assert run("project", "--windows-file", str(wf), "--type", "a",
               "--R", "100", "--out", str(out)) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "CliError", "message": message}
    assert not out.exists()


def test_run_suite_all_aggregates(monkeypatch):
    from combsplit import suites
    from combsplit.stochastic import Check

    def fake(name, ok):
        def suite(seed=None):
            return suites.SuiteReport(
                name, (Check("c", 0.0, 1.0, ok),), {}
            )
        return suite

    monkeypatch.setattr(
        suites, "_SUITES", {"x": fake("x", True), "y": fake("y", True)}
    )
    reports = suites.run_suite("all")
    assert [r.suite for r in reports] == ["x", "y"]
    assert all(r.passed for r in reports)

    monkeypatch.setattr(
        suites, "_SUITES", {"x": fake("x", True), "y": fake("y", False)}
    )
    assert [r.passed for r in suites.run_suite("all")] == [True, False]


def test_memory_error_reported_as_json(monkeypatch, capsys):
    from combsplit import cli

    def exhausted(cfg):
        raise MemoryError("cannot allocate")

    monkeypatch.setitem(cli._COMMANDS, "generate", exhausted)
    assert run("generate", "--system", "fibonacci", "--R", "10") == 1
    error = json.loads(capsys.readouterr().err)
    assert error == {"error": "MemoryError", "message": "cannot allocate"}


def test_overflow_error_reported_as_json(monkeypatch, capsys):
    from combsplit import cli

    def overflowing(cfg):
        raise OverflowError("int too large to convert to float")

    monkeypatch.setitem(cli._COMMANDS, "generate", overflowing)
    assert run("generate", "--system", "fibonacci", "--R", "10") == 1
    error = json.loads(capsys.readouterr().err)
    assert error == {"error": "OverflowError", "message": "int too large to convert to float"}


def test_points_budget_rejects_huge_R_before_inflating(monkeypatch, tmp_path, capsys):
    from combsplit import inflate

    def no_inflation(*args):
        raise AssertionError("inflated a word over the points budget")

    monkeypatch.setattr(inflate, "_inflate_word", no_inflation)
    out = tmp_path / "huge.csv"
    assert run("generate", "--system", "fibonacci", "--R", "1e12", "--out", str(out)) == 1
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "ValueError"
    assert f"MAX_POINTS = {cps.MAX_POINTS}" in error["message"]
    assert not out.exists()


def test_non_finite_R_rejected_before_inflating(monkeypatch, tmp_path, capsys):
    from combsplit import inflate

    def no_inflation(*args):
        raise AssertionError("inflated a word for a non-finite R")

    monkeypatch.setattr(inflate, "_inflate_word", no_inflation)
    for R in ("nan", "inf"):
        out = tmp_path / f"{R}.csv"
        assert run("generate", "--system", "fibonacci", "--R", R,
                   "--out", str(out)) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "RuleError"
        assert not out.exists()


BAD_BOUNDARY_RUNS = (
    (("correlate", "--system", "fibonacci", "--types", "a,b", "--R-grid", "1e3",
      "--r-max", "nan"), "r_max must be finite and nonnegative, got nan"),
    (("correlate", "--system", "thue_morse", "--types", "a,b", "--R-grid", "1e3",
      "--r-max", "inf"), "r_max must be finite and nonnegative, got inf"),
    (("correlate", "--system", "fibonacci", "--types", "a,b", "--R-grid", "1e3",
      "--r-max", "-3"), "r_max must be finite and nonnegative, got -3.0"),
    (("fb", "--system", "fibonacci", "--R-grid", "1e3", "--k-values", "nan"),
     "wave number must be finite, got nan"),
    (("fb", "--system", "fibonacci", "--R-grid", "1e3", "--k-values", "inf"),
     "wave number must be finite, got inf"),
    (("split", "--system", "twisted_fibonacci", "--R", "0"), "R must be positive, got 0.0"),
    (("split", "--system", "thue_morse", "--R", "0"), "R must be positive, got 0.0"),
    (("fb", "--measure", "nu", "--system", "twisted_fibonacci", "--R-grid", "0"),
     "R must be positive, got 0.0"),
    (("diffract", "--riesz-depth", "20", "--r-max", "-3"),
     "r_max must be a finite, nonnegative integer, got -3.0"),
    (("sample", "--system", "bernoulli", "--seed", "5", "--p", "0.6", "--N", "200",
      "--r-max", "2.9"), "r_max must be a whole number >= 1, got 2.9"),
    (("sample", "--system", "bernoulli", "--p", "0.6", "--N", "200", "--seed", "5",
      "--r-max", "0"), "r_max must be a whole number >= 1, got 0.0"),
    (("sample", "--system", "bernoulli", "--p", "0.6", "--N", "0", "--seed", "5"),
     "N must be a whole number >= 1, got 0"),
)


@pytest.mark.parametrize("argv,message", BAD_BOUNDARY_RUNS, ids=[
    "correlate-r_max-nan", "correlate-r_max-inf", "correlate-r_max-negative",
    "fb-k-nan", "fb-k-inf", "split-R-zero", "split-thue_morse-R-zero", "fb-nu-R-zero",
    "diffract-riesz-r_max-negative", "sample-r_max-fraction", "sample-r_max-zero",
    "sample-N-zero"])
def test_bad_r_max_and_wave_number_fail_at_the_boundary(argv, message, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert run(*argv, "--out", str(out)) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "ValueError", "message": message}
    assert not out.exists()


# Output runs at small R whose bytes are pinned; a refactor of the writers
# or of the kernels under them must leave every digest unchanged.
GOLDEN_RUNS = (
    ("generate", "--system", "fibonacci", "--R", "2000", "--out", "gen_fib.csv"),
    ("generate", "--system", "twisted_fibonacci", "--R", "1000", "--format", "json",
     "--out", "gen_tw.json"),
    ("project", "--window-preset", "twisted_fibonacci", "--type", "a", "--R", "2000",
     "--out", "proj_a.csv"),
    ("project", "--window-preset", "fibonacci", "--type", "b", "--R", "1000",
     "--format", "json", "--out", "proj_b.json"),
    ("split", "--system", "twisted_fibonacci", "--R", "2000", "--out", "split"),
    ("split", "--system", "thue_morse", "--R", "2000", "--out", "split_tm"),
    ("split", "--system", "fibonacci", "--R", "2000", "--out", "split_fib"),
    ("correlate", "--system", "twisted_fibonacci", "--types", "a,b",
     "--R-grid", "100,1000", "--r-max", "10", "--out", "corr.csv"),
    ("correlate", "--system", "thue_morse", "--types", "a,b", "--R-grid", "100,1000",
     "--r-max", "10", "--out", "corr_tm.csv"),
    ("fb", "--system", "fibonacci", "--k-preset", "module", "--shape", "one_sided",
     "--R-grid", "100,1000,2000", "--out", "fb_one.csv"),
    ("fb", "--system", "fibonacci", "--k-preset", "module", "--shape", "symmetric",
     "--R-grid", "100,1000,2000", "--out", "fb_sym.csv"),
    ("fb", "--measure", "nu", "--system", "twisted_fibonacci",
     "--R-grid", "100,1000,2000", "--out", "fb_nu.csv"),
    ("sample", "--system", "bernoulli", "--p", "0.6", "--N", "2000", "--seed", "5",
     "--r-max", "10", "--points-out", "bern_points.csv", "--out", "bern.json"),
    ("verify", "--suite", "orthogonality", "--out", "verify_orth.json"),
    ("verify", "--suite", "bernoulli", "--out", "verify_bern.json"),
    ("verify", "--suite", "tm", "--out", "verify_tm.json"),
    ("verify", "--suite", "all", "--seed", "41", "--out", "verify_all_41.json"),
)

# Digests as written by the per-point projection and the per-cell writers
# that preceded the array code, (fb_*, and the FB values in
# verify_all_41.json) by table characters of the exact phase words summed
# per weight level in fixed point, and (bern.json, verify_orth.json)
# by reports that computed both cross correlations, (split_tm/*) by
# linear_combine's hash-and-merge split, (verify_bern.json) by three comb
# correlations over the lattice gas's 2N + 1 sites, (verify_tm.json) by four
# comb correlations of the doubling chain, (bern_points.csv) by a second
# draw of the gas after its report, (verify_all_41.json) by combs that
# stored one weight per atom, and (corr_tm.csv) by bit rows per weight level
# over the integer supports, before the pair sweep counted them, and (split/*,
# fb_nu.csv, verify_orth.json, verify_all_41.json) by alphas measured from
# point counts at each R, not taken exactly from the rule and windows.  Re-pin
# only for a deliberate output change, and list that change in CHANGES.md.
PINNED_DIGESTS = {
    "bern.json":
        "5ed3b46972a285774872ec82405cd8aa6bf4401c2c0673a4d309d1e5c1292249",
    "bern_points.csv":
        "b0e6694fbefdd7ae8f495fde6bb24c8286b96458cc4dc8cf5360cac0fe3b235a",
    "corr.csv":
        "2ea3f2a864bebe244eda5083b7b7b5d0b1e169a7b6526737cb5f9b470bf7f8da",
    "corr_tm.csv":
        "c955d478e93b1e1f8c816cf9ddd2759e2d5f46e4a4629be7f501c77d56fe9fe0",
    "fb_nu.csv":
        "6f408e9db59f3bd6b880c7f2df46ea378d4f38bb0b82f094ccfb77e46d8805d1",
    "fb_one.csv":
        "03157692d5fffa515648d08f627df8dffce412e9aff23a95cf0c6dcb6a7b0601",
    "fb_sym.csv":
        "6d5b5a68696d54922e99c803e0f1f2c52bbab79d698c01a240b0ed7ce29af663",
    "gen_fib.csv":
        "6e3630e0c7d6a704a043bfb93dd06041ba57e314902f0a604f3f294c52f91a93",
    "gen_tw.json":
        "d37fc7571185993d1d189676d8917f934fc2b34fc579dd4e1fb8a017eaa396ed",
    "proj_a.csv":
        "a99bd586d412f7f63e8d5e8032bc81f1398933f0c8700e31b122f2093b6a17d4",
    "proj_b.json":
        "023d1816f7c8bbe2e4deb0763e8484e86bed4e5599a573efc9964597b269833c",
    "split/nu_a.csv":
        "2ba17b4cc50278c91a4602c3216175a55bc51f34b61e7f1bbf57a9da823ec4cc",
    "split/nu_a_.csv":
        "5d127db1a97c0dfbb080cf177c4638853085130ed2338630527bcd44ce407ca4",
    "split/nu_b.csv":
        "78b23ec3dc12ea8393bda2ee717f5bf10917e9859db361857e25b5a6c9d7f2e6",
    "split/nu_b_.csv":
        "11271cef5e030847092c6dc981e167bc15606ad92a03a1414c4e958764ef5206",
    "split/omega_a.csv":
        "ee34a212f0433914c42e75c7460c27d5f7cf0b402239c1fd09cec6e73cc8124e",
    "split/omega_a_.csv":
        "ee34a212f0433914c42e75c7460c27d5f7cf0b402239c1fd09cec6e73cc8124e",
    "split/omega_b.csv":
        "b034977e6008077eece3d47471c4be650885f8e52ba0ced1e230a6be42c293b7",
    "split/omega_b_.csv":
        "b034977e6008077eece3d47471c4be650885f8e52ba0ced1e230a6be42c293b7",
    "split/splitting.json":
        "9a793e4e43567039a49d5955a5d76f3966265fd718a86d17335204424f6b0a29",
    "split_fib/nu_a.csv":
        "2ac65b4571d886005f499e6518be5f12684e6caeab0fc201012a3580b2f913b5",
    "split_fib/nu_b.csv":
        "2ac65b4571d886005f499e6518be5f12684e6caeab0fc201012a3580b2f913b5",
    "split_fib/omega_a.csv":
        "be90b4301d7a63bf7b4e2fe30905654454dab9c3f81cc373d8edf090e0e299b9",
    "split_fib/omega_b.csv":
        "e22f87a8dd5d7ac4321de06f7e4b033a97ee4e8f2e009e0de3560a518966f346",
    "split_fib/splitting.json":
        "0bea92319a9a72d66a4efb8709d75af40297d7aed3a7c89da8faaf8339c14a86",
    "split_tm/nu_a.csv":
        "4f9aa9230690a1ec174e187465fae283284a36fee35798bde488046a837a69bc",
    "split_tm/nu_b.csv":
        "7493a47f3bcabaa8668ba0da7e2d5351565d4edb1a76844e11a57d264edae4c2",
    "split_tm/omega_a.csv":
        "33bdb7a2615e74012e868311b170f68daf4855fef686b5021392038b72692f28",
    "split_tm/omega_b.csv":
        "33bdb7a2615e74012e868311b170f68daf4855fef686b5021392038b72692f28",
    "split_tm/splitting.json":
        "6b61c4261c9cc4422901bfc3adad0d65eb549ae918e9421db6034926e3917496",
    "verify_all_41.json":
        "c27671e4cfa1f8064c69b231511f1a8bbe690a3cdd0b7c3e35d4f079c0e1ff88",
    "verify_bern.json":
        "e57aa1afb53a3e969a67d50e554ab95422849b1c7b018aafaf56753bf3455796",
    "verify_orth.json":
        "b3828e6e8392f11ec1f98d2417b3e7279640aad5f21667e7f0c09a227a4a2466",
    "verify_tm.json":
        "7d90a1a05c90e66e09af5b1fb54cea33c03158f93c0e055ef26b6780fa6aaaee",
}


def golden_digests(out_dir):
    """SHA-256 of every file the golden runs write into out_dir."""
    for argv in GOLDEN_RUNS:
        argv = list(argv)
        for i, arg in enumerate(argv[:-1]):
            if arg in ("--out", "--points-out"):
                argv[i + 1] = str(out_dir / argv[i + 1])
        assert run(*argv) == 0
    return {
        str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*")) if p.is_file()
    }


def test_outputs_match_pinned_digests(tmp_path):
    assert golden_digests(tmp_path) == PINNED_DIGESTS


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda values: st.lists(values, max_size=3), max_leaves=6)


@given(st.dictionaries(st.sampled_from(["R", "system", "out", "points_out"]) | st.text(),
                       json_values, max_size=6))
def test_config_hash_is_sha256_of_the_canonical_config(cfg):
    canon = json.dumps({k: v for k, v in cfg.items() if k not in ("out", "points_out")},
                       sort_keys=True, separators=(",", ":"), default=str)
    assert cli._config_hash(cfg) == hashlib.sha256(canon.encode()).hexdigest()[:16]


def test_deterministic_commands_leave_openssl_unloaded(tmp_path):
    if not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")):
        pytest.skip("no built-in SHA-256 module: the config hash takes hashlib's")
    runs = [
        ["generate", "--system", "twisted_fibonacci", "--R", "300", "--out", "gen.csv"],
        ["project", "--window-preset", "twisted_fibonacci", "--R", "300", "--out", "proj.csv"],
        ["split", "--system", "twisted_fibonacci", "--R", "300", "--out", "split"],
        ["correlate", "--system", "twisted_fibonacci", "--R-grid", "100", "--r-max", "5",
         "--out", "corr.csv"],
        ["fb", "--system", "twisted_fibonacci", "--R-grid", "100", "--out", "fb.csv"],
    ]
    script = (
        "import json, sys\n"
        "from combsplit.cli import main\n"
        "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps([codes, '_hashlib' in sys.modules]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script, json.dumps(runs)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [[0] * len(runs), False]
    assert "config_hash=" in (tmp_path / "split" / "omega_a.csv").read_text()


def per_cell(header, rows, cfg):
    """The reference formatting: repr for floats, str for everything else."""
    from combsplit import cli

    comment = f"# combsplit {__version__} config_hash={cli._config_hash(cfg)}"
    lines = [comment, ",".join(header)]
    for row in rows:
        lines.append(",".join(repr(x) if isinstance(x, float) else str(x) for x in row))
    return ("\n".join(lines) + "\n").encode()


COMB_HEADER = ["m", "n", "value", "re_weight", "im_weight"]


def comb_rows(comb):
    """One row (m, n, position, re, im) of Python scalars per atom, gathered
    atom by atom with no block or level structure."""
    return [
        (int(m), int(n), float(x), float(w.real), float(w.imag))
        for (m, n), x, w in zip(comb.keys, comb.positions, comb.weights.astype(complex))
    ]


def counting_key_lines(monkeypatch):
    """Record the keys of every _key_lines call; returns the record."""
    from combsplit import cli

    key_lines, seen = cli._key_lines, []

    def counting(keys, *args):
        seen.append(keys)
        return key_lines(keys, *args)

    monkeypatch.setattr(cli, "_key_lines", counting)
    return seen


def test_write_csv_matches_per_cell_repr(tmp_path, monkeypatch):
    from combsplit import cli
    from combsplit.combs import WeightedComb

    cfg = {"system": "fibonacci", "R": 10.0}
    header = ["k_a", "value", "label", "cauchy_diff"]
    rows = [
        (2**40, -0.0, "a_", ""),
        (-3, 1e-05, "b", 1e16),
        (0, 5e-324, "", 0.1 + 0.2),
        (1, float(2**53 + 1), "a", -1.5e-300),
    ]
    for case in (rows, []):
        out = tmp_path / "rows.csv"
        cli._write_csv(out, header, iter(case), cfg)
        assert out.read_bytes() == per_cell(header, case, cfg)
    # lines from _key_lines, over full, partial and no blocks, match the rows
    # of the keys (m, n, m + n*tau), at the ends of the key range too
    monkeypatch.setattr(cli, "_ROW_BLOCK", 3)
    B = 2**31 - 1
    keys = [(B, -3), (0, 1), (-7, 0), (-B, B), (1, -1)]
    codes = np.array([(m << 32) + n for m, n in keys], dtype=np.int64)
    for n in (5, 3, 0):
        lines = (text for text, in cli._key_lines(codes[:n]))
        cli._write_csv(out, ["m", "n", "value"], lines, cfg)
        rows = [(m, k, m + k * TAU) for m, k in keys[:n]]
        assert list(cli._key_rows(codes[:n])) == rows
        assert out.read_bytes() == per_cell(["m", "n", "value"], rows, cfg)

    # the grouped comb writer: one shared group of 300 atoms (1, 2 and 300
    # levels, real and complex), as many atoms on other keys, a strict slice
    # of the shared keys (a group of one, 296 atoms, so its last block is
    # partial), a short complex comb and an empty one
    ms = np.arange(300, dtype=np.int64)
    shared = np.stack([3 * ms - 450, ms % 7 - 3], axis=1)
    shared = shared[np.argsort(shared[:, 0] + shared[:, 1] * (1 + 5**0.5) / 2)]
    cover = (-1e4, 1e4)
    third = 0.1 + 0.2
    spread = (np.arange(300) - 150) * third + 1j * np.where(ms % 2, -0.0, 1.5)
    spread[:3] = [-0.0 + 5e-324j, 1e16 - 0.0j, 5e-324 + 0j]
    two = np.where(ms % 3 == 0, 1.0 - third, -third)
    named = [
        ("omega_a", WeightedComb.from_weights(shared, np.full(300, third), cover)),
        ("nu_a", WeightedComb.from_weights(shared, two, cover)),
        ("spread", WeightedComb.from_weights(shared, spread, cover)),
        ("shifted", WeightedComb.from_weights(shared + [1, 0], two, cover)),
        ("nu_slice", WeightedComb.from_weights(shared[2:-2], two[2:-2], cover)),
        ("short", WeightedComb.from_weights(shared[:7], np.full(7, -0.0 + 1e16j), cover)),
        ("empty", WeightedComb.from_weights(shared[:0], two[:0], cover)),
    ]
    assert [len(c.levels) for _, c in named] == [1, 2, 300, 2, 2, 1, 0]
    seen = counting_key_lines(monkeypatch)
    cli._write_comb_csvs(tmp_path, named, cfg)
    assert [len(k) for k in seen] == [300, 300, 296, 7, 0]
    for stem, comb in named:
        written = (tmp_path / f"{stem}.csv").read_bytes()
        assert written == per_cell(COMB_HEADER, comb_rows(comb), cfg), stem


@pytest.mark.parametrize("system,groups", [("twisted_fibonacci", 2), ("thue_morse", 1)])
def test_split_files_match_per_cell_reference(system, groups, tmp_path, monkeypatch):
    from combsplit import suites

    seen = counting_key_lines(monkeypatch)
    assert run("split", "--system", system, "--R", "2000", "--out", str(tmp_path)) == 0
    # each distinct key array is formatted once, for all the files on it
    assert len(seen) == groups
    assert not any(np.array_equal(a, b) for i, a in enumerate(seen) for b in seen[i + 1:])
    cfg = {"system": system, "R": 2000.0}
    ctx = suites.system_context(system, 2000.0)
    for t, (omega, nu) in ctx.splits.items():
        for name, comb in (("omega", omega), ("nu", nu)):
            written = (tmp_path / f"{name}_{t}.csv").read_bytes()
            assert written == per_cell(COMB_HEADER, comb_rows(comb), cfg), f"{name}_{t}"


def test_golden_chain_splits_with_an_empty_nu(tmp_path):
    # the golden chain is its model set: alpha 1, omega = delta_M and nu = 0
    assert run("split", "--system", "fibonacci", "--R", "2000", "--out", str(tmp_path)) == 0
    for t in "ab":
        assert (tmp_path / f"nu_{t}.csv").read_text().splitlines()[1:] == [",".join(COMB_HEADER)]
    assert json.loads((tmp_path / "splitting.json").read_text())["alphas"] == {"a": 1.0, "b": 1.0}
    fb = tmp_path / "fb_nu.csv"
    assert run("fb", "--measure", "nu", "--system", "fibonacci", "--R-grid", "100,2000",
               "--out", str(fb)) == 0
    rows = [line.split(",") for line in fb.read_text().splitlines()[2:]]
    assert len(rows) == 50 and all(row[4:7] == ["0.0", "0.0", "0.0"] for row in rows)


def test_sample_points_out_draws_the_gas_once(tmp_path, monkeypatch):
    # the report and the points file come from one call of the public entry
    philox = np.random.Philox
    made = []
    calls = {"bernoulli_verify": 0, "_occupancy": 0}

    def counting(*args, **kwargs):
        made.append(kwargs)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    for name in calls:
        def counted(*args, _fn=getattr(stochastic, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(stochastic, name, counted)
    points = tmp_path / "bern_points.csv"
    assert run("sample", "--system", "bernoulli", "--p", "0.6", "--N", "2000", "--seed", "5",
               "--out", str(tmp_path / "bern.json"), "--points-out", str(points)) == 0
    assert len(made) == 1
    assert calls == {"bernoulli_verify": 1, "_occupancy": 1}
    monkeypatch.undo()
    sites = [int(line.split(",")[0]) for line in points.read_text().splitlines()[2:]]
    assert sites == stochastic.bernoulli_gas(0.6, 2000, stochastic.RngSpec(5)).tolist()


def test_diffract_pure_point_reads_no_context(tmp_path, monkeypatch, capsys):
    # the pure-point path needs only the preset windows and the exact alphas:
    # no system context, no projection and no realization
    words = []

    def refused(*args, **kwargs):
        raise AssertionError("built more than the preset windows")

    def counting(*args, realize=inflate.realize_word, **kwargs):
        words.append(args)
        return realize(*args, **kwargs)

    monkeypatch.setattr(suites, "system_context", refused)
    monkeypatch.setattr(cps, "cut_and_project", refused)
    monkeypatch.setattr(inflate, "realize_word", counting)
    out = tmp_path / "pp.csv"
    assert run("diffract", "--system", "twisted_fibonacci", "--out", str(out)) == 0
    assert words == []
    # its k = 0 amplitude is the density tau / sqrt 5 of the chain
    assert out.read_text().splitlines()[2].startswith("0.0,0.723606797749979,0.0,")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "733b594fd8252b8a87017b3afc0866ec9ee1ce1b50950c41566326168c547f99")
    tm = tmp_path / "tm.csv"
    assert run("diffract", "--system", "thue_morse", "--out", str(tm)) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "CliError", "message": "system 'thue_morse' has no Euclidean windows"}
    assert not tm.exists()


@pytest.mark.parametrize("r_max,R", [(None, "120"), ("5", "105")])
def test_correlate_variant_one_defaults_R_past_the_grid(r_max, R, tmp_path):
    # variant one reads the second factor up to R + r_max, so without --R the
    # realization reaches max(R_grid) + r_max: the bytes of that --R given
    argv = ["correlate", "--system", "fibonacci", "--R-grid", "100", "--variant", "one"]
    argv += [] if r_max is None else ["--r-max", r_max]
    default, explicit = tmp_path / "default.csv", tmp_path / "explicit.csv"
    assert run(*argv, "--out", str(default)) == 0
    assert run(*argv, "--R", R, "--out", str(explicit)) == 0
    assert default.read_bytes() == explicit.read_bytes()
    assert len(default.read_text().splitlines()) > 2


def random_rule(prob=0.5, **changes):
    """A random Fibonacci rule as a --rule-file document, the first branch of
    a taking prob, with changes to its keys."""
    branches = [{"prob": prob, "word": ["a", "b"]}, {"prob": 0.5, "word": ["b", "a"]}]
    return {"alphabet": ["a", "b"], "lengths": {"a": {"n": 1}, "b": 1},
            "images": {"a": branches, "b": ["a"]}, **changes}


BAD_INPUT_RUNS = (
    (("project", "--window-preset", "fibonacci", "--R", "-10"), {},
     "CliError", "R must be finite and nonnegative, got -10.0"),
    (("sample", "--system", "bernoulli", "--p", "0.6", "--seed", "5"), {"N": 20.7},
     "CliError", "--N must be a whole number, got 20.7"),
    (("sample", "--system", "bernoulli", "--p", "0.6", "--N", "20"), {"seed": 5.5},
     "CliError", "--seed must be a whole number, got 5.5"),
    (("sample", "--system", "bernoulli", "--p", "0.6", "--N", "20", "--seed", "5"),
     {"stream": 1.5}, "CliError", "--stream must be a whole number, got 1.5"),
    (("generate", "--system", "random_fibonacci", "--R", "100"), {"seed": 2.5},
     "CliError", "--seed must be a whole number, got 2.5"),
    (("diffract", "--system", "thue_morse"), {"eta": 8.5},
     "CliError", "--eta must be a whole number, got 8.5"),
    (("correlate", "--system", "thue_morse", "--R-grid", "100"), {"types": "a"},
     "CliError", "--types must name 2 of the system's types ['a', 'b'], got 'a'"),
    (("correlate", "--system", "thue_morse", "--R-grid", "100"), {"types": "a,b,c"},
     "CliError", "--types must name 2 of the system's types ['a', 'b'], got 'a,b,c'"),
    (("correlate", "--system", "thue_morse", "--R-grid", "100"), {"types": "a,z"},
     "CliError", "--types must name 2 of the system's types ['a', 'b'], got 'a,z'"),
    (("fb", "--system", "fibonacci", "--R-grid", "100"), {"type": "q"},
     "CliError", "--type must name 1 of the system's types ['a', 'b'], got 'q'"),
    (("fb", "--system", "twisted_fibonacci", "--R-grid", "100", "--measure", "omega"),
     {"type": "q"},
     "CliError", "--type must name 1 of the system's types ['a', 'a_', 'b', 'b_'], got 'q'"),
    (("fb", "--system", "fibonacci", "--R-grid", "100", "--measure", "nu"), {"type": "q"},
     "CliError", "--type must name 1 of the system's types ['a', 'b'], got 'q'"),
    # flags and config values pass through one converter: the same refusal
    # from either, before any command runs
    (("generate", "--system", "fibonacci"), {"R": True},
     "CliError", "--R must be a number, got True"),
    (("sample", "--system", "bernoulli", "--p", "0.6", "--N", "200", "--seed", "5"),
     {"r_max": True}, "CliError", "--r-max must be a number, got True"),
    (("sample", "--system", "bernoulli", "--p", "0.6", "--N", "200"), {"seed": True},
     "CliError", "--seed must be a whole number, got True"),
    (("sample", "--system", "bernoulli", "--p", "0.6", "--N", "200", "--seed", "2.5"), {},
     "CliError", "--seed must be a whole number, got 2.5"),
    (("sample", "--system", "bernoulli", "--p", "0.6", "--N", "200"), {"seed": 2.5},
     "CliError", "--seed must be a whole number, got 2.5"),
    (("generate", "--system", "fibonacci", "--R", "abc"), {},
     "CliError", "--R must be a number, got 'abc'"),
    (("generate", "--system", "fibonacci"), {"R": "abc"},
     "CliError", "--R must be a number, got 'abc'"),
    (("correlate", "--system", "fibonacci", "--R-grid", "100", "--shape", "bogus"), {},
     "CliError", "--shape must be one of ['one_sided', 'symmetric'], got 'bogus'"),
    (("correlate", "--system", "fibonacci", "--R-grid", "100"), {"shape": "bogus"},
     "CliError", "--shape must be one of ['one_sided', 'symmetric'], got 'bogus'"),
    (("generate", "--system", "fibonacci", "--R", "100", "--format", "xml"), {},
     "CliError", "--format must be one of ['csv', 'json'], got 'xml'"),
    (("generate", "--system", "fibonacci", "--R", "100"), {"format": "xml"},
     "CliError", "--format must be one of ['csv', 'json'], got 'xml'"),
    (("generate", "--R", "100"), {"system": 5}, "CliError",
     "--system must be one of ['fibonacci', 'twisted_fibonacci', 'thue_morse', "
     "'random_fibonacci'], got 5"),
    (("split", "--R", "100"), {"system": 5}, "CliError",
     "--system must be one of ['fibonacci', 'twisted_fibonacci', 'thue_morse', "
     "'random_fibonacci'], got 5"),
    # each command takes only the options it reads, and a bad command line is
    # refused as a bad config is
    (("generate", "--system", "fibonacci", "--R", "100", "--bogus", "1"), {},
     "CliError", "unrecognized arguments: --bogus 1"),
    (("generate", "--system", "fibonacci", "--R"), {},
     "CliError", "argument --R: expected one argument"),
    (("correlate", "--system", "fibonacci", "--R-grid", "100", "--format", "json"), {},
     "CliError", "unrecognized arguments: --format json"),
    (("split", "--system", "fibonacci", "--R", "100", "--seed", "3"), {},
     "CliError", "unrecognized arguments: --seed 3"),
    (("diffract", "--system", "thue_morse", "--eta", "4", "--stream", "1"), {},
     "CliError", "unrecognized arguments: --stream 1"),
    (("diffract", "--system", "fibonacci", "--R", "1e4"), {},
     "CliError", "unrecognized arguments: --R 1e4"),
    (("diffract", "--system", "random_fibonacci"), {},
     "ValueError", "system 'random_fibonacci' has no model set"),
    (("split", "--sys", "fibonacci", "--R", "10"), {},
     "CliError", "unrecognized arguments: --sys fibonacci"),
    (("split", "--system", "fibonacci", "--R", "100"), {"suite": "tm"},
     "CliError", "unknown config keys: ['suite']"),
    (("fb", "--system", "fibonacci", "--R-grid", "100", "--measure", "x"), {},
     "CliError", "--measure must be one of ['points', 'omega', 'nu'], got 'x'"),
    (("fb", "--system", "fibonacci", "--R-grid", "100", "--k-preset", "x"), {},
     "CliError", "--k-preset must be one of ['standard', 'module'], got 'x'"),
    (("sample", "--seed", "5", "--N", "20", "--p", "0.6"), {"system": "fibonacci"},
     "CliError", "--system must be one of ['bernoulli', 'random_fibonacci'], got 'fibonacci'"),
    # each entry of a list option is a number, converted as a number option is
    (("correlate", "--system", "fibonacci"), {"R_grid": [True, 100]},
     "CliError", "--R-grid must be a number, got True"),
    (("fb", "--system", "fibonacci", "--R-grid", "100"), {"k_values": [True]},
     "CliError", "--k-values must be a number, got True"),
    (("correlate", "--system", "fibonacci", "--R-grid", "100,abc"), {},
     "CliError", "--R-grid must be a number, got 'abc'"),
    (("correlate", "--system", "fibonacci"), {"R_grid": []},
     "CliError", "--R-grid must list one or more numbers"),
    (("fb", "--system", "fibonacci", "--R-grid", "100"), {"k_values": []},
     "CliError", "--k-values must list one or more numbers"),
    # a *_file document in the config is written to a file of its own
    (("project", "--R", "100"), {"windows_file": [1, 2]},
     "CliError", "--windows-file must map one or more types to lists of interval objects"),
    (("project", "--R", "100"), {"windows_file": {}},
     "CliError", "--windows-file must map one or more types to lists of interval objects"),
    (("project", "--R", "100"), {"windows_file": {"a": 5}},
     "CliError", "--windows-file must map one or more types to lists of interval objects"),
    (("project", "--R", "100"), {"windows_file": {"a": [5]}},
     "CliError", "--windows-file must map one or more types to lists of interval objects"),
    (("project", "--R", "100"), {"windows_file": {"a": [{"hi": 1}]}},
     "CliError", "window interval has no lo: {'hi': 1}"),
    (("project", "--R", "100"), {"windows_file": {"a": [{"lo": True, "hi": 1}]}},
     "CliError", "window lo must be a finite number or {m, n}, got True"),
    (("project", "--R", "100"), {"windows_file": {"a": [{"lo": "0.5", "hi": 1}]}},
     "CliError", "window lo must be a finite number or {m, n}, got '0.5'"),
    (("project", "--R", "100"), {"windows_file": {"a": [{"lo": math.nan, "hi": 1}]}},
     "CliError", "window lo must be a finite number or {m, n}, got nan"),
    (("project", "--R", "100"), {"windows_file": {"a": [{"lo": 0, "hi": math.inf}]}},
     "CliError", "window hi must be a finite number or {m, n}, got inf"),
    (("generate", "--R", "100", "--seed", "1"), {"rule_file": random_rule(True)},
     "RuleError", "branch prob must be a finite JSON number, got True"),
    (("generate", "--R", "100", "--seed", "1"), {"rule_file": random_rule("0.5")},
     "RuleError", "branch prob must be a finite JSON number, got '0.5'"),
    (("generate", "--R", "100", "--seed", "1"), {"rule_file": random_rule(math.nan)},
     "RuleError", "branch prob must be a finite JSON number, got nan"),
    (("generate", "--R", "100"), {"rule_file": random_rule(alphabet=5)},
     "RuleError", "rule alphabet must be a list of letters, got 5"),
    (("generate", "--R", "100"), {"rule_file": random_rule(images=["a"])},
     "RuleError", "rule images must be an object per letter, got ['a']"),
    (("generate", "--R", "100"), {"rule_file": random_rule(lengths=1)},
     "RuleError", "rule lengths must be an object per letter, got 1"),
    # only the presets with model sets split; the random chain has none
    (("split", "--system", "random_fibonacci", "--R", "10"), {},
     "ValueError", "system 'random_fibonacci' has no model set"),
    (("fb", "--system", "random_fibonacci", "--R-grid", "100", "--measure", "nu"), {},
     "ValueError", "system 'random_fibonacci' has no model set"),
    (("split", "--system", "penrose", "--R", "10"), {}, "CliError",
     "--system must be one of ['fibonacci', 'twisted_fibonacci', 'thue_morse', "
     "'random_fibonacci'], got 'penrose'"),
    (("project", "--window-preset", "thue_morse", "--R", "10"), {}, "CliError",
     "--window-preset must be one of ['fibonacci', 'twisted_fibonacci'], got 'thue_morse'"),
    (("project", "--system", "fibonacci", "--R", "10"), {},
     "CliError", "unrecognized arguments: --system fibonacci"),
    # fb splits a preset system for omega and nu, so no realization option is read
    (("fb", "--system", "twisted_fibonacci", "--R-grid", "100", "--measure", "nu",
      "--seed", "5", "--p", "0.9", "--rule-file", "nonexist.json", "--R", "50"), {},
     "CliError", "--measure nu splits --system and reads no --rule-file, --p, --R, --seed"),
    (("fb", "--system", "thue_morse", "--R-grid", "100", "--measure", "omega"),
     {"seed_letter": "b", "stream": 1},
     "CliError", "--measure omega splits --system and reads no --seed-letter, --stream"),
    # project reads its windows from exactly one source
    (("project", "--window-preset", "twisted_fibonacci", "--R", "10"),
     {"windows_file": {"a": [{"lo": -1, "hi": 0.5}]}},
     "CliError", "project takes exactly one of --window-preset and --windows-file"),
    (("project", "--R", "10"), {},
     "CliError", "project takes exactly one of --window-preset and --windows-file"),
    # a declared inflation factor must match the tile lengths
    (("generate", "--R", "20"),
     {"rule_file": {"alphabet": ["a", "b"], "images": {"a": ["a", "b"], "b": ["a"]},
                    "lengths": {"a": 1, "b": 1}, "inflation_factor": {"n": 1}}},
     "RuleError",
     "image of 'a' spans 2+0\u03c4, not the inflation factor times its length, 0+1\u03c4"),
    # a rule file names no letter outside its alphabet
    (("generate", "--R", "10"),
     {"rule_file": {"alphabet": ["a", "b"], "images": {"a": ["a", "b"], "b": ["a"], "c": ["a"]},
                    "lengths": {"a": 1, "b": 1, "c": 5}}},
     "RuleError", "letters outside the alphabet ['a', 'b']: images ['c'], lengths ['c']"),
    # the eta table is charged to the points budget before any entry is made
    (("diffract", "--system", "thue_morse", "--eta", "100000000"), {},
     "ValueError", "the eta table on 0 <= m <= 100000000 (27 budget points an entry) needs "
     "about 2.7e+09 points, over the budget of MAX_POINTS = 50000000 points"),
)


@pytest.mark.parametrize("argv,config,error,message", BAD_INPUT_RUNS, ids=[
    "project-R-negative", "sample-N-fraction", "sample-seed-fraction",
    "sample-stream-fraction", "generate-seed-fraction", "diffract-eta-fraction",
    "correlate-one-type", "correlate-three-types", "correlate-unknown-type",
    "fb-points-unknown-type", "fb-omega-unknown-type", "fb-nu-unknown-type",
    "generate-R-bool", "sample-r_max-bool", "sample-seed-bool", "sample-seed-fraction-flag",
    "sample-seed-fraction-config", "generate-R-text-flag", "generate-R-text-config",
    "correlate-shape-flag", "correlate-shape-config", "generate-format-flag",
    "generate-format-config", "generate-system-number", "split-system-number",
    "generate-unknown-flag", "generate-flag-without-value", "correlate-format",
    "split-seed", "diffract-stream", "diffract-R", "diffract-random_fibonacci",
    "split-flag-prefix", "split-config-suite",
    "fb-measure-unknown", "fb-k-preset-unknown", "sample-system-unknown",
    "correlate-R-grid-bool",
    "fb-k-values-bool", "correlate-R-grid-text", "correlate-R-grid-empty",
    "fb-k-values-empty", "windows-file-list", "windows-file-empty",
    "windows-file-number", "windows-file-interval-number", "windows-file-no-lo",
    "windows-file-lo-bool", "windows-file-lo-text", "windows-file-lo-nan", "windows-file-hi-inf",
    "rule-prob-bool", "rule-prob-text", "rule-prob-nan", "rule-alphabet-number",
    "rule-images-list", "rule-lengths-number", "split-random_fibonacci",
    "fb-nu-random_fibonacci", "split-system-unknown", "project-window-preset-no-window",
    "project-system", "fb-nu-realization-options", "fb-omega-realization-config",
    "project-two-window-sources", "project-no-window-source", "rule-factor-contradicts-lengths",
    "rule-stray-letters", "diffract-eta-over-budget"])
def test_bad_inputs_are_refused_not_truncated(argv, config, error, message, tmp_path, capsys):
    config = dict(config)
    for key in ("windows_file", "rule_file"):
        if key in config:
            doc = tmp_path / f"{key}.json"
            doc.write_text(json.dumps(config[key]))
            config[key] = str(doc)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out.csv"
    assert run("--config", str(cfg), *argv, "--out", str(out)) == 1
    assert json.loads(capsys.readouterr().err) == {"error": error, "message": message}
    assert not out.exists()


@pytest.mark.parametrize("argv,flags,config", [
    (("split", "--system", "twisted_fibonacci"), ("--R", "1e3"), {"R": 1000}),
    (("sample", "--system", "random_fibonacci", "--R", "500"),
     ("--seed", "7", "--stream", "2", "--p", "0.5"), {"seed": 7.0, "stream": "2", "p": 0.5}),
    (("verify", "--suite", "bernoulli"), ("--seed", "12345678901234567890"),
     {"seed": 12345678901234567890}),
    (("correlate", "--system", "thue_morse", "--R-grid", "100"), ("--seed-letter", "b"),
     {"seed_letter": "b"}),
], ids=["split-R", "sample-seed-stream", "verify-20-digit-seed", "correlate-seed-letter"])
def test_a_flag_and_its_config_value_write_the_same_bytes(argv, flags, config, tmp_path):
    # one converter for both: equal values run alike and hash alike
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    by_flag, by_config = tmp_path / "flag", tmp_path / "config"
    assert run(*argv, *flags, "--out", str(by_flag)) == 0
    assert run("--config", str(cfg), *argv, "--out", str(by_config)) == 0
    if by_flag.is_dir():
        names = sorted(p.name for p in by_flag.iterdir())
        assert names == sorted(p.name for p in by_config.iterdir()) and len(names) == 9
        pairs = [(by_flag / name, by_config / name) for name in names]
    else:
        pairs = [(by_flag, by_config)]
    for a, b in pairs:
        assert a.read_bytes() == b.read_bytes(), a.name


def test_whole_float_integer_options_are_accepted(tmp_path):
    # a config document may write an integer option as a whole float
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 20.0, "seed": 5.0, "stream": 0.0}))
    out = tmp_path / "bern.json"
    assert run("--config", str(cfg), "sample", "--system", "bernoulli", "--p", "0.6",
               "--r-max", "5", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["params"]["N"] == 20 and doc["seed"] == {"seed": 5, "stream": 0}


def test_diffract_refuses_a_module_over_the_points_budget(tmp_path, monkeypatch, capsys):
    # 4 sqrt(5) k_max kstar_max = 44,721 estimated module points, checked
    # before any is made (at k_max = kstar_max = 1e9 enumeration ran on)
    monkeypatch.setattr(cps, "MAX_POINTS", 40_000)
    out = tmp_path / "pp.csv"
    assert run("diffract", "--system", "fibonacci", "--k-max", "100",
               "--kstar-max", "50", "--out", str(out)) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and "the Fourier module" in err["message"]
    assert not out.exists()

import hashlib
import json

import numpy as np
import pytest

from combsplit import __version__
from combsplit.cli import main


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
    assert f"MAX_POINTS = {inflate.MAX_POINTS}" in error["message"]
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
      "--r-max", "2.9"), "r_max must be a finite, nonnegative integer, got 2.9"),
)


@pytest.mark.parametrize("argv,message", BAD_BOUNDARY_RUNS, ids=[
    "correlate-r_max-nan", "correlate-r_max-inf", "correlate-r_max-negative",
    "fb-k-nan", "fb-k-inf", "split-R-zero", "split-thue_morse-R-zero", "fb-nu-R-zero",
    "diffract-riesz-r_max-negative", "sample-r_max-fraction"])
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
    ("correlate", "--system", "twisted_fibonacci", "--types", "a,b",
     "--R-grid", "100,1000", "--r-max", "10", "--out", "corr.csv"),
    ("fb", "--system", "fibonacci", "--k-preset", "module", "--shape", "one_sided",
     "--R-grid", "100,1000,2000", "--out", "fb_one.csv"),
    ("fb", "--system", "fibonacci", "--k-preset", "module", "--shape", "symmetric",
     "--R-grid", "100,1000,2000", "--out", "fb_sym.csv"),
    ("fb", "--measure", "nu", "--system", "twisted_fibonacci",
     "--R-grid", "100,1000,2000", "--out", "fb_nu.csv"),
    ("sample", "--system", "bernoulli", "--p", "0.6", "--N", "2000", "--seed", "5",
     "--r-max", "10", "--out", "bern.json"),
    ("verify", "--suite", "orthogonality", "--out", "verify_orth.json"),
)

# Digests as written by the per-point projection and the per-cell writers
# that preceded the array code, (fb_*) by the 40-digit Python-int phases
# with one fb_coefficient call per (k, R), and (bern.json, verify_orth.json)
# by reports that computed both cross correlations, and (split_tm/*) by
# linear_combine's hash-and-merge split.  Re-pin only for a
# deliberate output change, and list that change in CHANGES.md.
PINNED_DIGESTS = {
    "bern.json":
        "5ed3b46972a285774872ec82405cd8aa6bf4401c2c0673a4d309d1e5c1292249",
    "corr.csv":
        "2ea3f2a864bebe244eda5083b7b7b5d0b1e169a7b6526737cb5f9b470bf7f8da",
    "fb_nu.csv":
        "ec3906597e8b468a5767b29affdebe9a3ff0d268316fb2a7ddcb7e1774ddf01a",
    "fb_one.csv":
        "59bf688a931801fceafc3f94fece95e609c0562f3806b6edd9a307ab90f5798c",
    "fb_sym.csv":
        "5c845696871c1f91807209b319693ed2d11e1ab02272c3d9ab9c2e5319a2e4f4",
    "gen_fib.csv":
        "6e3630e0c7d6a704a043bfb93dd06041ba57e314902f0a604f3f294c52f91a93",
    "gen_tw.json":
        "d37fc7571185993d1d189676d8917f934fc2b34fc579dd4e1fb8a017eaa396ed",
    "proj_a.csv":
        "a99bd586d412f7f63e8d5e8032bc81f1398933f0c8700e31b122f2093b6a17d4",
    "proj_b.json":
        "023d1816f7c8bbe2e4deb0763e8484e86bed4e5599a573efc9964597b269833c",
    "split/nu_a.csv":
        "184bb54f84edacf10f299cef580f232decdf6cb14dd1c2c77c1d7f5bbde11bd6",
    "split/nu_a_.csv":
        "2656ca469bd96289ca57df23ebfc692e3cce520862a28c7698753cba1f91fa0d",
    "split/nu_b.csv":
        "dfd2c5b5338f12a5e224a59837822cca35a69346b92da79b8d750e2915086152",
    "split/nu_b_.csv":
        "240cadaa7fcbfc806bd2096fb71549af6fb6994b1b9668e099d5447511d82901",
    "split/omega_a.csv":
        "43f235a314b04864597552e6b5278a7ccf7b25689e86e9c1a1babd8bbf566637",
    "split/omega_a_.csv":
        "de22ece6101aeed537e3094fe027383f4c9c06a384af3274eaded768841b222d",
    "split/omega_b.csv":
        "d9dac2a8a366b14b637973f138ac82c34396aeb3c2314ba9334d1daf27f5af86",
    "split/omega_b_.csv":
        "a9d6a2c3c2c65ebdbd74b2dce0c65e286085b7173aa9727f3cf75f7676c233d0",
    "split/splitting.json":
        "85a12a8b740178ccdd8fcaf01894c1e4a17ab1e765df7772cd935256214f4ae1",
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
    "verify_orth.json":
        "f120bdaff7cd1042078b8c224e5305a83cc9f076767b67b38cd13a04ac13da5a",
}


def golden_digests(out_dir):
    """SHA-256 of every file the golden runs write into out_dir."""
    for argv in GOLDEN_RUNS:
        argv = list(argv)
        argv[-1] = str(out_dir / argv[-1])
        assert run(*argv) == 0
    return {
        str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*")) if p.is_file()
    }


def test_outputs_match_pinned_digests(tmp_path):
    assert golden_digests(tmp_path) == PINNED_DIGESTS


def test_write_csv_matches_per_cell_repr(tmp_path, monkeypatch):
    from combsplit import cli

    def per_cell(header, rows, cfg):
        # the reference formatting: repr for floats, str for everything else
        comment = f"# combsplit {__version__} config_hash={cli._config_hash(cfg)}"
        lines = [comment, ",".join(header)]
        for row in rows:
            lines.append(",".join(repr(x) if isinstance(x, float) else str(x) for x in row))
        return ("\n".join(lines) + "\n").encode()

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
    monkeypatch.setattr(cli, "_ROW_BLOCK", 3)
    keys = np.array([[2**40, -3], [0, 1], [-7, 0], [5, 5], [1, -1]], dtype=np.int64)
    values = np.array([-0.0, 1e-05, 5e-324, 0.1 + 0.2, 1e16])
    extra = np.array([1.5, -1.5e-300, float(2**53 + 1), 0.0, 3.0])
    for n in (5, 3, 0):
        columns = (keys[:n], values[:n], extra[:n])
        cli._write_csv(out, header, cli._key_lines(*columns), cfg)
        assert out.read_bytes() == per_cell(header, list(cli._key_rows(*columns)), cfg)

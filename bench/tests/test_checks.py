"""Each output check passes a real output and rejects a corrupted one."""

import json
import shutil

import numpy as np
import pytest

import checks
import pipeline
from combsplit import suites
from combsplit.cli import main

R_SPLIT = 2000.0
R_PIPELINE = 10_000.0  # the size of the orthogonality and nullfb suites


@pytest.fixture(scope="module")
def split_once(tmp_path_factory):
    out = tmp_path_factory.mktemp("split")
    assert main(["split", "--system", "twisted_fibonacci", "--R", repr(R_SPLIT),
                 "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def pipeline_once(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline")
    pipeline.run(R_PIPELINE, out)
    return out


@pytest.fixture
def split_out(split_once, tmp_path):
    return shutil.copytree(split_once, tmp_path / "out")


@pytest.fixture
def pipeline_out(pipeline_once, tmp_path):
    return shutil.copytree(pipeline_once, tmp_path / "out")


def edit_csv_row(path, index, edit):
    lines = path.read_text().splitlines(keepends=True)
    row = 2 + index  # after the comment and the header
    lines[row:row + 1] = edit(lines[row])
    path.write_text("".join(lines))


def test_split_output_passes(split_out):
    assert checks.check_split(split_out, R_SPLIT) == []


def test_split_rejects_one_flipped_weight(split_out):
    def flip(line):
        m, n, value, re, im = line.rstrip("\n").split(",")
        return [",".join([m, n, value, repr(-float(re)), im]) + "\n"]

    edit_csv_row(split_out / "nu_a.csv", 3, flip)
    assert checks.check_split(split_out, R_SPLIT)


def test_split_rejects_one_dropped_row(split_out):
    edit_csv_row(split_out / "omega_b_.csv", 5, lambda line: [])
    assert checks.check_split(split_out, R_SPLIT)


def test_split_rejects_an_alpha_off_one_half(split_out):
    meta = json.loads((split_out / "splitting.json").read_text())
    meta["alphas"]["a_"] = 0.52
    (split_out / "splitting.json").write_text(json.dumps(meta))
    assert checks.check_split(split_out, R_SPLIT)


def test_split_rejects_another_size(split_out):
    assert checks.check_split(split_out, R_SPLIT + 1.0)


def test_pipeline_output_passes(pipeline_out):
    assert checks.check_twisted(pipeline_out, R_PIPELINE) == []


def test_pipeline_rejects_one_flipped_weight(pipeline_out):
    w = np.load(pipeline_out / "nu_a_weights.npy")
    w[7] = -w[7]
    np.save(pipeline_out / "nu_a_weights.npy", w)
    assert checks.check_twisted(pipeline_out, R_PIPELINE)


def test_pipeline_rejects_one_dropped_atom(pipeline_out):
    for part in ("keys", "weights"):
        path = pipeline_out / f"omega_a_{part}.npy"
        np.save(path, np.load(path)[1:])
    assert checks.check_twisted(pipeline_out, R_PIPELINE)


@pytest.mark.parametrize("edit", [
    lambda s: s["orthogonality"][-1].update(sup_nu_omega=0.03),
    lambda s: s["orthogonality"][0].update(sup_omega_nu=0.0, sup_nu_omega=0.0),
    lambda s: s["fb_nu_a"][-1].update(abs=0.06),
    lambda s: s["fb_nu_a"].pop(),
    lambda s: s["counts"]["b"].update(model=s["counts"]["b"]["points"]),
])
def test_pipeline_rejects_a_failed_threshold(pipeline_out, edit):
    summary = json.loads((pipeline_out / "summary.json").read_text())
    edit(summary)
    (pipeline_out / "summary.json").write_text(json.dumps(summary))
    assert checks.check_twisted(pipeline_out, R_PIPELINE)


def verify_report(seed):
    names = [n for n in suites.suite_names() if n != "all"]
    return {
        "suite": "all",
        "passed": True,
        "reports": [
            {"suite": n, "passed": True,
             "checks": [{"name": "c", "measured": 0.0, "threshold": 1.0, "passed": True}],
             "details": {"seed": seed} if n in ("bernoulli", "random_fibonacci") else {}}
            for n in names
        ],
    }


@pytest.mark.parametrize("edit", [
    lambda d: d["reports"][3]["checks"][0].update(passed=False),
    lambda d: d["reports"].pop(),
    lambda d: d["reports"][6]["details"].update(seed=42),
    lambda d: d.update(passed=False),
])
def test_verify_rejects_a_failed_or_partial_report(tmp_path, edit):
    doc = verify_report(5)
    (tmp_path / "report.json").write_text(json.dumps(doc))
    assert checks.check_verify(tmp_path, 5) == []
    edit(doc)
    (tmp_path / "report.json").write_text(json.dumps(doc))
    assert checks.check_verify(tmp_path, 5)


def test_sum_matches_indicator():
    points = np.array([[0, 0], [1, 1], [3, 1]])
    omega = (np.array([[0, 0], [1, 1], [2, 0], [3, 1]]), np.full(4, 0.3))
    nu = (np.array([[0, 0], [1, 1], [2, 0], [3, 1]]), np.array([0.7, 0.7, -0.3, 0.7]))
    assert checks.sum_matches_indicator([omega[0], nu[0]], [omega[1], nu[1]], points) is None
    assert checks.sum_matches_indicator([omega[0], nu[0][:3]], [omega[1], nu[1][:3]], points)
    assert checks.sum_matches_indicator([omega[0], nu[0]], [omega[1], nu[1]], points[:2])

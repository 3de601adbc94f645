"""Output checks of the benchmark workloads.

Each check reads what one workload run wrote and returns the list of
problems found (empty when the output is right).  Thresholds are the ones
the acceptance suites pin; none is loosened here.

    PYTHONPATH=src python3 bench/checks.py --workload NAME --seed N --R R --out DIR

prints {"problems": [...]} as one JSON line.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

from combsplit import inflate, suites
from combsplit.zroot5 import TAU

CROSS_SUP_MAX = 0.02  # suites.suite_orthogonality
FB_NU_MAX = 0.05  # suites.suite_nullfb
HALF_DENSITY_TOL = 0.01  # suites.suite_halfdensity
ALPHA_TOL = 0.01
WEIGHT_TOL = 1e-12  # omega + nu is summed in another order than the program's
CSV_HEADER = "m,n,value,re_weight,im_weight"


def sum_matches_indicator(keys: list[np.ndarray], weights: list[np.ndarray],
                          points: np.ndarray) -> str | None:
    """None when the atoms of all parts together sum, atom for atom, to the
    indicator of `points`; else what differs."""
    k = np.concatenate([np.asarray(part, dtype=np.int64).reshape(-1, 2) for part in keys])
    w = np.concatenate([np.asarray(part) for part in weights])
    uniq, inverse = np.unique(k, axis=0, return_inverse=True)
    total = np.zeros(len(uniq), dtype=w.dtype)
    np.add.at(total, inverse.ravel(), w)
    ones = np.abs(total - 1.0) <= WEIGHT_TOL
    zeros = np.abs(total) <= WEIGHT_TOL
    stray = int(np.count_nonzero(~(ones | zeros)))
    if stray:
        return f"{stray} atom(s) of omega + nu sum to neither 0 nor 1"
    want = np.unique(np.asarray(points, dtype=np.int64).reshape(-1, 2), axis=0)
    got = uniq[ones]
    if got.shape != want.shape or not np.array_equal(got, want):
        return f"omega + nu has {len(got)} unit atoms, the point set {len(want)} points"
    return None


def check_verify(out: Path, seed: int) -> list[str]:
    """Every suite of `verify --suite all` ran with the seed and passed."""
    doc = json.loads((out / "report.json").read_text())
    problems = []
    if doc.get("suite") != "all" or doc.get("passed") is not True:
        problems.append(f"report suite={doc.get('suite')!r} passed={doc.get('passed')!r}")
    names = [r["suite"] for r in doc.get("reports", [])]
    expected = [n for n in suites.suite_names() if n != "all"]
    if names != expected:
        problems.append(f"suites {names} != {expected}")
    for rep in doc.get("reports", []):
        if not rep["checks"]:
            problems.append(f"{rep['suite']}: no checks")
        for c in rep["checks"]:
            if c["passed"] is not True:
                problems.append(f"{rep['suite']}: {c['name']}: measured "
                                f"{c['measured']} threshold {c['threshold']}")
        if "seed" in rep["details"] and rep["details"]["seed"] != seed:
            problems.append(f"{rep['suite']}: ran with seed {rep['details']['seed']}")
    return problems


def _twisted_points(R: float) -> inflate.TypedPointSet:
    return inflate.realize_geometric(inflate.twisted_fibonacci_rule(), "a", R)


def check_twisted(out: Path, R: float) -> list[str]:
    """Orthogonality, null FB of nu, half density, and omega + nu = points."""
    s = json.loads((out / "summary.json").read_text())
    problems = []
    if s["R"] != R:
        problems.append(f"ran at R={s['R']}, not {R}")
    rows = s["orthogonality"]
    if len(rows) != 3:
        problems.append(f"{len(rows)} orthogonality rows, want 3")
    else:
        first = max(rows[0]["sup_omega_nu"], rows[0]["sup_nu_omega"])
        final = max(rows[-1]["sup_omega_nu"], rows[-1]["sup_nu_omega"])
        if not final <= CROSS_SUP_MAX:
            problems.append(f"cross-term sup {final} > {CROSS_SUP_MAX} at R={R}")
        if not final < first:
            problems.append(f"cross-term sup {final} not below {first} at the first R")
    fb_final = [r["abs"] for r in s["fb_nu_a"] if r["R"] == R]
    preset = len(suites.preset_k_points())
    if len(fb_final) != preset:
        problems.append(f"{len(fb_final)} FB values at the final R, want {preset}")
    elif not max(fb_final) <= FB_NU_MAX:
        problems.append(f"max |c_nu(k)| {max(fb_final)} > {FB_NU_MAX}")

    tps = _twisted_points(R)
    if sorted(s["counts"]) != sorted(tps.types()):
        problems.append(f"types {sorted(s['counts'])} != {sorted(tps.types())}")
        return problems
    for t, c in s["counts"].items():
        if c["points"] != tps.count(t):
            problems.append(f"type {t}: {c['points']} points, realized {tps.count(t)}")
        if not abs(c["points"] / c["model"] - 0.5) <= HALF_DENSITY_TOL:
            problems.append(f"type {t}: count ratio {c['points'] / c['model']}")

    parts = {n: (np.load(out / f"{n}_keys.npy"), np.load(out / f"{n}_weights.npy"))
             for n in ("omega_a", "nu_a")}
    if not np.all(parts["omega_a"][1] == s["alphas"]["a"]):
        problems.append("omega_a is not alpha_a times a point indicator")
    bad = sum_matches_indicator([k for k, _ in parts.values()],
                                [w for _, w in parts.values()], tps.points["a"])
    if bad:
        problems.append(f"type a: {bad}")
    return problems


def read_comb_csv(path: Path) -> tuple[np.ndarray, np.ndarray, str | None]:
    """(keys, weights, problem) of one omega_*.csv or nu_*.csv."""
    with open(path) as fh:
        comment, header = fh.readline(), fh.readline().strip()
    if not comment.startswith("# combsplit ") or header != CSV_HEADER:
        return np.empty((0, 2), dtype=np.int64), np.empty(0), f"{path.name}: bad header"
    table = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
    if table.shape[1] != 5:
        return np.empty((0, 2), dtype=np.int64), np.empty(0), f"{path.name}: not 5 columns"
    keys = table[:, :2].astype(np.int64)
    problem = None
    if not np.array_equal(keys, table[:, :2]):
        problem = f"{path.name}: non-integer keys"
    elif not np.allclose(table[:, 2], keys[:, 0] + keys[:, 1] * TAU, rtol=0, atol=1e-9):
        problem = f"{path.name}: value column differs from m + n*tau"
    elif np.any(table[:, 4] != 0):
        problem = f"{path.name}: nonzero imaginary weights"
    return keys, table[:, 3], problem


def check_split(out: Path, R: float) -> list[str]:
    """Per type, omega + nu read back from the CSVs is the point indicator,
    and every alpha is within ALPHA_TOL of 1/2."""
    meta = json.loads((out / "splitting.json").read_text())
    problems = []
    if meta["system"] != "twisted_fibonacci" or meta["R"] != R:
        problems.append(f"split of {meta['system']} at R={meta['R']}, want R={R}")
    tps = _twisted_points(R)
    if sorted(meta["alphas"]) != sorted(tps.types()):
        problems.append(f"alphas for {sorted(meta['alphas'])}, types {sorted(tps.types())}")
        return problems
    for t in tps.types():
        alpha = meta["alphas"][t]
        if not abs(alpha - 0.5) <= ALPHA_TOL:
            problems.append(f"type {t}: alpha {alpha}")
        keys, weights = [], []
        for part in ("omega", "nu"):
            k, w, bad = read_comb_csv(out / f"{part}_{t}.csv")
            if bad:
                problems.append(bad)
            keys.append(k)
            weights.append(w)
        bad = sum_matches_indicator(keys, weights, tps.points[t])
        if bad:
            problems.append(f"type {t}: {bad}")
    return problems


def check(workload: str, out: Path, seed: int, R: float | None) -> list[str]:
    if workload == "verify_all":
        return check_verify(out, seed)
    if workload == "twisted_pipeline":
        return check_twisted(out, R)
    if workload == "split_csv":
        return check_split(out, R)
    raise ValueError(f"unknown workload {workload!r}")


def main() -> None:
    parser = argparse.ArgumentParser(description="check one workload's outputs")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--R", type=float, default=None)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    print(json.dumps({"problems": check(args.workload, args.out, args.seed, args.R)}))


if __name__ == "__main__":
    main()

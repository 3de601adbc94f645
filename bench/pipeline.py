"""The twisted_pipeline workload: the paper's chain through public functions.

Builds the twisted Fibonacci system on [0, R], splits type a into omega and
nu, reports the cross correlations of the split at r_max = 20 on the grid
(R/100, R/10, R), and scans the FB coefficients of nu over the 25-point
preset on the same grid.  The results go to OUT/summary.json and the type-a
split to .npy files, for the checks in checks.py.

    PYTHONPATH=src python3 bench/pipeline.py --R 2e5 --out OUT
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

from combsplit import eberlein, suites

SYSTEM = "twisted_fibonacci"
R_MAX = 20.0


def run(R: float, out: Path) -> None:
    ctx = suites.system_context(SYSTEM, R)
    omega, nu = ctx.splits["a"]
    spec = eberlein.AveragingSpec("one_sided", (R / 100, R / 10, R))
    rows = eberlein.orthogonality_report(omega, nu, spec, R_MAX)
    fb = eberlein.fb_scan(nu, suites.preset_k_points(), spec)
    summary = {
        "system": SYSTEM,
        "R": R,
        "R_grid": list(spec.R_list),
        "r_max": R_MAX,
        "orthogonality": [
            {"R": r.R, "sup_omega_nu": r.sup_omega_nu, "sup_nu_omega": r.sup_nu_omega}
            for r in rows
        ],
        "fb_nu_a": [
            {"k": row.k_value(), "R": row.R, "abs": abs(row.value)} for row in fb
        ],
        "counts": {
            t: {"points": len(ctx.tps.points[t]), "model": len(ctx.models[t])}
            for t in ctx.rule.alphabet
        },
        "alphas": ctx.alphas,
    }
    write_outputs(out, summary, {"omega_a": omega, "nu_a": nu})


def write_outputs(out: Path, summary: dict, split: dict) -> None:
    out.mkdir(parents=True, exist_ok=True)
    (out / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    for name, comb in split.items():
        np.save(out / f"{name}_keys.npy", comb.keys)
        np.save(out / f"{name}_weights.npy", comb.weights)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--R", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    run(args.R, args.out)


if __name__ == "__main__":
    main()

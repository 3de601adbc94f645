"""Batch command-line front end.

One command per process; every run is a pure function of (command, config,
seed), so repeated invocations produce byte-identical output files.  A
single JSON config document may supply any flag value; explicit flags win.
Output files carry the tool version and a hash of the effective config in
a header comment (CSV) or a _meta object (JSON).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from itertools import repeat
from pathlib import Path

from . import __version__, cps, eberlein, inflate, spectra, stochastic, suites
from .zroot5 import TAU, FourierModulePoint, QuadraticInt

# every flag that may come from the config document
_CONFIG_KEYS = {
    "system", "rule_file", "R", "p", "N", "seed", "stream", "out", "format",
    "r_max", "variant", "shape", "R_grid", "k_preset", "k_values", "type",
    "types", "window_preset", "windows_file", "eta", "riesz_depth",
    "k_max", "kstar_max", "measure", "points_out", "suite", "seed_letter",
}

_PRESET_SYSTEMS = ("fibonacci", "twisted_fibonacci", "thue_morse", "random_fibonacci")

# rows per block when array columns become Python scalars or text for a
# writer; 4096-row blocks of text raised the peak RSS of `split` at R = 1e5
# by 2.8 MB and 256-row blocks by none, at the same speed
_ROW_BLOCK = 256


class CliError(ValueError):
    pass


def _config_hash(cfg: dict) -> str:
    # output locations do not affect the computation, so two runs of the
    # same job into different files hash identically
    canon = json.dumps(
        {k: v for k, v in cfg.items() if k not in ("out", "points_out")},
        sort_keys=True,
        separators=(",", ":"),
        default=str,
    )
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _write_csv(path: str, header: list[str], rows, cfg: dict) -> None:
    """Stream rows of Python scalars, or text from _key_lines, to a CSV file.

    Cells are written with str, which for Python floats is the shortest
    repr; callers pass columns through .tolist(), never numpy scalars.
    """
    with open(path, "w") as fh:
        fh.write(f"# combsplit {__version__} config_hash={_config_hash(cfg)}\n")
        fh.write(",".join(header) + "\n")
        fh.writelines(
            (row if isinstance(row, str) else ",".join(map(str, row))) + "\n" for row in rows
        )


def _write_json(path: str, obj: dict, cfg: dict) -> None:
    doc = {
        "_meta": {
            "tool": "combsplit",
            "version": __version__,
            "config_hash": _config_hash(cfg),
        }
    }
    doc.update(obj)
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=False) + "\n")


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    cfg = json.loads(Path(path).read_text())
    if not isinstance(cfg, dict):
        raise CliError("config must be a JSON object")
    unknown = set(cfg) - _CONFIG_KEYS
    if unknown:
        raise CliError(f"unknown config keys: {sorted(unknown)}")
    return cfg


def _merge(args: argparse.Namespace, cfg: dict) -> dict:
    """Flags override config; untouched flags fall back to config values."""
    merged = dict(cfg)
    for key, value in vars(args).items():
        if key in ("command", "config"):
            continue
        if value is not None:
            merged[key] = value
    return merged


def _need(cfg: dict, key: str, cast=None):
    if key not in cfg or cfg[key] is None:
        raise CliError(f"missing required option --{key.replace('_', '-')}")
    return cast(cfg[key]) if cast else cfg[key]


def _whole_r_max(cfg: dict, default: int) -> int:
    # diffract --riesz-depth and sample take r_max as a whole number of sites
    r_max = float(cfg.get("r_max", default))
    if not (0.0 <= r_max < math.inf and r_max.is_integer()):
        raise ValueError(f"r_max must be a finite, nonnegative integer, got {r_max!r}")
    return int(r_max)


def _parse_r_grid(cfg: dict) -> tuple[float, ...]:
    raw = cfg.get("R_grid")
    if raw is None:
        return (100.0, 1000.0, 10_000.0)
    if isinstance(raw, str):
        return tuple(float(x) for x in raw.split(","))
    return tuple(float(x) for x in raw)


def _rule_from_config(cfg: dict) -> inflate.SubstitutionRule:
    if cfg.get("rule_file"):
        return inflate.rule_from_json(json.loads(Path(cfg["rule_file"]).read_text()))
    system = _need(cfg, "system", str)
    if system not in _PRESET_SYSTEMS:
        raise CliError(f"unknown system {system!r}; known: {_PRESET_SYSTEMS}")
    return inflate.builtin_rule(system, float(cfg.get("p", 0.5)))


def _realize_from_config(cfg: dict) -> inflate.TypedPointSet:
    rule = _rule_from_config(cfg)
    R = _need(cfg, "R", float)
    seed_letter = cfg.get("seed_letter", rule.alphabet[0])
    if rule.is_random:
        seed = int(_need(cfg, "seed"))
        return inflate.realize_geometric(
            rule, seed_letter, R, rng_seed=seed, stream=int(cfg.get("stream", 0))
        )
    return inflate.realize_geometric(rule, seed_letter, R)


def _windows_from_config(cfg: dict) -> dict[str, cps.Window]:
    if cfg.get("windows_file"):
        doc = json.loads(Path(cfg["windows_file"]).read_text())
        out = {}
        for t, intervals in doc.items():
            ivs = []
            for iv in intervals:
                unknown = set(iv) - {"lo", "hi", "lo_closed", "hi_closed"}
                if unknown:
                    raise CliError(f"unknown window keys: {sorted(unknown)}")
                ivs.append(
                    cps.Interval(
                        _endpoint(iv["lo"]),
                        _endpoint(iv["hi"]),
                        bool(iv.get("lo_closed", True)),
                        bool(iv.get("hi_closed", True)),
                    )
                )
            out[t] = cps.Window(ivs)
        return out
    preset = cfg.get("window_preset") or cfg.get("system")
    if preset == "fibonacci":
        return cps.fibonacci_windows()
    if preset == "twisted_fibonacci":
        return cps.twisted_fibonacci_windows()
    raise CliError("need --window-preset, --windows-file, or a windowed --system")


def _endpoint(obj):
    if isinstance(obj, dict):
        extra = set(obj) - {"m", "n"}
        if extra:
            raise CliError(f"unknown endpoint keys {sorted(extra)}")
        return QuadraticInt(int(obj.get("m", 0)), int(obj.get("n", 0)))
    return float(obj)


def _k_selection(cfg: dict) -> list:
    if cfg.get("k_values"):
        raw = cfg["k_values"]
        vals = raw.split(",") if isinstance(raw, str) else raw
        return [float(v) for v in vals]
    preset = cfg.get("k_preset", "standard")
    if preset == "standard":
        return suites.preset_k_points()
    if preset == "module":
        return list(suites.preset_module_points())
    raise CliError(f"unknown k preset {preset!r}")


def _point_rows(tps: inflate.TypedPointSet):
    for t in tps.types():
        pts = tps.points[t]
        for row in _key_rows(pts, pts[:, 0] + pts[:, 1] * TAU):
            yield (t, *row)


def _key_rows(keys, values, *columns):
    """Rows (m, n, value, *columns) of Python scalars from array columns.

    Columns are converted a block of rows at a time, so a large comb never
    holds all of its cells as Python objects at once.
    """
    for lo in range(0, len(keys), _ROW_BLOCK):
        block = slice(lo, lo + _ROW_BLOCK)
        yield from zip(keys[block, 0].tolist(), keys[block, 1].tolist(),
                       values[block].tolist(), *(c[block].tolist() for c in columns))


def _key_lines(keys, values, *columns):
    """The CSV lines of _key_rows, joined into one string per block of rows.

    Each block is formatted column by column, so no Python code runs per
    row or per cell.
    """
    for lo in range(0, len(keys), _ROW_BLOCK):
        block = slice(lo, lo + _ROW_BLOCK)
        cells = [list(map(str, c[block].tolist())) for c in (keys[:, 0], keys[:, 1], values, *columns)]
        yield "\n".join(map(",".join, zip(*cells)))


def cmd_generate(cfg: dict) -> int:
    tps = _realize_from_config(cfg)
    out = _need(cfg, "out", str)
    if cfg.get("format", "csv") == "json":
        doc = {
            "range": list(tps.rng),
            "exact": True,  # kept for output compatibility: keys are always exact
            "points": [
                {"type": t, "m": m, "n": n, "value": v}
                for t, m, n, v in _point_rows(tps)
            ],
        }
        _write_json(out, doc, cfg)
    else:
        _write_csv(out, ["type", "m", "n", "value"], _point_rows(tps), cfg)
    return 0


def cmd_project(cfg: dict) -> int:
    windows = _windows_from_config(cfg)
    t = cfg.get("type", next(iter(windows)))
    if t not in windows:
        raise CliError(f"no window for type {t!r}")
    R = _need(cfg, "R", float)
    pts = cps.cut_and_project(windows[t], (0.0, R))
    values = pts[:, 0] + pts[:, 1] * TAU
    out = _need(cfg, "out", str)
    if cfg.get("format", "csv") == "json":
        _write_json(out, {"type": t, "points": [
            {"m": m, "n": n, "value": v} for m, n, v in _key_rows(pts, values)
        ]}, cfg)
    else:
        _write_csv(out, ["m", "n", "value"], _key_lines(pts, values), cfg)
    return 0


def cmd_split(cfg: dict) -> int:
    system = _need(cfg, "system", str)
    R = _need(cfg, "R", float)
    ctx = suites.system_context(system, R)
    out_dir = Path(_need(cfg, "out", str))
    out_dir.mkdir(parents=True, exist_ok=True)
    header = ["m", "n", "value", "re_weight", "im_weight"]
    for t, (omega, nu) in ctx.splits.items():
        for name, comb in (("omega", omega), ("nu", nu)):
            lines = _key_lines(comb.keys, comb.positions, comb.weights.real, comb.weights.imag)
            _write_csv(out_dir / f"{name}_{t}.csv", header, lines, cfg)
    _write_json(
        out_dir / "splitting.json",
        {"system": system, "R": R, "alphas": ctx.alphas},
        cfg,
    )
    return 0


def cmd_correlate(cfg: dict) -> int:
    cfg = dict(cfg)
    cfg.setdefault("R", max(_parse_r_grid(cfg)))
    tps = _realize_from_config(cfg)
    types = cfg.get("types")
    if types:
        t_i, t_j = (s.strip() for s in str(types).split(","))
        mu, nu = tps.comb(t_i), tps.comb(t_j)
    else:
        mu = nu = tps.comb()
    r_max = float(cfg.get("r_max", 20.0))
    variant = cfg.get("variant", "both")
    shape = cfg.get("shape", "one_sided")
    rows = []
    for R in _parse_r_grid(cfg):
        corr = eberlein.pair_correlation(mu, nu, shape, R, r_max, variant)
        rows += [
            (*row, R, variant)
            for row in _key_rows(corr.keys, corr.positions, corr.weights.real, corr.weights.imag)
        ]
    _write_csv(
        _need(cfg, "out", str),
        ["m", "n", "distance", "re_weight", "im_weight", "R", "variant"],
        rows,
        cfg,
    )
    return 0


def cmd_fb(cfg: dict) -> int:
    measure = cfg.get("measure", "points")
    shape = cfg.get("shape", "one_sided")
    R_grid = _parse_r_grid(cfg)
    cfg = dict(cfg)
    cfg.setdefault("R", max(R_grid))
    if measure == "points":
        tps = _realize_from_config(cfg)
        comb = tps.comb(cfg.get("type"))
    elif measure in ("omega", "nu"):
        system = _need(cfg, "system", str)
        ctx = suites.system_context(system, max(R_grid))
        t = cfg.get("type", "a")
        comb = ctx.splits[t][0 if measure == "omega" else 1]
    else:
        raise CliError(f"unknown measure {measure!r}")
    spec = eberlein.AveragingSpec(shape, R_grid)
    rows = []
    for row in eberlein.fb_scan(comb, _k_selection(cfg), spec):
        if isinstance(row.k, FourierModulePoint):
            ka, kb = row.k.a, row.k.b
        else:
            ka, kb = "", ""
        rows.append(
            (
                ka,
                kb,
                row.k_value(),
                row.R,
                row.value.real,
                row.value.imag,
                abs(row.value),
                "" if row.cauchy is None else row.cauchy,
            )
        )
    _write_csv(
        _need(cfg, "out", str),
        ["k_a", "k_b", "k_value", "R", "re", "im", "abs", "cauchy_diff"],
        rows,
        cfg,
    )
    return 0


def cmd_diffract(cfg: dict) -> int:
    out = _need(cfg, "out", str)
    if cfg.get("eta") is not None:
        m_max = int(cfg["eta"])
        table = spectra.tm_eta(m_max)
        rows = [
            (m, table[m].numerator, table[m].denominator, float(table[m]))
            for m in range(m_max + 1)
        ]
        _write_csv(out, ["m", "eta_numerator", "eta_denominator", "eta_float"], rows, cfg)
        return 0
    if cfg.get("riesz_depth") is not None:
        depth = int(cfg["riesz_depth"])
        rz = spectra.riesz_coefficients(depth)
        m_hi = min(rz.support(), _whole_r_max(cfg, 64))
        rows = [
            (
                m,
                rz.coefficient(m).numerator,
                rz.coefficient(m).denominator,
                rz.coefficient_float(m),
            )
            for m in range(-m_hi, m_hi + 1)
        ]
        _write_csv(
            out, ["m", "c_m_numerator", "c_m_denominator", "c_m_float"], rows, cfg
        )
        return 0
    # pure-point amplitudes of a windowed system
    system = _need(cfg, "system", str)
    R = float(cfg.get("R", 10_000.0))
    ctx = suites.system_context(system, R)
    if ctx.windows is None:
        raise CliError(f"system {system!r} has no Euclidean windows")
    ks = [
        k
        for k in cps.fourier_module(
            float(cfg.get("k_max", 3.0)), float(cfg.get("kstar_max", 3.0))
        )
    ]
    weights = {t: 1.0 for t in ctx.rule.alphabet}
    rows_out = []
    for row in spectra.pp_intensity(ctx.windows, weights, ks, ctx.alphas):
        total = sum(row.amplitudes.values())
        rows_out.append(
            (row.k.value(), complex(total).real, complex(total).imag, row.intensity)
        )
    _write_csv(
        out, ["k_value", "re_amplitude", "im_amplitude", "intensity"], rows_out, cfg
    )
    return 0


def cmd_sample(cfg: dict) -> int:
    model = _need(cfg, "system", str)
    seed = int(_need(cfg, "seed"))
    stream = int(cfg.get("stream", 0))
    rng = stochastic.RngSpec(seed, stream)
    out = _need(cfg, "out", str)
    if model == "bernoulli":
        p = float(_need(cfg, "p"))
        N = int(_need(cfg, "N"))
        report = stochastic.bernoulli_verify(
            p, N, rng, r_max=_whole_r_max(cfg, 50)
        )
        doc = {
            "params": {"model": "bernoulli", "p": p, "N": N},
            "seed": {"seed": seed, "stream": stream},
            "atoms": {
                "gamma": {str(m): w for m, w in sorted(report.gamma.items())},
                "nu_corr": {str(m): w for m, w in sorted(report.nu_corr.items())},
            },
            "predictions": {"gamma_0": p, "gamma_off": p * p,
                            "nu_corr_0": p * (1 - p)},
            "residuals": {c.name: c.measured for c in report.checks},
            "checks": [
                {"name": c.name, "measured": c.measured,
                 "threshold": c.threshold, "passed": c.passed}
                for c in report.checks
            ],
            "cross_sup": report.cross_sup,
            "passed": report.passed,
        }
        _write_json(out, doc, cfg)
        if cfg.get("points_out"):
            sites = stochastic.bernoulli_gas(p, N, rng)
            _write_csv(
                cfg["points_out"],
                ["m", "n", "value"],
                zip(sites.tolist(), repeat(0), sites.astype(float).tolist()),
                cfg,
            )
        return 0
    if model == "random_fibonacci":
        p = float(cfg.get("p", 0.5))
        R = _need(cfg, "R", float)
        tps = stochastic.random_fibonacci(p, R, rng)
        _write_csv(out, ["type", "m", "n", "value"], _point_rows(tps), cfg)
        return 0
    raise CliError(f"unknown stochastic system {model!r}")


def cmd_verify(cfg: dict) -> int:
    suite = _need(cfg, "suite", str)
    seed = cfg.get("seed")
    reports = suites.run_suite(suite, None if seed is None else int(seed))
    all_ok = True
    for rep in reports:
        for check in rep.checks:
            status = "PASS" if check.passed else "FAIL"
            print(
                f"[{status}] {rep.suite}: {check.name}: "
                f"measured={check.measured:.6g} threshold={check.threshold:.6g}"
            )
        all_ok = all_ok and rep.passed
    if cfg.get("out"):
        _write_json(
            cfg["out"],
            {"suite": suite, "passed": all_ok,
             "reports": [r.to_dict() for r in reports]},
            cfg,
        )
    return 0 if all_ok else 1


_COMMANDS = {
    "generate": cmd_generate,
    "project": cmd_project,
    "split": cmd_split,
    "correlate": cmd_correlate,
    "fb": cmd_fb,
    "diffract": cmd_diffract,
    "sample": cmd_sample,
    "verify": cmd_verify,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="combsplit",
        description="aperiodic point sets, comb splitting, averaged correlations",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--config", help="JSON config document; flags override it")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, *flags):
        p = sub.add_parser(name)
        for flag, kw in flags:
            p.add_argument(flag, **kw)
        return p

    num = {"type": float, "default": None}
    intarg = {"type": int, "default": None}
    strarg = {"default": None}
    common = [
        ("--system", dict(strarg)),
        ("--R", dict(num)),
        ("--seed", dict(intarg)),
        ("--stream", dict(intarg)),
        ("--out", dict(strarg)),
        ("--format", dict(choices=["csv", "json"], default=None)),
    ]
    add("generate", *common, ("--p", dict(num)), ("--rule-file", dict(strarg)),
        ("--seed-letter", dict(strarg)))
    add("project", ("--window-preset", dict(strarg)), ("--windows-file", dict(strarg)),
        ("--type", dict(strarg)), ("--R", dict(num)), ("--out", dict(strarg)),
        ("--format", dict(choices=["csv", "json"], default=None)),
        ("--system", dict(strarg)))
    add("split", *common)
    add("correlate", *common, ("--types", dict(strarg)), ("--r-max", dict(num)),
        ("--variant", dict(choices=["both", "one"], default=None)),
        ("--shape", dict(choices=["one_sided", "symmetric"], default=None)),
        ("--R-grid", dict(strarg)), ("--p", dict(num)),
        ("--rule-file", dict(strarg)))
    add("fb", *common, ("--measure", dict(strarg)), ("--type", dict(strarg)),
        ("--k-preset", dict(strarg)), ("--k-values", dict(strarg)),
        ("--shape", dict(choices=["one_sided", "symmetric"], default=None)),
        ("--R-grid", dict(strarg)), ("--p", dict(num)),
        ("--rule-file", dict(strarg)))
    add("diffract", *common, ("--eta", dict(intarg)), ("--riesz-depth", dict(intarg)),
        ("--k-max", dict(num)), ("--kstar-max", dict(num)), ("--r-max", dict(num)))
    add("sample", *common, ("--p", dict(num)), ("--N", dict(intarg)),
        ("--r-max", dict(num)), ("--points-out", dict(strarg)))
    add("verify", ("--suite", dict(strarg)), ("--seed", dict(intarg)),
        ("--out", dict(strarg)))
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge(args, _load_config(args.config))
        return _COMMANDS[args.command](cfg)
    except (ValueError, KeyError, OSError, MemoryError, OverflowError) as exc:
        error = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(error), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

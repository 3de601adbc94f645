"""Batch command-line front end.

One command per process; every run is a pure function of (command, config,
seed), so repeated invocations produce byte-identical output files.  A
single JSON config document may supply any flag value; explicit flags win.
Output files carry the tool version and a hash of the effective config in
a header comment (CSV) or a _meta object (JSON).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import ExitStack, contextmanager
from pathlib import Path

try:
    # CPython's own SHA-256: hashlib maps OpenSSL's libcrypto (3.6 MB more
    # peak RSS after numpy, x86-64 Linux, Python 3.11) to hash a config of
    # some 200 bytes; random.py takes _sha512 alike
    from _sha2 import sha256  # Python 3.12 on
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

import numpy as np

from . import __version__, cps, eberlein, inflate, spectra, stochastic, suites
from .zroot5 import FourierModulePoint, QuadraticInt, _codes, _key_parts, embed_array

_PRESET_SYSTEMS = ("fibonacci", "twisted_fibonacci", "thue_morse", "random_fibonacci")

# rows per block when array columns become Python scalars or text for a
# writer.  With `split` writing up to 4 files' text per block, 8 alternating
# `bench/run.py --workload split_csv` runs (R = 1e5) gave medians of
# 0.567 s / 39.46 MB at 256 rows, 0.542 s / 39.73 MB at 1024 and
# 0.564 s / 41.94 MB at 4096 (2-core x86-64, Python 3.11, numpy 2.4): the
# same speed within the runs' quartiles, and the least memory at 256
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
    return sha256(canon.encode()).hexdigest()[:16]


@contextmanager
def _open_csv(path, header: list[str], cfg: dict):
    """A new CSV file holding its comment and header lines, open for rows.

    Rows may be computed while they stream out; if that raises, the partial
    file is removed, so a failed command leaves no truncated output.
    """
    fh = open(path, "w")
    try:
        with fh:
            fh.write(f"# combsplit {__version__} config_hash={_config_hash(cfg)}\n")
            fh.write(",".join(header) + "\n")
            yield fh
    except BaseException:
        Path(path).unlink(missing_ok=True)
        raise


def _write_csv(path, header: list[str], rows, cfg: dict) -> None:
    """Stream rows of Python scalars, or whole lines of text from _key_lines,
    to a CSV file.

    Cells are written with str, which for Python floats is the shortest
    repr; callers pass columns through .tolist(), never numpy scalars.
    """
    with _open_csv(path, header, cfg) as fh:
        fh.writelines(
            row if isinstance(row, str) else ",".join(map(str, row)) + "\n" for row in rows
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
    return cfg


def _merge(args: argparse.Namespace, cfg: dict) -> dict:
    """Flags override config; untouched flags fall back to config values, and
    a null config value counts as absent.  The config may hold only the
    options the command declares, and each value is converted to its kind,
    so a flag and the same value in a config document run and hash alike."""
    kinds = _OPTIONS[args.command]
    unknown = set(cfg) - set(kinds)
    if unknown:
        raise CliError(f"unknown config keys: {sorted(unknown)}")
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    merged = {**cfg, **{k: v for k, v in flags.items() if v is not None}}
    return {key: _convert(key, kinds[key], value)
            for key, value in merged.items() if value is not None}


def _convert(key: str, kind, value):
    """A flag's text or a config document's value as its option's kind, or
    CliError: a number (float), a whole number (int, never a bool), text
    (str; list also takes a JSON list) or one of a tuple of choices."""
    flag = f"--{key.replace('_', '-')}"
    if isinstance(kind, tuple):
        ok, want = value in kind, f"one of {list(kind)}"
    elif kind in (str, list):
        ok, want = isinstance(value, (str, kind)), "text"
    else:
        if isinstance(value, str):
            # a whole option's text is read by int() first, so a 20-digit
            # seed stays exact; text that is no number stays text, refused
            for parse in (int, float) if kind is int else (float,):
                try:
                    value = parse(value)
                    break
                except ValueError:
                    pass
        if kind is int:
            return _whole(value, flag)
        ok, want = isinstance(value, (int, float)) and not isinstance(value, bool), "a number"
        value = float(value) if ok else value
    if not ok:
        raise CliError(f"{flag} must be {want}, got {value!r}")
    return value


def _need(cfg: dict, key: str):
    if key not in cfg:
        raise CliError(f"missing required option --{key.replace('_', '-')}")
    return cfg[key]


def _whole(value, name: str) -> int:
    # value as an int, refused unless it is a whole number: a JSON document
    # may give 20.0, not 20.7 or true
    if isinstance(value, bool) or not (
            isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise CliError(f"{name} must be a whole number, got {value!r}")
    return int(value)


def _numbers(cfg: dict, key: str) -> list[float]:
    # a list option's entries, from comma-separated text or a JSON list, each
    # converted as a number option is; the option's value stays as given
    raw = cfg[key]
    entries = raw.split(",") if isinstance(raw, str) else raw
    if not entries:
        raise CliError(f"--{key.replace('_', '-')} must list one or more numbers")
    return [_convert(key, float, entry) for entry in entries]


def _parse_r_grid(cfg: dict) -> tuple[float, ...]:
    if "R_grid" not in cfg:
        return (100.0, 1000.0, 10_000.0)
    return tuple(_numbers(cfg, "R_grid"))


def _rule_from_config(cfg: dict) -> inflate.SubstitutionRule:
    if cfg.get("rule_file"):
        return inflate.rule_from_json(json.loads(Path(cfg["rule_file"]).read_text()))
    return inflate.builtin_rule(_need(cfg, "system"), cfg.get("p", 0.5))


def _realize_from_config(cfg: dict) -> inflate.TypedPointSet:
    rule = _rule_from_config(cfg)
    R = _need(cfg, "R")
    seed_letter = cfg.get("seed_letter", rule.alphabet[0])
    if rule.is_random:
        return inflate.realize_geometric(
            rule, seed_letter, R, rng_seed=_need(cfg, "seed"), stream=cfg.get("stream", 0)
        )
    return inflate.realize_geometric(rule, seed_letter, R)


def _windows_from_config(cfg: dict) -> dict[str, cps.Window]:
    if ("window_preset" in cfg) == ("windows_file" in cfg):
        raise CliError("project takes exactly one of --window-preset and --windows-file")
    if "windows_file" in cfg:
        doc = json.loads(Path(cfg["windows_file"]).read_text())
        if not (isinstance(doc, dict) and doc and all(
                isinstance(ivs, list) and all(isinstance(iv, dict) for iv in ivs)
                for ivs in doc.values())):
            raise CliError("--windows-file must map one or more types to lists of interval objects")
        return {t: cps.Window([_interval(iv) for iv in ivs]) for t, ivs in doc.items()}
    return dict(suites.MODEL_SETS[cfg["window_preset"]])


def _interval(iv: dict) -> cps.Interval:
    unknown = set(iv) - {"lo", "hi", "lo_closed", "hi_closed"}
    if unknown:
        raise CliError(f"unknown window keys: {sorted(unknown)}")
    return cps.Interval(_endpoint(iv, "lo"), _endpoint(iv, "hi"),
                        _closed(iv, "lo_closed"), _closed(iv, "hi_closed"))


def _endpoint(iv: dict, key: str):
    # an exact endpoint {"m", "n"}, or a finite JSON number (never a bool)
    if key not in iv:
        raise CliError(f"window interval has no {key}: {iv!r}")
    obj = iv[key]
    if isinstance(obj, dict):
        extra = set(obj) - {"m", "n"}
        if extra:
            raise CliError(f"unknown endpoint keys {sorted(extra)}")
        return QuadraticInt(*(_whole(obj.get(k, 0), f"endpoint {k}") for k in ("m", "n")))
    if isinstance(obj, bool) or not isinstance(obj, (int, float)) or not math.isfinite(obj):
        raise CliError(f"window {key} must be a finite number or {{m, n}}, got {obj!r}")
    return float(obj)


def _closed(iv: dict, key: str) -> bool:
    # a window's closure flag, closed by default; only a JSON boolean is taken
    value = iv.get(key, True)
    if not isinstance(value, bool):
        raise CliError(f"window {key} must be true or false, got {value!r}")
    return value


def _types_of(value: str, types: tuple[str, ...], option: str, count: int) -> list[str]:
    # the comma-separated types an option names, refused unless they are
    # count of the system's types
    named = [t.strip() for t in value.split(",")]
    if len(named) != count or not set(named) <= set(types):
        raise CliError(f"{option} must name {count} of the system's types {list(types)}, got {value!r}")
    return named


def _k_selection(cfg: dict) -> list:
    if "k_values" in cfg:
        return _numbers(cfg, "k_values")
    if cfg.get("k_preset") == "module":
        return list(suites.preset_module_points())
    return suites.preset_k_points()


def _point_lines(tps: inflate.TypedPointSet):
    """CSV text of the rows type,m,n,value, a block of rows at a time."""
    for t, codes in tps.codes.items():
        for text, in _key_lines(codes, lead=(t,)):
            yield text


def _key_columns(codes):
    """Per block of rows, the columns m, n and value = m + n*tau of the key
    codes as lists of Python scalars, so a large comb never holds all of its
    keys, or its cells as Python objects, at once."""
    for lo in range(0, len(codes), _ROW_BLOCK):
        m, n = _key_parts(codes[lo : lo + _ROW_BLOCK])
        yield m.tolist(), n.tolist(), embed_array(m, n).tolist()


def _key_rows(codes):
    """Rows (m, n, value) of Python scalars from key codes."""
    return (row for columns in _key_columns(codes) for row in zip(*columns))


def _level_text(levels, tail: str = "") -> list[str]:
    """The text ",re,im<tail>\\n" that ends the line of an atom, per level."""
    return [f",{re!r},{im!r}{tail}\n"
            for re, im in zip(levels.real.tolist(), levels.imag.tolist())]


def _key_lines(codes, tails=((None, ("\n",)),), lead=()):
    """CSV text per block of rows: one string per (level, texts) tail, each
    line m,n,value of a key code followed by texts[level[row]], after the
    constant cells of lead, if any.

    The m,n,value text of a block is formatted once, by one %-format of its
    cells, and shared by every tail; a tail with one text ignores its level.
    So files on the same keys format their keys once, and each distinct
    weight is formatted once, by _level_text.
    """
    row = "".join(cell.replace("%", "%%") + "," for cell in lead) + "%d,%d,%r\0"
    for lo, (m, n, value) in zip(range(0, len(codes), _ROW_BLOCK), _key_columns(codes)):
        cells = [None] * (3 * len(m))
        cells[0::3], cells[1::3], cells[2::3] = m, n, value
        heads = (row * len(m) % tuple(cells)).split("\0")  # and a last, empty one
        lines = [None] * (2 * len(m))
        lines[0::2] = heads[:-1]
        block = []
        for level, texts in tails:
            if len(texts) == 1:
                block.append(texts[0].join(heads))
            else:
                lines[1::2] = map(texts.__getitem__, level[lo : lo + _ROW_BLOCK].tolist())
                block.append("".join(lines))
        yield block


def cmd_generate(cfg: dict) -> int:
    tps = _realize_from_config(cfg)
    out = _need(cfg, "out")
    if cfg.get("format", "csv") == "json":
        doc = {
            "range": list(tps.rng),
            "exact": True,  # kept for output compatibility: keys are always exact
            "points": [
                {"type": t, "m": m, "n": n, "value": v}
                for t, codes in tps.codes.items()
                for m, n, v in _key_rows(codes)
            ],
        }
        _write_json(out, doc, cfg)
    else:
        _write_csv(out, ["type", "m", "n", "value"], _point_lines(tps), cfg)
    return 0


def cmd_project(cfg: dict) -> int:
    windows = _windows_from_config(cfg)
    t = cfg.get("type", next(iter(windows)))
    if t not in windows:
        raise CliError(f"no window for type {t!r}")
    R = _need(cfg, "R")
    if not (math.isfinite(R) and R >= 0):  # as generate refuses it
        raise CliError(f"R must be finite and nonnegative, got {R!r}")
    codes = cps.cut_and_project(windows[t], (0.0, R))
    out = _need(cfg, "out")
    if cfg.get("format", "csv") == "json":
        _write_json(out, {"type": t, "points": [
            {"m": m, "n": n, "value": v} for m, n, v in _key_rows(codes)
        ]}, cfg)
    else:
        _write_csv(out, ["m", "n", "value"], (t for t, in _key_lines(codes)), cfg)
    return 0


def _write_comb_csvs(out_dir: Path, named, cfg: dict) -> None:
    """Write each (stem, comb) to out_dir/<stem>.csv, one row per atom.

    Combs on equal keys (omega and nu of a type, types that share a window)
    are written together, so each distinct code array is formatted once.
    """
    groups: list[list] = []
    for stem, comb in named:
        group = next((g for g in groups if np.array_equal(g[0][1].codes, comb.codes)), None)
        if group is None:
            groups.append([(stem, comb)])
        else:
            group.append((stem, comb))
    header = ["m", "n", "value", "re_weight", "im_weight"]
    for group in groups:
        first = group[0][1]
        tails = [(comb.level, _level_text(comb.levels)) for _, comb in group]
        with ExitStack() as stack:
            files = [stack.enter_context(_open_csv(out_dir / f"{stem}.csv", header, cfg))
                     for stem, _ in group]
            for texts in _key_lines(first.codes, tails):
                for fh, text in zip(files, texts):
                    fh.write(text)


def cmd_split(cfg: dict) -> int:
    system = _need(cfg, "system")
    R = _need(cfg, "R")
    ctx = suites.system_context(system, R)
    out_dir = Path(_need(cfg, "out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_comb_csvs(out_dir, [
        (f"{name}_{t}", comb)
        for t, (omega, nu) in ctx.splits.items()
        for name, comb in (("omega", omega), ("nu", nu))
    ], cfg)
    _write_json(
        out_dir / "splitting.json",
        {"system": system, "R": R, "alphas": ctx.alphas},
        cfg,
    )
    return 0


def cmd_correlate(cfg: dict) -> int:
    cfg = dict(cfg)
    R_grid = _parse_r_grid(cfg)
    r_max = cfg.get("r_max", 20.0)
    variant = cfg.get("variant", "both")
    # variant one reads the second factor up to R + r_max
    cfg.setdefault("R", max(R_grid) + r_max if variant == "one" else max(R_grid))
    tps = _realize_from_config(cfg)
    types = cfg.get("types")
    if types:
        mu, nu = map(tps.comb, _types_of(types, tps.types(), "--types", 2))
    else:
        mu = nu = tps.comb()
    shape = cfg.get("shape", "one_sided")

    def lines():
        # each R's atoms stream out as they are correlated, its R,variant
        # text formatted once into the text of each level
        for R in R_grid:
            corr = eberlein.pair_correlation(mu, nu, shape, R, r_max, variant)
            tail = (corr.level, _level_text(corr.levels, f",{R!r},{variant}"))
            for text, in _key_lines(corr.codes, [tail]):
                yield text

    _write_csv(
        _need(cfg, "out"),
        ["m", "n", "distance", "re_weight", "im_weight", "R", "variant"],
        lines(),
        cfg,
    )
    return 0


def cmd_fb(cfg: dict) -> int:
    measure = cfg.get("measure", "points")
    shape = cfg.get("shape", "one_sided")
    R_grid = _parse_r_grid(cfg)
    unread = [f"--{key.replace('_', '-')}" for key in _REALIZE if key != "system" and key in cfg]
    if measure != "points" and unread:
        raise CliError(f"--measure {measure} splits --system and reads no {', '.join(unread)}")
    cfg = dict(cfg)
    cfg.setdefault("R", max(R_grid))
    if measure == "points":
        tps = _realize_from_config(cfg)
        t = cfg.get("type")
        comb = tps.comb(None if t is None else _types_of(t, tps.types(), "--type", 1)[0])
    else:
        ctx = suites.system_context(_need(cfg, "system"), max(R_grid))
        (t,) = _types_of(cfg.get("type", "a"), tuple(ctx.splits), "--type", 1)
        comb = ctx.splits[t][0 if measure == "omega" else 1]
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
        _need(cfg, "out"),
        ["k_a", "k_b", "k_value", "R", "re", "im", "abs", "cauchy_diff"],
        rows,
        cfg,
    )
    return 0


def cmd_diffract(cfg: dict) -> int:
    out = _need(cfg, "out")
    if "eta" in cfg:
        m_max = cfg["eta"]
        table = spectra.tm_eta(m_max)
        rows = [
            (m, table[m].numerator, table[m].denominator, float(table[m]))
            for m in range(m_max + 1)
        ]
        _write_csv(out, ["m", "eta_numerator", "eta_denominator", "eta_float"], rows, cfg)
        return 0
    if "riesz_depth" in cfg:
        depth = cfg["riesz_depth"]
        # the depth is checked before r_max, the largest index m written, which
        # must be whole; then only the rows written are computed
        support = spectra.riesz_coefficients(depth, 0).support()
        r_max = cfg.get("r_max", 64.0)
        if not (0.0 <= r_max < math.inf and r_max.is_integer()):
            raise ValueError(f"r_max must be a finite, nonnegative integer, got {r_max!r}")
        m_hi = min(support, int(r_max))
        rz = spectra.riesz_coefficients(depth, m_hi)
        rows = [(m, rz.coefficient(m).numerator, rz.coefficient(m).denominator,
                 rz.coefficient_float(m)) for m in range(-m_hi, m_hi + 1)]
        _write_csv(out, ["m", "c_m_numerator", "c_m_denominator", "c_m_float"], rows, cfg)
        return 0
    # pure-point amplitudes of a windowed system: its preset windows and exact
    # alphas, with no realization, projection or split
    system = _need(cfg, "system")
    _, windows, alphas = suites.preset_system(system)
    if None in windows.values():
        raise CliError(f"system {system!r} has no Euclidean windows")
    ks = list(cps.fourier_module(cfg.get("k_max", 3.0), cfg.get("kstar_max", 3.0)))
    rows_out = []
    for row in spectra.pp_intensity(windows, ks, alphas):
        total = sum(row.amplitudes.values())
        rows_out.append(
            (row.k.value(), complex(total).real, complex(total).imag, abs(total) ** 2)
        )
    _write_csv(
        out, ["k_value", "re_amplitude", "im_amplitude", "intensity"], rows_out, cfg
    )
    return 0


def cmd_sample(cfg: dict) -> int:
    model = _need(cfg, "system")
    seed = _need(cfg, "seed")
    stream = cfg.get("stream", 0)
    rng = stochastic.RngSpec(seed, stream)
    out = _need(cfg, "out")
    if model == "bernoulli":
        p = _need(cfg, "p")
        # one draw serves the report and the points file
        report = stochastic.bernoulli_verify(p, _need(cfg, "N"), rng, cfg.get("r_max", 50))
        doc = {
            "params": {"model": "bernoulli", "p": p, "N": report.N},
            "seed": {"seed": seed, "stream": stream},
            "atoms": {
                "gamma": {str(m): w for m, w in sorted(report.gamma.items())},
                "nu_corr": {str(m): w for m, w in sorted(report.nu_corr.items())},
            },
            "predictions": {"gamma_0": p, "gamma_off": p * p,
                            "nu_corr_0": p * (1 - p)},
            "residuals": {c.name: c.measured for c in report.checks},
            "checks": [c.to_dict() for c in report.checks],
            "cross_sup": report.cross_sup,
            "passed": report.passed,
        }
        _write_json(out, doc, cfg)
        if cfg.get("points_out"):
            lines = (
                text
                for sites in report.sites()
                for text, in _key_lines(_codes(sites, np.zeros_like(sites)))
            )
            _write_csv(cfg["points_out"], ["m", "n", "value"], lines, cfg)
        return 0
    tps = stochastic.random_fibonacci(cfg.get("p", 0.5), _need(cfg, "R"), rng)
    _write_csv(out, ["type", "m", "n", "value"], _point_lines(tps), cfg)
    return 0


def cmd_verify(cfg: dict) -> int:
    suite = _need(cfg, "suite")
    reports = suites.run_suite(suite, cfg.get("seed"))
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


# The options each command reads by kind, the one place they are written:
# float, int (a whole number), str (text), list (text, or a JSON list, of
# numbers) or a tuple of choices.  The parser's flags and the config keys a
# command takes are these, and flags and config values alike pass through
# _convert.
_FORMAT = ("csv", "json")
_SHAPE = ("one_sided", "symmetric")
# the presets whose every type has a window
_WINDOW_PRESETS = tuple(k for k, sets in suites.MODEL_SETS.items() if None not in sets.values())
# what _realize_from_config reads
_REALIZE = {"system": _PRESET_SYSTEMS, "rule_file": str, "p": float, "R": float,
            "seed_letter": str, "seed": int, "stream": int}
_OPTIONS = {
    "generate": {**_REALIZE, "out": str, "format": _FORMAT},
    "project": {"window_preset": _WINDOW_PRESETS, "windows_file": str, "type": str,
                "R": float, "out": str, "format": _FORMAT},
    "split": {"system": _PRESET_SYSTEMS, "R": float, "out": str},
    "correlate": {**_REALIZE, "out": str, "types": str, "r_max": float,
                  "variant": ("both", "one"), "shape": _SHAPE, "R_grid": list},
    "fb": {**_REALIZE, "out": str, "measure": ("points", "omega", "nu"), "type": str,
           "k_preset": ("standard", "module"), "k_values": list, "shape": _SHAPE,
           "R_grid": list},
    "diffract": {"system": str, "out": str, "eta": int, "riesz_depth": int,
                 "k_max": float, "kstar_max": float, "r_max": float},
    "sample": {"system": ("bernoulli", "random_fibonacci"), "R": float, "seed": int,
               "stream": int, "out": str, "p": float, "N": int, "r_max": float,
               "points_out": str},
    "verify": {"suite": str, "seed": int, "out": str},
}


class _Parser(argparse.ArgumentParser):
    # a bad command line is refused as a bad config is, and a flag is taken
    # only as _OPTIONS spells it, never by a prefix; subparsers inherit this
    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise CliError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="combsplit",
        description="aperiodic point sets, comb splitting, averaged correlations",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--config", help="JSON config document; flags override it")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, options in _OPTIONS.items():
        command = sub.add_parser(name)
        for key, kind in options.items():
            choices = "{%s}" % ",".join(kind) if isinstance(kind, tuple) else None
            command.add_argument(f"--{key.replace('_', '-')}", metavar=choices)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = _merge(args, _load_config(args.config))
        return _COMMANDS[args.command](cfg)
    except (ValueError, KeyError, OSError, MemoryError, OverflowError) as exc:
        error = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(error), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

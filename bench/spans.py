"""Traced run of one workload: per-layer spans and counts, taken from outside.

Wraps every public function of the combsplit layers in every namespace that
binds it: the defining module, modules that import it by name, the package
namespace, and registry dicts such as cli._COMMANDS and suites._SUITES.
Then runs the workload in this process.  Spans (id, parent, name, start,
end, run id) stay in memory and are written once at the end, with a
summary of the per-layer metrics that BENCHMARK.json lists.

    PYTHONPATH=src python3 bench/spans.py --workload NAME --seed N [--R R] \
        --out DIR --t0 T --spans FILE --summary FILE

T is the spawning process's time.perf_counter() at spawn; on Linux that
clock is CLOCK_MONOTONIC, shared by all processes, so the root span runs
from spawn to the end of the workload.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("zroot5", "inflate", "cps", "combs", "eberlein", "stochastic",
          "spectra", "suites", "cli")
# Called once per candidate point inside cut_and_project (about 8 per unit
# of R): a span per call would cost more than the call and hold millions of
# spans, so these are counted, not timed.  Their time stays in the caller's
# self time.
COUNT_ONLY = ("zroot5.sign_of",)
ROOT_ID = 0
UNCOVERED_LISTED = 0.05  # report every self-time share of the root above this
# counters filled after a span closes, with their time kept out of all spans
COUNTERS = (
    "cps.cut_and_project.points",
    "zroot5.frac_phases.phases",
    "zroot5.sign_of.calls",
    "inflate.realize_geometric.points",
    "combs.linear_combine.atoms",
    "eberlein.convolve.pairs",
    "eberlein.convolve.atoms_out",
    "suites.system_context.misses",
    "cli.bytes_out",
)


def candidate_pairs(mu, nu, shape: str, R: float, r_max: float, variant: str) -> int:
    """Atom pairs (x, y) of the restricted factors with |x + y| <= r_max,
    counted as eberlein_convolve admits them."""
    import numpy as np  # here, so that numpy's import time falls in the "import" span

    lo, hi = (0.0, R) if shape == "one_sided" else (-R, R)
    nu_lo, nu_hi = (lo, hi) if variant == "both" else (lo - r_max, hi + r_max)

    def within(pos, a, b):
        return pos[np.searchsorted(pos, a - 1e-12, side="left"):
                   np.searchsorted(pos, b + 1e-12, side="right")]

    px = within(mu.positions, -hi, -lo)
    py = within(nu.positions, nu_lo, nu_hi)
    first = np.searchsorted(py, -r_max - px - 1e-9, side="left")
    last = np.searchsorted(py, r_max - px + 1e-9, side="right")
    return int((last - first).sum())


def _convolve_name(a: dict) -> str:
    dense = a["mu"].is_integer_supported() and a["nu"].is_integer_supported()
    return "eberlein.convolve_dense" if dense else "eberlein.convolve_sweep"


def _count_convolve(counts: Counter, a: dict, result) -> None:
    counts["eberlein.convolve.pairs"] += candidate_pairs(
        a["mu"], a["nu"], a["shape"], a["R"], a["r_max"], a["variant"])
    counts["eberlein.convolve.atoms_out"] += len(result)


# per wrapped function: (span namer, counter), both run outside every span
EXTRAS = {
    "eberlein.eberlein_convolve": (_convolve_name, _count_convolve),
    "cps.cut_and_project": (None, lambda c, a, r: c.update({"cps.cut_and_project.points": len(r)})),
    "zroot5.frac_phases": (None, lambda c, a, r: c.update({"zroot5.frac_phases.phases": len(r)})),
    "inflate.realize_geometric": (
        None, lambda c, a, r: c.update({"inflate.realize_geometric.points": r.count()})),
    "combs.linear_combine": (
        None, lambda c, a, r: c.update({"combs.linear_combine.atoms": sum(len(mu) for _, mu in a["terms"])})),
}
# span names that replace or group the names of wrapped functions
RENAMED = {"eberlein.eberlein_convolve": ("eberlein.convolve_dense", "eberlein.convolve_sweep")}
GROUPS = {"cli.cmd": "cli.cmd_"}  # cli.cmd aggregates the cli.cmd_* spans


class Tracer:
    """Spans and counts of one traced process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: Counter = Counter()
        self.span_names: set[str] = set(GROUPS)
        self._open = [ROOT_ID]
        self._next_id = ROOT_ID + 1
        self._excluded = 0.0  # seconds spent counting, removed from every span
        self._quiet = False  # inside counting: wrappers pass calls straight through
        self._patches: list[tuple[dict, object, object]] = []
        self._lru = []

    def clock(self) -> float:
        return time.perf_counter() - self._excluded

    def _outside(self, fn, *args):
        """Run fn with its time kept out of every span, and untraced."""
        t = time.perf_counter()
        self._quiet = True
        try:
            return fn(*args)
        finally:
            self._quiet = False
            self._excluded += time.perf_counter() - t

    def call(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name."""
        sid, parent = self._next_id, self._open[-1]
        self._next_id += 1
        self._open.append(sid)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            self._open.pop()
            self.spans.append((sid, parent, name, start, self.clock()))

    def wrap(self, fn, name: str):
        """A traced stand-in for fn, recording spans called name."""
        namer, counter = EXTRAS.get(name, (None, None))
        sig = inspect.signature(fn) if namer or counter else None
        tracer = self

        def bind(args, kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            return bound.arguments

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._quiet:
                return fn(*args, **kwargs)
            a = tracer._outside(bind, args, kwargs) if sig else None
            span = tracer._outside(namer, a) if namer else name
            result = tracer.call(span, fn, *args, **kwargs)
            if counter:
                tracer._outside(counter, tracer.counts, a, result)
            return result

        self.span_names.update(RENAMED.get(name, (name,)))
        return traced

    def count_calls(self, fn, name: str):
        counts, key = self.counts, f"{name}.calls"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self, package) -> None:
        """Wrap every public function of the layers wherever it is bound."""
        modules = [importlib.import_module(f"{package.__name__}.{m}") for m in LAYERS]
        stand_in = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                if hasattr(obj, "cache_info"):
                    self._lru.append((name, obj))
                wrapped = (self.count_calls(obj, name) if name in COUNT_ONLY
                           else self.wrap(obj, name))
                stand_in[id(obj)] = (obj, wrapped)
        for mod in [package, *modules]:
            namespace = vars(mod)
            for attr, obj in list(namespace.items()):
                if isinstance(obj, dict) and not attr.startswith("__"):
                    for key, value in list(obj.items()):
                        self._patch(obj, key, value, stand_in)
                else:
                    self._patch(namespace, attr, obj, stand_in)

    def _patch(self, container: dict, key, value, stand_in: dict) -> None:
        hit = stand_in.get(id(value))
        if hit is not None and hit[0] is value:
            self._patches.append((container, key, value))
            container[key] = hit[1]

    def restore(self) -> None:
        """Put every original function back where install found it."""
        for container, key, value in reversed(self._patches):
            container[key] = value
        self._patches.clear()

    def summary(self, root_start: float, root_end: float, declared: list[str]) -> dict:
        """Per-layer metrics named in `declared`, and the uncovered shares."""
        for name, fn in self._lru:
            self.counts[f"{name}.misses"] = fn.cache_info().misses
        root = root_end - root_start
        covered = defaultdict(float)  # span id -> time its children cover
        for sid, parent, name, start, end in self.spans:
            covered[parent] += end - start
        self_s, calls = defaultdict(float), Counter()
        for sid, parent, name, start, end in self.spans:
            for label in [name] + [g for g, prefix in GROUPS.items() if name.startswith(prefix)]:
                self_s[label] += (end - start) - covered[sid]
                calls[label] += 1
        pairs = self.counts["eberlein.convolve.pairs"]
        derived = {
            "trace.coverage": covered[ROOT_ID] / root,
            "eberlein.convolve.atoms_per_pair":
                self.counts["eberlein.convolve.atoms_out"] / pairs if pairs else 0.0,
        }
        metrics = {}
        for metric in declared:
            base, _, kind = metric.rpartition(".")
            if metric in derived:
                metrics[metric] = derived[metric]
            elif metric in COUNTERS:
                metrics[metric] = self.counts[metric]
            elif kind == "self_s" and base in self.span_names:
                metrics[metric] = self_s[base]
            elif kind == "calls" and base in self.span_names:
                metrics[metric] = calls[base]
            else:
                raise KeyError(f"no span or counter gives per-layer metric {metric!r}")
        shares = {name: t / root for name, t in self_s.items() if name not in GROUPS}
        shares["(root, no named span)"] = (root - covered[ROOT_ID]) / root
        uncovered = sorted(((n, s) for n, s in shares.items() if s > UNCOVERED_LISTED),
                           key=lambda item: -item[1])
        return {"run": self.run_id, "root_s": root, "metrics": metrics,
                "uncovered": uncovered, "spans": len(self.spans)}

    def write_spans(self, path: Path, root_start: float, root_end: float) -> None:
        rows = [(ROOT_ID, None, "root", root_start, root_end)]
        rows += sorted(self.spans)
        with open(path, "w") as fh:
            for sid, parent, name, start, end in rows:
                fh.write(json.dumps({"run": self.run_id, "id": sid, "parent": parent,
                                     "name": name, "start": start - root_start,
                                     "end": end - root_start}) + "\n")


def per_layer_names() -> list[str]:
    """Per-layer metrics of BENCHMARK.json that a traced process measures;
    the runner adds trace.overhead_s, the difference of two processes."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in doc["per_layer"] if m["name"] != "trace.overhead_s"]


def bytes_written(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


def main() -> int:
    parser = argparse.ArgumentParser(description="traced run of one workload")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--R", type=float, default=None)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--spans", type=Path, required=True)
    parser.add_argument("--summary", type=Path, required=True)
    args = parser.parse_args()

    tracer = Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    cli_argv = workloads.cli_args(args.workload, args.seed, args.R, args.out)
    tracer.call("import", importlib.import_module, "combsplit.cli")
    package = sys.modules["combsplit"]
    tracer.install(package)
    if cli_argv is None:
        pipeline = tracer.call("import", importlib.import_module, "pipeline")
        pipeline.write_outputs = tracer.wrap(pipeline.write_outputs, "bench.write_outputs")
        tracer.call("bench.run", pipeline.run, args.R, args.out)
        code = 0
    else:
        code = package.cli.main(cli_argv)
        tracer.counts["cli.bytes_out"] = bytes_written(args.out)
    end = tracer.clock()

    summary = tracer.summary(args.t0, end, per_layer_names())
    tracer.write_spans(args.spans, args.t0, end)
    args.summary.write_text(json.dumps(summary) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())

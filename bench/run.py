#!/usr/bin/env python3
"""The combsplit benchmark: time to a verified result, peak memory, set-up.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere in a source checkout; the program is imported from its
src/ directory.  One closed loop with one client: workload processes run
one after another, each a fresh interpreter timed from outside, for about
S seconds (at least three runs).  The outputs of the first run are checked
in full (bench/checks.py) and every later run must write the same bytes.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: wall_s (median
spawn-to-exit time of a workload process), peak_rss_mb (median peak RSS of
that process, from os.wait4 on its pid) and setup_s (median time for a
fresh interpreter to import combsplit.cli and exit).  --trace 1 alternates
untraced runs with runs of bench/spans.py and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 only when every output
checked out.  Everything is written under .bench_build/bench/ in the
checkout: per-run results with provenance, and the spans of the last traced
run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "combsplit"
WORK = ROOT / ".bench_build" / "bench"
PYTHON = sys.executable
MIN_CYCLES = 3  # untraced runs per series; with --trace 1, pairs of runs
SETUP_PER_CYCLE = 1  # set-up samples after each untraced run, so they spread over the series
DEADLINE_S = 160.0  # the whole benchmark process ends within 180 s
CHECK_TIMEOUT_S = 120.0
STARTED = time.perf_counter()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")  # the checkout's source, nothing else
    env["TMPDIR"] = str(WORK / "tmp")
    return env


def timed(cmd: list[str], log: Path) -> tuple[float, float, int]:
    """(wall seconds, peak RSS in MB, exit code) of one child process."""
    remaining = max(1.0, DEADLINE_S - (time.perf_counter() - STARTED))
    with open(log, "wb") as sink:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=sink, stderr=subprocess.STDOUT)
        killer = threading.Timer(remaining, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def tail(path: Path, lines: int = 8) -> str:
    return "\n".join(path.read_text(errors="replace").splitlines()[-lines:])


class Series:
    """Runs of one workload at one seed, with their checks."""

    def __init__(self, workload: str, seed: int, tmp: Path):
        self.workload, self.seed, self.tmp = workload, seed, tmp
        self.R = workloads.workload_R(workload, seed)
        self.runs: list[dict] = []
        self.reference: str | None = None  # output digest of the first run
        self.problems: list[str] = []  # of the first run's full check
        self.summaries: list[dict] = []  # of traced runs
        self.setup: list[float] = []  # set-up samples, with --trace 0

    def run(self, kind: str) -> dict:
        index = len(self.runs)
        out = self.tmp / f"{kind}-{index}"
        out.mkdir()
        log = self.tmp / f"{kind}-{index}.log"
        if kind == "plain":
            cmd = workloads.plain_command(PYTHON, BENCH, self.workload, self.seed, self.R, out)
        else:
            summary = self.tmp / f"summary-{index}.json"
            cmd = [PYTHON, str(BENCH / "spans.py"), "--workload", self.workload,
                   "--seed", str(self.seed), "--out", str(out), "--summary", str(summary),
                   "--spans", str(WORK / "traces" / f"{self.workload}-seed{self.seed}.jsonl")]
            if self.R is not None:
                cmd += ["--R", repr(self.R)]
            cmd += ["--t0", repr(time.perf_counter())]
        wall, rss, code = timed(cmd, log)
        record = {"kind": kind, "wall_s": wall, "peak_rss_mb": rss, "exit": code,
                  "digest": digest(out)}
        if code != 0:
            record["log"] = tail(log)
        elif kind == "traced":
            self.summaries.append(json.loads(summary.read_text()))
        if self.reference is None:
            self.reference = record["digest"]
            self.problems = self.check(out) if code == 0 else ["first run failed"]
        record["ok"] = code == 0 and record["digest"] == self.reference and not self.problems
        self.runs.append(record)
        shutil.rmtree(out)
        return record

    def check(self, out: Path) -> list[str]:
        cmd = [PYTHON, str(BENCH / "checks.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--out", str(out)]
        if self.R is not None:
            cmd += ["--R", repr(self.R)]
        done = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=CHECK_TIMEOUT_S)
        if done.returncode != 0:
            return [f"checker exited {done.returncode}: {done.stderr.strip()[-800:]}"]
        return json.loads(done.stdout.strip().splitlines()[-1])["problems"]

    def walls(self, kind: str) -> list[float]:
        return [r["wall_s"] for r in self.runs if r["kind"] == kind]


def measure(series: Series, seconds: float, traced: bool) -> None:
    """Cycles of runs for about `seconds`, at least MIN_CYCLES of them."""
    kinds = ("plain", "traced") if traced else ("plain",)
    start = time.perf_counter()
    cycles = 0
    while True:
        c0 = time.perf_counter()
        for kind in kinds:
            series.run(kind)
        if not traced:
            series.setup += setup_times(series.tmp, SETUP_PER_CYCLE)
        cycles += 1
        now = time.perf_counter()
        last = now - c0
        if now + last - STARTED > DEADLINE_S:
            return
        if cycles >= MIN_CYCLES and now + last - start > seconds:
            return


def setup_times(tmp: Path, count: int) -> list[float]:
    """Wall times of fresh interpreters that import combsplit.cli and exit."""
    samples = []
    for _ in range(count):
        wall, _, code = timed([PYTHON, "-c", "import combsplit.cli"], tmp / "setup.log")
        if code != 0:
            raise SystemExit(f"importing combsplit.cli failed:\n{tail(tmp / 'setup.log')}")
        samples.append(wall)
    return samples


def versions(tmp: Path) -> dict:
    """Import the program once (untimed, fills the bytecode cache) and
    confirm it is the checkout's copy."""
    probe = ("import json, sys, numpy, combsplit.cli as c; print(json.dumps("
             "{'package': c.__file__, 'numpy': numpy.__version__, 'python': sys.version}))")
    done = subprocess.run([PYTHON, "-c", probe], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=CHECK_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit(f"cannot import combsplit from {ROOT / 'src'}:\n{done.stderr}")
    found = json.loads(done.stdout)
    if Path(found.pop("package")).resolve().parent != PACKAGE.resolve():
        raise SystemExit("combsplit was imported from outside this checkout")
    return found


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return done.stdout.strip() if done.returncode == 0 else "unavailable (not a git checkout)"


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        h.update(str(path.relative_to(PACKAGE)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.4g}  q3 {q3:.4g}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    for needed in (PACKAGE / "__init__.py", ROOT / "BENCHMARK.json"):
        if not needed.is_file():
            print(f"error: {needed} is missing; run from a combsplit source checkout",
                  file=sys.stderr)
            return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    for sub in ("runs", "results", "traces", "tmp"):
        (WORK / sub).mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK / "runs"))
    try:
        provenance = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "git_sha": git_sha(), "source_sha256": source_sha256(),
                      "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
                      "platform": platform.platform(), "loadavg_before": loadavg()}
        provenance.update(versions(tmp))
        series = Series(args.workload, args.seed, tmp)
        provenance["R"] = series.R
        measure(series, args.seconds, bool(args.trace))
        provenance["loadavg_after"] = loadavg()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = len(series.runs)
    failed = sum(not r["ok"] for r in series.runs)
    plain = series.walls("plain")
    if args.trace:
        values = {"trace.overhead_s":
                  statistics.median(series.walls("traced")) - statistics.median(plain)}
        for m in spec["per_layer"]:
            if m["name"] not in values:
                got = [s["metrics"][m["name"]] for s in series.summaries]
                values[m["name"]] = statistics.median(got) if got else 0.0
    else:
        values = {
            "wall_s": statistics.median(plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in series.runs),
            "setup_s": statistics.median(series.setup),
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}

    mode = "traced and untraced, alternating" if args.trace else "tracing off"
    print(f"workload {args.workload}  seed {args.seed}  R {series.R}  "
          f"{attempted} runs ({mode})")
    if args.trace:
        print(f"untraced wall_s {quartiles(plain)}  traced wall_s "
              f"{quartiles(series.walls('traced'))}")
        for name, m in metrics.items():
            print(f"{name:42s} {m['value']:<14.6g} {m['unit']}")
        if series.summaries:
            print("uncovered self-time shares of the root span above 5% (last traced run):")
            for name, share in series.summaries[-1]["uncovered"]:
                print(f"  {name:40s} {share:.1%}")
    else:
        print(f"wall_s       {values['wall_s']:.4f} s   median of {len(plain)}  {quartiles(plain)}")
        print(f"peak_rss_mb  {values['peak_rss_mb']:.1f} MB  median of {attempted}")
        print(f"setup_s      {values['setup_s']:.4f} s   median of {len(series.setup)}  {quartiles(series.setup)}")
    print(f"failed_frac  {failed / attempted:g}   ({failed} of {attempted} runs failed a check)")
    for problem in series.problems:
        print(f"check failed: {problem}")
    for i, r in enumerate(series.runs):
        if r["exit"] != 0:
            print(f"run {i} exited {r['exit']}:\n{r['log']}")
        elif r["digest"] != series.reference:
            print(f"run {i}: outputs differ from the first run's")
    print(json.dumps({"provenance": provenance, "digest": series.reference}))

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = dict(result, provenance=provenance, runs=series.runs, setup_s=series.setup,
                  problems=series.problems, traced=series.summaries)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    (WORK / "results" / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

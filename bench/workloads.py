"""Workload definitions shared by the runner and the traced child.

This module imports neither numpy nor combsplit: the runner imports it, and
on Linux a child's peak RSS (ru_maxrss) starts from the size of the process
that spawned it, so the runner has to stay small.
"""

from __future__ import annotations

from pathlib import Path

WORKLOADS = ("verify_all", "twisted_pipeline", "split_csv")

# Base sizes of the workloads that take R.  Each seed shifts R up by less
# than 1%, so a claim can be rechecked on a seed unused during development.
BASE_R = {"twisted_pipeline": 1e5, "split_csv": 1e5}


def workload_R(name: str, seed: int) -> float | None:
    """R for a seeded run of a workload, or None when it takes no R."""
    base = BASE_R.get(name)
    if base is None:
        return None
    # multiplicative hash of the seed, folded to an offset in [0, 0.01)
    return base + base * ((seed * 2654435761) % 1000) / 100_000


def cli_args(name: str, seed: int, R: float | None, out: Path) -> list[str] | None:
    """Arguments of the `combsplit` command a workload runs, or None when
    the workload is the library pipeline instead."""
    if name == "verify_all":
        return ["verify", "--suite", "all", "--seed", str(seed),
                "--out", str(out / "report.json")]
    if name == "split_csv":
        return ["split", "--system", "twisted_fibonacci", "--R", repr(R),
                "--out", str(out)]
    if name == "twisted_pipeline":
        return None
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")


def plain_command(python: str, bench_dir: Path, name: str, seed: int,
                  R: float | None, out: Path) -> list[str]:
    """The untraced child process of one workload run."""
    args = cli_args(name, seed, R, out)
    if args is not None:
        return [python, "-m", "combsplit", *args]
    return [python, str(bench_dir / "pipeline.py"), "--R", repr(R), "--out", str(out)]

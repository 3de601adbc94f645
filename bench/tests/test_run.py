"""The runner refuses a directory without the program, and seeds move R
by less than 1%."""

import shutil
import subprocess
import sys
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent.parent


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "split_csv", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
    assert not (tmp_path / ".bench_build").exists()


def test_seed_offsets_stay_under_one_percent():
    for name, base in workloads.BASE_R.items():
        Rs = [workloads.workload_R(name, seed) for seed in range(2000)]
        assert all(base <= R < 1.01 * base for R in Rs)
        assert len(set(Rs)) > 100
        assert workloads.workload_R(name, 7) == workloads.workload_R(name, 7)
    assert workloads.workload_R("verify_all", 3) is None

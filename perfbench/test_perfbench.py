"""Tests of the benchmark itself: its gates must be able to fail.

Run with `python3 -m pytest perfbench -q` (about 15 s).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _copy_benchmark(dest):
    shutil.copytree(HERE, dest / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest)


def _run(cwd):
    cmd = [sys.executable, "perfbench/run.py", "--workload", "lift_fill", "--seed", "3",
           "--seconds", "1", "--trace", "0"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def test_wrong_expected_count_is_a_failed_item(tmp_path):
    _copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    workloads = tmp_path / "perfbench" / "workloads.py"
    text = workloads.read_text()
    assert '"free[1;1]/inner": 192,' in text
    workloads.write_text(text.replace('"free[1;1]/inner": 192,', '"free[1;1]/inner": 191,'))

    proc = _run(tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == 5
    assert "free[1;1]/inner: unfilled 0, maps 192 (expected 0, 191)" in proc.stdout
    ratio_line = next(line for line in proc.stdout.splitlines() if "failed_ratio" in line)
    assert float(ratio_line.split()[1]) > 0


def test_refuses_to_run_without_the_library_sources(tmp_path):
    _copy_benchmark(tmp_path)
    proc = _run(tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

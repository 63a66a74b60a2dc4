"""Smoke run of the benchmark: a package change that breaks a call the
benchmark makes fails here, before a full benchmark run."""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def test_train_detect_short_run_is_correct():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "train-detect", "--seed", "1",
         "--seconds", "0.1", "--trace", "0"],
        capture_output=True, text=True, timeout=300, cwd=RUN.parents[1],
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0

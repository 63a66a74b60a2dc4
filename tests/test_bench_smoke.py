"""Smoke run of the benchmark: a package change that breaks a call the
benchmark makes fails here, before a full benchmark run."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "1",
         "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=RUN.parents[1],
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    details, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert result["correct"] is True
    assert result["failed"] == 0
    return details["details"], result


@pytest.mark.parametrize("workload", ["train-detect", "train-long", "score-stream"])
def test_short_run_is_correct(workload):
    _run(workload, trace=0)


@pytest.mark.parametrize("workload", ["train-detect", "train-long", "score-stream"])
def test_traced_run_is_correct(workload):
    # a traced run requires the traced and untraced outputs to be bitwise
    # equal (on train-long, over 160 000-sample windows), and score-stream's
    # timed loop never to train
    details, result = _run(workload, trace=1)
    # layers the benchmark names but the package no longer defines: the
    # bank derivation runs in `WaveletNet.operands`, and each kernel gradient
    # inside the level op that makes its window copy. A rename that drops
    # another layer from the trace fails here.
    assert set(details["missing_layers"]) == {"network.bank_for_level",
                                              "wavelet.kernel_grad"}
    if workload == "score-stream":
        # a model derives its operands once: about one derivation per Adam step
        # of set-up's training and one per model, not two per scored window
        assert result["metrics"]["wavelet.cqf_from_scaling.calls"]["value"] <= 100

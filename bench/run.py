#!/usr/bin/env python3
"""Benchmark of the wavelearn package.

    python3 bench/run.py --workload train-detect --seed 1 --seconds 10 --trace 0

Runs one workload (see workloads.py) as a single-process, single-threaded
closed loop on inputs made from --seed, checks its outputs, and prints as the
last line of standard output one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. The line before it is a JSON object with
the run's details: environment, seed, tail percentiles, check results.

--trace 0 measures the end-to-end metrics listed in BENCHMARK.json.
--trace 1 runs set-up and a fixed number of loop units (sized to take about
half of a 10-second run on the seed code) with every traced layer wrapped,
replays the same work untraced, requires both to give bitwise equal outputs,
and reports the per-layer metrics and the tracing overhead.
--workload all runs every workload, each in its own process.

The exit code is 0 only when every check passed and no operation failed.
Spans and result files go to .bench_out/ at the repository root.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
BLOCK_S = 0.5
WORKLOAD_NAMES = ("train-detect", "train-long", "score-stream")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# environment


def _blas_threads():
    """Thread count reported by the OpenBLAS library loaded into this
    process, or None when it cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = "unknown"
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# runs


def timed_loop(workload, state, seconds: float | None = None, units: int | None = None):
    """Run units back to back: for `seconds` (and at least the workload's
    minimum), or exactly `units` of them."""
    done = []
    start = time.perf_counter()
    with workload.running():
        while True:
            if units is not None:
                if len(done) >= units:
                    break
            elif len(done) >= workload.min_units and time.perf_counter() - start >= seconds:
                break
            done.append(workload.unit(state, len(done)))
    return done


def fresh_dir(scratch: Path, name: str) -> Path:
    """A new empty directory for one set-up. Overwriting the previous
    set-up's files instead made train-long set-up several times slower and
    far noisier."""
    path = scratch / name
    path.mkdir()
    return path


def block_throughputs(units, block_s: float = BLOCK_S) -> list[float]:
    """Windows per second of each block of consecutive units lasting at least
    `block_s`. A short last block is dropped unless it is the only one. The
    median of these resists the bursts of a shared machine better than the
    overall mean."""
    rates, windows, seconds = [], 0, 0.0
    for unit in units:
        windows += unit.windows
        seconds += unit.seconds
        if seconds >= block_s:
            rates.append(windows / seconds)
            windows, seconds = 0, 0.0
    if not rates:
        rates.append(windows / seconds)
    return rates


def outputs_digest(workload, setup_digest: str, units) -> str:
    from workloads import Digest

    digest = Digest().add(setup_digest)
    for unit in units:
        workload.unit_digest(digest, unit)
    return digest.hexdigest()


def run_untraced(workload, seed: int, seconds: float, scratch: Path):
    from stats import summarize

    setup_s, digests, state = [], [], None
    for i in range(workload.setup_repeats):
        state = None  # release the previous set-up before building the next
        start = time.perf_counter()
        state = workload.setup(seed, fresh_dir(scratch, f"setup-{i}"))
        setup_s.append(time.perf_counter() - start)
        digests.append(workload.setup_digest(state))
    units = timed_loop(workload, state, seconds=seconds)
    problems, summary = workload.check(state, units)
    if len(set(digests)) != 1:
        problems.append("repeated set-ups gave different outputs")

    op = summarize([t for u in units for t in u.op_ms])
    block_rates = block_throughputs(units)
    windows_per_s = statistics.median(block_rates)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "windows_per_s": (windows_per_s, "1/s"),
        "op_ms_p50": (op["p50"] if op["p50"] is not None else 0.0, "ms"),
    }
    names = workload.metric_names
    named = {names["windows_per_s"]: {"value": windows_per_s, "unit": "1/s",
                                      "blocks": len(block_rates)}}
    for pct, value in ((50, op["p50"]), (90, op["p90"]), (op["tail_percentile"], op["tail"])):
        if value is not None:  # a percentile needs ten samples beyond it
            named[f"{names['op']}_p{pct:g}"] = {"value": value, "unit": "ms",
                                                "samples": op["samples"]}
    details = {
        "named_metrics": named,
        "setup_s_each": setup_s,
        "units": len(units),
        "checks": summary,
    }
    return units, problems, metrics, details


def run_traced(workload, seed: int, scratch: Path):
    """Set-up and a fixed number of loop units with every layer traced, then
    the same work untraced. The work is fixed, not timed, so that per-layer
    counts repeat exactly from run to run and from commit to commit."""
    from tracer import Tracer
    from workloads import LAYERS, PRIMITIVES

    tracer = Tracer(LAYERS)
    start = time.perf_counter()
    with tracer:
        state = workload.setup(seed, fresh_dir(scratch, "traced"))
        tracer.mark()
        units = timed_loop(workload, state, units=workload.trace_units)
    traced_wall = time.perf_counter() - start
    problems, summary = workload.check(state, units)
    traced_digest = outputs_digest(workload, workload.setup_digest(state), units)

    state = None
    start = time.perf_counter()
    replay_state = workload.setup(seed, fresh_dir(scratch, "untraced"))
    replay = timed_loop(workload, replay_state, units=len(units))
    untraced_wall = time.perf_counter() - start
    replay_digest = outputs_digest(workload, workload.setup_digest(replay_state), replay)
    if traced_digest != replay_digest:
        problems.append("traced and untraced runs gave different outputs")
    for name in workload.loop_never_calls:
        if tracer.calls_since_mark(name):
            problems.append(f"the timed loop called {name}")

    trace_file = OUT_DIR / f"trace-{workload.name}.npz"
    tracer.write(trace_file)
    totals = tracer.totals()
    metrics = {}
    for name, total in totals.items():
        metrics[f"{name}.calls"] = (total["calls"], "count")
        metrics[f"{name}.self_ms"] = (total["self_ms"], "ms")
    macs = sum(totals[p]["macs"] for p in PRIMITIVES)
    primitive_s = sum(totals[p]["self_ms"] for p in PRIMITIVES) / 1e3
    metrics["wavelet.mflop_per_s"] = (2 * macs / 1e6 / primitive_s if primitive_s else 0.0,
                                      "Mflop/s")
    windows = sum(u.windows for u in units)
    metrics["network.bank_derivations_per_window"] = (
        tracer.calls_since_mark("network.bank_for_level") / windows, "calls/window")
    metrics["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    details = {
        "traced_wall_s": traced_wall,
        "untraced_wall_s": untraced_wall,
        "outputs_sha256": {"traced": traced_digest, "untraced": replay_digest},
        "mflop_basis": "computed from array sizes: 2 flops per multiply-add of "
                       "strided_corr, upsample_conv and kernel_grad, over their self time",
        "primitive_mflop": 2 * macs / 1e6,
        "missing_layers": tracer.missing,
        "spans": int(sum(t["calls"] for t in totals.values())),
        "trace_file": str(trace_file.relative_to(ROOT)),
        "units": len(units),
        "checks": summary,
    }
    return units, problems, metrics, details


def run_one(args) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "wavelearn" / "__init__.py").is_file():
        print(f"bench: no wavelearn package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import wavelearn

    if Path(wavelearn.__file__).resolve().parent != (SRC / "wavelearn").resolve():
        print(f"bench: imported wavelearn from {wavelearn.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS, CheckFailed

    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
            if args.trace:
                units, problems, metrics, details = run_traced(workload, args.seed, Path(tmp))
            else:
                units, problems, metrics, details = run_untraced(
                    workload, args.seed, args.seconds, Path(tmp))
    except CheckFailed as exc:
        print(f"CHECK FAILED in set-up: {exc}", file=sys.stderr)
        return 1

    attempted = sum(u.ops for u in units)
    failed = sum(u.failed for u in units)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    details = {"workload": workload.name, "why": workload.why, "trace": args.trace,
               "seconds": args.seconds, "environment": environment(args.seed),
               "config": workload.describe(), "problems": problems[:20], **details}
    for name, (value, unit) in metrics.items():
        print(f"{workload.name:13s} {name:42s} {value:14.6g} {unit}")
    for name, named in details.get("named_metrics", {}).items():
        extra = ", ".join(f"{k} {v}" for k, v in named.items() if k not in ("value", "unit"))
        print(f"{workload.name:13s} {name:42s} {named['value']:14.6g} {named['unit']} ({extra})")
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    (OUT_DIR / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"details": details, "result": result}, indent=1))
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0 if result["correct"] and failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS belongs to one workload."""
    status, combined = 0, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-2]:
            print(line)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            status = 1
        if not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        print("bench: --seconds must be positive and --seed non-negative", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())

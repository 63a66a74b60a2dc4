"""Percentiles as the benchmark reports them."""

from __future__ import annotations

import numpy as np

TAIL_CANDIDATES = (90.0, 99.0, 99.9)
MIN_BEYOND = 10


def beyond(percentile: float, samples: int) -> int:
    """How many of `samples` values lie above the given percentile."""
    return int(np.floor(samples * (100.0 - percentile) / 100.0 + 1e-9))


def tail_percentile(samples: int, candidates=TAIL_CANDIDATES) -> float | None:
    """The highest candidate percentile with at least ten samples beyond it,
    or None when even the lowest has fewer."""
    usable = [p for p in candidates if beyond(p, samples) >= MIN_BEYOND]
    return max(usable) if usable else None


def summarize(values_ms) -> dict:
    """Median, p90 and the tail percentile of a list of timings in ms, with
    the sample count. A percentile without ten samples beyond it is None."""
    values = np.asarray(values_ms, dtype=float)
    n = values.size
    tail = tail_percentile(n)
    return {
        "samples": n,
        "p50": float(np.percentile(values, 50)) if n else None,
        "p90": float(np.percentile(values, 90)) if beyond(90.0, n) >= MIN_BEYOND else None,
        "tail_percentile": tail,
        "tail": float(np.percentile(values, tail)) if tail is not None else None,
    }

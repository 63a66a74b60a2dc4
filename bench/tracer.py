"""Span tracer that times calls into the wavelearn package from outside it.

`Patch` rebinds every reference to a function inside the package: the
defining module's name, each name another module imported with
`from .x import f` (`network.strided_corr`, `training.forward_trace`,
`analysis.model_forward`, ...), the re-export in `wavelearn/__init__` and
class attributes such as `WaveletNet.bank_for_level`. `restore` puts the
originals back in reverse order, so patches nest.

`Tracer` wraps the layers it is given. Each call records one span (layer,
parent span, start, end) in growing column arrays; nothing is aggregated
while the program runs. Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

PACKAGE = "wavelearn"


def _package_modules(package: str):
    for name, module in list(sys.modules.items()):
        if module is not None and (name == package or name.startswith(package + ".")):
            yield module


class Patch:
    """Rebinds every reference to a function inside one package."""

    def __init__(self, package: str = PACKAGE):
        self.package = package
        self._saved: list[tuple[object, str, object]] = []

    def holders(self):
        """The package's modules and the classes they define."""
        for module in _package_modules(self.package):
            yield module
            for value in list(vars(module).values()):
                if inspect.isclass(value) and value.__module__ == module.__name__:
                    yield value

    def replace(self, original, replacement) -> int:
        """Rebind each name bound to `original`; returns how many there were."""
        count = 0
        for holder in self.holders():
            for name, value in list(vars(holder).items()):
                if value is original:
                    self._saved.append((holder, name, original))
                    setattr(holder, name, replacement)
                    count += 1
        return count

    def restore(self) -> None:
        while self._saved:
            holder, name, original = self._saved.pop()
            setattr(holder, name, original)


def resolve(package: str, module_name: str, attr_path: str):
    """The object at `<package>.<module_name>.<attr_path>`, or None."""
    obj = sys.modules.get(f"{package}.{module_name}")
    for part in attr_path.split("."):
        if obj is None:
            return None
        obj = vars(obj).get(part) if hasattr(obj, "__dict__") else None
    return obj


@dataclass(frozen=True)
class Layer:
    """One traced function: metric name, where it is defined, and an
    optional count of multiply-adds computed from the call's array sizes."""

    name: str
    module: str
    attr: str
    macs: Callable | None = None


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Per-span self time: duration minus the summed durations of the spans
    whose parent it is. `parent` holds -1 for root spans."""
    duration = end - start
    has_parent = parent >= 0
    children = np.bincount(parent[has_parent], weights=duration[has_parent],
                           minlength=duration.size)
    return duration - children


class Tracer:
    """Wraps layers, records spans in memory, and reports per-layer totals."""

    def __init__(self, layers: list[Layer], package: str = PACKAGE):
        self.layers = list(layers)
        self.package = package
        self.missing: list[str] = []
        self._patch = Patch(package)
        self._layer = array("i")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self._macs = [0] * len(self.layers)
        self._mark = 0

    # -- installation ---------------------------------------------------------

    def _wrap(self, index: int, fn, macs):
        layer_col, parent_col = self._layer, self._parent
        start_col, end_col = self._start, self._end
        stack, totals = self._stack, self._macs
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if macs is not None:
                totals[index] += macs(*args, **kwargs)
            span = len(start_col)
            layer_col.append(index)
            parent_col.append(stack[-1])
            end_col.append(0.0)
            stack.append(span)
            start_col.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end_col[span] = clock()
                stack.pop()

        return traced

    def install(self) -> "Tracer":
        for index, layer in enumerate(self.layers):
            fn = resolve(self.package, layer.module, layer.attr)
            if fn is None or self._patch.replace(fn, self._wrap(index, fn, layer.macs)) == 0:
                self.missing.append(layer.name)
        return self

    def remove(self) -> None:
        self._patch.restore()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()

    def mark(self) -> None:
        """Remember where a phase starts, for `calls_since_mark`."""
        self._mark = len(self._start)

    # -- results --------------------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "layer": np.frombuffer(self._layer, dtype=np.int32).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
        }

    def totals(self) -> dict[str, dict[str, float]]:
        """Calls, self milliseconds and multiply-adds per layer."""
        cols = self.columns()
        own = self_times(cols["parent"], cols["start"], cols["end"])
        n = len(self.layers)
        calls = np.bincount(cols["layer"], minlength=n)
        self_ms = np.bincount(cols["layer"], weights=own, minlength=n) * 1e3
        return {
            lay.name: {"calls": int(calls[i]), "self_ms": float(self_ms[i]),
                       "macs": self._macs[i]}
            for i, lay in enumerate(self.layers)
        }

    def calls_since_mark(self, name: str) -> int:
        """Calls of one layer opened after the last `mark()`."""
        index = [lay.name for lay in self.layers].index(name)
        return int(np.count_nonzero(self.columns()["layer"][self._mark:] == index))

    def write(self, path: Path) -> None:
        """Write every span (and the layer names) to an .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array([lay.name for lay in self.layers]),
                 **self.columns())

"""Smoke test of `tools/outputs.py`: its grid is deterministic on one tree,
and its comparison sees a move of one array."""

import importlib.util
import math
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("outputs", ROOT / "tools" / "outputs.py")
outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(outputs)


def test_grid_twice_on_one_tree_is_bitwise_equal():
    first, second = (outputs.collect(ROOT) for _ in range(2))
    rows = outputs.compare(first, second)
    assert [group for group, *_ in rows] == list(outputs.GROUPS)
    for group, arrays, equal, worst in rows:
        assert arrays > 0 and equal == arrays and worst == 0.0, group
    assert "| trace |" in outputs.table(rows)


def test_a_moved_or_missing_array_is_counted():
    base = {"trace/a": np.array([2.0, -4.0]), "trace/b": np.ones(3), "train/c": np.zeros(2)}
    head = dict(base, **{"trace/a": np.array([2.0, -4.0 + 2.0 ** -40])})
    del head["train/c"]
    rows = {group: rest for group, *rest in outputs.compare(base, head)}
    assert rows["trace"] == [2, 1, 2.0 ** -42]
    assert rows["train"] == [1, 0, math.inf]
    assert rows["backward"] == rows["read"] == [0, 0, 0.0]

"""The names the benchmark under ``perfbench/`` wraps or patches in scdkit.

The tracer looks every name up in its owner's ``__dict__`` (a module's
globals or a class body), so a deleted or moved function makes every traced
run fail. This test resolves the same names the same way.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracing import FUNCTIONS  # noqa: E402

# patched by tracing.Clock, tracing.Tracer, harness.PeakMemory and oracles.py
PATCHED = [
    ("tensor", "_record"),
    ("nn", "Module.__call__"),
    ("model", "ChangeDetectionModel.forward_losses"),
    ("model", "ChangeDetectionModel.predict"),
    ("model", "ChangeDetectionModel._heads"),
    ("optim", "Adam.step"),
    ("optim", "rotate_gradients"),
    ("train", "evaluate"),
    ("metrics", "ConfusionMatrix.accumulate"),
    ("graphproto", "median_sigma"),
    ("graphproto", "pool_confidence"),
]


def _missing(names):
    missing = []
    for layer, path in names:
        owner = importlib.import_module(f"scdkit.{layer}")
        *cls, attr = path.split(".")
        if cls:
            owner = vars(owner).get(cls[0])
        if owner is None or not callable(vars(owner).get(attr)):
            missing.append(f"{layer}.{path}")
    return missing


@pytest.mark.parametrize("names", [FUNCTIONS, PATCHED], ids=["traced", "patched"])
def test_benchmark_names_resolve(names):
    assert _missing(names) == []

"""The benchmark under ``perfbench/``: the names it wraps or patches in
scdkit, and the shape of its output.

The tracer looks every name up in its owner's ``__dict__`` (a module's
globals or a class body), so a deleted or moved function makes every traced
run fail. The first test resolves the same names the same way. The second
runs ``perfbench/run.py`` on a copy of the tree and checks that its last
output line is the strict-JSON result.
"""

import importlib
import json
import math
import os
import shutil
import subprocess
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


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.fixture(scope="module")
def bench_copy(tmp_path_factory):
    """A fresh checkout of ``src/`` and ``perfbench/`` without past outputs."""
    root = Path(__file__).resolve().parents[1]
    dest = tmp_path_factory.mktemp("bench")
    shutil.copytree(root / "src", dest / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(root / "perfbench", dest / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    return dest


@pytest.mark.parametrize("workload", ["train_64", "eval_64"])
def test_result_is_the_last_output_line(bench_copy, workload):
    # a benchmark runner reads the last line of stdout and stderr merged; text
    # written at interpreter shutdown (finalizers, atexit hooks, "Exception
    # ignored" reports) or a NaN in the JSON would make it unreadable
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", "0"],
        cwd=bench_copy, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, timeout=300)
    out = proc.stdout
    assert proc.returncode == 0, out
    assert "Traceback" not in out and "Exception ignored" not in out, out
    result = json.loads(out.splitlines()[-1], parse_constant=_reject_constant)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["correct"], bool)
    assert isinstance(result["attempted"], int) and isinstance(result["failed"], int)
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name

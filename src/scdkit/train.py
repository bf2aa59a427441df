"""Training and evaluation loops with per-run artifacts.

Each run directory collects the echoed config, a per-epoch CSV, the final
report, and the checkpoint (model + prototype bank + optimizer state). When
both the uncertainty merge and the graph loss are active, the two losses
backpropagate separately, the shared (encoder) gradients are conflict
projected as flattened vectors, and only then does Adam see the combined
gradient. A non-finite loss aborts the run; the last end-of-epoch
checkpoint on disk is the recovery point. ``report.txt`` also records the
python, numpy and BLAS versions and ``OPENBLAS_NUM_THREADS``, since
checkpoint bytes depend on them; ``history.csv`` and the checkpoint do not.

Memory: a step's autodiff graph (every intermediate array, im2col buffer
and backward closure) is released when the step returns its loss floats,
so the next forward starts from an empty heap rather than on top of the
previous graph. Freeing tens to hundreds of MiB per step makes glibc trim
the heap top and unmap large blocks, and the next forward faults all of it
back in page by page (thousands of minor faults per step, a slower step).
``train_model`` therefore raises glibc's trim threshold to 1 GiB and fixes
its mmap threshold at 32 MiB, once per process, so freed memory is kept
for reuse; elsewhere it changes nothing.
"""

from __future__ import annotations

import ctypes
import functools
import os
import platform
import time

import numpy as np

from . import optim, serialize
from . import tensor as T
from .data import Sample, collate
from .errors import NumericError
from .metrics import ConfusionMatrix, scores, write_report
from .model import ChangeDetectionModel

__all__ = ["train_model", "evaluate", "CSV_COLUMNS"]

CSV_COLUMNS = ("epoch", "lr", "loss_ss", "loss_cd", "loss_cpa", "loss_merge",
               "oa", "miou", "sek", "f_scd")


def _batches(n: int, batch_size: int, order: np.ndarray):
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


def evaluate(model: ChangeDetectionModel, samples: list[Sample],
             batch_size: int = 8) -> dict[str, float]:
    """Accumulate the confusion matrix over the dataset and score it."""
    model.eval()
    cm = ConfusionMatrix(model.config.n_classes)
    for idx in _batches(len(samples), batch_size, np.arange(len(samples))):
        t1, t2, y1, y2, cd = collate([samples[i] for i in idx])
        p1, p2, pcd = model.predict(t1, t2)
        cm.accumulate(p1, p2, y1, y2, pcd, cd)
    return scores(cm)


_LOSS_KEYS = ("loss_ss", "loss_cd", "loss_cpa", "loss_merge")
# mallopt parameters from glibc's <malloc.h>
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


@functools.cache
def _keep_freed_memory() -> None:
    """Stop glibc from returning freed step graphs to the OS (see above)."""
    if platform.libc_ver()[0] != "glibc":
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except AttributeError:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)


def _environment() -> dict[str, str]:
    """The interpreter, numpy and BLAS set-up that produced a run's bytes."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.25 has no mode="dicts"
        blas_id = "unknown"
    return {"env.python": platform.python_version(), "env.numpy": np.__version__,
            "env.blas": blas_id,
            "env.openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset")}


def _combined_step(model: ChangeDetectionModel, losses: dict) -> None:
    """Backward passes + gradient rotation; leaves combined grads on params.

    Without the uncertainty merge, or with a constant ``loss_cpa`` (graph
    branch ablated, or a cold bank with nothing to compare), one backward of
    merge + cpa gives the combined gradient. Otherwise each loss
    backpropagates on its own and the shared gradients are rotated.
    """
    model.zero_grad()
    if model.uncertainty is None or not losses["loss_cpa"].requires_grad:
        T.backward(T.add(losses["loss_merge"], losses["loss_cpa"]))
        return

    # every other parameter takes its gradient from exactly one of the two
    # losses, so only the shared ones need a copy between the passes
    shared = model.shared_parameters()
    T.backward(losses["loss_cpa"])
    g_cpa = optim.flatten_arrays([p.grad for p in shared])
    for p in shared:
        p.zero_grad()
    T.backward(losses["loss_merge"])

    g_merge = [p.grad for p in shared]
    rot_a, rot_b = optim.rotate_gradients(optim.flatten_arrays(g_merge), g_cpa)
    for p, g in zip(shared, optim.unflatten_vector(rot_a + rot_b, g_merge)):
        p.grad[...] = g


def _train_step(model: ChangeDetectionModel, adam: optim.Adam, batch) -> dict[str, float]:
    """One optimizer step; the graph dies on return, only floats leave."""
    losses = model.forward_losses(*batch)
    _combined_step(model, losses)
    adam.step()
    return {key: losses[key].item() for key in _LOSS_KEYS}


def _checkpoint_payload(model, adam, names, epoch) -> dict[str, np.ndarray]:
    state = model.checkpoint_state()
    state.update(adam.state(names))
    state["progress.epoch"] = np.asarray(float(epoch))
    return state


def train_model(model: ChangeDetectionModel, samples: list[Sample], *,
                epochs: int, batch_size: int, lr: float, seed: int,
                run_dir: str | None = None, eval_every: int = 1,
                log=None) -> dict:
    """Train in place; returns history rows and final metrics.

    ``eval_every`` spaces out the metric computations (losses are logged
    every epoch regardless); the final epoch always evaluates.
    """
    _keep_freed_memory()
    if run_dir is not None:
        os.makedirs(run_dir, exist_ok=True)
    adam = optim.Adam(model.parameters(), lr=lr)
    param_names = [name for name, _ in model.named_parameters()]
    history: list[dict] = []
    csv_path = os.path.join(run_dir, "history.csv") if run_dir else None
    if csv_path:
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write(",".join(CSV_COLUMNS) + "\n")

    t_start = time.monotonic()
    for epoch in range(epochs):
        adam.lr = optim.cosine_lr(lr, epoch, epochs)
        order = np.random.default_rng([seed, epoch]).permutation(len(samples))
        model.train()
        sums = dict.fromkeys(_LOSS_KEYS, 0.0)
        n_batches = 0
        try:
            for idx in _batches(len(samples), batch_size, order):
                step = _train_step(model, adam, collate([samples[i] for i in idx]))
                for key in sums:
                    sums[key] += step[key]
                n_batches += 1
        except NumericError as exc:
            if run_dir:
                write_report(os.path.join(run_dir, "report.txt"), {
                    "status": "aborted", "epoch": epoch, "error": str(exc),
                    **_environment(),
                })
            raise

        row = {"epoch": epoch, "lr": adam.lr}
        row.update({k: v / n_batches for k, v in sums.items()})
        if (epoch % eval_every == 0) or epoch == epochs - 1:
            row.update(evaluate(model, samples, batch_size=batch_size))
        else:
            row.update({"oa": "", "miou": "", "sek": "", "f_scd": ""})
        history.append(row)
        if log is not None:
            log(f"epoch {epoch}: " + " ".join(
                f"{k}={row[k]:.5f}" for k in ("loss_ss", "loss_cd", "loss_cpa")))
        if csv_path:
            with open(csv_path, "a", encoding="utf-8") as fh:
                fh.write(",".join(_csv_cell(row[c]) for c in CSV_COLUMNS) + "\n")
        if run_dir:
            serialize.save_checkpoint(
                os.path.join(run_dir, "checkpoint.gckpt"),
                _checkpoint_payload(model, adam, param_names, epoch))

    final = {k: v for k, v in history[-1].items() if k in ("oa", "miou", "sek", "f_scd")}
    final.update({"epochs": epochs, "status": "ok",
                  "wall_seconds": round(time.monotonic() - t_start, 3)})
    if run_dir:
        write_report(os.path.join(run_dir, "report.txt"), {**final, **_environment()})
    return {"history": history, "final": final}


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)

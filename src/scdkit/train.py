"""Training and evaluation loops with per-run artifacts.

Each run directory collects the echoed config, a per-epoch CSV, the final
report, and the checkpoint (model + prototype bank + optimizer state). When
both the uncertainty merge and the graph loss are active, the two losses
backpropagate separately, the shared (encoder) gradients are conflict
projected as flattened vectors, and only then does Adam see the combined
gradient. A non-finite loss aborts the run; the last end-of-epoch
checkpoint on disk is the recovery point.
"""

from __future__ import annotations

import os
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

    params = model.parameters()
    shared = model.shared_parameters()
    T.backward(losses["loss_merge"])
    g_merge = {id(p): p.grad.copy() for p in params}
    model.zero_grad()
    T.backward(losses["loss_cpa"])

    shared_merge = [g_merge[id(p)] for p in shared]
    rot_a, rot_b = optim.rotate_gradients(
        optim.flatten_arrays(shared_merge),
        optim.flatten_arrays([p.grad for p in shared]))
    for p in params:
        p.grad += g_merge[id(p)]
    for p, g in zip(shared, optim.unflatten_vector(rot_a + rot_b, shared_merge)):
        p.grad[...] = g


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
        sums = {"loss_ss": 0.0, "loss_cd": 0.0, "loss_cpa": 0.0, "loss_merge": 0.0}
        n_batches = 0
        try:
            for idx in _batches(len(samples), batch_size, order):
                t1, t2, y1, y2, cd = collate([samples[i] for i in idx])
                losses = model.forward_losses(t1, t2, y1, y2, cd)
                _combined_step(model, losses)
                adam.step()
                for key in sums:
                    sums[key] += losses[key].item()
                n_batches += 1
        except NumericError as exc:
            if run_dir:
                write_report(os.path.join(run_dir, "report.txt"), {
                    "status": "aborted", "epoch": epoch, "error": str(exc),
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
        write_report(os.path.join(run_dir, "report.txt"), final)
    return {"history": history, "final": final}


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)

"""Correctness checks made apart from the program.

Each check compares scdkit against a computation written here or against a
property the method must have, never against stored output. Every check
returns a short dict (what was compared and the worst deviation) and raises
:class:`CheckFailed` when the comparison fails.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from scdkit import graphproto, optim, serialize
from scdkit import model as model_mod
from scdkit import tensor as T
from scdkit.data import collate
from scdkit.model import ChangeDetectionModel

from tracing import Patches

# Central-difference step and agreement bound for directional derivatives:
# |fd - ad| <= FD_RTOL * max(|fd|, |ad|) + LOSS_ROUNDOFF * max(|loss|, 1) / FD_STEP.
# The second term is the round-off of a loss summed from O(1) terms over a
# whole batch (well above one ulp; loss_cpa averages differences of cosines,
# so its round-off does not shrink with its value), divided by the step. It
# matters only when the derivative is tiny, as loss_cpa's often is.
# Truncation error, about FD_STEP**2, sits far below both.
FD_STEP = 1e-6
FD_RTOL = 1e-5
LOSS_ROUNDOFF = 1e-14
# Logits of one pair scored alone and inside a batch may differ by BLAS
# blocking at this level; an argmax may differ only where the two best
# logits are closer than this.
TIE_TOL = 1e-9


class CheckFailed(AssertionError):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# training runs
# ---------------------------------------------------------------------------

def check_history(history: list[dict], final: dict) -> None:
    """Every logged loss is finite and the run finished with status ok."""
    require(final.get("status") == "ok", f"run status {final.get('status')!r}")
    for row in history:
        for key in ("loss_ss", "loss_cd", "loss_cpa", "loss_merge"):
            require(math.isfinite(row[key]), f"epoch {row['epoch']}: {key}={row[key]}")


def check_checkpoint_predicts(model: ChangeDetectionModel, path: str, batch) -> dict:
    """A model rebuilt from ``path`` predicts the same maps as ``model``."""
    rebuilt = ChangeDetectionModel.from_checkpoint_state(serialize.load_checkpoint(path))
    model.eval()
    rebuilt.eval()
    t1, t2 = batch[0], batch[1]
    for name, a, b in zip(("sem_t1", "sem_t2", "change"),
                          model.predict(t1, t2), rebuilt.predict(t1, t2)):
        require(np.array_equal(a, b), f"checkpoint round trip changes the {name} map")
    return {"pairs": int(t1.shape[0])}


class RotationOracle:
    """Checks every ``optim.rotate_gradients`` call against a projection
    computed here: with a conflict (negative dot product, neither vector
    zero) each output is its input minus the least-squares projection onto
    the other original input; otherwise the inputs pass through unchanged."""

    def __init__(self):
        self.calls = 0
        self.conflicts = 0
        self.worst = 0.0

    def _check(self, a: np.ndarray, b: np.ndarray, ra: np.ndarray, rb: np.ndarray) -> None:
        self.calls += 1
        dot = math.fsum(a * b)
        if abs(dot) <= 1e-12 * np.linalg.norm(a) * np.linalg.norm(b):
            return  # the sign of the dot product is round-off; either branch is right
        if dot > 0.0:
            require(np.array_equal(ra, a) and np.array_equal(rb, b),
                    "rotate_gradients changed a non-conflicting pair")
            return
        self.conflicts += 1
        for got, x, y in ((ra, a, b), (rb, b, a)):
            coef, *_ = np.linalg.lstsq(y[:, None], x, rcond=None)
            want = x - coef[0] * y
            dev = float(np.max(np.abs(got - want)) / np.max(np.abs(x)))
            self.worst = max(self.worst, dev)
            require(dev <= 1e-10, f"rotated gradient deviates from the projection by {dev:.3e}")
            ortho = abs(float(got @ y)) / (np.linalg.norm(got) * np.linalg.norm(y) + 1e-300)
            require(ortho <= 1e-10, f"rotated gradient not orthogonal ({ortho:.3e})")

    @contextlib.contextmanager
    def installed(self):
        patches = Patches()
        rotate = optim.rotate_gradients

        def checked(g_a, g_b):
            a = np.array(g_a, dtype=np.float64)
            b = np.array(g_b, dtype=np.float64)
            ra, rb = rotate(g_a, g_b)
            self._check(a, b, np.asarray(ra), np.asarray(rb))
            return ra, rb

        patches.set(optim, "rotate_gradients", checked)
        try:
            yield self
        finally:
            patches.restore()

    def summary(self) -> dict:
        return {"calls": self.calls, "conflicts": self.conflicts,
                "max_dev": self.worst}


@contextlib.contextmanager
def _frozen_constants(record: list | None, replay: list | None):
    """Hold the values the method treats as constants fixed across forwards.

    ``median_sigma`` (the kernel width) and ``pool_confidence`` (the
    detached class confidences) depend on the parameters, but the autodiff
    graph treats them as constants; a finite difference must too.
    """
    patches = Patches()
    originals = {"median_sigma": graphproto.median_sigma,
                 "pool_confidence": graphproto.pool_confidence}
    position = {"i": 0}

    def make(fn):
        def frozen(*args, **kwargs):
            if replay is not None:
                value = replay[position["i"]]
                position["i"] += 1
                return value
            value = fn(*args, **kwargs)
            record.append(value)
            return value
        return frozen

    patches.replace_everywhere(originals["median_sigma"], make(originals["median_sigma"]))
    patches.replace_everywhere(originals["pool_confidence"],
                               make(originals["pool_confidence"]))
    try:
        yield
    finally:
        patches.restore()


def check_directional_derivative(model: ChangeDetectionModel, batch, rng) -> dict:
    """Central difference of ``loss_merge`` and ``loss_cpa`` along a random
    unit direction in parameter space against the directional derivative
    that ``tensor.backward`` gives, in training mode at the batch's shape.

    Model state (parameters, batch-norm statistics, prototype bank) is
    restored before every forward and after the check.
    """
    model.train()
    state = model.checkpoint_state()
    params = model.parameters()
    direction = [rng.standard_normal(p.shape) for p in params]
    norm = math.sqrt(sum(float(np.sum(d * d)) for d in direction))
    direction = [d / norm for d in direction]

    constants: list = []
    with _frozen_constants(constants, None):
        losses = model.forward_losses(*batch)
    names = ["loss_merge"] + (["loss_cpa"] if losses["loss_cpa"].requires_grad else [])
    analytic = {}
    for name in names:
        model.zero_grad()
        T.backward(losses[name])
        analytic[name] = math.fsum(float(np.sum(p.grad * d))
                                   for p, d in zip(params, direction))

    values = {}
    for sign in (1.0, -1.0):
        model.load_checkpoint_state(state)
        for p, d in zip(params, direction):
            p.data += sign * FD_STEP * d
        with _frozen_constants(None, constants):
            out = model.forward_losses(*batch)
        values[sign] = {name: out[name].item() for name in names}
    base = {name: losses[name].item() for name in names}
    model.load_checkpoint_state(state)
    model.zero_grad()

    result = {}
    for name in names:
        fd = (values[1.0][name] - values[-1.0][name]) / (2.0 * FD_STEP)
        ad = analytic[name]
        require(math.isfinite(fd) and math.isfinite(ad), f"{name}: non-finite derivative")
        allowed = (FD_RTOL * max(abs(fd), abs(ad))
                   + LOSS_ROUNDOFF * max(abs(base[name]), 1.0) / FD_STEP)
        require(abs(fd - ad) <= allowed, f"{name}: finite difference {fd!r} vs backward "
                                         f"{ad!r} (allowed {allowed:.2e})")
        result[name] = {"backward": ad, "central_difference": fd, "loss": base[name],
                        "abs_err": abs(fd - ad), "allowed": allowed}
    return result


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def captured_predictions(model: ChangeDetectionModel):
    """Record, per ``predict`` call, its maps and the logits behind them.

    ``predict`` returns only argmax maps, so the logits are taken from the
    model's ``_heads`` call, the one ``predict`` takes its maps from.
    """
    calls: list[dict] = []
    heads = model._heads

    def capture_heads(t1, t2):
        out = heads(t1, t2)
        calls.append({"logits": (out[3][0].data, out[3][1].data, out[4].data)})
        return out

    predict = model_mod.ChangeDetectionModel.predict

    def capture_predict(self, t1, t2):
        maps = predict(self, t1, t2)
        if self is model:
            calls[-1]["maps"] = maps
        return maps

    patches = Patches()
    model._heads = capture_heads
    patches.set(model_mod.ChangeDetectionModel, "predict", capture_predict)
    try:
        yield calls
    finally:
        patches.restore()
        del model._heads


def _codes(sem: np.ndarray, changed: np.ndarray) -> np.ndarray:
    # 0 where unchanged, semantic id + 1 where changed
    return np.where(changed.astype(bool), sem.astype(np.int64) + 1, 0)


def recount_scores(samples, maps_per_batch, batch_size: int, n_classes: int) -> dict:
    """Confusion matrix counted pixel by pixel with ``np.add.at`` and the
    four scores from their textbook formulas (criterion 7 style)."""
    k = n_classes + 1
    m = np.zeros((k, k), dtype=np.int64)
    for b, maps in enumerate(maps_per_batch):
        chunk = samples[b * batch_size:(b + 1) * batch_size]
        y1, y2, cd = (np.stack([getattr(s, part) for s in chunk]) for part in ("y1", "y2", "cd"))
        p1, p2, pcd = maps
        for pred, truth in ((p1, y1), (p2, y2)):
            np.add.at(m, (_codes(pred, pcd).ravel(), _codes(truth, cd).ravel()), 1)
    require(int(m.sum()) == 2 * sum(s.y1.size for s in samples),
            "recounted matrix does not cover every pixel twice")

    mf = m.astype(float)
    total = mf.sum()
    m00 = mf[0, 0]
    iou_nc = m00 / (mf[0].sum() + mf[:, 0].sum() - m00)
    correct_changed = np.trace(mf) - m00
    iou_c = correct_changed / (total - m00)
    z = mf.copy()
    z[0, 0] = 0.0
    po = np.trace(z) / z.sum()
    pe = (z.sum(axis=1) @ z.sum(axis=0)) / z.sum() ** 2
    kappa = (po - pe) / (1.0 - pe)
    precision = correct_changed / mf[1:].sum()
    recall = correct_changed / mf[:, 1:].sum()
    return {"oa": np.trace(mf) / total, "miou": 0.5 * (iou_nc + iou_c),
            "sek": math.exp(iou_c - 1.0) * kappa,
            "f_scd": 2.0 * precision * recall / (precision + recall)}


def check_scores(got: dict, want: dict) -> dict:
    worst = max(abs(got[k] - want[k]) for k in want)
    require(worst <= 1e-12, f"evaluate scores deviate from the recount by {worst:.3e}: "
                            f"{got} vs {want}")
    return {"max_dev": worst}


def check_batch_independence(model: ChangeDetectionModel, samples, batched_calls,
                             batch_size: int) -> dict:
    """Each pair scored alone gives the maps it got inside its batch, up to
    argmax flips where the two best logits are within TIE_TOL."""
    model.eval()
    worst_logit = 0.0
    ties = 0
    with captured_predictions(model) as single_calls:
        for i, sample in enumerate(samples):
            t1, t2, *_ = collate([sample])
            model.predict(t1, t2)
            batch = batched_calls[i // batch_size]
            j = i % batch_size
            single = single_calls[-1]
            for logits_b, logits_s, map_b, map_s in zip(
                    batch["logits"], single["logits"], batch["maps"], single["maps"]):
                lb, ls = logits_b[j], logits_s[0]
                worst_logit = max(worst_logit, float(np.max(np.abs(lb - ls))))
                differ = map_b[j] != map_s[0]
                if differ.any():
                    top2 = np.sort(ls, axis=0)[-2:]
                    gap = (top2[1] - top2[0])[differ]
                    require(bool(np.all(gap <= TIE_TOL)),
                            f"pair {i}: prediction depends on its batch away from a tie")
                    ties += int(differ.sum())
    require(worst_logit <= TIE_TOL,
            f"logits depend on the batch by {worst_logit:.3e} (> {TIE_TOL})")
    return {"pairs": len(samples), "max_logit_dev": worst_logit, "tie_flips": ties}

"""Evaluation for semantic change detection.

The confusion matrix is (N_c+1) x (N_c+1) with class 0 reserved for
"no change": each pixel's entry is 0 where the change mask says unchanged
and (semantic id + 1) where changed, for predictions and labels alike, and
both temporal classifications accumulate. Rows index predictions, columns
ground truth.

Score conventions for empty denominators (documented, used consistently):
a vacuously perfect region scores 1.0 (nothing to get wrong), kappa of a
degenerate distribution is 1.0 when observed agreement is total and 0.0
otherwise.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, ShapeError

__all__ = ["ConfusionMatrix", "scores", "format_report", "write_report"]


class ConfusionMatrix:
    def __init__(self, n_classes: int):
        if n_classes < 1:
            raise DataError(f"confusion matrix: n_classes must be >= 1, got {n_classes}")
        self.n_classes = n_classes
        self.m = np.zeros((n_classes + 1, n_classes + 1), dtype=np.int64)

    @staticmethod
    def _remap(sem: np.ndarray, changed: np.ndarray, n_classes: int, what: str) -> np.ndarray:
        sem = np.asarray(sem)
        if sem.min() < 0 or sem.max() >= n_classes:
            raise DataError(f"{what}: semantic ids outside [0, {n_classes})")
        mask = np.asarray(changed)
        if np.any((mask != 0) & (mask != 1)):
            raise DataError(f"{what}: change mask must be binary")
        return np.where(mask == 1, sem + 1, 0)

    def accumulate(self, pred_t1, pred_t2, y_t1, y_t2, pred_cd, y_cd) -> "ConfusionMatrix":
        """Count both temporals of one sample (or batch; shapes just must agree)."""
        arrs = [np.asarray(a) for a in (pred_t1, pred_t2, y_t1, y_t2, pred_cd, y_cd)]
        if len({a.shape for a in arrs}) != 1:
            raise ShapeError(f"accumulate: shapes differ: {[a.shape for a in arrs]}")
        k = self.n_classes + 1
        for pred, truth in ((arrs[0], arrs[2]), (arrs[1], arrs[3])):
            p = self._remap(pred, arrs[4], self.n_classes, "prediction")
            t = self._remap(truth, arrs[5], self.n_classes, "label")
            flat = p.ravel() * k + t.ravel()
            self.m += np.bincount(flat, minlength=k * k).reshape(k, k)
        return self


def _kappa(m: np.ndarray) -> float:
    total = m.sum()
    if total == 0:
        return 1.0
    po = np.trace(m) / total
    pe = float(m.sum(axis=1) @ m.sum(axis=0)) / (total * total)
    if pe >= 1.0:
        return 1.0 if po >= 1.0 else 0.0
    return float((po - pe) / (1.0 - pe))


def scores(cm: ConfusionMatrix) -> dict[str, float]:
    """OA, mIoU, SeK and F_scd from an accumulated matrix."""
    m = cm.m.astype(np.float64)
    total = m.sum()
    if total == 0:
        raise DataError("scores: empty confusion matrix")

    oa = float(np.trace(m) / total)

    m00 = m[0, 0]
    union0 = m[0, :].sum() + m[:, 0].sum() - m00
    iou_nochange = float(m00 / union0) if union0 > 0 else 1.0
    changed_correct = float(np.trace(m)) - m00
    union_changed = total - m00
    iou_changed = float(changed_correct / union_changed) if union_changed > 0 else 1.0
    miou = 0.5 * (iou_nochange + iou_changed)

    zeroed = m.copy()
    zeroed[0, 0] = 0.0
    sek = float(np.exp(iou_changed - 1.0) * _kappa(zeroed))

    pred_changed = m[1:, :].sum()
    true_changed = m[:, 1:].sum()
    if pred_changed == 0 and true_changed == 0:
        f_scd = 1.0
    else:
        precision = changed_correct / pred_changed if pred_changed > 0 else 0.0
        recall = changed_correct / true_changed if true_changed > 0 else 0.0
        f_scd = 0.0 if precision + recall == 0 \
            else 2.0 * precision * recall / (precision + recall)

    return {"oa": oa, "miou": miou, "sek": sek, "f_scd": float(f_scd)}


def format_report(values: dict) -> str:
    lines = []
    for key in sorted(values):
        v = values[key]
        lines.append(f"{key}={v!r}" if not isinstance(v, float) else f"{key}={v:.17g}")
    return "\n".join(lines) + "\n"


def write_report(path, values: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_report(values))

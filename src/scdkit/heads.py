"""Classification heads and pixelwise cross-entropy losses.

Heads produce logits at the feature scale (stride 4) plus an upsampled
full-resolution copy; losses are computed on the upsampled logits through a
fused log-softmax, so they stay finite for logits up to about 1e3.
"""

from __future__ import annotations

import numpy as np

from . import nn, ops
from . import tensor as T
from .errors import DataError, ShapeError
from .tensor import Tensor

__all__ = ["Head", "cross_entropy", "seg_loss", "change_loss"]


class Head(nn.Module):
    """conv(kernel x kernel, same size) -> relu -> conv1x1 onto ``n_out`` logits.

    The model uses a 1x1 head for semantic classes and a 3x3 head for the
    two change logits.
    """

    def __init__(self, in_channels: int, hidden: int, n_out: int, kernel: int,
                 rng: np.random.Generator):
        super().__init__()
        self.conv1 = nn.Conv2d(in_channels, hidden, kernel, rng, padding=kernel // 2)
        self.conv2 = nn.Conv2d(hidden, n_out, 1, rng)

    def forward(self, x, out_hw):
        """Logits at input scale and upsampled to ``out_hw``."""
        logits = self.conv2(T.relu(self.conv1(x)))
        return logits, ops.bilinear_resize(logits, out_hw)


def cross_entropy(logits, labels: np.ndarray) -> Tensor:
    """Mean pixel cross-entropy of (B, K, H, W) logits against integer labels."""
    if logits.ndim != 4:
        raise ShapeError(f"cross_entropy: logits must be (B, K, H, W), got {logits.shape}")
    b, k, h, w = logits.shape
    labels = np.asarray(labels)
    if labels.shape != (b, h, w):
        raise ShapeError(f"cross_entropy: labels {labels.shape}, expected {(b, h, w)}")
    if not np.issubdtype(labels.dtype, np.integer):
        raise DataError(f"cross_entropy: labels must be integers, got {labels.dtype}")
    if labels.min() < 0 or labels.max() >= k:
        raise DataError(f"cross_entropy: labels outside [0, {k}): "
                        f"min {labels.min()}, max {labels.max()}")
    onehot = np.zeros((b, k, h, w))
    np.put_along_axis(onehot, labels[:, None, :, :], 1.0, axis=1)
    logp = T.log_softmax(logits, axis=1)
    picked = T.tsum(T.mul(logp, Tensor(onehot)), axis=1)
    return T.neg(T.tmean(picked))


def seg_loss(logits_t1, logits_t2, y1: np.ndarray, y2: np.ndarray) -> Tensor:
    """Semantic loss: per-temporal cross-entropies averaged over the pair."""
    return T.affine(T.add(cross_entropy(logits_t1, y1),
                          cross_entropy(logits_t2, y2)), 0.5)


def change_loss(logits_cd, y_cd: np.ndarray) -> Tensor:
    """Binary change loss on 2-class logits."""
    if logits_cd.shape[1] != 2:
        raise ShapeError(f"change_loss: expected 2 logit channels, got {logits_cd.shape[1]}")
    return cross_entropy(logits_cd, y_cd)

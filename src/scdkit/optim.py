"""Joint-optimization machinery: uncertainty-weighted loss merging, conflict
projection for shared-parameter gradients, Adam, and the cosine schedule.

The projection operates on flattened float64 vectors outside the tape; the
two task gradients are captured by separate backward passes and recombined
before the optimizer sees them.
"""

from __future__ import annotations

import numpy as np

from . import nn
from . import tensor as T
from .errors import NumericError, ShapeError
from .tensor import Tensor

__all__ = [
    "UncertaintyWeights",
    "rotate_gradients",
    "Adam",
    "cosine_lr",
    "flatten_arrays",
    "unflatten_vector",
]

_BETA1, _BETA2 = 0.9, 0.999
_ADAM_EPS = 1e-8
_WEIGHT_DECAY = 1e-6


class UncertaintyWeights(nn.Module):
    """Learnable per-task log-variances s1, s2 (task variance = exp(s)).

    merge(a, b) = a/(2*exp(s1)) + b/(2*exp(s2)) + ln(1+exp(s1)) + ln(1+exp(s2)).
    """

    def __init__(self):
        super().__init__()
        self.s1 = nn.Parameter(0.0)
        self.s2 = nn.Parameter(0.0)

    def merge(self, loss_a, loss_b) -> Tensor:
        v1, v2 = T.exp(self.s1), T.exp(self.s2)
        weighted = T.add(T.div(loss_a, T.affine(v1, 2.0)),
                         T.div(loss_b, T.affine(v2, 2.0)))
        regular = T.add(T.log(T.affine(v1, 1.0, 1.0)),
                        T.log(T.affine(v2, 1.0, 1.0)))
        return T.add(weighted, regular)

    def variances(self) -> tuple[float, float]:
        return float(np.exp(self.s1.data)), float(np.exp(self.s2.data))


def rotate_gradients(g_a: np.ndarray, g_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Remove the mutually conflicting components of two task gradients.

    When the dot product is negative each output is the input minus its
    projection onto the OTHER ORIGINAL gradient; otherwise inputs pass
    through untouched (same objects, bitwise identical). A zero opposing
    gradient never counts as a conflict.
    """
    g_a = np.asarray(g_a, dtype=np.float64)
    g_b = np.asarray(g_b, dtype=np.float64)
    if g_a.shape != g_b.shape or g_a.ndim != 1:
        raise ShapeError(f"rotate_gradients: need equal-length vectors, "
                         f"got {g_a.shape} and {g_b.shape}")
    if not (np.all(np.isfinite(g_a)) and np.all(np.isfinite(g_b))):
        raise NumericError("rotate_gradients: non-finite gradient")
    sq_a = float(g_a @ g_a)
    sq_b = float(g_b @ g_b)
    if sq_a == 0.0 or sq_b == 0.0:
        return g_a, g_b
    dot = float(g_a @ g_b)
    if dot >= 0.0:
        return g_a, g_b
    return g_a - (dot / sq_b) * g_b, g_b - (dot / sq_a) * g_a


def cosine_lr(base_lr: float, epoch: int, total_epochs: int) -> float:
    """Cosine annealing from ``base_lr`` to 0 across the run."""
    if total_epochs <= 0:
        raise NumericError(f"cosine_lr: total_epochs must be positive, got {total_epochs}")
    frac = min(max(epoch, 0), total_epochs) / total_epochs
    return base_lr * 0.5 * (1.0 + np.cos(np.pi * frac))


def flatten_arrays(arrays) -> np.ndarray:
    if not arrays:
        return np.zeros(0)
    return np.concatenate([np.asarray(a, dtype=np.float64).ravel() for a in arrays])


def unflatten_vector(vector: np.ndarray, like) -> list[np.ndarray]:
    total = sum(a.size for a in like)
    if total != vector.size:
        raise ShapeError(f"unflatten: vector length {vector.size} != total {total}")
    out, pos = [], 0
    for a in like:
        out.append(vector[pos:pos + a.size].reshape(a.shape))
        pos += a.size
    return out


class Adam:
    """Adam consuming the ``grad`` buffers of the given parameters.

    Betas (0.9, 0.999), eps 1e-8. Weight decay 1e-6 is added to the gradient
    before the moment update, and any gradient surgery must happen before
    ``step`` (moments accumulate post-surgery values). ``lr`` is a plain
    attribute so a schedule can retune it per epoch.
    """

    def __init__(self, params, lr: float = 1e-4):
        self.params: list[nn.Parameter] = list(params)
        if not self.params:
            raise ShapeError("Adam: empty parameter list")
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self.t += 1
        b1, b2 = _BETA1, _BETA2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            if p.grad is None:
                raise NumericError("Adam: parameter has no gradient buffer")
            g = p.grad + _WEIGHT_DECAY * p.data
            if not np.all(np.isfinite(g)):
                raise NumericError("Adam: non-finite gradient")
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p.data -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + _ADAM_EPS)

    def state(self, names) -> dict[str, np.ndarray]:
        """Serializable moment state keyed by the given parameter names."""
        if len(names) != len(self.params):
            raise ShapeError("Adam.state: name count mismatch")
        out = {"optim.t": np.asarray(float(self.t))}
        for name, m, v in zip(names, self.m, self.v):
            out[f"optim.{name}.m"] = m.copy()
            out[f"optim.{name}.v"] = v.copy()
        return out

    def load_state(self, names, state: dict[str, np.ndarray]) -> None:
        if len(names) != len(self.params):
            raise ShapeError("Adam.load_state: name count mismatch")
        self.t = int(state["optim.t"])
        for i, name in enumerate(names):
            self.m[i][...] = state[f"optim.{name}.m"]
            self.v[i][...] = state[f"optim.{name}.v"]

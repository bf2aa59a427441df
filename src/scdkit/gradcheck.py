"""Finite-difference verification of analytic gradients.

``relative_error`` compares the analytic gradient of a scalar-valued
function against central finite differences (h = 1e-5, float64). The
numeric side never touches the tape, so it stays an independent oracle.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor

STEP = 1e-5
TOLERANCE = 1e-4


def numeric_gradients(fn, inputs: list[np.ndarray]) -> list[np.ndarray]:
    """Central-difference gradients of ``fn`` w.r.t. every element of every input.

    ``fn`` receives plain numpy arrays and must return a python float.
    """
    grads = []
    for k, base in enumerate(inputs):
        g = np.zeros_like(base, dtype=np.float64)
        flat = g.reshape(-1)
        for i in range(base.size):
            args_plus = [a.copy() for a in inputs]
            args_minus = [a.copy() for a in inputs]
            args_plus[k].reshape(-1)[i] += STEP
            args_minus[k].reshape(-1)[i] -= STEP
            flat[i] = (fn(*args_plus) - fn(*args_minus)) / (2.0 * STEP)
        grads.append(g)
    return grads


def analytic_gradients(build, inputs: list[np.ndarray]) -> list[np.ndarray]:
    """Run ``build`` on requires-grad tensors and return the leaf gradients.

    ``build`` maps Tensors to a scalar loss Tensor.
    """
    leaves = [Tensor(a.copy(), requires_grad=True) for a in inputs]
    loss = build(*leaves)
    T.backward(loss)
    return [leaf.grad.copy() for leaf in leaves]


def relative_error(build, inputs: list[np.ndarray]) -> float:
    """Worst relative disagreement between analytic and numeric gradients.

    The error is ||a - n||_inf / max(||a||_inf, ||n||_inf, 1) per input,
    maximized over inputs.
    """
    analytic = analytic_gradients(build, inputs)

    def scalar_fn(*arrays):
        return build(*[Tensor(a) for a in arrays]).item()

    numeric = numeric_gradients(scalar_fn, inputs)
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = max(np.max(np.abs(a), initial=0.0), np.max(np.abs(n), initial=0.0), 1.0)
        err = np.max(np.abs(a - n), initial=0.0) / denom
        worst = max(worst, float(err))
    return worst

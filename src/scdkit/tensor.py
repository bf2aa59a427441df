"""Dense float64 tensors with reverse-mode automatic differentiation.

Every value flowing through the model is a :class:`Tensor`: a contiguous
row-major float64 buffer plus an optional gradient buffer. Operations that
receive at least one gradient-requiring input record a tape entry (the
parent tensors and a backward closure) on their output; ``backward`` walks
the recorded graph once, in reverse topological order, and accumulates
gradients into the ``grad`` buffer of every requires-grad leaf.

Grad mode: inside ``with no_grad():`` no op records anything, whatever its
inputs. Results are constants (``requires_grad`` False, no tape entry), so
the inputs, closures and temporary buffers of a forward pass die as soon as
nothing else references them. Inference and values read only through
``.data`` run this way. The switch is one module flag, shared by every
thread, and the block restores its previous value on exit, exceptions
included, so blocks nest.

Operands are Tensors: no op coerces numbers or arrays. A constant is
wrapped with ``Tensor(...)`` where it is made, and the model's input images
become Tensors in one place, ``ChangeDetectionModel._heads``.

Broadcasting is deliberately restricted: binary ops accept operands of
identical shape, or one single-element operand (scalar). Anything else
must be reshaped explicitly so that shape bugs fail loudly.
"""

from __future__ import annotations

import contextlib

import numpy as np

from .errors import AutodiffError, NumericError, ShapeError

__all__ = [
    "Tensor",
    "backward",
    "no_grad",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "affine",
    "matmul",
    "relu",
    "sigmoid",
    "exp",
    "log",
    "sqrt",
    "absolute",
    "clamp_min",
    "tsum",
    "tmean",
    "softmax",
    "log_softmax",
    "stack",
    "concat",
    "reshape",
    "transpose",
    "select_index",
    "l2_norm",
    "pairwise_l2",
]


def _ensure_finite(op: str, out: np.ndarray) -> None:
    if not np.all(np.isfinite(out)):
        raise NumericError(f"{op}: produced non-finite values")


class _TapeEntry:
    """One recorded op: its input tensors and the closure that maps the
    output gradient to per-input gradients (None for non-grad inputs)."""

    __slots__ = ("inputs", "backward_fn", "op")

    def __init__(self, op, inputs, backward_fn):
        self.op = op
        self.inputs = inputs
        self.backward_fn = backward_fn


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_entry", "_backward_done")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64, order="C")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(arr) if requires_grad else None
        self._entry: _TapeEntry | None = None
        self._backward_done = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad[...] = 0.0

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Record no tape entries inside the block (see the module docstring)."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def _record(op: str, out_data: np.ndarray, inputs, backward_fn) -> Tensor:
    _ensure_finite(op, out_data)
    out = Tensor(out_data)
    if _grad_enabled and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out._entry = _TapeEntry(op, tuple(inputs), backward_fn)
    return out


def _trace(loss: Tensor) -> list[Tensor]:
    """Ordered op list reachable from ``loss``: every entry's inputs precede it."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        if node._entry is not None:
            for parent in node._entry.inputs:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))
    return order


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every requires-grad leaf reachable from ``loss``.

    ``loss`` must be scalar and attached to the tape; running backward a
    second time on the same tensor raises (rebuild the graph by re-running
    the forward pass instead). Gradients accumulate into existing ``grad``
    buffers, so zero them between independent passes.
    """
    if loss.data.size != 1:
        raise AutodiffError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise AutodiffError("backward on a detached graph: loss does not require grad")
    if loss._backward_done:
        raise AutodiffError("backward already ran for this tensor; re-run the forward pass")
    loss._backward_done = True

    order = _trace(loss)
    flowing: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(order):
        g = flowing.pop(id(node), None)
        if g is None:
            continue
        entry = node._entry
        if entry is None:
            # requires-grad leaf (parameters, explicit inputs): its grad
            # buffer exists from construction
            node.grad += g
            continue
        grads = entry.backward_fn(g)
        for parent, pg in zip(entry.inputs, grads):
            if pg is None or not parent.requires_grad:
                continue
            # ufuncs on 0-d operands decay to immutable numpy scalars; those
            # would silently break the += accumulation below
            pg = np.asarray(pg, dtype=np.float64)
            if pg.shape != parent.data.shape:
                raise AutodiffError(
                    f"{entry.op}: backward produced gradient of shape {pg.shape} "
                    f"for input of shape {parent.data.shape}"
                )
            acc = flowing.get(id(parent))
            if acc is None:
                flowing[id(parent)] = pg.astype(np.float64, copy=True)
            else:
                acc += pg


# ---------------------------------------------------------------------------
# binary elementwise ops (same shape, or one single-element operand)
# ---------------------------------------------------------------------------

def _reduce_to(shape, g: np.ndarray) -> np.ndarray:
    # collapse a full-shape gradient onto a single-element operand
    if g.shape == shape:
        return g
    return np.sum(g).reshape(shape)


def _binary_shapes(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape == b.shape or a.size == 1 or b.size == 1:
        return
    raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not conform "
                     "(equal shapes or a scalar operand required)")


def add(a, b) -> Tensor:
    _binary_shapes("add", a, b)
    out = a.data + b.data

    def bw(g):
        return _reduce_to(a.shape, g), _reduce_to(b.shape, g)

    return _record("add", out, (a, b), bw)


def sub(a, b) -> Tensor:
    _binary_shapes("sub", a, b)
    out = a.data - b.data

    def bw(g):
        return _reduce_to(a.shape, g), _reduce_to(b.shape, -g)

    return _record("sub", out, (a, b), bw)


def mul(a, b) -> Tensor:
    _binary_shapes("mul", a, b)
    out = a.data * b.data
    ad, bd = a.data, b.data

    def bw(g):
        return _reduce_to(a.shape, g * bd), _reduce_to(b.shape, g * ad)

    return _record("mul", out, (a, b), bw)


def div(a, b) -> Tensor:
    _binary_shapes("div", a, b)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = a.data / b.data
    ad, bd = a.data, b.data

    def bw(g):
        return _reduce_to(a.shape, g / bd), _reduce_to(b.shape, -g * ad / (bd * bd))

    return _record("div", out, (a, b), bw)


def neg(a) -> Tensor:

    def bw(g):
        return (-g,)

    return _record("neg", -a.data, (a,), bw)


def affine(a, scale: float, shift: float = 0.0) -> Tensor:
    """Elementwise ``scale * a + shift`` with python-number coefficients."""
    scale = float(scale)
    out = scale * a.data + float(shift)

    def bw(g):
        return (g * scale,)

    return _record("affine", out, (a,), bw)


# ---------------------------------------------------------------------------
# matmul and unary math
# ---------------------------------------------------------------------------

def matmul(a, b) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul: expects 2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    out = a.data @ b.data
    ad, bd = a.data, b.data

    def bw(g):
        return g @ bd.T, ad.T @ g

    return _record("matmul", out, (a, b), bw)


def relu(a) -> Tensor:
    return clamp_min(a, 0.0)  # subgradient 0 at the kink


def sigmoid(a) -> Tensor:
    z = np.exp(-np.abs(a.data))
    out = np.where(a.data >= 0, 1.0 / (1.0 + z), z / (1.0 + z))

    def bw(g):
        return (g * out * (1.0 - out),)

    return _record("sigmoid", out, (a,), bw)


def exp(a) -> Tensor:
    with np.errstate(over="ignore"):
        out = np.exp(a.data)

    def bw(g):
        return (g * out,)

    return _record("exp", out, (a,), bw)


def log(a) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(a.data)
    ad = a.data

    def bw(g):
        return (g / ad,)

    return _record("log", out, (a,), bw)


def sqrt(a) -> Tensor:
    with np.errstate(invalid="ignore"):
        out = np.sqrt(a.data)

    def bw(g):
        # subgradient 0 where the input is exactly zero
        safe = np.where(out > 0, out, 1.0)
        return (np.where(out > 0, 0.5 * g / safe, 0.0),)

    return _record("sqrt", out, (a,), bw)


def absolute(a) -> Tensor:
    sign = np.sign(a.data)  # 0 at ties, the chosen subgradient

    def bw(g):
        return (g * sign,)

    return _record("abs", np.abs(a.data), (a,), bw)


def clamp_min(a, floor: float) -> Tensor:
    floor = float(floor)
    mask = a.data > floor
    out = np.where(mask, a.data, floor)

    def bw(g):
        return (g * mask,)

    return _record("clamp_min", out, (a,), bw)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def _norm_axis(axis, ndim):
    if axis is None:
        return None
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(ax % ndim for ax in axis)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    axis = _norm_axis(axis, a.ndim)
    out = np.sum(a.data, axis=axis, keepdims=keepdims)
    in_shape = a.shape
    kept = tuple(1 if axis is None or i in axis else n for i, n in enumerate(in_shape))

    def bw(g):
        return (np.broadcast_to(np.reshape(g, kept), in_shape).copy(),)

    return _record("sum", out, (a,), bw)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    total = tsum(a, axis=axis, keepdims=keepdims)
    # the ratio of sizes is 1/count exactly, so it rounds as 1.0 / count does
    return affine(total, total.size / a.size)


def l2_norm(a, axis=None, keepdims: bool = False) -> Tensor:
    """Euclidean norm reduction, sqrt(sum(a*a))."""
    return sqrt(tsum(mul(a, a), axis=axis, keepdims=keepdims))


# ---------------------------------------------------------------------------
# softmax family
# ---------------------------------------------------------------------------

def softmax(a, axis: int) -> Tensor:
    ax = axis % a.ndim
    shifted = a.data - np.max(a.data, axis=ax, keepdims=True)
    e = np.exp(shifted)
    out = e / np.sum(e, axis=ax, keepdims=True)

    def bw(g):
        dot = np.sum(g * out, axis=ax, keepdims=True)
        return (out * (g - dot),)

    return _record("softmax", out, (a,), bw)


def log_softmax(a, axis: int) -> Tensor:
    ax = axis % a.ndim
    shifted = a.data - np.max(a.data, axis=ax, keepdims=True)
    lse = np.log(np.sum(np.exp(shifted), axis=ax, keepdims=True))
    out = shifted - lse

    def bw(g):
        return (g - np.exp(out) * np.sum(g, axis=ax, keepdims=True),)

    return _record("log_softmax", out, (a,), bw)


# ---------------------------------------------------------------------------
# structure ops
# ---------------------------------------------------------------------------

def stack(tensors) -> Tensor:
    """Stack a list or tuple of same-shape tensors along a new leading axis."""
    shapes = {t.shape for t in tensors}
    if len(shapes) != 1:
        raise ShapeError(f"stack: all inputs must share a shape, got {sorted(shapes)}")
    out = np.stack([t.data for t in tensors])

    def bw(g):
        return tuple(g)

    return _record("stack", out, tensors, bw)


def concat(tensors, axis: int) -> Tensor:
    """Join a list or tuple of tensors along an existing ``axis``."""
    ndim = tensors[0].ndim
    ax = axis % ndim
    ref = list(tensors[0].shape)
    for t in tensors[1:]:
        other = list(t.shape)
        if len(other) != ndim or any(r != o for i, (r, o) in enumerate(zip(ref, other)) if i != ax):
            raise ShapeError(f"concat: incompatible shapes {[t.shape for t in tensors]} on axis {axis}")
    out = np.concatenate([t.data for t in tensors], axis=ax)
    splits = np.cumsum([t.shape[ax] for t in tensors])[:-1]

    def bw(g):
        return tuple(np.split(g, splits, axis=ax))

    return _record("concat", out, tensors, bw)


def reshape(a, shape) -> Tensor:
    shape = tuple(shape)
    try:
        out = a.data.reshape(shape)
    except ValueError as e:
        raise ShapeError(f"reshape: cannot view {a.shape} as {shape}") from e
    in_shape = a.shape

    def bw(g):
        return (g.reshape(in_shape),)

    return _record("reshape", out, (a,), bw)


def transpose(a, axes=None) -> Tensor:
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))
    axes = tuple(ax % a.ndim for ax in axes)
    out = np.transpose(a.data, axes)
    inverse = tuple(np.argsort(axes))

    def bw(g):
        return (np.ascontiguousarray(np.transpose(g, inverse)),)

    return _record("transpose", out, (a,), bw)


def select_index(a, index: int) -> Tensor:
    """Pick row ``index`` along the leading axis (shape loses that axis)."""
    if not 0 <= index < a.shape[0]:
        raise ShapeError(f"select_index: index {index} out of range for {a.shape}")
    out = np.take(a.data, index, axis=0)
    in_shape = a.shape

    def bw(g):
        full = np.zeros(in_shape)
        full[index] = g
        return (full,)

    return _record("select_index", out, (a,), bw)


# ---------------------------------------------------------------------------
# pairwise Euclidean distances (graph adjacency support)
# ---------------------------------------------------------------------------

def pairwise_l2(f) -> Tensor:
    """All-pairs Euclidean distance matrix of the rows of ``f`` (N, d) -> (N, N).

    The diagonal is exactly zero and carries zero gradient; coincident
    off-diagonal rows take the zero subgradient at the sqrt kink.
    """
    if f.ndim != 2:
        raise ShapeError(f"pairwise_l2: expects (N, d), got {f.shape}")
    diff = f.data[:, None, :] - f.data[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=-1))
    fd = f.data

    def bw(g):
        w = g + g.T
        safe = np.where(dist > 0, dist, 1.0)
        w = np.where(dist > 0, w / safe, 0.0)
        return (w.sum(axis=1, keepdims=True) * fd - w @ fd,)

    return _record("pairwise_l2", dist, (f,), bw)

"""Image-shaped tensor ops: convolution, transposed convolution, bilinear
resizing, batch normalization and per-channel helpers.

Convolution is a channels-first im2col, (B, C*k*k, OH*OW), times the
(Cout, C*k*k) weight matrix; the transposed convolution, a fixed x2
upsampler, is its adjoint (the col2im scatter), so the two stay
gradient-consistent by construction.
Bilinear resizing is separable: one interpolation matrix per spatial axis.
All spatial tensors are (B, C, H, W).
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ShapeError
from .tensor import Tensor, _record

__all__ = [
    "conv2d",
    "conv_transpose2d",
    "bilinear_resize",
    "batchnorm2d",
    "channel_affine",
    "channel_cosine",
]

_BN_MOMENTUM = 0.1
_BN_EPS = 1e-5
_COSINE_EPS = 1e-8


# ---------------------------------------------------------------------------
# im2col / col2im
# ---------------------------------------------------------------------------

def _conv_out_hw(h, w, k, stride, pad):
    return (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1


def im2col(x: np.ndarray, k: int, stride: int, pad: int) -> np.ndarray:
    """(B, C, H, W) -> (B, C*k*k, OH*OW) channels-first patch matrix."""
    b, c, h, w = x.shape
    oh, ow = _conv_out_hw(h, w, k, stride, pad)
    img = np.pad(x, [(0, 0), (0, 0), (pad, pad), (pad, pad)])
    col = np.empty((b, c, k, k, oh, ow), dtype=np.float64)
    for i in range(k):
        i_max = i + stride * oh
        for j in range(k):
            j_max = j + stride * ow
            col[:, :, i, j, :, :] = img[:, :, i:i_max:stride, j:j_max:stride]
    return col.reshape(b, c * k * k, oh * ow)


def col2im(col: np.ndarray, x_shape, k: int, stride: int, pad: int) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add (B, C*k*k, OH*OW) patches back
    to (B, C, H, W)."""
    b, c, h, w = x_shape
    oh, ow = _conv_out_hw(h, w, k, stride, pad)
    col = col.reshape(b, c, k, k, oh, ow)
    img = np.zeros((b, c, h + 2 * pad, w + 2 * pad), dtype=np.float64)
    for i in range(k):
        i_max = i + stride * oh
        for j in range(k):
            j_max = j + stride * ow
            img[:, :, i:i_max:stride, j:j_max:stride] += col[:, :, i, j, :, :]
    return img[:, :, pad:pad + h, pad:pad + w]


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def conv2d(x, weight, bias, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D convolution. x (B, Cin, H, W), weight (Cout, Cin, k, k), bias (Cout,)."""
    if x.ndim != 4 or weight.ndim != 4:
        raise ShapeError(f"conv2d: x {x.shape}, weight {weight.shape}")
    b, cin, h, w = x.shape
    cout, wcin, k, k2 = weight.shape
    if k != k2 or wcin != cin:
        raise ShapeError(f"conv2d: weight {weight.shape} does not match input channels {cin}")
    if bias.shape != (cout,):
        raise ShapeError(f"conv2d: bias {bias.shape}, expected ({cout},)")
    oh, ow = _conv_out_hw(h, w, k, stride, padding)
    if oh <= 0 or ow <= 0:
        raise ShapeError(f"conv2d: output would be empty for input {x.shape}, k={k}, "
                         f"stride={stride}, pad={padding}")

    col = im2col(x.data, k, stride, padding)           # (B, Cin*k*k, OH*OW)
    wmat = weight.data.reshape(cout, -1)               # (Cout, Cin*k*k)
    out = wmat @ col                                   # (B, Cout, OH*OW)
    out += bias.data[:, None]
    x_shape = x.shape

    def bw(g):
        g3 = g.reshape(b, cout, oh * ow)
        gx = col2im(wmat.T @ g3, x_shape, k, stride, padding)
        gw = (g3 @ col.transpose(0, 2, 1)).sum(axis=0).reshape(cout, cin, k, k)
        return gx, gw, g3.sum(axis=(0, 2))

    return _record("conv2d", out.reshape(b, cout, oh, ow), (x, weight, bias), bw)


def conv_transpose2d(x, weight, bias) -> Tensor:
    """The x2 upsampler: transposed 2-D convolution with a 4x4 kernel, stride
    2 and padding 1, the adjoint of :func:`conv2d` at that geometry.

    x (B, Cin, H, W), weight (Cin, Cout, 4, 4), bias (Cout,) -> (B, Cout, 2H, 2W).
    """
    if x.ndim != 4 or weight.ndim != 4:
        raise ShapeError(f"conv_transpose2d: x {x.shape}, weight {weight.shape}")
    b, cin, h, w = x.shape
    wcin, cout = weight.shape[:2]
    if weight.shape[2:] != (4, 4) or wcin != cin:
        raise ShapeError(f"conv_transpose2d: weight {weight.shape}, expected "
                         f"({cin}, Cout, 4, 4)")
    if bias.shape != (cout,):
        raise ShapeError(f"conv_transpose2d: bias {bias.shape}, expected ({cout},)")
    oh, ow = 2 * h, 2 * w
    k, stride, padding = 4, 2, 1
    # the forward is col2im against a virtual conv whose input is the output here
    x3 = x.data.reshape(b, cin, h * w)
    wmat = weight.data.reshape(cin, -1)                       # (Cin, Cout*k*k)
    out = col2im(wmat.T @ x3, (b, cout, oh, ow), k, stride, padding)
    out = out + bias.data[None, :, None, None]

    def bw(g):
        g_col = im2col(g, k, stride, padding)                 # (B, Cout*k*k, H*W)
        gx = (wmat @ g_col).reshape(b, cin, h, w)
        gw = (x3 @ g_col.transpose(0, 2, 1)).sum(axis=0).reshape(cin, cout, k, k)
        return gx, gw, g.sum(axis=(0, 2, 3))

    return _record("conv_transpose2d", out, (x, weight, bias), bw)


# ---------------------------------------------------------------------------
# bilinear resize
# ---------------------------------------------------------------------------

def _resize_matrix(in_size: int, out_size: int) -> np.ndarray:
    """(out, in) half-pixel-center interpolation weights, clamped at the
    borders; every row sums to 1."""
    src = (np.arange(out_size) + 0.5) * (in_size / out_size) - 0.5
    i0 = np.floor(src).astype(np.int64)
    frac = src - i0
    rows = np.arange(out_size)
    m = np.zeros((out_size, in_size), dtype=np.float64)
    m[rows, np.clip(i0, 0, in_size - 1)] += 1.0 - frac
    m[rows, np.clip(i0 + 1, 0, in_size - 1)] += frac
    return m


def bilinear_resize(x, out_hw) -> Tensor:
    """Bilinear interpolation of (B, C, H, W) to spatial size ``out_hw``:
    ``R @ x @ C.T`` with separable row and column weights."""
    if x.ndim != 4:
        raise ShapeError(f"bilinear_resize: expects (B, C, H, W), got {x.shape}")
    h, w = x.shape[2:]
    oh, ow = int(out_hw[0]), int(out_hw[1])
    if oh <= 0 or ow <= 0:
        raise ShapeError(f"bilinear_resize: invalid target size {out_hw}")
    r, c = _resize_matrix(h, oh), _resize_matrix(w, ow)

    def bw(g):
        return (r.T @ g @ c,)

    return _record("bilinear_resize", r @ x.data @ c.T, (x,), bw)


# ---------------------------------------------------------------------------
# batch normalization
# ---------------------------------------------------------------------------

def batchnorm2d(x, gamma, beta, running_mean: np.ndarray, running_var: np.ndarray,
                training: bool) -> Tensor:
    """Per-channel batch normalization over (B, H, W).

    In training mode the batch statistics normalize and the running buffers
    are updated in place (momentum 0.1, unbiased variance); in eval mode the
    running buffers normalize. The variance floor eps is 1e-5.
    """
    if x.ndim != 4:
        raise ShapeError(f"batchnorm2d: expects (B, C, H, W), got {x.shape}")
    b, c, h, w = x.shape
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"batchnorm2d: gamma/beta must be ({c},), got {gamma.shape}/{beta.shape}")
    n = b * h * w
    axes = (0, 2, 3)

    # each sum once, divided by n, is bit-identical to np.mean / np.var
    if training:
        if n < 2:
            raise ShapeError("batchnorm2d: training mode needs at least 2 values per channel")
        mean = x.data.sum(axis=axes) / n
        xhat = x.data - mean[None, :, None, None]
        var = (xhat * xhat).sum(axis=axes) / n  # biased, used for normalization
        running_mean *= (1.0 - _BN_MOMENTUM)
        running_mean += _BN_MOMENTUM * mean
        running_var *= (1.0 - _BN_MOMENTUM)
        running_var += _BN_MOMENTUM * var * n / (n - 1)
    else:
        xhat = x.data - running_mean[None, :, None, None]
        var = running_var

    inv_std = 1.0 / np.sqrt(var + _BN_EPS)
    # in place: a second full-size buffer would raise the step's peak memory
    xhat *= inv_std[None, :, None, None]
    out = gamma.data[None, :, None, None] * xhat + beta.data[None, :, None, None]

    def bw(g):
        ggamma = np.sum(g * xhat, axis=axes)
        gbeta = np.sum(g, axis=axes)
        scale = (gamma.data * inv_std)[None, :, None, None]
        if training:
            gmean = (gbeta / n)[None, :, None, None]
            gdot = (ggamma / n)[None, :, None, None]
            gx = scale * (g - gmean - xhat * gdot)
        else:
            gx = scale * g
        return gx, ggamma, gbeta

    return _record("batchnorm2d", out, (x, gamma, beta), bw)


# ---------------------------------------------------------------------------
# per-channel helpers
# ---------------------------------------------------------------------------

def channel_affine(x, scale, shift) -> Tensor:
    """Per-channel ``x * scale[c] + shift[c]`` on (B, C, H, W)."""
    if x.ndim != 4:
        raise ShapeError(f"channel_affine: expects (B, C, H, W), got {x.shape}")
    c = x.shape[1]
    if scale.shape != (c,):
        raise ShapeError(f"channel_affine: scale {scale.shape}, expected ({c},)")
    if shift.shape != (c,):
        raise ShapeError(f"channel_affine: shift {shift.shape}, expected ({c},)")
    s = scale.data[None, :, None, None]
    out = x.data * s + shift.data[None, :, None, None]
    xd = x.data

    def bw(g):
        return g * s, np.sum(g * xd, axis=(0, 2, 3)), np.sum(g, axis=(0, 2, 3))

    return _record("channel_affine", out, (x, scale, shift), bw)


def channel_cosine(a, b) -> Tensor:
    """Per-pixel cosine similarity over the channel axis.

    (B, C, H, W) x (B, C, H, W) -> (B, 1, H, W), entries in [-1, 1]. The
    denominator is clamped at 1e-8 so all-zero pixels map to 0.
    """
    if a.shape != b.shape or a.ndim != 4:
        raise ShapeError(f"channel_cosine: shapes {a.shape} and {b.shape}")
    num = T.tsum(T.mul(a, b), axis=1, keepdims=True)
    na = T.sqrt(T.tsum(T.mul(a, a), axis=1, keepdims=True))
    nb = T.sqrt(T.tsum(T.mul(b, b), axis=1, keepdims=True))
    return T.div(num, T.clamp_min(T.mul(na, nb), _COSINE_EPS))

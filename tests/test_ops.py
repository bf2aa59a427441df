"""Image ops against brute-force oracles: convolution, its transpose,
bilinear resizing, batch normalization, channel helpers."""

import numpy as np
import pytest

from scdkit import ops
from scdkit import tensor as T
from scdkit.errors import ShapeError
from scdkit.tensor import Tensor

from gradcheck_helper import check


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def conv_reference(x, w, b, stride, pad):
    """Direct sliding-window convolution, no im2col anywhere."""
    bs, cin, h, wd = x.shape
    cout, _, k, _ = w.shape
    oh = (h + 2 * pad - k) // stride + 1
    ow = (wd + 2 * pad - k) // stride + 1
    xp = np.pad(x, [(0, 0), (0, 0), (pad, pad), (pad, pad)])
    out = np.zeros((bs, cout, oh, ow))
    for n in range(bs):
        for co in range(cout):
            for i in range(oh):
                for j in range(ow):
                    patch = xp[n, :, i * stride:i * stride + k, j * stride:j * stride + k]
                    out[n, co, i, j] = np.sum(patch * w[co]) + (b[co] if b is not None else 0.0)
    return out


# (kernel, stride, padding) of every convolution the model builds
MODEL_CONVS = [(1, 1, 0), (3, 1, 1), (3, 2, 1), (3, 4, 1)]


class TestIm2col:
    @pytest.mark.parametrize("k,stride,pad", MODEL_CONVS)
    def test_col2im_is_adjoint(self, rng, k, stride, pad):
        # <im2col(x), y> == <x, col2im(y)>: col2im is the exact transpose
        x = rng.standard_normal((2, 3, 7, 6))
        col = ops.im2col(x, k, stride, pad)
        y = rng.standard_normal(col.shape)
        back = ops.col2im(y, x.shape, k, stride, pad)
        assert back.shape == x.shape
        assert np.sum(col * y) == pytest.approx(np.sum(x * back), rel=1e-12)


class TestConv2d:
    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1), (4, 1)])
    def test_matches_sliding_window_oracle(self, rng, stride, pad):
        x = rng.standard_normal((2, 3, 8, 8))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        got = ops.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=pad).data
        np.testing.assert_allclose(got, conv_reference(x, w, b, stride, pad), atol=1e-12)

    @pytest.mark.parametrize("k,stride,pad", MODEL_CONVS)
    def test_gradcheck(self, rng, k, stride, pad):
        oh = (6 + 2 * pad - k) // stride + 1
        probe = Tensor(rng.standard_normal((2, 4, oh, oh)))

        def build(x, w, b):
            return T.tsum(T.mul(ops.conv2d(x, w, b, stride=stride, padding=pad), probe))
        check(build, [rng.standard_normal((2, 3, 6, 6)),
                      rng.standard_normal((4, 3, k, k)),
                      rng.standard_normal(4)])

    def test_channel_mismatch_raises(self, rng):
        with pytest.raises(ShapeError):
            ops.conv2d(Tensor(rng.standard_normal((1, 3, 8, 8))),
                       Tensor(rng.standard_normal((4, 2, 3, 3))), Tensor(np.zeros(4)))


class TestConvTranspose2d:
    def test_doubles_spatial_dims(self, rng):
        x = Tensor(rng.standard_normal((1, 4, 5, 5)))
        w = Tensor(rng.standard_normal((4, 2, 4, 4)))
        b = Tensor(np.zeros(2))
        assert ops.conv_transpose2d(x, w, b, stride=2, padding=1).shape == (1, 2, 10, 10)

    @pytest.mark.parametrize("k,stride,pad", [(3, 1, 1), (4, 2, 1)])
    def test_adjoint_of_conv(self, rng, k, stride, pad):
        # <conv(x; W), y> == <x, deconv(y; W)> pins the construction
        x = rng.standard_normal((2, 3, 6, 6))
        w = rng.standard_normal((4, 3, k, k))
        oh = (6 + 2 * pad - k) // stride + 1
        y = rng.standard_normal((2, 4, oh, oh))
        cx = ops.conv2d(Tensor(x), Tensor(w), Tensor(np.zeros(4)),
                        stride=stride, padding=pad).data
        dy = ops.conv_transpose2d(Tensor(y), Tensor(w), Tensor(np.zeros(3)),
                                  stride=stride, padding=pad).data
        assert np.sum(cx * y) == pytest.approx(np.sum(x * dy), rel=1e-12)

    def test_gradcheck(self, rng):
        probe = Tensor(rng.standard_normal((1, 2, 6, 6)))

        def build(x, w, b):
            return T.tsum(T.mul(ops.conv_transpose2d(x, w, b, stride=2, padding=1), probe))
        check(build, [rng.standard_normal((1, 3, 3, 3)),
                      rng.standard_normal((3, 2, 4, 4)),
                      rng.standard_normal(2)])

    def test_empty_output_raises(self, rng):
        # (1-1)*1 - 2*2 + 3 = -1: padding eats the whole map
        with pytest.raises(ShapeError):
            ops.conv_transpose2d(Tensor(rng.standard_normal((1, 2, 1, 1))),
                                 Tensor(rng.standard_normal((2, 2, 3, 3))),
                                 Tensor(np.zeros(2)), stride=1, padding=2)


def bilinear_reference(x, oh, ow):
    """Scalar-loop half-pixel-center bilinear, clamped at borders."""
    b, c, h, w = x.shape
    out = np.zeros((b, c, oh, ow))
    for i in range(oh):
        sy = (i + 0.5) * h / oh - 0.5
        y0 = int(np.floor(sy))
        fy = sy - y0
        y0c, y1c = np.clip(y0, 0, h - 1), np.clip(y0 + 1, 0, h - 1)
        for j in range(ow):
            sx = (j + 0.5) * w / ow - 0.5
            x0 = int(np.floor(sx))
            fx = sx - x0
            x0c, x1c = np.clip(x0, 0, w - 1), np.clip(x0 + 1, 0, w - 1)
            top = x[:, :, y0c, x0c] * (1 - fx) + x[:, :, y0c, x1c] * fx
            bot = x[:, :, y1c, x0c] * (1 - fx) + x[:, :, y1c, x1c] * fx
            out[:, :, i, j] = top * (1 - fy) + bot * fy
    return out


class TestBilinearResize:
    @pytest.mark.parametrize("out_hw", [(8, 8), (5, 7), (3, 3), (4, 16)])
    def test_matches_scalar_oracle(self, rng, out_hw):
        x = rng.standard_normal((2, 3, 4, 8))
        got = ops.bilinear_resize(Tensor(x), out_hw).data
        np.testing.assert_allclose(got, bilinear_reference(x, *out_hw), atol=1e-12)

    def test_same_size_is_identity(self, rng):
        x = rng.standard_normal((1, 2, 5, 5))
        np.testing.assert_array_equal(ops.bilinear_resize(Tensor(x), (5, 5)).data, x)

    @pytest.mark.parametrize("in_shape,out_hw", [((1, 2, 3, 4), (6, 5)),
                                                 ((1, 2, 7, 9), (3, 4))],
                             ids=["up", "down"])
    def test_gradcheck(self, rng, in_shape, out_hw):
        probe = Tensor(rng.standard_normal((1, 2) + out_hw))

        def build(x):
            return T.tsum(T.mul(ops.bilinear_resize(x, out_hw), probe))
        check(build, [rng.standard_normal(in_shape)])


def batchnorm_reference(x, gamma, beta, rm, rv, g, training):
    """Textbook batch norm: forward with np.mean/np.var, backward with the
    two np.mean terms. Returns out, (gx, ggamma, gbeta) and the running
    buffers after the call."""
    axes = (0, 2, 3)
    n = x.shape[0] * x.shape[2] * x.shape[3]
    if training:
        mean, var = np.mean(x, axis=axes), np.var(x, axis=axes)
        rm = (1.0 - 0.1) * rm + 0.1 * mean
        rv = (1.0 - 0.1) * rv + 0.1 * var * n / (n - 1)
    else:
        mean, var = rm, rv
    inv_std = 1.0 / np.sqrt(var + 1e-5)
    xhat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
    out = gamma[None, :, None, None] * xhat + beta[None, :, None, None]
    scale = (gamma * inv_std)[None, :, None, None]
    if training:
        gmean = np.mean(g, axis=axes)[None, :, None, None]
        gdot = np.mean(g * xhat, axis=axes)[None, :, None, None]
        gx = scale * (g - gmean - xhat * gdot)
    else:
        gx = scale * g
    grads = (gx, np.sum(g * xhat, axis=axes), np.sum(g, axis=axes))
    return out, grads, rm, rv


class TestBatchNorm2d:
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("shape", [(2, 3, 4, 4), (4, 8, 16, 16), (1, 5, 2, 3)])
    def test_matches_textbook_reference_exactly(self, rng, training, shape):
        c = shape[1]
        x = rng.standard_normal(shape) * 2.0 + 0.5
        gamma, beta = rng.uniform(0.5, 1.5, c), rng.standard_normal(c)
        rm, rv = rng.standard_normal(c), rng.uniform(0.5, 2.0, c)
        g = rng.standard_normal(shape)
        want_out, want_grads, want_rm, want_rv = batchnorm_reference(
            x, gamma, beta, rm.copy(), rv.copy(), g, training)
        xt, gt, bt = (Tensor(v, requires_grad=True) for v in (x, gamma, beta))
        out = ops.batchnorm2d(xt, gt, bt, rm, rv, training=training)
        T.backward(T.tsum(T.mul(out, Tensor(g))))
        np.testing.assert_array_equal(out.data, want_out)
        for got, want in zip((xt.grad, gt.grad, bt.grad), want_grads):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(rm, want_rm)
        np.testing.assert_array_equal(rv, want_rv)

    def test_train_normalizes_batch(self, rng):
        x = rng.standard_normal((4, 3, 5, 5)) * 3 + 1
        rm, rv = np.zeros(3), np.ones(3)
        out = ops.batchnorm2d(Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)),
                              rm, rv, training=True).data
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.var(axis=(0, 2, 3)), 1.0, atol=1e-4)

    def test_running_stats_update(self, rng):
        x = rng.standard_normal((3, 2, 4, 4))
        rm, rv = np.zeros(2), np.ones(2)
        ops.batchnorm2d(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                        rm, rv, training=True)
        n = 3 * 4 * 4
        np.testing.assert_allclose(rm, 0.1 * x.mean(axis=(0, 2, 3)), atol=1e-14)
        np.testing.assert_allclose(
            rv, 0.9 + 0.1 * x.var(axis=(0, 2, 3)) * n / (n - 1), atol=1e-14)

    def test_eval_uses_running_stats_and_leaves_them_alone(self, rng):
        x = rng.standard_normal((2, 2, 3, 3))
        rm = np.array([0.5, -0.5])
        rv = np.array([2.0, 4.0])
        rm0, rv0 = rm.copy(), rv.copy()
        out = ops.batchnorm2d(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                              rm, rv, training=False).data
        want = (x - rm0[None, :, None, None]) / np.sqrt(rv0[None, :, None, None] + 1e-5)
        np.testing.assert_allclose(out, want, atol=1e-12)
        assert np.array_equal(rm, rm0) and np.array_equal(rv, rv0)

    @pytest.mark.parametrize("training", [True, False])
    def test_gradcheck(self, rng, training):
        probe = Tensor(rng.standard_normal((2, 3, 4, 4)))

        def build(x, g, b):
            rm = np.full(3, 0.2)
            rv = np.full(3, 1.5)
            return T.tsum(T.mul(
                ops.batchnorm2d(x, g, b, rm, rv, training=training), probe))
        check(build, [rng.standard_normal((2, 3, 4, 4)),
                      rng.uniform(0.5, 1.5, 3),
                      rng.standard_normal(3)])


class TestChannelOps:
    def test_affine_applies_per_channel(self, rng):
        x = rng.standard_normal((2, 3, 4, 4))
        s, t = rng.standard_normal(3), rng.standard_normal(3)
        got = ops.channel_affine(Tensor(x), Tensor(s), Tensor(t)).data
        np.testing.assert_allclose(
            got, x * s[None, :, None, None] + t[None, :, None, None], atol=1e-14)

    def test_cosine_probe_values(self):
        a = np.zeros((1, 3, 1, 3))
        b = np.zeros((1, 3, 1, 3))
        a[0, :, 0, 0] = [1, 2, 3]; b[0, :, 0, 0] = [1, 2, 3]      # identical
        a[0, :, 0, 1] = [1, 0, 1]; b[0, :, 0, 1] = [-1, 0, -1]    # antiparallel
        got = ops.channel_cosine(Tensor(a), Tensor(b)).data.ravel()
        np.testing.assert_allclose(got, [1.0, -1.0, 0.0], atol=1e-12)
        assert got[2] == 0.0  # zero vectors give exactly zero, not NaN

    def test_cosine_bounded(self, rng):
        a = rng.standard_normal((2, 5, 3, 3))
        b = rng.standard_normal((2, 5, 3, 3))
        c = ops.channel_cosine(Tensor(a), Tensor(b)).data
        assert c.shape == (2, 1, 3, 3)
        assert (np.abs(c) <= 1.0 + 1e-12).all()

    def test_cosine_gradcheck(self, rng):
        def build(a, b):
            return T.tsum(ops.channel_cosine(a, b))
        check(build, [rng.standard_normal((1, 3, 2, 2)),
                      rng.standard_normal((1, 3, 2, 2))])

"""Heads and pixelwise cross-entropy, checked against closed-form values."""

import numpy as np
import pytest

from scdkit import tensor as T
from scdkit.errors import DataError, ShapeError
from scdkit.heads import Head, change_loss, cross_entropy, seg_loss
from scdkit.tensor import Tensor

from gradcheck_helper import check


@pytest.fixture
def rng():
    return np.random.default_rng(29)


class TestHeads:
    def test_seg_head_shapes(self, rng):
        head = Head(6, 8, 4, 1, rng)
        x = Tensor(rng.standard_normal((2, 6, 8, 8)))
        logits, _ = head(x, out_hw=(8, 8))
        assert logits.shape == (2, 4, 8, 8)
        small, big = head(x, out_hw=(32, 32))
        assert small.shape == (2, 4, 8, 8) and big.shape == (2, 4, 32, 32)

    def test_change_head_two_channels(self, rng):
        head = Head(6, 4, 2, 3, rng)
        logits, _ = head(Tensor(rng.standard_normal((1, 6, 8, 8))), out_hw=(8, 8))
        assert logits.shape == (1, 2, 8, 8)

    def test_upsampled_copy_matches_resize_of_logits(self, rng):
        from scdkit import ops
        head = Head(3, 4, 2, 1, rng)
        x = Tensor(rng.standard_normal((1, 3, 4, 4)))
        small, big = head(x, out_hw=(8, 8))
        np.testing.assert_array_equal(
            big.data, ops.bilinear_resize(Tensor(small.data.copy()), (8, 8)).data)


class TestCrossEntropy:
    def test_uniform_logits_give_log_k(self, rng):
        for k in (2, 4, 7):
            logits = Tensor(np.zeros((2, k, 3, 3)))
            labels = rng.integers(0, k, (2, 3, 3))
            loss = cross_entropy(logits, labels)
            assert loss.data == pytest.approx(np.log(k), abs=1e-12)

    def test_confident_correct_prediction_near_zero(self, rng):
        labels = rng.integers(0, 3, (1, 4, 4))
        logits = np.full((1, 3, 4, 4), -1e3)
        np.put_along_axis(logits, labels[:, None], 1e3, axis=1)
        assert cross_entropy(Tensor(logits), labels).data == pytest.approx(0.0, abs=1e-12)

    def test_two_pixel_hand_case(self):
        # pixel A: logits (ln2, 0), label 0 -> -ln(2/3)
        # pixel B: logits (0, 0),   label 1 -> ln 2
        logits = np.zeros((1, 2, 1, 2))
        logits[0, 0, 0, 0] = np.log(2.0)
        labels = np.array([[[0, 1]]])
        want = 0.5 * (-np.log(2.0 / 3.0) + np.log(2.0))
        got = cross_entropy(Tensor(logits), labels).data
        assert got == pytest.approx(want, abs=1e-14)

    def test_matches_brute_force(self, rng):
        logits = rng.standard_normal((2, 4, 3, 5))
        labels = rng.integers(0, 4, (2, 3, 5))
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        want = -np.mean(np.log(np.take_along_axis(p, labels[:, None], axis=1)))
        got = cross_entropy(Tensor(logits), labels).data
        assert got == pytest.approx(want, abs=1e-12)

    def test_extreme_logits_stay_finite(self, rng):
        logits = rng.choice([-1e3, 1e3], size=(1, 3, 4, 4))
        labels = rng.integers(0, 3, (1, 4, 4))
        assert np.isfinite(cross_entropy(Tensor(logits), labels).data)

    def test_gradcheck(self, rng):
        labels = rng.integers(0, 3, (1, 2, 2))

        def build(logits):
            return cross_entropy(logits, labels)
        check(build, [rng.standard_normal((1, 3, 2, 2))])

    def test_label_out_of_range(self, rng):
        logits = Tensor(rng.standard_normal((1, 3, 2, 2)))
        with pytest.raises(DataError):
            cross_entropy(logits, np.full((1, 2, 2), 3))
        with pytest.raises(DataError):
            cross_entropy(logits, np.full((1, 2, 2), -1))

    def test_float_labels_rejected(self, rng):
        with pytest.raises(DataError):
            cross_entropy(Tensor(rng.standard_normal((1, 2, 2, 2))),
                          np.zeros((1, 2, 2)))

    def test_label_shape_mismatch(self, rng):
        with pytest.raises(ShapeError):
            cross_entropy(Tensor(rng.standard_normal((1, 2, 2, 2))),
                          np.zeros((1, 3, 3), dtype=int))


class TestCombinedLosses:
    def test_seg_loss_averages_temporals(self, rng):
        l1 = Tensor(rng.standard_normal((1, 3, 2, 2)))
        l2 = Tensor(rng.standard_normal((1, 3, 2, 2)))
        y1 = rng.integers(0, 3, (1, 2, 2))
        y2 = rng.integers(0, 3, (1, 2, 2))
        want = 0.5 * (cross_entropy(l1, y1).data + cross_entropy(l2, y2).data)
        assert seg_loss(l1, l2, y1, y2).data == pytest.approx(want, abs=1e-14)

    def test_change_loss_requires_two_channels(self, rng):
        with pytest.raises(ShapeError):
            change_loss(Tensor(rng.standard_normal((1, 3, 2, 2))),
                        np.zeros((1, 2, 2), dtype=int))

    def test_losses_backpropagate(self, rng):
        head = Head(4, 4, 3, 1, rng)
        x = Tensor(rng.standard_normal((1, 4, 4, 4)), requires_grad=True)
        logits, _ = head(x, out_hw=(4, 4))
        loss = cross_entropy(logits, rng.integers(0, 3, (1, 4, 4)))
        T.backward(loss)
        assert x.grad is not None and np.abs(x.grad).sum() > 0

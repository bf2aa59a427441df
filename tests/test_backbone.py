"""Siamese encoder: pyramid geometry, weight sharing, input validation."""

import numpy as np
import pytest

from scdkit.backbone import SiameseEncoder
from scdkit.errors import ShapeError
from scdkit.tensor import Tensor


@pytest.fixture
def encoder():
    return SiameseEncoder((4, 8, 16, 32), np.random.default_rng(3))


class TestGeometry:
    def test_strides_and_channels(self, encoder):
        x = Tensor(np.random.default_rng(0).random((2, 3, 64, 64)))
        pyr = encoder(x)
        # strides 4/8/16/32, channels b/2b/4b/8b
        assert isinstance(pyr, tuple)
        assert [lvl.shape for lvl in pyr] == [(2, 4, 16, 16), (2, 8, 8, 8),
                                              (2, 16, 4, 4), (2, 32, 2, 2)]

    @pytest.mark.parametrize("hw", [(32, 32), (64, 32), (96, 160)])
    def test_rectangular_inputs(self, encoder, hw):
        h, w = hw
        pyr = encoder(Tensor(np.zeros((1, 3, h, w))))
        assert pyr[-1].shape[2:] == (h // 32, w // 32)

    @pytest.mark.parametrize("hw", [(30, 64), (64, 40), (16, 16)])
    def test_indivisible_input_raises(self, encoder, hw):
        with pytest.raises(ShapeError):
            encoder(Tensor(np.zeros((1, 3, *hw))))

    def test_wrong_channel_count_raises(self, encoder):
        with pytest.raises(ShapeError):
            encoder(Tensor(np.zeros((1, 4, 64, 64))))


class TestSharing:
    def test_same_weights_for_both_temporals(self, encoder):
        # siamese by construction: one module, called twice
        rng = np.random.default_rng(5)
        x = rng.random((1, 3, 32, 32))
        a = encoder(Tensor(x.copy()))
        b = encoder(Tensor(x.copy()))
        for la, lb in zip(a, b):
            np.testing.assert_array_equal(la.data, lb.data)

    def test_distinct_inputs_yield_distinct_features(self, encoder):
        rng = np.random.default_rng(6)
        a = encoder(Tensor(rng.random((1, 3, 32, 32))))
        b = encoder(Tensor(rng.random((1, 3, 32, 32))))
        assert not np.allclose(a[0].data, b[0].data)

    def test_construction_is_seeded(self):
        e1 = SiameseEncoder((4, 8, 16, 32), np.random.default_rng(9))
        e2 = SiameseEncoder((4, 8, 16, 32), np.random.default_rng(9))
        for (n1, p1), (n2, p2) in zip(e1.named_parameters(), e2.named_parameters()):
            assert n1 == n2
            np.testing.assert_array_equal(p1.data, p2.data)


class TestGradientFlow:
    def test_every_parameter_receives_gradient(self, encoder):
        from scdkit import tensor as T
        x = Tensor(np.random.default_rng(1).random((1, 3, 32, 32)))
        pyr = encoder(x)
        loss = T.tsum(T.stack([T.tsum(T.mul(l, l)) for l in pyr]))
        T.backward(loss)
        missing = [n for n, p in encoder.named_parameters() if p.grad is None]
        assert missing == []

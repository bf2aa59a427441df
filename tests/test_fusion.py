"""Bi-temporal fusion: difference/cosine evidence and the upsampling chain."""

import numpy as np
import pytest

from scdkit import tensor as T
from scdkit.errors import ShapeError
from scdkit.fusion import BtffBranch, FusePair, FusePairConcat, Integrate
from scdkit.tensor import Tensor


@pytest.fixture
def rng():
    return np.random.default_rng(23)


def make_pyramid(rng, b=1, base=2, hw=64):
    levels = [Tensor(rng.standard_normal((b, base * (2 ** i), hw >> (2 + i), hw >> (2 + i))))
              for i in range(4)]
    return tuple(levels)


class TestBranchInputs:
    def test_difference_is_signed(self, rng):
        x1 = Tensor(rng.standard_normal((1, 3, 4, 4)))
        x2 = Tensor(rng.standard_normal((1, 3, 4, 4)))
        d12, _ = FusePair.branch_inputs(x1, x2)
        d21, _ = FusePair.branch_inputs(x2, x1)
        np.testing.assert_array_equal(d12.data, x2.data - x1.data)
        np.testing.assert_array_equal(d21.data, -d12.data)

    def test_cosine_is_orderless(self, rng):
        x1 = Tensor(rng.standard_normal((1, 3, 4, 4)))
        x2 = Tensor(rng.standard_normal((1, 3, 4, 4)))
        _, c12 = FusePair.branch_inputs(x1, x2)
        _, c21 = FusePair.branch_inputs(x2, x1)
        assert c12.shape == (1, 1, 4, 4)
        np.testing.assert_allclose(c12.data, c21.data, atol=1e-14)

    def test_identical_temporals(self, rng):
        x = Tensor(rng.standard_normal((1, 3, 4, 4)))
        diff, cos = FusePair.branch_inputs(x, Tensor(x.data.copy()))
        np.testing.assert_array_equal(diff.data, 0.0)
        np.testing.assert_allclose(cos.data, 1.0, atol=1e-12)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeError):
            FusePair.branch_inputs(Tensor(np.zeros((1, 3, 4, 4))),
                                   Tensor(np.zeros((1, 3, 8, 8))))


class TestFusePair:
    def test_output_geometry(self, rng):
        fp = FusePair(6, 4, rng)
        out = fp(Tensor(rng.standard_normal((2, 6, 8, 8))),
                 Tensor(rng.standard_normal((2, 6, 8, 8))))
        assert out.shape == (2, 4, 8, 8)

    def test_concat_fallback_geometry(self, rng):
        fp = FusePairConcat(6, 4, rng)
        out = fp(Tensor(rng.standard_normal((2, 6, 8, 8))),
                 Tensor(rng.standard_normal((2, 6, 8, 8))))
        assert out.shape == (2, 4, 8, 8)

    def test_fallback_ignores_order_structure(self, rng):
        # the fallback has no explicit difference path; this only pins that
        # both classes expose the same call contract
        a = Tensor(rng.standard_normal((1, 3, 4, 4)))
        b = Tensor(rng.standard_normal((1, 3, 4, 4)))
        for cls in (FusePair, FusePairConcat):
            out = cls(3, 2, rng)(a, b)
            assert np.isfinite(out.data).all()


class TestIntegrate:
    def levels(self, rng, c=3):
        return [Tensor(rng.standard_normal((1, c, s, s))) for s in (16, 8, 4, 2)]

    def test_shape_chain(self, rng):
        out = Integrate(3, rng)(*self.levels(rng))
        assert out.shape == (1, 3, 16, 16)

    def test_zero_deconvs_pass_finest_through(self, rng):
        integ = Integrate(3, rng)
        for up in (integ.up4, integ.up3, integ.up2):
            up.weight.data[...] = 0.0
            up.bias.data[...] = 0.0
        f1, f2, f3, f4 = self.levels(rng)
        np.testing.assert_array_equal(integ(f1, f2, f3, f4).data, f1.data)

    def test_additive_in_finest_level(self, rng):
        # out(f1 + d) - out(f1) == d: the finest level enters by pure addition
        integ = Integrate(2, rng)
        f1, f2, f3, f4 = self.levels(rng, c=2)
        d = rng.standard_normal(f1.shape)
        base = integ(f1, f2, f3, f4).data
        bumped = integ(Tensor(f1.data + d), f2, f3, f4).data
        np.testing.assert_allclose(bumped - base, d, atol=1e-12)

    def test_gradient_reaches_all_deconvs(self, rng):
        integ = Integrate(2, rng)
        out = integ(*self.levels(rng, c=2))
        T.backward(T.tsum(T.mul(out, out)))
        for up in (integ.up4, integ.up3, integ.up2):
            assert up.weight.grad is not None and np.abs(up.weight.grad).sum() > 0


class TestBtffBranch:
    @pytest.mark.parametrize("use_concat", [False, True])
    def test_end_to_end_geometry(self, rng, use_concat):
        br = BtffBranch((2, 4, 8, 16), 4, rng, use_concat=use_concat)
        out = br(make_pyramid(rng), make_pyramid(rng))
        assert out.shape == (1, 4, 16, 16)
        assert br.out_channels == 4

    def test_levels_have_independent_fusers(self, rng):
        br = BtffBranch((4, 4, 4, 4), 4, rng)
        w = [f.conv_diff.weight.data for f in br.fuse]
        assert not np.array_equal(w[0], w[1])

    def test_gradient_reaches_every_parameter(self, rng):
        br = BtffBranch((2, 4, 8, 16), 4, rng)
        out = br(make_pyramid(rng), make_pyramid(rng))
        T.backward(T.tsum(T.mul(out, out)))
        missing = [n for n, p in br.named_parameters() if p.grad is None]
        assert missing == []

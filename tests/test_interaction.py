"""Self-query gating, level projection, and the learned level blend."""

import numpy as np
import pytest

from scdkit import tensor as T
from scdkit.errors import ShapeError
from scdkit.interaction import ConcatLevels, LevelMerge, SelfQueryLevel, SqmlfiBranch
from scdkit.tensor import Tensor

from gradcheck_helper import check


@pytest.fixture
def rng():
    return np.random.default_rng(19)


def make_pyramid(rng, b=1, base=2, hw=32, requires_grad=False):
    levels = [Tensor(rng.standard_normal((b, base * (2 ** i), hw >> (2 + i), hw >> (2 + i))),
                     requires_grad=requires_grad)
              for i in range(4)]
    return tuple(levels)


def count_ops(out, op):
    """Tape entries named ``op`` in the graph that produced ``out``."""
    seen, stack, n = set(), [out], 0
    while stack:
        t = stack.pop()
        if id(t) in seen or t._entry is None:
            continue
        seen.add(id(t))
        n += t._entry.op == op
        stack.extend(i for i in t._entry.inputs if isinstance(i, Tensor))
    return n


class TestSelfQueryLevel:
    def test_attention_in_unit_interval(self, rng):
        mod = SelfQueryLevel(3, 4, rng)
        q = mod.attention(Tensor(rng.standard_normal((2, 3, 6, 6)))).data
        assert (q > 0).all() and (q < 1).all()

    def test_zero_query_conv_gives_half_gate(self, rng):
        mod = SelfQueryLevel(3, 4, rng)
        mod.query.weight.data[...] = 0.0
        mod.query.bias.data[...] = 0.0
        x = Tensor(rng.standard_normal((1, 3, 4, 4)))
        np.testing.assert_allclose(mod.attention(x).data, 0.5, atol=0)

    def test_gating_is_residual(self, rng):
        # with the gate forced to zero the block still sees x itself
        mod = SelfQueryLevel(2, 2, rng)
        mod.query.weight.data[...] = 0.0
        mod.query.bias.data[...] = -1e3        # sigmoid -> ~0
        mod.proj.weight.data[...] = 0.0
        mod.proj.bias.data[...] = 0.0
        for i in range(2):
            mod.proj.weight.data[i, i, 1, 1] = 1.0   # identity 3x3 center tap
        mod.eval()
        x = Tensor(np.abs(rng.standard_normal((1, 2, 4, 4))) + 0.1)
        out = mod(x, (4, 4))
        # eval-mode norm against fresh running stats scales by 1/sqrt(1+eps)
        np.testing.assert_allclose(out.data, x.data, rtol=1e-4)

    def test_output_resized_to_reference(self, rng):
        mod = SelfQueryLevel(3, 5, rng)
        out = mod(Tensor(rng.standard_normal((2, 3, 4, 4))), (16, 16))
        assert out.shape == (2, 5, 16, 16)

    def test_gradcheck(self, rng):
        mod = SelfQueryLevel(2, 3, rng)
        mod.eval()  # frozen stats keep the probe pure in its inputs
        names = [n for n, _ in mod.named_parameters()]
        params = [p for _, p in mod.named_parameters()]
        probe = Tensor(rng.standard_normal((1, 3, 6, 6)))

        def build(x, *leaves):
            for name, leaf in zip(names, leaves):
                obj, attr = mod, name.split(".")
                for a in attr[:-1]:
                    obj = getattr(obj, a)
                setattr(obj, attr[-1], leaf)
            return T.tsum(T.mul(mod(x, (6, 6)), probe))

        check(build, [rng.standard_normal((1, 2, 3, 3))] + [p.data for p in params])


class TestLevelMerge:
    def levels(self, rng, c=3, hw=4):
        return [Tensor(rng.standard_normal((2, c, hw, hw))) for _ in range(4)]

    def test_scalar_mode_oracle(self, rng):
        merge = LevelMerge(4, rng)
        lv = self.levels(rng)
        want = sum(float(merge.weight.data[l]) * lv[l].data for l in range(4))
        want = want + float(merge.bias.data)
        np.testing.assert_allclose(merge(lv).data, want, atol=1e-14)

    def test_selector_weights_pick_one_level(self, rng):
        merge = LevelMerge(4, rng)
        merge.weight.data[...] = [0.0, 1.0, 0.0, 0.0]
        merge.bias.data[...] = 0.0
        lv = self.levels(rng, c=2)
        np.testing.assert_allclose(merge(lv).data, lv[1].data, atol=0)

    def test_init_bound(self):
        # blend weights start inside +-sqrt(1/n_levels)
        merge = LevelMerge(4, np.random.default_rng(0))
        assert (np.abs(merge.weight.data) <= 0.5).all()

    def test_wrong_level_count(self, rng):
        with pytest.raises(ShapeError):
            LevelMerge(4, rng)(self.levels(rng, c=2)[:3])

    def test_gradcheck(self, rng):
        merge = LevelMerge(4, rng)
        probe = Tensor(rng.standard_normal((1, 2, 3, 3)))

        def build(w, b, *lv):
            merge.weight, merge.bias = w, b
            return T.tsum(T.mul(merge(list(lv)), probe))

        arrays = [merge.weight.data.copy(), merge.bias.data.copy()]
        arrays += [rng.standard_normal((1, 2, 3, 3)) for _ in range(4)]
        check(build, arrays)


class TestSqmlfiBranch:
    def test_output_geometry(self, rng):
        # hw=64 keeps the deepest level at 2x2: train-mode norm needs
        # more than one value per channel
        br = SqmlfiBranch((2, 4, 8, 16), 8, rng)
        out = br(make_pyramid(rng, base=2, hw=64))
        assert out.shape == (1, 8, 16, 16)
        assert br.out_channels == 8

    def test_levels_do_not_share_weights(self, rng):
        br = SqmlfiBranch((2, 2, 2, 2), 4, rng)
        w = [lv.proj.weight.data for lv in br.levels]
        assert not np.array_equal(w[0], w[1])

    def test_gradient_reaches_every_parameter(self, rng):
        br = SqmlfiBranch((2, 4, 8, 16), 4, rng)
        out = br(make_pyramid(rng, base=2, hw=64))
        T.backward(T.tsum(T.mul(out, out)))
        missing = [n for n, p in br.named_parameters() if p.grad is None]
        assert missing == []


class TestNoIdentityResize:
    """Level 0 is the reference scale: only the three deeper levels are resized."""

    def test_three_resizes_per_call(self, rng):
        pyr = make_pyramid(rng, base=2, hw=64, requires_grad=True)
        for branch in (SqmlfiBranch((2, 4, 8, 16), 4, rng), ConcatLevels((2, 4, 8, 16))):
            assert count_ops(branch(pyr), "bilinear_resize") == 3

    def test_level_zero_passes_through(self, rng):
        pyr = make_pyramid(rng, base=2, hw=64, requires_grad=True)
        br = SqmlfiBranch((2, 4, 8, 16), 4, rng)
        br.eval()
        br.merge.weight.data[...] = [1.0, 0.0, 0.0, 0.0]
        br.merge.bias.data[...] = 0.0
        level0 = br.levels[0](pyr[0], pyr[0].shape[2:])
        assert level0._entry.op == "batchnorm2d"
        np.testing.assert_array_equal(br(pyr).data, level0.data)
        cat = ConcatLevels((2, 4, 8, 16))(pyr)
        assert cat._entry.inputs[0] is pyr[0]


class TestConcatLevels:
    def test_concatenates_resized_levels(self, rng):
        br = ConcatLevels((2, 4, 8, 16))
        assert br.out_channels == 30
        pyr = make_pyramid(rng, base=2, hw=32)
        out = br(pyr)
        assert out.shape == (1, 30, 8, 8)
        # first block is level 0 untouched (resize to own size is identity)
        np.testing.assert_array_equal(out.data[:, :2], pyr[0].data)

    def test_has_no_parameters(self):
        assert list(ConcatLevels((2, 4, 8, 16)).parameters()) == []

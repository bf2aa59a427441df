"""Tensor engine semantics: tape behavior, op forwards, per-op gradients."""

import numpy as np
import pytest

from scdkit import tensor as T
from scdkit.errors import AutodiffError, NumericError, ShapeError
from scdkit.gradcheck import check, relative_error
from scdkit.tensor import Tensor, backward, detach


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestTapeSemantics:
    def test_sum_of_squares_gradient(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        loss = T.tsum(T.mul(x, x))
        backward(loss)
        assert loss.item() == 14.0
        np.testing.assert_array_equal(x.grad, [2.0, 4.0, 6.0])

    def test_backward_requires_scalar(self, rng):
        x = Tensor(rng.standard_normal((2, 2)), requires_grad=True)
        with pytest.raises(AutodiffError):
            backward(T.mul(x, x))

    def test_backward_twice_raises(self):
        x = Tensor([1.0], requires_grad=True)
        loss = T.tsum(T.mul(x, x))
        backward(loss)
        with pytest.raises(AutodiffError):
            backward(loss)

    def test_grads_accumulate_until_zeroed(self):
        x = Tensor([2.0], requires_grad=True)
        for expected in (2.0, 4.0):
            backward(T.tsum(T.mul(x, Tensor([2.0]))))
            assert x.grad[0] == expected
        x.zero_grad()
        assert x.grad[0] == 0.0

    def test_detach_blocks_gradient(self):
        x = Tensor([3.0], requires_grad=True)
        y = detach(T.mul(x, x))
        assert not y.requires_grad
        with pytest.raises(AutodiffError):
            backward(T.tsum(y))

    def test_diamond_graph_accumulates_both_paths(self):
        # loss = x*x + x*x reaches x through two paths
        x = Tensor([3.0], requires_grad=True)
        sq = T.mul(x, x)
        backward(T.tsum(T.add(sq, sq)))
        assert x.grad[0] == pytest.approx(12.0)

    def test_scalar_diamond_accumulates_both_paths(self):
        # 0-d operands decay to numpy scalars inside ufuncs; the accumulator
        # must not lose a branch over it
        x = Tensor(np.asarray(3.0), requires_grad=True)
        e = T.exp(x)
        backward(T.add(T.mul(e, Tensor(2.0)), T.log(e)))
        assert x.grad == pytest.approx(2.0 * np.exp(3.0) + 1.0)
        assert x.grad.shape == ()

    def test_non_finite_forward_raises(self):
        with pytest.raises(NumericError):
            T.div(Tensor([1.0]), Tensor([0.0]))
        with pytest.raises(NumericError):
            T.log(Tensor([0.0]))

    def test_constant_inputs_record_nothing(self):
        out = T.mul(Tensor([1.0]), Tensor([2.0]))
        assert out._entry is None and not out.requires_grad

    def test_determinism_bitwise(self, rng):
        a = rng.standard_normal((4, 4))

        def run():
            x = Tensor(a.copy(), requires_grad=True)
            backward(T.tsum(T.mul(T.sigmoid(x), T.exp(T.affine(x, 0.1)))))
            return x.grad.copy()

        g1, g2 = run(), run()
        assert np.array_equal(g1, g2)


class TestGradMode:
    def test_ops_on_grad_inputs_record_nothing(self, rng):
        x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        with T.no_grad():
            outs = [T.mul(x, x), T.softmax(x, axis=1), T.tsum(T.exp(x)),
                    T.matmul(x, T.transpose(x))]
        for out in outs:
            assert out._entry is None and not out.requires_grad
        # values are the recorded ones
        np.testing.assert_array_equal(outs[0].data, T.mul(x, x).data)

    def test_flag_restored_after_exception(self):
        x = Tensor([2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            with T.no_grad():
                raise RuntimeError("inside the block")
        assert T.mul(x, x)._entry is not None

    def test_nested_blocks_restore_outer_mode(self):
        x = Tensor([2.0], requires_grad=True)
        with T.no_grad():
            with T.no_grad():
                pass
            assert T.mul(x, x)._entry is None
        assert T.mul(x, x).requires_grad

    def test_backward_through_no_grad_result_raises(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with T.no_grad():
            loss = T.tsum(T.mul(x, x))
        with pytest.raises(AutodiffError):
            backward(loss)


class TestShapeRules:
    def test_binary_requires_same_shape_or_scalar(self, rng):
        a = Tensor(rng.standard_normal((2, 3)))
        with pytest.raises(ShapeError):
            T.add(a, Tensor(rng.standard_normal((3, 2))))
        # single-element operand is fine and reduces correctly
        s = Tensor(2.0, requires_grad=True)
        backward(T.tsum(T.mul(Tensor(np.ones((2, 3))), s)))
        assert s.grad == pytest.approx(6.0)

    def test_matmul_is_strictly_2d(self, rng):
        with pytest.raises(ShapeError):
            T.matmul(Tensor(rng.standard_normal((2, 3, 4))),
                     Tensor(rng.standard_normal((4, 2))))

    def test_concat_mismatch(self, rng):
        with pytest.raises(ShapeError):
            T.concat([Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4)))], axis=0)


class TestForwardValues:
    def test_softmax_rows_sum_to_one_and_positive(self, rng):
        x = Tensor(rng.standard_normal((5, 7)) * 10)
        s = T.softmax(x, axis=1).data
        np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-12)
        assert (s > 0).all()

    def test_log_softmax_matches_log_of_softmax(self, rng):
        x = Tensor(rng.standard_normal((3, 4)))
        np.testing.assert_allclose(T.log_softmax(x, axis=1).data,
                                   np.log(T.softmax(x, axis=1).data), atol=1e-12)

    def test_sigmoid_stable_for_large_inputs(self):
        s = T.sigmoid(Tensor([-1e3, 1e3])).data
        assert s[0] == 0.0 or s[0] < 1e-300
        assert s[1] == 1.0

    def test_linearity_of_add(self, rng):
        a, b = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
        np.testing.assert_allclose(T.add(Tensor(a), Tensor(b)).data, a + b, atol=1e-10)

    def test_pairwise_l2_matches_norms(self, rng):
        f = rng.standard_normal((5, 3))
        d = T.pairwise_l2(Tensor(f)).data
        for i in range(5):
            for j in range(5):
                assert d[i, j] == pytest.approx(np.linalg.norm(f[i] - f[j]), abs=1e-12)
        assert np.array_equal(d, d.T)
        assert np.array_equal(np.diag(d), np.zeros(5))


def _dot_probe(rng, shape):
    p = Tensor(rng.standard_normal(shape))
    return lambda out: T.tsum(T.mul(out, p))


class TestOpGradients:
    """Central-difference checks, one family per test, dims <= 6."""

    def test_arithmetic(self, rng):
        probe = _dot_probe(rng, (3, 4))

        def build(a, b):
            return probe(T.sub(T.add(T.mul(a, b), T.div(a, b)), T.neg(a)))
        check(build, [rng.standard_normal((3, 4)),
                      rng.uniform(0.5, 2.0, (3, 4))])

    def test_unary_chain(self, rng):
        probe = _dot_probe(rng, (4,))

        def build(a, b):
            out = T.add(T.sigmoid(a), T.exp(T.affine(a, 0.2, 0.1)))
            return probe(T.add(out, T.add(T.log(b), T.sqrt(b))))
        check(build, [rng.standard_normal(4), rng.uniform(0.5, 2.0, 4)])

    def test_kinked_ops_away_from_kinks(self, rng):
        mag = rng.uniform(0.3, 1.0, (3, 3))
        sign = np.where(rng.random((3, 3)) < 0.5, -1.0, 1.0)
        probe = _dot_probe(rng, (3, 3))

        def build(a):
            return probe(T.add(T.relu(a), T.add(T.absolute(a), T.clamp_min(a, 0.05))))
        check(build, [mag * sign])

    def test_matmul(self, rng):
        probe = _dot_probe(rng, (2, 5))

        def build(a, b):
            return probe(T.matmul(a, b))
        check(build, [rng.standard_normal((2, 3)), rng.standard_normal((3, 5))])

    @pytest.mark.parametrize("axis", [None, 0, 1, (0, 2)])
    def test_reductions(self, rng, axis):
        x = rng.standard_normal((2, 3, 4))

        def build(a):
            return T.tsum(T.mul(T.tmean(a, axis=axis, keepdims=True),
                                Tensor(np.ones_like(np.mean(x, axis=axis, keepdims=True)))))
        check(build, [x])

    def test_l2_norm(self, rng):
        def build(a):
            return T.l2_norm(a)
        check(build, [rng.standard_normal((4, 2)) + 0.1])

    @pytest.mark.parametrize("fn", [T.softmax, T.log_softmax])
    def test_softmax_family(self, rng, fn):
        probe = _dot_probe(rng, (3, 4))

        def build(a):
            return probe(fn(a, axis=1))
        check(build, [rng.standard_normal((3, 4))])

    def test_shape_movement(self, rng):
        probe = _dot_probe(rng, (4, 3))

        def build(a):
            return probe(T.transpose(T.reshape(a, (3, 4)), (1, 0)))
        check(build, [rng.standard_normal((2, 6))])

    def test_stack_concat_select(self, rng):
        def build(a, b):
            cat = T.concat([a, b], axis=0)
            stk = T.stack([T.select_index(cat, 0), T.select_index(cat, 3)], axis=0)
            return T.tsum(T.mul(stk, stk))
        check(build, [rng.standard_normal((2, 3)), rng.standard_normal((2, 3))])

    def test_pairwise_l2(self, rng):
        probe = _dot_probe(rng, (4, 4))

        def build(f):
            return probe(T.pairwise_l2(f))
        # rows well separated so no sqrt kink
        check(build, [rng.standard_normal((4, 3)) * 2.0 + np.arange(4)[:, None]])

    def test_gradcheck_detects_wrong_gradient(self, rng):
        # fault injection: forward value rewritten to a, backward still for a*a,
        # so the analytic side reports 2a against the numeric oracle's 1
        def sabotaged(a):
            out = T.mul(a, a)
            out.data[...] = a.data
            return T.tsum(out)
        assert relative_error(sabotaged, [rng.uniform(1.5, 2.0, (3,))]) > 1e-2

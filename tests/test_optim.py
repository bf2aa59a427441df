"""Loss merging, gradient conflict projection, Adam, and the lr schedule."""

import numpy as np
import pytest

from scdkit import nn
from scdkit import tensor as T
from scdkit.errors import NumericError, ShapeError
from scdkit.optim import (Adam, UncertaintyWeights, cosine_lr, flatten_arrays,
                          rotate_gradients, unflatten_vector)
from scdkit.tensor import Tensor

from gradcheck_helper import check


@pytest.fixture
def rng():
    return np.random.default_rng(31)


class TestUncertaintyWeights:
    def test_initial_state_halves_and_regularizes(self):
        # s1 = s2 = 0: merge = a/2 + b/2 + 2*ln(2)
        uw = UncertaintyWeights()
        got = uw.merge(Tensor(3.0), Tensor(5.0)).data
        assert got == pytest.approx(4.0 + 2 * np.log(2.0), abs=1e-14)

    def test_hand_values_at_nonzero_s(self):
        uw = UncertaintyWeights()
        uw.s1.data[...] = 1.0
        uw.s2.data[...] = -1.0
        a, b = 2.0, 4.0
        want = (a / (2 * np.e) + b / (2 * np.exp(-1.0))
                + np.log(1 + np.e) + np.log(1 + np.exp(-1.0)))
        assert uw.merge(Tensor(a), Tensor(b)).data == pytest.approx(want, abs=1e-14)

    def test_variances(self):
        uw = UncertaintyWeights()
        uw.s1.data[...] = 0.3
        v1, v2 = uw.variances()
        assert v1 == pytest.approx(np.exp(0.3)) and v2 == 1.0

    def test_gradcheck_through_merge(self, rng):
        def build(s1, s2, a, b):
            uw = UncertaintyWeights()
            uw.s1, uw.s2 = s1, s2
            return uw.merge(a, b)
        check(build, [np.asarray(0.4), np.asarray(-0.2),
                      np.asarray(1.7), np.asarray(0.9)])

    def test_losses_keep_gradient_path(self):
        uw = UncertaintyWeights()
        a = Tensor(2.0, requires_grad=True)
        T.backward(uw.merge(a, Tensor(1.0)))
        assert a.grad == pytest.approx(0.5)
        assert uw.s1.grad is not None and uw.s2.grad is not None


class TestRotateGradients:
    def test_hand_case(self):
        # a=(1,0), b=(-1,1): dot=-1, |a|^2=1, |b|^2=2
        ra, rb = rotate_gradients(np.array([1.0, 0.0]), np.array([-1.0, 1.0]))
        np.testing.assert_allclose(ra, [0.5, 0.5], atol=1e-15)
        np.testing.assert_allclose(rb, [0.0, 1.0], atol=1e-15)

    def test_non_conflicting_pass_through_same_objects(self, rng):
        a = rng.standard_normal(8)
        b = a + 0.1 * rng.standard_normal(8)
        if float(a @ b) < 0:  # extremely unlikely; keep the probe honest
            b = -b
        ra, rb = rotate_gradients(a, b)
        assert ra is a and rb is b

    def test_exact_opposites_zero_out(self, rng):
        g = rng.standard_normal(16)
        ra, rb = rotate_gradients(g, -g)
        assert not ra.any() and not rb.any()

    def test_zero_vector_never_conflicts(self, rng):
        g = rng.standard_normal(4)
        z = np.zeros(4)
        ra, rb = rotate_gradients(g, z)
        assert ra is g and rb is z

    def test_invariants_over_many_pairs(self, rng):
        # projections orthogonal to the opposing ORIGINAL gradient and never
        # longer than the input
        for _ in range(500):
            a = rng.standard_normal(6)
            b = rng.standard_normal(6)
            ra, rb = rotate_gradients(a, b)
            if float(a @ b) >= 0:
                assert ra is a and rb is b
                continue
            assert float(ra @ b) >= -1e-12
            assert float(rb @ a) >= -1e-12
            assert np.linalg.norm(ra) <= np.linalg.norm(a) + 1e-12
            assert np.linalg.norm(rb) <= np.linalg.norm(b) + 1e-12

    def test_scale_equivariance(self, rng):
        a = rng.standard_normal(5)
        b = rng.standard_normal(5)
        if float(a @ b) >= 0:
            b = -b - a * 0.1
        ra, rb = rotate_gradients(a, b)
        ra2, _ = rotate_gradients(3.0 * a, b)
        np.testing.assert_allclose(ra2, 3.0 * ra, atol=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(NumericError):
            rotate_gradients(np.array([1.0, np.nan]), np.array([1.0, 1.0]))

    def test_matrix_input_rejected(self):
        with pytest.raises(ShapeError):
            rotate_gradients(np.zeros((2, 2)), np.zeros((2, 2)))


class TestCosineLr:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0.1, 0, 10) == pytest.approx(0.1)
        assert cosine_lr(0.1, 5, 10) == pytest.approx(0.05)
        assert cosine_lr(0.1, 10, 10) == pytest.approx(0.0, abs=1e-17)

    def test_monotone_decreasing(self):
        vals = [cosine_lr(1.0, e, 40) for e in range(41)]
        assert all(x >= y for x, y in zip(vals, vals[1:]))

    def test_bad_total(self):
        with pytest.raises(NumericError):
            cosine_lr(0.1, 0, 0)


class TestFlatten:
    def test_round_trip(self, rng):
        arrays = [rng.standard_normal(s) for s in [(2, 3), (4,), (), (1, 2, 2)]]
        vec = flatten_arrays(arrays)
        assert vec.shape == (15,)
        back = unflatten_vector(vec, arrays)
        for a, b in zip(arrays, back):
            assert a.shape == b.shape
            np.testing.assert_array_equal(a, b)

    def test_length_mismatch(self, rng):
        with pytest.raises(ShapeError):
            unflatten_vector(np.zeros(5), [np.zeros((2, 3))])


def adam_reference(x0, grads, lr, betas=(0.9, 0.999), eps=1e-8, wd=1e-6):
    """Textbook Adam trajectory on a single array."""
    x = x0.copy()
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    for t, grad in enumerate(grads, start=1):
        g = grad + wd * x
        m = betas[0] * m + (1 - betas[0]) * g
        v = betas[1] * v + (1 - betas[1]) * g * g
        mh = m / (1 - betas[0] ** t)
        vh = v / (1 - betas[1] ** t)
        x = x - lr * mh / (np.sqrt(vh) + eps)
    return x


class TestAdam:
    def test_matches_reference_trajectory(self, rng):
        x0 = rng.standard_normal((3, 2))
        grads = [rng.standard_normal((3, 2)) for _ in range(7)]
        p = nn.Parameter(x0.copy())
        opt = Adam([p], lr=0.05)
        for g in grads:
            p.grad = g.copy()
            opt.step()
        np.testing.assert_allclose(p.data, adam_reference(x0, grads, 0.05), atol=1e-14)

    def test_lr_is_retunable_between_steps(self, rng):
        p = nn.Parameter(np.ones(3))
        opt = Adam([p], lr=0.0)
        p.grad = rng.standard_normal(3)
        opt.step()
        np.testing.assert_array_equal(p.data, np.ones(3))  # lr 0: no movement
        opt.lr = 0.1
        p.grad = rng.standard_normal(3)
        opt.step()
        assert not np.array_equal(p.data, np.ones(3))

    def test_state_round_trip_resumes_exactly(self, rng):
        x0 = rng.standard_normal(4)
        grads = [rng.standard_normal(4) for _ in range(6)]

        p = nn.Parameter(x0.copy())
        opt = Adam([p], lr=0.02)
        for g in grads:
            p.grad = g.copy()
            opt.step()

        q = nn.Parameter(x0.copy())
        opt_a = Adam([q], lr=0.02)
        for g in grads[:3]:
            q.grad = g.copy()
            opt_a.step()
        saved = opt_a.state(["p"])
        r = nn.Parameter(q.data.copy())
        opt_b = Adam([r], lr=0.02)
        opt_b.load_state(["p"], saved)
        for g in grads[3:]:
            r.grad = g.copy()
            opt_b.step()
        np.testing.assert_array_equal(r.data, p.data)

    def test_missing_grad_raises(self):
        p = nn.Parameter(np.zeros(2))
        opt = Adam([p], lr=0.1)
        p.grad = None
        with pytest.raises(NumericError):
            opt.step()

    def test_nan_grad_raises(self):
        p = nn.Parameter(np.zeros(2))
        opt = Adam([p], lr=0.1)
        p.grad = np.array([1.0, np.nan])
        with pytest.raises(NumericError):
            opt.step()

    def test_empty_params_rejected(self):
        with pytest.raises(ShapeError):
            Adam([], lr=0.1)

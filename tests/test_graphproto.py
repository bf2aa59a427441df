"""Graph aggregation and prototype machinery against dense numpy oracles."""

import numpy as np
import pytest

from scdkit import graphproto as gp
from scdkit import tensor as T
from scdkit.errors import NumericError, ShapeError
from scdkit.tensor import Tensor

from gradcheck_helper import check


@pytest.fixture
def rng():
    return np.random.default_rng(13)


class TestMedianSigma:
    def test_matches_numpy_median(self, rng):
        f = rng.standard_normal((9, 4))
        dist = np.linalg.norm(f[:, None] - f[None, :], axis=-1)
        want = np.median(dist[~np.eye(9, dtype=bool)])
        got = gp.median_sigma(T.pairwise_l2(Tensor(f)).data)
        assert got == pytest.approx(want, abs=1e-15)

    def test_identical_points_fall_back(self):
        assert gp.median_sigma(np.zeros((5, 5))) == 1.0

    def test_single_node_falls_back(self):
        assert gp.median_sigma(np.zeros((1, 1))) == 1.0


class TestAdjacency:
    def test_matches_oracle(self, rng):
        f = rng.standard_normal((7, 3))
        sigma = 0.8
        dist = np.linalg.norm(f[:, None] - f[None, :], axis=-1)
        want = np.exp(-dist / (2 * sigma * sigma))
        got = gp.build_adjacency(T.pairwise_l2(Tensor(f)), sigma).data
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_unit_diagonal_and_symmetry(self, rng):
        a = gp.build_adjacency(T.pairwise_l2(Tensor(rng.standard_normal((8, 5)))), 0.5).data
        np.testing.assert_array_equal(np.diag(a), np.ones(8))
        np.testing.assert_allclose(a, a.T, atol=0)
        assert (a > 0).all() and (a <= 1).all()

    def test_nonpositive_sigma_rejected(self, rng):
        with pytest.raises(NumericError):
            gp.build_adjacency(T.pairwise_l2(Tensor(rng.standard_normal((3, 2)))), 0.0)


def gcn_reference(f, a, w):
    at = a + np.eye(a.shape[0])
    d = at.sum(axis=1)
    s = at * np.outer(1 / np.sqrt(d), 1 / np.sqrt(d))
    return np.maximum(s @ f @ w, 0.0)


class TestGcnLayer:
    def test_matches_dense_oracle(self, rng):
        f = rng.standard_normal((6, 4))
        a = gp.build_adjacency(T.pairwise_l2(Tensor(f)), 1.0).data
        w = rng.standard_normal((4, 5))
        got = gp.gcn_layer(Tensor(f), Tensor(a), Tensor(w)).data
        np.testing.assert_allclose(got, gcn_reference(f, a, w), atol=1e-12)

    def test_no_edges_reduces_to_relu_fw(self, rng):
        f = rng.standard_normal((5, 3))
        w = rng.standard_normal((3, 3))
        got = gp.gcn_layer(Tensor(f), Tensor(np.zeros((5, 5))), Tensor(w)).data
        np.testing.assert_allclose(got, np.maximum(f @ w, 0), atol=1e-14)

    def test_node_permutation_equivariance(self, rng):
        f = rng.standard_normal((7, 4))
        a = gp.build_adjacency(T.pairwise_l2(Tensor(f)), 0.9).data
        w = rng.standard_normal((4, 4))
        out = gp.gcn_layer(Tensor(f), Tensor(a), Tensor(w)).data
        perm = rng.permutation(7)
        out_p = gp.gcn_layer(Tensor(f[perm]), Tensor(a[np.ix_(perm, perm)]),
                             Tensor(w)).data
        np.testing.assert_allclose(out_p, out[perm], atol=1e-12)

    def test_negative_degree_rejected(self, rng):
        a = np.zeros((3, 3))
        a[0, :] = -2.0
        with pytest.raises(NumericError):
            gp.gcn_layer(Tensor(rng.standard_normal((3, 2))), Tensor(a),
                         Tensor(rng.standard_normal((2, 2))))

    def test_gradcheck(self, rng):
        # keep features strictly positive so no relu unit sits on its kink
        def build(f, w):
            a = gp.build_adjacency(T.pairwise_l2(f), 1.0)
            return T.tsum(gp.gcn_layer(f, a, w))
        check(build, [rng.random((5, 3)) + 0.5, rng.random((3, 3)) + 0.2])


class TestPrototypes:
    def test_matches_weighted_mean_oracle(self, rng):
        f = rng.standard_normal((10, 4))
        conf = rng.random((10, 3))
        protos, present = gp.compute_prototypes(Tensor(f), conf)
        assert present.all()
        want = (conf / conf.sum(axis=0)).T @ f
        np.testing.assert_allclose(protos.data, want, atol=1e-12)

    def test_absent_class_zero_row(self, rng):
        conf = rng.random((6, 3))
        conf[:, 1] = 0.0
        protos, present = gp.compute_prototypes(Tensor(rng.standard_normal((6, 2))), conf)
        assert present.tolist() == [True, False, True]
        np.testing.assert_array_equal(protos.data[1], 0.0)

    def test_hard_assignment_recovers_class_means(self, rng):
        f = rng.standard_normal((8, 3))
        labels = np.array([0, 0, 1, 1, 1, 0, 1, 0])
        conf = np.eye(2)[labels]
        protos, _ = gp.compute_prototypes(Tensor(f), conf)
        for k in range(2):
            np.testing.assert_allclose(protos.data[k], f[labels == k].mean(axis=0),
                                       atol=1e-14)

    def test_node_count_mismatch(self, rng):
        with pytest.raises(ShapeError):
            gp.compute_prototypes(Tensor(rng.standard_normal((5, 2))),
                                  rng.random((4, 3)))


class TestAffinity:
    def test_self_affinity_diagonal_is_one(self, rng):
        p = rng.standard_normal((4, 6))
        a = gp.affinity(Tensor(p), Tensor(p)).data
        np.testing.assert_allclose(np.diag(a), 1.0, atol=1e-12)
        np.testing.assert_allclose(a, a.T, atol=1e-12)

    def test_orthogonal_rows(self):
        p = np.array([[2.0, 0.0], [0.0, 3.0]])
        np.testing.assert_allclose(gp.affinity(Tensor(p), Tensor(p)).data,
                                   np.eye(2), atol=1e-15)

    def test_matches_cosine_oracle(self, rng):
        pa = rng.standard_normal((3, 5))
        pb = rng.standard_normal((4, 5))
        na = pa / np.linalg.norm(pa, axis=1, keepdims=True)
        nb = pb / np.linalg.norm(pb, axis=1, keepdims=True)
        np.testing.assert_allclose(gp.affinity(Tensor(pa), Tensor(pb)).data,
                                   na @ nb.T, atol=1e-12)

    def test_zero_row_rejected(self, rng):
        p = rng.standard_normal((3, 4))
        p[1] = 0.0
        with pytest.raises(NumericError):
            gp.affinity(Tensor(p), Tensor(p))


class TestCpaLoss:
    def test_hand_case(self):
        eye = Tensor(np.eye(2))
        zero = Tensor(np.zeros((2, 2)))
        # per element: diag 0+1+1, off-diag 0+0+0 -> mean 1.0
        assert gp.cpa_loss(eye, eye, zero).data == pytest.approx(1.0, abs=1e-15)

    def test_identical_matrices_give_zero(self, rng):
        a = Tensor(rng.standard_normal((3, 3)))
        assert gp.cpa_loss(a, a, a).data == 0.0

    def test_symmetric_in_first_two_arguments(self, rng):
        a, b, c = (Tensor(rng.standard_normal((3, 3))) for _ in range(3))
        assert gp.cpa_loss(a, b, c).data == pytest.approx(
            gp.cpa_loss(b, a, c).data, abs=1e-15)


class TestPrototypeBank:
    def test_single_update(self, rng):
        bank = gp.PrototypeBank(3, 4, beta=0.9)
        local = rng.standard_normal((3, 4))
        bank.update(local, np.array([True, True, True]), 1)
        np.testing.assert_allclose(bank.global_t1, 0.1 * local, atol=1e-15)
        assert bank.seen_t1.all() and not bank.seen_t2.any()

    def test_geometric_convergence(self):
        # n momentum steps against a constant target v from start g0:
        # g_n = beta^n g0 + (1 - beta^n) v, exactly
        beta, n = 0.9, 50
        bank = gp.PrototypeBank(1, 3, beta=beta)
        g0 = np.array([[2.0, -1.0, 0.5]])
        bank.global_t1[...] = g0
        bank.seen_t1[...] = True
        v = np.array([[0.3, 0.7, -0.2]])
        for _ in range(n):
            bank.update(v, np.array([True]), 1)
        want = beta ** n * g0 + (1 - beta ** n) * v
        np.testing.assert_allclose(bank.global_t1, want, rtol=0, atol=1e-12)

    def test_absent_rows_untouched(self, rng):
        bank = gp.PrototypeBank(3, 2, beta=0.5)
        before = bank.global_t2.copy()
        bank.update(rng.standard_normal((3, 2)), np.array([False, True, False]), 2)
        np.testing.assert_array_equal(bank.global_t2[[0, 2]], before[[0, 2]])
        assert bank.seen_t2.tolist() == [False, True, False]

    def test_state_round_trip(self, rng):
        bank = gp.PrototypeBank(2, 3)
        bank.update(rng.standard_normal((2, 3)), np.array([True, False]), 1)
        other = gp.PrototypeBank(2, 3)
        other.load_state(bank.state())
        np.testing.assert_array_equal(other.global_t1, bank.global_t1)
        assert other.seen_t1.tolist() == bank.seen_t1.tolist()

    def test_bad_beta(self):
        with pytest.raises(NumericError):
            gp.PrototypeBank(2, 2, beta=1.0)


class TestPoolConfidence:
    def test_matches_block_mean(self, rng):
        x = rng.random((2, 3, 8, 8))
        got = gp.pool_confidence(x, 4)
        want = np.zeros((2, 3, 2, 2))
        for i in range(2):
            for j in range(2):
                want[:, :, i, j] = x[:, :, 4 * i:4 * i + 4, 4 * j:4 * j + 4].mean(axis=(2, 3))
        np.testing.assert_allclose(got, want, atol=1e-15)

    def test_preserves_simplex(self, rng):
        x = rng.random((1, 4, 8, 8))
        x /= x.sum(axis=1, keepdims=True)
        pooled = gp.pool_confidence(x, 2)
        np.testing.assert_allclose(pooled.sum(axis=1), 1.0, atol=1e-12)

    def test_indivisible_factor(self, rng):
        with pytest.raises(ShapeError):
            gp.pool_confidence(rng.random((1, 2, 6, 6)), 4)


def one_hot_conf(labels, n_classes, shape):
    flat = np.eye(n_classes)[labels.ravel()]
    return flat.reshape(*shape, n_classes).transpose(0, 3, 1, 2).copy()


class TestGaplBranch:
    def branch(self, **kw):
        kw.setdefault("rng", np.random.default_rng(17))
        return gp.GaplBranch(kw.pop("dim", 3), kw.pop("n_classes", 3), **kw)

    def test_identical_temporals_zero_loss(self, rng):
        br = self.branch()
        x = Tensor(rng.random((1, 3, 2, 2)) + 0.5)
        labels = np.array([[[0, 1], [2, 0]]])
        conf = one_hot_conf(labels, 3, (1, 2, 2))
        loss, info = br(x, Tensor(x.data.copy()), conf, conf.copy())
        assert info["n_active"] == 3
        assert loss.data == pytest.approx(0.0, abs=1e-12)

    def test_cold_bank_no_overlap_constant_zero(self, rng):
        br = self.branch(n_classes=2)
        br.eval()
        x1 = Tensor(rng.random((1, 3, 2, 2)))
        x2 = Tensor(rng.random((1, 3, 2, 2)))
        c1 = one_hot_conf(np.zeros((1, 2, 2), dtype=int), 2, (1, 2, 2))   # only class 0
        c2 = one_hot_conf(np.ones((1, 2, 2), dtype=int), 2, (1, 2, 2))    # only class 1
        loss, info = br(x1, x2, c1, c2)
        assert info["n_active"] == 0
        assert loss.data == 0.0

    def test_bank_fills_gaps_across_steps(self, rng):
        # step 1 trains class 1 into the t2 bank; step 2 lacks it at t2 but
        # the seen row keeps the class active
        br = self.branch(n_classes=2)
        br.train()
        full = one_hot_conf(np.array([[[0, 1], [1, 0]]]), 2, (1, 2, 2))
        x = Tensor(rng.random((1, 3, 2, 2)) + 0.5)
        br(x, Tensor(rng.random((1, 3, 2, 2)) + 0.5), full, full.copy())
        only0 = one_hot_conf(np.zeros((1, 2, 2), dtype=int), 2, (1, 2, 2))
        _, info = br(x, Tensor(rng.random((1, 3, 2, 2)) + 0.5), full, only0)
        assert not info["present_t2"][1]
        assert info["active"].tolist() == [True, True]

    def test_eval_mode_freezes_bank(self, rng):
        br = self.branch()
        br.eval()
        conf = one_hot_conf(np.array([[[0, 1], [2, 0]]]), 3, (1, 2, 2))
        before = br.bank.global_t1.copy()
        br(Tensor(rng.random((1, 3, 2, 2))), Tensor(rng.random((1, 3, 2, 2))),
           conf, conf.copy())
        np.testing.assert_array_equal(br.bank.global_t1, before)
        assert not br.bank.seen_t1.any()

    def test_train_mode_updates_bank_after_loss(self, rng):
        br = self.branch()
        br.train()
        conf = one_hot_conf(np.array([[[0, 1], [2, 0]]]), 3, (1, 2, 2))
        br(Tensor(rng.random((1, 3, 2, 2))), Tensor(rng.random((1, 3, 2, 2))),
           conf, conf.copy())
        assert br.bank.seen_t1.all() and br.bank.seen_t2.all()
        assert np.abs(br.bank.global_t1).sum() > 0

    def test_loss_backpropagates_to_aggregator(self, rng):
        br = self.branch()
        # positive weights keep every relu column alive; random signs can
        # collapse the aggregator onto one ray where cosines plateau at 1
        br.aggregator.w1.data[...] = rng.random((3, 3)) + 0.2
        br.aggregator.w2.data[...] = rng.random((3, 3)) + 0.2
        x1 = Tensor(rng.random((1, 3, 2, 2)) + 0.5)
        x2 = Tensor(rng.random((1, 3, 2, 2)) + 0.5)
        conf = one_hot_conf(np.array([[[0, 1], [2, 0]]]), 3, (1, 2, 2))
        loss, _ = br(x1, x2, conf, conf.copy())
        T.backward(loss)
        assert br.aggregator.w1.grad is not None
        assert np.abs(br.aggregator.w1.grad).sum() > 0

"""Model assembly: ablation wiring, loss surface, checkpoint fidelity."""

import numpy as np
import pytest

from scdkit import tensor as T
from scdkit.data import SceneSpec, collate, generate
from scdkit.errors import ConfigError, FormatError
from scdkit.model import ChangeDetectionModel, ModelConfig
from scdkit.tensor import Tensor


SPEC = SceneSpec(size=(64, 64), n_classes=3, n_shapes=3,
                 change_fraction=0.2, noise_std=0.02, seed=1)


@pytest.fixture(scope="module")
def batch():
    return collate(generate(SPEC, 2))


def make(**kw):
    kw.setdefault("n_classes", 3)
    kw.setdefault("base_channels", 2)
    kw.setdefault("seed", 0)
    return ChangeDetectionModel(ModelConfig(**kw))


class TestConfig:
    def test_derived_widths(self):
        cfg = ModelConfig(n_classes=4, base_channels=8)
        assert cfg.merge_channels == 32 and cfg.change_channels == 16

    @pytest.mark.parametrize("kw", [{"n_classes": 1}, {"base_channels": 0}])
    def test_invalid_rejected(self, kw):
        with pytest.raises(ConfigError):
            ModelConfig(**{"n_classes": 3, "base_channels": 2, **kw})


class TestAssembly:
    def test_full_model_branch_types(self):
        from scdkit.fusion import FusePair
        from scdkit.interaction import SqmlfiBranch
        m = make()
        assert isinstance(m.interaction, SqmlfiBranch)
        assert isinstance(m.fuser.fuse[0], FusePair)
        assert m.gapl is not None and m.uncertainty is not None

    def test_ablation_fallbacks(self):
        from scdkit.fusion import FusePairConcat
        from scdkit.interaction import ConcatLevels
        m = make(use_sqmlfi=False, use_btff=False, use_gapl=False, use_mto=False)
        assert isinstance(m.interaction, ConcatLevels)
        assert isinstance(m.fuser.fuse[0], FusePairConcat)
        assert m.gapl is None and m.uncertainty is None

    def test_seeded_construction_is_reproducible(self):
        a, b = make(), make()
        for (n1, p1), (n2, p2) in zip(a.named_parameters(), b.named_parameters()):
            assert n1 == n2
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_shared_parameters_are_the_encoder(self):
        m = make()
        shared = {id(p) for p in m.shared_parameters()}
        assert shared == {id(p) for p in m.encoder.parameters()}
        assert shared < {id(p) for p in m.parameters()}


def recorded_ops(monkeypatch) -> list[str]:
    """The op name of every tape entry created from now on."""
    ops = []

    class Counting(T._TapeEntry):
        __slots__ = ()

        def __init__(self, op, inputs, backward_fn):
            super().__init__(op, inputs, backward_fn)
            ops.append(op)

    monkeypatch.setattr(T, "_TapeEntry", Counting)
    return ops


VARIANTS = [{}, {"use_gapl": False}, {"use_sqmlfi": False},
            {"use_btff": False}, {"use_mto": False}]


class TestForward:
    @pytest.mark.parametrize("kw", VARIANTS)
    def test_losses_finite_in_every_variant(self, batch, kw):
        t1, t2, y1, y2, cd = batch
        out = make(**kw).forward_losses(t1, t2, y1, y2, cd)
        for key in ("loss_ss", "loss_cd", "loss_cpa", "loss_merge"):
            assert np.isfinite(out[key].data), key

    def test_cpa_constant_zero_without_graph_branch(self, batch):
        t1, t2, y1, y2, cd = batch
        out = make(use_gapl=False).forward_losses(t1, t2, y1, y2, cd)
        assert out["loss_cpa"].data == 0.0
        assert not out["loss_cpa"].requires_grad

    def test_merge_is_plain_sum_without_uncertainty(self, batch):
        t1, t2, y1, y2, cd = batch
        out = make(use_mto=False).forward_losses(t1, t2, y1, y2, cd)
        want = out["loss_ss"].data + out["loss_cd"].data
        assert out["loss_merge"].data == pytest.approx(want, abs=1e-14)

    def test_merge_uses_uncertainty_when_present(self, batch):
        t1, t2, y1, y2, cd = batch
        m = make()
        out = m.forward_losses(t1, t2, y1, y2, cd)
        want = m.uncertainty.merge(Tensor(out["loss_ss"].data.copy()),
                                   Tensor(out["loss_cd"].data.copy())).data
        assert out["loss_merge"].data == pytest.approx(want, abs=1e-14)

    def test_predict_shapes_and_dtypes(self, batch):
        t1, t2, y1, y2, cd = batch
        m = make()
        m.eval()
        p1, p2, pcd = m.predict(t1, t2)
        assert p1.shape == (2, 64, 64) and p1.dtype == np.int64
        assert set(np.unique(pcd)) <= {0, 1}
        assert p1.max() < 3

    def test_predict_records_no_tape_entry(self, batch, monkeypatch):
        ops = recorded_ops(monkeypatch)
        m = make()
        m.eval()
        m.predict(*batch[:2])
        assert ops == []

    def test_forward_losses_records_no_softmax(self, batch, monkeypatch):
        # the GAPL confidences are read as constants, so they record nothing
        ops = recorded_ops(monkeypatch)
        make().forward_losses(*batch)
        assert ops and "softmax" not in ops

    def test_total_loss_backpropagates_everywhere(self, batch):
        t1, t2, y1, y2, cd = batch
        m = make()
        out = m.forward_losses(t1, t2, y1, y2, cd)
        T.backward(T.add(out["loss_merge"], out["loss_cpa"]))
        dead = [n for n, p in m.named_parameters()
                if p.grad is None or not np.abs(p.grad).any()]
        # the uncertainty scales must move too, not just the conv stacks
        assert dead == []


class TestCheckpoint:
    def test_state_round_trip_through_bytes(self, batch, tmp_path):
        from scdkit import serialize
        t1, t2, y1, y2, cd = batch
        m = make()
        m.forward_losses(t1, t2, y1, y2, cd)  # train mode: bank sees data
        path = tmp_path / "m.gckpt"
        serialize.save_checkpoint(path, m.checkpoint_state())
        clone = ChangeDetectionModel.from_checkpoint_state(serialize.load_checkpoint(path))
        assert clone.config == m.config
        for (n1, p1), (n2, p2) in zip(m.named_parameters(), clone.named_parameters()):
            assert n1 == n2
            np.testing.assert_array_equal(p1.data, p2.data)
        np.testing.assert_array_equal(clone.gapl.bank.global_t1, m.gapl.bank.global_t1)
        assert clone.gapl.bank.seen_t1.tolist() == m.gapl.bank.seen_t1.tolist()

    def test_restored_model_predicts_identically(self, batch):
        t1, t2, y1, y2, cd = batch
        m = make()
        clone = ChangeDetectionModel.from_checkpoint_state(m.checkpoint_state())
        m.eval(), clone.eval()
        for a, b in zip(m.predict(t1, t2), clone.predict(t1, t2)):
            np.testing.assert_array_equal(a, b)

    def test_ablated_config_survives(self):
        m = make(use_btff=False)
        cfg = ChangeDetectionModel.config_from_state(m.checkpoint_state())
        assert cfg == m.config

    def test_checkpoint_with_dropped_options_still_loads(self, batch):
        t1, t2 = batch[:2]
        m = make()
        state = m.checkpoint_state()
        state["config.per_channel_merge"] = np.asarray(0.0)
        state["config.squared_kernel"] = np.asarray(0.0)
        state["config.beta"] = np.asarray(0.9)
        clone = ChangeDetectionModel.from_checkpoint_state(state)
        assert clone.config == m.config
        m.eval(), clone.eval()
        for a, b in zip(m.predict(t1, t2), clone.predict(t1, t2)):
            np.testing.assert_array_equal(a, b)

    def test_missing_config_entry_rejected(self):
        state = make().checkpoint_state()
        del state["config.n_classes"]
        with pytest.raises(FormatError):
            ChangeDetectionModel.config_from_state(state)

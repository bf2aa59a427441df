"""Training loop artifacts: CSV, checkpoint, report, abort path, graph lifetime."""

import ctypes
import os
import weakref

import numpy as np
import pytest

from scdkit import optim, serialize, train
from scdkit import tensor as T
from scdkit.data import SceneSpec, collate, generate
from scdkit.errors import ConfigError, NumericError
from scdkit.metrics import ConfusionMatrix, scores
from scdkit.model import ChangeDetectionModel, ModelConfig
from scdkit.tensor import Tensor
from scdkit.train import CSV_COLUMNS, evaluate, train_model, _combined_step


SPEC = SceneSpec(size=(64, 64), n_classes=3, n_shapes=3,
                 change_fraction=0.25, noise_std=0.02, seed=5)


@pytest.fixture(scope="module")
def samples():
    return generate(SPEC, 2)


def make(**kw):
    kw.setdefault("n_classes", 3)
    kw.setdefault("base_channels", 2)
    kw.setdefault("seed", 0)
    return ChangeDetectionModel(ModelConfig(**kw))


class TestEvaluate:
    def test_matches_manual_accumulation(self, samples):
        model = make()
        got = evaluate(model, samples, batch_size=1)

        model.eval()
        cm = ConfusionMatrix(3)
        for s in samples:
            t1, t2, y1, y2, cd = collate([s])
            p1, p2, pcd = model.predict(t1, t2)
            cm.accumulate(p1, p2, y1, y2, pcd, cd)
        want = scores(cm)
        assert got == want

    def test_batching_does_not_change_scores(self, samples):
        model = make()
        assert evaluate(model, samples, batch_size=1) == \
            evaluate(model, samples, batch_size=2)


class TestCombinedStep:
    @pytest.mark.parametrize("kw", [{"use_gapl": False}, {"use_mto": False},
                                    {"use_gapl": False, "use_mto": False}])
    def test_single_backward_paths_match_plain_sum(self, samples, kw):
        t1, t2, y1, y2, cd = collate(samples)
        a, b = make(**kw), make(**kw)
        a.eval(), b.eval()  # keep the prototype bank out of the picture

        _combined_step(a, a.forward_losses(t1, t2, y1, y2, cd))

        out = b.forward_losses(t1, t2, y1, y2, cd)
        b.zero_grad()
        T.backward(T.add(out["loss_merge"], out["loss_cpa"]))
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(pa.grad, pb.grad)

    def test_constant_cpa_matches_merge_backward(self, samples):
        # a cold bank with no class comparable in both temporals makes
        # loss_cpa a constant zero even when the graph branch is on
        t1, t2, y1, y2, cd = collate(samples)
        a, b = make(), make()
        a.eval(), b.eval()

        losses = a.forward_losses(t1, t2, y1, y2, cd)
        losses["loss_cpa"] = Tensor(0.0)
        _combined_step(a, losses)

        out = b.forward_losses(t1, t2, y1, y2, cd)
        b.zero_grad()
        T.backward(out["loss_merge"])
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(pa.grad, pb.grad)

    def test_rotating_path_combines_per_definition(self, samples):
        t1, t2, y1, y2, cd = collate(samples)
        a = make()
        b = ChangeDetectionModel.from_checkpoint_state(a.checkpoint_state())
        a.eval(), b.eval()

        _combined_step(a, a.forward_losses(t1, t2, y1, y2, cd))

        out = b.forward_losses(t1, t2, y1, y2, cd)
        b.zero_grad()
        T.backward(out["loss_merge"])
        g_merge = [p.grad.copy() for p in b.parameters()]
        b.zero_grad()
        T.backward(out["loss_cpa"])
        g_cpa = [p.grad.copy() for p in b.parameters()]

        shared = {id(p) for p in b.shared_parameters()}
        sel = [i for i, p in enumerate(b.parameters()) if id(p) in shared]
        ra, rb = optim.rotate_gradients(
            optim.flatten_arrays([g_merge[i] for i in sel]),
            optim.flatten_arrays([g_cpa[i] for i in sel]))
        rotated = optim.unflatten_vector(ra + rb, [g_merge[i] for i in sel])

        want = [gm + gc for gm, gc in zip(g_merge, g_cpa)]
        for i, g in zip(sel, rotated):
            want[i] = g
        for pa, w in zip(a.parameters(), want):
            np.testing.assert_array_equal(pa.grad, w)


class TestTrainModel:
    def test_artifacts_and_history(self, samples, tmp_path):
        run = tmp_path / "run"
        out = train_model(make(), samples, epochs=2, batch_size=2,
                          lr=1e-3, seed=0, run_dir=str(run))
        assert len(out["history"]) == 2
        assert out["final"]["status"] == "ok" and out["final"]["epochs"] == 2
        assert out["final"]["wall_seconds"] >= 0.0

        lines = (run / "history.csv").read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 3
        # %.17g cells must parse back to the exact float
        row = dict(zip(CSV_COLUMNS, lines[1].split(",")))
        assert float(row["loss_ss"]) == out["history"][0]["loss_ss"]
        assert (run / "checkpoint.gckpt").exists()
        assert "status" in (run / "report.txt").read_text()

    def test_eval_every_leaves_gaps_but_scores_final_epoch(self, samples, tmp_path):
        run = tmp_path / "run"
        out = train_model(make(), samples, epochs=3, batch_size=2,
                          lr=1e-3, seed=0, run_dir=str(run), eval_every=2)
        hist = out["history"]
        assert isinstance(hist[0]["miou"], float)
        assert hist[1]["miou"] == ""
        assert isinstance(hist[2]["miou"], float)
        middle = (run / "history.csv").read_text().splitlines()[2]
        assert middle.endswith(",,,,")

    @pytest.mark.parametrize("kw", [{"epochs": 0}, {"epochs": -1}, {"batch_size": 0},
                                    {"eval_every": 0}])
    def test_counts_below_one_rejected_before_any_write(self, samples, tmp_path, kw):
        run = tmp_path / "run"
        args = {"epochs": 1, "batch_size": 2, **kw}
        with pytest.raises(ConfigError, match=next(iter(kw))):
            train_model(make(), samples, lr=1e-3, seed=0, run_dir=str(run), **args)
        assert not run.exists()

    def test_checkpoint_restores_final_model_and_optimizer(self, samples, tmp_path):
        run = tmp_path / "run"
        out = train_model(make(), samples, epochs=2, batch_size=2,
                          lr=1e-3, seed=0, run_dir=str(run))
        state = serialize.load_checkpoint(run / "checkpoint.gckpt")
        assert state["progress.epoch"] == 1.0
        clone = ChangeDetectionModel.from_checkpoint_state(state)
        final = {k: out["final"][k] for k in ("oa", "miou", "sek", "f_scd")}
        assert evaluate(clone, samples, batch_size=2) == final
        # optimizer state rides along under its own prefix
        assert state["optim.t"] == 2.0
        names = [n for n, _ in clone.named_parameters()]
        adam = optim.Adam(clone.parameters(), lr=1e-3)
        adam.load_state(names, state)
        assert adam.t == 2

    def test_numeric_abort_keeps_last_checkpoint(self, samples, tmp_path):
        run = tmp_path / "run"
        model = make()
        train_model(model, samples, epochs=1, batch_size=2,
                    lr=1e-3, seed=0, run_dir=str(run))
        good = (run / "checkpoint.gckpt").read_bytes()

        model.encoder.stages[0].conv.weight.data[...] = np.nan
        with pytest.raises(NumericError):
            train_model(model, samples, epochs=1, batch_size=2,
                        lr=1e-3, seed=0, run_dir=str(run))
        assert "aborted" in (run / "report.txt").read_text()
        assert (run / "checkpoint.gckpt").read_bytes() == good

    def test_two_runs_are_byte_identical(self, samples, tmp_path):
        blobs = []
        for name in ("a", "b"):
            run = tmp_path / name
            train_model(make(), samples, epochs=2, batch_size=2,
                        lr=1e-3, seed=0, run_dir=str(run))
            blobs.append(((run / "history.csv").read_bytes(),
                          (run / "checkpoint.gckpt").read_bytes()))
        assert blobs[0] == blobs[1]

    def test_loss_goes_down(self, samples):
        out = train_model(make(), samples, epochs=10, batch_size=2,
                          lr=3e-3, seed=0)
        assert out["history"][-1]["loss_ss"] < out["history"][0]["loss_ss"]


class TestStepLifetime:
    def test_step_graph_is_released_before_next_forward(self, samples, monkeypatch):
        # entries carry the inputs, closures and buffers of their op, so a
        # live entry is a live graph
        live = weakref.WeakSet()

        class Tracked(T._TapeEntry):
            __slots__ = ("__weakref__",)

            def __init__(self, op, inputs, backward_fn):
                super().__init__(op, inputs, backward_fn)
                live.add(self)

        alive_at_forward = []
        forward = ChangeDetectionModel.forward_losses

        def counting_forward(self, *batch):
            alive_at_forward.append(len(live))
            return forward(self, *batch)

        monkeypatch.setattr(T, "_TapeEntry", Tracked)
        monkeypatch.setattr(ChangeDetectionModel, "forward_losses", counting_forward)
        train_model(make(), samples, epochs=2, batch_size=1, lr=1e-3, seed=0)
        assert alive_at_forward == [0, 0, 0, 0]

    def test_runs_without_mallopt(self, samples, monkeypatch):
        # a C library with no mallopt (not glibc, or a stripped one)
        monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
        train._keep_freed_memory.cache_clear()
        try:
            out = train_model(make(), samples, epochs=1, batch_size=2,
                              lr=1e-3, seed=0)
        finally:
            train._keep_freed_memory.cache_clear()
        assert out["final"]["status"] == "ok"


class TestEnvironmentFingerprint:
    def test_report_records_environment(self, samples, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        run = tmp_path / "run"
        out = train_model(make(), samples, epochs=1, batch_size=2,
                          lr=1e-3, seed=0, run_dir=str(run))
        report = (run / "report.txt").read_text()
        assert f"env.numpy='{np.__version__}'" in report
        assert "env.openblas_num_threads='3'" in report
        for key in ("env.python=", "env.blas="):
            assert key in report
        # the floats that ablate tabulates stay free of it
        assert not any(k.startswith("env.") for k in out["final"])

    def test_unset_thread_count(self, samples, tmp_path, monkeypatch):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        run = tmp_path / "run"
        train_model(make(), samples, epochs=1, batch_size=2,
                    lr=1e-3, seed=0, run_dir=str(run))
        assert "env.openblas_num_threads='unset'" in (run / "report.txt").read_text()

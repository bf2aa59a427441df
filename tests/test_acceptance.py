"""Acceptance gate: the eight release criteria, one test and one verdict
line each.

Each test prints a [PASS]/[FAIL] line straight to the console (capture
suspended for that one line) so a plain pytest run shows the per-criterion
outcome, then asserts. Criteria 5 and 6 train real models and dominate the
runtime of the whole suite, so they carry the ``slow`` marker
(``pytest -m "not slow"`` leaves them out); everything else is sub-second.
"""

import time

import numpy as np
import pytest

from scdkit import checks, optim
from scdkit.data import SceneSpec, generate
from scdkit.graphproto import (GaplBranch, PrototypeBank, affinity,
                               compute_prototypes, cpa_loss, gcn_layer)
from scdkit.metrics import ConfusionMatrix, scores
from scdkit.model import ChangeDetectionModel, ModelConfig
from scdkit.tensor import Tensor
from scdkit.train import train_model


def _verdict(capsys, tag: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {tag}: {detail}", flush=True)


DATA = SceneSpec(size=(64, 64), n_classes=4, n_shapes=6,
                 change_fraction=0.2, noise_std=0.05, seed=0)


def test_criterion_1_gradient_checks(capsys):
    t0 = time.monotonic()
    results = checks.run_all(seeds=range(5))
    elapsed = time.monotonic() - t0
    worst = max(r.max_error for r in results)
    ok = all(r.passed for r in results) and worst < 1e-4 and elapsed < 120
    _verdict(capsys, "criterion 1 (gradient checks)", ok,
             f"{len(results)} families x 5 seeds, max rel err {worst:.2e}, "
             f"{elapsed:.1f}s")
    assert ok, [r.name for r in results if not r.passed]


def test_criterion_2_rotation_invariants(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    kept = rotated = 0
    for _ in range(10_000):
        dim = int(rng.integers(1, 65))
        a = rng.normal(size=dim)
        b = rng.normal(size=dim)
        ra, rb = optim.rotate_gradients(a, b)
        if a @ b >= 0.0:
            kept += 1
            assert ra.tobytes() == a.tobytes() and rb.tobytes() == b.tobytes()
        else:
            rotated += 1
            assert ra @ b >= -1e-12 and rb @ a >= -1e-12
            assert np.linalg.norm(ra) <= np.linalg.norm(a) + 1e-12
            assert np.linalg.norm(rb) <= np.linalg.norm(b) + 1e-12
    for dim in (1, 3, 17):
        v = rng.normal(size=dim)
        za, zb = optim.rotate_gradients(v, -v)
        assert not za.any() and not zb.any()
    elapsed = time.monotonic() - t0
    ok = kept > 1000 and rotated > 1000 and elapsed < 60
    _verdict(capsys, "criterion 2 (rotation invariants)", ok,
             f"10000 pairs ({rotated} conflicting), opposites cancel exactly, "
             f"{elapsed:.1f}s")
    assert ok


def test_criterion_3_graph_prototype_oracles(capsys):
    worst = 0.0
    for seed in range(8):
        rng = np.random.default_rng(seed)
        ns = int(rng.integers(2, 17))
        nc = int(rng.integers(2, 5))
        d = int(rng.integers(2, 9))

        f = rng.normal(size=(ns, d))
        a = np.abs(rng.normal(size=(ns, ns)))
        a = 0.5 * (a + a.T)
        w = rng.normal(size=(d, d))
        a_tilde = a + np.eye(ns)
        deg = a_tilde.sum(axis=1)
        want = np.maximum(0.0, (a_tilde / np.sqrt(np.outer(deg, deg))) @ f @ w)
        got = gcn_layer(Tensor(f), Tensor(a), Tensor(w)).data
        worst = max(worst, np.abs(got - want).max())

        conf = rng.random((ns, nc))
        conf[:, 0] = 0.0  # one guaranteed-absent class
        protos, present = compute_prototypes(Tensor(f), conf)
        want_p = np.zeros((nc, d))
        for k in range(1, nc):
            want_p[k] = conf[:, k] @ f / conf[:, k].sum()
        worst = max(worst, np.abs(protos.data - want_p).max())
        assert present.tolist() == [False] + [True] * (nc - 1)

        pa = rng.normal(size=(nc, d)) + 0.1
        pb = rng.normal(size=(nc, d)) + 0.1
        want_aff = np.array([[pa[i] @ pb[j] / (np.linalg.norm(pa[i]) * np.linalg.norm(pb[j]))
                              for j in range(nc)] for i in range(nc)])
        worst = max(worst, np.abs(affinity(Tensor(pa), Tensor(pb)).data - want_aff).max())

        m1, m2, m3 = (rng.normal(size=(nc, nc)) for _ in range(3))
        want_cpa = (np.abs(m1 - m2) + np.abs(m1 - m3) + np.abs(m2 - m3)).mean()
        got_cpa = cpa_loss(Tensor(m1), Tensor(m2), Tensor(m3)).item()
        worst = max(worst, abs(got_cpa - want_cpa))

    rng = np.random.default_rng(99)
    branch = GaplBranch(dim=3, n_classes=3, rng=rng)
    x4 = Tensor(rng.normal(size=(1, 3, 4, 4)))
    conf = rng.random((1, 3, 4, 4))
    loss, _ = branch(x4, x4, conf, conf)
    identical_zero = loss.item() == 0.0

    ok = worst <= 1e-12 and identical_zero
    _verdict(capsys, "criterion 3 (graph prototype oracles)", ok,
             f"8 random instances, max |dev| {worst:.2e}, "
             f"identical temporals give loss exactly 0")
    assert ok


def test_criterion_4_ema_bank_convergence(capsys):
    rng = np.random.default_rng(2)
    bank = PrototypeBank(n_classes=3, dim=5, beta=0.9)
    g0 = rng.normal(size=(3, 5))
    v = rng.normal(size=(3, 5))
    bank.global_t1[...] = g0
    everyone = np.ones(3, dtype=bool)
    n = 50
    for _ in range(n):
        bank.update(v, everyone, temporal=1)
    want = 0.9 ** n * g0 + (1.0 - 0.9 ** n) * v
    dev = np.abs(bank.global_t1 - want).max()
    ok = dev <= 1e-12
    _verdict(capsys, "criterion 4 (EMA bank convergence)", ok,
             f"beta 0.9, {n} steps, max |dev from closed form| {dev:.2e}")
    assert ok


@pytest.mark.slow
def test_criterion_5_tiny_overfit(capsys):
    samples = generate(DATA, 8)
    model = ChangeDetectionModel(ModelConfig(n_classes=4, base_channels=8, seed=0))
    t0 = time.monotonic()
    out = train_model(model, samples, epochs=300, batch_size=4, lr=3e-3,
                      seed=0, eval_every=300)
    wall = time.monotonic() - t0
    miou, oa = out["final"]["miou"], out["final"]["oa"]
    ok = miou >= 0.95 and oa >= 0.98 and wall <= 900
    _verdict(capsys, "criterion 5 (tiny overfit)", ok,
             f"miou {miou:.4f} (>= 0.95), oa {oa:.4f} (>= 0.98), {wall:.0f}s")
    assert ok


@pytest.mark.slow
def test_criterion_6_ablation_trend(capsys):
    samples = generate(DATA, 64)
    variants = {"full": {}, "no-gapl": {"use_gapl": False},
                "no-sqmlfi": {"use_sqmlfi": False},
                "no-btff": {"use_btff": False}, "no-mto": {"use_mto": False}}
    means = {}
    for name, kw in variants.items():
        mious = []
        for seed in (0, 1, 2):
            model = ChangeDetectionModel(
                ModelConfig(n_classes=4, base_channels=8, seed=seed, **kw))
            out = train_model(model, samples, epochs=20, batch_size=8,
                              lr=3e-3, seed=seed, eval_every=20)
            mious.append(out["final"]["miou"])
        means[name] = float(np.mean(mious))
    full = means["full"]
    ok = all(full >= m - 0.01 for m in means.values())
    _verdict(capsys, "criterion 6 (ablation trend)", ok,
             "mean miou over 3 seeds: " +
             " ".join(f"{k}={v:.4f}" for k, v in means.items()) +
             " (full >= each - 0.01)")
    assert ok, means


def test_criterion_7_metrics_oracle(capsys):
    worst = 0.0
    for seed in range(4):
        rng = np.random.default_rng(seed)
        hw = (8, 8)
        p1, p2, y1, y2 = (rng.integers(0, 4, hw) for _ in range(4))
        pcd, ycd = rng.integers(0, 2, hw), rng.integers(0, 2, hw)

        m = np.zeros((5, 5), dtype=np.int64)
        for sem_p, sem_t in ((p1, y1), (p2, y2)):
            for idx in np.ndindex(*hw):
                m[sem_p[idx] + 1 if pcd[idx] else 0,
                  sem_t[idx] + 1 if ycd[idx] else 0] += 1
        cm = ConfusionMatrix(4).accumulate(p1, p2, y1, y2, pcd, ycd)
        assert np.array_equal(cm.m, m)

        mf = m.astype(float)
        total = mf.sum()
        m00 = mf[0, 0]
        iou0 = m00 / (mf[0].sum() + mf[:, 0].sum() - m00)
        cc = np.trace(mf) - m00
        iou1 = cc / (total - m00)
        z = mf.copy()
        z[0, 0] = 0.0
        po = np.trace(z) / z.sum()
        pe = (z.sum(axis=1) @ z.sum(axis=0)) / z.sum() ** 2
        kappa = (po - pe) / (1 - pe)
        prec, rec = cc / mf[1:].sum(), cc / mf[:, 1:].sum()
        want = {"oa": np.trace(mf) / total, "miou": 0.5 * (iou0 + iou1),
                "sek": np.exp(iou1 - 1.0) * kappa,
                "f_scd": 2 * prec * rec / (prec + rec)}
        got = scores(cm)
        worst = max(worst, max(abs(got[k] - want[k]) for k in want))

    y1 = np.arange(64).reshape(8, 8) % 4
    y2 = (y1 + 1) % 4
    ycd = (np.arange(64).reshape(8, 8) // 8) % 2
    perfect = scores(ConfusionMatrix(4).accumulate(y1, y2, y1, y2, ycd, ycd))
    all_ones = (perfect["oa"] == perfect["miou"] == perfect["f_scd"] == 1.0)

    ok = worst <= 1e-12 and all_ones
    _verdict(capsys, "criterion 7 (metrics oracle)", ok,
             f"counts exact, max score |dev| {worst:.2e}, perfect input "
             f"scores 1.0")
    assert ok


def test_criterion_8_determinism(tmp_path, capsys):
    samples = generate(DATA, 4)
    blobs = []
    for name in ("first", "second"):
        run = tmp_path / name
        model = ChangeDetectionModel(ModelConfig(n_classes=4, base_channels=4, seed=0))
        train_model(model, samples, epochs=3, batch_size=2, lr=1e-3,
                    seed=0, run_dir=str(run))
        blobs.append(((run / "history.csv").read_bytes(),
                      (run / "checkpoint.gckpt").read_bytes()))
    ok = blobs[0] == blobs[1]
    _verdict(capsys, "criterion 8 (determinism)", ok,
             f"two identical runs, history.csv {len(blobs[0][0])} B and "
             f"checkpoint {len(blobs[0][1])} B byte-identical")
    assert ok

"""Confusion matrix and scores against a pixel-loop brute force."""

import numpy as np
import pytest

from scdkit.errors import DataError, ShapeError
from scdkit.metrics import ConfusionMatrix, format_report, scores, write_report


def brute_matrix(pred1, pred2, y1, y2, pcd, ycd, n_classes):
    """Per-pixel python-loop remap + count. Rows predictions, cols truth."""
    k = n_classes + 1
    m = np.zeros((k, k), dtype=np.int64)
    for sem_p, sem_t in ((pred1, y1), (pred2, y2)):
        for idx in np.ndindex(*np.shape(sem_p)):
            p = sem_p[idx] + 1 if pcd[idx] == 1 else 0
            t = sem_t[idx] + 1 if ycd[idx] == 1 else 0
            m[p, t] += 1
    return m


def brute_scores(m):
    m = m.astype(float)
    total = m.sum()
    oa = np.trace(m) / total
    m00 = m[0, 0]
    u0 = m[0].sum() + m[:, 0].sum() - m00
    iou0 = m00 / u0 if u0 else 1.0
    cc = np.trace(m) - m00
    uc = total - m00
    iou1 = cc / uc if uc else 1.0

    z = m.copy()
    z[0, 0] = 0
    zt = z.sum()
    if zt == 0:
        kappa = 1.0
    else:
        po = np.trace(z) / zt
        pe = (z.sum(axis=1) @ z.sum(axis=0)) / zt ** 2
        kappa = (1.0 if po >= 1 else 0.0) if pe >= 1 else (po - pe) / (1 - pe)

    pc, tc = m[1:].sum(), m[:, 1:].sum()
    if pc == 0 and tc == 0:
        f = 1.0
    else:
        prec = cc / pc if pc else 0.0
        rec = cc / tc if tc else 0.0
        f = 0.0 if prec + rec == 0 else 2 * prec * rec / (prec + rec)
    return {"oa": oa, "miou": 0.5 * (iou0 + iou1),
            "sek": np.exp(iou1 - 1) * kappa, "f_scd": f}


def random_sample(rng, n_classes=4, hw=(8, 8)):
    return (rng.integers(0, n_classes, hw), rng.integers(0, n_classes, hw),
            rng.integers(0, n_classes, hw), rng.integers(0, n_classes, hw),
            rng.integers(0, 2, hw), rng.integers(0, 2, hw))


class TestAccumulate:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_counts_match_pixel_loop(self, seed):
        rng = np.random.default_rng(seed)
        sample = random_sample(rng)
        cm = ConfusionMatrix(4).accumulate(*sample)
        np.testing.assert_array_equal(cm.m, brute_matrix(*sample, 4))
        assert cm.m.sum() == 2 * 64

    def test_unchanged_pixels_ignore_semantics(self):
        # both masks zero: everything lands in (0, 0) whatever the classes say
        hw = (4, 4)
        rng = np.random.default_rng(5)
        cm = ConfusionMatrix(3).accumulate(
            rng.integers(0, 3, hw), rng.integers(0, 3, hw),
            rng.integers(0, 3, hw), rng.integers(0, 3, hw),
            np.zeros(hw, dtype=int), np.zeros(hw, dtype=int))
        assert cm.m[0, 0] == 32 and cm.m.sum() == 32

    def test_batch_equals_per_sample(self):
        rng = np.random.default_rng(7)
        batch = [np.stack(arrs) for arrs in
                 zip(random_sample(rng), random_sample(rng))]
        whole = ConfusionMatrix(4).accumulate(*batch)
        parts = ConfusionMatrix(4)
        for i in range(2):
            parts.accumulate(*[a[i] for a in batch])
        np.testing.assert_array_equal(whole.m, parts.m)

    def test_pixel_order_invariance(self):
        rng = np.random.default_rng(9)
        sample = random_sample(rng)
        perm = rng.permutation(64)
        shuffled = [a.ravel()[perm].reshape(8, 8) for a in sample]
        np.testing.assert_array_equal(ConfusionMatrix(4).accumulate(*sample).m,
                                      ConfusionMatrix(4).accumulate(*shuffled).m)

    def test_semantic_id_out_of_range(self):
        hw = (2, 2)
        ones = np.ones(hw, dtype=int)
        with pytest.raises(DataError):
            ConfusionMatrix(2).accumulate(2 * ones, ones, ones, ones, ones, ones)

    def test_non_binary_mask(self):
        hw = (2, 2)
        z = np.zeros(hw, dtype=int)
        for mask in (2 * np.ones(hw, dtype=int), np.full(hw, 0.5)):
            with pytest.raises(DataError):
                ConfusionMatrix(2).accumulate(z, z, z, z, mask, z)

    def test_shape_mismatch(self):
        z = np.zeros((2, 2), dtype=int)
        with pytest.raises(ShapeError):
            ConfusionMatrix(2).accumulate(z, z, z, z, z, np.zeros((3, 3), dtype=int))


class TestScores:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_match_independent_formulas(self, seed):
        rng = np.random.default_rng(seed)
        cm = ConfusionMatrix(4).accumulate(*random_sample(rng))
        got = scores(cm)
        want = brute_scores(cm.m)
        assert set(got) == {"oa", "miou", "sek", "f_scd"}
        for key in want:
            assert got[key] == pytest.approx(want[key], abs=1e-12), key

    def test_perfect_prediction_maxes_everything(self):
        rng = np.random.default_rng(13)
        y1, y2 = rng.integers(0, 4, (8, 8)), rng.integers(0, 4, (8, 8))
        ycd = rng.integers(0, 2, (8, 8))
        got = scores(ConfusionMatrix(4).accumulate(y1, y2, y1, y2, ycd, ycd))
        assert got["oa"] == 1.0 and got["miou"] == 1.0 and got["f_scd"] == 1.0
        assert got["sek"] == pytest.approx(1.0, abs=1e-12)

    def test_all_unchanged_is_vacuously_perfect(self):
        z = np.zeros((4, 4), dtype=int)
        got = scores(ConfusionMatrix(3).accumulate(z, z, z, z, z, z))
        assert got == {"oa": 1.0, "miou": 1.0, "sek": 1.0, "f_scd": 1.0}

    def test_degenerate_kappa_single_cell(self):
        # every changed pixel correct in one class: pe == 1, agreement total
        cm = ConfusionMatrix(2)
        cm.m[1, 1] = 40
        assert scores(cm)["sek"] == pytest.approx(1.0)

    def test_degenerate_kappa_total_disagreement(self):
        cm = ConfusionMatrix(2)
        cm.m[1, 2] = 40
        assert scores(cm)["sek"] == 0.0

    def test_empty_matrix_rejected(self):
        with pytest.raises(DataError):
            scores(ConfusionMatrix(2))

    def test_scores_are_permutation_stable(self):
        # semantic class relabeling permutes rows/cols > 0 but keeps scores
        rng = np.random.default_rng(17)
        cm = ConfusionMatrix(3).accumulate(*random_sample(rng, n_classes=3))
        perm = np.array([0, 2, 3, 1])  # fix slot 0, shuffle classes
        cm2 = ConfusionMatrix(3)
        cm2.m = cm.m[np.ix_(perm, perm)]
        a, b = scores(cm), scores(cm2)
        for key in a:
            assert a[key] == pytest.approx(b[key], abs=1e-12), key


class TestReports:
    def test_sorted_keys_and_float_precision(self):
        text = format_report({"b": 0.1, "a": 3, "c": "run"})
        lines = text.splitlines()
        assert lines == ["a=3", f"b={0.1:.17g}", "c='run'"]
        assert float(lines[1].split("=")[1]) == 0.1

    def test_write_report_round_trip(self, tmp_path):
        path = tmp_path / "report.txt"
        write_report(path, {"oa": 0.5, "epochs": 3})
        assert path.read_text() == "epochs=3\noa=0.5\n"

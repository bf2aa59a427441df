"""Synthetic bi-temporal scenes: determinism, internal consistency, disk format."""

import numpy as np
import pytest

from scdkit.data import (SceneSpec, class_colors, collate, generate,
                         generate_sample, load_dataset, save_dataset)
from scdkit.errors import DataError


SPEC = SceneSpec(size=(64, 64), n_classes=4, n_shapes=6,
                 change_fraction=0.2, noise_std=0.05, seed=3)


class TestSceneSpec:
    def test_defaults_are_valid(self):
        SceneSpec()

    @pytest.mark.parametrize("kw", [
        {"size": (48, 64)},
        {"n_classes": 1},
        {"change_fraction": 0.0},
        {"change_fraction": 1.0},
        {"noise_std": -0.1},
        {"n_shapes": -1},
    ])
    def test_invalid_specs_rejected(self, kw):
        with pytest.raises(DataError):
            SceneSpec(**kw)

    def test_frozen(self):
        with pytest.raises(Exception):
            SPEC.seed = 99


class TestGeneration:
    def test_shapes_and_dtypes(self):
        s = generate_sample(SPEC, 0)
        assert s.t1.shape == (3, 64, 64) and s.t1.dtype == np.float64
        assert s.y1.shape == (64, 64) and s.y1.dtype == np.int64
        assert s.cd.shape == (64, 64) and s.cd.dtype == np.int64

    def test_images_in_unit_range(self):
        s = generate_sample(SPEC, 1)
        for img in (s.t1, s.t2):
            assert img.min() >= 0.0 and img.max() <= 1.0

    def test_labels_in_class_range(self):
        s = generate_sample(SPEC, 2)
        assert s.y1.min() >= 0 and s.y1.max() < SPEC.n_classes
        assert set(np.unique(s.cd)) <= {0, 1}

    def test_change_mask_consistent(self):
        for i in range(4):
            s = generate_sample(SPEC, i)
            np.testing.assert_array_equal(s.cd, (s.y1 != s.y2).astype(np.int64))
            s.validate(SPEC.n_classes)

    def test_change_fraction_near_target(self):
        fracs = [generate_sample(SPEC, i).cd.mean() for i in range(8)]
        # mutation stops once the target is crossed; one more shape can
        # overshoot, so allow a band rather than an exact hit
        assert all(0.1 <= f <= 0.5 for f in fracs)
        assert np.mean(fracs) == pytest.approx(SPEC.change_fraction, abs=0.1)

    def test_deterministic_per_index(self):
        a = generate_sample(SPEC, 5)
        b = generate_sample(SPEC, 5)
        for field in ("t1", "t2", "y1", "y2", "cd"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))

    def test_indices_differ(self):
        a, b = generate_sample(SPEC, 0), generate_sample(SPEC, 1)
        assert not np.array_equal(a.y1, b.y1)

    def test_seed_shifts_everything(self):
        other = SceneSpec(size=(64, 64), n_classes=4, n_shapes=6,
                          change_fraction=0.2, noise_std=0.05, seed=4)
        assert not np.array_equal(generate_sample(SPEC, 0).y1,
                                  generate_sample(other, 0).y1)

    def test_noiseless_images_are_pure_class_colors(self):
        spec = SceneSpec(size=(32, 32), noise_std=0.0, seed=1)
        s = generate_sample(spec, 0)
        colors = class_colors(spec.n_classes)
        np.testing.assert_allclose(s.t1, colors[s.y1].transpose(2, 0, 1), atol=1e-15)

    def test_unreachable_fraction_warns(self):
        spec = SceneSpec(size=(32, 32), n_shapes=0, change_fraction=0.5, seed=0)
        with pytest.warns(UserWarning, match="capped"):
            s = generate_sample(spec, 0)
        assert s.cd.sum() == 0

    def test_distinct_colors(self):
        colors = class_colors(4)
        assert colors.shape == (4, 3)
        assert len({tuple(c) for c in np.round(colors, 6)}) == 4


class TestCollate:
    def test_stacks_in_order(self):
        samples = generate(SPEC, 3)
        t1, t2, y1, y2, cd = collate(samples)
        assert t1.shape == (3, 3, 64, 64) and y1.shape == (3, 64, 64)
        np.testing.assert_array_equal(t2[1], samples[1].t2)
        np.testing.assert_array_equal(cd[2], samples[2].cd)


class TestDiskFormat:
    def test_round_trip(self, tmp_path):
        samples = generate(SPEC, 3)
        save_dataset(tmp_path / "ds", samples, SPEC)
        back, spec = load_dataset(tmp_path / "ds")
        assert spec == SPEC
        assert len(back) == 3
        for a, b in zip(samples, back):
            for field in ("t1", "t2", "y1", "y2", "cd"):
                np.testing.assert_array_equal(getattr(a, field), getattr(b, field))

    def test_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "nope")

    def test_manifest_count_mismatch(self, tmp_path):
        save_dataset(tmp_path / "ds", generate(SPEC, 2), SPEC)
        manifest = tmp_path / "ds" / "manifest.txt"
        text = manifest.read_text().replace("count=2", "count=3")
        manifest.write_text(text)
        with pytest.raises(DataError):
            load_dataset(tmp_path / "ds")

    def test_empty_dataset_rejected(self, tmp_path):
        save_dataset(tmp_path / "ds", [], SPEC)
        with pytest.raises(DataError, match="count"):
            load_dataset(tmp_path / "ds")

    def test_manifest_missing_field(self, tmp_path):
        save_dataset(tmp_path / "ds", generate(SPEC, 1), SPEC)
        manifest = tmp_path / "ds" / "manifest.txt"
        lines = [l for l in manifest.read_text().splitlines()
                 if not l.startswith("n_classes=")]
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError):
            load_dataset(tmp_path / "ds")

    def test_corrupt_tensor_file(self, tmp_path):
        from scdkit.errors import FormatError
        save_dataset(tmp_path / "ds", generate(SPEC, 1), SPEC)
        victim = next((tmp_path / "ds").glob("*.t1.gtnsr"))
        victim.write_bytes(b"garbage")
        with pytest.raises(FormatError):
            load_dataset(tmp_path / "ds")

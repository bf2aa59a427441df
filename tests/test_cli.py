"""CLI behavior: config resolution, subcommands, exit codes."""

import numpy as np
import pytest

from scdkit import cli
from scdkit.errors import ConfigError
from scdkit.serialize import read_tensor, save_checkpoint, write_tensor


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def dataset(tmp_path, capsys):
    data = tmp_path / "data"
    code, _, _ = run(capsys, "gen-data",
                     "--set", f"data_dir={data}",
                     "--set", "count=2", "--set", "n_classes=3",
                     "--set", "n_shapes=3")
    assert code == 0
    return data


TRAIN_SETS = ("--set", "epochs=1", "--set", "batch_size=2",
              "--set", "base_channels=2", "--set", "lr=0.001")


class TestConfigResolution:
    def test_file_then_set_precedence(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("# comment\n\nepochs = 7\nlr = 0.01\n")
        args = cli.build_parser().parse_args(
            ["train", "--config", str(conf), "--set", "lr=0.002"])
        cfg = cli.resolve_config(args)
        assert cfg.epochs == 7
        assert cfg.lr == 0.002

    @pytest.mark.parametrize("line", ["bogus_key=1", "epochs=soon",
                                      "use_gapl=maybe", "no equals sign"])
    def test_bad_config_lines_rejected(self, tmp_path, line):
        conf = tmp_path / "run.conf"
        conf.write_text(line + "\n")
        with pytest.raises(ConfigError):
            cli.read_config_file(str(conf))

    def test_unknown_set_key_exits_2(self, capsys):
        code, _, err = run(capsys, "gradcheck", "--set", "bogus=1")
        assert code == 2 and "bogus" in err

    def test_malformed_set_exits_2(self, capsys):
        code, _, err = run(capsys, "gradcheck", "--set", "epochs")
        assert code == 2 and "key=value" in err

    @pytest.mark.parametrize("command,setting", [
        ("gen-data", "count=0"), ("train", "epochs=0"), ("train", "batch_size=0"),
        ("train", "eval_every=0"), ("gradcheck", "gradcheck_seeds=0"),
        ("train", "epochs=-1")])
    def test_counts_below_one_exit_2(self, tmp_path, capsys, command, setting):
        code, _, err = run(capsys, command, "--set", f"data_dir={tmp_path / 'data'}",
                           "--set", f"run_dir={tmp_path / 'run'}", "--set", setting)
        assert code == 2 and setting.split("=")[0] in err
        assert not (tmp_path / "data").exists() and not (tmp_path / "run").exists()


class TestGenData:
    def test_writes_loadable_dataset(self, dataset, capsys):
        from scdkit.data import load_dataset
        samples, spec = load_dataset(str(dataset))
        assert len(samples) == 2
        assert spec.n_classes == 3
        out = capsys.readouterr().out
        assert out == ""  # fixture already consumed its own output


class TestTrainEval:
    def test_train_then_eval(self, dataset, tmp_path, capsys):
        rd = tmp_path / "run"
        code, out, _ = run(capsys, "train",
                           "--set", f"data_dir={dataset}",
                           "--set", f"run_dir={rd}", *TRAIN_SETS)
        assert code == 0
        for name in ("config.txt", "history.csv", "checkpoint.gckpt", "report.txt"):
            assert (rd / name).exists(), name
        assert "status" in out
        config_echo = (rd / "config.txt").read_text()
        assert "epochs 1" in config_echo.replace("=", " ").replace(":", " ")

        code, out, _ = run(capsys, "eval",
                           "--set", f"data_dir={dataset}",
                           "--set", f"run_dir={rd}",
                           "--set", "batch_size=2")
        assert code == 0
        assert (rd / "eval_report.txt").exists()
        assert "miou" in out

    def test_eval_explicit_checkpoint_flag(self, dataset, tmp_path, capsys):
        rd = tmp_path / "run"
        run(capsys, "train", "--set", f"data_dir={dataset}",
            "--set", f"run_dir={rd}", *TRAIN_SETS)
        other = tmp_path / "elsewhere"
        code, out, _ = run(capsys, "eval",
                           "--set", f"data_dir={dataset}",
                           "--set", f"run_dir={other}",
                           "--set", f"checkpoint={rd / 'checkpoint.gckpt'}",
                           "--set", "batch_size=2")
        assert code == 0 and (other / "eval_report.txt").exists()

    def test_missing_dataset_exits_3(self, tmp_path, capsys):
        code, _, err = run(capsys, "train",
                           "--set", f"data_dir={tmp_path / 'nope'}", *TRAIN_SETS)
        assert code == 3 and "error" in err

    def test_unrepresentable_checkpoint_entry_exits_4(self, dataset, tmp_path, capsys):
        # one entry's header claims shape (0, 2**63): an empty payload
        # passes the length check, the shape itself cannot exist
        ckpt = tmp_path / "empty.gckpt"
        save_checkpoint(ckpt, {"empty": np.zeros((0, 2))})
        ckpt.write_bytes(ckpt.read_bytes()[:-8] + (2 ** 63).to_bytes(8, "little"))
        code, _, err = run(capsys, "eval", "--set", f"data_dir={dataset}",
                           "--set", f"run_dir={tmp_path / 'eval'}",
                           "--set", f"checkpoint={ckpt}")
        assert code == 4 and "error" in err

    def test_data_dir_that_is_a_file_exits_3(self, tmp_path, capsys):
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("")
        code, _, err = run(capsys, "train", "--set", f"data_dir={not_a_dir}", *TRAIN_SETS)
        assert code == 3 and "error" in err

    def test_checkpoint_that_is_a_directory_exits_3(self, dataset, tmp_path, capsys):
        code, _, err = run(capsys, "eval", "--set", f"data_dir={dataset}",
                           "--set", f"run_dir={tmp_path / 'eval'}",
                           "--set", f"checkpoint={tmp_path}")
        assert code == 3 and "error" in err

    def test_missing_checkpoint_exits_3(self, dataset, tmp_path, capsys):
        code, _, _ = run(capsys, "eval",
                         "--set", f"data_dir={dataset}",
                         "--set", f"run_dir={tmp_path / 'empty'}")
        assert code == 3

    def test_corrupt_checkpoint_exits_4(self, dataset, tmp_path, capsys):
        bad = tmp_path / "bad.gckpt"
        bad.write_bytes(b"not a checkpoint at all")
        code, _, err = run(capsys, "eval",
                           "--set", f"data_dir={dataset}",
                           "--set", f"checkpoint={bad}")
        assert code == 4 and "error" in err

    def test_class_count_mismatch_exits_3(self, dataset, tmp_path, capsys):
        rd = tmp_path / "run"
        run(capsys, "train", "--set", f"data_dir={dataset}",
            "--set", f"run_dir={rd}", *TRAIN_SETS)
        other = tmp_path / "data5"
        run(capsys, "gen-data", "--set", f"data_dir={other}",
            "--set", "count=2", "--set", "n_classes=5")
        code, _, err = run(capsys, "eval",
                           "--set", f"data_dir={other}",
                           "--set", f"run_dir={rd}")
        assert code == 3 and "classes" in err


def edit_sample(dataset, **edits):
    """Rewrite parts of sample 0000: ``part=fn(array) -> array``."""
    for part, fn in edits.items():
        path = dataset / f"0000.{part}.gtnsr"
        write_tensor(path, fn(read_tensor(path)))


def set_pixel(value):
    def fn(arr):
        arr = arr.copy()
        arr[0, 0] = value
        return arr
    return fn


class TestMalformedDatasetExits3:
    """Manifest, shape and label faults are data errors, not crashes."""

    def train(self, capsys, dataset, tmp_path):
        code, _, err = run(capsys, "train", "--set", f"data_dir={dataset}",
                           "--set", f"run_dir={tmp_path / 'run'}", *TRAIN_SETS)
        return code, err

    def test_non_integer_manifest_field(self, dataset, tmp_path, capsys):
        manifest = dataset / "manifest.txt"
        manifest.write_text(manifest.read_text().replace("height=64", "height=abc"))
        code, err = self.train(capsys, dataset, tmp_path)
        assert code == 3 and "manifest" in err

    def test_image_shape_disagrees_with_manifest(self, dataset, tmp_path, capsys):
        edit_sample(dataset, t1=lambda a: a[:, :32, :].copy())
        code, err = self.train(capsys, dataset, tmp_path)
        assert code == 3 and "shape" in err

    def test_negative_y2_label(self, dataset, tmp_path, capsys):
        # the change mask is kept consistent so only the sign is wrong
        y1 = read_tensor(dataset / "0000.y1.gtnsr")
        edit_sample(dataset, y2=set_pixel(-1.0), cd=set_pixel(float(y1[0, 0] != -1.0)))
        code, err = self.train(capsys, dataset, tmp_path)
        assert code == 3 and "class range" in err

    def test_fractional_label(self, dataset, tmp_path, capsys):
        # 1.5 would truncate to 1, consistent with y2 = 1 and no change
        edit_sample(dataset, y1=set_pixel(1.5), y2=set_pixel(1.0), cd=set_pixel(0.0))
        code, err = self.train(capsys, dataset, tmp_path)
        assert code == 3 and "integers" in err


class TestGradcheckCommand:
    def test_reports_every_family_and_passes(self, capsys):
        code, out, _ = run(capsys, "gradcheck", "--set", "gradcheck_seeds=1")
        assert code == 0
        lines = [l for l in out.splitlines() if "PASS" in l]
        assert len(lines) >= 10
        assert "FAIL" not in out
        assert "all" in out.splitlines()[-1]


class TestAblateCommand:
    def test_sweep_writes_per_variant_runs(self, dataset, tmp_path, capsys):
        rd = tmp_path / "sweep"
        code, out, _ = run(capsys, "ablate",
                           "--set", f"data_dir={dataset}",
                           "--set", f"run_dir={rd}", *TRAIN_SETS)
        assert code == 0
        for variant in ("full", "no-gapl", "no-sqmlfi", "no-btff", "no-mto"):
            assert (rd / variant / "report.txt").exists()
            assert variant in out
        summary = (rd / "ablate_report.txt").read_text()
        assert "full.miou" in summary and "no-mto.miou" in summary

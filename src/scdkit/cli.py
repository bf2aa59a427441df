"""Command-line harness: dataset generation, training, evaluation, gradient
checking, and the ablation sweep.

Configuration is a flat key=value namespace: defaults < config file
(--config) < explicit CLI flags. Unknown keys are rejected. Every run
directory receives the fully resolved config as config.txt.

Exit codes: 0 ok, 2 config, 3 data/IO, 4 format, 5 numeric (including failed
gradient checks), 6 shape, 7 autodiff, 1 anything else.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import checks, serialize, train
from .data import SceneSpec, generate, load_dataset, save_dataset
from .errors import (AutodiffError, ConfigError, DataError, FormatError,
                     NumericError, ScdkitError, ShapeError)
from .metrics import format_report, write_report
from .model import ChangeDetectionModel, ModelConfig

__all__ = ["RunConfig", "main"]

_EXIT_CODES = (
    (ConfigError, 2),
    (DataError, 3),
    (FormatError, 4),
    (NumericError, 5),
    (ShapeError, 6),
    (AutodiffError, 7),
    (ScdkitError, 1),
)

_ABLATIONS = ("full", "no-gapl", "no-sqmlfi", "no-btff", "no-mto")


@dataclasses.dataclass
class RunConfig:
    # dataset
    data_dir: str = "data"
    count: int = 16
    height: int = 64
    width: int = 64
    n_classes: int = 4
    n_shapes: int = 6
    change_fraction: float = 0.2
    noise_std: float = 0.05
    data_seed: int = 0
    # model / training
    run_dir: str = "runs/default"
    lr: float = 1e-4
    epochs: int = 50
    batch_size: int = 8
    base_channels: int = 8
    beta: float = 0.9
    seed: int = 0
    eval_every: int = 1
    use_gapl: bool = True
    use_sqmlfi: bool = True
    use_btff: bool = True
    use_mto: bool = True
    # eval / gradcheck
    checkpoint: str = ""
    gradcheck_seeds: int = 5

    def __post_init__(self):
        for key in ("count", "epochs", "batch_size", "eval_every", "gradcheck_seeds"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be at least 1, got {getattr(self, key)}")

    def scene_spec(self) -> SceneSpec:
        return SceneSpec(size=(self.height, self.width), n_classes=self.n_classes,
                         n_shapes=self.n_shapes, change_fraction=self.change_fraction,
                         noise_std=self.noise_std, seed=self.data_seed)

    def model_config(self, n_classes: int) -> ModelConfig:
        return ModelConfig(n_classes=n_classes, base_channels=self.base_channels,
                           seed=self.seed, use_gapl=self.use_gapl,
                           use_sqmlfi=self.use_sqmlfi, use_btff=self.use_btff,
                           use_mto=self.use_mto, beta=self.beta)

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}


def _coerce(key: str, raw: str):
    kind = _FIELD_TYPES.get(key)
    if kind is None:
        raise ConfigError(f"unknown config key: {key!r}")
    if kind == "bool":
        low = raw.strip().lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    return raw


def read_config_file(path: str) -> dict:
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, raw = line.partition("=")
            values[key.strip()] = _coerce(key.strip(), raw.strip())
    return values


def resolve_config(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if args.config:
        values.update(read_config_file(args.config))
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        values[key.strip()] = _coerce(key.strip(), raw.strip())
    return RunConfig(**values)


def _echo_config(cfg: RunConfig, run_dir: str) -> None:
    os.makedirs(run_dir, exist_ok=True)
    write_report(os.path.join(run_dir, "config.txt"), cfg.as_dict())


# -- subcommands -------------------------------------------------------------

def cmd_gen_data(cfg: RunConfig, out) -> int:
    spec = cfg.scene_spec()
    samples = generate(spec, cfg.count)
    save_dataset(cfg.data_dir, samples, spec)
    fractions = [float(s.cd.mean()) for s in samples]
    out(f"wrote {len(samples)} samples to {cfg.data_dir} "
        f"(mean change fraction {np.mean(fractions):.3f})")
    return 0


def cmd_train(cfg: RunConfig, out) -> int:
    samples, spec = load_dataset(cfg.data_dir)
    model = ChangeDetectionModel(cfg.model_config(spec.n_classes))
    _echo_config(cfg, cfg.run_dir)
    result = train.train_model(
        model, samples, epochs=cfg.epochs, batch_size=cfg.batch_size,
        lr=cfg.lr, seed=cfg.seed, run_dir=cfg.run_dir,
        eval_every=cfg.eval_every, log=out)
    out(format_report(result["final"]).rstrip())
    return 0


def cmd_eval(cfg: RunConfig, out) -> int:
    path = cfg.checkpoint or os.path.join(cfg.run_dir, "checkpoint.gckpt")
    state = serialize.load_checkpoint(path)
    model = ChangeDetectionModel.from_checkpoint_state(state)
    samples, spec = load_dataset(cfg.data_dir)
    if spec.n_classes != model.config.n_classes:
        raise DataError(f"dataset has {spec.n_classes} classes, checkpoint expects "
                        f"{model.config.n_classes}")
    result = train.evaluate(model, samples, batch_size=cfg.batch_size)
    os.makedirs(cfg.run_dir, exist_ok=True)
    write_report(os.path.join(cfg.run_dir, "eval_report.txt"), result)
    out(format_report(result).rstrip())
    return 0


def cmd_gradcheck(cfg: RunConfig, out) -> int:
    results = checks.run_all(seeds=range(cfg.gradcheck_seeds))
    width = max(len(r.name) for r in results)
    for r in results:
        out(f"{r.name:<{width}}  {r.max_error:12.3e}  {'PASS' if r.passed else 'FAIL'}")
    failed = [r.name for r in results if not r.passed]
    if failed:
        out(f"FAILED: {', '.join(failed)}")
        return 5
    out(f"all {len(results)} checks passed "
        f"({cfg.gradcheck_seeds} seeds, tolerance 1e-4)")
    return 0


def _ablation_config(cfg: RunConfig, variant: str) -> RunConfig:
    flags = {"no-gapl": "use_gapl", "no-sqmlfi": "use_sqmlfi",
             "no-btff": "use_btff", "no-mto": "use_mto"}
    if variant == "full":
        return cfg
    return dataclasses.replace(cfg, **{flags[variant]: False})


def cmd_ablate(cfg: RunConfig, out) -> int:
    samples, spec = load_dataset(cfg.data_dir)
    rows = []
    for variant in _ABLATIONS:
        vcfg = _ablation_config(cfg, variant)
        run_dir = os.path.join(cfg.run_dir, variant)
        model = ChangeDetectionModel(vcfg.model_config(spec.n_classes))
        _echo_config(vcfg, run_dir)
        result = train.train_model(
            model, samples, epochs=cfg.epochs, batch_size=cfg.batch_size,
            lr=cfg.lr, seed=cfg.seed, run_dir=run_dir, eval_every=cfg.eval_every)
        final = result["final"]
        rows.append((variant, final))
        out(f"{variant:<10} miou={final['miou']:.4f} oa={final['oa']:.4f} "
            f"sek={final['sek']:.4f} f_scd={final['f_scd']:.4f}")
    report = {f"{variant}.{k}": v for variant, final in rows
              for k, v in final.items() if isinstance(v, float)}
    write_report(os.path.join(cfg.run_dir, "ablate_report.txt"), report)
    return 0


_COMMANDS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "eval": cmd_eval,
    "gradcheck": cmd_gradcheck,
    "ablate": cmd_ablate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scdkit",
        description="semantic change detection pipeline at desk scale")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config key (repeatable)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    def out(message: str) -> None:
        print(message)

    try:
        cfg = resolve_config(args)
        return _COMMANDS[args.command](cfg, out)
    except OSError as exc:
        # a missing file, a directory where a file belongs, or the reverse
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ScdkitError as exc:
        # ScdkitError is the table's last row, so the loop always returns
        for klass, code in _EXIT_CODES:
            if isinstance(exc, klass):
                print(f"error: {exc}", file=sys.stderr)
                return code


if __name__ == "__main__":
    sys.exit(main())

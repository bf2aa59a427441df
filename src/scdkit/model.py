"""Full change-detection model: siamese encoder, level interaction, change
fusion, heads, graph prototype branch, and uncertainty weighting, with
ablation switches selecting the documented fallback paths.

Ablations: no-sqmlfi resizes+concats the pyramid, no-btff concats the
temporals before the same refine stack, no-gapl drops the consistency loss
(and with it gradient rotation), no-mto sums the task losses with no
learned variances.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, fields

import numpy as np

from . import nn
from . import tensor as T
from .backbone import SiameseEncoder
from .errors import ConfigError, FormatError
from .fusion import BtffBranch
from .graphproto import GaplBranch, pool_confidence
from .heads import Head, change_loss, seg_loss
from .interaction import ConcatLevels, SqmlfiBranch
from .optim import UncertaintyWeights
from .tensor import Tensor

__all__ = ["ModelConfig", "ChangeDetectionModel"]


@dataclass(frozen=True)
class ModelConfig:
    n_classes: int
    base_channels: int = 8
    seed: int = 0
    use_gapl: bool = True
    use_sqmlfi: bool = True
    use_btff: bool = True
    use_mto: bool = True

    def __post_init__(self):
        if self.n_classes < 2:
            raise ConfigError(f"n_classes must be >= 2, got {self.n_classes}")
        if self.base_channels < 1:
            raise ConfigError(f"base_channels must be positive, got {self.base_channels}")

    @property
    def merge_channels(self) -> int:
        return 4 * self.base_channels

    @property
    def change_channels(self) -> int:
        return 2 * self.base_channels


class ChangeDetectionModel(nn.Module):
    def __init__(self, cfg: ModelConfig):
        super().__init__()
        self._cfg = cfg
        b = cfg.base_channels
        chans = (b, 2 * b, 4 * b, 8 * b)

        def stream(k: int) -> np.random.Generator:
            return np.random.default_rng([cfg.seed, k])

        self.encoder = SiameseEncoder(chans, np.random.default_rng(cfg.seed))
        if cfg.use_sqmlfi:
            self.interaction = SqmlfiBranch(chans, cfg.merge_channels, stream(1))
        else:
            self.interaction = ConcatLevels(chans)
        self.fuser = BtffBranch(chans, cfg.change_channels, stream(2),
                                use_concat=not cfg.use_btff)
        self.seg_head = Head(self.interaction.out_channels, cfg.merge_channels,
                             cfg.n_classes, 1, stream(3))
        self.change_head = Head(self.fuser.out_channels, cfg.change_channels, 2, 3,
                                stream(4))
        self.gapl = GaplBranch(chans[3], cfg.n_classes, stream(5)) if cfg.use_gapl else None
        self.uncertainty = UncertaintyWeights() if cfg.use_mto else None

    @property
    def config(self) -> ModelConfig:
        return self._cfg

    # -- forward -------------------------------------------------------------

    def _heads(self, t1, t2):
        img1, img2 = Tensor(t1), Tensor(t2)
        out_hw = img1.shape[2:]
        pyr1, pyr2 = self.encoder(img1), self.encoder(img2)
        seg4_1, seg_full_1 = self.seg_head(self.interaction(pyr1), out_hw)
        seg4_2, seg_full_2 = self.seg_head(self.interaction(pyr2), out_hw)
        _, cd_full = self.change_head(self.fuser(pyr1, pyr2), out_hw)
        return pyr1, pyr2, (seg4_1, seg4_2), (seg_full_1, seg_full_2), cd_full

    def forward_losses(self, t1, t2, y1, y2, cd) -> dict:
        """The four loss terms of one batch.

        ``loss_merge`` is the uncertainty-merged pair (or the plain sum when
        that branch is ablated); ``loss_cpa`` is a constant zero when the
        graph branch is ablated. The total to optimize is merge + cpa.
        """
        pyr1, pyr2, seg4, seg_full, cd_full = self._heads(t1, t2)
        loss_ss = seg_loss(seg_full[0], seg_full[1], y1, y2)
        loss_cd = change_loss(cd_full, cd)

        if self.gapl is not None:
            factor = seg4[0].shape[2] // pyr1[3].shape[2]
            with T.no_grad():  # the confidences are constants of the loss
                conf1 = pool_confidence(T.softmax(seg4[0], axis=1).data, factor)
                conf2 = pool_confidence(T.softmax(seg4[1], axis=1).data, factor)
            loss_cpa, _ = self.gapl(pyr1[3], pyr2[3], conf1, conf2)
        else:
            loss_cpa = Tensor(0.0)

        if self.uncertainty is not None:
            loss_merge = self.uncertainty.merge(loss_ss, loss_cd)
        else:
            loss_merge = T.add(loss_ss, loss_cd)

        return {"loss_ss": loss_ss, "loss_cd": loss_cd,
                "loss_cpa": loss_cpa, "loss_merge": loss_merge}

    def predict(self, t1, t2):
        """Argmax predictions (sem_t1, sem_t2, change) as int64 maps.

        Runs tape-free: no backward follows, so nothing is recorded."""
        with T.no_grad():
            _, _, _, seg_full, cd_full = self._heads(t1, t2)
        return (np.argmax(seg_full[0].data, axis=1).astype(np.int64),
                np.argmax(seg_full[1].data, axis=1).astype(np.int64),
                np.argmax(cd_full.data, axis=1).astype(np.int64))

    # -- parameter partition ---------------------------------------------------

    def shared_parameters(self) -> list[nn.Parameter]:
        """Parameters reached by both task losses (the rotation set)."""
        return self.encoder.parameters()

    # -- checkpointing ---------------------------------------------------------

    def checkpoint_state(self) -> dict[str, np.ndarray]:
        state = {f"model.{k}": v for k, v in self.state_dict().items()}
        for f in fields(ModelConfig):
            state[f"config.{f.name}"] = np.asarray(float(getattr(self._cfg, f.name)))
        if self.gapl is not None:
            state.update(self.gapl.bank.state())
        return state

    def load_checkpoint_state(self, state: dict[str, np.ndarray]) -> None:
        model_state = {k[len("model."):]: v for k, v in state.items()
                       if k.startswith("model.")}
        self.load_state_dict(model_state)
        if self.gapl is not None:
            self.gapl.bank.load_state(state)

    @classmethod
    def config_from_state(cls, state: dict[str, np.ndarray]) -> ModelConfig:
        """Rebuild the config from its ``config.*`` entries, each cast to the
        field's declared type; entries of no current field are ignored.

        Every field is an int or a bool: an entry that is not a scalar whole
        number, or a bool entry other than 0 and 1, raises ``FormatError``.
        """
        types = typing.get_type_hints(ModelConfig)
        kwargs = {}
        for f in fields(ModelConfig):
            key = f"config.{f.name}"
            if key not in state:
                raise FormatError(f"checkpoint is missing config entry {key!r}")
            if np.ndim(state[key]) != 0:
                raise FormatError(f"checkpoint entry {key} is not a scalar")
            kind, value = types[f.name], float(state[key])
            if not (value in (0.0, 1.0) if kind is bool else value.is_integer()):
                raise FormatError(f"checkpoint entry {key} is {value!r}, "
                                  f"not a valid {kind.__name__}")
            kwargs[f.name] = kind(value)
        return ModelConfig(**kwargs)

    @classmethod
    def from_checkpoint_state(cls, state: dict[str, np.ndarray]) -> "ChangeDetectionModel":
        model = cls(cls.config_from_state(state))
        model.load_checkpoint_state(state)
        return model

"""Bi-temporal change fusion: per-level difference + cosine evidence, then a
bottom-up transposed-conv integration to a stride-4 change feature.

The difference branch sees X2 - X1 (sign matters), the cosine branch a
1-channel per-pixel similarity map (orderless). The ablation fallback feeds
plain channel concatenation of the two temporals through the same refine
stack.
"""

from __future__ import annotations

import numpy as np

from . import nn, ops
from . import tensor as T
from .errors import ShapeError
from .tensor import Tensor

__all__ = ["FusePair", "FusePairConcat", "Integrate", "BtffBranch"]


class _Refine(nn.Module):
    """conv3x3 -> batchnorm -> relu -> conv1x1 onto the fusion width."""

    def __init__(self, in_channels: int, out_channels: int, rng: np.random.Generator):
        super().__init__()
        self.conv = nn.Conv2d(in_channels, out_channels, 3, rng, padding=1)
        self.norm = nn.BatchNorm2d(out_channels)
        self.out = nn.Conv2d(out_channels, out_channels, 1, rng)

    def forward(self, x) -> Tensor:
        return self.out(T.relu(self.norm(self.conv(x))))


class FusePair(nn.Module):
    """One pyramid level's change evidence from both temporals."""

    def __init__(self, in_channels: int, fusion_channels: int, rng: np.random.Generator):
        super().__init__()
        self.conv_diff = nn.Conv2d(in_channels, fusion_channels, 3, rng, padding=1)
        self.conv_cos = nn.Conv2d(1, fusion_channels, 3, rng, padding=1)
        self.refine = _Refine(2 * fusion_channels, fusion_channels, rng)

    @staticmethod
    def branch_inputs(x1, x2) -> tuple[Tensor, Tensor]:
        """Pre-conv branch inputs: (signed difference, per-pixel cosine map)."""
        if x1.shape != x2.shape:
            raise ShapeError(f"fuse_pair: temporal shapes differ: {x1.shape} vs {x2.shape}")
        return T.sub(x2, x1), ops.channel_cosine(x2, x1)

    def forward(self, x1, x2) -> Tensor:
        diff, cos = self.branch_inputs(x1, x2)
        d = T.concat([self.conv_diff(diff), self.conv_cos(cos)], axis=1)
        return self.refine(d)


class FusePairConcat(nn.Module):
    """Ablation fallback: concatenate the temporals, refine identically."""

    def __init__(self, in_channels: int, fusion_channels: int, rng: np.random.Generator):
        super().__init__()
        self.refine = _Refine(2 * in_channels, fusion_channels, rng)

    def forward(self, x1, x2) -> Tensor:
        if x1.shape != x2.shape:
            raise ShapeError(f"fuse_pair: temporal shapes differ: {x1.shape} vs {x2.shape}")
        return self.refine(T.concat([x1, x2], axis=1))


class Integrate(nn.Module):
    """Bottom-up chain: upsample the coarsest, add the next level, repeat.

    F_total = deconv(deconv(deconv(F4) + F3) + F2) + F1, each deconv an exact
    x2 spatial doubling (kernel 4, stride 2, pad 1) preserving channels.
    """

    def __init__(self, channels: int, rng: np.random.Generator):
        super().__init__()
        self.up4 = nn.ConvTranspose2d(channels, channels, 4, rng, stride=2, padding=1)
        self.up3 = nn.ConvTranspose2d(channels, channels, 4, rng, stride=2, padding=1)
        self.up2 = nn.ConvTranspose2d(channels, channels, 4, rng, stride=2, padding=1)

    def forward(self, f1, f2, f3, f4) -> Tensor:
        total = T.add(self.up4(f4), f3)
        total = T.add(self.up3(total), f2)
        return T.add(self.up2(total), f1)


class BtffBranch(nn.Module):
    """Per-level fusion plus integration; ``use_concat`` swaps the fallback in."""

    def __init__(self, level_channels, fusion_channels: int, rng: np.random.Generator,
                 use_concat: bool = False):
        super().__init__()
        fuse_cls = FusePairConcat if use_concat else FusePair
        self.fuse = [fuse_cls(c, fusion_channels, rng) for c in level_channels]
        self.integrate = Integrate(fusion_channels, rng)
        self.out_channels = fusion_channels

    def forward(self, pyr1, pyr2) -> Tensor:
        per_level = [fuse(a, b) for fuse, a, b in zip(self.fuse, pyr1, pyr2)]
        return self.integrate(*per_level)

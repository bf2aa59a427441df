"""Multi-level feature interaction: sigmoid self-gating per pyramid level,
projection to a common width and scale, and a learned per-level blend.

Each level owns its own convolutions (no cross-level weight sharing); the
same branch instance serves both temporal images. The ablation fallback
skips gating and fusion weights entirely: levels are resized to the
reference scale and concatenated.
"""

from __future__ import annotations

import numpy as np

from . import nn, ops
from . import tensor as T
from .errors import ShapeError
from .tensor import Tensor

__all__ = ["SelfQueryLevel", "LevelMerge", "SqmlfiBranch", "ConcatLevels"]


class SelfQueryLevel(nn.Module):
    """Gate a level with its own sigmoid query, re-project, resize to reference.

    Computes conv -> relu -> batchnorm on x*q + x (q = sigmoid(conv(x))),
    then bilinear-resizes to the reference spatial dims (a level already at
    that size is returned as is).
    """

    def __init__(self, in_channels: int, out_channels: int, rng: np.random.Generator):
        super().__init__()
        self.query = nn.Conv2d(in_channels, in_channels, 3, rng, padding=1)
        self.proj = nn.Conv2d(in_channels, out_channels, 3, rng, padding=1)
        self.norm = nn.BatchNorm2d(out_channels)

    def attention(self, x) -> Tensor:
        return T.sigmoid(self.query(x))

    def forward(self, x, ref_hw) -> Tensor:
        gated = T.add(T.mul(x, self.attention(x)), x)
        y = self.norm(T.relu(self.proj(gated)))
        return y if y.shape[2:] == tuple(ref_hw) else ops.bilinear_resize(y, ref_hw)


class LevelMerge(nn.Module):
    """Learned blend of the four resized levels: one weight per level plus a
    scalar bias, both shared over channels and positions."""

    def __init__(self, n_levels: int, rng: np.random.Generator):
        super().__init__()
        bound = np.sqrt(1.0 / n_levels)
        self.weight = nn.Parameter(rng.uniform(-bound, bound, size=(n_levels,)))
        self.bias = nn.Parameter(rng.uniform(-bound, bound, size=()))

    def forward(self, levels) -> Tensor:
        n = self.weight.shape[0]
        if len(levels) != n:
            raise ShapeError(f"level merge: got {len(levels)} levels, expected {n}")
        acc = None
        for l, level in enumerate(levels):
            term = T.mul(level, T.select_index(self.weight, l))
            acc = term if acc is None else T.add(acc, term)
        return T.add(acc, self.bias)


class SqmlfiBranch(nn.Module):
    """Self-query enhancement of all four levels and their learned merge."""

    def __init__(self, level_channels, fusion_channels: int, rng: np.random.Generator):
        super().__init__()
        self.levels = [SelfQueryLevel(c, fusion_channels, rng) for c in level_channels]
        self.merge = LevelMerge(len(level_channels), rng)
        self.out_channels = fusion_channels

    def forward(self, pyramid) -> Tensor:
        ref_hw = pyramid[0].shape[2:]
        enhanced = [mod(lv, ref_hw) for mod, lv in zip(self.levels, pyramid)]
        return self.merge(enhanced)


class ConcatLevels(nn.Module):
    """Ablation fallback: resize every level to the reference scale and concat."""

    def __init__(self, level_channels):
        super().__init__()
        self.out_channels = int(sum(level_channels))

    def forward(self, pyramid) -> Tensor:
        first, *rest = pyramid
        resized = [ops.bilinear_resize(lv, first.shape[2:]) for lv in rest]
        return T.concat([first] + resized, axis=1)

"""Siamese convolutional encoder producing a 4-level feature pyramid.

Both temporal images go through the same weights. Each stage is
conv3x3 -> batchnorm -> relu -> strided conv3x3 downsample; the first stage
downsamples x4 and the rest x2, giving strides [4, 8, 16, 32] with channels
[b, 2b, 4b, 8b]. The pyramid is a plain tuple of the four level Tensors,
finest first; the divisible-by-32 input check is what keeps every level's
spatial size exact.
"""

from __future__ import annotations

import numpy as np

from . import nn
from .errors import ShapeError
from .tensor import Tensor, relu

__all__ = ["SiameseEncoder"]

_STAGE_FACTORS = (4, 2, 2, 2)


class _Stage(nn.Module):
    def __init__(self, in_ch: int, out_ch: int, factor: int, rng: np.random.Generator):
        super().__init__()
        self.conv = nn.Conv2d(in_ch, out_ch, 3, rng, stride=1, padding=1)
        self.norm = nn.BatchNorm2d(out_ch)
        self.down = nn.Conv2d(out_ch, out_ch, 3, rng, stride=factor, padding=1)

    def forward(self, x) -> Tensor:
        return self.down(relu(self.norm(self.conv(x))))


class SiameseEncoder(nn.Module):
    """Shared-weight encoder over RGB images; call once per temporal image.

    ``chans`` are the four stage widths; weights are drawn from ``rng``.
    """

    def __init__(self, chans: tuple[int, int, int, int], rng: np.random.Generator):
        super().__init__()
        ins = (3, *chans[:3])
        self.stages = [
            _Stage(cin, cout, factor, rng)
            for cin, cout, factor in zip(ins, chans, _STAGE_FACTORS)
        ]

    def forward(self, image) -> tuple[Tensor, Tensor, Tensor, Tensor]:
        if image.ndim != 4:
            raise ShapeError(f"encoder expects (B, C, H, W), got {image.shape}")
        h, w = image.shape[2:]
        if h % 32 or w % 32:
            raise ShapeError(f"input spatial dims must be divisible by 32, got {h}x{w}")
        levels = []
        x = image
        for stage in self.stages:
            x = stage(x)
            levels.append(x)
        return tuple(levels)

"""Deterministic synthetic bi-temporal scenes and their on-disk layout.

A scene is colored rectangles and ellipses over a background class; the
second image re-renders the same shape list after moving or relabeling a
seeded subset of shapes, so semantic labels and the change mask stay
consistent by construction. Every sample derives its own rng from
``seed + index``, which makes generation order-independent.
"""

from __future__ import annotations

import colorsys
import os
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError
from .serialize import read_tensor, write_tensor

__all__ = ["SceneSpec", "Sample", "generate", "generate_sample",
           "save_dataset", "load_dataset", "collate", "class_colors"]

_SAMPLE_PARTS = ("t1", "t2", "y1", "y2", "cd")


@dataclass(frozen=True)
class SceneSpec:
    size: tuple[int, int] = (64, 64)
    n_classes: int = 4
    n_shapes: int = 6
    change_fraction: float = 0.2
    noise_std: float = 0.05
    seed: int = 0

    def __post_init__(self):
        h, w = self.size
        if h % 32 or w % 32:
            raise DataError(f"scene size must be divisible by 32, got {h}x{w}")
        if self.n_classes < 2:
            raise DataError(f"need at least 2 classes (background + 1), got {self.n_classes}")
        if not 0.0 < self.change_fraction < 1.0:
            raise DataError(f"change_fraction must be in (0,1), got {self.change_fraction}")
        if self.noise_std < 0:
            raise DataError(f"noise_std must be nonnegative, got {self.noise_std}")
        if self.n_shapes < 0:
            raise DataError(f"n_shapes must be nonnegative, got {self.n_shapes}")


@dataclass
class Sample:
    t1: np.ndarray   # (3, H, W) float in [0, 1]
    t2: np.ndarray
    y1: np.ndarray   # (H, W) int64 in [0, N_c)
    y2: np.ndarray
    cd: np.ndarray   # (H, W) int64 binary

    def validate(self, n_classes: int) -> "Sample":
        if min(self.y1.min(), self.y2.min()) < 0 or max(self.y1.max(), self.y2.max()) >= n_classes:
            raise DataError("sample labels outside class range")
        if not np.array_equal(self.cd, (self.y1 != self.y2).astype(np.int64)):
            raise DataError("change mask inconsistent with semantic labels")
        return self


def class_colors(n_classes: int) -> np.ndarray:
    """(N_c, 3) evenly hue-spaced colors, background included."""
    return np.array([colorsys.hsv_to_rgb(k / n_classes, 0.65, 0.9)
                     for k in range(n_classes)])


@dataclass
class _Shape:
    kind: str        # "rect" | "ellipse"
    cls: int
    cy: float
    cx: float
    hy: float
    hx: float


def _render(shapes: list[_Shape], size) -> np.ndarray:
    h, w = size
    canvas = np.zeros((h, w), dtype=np.int64)
    yy, xx = np.mgrid[0:h, 0:w]
    for s in shapes:
        if s.kind == "rect":
            mask = (np.abs(yy - s.cy) <= s.hy) & (np.abs(xx - s.cx) <= s.hx)
        else:
            mask = ((yy - s.cy) / s.hy) ** 2 + ((xx - s.cx) / s.hx) ** 2 <= 1.0
        canvas[mask] = s.cls
    return canvas


def _random_shape(rng: np.random.Generator, spec: SceneSpec) -> _Shape:
    h, w = spec.size
    return _Shape(
        kind=("rect", "ellipse")[int(rng.integers(2))],
        cls=int(rng.integers(1, spec.n_classes)),
        cy=float(rng.uniform(0, h)),
        cx=float(rng.uniform(0, w)),
        hy=float(rng.uniform(h / 12, h / 4)),
        hx=float(rng.uniform(w / 12, w / 4)),
    )


def _mutate(shape: _Shape, rng: np.random.Generator, spec: SceneSpec) -> _Shape:
    h, w = spec.size
    if spec.n_classes > 2 and rng.random() < 0.5:
        choices = [c for c in range(1, spec.n_classes) if c != shape.cls]
        return replace(shape, cls=int(rng.choice(choices)))
    return replace(shape, cy=float(rng.uniform(0, h)), cx=float(rng.uniform(0, w)))


def _image_of(labels: np.ndarray, colors: np.ndarray,
              rng: np.random.Generator, noise_std: float) -> np.ndarray:
    img = colors[labels].transpose(2, 0, 1).copy()
    if noise_std > 0:
        img += rng.normal(0.0, noise_std, size=img.shape)
    return np.clip(img, 0.0, 1.0)


def generate_sample(spec: SceneSpec, index: int) -> Sample:
    rng = np.random.default_rng(spec.seed + index)
    shapes1 = [_random_shape(rng, spec) for _ in range(spec.n_shapes)]
    y1 = _render(shapes1, spec.size)

    shapes2 = list(shapes1)
    y2 = y1.copy()
    target = spec.change_fraction * y1.size
    if spec.n_shapes > 0:
        for i in rng.permutation(spec.n_shapes):
            if np.count_nonzero(y1 != y2) >= target:
                break
            shapes2[i] = _mutate(shapes2[i], rng, spec)
            y2 = _render(shapes2, spec.size)
    changed = np.count_nonzero(y1 != y2)
    if changed < target:
        warnings.warn(f"sample {index}: change fraction capped at "
                      f"{changed / y1.size:.3f} (target {spec.change_fraction})")

    colors = class_colors(spec.n_classes)
    return Sample(
        t1=_image_of(y1, colors, rng, spec.noise_std),
        t2=_image_of(y2, colors, rng, spec.noise_std),
        y1=y1,
        y2=y2,
        cd=(y1 != y2).astype(np.int64),
    )


def generate(spec: SceneSpec, count: int) -> list[Sample]:
    return [generate_sample(spec, i) for i in range(count)]


def collate(samples: list[Sample]):
    """Stack samples into batch arrays (t1, t2, y1, y2, cd)."""
    return (np.stack([s.t1 for s in samples]),
            np.stack([s.t2 for s in samples]),
            np.stack([s.y1 for s in samples]),
            np.stack([s.y2 for s in samples]),
            np.stack([s.cd for s in samples]))


def save_dataset(directory, samples: list[Sample], spec: SceneSpec) -> None:
    os.makedirs(directory, exist_ok=True)
    lines = [
        f"height={spec.size[0]}",
        f"width={spec.size[1]}",
        f"n_classes={spec.n_classes}",
        f"n_shapes={spec.n_shapes}",
        f"change_fraction={spec.change_fraction!r}",
        f"noise_std={spec.noise_std!r}",
        f"seed={spec.seed}",
        f"count={len(samples)}",
    ]
    for i, sample in enumerate(samples):
        name = f"{i:04d}"
        lines.append(name)
        arrays = (sample.t1, sample.t2,
                  sample.y1.astype(np.float64), sample.y2.astype(np.float64),
                  sample.cd.astype(np.float64))
        for part, arr in zip(_SAMPLE_PARTS, arrays):
            write_tensor(os.path.join(directory, f"{name}.{part}.gtnsr"), arr)
    with open(os.path.join(directory, "manifest.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_dataset(directory) -> tuple[list[Sample], SceneSpec]:
    manifest = os.path.join(directory, "manifest.txt")
    with open(manifest, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    fields: dict[str, str] = {}
    names: list[str] = []
    for ln in lines:
        if "=" in ln:
            key, _, value = ln.partition("=")
            fields[key] = value
        else:
            names.append(ln)
    try:
        spec = SceneSpec(
            size=(int(fields["height"]), int(fields["width"])),
            n_classes=int(fields["n_classes"]),
            n_shapes=int(fields["n_shapes"]),
            change_fraction=float(fields["change_fraction"]),
            noise_std=float(fields["noise_std"]),
            seed=int(fields["seed"]),
        )
        count = int(fields["count"])
    except KeyError as exc:
        raise DataError(f"{manifest}: missing manifest field {exc}") from exc
    except ValueError as exc:
        raise DataError(f"{manifest}: malformed manifest field: {exc}") from exc
    if count < 1:
        raise DataError(f"{manifest}: count is {count}, a dataset needs at least 1 sample")
    if len(names) != count:
        raise DataError(f"{manifest}: lists {len(names)} samples, count says {count}")

    h, w = spec.size
    shapes = {"t1": (3, h, w), "t2": (3, h, w), "y1": (h, w), "y2": (h, w), "cd": (h, w)}
    samples = []
    for name in names:
        parts = {p: read_tensor(os.path.join(directory, f"{name}.{p}.gtnsr"))
                 for p in _SAMPLE_PARTS}
        for p, arr in parts.items():
            if arr.shape != shapes[p]:
                raise DataError(f"{name}.{p}: shape {arr.shape}, manifest says {shapes[p]}")
        y1, y2, cd = (parts[p].astype(np.int64) for p in ("y1", "y2", "cd"))
        if (y1 != parts["y1"]).any() or (y2 != parts["y2"]).any() or (cd != parts["cd"]).any():
            raise DataError(f"{name}: label values are not integers")
        samples.append(Sample(t1=parts["t1"], t2=parts["t2"], y1=y1, y2=y2, cd=cd)
                       .validate(spec.n_classes))
    return samples, spec

"""Tiny module system on top of the tensor engine.

Modules discover parameters, buffers and submodules by scanning their
attributes (lists and tuples of modules are walked too), so state dicts and
optimizers see a stable, fully named view of the model. Buffers are plain
float64 numpy arrays mutated in place (running statistics, prototype banks).
"""

from __future__ import annotations

import numpy as np

from . import ops
from .errors import ConfigError, ShapeError
from .tensor import Tensor

__all__ = [
    "Parameter",
    "Module",
    "Conv2d",
    "ConvTranspose2d",
    "BatchNorm2d",
    "kaiming_uniform",
]


class Parameter(Tensor):
    """Trainable leaf tensor."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


def kaiming_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    """He-uniform draw for relu networks: U(-b, b) with b = sqrt(6 / fan_in)."""
    if fan_in <= 0:
        raise ConfigError(f"kaiming_uniform: fan_in must be positive, got {fan_in}")
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Module:
    """Base class providing recursive parameter/buffer discovery and mode flags."""

    def __init__(self):
        self.training = True
        self._buffers: dict[str, np.ndarray] = {}

    # -- registration ------------------------------------------------------

    def register_buffer(self, name: str, value: np.ndarray) -> np.ndarray:
        arr = np.asarray(value, dtype=np.float64, order="C")
        self._buffers[name] = arr
        return arr

    # -- traversal ---------------------------------------------------------

    def _children(self):
        for name, value in vars(self).items():
            if name.startswith("_"):
                continue
            if isinstance(value, (Module, Parameter)):
                yield name, value
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, (Module, Parameter)):
                        yield f"{name}.{i}", item

    def modules(self):
        yield self
        for _, child in self._children():
            if isinstance(child, Module):
                yield from child.modules()

    def named_parameters(self, prefix: str = ""):
        for name, child in self._children():
            full = f"{prefix}{name}"
            if isinstance(child, Parameter):
                yield full, child
            else:
                yield from child.named_parameters(prefix=f"{full}.")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix: str = ""):
        for name, arr in self._buffers.items():
            yield f"{prefix}{name}", arr
        for name, child in self._children():
            if isinstance(child, Module):
                yield from child.named_buffers(prefix=f"{prefix}{name}.")

    # -- state -------------------------------------------------------------

    def state_dict(self) -> dict[str, np.ndarray]:
        state = {name: p.data.copy() for name, p in self.named_parameters()}
        for name, arr in self.named_buffers():
            if name in state:
                raise ConfigError(f"state name collision: {name}")
            state[name] = arr.copy()
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Strict in-place load: keys and shapes must match exactly."""
        own: dict[str, np.ndarray] = {name: p.data for name, p in self.named_parameters()}
        for name, arr in self.named_buffers():
            own[name] = arr
        missing = sorted(set(own) - set(state))
        unexpected = sorted(set(state) - set(own))
        if missing or unexpected:
            raise ConfigError(f"state dict mismatch: missing {missing}, unexpected {unexpected}")
        for name, dst in own.items():
            src = np.asarray(state[name], dtype=np.float64)
            if src.shape != dst.shape:
                raise ShapeError(f"state entry {name!r}: shape {src.shape} != {dst.shape}")
            dst[...] = src

    # -- modes / grads -----------------------------------------------------

    def train(self, flag: bool = True):
        for m in self.modules():
            m.training = flag
        return self

    def eval(self):
        return self.train(False)

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):
        raise NotImplementedError


class Conv2d(Module):
    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 rng: np.random.Generator, stride: int = 1, padding: int = 0):
        super().__init__()
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Parameter(kaiming_uniform(
            rng, (out_channels, in_channels, kernel_size, kernel_size), fan_in))
        self.bias = Parameter(np.zeros(out_channels))

    def forward(self, x) -> Tensor:
        return ops.conv2d(x, self.weight, self.bias,
                          stride=self.stride, padding=self.padding)


class ConvTranspose2d(Module):
    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 rng: np.random.Generator, stride: int = 2, padding: int = 1):
        super().__init__()
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Parameter(kaiming_uniform(
            rng, (in_channels, out_channels, kernel_size, kernel_size), fan_in))
        self.bias = Parameter(np.zeros(out_channels))

    def forward(self, x) -> Tensor:
        return ops.conv_transpose2d(x, self.weight, self.bias,
                                    stride=self.stride, padding=self.padding)


class BatchNorm2d(Module):
    def __init__(self, num_features: int):
        super().__init__()
        self.weight = Parameter(np.ones(num_features))
        self.bias = Parameter(np.zeros(num_features))
        self.running_mean = self.register_buffer("running_mean", np.zeros(num_features))
        self.running_var = self.register_buffer("running_var", np.ones(num_features))

    def forward(self, x) -> Tensor:
        return ops.batchnorm2d(x, self.weight, self.bias,
                               self.running_mean, self.running_var,
                               training=self.training)

"""Whole-model gradient check: the derivative that ``tensor.backward`` gives
along a random direction in parameter space against finite differences of
the model's own forward.

The model (64x64 scenes, ``base_channels=4``, batch 2, training mode) is
relu- and abs-heavy, so a difference step can straddle a kink, where the
central difference is no estimate of the derivative. On a kink the forward
and backward one-sided differences disagree, and the check retries along a
fresh direction; a gradient bug fails along every direction.

Two values the autodiff graph treats as constants depend on the
parameters: the kernel width ``median_sigma`` and the detached class
confidences ``pool_confidence``. The first forward records them and every
perturbed forward replays them. Model state (batch-norm statistics,
prototype bank) is restored before every forward.
"""

import math

import numpy as np
import pytest

from scdkit import graphproto
from scdkit import model as model_mod
from scdkit import tensor as T
from scdkit.data import SceneSpec, collate, generate
from scdkit.model import ChangeDetectionModel, ModelConfig

DATA = SceneSpec(size=(64, 64), n_classes=4, n_shapes=6,
                 change_fraction=0.2, noise_std=0.05, seed=0)
# |central - backward| <= RTOL * max(|central|, |backward|)
#                         + ROUNDOFF * max(|loss|, 1) / STEP,
# the round-off floor being that of a loss summed from O(1) terms
STEP = 1e-6
RTOL = 1e-5
ROUNDOFF = 1e-14
DIRECTIONS = 4  # one first try plus three retries after a kink


@pytest.fixture(scope="module")
def batch():
    return collate(generate(DATA, 2))


class FrozenConstants:
    """Record ``median_sigma`` and ``pool_confidence`` on the first forward,
    then return the recorded values, in call order, on every later one."""

    def __init__(self, monkeypatch):
        self.values: list = []
        self.replay = None
        for module, name in ((graphproto, "median_sigma"), (model_mod, "pool_confidence")):
            monkeypatch.setattr(module, name, self._frozen(getattr(module, name)))

    def _frozen(self, fn):
        def frozen(*args):
            if self.replay is not None:
                return next(self.replay)
            value = fn(*args)
            self.values.append(value)
            return value
        return frozen

    def rewind(self) -> None:
        self.replay = iter(self.values)


def directional_derivatives(model, batch, constants, rng):
    """Yield, per try, {loss name: (central, forward, backward, analytic,
    loss)} along a fresh random unit direction."""
    model.train()
    state = model.checkpoint_state()
    params = model.parameters()
    losses = model.forward_losses(*batch)
    names = ["loss_merge"] + (["loss_cpa"] if losses["loss_cpa"].requires_grad else [])
    grads = {}
    for name in names:
        model.zero_grad()
        T.backward(losses[name])
        grads[name] = [p.grad.copy() for p in params]
    base = {name: losses[name].item() for name in names}

    while True:
        direction = [rng.standard_normal(p.shape) for p in params]
        norm = math.sqrt(sum(float(np.sum(d * d)) for d in direction))
        direction = [d / norm for d in direction]
        shifted = {}
        for sign in (1.0, -1.0):
            model.load_checkpoint_state(state)
            for p, d in zip(params, direction):
                p.data += sign * STEP * d
            constants.rewind()
            out = model.forward_losses(*batch)
            shifted[sign] = {name: out[name].item() for name in names}
        model.load_checkpoint_state(state)
        yield {name: ((shifted[1.0][name] - shifted[-1.0][name]) / (2.0 * STEP),
                      (shifted[1.0][name] - base[name]) / STEP,
                      (base[name] - shifted[-1.0][name]) / STEP,
                      math.fsum(float(np.sum(g * d))
                                for g, d in zip(grads[name], direction)),
                      base[name])
               for name in names}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("variant", [{}, {"use_gapl": False}, {"use_mto": False}],
                         ids=["full", "no-gapl", "no-mto"])
def test_backward_matches_finite_differences(batch, monkeypatch, variant, seed):
    constants = FrozenConstants(monkeypatch)
    model = ChangeDetectionModel(ModelConfig(n_classes=4, base_channels=4, seed=seed,
                                             **variant))
    tries = directional_derivatives(model, batch, constants, np.random.default_rng(seed))
    for attempt in range(DIRECTIONS):
        kinked = []
        for name, (central, fwd, bwd, analytic, loss) in next(tries).items():
            allowed = (RTOL * max(abs(central), abs(analytic))
                       + ROUNDOFF * max(abs(loss), 1.0) / STEP)
            if abs(central - analytic) <= allowed:
                continue
            assert abs(fwd - bwd) > allowed, (
                f"{name}: central difference {central!r} vs backward {analytic!r} "
                f"(allowed {allowed:.2e}) on a smooth stretch")
            kinked.append(name)
        if not kinked:
            return
    pytest.fail(f"{kinked}: a kink on all {DIRECTIONS} directions")

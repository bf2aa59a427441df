"""Finite-difference check registry over every op family and the four model
losses. The CLI renders the results as a pass/fail table; tests call
``run_all`` directly. Inputs are kept small (dims <= 6) and positioned away
from relu/abs/sqrt kinks so the central-difference oracle is valid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import graphproto as gp
from . import ops
from . import tensor as T
from .gradcheck import TOLERANCE, relative_error
from .heads import change_loss, seg_loss
from .optim import UncertaintyWeights
from .tensor import Tensor

__all__ = ["CheckResult", "run_all"]


@dataclass
class CheckResult:
    name: str
    max_error: float
    passed: bool


def _away_from_zero(rng, shape, low=0.2, high=1.0):
    mag = rng.uniform(low, high, size=shape)
    return mag * np.where(rng.random(shape) < 0.5, -1.0, 1.0)


def _probe(rng, shape):
    return Tensor(rng.standard_normal(shape))


# every builder takes (rng) and returns (build_fn, inputs)

def _arith(rng):
    a = rng.standard_normal((3, 4))
    b = _away_from_zero(rng, (3, 4), 0.5, 2.0)
    c = rng.standard_normal(())
    p = _probe(rng, (3, 4))

    def build(x, y, s):
        out = T.add(T.mul(x, y), T.div(x, y))
        out = T.sub(out, T.neg(T.affine(x, 1.7, -0.3)))
        out = T.add(out, T.mul(s, x))
        return T.tsum(T.mul(out, p))
    return build, [a, b, c]

def _matmul(rng):
    p = _probe(rng, (3, 5))

    def build(x, y):
        return T.tsum(T.mul(T.matmul(x, y), p))
    return build, [rng.standard_normal((3, 4)), rng.standard_normal((4, 5))]

def _activations(rng):
    x = _away_from_zero(rng, (4, 3))
    pos = rng.uniform(0.5, 2.0, size=(4, 3))
    p = _probe(rng, (4, 3))

    def build(a, b):
        out = T.add(T.relu(a), T.sigmoid(a))
        out = T.add(out, T.exp(T.affine(a, 0.3)))
        out = T.add(out, T.add(T.log(b), T.sqrt(b)))
        out = T.add(out, T.add(T.absolute(a), T.clamp_min(a, 0.1)))
        return T.tsum(T.mul(out, p))
    return build, [x, pos]

def _reductions(rng):
    p0 = _probe(rng, (3,))
    p1 = _probe(rng, (2, 4))

    def build(x):
        out = T.tsum(T.mul(T.tsum(x, axis=(0, 2)), p0))
        out = T.add(out, T.tsum(T.mul(T.tmean(x, axis=1), p1)))
        return T.add(out, T.l2_norm(x))
    return build, [rng.standard_normal((2, 3, 4))]

def _softmax_family(rng):
    p = _probe(rng, (3, 4))

    def build(x):
        return T.add(T.tsum(T.mul(T.softmax(x, axis=1), p)),
                     T.tsum(T.mul(T.log_softmax(x, axis=1), p)))
    return build, [rng.standard_normal((3, 4))]

def _shape_ops(rng):
    p = _probe(rng, (4, 3))
    q = _probe(rng, (2, 2, 3))

    def build(x, y):
        moved = T.transpose(T.reshape(x, (3, 4)), (1, 0))
        out = T.tsum(T.mul(moved, p))
        out = T.add(out, T.tsum(T.mul(T.stack([y, T.neg(y)]), q)))
        cat = T.concat([x, y], axis=0)
        return T.add(out, T.tsum(T.select_index(cat, 1)))
    return build, [rng.standard_normal((4, 3)), rng.standard_normal((2, 3))]

def _conv(rng):
    p = _probe(rng, (2, 3, 3, 3))

    def build(x, w, b):
        return T.tsum(T.mul(ops.conv2d(x, w, b, stride=2, padding=1), p))
    return build, [rng.standard_normal((2, 2, 6, 6)),
                   rng.standard_normal((3, 2, 3, 3)),
                   rng.standard_normal(3)]

def _conv_transpose(rng):
    p = _probe(rng, (1, 2, 6, 6))

    def build(x, w, b):
        return T.tsum(T.mul(ops.conv_transpose2d(x, w, b), p))
    return build, [rng.standard_normal((1, 3, 3, 3)),
                   rng.standard_normal((3, 2, 4, 4)),
                   rng.standard_normal(2)]

def _resize(rng):
    p = _probe(rng, (1, 2, 6, 5))

    def build(x):
        return T.tsum(T.mul(ops.bilinear_resize(x, (6, 5)), p))
    return build, [rng.standard_normal((1, 2, 3, 4))]

def _batchnorm(rng):
    p = _probe(rng, (2, 3, 4, 4))

    def build(x, g, b):
        rm, rv = np.zeros(3), np.ones(3)
        return T.tsum(T.mul(
            ops.batchnorm2d(x, g, b, rm, rv, training=True), p))
    return build, [rng.standard_normal((2, 3, 4, 4)),
                   _away_from_zero(rng, (3,)),
                   rng.standard_normal(3)]

def _channel_ops(rng):
    p = _probe(rng, (2, 3, 2, 2))
    q = _probe(rng, (2, 1, 2, 2))

    def build(x, s, t, y):
        out = T.tsum(T.mul(ops.channel_affine(x, s, t), p))
        return T.add(out, T.tsum(T.mul(ops.channel_cosine(x, y), q)))
    return build, [rng.standard_normal((2, 3, 2, 2)),
                   _away_from_zero(rng, (3,)),
                   rng.standard_normal(3),
                   rng.standard_normal((2, 3, 2, 2))]

def _graph_ops(rng):
    p = _probe(rng, (5, 3))

    def build(f, w):
        a = gp.build_adjacency(T.pairwise_l2(f), 1.1)
        return T.tsum(T.mul(gp.gcn_layer(f, a, w), p))
    return build, [rng.standard_normal((5, 3)), rng.standard_normal((3, 3))]

def _loss_seg(rng):
    y1 = rng.integers(0, 3, (2, 4, 4))
    y2 = rng.integers(0, 3, (2, 4, 4))

    def build(l1, l2):
        return seg_loss(l1, l2, y1, y2)
    return build, [rng.standard_normal((2, 3, 4, 4)),
                   rng.standard_normal((2, 3, 4, 4))]

def _loss_change(rng):
    y = rng.integers(0, 2, (2, 4, 4))

    def build(logits):
        return change_loss(logits, y)
    return build, [rng.standard_normal((2, 2, 4, 4))]

def _loss_cpa(rng):
    c1 = rng.random((6, 2)); c1 /= c1.sum(axis=1, keepdims=True)
    c2 = rng.random((6, 2)); c2 /= c2.sum(axis=1, keepdims=True)

    def build(f1, f2, w1, w2):
        a1 = gp.build_adjacency(T.pairwise_l2(f1), 1.3)
        a2 = gp.build_adjacency(T.pairwise_l2(f2), 1.3)
        g1 = gp.gcn_layer(gp.gcn_layer(f1, a1, w1), a1, w2)
        g2 = gp.gcn_layer(gp.gcn_layer(f2, a2, w1), a2, w2)
        p1, _ = gp.compute_prototypes(g1, c1)
        p2, _ = gp.compute_prototypes(g2, c2)
        return gp.cpa_loss(gp.affinity(p1, p1), gp.affinity(p2, p2),
                           gp.affinity(p1, p2))
    # strictly positive features and weights keep both relu layers live and
    # the affinities away from the |.| ties
    return build, [rng.random((6, 3)) + 0.5, rng.random((6, 3)) + 0.5,
                   rng.random((3, 3)) + 0.2, rng.random((3, 3)) + 0.2]

def _loss_merge(rng):
    # the model's merge with squared stand-ins keeping both task losses
    # positive; gradients checked in s1, s2 and the losses themselves
    weights = UncertaintyWeights()

    def build(s1, s2, la, lb):
        weights.s1, weights.s2 = s1, s2
        return weights.merge(T.mul(la, la), T.mul(lb, lb))
    return build, [rng.standard_normal(()), rng.standard_normal(()),
                   rng.uniform(0.5, 2.0, ()), rng.uniform(0.5, 2.0, ())]


_REGISTRY = {
    "arith": _arith,
    "matmul": _matmul,
    "activations": _activations,
    "reductions": _reductions,
    "softmax": _softmax_family,
    "shape-ops": _shape_ops,
    "conv2d": _conv,
    "conv-transpose2d": _conv_transpose,
    "bilinear-resize": _resize,
    "batchnorm2d": _batchnorm,
    "channel-ops": _channel_ops,
    "graph-ops": _graph_ops,
    "loss-seg": _loss_seg,
    "loss-change": _loss_change,
    "loss-cpa": _loss_cpa,
    "loss-merge": _loss_merge,
}


def run_all(seeds) -> list[CheckResult]:
    """Worst relative error per registry entry across ``seeds``; an entry
    passes below ``gradcheck.TOLERANCE`` (1e-4)."""
    results = []
    for name, factory in _REGISTRY.items():
        worst = 0.0
        for seed in seeds:
            build, inputs = factory(np.random.default_rng(seed))
            worst = max(worst, relative_error(build, inputs))
        results.append(CheckResult(name, worst, worst < TOLERANCE))
    return results

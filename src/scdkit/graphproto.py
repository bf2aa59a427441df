"""Graph-based prototype learning over the coarsest feature level.

Final-level features become nodes of a dense relational graph (Gaussian
kernel on pairwise distances), a 2-layer GCN aggregates them, and
confidence-weighted class prototypes from both temporal images feed three
cosine affinity matrices whose pairwise disagreement is the relation
consistency loss. A momentum bank keeps per-class global prototypes so
classes absent from a batch still contribute fixed reference rows.
"""

from __future__ import annotations

import numpy as np

from . import nn
from . import tensor as T
from .errors import NumericError, ShapeError
from .tensor import Tensor

__all__ = [
    "median_sigma",
    "build_adjacency",
    "gcn_layer",
    "GraphAggregator",
    "compute_prototypes",
    "affinity",
    "cpa_loss",
    "PrototypeBank",
    "GaplBranch",
    "pool_confidence",
]

ABSENT_EPS = 1e-8
NORM_EPS = 1e-12
_SIGMA_FALLBACK = 1.0


def median_sigma(features: np.ndarray) -> float:
    """Median off-diagonal pairwise distance of (N, d) node features; 1.0
    when degenerate (fewer than two nodes, or all of them coincide).

    Treated as a constant for autodiff purposes, so this takes and returns
    plain numbers.
    """
    f = np.asarray(features, dtype=np.float64)
    n = f.shape[0]
    if n < 2:
        return _SIGMA_FALLBACK
    diff = f[:, None, :] - f[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=-1))
    med = float(np.median(dist[~np.eye(n, dtype=bool)]))
    return med if med > NORM_EPS else _SIGMA_FALLBACK


def build_adjacency(f, sigma: float) -> Tensor:
    """Dense graph weights A[m, n] = exp(-||f_m - f_n|| / (2 sigma^2)).

    The distance enters the exponent unsquared. Symmetric with unit
    diagonal.
    """
    if sigma <= 0:
        raise NumericError(f"build_adjacency: sigma must be positive, got {sigma}")
    dist = T.pairwise_l2(f)
    return T.exp(T.affine(dist, -1.0 / (2.0 * sigma * sigma)))


def gcn_layer(f, a, w) -> Tensor:
    """relu(D^-1/2 (A+I) D^-1/2 F W) with D the row-sum degree of A+I."""
    n = f.shape[0]
    if a.shape != (n, n):
        raise ShapeError(f"gcn_layer: adjacency {a.shape} does not match {n} nodes")
    if w.shape[0] != f.shape[1]:
        raise ShapeError(f"gcn_layer: weight {w.shape} does not match feature dim {f.shape[1]}")
    a_tilde = T.add(a, Tensor(np.eye(n)))
    rowsum = T.tsum(a_tilde, axis=1, keepdims=True)
    if np.any(rowsum.data <= 0):
        raise NumericError("gcn_layer: non-positive degree (adjacency must be nonnegative)")
    r = T.div(Tensor(1.0), T.sqrt(rowsum))                      # (N, 1)
    s = T.mul(a_tilde, T.matmul(r, T.reshape(r, (1, n))))       # D^-1/2 A~ D^-1/2
    return T.relu(T.matmul(T.matmul(s, f), w))


class GraphAggregator(nn.Module):
    """Two GCN layers, both d -> d, shared across the two temporal graphs."""

    def __init__(self, dim: int, rng: np.random.Generator):
        super().__init__()
        self.w1 = nn.Parameter(nn.kaiming_uniform(rng, (dim, dim), dim))
        self.w2 = nn.Parameter(nn.kaiming_uniform(rng, (dim, dim), dim))

    def forward(self, f, a) -> Tensor:
        return gcn_layer(gcn_layer(f, a, self.w1), a, self.w2)


def compute_prototypes(f_agg, confidence: np.ndarray):
    """Confidence-weighted class means: p_k = sum_m C[m,k] f_m / sum_m C[m,k].

    ``confidence`` is a detached (N_s, N_c) soft assignment; rows of the
    result for classes whose total mass is below 1e-8 are zero and flagged
    absent in the returned mask.
    """
    c = np.asarray(confidence, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] != f_agg.shape[0]:
        raise ShapeError(f"compute_prototypes: confidence {c.shape} does not match "
                         f"{f_agg.shape[0]} nodes")
    colsum = c.sum(axis=0)
    present = colsum >= ABSENT_EPS
    weights = np.where(present[None, :], c / np.where(present, colsum, 1.0)[None, :], 0.0)
    protos = T.matmul(Tensor(weights.T.copy()), f_agg)          # (N_c, d)
    return protos, present


def affinity(p_a, p_b) -> Tensor:
    """Cosine similarity of every row of ``p_a`` with every row of ``p_b``."""
    if p_a.ndim != 2 or p_b.ndim != 2 or p_a.shape[1] != p_b.shape[1]:
        raise ShapeError(f"affinity: shapes {p_a.shape} and {p_b.shape}")
    na = T.l2_norm(p_a, axis=1, keepdims=True)
    nb = T.l2_norm(p_b, axis=1, keepdims=True)
    if np.any(na.data < NORM_EPS) or np.any(nb.data < NORM_EPS):
        raise NumericError("affinity: zero-norm prototype row")
    denom = T.matmul(na, T.reshape(nb, (1, p_b.shape[0])))
    return T.div(T.matmul(p_a, T.transpose(p_b)), denom)


def cpa_loss(a11, a22, a12) -> Tensor:
    """Mean elementwise disagreement between the three affinity matrices."""
    if not (a11.shape == a22.shape == a12.shape):
        raise ShapeError(f"cpa_loss: shapes {a11.shape}/{a22.shape}/{a12.shape}")
    total = T.add(T.add(T.absolute(T.sub(a11, a22)),
                        T.absolute(T.sub(a11, a12))),
                  T.absolute(T.sub(a22, a12)))
    return T.tmean(total)


class PrototypeBank:
    """Per-temporal global prototypes kept fresh with a momentum update.

    Rows update only for classes observed in the step; a class never seen so
    far keeps its zero row and stays flagged uninitialized.
    """

    def __init__(self, n_classes: int, dim: int, beta: float = 0.9):
        if not 0.0 < beta < 1.0:
            raise NumericError(f"prototype bank: beta must be in (0,1), got {beta}")
        self.beta = beta
        self.global_t1 = np.zeros((n_classes, dim))
        self.global_t2 = np.zeros((n_classes, dim))
        self.seen_t1 = np.zeros(n_classes, dtype=bool)
        self.seen_t2 = np.zeros(n_classes, dtype=bool)

    def _pair(self, temporal: int):
        if temporal == 1:
            return self.global_t1, self.seen_t1
        if temporal == 2:
            return self.global_t2, self.seen_t2
        raise ShapeError(f"prototype bank: temporal must be 1 or 2, got {temporal}")

    def update(self, local: np.ndarray, present: np.ndarray, temporal: int) -> None:
        """global <- beta*global + (1-beta)*local on present rows (detached values)."""
        bank, seen = self._pair(temporal)
        local = np.asarray(local, dtype=np.float64)
        if local.shape != bank.shape:
            raise ShapeError(f"prototype bank: local {local.shape} != {bank.shape}")
        rows = np.asarray(present, dtype=bool)
        bank[rows] = self.beta * bank[rows] + (1.0 - self.beta) * local[rows]
        seen[rows] = True

    def state(self, prefix: str) -> dict[str, np.ndarray]:
        return {
            f"{prefix}.global_t1": self.global_t1.copy(),
            f"{prefix}.global_t2": self.global_t2.copy(),
            f"{prefix}.seen_t1": self.seen_t1.astype(np.float64),
            f"{prefix}.seen_t2": self.seen_t2.astype(np.float64),
        }

    def load_state(self, prefix: str, state: dict[str, np.ndarray]) -> None:
        self.global_t1[...] = state[f"{prefix}.global_t1"]
        self.global_t2[...] = state[f"{prefix}.global_t2"]
        self.seen_t1[...] = state[f"{prefix}.seen_t1"] != 0.0
        self.seen_t2[...] = state[f"{prefix}.seen_t2"] != 0.0


def pool_confidence(softmax_map: np.ndarray, factor: int) -> np.ndarray:
    """Average-pool (B, N_c, H, W) class confidences by an integer factor."""
    b, c, h, w = softmax_map.shape
    if h % factor or w % factor:
        raise ShapeError(f"pool_confidence: {h}x{w} not divisible by {factor}")
    pooled = softmax_map.reshape(b, c, h // factor, factor, w // factor, factor)
    return pooled.mean(axis=(3, 5))


class GaplBranch(nn.Module):
    """Graph aggregation, prototypes, affinity consistency loss, bank upkeep.

    The whole batch forms one graph (nodes = B*H0*W0 coarse-level pixels).
    Affinities mix gradient-carrying local prototypes for classes present in
    the batch with constant bank rows for absent-but-seen classes; classes
    usable in only one temporal are dropped from all three matrices and the
    mean renormalizes over the active set.
    """

    def __init__(self, dim: int, n_classes: int, rng: np.random.Generator,
                 beta: float = 0.9):
        super().__init__()
        self.aggregator = GraphAggregator(dim, rng)
        self.bank = PrototypeBank(n_classes, dim, beta=beta)
        self.n_classes = n_classes

    @staticmethod
    def _flatten_nodes(x) -> Tensor:
        # (B, C, H, W) -> (B*H*W, C)
        b, c, h, w = x.shape
        return T.reshape(T.transpose(x, (0, 2, 3, 1)), (b * h * w, c))

    def _temporal_prototypes(self, x4, confidence: np.ndarray):
        nodes = self._flatten_nodes(x4)
        sigma = median_sigma(nodes.data)
        adj = build_adjacency(nodes, sigma)
        agg = self.aggregator(nodes, adj)
        flat_conf = confidence.transpose(0, 2, 3, 1).reshape(-1, self.n_classes)
        return compute_prototypes(agg, flat_conf)

    def _select_rows(self, protos, present, bank_rows, active):
        rows = []
        for k in np.flatnonzero(active):
            if present[k]:
                rows.append(T.select_index(protos, int(k), axis=0))
            else:
                rows.append(Tensor(bank_rows[k].copy()))
        return T.stack(rows, axis=0)

    def forward(self, x4_t1, x4_t2, conf_t1: np.ndarray, conf_t2: np.ndarray):
        """Return (loss, info). Confidence maps are (B, N_c, H0, W0), detached."""
        if x4_t1.shape != x4_t2.shape:
            raise ShapeError(f"gapl: temporal shapes differ: {x4_t1.shape} vs {x4_t2.shape}")
        p1, present1 = self._temporal_prototypes(x4_t1, conf_t1)
        p2, present2 = self._temporal_prototypes(x4_t2, conf_t2)

        usable1 = present1 | self.bank.seen_t1
        usable2 = present2 | self.bank.seen_t2
        active = usable1 & usable2
        info = {
            "present_t1": present1, "present_t2": present2,
            "active": active, "n_active": int(active.sum()),
        }
        if not active.any():
            # nothing comparable yet (first steps of a cold bank); keep the
            # step alive with a constant zero
            loss = Tensor(0.0)
        else:
            rows1 = self._select_rows(p1, present1, self.bank.global_t1, active)
            rows2 = self._select_rows(p2, present2, self.bank.global_t2, active)
            a11 = affinity(rows1, rows1)
            a22 = affinity(rows2, rows2)
            a12 = affinity(rows1, rows2)
            loss = cpa_loss(a11, a22, a12)
            info["a11"], info["a22"], info["a12"] = a11.data, a22.data, a12.data

        if self.training:
            self.bank.update(p1.data, present1, 1)
            self.bank.update(p2.data, present2, 2)
        return loss, info

"""Hypergraph structure, k-NN hyperedge construction, fusion, propagation.

A hypergraph is stored densely: a binary node-by-hyperedge incidence matrix
plus positive per-hyperedge weights. Instances are immutable after
construction (the backing arrays are marked read-only) and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import ShapeError, ValidationError, as_matrix

__all__ = [
    "Hypergraph",
    "knn_hyperedges",
    "knn_neighbor_lists",
    "coequal_fuse",
    "fuse_features",
    "propagation_operator",
]


@dataclass(frozen=True)
class Hypergraph:
    num_nodes: int
    incidence: np.ndarray
    edge_weights: np.ndarray = field(default=None)

    def __post_init__(self):
        inc = as_matrix(self.incidence, "incidence")
        if inc.shape[0] != self.num_nodes:
            raise ShapeError(
                f"incidence has {inc.shape[0]} rows for {self.num_nodes} nodes"
            )
        if not np.isin(inc, (0.0, 1.0)).all():
            raise ValidationError("incidence entries must be 0 or 1")
        if inc.shape[1] and (inc.sum(axis=0) < 1).any():
            raise ValidationError("every hyperedge must contain at least one node")
        w = self.edge_weights
        if w is None:
            w = np.ones(inc.shape[1])
        w = np.asarray(w, dtype=np.float64).reshape(-1)
        if w.shape[0] != inc.shape[1]:
            raise ShapeError(
                f"{w.shape[0]} edge weights for {inc.shape[1]} hyperedges"
            )
        if (w <= 0).any():
            raise ValidationError("edge weights must be positive")
        inc.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "incidence", inc)
        object.__setattr__(self, "edge_weights", w)

    @property
    def num_edges(self) -> int:
        return self.incidence.shape[1]


def knn_neighbor_lists(features: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k nearest neighbors of each row, excluding the row itself.

    Euclidean distance; ties broken toward the lower index. Returns an
    (n x k) integer array with neighbors in increasing distance order.
    """
    X = as_matrix(features, "features")
    n = X.shape[0]
    if n == 0:
        raise ValidationError("knn: empty feature matrix")
    if not np.isfinite(X).all():
        raise ValidationError("knn: features contain non-finite values")
    if k >= n:
        raise ValidationError(f"knn: k={k} must be smaller than the {n} rows")
    if k < 0:
        raise ValidationError(f"knn: k must be >= 0, got {k}")
    neighbors = np.empty((n, k), dtype=np.intp)
    idx = np.arange(n)
    for i in range(n):
        d = np.square(X[i] - X).sum(axis=1)
        d[i] = np.inf
        order = np.lexsort((idx, d))
        neighbors[i] = order[:k]
    return neighbors


def knn_hyperedges(features, k: int, pairwise: bool = False) -> Hypergraph:
    """Build per-node k-NN hyperedges over the feature rows.

    Default mode gives one hyperedge per node containing the node (its
    centroid) plus its k nearest neighbors, so every incidence column sums
    to k + 1. Pairwise mode instead emits k two-node hyperedges per node,
    emulating an ordinary graph.
    """
    X = as_matrix(features, "features")
    n = X.shape[0]
    neighbors = knn_neighbor_lists(X, k)
    centroids = np.repeat(np.arange(n), k)  # node i once per neighbor, as in neighbors.ravel()
    if pairwise:
        cols = np.arange(n * k)
        inc = np.zeros((n, n * k))
        inc[centroids, cols] = 1.0
        inc[neighbors.ravel(), cols] = 1.0
    else:
        inc = np.eye(n)
        inc[neighbors.ravel(), centroids] = 1.0
    return Hypergraph(n, inc)


def coequal_fuse(parts) -> Hypergraph:
    """Concatenate incidence matrices of hypergraphs over the same node set."""
    parts = list(parts)
    if not parts:
        raise ValidationError("coequal_fuse: empty hypergraph list")
    n = parts[0].num_nodes
    for p in parts[1:]:
        if p.num_nodes != n:
            raise ShapeError(f"coequal_fuse: node counts differ ({p.num_nodes} vs {n})")
    inc = np.hstack([p.incidence for p in parts])
    w = np.concatenate([p.edge_weights for p in parts])
    return Hypergraph(n, inc, w)


def fuse_features(modality_features) -> np.ndarray:
    """Concatenate per-modality feature matrices along the feature axis."""
    mats = [as_matrix(m, "features") for m in modality_features]
    if not mats:
        raise ValidationError("fuse_features: empty feature list")
    rows = mats[0].shape[0]
    for m in mats[1:]:
        if m.shape[0] != rows:
            raise ShapeError(
                f"fuse_features: row counts differ ({m.shape[0]} vs {rows})"
            )
    return np.hstack(mats)


def propagation_operator(G: Hypergraph) -> np.ndarray:
    """Symmetrically normalized propagation matrix of the hypergraph.

    D_v^{-1/2} H W D_e^{-1} H^T D_v^{-1/2}, with node degrees weighted by the
    hyperedge weights and D_e the hyperedge cardinalities. Zero degrees map
    to zero (isolated nodes get all-zero rows).
    """
    M, dv = _edge_gram(G)
    with np.errstate(divide="ignore"):
        s = np.where(dv > 0, dv**-0.5, 0.0)
    return s[:, None] * M * s[None, :]


def _edge_gram(G: Hypergraph):
    """(H W D_e^{-1} H^T, H w): the operator before degree normalization."""
    H = G.incidence
    w = G.edge_weights
    de = H.sum(axis=0)
    with np.errstate(divide="ignore"):
        inv_de = np.where(de > 0, 1.0 / de, 0.0)
    return (H * (w * inv_de)) @ H.T, H @ w

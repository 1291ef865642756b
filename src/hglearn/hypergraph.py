"""Hypergraph structure, k-NN hyperedge construction, propagation.

A hypergraph is stored densely: a binary node-by-hyperedge incidence matrix
plus positive per-hyperedge weights. Instances are immutable after
construction (the backing arrays are marked read-only) and safe to share;
each computes its edge gram once, on first use, for every operator built
on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .autodiff import ShapeError, ValidationError, as_matrix

__all__ = [
    "Hypergraph",
    "knn_hyperedges",
    "knn_neighbor_lists",
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

    @classmethod
    def from_members(cls, num_nodes: int, nodes, edges, num_edges: int) -> Hypergraph:
        """Unit-weight hypergraph with node `nodes[i]` in hyperedge `edges[i]`."""
        inc = np.zeros((num_nodes, num_edges))
        inc[nodes, edges] = 1.0
        return cls(num_nodes, inc)

    @property
    def num_edges(self) -> int:
        return self.incidence.shape[1]

    @cached_property
    def edge_gram(self):
        """(H W D_e^{-1} H^T, H w), computed on first use and kept read-only."""
        H, w = self.incidence, self.edge_weights  # every hyperedge has a member: D_e > 0
        gram, dv = (H * (w * (1.0 / H.sum(axis=0)))) @ H.T, H @ w
        gram.flags.writeable = dv.flags.writeable = False
        return gram, dv


# Rows ranked by one GEMM, and feature entries differenced per re-rank step.
# Both bound a step's temporaries (256 x n and 2^18 floats), however many
# candidates ties leave.
_BLOCK_ROWS = 256
_RERANK_ENTRIES = 1 << 18


def knn_neighbor_lists(features: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k nearest neighbors of each row, excluding the row itself.

    Squared Euclidean distance `np.square(X[i] - X[j]).sum()`, computed as
    written; ties broken toward the lower index. Returns an (n x k) integer
    array with neighbors in increasing distance order. Rejects features
    whose column ranges allow a squared distance within a factor 8 of
    float64's largest value, which covers every pair that would overflow.
    """
    X = as_matrix(features, "features")
    n, dim = X.shape
    if n == 0:
        raise ValidationError("knn: empty feature matrix")
    if not np.isfinite(X).all():
        raise ValidationError("knn: features contain non-finite values")
    if k >= n:
        raise ValidationError(f"knn: k={k} must be smaller than the {n} rows")
    if k < 0:
        raise ValidationError(f"knn: k must be >= 0, got {k}")
    lo = X.min(axis=0)
    with np.errstate(over="ignore"):
        span = X.max(axis=0) - lo
        bound = np.square(span).sum()  # >= every exact squared distance
    if not bound <= np.finfo(np.float64).max / 8:
        raise ValidationError("knn: features spread so widely that squared distances "
                              "overflow float64")
    if k == 0:
        return np.empty((n, 0), dtype=np.intp)
    # Candidates come from g_ij = |c_j|^2 - 2 c_i.c_j on the centered rows
    # c = fl(x - mid), which is |c_i - c_j|^2 less the row constant |c_i|^2.
    # Let S = |c_i|^2 + |c_j|^2, u the unit roundoff, gamma = gamma_{d+2} =
    # (d+2)u / (1 - (d+2)u) and tau the smallest normal float. Error bounds
    # from Higham, Accuracy and Stability of Numerical Algorithms, ch. 3:
    # - relative: g_ij + |c_i|^2 is within 2 gamma S of |c_i - c_j|^2 (the
    #   dot products in any summation order, then one sum); centering moves
    #   the exact distance by at most 4.01 u S (each c_ik carries a relative
    #   error of u); the re-rank's own distance d_ij, one subtraction, one
    #   square and d - 1 sums, is within gamma_{d+2} of the exact one, at most
    #   2 gamma S. In all, 4 gamma S + 4.01 u S <= 7 gamma S.
    # - absolute: a subnormal result is off by less than tau per operation,
    #   also where BLAS flushes it to zero: 6d + 1 operations in g, d squares
    #   in d_ij, in all at most 8 d tau.
    # So |g_ij + |c_i|^2 - d_ij| <= E_ij = 7 gamma S + 8 d tau. If j is among
    # the k nearest by d but not among the k smallest g, one of those k, s, is
    # not among the k nearest, so d_is >= d_ij and
    #   g_ij <= g_is + E_is + E_ij <= (k-th g) + 14 gamma (|c_i|^2 + max|c|^2) + 16 d tau.
    # The margin takes 32 for both 14 and 16, which covers the roundings of
    # the squared norms, of the margin itself and of the threshold sum.
    C = X - (lo + span / 2)
    sq = np.einsum("ij,ij->i", C, C)
    u = np.finfo(np.float64).eps / 2
    gamma = (dim + 2) * u / (1 - (dim + 2) * u)
    margin = 32 * gamma * (sq + sq.max()) + 32 * (dim + 1) * np.finfo(np.float64).tiny
    step = _RERANK_ENTRIES // max(dim, 1) or 1
    neighbors = np.empty((n, k), dtype=np.intp)
    for start in range(0, n, _BLOCK_ROWS):
        block = slice(start, min(start + _BLOCK_ROWS, n))
        g = C[block] @ C.T
        g *= -2.0
        g += sq
        np.fill_diagonal(g[:, start:], np.inf)  # the row itself
        kth = np.partition(g, k - 1, axis=1)[:, k - 1]
        local, cols = np.nonzero(g <= (kth + margin[block])[:, None])
        rows = local + start
        dist = np.concatenate([np.square(X[rows[a:a + step]] - X[cols[a:a + step]]).sum(axis=1)
                               for a in range(0, rows.size, step)])
        order = np.lexsort((cols, dist, local))
        counts = np.bincount(local, minlength=g.shape[0])  # each >= k
        first = np.cumsum(counts) - counts
        neighbors[block] = cols[order][first[:, None] + np.arange(k)]
    return neighbors


def knn_hyperedges(features, k: int, pairwise: bool = False) -> Hypergraph:
    """Build per-node k-NN hyperedges over the feature rows.

    Default mode gives one hyperedge per node containing the node (its
    centroid) plus its k nearest neighbors, so every incidence column sums
    to k + 1. Pairwise mode instead emits k two-node hyperedges per node,
    emulating an ordinary graph.
    """
    X = as_matrix(features, "features")
    return Hypergraph.from_members(X.shape[0], *_knn_members(knn_neighbor_lists(X, k), pairwise))


def _knn_members(neighbors, pairwise):
    """(node, hyperedge) index pairs of the k-NN hyperedges, and their count.

    Hyperedges are numbered in the column order of `knn_hyperedges`.
    """
    n, k = neighbors.shape
    centroids = np.repeat(np.arange(n), k)  # node i once per neighbor, as in neighbors.ravel()
    if pairwise:
        return np.concatenate([centroids, neighbors.ravel()]), np.tile(np.arange(n * k), 2), n * k
    nodes = np.arange(n)
    return np.concatenate([nodes, neighbors.ravel()]), np.concatenate([nodes, centroids]), n


def propagation_operator(G: Hypergraph) -> np.ndarray:
    """Symmetrically normalized propagation matrix of the hypergraph.

    D_v^{-1/2} H W D_e^{-1} H^T D_v^{-1/2}, with node degrees weighted by the
    hyperedge weights and D_e the hyperedge cardinalities. Zero degrees map
    to zero (isolated nodes get all-zero rows).
    """
    return _normalized_gram(G, 0, 0.0)[1]


def _normalized_gram(G: Hypergraph, degree_shift, add):
    """(s, s (H W D_e^{-1} H^T + add) s^T) with s = (H w + degree_shift)^{-1/2}.

    `add` is a scalar or a matrix of the gram's shape. Zero degrees give
    s = 0. `propagation_operator` shifts and adds nothing.
    """
    gram, dv = G.edge_gram
    dv = dv + degree_shift
    with np.errstate(divide="ignore"):
        s = np.where(dv > 0, dv**-0.5, 0.0)
    # scaled in place: the kept gram and one new array, nothing more
    block = gram + add
    block *= s[:, None]
    block *= s[None, :]
    return s, block

"""Hypergraph structure, k-NN hyperedge construction, propagation.

A hypergraph is stored as its (node, hyperedge) member pairs, sorted by
hyperedge and then node, plus positive per-hyperedge weights. Instances are
immutable after construction (the arrays are marked read-only) and safe to
share; each computes its edge gram once, on first use, for every operator
built on it. The dense node-by-hyperedge incidence is a view built on each
access, for readers that want a matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .autodiff import ValidationError, as_matrix

__all__ = [
    "Hypergraph",
    "knn_hyperedges",
    "knn_neighbor_lists",
    "propagation_operator",
]


def _indices(x, name: str) -> np.ndarray:
    a = np.asarray(x)
    if a.ndim != 1 or (a.size and a.dtype.kind not in "iu"):
        raise ValidationError(f"{name} must be a 1-D array of integer indices")
    return a.astype(np.intp)


@dataclass(frozen=True, eq=False)
class Hypergraph:
    """Node `nodes[i]` belongs to hyperedge `edges[i]`, which has weight `edge_weights[edges[i]]`.

    The pairs may come in any order and are kept sorted by (hyperedge, node).
    Without weights, hyperedges 0 .. max(edges) get weight 1. Equality and
    hashing are by identity.
    """

    num_nodes: int
    nodes: np.ndarray
    edges: np.ndarray
    edge_weights: np.ndarray = field(default=None)

    def __post_init__(self):
        n = self.num_nodes
        nodes, edges = _indices(self.nodes, "nodes"), _indices(self.edges, "edges")
        if nodes.shape != edges.shape:
            raise ValidationError(f"{nodes.size} member nodes for {edges.size} hyperedge indices")
        if nodes.min(initial=0) < 0 or nodes.max(initial=-1) >= n:
            raise ValidationError(f"member nodes must lie in [0, {n})")
        w = self.edge_weights
        w = (np.ones(edges.max(initial=-1) + 1) if w is None
             else np.array(w, dtype=np.float64).reshape(-1))
        if edges.min(initial=0) < 0 or edges.max(initial=-1) >= w.size:
            raise ValidationError(f"hyperedge indices must lie in [0, {w.size}), "
                                  f"one per edge weight")
        if not (w > 0).all():
            raise ValidationError("edge weights must be positive")
        key = edges * n + nodes  # orders by hyperedge, then node
        order = np.argsort(key)
        if (np.diff(key[order]) == 0).any():
            raise ValidationError("duplicate (node, hyperedge) pair")
        nodes, edges = nodes[order], edges[order]
        if (np.bincount(edges, minlength=w.size) == 0).any():
            raise ValidationError("every hyperedge must contain at least one node")
        for name, a in (("nodes", nodes), ("edges", edges), ("edge_weights", w)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @classmethod
    def from_incidence(cls, incidence, edge_weights=None) -> Hypergraph:
        """The hypergraph of a dense 0/1 node-by-hyperedge matrix (unit weights by default)."""
        inc = as_matrix(incidence, "incidence")
        if not ((inc == 0) | (inc == 1)).all():
            raise ValidationError("incidence entries must be 0 or 1")
        w = np.ones(inc.shape[1]) if edge_weights is None else np.reshape(edge_weights, -1)
        if w.size != inc.shape[1]:
            raise ValidationError(f"{w.size} edge weights for {inc.shape[1]} hyperedges")
        edges, nodes = np.nonzero(inc.T)
        return cls(inc.shape[0], nodes, edges, w)

    @property
    def num_edges(self) -> int:
        return self.edge_weights.size

    @property
    def incidence(self) -> np.ndarray:
        """The dense N x E 0/1 matrix, built on every access and never kept."""
        inc = np.zeros((self.num_nodes, self.num_edges))
        inc[self.nodes, self.edges] = 1.0
        return inc

    @cached_property
    def edge_gram(self):
        """(H W D_e^{-1} H^T, H w), computed on first use and kept read-only.

        Summed from the member pairs: each of a hyperedge's c^2 ordered member
        pairs (i, j) adds w_e / c to entry (i, j). Hyperedges are taken by
        size, at most N^2 pairs per `bincount` call, so a call's temporaries
        stay within a few N x N arrays whatever the hyperedge sizes. A
        hyperedge that would fill a call alone (c^2 > N^2 / 2) is added as one
        dense block instead: its c member rows, each plus w_e / c on the
        member columns. The first `bincount` result is the gram the later
        calls add into: every share is positive, so it equals 0.0 plus it.
        """
        n, nodes, w = self.num_nodes, self.nodes, self.edge_weights
        sizes = np.bincount(self.edges, minlength=w.size)  # each >= 1: D_e > 0
        first = np.cumsum(sizes) - sizes  # each hyperedge's first pair
        share = w / sizes
        gram = None
        for c in np.unique(sizes):
            group = np.flatnonzero(sizes == c)
            per_call = n * n // (c * c)  # c <= n, so at least one hyperedge
            if per_call == 1:
                if gram is None:
                    gram = np.zeros(n * n)
                square = gram.reshape(n, n)
                for e in group:
                    m = nodes[first[e]:first[e] + c]
                    row = np.zeros(n)
                    row[m] = share[e]
                    square[m] += row  # adds w_e / c on columns m, an exact 0 elsewhere
                continue
            for a in range(0, group.size, per_call):
                g = group[a:a + per_call]
                members = nodes[first[g][:, None] + np.arange(c)]
                pairs = members[:, :, None] * n + members[:, None, :]
                part = np.bincount(pairs.ravel(), np.repeat(share[g], c * c), minlength=n * n)
                gram = part if gram is None else np.add(gram, part, out=gram)
        gram = np.zeros((n, n)) if gram is None else gram.reshape(n, n)
        dv = np.bincount(nodes, w[self.edges], minlength=n)
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
    if n * n * dim <= _RERANK_ENTRIES:
        # Every pair at once. Entry (i, j) of the last-axis sum reduces the
        # dim contiguous squares of X[i] - X[j] with the same inner loop, in
        # the same order, as the formula's 1-D sum, so it is that value bit
        # for bit; the stable sort breaks ties toward the lower index.
        dist = np.square(X[:, None, :] - X[None, :, :]).sum(axis=2)
        np.fill_diagonal(dist, np.inf)  # the row itself
        return np.argsort(dist, axis=1, kind="stable")[:, :k]
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
        # row-major, as np.nonzero gives them: by row, then ascending column
        local, cols = np.divmod(np.flatnonzero(g <= (kth + margin[block])[:, None]), n)
        rows = local + start
        dist = np.concatenate([np.square(X[rows[a:a + step]] - X[cols[a:a + step]]).sum(axis=1)
                               for a in range(0, rows.size, step)])
        counts = np.bincount(local, minlength=g.shape[0])  # each >= k
        first = np.cumsum(counts) - counts
        # each row's candidates in its own row of a block padded with +inf,
        # which sorts after every finite distance; the stable sort keeps the
        # ascending columns of a tie in order
        ranked = np.full((counts.size, counts.max()), np.inf)
        ranked[local, np.arange(local.size) - first[local]] = dist
        order = np.argsort(ranked, axis=1, kind="stable")[:, :k]
        neighbors[block] = cols[first[:, None] + order]
    return neighbors


def knn_hyperedges(features, k: int, pairwise: bool = False) -> Hypergraph:
    """Build per-node k-NN hyperedges over the feature rows.

    Default mode gives one hyperedge per node containing the node (its
    centroid) plus its k nearest neighbors, so every incidence column sums
    to k + 1. Pairwise mode instead emits k two-node hyperedges per node,
    emulating an ordinary graph.
    """
    X = as_matrix(features, "features")
    nodes, edges, _ = _knn_members(knn_neighbor_lists(X, k), pairwise)
    return Hypergraph(X.shape[0], nodes, edges)


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

"""Independent brute-force oracles shared by the unit and acceptance tests.

These deliberately avoid the library's vectorized code paths: plain loops,
exhaustive enumeration, pair counting, and dense products where the library
works on member pairs.
"""

import math

import numpy as np


def brute_force_knn(features, k):
    """Neighbor lists by exhaustive pairwise distances, ties to lower index."""
    X = np.asarray(features, dtype=float)
    n = X.shape[0]
    out = []
    for i in range(n):
        scored = []
        for j in range(n):
            if j == i:
                continue
            d = math.sqrt(sum((X[i, c] - X[j, c]) ** 2 for c in range(X.shape[1])))
            scored.append((d, j))
        scored.sort()
        out.append([j for _, j in scored[:k]])
    return out


def loop_knn(features, k):
    """The per-row k-NN loop `knn_neighbor_lists` must match bit for bit.

    Row i's squared distances are `np.square(X[i] - X).sum(axis=1)`; the row
    itself is put last and the rest ordered by (distance, index).
    """
    X = np.ascontiguousarray(features, dtype=np.float64)
    n = X.shape[0]
    neighbors = np.empty((n, k), dtype=np.intp)
    idx = np.arange(n)
    for i in range(n):
        d = np.square(X[i] - X).sum(axis=1)
        d[i] = np.inf
        order = np.lexsort((idx, d))
        neighbors[i] = order[:k]
    return neighbors


def brute_force_operator(H, w):
    """Per-node summation over shared hyperedges: w_e / (deg_e * sqrt(d_i d_j))."""
    H = np.asarray(H, dtype=float)
    n, e = H.shape
    dv = [sum(w[c] * H[i, c] for c in range(e)) for i in range(n)]
    de = [sum(H[r, c] for r in range(n)) for c in range(e)]
    P = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if dv[i] == 0 or dv[j] == 0:
                continue
            total = 0.0
            for c in range(e):
                if H[i, c] and H[j, c]:
                    total += w[c] / (de[c] * math.sqrt(dv[i]) * math.sqrt(dv[j]))
            P[i, j] = total
    return P


def dense_edge_gram(H, w):
    """(H W D_e^{-1} H^T, H w) as two dense products of the incidence H."""
    H = np.asarray(H, dtype=float)
    return (H * (w / H.sum(axis=0))) @ H.T, H @ w


def pair_count_auc(scores, labels):
    """Fraction of (positive, negative) pairs won by the positive; ties half."""
    scores = np.asarray(scores, float)
    labels = np.asarray(labels, int)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def all_rows_cross_entropy(logits, labels, mask):
    """(loss, gradient) of the masked mean cross-entropy, formed on every row.

    The all-rows form `softmax_cross_entropy` must match bit for bit: every
    row's log-softmax is computed, the masked rows' label entries are summed,
    and the gradient is softmax minus one-hot on the masked rows, zero on the
    rest, scaled by 1/count on every row.
    """
    z = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    rows = np.flatnonzero(np.asarray(mask, dtype=bool))
    shifted = z - z.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logprobs = shifted - logsumexp
    loss = -logprobs[rows, labels[rows]].sum() / rows.size
    probs = np.exp(shifted - logsumexp)
    grad = np.zeros_like(z)
    grad[rows] = probs[rows]
    grad[rows, labels[rows]] -= 1.0
    return loss, grad * (1.0 / rows.size)

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


def row_loop_floats(path, n, width):
    """A float CSV read row by row with `float()`, as `load_dataset` read one.

    Returns the n x width float64 matrix, or raises `ValidationError` naming
    the first bad row: ragged, non-numeric, or non-finite, checked in that
    order within each row.
    """
    from hglearn.autodiff import ValidationError

    rows = path.read_text().splitlines()
    if len(rows) != n:
        raise ValidationError(f"{path}: expected {n} rows, found {len(rows)}")
    feats = []
    for r, line in enumerate(rows):
        cells = line.split(",")
        if len(cells) != width:
            raise ValidationError(f"{path}: row {r} has {len(cells)} values, expected {width}")
        try:
            feats.append([float(c) for c in cells])
        except ValueError:
            raise ValidationError(f"{path}: row {r} has a non-numeric value") from None
        if not all(math.isfinite(v) for v in feats[r]):
            raise ValidationError(f"{path}: row {r} has a non-finite value")
    return np.array(feats)


def zero_start_edge_gram(G):
    """`Hypergraph.edge_gram`'s gram as first written: every `bincount` added into zeros.

    The same calls with the same pairs in the same order, so each entry sums
    the same terms in the same grouping, after a leading 0.0.
    """
    n, nodes, w = G.num_nodes, G.nodes, G.edge_weights
    sizes = np.bincount(G.edges, minlength=w.size)
    first = np.cumsum(sizes) - sizes
    share = w / sizes
    gram = np.zeros(n * n)
    for c in np.unique(sizes):
        group = np.flatnonzero(sizes == c)
        per_call = n * n // (c * c)
        if per_call == 1:
            square = gram.reshape(n, n)
            for e in group:
                m = nodes[first[e]:first[e] + c]
                row = np.zeros(n)
                row[m] = share[e]
                square[m] += row
            continue
        for a in range(0, group.size, per_call):
            g = group[a:a + per_call]
            members = nodes[first[g][:, None] + np.arange(c)]
            pairs = members[:, :, None] * n + members[:, None, :]
            gram += np.bincount(pairs.ravel(), np.repeat(share[g], c * c), minlength=n * n)
    return gram.reshape(n, n)

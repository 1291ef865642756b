"""Correctness checks the benchmark applies to hglearn's outputs.

Every check is computed apart from the program: the k-NN reference, the
degree vector, the confusion counts and the pair-counted AUC are all
rebuilt here from the raw inputs, or from properties the method must have.
Each check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

# Rows per block of the exact pairwise-difference tensor in reference_knn;
# keeps the block near 25 MB at a few thousand 16-dim rows.
_KNN_BLOCK = 128


def reference_knn(features, k: int) -> np.ndarray:
    """(n x k) nearest-neighbor indices, self excluded, ties to the lower index.

    Distances are the sum of squared coordinate differences, computed for a
    block of rows at once; a stable sort of each distance row keeps equal
    distances in index order.
    """
    X = np.asarray(features, dtype=np.float64)
    n = X.shape[0]
    out = np.empty((n, k), dtype=np.intp)
    for start in range(0, n, _KNN_BLOCK):
        rows = np.arange(start, min(start + _KNN_BLOCK, n))
        d = np.square(X[rows, None, :] - X[None, :, :]).sum(axis=2)
        d[np.arange(rows.size), rows] = np.inf
        out[rows] = np.argsort(d, axis=1, kind="stable")[:, :k]
    return out


def expected_hyperedges(features_list, present_list, k: int, pairwise: bool) -> list:
    """Member tuples of the fused k-NN hypergraph over all subjects.

    Per modality, k-NN runs over the present subjects only. Default mode
    gives one hyperedge per present subject (itself plus its k neighbors);
    pairwise mode gives k two-member hyperedges per present subject.
    """
    edges = []
    for feats, present in zip(features_list, present_list):
        idx = np.flatnonzero(np.asarray(present, dtype=bool))
        nbrs = idx[reference_knn(np.asarray(feats)[idx], k)]
        for i, row in zip(idx, nbrs):
            if pairwise:
                edges.extend(tuple(sorted((int(i), int(j)))) for j in row)
            else:
                edges.append(tuple(sorted([int(i), *(int(j) for j in row)])))
    return edges


def hyperedge_members(incidence) -> list:
    """Member tuples of every column of a dense 0/1 incidence matrix."""
    cols, rows = np.nonzero(np.asarray(incidence).T)
    bounds = np.flatnonzero(np.diff(cols)) + 1
    return [tuple(int(r) for r in part) for part in np.split(rows, bounds)] if rows.size else []


def check_fused_incidence(incidence, features_list, present_list, k: int, pairwise: bool) -> list:
    """The program's fused incidence against the benchmark's own k-NN."""
    H = np.asarray(incidence)
    problems = []
    if not np.isin(H, (0.0, 1.0)).all():
        return ["incidence has entries other than 0 and 1"]
    present_total = sum(int(np.asarray(p, dtype=bool).sum()) for p in present_list)
    want_edges = present_total * k if pairwise else present_total
    if H.shape[1] != want_edges:
        problems.append(f"{H.shape[1]} hyperedges, expected {want_edges}")
    want_size = 2 if pairwise else k + 1
    sizes = H.sum(axis=0)
    bad = np.flatnonzero(sizes != want_size)
    if bad.size:
        problems.append(
            f"{bad.size} hyperedges do not have {want_size} members "
            f"(column {int(bad[0])} has {int(sizes[bad[0]])})"
        )
    if problems:
        return problems
    got = sorted(hyperedge_members(H))
    want = sorted(expected_hyperedges(features_list, present_list, k, pairwise))
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        problems.append(
            f"hyperedges differ from the reference k-NN: {len(missing)} missing "
            f"(first {missing[:1]}), {len(extra)} unexpected (first {extra[:1]})"
        )
    return problems


def check_operator(P, incidence, edge_weights, rtol: float = 1e-12) -> list:
    """Symmetric, non-negative, and P @ sqrt(d_v) == sqrt(d_v).

    d_v is the weighted node degree, summed here from the incidence. The
    identity holds for D_v^-1/2 H W D_e^-1 H^T D_v^-1/2 because every
    hyperedge's normalized membership sums to one; its rounding error per
    row is bounded by about n * 2**-52 relative, under 1e-12 for n < 4500.
    """
    P = np.asarray(P, dtype=np.float64)
    H = np.asarray(incidence, dtype=np.float64)
    w = np.asarray(edge_weights, dtype=np.float64).reshape(-1)
    n = H.shape[0]
    if P.shape != (n, n):
        return [f"operator shape {P.shape}, expected {(n, n)}"]
    if not np.isfinite(P).all():
        return ["operator has non-finite entries"]
    problems = []
    if P.min() < 0.0:
        problems.append(f"operator has a negative entry ({P.min()!r})")
    scale = np.abs(P).max()
    asym = np.abs(P - P.T).max()
    if asym > rtol * scale:
        problems.append(f"operator is not symmetric (max |P - P^T| = {asym:.3e})")
    dv = (H * w[None, :]).sum(axis=1)
    s = np.sqrt(dv)
    live = s > 0
    resid = np.abs(P @ s - s)
    worst = float((resid[live] / s[live]).max()) if live.any() else 0.0
    if worst > rtol:
        problems.append(f"P @ sqrt(d_v) differs from sqrt(d_v) by {worst:.3e} relative")
    if (resid[~live] != 0.0).any():
        problems.append("a node of zero degree has a non-zero operator row")
    return problems


def positive_probability(logits) -> np.ndarray:
    """Softmax probability of class 1, shifted by the row maximum."""
    z = np.asarray(logits, dtype=np.float64)
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e[:, 1] / e.sum(axis=1)


def balanced_accuracy(logits, labels) -> float:
    """Mean of sensitivity and specificity of the argmax prediction."""
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels).reshape(-1)
    pred = np.argmax(z, axis=1)
    tp = int(((pred == 1) & (y == 1)).sum())
    fn = int(((pred != 1) & (y == 1)).sum())
    tn = int(((pred == 0) & (y == 0)).sum())
    fp = int(((pred != 0) & (y == 0)).sum())
    sen = tp / (tp + fn) if tp + fn else 0.0
    spe = tn / (tn + fp) if tn + fp else 0.0
    return (sen + spe) / 2.0


def pair_count_auc(scores, labels) -> float:
    """Share of (positive, negative) pairs the positive wins; ties count half."""
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    y = np.asarray(labels).reshape(-1)
    pos, neg = s[y == 1], s[y == 0]
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    return float(wins) / (pos.size * neg.size)


def check_evaluation(logits, labels, bacc: float, auc: float, tol: float = 1e-12) -> list:
    """A reported BACC/AUC pair against recomputation from the raw logits."""
    problems = []
    want_bacc = balanced_accuracy(logits, labels)
    if abs(want_bacc - bacc) > tol:
        problems.append(f"BACC {float(bacc)!r}, recomputed {want_bacc!r}")
    want_auc = pair_count_auc(positive_probability(logits), labels)
    if abs(want_auc - auc) > tol:
        problems.append(f"AUC {float(auc)!r}, recomputed {want_auc!r}")
    return problems


def check_loss_curve(losses) -> list:
    """Pretraining losses are finite and the last epoch's is below the first's."""
    losses = [float(v) for v in losses]
    if not losses:
        return ["empty loss curve"]
    if not all(math.isfinite(v) for v in losses):
        return ["loss curve has a non-finite value"]
    if not losses[-1] < losses[0]:
        return [f"last loss {losses[-1]!r} is not below the first {losses[0]!r}"]
    return []


def check_quality(bacc: float, auc: float, floors: dict) -> list:
    problems = []
    if not bacc >= floors["bacc"]:
        problems.append(f"mean BACC {bacc:.4f} below the floor {floors['bacc']}")
    if not auc >= floors["auc"]:
        problems.append(f"mean AUC {auc:.4f} below the floor {floors['auc']}")
    return problems


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def tree_digests(root) -> dict:
    """sha256 of every file below root, keyed by its relative path."""
    root = Path(root)
    return {
        p.relative_to(root).as_posix(): file_digest(p)
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def compare_trees(reference: dict, other: dict, label: str) -> list:
    if reference == other:
        return []
    differing = sorted(
        name for name in set(reference) | set(other) if reference.get(name) != other.get(name)
    )
    return [f"{label}: {len(differing)} files differ from the first copy (first {differing[0]})"]

"""The benchmark's own checkers on tiny hand-worked inputs.

Each checker must accept a correct input and reject a corrupted one.
Run with `python3 -m pytest bench/test_checks.py`.
"""

import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from tracer import tape_counts  # noqa: E402

# Two modalities over five subjects; subject 1 is absent from the second.
FEATS = [
    np.array([[0.0], [1.0], [3.0], [7.0], [8.0]]),
    np.array([[5.0], [0.0], [2.0], [0.0], [9.0]]),
]
PRESENT = [np.ones(5, dtype=bool), np.array([True, False, True, True, True])]
# k=2 neighbors worked by hand: modality 0 over all subjects, modality 1 over
# subjects 0, 2, 3, 4 (distances 0-2: 3, 0-3: 5, 0-4: 4, 2-3: 2, 2-4: 7, 3-4: 9).
HAND_EDGES = [
    (0, 1, 2), (0, 1, 2), (0, 1, 2), (2, 3, 4), (2, 3, 4),
    (0, 2, 4), (0, 2, 3), (0, 2, 3), (0, 2, 4),
]


def incidence_of(edges, n=5):
    H = np.zeros((n, len(edges)))
    for c, members in enumerate(edges):
        H[list(members), c] = 1.0
    return H


def test_reference_knn_breaks_ties_toward_lower_index():
    X = np.array([[0.0], [1.0], [-1.0], [3.0]])
    got = checks.reference_knn(X, 2)
    # subject 0 is 1 away from both 1 and 2: the lower index comes first
    assert got[0].tolist() == [1, 2]
    assert got[3].tolist() == [1, 0]


def test_knn_check_accepts_the_hand_worked_incidence():
    H = incidence_of(HAND_EDGES)
    assert checks.check_fused_incidence(H, FEATS, PRESENT, 2, pairwise=False) == []


def test_knn_check_accepts_any_column_order():
    H = incidence_of(HAND_EDGES[::-1])
    assert checks.check_fused_incidence(H, FEATS, PRESENT, 2, pairwise=False) == []


def test_knn_check_rejects_a_swapped_neighbor():
    edges = list(HAND_EDGES)
    edges[0] = (0, 1, 3)  # subject 3 in place of subject 0's neighbor 2
    problems = checks.check_fused_incidence(incidence_of(edges), FEATS, PRESENT, 2, pairwise=False)
    assert problems and "differ" in problems[0]


def test_knn_check_rejects_wrong_sizes_and_counts():
    edges = list(HAND_EDGES)
    edges[0] = (0, 1)
    assert checks.check_fused_incidence(incidence_of(edges), FEATS, PRESENT, 2, pairwise=False)
    assert checks.check_fused_incidence(incidence_of(HAND_EDGES[:-1]), FEATS, PRESENT, 2,
                                        pairwise=False)


def test_knn_check_pairwise_mode():
    # k=2 two-node hyperedges: each present subject with each of its neighbors
    pairs = []
    nbrs = [
        {0: [1, 2], 1: [0, 2], 2: [1, 0], 3: [4, 2], 4: [3, 2]},
        {0: [2, 4], 2: [3, 0], 3: [2, 0], 4: [0, 2]},
    ]
    for table in nbrs:
        for i, row in table.items():
            pairs += [tuple(sorted((i, j))) for j in row]
    H = incidence_of(pairs)
    assert checks.check_fused_incidence(H, FEATS, PRESENT, 2, pairwise=True) == []
    pairs[0] = (0, 3)
    assert checks.check_fused_incidence(incidence_of(pairs), FEATS, PRESENT, 2, pairwise=True)


def hand_operator(H, w):
    n, e = H.shape
    dv = [sum(w[c] * H[i, c] for c in range(e)) for i in range(n)]
    de = [sum(H[r, c] for r in range(n)) for c in range(e)]
    P = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            P[i, j] = sum(w[c] / de[c] for c in range(e) if H[i, c] and H[j, c]) / math.sqrt(dv[i] * dv[j])
    return P


OP_H = np.array([[1, 0, 1], [1, 1, 0], [0, 1, 1], [1, 1, 1]], dtype=float)
OP_W = np.array([1.0, 2.0, 0.5])


def test_operator_check_accepts_the_normalized_operator():
    assert checks.check_operator(hand_operator(OP_H, OP_W), OP_H, OP_W) == []


def test_operator_check_rejects_a_perturbed_entry():
    P = hand_operator(OP_H, OP_W)
    P[0, 1] += 1e-6
    assert any("symmetric" in p for p in checks.check_operator(P, OP_H, OP_W))


def test_operator_check_rejects_a_symmetric_perturbation():
    P = hand_operator(OP_H, OP_W)
    P[0, 2] += 1e-6
    P[2, 0] += 1e-6
    assert any("sqrt(d_v)" in p for p in checks.check_operator(P, OP_H, OP_W))


def test_operator_check_rejects_negative_entries_and_wrong_weights():
    P = hand_operator(OP_H, OP_W)
    Q = P.copy()
    Q[1, 3] = Q[3, 1] = -Q[1, 3]
    assert any("negative" in p for p in checks.check_operator(Q, OP_H, OP_W))
    assert checks.check_operator(P, OP_H, np.ones(3))


# labels [1, 1, 0, 0]; class-1 scores 2, -1 (positives) and 1, -3 (negatives):
# the positives win 3 of 4 pairs; predictions [1, 0, 1, 0] give BACC 0.5.
EVAL_LOGITS = np.array([[0.0, 2.0], [0.0, -1.0], [0.0, 1.0], [0.0, -3.0]])
EVAL_LABELS = np.array([1, 1, 0, 0])


def test_evaluation_check_accepts_correct_metrics():
    assert checks.check_evaluation(EVAL_LOGITS, EVAL_LABELS, 0.5, 0.75) == []


def test_evaluation_check_rejects_a_wrong_auc():
    problems = checks.check_evaluation(EVAL_LOGITS, EVAL_LABELS, 0.5, 0.7)
    assert len(problems) == 1 and problems[0].startswith("AUC")


def test_evaluation_check_rejects_a_wrong_bacc():
    problems = checks.check_evaluation(EVAL_LOGITS, EVAL_LABELS, 0.75, 0.75)
    assert len(problems) == 1 and problems[0].startswith("BACC")


def test_tied_logits_predict_class_zero_and_tied_scores_count_half():
    logits = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    labels = np.array([1, 0, 0])
    assert checks.balanced_accuracy(logits, labels) == 0.5
    assert checks.pair_count_auc(checks.positive_probability(logits), labels) == 0.75


def test_loss_curve_check():
    assert checks.check_loss_curve(["0.9", "0.5", "0.4"]) == []
    assert checks.check_loss_curve([0.5, 0.5])
    assert checks.check_loss_curve([0.9, float("nan"), 0.4])
    assert checks.check_loss_curve([])


def test_quality_check():
    floors = {"bacc": 0.9, "auc": 0.95}
    assert checks.check_quality(0.9, 0.95, floors) == []
    assert len(checks.check_quality(0.89, 0.94, floors)) == 2


def test_tree_comparison(tmp_path):
    for name in ("a", "b"):
        (tmp_path / name / "sub").mkdir(parents=True)
        (tmp_path / name / "sub" / "f.json").write_text("{}\n")
    first = checks.tree_digests(tmp_path / "a")
    assert checks.compare_trees(first, checks.tree_digests(tmp_path / "b"), "b") == []
    (tmp_path / "b" / "sub" / "f.json").write_text("{} \n")
    assert checks.compare_trees(first, checks.tree_digests(tmp_path / "b"), "b")


class _Param:
    def __init__(self, trainable):
        self.trainable = trainable


class _Node:
    def __init__(self, shape, parents=(), op="const", param=None):
        self.value = np.zeros(shape)
        self.parents = parents
        self.op = op
        self.param = param


def test_tape_counts_split_useful_backward_work():
    A = _Node((2, 3))
    W = _Node((3, 4), op="param:w", param=_Param(True))
    F = _Node((3, 4), op="param:f", param=_Param(False))
    h = _Node((2, 4), (A, W), "matmul")
    g = _Node((2, 4), (A, F), "matmul")
    loss = _Node((1, 1), (h, g), "add")
    counts = tape_counts(loss)
    assert counts["autodiff.tape_nodes"] == 6
    assert math.isclose(counts["autodiff.matmul_gflop"], 2 * 48 / 1e9)
    assert math.isclose(counts["autodiff.backward_gflop"], 4 * 48 / 1e9)
    # only the product toward the trainable W is used
    assert math.isclose(counts["autodiff.backward_useful_gflop"], 48 / 1e9)

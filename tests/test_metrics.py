"""BACC/SEN/SPE from logits, and rank AUC against a brute-force pair-counting oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hglearn.metrics
from hglearn.autodiff import ValidationError
from hglearn.config import RunConfig
from hglearn.data import build_fused_hypergraph, generate_synthetic, split_folds
from hglearn.metrics import (
    MetricsReport,
    aggregate_folds,
    auc,
    evaluate_logits,
    format_metric_row,
)
from hglearn.model import build_encoder
from hglearn.prompt import evaluate_snapshot, tune_with_strategy

from oracles import pair_count_auc


def one_hot(pred, classes=2):
    """Logits whose argmax is `pred`."""
    return np.eye(classes)[np.asarray(pred)]


def report(sen, spe, auc_value):
    return MetricsReport(bacc=(sen + spe) / 2.0, sen=sen, spe=spe, auc=auc_value)


def replay_with_mask(mask):
    """`evaluate_snapshot` on `mask` of a one-epoch linear_probe run on 20 nodes."""
    ds = generate_synthetic(20, 2, (3, 3), 3.0, 0.0, seed=0)
    G, X = build_fused_hypergraph(ds, 3)
    cfg = RunConfig(tune_epochs=1, seed=0)
    encoder = build_encoder(X.shape[1], (4,), 3, np.random.default_rng(0))
    folds = split_folds(ds.labels, 2, seed=0)
    result = tune_with_strategy("linear_probe", G, X, ds.labels, folds.train_mask(0),
                                folds.val_mask(0), encoder, cfg)
    return evaluate_snapshot(result, G, X, ds.labels, mask, encoder, cfg)


class TestConfusion:
    def test_perfect_predictions(self):
        labels = np.array([1, 0, 1, 0, 1])
        r = evaluate_logits(one_hot(labels), labels, np.ones(5, bool))
        assert r.sen == 1.0 and r.spe == 1.0 and r.bacc == 1.0

    def test_all_predicted_positive(self):
        r = evaluate_logits(one_hot([1, 1, 1, 1]), [1, 0, 1, 0], np.ones(4, bool))
        assert (r.sen, r.spe) == (1.0, 0.0)

    def test_fixture_sen_spe_bacc(self):
        # tp=3, fn=1, fp=2, tn=2
        truth = [1, 1, 1, 1, 0, 0, 0, 0]
        pred = [1, 1, 1, 0, 1, 1, 0, 0]
        r = evaluate_logits(one_hot(pred), truth, np.ones(8, bool))
        assert r.sen == 0.75
        assert r.spe == 0.5
        assert r.bacc == 0.625

    def test_total_matches_mask(self):
        rng = np.random.default_rng(0)
        pred = rng.integers(0, 2, 30)
        labels = rng.integers(0, 2, 30)
        mask = rng.random(30) < 0.6
        r = evaluate_logits(one_hot(pred), labels, mask)
        # exactly the masked nodes count, each once
        p, t = pred[mask], labels[mask]
        assert r.sen == ((p == 1) & (t == 1)).sum() / (t == 1).sum()
        assert r.spe == ((p == 0) & (t == 0)).sum() / (t == 0).sum()
        assert r == evaluate_logits(one_hot(p), t, np.ones(int(mask.sum()), bool))

    def test_empty_mask_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            evaluate_logits(one_hot([1, 0]), [1, 0], np.zeros(2, bool))

    @pytest.mark.parametrize("call", [
        lambda: evaluate_logits(one_hot([1, 0, 1]), [1, 0, 1], np.ones(2, bool)),
        lambda: evaluate_logits(one_hot([1, 0, 1]), [1, 0], np.ones(3, bool)),
        lambda: evaluate_logits(np.array([0.5, 1.0, 2.0]), [1, 0, 1], np.ones(3, bool)),
        lambda: evaluate_logits(np.ones((3, 1)), [1, 0, 1], np.ones(3, bool)),
        lambda: replay_with_mask(np.ones(19, bool)),
    ], ids=["short-mask", "short-labels", "1d-logits", "one-column", "snapshot-short-mask"])
    def test_malformed_shapes_rejected(self, call):
        with pytest.raises(ValidationError, match="evaluate_logits"):
            call()

    def test_argmax_ties_resolve_to_class_zero(self):
        logits = np.array([[0.5, 0.5], [1.0, 2.0]])
        r = evaluate_logits(logits, [0, 1], np.ones(2, bool))
        assert (r.spe, r.sen) == (1.0, 1.0)

    def test_prediction_beyond_class_one_is_a_miss(self):
        # rows 1 and 3 predict class 2: a miss for a positive and a negative
        r = evaluate_logits(one_hot([1, 2, 0, 2], classes=3), [1, 1, 0, 0], np.ones(4, bool))
        assert (r.sen, r.spe, r.bacc) == (0.5, 0.5, 0.5)

    def test_single_class_mask_raises_validation_error(self):
        # SEN or SPE would have no denominator; the AUC check rejects the mask
        for labels in ([1, 1], [0, 0]):
            with pytest.raises(ValidationError, match="AUC undefined"):
                evaluate_logits(one_hot([1, 0]), labels, np.ones(2, bool))


class TestAuc:
    def test_perfect_separation(self):
        assert auc([0.9, 0.8, 0.3, 0.2], [1, 1, 0, 0], np.ones(4, bool)) == 1.0

    def test_constant_scores_give_half(self):
        assert auc([0.4] * 6, [1, 0, 1, 0, 1, 0], np.ones(6, bool)) == 0.5

    def test_interleaved_example(self):
        assert auc([0.8, 0.7, 0.6, 0.5], [1, 0, 1, 0], np.ones(4, bool)) == 0.75

    def test_matches_pair_counting_exactly(self):
        rng = np.random.default_rng(123)
        for trial in range(200):
            n = int(rng.integers(4, 40))
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            # quantized scores force plenty of ties
            scores = np.round(rng.random(n), 1)
            got = auc(scores, labels, np.ones(n, bool))
            assert got == pair_count_auc(scores, labels)

    def test_single_class_mask_rejected(self):
        with pytest.raises(ValidationError, match="AUC undefined"):
            auc([0.1, 0.2], [1, 1], np.ones(2, bool))

    def test_mask_restricts_pairs(self):
        scores = [0.9, 0.1, 0.2, 0.8]
        labels = [1, 1, 0, 0]
        mask = np.array([True, False, True, False])
        assert auc(scores, labels, mask) == 1.0

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        scale=st.floats(min_value=0.1, max_value=10.0),
        offset=st.floats(min_value=-5.0, max_value=5.0),
    )
    def test_invariant_under_strictly_monotone_transforms(self, seed, scale, offset):
        rng = np.random.default_rng(seed)
        n = 20
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = rng.standard_normal(n)
        mask = np.ones(n, bool)
        base = auc(scores, labels, mask)
        assert auc(scale * scores + offset, labels, mask) == pytest.approx(base, abs=1e-12)
        assert auc(np.tanh(scores), labels, mask) == pytest.approx(base, abs=1e-12)

    def test_label_swap_mirrors_auc(self):
        # same scores, inverted ground truth
        rng = np.random.default_rng(9)
        n = 25
        labels = rng.integers(0, 2, n)
        labels[:2] = [0, 1]
        scores = rng.random(n)
        mask = np.ones(n, bool)
        base = auc(scores, labels, mask)
        assert auc(scores, 1 - labels, mask) == pytest.approx(1.0 - base, abs=1e-12)

    def test_class_relabeling_swaps_sen_and_spe(self):
        # 0 <-> 1 applied to predictions and ground truth together
        rng = np.random.default_rng(10)
        pred = rng.integers(0, 2, 30)
        labels = rng.integers(0, 2, 30)
        mask = np.ones(30, bool)
        a = evaluate_logits(one_hot(pred), labels, mask)
        b = evaluate_logits(one_hot(1 - pred), 1 - labels, mask)
        assert b.sen == pytest.approx(a.spe, abs=1e-12)
        assert b.spe == pytest.approx(a.sen, abs=1e-12)
        assert b.bacc == pytest.approx(a.bacc, abs=1e-12)

    def test_constant_predictor_bacc_is_half(self):
        labels = np.array([1, 1, 0, 0, 1])
        logits = np.zeros((5, 2))
        report = evaluate_logits(logits, labels, np.ones(5, bool))
        assert report.bacc == 0.5


class TestPositiveProbabilities:
    """The scores evaluate_logits ranks: the softmax probability of class 1."""

    @pytest.fixture()
    def scores(self, monkeypatch):
        seen = []

        def spy(s, labels, mask):
            seen.append(s)
            return auc(s, labels, mask)
        monkeypatch.setattr(hglearn.metrics, "auc", spy)
        return seen

    def test_softmax_matches_direct(self, scores):
        logits = np.array([[1.0, 2.0], [0.0, 0.0]])
        evaluate_logits(logits, [1, 0], np.ones(2, bool))
        probs = scores[0]
        expected = np.exp(2) / (np.exp(1) + np.exp(2))
        assert probs[0] == pytest.approx(expected, abs=1e-12)
        assert probs[1] == 0.5

    def test_extreme_logits_do_not_overflow(self, scores):
        logits = np.array([[1000.0, -1000.0], [-1000.0, 1000.0]])
        assert evaluate_logits(logits, [0, 1], np.ones(2, bool)).auc == 1.0
        probs = scores[0]
        assert probs[0] == 0.0 and probs[1] == 1.0


def all_rows_report(logits, labels, mask):
    """evaluate_logits as it was first written: every row's softmax, then the mask."""
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    m = np.asarray(mask, dtype=bool).reshape(-1)
    e = np.exp(z - z.max(axis=1, keepdims=True))
    a = auc(e[:, 1] / e.sum(axis=1), y, m)
    hit, t = (np.argmax(z, axis=1) == y)[m], y[m]
    sen = int((hit & (t == 1)).sum()) / int((t == 1).sum())
    spe = int((hit & (t == 0)).sum()) / int((t == 0).sum())
    return MetricsReport(bacc=(sen + spe) / 2.0, sen=sen, spe=spe, auc=a)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=60),
    classes=st.integers(min_value=2, max_value=4),
    scale=st.sampled_from([1e-3, 1.0, 30.0, 1e3]),
    decimals=st.sampled_from([None, 0, 1]),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_masked_rows_first_gives_the_all_rows_report_exactly(n, classes, scale, decimals,
                                                              seed):
    rng = np.random.default_rng(seed)
    logits = rng.standard_normal((n, classes)) * scale
    if decimals is not None:  # tied logits within a row and tied scores across rows
        logits = np.round(logits / scale, decimals) * scale
    labels = rng.integers(0, 2, n)
    mask = rng.random(n) < rng.uniform(0.1, 1.0)
    picked = rng.choice(n, 2, replace=False)  # both classes in the mask
    labels[picked], mask[picked] = [0, 1], True
    assert evaluate_logits(logits, labels, mask) == all_rows_report(logits, labels, mask)


class TestAggregateFolds:
    def test_single_fold_zero_std(self):
        r = report(3 / 5, 4 / 5, 0.8)
        agg = aggregate_folds([r])
        assert agg.std == {"bacc": 0.0, "sen": 0.0, "spe": 0.0, "auc": 0.0}
        assert agg.bacc == r.bacc

    def test_identical_folds(self):
        r = report(3 / 5, 4 / 5, 0.8)
        agg = aggregate_folds([r, r, r])
        assert agg.auc == 0.8
        assert agg.std["auc"] == 0.0

    def test_hand_computed_mean_and_population_std(self):
        a = report(7 / 10, 7 / 10, 0.7)
        b = report(8 / 10, 8 / 10, 0.8)
        agg = aggregate_folds([a, b])
        assert agg.bacc == pytest.approx(0.75, abs=1e-12)
        assert agg.std["bacc"] == pytest.approx(0.05, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            aggregate_folds([])


def test_format_metric_row_shape():
    r = report(3 / 5, 4 / 5, 0.875)
    agg = aggregate_folds([r, r])
    row = format_metric_row("phgnn", agg)
    import re

    assert re.fullmatch(
        r"phgnn  \d+\.\d±\d+\.\d  \d+\.\d±\d+\.\d  \d+\.\d±\d+\.\d  \d+\.\d±\d+\.\d",
        row,
    )

"""Binary classification metrics: confusion counts, BACC/SEN/SPE, rank AUC.

Class 1 is the positive class throughout. AUC is the Mann-Whitney statistic
(ties count one half), which equals the trapezoidal ROC area and is exactly
reproducible by pair counting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ValidationError

__all__ = [
    "ConfusionCounts",
    "MetricsReport",
    "predict_labels",
    "positive_probabilities",
    "confusion",
    "metrics_from_confusion",
    "auc",
    "evaluate_logits",
    "aggregate_folds",
    "format_metric_row",
]


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def sensitivity(self) -> float:
        pos = self.tp + self.fn
        return self.tp / pos if pos else 0.0

    @property
    def specificity(self) -> float:
        neg = self.tn + self.fp
        return self.tn / neg if neg else 0.0


@dataclass(frozen=True)
class MetricsReport:
    """Point metrics, optionally with per-fold values and their spread."""

    bacc: float
    sen: float
    spe: float
    auc: float
    folds: tuple = None
    std: dict = None

    def as_dict(self) -> dict:
        out = {"bacc": self.bacc, "sen": self.sen, "spe": self.spe, "auc": self.auc}
        if self.std is not None:
            out["std"] = dict(self.std)
        if self.folds is not None:
            out["folds"] = [f.as_dict() for f in self.folds]
        return out


def predict_labels(logits) -> np.ndarray:
    """Argmax over classes; ties resolve to the lower class index."""
    return np.argmax(np.asarray(logits, dtype=np.float64), axis=1)


def positive_probabilities(logits) -> np.ndarray:
    """Softmax probability of class 1, numerically stabilized."""
    z = np.asarray(logits, dtype=np.float64)
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e[:, 1] / e.sum(axis=1)


def confusion(predicted, labels, mask) -> ConfusionCounts:
    pred = np.asarray(predicted, dtype=np.int64).reshape(-1)
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    m = np.asarray(mask, dtype=bool).reshape(-1)
    if not m.any():
        raise ValidationError("confusion: empty mask")
    p, t = pred[m], y[m]
    return ConfusionCounts(
        tp=int(((p == 1) & (t == 1)).sum()),
        fp=int(((p == 1) & (t == 0)).sum()),
        tn=int(((p == 0) & (t == 0)).sum()),
        fn=int(((p == 0) & (t == 1)).sum()),
    )


def metrics_from_confusion(counts: ConfusionCounts, auc_value: float) -> MetricsReport:
    sen = counts.sensitivity
    spe = counts.specificity
    return MetricsReport(bacc=(sen + spe) / 2.0, sen=sen, spe=spe, auc=auc_value)


def auc(scores, labels, mask) -> float:
    """Rank-based AUC over the masked nodes.

    Fraction of (positive, negative) pairs where the positive outscores the
    negative, ties counted one half. Computed from tied ranks, which keeps
    every intermediate an exact multiple of 0.5.
    """
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    m = np.asarray(mask, dtype=bool).reshape(-1)
    s, y = s[m], y[m]
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValidationError("AUC undefined: mask holds a single class")
    ordered = np.sort(s)
    left, right = np.searchsorted(ordered, s, "left"), np.searchsorted(ordered, s, "right")
    # the tie group at sorted positions left .. right - 1 shares its midrank
    ranks = (left + right + 1) / 2.0
    rank_sum = ranks[y == 1].sum()
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def evaluate_logits(logits, labels, mask) -> MetricsReport:
    """Full metric set from raw logits on the masked nodes."""
    counts = confusion(predict_labels(logits), labels, mask)
    a = auc(positive_probabilities(logits), labels, mask)
    return metrics_from_confusion(counts, a)


def aggregate_folds(reports) -> MetricsReport:
    """Arithmetic mean and population standard deviation per metric."""
    reports = list(reports)
    if not reports:
        raise ValidationError("aggregate_folds: empty report list")
    values = {
        name: np.array([getattr(r, name) for r in reports])
        for name in ("bacc", "sen", "spe", "auc")
    }
    # identical folds aggregate exactly, without summation rounding
    mean = {
        name: float(v[0]) if (v == v[0]).all() else float(v.mean())
        for name, v in values.items()
    }
    std = {
        name: 0.0 if (v == v[0]).all() else float(v.std())
        for name, v in values.items()
    }
    return MetricsReport(
        bacc=mean["bacc"],
        sen=mean["sen"],
        spe=mean["spe"],
        auc=mean["auc"],
        folds=tuple(reports),
        std=std,
    )


def format_metric_row(name: str, report: MetricsReport) -> str:
    """`NAME  BACC±σ  SEN±σ  SPE±σ  AUC±σ` with metrics as percentages, 1 decimal."""
    std = report.std or {"bacc": 0.0, "sen": 0.0, "spe": 0.0, "auc": 0.0}
    cells = [
        f"{getattr(report, metric) * 100:.1f}±{std[metric] * 100:.1f}"
        for metric in ("bacc", "sen", "spe", "auc")
    ]
    return "  ".join([name, *cells])

"""Binary classification metrics: BACC/SEN/SPE, rank AUC, fold aggregation.

Class 1 is the positive class throughout. AUC is the Mann-Whitney statistic
(ties count one half), which equals the trapezoidal ROC area and is exactly
reproducible by pair counting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ValidationError

__all__ = [
    "MetricsReport",
    "auc",
    "evaluate_logits",
    "aggregate_folds",
    "format_metric_row",
]


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
    """BACC, SEN, SPE and AUC from raw logits on the masked nodes.

    AUC ranks the softmax probability of class 1. Each node is predicted as
    its argmax class, ties going to the lower index, so a prediction of
    class 2 or above is a miss for either class.
    """
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    m = np.asarray(mask, dtype=bool).reshape(-1)
    if not m.any():
        raise ValidationError("evaluate_logits: empty mask")
    e = np.exp(z - z.max(axis=1, keepdims=True))
    # auc rejects a mask without both classes, so neither rate divides by zero
    a = auc(e[:, 1] / e.sum(axis=1), y, m)
    hit, t = (np.argmax(z, axis=1) == y)[m], y[m]
    sen = int((hit & (t == 1)).sum()) / int((t == 1).sum())
    spe = int((hit & (t == 0)).sum()) / int((t == 0).sum())
    return MetricsReport(bacc=(sen + spe) / 2.0, sen=sen, spe=spe, auc=a)


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

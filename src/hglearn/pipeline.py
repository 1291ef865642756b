"""End-to-end orchestration: dataset -> fused hypergraph -> pretrain -> tune.

These functions are the library behind the command line: they return plain
records (dicts and dataclasses) that the CLI serializes, so experiments are
equally scriptable from Python. The sweeps take (G, X), fused once by the caller.
"""

from __future__ import annotations

from .autodiff import ValidationError
from .config import RunConfig
from .data import _present_subjects, build_fused_hypergraph, split_folds
from .metrics import aggregate_folds
from .model import HGNNStack
from .pretrain import pretrain
from .prompt import STRATEGIES, _tune_fold, _TuningRun, count_tunable_params

__all__ = [
    "run_tune",
    "run_ablate_prompts",
    "run_ablate_modalities",
    "run_compare_strategies",
    "MODALITY_SUBSETS",
]

# all non-empty subsets of a 3-modality dataset, singletons first
MODALITY_SUBSETS = ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2))


def run_tune(G, X, labels, encoder: HGNNStack, cfg: RunConfig) -> dict:
    """Tune `cfg.strategy` over every fold of (G, X); aggregate validation metrics.

    Each fold is `prompt.tune_with_strategy` on that fold's masks, with the
    fold-independent part of the run built once for all of them.
    """
    folds = split_folds(labels, cfg.k_folds, cfg.seed)
    run = _TuningRun(cfg.strategy, G, X, encoder, cfg)
    fold_results = [_tune_fold(run, labels, folds.train_mask(f), folds.val_mask(f))
                    for f in range(cfg.k_folds)]
    counts, total = count_tunable_params(cfg.strategy, encoder, cfg)
    return {
        "strategy": cfg.strategy,
        "fold_results": fold_results,
        "aggregate": aggregate_folds([r.best_metrics for r in fold_results]),
        "param_counts": counts,
        "tunable_total": total,
    }


def run_ablate_prompts(G, X, labels, encoder, cfg: RunConfig, sizes) -> list:
    """One phgnn tuning sweep per prompt-set size; AUC is the headline column."""
    rows = []
    for p in sizes:
        res = run_tune(G, X, labels, encoder, cfg.replace(strategy="phgnn", num_prompts=p))
        rows.append(
            {
                "num_prompts": int(p),
                "aggregate": res["aggregate"],
                "tunable_total": res["tunable_total"],
            }
        )
    return rows


def run_ablate_modalities(dataset, cfg: RunConfig) -> list:
    """The full pipeline per non-empty modality subset (3-modality datasets)."""
    if dataset.num_modalities != 3:
        raise ValidationError(
            f"modality ablation needs a 3-modality dataset, got {dataset.num_modalities}"
        )
    # every subset shares the labels and the modalities, so a k_folds or a k
    # they cannot fill fails here, before the first pretraining
    split_folds(dataset.labels, cfg.k_folds, cfg.seed)
    for i in range(dataset.num_modalities):
        _present_subjects(dataset, i, cfg.k)
    rows = []
    for subset in MODALITY_SUBSETS:
        G, X = build_fused_hypergraph(dataset, cfg.k, pairwise=cfg.pairwise,
                                      modalities=subset)
        result = pretrain(G, X, cfg)
        res = run_tune(G, X, dataset.labels, result.encoder, cfg)
        rows.append(
            {
                "modalities": list(subset),
                "aggregate": res["aggregate"],
                "num_hyperedges": G.num_edges,
                "fused_dim": X.shape[1],
            }
        )
    return rows


def run_compare_strategies(G, X, labels, encoder, cfg: RunConfig) -> list:
    """All tuning strategies on identical folds and seeds, with param counts."""
    rows = []
    for strategy in STRATEGIES:
        res = run_tune(G, X, labels, encoder, cfg.replace(strategy=strategy))
        rows.append(
            {
                "strategy": strategy,
                "aggregate": res["aggregate"],
                "param_counts": res["param_counts"],
                "tunable_total": res["tunable_total"],
            }
        )
    return rows

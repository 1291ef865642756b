"""End-to-end orchestration: dataset -> fused hypergraph -> pretrain -> tune.

These functions are the library behind the command line: they return plain
records (dicts and dataclasses) that the CLI serializes, so experiments are
equally scriptable from Python.
"""

from __future__ import annotations

from .autodiff import ValidationError
from .config import RunConfig
from .data import MultimodalDataset, build_fused_hypergraph, split_folds, subset_modalities
from .metrics import aggregate_folds
from .model import HGNNStack
from .pretrain import PretrainConfig, pretrain
from .prompt import STRATEGIES, TuneConfig, tune_with_strategy

__all__ = [
    "pretrain_config",
    "tune_config",
    "run_pretrain",
    "run_tune",
    "run_ablate_prompts",
    "run_ablate_modalities",
    "run_compare_strategies",
    "MODALITY_SUBSETS",
]

# all non-empty subsets of a 3-modality dataset, singletons first
MODALITY_SUBSETS = ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2))


def pretrain_config(cfg: RunConfig, seed=None) -> PretrainConfig:
    return PretrainConfig(
        mask_ratio=cfg.mask_ratio,
        gamma=cfg.sce_gamma,
        epochs=cfg.pretrain_epochs,
        lr=cfg.pretrain_lr,
        weight_decay=cfg.pretrain_weight_decay,
        seed=cfg.seed if seed is None else seed,
        hidden_dims=cfg.hidden_dims,
        latent_dim=cfg.latent_dim,
    )


def tune_config(cfg: RunConfig, strategy=None, num_prompts=None, seed=None) -> TuneConfig:
    p = cfg.num_prompts if num_prompts is None else num_prompts
    return TuneConfig(
        strategy=cfg.strategy if strategy is None else strategy,
        epochs=cfg.tune_epochs,
        lr=cfg.tune_lr,
        weight_decay=cfg.tune_weight_decay,
        seed=cfg.seed if seed is None else seed,
        num_prompts=p,
        prompt_k=min(cfg.prompt_k, p - 1) if p > 1 else 0,
        gpf_basis=cfg.gpf_basis,
        num_classes=cfg.num_classes,
    )


def run_pretrain(dataset: MultimodalDataset, cfg: RunConfig, seed=None):
    """Fused hypergraph plus a full pretraining run. Returns (result, G, X)."""
    G, X = build_fused_hypergraph(dataset, cfg.k, pairwise=cfg.pairwise)
    result = pretrain(G, X, pretrain_config(cfg, seed))
    return result, G, X


def run_tune(dataset: MultimodalDataset, encoder: HGNNStack, cfg: RunConfig,
             strategy=None, num_prompts=None, seed=None) -> dict:
    """Tune one strategy over every fold; aggregate validation metrics."""
    G, X = build_fused_hypergraph(dataset, cfg.k, pairwise=cfg.pairwise)
    if X.shape[1] != encoder.input_dim:
        raise ValidationError(
            f"checkpoint expects {encoder.input_dim} fused features, dataset has {X.shape[1]}"
        )
    tc = tune_config(cfg, strategy=strategy, num_prompts=num_prompts, seed=seed)
    folds = split_folds(dataset.labels, cfg.k_folds, tc.seed)
    fold_results = []
    for f in range(cfg.k_folds):
        fold_results.append(
            tune_with_strategy(
                tc.strategy, G, X, dataset.labels,
                folds.train_mask(f), folds.val_mask(f),
                encoder, tc,
            )
        )
    aggregate = aggregate_folds([r.best_metrics for r in fold_results])
    return {
        "strategy": tc.strategy,
        "num_prompts": tc.num_prompts,
        "fold_results": fold_results,
        "aggregate": aggregate,
        "param_counts": fold_results[0].param_counts,
        "tunable_total": fold_results[0].tunable_total,
    }


def run_ablate_prompts(dataset, encoder, cfg: RunConfig, sizes=(8, 16, 32, 64)) -> list:
    """One phgnn tuning sweep per prompt-set size; AUC is the headline column."""
    rows = []
    for p in sizes:
        res = run_tune(dataset, encoder, cfg, strategy="phgnn", num_prompts=p)
        rows.append(
            {
                "num_prompts": int(p),
                "aggregate": res["aggregate"],
                "tunable_total": res["tunable_total"],
            }
        )
    return rows


def run_ablate_modalities(dataset, cfg: RunConfig, seed=None) -> list:
    """The full pipeline per non-empty modality subset (3-modality datasets)."""
    if dataset.num_modalities != 3:
        raise ValidationError(
            f"modality ablation needs a 3-modality dataset, got {dataset.num_modalities}"
        )
    rows = []
    for subset in MODALITY_SUBSETS:
        sub = subset_modalities(dataset, subset)
        result, G, X = run_pretrain(sub, cfg, seed=seed)
        result.encoder.freeze()
        res = run_tune(sub, result.encoder, cfg, seed=seed)
        rows.append(
            {
                "modalities": list(subset),
                "aggregate": res["aggregate"],
                "num_hyperedges": G.num_edges,
                "fused_dim": X.shape[1],
            }
        )
    return rows


def run_compare_strategies(dataset, encoder, cfg: RunConfig) -> list:
    """All tuning strategies on identical folds and seeds, with param counts."""
    rows = []
    for strategy in STRATEGIES:
        res = run_tune(dataset, encoder, cfg, strategy=strategy)
        rows.append(
            {
                "strategy": strategy,
                "aggregate": res["aggregate"],
                "param_counts": res["param_counts"],
                "tunable_total": res["tunable_total"],
            }
        )
    return rows

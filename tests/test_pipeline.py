"""Pipeline orchestration: fold sweeps, checkpoint-dimension guards, subsets."""

import numpy as np
import pytest

import hglearn.pipeline
import hglearn.prompt
from hglearn.autodiff import ValidationError
from hglearn.config import RunConfig
from hglearn.data import build_fused_hypergraph, generate_synthetic, split_folds
from hglearn.pipeline import (
    MODALITY_SUBSETS,
    run_ablate_prompts,
    run_tune,
)
from hglearn.pretrain import pretrain
from hglearn.prompt import STRATEGIES, tune_with_strategy


@pytest.fixture(scope="module")
def setup():
    cfg = RunConfig(
        n=40, m=2, dims=(4, 4), k=3, hidden_dims=(8,), latent_dim=8,
        pretrain_epochs=5, tune_epochs=5, num_prompts=3, prompt_k=2, gpf_basis=4,
    )
    ds = generate_synthetic(cfg.n, cfg.m, cfg.dims, cfg.class_sep, 0.0, seed=0)
    G, X = build_fused_hypergraph(ds, cfg.k)
    result = pretrain(G, X, cfg)
    return cfg, (G, X, ds.labels), result.encoder


def test_run_tune_covers_every_fold(setup):
    cfg, fused, encoder = setup
    res = run_tune(*fused, encoder, cfg)
    assert len(res["fold_results"]) == cfg.k_folds
    assert res["aggregate"].folds is not None
    assert res["strategy"] == "phgnn"


def test_run_tune_rejects_dimension_mismatch(setup):
    cfg, _, encoder = setup
    other = generate_synthetic(40, 1, (9,), 1.0, 0.0, seed=1)
    G, X = build_fused_hypergraph(other, cfg.k)
    with pytest.raises(ValidationError, match="fused features"):
        run_tune(G, X, other.labels, encoder, cfg)


def test_tune_config_clamps_prompt_k(setup):
    cfg, fused, encoder = setup
    for num_prompts in (2, 1):
        res = run_tune(*fused, encoder, cfg.replace(num_prompts=num_prompts, prompt_k=3,
                                                tune_epochs=1))
        for fold in res["fold_results"]:
            assert np.array_equal(fold.prompt_structure.incidence,
                                  np.ones((num_prompts, num_prompts)))


@pytest.mark.parametrize("k_folds", [2, 5])
def test_run_tune_counts_parameters_once(setup, monkeypatch, k_folds):
    cfg, fused, encoder = setup
    calls = []
    count = hglearn.prompt.count_tunable_params

    def counted(*args):
        calls.append(args)
        return count(*args)
    # both the name tuning would call and the one run_tune calls
    monkeypatch.setattr(hglearn.prompt, "count_tunable_params", counted)
    monkeypatch.setattr(hglearn.pipeline, "count_tunable_params", counted)
    run_cfg = cfg.replace(k_folds=k_folds, tune_epochs=1)
    res = run_tune(*fused, encoder, run_cfg)
    assert len(res["fold_results"]) == k_folds
    assert calls == [("phgnn", encoder, run_cfg)]
    assert (res["param_counts"], res["tunable_total"]) == count("phgnn", encoder, run_cfg)


class TestRunPart:
    """run_tune builds the fold-independent part once and tunes each fold as one call would."""

    def test_data_block_and_frozen_encoder_output_built_once_per_run(self, setup,
                                                                      monkeypatch):
        cfg, (G, X, labels), encoder = setup
        grams, forwards = [], []
        normalized = hglearn.prompt._normalized_gram
        forward = hglearn.prompt.hgnn_forward_operator

        def counted_gram(graph, *args):
            grams.append(graph)
            return normalized(graph, *args)

        def counted_forward(*args, **kwargs):
            forwards.append(args)
            return forward(*args, **kwargs)
        monkeypatch.setattr(hglearn.prompt, "_normalized_gram", counted_gram)
        monkeypatch.setattr(hglearn.prompt, "hgnn_forward_operator", counted_forward)
        for strategy in STRATEGIES:
            grams.clear()
            forwards.clear()
            res = run_tune(G, X, labels, encoder,
                           cfg.replace(strategy=strategy, k_folds=5, tune_epochs=3))
            assert len(res["fold_results"]) == 5
            # token blocks are normalized per token structure, on graphs of their own
            assert sum(graph is G for graph in grams) == 1, strategy
            if strategy == "linear_probe":
                assert len(forwards) == 1

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_folds_equal_separate_tune_with_strategy_calls(self, setup, strategy):
        cfg, (G, X, labels), encoder = setup
        # at this rate phgnn's token structure changes within a fold
        run_cfg = cfg.replace(strategy=strategy, k_folds=5, tune_epochs=8, tune_lr=0.05)
        folds = split_folds(labels, run_cfg.k_folds, run_cfg.seed)
        results = run_tune(G, X, labels, encoder, run_cfg)["fold_results"]
        for f, got in enumerate(results):
            expected = tune_with_strategy(strategy, G, X, labels, folds.train_mask(f),
                                          folds.val_mask(f), encoder, run_cfg)
            assert got.snapshot.keys() == expected.snapshot.keys()
            for name, value in expected.snapshot.items():
                assert got.snapshot[name].tobytes() == value.tobytes(), (f, name)
            assert got.train_losses == expected.train_losses
            assert got.val_bacc == expected.val_bacc
            assert got.best_epoch == expected.best_epoch
            assert got.best_metrics == expected.best_metrics
            if expected.prompt_structure is None:
                assert got.prompt_structure is None
            else:
                for name in ("nodes", "edges", "edge_weights"):
                    assert np.array_equal(getattr(got.prompt_structure, name),
                                          getattr(expected.prompt_structure, name))


def test_ablate_prompts_counts_increase(setup):
    cfg, fused, encoder = setup
    rows = run_ablate_prompts(*fused, encoder, cfg, sizes=(2, 3, 5))
    counts = [r["tunable_total"] for r in rows]
    assert counts == sorted(counts)
    assert len(set(counts)) == 3


def test_modality_subset_order_matches_report_layout():
    assert MODALITY_SUBSETS == ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2))


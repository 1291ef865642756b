"""Prompt structure, pattern insertion, and the tuning strategies."""

import numpy as np
import pytest

from hglearn.autodiff import ValidationError
from hglearn.config import RunConfig
from hglearn.data import build_fused_hypergraph, generate_synthetic, split_folds
from hglearn.hypergraph import Hypergraph
from hglearn.model import build_head
from hglearn.pretrain import pretrain
from hglearn.prompt import (
    STRATEGIES,
    build_prompt_structure,
    count_tunable_params,
    evaluate_snapshot,
    insert_prompt,
    tune_with_strategy,
)


@pytest.fixture(scope="module")
def tuning_setup():
    """Small separable dataset with a pretrained frozen encoder."""
    ds = generate_synthetic(60, 2, (6, 6), 3.0, 0.0, seed=4)
    G, X = build_fused_hypergraph(ds, 5)
    result = pretrain(
        G, X, RunConfig(pretrain_epochs=40, hidden_dims=(16,), latent_dim=8, seed=0)
    )
    result.encoder.freeze()
    folds = split_folds(ds.labels, 5, seed=0)
    return ds, G, X, result.encoder, folds


def small_config(**kwargs):
    defaults = dict(tune_epochs=30, num_prompts=4, prompt_k=2, gpf_basis=6, seed=0)
    defaults.update(kwargs)
    return RunConfig(**defaults)


class TestBuildPromptStructure:
    def test_unstructured_has_zero_hyperedges(self):
        G_p = build_prompt_structure(np.random.default_rng(0).standard_normal((4, 3)), 2,
                                     structured=False)
        assert G_p.num_edges == 0
        assert G_p.num_nodes == 4

    def test_two_tokens_single_possible_neighbor(self):
        G_p = build_prompt_structure(np.array([[0.0, 0.0], [5.0, 5.0]]), 1)
        assert G_p.incidence.shape == (2, 2)
        assert np.array_equal(G_p.incidence, np.ones((2, 2)))

    def test_matches_brute_force_ranking(self):
        rng = np.random.default_rng(6)
        tokens = rng.standard_normal((4, 5))
        G_p = build_prompt_structure(tokens, 2)
        for i in range(4):
            dists = [
                (np.linalg.norm(tokens[i] - tokens[j]), j) for j in range(4) if j != i
            ]
            dists.sort()
            expected = {i, dists[0][1], dists[1][1]}
            assert set(np.flatnonzero(G_p.incidence[:, i])) == expected

    def test_k_p_must_be_below_token_count(self):
        with pytest.raises(ValidationError):
            build_prompt_structure(np.ones((3, 2)), 3)

    def test_rebuild_with_unchanged_tokens_is_identical(self):
        tokens = np.random.default_rng(1).standard_normal((6, 4))
        a = build_prompt_structure(tokens, 3)
        b = build_prompt_structure(tokens.copy(), 3)
        assert np.array_equal(a.incidence, b.incidence)

    @pytest.mark.filterwarnings("ignore:16 prompt tokens")
    def test_default_prompt_k(self, tuning_setup):
        # tuning uses k_p = min(prompt_k, P - 1): every column sums to k_p + 1
        ds, G, X, encoder, folds = tuning_setup
        for num_prompts, k_p in ((16, 3), (2, 1), (1, 0)):
            result = tune_with_strategy(
                "phgnn", G, X, ds.labels, folds.train_mask(0), folds.val_mask(0), encoder,
                small_config(tune_epochs=1, num_prompts=num_prompts, prompt_k=3),
            )
            assert result.prompt_incidence.shape == (num_prompts, num_prompts)
            assert np.all(result.prompt_incidence.sum(axis=0) == k_p + 1)


class TestInsertPrompt:
    def setup_method(self):
        rng = np.random.default_rng(2)
        self.X = rng.standard_normal((3, 4))
        self.G = Hypergraph(3, np.array([[1, 0, 1], [1, 1, 0], [0, 1, 1]], float))
        self.tokens = rng.standard_normal((2, 4))
        self.G_p = build_prompt_structure(self.tokens, 1)

    def test_zero_tokens_is_identity(self):
        G_m, X_m = insert_prompt(self.G, self.X, Hypergraph(0, np.zeros((0, 0))),
                                 np.zeros((0, 4)))
        assert G_m is self.G
        assert np.array_equal(X_m, self.X)

    def test_counting_example(self):
        G_m, X_m = insert_prompt(self.G, self.X, self.G_p, self.tokens)
        assert G_m.num_nodes == 5
        assert G_m.num_edges == 3 + 2 + 2
        insertions = G_m.incidence[:, -2:]
        assert np.array_equal(insertions.sum(axis=0), np.full(2, 4.0))
        assert X_m.shape == (5, 4)

    def test_original_incidence_block_preserved_verbatim(self):
        G_m, _ = insert_prompt(self.G, self.X, self.G_p, self.tokens)
        assert np.array_equal(G_m.incidence[:3, :3], self.G.incidence)
        # prompt rows never touch original hyperedges
        assert not G_m.incidence[3:, :3].any()

    def test_insertion_columns_cover_all_data_nodes(self):
        G_m, _ = insert_prompt(self.G, self.X, self.G_p, self.tokens)
        for j in range(2):
            col = G_m.incidence[:, 3 + 2 + j]
            assert col[:3].all()
            assert col[3 + j] == 1.0
            assert col[3 + (1 - j)] == 0.0

    def test_inputs_never_modified(self):
        inc_before = self.G.incidence.copy()
        x_before = self.X.copy()
        insert_prompt(self.G, self.X, self.G_p, self.tokens)
        assert np.array_equal(self.G.incidence, inc_before)
        assert np.array_equal(self.X, x_before)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="dim"):
            insert_prompt(self.G, self.X, self.G_p, np.ones((2, 5)))

    def test_prompt_block_holds_structure(self):
        G_m, _ = insert_prompt(self.G, self.X, self.G_p, self.tokens)
        assert np.array_equal(G_m.incidence[3:, 3:5], self.G_p.incidence)
        assert not G_m.incidence[:3, 3:5].any()


class TestPromptTune:
    def test_encoder_bit_identical_after_run(self, tuning_setup):
        ds, G, X, encoder, folds = tuning_setup
        before = [p.value.copy() for p in encoder.parameters()]
        tune_with_strategy("phgnn", G, X, ds.labels, folds.train_mask(0), folds.val_mask(0),
                           encoder, small_config(tune_epochs=50))
        for p, b in zip(encoder.parameters(), before):
            assert np.array_equal(p.value, b)

    def test_unfrozen_encoder_rejected(self, tuning_setup):
        ds, G, X, encoder, folds = tuning_setup
        thawed = encoder.copy(trainable=True)
        with pytest.raises(ValidationError, match="frozen"):
            tune_with_strategy("phgnn", G, X, ds.labels, folds.train_mask(0),
                               folds.val_mask(0), thawed, small_config())

    def test_empty_or_overlapping_masks_rejected(self, tuning_setup):
        ds, G, X, encoder, folds = tuning_setup
        n = ds.num_subjects
        with pytest.raises(ValidationError, match="training mask"):
            tune_with_strategy("phgnn", G, X, ds.labels, np.zeros(n, bool),
                               folds.val_mask(0), encoder, small_config())
        with pytest.raises(ValidationError, match="validation mask"):
            tune_with_strategy("phgnn", G, X, ds.labels, folds.train_mask(0),
                               np.zeros(n, bool), encoder, small_config())
        with pytest.raises(ValidationError, match="overlap"):
            tune_with_strategy("phgnn", G, X, ds.labels, folds.train_mask(0),
                               folds.train_mask(0), encoder, small_config())

    def test_learns_separable_data(self, tuning_setup):
        ds, G, X, encoder, folds = tuning_setup
        result = tune_with_strategy("phgnn", G, X, ds.labels, folds.train_mask(0),
                                    folds.val_mask(0), encoder,
                                    small_config(tune_epochs=120, num_prompts=8, prompt_k=3))
        assert result.best_metrics.bacc >= 0.8

    def test_structure_recorded_with_snapshot(self, tuning_setup):
        ds, G, X, encoder, folds = tuning_setup
        result = tune_with_strategy("phgnn", G, X, ds.labels, folds.train_mask(0),
                                    folds.val_mask(0), encoder, small_config(tune_epochs=10))
        assert result.prompt_incidence.shape == (4, 4)
        unstructured = tune_with_strategy("phgnn_no_structure", G, X, ds.labels,
                                          folds.train_mask(0), folds.val_mask(0), encoder,
                                          small_config(tune_epochs=10))
        assert unstructured.prompt_incidence.shape == (4, 0)
        assert unstructured.strategy == "phgnn_no_structure"

    def test_large_prompt_sets_warn(self, tuning_setup):
        ds, G, X, encoder, folds = tuning_setup
        with pytest.warns(UserWarning):
            tune_with_strategy("phgnn", G, X, ds.labels, folds.train_mask(0),
                               folds.val_mask(0), encoder,
                               small_config(tune_epochs=1, num_prompts=48, prompt_k=3))


class TestTuneWithStrategy:
    def test_unknown_strategy_rejected(self, tuning_setup):
        ds, G, X, encoder, folds = tuning_setup
        with pytest.raises(ValidationError, match="strategy"):
            tune_with_strategy("lora", G, X, ds.labels, folds.train_mask(0),
                               folds.val_mask(0), encoder, small_config())

    def test_trainable_counts_per_strategy(self, tuning_setup):
        ds, G, X, encoder, folds = tuning_setup
        d = X.shape[1]
        head = encoder.output_dim * 2 + 2
        expected = {
            "linear_probe": head,
            "gpf": d + head,
            "gpf_plus": 6 * d + head,
            "phgnn": 4 * d + head,
            "phgnn_no_structure": 4 * d + head,
            "finetune": sum(p.size for p in encoder.parameters()) + head,
        }
        for strategy, count in expected.items():
            result = tune_with_strategy(strategy, G, X, ds.labels, folds.train_mask(0),
                                        folds.val_mask(0), encoder,
                                        small_config(tune_epochs=1, strategy=strategy))
            assert result.tunable_total == count, strategy

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_counts_come_from_the_trainable_set(self, tuning_setup, strategy):
        ds, G, X, encoder, folds = tuning_setup
        cfg = small_config(tune_epochs=1, strategy=strategy)
        result = tune_with_strategy(strategy, G, X, ds.labels, folds.train_mask(0),
                                    folds.val_mask(0), encoder, cfg)
        snapshot_total = sum(v.size for v in result.snapshot.values())
        assert snapshot_total == result.tunable_total == sum(result.param_counts.values())
        head = build_head(encoder.output_dim, cfg.num_classes)
        counts, total = count_tunable_params(
            strategy, encoder, head, feature_dim=X.shape[1],
            num_prompts=cfg.num_prompts, gpf_basis=cfg.gpf_basis,
        )
        assert counts == result.param_counts
        assert total == result.tunable_total

    @pytest.mark.parametrize("strategy",
                             ["linear_probe", "gpf", "gpf_plus", "phgnn", "phgnn_no_structure"])
    def test_frozen_strategies_leave_encoder_untouched(self, tuning_setup, strategy):
        ds, G, X, encoder, folds = tuning_setup
        before = [p.value.copy() for p in encoder.parameters()]
        tune_with_strategy(strategy, G, X, ds.labels, folds.train_mask(0),
                           folds.val_mask(0), encoder,
                           small_config(tune_epochs=8, strategy=strategy))
        for p, b in zip(encoder.parameters(), before):
            assert np.array_equal(p.value, b)
        assert all(not p.trainable for p in encoder.parameters())

    def test_finetune_requires_no_frozen_copy_and_moves_its_own(self, tuning_setup):
        ds, G, X, encoder, folds = tuning_setup
        before = [p.value.copy() for p in encoder.parameters()]
        result = tune_with_strategy("finetune", G, X, ds.labels, folds.train_mask(0),
                                    folds.val_mask(0), encoder,
                                    small_config(tune_epochs=8, strategy="finetune"))
        # the caller's encoder is untouched; the tuned copy lives in the snapshot
        for p, b in zip(encoder.parameters(), before):
            assert np.array_equal(p.value, b)
        moved = any(
            not np.array_equal(result.snapshot[p.name], p.value)
            for p in encoder.parameters()
        )
        assert moved

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_snapshot_restores_best_metrics_exactly(self, tuning_setup, strategy):
        ds, G, X, encoder, folds = tuning_setup
        cfg = small_config(tune_epochs=12, strategy=strategy)
        result = tune_with_strategy(strategy, G, X, ds.labels, folds.train_mask(0),
                                    folds.val_mask(0), encoder, cfg)
        replay = evaluate_snapshot(result, G, X, ds.labels, folds.val_mask(0),
                                   encoder, cfg)
        assert replay.bacc == result.best_metrics.bacc
        assert replay.sen == result.best_metrics.sen
        assert replay.spe == result.best_metrics.spe
        assert replay.auc == result.best_metrics.auc

    def test_snapshot_serialization_round_trip(self, tuning_setup):
        import json

        from hglearn.prompt import snapshot_from_doc, snapshot_to_doc

        ds, G, X, encoder, folds = tuning_setup
        cfg = small_config(tune_epochs=10)
        result = tune_with_strategy("phgnn", G, X, ds.labels, folds.train_mask(0),
                                    folds.val_mask(0), encoder, cfg)
        wire = json.loads(json.dumps(snapshot_to_doc(result)))
        restored = snapshot_from_doc(wire)
        assert np.array_equal(restored.snapshot["prompt.tokens"],
                              result.snapshot["prompt.tokens"])
        replay = evaluate_snapshot(restored, G, X, ds.labels, folds.val_mask(0),
                                   encoder, cfg)
        assert replay.bacc == result.best_metrics.bacc
        assert replay.auc == result.best_metrics.auc

    def test_ties_keep_the_earlier_epoch(self, tuning_setup):
        ds, G, X, encoder, folds = tuning_setup
        result = tune_with_strategy("linear_probe", G, X, ds.labels,
                                    folds.train_mask(0), folds.val_mask(0), encoder,
                                    small_config(tune_epochs=40, strategy="linear_probe"))
        best = result.best_metrics.bacc
        first_hit = result.val_bacc.index(best)
        assert result.best_epoch == first_hit

    def test_val_metrics_use_post_update_parameters(self, tuning_setup):
        # one epoch: the recorded metrics must differ from the zero-head state,
        # which would score bacc exactly 0.5
        ds, G, X, encoder, folds = tuning_setup
        result = tune_with_strategy("linear_probe", G, X, ds.labels,
                                    folds.train_mask(0), folds.val_mask(0), encoder,
                                    small_config(tune_epochs=1, strategy="linear_probe"))
        assert result.val_bacc[0] != 0.5 or result.best_metrics.auc != 0.5

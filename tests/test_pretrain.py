"""Masking, scaled cosine error, and the pretraining loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hglearn.autodiff import Parameter, ValidationError, forward_backward, mask_rows, sce_loss
from hglearn.config import RunConfig
from hglearn.hypergraph import knn_hyperedges
from hglearn.pretrain import pretrain, sample_mask


class TestSampleMask:
    def test_masks_exactly_75_of_100(self):
        picked = sample_mask(100, 0.75, np.random.default_rng(0))
        assert len(picked) == 75
        assert len(set(picked.tolist())) == 75

    def test_zero_ratio_gives_empty_set(self):
        assert sample_mask(50, 0.0, np.random.default_rng(0)).size == 0

    def test_golden_fixed_seed(self):
        # frozen from the first run of this implementation
        picked = sample_mask(4, 0.5, np.random.default_rng(42))
        assert picked.tolist() == [0, 3]

    def test_reproducible_per_seed(self):
        a = sample_mask(40, 0.6, np.random.default_rng(7))
        b = sample_mask(40, 0.6, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_uniform_coverage(self):
        rng = np.random.default_rng(1)
        hits = np.zeros(10)
        for _ in range(500):
            hits[sample_mask(10, 0.5, rng)] += 1
        assert hits.min() > 0.7 * hits.max()

    def test_bad_ratio_rejected(self):
        with pytest.raises(ValidationError):
            sample_mask(10, 1.0, np.random.default_rng(0))


class TestMaskingOps:
    def setup_method(self):
        self.X = np.random.default_rng(0).standard_normal((3, 4))
        self.token = Parameter(np.full((1, 4), 9.0), "tok")

    def test_empty_mask_leaves_input(self):
        out = mask_rows(self.X, np.array([], dtype=int), self.token.leaf())
        assert np.array_equal(out.value, self.X)

    def test_full_mask_replaces_every_row(self):
        out = mask_rows(self.X, [0, 1, 2], self.token.leaf())
        assert np.array_equal(out.value, np.tile(self.token.value, (3, 1)))

    def test_single_row_replaced_others_bit_identical(self):
        out = mask_rows(self.X, [1], self.token.leaf())
        assert np.array_equal(out.value[0], self.X[0])
        assert np.array_equal(out.value[2], self.X[2])
        assert np.array_equal(out.value[1], self.token.value[0])

    def test_remask_latent_rows(self):
        Z = np.random.default_rng(1).standard_normal((4, 4))
        out = mask_rows(Z, [0, 2], self.token.leaf())
        assert np.array_equal(out.value[1], Z[1])
        assert np.array_equal(out.value[3], Z[3])
        assert np.array_equal(out.value[0], self.token.value[0])

    def test_idempotent_for_same_mask_and_token(self):
        once = mask_rows(self.X, [1], self.token.leaf())
        twice = mask_rows(once.value, [1], self.token.leaf())
        assert np.array_equal(once.value, twice.value)

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValidationError, match="range"):
            mask_rows(self.X, [5], self.token.leaf())

    def test_gradient_reaches_token(self):
        out = mask_rows(self.X, [0, 2], self.token.leaf())
        loss = sce_loss(self.X, out, [0, 2], 2.0)
        forward_backward(loss)
        assert self.token.grad is not None
        assert np.abs(self.token.grad).sum() > 0


class TestSceLoss:
    def test_perfect_reconstruction_is_zero(self):
        X = np.random.default_rng(0).standard_normal((4, 3))
        assert float(sce_loss(X, X.copy(), [0, 2], 2.0)) == 0.0

    def test_antipodal_rows_give_four_at_gamma_two(self):
        X = np.random.default_rng(1).standard_normal((3, 5))
        assert float(sce_loss(X, -X, [0, 1, 2], 2.0)) == pytest.approx(4.0, abs=1e-12)

    def test_orthogonal_rows_give_one(self):
        X = np.array([[1.0, 0.0], [0.0, 2.0]])
        R = np.array([[0.0, 3.0], [4.0, 0.0]])
        assert float(sce_loss(X, R, [0, 1], 2.0)) == pytest.approx(1.0, abs=1e-12)

    def test_empty_mask_rejected(self):
        X = np.ones((3, 2))
        with pytest.raises(ValidationError, match="undefined"):
            sce_loss(X, X, [], 2.0)

    def test_unmasked_rows_never_contribute(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((6, 4))
        recon = rng.standard_normal((6, 4))
        base = float(sce_loss(X, recon, [1, 4], 2.0))
        perturbed = recon.copy()
        perturbed[[0, 2, 3, 5]] = rng.standard_normal((4, 4)) * 100
        assert float(sce_loss(X, perturbed, [1, 4], 2.0)) == base

    def test_unmasked_rows_get_exact_zero_gradient(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((5, 3))
        recon = Parameter(rng.standard_normal((5, 3)), "recon")
        # a diverging run's non-finite rows outside the mask pass nothing on
        recon.value[[0, 3]] = [[np.nan, 1.0, np.inf], [-np.inf, np.nan, 0.0]]
        assert np.isfinite(forward_backward(sce_loss(X, recon.leaf(), [1, 2, 4], 2.0)))
        assert np.array_equal(recon.grad[[0, 3]], np.zeros((2, 3)))
        assert np.copysign(1.0, recon.grad[[0, 3]]).min() == 1.0  # +0.0, not -0.0
        assert np.isfinite(recon.grad).all() and recon.grad[[1, 2, 4]].any()

    def test_gamma_below_one_rejected(self):
        X = np.ones((3, 2))
        for gamma in (0.5, 0.0, -1.0):
            with pytest.raises(ValidationError, match="gamma must be >= 1"):
                sce_loss(X, X, [0], gamma)

    def test_duplicate_indices_counted_once(self):
        rng = np.random.default_rng(8)
        X, R = rng.standard_normal((6, 4)), rng.standard_normal((6, 4))
        once = Parameter(R, "once")
        twice = Parameter(R.copy(), "twice")
        assert (forward_backward(sce_loss(X, once.leaf(), [4, 1], 2.0))
                == forward_backward(sce_loss(X, twice.leaf(), [1, 4, 1, 4, 4], 2.0)))
        assert np.array_equal(once.grad, twice.grad)

    def test_out_of_range_index_rejected(self):
        X = np.ones((3, 2))
        for idx in ([3], [-1]):
            with pytest.raises(ValidationError, match="out of range for 3 rows"):
                sce_loss(X, X, idx, 2.0)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        gamma=st.floats(min_value=1.0, max_value=4.0),
    )
    def test_range_bound(self, seed, gamma):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((5, 3))
        R = rng.standard_normal((5, 3))
        val = float(sce_loss(X, R, [0, 1, 2, 3, 4], gamma))
        assert 0.0 <= val <= 2.0**gamma

    def test_monotone_nonincreasing_in_cosine(self):
        # rotate a fixed row from aligned to antipodal; loss must not decrease
        base = np.array([[1.0, 0.0]])
        losses = []
        for angle in np.linspace(0.0, np.pi, 13):
            recon = np.array([[np.cos(angle), np.sin(angle)]])
            losses.append(float(sce_loss(base, recon, [0], 2.0)))
        assert all(a <= b + 1e-12 for a, b in zip(losses, losses[1:]))


class TestPretrain:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.X = rng.standard_normal((20, 6)) + 3.0
        self.G = knn_hyperedges(self.X, 3)

    def test_zero_epochs_returns_initialized_state(self):
        cfg = RunConfig(pretrain_epochs=0, hidden_dims=(8,), latent_dim=4)
        result = pretrain(self.G, self.X, cfg)
        assert result.losses == []
        assert result.encoder.input_dim == 6
        assert result.decoder.output_dim == 6

    def test_loss_curve_length_equals_epochs(self):
        cfg = RunConfig(pretrain_epochs=7, hidden_dims=(8,), latent_dim=4, seed=3)
        result = pretrain(self.G, self.X, cfg)
        assert len(result.losses) == 7

    def test_default_loss_settings_wired(self):
        cfg = RunConfig()
        assert cfg.sce_gamma == 2.0
        assert cfg.mask_ratio == 0.75

    def test_zero_mask_ratio_rejected_when_training(self):
        cfg = RunConfig(mask_ratio=0.0, pretrain_epochs=5, hidden_dims=(8,), latent_dim=4)
        with pytest.raises(ValidationError, match="mask"):
            pretrain(self.G, self.X, cfg)

    def test_deterministic_per_seed(self):
        cfg = RunConfig(pretrain_epochs=5, hidden_dims=(8,), latent_dim=4, seed=11)
        a = pretrain(self.G, self.X, cfg)
        b = pretrain(self.G, self.X, cfg)
        assert a.losses == b.losses
        for pa, pb in zip(a.encoder.parameters(), b.encoder.parameters()):
            assert np.array_equal(pa.value, pb.value)

    def test_loss_decreases_on_trainable_signal(self):
        cfg = RunConfig(pretrain_epochs=60, hidden_dims=(8,), latent_dim=4, seed=2,
                        pretrain_lr=3e-3)
        result = pretrain(self.G, self.X, cfg)
        assert result.losses[-1] < 0.7 * result.losses[0]

    def test_mask_tokens_trainable_during_pretraining(self):
        cfg = RunConfig(pretrain_epochs=3, hidden_dims=(8,), latent_dim=4)
        result = pretrain(self.G, self.X, cfg)
        assert result.mask_tokens.input_token.trainable
        assert np.abs(result.mask_tokens.input_token.value).sum() > 0

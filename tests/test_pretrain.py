"""Masking, scaled cosine error, and the pretraining loop."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hglearn.pretrain
from hglearn.autodiff import (
    Parameter,
    ValidationError,
    finite_difference_check,
    forward_backward,
    mask_rows,
    sce_loss,
)
from hglearn.config import RunConfig
from hglearn.hypergraph import knn_hyperedges, propagation_operator
from hglearn.model import (
    HGNNStack,
    build_decoder,
    build_encoder,
    hgnn_forward_operator,
    init_layer,
)
from hglearn.pretrain import MaskTokens, pretrain, reconstruction_loss, sample_mask
from tape_ops import tape_nodes


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


def masked_form_loss(operator, X, masked, encoder, decoder, tokens, gamma):
    """The loss as the paper states it: every row of every layer, masked by `mask_rows`."""
    x_masked = mask_rows(X, masked, tokens.input_token.leaf())
    z = hgnn_forward_operator(operator, x_masked, encoder)
    z_masked = mask_rows(z, masked, tokens.latent_token.leaf())
    recon = hgnn_forward_operator(operator, z_masked, decoder)
    return sce_loss(X, recon, masked, gamma)


def random_model(n, d, hidden_dims, latent_dim, seed):
    """Features, operator, and encoder, decoder and tokens with nonzero biases and tokens."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d)) + 1.0
    operator = propagation_operator(knn_hyperedges(X, min(2, n - 1)))
    encoder = build_encoder(d, hidden_dims, latent_dim, rng)
    decoder = build_decoder(latent_dim, d, rng)
    tokens = MaskTokens(Parameter(rng.standard_normal((1, d)), "mask.input_token"),
                        Parameter(rng.standard_normal((1, latent_dim)), "mask.latent_token"))
    params = encoder.parameters() + decoder.parameters() + tokens.parameters()
    for p in params:
        p.value[:] = rng.standard_normal(p.value.shape)
    return rng, X, operator, encoder, decoder, tokens, params


def loss_and_grads(loss_fn, params, *args):
    loss = forward_backward(loss_fn(*args))
    grads = [p.grad.copy() for p in params]
    for p in params:
        p.grad = None
    return loss, grads


class TestReconstructionLoss:
    """The row-sliced epoch against the masked form it restricts."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=4, max_value=30),
        # at d = 1 a cosine is +-1: the loss is flat and its gradients are rounding
        d=st.integers(min_value=2, max_value=9),
        hidden_dims=st.sampled_from([(), (5,), (11,), (7, 3)]),
        latent_dim=st.integers(min_value=1, max_value=8),
        mask_ratio=st.floats(min_value=0.05, max_value=0.95),
        gamma=st.sampled_from([1.0, 2.0, 3.0]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    # one kept row: floor(0.75 * 4) = 3 of 4 masked
    @example(n=4, d=3, hidden_dims=(), latent_dim=2, mask_ratio=0.75, gamma=2.0, seed=0)
    @example(n=4, d=3, hidden_dims=(5,), latent_dim=2, mask_ratio=0.75, gamma=2.0, seed=1)
    @example(n=4, d=3, hidden_dims=(7, 3), latent_dim=2, mask_ratio=0.75, gamma=2.0, seed=2)
    # a one-wide latent: the encoder and token gradients cancel to ~1e-6
    @example(n=4, d=2, hidden_dims=(7, 3), latent_dim=1, mask_ratio=0.75, gamma=1.0, seed=46)
    def test_loss_and_gradients_equal_the_masked_form(self, n, d, hidden_dims, latent_dim,
                                                      mask_ratio, gamma, seed):
        rng, X, operator, encoder, decoder, tokens, params = random_model(
            n, d, hidden_dims, latent_dim, seed)
        masked = sample_mask(n, mask_ratio, rng)
        if masked.size == 0:
            masked = np.array([0])
        args = (operator, X, masked, encoder, decoder, tokens, gamma)
        loss, grads = loss_and_grads(reconstruction_loss, params, *args)
        ref_loss, ref_grads = loss_and_grads(masked_form_loss, params, *args)
        assert loss == pytest.approx(ref_loss, rel=1e-12, abs=0.0)
        # a gradient can cancel to far below the terms it sums, so each is
        # compared at the scale of the largest one, not at its own
        scale = max(np.abs(ref).max() for ref in ref_grads)
        for p, g, ref in zip(params, grads, ref_grads):
            assert g.shape == p.value.shape
            assert np.abs(g - ref).max() <= 1e-12 * scale, p.name

    @pytest.mark.parametrize("hidden_dims", [(), (6,), (6, 5)])
    def test_finite_differences(self, hidden_dims):
        rng, X, operator, encoder, decoder, tokens, params = random_model(
            8, 3, hidden_dims, 4, 5)
        masked = sample_mask(8, 0.75, rng)

        def loss_fn(_):
            return reconstruction_loss(operator, X, masked, encoder, decoder, tokens, 2.0)

        ends = encoder.layers[::len(encoder.layers) - 1 or 1]  # the first and last layer
        checked = [p for layer in ends for p in layer.parameters()] + [
            *decoder.parameters(), tokens.input_token, tokens.latent_token]
        assert finite_difference_check(loss_fn, checked, 1e-6) <= 1e-4

    @pytest.mark.parametrize("hidden_dims", [(), (6,), (6, 5)])
    def test_no_full_operator_product_past_the_middle_layers(self, hidden_dims):
        n = 12
        rng, X, operator, encoder, decoder, tokens, params = random_model(
            n, 3, hidden_dims, 4, 6)
        masked = sample_mask(n, 0.75, rng)
        loss = reconstruction_loss(operator, X, masked, encoder, decoder, tokens, 2.0)
        nodes = tape_nodes(loss)
        # the symmetric operator propagates once per middle layer, forward and backward
        assert sum(t.op == "propagate" for t in nodes) == max(len(hidden_dims) - 1, 0)
        # the operator enters the tape only as row slices: op[K, :] for the
        # last encoder layer, op[M, K] for the decoder
        kept = n - masked.size
        shapes = {t.value.shape for t in nodes if t.op == "const"}
        assert (masked.size, kept) in shapes
        assert ((kept, n) in shapes) == bool(hidden_dims)
        assert all(t.value.shape != (n, n) for t in nodes)


class TestDecoder:
    def test_a_decoder_of_more_than_one_layer_rejected(self):
        rng, X, operator, encoder, _, tokens, _ = random_model(8, 3, (6,), 4, 5)
        decoder = HGNNStack([init_layer(4, 5, "relu", rng, "decoder.layer0"),
                             init_layer(5, 3, "identity", rng, "decoder.layer1")])
        with pytest.raises(ValidationError, match="the decoder has 2 layers, needs 1"):
            reconstruction_loss(operator, X, np.array([0, 3]), encoder, decoder, tokens, 2.0)

    @pytest.mark.parametrize("activation", ["identity", "relu"])
    def test_the_decoder_layer_is_applied_without_a_forward(self, monkeypatch, activation):
        rng, X, operator, encoder, decoder, tokens, params = random_model(8, 3, (6,), 4, 5)
        decoder.layers[0].activation = activation
        masked = np.array([0, 3, 5])
        ref_loss, ref_grads = loss_and_grads(masked_form_loss, params, operator, X, masked,
                                             encoder, decoder, tokens, 2.0)
        forward = hglearn.pretrain.hgnn_forward_operator
        stacks = []

        def counted(operator, X, stack, *args, **kwargs):
            stacks.append(stack)
            return forward(operator, X, stack, *args, **kwargs)
        monkeypatch.setattr(hglearn.pretrain, "hgnn_forward_operator", counted)
        loss, grads = loss_and_grads(reconstruction_loss, params, operator, X, masked,
                                     encoder, decoder, tokens, 2.0)
        assert stacks == [encoder]
        assert loss == pytest.approx(ref_loss, rel=1e-12, abs=0.0)
        scale = max(np.abs(ref).max() for ref in ref_grads)
        for g, ref in zip(grads, ref_grads):
            assert np.abs(g - ref).max() <= 1e-12 * scale


class TestPretrainInitialState:
    def test_zero_epochs_return_the_initialized_state_bit_for_bit(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((10, 4))
        cfg = RunConfig(pretrain_epochs=0, hidden_dims=(6,), latent_dim=3, seed=9)
        result = pretrain(knn_hyperedges(X, 2), X, cfg)
        init = np.random.default_rng(9)
        encoder = build_encoder(4, (6,), 3, init)
        decoder = build_decoder(3, 4, init)
        for got, want in zip(result.encoder.parameters() + result.decoder.parameters(),
                             encoder.parameters() + decoder.parameters(), strict=True):
            assert got.name == want.name
            assert np.array_equal(got.value, want.value)
        assert np.array_equal(result.mask_tokens.input_token.value, np.zeros((1, 4)))
        assert np.array_equal(result.mask_tokens.latent_token.value, np.zeros((1, 3)))

"""Convolution stack, classifier head, masked cross-entropy, param accounting."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hglearn import autodiff as ad
from hglearn.autodiff import (
    Parameter,
    ShapeError,
    ValidationError,
    finite_difference_check,
    forward_backward,
)
from hglearn.config import RunConfig
from hglearn.hypergraph import Hypergraph, knn_hyperedges, propagation_operator
from hglearn.model import (
    HGNNLayer,
    HGNNStack,
    build_decoder,
    build_encoder,
    build_head,
    classify,
    hgnn_forward_operator,
)
from hglearn.prompt import count_tunable_params
from tape_ops import mul, sum_all, tape_nodes


def identity_layer(d, activation="identity"):
    return HGNNLayer(
        Parameter(np.eye(d), "w"), Parameter(np.zeros((1, d)), "b"), activation
    )


class TestHGNNForward:
    def test_identity_pipeline_returns_input(self):
        G = Hypergraph.from_incidence(np.eye(4))
        X = np.random.default_rng(0).standard_normal((4, 3))
        out = hgnn_forward_operator(propagation_operator(G), X, HGNNStack([identity_layer(3)]))
        assert np.allclose(out.value, X, atol=1e-15)

    def test_single_hyperedge_averages_rows(self):
        G = Hypergraph.from_incidence(np.array([[1.0], [1.0]]))
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        out = hgnn_forward_operator(propagation_operator(G), X, HGNNStack([identity_layer(2)]))
        assert np.allclose(out.value, np.full((2, 2), 0.5), atol=1e-15)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(21)
        G = knn_hyperedges(rng.standard_normal((9, 4)), 2)
        X = rng.standard_normal((9, 4))
        stack = build_encoder(4, (5,), 3, rng)
        readout = rng.standard_normal((9, 3))

        def loss_fn(params):
            out = hgnn_forward_operator(propagation_operator(G), X, stack)
            return sum_all(mul(out, ad.const(readout)))

        assert finite_difference_check(loss_fn, stack.parameters(), 1e-6) <= 1e-4

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(33)
        for trial in range(5):
            X = rng.standard_normal((8, 4))
            G = knn_hyperedges(X, 2)
            stack = build_encoder(4, (6,), 3, np.random.default_rng(1))
            out = hgnn_forward_operator(propagation_operator(G), X, stack).value
            perm = rng.permutation(8)
            Gp = Hypergraph.from_incidence(G.incidence[perm], G.edge_weights)
            out_p = hgnn_forward_operator(propagation_operator(Gp), X[perm], stack).value
            assert np.allclose(out_p, out[perm], atol=1e-10)

    def test_dimension_mismatch_rejected(self):
        operator = propagation_operator(Hypergraph.from_incidence(np.eye(3)))
        with pytest.raises(ShapeError):
            hgnn_forward_operator(operator, np.ones((3, 5)), HGNNStack([identity_layer(3)]))
        # a 3-node operator on 4 feature rows, propagated after a first weight
        # that narrows (4 -> 2) and before one that widens (4 -> 6)
        for d_out in (2, 6):
            layer = HGNNLayer(Parameter(np.ones((4, d_out)), "w"),
                              Parameter(np.zeros((1, d_out)), "b"), "identity")
            with pytest.raises(ShapeError, match="propagate"):
                hgnn_forward_operator(operator, np.ones((4, 4)), HGNNStack([layer]))

    def test_stack_dims_must_chain(self):
        with pytest.raises(ShapeError, match="chain"):
            HGNNStack([identity_layer(3), identity_layer(4)])

    def test_decoder_is_single_linear_layer(self):
        dec = build_decoder(8, 12, np.random.default_rng(0))
        assert len(dec.layers) == 1
        assert dec.layers[0].activation == "identity"
        assert (dec.input_dim, dec.output_dim) == (8, 12)


class TestClassify:
    def test_zero_head_gives_zero_logits(self):
        head = HGNNLayer(Parameter(np.zeros((4, 2)), "w"), Parameter(np.zeros((1, 2)), "b"),
                         "identity")
        out = classify(np.random.default_rng(0).standard_normal((6, 4)), head)
        assert np.array_equal(out.value, np.zeros((6, 2)))

    def test_identity_weight_reproduces_columns(self):
        head = HGNNLayer(Parameter(np.eye(3), "w"), Parameter(np.zeros((1, 3)), "b"), "identity")
        Z = np.eye(3)
        assert np.array_equal(classify(Z, head).value, Z)

    def test_matches_direct_matrix_product(self):
        rng = np.random.default_rng(3)
        Z = rng.standard_normal((7, 5))
        W = rng.standard_normal((5, 2))
        b = rng.standard_normal((1, 2))
        head = HGNNLayer(Parameter(W, "w"), Parameter(b, "b"), "identity")
        expected = Z @ W + b
        assert np.abs(classify(Z, head).value - expected).max() <= 1e-12

    def test_shape_mismatch_rejected(self):
        head = build_head(4, 2)
        with pytest.raises(ShapeError):
            classify(np.ones((3, 5)), head)


class TestFrozenEncoderBackward:
    @pytest.mark.parametrize("prompted", [False, True], ids=["head-only", "prompted-input"])
    def test_no_product_toward_constants_or_frozen_weights(self, prompted, monkeypatch):
        rng = np.random.default_rng(5)
        operator = propagation_operator(knn_hyperedges(rng.standard_normal((10, 3)), 2))
        X = rng.standard_normal((10, 4))
        encoder = build_encoder(4, (6,), 3, rng).copy(trainable=False)
        head = build_head(3, 2)
        prompt = Parameter(rng.normal(0.0, 0.1, (1, 4)), "prompt")
        targets = []
        accum = ad._accum
        monkeypatch.setattr(ad, "_accum", lambda t, g: (targets.append(t), accum(t, g)))
        x = ad.broadcast_add_row(X, prompt.leaf()) if prompted else ad.const(X)
        z = hgnn_forward_operator(operator, x, encoder)
        loss = ad.softmax_cross_entropy(classify(z, head), rng.integers(0, 2, 10),
                                        np.ones(10, bool))
        forward_backward(loss)
        constants = [t for t in tape_nodes(loss)
                     if (t.param is None and not t.parents) or
                     (t.param is not None and not t.param.trainable)]
        # X and each frozen weight and bias; the operator is no tape node, its
        # propagate nodes apply it
        assert sum(t.op == "const" for t in constants) == 1
        assert len(constants) == 1 + 2 * len(encoder.layers)
        reached = {id(t) for t in targets}
        for t in constants:
            assert t.grad is None and id(t) not in reached, t.op
        assert all(p.grad is None for p in encoder.parameters())
        assert head.weight.grad is not None and head.weight.grad.any()
        assert (prompt.grad is not None) == prompted
        if not prompted:  # only the logits, Z @ W and the two head leaves
            assert len(targets) == 4


class TestCrossEntropyMasked:
    def test_uniform_logits_give_log_two(self):
        loss = ad.softmax_cross_entropy(np.zeros((3, 2)), [0, 1, 0], np.ones(3, bool))
        assert float(loss) == pytest.approx(math.log(2), abs=1e-12)

    def test_saturated_correct_prediction_no_overflow(self):
        loss = ad.softmax_cross_entropy(np.array([[50.0, -50.0]]), [0], np.ones(1, bool))
        assert 0.0 <= float(loss) < 1e-20

    def test_hand_computed_value(self):
        loss = ad.softmax_cross_entropy(np.array([[1.0, 2.0]]), [1], np.ones(1, bool))
        assert float(loss) == pytest.approx(0.31326168751822286, abs=1e-12)

    def test_empty_mask_rejected(self):
        with pytest.raises(ValidationError, match="no rows"):
            ad.softmax_cross_entropy(np.zeros((2, 2)), [0, 1], np.zeros(2, bool))

    def test_out_of_range_label_rejected(self):
        with pytest.raises(ValidationError, match="label"):
            ad.softmax_cross_entropy(np.zeros((2, 2)), [0, 2], np.ones(2, bool))

    @settings(max_examples=30, deadline=None)
    @given(
        shift=st.floats(min_value=-100, max_value=100, allow_nan=False),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_invariant_to_constant_logit_shift(self, shift, seed):
        rng = np.random.default_rng(seed)
        logits = rng.standard_normal((5, 2))
        labels = rng.integers(0, 2, 5)
        mask = np.ones(5, bool)
        base = float(ad.softmax_cross_entropy(logits, labels, mask))
        shifted = float(ad.softmax_cross_entropy(logits + shift, labels, mask))
        assert abs(base - shifted) <= 1e-10


class TestCountTunableParams:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.encoder = build_encoder(128, (128,), 64, rng)
        self.cfg = RunConfig(num_prompts=16)

    def test_linear_probe_counts_head_only(self):
        counts, total = count_tunable_params("linear_probe", self.encoder, self.cfg)
        assert counts == {"head": 130}
        assert total == 130

    def test_phgnn_example(self):
        counts, total = count_tunable_params("phgnn", self.encoder, self.cfg)
        assert counts["prompt_tokens"] == 16 * 128
        assert total == 2178

    def test_gpf_example(self):
        _, total = count_tunable_params("gpf", self.encoder, self.cfg)
        assert total == 258

    def test_finetune_counts_every_parameter(self):
        counts, total = count_tunable_params("finetune", self.encoder, self.cfg)
        assert counts["encoder"] == sum(p.size for p in self.encoder.parameters())
        assert total == counts["encoder"] + 130

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValidationError, match="strategy"):
            count_tunable_params("adapter", self.encoder, self.cfg)

    def test_default_config_efficiency_bound(self):
        # fused dim 48, hidden 128, latent 64, prompts 16: prompt tuning
        # stays under a tenth of full fine-tuning
        cfg = RunConfig()
        d = sum(cfg.dims)
        rng = np.random.default_rng(0)
        encoder = build_encoder(d, cfg.hidden_dims, cfg.latent_dim, rng)
        _, phgnn = count_tunable_params("phgnn", encoder, cfg)
        _, gpf_plus = count_tunable_params("gpf_plus", encoder, cfg)
        _, finetune = count_tunable_params("finetune", encoder, cfg)
        assert phgnn <= 0.10 * finetune
        assert phgnn < gpf_plus < finetune

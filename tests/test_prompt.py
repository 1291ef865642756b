"""Prompt structure, pattern insertion, and the tuning strategies."""

import json

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import hglearn.prompt
from hglearn import autodiff as ad
from hglearn.autodiff import (
    AdamWState,
    Parameter,
    ValidationError,
    adamw_step,
    finite_difference_check,
    forward_backward,
)
from hglearn.checkpoint import load_snapshot, save_snapshot
from hglearn.config import RunConfig
from hglearn.data import build_fused_hypergraph, generate_synthetic, split_folds
from hglearn.hypergraph import Hypergraph, knn_hyperedges, propagation_operator
from hglearn.metrics import evaluate_logits
from hglearn.model import build_encoder, classify, hgnn_forward_operator
from hglearn.pipeline import run_tune
from hglearn.pretrain import pretrain
from hglearn.prompt import (
    _STRATEGY_TABLE,
    STRATEGIES,
    TuneResult,
    _FoldState,
    _TuningRun,
    build_prompt_structure,
    count_tunable_params,
    evaluate_snapshot,
    insert_prompt,
    tune_with_strategy,
)
from oracles import brute_force_operator
from tape_ops import mul, sum_all, tape_nodes


@pytest.fixture(scope="module")
def tuning_setup():
    """Small separable dataset with a pretrained encoder, trainable as pretraining left it."""
    ds = generate_synthetic(60, 2, (6, 6), 3.0, 0.0, seed=4)
    G, X = build_fused_hypergraph(ds, 5)
    result = pretrain(
        G, X, RunConfig(pretrain_epochs=40, hidden_dims=(16,), latent_dim=8, seed=0)
    )
    folds = split_folds(ds.labels, 5, seed=0)
    return ds, G, X, result.encoder, folds


def count_grams(monkeypatch, counted_graph):
    """Records each `Hypergraph.edge_gram` computation of a graph `counted_graph` accepts."""
    calls = []
    compute = Hypergraph.edge_gram.func

    def counted(G):
        if counted_graph(G):
            calls.append(G)
        return compute(G)
    monkeypatch.setattr(Hypergraph.edge_gram, "func", counted)
    return calls


def small_config(**kwargs):
    defaults = dict(tune_epochs=30, num_prompts=4, prompt_k=2, gpf_basis=6, seed=0)
    defaults.update(kwargs)
    return RunConfig(**defaults)


class TestBuildPromptStructure:
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

    def test_default_prompt_k(self, tuning_setup):
        # tuning uses k_p = min(prompt_k, P - 1): every column sums to k_p + 1
        ds, G, X, encoder, folds = tuning_setup
        for num_prompts, k_p in ((16, 3), (2, 1), (1, 0)):
            result = tune_with_strategy(
                "phgnn", G, X, ds.labels, folds.train_mask(0), folds.val_mask(0), encoder,
                small_config(tune_epochs=1, num_prompts=num_prompts, prompt_k=3),
            )
            incidence = result.prompt_structure.incidence
            assert incidence.shape == (num_prompts, num_prompts)
            assert np.all(incidence.sum(axis=0) == k_p + 1)


class TestInsertPrompt:
    def setup_method(self):
        rng = np.random.default_rng(2)
        self.X = rng.standard_normal((3, 4))
        self.G = Hypergraph.from_incidence(np.array([[1, 0, 1], [1, 1, 0], [0, 1, 1]], float))
        self.tokens = rng.standard_normal((2, 4))
        self.G_p = build_prompt_structure(self.tokens, 1)

    def test_zero_tokens_is_identity(self):
        G_m, X_m = insert_prompt(self.G, self.X, Hypergraph.from_incidence(np.zeros((0, 0))),
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
        with pytest.raises(ValidationError, match="token dim 5 does not match feature dim 4"):
            insert_prompt(self.G, self.X, self.G_p, np.ones((2, 5)))

    def test_structure_of_another_size_rejected(self):
        # the block operator checks neither size: its tokens are its own, and
        # a replayed structure is checked by `evaluate_snapshot`
        with pytest.raises(ValidationError, match="prompt structure covers 3 tokens, got 2"):
            insert_prompt(self.G, self.X, build_prompt_structure(np.ones((3, 4)), 1),
                          self.tokens)

    def test_prompt_block_holds_structure(self):
        G_m, _ = insert_prompt(self.G, self.X, self.G_p, self.tokens)
        assert np.array_equal(G_m.incidence[3:, 3:5], self.G_p.incidence)
        assert not G_m.incidence[:3, 3:5].any()


def as_dense(operator):
    """The matrix of an operator applied by `@`."""
    return operator @ np.eye(operator.shape[1])


def prompt_state(strategy, G, X, tokens):
    """A prompt strategy's per-fold state on (G, X), its tokens set to `tokens`."""
    cfg = RunConfig(num_prompts=tokens.shape[0], hidden_dims=(4,), latent_dim=8)
    encoder = build_encoder(X.shape[1], (4,), 8, np.random.default_rng(0))
    fold = _FoldState(_TuningRun(strategy, G, X, encoder, cfg))
    fold.extra.value[:] = tokens
    return fold


class TestBlockOperator:
    """The blockwise prompted operator against the dense manipulated hypergraph."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=24),
        k=st.integers(min_value=0, max_value=4),
        pairwise=st.booleans(),
        weighted=st.booleans(),
        p=st.integers(min_value=1, max_value=7),
        structured=st.booleans(),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    # one token on a data hypergraph with no hyperedges (pairwise, k = 0)
    @example(n=6, k=0, pairwise=True, weighted=False, p=1, structured=True, seed=0)
    @example(n=24, k=4, pairwise=False, weighted=False, p=7, structured=False, seed=1)
    def test_matches_dense_insertion(self, n, k, pairwise, weighted, p, structured, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, 5))
        G = knn_hyperedges(X, min(k, n - 1), pairwise=pairwise)
        if weighted:
            G = Hypergraph(n, G.nodes, G.edges, rng.uniform(0.5, 2.0, G.num_edges))
        strategy = "phgnn" if structured else "phgnn_no_structure"
        fold = prompt_state(strategy, G, X, rng.standard_normal((p, 5)))
        built = []
        for k_p in range(p):
            tokens = rng.standard_normal((p, 5))
            fold.extra.value[:] = tokens
            G_p = build_prompt_structure(tokens, k_p) if structured else Hypergraph(p, [], [])
            dense = propagation_operator(insert_prompt(G, X, G_p, tokens)[0])
            np.testing.assert_allclose(as_dense(fold.run.operator(G_p)), dense, rtol=0, atol=1e-12)
            built.append((G_p, dense))
        # the first structure again, after the state has moved on from it
        G_p, dense = built[0]
        np.testing.assert_allclose(as_dense(fold.run.operator(G_p)), dense, rtol=0, atol=1e-12)

    def test_structure_rebuilt_only_when_a_neighbour_set_changes(self, monkeypatch):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((12, 5))
        tokens = rng.standard_normal((6, 5))
        fold = prompt_state("phgnn", knn_hyperedges(X, 3), X, tokens)
        first = fold.epoch_structure()
        expected = build_prompt_structure(tokens, fold.run.cfg.prompt_k)
        for name in ("nodes", "edges", "edge_weights"):
            assert np.array_equal(getattr(first[0], name), getattr(expected, name))
        # the same neighbour sets in another order: the same graph and operator
        knn = hglearn.prompt.knn_neighbor_lists
        monkeypatch.setattr(hglearn.prompt, "knn_neighbor_lists", lambda *a: knn(*a)[:, ::-1])
        assert fold.epoch_structure() == first
        fold.extra.value[:] = rng.standard_normal((6, 5))
        moved = fold.epoch_structure()
        assert moved[0] != first[0] and moved[1] is not first[1]

    def test_tiny_case_matches_brute_force(self):
        # 3 data nodes with weighted edges, 2 tokens joined by k_p = 1
        H = np.array([[1, 0, 1], [1, 1, 0], [0, 1, 1]], float)
        w = np.array([0.5, 1.0, 2.0])
        X = np.random.default_rng(2).standard_normal((3, 4))
        tokens = np.array([[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 2.0]])
        G_p = build_prompt_structure(tokens, 1)
        fold = prompt_state("phgnn", Hypergraph.from_incidence(H, w), X, tokens)
        H_m = np.zeros((5, 3 + 2 + 2))
        H_m[:3, :3] = H
        H_m[3:, 3:5] = 1.0  # each token's k-NN edge holds both tokens
        H_m[:3, 5:] = 1.0
        H_m[3, 5] = H_m[4, 6] = 1.0
        w_m = np.concatenate([w, np.ones(4)])
        np.testing.assert_allclose(as_dense(fold.run.operator(G_p)),
                                   brute_force_operator(H_m, w_m), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("strategy", ["phgnn", "phgnn_no_structure"])
    def test_operator_builds_do_not_grow_with_epochs(self, tuning_setup, strategy,
                                                     monkeypatch):
        ds, G, X, encoder, folds = tuning_setup
        calls = {}

        def count(name, fn, counts_call=lambda *args: True):
            def counted(*args, **kwargs):
                if counts_call(*args):
                    calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(hglearn.prompt, name, counted)

        count("insert_prompt", hglearn.prompt.insert_prompt)
        # the data block; token blocks are normalized per token structure
        count("_normalized_gram", hglearn.prompt._normalized_gram, lambda g, *_: g is fresh)
        grams = count_grams(monkeypatch, lambda g: g is fresh)
        seen = []
        for epochs in (2, 6):
            calls.clear()
            grams.clear()
            # a fresh copy of the data graph, whose gram no earlier run computed
            fresh = Hypergraph(G.num_nodes, G.nodes, G.edges, G.edge_weights)
            tune_with_strategy(strategy, fresh, X, ds.labels, folds.train_mask(0),
                               folds.val_mask(0), encoder,
                               small_config(tune_epochs=epochs, strategy=strategy))
            seen.append({**calls, "edge_gram": len(grams)})
        assert seen[0] == seen[1] == {"_normalized_gram": 1, "edge_gram": 1}


class TestBlockPropagation:
    """The block operator through `autodiff.propagate` and its first-layer form."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=24),
        k=st.integers(min_value=0, max_value=4),
        p=st.integers(min_value=1, max_value=7),
        structured=st.booleans(),
        cols=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_forward_and_backward_match_the_dense_operator(self, n, k, p, structured, cols,
                                                          seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, 5))
        G = knn_hyperedges(X, min(k, n - 1))
        tokens = rng.standard_normal((p, 5))
        G_p = (build_prompt_structure(tokens, min(2, p - 1)) if structured
               else Hypergraph(p, [], []))
        dense = propagation_operator(insert_prompt(G, X, G_p, tokens)[0])
        fold = prompt_state("phgnn" if structured else "phgnn_no_structure", G, X, tokens)
        op = fold.run.operator(G_p)
        Y = Parameter(rng.standard_normal((n + p, cols)), "Y")
        R = rng.standard_normal((n + p, cols))
        out = ad.propagate(op, Y.leaf())
        forward_backward(sum_all(mul(out, ad.const(R))))
        np.testing.assert_allclose(out.value, dense @ Y.value, rtol=0, atol=1e-12)
        np.testing.assert_allclose(Y.grad, dense.T @ R, rtol=0, atol=1e-12)
        # the first layer: the operator's fixed rows for [X W1; 0], plus the
        # token columns applied to T W1, the only part on the tape
        W = fold.encoder.layers[0].weight.value
        T = Parameter(tokens, "T")
        R = rng.standard_normal((n + p, W.shape[1]))
        first = ad.add(ad.const(op.fixed_rows),
                       ad.matmul(op.token_columns, ad.matmul(T.leaf(), ad.const(W))))
        forward_backward(sum_all(mul(first, ad.const(R))))
        np.testing.assert_allclose(first.value, dense @ np.vstack([X, tokens]) @ W,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(T.grad, (dense.T @ R)[n:] @ W.T, rtol=0, atol=1e-12)


def dense_logits(strategy, fold, G, G_p):
    """A strategy's logits the plain way: its whole input through a dense operator."""
    X, extra = fold.run.X, None if fold.extra is None else fold.extra.value
    if G_p is not None:
        G, x = insert_prompt(G, X, G_p, extra)
    elif strategy == "gpf":
        x = X + extra
    elif strategy == "gpf_plus":
        scores = X @ extra.T
        attn = np.exp(scores - scores.max(axis=1, keepdims=True))
        x = X + attn / attn.sum(axis=1, keepdims=True) @ extra
    else:
        x = X
    return classify(hgnn_forward_operator(propagation_operator(G), x, fold.encoder),
                    fold.head).value


# each strategy that trains below the head, and the parameter it trains there
_BELOW_HEAD = {"finetune": "encoder.layer0.weight", "gpf": "gpf.vector",
               "gpf_plus": "gpf.basis", "phgnn": "prompt.tokens",
               "phgnn_no_structure": "prompt.tokens"}


def random_state(strategy, n=20, d=6, hidden_dims=(8,), latent_dim=4, num_prompts=4,
                 seed=8):
    """A strategy's state on random data, with a random head and extra parameter."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    G = knn_hyperedges(X, min(3, n - 1))
    encoder = build_encoder(d, hidden_dims, latent_dim, rng)
    for layer in encoder.layers:
        layer.bias.value[:] = rng.normal(0.0, 0.5, layer.bias.value.shape)
    cfg = RunConfig(num_prompts=num_prompts, prompt_k=2, gpf_basis=3,
                    hidden_dims=hidden_dims, latent_dim=latent_dim, seed=0)
    fold = _FoldState(_TuningRun(strategy, G, X, encoder, cfg))
    fold.head.weight.value[:] = rng.normal(0.0, 0.5, fold.head.weight.value.shape)
    fold.head.bias.value[:] = rng.normal(0.0, 0.5, fold.head.bias.value.shape)
    if fold.extra is not None:
        fold.extra.value[:] = rng.normal(0.0, 0.5, fold.extra.value.shape)
    return fold, G, rng.integers(0, 2, n)


class TestFirstLayer:
    """The first layer formed from per-fold constants, against the plain forward."""

    def state(self, strategy):
        # the first layer widens (6 -> 8) and the second narrows (8 -> 4)
        return random_state(strategy)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_logits_match_the_plain_forward(self, strategy):
        fold, G, _ = self.state(strategy)
        G_p, operator = fold.epoch_structure()
        expected = dense_logits(strategy, fold, G, G_p)
        got = fold.logits(operator).value
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("strategy", sorted(_BELOW_HEAD))
    def test_finite_differences_through_the_logits(self, strategy):
        fold, _, labels = self.state(strategy)
        _, operator = fold.epoch_structure()
        param = {p.name: p for p in fold.params}[_BELOW_HEAD[strategy]]
        y = np.concatenate([labels, np.zeros(fold.run.prompt_rows, np.int64)])
        mask = np.concatenate([np.ones(20, bool), np.zeros(fold.run.prompt_rows, bool)])

        def loss(params):
            return ad.softmax_cross_entropy(fold.logits(operator), y, mask)

        # criterion 01's limit
        assert finite_difference_check(loss, [param], 1e-6) <= 1e-4

    @pytest.mark.parametrize("strategy", [s for s in STRATEGIES
                                          if not _STRATEGY_TABLE[s].trains_encoder])
    def test_no_product_with_w1_runs_over_the_data_rows(self, strategy):
        # under a frozen W1, D X W1 is a per-fold constant: the only product
        # with W1 on a forward's tape is the extra parameter's R W1
        fold, _, _ = self.state(strategy)
        _, operator = fold.epoch_structure()
        tape, stack = {}, [fold.logits(operator)]
        while stack:
            t = stack.pop()
            if t._id not in tape:
                tape[t._id] = t
                stack.extend(t.parents)
        w1 = fold.encoder.layers[0].weight
        lefts = [t.parents[0] for t in tape.values()
                 if t.op == "matmul" and t.parents[1].param is w1]
        assert all(a.value.shape[0] < 20 for a in lefts), [a.value.shape for a in lefts]


def relative_error(got, expected):
    return np.abs(got - expected).max() / np.abs(expected).max()


def tape_propagations(root):
    """The propagate nodes below root, except `gpf_plus`'s propagated attention."""
    return [t for t in tape_nodes(root)
            if t.op == "propagate" and t.parents[0].op != "row_softmax"]


# the strategies whose encoder runs every epoch, so the head folds into it
_FOLDED = [s for s in STRATEGIES if s != "linear_probe"]


class TestHeadFold:
    """The head folded into the encoder's last layer, against `classify` of its output."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_folded_logits_match_classify(self, strategy):
        fold, _, _ = random_state(strategy)
        _, operator = fold.epoch_structure()
        # the data operator, or the prompted one of the token strategies
        assert isinstance(operator, np.ndarray) != (fold.run.prompt_rows > 0)
        expected = classify(fold.encode(operator), fold.head).value
        for got in (fold.encode(operator, fold.head), fold.logits(operator)):
            assert relative_error(got.value, expected) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        strategy=st.sampled_from(STRATEGIES),
        n=st.integers(min_value=4, max_value=24),
        d=st.integers(min_value=1, max_value=7),
        hidden_dims=st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=3),
        latent_dim=st.integers(min_value=1, max_value=9),
        num_prompts=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_folded_logits_match_classify_on_random_shapes(self, strategy, n, d, hidden_dims,
                                                           latent_dim, num_prompts, seed):
        fold, _, _ = random_state(strategy, n, d, tuple(hidden_dims), latent_dim, num_prompts,
                                 seed)
        _, operator = fold.epoch_structure()
        expected = classify(fold.encode(operator), fold.head).value
        got = fold.encode(operator, fold.head).value
        assert relative_error(got, expected) <= 1e-12

    @pytest.mark.parametrize("encoder", ["relu-last", "one-layer"])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_unfoldable_encoders_keep_the_classify_path(self, strategy, encoder):
        if encoder == "one-layer":
            fold, _, _ = random_state(strategy, hidden_dims=())
        else:
            fold, _, _ = random_state(strategy)
            fold.encoder.layers[-1].activation = "relu"  # as a checkpoint may say
        _, operator = fold.epoch_structure()
        logits = fold.encode(operator, fold.head)
        expected = classify(fold.encode(operator), fold.head).value
        assert np.array_equal(logits.value, expected)
        # the head weight is read once, by Z @ W_head
        z, w_head = logits.parents[0].parents
        assert w_head.param is fold.head.weight and z.value.shape[1] == fold.head.d_in

    @pytest.mark.parametrize("strategy, names", [
        ("finetune", ["encoder.layer1.weight", "encoder.layer1.bias", "head.weight",
                      "head.bias"]),
        ("phgnn", ["prompt.tokens", "head.weight"]),
    ])
    def test_finite_differences_through_the_fold(self, strategy, names):
        fold, _, labels = random_state(strategy)
        _, operator = fold.epoch_structure()
        params = {p.name: p for p in fold.params}
        y = np.concatenate([labels, np.zeros(fold.run.prompt_rows, np.int64)])
        mask = np.concatenate([np.ones(20, bool), np.zeros(fold.run.prompt_rows, bool)])

        def loss(params):
            return ad.softmax_cross_entropy(fold.logits(operator), y, mask)

        # criterion 01's limit
        assert finite_difference_check(loss, [params[name] for name in names], 1e-6) <= 1e-4

    @pytest.mark.parametrize("strategy", _FOLDED)
    def test_propagations_after_the_first_layer_have_the_head_width(self, strategy):
        fold, _, labels = random_state(strategy, hidden_dims=(8,), latent_dim=6)
        _, operator = fold.epoch_structure()
        logits = fold.logits(operator)
        propagations = tape_propagations(logits)
        assert propagations
        assert {t.value.shape[1] for t in propagations} == {2}
        # the backward applies the operator to gradients of the same width
        y = np.concatenate([labels, np.zeros(fold.run.prompt_rows, np.int64)])
        mask = np.concatenate([np.ones(20, bool), np.zeros(fold.run.prompt_rows, bool)])
        forward_backward(ad.softmax_cross_entropy(logits, y, mask))
        assert all(t.grad.shape[1] == 2 for t in propagations)


class TestPromptTune:
    def test_encoder_bit_identical_after_run(self, tuning_setup):
        ds, G, X, encoder, folds = tuning_setup
        before = [p.value.copy() for p in encoder.parameters()]
        tune_with_strategy("phgnn", G, X, ds.labels, folds.train_mask(0), folds.val_mask(0),
                           encoder, small_config(tune_epochs=50))
        for p, b in zip(encoder.parameters(), before):
            assert np.array_equal(p.value, b)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_trainable_encoder_tunes_like_a_frozen_copy(self, tuning_setup, strategy):
        ds, G, X, encoder, folds = tuning_setup
        cfg = small_config(tune_epochs=8, strategy=strategy)
        results = []
        for trainable in (True, False):
            caller = encoder.copy(trainable=trainable)
            before = [p.value.copy() for p in caller.parameters()]
            results.append(tune_with_strategy(strategy, G, X, ds.labels, folds.train_mask(0),
                                              folds.val_mask(0), caller, cfg))
            # tuning works on its own copy: values, flags and gradients stay as given
            for p, b in zip(caller.parameters(), before):
                assert np.array_equal(p.value, b)
                assert p.trainable == trainable
                assert p.grad is None
        thawed, frozen = results
        assert thawed.train_losses == frozen.train_losses
        assert thawed.val_bacc == frozen.val_bacc
        assert thawed.snapshot.keys() == frozen.snapshot.keys()
        for name, value in thawed.snapshot.items():
            assert np.array_equal(value, frozen.snapshot[name]), name
        assert (count_tunable_params(strategy, encoder.copy(trainable=True), cfg)
                == count_tunable_params(strategy, encoder.copy(trainable=False), cfg))

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

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_single_class_validation_mask_rejected_before_an_epoch(self, tuning_setup, strategy,
                                                                   monkeypatch):
        ds, G, X, encoder, folds = tuning_setup
        epochs = []
        monkeypatch.setattr(hglearn.prompt, "forward_backward",
                            lambda loss: epochs.append(loss) or 0.0)
        for label in (0, 1):
            val_mask = folds.val_mask(0) & (ds.labels == label)
            assert val_mask.any()
            with pytest.raises(ValidationError, match="single class"):
                tune_with_strategy(strategy, G, X, ds.labels, folds.train_mask(0), val_mask,
                                   encoder, small_config(strategy=strategy))
        assert epochs == []

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
        assert result.prompt_structure.incidence.shape == (4, 4)
        unstructured = tune_with_strategy("phgnn_no_structure", G, X, ds.labels,
                                          folds.train_mask(0), folds.val_mask(0), encoder,
                                          small_config(tune_epochs=10))
        assert unstructured.prompt_structure.incidence.shape == (4, 0)
        assert unstructured.strategy == "phgnn_no_structure"


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
            cfg = small_config(tune_epochs=1, strategy=strategy)
            result = tune_with_strategy(strategy, G, X, ds.labels, folds.train_mask(0),
                                        folds.val_mask(0), encoder, cfg)
            assert count_tunable_params(strategy, encoder, cfg)[1] == count, strategy
            assert sum(v.size for v in result.snapshot.values()) == count, strategy

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_counts_come_from_the_trainable_set(self, tuning_setup, strategy):
        ds, G, X, encoder, folds = tuning_setup
        cfg = small_config(tune_epochs=1, strategy=strategy)
        result = tune_with_strategy(strategy, G, X, ds.labels, folds.train_mask(0),
                                    folds.val_mask(0), encoder, cfg)
        snapshot_total = sum(v.size for v in result.snapshot.values())
        counts, total = count_tunable_params(strategy, encoder, cfg)
        assert snapshot_total == total == sum(counts.values())

    @pytest.mark.parametrize("strategy",
                             ["linear_probe", "gpf", "gpf_plus", "phgnn", "phgnn_no_structure"])
    def test_frozen_strategies_leave_encoder_untouched(self, tuning_setup, strategy):
        ds, G, X, encoder, folds = tuning_setup
        before = [p.value.copy() for p in encoder.parameters()]
        flags = [p.trainable for p in encoder.parameters()]
        tune_with_strategy(strategy, G, X, ds.labels, folds.train_mask(0),
                           folds.val_mask(0), encoder,
                           small_config(tune_epochs=8, strategy=strategy))
        for p, b in zip(encoder.parameters(), before):
            assert np.array_equal(p.value, b)
        assert [p.trainable for p in encoder.parameters()] == flags

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

    def test_snapshot_serialization_round_trip(self, tuning_setup, tmp_path):
        ds, G, X, encoder, folds = tuning_setup
        for strategy in STRATEGIES:
            cfg = small_config(tune_epochs=10, strategy=strategy)
            result = tune_with_strategy(strategy, G, X, ds.labels, folds.train_mask(0),
                                        folds.val_mask(0), encoder, cfg)
            first, second = tmp_path / f"{strategy}_1.json", tmp_path / f"{strategy}_2.json"
            save_snapshot(first, result, cfg.digest())
            restored, info = load_snapshot(first)
            assert info["config_digest"] == cfg.digest()
            save_snapshot(second, restored, info["config_digest"])
            assert second.read_bytes() == first.read_bytes(), strategy
            for name, value in result.snapshot.items():
                assert np.array_equal(restored.snapshot[name], value), (strategy, name)
            replay = evaluate_snapshot(restored, G, X, ds.labels, folds.val_mask(0),
                                       encoder, cfg)
            assert replay == result.best_metrics, strategy

    @pytest.mark.parametrize("strategy, edit, message", [
        ("phgnn", lambda params: params.pop("head.weight"),
         r"trainable set: missing \['head.weight'\], unexpected \[\]"),
        ("phgnn", lambda params: params.update({"gpf.vector": [[0.0] * 12]}),
         r"trainable set: missing \[\], unexpected \['gpf.vector'\]"),
        ("phgnn", lambda params: params.update({"head.weight": [[1.0]]}),
         r"head.weight has shape \(1, 1\), phgnn needs \(8, 2\)"),
        ("phgnn", lambda params: params["prompt.tokens"].__delitem__(slice(2, None)),
         r"prompt.tokens has shape \(2, 12\), phgnn needs \(4, 12\)"),
        ("phgnn", lambda params: [params.pop(f"prompt.{key}") for key in
                                  ("incidence", "edge_weights")],
         "phgnn needs a prompt structure"),
        ("gpf", lambda params: params.update({"prompt.incidence": [[1.0]],
                                              "prompt.edge_weights": [[1.0]]}),
         "gpf needs no prompt structure"),
        ("phgnn", lambda params: params["prompt.incidence"].pop(),
         "prompt structure covers 3 tokens, got 4"),
        ("phgnn_no_structure", lambda params: params["prompt.incidence"].pop(),
         "prompt structure covers 3 tokens, got 4"),
    ], ids=["missing-head", "foreign-param", "broadcastable-head", "short-tokens",
            "no-structure", "structure-without-tokens", "structure-missing-a-token",
            "unstructured-missing-a-token"])
    def test_replay_rejects_a_mismatched_snapshot(self, tuning_setup, tmp_path, strategy,
                                                  edit, message):
        ds, G, X, encoder, folds = tuning_setup
        cfg = small_config(tune_epochs=3, strategy=strategy)
        result = tune_with_strategy(strategy, G, X, ds.labels, folds.train_mask(0),
                                    folds.val_mask(0), encoder, cfg)
        path = tmp_path / "s.json"
        save_snapshot(path, result, cfg.digest())
        doc = json.loads(path.read_text())
        edit(doc["params"])
        path.write_text(json.dumps(doc))
        restored, _ = load_snapshot(path)
        with pytest.raises(ValidationError, match=message):
            evaluate_snapshot(restored, G, X, ds.labels, folds.val_mask(0), encoder, cfg)

    @pytest.mark.parametrize("saved, replayed, message", [
        ("phgnn", "phgnn_no_structure",
         "phgnn_no_structure needs 0 prompt hyperedges, the structure has 4"),
        ("phgnn_no_structure", "phgnn", "phgnn needs 4 prompt hyperedges, the structure has 0"),
    ], ids=["structured-as-unstructured", "unstructured-as-structured"])
    def test_replay_rejects_a_relabelled_prompt_structure(self, tuning_setup, tmp_path, saved,
                                                          replayed, message):
        # both strategies train the same parameters; only the structure tells them apart
        ds, G, X, encoder, folds = tuning_setup
        cfg = small_config(tune_epochs=3, strategy=saved)
        result = tune_with_strategy(saved, G, X, ds.labels, folds.train_mask(0),
                                    folds.val_mask(0), encoder, cfg)
        path = tmp_path / "s.json"
        save_snapshot(path, result, cfg.digest())
        doc = json.loads(path.read_text())
        doc["strategy"] = replayed
        path.write_text(json.dumps(doc))
        restored, _ = load_snapshot(path)
        with pytest.raises(ValidationError, match=message):
            evaluate_snapshot(restored, G, X, ds.labels, folds.val_mask(0), encoder,
                              cfg.replace(strategy=replayed))

    def test_fusion_pretraining_and_tuning_never_build_the_dense_incidence(self, monkeypatch):
        def refuse(G):
            raise AssertionError(f"dense {G.num_nodes} x {G.num_edges} incidence built")
        monkeypatch.setattr(Hypergraph, "incidence", property(refuse))
        ds = generate_synthetic(40, 2, (4, 4), 3.0, 0.2, seed=6)
        G, X = build_fused_hypergraph(ds, 4)
        cfg = small_config(tune_epochs=4, pretrain_epochs=3, hidden_dims=(8,), latent_dim=6)
        encoder = pretrain(G, X, cfg).encoder
        folds = split_folds(ds.labels, 5, seed=0)
        for strategy in STRATEGIES:
            result = tune_with_strategy(strategy, G, X, ds.labels, folds.train_mask(0),
                                        folds.val_mask(0), encoder, cfg)
            evaluate_snapshot(result, G, X, ds.labels, folds.val_mask(0), encoder, cfg)

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


class TestCheckSite:
    """Every tuning entry point checks the strategy name and X in `_TuningRun`."""

    @settings(max_examples=40, deadline=None)
    @given(strategy=st.sampled_from(STRATEGIES),
           extra_rows=st.integers(min_value=-3, max_value=3),
           extra_cols=st.integers(min_value=-3, max_value=3))
    # narrower features at tuning, extra rows at replay: numpy alone rejects each as ValueError
    @example(strategy="linear_probe", extra_rows=0, extra_cols=-1)
    @example(strategy="gpf_plus", extra_rows=2, extra_cols=0)
    def test_mismatched_features_raise_the_same_error_everywhere(self, tuning_setup, strategy,
                                                                 extra_rows, extra_cols):
        assume((extra_rows, extra_cols) != (0, 0))
        ds, G, X, encoder, folds = tuning_setup
        n, d = X.shape
        rng = np.random.default_rng(0)
        bad = X[:n + extra_rows, :d + extra_cols]
        bad = np.vstack([bad, rng.standard_normal((max(extra_rows, 0), bad.shape[1]))])
        bad = np.hstack([bad, rng.standard_normal((bad.shape[0], max(extra_cols, 0)))])
        expected = ("labels/features do not match the hypergraph node count" if extra_rows
                    else f"checkpoint expects {d} fused features, dataset has {d + extra_cols}")
        cfg = small_config(tune_epochs=1, strategy=strategy)
        result = TuneResult(strategy, {}, None, None, -1)
        calls = {
            "tune_with_strategy": lambda: tune_with_strategy(
                strategy, G, bad, ds.labels, folds.train_mask(0), folds.val_mask(0), encoder,
                cfg),
            "evaluate_snapshot": lambda: evaluate_snapshot(
                result, G, bad, ds.labels, folds.val_mask(0), encoder, cfg),
            "run_tune": lambda: run_tune(G, bad, ds.labels, encoder, cfg),
        }
        for name, call in calls.items():
            # numpy's own ValueError is not a ValidationError, so it would escape here
            with pytest.raises(ValidationError) as raised:
                call()
            assert str(raised.value) == expected, name


    @pytest.mark.parametrize("strategy", ["linear_probe", "phgnn"])
    @pytest.mark.parametrize("fault", ["three-d", "nan", "inf", "not-numeric"])
    def test_malformed_features_rejected_before_any_epoch(self, tuning_setup, strategy, fault,
                                                          monkeypatch):
        ds, G, X, encoder, folds = tuning_setup
        bad, expected = X.copy(), "features contain non-finite values"
        if fault == "three-d":  # autodiff's ShapeError, not a ValidationError, at the parent
            bad, expected = X[None], "features: expected 2-D data, got ndim=3"
        elif fault == "not-numeric":
            bad = np.full(X.shape, "x", dtype=object)
            expected = "features: not numeric (could not convert string to float: 'x')"
        else:  # reported as divergence at epoch 0 by the parent
            bad[7, 3] = np.nan if fault == "nan" else -np.inf
        epochs = []
        monkeypatch.setattr(hglearn.prompt, "forward_backward", epochs.append)
        cfg = small_config(tune_epochs=1, strategy=strategy)
        result = TuneResult(strategy, {}, None, None, -1)
        calls = {
            "tune_with_strategy": lambda: tune_with_strategy(
                strategy, G, bad, ds.labels, folds.train_mask(0), folds.val_mask(0), encoder,
                cfg),
            "evaluate_snapshot": lambda: evaluate_snapshot(
                result, G, bad, ds.labels, folds.val_mask(0), encoder, cfg),
            "run_tune": lambda: run_tune(G, bad, ds.labels, encoder, cfg),
        }
        for name, call in calls.items():
            with pytest.raises(ValidationError) as raised:
                call()
            assert str(raised.value) == expected, name
        assert epochs == []


def two_forward_tune(strategy, G, X, labels, train_mask, val_mask, encoder, cfg):
    """The tuning loop with a fresh training forward every epoch and no cached Z.

    `linear_probe`'s fresh forward is the unfolded `classify(encode(op), head)`,
    the Z its cache stands for; every other strategy's is its own `logits`.
    """
    fold = _FoldState(_TuningRun(strategy, G, X, encoder, cfg))
    forward = fold.logits
    if strategy == "linear_probe":
        forward = lambda operator: classify(fold.encode(operator), fold.head)  # noqa: E731
    n, p_rows = X.shape[0], fold.run.prompt_rows
    y_pad = np.concatenate([labels, np.zeros(p_rows, dtype=np.int64)])
    mt_pad = np.concatenate([train_mask, np.zeros(p_rows, dtype=bool)])
    state, losses, reports = AdamWState(), [], []
    for _ in range(cfg.tune_epochs):
        _, operator = fold.epoch_structure()
        losses.append(forward_backward(
            ad.softmax_cross_entropy(forward(operator), y_pad, mt_pad)))
        adamw_step(fold.params, state, cfg.tune_lr, cfg.tune_weight_decay)
        reports.append(evaluate_logits(forward(operator).value[:n], labels, val_mask))
    return losses, reports


class TestEpochForwards:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_matches_a_fresh_forward_every_epoch(self, tuning_setup, strategy):
        ds, G, X, encoder, folds = tuning_setup
        # at this rate phgnn's token structure changes 3 times in 15 epochs
        cfg = small_config(tune_epochs=15, strategy=strategy, tune_lr=0.05)
        args = (G, X, ds.labels, folds.train_mask(0), folds.val_mask(0), encoder, cfg)
        result = tune_with_strategy(strategy, *args)
        losses, reports = two_forward_tune(strategy, *args)
        assert result.train_losses == losses
        # every epoch's BACC is the full report's, and the best epoch's report is kept whole
        assert result.val_bacc == [r.bacc for r in reports]
        best = max(range(len(reports)), key=lambda e: (reports[e].bacc, -e))
        assert result.best_epoch == best
        assert result.best_metrics == reports[best]

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_full_evaluation_only_at_new_best_epochs(self, tuning_setup, strategy, monkeypatch):
        ds, G, X, encoder, folds = tuning_setup
        evaluated = []
        evaluate = hglearn.prompt.evaluate_logits

        def counted(*args):
            evaluated.append(evaluate(*args))
            return evaluated[-1]
        monkeypatch.setattr(hglearn.prompt, "evaluate_logits", counted)
        # on this fold every strategy's validation BACC improves several times
        args = (G, X, ds.labels, folds.train_mask(4), folds.val_mask(4), encoder,
                small_config(tune_epochs=20, strategy=strategy))
        result = tune_with_strategy(strategy, *args)
        _, reports = two_forward_tune(strategy, *args)
        new_best = [e for e, r in enumerate(reports)
                    if all(r.bacc > earlier.bacc for earlier in reports[:e])]
        assert len(new_best) > 1
        assert evaluated == [reports[e] for e in new_best]
        assert evaluated[-1] is result.best_metrics and new_best[-1] == result.best_epoch

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_forwards_per_fold(self, tuning_setup, strategy, monkeypatch):
        ds, G, X, encoder, folds = tuning_setup
        calls = {"forward": 0}
        forward = hglearn.prompt.hgnn_forward_operator

        def counted(*args, **kwargs):
            calls["forward"] += 1
            return forward(*args, **kwargs)
        monkeypatch.setattr(hglearn.prompt, "hgnn_forward_operator", counted)
        token_grams = count_grams(monkeypatch, lambda g: g is not G)
        epochs = 9
        tune_with_strategy(strategy, G, X, ds.labels, folds.train_mask(0), folds.val_mask(0),
                           encoder, small_config(tune_epochs=epochs, strategy=strategy,
                                                 tune_lr=0.05))
        calls["token_block"] = len(token_grams)
        if strategy == "linear_probe":
            assert calls == {"forward": 1, "token_block": 0}
        elif strategy == "phgnn":
            # a fresh forward only at epochs whose token structure changed
            assert 1 < calls["token_block"] < epochs
            assert calls["forward"] == epochs + calls["token_block"]
        else:
            assert calls["forward"] == epochs + 1

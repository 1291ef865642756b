"""Prompt sub-hypergraph learning and the baseline tuning strategies.

A prompt is a small set of learnable token vectors living in the fused
feature space. Tokens get their own k-NN hyperedge structure (from the latest
token values at the start of every epoch), and each token is attached to the
data hypergraph through one hyperedge covering all data nodes. Tuning
optimizes only the tokens and the classification head, on a frozen copy of
the pretrained encoder.

Tuning builds the propagation operator of that manipulated hypergraph from
blocks, not from its whole edge gram, and applies it as blocks. Each
insertion hyperedge has N+1 members and adds one to every data node's
degree. So with N data nodes, P tokens, data incidence H (edge weights w,
W = diag(w), edge sizes D_e), prompt incidence H_p (w_p, W_p, D_e,p),
s_d = (H w + P)^{-1/2} and s_t = (H_p w_p + 1)^{-1/2}, the blocks are (s
scales rows and columns):

    data x data     D = s_d (H W D_e^{-1} H^T + P/(N+1)) s_d^T
    data x token    u v^T with u = s_d / (N+1), v = s_t   (rank one)
    token x token   T = s_t (H_p W_p D_e,p^{-1} H_p^T + I/(N+1)) s_t^T

and the operator maps [Y_d; Y_t] to [D Y_d + u (v^T Y_t); v (u^T Y_d) + T Y_t],
so no (N+P) x (N+P) array is formed. D is built once per fold from the data
hypergraph's gram, which the `Hypergraph` computes once; the token columns
[u v^T; T] only when the tokens' k-NN lists change. `hypergraph._normalized_gram`
builds D and T and knows nothing of prompts: the insertion constants above
(+P, +1, P/(N+1), I/(N+1), 1/(N+1)) live in `_StrategyState` alone.
`insert_prompt` builds the whole manipulated hypergraph by concatenating
member pairs; the tests use its operator as the oracle for the blocks.

Every strategy's encoder input is [X; 0], a zero row per prompt token, plus
one term L R for its extra parameter R: L = 1 for `gpf`, L = softmax(X B^T)
per row for `gpf_plus`, L = [0; I] for `phgnn` and `phgnn_no_structure`, and
no term for `finetune` and `linear_probe`. So the first encoder layer is
op [X W1; 0] + (op L)(R W1). Under a frozen encoder its fixed rows
op [X W1; 0] are formed once per operator, where the operator is built, and
an epoch computes only (op L)(R W1), with op L the per-fold D 1, the token
columns [u v^T; T], or op applied to the attention (`_StrategyState.encode`).
`finetune` trains W1 and forms (D X) W1.

The same epoch loop also drives the baselines: full fine-tuning, a linear
probe, and the additive feature-prompt baselines (a single shared vector, or
a basis with per-node softmax attention). `_STRATEGY_TABLE` is the one
place a strategy is defined; everything else reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from . import autodiff as ad
from .autodiff import (
    AdamWState,
    Parameter,
    ValidationError,
    adamw_step,
    check_finite,
    forward_backward,
)
from .hypergraph import (
    Hypergraph,
    _knn_members,
    _normalized_gram,
    knn_hyperedges,
    knn_neighbor_lists,
)
from .metrics import MetricsReport, evaluate_logits
from .model import HGNNStack, build_head, classify, hgnn_forward_operator

if TYPE_CHECKING:  # config imports STRATEGIES from here
    from .config import RunConfig

__all__ = [
    "STRATEGIES",
    "count_tunable_params",
    "TuneResult",
    "build_prompt_structure",
    "insert_prompt",
    "tune_with_strategy",
    "evaluate_snapshot",
]

# the head's width: labels are 0/1 and every metric is binary
_NUM_CLASSES = 2


@dataclass(frozen=True)
class _ExtraParam:
    """The one parameter R a strategy adds; the encoder input is [X; 0] + L R."""

    count_key: str  # its entry in the reported parameter counts
    name: str  # parameter and snapshot name
    rows: str | None  # RunConfig field holding the row count; None is one row
    init: Callable  # (rng, shape) -> initial value
    input_term: Callable  # (state, operator, R's leaf) -> op L


def _small_normal(rng, shape):
    return rng.normal(0.0, 0.02, size=shape)


def _zeros(rng, shape):
    return np.zeros(shape)


def _token_columns(run, operator, tokens):
    """L = [0; I]: R's rows are token nodes, and op L is the operator's token columns."""
    return operator.token_columns


def _row_sums(run, operator, vector):
    """L = 1: the per-fold D 1."""
    return run.d_ones


def _propagated_attention(run, operator, basis):
    """L = softmax(X B^T) per row, propagated."""
    return ad.propagate(operator, ad.row_softmax(ad.matmul(run.X, ad.transpose(basis))))


@dataclass(frozen=True)
class _Strategy:
    trains_encoder: bool = False
    extra: _ExtraParam | None = None
    # the tokens get k-NN hyperedges among themselves
    structured: bool = False


_TOKENS = _ExtraParam("prompt_tokens", "prompt.tokens", "num_prompts", _small_normal,
                      _token_columns)

_STRATEGY_TABLE = {
    "finetune": _Strategy(trains_encoder=True),
    "linear_probe": _Strategy(),
    "phgnn": _Strategy(extra=_TOKENS, structured=True),
    "phgnn_no_structure": _Strategy(extra=_TOKENS),
    "gpf": _Strategy(extra=_ExtraParam("prompt_vector", "gpf.vector", None, _zeros, _row_sums)),
    "gpf_plus": _Strategy(extra=_ExtraParam("prompt_basis", "gpf.basis", "gpf_basis",
                                          _small_normal, _propagated_attention)),
}

STRATEGIES = tuple(_STRATEGY_TABLE)


def _strategy_spec(name) -> _Strategy:
    try:
        return _STRATEGY_TABLE[name]
    except (KeyError, TypeError):
        raise ValidationError(f"unknown strategy {name!r}") from None


def _extra_rows(extra: _ExtraParam, cfg: RunConfig) -> int:
    """Rows of a strategy's extra parameter: one, or the `cfg` size it names."""
    return 1 if extra.rows is None else getattr(cfg, extra.rows)


def _size(params) -> int:
    return sum(p.size for p in params)


def count_tunable_params(strategy, encoder: HGNNStack, cfg: RunConfig):
    """Per-component trainable parameter counts for a tuning strategy.

    Returns (per_component dict, total). The extra parameter is as wide as
    the encoder input. The classifier head is trainable, and counted, under
    every strategy.
    """
    spec = _strategy_spec(strategy)
    counts = {"encoder": _size(encoder.parameters())} if spec.trains_encoder else {}
    if spec.extra is not None:
        counts[spec.extra.count_key] = _extra_rows(spec.extra, cfg) * encoder.input_dim
    counts["head"] = _size(build_head(encoder.output_dim, _NUM_CLASSES).parameters())
    return counts, sum(counts.values())


@dataclass
class TuneResult:
    strategy: str
    snapshot: dict
    prompt_structure: Hypergraph | None  # the best epoch's token structure, prompt strategies only
    best_metrics: MetricsReport
    best_epoch: int
    train_losses: list = field(default_factory=list)
    val_bacc: list = field(default_factory=list)


def build_prompt_structure(tokens, k_p: int) -> Hypergraph:
    """k-NN hyperedges among the prompt tokens (Euclidean on token vectors).

    This is `phgnn`'s token structure. `phgnn_no_structure` keeps its tokens
    as independent prompts, a hypergraph with zero hyperedges, which its
    tuning state builds itself.
    """
    t = ad.as_matrix(tokens, "tokens")
    if k_p >= t.shape[0]:
        raise ValidationError(f"prompt structure: k_p={k_p} must be < {t.shape[0]} tokens")
    return knn_hyperedges(t, k_p)


def _check_prompt(feature_dim, tokens, G_p: Hypergraph):
    """The shape checks of attaching the tokens and their structure G_p."""
    if tokens.shape[1] != feature_dim:
        raise ValidationError(
            f"token dim {tokens.shape[1]} does not match feature dim {feature_dim}"
        )
    if G_p.num_nodes != tokens.shape[0]:
        raise ValidationError(
            f"prompt structure covers {G_p.num_nodes} tokens, got {tokens.shape[0]}"
        )


def insert_prompt(G: Hypergraph, X, G_p: Hypergraph, tokens):
    """Attach the prompt sub-hypergraph to the data hypergraph.

    The manipulated hypergraph keeps every original hyperedge, adds the
    prompt-internal hyperedges, and adds one insertion hyperedge per token
    containing that token plus all N data nodes. Features are stacked with
    the token rows appended. Returns (G_m, X_m).
    """
    X = ad.as_matrix(X, "features")
    t = tokens.value if isinstance(tokens, Parameter) else ad.as_matrix(tokens, "tokens")
    n, d = X.shape
    p = t.shape[0]
    if p == 0:
        return G, X
    _check_prompt(d, t, G_p)
    e, e_p = G.num_edges, G_p.num_edges
    # token j's insertion hyperedge holds every data node, then node n + j
    inserted = np.column_stack([np.tile(np.arange(n), (p, 1)), n + np.arange(p)])
    nodes = np.concatenate([G.nodes, n + G_p.nodes, inserted.ravel()])
    edges = np.concatenate([G.edges, e + G_p.edges, np.repeat(e + e_p + np.arange(p), n + 1)])
    weights = np.concatenate([G.edge_weights, G_p.edge_weights, np.ones(p)])
    return Hypergraph(n + p, nodes, edges, weights), np.vstack([X, t])


def _validate_masks(labels, train_mask, val_mask):
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    mt = np.asarray(train_mask, dtype=bool).reshape(-1)
    mv = np.asarray(val_mask, dtype=bool).reshape(-1)
    n = y.shape[0]
    if mt.shape[0] != n or mv.shape[0] != n:
        raise ValidationError("mask length does not match label count")
    if not mt.any():
        raise ValidationError("training mask selects no nodes")
    if not mv.any():
        raise ValidationError("validation mask selects no nodes")
    if (mt & mv).any():
        raise ValidationError("training and validation masks overlap")
    return y, mt, mv


class _PromptedOperator:
    """The propagation matrix of the data hypergraph with a prompt attached, as blocks.

    [[D, u v^T], [v u^T, T]] with D the data block, u = s_d / (N+1), v = s_t
    and T the token block (see the module docstring). `@` applies it to an
    (N+P)-row array block by block, so no (N+P) x (N+P) array is formed.
    `fixed_rows` is this operator applied to [X W1; 0] for the fold's fixed
    features X and frozen W1, [D X W1; v u^T X W1], from the constants
    `dxw` = D X W1 and `uxw` = u^T X W1.
    """

    def __init__(self, data_block, u, v, token_block, dxw, uxw):
        self.data_block, self.u, self.v = data_block, u, v
        self.token_columns = np.vstack([u * v.T, token_block])  # [u v^T; T]
        self.shape = (self.token_columns.shape[0],) * 2
        self.fixed_rows = np.vstack([dxw, v @ uxw])

    def __matmul__(self, Y):
        n = self.u.shape[0]
        Y_d = Y[:n]
        out = self.token_columns @ Y[n:]
        out[:n] += self.data_block @ Y_d
        out[n:] += self.v * (self.u.T @ Y_d)
        return out


class _StrategyState:
    """One strategy's encoder, head, extra parameter, and forward pass on a fixed graph.

    The encoder is a copy of the caller's, trainable exactly when the strategy
    table says so, so tuning never touches the caller's parameters. The head
    starts at zero; only the extra parameter draws from `default_rng(cfg.seed)`.
    """

    def __init__(self, spec: _Strategy, G, X, pretrained: HGNNStack, cfg: RunConfig):
        self.spec = spec
        self.X = X
        self.encoder = encoder = pretrained.copy(trainable=spec.trains_encoder)
        self.prompt_k = cfg.prompt_k
        self.head = build_head(encoder.output_dim, _NUM_CLASSES)
        self.extra = None
        if spec.extra is not None:
            rows = _extra_rows(spec.extra, cfg)
            self.extra = Parameter(
                spec.extra.init(np.random.default_rng(cfg.seed), (rows, X.shape[1])),
                spec.extra.name,
            )
        self.params = ((encoder.parameters() if spec.trains_encoder else [])
                       + ([] if self.extra is None else [self.extra])
                       + self.head.parameters())
        p = self.prompt_rows = self.extra.value.shape[0] if spec.extra is _TOKENS else 0
        n = G.num_nodes
        # P insertion hyperedges of N+1 members: every degree + P, gram + P/(N+1)
        s_data, self.data_operator = _normalized_gram(G, p, p / (n + 1))
        self.border = s_data[:, None] / (n + 1)  # u of `_PromptedOperator`
        # the first layer's per-fold constants (see `encode`): D X, D 1, and,
        # read while W1 is frozen, D X W1 and u^T X W1
        w1 = encoder.layers[0].weight.value
        self.dx = self.data_operator @ X
        self.d_ones = self.data_operator.sum(axis=1, keepdims=True)
        self.dxw = self.dx @ w1
        self.uxw = self.border.T @ X @ w1
        # (token k-NN lists, G_p, operator) of the latest structure
        self.structure = (None, None, self.data_operator)
        if spec.extra is _TOKENS and not spec.structured:
            G_p = Hypergraph(p, [], [])
            self.structure = (None, G_p, self.operator(G_p))
        # nothing below the head trains (linear_probe): the encoder output is
        # one constant per fold, so the encoder runs once and only its value
        # stays on the tape
        self.frozen_z = None
        if not spec.trains_encoder and spec.extra is None:
            self.frozen_z = ad.const(self.encode(self.data_operator).value)

    def operator(self, G_p):
        """Propagation operator with the prompt structure G_p attached, if any.

        Equals `propagation_operator(insert_prompt(G, X, G_p, tokens)[0])`,
        applied as blocks around the fixed data block (see the module
        docstring).
        """
        if G_p is None:
            return self.data_operator
        _check_prompt(self.X.shape[1], self.extra.value, G_p)
        # each token's own insertion hyperedge: degree + 1, diagonal + 1/(N+1)
        s_tok, tok_block = _normalized_gram(G_p, 1, np.eye(G_p.num_nodes) / (self.X.shape[0] + 1))
        return _PromptedOperator(self.data_operator, self.border, s_tok[:, None], tok_block,
                                 self.dxw, self.uxw)

    def epoch_structure(self):
        """The prompt structure for the latest token values, and its operator.

        Under `phgnn` both are rebuilt when a token's set of k nearest
        neighbours changes and kept otherwise; every other strategy's are fixed
        per fold.
        """
        if self.spec.structured:
            # P tokens have at most P - 1 neighbours each; sorted, a row is the
            # member set of its token's hyperedge, whatever the distance order
            lists = np.sort(knn_neighbor_lists(self.extra.value,
                                               min(self.prompt_k, self.prompt_rows - 1)), axis=1)
            if not np.array_equal(lists, self.structure[0]):
                G_p = Hypergraph(self.prompt_rows, *_knn_members(lists, False)[:2])
                self.structure = (lists, G_p, self.operator(G_p))
        return self.structure[1:]

    def encode(self, operator):
        """The encoder's output; rows beyond the first n belong to prompt tokens.

        Its first layer is op [X W1; 0] + (op L)(R W1), or (D X) W1 when W1 trains.
        """
        w = self.encoder.layers[0].weight.leaf()
        if self.spec.trains_encoder:
            first = ad.matmul(self.dx, w)
        else:
            first = ad.const(self.dxw if operator is self.data_operator else operator.fixed_rows)
            if self.extra is not None:
                r = self.extra.leaf()
                first = ad.add(first, ad.matmul(self.spec.extra.input_term(self, operator, r),
                                                ad.matmul(r, w)))
        return hgnn_forward_operator(operator, None, self.encoder, first)

    def logits(self, operator):
        """Head logits; a frozen encoder output is reused, its operator the fixed one."""
        return classify(self.encode(operator) if self.frozen_z is None else self.frozen_z,
                        self.head)


def _snapshot_params(params) -> dict:
    return {p.name: p.value.copy() for p in params}


def tune_with_strategy(strategy, G, X, labels, train_mask, val_mask,
                       pretrained: HGNNStack, cfg: RunConfig) -> TuneResult:
    """Shared epoch loop for every tuning strategy.

    Reads `tune_epochs`, `tune_lr`, `tune_weight_decay`, `num_prompts`,
    `prompt_k`, `gpf_basis` and `seed` of `cfg`; the strategy is the
    `strategy` argument, not `cfg.strategy`. The run tunes its own copy of
    `pretrained`, whatever its `trainable` flags.

    Per epoch: (re)build the prompt structure where applicable, compute the
    training loss on the train mask, step AdamW over the strategy's trainable
    set, recompute predictions with the updated parameters, evaluate on the
    validation mask, and keep the best-validation snapshot (strictly better
    balanced accuracy; ties keep the earlier epoch). Those predictions are
    also the next epoch's training forward whenever its operator is the same
    object, since no parameter changes in between. A non-finite loss or
    updated parameter raises `ValidationError`.
    """
    spec = _strategy_spec(strategy)
    X = ad.as_matrix(X, "features")
    y, mt, mv = _validate_masks(labels, train_mask, val_mask)
    if y.shape[0] != G.num_nodes or X.shape[0] != G.num_nodes:
        raise ValidationError("labels/features do not match the hypergraph node count")
    run = _StrategyState(spec, G, X, pretrained, cfg)
    params = run.params
    n, p_rows = X.shape[0], run.prompt_rows
    y_pad = np.concatenate([y, np.zeros(p_rows, dtype=np.int64)])
    mt_pad = np.concatenate([mt, np.zeros(p_rows, dtype=bool)])
    state = AdamWState()
    result = TuneResult(
        strategy=strategy,
        snapshot=_snapshot_params(params),
        prompt_structure=None,
        best_metrics=None,
        best_epoch=-1,
    )
    best_bacc = -1.0
    logits, logits_operator = None, None
    # a diverging epoch is reported by check_finite, not by numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.tune_epochs):
            try:
                G_p, operator = run.epoch_structure()
            except ValidationError as e:  # token distances past float64, its only cause
                raise ValidationError(
                    f"tune diverged: prompt token distances non-finite at epoch {epoch}"
                ) from e
            if operator is not logits_operator:
                logits = run.logits(operator)
            # no name keeps the loss, so at most two graphs are alive at once
            result.train_losses.append(
                forward_backward(ad.softmax_cross_entropy(logits, y_pad, mt_pad)))
            adamw_step(params, state, cfg.tune_lr, cfg.tune_weight_decay)
            check_finite("tune", epoch, result.train_losses[-1], params)
            # post-update predictions on the same structure, per the tuning loop
            logits, logits_operator = run.logits(operator), operator
            report = evaluate_logits(logits.value[:n], y, mv)
            result.val_bacc.append(report.bacc)
            if report.bacc > best_bacc:
                best_bacc = report.bacc
                result.best_epoch = epoch
                result.best_metrics = report
                result.snapshot = _snapshot_params(params)
                result.prompt_structure = G_p  # read-only, so kept without a copy
    return result


def evaluate_snapshot(result: TuneResult, G, X, labels, mask,
                      pretrained: HGNNStack, cfg: RunConfig) -> MetricsReport:
    """Re-evaluate a stored snapshot on a mask, reproducing its metrics.

    The snapshot must hold exactly the strategy's trainable parameters, each
    in the shape `cfg` and `pretrained` give it, and a prompt structure
    exactly when the strategy attaches tokens, with one hyperedge per token
    for `phgnn` and none for `phgnn_no_structure`; anything else raises
    `ValidationError`. The structure is reused as-is (the epoch loop
    evaluates post-update token values under the structure built from the
    pre-update ones, so the structure is part of the snapshot).
    """
    spec = _strategy_spec(result.strategy)
    X = ad.as_matrix(X, "features")
    run = _StrategyState(spec, G, X, pretrained, cfg)
    trained = {p.name: p for p in run.params}
    missing = sorted(trained.keys() - result.snapshot.keys())
    unexpected = sorted(result.snapshot.keys() - trained.keys())
    if missing or unexpected:
        raise ValidationError(f"snapshot does not match {result.strategy}'s trainable set: "
                              f"missing {missing}, unexpected {unexpected}")
    for name, p in trained.items():
        value = result.snapshot[name]
        if np.shape(value) != p.value.shape:
            raise ValidationError(f"snapshot: {name} has shape {np.shape(value)}, "
                                  f"{result.strategy} needs {p.value.shape}")
        p.value[:] = value
    G_p = result.prompt_structure
    if (G_p is not None) != (spec.extra is _TOKENS):
        raise ValidationError(f"snapshot: {result.strategy} needs "
                              f"{'a' if spec.extra is _TOKENS else 'no'} prompt structure")
    # one k-NN hyperedge per token when structured, none otherwise
    expected = run.prompt_rows if spec.structured else 0
    if G_p is not None and G_p.num_edges != expected:
        raise ValidationError(f"snapshot: {result.strategy} needs {expected} prompt "
                              f"hyperedges, the structure has {G_p.num_edges}")
    return evaluate_logits(run.logits(run.operator(G_p)).value[: X.shape[0]], labels, mask)

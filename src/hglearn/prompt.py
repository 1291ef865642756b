"""Prompt sub-hypergraph learning and the baseline tuning strategies.

A prompt is a small set of learnable token vectors living in the fused
feature space. Tokens get their own k-NN hyperedge structure (recomputed
from the latest token values at the start of every epoch), and each token is
attached to the data hypergraph through one hyperedge covering all data
nodes. Tuning optimizes only the tokens and the classification head, on a
frozen copy of the pretrained encoder.

Tuning builds the propagation operator of that manipulated hypergraph from
blocks, not from its whole edge gram. Each insertion hyperedge has N+1
members and adds one to every data node's degree. So with N data nodes,
P tokens, data incidence H (edge weights w, W = diag(w), edge sizes D_e),
prompt incidence H_p (w_p, W_p, D_e,p), s_d = (H w + P)^{-1/2} and
s_t = (H_p w_p + 1)^{-1/2}, the blocks are (s scales rows and columns):

    data x data     s_d (H W D_e^{-1} H^T + P/(N+1)) s_d^T
    data x token    s_d s_t^T / (N+1)                  (rank one)
    token x token   s_t (H_p W_p D_e,p^{-1} H_p^T + I/(N+1)) s_t^T

The data block is built once per fold from the data hypergraph's gram, which
the `Hypergraph` computes once; the border and the P x P token block only
when the token k-NN structure changes. `hypergraph._normalized_gram` builds
both diagonal blocks and knows nothing of prompts: the insertion constants
above (+P, +1, P/(N+1), I/(N+1), 1/(N+1)) live in `_StrategyState` alone.
`insert_prompt` builds the whole manipulated hypergraph by concatenating
member pairs; the tests use its operator as the oracle for the blocks.

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
from .hypergraph import Hypergraph, _normalized_gram, knn_hyperedges
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
    """The one parameter a strategy adds next to the encoder and head."""

    count_key: str  # its entry in the reported parameter counts
    name: str  # parameter and snapshot name
    rows: str | None  # RunConfig field holding the row count; None is one row
    init: Callable  # (rng, shape) -> initial value


@dataclass(frozen=True)
class _Strategy:
    trains_encoder: bool = False
    extra: _ExtraParam | None = None
    # (features, extra parameter leaf or None) -> encoder input
    transform: Callable = lambda X, extra: X
    # the extra rows are token nodes attached to the hypergraph
    prompt_tokens: bool = False
    # the tokens get k-NN hyperedges among themselves
    structured: bool = False


def _small_normal(rng, shape):
    return rng.normal(0.0, 0.02, size=shape)


def _zeros(rng, shape):
    return np.zeros(shape)


def _attend_basis(X, basis):
    attn = ad.row_softmax(ad.matmul(X, ad.transpose(basis)))
    return ad.add(ad.const(X), ad.matmul(attn, basis))


_TOKENS = _ExtraParam("prompt_tokens", "prompt.tokens", "num_prompts", _small_normal)

_STRATEGY_TABLE = {
    "finetune": _Strategy(trains_encoder=True),
    "linear_probe": _Strategy(),
    "phgnn": _Strategy(extra=_TOKENS, transform=ad.concat_rows, prompt_tokens=True,
                      structured=True),
    "phgnn_no_structure": _Strategy(extra=_TOKENS, transform=ad.concat_rows,
                                   prompt_tokens=True),
    "gpf": _Strategy(extra=_ExtraParam("prompt_vector", "gpf.vector", None, _zeros),
                    transform=ad.broadcast_add_row),
    "gpf_plus": _Strategy(extra=_ExtraParam("prompt_basis", "gpf.basis", "gpf_basis",
                                          _small_normal),
                         transform=_attend_basis),
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


def build_prompt_structure(tokens, k_p: int, structured: bool = True) -> Hypergraph:
    """k-NN hyperedges among the prompt tokens (Euclidean on token vectors).

    Unstructured mode keeps the tokens as independent prompts: a hypergraph
    with zero hyperedges.
    """
    t = ad.as_matrix(tokens, "tokens")
    p = t.shape[0]
    if not structured:
        return Hypergraph(p, [], [])
    if k_p >= p:
        raise ValidationError(f"prompt structure: k_p={k_p} must be < {p} tokens")
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
        p = self.prompt_rows = self.extra.value.shape[0] if spec.prompt_tokens else 0
        # P insertion hyperedges of N+1 members: every degree + P, gram + P/(N+1)
        self.s_data, self.data_operator = _normalized_gram(G, p, p / (G.num_nodes + 1))
        self.last_prompt = (None, None)  # (G_p, operator) of the latest call
        # nothing below the head trains (linear_probe): the encoder output is
        # one constant per fold, so the encoder runs once and only its value
        # stays on the tape
        self.frozen_z = None
        if not spec.trains_encoder and spec.extra is None:
            self.frozen_z = ad.const(hgnn_forward_operator(self.data_operator, X, encoder).value)

    def operator(self, G_p):
        """Propagation matrix with the prompt structure G_p attached, if any.

        Equals `propagation_operator(insert_prompt(G, X, G_p, tokens)[0])`,
        built from the fixed data block (see the module docstring). It
        depends on G_p alone, so an unchanged G_p returns the last matrix.
        """
        if G_p is None:
            return self.data_operator
        _check_prompt(self.X.shape[1], self.extra.value, G_p)
        last, op = self.last_prompt
        if last is not None and all(np.array_equal(getattr(G_p, f), getattr(last, f))
                                    for f in ("nodes", "edges", "edge_weights")):
            return op
        n = self.X.shape[0]
        # each token's own insertion hyperedge: degree + 1, diagonal + 1/(N+1)
        s_tok, tok_block = _normalized_gram(G_p, 1, np.eye(G_p.num_nodes) / (n + 1))
        border = self.s_data[:, None] / (n + 1) * s_tok[None, :]
        op = np.block([[self.data_operator, border], [border.T, tok_block]])
        self.last_prompt = (G_p, op)
        return op

    def epoch_structure(self):
        """Prompt-internal hyperedges from the latest token values."""
        G_p = None
        if self.spec.prompt_tokens:
            # P tokens have at most P - 1 neighbours each
            k_p = min(self.prompt_k, self.prompt_rows - 1)
            G_p = build_prompt_structure(self.extra.value, k_p, self.spec.structured)
        return G_p, self.operator(G_p)

    def logits(self, operator):
        """Forward pass; rows beyond the first n belong to prompt tokens.

        A frozen encoder output is reused; its operator is the fixed one.
        """
        z = self.frozen_z
        if z is None:
            extra = None if self.extra is None else self.extra.leaf()
            x = self.spec.transform(self.X, extra)
            z = hgnn_forward_operator(operator, x, self.encoder)
        return classify(z, self.head)


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
    if (G_p is not None) != spec.prompt_tokens:
        raise ValidationError(f"snapshot: {result.strategy} needs "
                              f"{'a' if spec.prompt_tokens else 'no'} prompt structure")
    # one k-NN hyperedge per token when structured, none otherwise
    expected = run.prompt_rows if spec.structured else 0
    if G_p is not None and G_p.num_edges != expected:
        raise ValidationError(f"snapshot: {result.strategy} needs {expected} prompt "
                              f"hyperedges, the structure has {G_p.num_edges}")
    return evaluate_logits(run.logits(run.operator(G_p)).value[: X.shape[0]], labels, mask)

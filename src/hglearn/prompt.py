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
so no (N+P) x (N+P) array is formed. D is built once per tuning run from the
data hypergraph's gram, which the `Hypergraph` computes once; the token columns
[u v^T; T] only when the tokens' k-NN lists change. `hypergraph._normalized_gram`
builds D and T and knows nothing of prompts: the insertion constants above
(+P, +1, P/(N+1), I/(N+1), 1/(N+1)) live in `_TuningRun` alone.
`insert_prompt` builds the whole manipulated hypergraph by concatenating
member pairs; the tests use its operator as the oracle for the blocks.

Every strategy's encoder input is [X; 0], a zero row per prompt token, plus
one term L R for its extra parameter R: L = 1 for `gpf`, L = softmax(X B^T)
per row for `gpf_plus`, L = [0; I] for `phgnn` and `phgnn_no_structure`, and
no term for `finetune` and `linear_probe`. So the first encoder layer is
op [X W1; 0] + (op L)(R W1), formed by `model.with_input_term`, the one
place pretraining and tuning form it. Under a frozen encoder its fixed rows
op [X W1; 0] are formed once per operator, where the operator is built, and
an epoch computes only (op L)(R W1), with op L the run's D 1, the token
columns [u v^T; T], or op applied to the attention (`_FoldState.encode`).
`finetune` trains W1 and forms (D X) W1.

Every strategy whose encoder runs each epoch (all but `linear_probe`, whose
encoder output is one constant per run) reads its logits with the head
folded into the encoder's last layer, op h (W2 W_head) + (b2 W_head +
b_head), so that layer's N x N products run over the head's two columns
(`model.hgnn_forward_operator`).

A tuning run is split in two: `_TuningRun` holds what every fold shares (the
strategy, X, D and the other constants above) and is built once per
`pipeline.run_tune`; `_FoldState` holds what a fold trains (the encoder copy,
the head, the extra parameter) and `phgnn`'s latest token structure.

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
    ShapeError,
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
from .metrics import MetricsReport, balanced_accuracy, evaluate_logits
from .model import HGNNStack, build_head, classify, hgnn_forward_operator, with_input_term

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
    init_std: float  # R starts at normal(0, init_std) draws; 0 gives exact +0.0
    input_term: Callable  # (run, operator, R's leaf) -> op L


def _token_columns(run, operator, tokens):
    """L = [0; I]: R's rows are token nodes, and op L is the operator's token columns."""
    return operator.token_columns


def _row_sums(run, operator, vector):
    """L = 1: the run's D 1."""
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


_TOKENS = _ExtraParam("prompt_tokens", "prompt.tokens", "num_prompts", 0.02, _token_columns)

_STRATEGY_TABLE = {
    "finetune": _Strategy(trains_encoder=True),
    "linear_probe": _Strategy(),
    "phgnn": _Strategy(extra=_TOKENS, structured=True),
    "phgnn_no_structure": _Strategy(extra=_TOKENS),
    "gpf": _Strategy(extra=_ExtraParam("prompt_vector", "gpf.vector", None, 0.0, _row_sums)),
    "gpf_plus": _Strategy(extra=_ExtraParam("prompt_basis", "gpf.basis", "gpf_basis", 0.02,
                                          _propagated_attention)),
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
    if t.shape[1] != d:
        raise ValidationError(f"token dim {t.shape[1]} does not match feature dim {d}")
    if G_p.num_nodes != p:
        raise ValidationError(f"prompt structure covers {G_p.num_nodes} tokens, got {p}")
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
    # every epoch's BACC divides by the validation rows of each class
    if not ((y[mv] == 0).any() and (y[mv] == 1).any()):
        raise ValidationError("validation mask holds a single class")
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


class _TuningRun:
    """A tuning run's fold-independent part: the strategy, `X`, and every constant they fix.

    Built once per `run_tune`, `tune_with_strategy` or `evaluate_snapshot`
    call, and shared by its folds; nothing in it changes during tuning. It is
    the one check site of those entry points: it resolves the strategy name,
    coerces `X`, and raises `ValidationError` unless `X` is a finite matrix
    with a row per node of `G` and a column per input of `pretrained`.

    It holds the data block D and u of `_PromptedOperator`, the first layer's
    constants under the pretrained W1 (see `_FoldState.encode`), the operator
    of a structure that never changes (`phgnn_no_structure`'s), the encoder
    output when nothing below the head trains (`linear_probe`'s Z), and the
    extra parameter's initial value, drawn from `default_rng(cfg.seed)`.
    """

    def __init__(self, strategy, G, X, pretrained: HGNNStack, cfg: RunConfig):
        self.strategy = strategy
        self.spec = spec = _strategy_spec(strategy)
        try:
            X = ad.as_matrix(X, "features")
        except ShapeError as e:  # neither 1-D nor 2-D
            raise ValidationError(str(e)) from None
        except (TypeError, ValueError) as e:
            raise ValidationError(f"features: not numeric ({e})") from None
        if X.shape[0] != G.num_nodes:
            raise ValidationError("labels/features do not match the hypergraph node count")
        if X.shape[1] != pretrained.input_dim:
            raise ValidationError(f"checkpoint expects {pretrained.input_dim} fused features, "
                                  f"dataset has {X.shape[1]}")
        if not np.isfinite(X).all():
            raise ValidationError("features contain non-finite values")
        self.X, self.pretrained, self.cfg = X, pretrained, cfg
        self.extra_init = None
        if spec.extra is not None:
            shape = (_extra_rows(spec.extra, cfg), X.shape[1])
            self.extra_init = np.random.default_rng(cfg.seed).normal(
                0.0, spec.extra.init_std, shape)
        p = self.prompt_rows = self.extra_init.shape[0] if spec.extra is _TOKENS else 0
        n = G.num_nodes
        # P insertion hyperedges of N+1 members: every degree + P, gram + P/(N+1)
        s_data, self.data_operator = _normalized_gram(G, p, p / (n + 1))
        self.border = s_data[:, None] / (n + 1)  # u of `_PromptedOperator`
        # the first layer's constants: D X, D 1, and, read while W1 is
        # frozen, D X W1 and u^T X W1
        w1 = pretrained.layers[0].weight.value
        self.dx = self.data_operator @ X
        self.d_ones = self.data_operator.sum(axis=1, keepdims=True)
        self.dxw = self.dx @ w1
        self.uxw = self.border.T @ X @ w1
        # (token k-NN lists, G_p, operator) of the structure each fold starts from
        self.structure = (None, None, self.data_operator)
        if spec.extra is _TOKENS and not spec.structured:
            G_p = Hypergraph(p, [], [])
            self.structure = (None, G_p, self.operator(G_p))
        # nothing below the head trains (linear_probe): the encoder output is
        # one constant per run, so the encoder runs once and only its value
        # stays on the tape
        self.frozen_z = None
        if not spec.trains_encoder and spec.extra is None:
            self.frozen_z = ad.const(hgnn_forward_operator(
                self.data_operator, None, pretrained, ad.const(self.dxw)).value)

    def operator(self, G_p):
        """Propagation operator with the prompt structure G_p attached, if any.

        Equals `propagation_operator(insert_prompt(G, X, G_p, tokens)[0])`,
        applied as blocks around the fixed data block (see the module
        docstring). G_p fits the tokens: built from them, or checked by `evaluate_snapshot`.
        """
        if G_p is None:
            return self.data_operator
        # each token's own insertion hyperedge: degree + 1, diagonal + 1/(N+1)
        s_tok, tok_block = _normalized_gram(G_p, 1, np.eye(G_p.num_nodes) / (self.X.shape[0] + 1))
        return _PromptedOperator(self.data_operator, self.border, s_tok[:, None], tok_block,
                                 self.dxw, self.uxw)


class _FoldState:
    """One fold's encoder, head and extra parameter, and their forward pass on the run's graph.

    The encoder is a copy of the run's pretrained one, trainable exactly when
    the strategy table says so, so tuning never touches the caller's
    parameters. The head starts at zero and the extra parameter at the run's
    initial value. Under `phgnn` it also keeps the latest token structure.
    """

    def __init__(self, run: _TuningRun):
        self.run = run
        spec = run.spec
        self.encoder = encoder = run.pretrained.copy(trainable=spec.trains_encoder)
        self.head = build_head(encoder.output_dim, _NUM_CLASSES)
        self.extra = None
        if spec.extra is not None:
            self.extra = Parameter(run.extra_init.copy(), spec.extra.name)
        self.params = ((encoder.parameters() if spec.trains_encoder else [])
                       + ([] if self.extra is None else [self.extra])
                       + self.head.parameters())
        self.structure = run.structure

    def epoch_structure(self):
        """The prompt structure for the latest token values, and its operator.

        Under `phgnn` both are rebuilt when a token's set of k nearest
        neighbours changes and kept otherwise; every other strategy's are the
        run's.
        """
        run = self.run
        if run.spec.structured:
            # P tokens have at most P - 1 neighbours each; sorted, a row is the
            # member set of its token's hyperedge, whatever the distance order
            lists = np.sort(knn_neighbor_lists(self.extra.value,
                                               min(run.cfg.prompt_k, run.prompt_rows - 1)),
                            axis=1)
            if not np.array_equal(lists, self.structure[0]):
                G_p = Hypergraph(run.prompt_rows, *_knn_members(lists, False)[:2])
                self.structure = (lists, G_p, run.operator(G_p))
        return self.structure[1:]

    def encode(self, operator, head=None):
        """The encoder's output, or its logits under `head`; rows past n are prompt tokens.

        Its first layer is op [X W1; 0] + (op L)(R W1), or (D X) W1 when W1
        trains. A `head` is folded into the last layer (`hgnn_forward_operator`).
        """
        run, spec = self.run, self.run.spec
        w = self.encoder.layers[0].weight.leaf()
        if spec.trains_encoder:
            first = ad.matmul(run.dx, w)
        else:
            first = ad.const(run.dxw if operator is run.data_operator else operator.fixed_rows)
            if self.extra is not None:
                r = self.extra.leaf()
                first = with_input_term(first, spec.extra.input_term(run, operator, r), r, w)
        return hgnn_forward_operator(operator, None, self.encoder, first, head)

    def logits(self, operator):
        """Head logits; a frozen encoder output is reused, its operator the fixed one."""
        if self.run.frozen_z is not None:
            return classify(self.run.frozen_z, self.head)
        return self.encode(operator, self.head)


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
    set, recompute predictions with the updated parameters, score their
    validation BACC (`metrics.balanced_accuracy`), and keep the
    best-validation snapshot (strictly better BACC; ties keep the earlier
    epoch). Only an epoch that sets a new best is evaluated in full
    (`evaluate_logits`, with AUC, SEN and SPE), and that report is
    `best_metrics`. Those predictions are also the next epoch's training
    forward whenever its operator is the same object, since no parameter
    changes in between. `_TuningRun` checks the strategy name and `X`, this
    function the labels and masks: a bad one of these, or a non-finite loss
    or updated parameter, raises `ValidationError`. It is one fold of a run:
    `pipeline.run_tune` builds the `_TuningRun` once for all its folds.
    """
    return _tune_fold(_TuningRun(strategy, G, X, pretrained, cfg), labels, train_mask, val_mask)


def _tune_fold(run: _TuningRun, labels, train_mask, val_mask) -> TuneResult:
    """`tune_with_strategy`'s epoch loop on one fold of a run."""
    y, mt, mv = _validate_masks(labels, train_mask, val_mask)
    n, p_rows, cfg = run.X.shape[0], run.prompt_rows, run.cfg
    if y.shape[0] != n:
        raise ValidationError("labels/features do not match the hypergraph node count")
    fold = _FoldState(run)
    params = fold.params
    y_pad = np.concatenate([y, np.zeros(p_rows, dtype=np.int64)])
    mt_pad = np.concatenate([mt, np.zeros(p_rows, dtype=bool)])
    state = AdamWState()
    result = TuneResult(
        strategy=run.strategy,
        snapshot=_snapshot_params(params),
        prompt_structure=None,
        best_metrics=None,
        best_epoch=-1,
    )
    best_bacc = -1.0
    val_rows, y_val = np.flatnonzero(mv), y[mv]
    logits, logits_operator = None, None
    # a diverging epoch is reported by check_finite, not by numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.tune_epochs):
            try:
                G_p, operator = fold.epoch_structure()
            except ValidationError as e:  # token distances past float64, its only cause
                raise ValidationError(
                    f"tune diverged: prompt token distances non-finite at epoch {epoch}"
                ) from e
            if operator is not logits_operator:
                logits = fold.logits(operator)
            # no name keeps the loss, so at most two graphs are alive at once
            result.train_losses.append(
                forward_backward(ad.softmax_cross_entropy(logits, y_pad, mt_pad)))
            adamw_step(params, state, cfg.tune_lr, cfg.tune_weight_decay)
            check_finite("tune", epoch, result.train_losses[-1], params)
            # post-update predictions on the same structure, per the tuning loop
            logits, logits_operator = fold.logits(operator), operator
            bacc = balanced_accuracy(logits.value[val_rows], y_val)[0]
            result.val_bacc.append(bacc)
            if bacc > best_bacc:
                best_bacc = bacc
                result.best_epoch = epoch
                result.best_metrics = evaluate_logits(logits.value[:n], y, mv)
                result.snapshot = _snapshot_params(params)
                result.prompt_structure = G_p  # read-only, so kept without a copy
    return result


def evaluate_snapshot(result: TuneResult, G, X, labels, mask,
                      pretrained: HGNNStack, cfg: RunConfig) -> MetricsReport:
    """Re-evaluate a stored snapshot on a mask, reproducing its metrics.

    `_TuningRun` checks the strategy name and `X` as for tuning. The
    snapshot must hold exactly the strategy's trainable parameters, each in
    the shape `cfg` and `pretrained` give it, and a prompt structure exactly
    when the strategy attaches tokens, with a node per token and one
    hyperedge per token for `phgnn`, none for `phgnn_no_structure`; anything
    else raises `ValidationError`. The structure is reused as-is (the epoch
    loop evaluates post-update token values under the structure built from
    the pre-update ones, so the structure is part of the snapshot).
    """
    run = _TuningRun(result.strategy, G, X, pretrained, cfg)
    fold = _FoldState(run)
    trained = {p.name: p for p in fold.params}
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
    if (G_p is not None) != (run.prompt_rows > 0):
        raise ValidationError(f"snapshot: {result.strategy} needs "
                              f"{'a' if run.prompt_rows else 'no'} prompt structure")
    # one k-NN hyperedge per token when structured, none otherwise
    expected = run.prompt_rows if run.spec.structured else 0
    if G_p is not None and G_p.num_edges != expected:
        raise ValidationError(f"snapshot: {result.strategy} needs {expected} prompt "
                              f"hyperedges, the structure has {G_p.num_edges}")
    if G_p is not None and G_p.num_nodes != run.prompt_rows:
        raise ValidationError(f"prompt structure covers {G_p.num_nodes} tokens, "
                              f"got {run.prompt_rows}")
    return evaluate_logits(fold.logits(run.operator(G_p)).value[: G.num_nodes], labels, mask)

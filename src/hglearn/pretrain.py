"""Self-supervised pretraining: node masking, latent re-masking, cosine loss.

Each epoch draws a fresh node mask, replaces the masked feature rows with a
learnable input token, encodes, replaces the masked latent rows with a second
learnable token, decodes, and penalizes the reconstruction of the masked rows
with a scaled cosine error. Encoder, decoder, and both tokens train jointly.

An epoch forms only the rows the next step reads (`reconstruction_loss`).
With K the kept rows, M the masked rows, t_in and t_lat the two tokens, the
symmetric operator `op` and u = op 1_M (one matrix-vector product):

- Encoder layer 1 forms all N rows as (op[:, K] X[K]) W1 + u (t_in W1). The
  masked input is X on K and t_in on M, so this is op @ input @ W1 split by
  rows; it is the tuning rule op [X W1; 0] + (op L)(R W1) with L = 1_M and
  R = t_in. X is constant, so op[:, K] X[K] is one constant product and
  t_in's gradient is u^T G W1^T, with no N x N backward.
- Middle layers form all N rows, as in `model.hgnn_forward_operator`.
- The encoder's last layer forms the K rows only, op[K, :] (h W_L): the M
  rows of the latent are overwritten by t_lat, so nothing reads them.
- The decoder forms the M rows only, op[M, K] (z_K W_d) + u[M] (t_lat W_d),
  and the loss reads exactly those rows.
- A one-layer encoder's layer 1 is its last: op[K, K] X[K] W1 + u[K] (t_in W1).

Each token term u (t W) is added by `model.with_input_term`, the one place
pretraining and tuning form the rule's input term.

Each of these is the full-row expression restricted to rows whose values
the loss reads, so loss and gradients are those of the masked form (masked
input, N-row encoder, masked latent, N-row decoder) up to rounding. `op` is
symmetric, so op[:, K] is op[K, :]^T, a view of the gathered rows, and
op[M, K] is a row gather of that view. The row slices are not symmetric;
they are applied as constant matrices by `autodiff.matmul`, whose backward
multiplies by their transpose, never by `autodiff.propagate`, whose
backward assumes a symmetric operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
from .config import RunConfig
from .hypergraph import Hypergraph, propagation_operator
from .model import (
    HGNNStack,
    _activate,
    _propagated_product,
    build_decoder,
    build_encoder,
    hgnn_forward_operator,
    with_input_term,
)

__all__ = [
    "MaskTokens",
    "PretrainResult",
    "sample_mask",
    "reconstruction_loss",
    "pretrain",
]


@dataclass
class MaskTokens:
    input_token: Parameter
    latent_token: Parameter

    def parameters(self) -> list[Parameter]:
        return [self.input_token, self.latent_token]


@dataclass
class PretrainResult:
    encoder: HGNNStack
    decoder: HGNNStack
    mask_tokens: MaskTokens
    losses: list = field(default_factory=list)


def sample_mask(num_nodes: int, mask_ratio: float, rng) -> np.ndarray:
    """floor(mask_ratio * num_nodes) distinct node indices, uniform without replacement."""
    if not 0.0 <= mask_ratio < 1.0:
        raise ValidationError(f"mask_ratio must be in [0, 1), got {mask_ratio}")
    count = math.floor(mask_ratio * num_nodes)
    picked = rng.choice(num_nodes, size=count, replace=False)
    return np.sort(picked.astype(np.intp))


def reconstruction_loss(operator, X, masked, encoder: HGNNStack, decoder: HGNNStack,
                        tokens: MaskTokens, gamma: float):
    """The scaled cosine error of one epoch's node mask, formed on the rows it reads.

    `operator` is the symmetric N x N propagation matrix, `X` the N x d
    features and `masked` the sorted masked rows, at least one, that leave
    at least one row kept. See the module docstring for the rows each layer
    forms. The decoder must be one layer (`model.build_decoder`); any other
    raises `ValidationError`.
    """
    if len(decoder.layers) != 1:
        raise ValidationError(
            f"reconstruction_loss: the decoder has {len(decoder.layers)} layers, needs 1")
    n = X.shape[0]
    keep = np.ones(n, dtype=bool)
    keep[masked] = False
    kept = np.flatnonzero(keep)
    u = operator @ (~keep).astype(np.float64)[:, None]  # op 1_M
    rows = operator[kept]  # op[K, :]; op[:, K] is rows.T
    w1 = encoder.layers[0].weight.leaf()
    if len(encoder.layers) == 1:  # layer 1 is the last: its K rows
        x_operator, u_in = rows[:, kept], u[kept]
    else:
        x_operator, u_in = rows.T, u
    first = with_input_term(ad.matmul(x_operator @ X[kept], w1), u_in,
                            tokens.input_token.leaf(), w1)
    z_kept = hgnn_forward_operator(operator, None, encoder, first, last_rows=rows)
    layer = decoder.layers[0]
    w_d = layer.weight.leaf()
    product = _propagated_product(ad.const(rows.T[masked]), z_kept, w_d)  # op[M, K]
    recon = _activate(with_input_term(product, u[masked], tokens.latent_token.leaf(), w_d), layer)
    return ad.sce_loss(X[masked], recon, np.arange(masked.size), gamma)


def pretrain(G: Hypergraph, X, cfg: RunConfig) -> PretrainResult:
    """Train encoder, decoder, and mask tokens; returns them with the loss curve.

    Reads the model sizes, `mask_ratio`, `sce_gamma`, `pretrain_epochs`,
    `pretrain_lr`, `pretrain_weight_decay` and `seed` of `cfg`.
    """
    X = ad.as_matrix(X, "features")
    n, d = X.shape
    if n != G.num_nodes:
        raise ValidationError(f"pretrain: {n} feature rows for {G.num_nodes} nodes")
    if cfg.pretrain_epochs > 0 and math.floor(cfg.mask_ratio * n) < 1:
        raise ValidationError(
            f"pretrain: mask_ratio {cfg.mask_ratio} masks no nodes out of {n}"
        )
    rng = np.random.default_rng(cfg.seed)
    encoder = build_encoder(d, cfg.hidden_dims, cfg.latent_dim, rng)
    decoder = build_decoder(cfg.latent_dim, d, rng)
    tokens = MaskTokens(
        Parameter(np.zeros((1, d)), "mask.input_token"),
        Parameter(np.zeros((1, cfg.latent_dim)), "mask.latent_token"),
    )
    params = encoder.parameters() + decoder.parameters() + tokens.parameters()
    state = AdamWState()
    operator = propagation_operator(G)
    losses = []
    # a diverging epoch is reported by check_finite, not by numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.pretrain_epochs):
            masked = sample_mask(n, cfg.mask_ratio, rng)
            losses.append(forward_backward(reconstruction_loss(
                operator, X, masked, encoder, decoder, tokens, cfg.sce_gamma)))
            adamw_step(params, state, cfg.pretrain_lr, cfg.pretrain_weight_decay)
            check_finite("pretrain", epoch, losses[-1], params)
    return PretrainResult(encoder, decoder, tokens, losses)

"""Self-supervised pretraining: node masking, latent re-masking, cosine loss.

Each epoch draws a fresh node mask, replaces the masked feature rows with a
learnable input token, encodes, replaces the masked latent rows with a second
learnable token, decodes, and penalizes the reconstruction of the masked rows
with a scaled cosine error. Encoder, decoder, and both tokens train jointly.
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
from .model import HGNNStack, build_decoder, build_encoder, hgnn_forward_operator

__all__ = [
    "MaskTokens",
    "PretrainResult",
    "sample_mask",
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
            x_masked = ad.mask_rows(X, masked, tokens.input_token.leaf())
            z = hgnn_forward_operator(operator, x_masked, encoder)
            z_masked = ad.mask_rows(z, masked, tokens.latent_token.leaf())
            recon = hgnn_forward_operator(operator, z_masked, decoder)
            loss = ad.sce_loss(X, recon, masked, cfg.sce_gamma)
            losses.append(forward_backward(loss))
            adamw_step(params, state, cfg.pretrain_lr, cfg.pretrain_weight_decay)
            check_finite("pretrain", epoch, losses[-1], params)
    return PretrainResult(encoder, decoder, tokens, losses)

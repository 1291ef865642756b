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
from .autodiff import AdamWState, Parameter, Tensor, ValidationError, adamw_step, forward_backward
from .hypergraph import Hypergraph, propagation_operator
from .model import HGNNStack, build_decoder, build_encoder, hgnn_forward_operator

__all__ = [
    "MaskTokens",
    "PretrainConfig",
    "PretrainResult",
    "sample_mask",
    "sce_loss",
    "pretrain",
]


@dataclass
class MaskTokens:
    input_token: Parameter
    latent_token: Parameter

    def parameters(self) -> list[Parameter]:
        return [self.input_token, self.latent_token]


@dataclass
class PretrainConfig:
    mask_ratio: float = 0.75
    gamma: float = 2.0
    epochs: int = 200
    lr: float = 3e-4
    weight_decay: float = 1e-4
    seed: int = 0
    hidden_dims: tuple = (128,)
    latent_dim: int = 64

    def __post_init__(self):
        if not 0.0 <= self.mask_ratio < 1.0:
            raise ValidationError(f"mask_ratio must be in [0, 1), got {self.mask_ratio}")
        if self.gamma < 1.0:
            raise ValidationError(f"gamma must be >= 1, got {self.gamma}")
        if self.epochs < 0:
            raise ValidationError(f"epochs must be >= 0, got {self.epochs}")
        if self.lr <= 0:
            raise ValidationError(f"lr must be > 0, got {self.lr}")
        if self.weight_decay < 0:
            raise ValidationError(f"weight_decay must be >= 0, got {self.weight_decay}")


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


def sce_loss(X_orig, X_recon, masked_nodes, gamma: float) -> Tensor:
    """Mean over masked rows of (1 - cos(x, x'))**gamma.

    Rows outside the mask never contribute. Raises when the mask is empty:
    the loss is undefined with no masked nodes.
    """
    orig = ad.const(X_orig)
    recon = ad.const(X_recon)
    idx = np.asarray(masked_nodes, dtype=np.intp).reshape(-1)
    if idx.size == 0:
        raise ValidationError("sce_loss: no masked nodes, loss undefined")
    n = orig.value.shape[0]
    if idx.min() < 0 or idx.max() >= n:
        raise ValidationError(f"sce_loss: masked index out of range for {n} rows")
    mask = np.zeros(n, dtype=bool)
    mask[idx] = True
    cos = ad.row_cosine(recon, orig)
    err = ad.power(ad.add_scalar(ad.scale(cos, -1.0), 1.0), gamma)
    return ad.masked_mean(err, mask)


def pretrain(G: Hypergraph, X, config: PretrainConfig) -> PretrainResult:
    """Train encoder, decoder, and mask tokens; returns them with the loss curve."""
    X = ad.as_matrix(X, "features")
    n, d = X.shape
    if n != G.num_nodes:
        raise ValidationError(f"pretrain: {n} feature rows for {G.num_nodes} nodes")
    if config.epochs > 0 and math.floor(config.mask_ratio * n) < 1:
        raise ValidationError(
            f"pretrain: mask_ratio {config.mask_ratio} masks no nodes out of {n}"
        )
    rng = np.random.default_rng(config.seed)
    encoder = build_encoder(d, config.hidden_dims, config.latent_dim, rng)
    decoder = build_decoder(config.latent_dim, d, rng)
    tokens = MaskTokens(
        Parameter(np.zeros((1, d)), "mask.input_token"),
        Parameter(np.zeros((1, config.latent_dim)), "mask.latent_token"),
    )
    params = encoder.parameters() + decoder.parameters() + tokens.parameters()
    state = AdamWState()
    operator = propagation_operator(G)
    losses = []
    for _ in range(config.epochs):
        masked = sample_mask(n, config.mask_ratio, rng)
        x_masked = ad.mask_rows(X, masked, tokens.input_token.leaf())
        z = hgnn_forward_operator(operator, x_masked, encoder)
        z_masked = ad.mask_rows(z, masked, tokens.latent_token.leaf())
        recon = hgnn_forward_operator(operator, z_masked, decoder)
        loss = sce_loss(X, recon, masked, config.gamma)
        losses.append(forward_backward(loss))
        adamw_step(params, state, config.lr, config.weight_decay)
    return PretrainResult(encoder, decoder, tokens, losses)

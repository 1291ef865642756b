"""Hypergraph convolution stacks and the classification head (one affine layer)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, ShapeError, Tensor, ValidationError

__all__ = [
    "ACTIVATIONS",
    "HGNNLayer",
    "HGNNStack",
    "init_layer",
    "build_encoder",
    "build_decoder",
    "build_head",
    "hgnn_forward_operator",
    "classify",
]

ACTIVATIONS = ("relu", "identity")


@dataclass
class HGNNLayer:
    weight: Parameter
    bias: Parameter
    activation: str

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValidationError(f"unknown activation {self.activation!r}")
        d_out = self.weight.value.shape[1]
        if self.bias.value.shape != (1, d_out):
            raise ShapeError(
                f"bias shape {self.bias.value.shape} does not match (1, {d_out})"
            )

    @property
    def d_in(self) -> int:
        return self.weight.value.shape[0]

    @property
    def d_out(self) -> int:
        return self.weight.value.shape[1]

    def parameters(self) -> list[Parameter]:
        return [self.weight, self.bias]

    def copy(self, trainable: bool) -> "HGNNLayer":
        return HGNNLayer(self.weight.copy(trainable), self.bias.copy(trainable),
                         self.activation)


class HGNNStack:
    """An ordered chain of hypergraph convolution layers."""

    def __init__(self, layers):
        self.layers = list(layers)
        if not self.layers:
            raise ValidationError("HGNNStack: needs at least one layer")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.d_out != nxt.d_in:
                raise ShapeError(
                    f"layer dims do not chain: {prev.d_out} -> {nxt.d_in}"
                )

    @property
    def input_dim(self) -> int:
        return self.layers[0].d_in

    @property
    def output_dim(self) -> int:
        return self.layers[-1].d_out

    def parameters(self) -> list[Parameter]:
        return [p for layer in self.layers for p in layer.parameters()]

    def copy(self, trainable: bool) -> "HGNNStack":
        return HGNNStack([layer.copy(trainable) for layer in self.layers])


def init_layer(d_in, d_out, activation, rng, name) -> HGNNLayer:
    """Glorot-uniform weight in +-sqrt(6/(d_in+d_out)), zero bias."""
    bound = np.sqrt(6.0 / (d_in + d_out))
    w = rng.uniform(-bound, bound, size=(d_in, d_out))
    return HGNNLayer(
        Parameter(w, f"{name}.weight"),
        Parameter(np.zeros((1, d_out)), f"{name}.bias"),
        activation,
    )


def build_encoder(d_in, hidden_dims, d_z, rng, name="encoder") -> HGNNStack:
    """Relu on every layer except the last, which is linear."""
    dims = [d_in, *hidden_dims, d_z]
    layers = []
    for i, (a, b) in enumerate(zip(dims, dims[1:])):
        act = "identity" if i == len(dims) - 2 else "relu"
        layers.append(init_layer(a, b, act, rng, f"{name}.layer{i}"))
    return HGNNStack(layers)


def build_decoder(d_z, d_out, rng, name="decoder") -> HGNNStack:
    return HGNNStack([init_layer(d_z, d_out, "identity", rng, f"{name}.layer0")])


def build_head(d_z, num_classes, name="head") -> HGNNLayer:
    """Zero-initialized linear readout: logits start at zero for every strategy.

    The first optimizer steps then move the head along the class direction,
    which is what makes ranking metrics usable within short tuning budgets.
    """
    return HGNNLayer(
        Parameter(np.zeros((d_z, num_classes)), f"{name}.weight"),
        Parameter(np.zeros((1, num_classes)), f"{name}.bias"),
        "identity",
    )


def _activate(z: Tensor, layer: HGNNLayer) -> Tensor:
    """act(z + bias) for one layer."""
    z = ad.broadcast_add_row(z, layer.bias.leaf())
    return ad.relu(z) if layer.activation == "relu" else z


def _propagated_product(operator, h: Tensor, layer: HGNNLayer) -> Tensor:
    """operator @ h @ W, the operator applied on the narrower side of W.

    A layer that narrows (d_out < d_in) forms operator @ (h @ W), any other
    (operator @ h) @ W, so the N x N product runs over min(d_in, d_out)
    columns.
    """
    w = layer.weight.leaf()
    if layer.d_out < layer.d_in:
        return ad.propagate(operator, ad.matmul(h, w))
    return ad.matmul(ad.propagate(operator, h), w)


def hgnn_forward_operator(operator, X, stack: HGNNStack, first: Tensor | None = None) -> Tensor:
    """Run the stack with a precomputed propagation operator.

    Per layer: X <- act(operator @ X @ W + bias), with the product associated
    by the layer's shape (`_propagated_product`). `operator` is a symmetric
    matrix, or a symmetric operator applied by `@` (see `autodiff.propagate`).
    `first`, when given, is the first layer's product operator @ X @ W,
    formed by a caller that keeps its constant parts; `X` is then not read.
    """
    layers = stack.layers
    if first is None:
        h = ad.const(X)
        if h.value.shape[1] != stack.input_dim:
            raise ShapeError(
                f"hgnn_forward_operator: input dim {h.value.shape[1]} does not match "
                f"stack input dim {stack.input_dim}"
            )
        if operator.shape[0] != h.value.shape[0]:
            raise ShapeError(
                f"hgnn_forward_operator: operator is {operator.shape[0]}-node, features have "
                f"{h.value.shape[0]} rows"
            )
        first = _propagated_product(operator, h, layers[0])
    h = _activate(first, layers[0])
    for layer in layers[1:]:
        h = _activate(_propagated_product(operator, h, layer), layer)
    return h


def classify(Z, head: HGNNLayer) -> Tensor:
    """The head layer's affine logits: no propagation, no softmax."""
    z = ad.const(Z)
    if z.value.shape[1] != head.d_in:
        raise ShapeError(
            f"classify: latent dim {z.value.shape[1]} does not match head "
            f"input dim {head.d_in}"
        )
    return _activate(ad.matmul(z, head.weight.leaf()), head)

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
    "with_input_term",
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


def build_encoder(d_in, hidden_dims, d_z, rng) -> HGNNStack:
    """Relu on every layer except the last, which is linear."""
    dims = [d_in, *hidden_dims, d_z]
    layers = []
    for i, (a, b) in enumerate(zip(dims, dims[1:])):
        act = "identity" if i == len(dims) - 2 else "relu"
        layers.append(init_layer(a, b, act, rng, f"encoder.layer{i}"))
    return HGNNStack(layers)


def build_decoder(d_z, d_out, rng) -> HGNNStack:
    return HGNNStack([init_layer(d_z, d_out, "identity", rng, "decoder.layer0")])


def build_head(d_z, num_classes) -> HGNNLayer:
    """Zero-initialized linear readout: logits start at zero for every strategy.

    The first optimizer steps then move the head along the class direction,
    which is what makes ranking metrics usable within short tuning budgets.
    """
    return HGNNLayer(
        Parameter(np.zeros((d_z, num_classes)), "head.weight"),
        Parameter(np.zeros((1, num_classes)), "head.bias"),
        "identity",
    )


def _activate(z: Tensor, layer: HGNNLayer) -> Tensor:
    """act(z + bias) for one layer."""
    z = ad.broadcast_add_row(z, layer.bias.leaf())
    return ad.relu(z) if layer.activation == "relu" else z


def _propagated_product(operator, h: Tensor, w: Tensor) -> Tensor:
    """operator @ h @ w, the operator applied on the narrower side of w.

    A weight that narrows (d_out < d_in) forms operator @ (h @ w), any other
    (operator @ h) @ w, so the N x N product runs over min(d_in, d_out)
    columns. `w` is a layer's weight leaf, or the last layer's weight times
    the head's when `hgnn_forward_operator` folds the head in.

    A symmetric `operator` is applied by `ad.propagate`. A constant Tensor
    is a row slice of one, which is not symmetric: it is applied by
    `ad.matmul`, whose backward multiplies by its transpose and forms no
    gradient toward it.
    """
    apply = ad.matmul if isinstance(operator, Tensor) else ad.propagate
    d_in, d_out = w.value.shape
    if d_out < d_in:
        return apply(operator, ad.matmul(h, w))
    return ad.matmul(apply(operator, h), w)


def with_input_term(product, input_term, extra, w) -> Tensor:
    """product + input_term (extra w): the first-layer rule op [X W1; 0] + (op L)(R W1)."""
    return ad.add(product, ad.matmul(input_term, ad.matmul(extra, w)))


def hgnn_forward_operator(operator, X, stack: HGNNStack, first: Tensor | None = None,
                          head: HGNNLayer | None = None, last_rows=None) -> Tensor:
    """Run the stack with a precomputed propagation operator.

    Per layer: X <- act(operator @ X @ W + bias), with the product associated
    by the layer's shape (`_propagated_product`). `operator` is a symmetric
    matrix, or a symmetric operator applied by `@` (see `autodiff.propagate`).
    `first`, when given, is the first layer's product operator @ X @ W,
    formed by a caller that keeps its constant parts; `X` is then not read.
    `last_rows`, when given, is a row slice operator[R] of the operator as a
    constant matrix: the last layer, if it is not the first, then forms only
    the rows R, and the stack's output has |R| rows.

    With a `head`, returns its logits instead of the stack's output. When
    the last layer is linear and not the first, the head is folded into it:
    operator @ h @ (W_L W_head) + (b_L W_head + b_head), so that layer's
    products run over the head's columns. Otherwise the head reads the
    output as `classify` does. Shapes that do not chain raise `ShapeError`
    from `autodiff.matmul` or `autodiff.propagate`.
    """
    layers = stack.layers
    if first is None:
        first = _propagated_product(operator, ad.const(X), layers[0].weight.leaf())
    h = _activate(first, layers[0])
    fold = head is not None and len(layers) > 1 and layers[-1].activation == "identity"
    last_operator = operator if last_rows is None else ad.const(last_rows)
    for i, layer in enumerate(layers[1:-1] if fold else layers[1:], 2):
        op = last_operator if i == len(layers) else operator
        h = _activate(_propagated_product(op, h, layer.weight.leaf()), layer)
    if not fold:
        return h if head is None else classify(h, head)
    last, w_head = layers[-1], head.weight.leaf()  # one leaf: its gradient sums both uses
    logits = _propagated_product(last_operator, h, ad.matmul(last.weight.leaf(), w_head))
    return ad.broadcast_add_row(
        logits, ad.add(ad.matmul(last.bias.leaf(), w_head), head.bias.leaf()))


def classify(Z, head: HGNNLayer) -> Tensor:
    """The head layer's affine logits: no propagation, no softmax."""
    return _activate(ad.matmul(Z, head.weight.leaf()), head)

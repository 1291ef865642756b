"""Minimal reverse-mode autodiff over dense float64 matrices, plus AdamW.

Every value in the expression graph is a 2-D, C-ordered float64 array.
Operations build the graph eagerly; construction order is a valid
topological order, so the backward pass simply walks nodes in reverse
creation order. Single-threaded by contract: with identical inputs the
forward values and gradients are bit-identical across runs.

Each node records at creation whether it needs a gradient: a parameter leaf
needs one when its parameter is trainable, any other node when one of its
parents does. The backward pass visits only nodes that need a gradient and
forms no product toward an operand that does not (activity analysis), so
constants and frozen weights cost nothing beyond their forward values.

A `Parameter`'s `grad` is None until `forward_backward` sets it to an array
no node or other parameter shares; `adamw_step` uses it up, setting it back
to None, so each gradient drives one update.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

__all__ = [
    "ShapeError",
    "ValidationError",
    "Tensor",
    "Parameter",
    "AdamWState",
    "as_matrix",
    "const",
    "matmul",
    "propagate",
    "transpose",
    "add",
    "relu",
    "broadcast_add_row",
    "row_softmax",
    "mask_rows",
    "softmax_cross_entropy",
    "sce_loss",
    "forward_backward",
    "finite_difference_check",
    "adamw_step",
    "check_finite",
]

NORM_EPS = 1e-12
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # moment decays, denominator floor


class ShapeError(ValueError):
    """Operand shapes incompatible with the requested operation."""


class ValidationError(ValueError):
    """Invalid argument or precondition violation."""


def as_matrix(x, name="matrix") -> np.ndarray:
    """Coerce to a 2-D C-contiguous float64 array."""
    a = np.ascontiguousarray(x, dtype=np.float64)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    if a.ndim != 2:
        raise ShapeError(f"{name}: expected 2-D data, got ndim={a.ndim}")
    return a


_node_ids = itertools.count()


class Tensor:
    """A node in the expression graph.

    `parents` precede the node in creation order, so node ids give a
    topological order for free. `needs` is true when a trainable parameter
    leaf is the node or one of its ancestors; a node without one keeps
    `grad` None through every backward pass.
    """

    __slots__ = ("value", "parents", "op", "param", "needs", "grad", "_backward", "_id")

    def __init__(self, value, parents=(), op="const", backward=None, param=None):
        self.value = value
        self.parents = tuple(parents)
        self.op = op
        self.param = param
        if param is not None:
            self.needs = param.trainable
        else:
            self.needs = any(p.needs for p in self.parents)
        self.grad = None
        self._backward = backward
        self._id = next(_node_ids)

    @property
    def shape(self):
        return self.value.shape

    def item(self) -> float:
        if self.value.size != 1:
            raise ShapeError(f"item: tensor of shape {self.value.shape} is not scalar")
        return float(self.value[0, 0])

    def __float__(self):
        return self.item()

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.value.shape})"


class Parameter:
    """A named trainable (or frozen) matrix; `grad` is None until a backward pass sets it."""

    __slots__ = ("value", "grad", "trainable", "name")

    def __init__(self, value, name, trainable=True):
        self.value = as_matrix(value, name)
        self.grad = None
        self.trainable = bool(trainable)
        self.name = name

    @property
    def size(self) -> int:
        return self.value.size

    def leaf(self) -> Tensor:
        """A fresh graph leaf reading the parameter's current value."""
        return Tensor(self.value, op=f"param:{self.name}", param=self)

    def copy(self, trainable) -> "Parameter":
        return Parameter(self.value.copy(), self.name, trainable=trainable)

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.value.shape}, trainable={self.trainable})"


def const(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(as_matrix(x))


# ---------------------------------------------------------------------------
# Primitive operations. Each backward closure accumulates into parent.grad,
# for the parents that need a gradient only. A closure runs only when its
# node needs a gradient, so a one-parent op never has to check.
# ---------------------------------------------------------------------------


def _accum(t: Tensor, g: np.ndarray):
    # g may also be another node's gradient or a view of one, so it is kept
    # without a copy and no gradient array is ever written in place
    t.grad = g if t.grad is None else t.grad + g


def matmul(a, b) -> Tensor:
    a, b = const(a), const(b)
    if a.value.shape[1] != b.value.shape[0]:
        raise ShapeError(f"matmul: inner dims differ, {a.value.shape} @ {b.value.shape}")
    # an inner dimension of 1 is one multiply per entry: a broadcast, not a GEMM
    out_val = a.value * b.value if b.value.shape[0] == 1 else a.value @ b.value

    def backward(g, a=a, b=b):
        if a.needs:
            _accum(a, g @ b.value.T)
        if b.needs:
            _accum(b, a.value.T @ g)

    return Tensor(out_val, (a, b), "matmul", backward)


def propagate(op, a) -> Tensor:
    """op @ a for a constant symmetric operator `op`.

    `op` is a matrix or any object with a `shape` and an `@` that applies
    it to an array. It is symmetric, so the backward applies it to the
    output gradient again; it is not on the tape and gets no gradient.
    """
    a = const(a)
    if op.shape[1] != a.value.shape[0]:
        raise ShapeError(f"propagate: operator is {op.shape}, operand has "
                         f"{a.value.shape[0]} rows")

    def backward(g, a=a, op=op):
        _accum(a, op @ g)

    return Tensor(op @ a.value, (a,), "propagate", backward)


def transpose(a) -> Tensor:
    a = const(a)

    def backward(g, a=a):
        _accum(a, g.T)

    return Tensor(np.ascontiguousarray(a.value.T), (a,), "transpose", backward)


def add(a, b) -> Tensor:
    a, b = const(a), const(b)
    if a.value.shape != b.value.shape:
        raise ShapeError(f"add: shapes differ, {a.value.shape} vs {b.value.shape}")

    def backward(g, a=a, b=b):
        if a.needs:
            _accum(a, g)
        if b.needs:
            _accum(b, g)

    return Tensor(a.value + b.value, (a, b), "add", backward)


def relu(a) -> Tensor:
    a = const(a)

    def backward(g, a=a):
        _accum(a, g * (a.value > 0.0))

    return Tensor(np.maximum(a.value, 0.0), (a,), "relu", backward)


def broadcast_add_row(a, row) -> Tensor:
    """a (n x d) plus a (1 x d) row vector added to every row."""
    a, row = const(a), const(row)
    if row.value.shape != (1, a.value.shape[1]):
        raise ShapeError(
            f"broadcast_add_row: row shape {row.value.shape} does not match (1, {a.value.shape[1]})"
        )

    def backward(g, a=a, row=row):
        if a.needs:
            _accum(a, g)
        if row.needs:
            _accum(row, g.sum(axis=0, keepdims=True))

    return Tensor(a.value + row.value, (a, row), "broadcast_add_row", backward)


def row_softmax(a) -> Tensor:
    """Stable softmax along each row."""
    a = const(a)
    shifted = a.value - a.value.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out_val = e / e.sum(axis=1, keepdims=True)

    def backward(g, a=a, s=out_val):
        dot = (g * s).sum(axis=1, keepdims=True)
        _accum(a, s * (g - dot))

    return Tensor(out_val, (a,), "row_softmax", backward)


def mask_rows(a, row_indices, token) -> Tensor:
    """Replace the selected rows of `a` with the (1 x d) token row."""
    a, token = const(a), const(token)
    n, d = a.value.shape
    if token.value.shape != (1, d):
        raise ShapeError(f"mask_rows: token shape {token.value.shape} does not match (1, {d})")
    idx = np.asarray(row_indices, dtype=np.intp).reshape(-1)
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ValidationError(f"mask_rows: row index out of range for {n} rows")
    out_val = a.value.copy()
    out_val[idx] = token.value

    def backward(g, a=a, token=token, idx=idx, n=n):
        if a.needs:
            keep = np.ones((n, 1))
            keep[idx] = 0.0
            _accum(a, g * keep)
        if token.needs and idx.size:
            _accum(token, g[idx].sum(axis=0, keepdims=True))

    return Tensor(out_val, (a, token), "mask_rows", backward)


def softmax_cross_entropy(logits, labels, row_mask) -> Tensor:
    """Mean over masked rows of -log softmax(logits)[label]; scalar output.

    Stabilized by per-row max subtraction. Forward and backward are formed
    on the masked rows only: every other row contributes nothing and gets
    an exact zero gradient.
    """
    logits = const(logits)
    n, c = logits.value.shape
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    mask = np.asarray(row_mask, dtype=bool).reshape(-1)
    if labels.shape[0] != n or mask.shape[0] != n:
        raise ShapeError(
            f"softmax_cross_entropy: labels/mask length does not match {n} rows"
        )
    rows = np.flatnonzero(mask)
    count = rows.size
    if count == 0:
        raise ValidationError("softmax_cross_entropy: mask selects no rows")
    sel = labels[rows]
    if sel.min() < 0 or sel.max() >= c:
        raise ValidationError(
            f"softmax_cross_entropy: label out of range for {c} classes"
        )
    z = logits.value[rows]
    shifted = z - z.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    picked = (np.arange(count), sel)  # each row's label entry
    out_val = np.array([[-(shifted - logsumexp)[picked].sum() / count]])

    def backward(g, logits=logits, rows=rows, picked=picked, count=count,
                 shifted=shifted, logsumexp=logsumexp):
        probs = np.exp(shifted - logsumexp)
        probs[picked] -= 1.0
        gl = np.zeros_like(logits.value)
        gl[rows] = probs * (g[0, 0] / count)
        _accum(logits, gl)

    return Tensor(out_val, (logits,), "softmax_cross_entropy", backward)


def sce_loss(X_orig, X_recon, masked_nodes, gamma: float) -> Tensor:
    """Scaled cosine error: mean over the masked rows of (1 - cos(x', x))**gamma.

    `X_recon` holds the reconstructions x' and `X_orig` the constant targets
    x. Only the masked rows, each counted once, are computed: every other
    row contributes nothing and gets an exact zero gradient. The cosine's
    denominator is sqrt(sa * sb) of the squared norms, which makes the
    similarity of a row with itself exactly 1 (and exactly -1 when negated).
    Raises when the mask is empty: the loss is undefined with no masked nodes.
    """
    recon = const(X_recon)
    orig = const(X_orig).value
    if recon.value.shape != orig.shape:
        raise ShapeError(f"sce_loss: shapes differ, {recon.value.shape} vs {orig.shape}")
    gamma = float(gamma)
    if gamma < 1.0:
        raise ValidationError(f"sce_loss: gamma must be >= 1, got {gamma}")
    idx = np.asarray(masked_nodes, dtype=np.intp).reshape(-1)
    if idx.size == 0:
        raise ValidationError("sce_loss: no masked nodes, loss undefined")
    n = orig.shape[0]
    if idx.min() < 0 or idx.max() >= n:
        raise ValidationError(f"sce_loss: masked index out of range for {n} rows")
    mask = np.zeros(n, dtype=bool)
    mask[idx] = True
    count = int(mask.sum())
    a, b = recon.value[mask], orig[mask]
    sa = (a * a).sum(axis=1, keepdims=True)
    sb = (b * b).sum(axis=1, keepdims=True)
    na = np.maximum(np.sqrt(sa), NORM_EPS)
    nb = np.maximum(np.sqrt(sb), NORM_EPS)
    raw = (a * b).sum(axis=1, keepdims=True) / np.maximum(np.sqrt(sa * sb), NORM_EPS * NORM_EPS)
    d = np.clip(raw, -1.0, 1.0) * -1.0 + 1.0
    out_val = np.array([[(d**gamma)[:, 0].sum() / count]])

    def backward(g, recon=recon, mask=mask, count=count, gamma=gamma, a=a, b=b, na=na,
                 nb=nb, raw=raw, d=d):
        gr = np.zeros_like(recon.value)
        gr[mask] = (g[0, 0] / count * gamma * d ** (gamma - 1.0) * -1.0
                    * (b / (na * nb) - a * raw / (na * na)))
        _accum(recon, gr)

    return Tensor(out_val, (recon,), "sce_loss", backward)


# ---------------------------------------------------------------------------
# Backward driver, gradient checking, AdamW.
# ---------------------------------------------------------------------------


def _collect(root: Tensor) -> list[Tensor]:
    """Nodes reachable from root that need a gradient, in creation order."""
    seen = {}
    stack = [root] if root.needs else []
    while stack:
        t = stack.pop()
        if t._id in seen:
            continue
        seen[t._id] = t
        stack.extend(p for p in t.parents if p.needs)
    return [seen[i] for i in sorted(seen)]


def forward_backward(loss: Tensor) -> float:
    """Backpropagate from a scalar root; set `grad` on the trainable params it reaches.

    Returns the forward loss value. Sets (never accumulates) a new array of
    ∂loss/∂value as `grad` of every trainable parameter reachable from the
    root, exact zeros when the loss does not depend on it; it stays set until
    `adamw_step` uses it up. Non-trainable parameters are left untouched.
    Only nodes that need a gradient are visited; every other node, constants
    and frozen parameter leaves included, keeps `grad` None.
    """
    if loss.value.shape != (1, 1):
        raise ShapeError(
            f"forward_backward: root must be scalar, got shape {loss.value.shape}"
        )
    nodes = _collect(loss)
    for t in nodes:
        t.grad = None
    if loss.needs:
        loss.grad = np.ones((1, 1))
    for t in reversed(nodes):
        if t._backward is not None and t.grad is not None:
            t._backward(t.grad)
    reached = set()  # a parameter read through several leaves sums their gradients
    for t in nodes:
        if t.param is not None:
            g = np.zeros_like(t.value) if t.grad is None else t.grad
            t.param.grad = t.param.grad + g if t.param in reached else g.copy()
            reached.add(t.param)
    return loss.item()


def finite_difference_check(loss_fn, params, eps=1e-6) -> float:
    """Max relative error between backprop and central-difference gradients.

    `loss_fn(params)` must deterministically rebuild the expression graph and
    return its scalar root. Relative error per coordinate is
    |g_ad - g_fd| / max(|g_ad|, |g_fd|, 1e-12).
    """
    if eps <= 0:
        raise ValidationError(f"finite_difference_check: eps must be > 0, got {eps}")
    first = loss_fn(params).item()
    second = loss_fn(params).item()
    if first != second:
        raise ValidationError(
            "finite_difference_check: loss_fn is not deterministic "
            f"({first!r} != {second!r})"
        )
    trainable = [p for p in params if p.trainable]
    for p in trainable:  # a parameter the loss does not reach keeps None: zero
        p.grad = None
    forward_backward(loss_fn(params))
    worst = 0.0
    for p in trainable:
        g_ad = np.zeros_like(p.value) if p.grad is None else p.grad
        for r in range(p.value.shape[0]):
            for c in range(p.value.shape[1]):
                orig = p.value[r, c]
                p.value[r, c] = orig + eps
                f_plus = loss_fn(params).item()
                p.value[r, c] = orig - eps
                f_minus = loss_fn(params).item()
                p.value[r, c] = orig
                g_fd = (f_plus - f_minus) / (2.0 * eps)
                denom = max(abs(g_ad[r, c]), abs(g_fd), 1e-12)
                worst = max(worst, abs(g_ad[r, c] - g_fd) / denom)
    return worst


class AdamWState:
    """The step count and per-parameter AdamW moments keyed by parameter name.

    The first step binds the state to the names and shapes of its trainable
    parameters, in order; a later step over any other set raises
    `ValidationError`.
    """

    def __init__(self):
        self.t = 0
        self.layout = None  # ((name, shape), ...) of the bound trainable set
        self.m = {}
        self.v = {}


def adamw_step(params, state: AdamWState, lr: float, weight_decay: float):
    """One AdamW step with decoupled weight decay over the trainable params.

    The value is scaled by (1 - lr * wd) before the bias-corrected moment
    update is applied. The first step binds `state` to the trainable set,
    and a step over another set raises `ValidationError`. It uses up each
    trainable parameter's gradient, setting `grad` back to None, so a second
    step needs a new backward pass. Non-trainable parameters are never
    touched.
    """
    if lr <= 0:
        raise ValidationError(f"adamw_step: lr must be > 0, got {lr}")
    if weight_decay < 0:
        raise ValidationError(f"adamw_step: weight_decay must be >= 0, got {weight_decay}")
    trainable = [p for p in params if p.trainable]
    for p in trainable:
        if p.grad is None:
            raise ValidationError(f"adamw_step: gradient of {p.name!r} not populated")
    layout = tuple((p.name, p.value.shape) for p in trainable)
    if state.layout is None:  # the first step binds the state and allocates its moments
        names = [name for name, _ in layout]
        if len(set(names)) != len(names):
            raise ValidationError("adamw_step: duplicate parameter names")
        state.layout = layout
        for p in trainable:
            state.m[p.name], state.v[p.name] = np.zeros_like(p.value), np.zeros_like(p.value)
    elif layout != state.layout:
        raise ValidationError(f"adamw_step: the state is bound to {list(state.layout)}, "
                              f"got {list(layout)}")
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bc1 = 1.0 - b1**state.t
    bc2 = 1.0 - b2**state.t
    for p in trainable:
        m, v = state.m[p.name], state.v[p.name]
        g = p.grad
        p.value *= 1.0 - lr * weight_decay
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        m_hat = m / bc1
        v_hat = v / bc2
        p.value -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        p.grad = None


def check_finite(stage: str, epoch: int, loss: float, params):
    """Reject a training epoch whose loss or updated parameters are non-finite.

    `loss` is the float `forward_backward` returned; `params` are the ones
    the epoch's step updated. A run that diverged has no defined result.
    """
    if not math.isfinite(loss) or not all(np.isfinite(p.value).all() for p in params):
        raise ValidationError(
            f"{stage} diverged: loss or parameters non-finite at epoch {epoch}"
        )

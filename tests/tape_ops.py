"""Autodiff ops that only the tests use to build scalar losses, and a graph walk.

The ops build `Tensor`s like the engine's own primitives, so they follow the
same rule: a gradient goes only to the operands that need one.
"""

import numpy as np

from hglearn.autodiff import NORM_EPS, ShapeError, Tensor, _accum, const


def mul(a, b) -> Tensor:
    a, b = const(a), const(b)
    if a.value.shape != b.value.shape:
        raise ShapeError(f"mul: shapes differ, {a.value.shape} vs {b.value.shape}")

    def backward(g, a=a, b=b):
        if a.needs:
            _accum(a, g * b.value)
        if b.needs:
            _accum(b, g * a.value)

    return Tensor(a.value * b.value, (a, b), "mul", backward)


def row_l2_normalize(a) -> Tensor:
    """Scale each row to unit L2 norm, with a small floor on the norm."""
    a = const(a)
    norms = np.linalg.norm(a.value, axis=1, keepdims=True)
    clamped = norms < NORM_EPS
    safe = np.where(clamped, NORM_EPS, norms)
    out_val = a.value / safe

    def backward(g, a=a, safe=safe, clamped=clamped, out_val=out_val):
        # d(x/n)/dx = I/n - x x^T / n^3; when the norm is clamped, n is constant.
        dots = (g * out_val).sum(axis=1, keepdims=True)
        ga = g / safe - np.where(clamped, 0.0, out_val * dots / safe)
        _accum(a, ga)

    return Tensor(out_val, (a,), "row_l2_normalize", backward)


def sum_all(a) -> Tensor:
    a = const(a)
    out_val = np.array([[a.value.sum()]])

    def backward(g, a=a):
        _accum(a, np.full_like(a.value, g[0, 0]))

    return Tensor(out_val, (a,), "sum_all", backward)


def tape_nodes(root) -> list:
    """Every node below root, each once, in creation order."""
    seen, stack = {}, [root]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen[id(t)] = t
            stack.extend(t.parents)
    return sorted(seen.values(), key=lambda t: t._id)

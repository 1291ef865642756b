"""Gradient engine tests: analytic examples, finite-difference oracles, AdamW."""

import inspect
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hglearn import autodiff as ad
from hglearn.autodiff import (
    AdamWState,
    Parameter,
    ShapeError,
    ValidationError,
    adamw_step,
    finite_difference_check,
    forward_backward,
)
from tape_ops import mul, row_l2_normalize, sum_all, tape_nodes


def test_annihilation_gives_zero_loss_and_grad():
    theta = Parameter([[1.5, -2.0], [0.25, 7.0]], "theta")
    loss = sum_all(mul(theta.leaf(), ad.const(np.zeros((2, 2)))))
    assert forward_backward(loss) == 0.0
    assert np.array_equal(theta.grad, np.zeros((2, 2)))
    assert theta.grad_populated


def test_square_at_three():
    theta = Parameter([[3.0]], "theta")
    loss = mul(theta.leaf(), theta.leaf())
    assert forward_backward(loss) == 9.0
    assert theta.grad[0, 0] == 6.0


def test_two_layer_network_matches_finite_differences():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((5, 4))
    w1 = Parameter(rng.standard_normal((4, 3)), "w1")
    w2 = Parameter(rng.standard_normal((3, 2)), "w2")
    labels = np.array([0, 1, 1, 0, 1])
    mask = np.ones(5, dtype=bool)

    def loss_fn(params):
        h = ad.relu(ad.matmul(X, w1.leaf()))
        return ad.softmax_cross_entropy(ad.matmul(h, w2.leaf()), labels, mask)

    assert finite_difference_check(loss_fn, [w1, w2], 1e-6) <= 1e-4


PRIMITIVE_CASES = {}


def _case(name):
    def reg(fn):
        PRIMITIVE_CASES[name] = fn
        return fn

    return reg


_rng = np.random.default_rng(11)
_C34 = _rng.standard_normal((3, 4))
_C43 = _rng.standard_normal((4, 3))
_C31 = _rng.standard_normal((3, 1))


def _square(t):
    return mul(t, t)


@_case("matmul")
def _(p):
    return sum_all(mul(ad.matmul(p.leaf(), ad.const(_C43)), ad.const(_C34 @ _C43)))


@_case("propagate")
def _(p):
    return sum_all(mul(ad.propagate(_C34[:, :3] + _C34[:, :3].T, p.leaf()), ad.const(_C34)))


@_case("transpose")
def _(p):
    return sum_all(mul(ad.transpose(p.leaf()), ad.const(_C43)))


@_case("add")
def _(p):
    return sum_all(_square(ad.add(p.leaf(), ad.const(_C34))))


@_case("mul")
def _(p):
    return sum_all(mul(p.leaf(), ad.const(_C34)))


@_case("relu")
def _(p):
    return sum_all(mul(ad.relu(p.leaf()), ad.const(_C34)))


@_case("broadcast_add_row")
def _(p):
    row = ad.matmul(ad.const(np.ones((1, 3))), p.leaf())
    return sum_all(_square(ad.broadcast_add_row(ad.const(_C34), row)))


@_case("row_l2_normalize")
def _(p):
    return sum_all(mul(row_l2_normalize(p.leaf()), ad.const(_C34)))


@_case("row_softmax")
def _(p):
    return sum_all(mul(ad.row_softmax(p.leaf()), ad.const(_C34)))


@_case("concat_rows")
def _(p):
    stacked = ad.concat_rows(ad.const(_C34[:2]), p.leaf())
    return sum_all(_square(stacked))


@_case("mask_rows")
def _(p):
    token = ad.matmul(ad.const(np.ones((1, 3))), p.leaf())
    masked = ad.mask_rows(ad.const(_C34), [0, 2], token)
    return sum_all(_square(masked))


@_case("sce_loss")
def _(p):
    return ad.sce_loss(_C34, p.leaf(), [2, 0], 1.5)


@_case("softmax_cross_entropy")
def _(p):
    logits = ad.matmul(p.leaf(), ad.const(_C43[:, :2]))
    return ad.softmax_cross_entropy(logits, [0, 1, 1], np.array([1, 1, 1], bool))


@pytest.mark.parametrize("name", sorted(PRIMITIVE_CASES))
def test_primitive_gradients(name):
    # str hashes are salted per process; crc32 lets a failing case be replayed
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    p = Parameter(rng.standard_normal((3, 4)), "p")
    err = finite_difference_check(lambda params: PRIMITIVE_CASES[name](p), [p], 1e-6)
    assert err <= 1e-4, f"{name}: fd error {err}"


def test_every_exported_op_has_a_gradient_case():
    # an op is an exported function that builds a tape node; const only wraps
    ops = {name for name in ad.__all__
           if inspect.isfunction(getattr(ad, name))
           and getattr(ad, name).__annotations__.get("return") == "Tensor"} - {"const"}
    assert "sce_loss" in ops and "matmul" in ops
    assert ops - set(PRIMITIVE_CASES) == set()


def test_finite_difference_linear_is_exact():
    # power-of-two eps keeps the perturbed points exactly representable
    p = Parameter([[1.0, -2.0]], "p")

    def loss_fn(params):
        return sum_all(mul(p.leaf(), ad.const([[3.0, 0.5]])))

    assert finite_difference_check(loss_fn, [p], 2.0**-20) <= 1e-10


def test_finite_difference_quadratic_truncation():
    p = Parameter([[3.0]], "p")

    def loss_fn(params):
        return mul(p.leaf(), p.leaf())

    assert finite_difference_check(loss_fn, [p], 1e-6) <= 1e-7


def test_finite_difference_rejects_nondeterministic_loss():
    p = Parameter([[1.0]], "p")
    rng = np.random.default_rng(0)

    def loss_fn(params):
        return mul(p.leaf(), ad.const([[rng.random()]]))

    with pytest.raises(ValidationError, match="deterministic"):
        finite_difference_check(loss_fn, [p], 1e-6)


def test_finite_difference_rejects_bad_eps():
    p = Parameter([[1.0]], "p")
    with pytest.raises(ValidationError):
        finite_difference_check(lambda params: sum_all(p.leaf()), [p], 0.0)


def test_non_scalar_root_rejected():
    p = Parameter([[1.0, 2.0]], "p")
    with pytest.raises(ShapeError, match="scalar"):
        forward_backward(p.leaf())


@pytest.mark.parametrize(
    "build, opname",
    [
        (lambda a, b: ad.matmul(a, b), "matmul"),
        (lambda a, b: ad.add(a, ad.transpose(b)), "add"),
        (lambda a, b: mul(a, ad.transpose(b)), "mul"),
        (lambda a, b: ad.sce_loss(a, ad.transpose(b), [0], 2.0), "sce_loss"),
        (lambda a, b: ad.concat_rows(a, ad.const(np.ones((1, 5)))), "concat_rows"),
        (lambda a, b: ad.broadcast_add_row(a, ad.const(np.ones((1, 5)))), "broadcast_add_row"),
    ],
)
def test_shape_mismatch_names_offending_operation(build, opname):
    a = ad.const(np.ones((2, 3)))
    b = ad.const(np.ones((2, 3)))
    with pytest.raises(ShapeError, match=opname):
        build(a, b)


def test_non_trainable_params_receive_no_gradient():
    frozen = Parameter([[2.0]], "frozen", trainable=False)
    live = Parameter([[3.0]], "live")
    before = frozen.grad.copy()
    loss = mul(frozen.leaf(), live.leaf())
    forward_backward(loss)
    assert np.array_equal(frozen.grad, before)
    assert not frozen.grad_populated
    assert live.grad[0, 0] == 2.0


def test_gradients_are_set_not_accumulated_across_calls():
    p = Parameter([[3.0]], "p")
    for _ in range(3):
        forward_backward(mul(p.leaf(), p.leaf()))
    assert p.grad[0, 0] == 6.0


def test_determinism_bit_identical_losses_and_grads():
    def run():
        rng = np.random.default_rng(123)
        p = Parameter(rng.standard_normal((6, 5)), "p")
        X = rng.standard_normal((8, 6))
        h = ad.relu(ad.matmul(X, p.leaf()))
        loss = ad.softmax_cross_entropy(
            ad.matmul(h, ad.const(rng.standard_normal((5, 2)))),
            rng.integers(0, 2, 8),
            np.ones(8, bool),
        )
        return forward_backward(loss), p.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert l1 == l2
    assert np.array_equal(g1, g2)


def _random_stack(leaves, ops):
    """Apply (op, i, j) to a pool that starts as `leaves`; a scalar loss on the last node.

    Every node has the same column count d; leaves are d x d or 1 x d. An op
    whose operands do not fit falls back to relu of the first.
    """
    pool = list(leaves)
    for op, i, j in ops:
        a, b = pool[i % len(pool)], pool[j % len(pool)]
        d = a.value.shape[1]
        if op == "matmul" and b.value.shape == (d, d):
            out = ad.matmul(a, b)
        elif op == "add" and a.value.shape == b.value.shape:
            out = ad.add(a, b)
        elif op == "broadcast_add_row" and b.value.shape[0] == 1:
            out = ad.broadcast_add_row(a, b)
        elif op == "concat_rows" and a.value.shape[0] + b.value.shape[0] <= 64:
            out = ad.concat_rows(a, b)
        elif op == "row_softmax":
            out = ad.row_softmax(a)
        else:
            out = ad.relu(a)
        pool.append(out)
    rows, d = pool[-1].value.shape
    return ad.softmax_cross_entropy(pool[-1], np.arange(rows) % d, np.ones(rows, bool))


_OPS = ("matmul", "add", "broadcast_add_row", "relu", "concat_rows", "row_softmax")


class TestPruning:
    @settings(max_examples=200, deadline=None)
    @given(
        d=st.integers(2, 4),
        leaves=st.lists(st.tuples(st.sampled_from(["trainable", "frozen", "const"]),
                                  st.booleans()), min_size=1, max_size=6),
        ops=st.lists(st.tuples(st.sampled_from(_OPS), st.integers(0, 99),
                               st.integers(0, 99)), min_size=1, max_size=12),
        seed=st.integers(0, 2**16),
    )
    def test_trainable_gradients_match_unpruned_backward(self, d, leaves, ops, seed):
        rng = np.random.default_rng(seed)
        values = [rng.standard_normal((1 if row else d, d)) for _, row in leaves]
        params = [None if kind == "const" else
                  Parameter(v, f"p{i}", trainable=kind == "trainable")
                  for i, ((kind, _), v) in enumerate(zip(leaves, values))]
        # the same graph with every leaf trainable: nothing can be pruned
        reference = [Parameter(v, f"p{i}") for i, v in enumerate(values)]

        def leaf_tensors(sources):
            out = [ad.const(v) if p is None else p.leaf() for p, v in zip(sources, values)]
            if params[0] is not None:  # one parameter read through two leaves
                out.append(sources[0].leaf())
            return out

        pruned = _random_stack(leaf_tensors(params), ops)
        full = _random_stack(leaf_tensors(reference), ops)
        assert forward_backward(pruned) == forward_backward(full)
        for p, ref in zip(params, reference):
            if p is not None and p.trainable:
                assert np.array_equal(p.grad, ref.grad)
                assert p.grad_populated == ref.grad_populated
            elif p is not None:
                assert not p.grad_populated
                assert not p.grad.any()
        # the needs rule, recomputed from the graph; unneeded nodes keep grad None
        needs = {}
        for t in tape_nodes(pruned):
            needs[id(t)] = (t.param.trainable if t.param is not None
                            else any(needs[id(q)] for q in t.parents))
            assert t.needs == needs[id(t)]
            if not t.needs:
                assert t.grad is None

    def test_loss_without_trainable_leaf_visits_nothing(self):
        frozen = Parameter([[2.0]], "frozen", trainable=False)
        loss = mul(frozen.leaf(), ad.const([[3.0]]))
        assert forward_backward(loss) == 6.0
        assert not loss.needs and loss.grad is None
        assert not frozen.grad_populated


class TestAdamW:
    def test_zero_gradient_no_decay_leaves_params_unchanged(self):
        p = Parameter([[1.0, -2.0]], "p")
        p.grad_populated = True
        state = AdamWState()
        before = p.value.copy()
        adamw_step([p], state, 0.1, 0.0)
        assert np.array_equal(p.value, before)

    def test_hand_computed_single_step(self):
        # m_hat = v_hat = 1 after one step, so theta moves by lr/(1 + eps)
        p = Parameter([[1.0]], "p")
        p.grad[:] = 1.0
        p.grad_populated = True
        adamw_step([p], AdamWState(), 0.1, 0.0)
        assert p.value[0, 0] == pytest.approx(0.9, abs=1e-6)
        assert p.value[0, 0] == 1.0 - 0.1 * (1.0 / (1.0 + 1e-8))

    def test_decoupled_weight_decay_applies_before_update(self):
        p = Parameter([[1.0]], "p")
        p.grad[:] = 0.0
        p.grad_populated = True
        adamw_step([p], AdamWState(), 0.1, 0.5)
        assert p.value[0, 0] == 1.0 * (1.0 - 0.1 * 0.5)

    def test_unset_gradient_rejected(self):
        p = Parameter([[1.0]], "p")
        with pytest.raises(ValidationError, match="not populated"):
            adamw_step([p], AdamWState(), 0.1, 0.0)

    def test_step_counter_and_moments(self):
        p = Parameter([[1.0]], "p")
        state = AdamWState()
        assert state.t == 0 and not state.m
        for expected in (1, 2, 3):
            p.grad[:] = 0.5
            p.grad_populated = True
            adamw_step([p], state, 0.01, 0.0)
            assert state.t == expected

    def test_non_trainable_bit_identical_across_steps(self):
        frozen = Parameter([[0.1, 0.2], [0.3, 0.4]], "frozen", trainable=False)
        live = Parameter([[1.0, 1.0], [1.0, 1.0]], "live")
        before = frozen.value.copy()
        state = AdamWState()
        for _ in range(25):
            live.grad[:] = 1.0
            live.grad_populated = True
            adamw_step([frozen, live], state, 0.05, 0.01)
        assert np.array_equal(frozen.value, before)

    def test_invalid_rates_rejected(self):
        p = Parameter([[1.0]], "p")
        p.grad_populated = True
        with pytest.raises(ValidationError):
            adamw_step([p], AdamWState(), 0.0, 0.0)
        with pytest.raises(ValidationError):
            adamw_step([p], AdamWState(), 0.1, -1.0)

    def test_default_rates_accepted_from_config(self):
        from hglearn.config import RunConfig

        cfg = RunConfig()
        assert cfg.pretrain_lr == 3e-4 and cfg.pretrain_weight_decay == 1e-4
        assert cfg.tune_lr == 3e-4 and cfg.tune_weight_decay == 1e-4
        p = Parameter([[1.0]], "p")
        p.grad[:] = 1.0
        p.grad_populated = True
        adamw_step([p], AdamWState(), cfg.tune_lr, cfg.tune_weight_decay)
        assert p.value[0, 0] < 1.0

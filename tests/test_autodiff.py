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
from oracles import all_rows_cross_entropy
from tape_ops import mul, row_l2_normalize, sum_all, tape_nodes


def _bits(a) -> bytes:
    """The bytes of a float64 array or scalar: equal only when bit for bit equal."""
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


def test_annihilation_gives_zero_loss_and_grad():
    theta = Parameter([[1.5, -2.0], [0.25, 7.0]], "theta")
    loss = sum_all(mul(theta.leaf(), ad.const(np.zeros((2, 2)))))
    assert forward_backward(loss) == 0.0
    assert theta.grad is not None
    assert np.array_equal(theta.grad, np.zeros((2, 2)))


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


class TestRankOneMatmul:
    """An inner dimension of 1 is formed by broadcasting, not by a GEMM."""

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.integers(min_value=1, max_value=40),
        cols=st.integers(min_value=1, max_value=40),
        scale=st.integers(min_value=-200, max_value=200),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_matches_the_gemm_bitwise(self, rows, cols, scale, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((rows, 1)) * 10.0**scale
        b = rng.standard_normal((1, cols)) * 10.0 ** (-scale // 2)
        out = ad.matmul(a, b).value
        assert out.flags.c_contiguous
        assert np.array_equal(out, a @ b)

    def test_no_gemm_is_formed(self):
        class NoGemm(np.ndarray):
            def __matmul__(self, other):
                raise AssertionError("a rank-one product went through a GEMM")

        a = ad.Tensor(np.arange(3.0).reshape(3, 1).view(NoGemm))
        assert np.array_equal(ad.matmul(a, np.ones((1, 4))).value, np.repeat(a.value, 4, axis=1))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(12)
        a = Parameter(rng.standard_normal((5, 1)), "a")
        b = Parameter(rng.standard_normal((1, 4)), "b")
        target = ad.const(rng.standard_normal((5, 4)))

        def loss_fn(params):
            return sum_all(_square(ad.add(ad.matmul(a.leaf(), b.leaf()), target)))

        assert finite_difference_check(loss_fn, [a, b], 1e-6) <= 1e-6


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


def test_finite_difference_ignores_a_gradient_from_an_earlier_loss():
    a = Parameter([[0.5, -1.0]], "a")
    b = Parameter([[2.0, 0.25]], "b")
    forward_backward(ad.softmax_cross_entropy(ad.add(a.leaf(), b.leaf()), [0], [True]))
    assert b.grad.any()
    # the checked loss does not reach b, so its gradient there is zero
    err = finite_difference_check(
        lambda ps: ad.softmax_cross_entropy(a.leaf(), [0], [True]), [a, b])
    assert err <= 1e-8
    assert b.grad is None


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
    loss = mul(frozen.leaf(), live.leaf())
    forward_backward(loss)
    assert frozen.grad is None
    assert live.grad[0, 0] == 2.0


def test_reached_parameter_without_a_gradient_gets_exact_zeros():
    # an empty mask sends the token no gradient, though the loss reaches it
    token = Parameter([[1.0, 2.0]], "token")
    live = Parameter([[0.5, -0.5]], "live")
    masked = ad.mask_rows(ad.broadcast_add_row(np.ones((3, 2)), live.leaf()), [], token.leaf())
    forward_backward(sum_all(masked))
    assert np.array_equal(token.grad, np.zeros((1, 2)))
    assert np.copysign(1.0, token.grad).min() == 1.0  # +0.0, not -0.0
    assert np.array_equal(live.grad, np.full((1, 2), 3.0))
    adamw_step([token, live], AdamWState(), 0.1, 0.0)
    assert np.array_equal(token.value, [[1.0, 2.0]])


def test_gradients_are_set_not_accumulated_across_calls():
    p = Parameter([[3.0]], "p")
    for _ in range(3):
        forward_backward(mul(p.leaf(), p.leaf()))
    assert p.grad[0, 0] == 6.0


def test_each_parameter_gradient_is_its_own_array():
    # add hands the same output gradient to both operands
    p = Parameter([[1.0]], "p")
    q = Parameter([[2.0]], "q")
    loss = ad.add(p.leaf(), q.leaf())
    forward_backward(loss)
    assert p.grad is not q.grad
    assert p.grad is not loss.grad and q.grad is not loss.grad
    p.grad[0, 0] = 5.0
    assert q.grad[0, 0] == 1.0 and loss.grad[0, 0] == 1.0


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


# ties, logits far apart, and logits whose shifted values are near float64's range
_LOGIT_ENTRIES = st.sampled_from([0.0, 1.0, -1.0, 2.5, 1e300, -1e300]) | st.floats(-50.0, 50.0)


class TestCrossEntropyRows:
    """The loss is formed on the masked rows only, with the all-rows form's bits."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_the_all_rows_form_bitwise(self, data):
        n, c = data.draw(st.integers(1, 12)), data.draw(st.integers(2, 4))
        logits = np.array(data.draw(st.lists(_LOGIT_ENTRIES, min_size=n * c, max_size=n * c)))
        logits = logits.reshape(n, c)
        labels = np.array(data.draw(st.lists(st.integers(0, c - 1), min_size=n, max_size=n)))
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        mask[data.draw(st.integers(0, n - 1))] = True
        p = Parameter(logits, "logits")
        loss = forward_backward(ad.softmax_cross_entropy(p.leaf(), labels, mask))
        expected_loss, expected_grad = all_rows_cross_entropy(logits, labels, mask)
        assert _bits(loss) == _bits(expected_loss)
        assert _bits(p.grad) == _bits(expected_grad)
        assert not p.grad[~mask].any()

    def test_unmasked_rows_are_never_read(self):
        # a non-finite unmasked row would poison an all-rows max or exp
        logits = np.array([[1.0, 2.0], [np.nan, np.inf], [0.5, -0.5]])
        p = Parameter(logits, "logits")
        mask = np.array([True, False, True])
        loss = forward_backward(ad.softmax_cross_entropy(p.leaf(), [1, 0, 0], mask))
        expected_loss, expected_grad = all_rows_cross_entropy(logits[mask], [1, 0], [True, True])
        assert loss == expected_loss
        assert np.array_equal(p.grad[mask], expected_grad)
        assert np.array_equal(p.grad[1], [0.0, 0.0])


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
        elif op == "row_softmax":
            out = ad.row_softmax(a)
        else:
            out = ad.relu(a)
        pool.append(out)
    rows, d = pool[-1].value.shape
    return ad.softmax_cross_entropy(pool[-1], np.arange(rows) % d, np.ones(rows, bool))


_OPS = ("matmul", "add", "broadcast_add_row", "relu", "row_softmax")


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
                assert (p.grad is None) == (ref.grad is None)
            elif p is not None:
                assert p.grad is None
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
        assert frozen.grad is None


class TestAdamW:
    def test_zero_gradient_no_decay_leaves_params_unchanged(self):
        p = Parameter([[1.0, -2.0]], "p")
        p.grad = np.full((1, 2), 0.0)
        state = AdamWState()
        before = p.value.copy()
        adamw_step([p], state, 0.1, 0.0)
        assert np.array_equal(p.value, before)

    def test_hand_computed_single_step(self):
        # m_hat = v_hat = 1 after one step, so theta moves by lr/(1 + eps)
        p = Parameter([[1.0]], "p")
        p.grad = np.full((1, 1), 1.0)
        adamw_step([p], AdamWState(), 0.1, 0.0)
        assert p.value[0, 0] == pytest.approx(0.9, abs=1e-6)
        assert p.value[0, 0] == 1.0 - 0.1 * (1.0 / (1.0 + 1e-8))

    def test_decoupled_weight_decay_applies_before_update(self):
        p = Parameter([[1.0]], "p")
        p.grad = np.full((1, 1), 0.0)
        adamw_step([p], AdamWState(), 0.1, 0.5)
        assert p.value[0, 0] == 1.0 * (1.0 - 0.1 * 0.5)

    def test_unset_gradient_rejected(self):
        p = Parameter([[1.0]], "p")
        with pytest.raises(ValidationError, match="not populated"):
            adamw_step([p], AdamWState(), 0.1, 0.0)

    def test_gradient_is_used_once(self):
        p = Parameter([[1.0]], "p")
        state = AdamWState()
        forward_backward(mul(p.leaf(), ad.const([[1.0]])))
        adamw_step([p], state, 0.1, 0.0)
        after = p.value.copy()
        with pytest.raises(ValidationError, match="not populated"):
            adamw_step([p], state, 0.1, 0.0)
        assert np.array_equal(p.value, after) and state.t == 1
        assert p.grad is None

    def test_step_counter_and_moments(self):
        p = Parameter([[1.0]], "p")
        state = AdamWState()
        assert state.t == 0 and not state.m
        for expected in (1, 2, 3):
            p.grad = np.full((1, 1), 0.5)
            adamw_step([p], state, 0.01, 0.0)
            assert state.t == expected

    def test_moments_allocated_on_the_first_step_only(self, monkeypatch):
        p = Parameter([[1.0, -1.0]], "p")
        state = AdamWState()
        zeros_like, made = np.zeros_like, []
        monkeypatch.setattr(ad.np, "zeros_like", lambda a: made.append(a) or zeros_like(a))
        for _ in range(3):
            p.grad = np.full((1, 2), 0.5)
            adamw_step([p], state, 0.01, 0.0)
        assert len(made) == 2  # m and v, once
        assert state.m["p"].shape == state.v["p"].shape == (1, 2)
        assert state.layout == (("p", (1, 2)),)

    @pytest.mark.parametrize("change", ["new name", "changed shape", "dropped parameter"])
    def test_state_bound_to_one_trainable_set(self, change):
        a, b = Parameter(np.ones((2, 2)), "a"), Parameter(np.ones((1, 3)), "b")
        state = AdamWState()
        a.grad, b.grad = np.ones((2, 2)), np.ones((1, 3))
        adamw_step([a, b], state, 0.1, 0.0)
        later = {
            "new name": [a, Parameter(np.ones((1, 3)), "c")],
            "changed shape": [a, Parameter(np.ones((3, 1)), "b")],
            "dropped parameter": [a],
        }[change]
        for p in later:
            p.grad = np.ones(p.value.shape)
        before = [p.value.copy() for p in later]
        with pytest.raises(ValidationError, match="bound to"):
            adamw_step(later, state, 0.1, 0.0)
        assert state.t == 1
        assert all(np.array_equal(p.value, v) for p, v in zip(later, before))

    def test_duplicate_names_rejected(self):
        a, b = Parameter([[1.0]], "p"), Parameter([[2.0]], "p")
        a.grad, b.grad = np.ones((1, 1)), np.ones((1, 1))
        with pytest.raises(ValidationError, match="duplicate"):
            adamw_step([a, b], AdamWState(), 0.1, 0.0)

    def test_non_trainable_bit_identical_across_steps(self):
        frozen = Parameter([[0.1, 0.2], [0.3, 0.4]], "frozen", trainable=False)
        live = Parameter([[1.0, 1.0], [1.0, 1.0]], "live")
        before = frozen.value.copy()
        state = AdamWState()
        for _ in range(25):
            live.grad = np.full((2, 2), 1.0)
            adamw_step([frozen, live], state, 0.05, 0.01)
        assert np.array_equal(frozen.value, before)

    def test_invalid_rates_rejected(self):
        p = Parameter([[1.0]], "p")
        p.grad = np.full((1, 1), 0.0)
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
        p.grad = np.full((1, 1), 1.0)
        adamw_step([p], AdamWState(), cfg.tune_lr, cfg.tune_weight_decay)
        assert p.value[0, 0] < 1.0

"""Gradient exactness of the autodiff primitives against finite differences."""

import inspect
import math

import numpy as np
import pytest

from crossaec.errors import ShapeError, StateError
from crossaec.nn import tensor
from crossaec.nn.tensor import (
    Tensor,
    add,
    attention,
    constant,
    cross_entropy,
    embedding_lookup,
    layer_norm,
    linear,
    no_grad,
    relu,
    tanh,
    tensor_sum,
)


def numeric_grad(f, x, h=1e-6):
    """Central-difference gradient of scalar f at array x."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = f()
        flat[i] = orig - h
        down = f()
        flat[i] = orig
        gflat[i] = (up - down) / (2 * h)
    return g


def check_op(build_loss, *arrays, tol=1e-6):
    """Compare analytic grads of build_loss(*tensors) to finite differences
    at every coordinate; return the tensors, which hold the analytic grads."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    loss = build_loss(*tensors)
    loss.backward()
    for t, a in zip(tensors, arrays):
        num = numeric_grad(lambda: float(build_loss(*[Tensor(x.data) for x in tensors]).data), a)
        assert t.grad is not None
        np.testing.assert_allclose(t.grad, num, rtol=tol, atol=tol)
    return tensors


rng = np.random.default_rng(7)


def test_add_broadcast_grad():
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4,))
    check_op(lambda x, y: tensor_sum(tanh(add(x, y))), a, b)


def test_relu_grad():
    a = rng.normal(size=(5, 5))
    check_op(lambda x: tensor_sum(tanh(relu(x))), a)


def test_attention_large_logits_stay_finite():
    # One head of width 1, so the logits are exactly q * k = [1000, 999, -1000];
    # batch row b reads the weight of key b through the one-hot values e_b.
    q = np.ones((3, 1, 1))
    k = np.tile([[1000.0], [999.0], [-1000.0]], (3, 1, 1))
    v = np.eye(3)[:, :, None]
    mask = np.tile([True, True, False], (3, 1))
    probs = attention(Tensor(q), Tensor(k), Tensor(v), 1, mask).data.reshape(3)
    e = math.exp(-1.0)
    np.testing.assert_allclose(probs, [1 / (1 + e), e / (1 + e), 0.0], rtol=0, atol=1e-15)


@pytest.mark.parametrize(
    "lq, lk, dim, causal", [(5, 5, 6, True), (3, 6, 4, False)], ids=["causal-self", "cross"]
)
def test_attention_grad_every_coordinate(lq, lk, dim, causal):
    q = rng.normal(size=(2, lq, dim))
    k = rng.normal(size=(2, lk, dim))
    v = rng.normal(size=(2, lk, dim))
    key_mask = np.ones((2, lk), dtype=bool)
    key_mask[1, 3:] = False

    def loss(*qkv):
        return tensor_sum(tanh(attention(*qkv, 2, key_mask, causal)))

    _, k_t, v_t = check_op(loss, q, k, v)
    # Masked keys take no part in the output, so their gradients are exactly 0.
    assert (k_t.grad[~key_mask] == 0.0).all() and (v_t.grad[~key_mask] == 0.0).all()


def test_layer_norm_grad():
    x = rng.normal(size=(3, 5, 8))
    gain = rng.normal(size=(8,))
    offset = rng.normal(size=(8,))
    check_op(
        lambda a, g, o: tensor_sum(tanh(layer_norm(a, g, o))), x, gain, offset
    )


def test_embedding_grad():
    w = rng.normal(size=(7, 4))
    ids = np.array([[1, 3, 3], [0, 6, 2]])
    check_op(lambda t: tensor_sum(tanh(embedding_lookup(t, ids))), w)


def test_cross_entropy_matches_direct_formula():
    # Two-position case evaluated against the raw definition.
    logits = np.array([[1.0, -0.5, 0.25], [0.0, 2.0, -1.0]])
    targets = np.array([2, 1])
    loss = cross_entropy(Tensor(logits), targets, np.array([True, True]))
    expected = 0.0
    for row, t in zip(logits, targets):
        p = np.exp(row - row.max())
        p /= p.sum()
        expected += 0.5 * -np.log(p[t])
    assert abs(float(loss.data) - expected) < 1e-9


def test_embedding_of_no_ids_is_empty():
    assert embedding_lookup(Tensor(np.ones((3, 2))), np.zeros((1, 0))).data.shape == (1, 0, 2)


@pytest.mark.parametrize(
    "x_shape, bias_shape, part", [((2, 4), (3,), "input"), ((2, 5), (4,), "bias")]
)
def test_linear_rejects_input_or_bias_that_does_not_fit_the_weight(x_shape, bias_shape, part):
    with pytest.raises(ShapeError, match=f"linear {part}"):
        linear(Tensor(np.ones(x_shape)), Tensor(np.ones((5, 3))), Tensor(np.ones(bias_shape)))


def test_cross_entropy_grad():
    logits = rng.normal(size=(2, 3, 5))
    ids = rng.integers(0, 5, size=(2, 3))
    mask = np.array([[True, False, True], [False, True, True]])
    check_op(lambda x: cross_entropy(x, ids, mask), logits)


def test_backward_needs_a_scalar_with_a_graph():
    with pytest.raises(ShapeError, match="scalar"):
        tanh(Tensor(np.ones(2), requires_grad=True)).backward()
    with pytest.raises(StateError, match="no recorded graph"):
        tensor_sum(Tensor(np.ones(2))).backward()


def test_gradient_zero_for_unused_parameter():
    used = Tensor(np.ones((2, 2)), requires_grad=True)
    unused = Tensor(np.ones((2, 2)), requires_grad=True)
    loss = tensor_sum(tanh(used))
    loss.backward()
    assert unused.grad is None
    assert used.grad is not None


def test_backward_linearity():
    a = rng.normal(size=(3, 3))
    t1 = Tensor(a, requires_grad=True)
    loss1 = tensor_sum(tanh(t1))
    loss1.backward()
    g1 = t1.grad.copy()

    t2 = Tensor(a, requires_grad=True)
    s2 = tensor_sum(tanh(t2))
    add(s2, s2).backward()
    np.testing.assert_allclose(t2.grad, 2.0 * g1, rtol=0, atol=0)


def test_grad_accumulates_across_reuse():
    t = Tensor(np.array([[2.0]]), requires_grad=True)
    loss = tensor_sum(add(add(t, t), t))
    loss.backward()
    np.testing.assert_array_equal(t.grad, [[3.0]])


def test_second_backward_adds_exactly_one_more_gradient():
    # Depth 4: interior grads left over from the first pass used to be
    # replayed by the second, giving 3-4x the leaf gradient instead of 2x.
    a = rng.normal(size=(3, 3))
    t = Tensor(a, requires_grad=True)
    loss = tensor_sum(tanh(add(tanh(t), Tensor(a))))
    loss.backward()
    once = t.grad.copy()
    loss.backward()
    np.testing.assert_array_equal(t.grad, 2.0 * once)


def test_no_grad_blocks_graph():
    t = Tensor(np.ones((2, 2)), requires_grad=True)
    bias = Tensor(np.ones(2), requires_grad=True)
    seq = Tensor(np.ones((1, 2, 2)), requires_grad=True)
    with no_grad():
        outs = [
            add(t, t),
            linear(seq, t, bias),
            attention(seq, seq, seq, 2, np.ones((1, 2), dtype=bool)),
        ]
    assert not any(out.requires_grad for out in outs)


def test_every_op_returns_float64_data():
    # Op results skip Tensor's float64 conversion, so each op must make
    # float64 ndarrays itself; a new public op must join this list.
    local = np.random.default_rng(0)
    seq = Tensor(local.normal(size=(1, 3, 4)), requires_grad=True)
    weight = Tensor(local.normal(size=(4, 4)), requires_grad=True)
    bias = Tensor(np.zeros(4), requires_grad=True)
    ops = {
        "constant": lambda: constant([[1, 2]]),
        "add": lambda: add(seq, bias),
        "relu": lambda: relu(seq),
        "tanh": lambda: tanh(seq),
        "tensor_sum": lambda: tensor_sum(seq),
        "linear": lambda: linear(seq, weight, bias),
        "attention": lambda: attention(seq, seq, seq, 2, np.ones((1, 3), dtype=bool)),
        "layer_norm": lambda: layer_norm(seq, bias, bias),
        "embedding_lookup": lambda: embedding_lookup(weight, np.array([[0, 3]])),
        "cross_entropy": lambda: cross_entropy(
            seq, np.array([[0, 1, 3]]), np.ones((1, 3), dtype=bool)
        ),
    }
    public = {
        name
        for name, fn in inspect.getmembers(tensor, inspect.isfunction)
        if fn.__module__ == tensor.__name__ and not name.startswith("_")
    }
    assert sorted(public - {"no_grad"}) == sorted(ops)
    for name, op in ops.items():
        out = op()
        assert type(out.data) is np.ndarray and out.data.dtype == np.float64, name

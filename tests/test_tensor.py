"""The autodiff primitives: every op case passes ``gradient_check`` at every
coordinate within 1e-6, every op returns float64 data, and backward keeps its
graph contracts. One table of op cases feeds the gradient and dtype tests,
and every public op but ``constant`` and ``no_grad`` needs a case in it."""

import inspect
import math

import numpy as np
import pytest

from crossaec.errors import ShapeError, StateError
from crossaec.nn import tensor
from crossaec.nn.gradcheck import gradient_check
from crossaec.nn.params import ParameterStore
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

rng = np.random.default_rng(7)

KEY_MASK = np.array([[True] * 6, [True] * 3 + [False] * 3])

# Each op case: the op it checks, the shapes of its inputs (in the op's
# argument order), and the call of the op on them.
OP_CASES = {
    "add-broadcast": ("add", [(3, 4), (4,)], add),
    "relu": ("relu", [(5, 5)], relu),
    "tanh": ("tanh", [(3, 4)], tanh),
    "tensor_sum": ("tensor_sum", [(3, 4)], tensor_sum),
    "linear-2d": ("linear", [(4, 5), (5, 3)], linear),
    "linear-2d-bias": ("linear", [(4, 5), (5, 3), (3,)], linear),
    "linear-3d": ("linear", [(2, 3, 5), (5, 3)], linear),
    "linear-3d-bias": ("linear", [(2, 3, 5), (5, 3), (3,)], linear),
    "attention-causal-self": (
        "attention",
        [(2, 5, 6)] * 3,
        lambda q, k, v: attention(q, k, v, 2, KEY_MASK[:, :5], causal=True),
    ),
    "attention-cross": (
        "attention",
        [(2, 3, 4), (2, 6, 4), (2, 6, 4)],
        lambda q, k, v: attention(q, k, v, 2, KEY_MASK),
    ),
    "layer_norm": ("layer_norm", [(3, 5, 8), (8,), (8,)], layer_norm),
    "embedding_lookup": (
        "embedding_lookup",
        [(7, 4)],
        lambda w: embedding_lookup(w, [[1, 3, 3], [0, 6, 2]]),
    ),
    "cross_entropy": (
        "cross_entropy",
        [(2, 3, 5)],
        lambda x: cross_entropy(
            x, [[4, 0, 2], [1, 1, 3]], [[True, False, True], [False, True, True]]
        ),
    ),
}


def _inputs(shapes):
    """A store holding one normal random input per shape, and those inputs."""
    store, values = ParameterStore(), np.random.default_rng(7)
    inputs = [store.create(f"x{i}", values.normal(size=shape)) for i, shape in enumerate(shapes)]
    return store, inputs


@pytest.mark.parametrize("case", sorted(OP_CASES))
def test_op_gradient_at_every_coordinate(case):
    name, shapes, op = OP_CASES[case]
    store, inputs = _inputs(shapes)
    assert gradient_check(lambda: tensor_sum(tanh(op(*inputs))), store) <= 1e-6
    if name == "attention":
        # Masked keys take no part in the output, so their gradients are exactly 0.
        _, k, v = inputs
        masked = ~KEY_MASK[:, : k.data.shape[1]]
        assert (k.grad[masked] == 0.0).all() and (v.grad[masked] == 0.0).all()


def _square_wrong_at(t, coordinate):
    """``t * t``, with a VJP that is right except at one flat coordinate."""

    def vjp(g):
        grad = 2.0 * t.data * g
        grad.reshape(-1)[coordinate] *= 3.0
        t.grad = grad if t.grad is None else t.grad + grad

    return tensor._make(t.data * t.data, (t,), vjp)


def test_gradient_check_finds_one_wrong_coordinate():
    # A VJP wrong at one coordinate of 24 fails the check: every coordinate counts.
    store, (x,) = _inputs([(4, 6)])
    assert gradient_check(lambda: tensor_sum(_square_wrong_at(x, 5)), store) > 1e-2


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
    # float64 ndarrays itself. A new public op must join OP_CASES, which also
    # gives it a gradient check: only constant and no_grad have none.
    public = {
        name
        for name, fn in inspect.getmembers(tensor, inspect.isfunction)
        if fn.__module__ == tensor.__name__ and not name.startswith("_")
    }
    cased = {name for name, _, _ in OP_CASES.values()}
    assert sorted(public - {"constant", "no_grad"}) == sorted(cased)
    outs = {case: op(*_inputs(shapes)[1]) for case, (_, shapes, op) in OP_CASES.items()}
    outs["constant"] = constant([[1, 2]])
    for case, out in outs.items():
        assert type(out.data) is np.ndarray and out.data.dtype == np.float64, case

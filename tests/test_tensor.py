"""Gradient exactness of the autodiff primitives against finite differences."""

import math

import numpy as np
import pytest

from crossaec.errors import DegenerateInputError, ShapeError, VocabularyError
from crossaec.nn.tensor import (
    Tensor,
    add,
    attention,
    cross_entropy,
    embedding_lookup,
    layer_norm,
    linear,
    masked_softmax,
    matmul,
    mul,
    no_grad,
    relu,
    reshape,
    scale,
    swapaxes,
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
    """Compare analytic grads of build_loss(*tensors) to finite differences."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    loss = build_loss(*tensors)
    loss.backward()
    for t, a in zip(tensors, arrays):
        num = numeric_grad(lambda: float(build_loss(*[Tensor(x.data) for x in tensors]).data), a)
        assert t.grad is not None
        np.testing.assert_allclose(t.grad, num, rtol=tol, atol=tol)


rng = np.random.default_rng(7)


def test_add_broadcast_grad():
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4,))
    check_op(lambda x, y: tensor_sum(mul(add(x, y), add(x, y))), a, b)


def test_matmul_grad():
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    check_op(lambda x, y: tensor_sum(tanh(matmul(x, y))), a, b)


def test_matmul_batched_grad():
    a = rng.normal(size=(2, 3, 4))
    b = rng.normal(size=(2, 4, 3))
    check_op(lambda x, y: tensor_sum(matmul(x, y)), a, b)


def test_matmul_broadcast_batch_grad():
    a = rng.normal(size=(2, 5, 3, 4))
    b = rng.normal(size=(4, 3))
    check_op(lambda x, y: tensor_sum(tanh(matmul(x, y))), a, b)


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_reshape_swapaxes_grad():
    a = rng.normal(size=(2, 3, 4))
    check_op(
        lambda x: tensor_sum(tanh(reshape(swapaxes(x, 0, 2), (4, 6)))), a
    )


def test_relu_grad():
    a = rng.normal(size=(5, 5))
    check_op(lambda x: tensor_sum(mul(relu(x), relu(x))), a)


def test_masked_softmax_rows_sum_to_one():
    logits = Tensor(rng.normal(size=(6, 9)))
    mask = rng.random((6, 9)) > 0.3
    mask[:, 0] = True
    probs = masked_softmax(logits, mask).data
    np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-9)
    assert (probs[~mask] == 0.0).all()


def test_masked_softmax_large_logits_stay_finite():
    logits = Tensor(np.array([[1000.0, 999.0, -1000.0]]))
    probs = masked_softmax(logits, np.array([[True, True, False]])).data
    e = math.exp(-1.0)
    np.testing.assert_allclose(probs, [[1 / (1 + e), e / (1 + e), 0.0]], atol=1e-15)


def test_masked_softmax_grad():
    a = rng.normal(size=(4, 6))
    mask = rng.random((4, 6)) > 0.4
    mask[:, 2] = True

    def loss(x):
        return tensor_sum(mul(masked_softmax(x, mask), Tensor(np.arange(24.0).reshape(4, 6))))

    check_op(loss, a)


def test_masked_softmax_all_masked_rejected():
    with pytest.raises(DegenerateInputError):
        masked_softmax(Tensor(np.zeros((2, 3))), np.zeros((2, 3), dtype=bool))


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
    weights = np.array([0.5, 0.5])
    loss = cross_entropy(Tensor(logits), targets, weights)
    expected = 0.0
    for row, t in zip(logits, targets):
        p = np.exp(row - row.max())
        p /= p.sum()
        expected += 0.5 * -np.log(p[t])
    assert abs(float(loss.data) - expected) < 1e-9


def test_cross_entropy_rejects_weights_that_do_not_fit_targets():
    with pytest.raises(ShapeError, match="weights"):
        cross_entropy(
            Tensor(np.zeros((1, 2, 5))), np.zeros((1, 2), dtype=np.int64), np.ones((1, 3))
        )


_WEIGHT_3X2 = Tensor(np.arange(6.0).reshape(3, 2))
OUT_OF_VOCABULARY = {
    "embedding-negative": lambda: embedding_lookup(_WEIGHT_3X2, [[-1]]),
    "embedding-vocab-size": lambda: embedding_lookup(_WEIGHT_3X2, [[3]]),
    "embedding-float": lambda: embedding_lookup(_WEIGHT_3X2, [[1.7]]),
    "embedding-bool": lambda: embedding_lookup(_WEIGHT_3X2, [[True]]),
    "cross-entropy-negative": lambda: cross_entropy(
        Tensor(np.zeros((1, 2, 5))), [[-1, 0]], np.ones((1, 2))
    ),
    "cross-entropy-float": lambda: cross_entropy(
        Tensor(np.zeros((1, 2, 5))), [[0.5, 1.9]], np.ones((1, 2))
    ),
    "cross-entropy-bool": lambda: cross_entropy(
        Tensor(np.zeros((1, 2, 5))), [[True, False]], np.ones((1, 2))
    ),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_VOCABULARY))
def test_primitives_reject_ids_outside_vocabulary(case):
    with pytest.raises(VocabularyError):
        OUT_OF_VOCABULARY[case]()


def test_embedding_of_no_ids_is_empty():
    assert embedding_lookup(_WEIGHT_3X2, np.zeros((1, 0))).data.shape == (1, 0, 2)


def test_cross_entropy_grad():
    logits = rng.normal(size=(2, 3, 5))
    ids = rng.integers(0, 5, size=(2, 3))
    w = rng.random((2, 3))
    check_op(lambda x: cross_entropy(x, ids, w), logits)


def test_gradient_zero_for_unused_parameter():
    used = Tensor(np.ones((2, 2)), requires_grad=True)
    unused = Tensor(np.ones((2, 2)), requires_grad=True)
    loss = tensor_sum(mul(used, used))
    loss.backward()
    assert unused.grad is None
    assert used.grad is not None


def test_backward_linearity():
    a = rng.normal(size=(3, 3))
    t1 = Tensor(a, requires_grad=True)
    loss1 = tensor_sum(mul(t1, t1))
    loss1.backward()
    g1 = t1.grad.copy()

    t2 = Tensor(a, requires_grad=True)
    loss2 = scale(tensor_sum(mul(t2, t2)), 2.0)
    loss2.backward()
    np.testing.assert_allclose(t2.grad, 2.0 * g1, rtol=0, atol=0)


def test_grad_accumulates_across_reuse():
    t = Tensor(np.array([[2.0]]), requires_grad=True)
    loss = tensor_sum(add(mul(t, t), t))
    loss.backward()
    np.testing.assert_allclose(t.grad, [[5.0]])


def test_second_backward_adds_exactly_one_more_gradient():
    # Depth 4: interior grads left over from the first pass used to be
    # replayed by the second, giving 3-4x the leaf gradient instead of 2x.
    a = rng.normal(size=(3, 3))
    t = Tensor(a, requires_grad=True)
    loss = tensor_sum(scale(tanh(mul(t, t)), 0.5))
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
            mul(t, t),
            linear(seq, t, bias),
            attention(seq, seq, seq, 2, np.ones((1, 2), dtype=bool)),
        ]
    assert not any(out.requires_grad for out in outs)

"""Layer-level contracts: gradcheck per layer type, Adam, attention oracle."""

import math

import numpy as np
import pytest

from crossaec.errors import ConfigurationError, DegenerateInputError, ShapeError
from crossaec.nn import (
    AdamOptimizer,
    Embedding,
    FeedForward,
    LayerNorm,
    Linear,
    ModelConfig,
    MultiHeadAttention,
    OptimizerConfig,
    ParameterStore,
    Tensor,
    cross_entropy,
    cross_entropy_loss,
    attention,
    gradient_check,
    linear,
    masked_softmax,
    matmul,
    mul,
    reshape,
    scale,
    swapaxes,
    tensor_sum,
)
from crossaec.nn.tensor import _make, add, tanh


def _attend(q, k, v, key_mask=None):
    """Single-head ``attention`` over 2D (length, d) matrices."""
    lk = len(k)
    mask = np.ones(lk, dtype=bool) if key_mask is None else key_mask
    out = attention(
        Tensor(q[None]), Tensor(k[None]), Tensor(v[None]), 1, mask[None, None, :]
    )
    return out.data[0]


def test_attention_single_key_returns_value():
    q = np.random.default_rng(0).normal(size=(3, 4))
    k = np.ones((1, 4))
    v = np.array([[1.0, 2.0, 3.0, 4.0]])
    out = _attend(q, k, v)
    for row in out:
        np.testing.assert_allclose(row, v[0], atol=1e-12)


def test_attention_identical_keys_average_values():
    rng = np.random.default_rng(1)
    q = rng.normal(size=(2, 3))
    k = np.tile(rng.normal(size=(1, 3)), (5, 1))
    v = rng.normal(size=(5, 3))
    out = _attend(q, k, v)
    np.testing.assert_allclose(out, np.tile(v.mean(axis=0), (2, 1)), atol=1e-12)


def test_attention_two_key_hand_case():
    # Inputs built so the logits are exactly {ln 2, 0}: softmax = (2/3, 1/3),
    # so the output mixes V as 2/3*1 + 1/3*4 = 2.
    q = np.array([[1.0]])
    k = np.array([[math.log(2.0)], [0.0]])
    v = np.array([[1.0], [4.0]])
    out = _attend(q, k, v)
    assert abs(out[0, 0] - 2.0) < 1e-9
    # Independent scalar brute-force evaluation of the same definition.
    logits = np.array([1.0 * math.log(2.0), 0.0]) / math.sqrt(1)
    e = np.exp(logits - logits.max())
    w = e / e.sum()
    brute = w[0] * 1.0 + w[1] * 4.0
    assert abs(out[0, 0] - brute) < 1e-12


def test_attention_masked_keys_get_zero_weight():
    rng = np.random.default_rng(2)
    q = rng.normal(size=(2, 3))
    k = rng.normal(size=(4, 3))
    v = rng.normal(size=(4, 3))
    mask = np.array([True, False, True, False])
    out = _attend(q, k, v, mask)
    # Equivalent to attention over only the kept rows.
    np.testing.assert_allclose(out, _attend(q, k[mask], v[mask]), atol=1e-12)


def test_attention_errors():
    ones = np.ones
    with pytest.raises(ShapeError):  # query and key dims differ
        _attend(ones((2, 3)), ones((2, 4)), ones((2, 4)))
    with pytest.raises(ShapeError):  # key and value lengths differ
        _attend(ones((2, 3)), ones((2, 3)), ones((3, 3)))
    with pytest.raises(ShapeError):  # mask does not fit the keys
        _attend(ones((2, 3)), ones((2, 3)), ones((2, 3)), np.ones(3, dtype=bool))
    with pytest.raises(ShapeError):  # heads do not divide dim
        x = Tensor(ones((1, 2, 3)))
        attention(x, x, x, 2, np.ones((1, 1, 2), dtype=bool))
    with pytest.raises(DegenerateInputError):
        _attend(ones((2, 3)), ones((2, 3)), ones((2, 3)), np.array([False, False]))


@pytest.mark.parametrize("key_mask", [np.ones(3, bool), np.ones((1, 2), bool)])
def test_multi_head_attention_rejects_misshapen_key_mask(key_mask):
    attn = MultiHeadAttention(ParameterStore(), "attn", 4, 2, _tiny_rng())
    x = Tensor(np.ones((1, 3, 4)))
    with pytest.raises(ShapeError):
        attn(x, x, key_mask=key_mask)


def test_cross_entropy_loss_uniform_logits_is_log_vocab():
    logits = Tensor(np.zeros((1, 3, 8)))
    ids = np.array([[1, 2, 3]])
    mask = np.ones((1, 3), dtype=bool)
    loss = float(cross_entropy_loss(logits, ids, mask).data)
    assert abs(loss - math.log(8)) < 1e-9


def test_cross_entropy_loss_perfect_prediction_near_zero():
    logits = np.full((1, 2, 5), -30.0)
    logits[0, 0, 3] = 30.0
    logits[0, 1, 1] = 30.0
    loss = float(
        cross_entropy_loss(
            Tensor(logits), np.array([[3, 1]]), np.ones((1, 2), dtype=bool)
        ).data
    )
    assert loss <= 1e-3


def test_cross_entropy_loss_all_masked_rejected():
    with pytest.raises(DegenerateInputError):
        cross_entropy_loss(
            Tensor(np.zeros((1, 2, 4))),
            np.array([[0, 1]]),
            np.zeros((1, 2), dtype=bool),
        )


def _tiny_rng():
    return np.random.default_rng(123)


def test_gradcheck_linear():
    store = ParameterStore()
    lin = Linear(store, "lin", 5, 3, _tiny_rng())
    x = np.random.default_rng(5).normal(size=(2, 4, 5))

    def loss():
        return tensor_sum(tanh(lin(Tensor(x))))

    assert gradient_check(loss, store) <= 1e-4


def test_gradcheck_embedding():
    store = ParameterStore()
    emb = Embedding(store, "emb", 9, 6, _tiny_rng())
    ids = np.array([[1, 4, 4, 8], [0, 2, 3, 5]])

    def loss():
        return tensor_sum(tanh(emb(ids)))

    assert gradient_check(loss, store) <= 1e-4


def test_gradcheck_layer_norm():
    store = ParameterStore()
    ln = LayerNorm(store, "norm", 6)
    x = np.random.default_rng(6).normal(size=(3, 6))

    def loss():
        return tensor_sum(tanh(ln(Tensor(x))))

    assert gradient_check(loss, store) <= 1e-4


def test_gradcheck_feedforward():
    store = ParameterStore()
    ff = FeedForward(store, "ff", 4, 7, _tiny_rng())
    x = np.random.default_rng(8).normal(size=(2, 3, 4))

    def loss():
        return tensor_sum(tanh(ff(Tensor(x))))

    assert gradient_check(loss, store) <= 1e-4


def test_gradcheck_attention():
    store = ParameterStore()
    attn = MultiHeadAttention(store, "attn", 8, 2, _tiny_rng())
    rng = np.random.default_rng(9)
    x = rng.normal(size=(2, 5, 8))
    kv = rng.normal(size=(2, 4, 8))
    mask = np.ones((2, 4), dtype=bool)
    mask[1, 2:] = False

    def loss():
        return tensor_sum(tanh(attn(Tensor(x), Tensor(kv), key_mask=mask)))

    assert gradient_check(loss, store) <= 1e-4


@pytest.mark.parametrize("shape", [(4, 5), (2, 3, 5)])
@pytest.mark.parametrize("with_bias", [True, False])
def test_gradcheck_linear_primitive(shape, with_bias):
    rng = np.random.default_rng(12)
    store = ParameterStore()
    # The input is a parameter too, so its gradient is checked as well.
    x = store.create("x", rng.normal(size=shape))
    weight = store.create("weight", rng.normal(size=(5, 3)))
    bias = store.create("bias", rng.normal(size=3)) if with_bias else None

    def loss():
        return tensor_sum(tanh(linear(x, weight, bias)))

    assert gradient_check(loss, store) <= 1e-6


def _attention_inputs(store, rng, batch, lq, lk, dim):
    q = store.create("q", rng.normal(size=(batch, lq, dim)))
    k = store.create("k", rng.normal(size=(batch, lk, dim)))
    v = store.create("v", rng.normal(size=(batch, lk, dim)))
    return q, k, v


def test_gradcheck_attention_primitive_causal_padded_self():
    rng = np.random.default_rng(13)
    store = ParameterStore()
    q, k, v = _attention_inputs(store, rng, 2, 5, 5, 6)
    key_mask = np.ones((2, 5), dtype=bool)
    key_mask[1, 3:] = False
    mask = key_mask[:, None, :] & np.tril(np.ones((5, 5), dtype=bool))

    def loss():
        return tensor_sum(tanh(attention(q, k, v, 2, mask)))

    assert gradient_check(loss, store) <= 1e-6


def test_gradcheck_attention_primitive_padded_cross():
    rng = np.random.default_rng(14)
    store = ParameterStore()
    q, k, v = _attention_inputs(store, rng, 2, 3, 6, 4)
    memory_mask = np.ones((2, 6), dtype=bool)
    memory_mask[0, 4:] = False

    def loss():
        return tensor_sum(tanh(attention(q, k, v, 2, memory_mask[:, None, :])))

    assert gradient_check(loss, store) <= 1e-6


def _reference_attention(attn, query_in, kv_in, key_mask, causal):
    """MultiHeadAttention as a composition of matmul, scale, masked_softmax,
    reshape and swapaxes nodes, one per step."""
    batch, lq, dim = query_in.data.shape
    lk = kv_in.data.shape[1]
    heads, dh = attn.num_heads, dim // attn.num_heads

    def project(lin, x):
        out = matmul(x, lin.weight)
        return add(out, lin.bias) if lin.bias is not None else out

    def split(x, length):
        return swapaxes(reshape(x, (batch, length, heads, dh)), 1, 2)

    q = split(project(attn.q_proj, query_in), lq)
    k = split(project(attn.k_proj, kv_in), lk)
    v = split(project(attn.v_proj, kv_in), lk)
    logits = scale(matmul(q, swapaxes(k, -1, -2)), 1.0 / math.sqrt(dh))
    mask = np.ones((batch, 1, lq, lk), dtype=bool)
    mask = mask & key_mask[:, None, None, :]
    if causal:
        mask = mask & np.tril(np.ones((lq, lk), dtype=bool))
    mixed = matmul(masked_softmax(logits, mask), v)
    merged = reshape(swapaxes(mixed, 1, 2), (batch, lq, dim))
    return project(attn.o_proj, merged)


@pytest.mark.parametrize("causal", [True, False])
def test_attention_matches_reference_composition(causal):
    rng = np.random.default_rng(15)
    store = ParameterStore()
    attn = MultiHeadAttention(store, "attn", 8, 2, rng)
    x = store.create("x", rng.normal(size=(3, 5, 8)))
    kv = x if causal else store.create("kv", rng.normal(size=(3, 7, 8)))
    key_mask = np.ones(kv.data.shape[:2], dtype=bool)
    key_mask[1, 3:] = False
    probe = Tensor(rng.normal(size=x.data.shape))

    def outputs_and_grads(forward):
        store.zero_grad()
        out = forward(attn, x, kv, key_mask, causal)
        tensor_sum(mul(out, probe)).backward()
        return out.data, {name: t.grad.copy() for name, t in store.items()}

    out, grads = outputs_and_grads(
        lambda a, q, m, mask, c: a(q, m, key_mask=mask, causal=c)
    )
    ref_out, ref_grads = outputs_and_grads(_reference_attention)
    np.testing.assert_allclose(out, ref_out, rtol=0, atol=1e-12)
    assert grads.keys() == ref_grads.keys()
    for name in grads:
        np.testing.assert_allclose(grads[name], ref_grads[name], rtol=0, atol=1e-12)


def test_gradcheck_output_projection_with_loss():
    store = ParameterStore()
    rng = _tiny_rng()
    emb = Embedding(store, "emb", 11, 6, rng)
    ids = np.array([[1, 2, 3]])
    targets = np.array([[4, 5, 6]])

    def loss():
        h = tanh(emb(ids))
        logits = matmul(matmul(h, Tensor(np.eye(6))), _transpose_embedding(emb))
        return cross_entropy(logits, targets, np.full((1, 3), 1 / 3))

    def _transpose_embedding(e):
        from crossaec.nn import swapaxes

        return swapaxes(e.weight, 0, 1)

    assert gradient_check(loss, store) <= 1e-4


def test_gradcheck_detects_corrupted_vjp():
    # An op whose backward is deliberately wrong by 2x must blow past 1e-2.
    store = ParameterStore()
    p = store.create("p", np.array([1.3, -0.4, 0.8]))

    def bad_square(t):
        data = t.data * t.data

        def vjp(g):
            t.grad = (t.grad if t.grad is not None else 0) + 4.0 * t.data * g

        return _make(data, (t,), vjp)

    def loss():
        return tensor_sum(bad_square(p))

    assert gradient_check(loss, store) > 1e-2


def test_gradcheck_deterministic():
    store = ParameterStore()
    lin = Linear(store, "lin", 6, 6, _tiny_rng())
    x = np.random.default_rng(11).normal(size=(3, 6))

    def loss():
        return tensor_sum(tanh(lin(Tensor(x))))

    r1 = gradient_check(loss, store, seed=3)
    r2 = gradient_check(loss, store, seed=3)
    assert r1 == r2


def test_adam_zero_gradient_leaves_parameters():
    store = ParameterStore()
    p = store.create("p", np.array([1.0, 2.0]))
    p.grad = np.zeros(2)
    AdamOptimizer(store, OptimizerConfig(learning_rate=0.1)).step()
    np.testing.assert_allclose(p.data, [1.0, 2.0])


def test_adam_single_step_matches_hand_formula():
    store = ParameterStore()
    p = store.create("p", np.array([0.5]))
    p.grad = np.array([1.0])
    cfg = OptimizerConfig(learning_rate=0.1)
    AdamOptimizer(store, cfg).step()
    m_hat = (0.1 * 1.0) / (1 - 0.9)
    v_hat = (0.001 * 1.0) / (1 - 0.999)
    expected = 0.5 - 0.1 * m_hat / (math.sqrt(v_hat) + 1e-8)
    assert abs(p.data[0] - expected) < 1e-15


def test_model_config_validation():
    with pytest.raises(ConfigurationError):
        ModelConfig(model_dim=10, num_heads=4)
    with pytest.raises(ConfigurationError):
        ModelConfig(vocab_size=0)
    cfg = ModelConfig()
    assert cfg.model_dim % cfg.num_heads == 0


def test_model_config_dict_round_trip():
    cfg = ModelConfig(model_dim=32, num_heads=2, vocab_size=50, seed=7)
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg


@pytest.mark.parametrize(
    "data, named",
    [
        ({"model_dim": 64, "dropout": 0.1}, "dropout"),
        ({"model_dim": "64"}, "model_dim"),
        ({"num_heads": 2.0}, "num_heads"),
        ({"encoder_layers": True}, "encoder_layers"),
        ({"seed": None}, "seed"),
        ({"seed": -1}, "seed"),
    ],
    ids=["unknown-key", "string", "float", "bool", "none-seed", "negative-seed"],
)
def test_model_config_from_dict_rejects_bad_keys_and_types(data, named):
    with pytest.raises(ConfigurationError, match=named):
        ModelConfig.from_dict(data)


def _store(values):
    store = ParameterStore()
    for name, value in values.items():
        store.create(name, value)
    return store


def test_state_dict_round_trip_returns_copies():
    values = {"w": np.arange(6.0).reshape(2, 3), "b": np.array([0.5, -0.5])}
    source = _store(values)
    state = source.state_dict()
    state["w"][0, 0] = 99.0
    assert source["w"].data[0, 0] == 0.0
    target = _store({name: np.zeros_like(v) for name, v in values.items()})
    target.load_state_dict(source.state_dict())
    for name, value in values.items():
        np.testing.assert_array_equal(target[name].data, value)
    state = source.state_dict()
    target.load_state_dict(state)
    state["b"][0] = 99.0
    assert target["b"].data[0] == 0.5


def test_load_state_dict_rejects_name_and_shape_mismatch():
    store = _store({"w": np.zeros((2, 3)), "b": np.zeros(2)})
    with pytest.raises(ShapeError, match="names mismatch"):
        store.load_state_dict({"w": np.zeros((2, 3)), "c": np.zeros(2)})
    with pytest.raises(ShapeError, match="shape mismatch"):
        store.load_state_dict({"w": np.zeros((3, 2)), "b": np.zeros(2)})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_load_state_dict_rejects_non_finite_values(bad):
    store = _store({"w": np.zeros(2), "b": np.zeros(2)})
    with pytest.raises(DegenerateInputError, match="for w"):
        store.load_state_dict({"w": [bad, 1.0], "b": [0.0, 0.0]})
    np.testing.assert_array_equal(store["w"].data, [0.0, 0.0])


@pytest.mark.parametrize("bad", [["a", 1.0], [{"x": 1}, 1.0]], ids=["string", "dict"])
def test_load_state_dict_rejects_non_numeric_values(bad):
    store = _store({"w": np.zeros(2), "b": np.zeros(2)})
    with pytest.raises(ShapeError, match="for w"):
        store.load_state_dict({"b": [0.0, 0.0], "w": bad})

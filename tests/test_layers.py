"""Layer-level contracts: the whole corrector's gradient check, Adam, a numpy
attention oracle."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from crossaec.errors import ConfigurationError, DegenerateInputError, ShapeError
from crossaec.nn.config import ModelConfig, OptimizerConfig
from crossaec.nn.gradcheck import gradient_check
from crossaec.nn.layers import (
    Decoder,
    Encoder,
    MultiHeadAttention,
    _Rows,
    cross_entropy_loss,
)
from crossaec.nn.optim import AdamOptimizer
from crossaec.nn.params import ParameterStore
from crossaec.nn.tensor import Tensor, attention, cross_entropy

# The benchmark's corrector; ROADMAP item 16 moves it into the package.
from corrector import Corrector


def _attend(q, k, v, key_mask=None):
    """Single-head ``attention`` over 2D (length, d) matrices."""
    lk = len(k)
    mask = np.ones(lk, dtype=bool) if key_mask is None else key_mask
    out = attention(Tensor(q[None]), Tensor(k[None]), Tensor(v[None]), 1, mask[None])
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
    x = Tensor(np.ones((1, 2, 3)))
    keep = np.ones((1, 2), dtype=bool)
    with pytest.raises(ShapeError):  # query and key dims differ
        attention(x, Tensor(np.ones((1, 2, 4))), Tensor(np.ones((1, 2, 4))), 1, keep)
    with pytest.raises(ShapeError):  # key and value lengths differ
        attention(x, x, Tensor(np.ones((1, 3, 3))), 1, keep)
    with pytest.raises(ShapeError):  # mask does not fit the keys
        attention(x, x, x, 1, np.ones((1, 3), dtype=bool))
    with pytest.raises(ShapeError):  # heads do not divide dim
        attention(x, x, x, 2, keep)
    with pytest.raises(DegenerateInputError):  # every key masked
        attention(x, x, x, 1, ~keep)


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


@pytest.mark.parametrize(
    "target_shape, mask_shape",
    [((1, 2), (1, 3)), ((1, 3), (1, 2)), ((1, 2), (1, 1))],
    ids=["mask-longer", "target-longer", "mask-broadcasts"],
)
def test_cross_entropy_loss_rejects_mismatched_shapes(target_shape, mask_shape):
    with pytest.raises(ShapeError):
        cross_entropy_loss(
            Tensor(np.zeros((1, 2, 5))),
            np.zeros(target_shape, dtype=np.int64),
            np.ones(mask_shape, dtype=bool),
        )


def test_decoder_over_empty_memory_is_degenerate():
    config = ModelConfig(model_dim=4, num_heads=2, decoder_layers=1, feedforward_dim=8)
    decoder = Decoder(ParameterStore(), "dec", config, _tiny_rng())
    with pytest.raises(DegenerateInputError):
        decoder(
            Tensor(np.ones((1, 2, 4))),
            np.ones((1, 2), dtype=bool),
            Tensor(np.ones((1, 0, 4))),
            np.ones((1, 0), dtype=bool),
        )


def _tiny_rng():
    return np.random.default_rng(123)


def _padded(lengths, width):
    """A (len(lengths), width) mask, true on the first ``length`` places of each row."""
    return np.arange(width) < np.array(lengths)[:, None]


def _corrector_case(seed):
    """The corrector at 2+2 layers, so block chaining is checked, and a batch
    of 2 with 6 tokens and 12 frames, padded in the source, the target and
    the frames."""
    config = ModelConfig(
        model_dim=8, num_heads=2, encoder_layers=2, decoder_layers=2,
        feedforward_dim=12, max_seq_len=6, vocab_size=9, seed=seed, feature_dim=3,
    )
    data = np.random.default_rng(seed)
    batch = SimpleNamespace(
        src=data.integers(0, 9, size=(2, 6)),
        src_mask=_padded([6, 4], 6),
        dsu=data.normal(size=(2, 12, 3)),
        dsu_mask=_padded([12, 7], 12),
        tgt_in=data.integers(0, 9, size=(2, 6)),
        tgt_out=data.integers(0, 9, size=(2, 6)),
        tgt_mask=_padded([5, 6], 6),
    )
    return Corrector(config), batch


def test_whole_corrector_gradient_at_every_coordinate():
    # Embedding and positions, encoder, project_features, fusion
    # cross-attention, decoder, head and the masked loss, over every parameter.
    model, batch = _corrector_case(0)
    assert gradient_check(lambda: model.loss(batch), model.store) <= 1e-4


def test_corrector_rejects_a_source_longer_than_max_seq_len():
    # Ten source tokens meet the six sinusoidal positions in ``tensor.add``.
    model, batch = _corrector_case(0)
    with pytest.raises(ShapeError, match=r"\(1, 10, 8\) and \(6, 8\)"):
        model.greedy([4] * 10, batch.dsu[0], 1)


def _stack_case(stack):
    """An encoder or decoder at 2 layers and a batch of 3 padded sequences of
    lengths 5, 3 and 1, over memories of lengths 4, 6 and 2."""
    config = ModelConfig(
        model_dim=8, num_heads=2, encoder_layers=2, decoder_layers=2, feedforward_dim=12
    )
    store = ParameterStore()
    model = stack(store, "stack", config, _tiny_rng())
    data = np.random.default_rng(4)
    inputs = SimpleNamespace(
        x=data.normal(size=(3, 5, 8)),
        mask=_padded([5, 3, 1], 5),
        memory=data.normal(size=(3, 6, 8)),
        memory_mask=_padded([4, 6, 2], 6),
        ids=data.integers(0, 8, size=(3, 5)),
    )
    return model, store, inputs


def _run_stack(model, store, x, mask, memory, memory_mask, ids):
    """The stack's output, and the loss of cross-entropy over its real rows
    with the gradients of every parameter and of the input and the memory."""
    store.zero_grad()
    inputs = [Tensor(x, requires_grad=True)]
    if model.decoder:
        inputs.append(Tensor(memory, requires_grad=True))
    out = model(inputs[0], mask, inputs[-1], memory_mask)
    loss = cross_entropy(out, ids, mask)
    loss.backward()
    params = [param.grad for _, param in store.items()]
    return out.data, float(loss.data), params, [t.grad for t in inputs]


@pytest.mark.parametrize("stack", [Encoder, Decoder])
def test_a_padded_batch_matches_its_sequences_run_one_at_a_time(stack):
    model, store, case = _stack_case(stack)
    out, loss, params, inputs = _run_stack(
        model, store, case.x, case.mask, case.memory, case.memory_mask, case.ids
    )
    lengths, memory_lengths = case.mask.sum(axis=1), case.memory_mask.sum(axis=1)
    want_loss = 0.0
    want_params = [np.zeros_like(g) for g in params]
    want_inputs = [np.zeros_like(g) for g in inputs]
    for i, (n, m) in enumerate(zip(lengths, memory_lengths)):
        one_out, one_loss, one_params, one_inputs = _run_stack(
            model, store, case.x[i : i + 1, :n], np.ones((1, n), bool),
            case.memory[i : i + 1, :m], np.ones((1, m), bool), case.ids[i : i + 1, :n],
        )
        np.testing.assert_allclose(out[i, :n], one_out[0], rtol=0, atol=1e-12)
        # The batch loss is the mean over all real rows: each sequence's
        # loss and gradients count in proportion to its length.
        share = n / lengths.sum()
        want_loss += one_loss * share
        for want, one in zip(want_params, one_params):
            want += one * share
        for want, one in zip(want_inputs, one_inputs):
            want[i, : one.shape[1]] = one[0] * share
    assert abs(loss - want_loss) <= 1e-12
    for grad, want in zip(params + inputs, want_params + want_inputs):
        np.testing.assert_allclose(grad, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("stack", [Encoder, Decoder])
def test_values_in_padded_rows_change_nothing(stack):
    model, store, case = _stack_case(stack)
    clean = _run_stack(model, store, case.x, case.mask, case.memory, case.memory_mask, case.ids)
    noise = np.random.default_rng(5)
    x, memory = case.x.copy(), case.memory.copy()
    x[~case.mask] = noise.normal(size=((~case.mask).sum(), 8)) * 1e3
    memory[~case.memory_mask] = noise.normal(size=((~case.memory_mask).sum(), 8)) * 1e3
    out, loss, params, inputs = _run_stack(
        model, store, x, case.mask, memory, case.memory_mask, case.ids
    )
    np.testing.assert_array_equal(out, clean[0])
    assert (out[~case.mask] == 0.0).all()
    assert loss == clean[1]
    for grad, kept in zip(params + inputs, clean[2] + clean[3]):
        np.testing.assert_array_equal(grad, kept)


def test_packing_with_no_padding_returns_the_tensor_it_is_given():
    x = Tensor(np.ones((2, 3, 4)))
    rows = _Rows(np.ones((2, 3), dtype=bool), x, "mask")
    assert rows.pack(x) is x and rows.unpack(x) is x


@pytest.mark.parametrize(
    "mask, memory_mask",
    [
        (np.ones(2, bool), np.ones((1, 3), bool)),
        (np.ones((1, 3), bool), np.ones((1, 3), bool)),
        (np.ones((1, 2), bool), np.ones((1, 2), bool)),
        (np.ones((1, 2), bool), np.ones((3, 1), bool)),
    ],
    ids=["1d-mask", "long-mask", "short-memory-mask", "transposed-memory-mask"],
)
def test_stacks_refuse_a_mask_that_does_not_fit_their_input(mask, memory_mask):
    config = ModelConfig(model_dim=4, num_heads=2, decoder_layers=1, feedforward_dim=8)
    decoder = Decoder(ParameterStore(), "dec", config, _tiny_rng())
    with pytest.raises(ShapeError, match="does not match the \\(batch, length\\)"):
        decoder(Tensor(np.ones((1, 2, 4))), mask, Tensor(np.ones((1, 3, 4))), memory_mask)


def _numpy_attention(attn, query_in, kv_in, key_mask, causal):
    """MultiHeadAttention in plain numpy, one query and head at a time:
    project, softmax over only the keys the query may see, mix their
    values, then merge the heads and project out."""

    def project(lin, x):
        out = x @ lin.weight.data
        return out if lin.bias is None else out + lin.bias.data

    q = project(attn.q_proj, query_in)
    k = project(attn.k_proj, kv_in)
    v = project(attn.v_proj, kv_in)
    batch, lq, dim = q.shape
    dh = dim // attn.num_heads
    merged = np.zeros_like(q)
    for b in range(batch):
        for i in range(lq):
            seen = [j for j in range(k.shape[1]) if key_mask[b, j] and (j <= i or not causal)]
            for h in range(attn.num_heads):
                cols = slice(h * dh, (h + 1) * dh)
                logits = k[b, seen, cols] @ q[b, i, cols] / math.sqrt(dh)
                weights = np.exp(logits - logits.max())
                merged[b, i, cols] = weights @ v[b, seen, cols] / weights.sum()
    return project(attn.o_proj, merged)


@pytest.mark.parametrize("causal", [True, False])
def test_attention_matches_reference_composition(causal):
    rng = np.random.default_rng(15)
    attn = MultiHeadAttention(ParameterStore(), "attn", 8, 2, rng)
    x = rng.normal(size=(3, 5, 8))
    kv = x if causal else rng.normal(size=(3, 7, 8))
    key_mask = np.ones(kv.shape[:2], dtype=bool)
    key_mask[1, 3:] = False
    out = attn(Tensor(x), Tensor(kv), key_mask=key_mask, causal=causal).data
    expected = _numpy_attention(attn, x, kv, key_mask, causal)
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)


def test_adam_leaves_parameters_with_zero_or_no_gradient():
    store = ParameterStore()
    p = store.create("p", np.array([1.0, 2.0]))
    unused = store.create("unused", np.array([3.0]))
    p.grad = np.zeros(2)
    AdamOptimizer(store, OptimizerConfig(learning_rate=0.1)).step()
    np.testing.assert_array_equal(p.data, [1.0, 2.0])
    assert unused.grad is None and unused.data.tolist() == [3.0]


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
    cfg = ModelConfig()
    assert cfg.model_dim % cfg.num_heads == 0


def test_model_config_dict_round_trip():
    cfg = ModelConfig(model_dim=32, num_heads=2, vocab_size=50, seed=7)
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg


@pytest.mark.parametrize(
    "data, named",
    [
        ({"model_dim": 64, "dropout": 0.1}, "dropout"),
        ([], "JSON object"),
        (None, "JSON object"),
        (5, "JSON object"),
        ("ab", "JSON object"),
    ],
    ids=["unknown-key", "list", "none", "int", "str"],
)
def test_model_config_from_dict_rejects_bad_keys_and_non_objects(data, named):
    with pytest.raises(ConfigurationError, match=named):
        ModelConfig.from_dict(data)


def _store(values):
    store = ParameterStore()
    for name, value in values.items():
        store.create(name, value)
    return store


def test_parameter_names_are_unique():
    store = _store({"w": np.zeros(2)})
    with pytest.raises(ShapeError, match="duplicate parameter name: w"):
        store.create("w", np.ones(2))


def test_state_dict_round_trip_returns_copies():
    values = {"w": np.arange(6.0).reshape(2, 3), "b": np.array([0.5, -0.5])}
    source = _store(values)
    state = source.state_dict()
    state["w"][0, 0] = 99.0
    assert source.state_dict()["w"][0, 0] == 0.0
    target = _store({name: np.zeros_like(v) for name, v in values.items()})
    target.load_state_dict(source.state_dict())
    for name, value in values.items():
        np.testing.assert_array_equal(target.state_dict()[name], value)
    state = source.state_dict()
    target.load_state_dict(state)
    state["b"][0] = 99.0
    assert target.state_dict()["b"][0] == 0.5


def test_load_state_dict_rejects_name_and_shape_mismatch():
    store = _store({"w": np.zeros((2, 3)), "b": np.zeros(2)})
    with pytest.raises(ShapeError, match="names mismatch"):
        store.load_state_dict({"w": np.zeros((2, 3)), "c": np.zeros(2)})
    with pytest.raises(ShapeError, match="shape mismatch"):
        store.load_state_dict({"w": np.zeros((3, 2)), "b": np.zeros(2)})


def test_rejected_state_leaves_every_parameter_unchanged():
    store = _store({"a": np.zeros(2), "b": np.ones(2)})
    with pytest.raises(ShapeError, match="for b"):
        store.load_state_dict({"a": [5.0, 5.0], "b": [1.0]})
    np.testing.assert_array_equal(store.state_dict()["a"], [0.0, 0.0])
    np.testing.assert_array_equal(store.state_dict()["b"], [1.0, 1.0])


@pytest.mark.parametrize("bad", [None, 5, [("w", [1.0, 2.0])]], ids=["none", "int", "pairs"])
def test_load_state_dict_rejects_non_mapping(bad):
    store = _store({"w": np.zeros(2)})
    with pytest.raises(ShapeError, match="state must be a mapping"):
        store.load_state_dict(bad)
    np.testing.assert_array_equal(store.state_dict()["w"], [0.0, 0.0])

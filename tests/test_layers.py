"""Layer-level contracts: the whole corrector's gradient check, Adam, a numpy
attention oracle."""

import math
import re
from collections import Counter
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
    cross_entropy_loss,
)
from crossaec.nn.optim import AdamOptimizer
from crossaec.nn.params import ParameterStore
from crossaec.nn.tensor import Rows, Tensor, attention, cross_entropy, gather_rows

# The benchmark's corrector; ROADMAP item 22 moves it into the package.
from corrector import Corrector


def _attend(q, k, v, key_mask=None):
    """Single-head ``attention`` over 2D (length, d) matrices, at batch 1;
    with ``key_mask``, ``k`` and ``v`` hold only the keys it marks real."""
    keys = Rows(np.ones((1, len(k)), bool) if key_mask is None else key_mask[None], "keys")
    if not keys.padded:
        k, v = k[None], v[None]
    queries = Rows(np.ones((1, len(q)), dtype=bool), "queries")
    return attention(Tensor(q[None]), Tensor(k), Tensor(v), 1, queries, keys).data[0]


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
    out = _attend(q, k[mask], v[mask], mask)
    # The padding the op lays out between the kept keys gets no weight.
    np.testing.assert_allclose(out, _attend(q, k[mask], v[mask]), atol=1e-12)


def test_attention_errors():
    x = Tensor(np.ones((1, 2, 3)))
    keep = Rows(np.ones((1, 2), dtype=bool), "mask")
    with pytest.raises(ShapeError):  # query and key dims differ
        attention(x, Tensor(np.ones((1, 2, 4))), Tensor(np.ones((1, 2, 4))), 1, keep, keep)
    with pytest.raises(ShapeError):  # key and value lengths differ
        attention(x, x, Tensor(np.ones((1, 3, 3))), 1, keep, keep)
    with pytest.raises(ShapeError):  # mask does not fit the keys
        attention(x, x, x, 1, keep, Rows(np.ones((1, 3), dtype=bool), "mask"))
    with pytest.raises(ShapeError):  # keys are not the packed rows of their mask
        attention(x, x, x, 1, keep, Rows([[True, False]], "mask"))
    with pytest.raises(ShapeError):  # query and key masks of two batches
        attention(x, x, x, 1, keep, Rows(np.ones((2, 1), dtype=bool), "mask"))
    with pytest.raises(ShapeError):  # heads do not divide dim
        attention(x, x, x, 2, keep, keep)
    none = Tensor(np.ones((0, 3)))
    with pytest.raises(DegenerateInputError):  # every key masked
        attention(x, none, none, 1, keep, Rows(np.zeros((1, 2), dtype=bool), "mask"))


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
    mask = np.zeros((1, 2), dtype=bool)
    with pytest.raises(DegenerateInputError):
        cross_entropy_loss(Tensor(np.zeros((1, 2, 4))[mask]), np.array([[0, 1]]), mask)


@pytest.mark.parametrize(
    "logits_shape, target_shape, mask_shape",
    [
        ((1, 2, 5), (1, 2), (1, 3)),
        ((1, 2, 5), (1, 3), (1, 2)),
        ((1, 2, 5), (1, 2), (1, 1)),
        ((), (), ()),
    ],
    ids=["mask-longer", "target-longer", "mask-broadcasts", "scalar-logits"],
)
def test_cross_entropy_loss_rejects_mismatched_shapes(logits_shape, target_shape, mask_shape):
    with pytest.raises(ShapeError):
        cross_entropy_loss(
            Tensor(np.zeros(logits_shape)),
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


def _stack_case(stack, lengths=(5, 3, 1), memory_lengths=(4, 6, 2)):
    """An encoder or decoder at 2 layers and a batch of 3 sequences of
    ``lengths`` (at most 5), over memories of ``memory_lengths`` (at most 6)."""
    config = ModelConfig(
        model_dim=8, num_heads=2, encoder_layers=2, decoder_layers=2, feedforward_dim=12
    )
    store = ParameterStore()
    model = stack(store, "stack", config, _tiny_rng())
    data = np.random.default_rng(4)
    inputs = SimpleNamespace(
        x=data.normal(size=(3, 5, 8)),
        mask=_padded(lengths, 5),
        memory=data.normal(size=(3, 6, 8)),
        memory_mask=_padded(memory_lengths, 6),
        ids=data.integers(0, 8, size=(3, 5)),
    )
    return model, store, inputs


def _run_stack(model, store, x, mask, memory, memory_mask, ids):
    """The stack's output, and the loss of cross-entropy over its real rows
    with the gradients of every parameter and of the input and the memory.
    A decoder hands back its real rows; an encoder's are gathered."""
    store.zero_grad()
    inputs = [Tensor(x, requires_grad=True)]
    if model.decoder:
        inputs.append(Tensor(memory, requires_grad=True))
        out = real = model(inputs[0], mask, inputs[1], memory_mask)
    else:
        out = model(inputs[0], mask)
        real = gather_rows(out, Rows(mask, "mask"))
    loss = cross_entropy(real, ids, mask)
    loss.backward()
    params = [param.grad for _, param in store.items()]
    return out.data, float(loss.data), params, [t.grad for t in inputs]


def _real_rows(out, mask):
    """The (rows, dim) real rows of a stack's output: a decoder's when its mask
    pads, else those of the (batch, length, dim) layout."""
    return out if out.ndim == 2 else out[mask]


# Input and memory lengths: both padded, one side padded (a decoder's input or
# its memory), and no padding at all.
PADDING = {
    "both": ((5, 3, 1), (4, 6, 2)),
    "input-only": ((5, 3, 1), (6, 6, 6)),
    "memory-only": ((5, 5, 5), (4, 6, 2)),
    "none": ((5, 5, 5), (6, 6, 6)),
}
STACK_PADDINGS = [(Encoder, "both"), (Encoder, "none")] + [(Decoder, p) for p in PADDING]


@pytest.mark.parametrize("stack, padding", STACK_PADDINGS)
def test_a_padded_batch_matches_its_sequences_run_one_at_a_time(stack, padding):
    model, store, case = _stack_case(stack, *PADDING[padding])
    out, loss, params, inputs = _run_stack(
        model, store, case.x, case.mask, case.memory, case.memory_mask, case.ids
    )
    lengths, memory_lengths = case.mask.sum(axis=1), case.memory_mask.sum(axis=1)
    real, starts = _real_rows(out, case.mask), np.cumsum(lengths) - lengths
    want_loss = 0.0
    want_params = [np.zeros_like(g) for g in params]
    want_inputs = [np.zeros_like(g) for g in inputs]
    for i, (n, m) in enumerate(zip(lengths, memory_lengths)):
        one_out, one_loss, one_params, one_inputs = _run_stack(
            model, store, case.x[i : i + 1, :n], np.ones((1, n), bool),
            case.memory[i : i + 1, :m], np.ones((1, m), bool), case.ids[i : i + 1, :n],
        )
        rows = real[starts[i] : starts[i] + n]
        np.testing.assert_allclose(rows, one_out[0], rtol=0, atol=1e-12)
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


def _ops_in_graph(out):
    """How many vertices of each op the graph of ``out`` holds, by op name."""
    ops, stack, seen = Counter(), [out._vertex], set()
    while stack:
        vertex = stack.pop()
        if vertex is not None and id(vertex) not in seen:
            seen.add(id(vertex))
            if vertex._vjp is not None:
                ops[vertex._vjp.__qualname__.split(".")[0]] += 1
            stack.extend(vertex._parents)
    return ops


@pytest.mark.parametrize("stack, padding", STACK_PADDINGS)
def test_only_a_padded_batch_puts_row_ops_in_the_graph(stack, padding):
    model, _, case = _stack_case(stack, *PADDING[padding])
    x, memory = Tensor(case.x, requires_grad=True), Tensor(case.memory, requires_grad=True)
    if model.decoder:
        out = model(x, case.mask, memory, case.memory_mask)
    else:
        out = model(x, case.mask)
    # Row ops sit only at the stack's boundary: one gather per padded input
    # or memory, and one scatter of an encoder's padded output; a decoder
    # hands back its real rows, and no block adds a row op.
    padded = [not case.mask.all()] + [not case.memory_mask.all()] * model.decoder
    ops = _ops_in_graph(out)
    scattered = int(padded[0] and not model.decoder)
    assert (ops["gather_rows"], ops["scatter_rows"]) == (sum(padded), scattered)


@pytest.mark.parametrize("stack, padding", STACK_PADDINGS)
def test_a_decoder_hands_back_real_rows_and_an_encoder_the_padded_batch(stack, padding):
    model, _, case = _stack_case(stack, *PADDING[padding])
    x = Tensor(case.x)
    if model.decoder:
        out = model(x, case.mask, Tensor(case.memory), case.memory_mask).data
    else:
        out = model(x, case.mask).data
    if model.decoder and not case.mask.all():
        assert out.shape == (case.mask.sum(), 8)
    else:
        assert out.shape == (3, 5, 8)
        assert (out[~case.mask] == 0.0).all()


def test_attention_on_packed_rows_adds_only_projections_and_one_attention():
    attn = MultiHeadAttention(ParameterStore(), "attn", 8, 2, _tiny_rng())
    rows = Rows(_padded([5, 3, 1], 5), "mask")
    memory = Rows(_padded([4, 6, 2], 6), "memory_mask")
    x, kv = (Tensor(np.ones((r.index.size, 8)), requires_grad=True) for r in (rows, memory))
    ops = _ops_in_graph(attn(x, kv, memory, False, rows))
    assert ops == {"linear": 4, "attention": 1}


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
    if not model.decoder:
        assert (out[~case.mask] == 0.0).all()
    assert loss == clean[1]
    for grad, kept in zip(params + inputs, clean[2] + clean[3]):
        np.testing.assert_array_equal(grad, kept)


@pytest.mark.parametrize(
    "mask, memory_mask, name",
    [
        (np.ones(2, bool), np.ones((1, 3), bool), "mask"),
        (np.ones((1, 3), bool), np.ones((1, 3), bool), "mask"),
        (np.ones((1, 2), bool), np.ones((1, 2), bool), "memory_mask"),
        (np.ones((1, 2), bool), np.ones((3, 1), bool), "memory_mask"),
    ],
    ids=["1d-mask", "long-mask", "short-memory-mask", "transposed-memory-mask"],
)
def test_stacks_refuse_a_mask_that_does_not_fit_their_input(mask, memory_mask, name):
    # The stacks check no layout themselves: gathering the rows of the mask does.
    config = ModelConfig(model_dim=4, num_heads=2, decoder_layers=1, feedforward_dim=8)
    decoder = Decoder(ParameterStore(), "dec", config, _tiny_rng())
    misfit = (mask if name == "mask" else memory_mask).shape
    with pytest.raises(ShapeError, match=re.escape(f"is not {misfit} rows of {name} {misfit}")):
        decoder(Tensor(np.ones((1, 2, 4))), mask, Tensor(np.ones((1, 3, 4))), memory_mask)


@pytest.mark.parametrize(
    "stack, given, message",
    [
        (Decoder, {"memory_mask": np.ones((1, 3), bool)}, "missing 1 required .* 'memory'$"),
        (Decoder, {}, "missing 2 required .* 'memory' and 'memory_mask'$"),
        (Encoder, {"memory": Tensor(np.ones((1, 3, 4)))}, "unexpected keyword argument 'memory'$"),
        (Encoder, {"memory_mask": np.ones((1, 3), bool)}, "unexpected keyword argument 'memory_mask'$"),
    ],
    ids=["decoder-without-memory", "decoder-without-either", "encoder-memory", "encoder-mask"],
)
def test_stacks_refuse_a_missing_or_unexpected_memory(stack, given, message):
    # Each stack's signature names exactly its inputs, so Python itself
    # refuses a decoder without its memory and an encoder given one.
    config = ModelConfig(model_dim=4, num_heads=2, encoder_layers=1, decoder_layers=1)
    model = stack(ParameterStore(), "stack", config, _tiny_rng())
    with pytest.raises(TypeError, match=message):
        model(Tensor(np.ones((1, 2, 4))), np.ones((1, 2), bool), **given)


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


@pytest.mark.parametrize(
    "causal, packed",
    [(True, False), (False, False), (True, True), (False, True)],
    ids=["True", "False", "True-packed", "False-packed"],
)
def test_attention_matches_reference_composition(causal, packed):
    rng = np.random.default_rng(15)
    attn = MultiHeadAttention(ParameterStore(), "attn", 8, 2, rng)
    x = rng.normal(size=(3, 5, 8))
    kv = x if causal else rng.normal(size=(3, 7, 8))
    key_mask = np.ones(kv.shape[:2], dtype=bool)
    key_mask[1, 3:] = False
    expected = _numpy_attention(attn, x, kv, key_mask, causal)
    if packed:
        # Self-attention's queries are its keys; cross-attention's pad apart.
        query_mask = key_mask if causal else _padded([5, 2, 4], 5)
        queries, keys = Rows(query_mask, "queries"), Rows(key_mask, "keys")
        out = attn(Tensor(x[query_mask]), Tensor(kv[key_mask]), keys, causal, queries).data
        expected = expected[query_mask]
    else:
        out = attn(Tensor(x), Tensor(kv), key_mask=key_mask, causal=causal).data
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


def test_three_adam_steps_of_the_corrector_reproduce_its_losses():
    # Pins the model's constants, which no gradient check sees: the norm's eps,
    # the position base, the init bounds, the projections' biases and Adam's
    # betas. At step 1 the bias-corrected update is g / (|g| + eps) whatever
    # the betas are, so BETA2 shows only from step 3.
    model, batch = _corrector_case(0)
    optimizer = AdamOptimizer(model.store, OptimizerConfig(learning_rate=3e-2))
    losses = []
    for _ in range(3):
        model.store.zero_grad()
        loss = model.loss(batch)
        loss.backward()
        optimizer.step()
        losses.append(float(loss.data))
    expected = [1.9559520729335234, 1.3882956431762659, 1.2492204194922665]
    np.testing.assert_allclose(losses, expected, rtol=1e-10, atol=0)


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

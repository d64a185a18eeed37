"""The autodiff primitives: every op case passes ``gradient_check`` at every
coordinate within 1e-6, every op returns float64 data, and backward keeps its
graph contracts. One table of op cases feeds the gradient and dtype tests,
and every public op but ``constant`` and ``no_grad`` needs a case in it. The
gradient and backward tests reduce an op's output to a scalar with ``_loss``,
built from the ops themselves."""

import inspect
import math
import re
import weakref

import numpy as np
import pytest

from crossaec.errors import ShapeError, StateError
from crossaec.nn import tensor
from crossaec.nn.gradcheck import gradient_check
from crossaec.nn.params import ParameterStore
from crossaec.nn.tensor import (
    Rows,
    Tensor,
    add,
    attention,
    constant,
    cross_entropy,
    embedding_lookup,
    gather_rows,
    layer_norm,
    linear,
    no_grad,
    relu,
    scatter_rows,
    tanh,
)

rng = np.random.default_rng(7)

# The 5 real rows of a (2, 4) mask padded to lengths 3 and 2, the 9 of a
# (2, 6) key mask padded to 6 and 3, and (2, 5) with no padding.
ROWS = Rows(np.arange(4) < np.array([[3], [2]]), "row mask")
KEY_ROWS = Rows(np.arange(6) < np.array([[6], [3]]), "key mask")
ALL_ROWS = Rows(np.ones((2, 5), dtype=bool), "mask")
# The (2, 4) batch of ROWS with every row real: its rows keep the padded layout.
FULL_ROWS = Rows(np.ones((2, 4), dtype=bool), "row mask")

# Each op case: the op it checks, the shapes of its inputs (in the op's
# argument order), and the call of the op on them.
OP_CASES = {
    "add": ("add", [(3, 4), (3, 4)], add),
    "add-broadcast": ("add", [(3, 4), (4,)], add),
    "relu": ("relu", [(5, 5)], relu),
    "tanh": ("tanh", [(3, 4)], tanh),
    "linear-2d": ("linear", [(4, 5), (5, 3)], linear),
    "linear-2d-bias": ("linear", [(4, 5), (5, 3), (3,)], linear),
    "linear-3d": ("linear", [(2, 3, 5), (5, 3)], linear),
    "linear-3d-bias": ("linear", [(2, 3, 5), (5, 3), (3,)], linear),
    "attention-causal-self": (
        "attention",
        [(2, 5, 6)] * 3,
        lambda q, k, v: attention(q, k, v, 2, ALL_ROWS, ALL_ROWS, causal=True),
    ),
    # Unpadded queries over packed keys, as a padded-form MultiHeadAttention has.
    "attention-cross": (
        "attention",
        [(2, 5, 4), (9, 4), (9, 4)],
        lambda q, k, v: attention(q, k, v, 2, ALL_ROWS, KEY_ROWS),
    ),
    "attention-packed-causal-self": (
        "attention",
        [(5, 6)] * 3,
        lambda q, k, v: attention(q, k, v, 2, ROWS, ROWS, causal=True),
    ),
    "attention-packed-cross": (
        "attention",
        [(5, 4), (9, 4), (9, 4)],
        lambda q, k, v: attention(q, k, v, 2, ROWS, KEY_ROWS),
    ),
    "layer_norm": ("layer_norm", [(3, 5, 8), (8,), (8,)], layer_norm),
    "embedding_lookup": (
        "embedding_lookup",
        [(7, 4)],
        lambda w: embedding_lookup(w, [[1, 3, 3], [0, 6, 2]]),
    ),
    "gather_rows": ("gather_rows", [(2, 4, 3)], lambda x: gather_rows(x, ROWS)),
    "scatter_rows": ("scatter_rows", [(5, 3)], lambda x: scatter_rows(x, ROWS)),
    # Logits for the 4 real rows of a (2, 3) mask, as gather_rows leaves them.
    "cross_entropy": (
        "cross_entropy",
        [(4, 5)],
        lambda x: cross_entropy(
            x, [[4, 0, 2], [1, 1, 3]], [[True, False, True], [False, True, True]]
        ),
    ),
}


def _loss(out):
    """A scalar of ``out``: cross-entropy of ``tanh(out)`` over its last axis,
    or ``tanh(out)`` when ``out`` is a scalar. The rows of cross-entropy's
    gradient sum to zero, so without the ``tanh`` a VJP term that depends only
    on the row sums of its incoming gradient would go unchecked."""
    squashed = tanh(out)
    if squashed.data.ndim == 0:
        return squashed
    classes = squashed.data.shape[-1]
    ids = np.arange(squashed.data.size // classes).reshape(squashed.data.shape[:-1]) % classes
    return cross_entropy(squashed, ids, np.ones(ids.shape, dtype=bool))


def _inputs(shapes):
    """A store holding one normal random input per shape, and those inputs."""
    store, values = ParameterStore(), np.random.default_rng(7)
    inputs = [store.create(f"x{i}", values.normal(size=shape)) for i, shape in enumerate(shapes)]
    return store, inputs


@pytest.mark.parametrize("case", sorted(OP_CASES))
def test_op_gradient_at_every_coordinate(case):
    _, shapes, op = OP_CASES[case]
    store, inputs = _inputs(shapes)
    assert gradient_check(lambda: _loss(op(*inputs)), store) <= 1e-6


@pytest.mark.parametrize(
    "case, held",
    [
        (case, held)
        for case in ("add-broadcast", "attention-cross", "layer_norm", "linear-3d-bias")
        for held in range(len(OP_CASES[case][1]))
    ],
)
def test_an_input_outside_the_graph_gets_no_gradient(case, held):
    # Every VJP returns a gradient per input and backward drops the constant's;
    # the others stay right. The copy keeps the check's steps off the constant.
    _, shapes, op = OP_CASES[case]
    store, inputs = _inputs(shapes)
    inputs[held] = constant(inputs[held].data.copy())
    assert gradient_check(lambda: _loss(op(*inputs)), store) <= 1e-6
    assert inputs[held].grad is None


def _square_wrong_at(t, coordinate):
    """``t * t``, with a VJP that is right except at one flat coordinate."""

    def vjp(g):
        grad = 2.0 * t.data * g
        grad.reshape(-1)[coordinate] *= 3.0
        return (grad,)

    return tensor._make(t.data * t.data, (t,), vjp)


def test_gradient_check_finds_one_wrong_coordinate():
    # A VJP wrong at one coordinate of 24 fails the check: every coordinate counts.
    store, (x,) = _inputs([(4, 6)])
    assert gradient_check(lambda: _loss(_square_wrong_at(x, 5)), store) > 1e-2


def test_attention_large_logits_stay_finite():
    # One head of width 1, so the logits are exactly q * k = [1000, 999, -1000];
    # batch row b reads the weight of key b through the one-hot values e_b.
    q = np.ones((3, 1, 1))
    k = np.tile([[1000.0], [999.0], [-1000.0]], (3, 1, 1))
    v = np.eye(3)[:, :, None]
    mask = np.tile([True, True, False], (3, 1))
    queries, keys = Rows(np.ones((3, 1), dtype=bool), "queries"), Rows(mask, "keys")
    probs = attention(Tensor(q), Tensor(k[mask]), Tensor(v[mask]), 1, queries, keys)
    probs = probs.data.reshape(3)
    e = math.exp(-1.0)
    np.testing.assert_allclose(probs, [1 / (1 + e), e / (1 + e), 0.0], rtol=0, atol=1e-15)


def test_cross_entropy_large_logits_stay_finite():
    # Row 0 picks 999 beside 1000, a loss of 1 + log(1 + e^-1); row 1 picks -1000
    # against 1000, a loss of 2000. Every exp(-2000) underflows to exactly 0.
    logits = np.array([[1000.0, -1000.0, 999.0], [-1000.0, 1000.0, -1000.0]])
    x = Tensor(logits, requires_grad=True)
    loss = cross_entropy(x, [2, 0], [True, True])
    e = math.exp(-1.0)
    assert abs(float(loss.data) - (1.0 + math.log1p(e) + 2000.0) / 2) < 1e-12
    loss.backward()
    p0, p2 = 1 / (1 + e), e / (1 + e)
    expected = np.array([[p0, 0.0, p2 - 1.0], [-1.0, 1.0, 0.0]]) / 2
    np.testing.assert_allclose(x.grad, expected, rtol=0, atol=1e-15)


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


def test_cross_entropy_does_not_depend_on_the_padding_width():
    # The same packed rows and targets, laid out at three padding widths: the
    # loss sums the real rows' terms only, so it is bit-identical at each.
    lengths = np.array([9, 4, 7])
    data_rng = np.random.default_rng(0)
    logits = data_rng.normal(scale=3, size=(lengths.sum(), 7))
    ids = data_rng.integers(0, 7, size=lengths.sum())
    losses = []
    for width in (10, 11, 15):
        mask = np.arange(width) < lengths[:, None]
        targets = np.zeros(mask.shape, dtype=np.int64)
        targets[mask] = ids
        losses.append(float(cross_entropy(Tensor(logits), targets, mask).data))
    assert losses[0] == losses[1] == losses[2]


def test_embedding_of_no_ids_is_empty():
    assert embedding_lookup(Tensor(np.ones((3, 2))), np.zeros((1, 0))).data.shape == (1, 0, 2)


@pytest.mark.parametrize(
    "x_shape, bias_shape, part", [((2, 4), (3,), "input"), ((2, 5), (4,), "bias")]
)
def test_linear_rejects_input_or_bias_that_does_not_fit_the_weight(x_shape, bias_shape, part):
    with pytest.raises(ShapeError, match=f"linear {part}"):
        linear(Tensor(np.ones(x_shape)), Tensor(np.ones((5, 3))), Tensor(np.ones(bias_shape)))


@pytest.mark.parametrize(
    "x, weight", [(np.ones(3), np.ones(3)), (np.array(1.0), np.ones((1, 2)))],
    ids=["1d-weight", "0d-input"],
)
def test_linear_rejects_a_weight_that_is_not_2d_or_an_input_with_no_axis(x, weight):
    with pytest.raises(ShapeError, match="linear input .* does not match 2D weight"):
        linear(Tensor(x), Tensor(weight))


@pytest.mark.parametrize(
    "gain_shape, offset_shape", [((4,), (5,)), ((5,), (3,)), ((1, 5), (5,))]
)
def test_layer_norm_rejects_gain_or_offset_not_of_the_last_axis(gain_shape, offset_shape):
    with pytest.raises(ShapeError, match=r"layer_norm gain .* are not \(5,\)"):
        layer_norm(
            Tensor(np.ones((2, 5))), Tensor(np.ones(gain_shape)), Tensor(np.ones(offset_shape))
        )


@pytest.mark.parametrize("shape", [(), (2, 0)], ids=["0d", "empty-last-axis"])
def test_layer_norm_rejects_an_input_with_no_last_axis_to_normalize(shape):
    with pytest.raises(ShapeError, match="has no last axis to normalize"):
        layer_norm(Tensor(np.ones(shape)), Tensor(np.ones(0)), Tensor(np.zeros(0)))


@pytest.mark.parametrize("rows", [ROWS, FULL_ROWS], ids=["padded", "unpadded"])
@pytest.mark.parametrize(
    "shape", [(2, 4), (2, 5, 3), (4, 2, 3), (1, 2, 4, 3)],
    ids=["no-last-axis", "long-rows", "transposed", "extra-axis"],
)
def test_gather_rows_refuses_a_mask_that_does_not_cover_the_rows(shape, rows):
    with pytest.raises(ShapeError, match=r"is not \(2, 4\) rows of row mask \(2, 4\)"):
        gather_rows(Tensor(np.ones(shape)), rows)


@pytest.mark.parametrize("rows", [ROWS, FULL_ROWS], ids=["padded", "unpadded"])
@pytest.mark.parametrize(
    "shape", [(4, 3), (6, 3), (5,), (5, 1, 3), (8, 3)],
    ids=["few-rows", "many-rows", "no-last-axis", "extra-axis", "every-row"],
)
def test_scatter_rows_refuses_an_input_that_is_not_the_rows_of_its_mask(shape, rows):
    # Packed rows are (rows, dim) only where the mask pads; else (*mask.shape, dim).
    lead = (5,) if rows.padded else (2, 4)
    with pytest.raises(ShapeError, match=re.escape(f"is not {lead} rows of row mask (2, 4)")):
        scatter_rows(Tensor(np.ones(shape)), rows)


def test_scatter_rows_puts_zeros_where_the_mask_is_false():
    out = scatter_rows(Tensor(np.arange(5.0)[:, None]), ROWS).data
    np.testing.assert_array_equal(out[..., 0], [[0, 1, 2, 0], [3, 4, 0, 0]])
    np.testing.assert_array_equal(gather_rows(Tensor(out), ROWS).data[:, 0], np.arange(5.0))


def test_row_ops_with_no_padding_return_the_tensor_they_are_given():
    x = Tensor(np.ones((2, 3, 4)), requires_grad=True)
    rows = Rows(np.ones((2, 3), dtype=bool), "mask")
    assert not rows.padded
    assert gather_rows(x, rows) is x and scatter_rows(x, rows) is x


def test_embedding_rejects_a_weight_that_is_not_2d():
    with pytest.raises(ShapeError, match=r"embedding weight \(2,\) is not 2D"):
        embedding_lookup(Tensor(np.ones(2)), [[0, 1]])


def test_attention_rejects_a_dim_that_gives_empty_heads():
    seq, rows = Tensor(np.ones((1, 2, 0))), Rows(np.ones((1, 2), dtype=bool), "mask")
    with pytest.raises(ShapeError, match="dim 0 does not split into 1 heads"):
        attention(seq, seq, seq, 1, rows, rows)


@pytest.mark.parametrize(
    "a, b",
    [((2, 3), (4,)), ((2, 3, 4), (1, 4)), ((3, 1), (3, 4))],
    ids=["2x3+4", "2x3x4+1x4", "3x1+3x4"],
)
def test_add_rejects_shapes_that_do_not_broadcast(a, b):
    # add broadcasts only a trailing shape, never over size-1 axes.
    with pytest.raises(ShapeError, match=re.escape(f"cannot add shapes {a} and {b}")):
        add(Tensor(np.ones(a)), Tensor(np.ones(b)))


def test_repr_names_the_shape_and_the_gradient_flag():
    t = Tensor(np.ones((2, 3)), requires_grad=True)
    assert repr(t) == "Tensor(shape=(2, 3), requires_grad=True)"


def test_backward_needs_a_scalar_with_a_graph():
    with pytest.raises(ShapeError, match="scalar"):
        tanh(Tensor(np.ones(2), requires_grad=True)).backward()
    with pytest.raises(StateError, match="no recorded graph"):
        _loss(Tensor(np.ones((1, 2)))).backward()


def test_gradient_zero_for_unused_parameter():
    used = Tensor(np.ones((2, 2)), requires_grad=True)
    unused = Tensor(np.ones((2, 2)), requires_grad=True)
    _loss(used).backward()
    assert unused.grad is None
    assert used.grad is not None


def test_backward_linearity():
    a = rng.normal(size=(3, 3))
    t1 = Tensor(a, requires_grad=True)
    _loss(t1).backward()
    g1 = t1.grad.copy()

    t2 = Tensor(a, requires_grad=True)
    s2 = _loss(t2)
    add(s2, s2).backward()
    np.testing.assert_allclose(t2.grad, 2.0 * g1, rtol=0, atol=0)


def test_grad_accumulates_across_reuse():
    # t + t + t holds the data of 3t, and t's gradient is three copies of the
    # gradient there, summed: exactly 3 times it.
    t = Tensor(np.array([[0.5, -1.25, 2.0], [0.1, 0.7, -0.3]]), requires_grad=True)
    _loss(add(add(t, t), t)).backward()
    thrice = Tensor(3.0 * t.data, requires_grad=True)
    _loss(thrice).backward()
    np.testing.assert_array_equal(t.grad, 3.0 * thrice.grad)


def test_backward_runs_once_per_graph():
    # Backward consumes the graph, so a second pass through a spent vertex,
    # on the same loss or on a second loss built on it, raises before any
    # gradient is written: every leaf keeps the gradient of the first pass.
    t, u = (Tensor(rng.normal(size=(3, 3)), requires_grad=True) for _ in range(2))
    h = tanh(t)
    loss, shared = _loss(h), _loss(add(h, u))
    loss.backward()
    once = t.grad.copy()
    for again in (loss, shared):
        with pytest.raises(StateError, match="already consumed"):
            again.backward()
        np.testing.assert_array_equal(t.grad, once)
        assert u.grad is None


def test_backward_on_a_scalar_leaf_adds_to_its_gradient():
    # Like every other leaf, a scalar leaf that is its own loss adds 1 to
    # whatever gradient it already holds.
    t = Tensor(np.array(0.5), requires_grad=True)
    t.backward()
    tanh(t).backward()
    t.backward()
    np.testing.assert_allclose(t.grad, 2.0 + (1.0 - math.tanh(0.5) ** 2), rtol=0, atol=1e-15)


# Ops whose VJPs read none of their input's data: relu keeps its mask, tanh
# its own output, add shapes, cross_entropy its exponentials. Each maps an
# output of shape (2, 3, 5) to a scalar loss.
CONSUMERS = {
    "relu": lambda h: _loss(relu(h)),
    "tanh": _loss,
    "add": lambda h: _loss(add(h, constant(np.ones(5)))),
    "cross_entropy": lambda h: cross_entropy(
        h, [[4, 0, 2], [1, 1, 3]], np.ones((2, 3), dtype=bool)
    ),
}
PRODUCERS = {
    "linear": linear,
    "add": lambda x, w, b: add(linear(x, w), b),
}


@pytest.mark.parametrize("producer", sorted(PRODUCERS))
@pytest.mark.parametrize("consumer", sorted(CONSUMERS))
def test_graph_frees_an_output_no_vjp_reads(producer, consumer):
    # Once the caller drops h, nothing in the loss's graph holds its data,
    # and backward gives the gradients of a run that kept h alive.
    store, inputs = _inputs([(2, 3, 4), (4, 5), (5,)])
    make, consume = PRODUCERS[producer], CONSUMERS[consumer]
    h = make(*inputs)
    consume(h).backward()
    kept = [param.grad for _, param in store.items()]
    store.zero_grad()
    h = make(*inputs)
    freed = weakref.ref(h.data)
    loss = consume(h)
    del h
    assert freed() is None
    loss.backward()
    for (_, param), grad in zip(store.items(), kept):
        np.testing.assert_array_equal(param.grad, grad)


def _kept(out, name):
    """A weak reference to the array named ``name`` that the VJP of ``out`` keeps."""
    vjp = out._vertex._vjp
    cells = dict(zip(vjp.__code__.co_freevars, vjp.__closure__))
    return weakref.ref(cells[name].cell_contents)


# Ops whose VJPs keep an array, and the name the VJP reads it by: tanh its
# own output, attention its softmax.
KEEPERS = {
    "tanh": (tanh, "data"),
    "attention": (lambda x: attention(x, x, x, 2, ROWS, ROWS, causal=True), "probs"),
}


@pytest.mark.parametrize("keeper", sorted(KEEPERS))
def test_backward_frees_the_arrays_a_vjp_keeps(keeper):
    # The loss's graph holds what a VJP keeps until backward has run that
    # VJP; after it, the array is gone while the loss is still referenced.
    op, name = KEEPERS[keeper]
    _, (x,) = _inputs([(5, 6)])
    out = op(x)
    kept = _kept(out, name)
    loss = _loss(out)
    del out
    assert kept() is not None
    loss.backward()
    assert kept() is None


def test_cross_entropy_refuses_padded_logits_under_a_padding_mask():
    # Under a mask that pads, the logits are its real rows, as gather_rows
    # leaves them; the padded layout is refused, naming the logits and the mask.
    ids = [[4, 0, 2, 1], [1, 3, 0, 0]]
    message = re.escape("logits (2, 4, 5) is not (5,) rows of pad_mask (2, 4)")
    with pytest.raises(ShapeError, match=message):
        cross_entropy(Tensor(np.zeros((2, 4, 5))), ids, ROWS.mask)


@pytest.mark.parametrize("case", sorted(OP_CASES))
def test_no_vjp_writes_into_the_gradient_it_is_given(case):
    # Gradients are read-only: add hands one array to both inputs, so a VJP
    # that wrote into its incoming gradient would change a sibling's.
    _, shapes, op = OP_CASES[case]
    out = op(*_inputs(shapes)[1])
    g = np.random.default_rng(3).normal(size=out.data.shape)
    g.flags.writeable = False
    out._vertex._vjp(g)


def test_no_grad_blocks_graph():
    t = Tensor(np.ones((2, 2)), requires_grad=True)
    bias = Tensor(np.ones(2), requires_grad=True)
    seq = Tensor(np.ones((1, 2, 2)), requires_grad=True)
    rows = Rows(np.ones((1, 2), dtype=bool), "mask")
    with no_grad():
        outs = [add(t, t), linear(seq, t, bias), attention(seq, seq, seq, 2, rows, rows)]
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

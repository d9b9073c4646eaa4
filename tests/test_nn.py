"""Differentiable-op tests: hand-computed values and finite differences.

Every backward pass is checked against a test-local central-difference
oracle (independent of the library's own grad_check), and grad_check
itself is validated by planting a known-bad gradient.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sarv.errors import DataError, NumericsError
from sarv.nn import (
    ACTIVATIONS,
    CHECKPOINT_MAGIC,
    Dense,
    Dropout,
    GradCheckError,
    Lstm,
    NamedArray,
    OneHotDense,
    Packing,
    Parameter,
    Relu,
    Sigmoid,
    cross_entropy,
    glorot_uniform,
    grad_check,
    load_checkpoint,
    one_hot,
    require_finite,
    save_checkpoint,
    sigmoid,
    softmax,
    softmax_xent_grad,
    zero_grads,
)

from conftest import rel_to_max
from lstm_reference import ReferenceLstm

RNG = lambda s: np.random.default_rng(s)  # noqa: E731


def numeric_grad(f, arr, h=1e-6):
    """Central finite differences of scalar ``f()`` w.r.t. ``arr`` in place.

    Each entry is perturbed through ``arr`` itself, so a non-contiguous view
    (an LSTM gate's columns of the fused weight) is perturbed where it lives.
    """
    g = np.zeros(arr.shape)
    for i in np.ndindex(arr.shape):
        orig = arr[i]
        arr[i] = orig + h
        lp = f()
        arr[i] = orig - h
        lm = f()
        arr[i] = orig
        g[i] = (lp - lm) / (2.0 * h)
    return g


def max_rel_err(analytic, numeric, floor=1e-6):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


# ---------------------------------------------------------------------------
# dense + activations
# ---------------------------------------------------------------------------


def test_dense_forward_matches_manual_affine():
    layer = Dense(3, 2, RNG(0), dtype=np.float64)
    x = RNG(1).normal(size=(4, 3))
    np.testing.assert_allclose(layer.forward(x), x @ layer.W.value + layer.b.value)


def test_dense_rejects_wrong_input_width():
    layer = Dense(3, 2, RNG(0))
    with pytest.raises(ValueError):
        layer.forward(np.zeros((4, 5), dtype=np.float32))


def test_dense_gradients_match_finite_differences():
    layer = Dense(4, 3, RNG(0), dtype=np.float64)
    x = RNG(1).normal(size=(5, 4))
    R = RNG(2).normal(size=(5, 3))  # fixed projection makes the loss scalar

    def loss():
        return float((layer.forward(x) * R).sum())

    loss()
    zero_grads(layer.params())
    dx = layer.backward(R)
    assert max_rel_err(layer.W.grad, numeric_grad(loss, layer.W.value)) < 1e-6
    assert max_rel_err(layer.b.grad, numeric_grad(loss, layer.b.value)) < 1e-6
    assert max_rel_err(dx, numeric_grad(loss, x)) < 1e-6


def test_dense_grads_accumulate_across_backward_calls():
    layer = Dense(2, 2, RNG(0), dtype=np.float64)
    x = np.ones((1, 2))
    dout = np.ones((1, 2))
    layer.forward(x)
    layer.backward(dout)
    first = layer.W.grad.copy()
    layer.forward(x)
    layer.backward(dout)
    np.testing.assert_allclose(layer.W.grad, 2 * first)
    zero_grads(layer.params())
    assert not layer.W.grad.any() and not layer.b.grad.any()


def test_sigmoid_values_and_stability():
    assert sigmoid(np.array([0.0]))[0] == 0.5
    big = sigmoid(np.array([750.0, -750.0]))
    assert big[0] == 1.0 and big[1] == pytest.approx(0.0, abs=1e-300)
    assert np.all(np.isfinite(big))


@pytest.mark.parametrize("dtype, tol", [(np.float64, 3e-16), (np.float32, 1e-7)])
def test_sigmoid_matches_logistic_formula_on_grid(dtype, tol):
    x = np.linspace(-40.0, 40.0, 80_001).astype(dtype)
    want = 1.0 / (1.0 + np.exp(-x.astype(np.float64)))
    got = sigmoid(x)
    assert got.dtype == dtype
    assert float(np.max(np.abs(got - want))) <= tol


@pytest.mark.parametrize("name", ["sigmoid", "relu"])
def test_activation_gradients_match_finite_differences(name):
    layer = ACTIVATIONS[name]()
    x = RNG(3).normal(size=(6, 4)) + 0.05  # keep relu inputs off the kink
    x[np.abs(x) < 1e-2] += 0.1
    R = RNG(4).normal(size=(6, 4))

    def loss():
        return float((layer.forward(x) * R).sum())

    loss()
    dx = layer.backward(R)
    assert max_rel_err(dx, numeric_grad(loss, x)) < 1e-6


def test_relu_zeroes_negatives_and_their_gradient():
    layer = Relu()
    x = np.array([[-2.0, 0.0, 3.0]])
    np.testing.assert_array_equal(layer.forward(x), [[0.0, 0.0, 3.0]])
    np.testing.assert_array_equal(layer.backward(np.ones_like(x)), [[0.0, 0.0, 1.0]])


def test_sigmoid_layer_backward_formula():
    layer = Sigmoid()
    x = np.array([[0.3, -1.2]])
    s = layer.forward(x)
    np.testing.assert_allclose(layer.backward(np.ones_like(x)), s * (1 - s))


# ---------------------------------------------------------------------------
# softmax + cross-entropy
# ---------------------------------------------------------------------------


def test_softmax_rows_sum_to_one():
    logits = RNG(5).normal(size=(64, 3), scale=10.0)
    probs = softmax(logits)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(probs > 0)


def test_softmax_is_shift_invariant_and_stable():
    logits = np.array([[1.0, 2.0, 3.0]])
    np.testing.assert_allclose(softmax(logits), softmax(logits + 1000.0), atol=1e-15)
    extreme = softmax(np.array([[1e4, 0.0]]))
    assert np.all(np.isfinite(extreme))
    np.testing.assert_allclose(extreme[0], [1.0, 0.0], atol=1e-300)


def test_softmax_hand_values():
    np.testing.assert_allclose(softmax(np.zeros((1, 2)))[0], [0.5, 0.5], atol=1e-15)
    p = softmax(np.log(np.array([[1.0, 3.0]])))[0]
    np.testing.assert_allclose(p, [0.25, 0.75], atol=1e-15)


def test_one_hot_rows():
    out = one_hot(np.array([2, 0]), 3)
    np.testing.assert_array_equal(out, [[0, 0, 1], [1, 0, 0]])
    with pytest.raises(ValueError):
        one_hot(np.array([3]), 3)
    with pytest.raises(ValueError):
        one_hot(np.array([-1]), 3)


def test_cross_entropy_hand_value():
    probs = np.array([[0.25, 0.75]])
    targets = np.array([[0.0, 1.0]])
    assert cross_entropy(probs, targets) == pytest.approx(-math.log(0.75 + 1e-12), abs=1e-15)


def test_cross_entropy_of_perfect_prediction_is_tiny():
    targets = one_hot(np.array([0, 1, 2]), 3)
    assert abs(cross_entropy(targets.copy(), targets)) <= 1e-10


def test_cross_entropy_rejects_soft_targets():
    probs = np.array([[0.5, 0.5]])
    with pytest.raises(ValueError):
        cross_entropy(probs, np.array([[0.5, 0.5]]))
    with pytest.raises(ValueError):
        cross_entropy(probs, np.array([[1.0, 1.0]]))
    with pytest.raises(ValueError):
        cross_entropy(probs, np.array([[0.5, 0.5], [1.0, 0.0]]))


def test_cross_entropy_shape_mismatch():
    with pytest.raises(ValueError):
        cross_entropy(np.ones((2, 3)) / 3, np.array([[1.0, 0.0]]))


def test_fused_gradient_formula_and_finite_differences():
    logits = RNG(6).normal(size=(8, 3))
    targets = one_hot(RNG(7).integers(0, 3, size=8), 3)
    probs = softmax(logits)
    analytic = softmax_xent_grad(probs, targets)
    np.testing.assert_allclose(analytic, (probs - targets) / 8, atol=1e-16)

    def loss():
        return cross_entropy(softmax(logits), targets)

    assert max_rel_err(analytic, numeric_grad(loss, logits)) < 1e-6


# ---------------------------------------------------------------------------
# dropout
# ---------------------------------------------------------------------------


def test_dropout_eval_and_zero_rate_are_identity():
    x = RNG(8).normal(size=(4, 4))
    assert Dropout(0.0).forward(x.copy(), "train", RNG(0)) is not None
    np.testing.assert_array_equal(Dropout(0.0).forward(x, "train", RNG(0)), x)
    np.testing.assert_array_equal(Dropout(0.5).forward(x, "eval"), x)


def test_dropout_scales_survivors():
    x = np.ones((400, 5))
    layer = Dropout(0.25)
    out = layer.forward(x, "train", RNG(9))
    vals = np.unique(out)
    np.testing.assert_allclose(vals, [0.0, 1.0 / 0.75])
    # backward routes gradient only through survivors, with the same scale
    back = layer.backward(np.ones_like(x))
    np.testing.assert_array_equal(back, out)


def test_dropout_mask_is_fresh_per_call():
    x = np.ones((64, 64))
    layer = Dropout(0.5)
    rng = RNG(10)
    a = layer.forward(x, "train", rng)
    b = layer.forward(x, "train", rng)
    assert (a != b).any()


def test_dropout_requires_rng_in_train_mode():
    with pytest.raises(ValueError):
        Dropout(0.5).forward(np.ones((2, 2)), "train")
    with pytest.raises(ValueError):
        Dropout(0.5).forward(np.ones((2, 2)), "test")
    with pytest.raises(ValueError):
        Dropout(1.0)


def test_dropout_gradient_matches_finite_differences():
    x = RNG(11).normal(size=(5, 3))
    R = RNG(12).normal(size=(5, 3))
    layer = Dropout(0.4)

    def loss():
        return float((layer.forward(x, "train", RNG(13)) * R).sum())

    loss()
    dx = layer.backward(R)
    assert max_rel_err(dx, numeric_grad(loss, x)) < 1e-6


# ---------------------------------------------------------------------------
# LSTM
# ---------------------------------------------------------------------------


def _real(lengths, steps):
    """The ``(batch, steps)`` mask of each row's real steps."""
    return np.arange(steps) < np.asarray(lengths)[:, None]


def _rowmajor(seq, lengths):
    """The real steps of padded ``seq``, row-major, as the LSTM takes its input."""
    return seq[_real(lengths, seq.shape[1])]


def _pad(rows, lengths, steps):
    """Row-major rows back in the padded ``(batch, steps, ·)`` layout, zero at padded steps."""
    seq = np.zeros((len(lengths), steps, rows.shape[1]), rows.dtype)
    seq[_real(lengths, steps)] = rows
    return seq


def test_lstm_single_step_matches_hand_computation():
    lstm = Lstm(1, 1, RNG(0), dtype=np.float64)
    wx = {"i": 0.6, "f": 0.4, "g": 0.8, "o": -0.3}
    bias = {"i": 0.1, "f": 0.3, "g": -0.2, "o": 0.25}
    for gate in Lstm.GATES:
        lstm.W[gate].value[...] = [[wx[gate]], [0.2]]  # recurrent weight unused at t=0
        lstm.b[gate].value[...] = bias[gate]
    x = 0.5
    out = lstm.forward(np.array([[x]]), np.array([1]))

    sig = lambda v: 1.0 / (1.0 + math.exp(-v))  # noqa: E731
    i = sig(x * wx["i"] + bias["i"])
    g = math.tanh(x * wx["g"] + bias["g"])
    o = sig(x * wx["o"] + bias["o"])
    expected = o * math.tanh(i * g)  # c_prev = 0, so the forget gate drops out
    assert out[0, 0] == pytest.approx(expected, abs=1e-12)


def test_lstm_forget_bias_initialized_to_one():
    lstm = Lstm(3, 4, RNG(0))
    np.testing.assert_array_equal(lstm.b["f"].value, np.ones(4, dtype=np.float32))
    np.testing.assert_array_equal(lstm.b["i"].value, np.zeros(4, dtype=np.float32))


def test_lstm_gradients_match_finite_differences():
    lstm = Lstm(4, 5, RNG(20), dtype=np.float64)
    lengths = np.array([2, 3])
    seq = _rowmajor(RNG(21).normal(size=(2, 3, 4)), lengths)
    R = RNG(22).normal(size=(2, 5))

    def loss():
        return float((lstm.forward(seq, lengths) * R).sum())

    loss()
    zero_grads(lstm.params())
    dseq = lstm.backward(R)
    for p in lstm.params():
        fd = numeric_grad(loss, p.value, h=1e-5)
        assert max_rel_err(p.grad, fd) < 1e-5, p.name
    assert max_rel_err(dseq, numeric_grad(loss, seq, h=1e-5)) < 1e-5


def test_lstm_padded_steps_cannot_influence_output_or_grads():
    lstm = Lstm(3, 4, RNG(30), dtype=np.float64)
    seq = RNG(31).normal(size=(2, 5, 3))
    lengths = np.array([2, 4])
    R = np.ones((2, 4))

    def pass_over(padded):
        zero_grads(lstm.params())
        out = lstm.forward(_rowmajor(padded, lengths), lengths)
        dseq = _pad(lstm.backward(R), lengths, padded.shape[1])
        return out, dseq, [p.grad.copy() for p in lstm.params()]

    out, dseq, grads = pass_over(seq)
    tampered = seq.copy()
    tampered[0, 2:] = 99.0  # rows beyond each length
    tampered[1, 4:] = -99.0
    t_out, t_dseq, t_grads = pass_over(tampered)
    assert t_out.tobytes() == out.tobytes()
    assert t_dseq.tobytes() == dseq.tobytes()
    for got, want in zip(t_grads, grads):
        assert got.tobytes() == want.tobytes()

    assert dseq[0, :2].any() and dseq[1, :4].any()
    assert not dseq[0, 2:].any()
    assert not dseq[1, 4:].any()


@given(st.lists(st.integers(0, 16), max_size=40))
@settings(max_examples=300, deadline=None)
def test_packing_of_matches_a_per_step_count_of_the_longer_rows(lengths):
    lengths = np.array(lengths, dtype=np.int64)
    active = np.count_nonzero(lengths > np.arange(lengths.max(initial=0))[:, None], axis=1)
    packing = Packing.of(lengths)
    want = (np.argsort(-lengths, kind="stable"), active, np.concatenate([[0], np.cumsum(active)]))
    for got, expected in zip(packing, want):
        assert got.dtype == expected.dtype == np.int64
        np.testing.assert_array_equal(got, expected)


def test_lstm_readout_position_tracks_lengths():
    lstm = Lstm(2, 3, RNG(40), dtype=np.float64)
    seq = np.repeat(RNG(41).normal(size=(1, 4, 2)), 2, axis=0)  # two rows, the same steps
    lengths = np.array([2, 4])
    both = lstm.forward(_rowmajor(seq, lengths), lengths)
    short = lstm.forward(seq[0, :2], np.array([2]))
    full = lstm.forward(seq[1], np.array([4]))
    np.testing.assert_allclose(both[0], short[0], atol=1e-15)
    np.testing.assert_allclose(both[1], full[0], atol=1e-15)
    assert not np.allclose(both[0], both[1])  # each row reads out at its own last step


def test_lstm_validates_lengths_and_shapes():
    lstm = Lstm(2, 3, RNG(0))
    seq = np.zeros((2, 2), dtype=np.float32)
    with pytest.raises(ValueError, match=">= 1"):
        lstm.forward(seq, np.array([2, 0]))
    with pytest.raises(ValueError, match=">= 1"):
        lstm.forward(seq, np.array([[1], [1]]))
    with pytest.raises(ValueError):
        lstm.forward(np.zeros((2, 3), dtype=np.float32), np.array([1, 1]))


# Fused, packed LSTM against the per-gate, unpacked float64 oracle; the
# tolerances are relative to each compared array's largest magnitude.
ORACLE_TOL = {np.float64: 1e-12, np.float32: 1e-5}
ORACLE_LENGTHS = {
    "mixed": [1, 6, 3, 6, 2, 4, 1],
    "all_equal": [4, 4, 4, 4, 4],
    "batch_of_one": [5],
}


def _oracle_case(dtype, lengths, seed=70):
    rng = RNG(seed)
    lstm = Lstm(5, 4, rng, dtype=dtype)
    for p in lstm.params():  # well away from the init scale, so every gate matters
        p.value[...] = rng.normal(scale=0.6, size=p.value.shape)
    seq = rng.normal(size=(len(lengths), 6, 5)).astype(dtype)
    dout = rng.normal(size=(len(lengths), 4)).astype(dtype)
    return lstm, seq, np.array(lengths), dout


def _run(lstm, seq, lengths, dout):
    """Output, padded input gradient and parameter gradients of one pass over padded ``seq``."""
    zero_grads(lstm.params())
    out = lstm.forward(_rowmajor(seq, lengths), lengths)
    dseq = _pad(lstm.backward(dout), lengths, seq.shape[1])
    return out, dseq, {p.name.split(".")[-1]: p.grad.copy() for p in lstm.params()}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("case", sorted(ORACLE_LENGTHS))
def test_lstm_matches_per_gate_oracle(dtype, case):
    lstm, seq, lengths, dout = _oracle_case(dtype, ORACLE_LENGTHS[case])
    ref = ReferenceLstm(lstm)
    want_out = ref.forward(seq, lengths)
    want_dseq = ref.backward(dout)
    out, dseq, grads = _run(lstm, seq, lengths, dout)
    tol = ORACLE_TOL[dtype]
    assert out.dtype == dseq.dtype == dtype
    assert rel_to_max(out, want_out) <= tol
    assert rel_to_max(dseq, want_dseq) <= tol
    for name, want in ref.grads().items():
        assert rel_to_max(grads[name], want) <= tol, name


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_lstm_rows_permute_with_the_batch(dtype):
    lstm, seq, lengths, dout = _oracle_case(dtype, ORACLE_LENGTHS["mixed"])
    out, dseq, grads = _run(lstm, seq, lengths, dout)
    perm = RNG(71).permutation(len(lengths))
    p_out, p_dseq, p_grads = _run(lstm, seq[perm], lengths[perm], dout[perm])
    tol = ORACLE_TOL[dtype]
    assert rel_to_max(p_out, out[perm]) <= tol
    assert rel_to_max(p_dseq, dseq[perm]) <= tol
    for name, grad in grads.items():
        assert rel_to_max(p_grads[name], grad) <= tol, name


def test_lstm_backward_twice_gives_identical_results():
    lstm, seq, lengths, dout = _oracle_case(np.float64, ORACLE_LENGTHS["mixed"])
    lstm.forward(_rowmajor(seq, lengths), lengths)
    zero_grads(lstm.params())
    first = lstm.backward(dout)
    first_grads = [p.grad.copy() for p in lstm.params()]
    zero_grads(lstm.params())
    second = lstm.backward(dout)
    np.testing.assert_array_equal(second, first)
    for p, grad in zip(lstm.params(), first_grads):
        np.testing.assert_array_equal(p.grad, grad)


def test_lstm_does_not_hold_the_previous_batch_while_running_the_next():
    lstm = Lstm(50, 100, RNG(80), dtype=np.float32)
    lengths = np.full(256, 15)
    seq = _rowmajor(RNG(81).normal(size=(256, 15, 50)).astype(np.float32), lengths)
    dout = np.ones((256, 100), dtype=np.float32)

    def peak_of_one_pass():
        tracemalloc.reset_peak()
        lstm.forward(seq, lengths)
        lstm.backward(dout)
        return tracemalloc.get_traced_memory()[1]

    tracemalloc.start()
    try:
        first = peak_of_one_pass()
        second = peak_of_one_pass()  # the first pass's cache is still alive when this starts
    finally:
        tracemalloc.stop()
    assert second <= first + 1_000_000, (first, second)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_lstm_inference_forward_gives_the_training_forwards_bits(dtype):
    lstm = Lstm(50, 100, RNG(82), dtype=dtype)
    seq = RNG(83).normal(size=(64, 15, 50)).astype(dtype)
    lengths = RNG(84).integers(1, 16, size=64)
    lengths[:5] = 1
    # One row 7 steps longer than every other runs its last steps alone: a
    # one-row product, which numpy hands to gemv where it hands taller ones
    # to gemm, and the two can round differently.
    lone = np.minimum(lengths, 8)
    lone[17] = 15
    for rows, lens in ((slice(None), lengths), (slice(0, 1), lengths), (slice(5, 6), lengths),
                       (slice(0, 0), lengths), (slice(None), lone)):
        real = _rowmajor(seq[rows], lens[rows])
        want = lstm.forward(real, lens[rows])
        got = lstm.forward(real, lens[rows], cache=False)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def _lstm_forward_peak(steps, cache):
    lengths = np.full(256, steps)
    seq = RNG(81).normal(size=(256 * steps, 50)).astype(np.float32)
    lstm = Lstm(50, 100, RNG(80), dtype=np.float32)
    tracemalloc.start()
    try:
        lstm.forward(seq, lengths, cache=cache)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_lstm_inference_forward_peak_does_not_grow_with_the_step_count():
    # One step of 256 rows (50 -> 100) is 256 * (50 + 6 * 100) float32 values
    # in the block, 0.67 MB, against 10 MB for a training forward of 15
    # steps.  From the third step on, one step's temporaries (0.1 MB) are
    # still alive while the next step makes its own, and then it stays flat.
    long, short = _lstm_forward_peak(15, False), _lstm_forward_peak(2, False)
    training = _lstm_forward_peak(15, True)
    assert long <= 1.1 * short, (long, short)
    assert long <= 0.25 * training, (long, training)


def test_lstm_backward_without_a_training_forward_names_the_layer():
    lstm = Lstm(3, 4, RNG(0), dtype=np.float64, name="word_lstm")
    lengths = np.array([3, 1])
    seq = _rowmajor(RNG(1).normal(size=(2, 3, 3)), lengths)
    dout = np.ones((2, 4))
    with pytest.raises(RuntimeError, match="word_lstm"):
        lstm.backward(dout)  # no forward yet
    lstm.forward(seq, lengths)
    lstm.forward(seq, lengths, cache=False)  # drops the training forward's state
    with pytest.raises(RuntimeError, match="word_lstm"):
        lstm.backward(dout)
    lstm.forward(seq, lengths)
    assert lstm.backward(dout).shape == seq.shape


@pytest.mark.parametrize("make", [
    lambda input_grad: Dense(6, 3, RNG(90), dtype=np.float64, input_grad=input_grad),
    lambda input_grad: Lstm(6, 3, RNG(90), dtype=np.float64, input_grad=input_grad),
], ids=["dense", "lstm"])
def test_a_layer_without_an_input_gradient_accumulates_the_same_parameter_gradients(make):
    x = RNG(91).normal(size=(5, 4, 6))
    lengths = np.array([4, 1, 3, 4, 2])
    dout = RNG(92).normal(size=(5, 3))
    grads = {}
    for input_grad in (True, False):
        layer = make(input_grad)
        args = (x[:, 0],) if isinstance(layer, Dense) else (_rowmajor(x, lengths), lengths)
        layer.forward(*args)
        dx = layer.backward(dout)
        assert (dx is None) == (not input_grad)
        grads[input_grad] = [p.grad for p in layer.params()]
    for with_dx, without in zip(grads[True], grads[False]):
        assert with_dx.tobytes() == without.tobytes()


def _padded_call(lstm, seq, lengths, dout):
    """One pass over padded ``seq`` as the padded call ran it: the batch rows
    sorted by descending length (stably, here), so the rows of step ``t`` are
    the leading rows of ``seq[:, t]`` and the layer keeps the row order, the
    recurrence run over them, and the input gradient scattered back (zero at
    padded steps) and unsorted."""
    order = np.argsort(-lengths, kind="stable")
    zero_grads(lstm.params())
    out = np.empty((len(lengths), lstm.hidden_size), seq.dtype)
    out[order] = lstm.forward(_rowmajor(seq[order], lengths[order]), lengths[order])
    dx = lstm.backward(dout[order])
    dseq = None
    if dx is not None:
        dseq = np.empty(seq.shape, dx.dtype)
        dseq[order] = _pad(dx, lengths[order], seq.shape[1])
    return out, dseq, {p.name.split(".")[-1]: p.grad.copy() for p in lstm.params()}


# A realistic size too, so BLAS takes its blocked paths.
PACKED_CASES = {"small": (5, 4, [1, 6, 3, 6, 2, 4, 1, 5]), "word_lstm": (100, 100, None)}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("input_grad", [True, False])
@pytest.mark.parametrize("case", sorted(PACKED_CASES))
def test_lstm_rowmajor_input_gives_the_padded_calls_bits(case, input_grad, dtype):
    """Gathering the real steps row-major with a mask and scattering the
    input gradient back, as the model does, keeps the bits of the padded
    call over a length-sorted batch."""
    n_in, hidden, lengths = PACKED_CASES[case]
    rng = RNG(96)
    if lengths is None:
        lengths = rng.integers(1, 16, size=256)
        lengths[:3] = [1, 15, 15]
    lengths = np.array(lengths)
    lstm = Lstm(n_in, hidden, rng, dtype=dtype, input_grad=input_grad)
    seq = rng.normal(size=(len(lengths), lengths.max(), n_in)).astype(dtype)
    dout = rng.normal(size=(len(lengths), hidden)).astype(dtype)

    want_out, want_dseq, want_grads = _padded_call(lstm, seq, lengths, dout)
    zero_grads(lstm.params())
    real = _rowmajor(seq, lengths)
    out = lstm.forward(real, lengths)
    dreal = lstm.backward(dout)
    assert out.tobytes() == want_out.tobytes()
    for p in lstm.params():
        assert p.grad.tobytes() == want_grads[p.name.split(".")[-1]].tobytes(), p.name
    if input_grad:
        assert dreal.shape == real.shape and dreal.dtype == dtype
        dseq = _pad(dreal, lengths, seq.shape[1])
        assert dseq.tobytes() == want_dseq.tobytes()
    else:
        assert dreal is None and want_dseq is None
    assert lstm.forward(real, lengths, cache=False).tobytes() == want_out.tobytes()


def test_lstm_input_must_hold_one_row_per_real_step():
    lstm = Lstm(2, 3, RNG(0))
    lengths = np.array([2, 1])
    with pytest.raises(ValueError, match="lengths sum to 3"):
        lstm.forward(np.zeros((4, 2), np.float32), lengths)
    with pytest.raises(ValueError, match=r"lstm: input shape .* is not row-major \(rows, 2\)"):
        lstm.forward(np.zeros((2, 2, 2), np.float32), lengths)  # the padded layout
    assert lstm.forward(np.zeros((3, 2), np.float32), lengths).shape == (2, 3)


# ---------------------------------------------------------------------------
# one-hot dense
# ---------------------------------------------------------------------------


def test_onehot_dense_is_table_lookup_plus_bias():
    layer = OneHotDense(7, 4, RNG(50), dtype=np.float64)
    ids = np.array([[0, 3, 5], [6, 3, 1]])
    lengths = np.array([2, 3])
    out = layer.forward(ids, lengths)
    np.testing.assert_array_equal(out, _rowmajor(layer.W.value[ids] + layer.b.value, lengths))
    with pytest.raises(ValueError):
        layer.forward(np.array([[7]]), [1])
    with pytest.raises(ValueError):
        layer.forward(np.array([[-1]]), [1])
    with pytest.raises(ValueError, match="onehot: lengths shape"):
        layer.forward(np.zeros((5, 3), np.int64), [1, 1, 1])  # fewer lengths than rows
    with pytest.raises(ValueError, match="onehot: lengths shape"):
        layer.forward(ids[0], [2])  # ids must be rows
    with pytest.raises(ValueError, match=r"onehot: lengths must lie in \[1, 3\]"):
        layer.forward(ids, [2, 4])  # past the row width
    with pytest.raises(ValueError, match=r"onehot: lengths must lie in \[1, 3\]"):
        layer.forward(ids, [0, 3])


def test_onehot_dense_gradients_accumulate_duplicates():
    layer = OneHotDense(5, 2, RNG(51), dtype=np.float64)
    ids = np.array([[1], [1], [4]])
    R = RNG(52).normal(size=(3, 2))

    def loss():
        return float((layer.forward(ids, [1, 1, 1]) * R).sum())

    loss()
    zero_grads(layer.params())
    assert layer.backward(R) is None  # integer ids are not differentiable
    assert max_rel_err(layer.W.grad, numeric_grad(loss, layer.W.value)) < 1e-6
    assert max_rel_err(layer.b.grad, numeric_grad(loss, layer.b.value)) < 1e-6
    np.testing.assert_allclose(layer.W.grad[1], R[0] + R[1], atol=1e-15)
    assert not layer.W.grad[[0, 2, 3]].any()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_onehot_dense_with_lengths_projects_and_scatters_only_real_positions(dtype):
    # Distinct char rows at the char channel's scale: ids 1-60 at real
    # positions, and id 61 only at padded ones, which must never be read.
    rng = RNG(53)
    layer = OneHotDense(62, 16, rng, dtype=dtype)
    lengths = rng.integers(1, 21, size=3000)
    ids = rng.integers(1, 61, size=(3000, 20)).astype(np.uint16)
    ids[np.arange(20) >= lengths[:, None]] = 61
    real = _real(lengths, 20)

    out = layer.forward(ids, lengths)
    full = layer.W.value[ids] + layer.b.value
    assert out.tobytes() == full[real].tobytes()
    dout = rng.normal(size=out.shape).astype(dtype)
    zero_grads(layer.params())
    assert layer.backward(dout) is None
    grads = [p.grad.copy() for p in layer.params()]
    assert not grads[0][61].any()

    # The full-width layout's scatter: zero gradient at padded positions,
    # summed over every position in row-major order.
    dfull = np.zeros(full.shape, dtype)
    dfull[real] = dout
    want_W = np.zeros_like(layer.W.value)
    np.add.at(want_W, ids, dfull)
    want_b = dfull.reshape(-1, dfull.shape[-1]).sum(axis=0)
    for want, got in zip((want_W, want_b), grads):
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# grad_check itself
# ---------------------------------------------------------------------------


def quadratic_fn(arrays, want_grad):
    (w,) = arrays
    loss = float((w**2).sum())
    return loss, ([2.0 * w] if want_grad else None)


def test_grad_check_accepts_correct_gradients():
    w = RNG(60).normal(size=(4, 3))
    assert grad_check(quadratic_fn, [w], h=1e-6) < 1e-8


def test_grad_check_flags_planted_gradient_bug():
    def doubled(arrays, want_grad):
        loss, grads = quadratic_fn(arrays, want_grad)
        return loss, ([2.0 * grads[0]] if want_grad else None)

    w = RNG(61).normal(size=(3, 3)) + 1.0
    assert grad_check(doubled, [w], h=1e-6) > 0.3


def test_grad_check_requires_float64():
    with pytest.raises(ValueError):
        grad_check(quadratic_fn, [np.ones((2, 2), dtype=np.float32)])


def test_grad_check_raises_on_non_finite_loss():
    def bad(arrays, want_grad):
        return float("nan"), ([np.zeros_like(arrays[0])] if want_grad else None)

    with pytest.raises(GradCheckError):
        grad_check(bad, [np.ones(3)])


def test_grad_check_sampling_is_deterministic():
    w = RNG(62).normal(size=(20, 20))
    a = grad_check(quadratic_fn, [w], sample_per_array=5, seed=3)
    b = grad_check(quadratic_fn, [w], sample_per_array=5, seed=3)
    assert a == b


def test_grad_check_floor_bounds_denominator():
    # gradient exactly zero at w=0: numeric noise over |g| would blow up
    w = np.zeros((2, 2))
    assert grad_check(quadratic_fn, [w], h=1e-6, floor=1e-6) < 1e-3


# ---------------------------------------------------------------------------
# misc numerics
# ---------------------------------------------------------------------------


def test_require_finite():
    require_finite(np.ones(3), "ok")
    with pytest.raises(NumericsError):
        require_finite(np.array([1.0, np.nan]), "bad")
    with pytest.raises(NumericsError):
        require_finite(np.array([np.inf]), "bad")


def test_glorot_uniform_bounds():
    vals = glorot_uniform(RNG(70), (30, 20), np.float64)
    limit = math.sqrt(6.0 / 50.0)
    assert np.abs(vals).max() <= limit
    assert vals.std() > 0.1 * limit


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def make_params():
    rng = RNG(80)
    return [
        Parameter("layer0.W", rng.normal(size=(3, 2)).astype(np.float32)),
        Parameter("layer0.b", rng.normal(size=(2,)).astype(np.float64)),
    ]


def test_checkpoint_round_trip(tmp_path):
    path = tmp_path / "model.bin"
    params = make_params()
    meta = {"preset": "W2V_SOFTMAX", "classes": "2"}
    digest = save_checkpoint(path, params, meta)
    arrays, back_meta = load_checkpoint(path)
    assert back_meta == meta
    assert set(arrays) == {"layer0.W", "layer0.b"}
    for p in params:
        np.testing.assert_array_equal(arrays[p.name], p.value)
        assert arrays[p.name].dtype == p.value.dtype
    # digest is the sha256 of the file bytes, recomputed independently
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()


class _UnreadableValues:
    """An array stand-in whose values raise when read, after its header is written."""

    dtype, ndim, shape = np.dtype(np.float32), 1, (3,)

    def __array__(self, *args, **kwargs):
        raise OSError("No space left on device")


def test_a_save_that_fails_mid_write_leaves_the_previous_checkpoint(tmp_path):
    path = tmp_path / "checkpoint_best.bin"
    params = make_params()
    digest = save_checkpoint(path, params, {"epoch": "0"})
    broken = [*params, NamedArray("broken", _UnreadableValues())]
    with pytest.raises(OSError, match="No space left"):
        save_checkpoint(path, broken, {"epoch": "1"})
    arrays, meta = load_checkpoint(path)
    assert meta == {"epoch": "0"}
    for p in params:
        assert arrays[p.name].tobytes() == p.value.tobytes()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    assert sorted(os.listdir(tmp_path)) == ["checkpoint_best.bin"]


def test_a_save_whose_rename_fails_leaves_the_previous_checkpoint_and_no_temporary(
        tmp_path, monkeypatch):
    path = tmp_path / "checkpoint_best.bin"
    params = make_params()
    digest = save_checkpoint(path, params, {"epoch": "0"})

    def failing_replace(src, dst):
        raise OSError("Operation not permitted")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="not permitted"):
        save_checkpoint(path, params, {"epoch": "1"})
    monkeypatch.undo()
    _, meta = load_checkpoint(path)
    assert meta == {"epoch": "0"}
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    assert sorted(os.listdir(tmp_path)) == ["checkpoint_best.bin"]


def test_checkpoint_bytes_do_not_depend_on_meta_insertion_order(tmp_path):
    params = make_params()
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(a, params, {"x": "1", "y": "2"})
    save_checkpoint(b, params, {"y": "2", "x": "1"})
    assert a.read_bytes() == b.read_bytes()


def test_checkpoint_tamper_detection(tmp_path):
    path = tmp_path / "model.bin"
    save_checkpoint(path, make_params(), {})
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError):
        load_checkpoint(path)


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "model.bin"
    blob = b"NOTACKPT" + b"\x00" * 16
    # a matching digest, so the hash check passes and the magic check is reached
    path.write_bytes(blob + hashlib.sha256(blob).digest())
    with pytest.raises(DataError, match="bad magic"):
        load_checkpoint(path)


def test_checkpoint_ends_in_its_sha256_and_loads_its_arrays_in_order(tmp_path):
    path = tmp_path / "model.bin"
    digest = save_checkpoint(path, make_params(), {"k": "v"})
    blob = path.read_bytes()
    assert blob.startswith(CHECKPOINT_MAGIC)
    assert blob[-32:] == hashlib.sha256(blob[:-32]).digest()
    assert digest == hashlib.sha256(blob).hexdigest()
    arrays, _ = load_checkpoint(path)
    assert [(name, a.shape, a.dtype) for name, a in arrays.items()] == [
        ("layer0.W", (3, 2), np.float32), ("layer0.b", (2,), np.float64)]


def blob_checkpoint(params, meta) -> bytes:
    """The checkpoint bytes built as one blob, digest last: the streaming writer's oracle."""
    blob = bytearray()
    blob += CHECKPOINT_MAGIC
    blob += struct.pack("<I", len(meta))
    for key in sorted(meta):
        kb, vb = key.encode("utf-8"), str(meta[key]).encode("utf-8")
        blob += struct.pack("<H", len(kb)) + kb
        blob += struct.pack("<I", len(vb)) + vb
    blob += struct.pack("<I", len(params))
    for p in params:
        nb = p.name.encode("utf-8")
        code = 8 if p.value.dtype == np.float64 else 4
        blob += struct.pack("<H", len(nb)) + nb
        blob += struct.pack("<BB", code, p.value.ndim)
        for dim in p.value.shape:
            blob += struct.pack("<I", dim)
        blob += np.ascontiguousarray(p.value, dtype="<f8" if code == 8 else "<f4").tobytes()
    blob += hashlib.sha256(blob).digest()
    return bytes(blob)


def test_streaming_writer_matches_the_blob_writer(tmp_path):
    rng = RNG(81)
    wide = rng.normal(size=(6, 4))
    params = [
        *make_params(),
        Parameter("scalar", np.array(2.5, dtype=np.float32)),
        Parameter("empty", np.zeros((0, 3), dtype=np.float64)),
        Parameter("strided", wide[:, ::2].astype(np.float32)),  # a non-contiguous view
        Parameter("fortran", np.asfortranarray(wide)),
        Parameter("wide_int", np.arange(6, dtype=np.int64).reshape(2, 3)),  # stored as float32
        NamedArray("embeddings", wide[::-1].astype(np.float32)),
    ]
    meta = {"preset": "W2V_LSTM", "note": "ملاحظه", "empty": ""}
    path = tmp_path / "model.bin"
    digest = save_checkpoint(path, params, meta)
    want = blob_checkpoint(params, meta)
    assert path.read_bytes() == want
    assert digest == hashlib.sha256(want).hexdigest()
    arrays, back_meta = load_checkpoint(path)
    assert back_meta == meta
    np.testing.assert_array_equal(arrays["embeddings"], params[-1].value)
    np.testing.assert_array_equal(arrays["fortran"], wide)

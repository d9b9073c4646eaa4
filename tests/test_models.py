"""Preset construction, forward/predict behavior, and model checkpoints.

Parameter counts are recomputed from closed-form arithmetic, and every
preset's backward pass is spot-checked against finite differences (the
exhaustive multi-seed sweep lives in the acceptance tests).
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from sarv.corpus import EncodedSentence, record_dtype
from sarv.errors import ConfigError, DataError
from sarv.models import (
    CHAR_PRESETS,
    MLP_PRESETS,
    PRESETS,
    REFERENCE_F1,
    ModelSpec,
    _char_lengths,
    _distinct_rows,
    build_model,
    load_model,
    model_loss_fn,
    save_model,
)
from sarv.nn import (Dense, grad_check, one_hot, save_checkpoint, softmax_xent_grad,
                     zero_grads)

from conftest import (
    TINY_EMBED_DIM,
    TINY_MAX_LEN,
    TINY_MAX_WORD_CHARS,
    TINY_VOCAB,
    rel_to_max,
    relu_margin,
    stack_sentences,
    tiny_batch,
    tiny_emb,
    tiny_records,
    tiny_spec,
)


def lstm_params(input_size, hidden):
    return 4 * ((input_size + hidden) * hidden + hidden)


def dense_params(i, o):
    return i * o + o


# ---------------------------------------------------------------------------
# spec + construction
# ---------------------------------------------------------------------------


def test_preset_list_is_complete():
    assert len(PRESETS) == 7
    assert set(MLP_PRESETS) < set(PRESETS)
    assert set(CHAR_PRESETS) < set(PRESETS)
    assert set(REFERENCE_F1) == set(PRESETS)


def test_spec_validation():
    with pytest.raises(ConfigError):
        ModelSpec(preset="W2V_TRANSFORMER")
    with pytest.raises(ConfigError):
        ModelSpec(preset="W2V_SOFTMAX", num_classes=4)
    with pytest.raises(ConfigError):
        ModelSpec(preset="W2V_SOFTMAX", dropout_rate=1.0)
    with pytest.raises(ConfigError):
        ModelSpec(preset="W2V_SOFTMAX", max_len=0)


def test_spec_meta_round_trip():
    spec = tiny_spec("CHAR_W2V_LSTM", classes=3)
    assert ModelSpec.from_meta(spec.to_meta()) == spec


WORD_LSTM_NAMES = [
    "word_lstm.W_i", "word_lstm.W_f", "word_lstm.W_g", "word_lstm.W_o",
    "word_lstm.b_i", "word_lstm.b_f", "word_lstm.b_g", "word_lstm.b_o",
]
CHAR_CHANNEL_NAMES = [
    "char_proj.W", "char_proj.b",
    "char_lstm.W_i", "char_lstm.W_f", "char_lstm.W_g", "char_lstm.W_o",
    "char_lstm.b_i", "char_lstm.b_f", "char_lstm.b_g", "char_lstm.b_o",
]
MLP_NAMES = ["dense0.W", "dense0.b", "dense1.W", "dense1.b", "head.W", "head.b"]


@pytest.mark.parametrize("preset, names", [
    ("W2V_SOFTMAX", ["head.W", "head.b"]),
    ("W2V_MLP_SIGMOID", MLP_NAMES),
    ("W2V_MLP_RELU_LRDECAY", MLP_NAMES),
    ("W2V_MLP_RELU_LRDECAY_DROPOUT", MLP_NAMES),
    ("W2V_LSTM", WORD_LSTM_NAMES + ["head.W", "head.b"]),
    ("CHAR_W2V_LSTM_RUS", CHAR_CHANNEL_NAMES + WORD_LSTM_NAMES + ["head.W", "head.b"]),
    ("CHAR_W2V_LSTM", CHAR_CHANNEL_NAMES + WORD_LSTM_NAMES + ["head.W", "head.b"]),
])
def test_parameter_names_pin_checkpoint_layout(preset, names):
    # Checkpoints store parameters in this order; reordering changes their bytes.
    model = build_model(tiny_spec(preset))
    assert [p.name for p in model.params()] == names


def test_softmax_preset_parameter_count():
    spec = ModelSpec(preset="W2V_SOFTMAX", num_classes=2)
    model = build_model(spec)
    assert model.parameter_count() == dense_params(15 * 50, 2) == 1502


def test_mlp_parameter_count():
    spec = ModelSpec(preset="W2V_MLP_SIGMOID", num_classes=3)
    model = build_model(spec)
    expected = 0
    prev = 15 * 50
    for size in (200, 100, 60, 30):
        expected += dense_params(prev, size)
        prev = size
    expected += dense_params(prev, 3)
    assert model.parameter_count() == expected


def test_word_lstm_parameter_count():
    model = build_model(ModelSpec(preset="W2V_LSTM", num_classes=2))
    assert model.parameter_count() == lstm_params(50, 100) + dense_params(100, 2)


def test_char_lstm_parameter_count():
    spec = ModelSpec(preset="CHAR_W2V_LSTM", num_classes=2, char_vocab_size=40)
    model = build_model(spec)
    expected = (
        dense_params(41, 16)            # char projection over ids 0..40
        + lstm_params(16, 50)           # char lstm
        + lstm_params(50 + 50, 100)     # word lstm over [word vec, char feature]
        + dense_params(100, 2)
    )
    assert model.parameter_count() == expected


def test_build_model_accepts_generator_and_seed():
    spec = tiny_spec("W2V_LSTM")
    a = build_model(spec, rng_seed=5, dtype=np.float64)
    b = build_model(spec, rng_seed=np.random.default_rng(5), dtype=np.float64)
    for pa, pb in zip(a.params(), b.params()):
        np.testing.assert_array_equal(pa.value, pb.value)


def test_char_preset_requires_vocab_sized_ids():
    spec = tiny_spec("CHAR_W2V_LSTM")
    model = build_model(spec, rng_seed=0, dtype=np.float64)
    assert model.char_proj.num_ids == spec.char_vocab_size + 1


# ---------------------------------------------------------------------------
# record batches
# ---------------------------------------------------------------------------


def test_stacked_records_keep_every_field():
    records = tiny_records(seed=1, n=3)
    batch = tiny_batch(seed=1, n=3)
    assert batch.dtype.itemsize == 4 + 4 + TINY_MAX_LEN * (4 + 2 * TINY_MAX_WORD_CHARS)
    for row, rec in zip(batch, records):
        assert row["t"].tolist() == list(rec.token_ids)
        assert row["c"].tolist() == [list(c) for c in rec.char_ids]
        assert (row["len"], row["y"]) == (rec.true_length, rec.label)


@pytest.mark.parametrize("preset", ["W2V_LSTM", "CHAR_W2V_LSTM"])
def test_forward_clamps_empty_sentences(preset):
    # An all-PAD sentence (true length 0) still runs one recurrent step.
    model = build_model(tiny_spec(preset), rng_seed=0, dtype=np.float64)
    empty = EncodedSentence(
        token_ids=(0,) * TINY_MAX_LEN,
        char_ids=((0,) * TINY_MAX_WORD_CHARS,) * TINY_MAX_LEN,
        true_length=0,
        label=0,
    )
    probs = model.forward(stack_sentences([empty], TINY_MAX_WORD_CHARS), tiny_emb(seed=0))
    assert probs.shape == (1, 2) and np.all(np.isfinite(probs))


@pytest.mark.parametrize("preset", PRESETS)
def test_predict_on_zero_records_returns_empty_probabilities(preset):
    model = build_model(tiny_spec(preset, classes=3), rng_seed=0, dtype=np.float64)
    labels, probs = model.predict(tiny_batch(seed=0, n=1, classes=3)[:0], tiny_emb(seed=0))
    assert labels.shape == (0,)
    assert probs.shape == (0, 3)


def _dedup_batch() -> np.ndarray:
    """Tokens repeated within and across sentences, an all-PAD sentence and an unknown char."""
    pad = (0,) * TINY_MAX_WORD_CHARS
    a, b, unk = (1, 2, 3, 0, 0), (4, 0, 5, 6, 0), (7, 0, 8, 0, 0)  # unk: id 0 mid-token
    sentences = [
        ((1, 2, 1, 0), (a, b, a, pad), 3, 0),
        ((0, 0, 0, 0), (pad,) * TINY_MAX_LEN, 0, 1),
        ((3, 1, 3, 3), (unk, a, unk, unk), 4, 1),
        ((2, 0, 0, 0), (b, pad, pad, pad), 1, 0),
    ]
    records = [EncodedSentence(t, c, n, y) for t, c, n, y in sentences]
    return stack_sentences(records, TINY_MAX_WORD_CHARS)


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
def test_char_dedup_matches_running_every_slot(monkeypatch, dtype, tol):
    import sarv.models

    model = build_model(tiny_spec("CHAR_W2V_LSTM"), rng_seed=3, dtype=dtype)
    batch = _dedup_batch()
    emb = tiny_emb(seed=4, dtype=dtype)
    targets = one_hot(batch["y"], 2, dtype=dtype)

    def run():
        zero_grads(model.params())
        probs = model.forward(batch, emb)
        model.backward(softmax_xent_grad(probs, targets))
        return probs, [p.grad.copy() for p in model.params()]

    probs, grads = run()
    assert len(np.unique(model._char_inverse)) == 4  # PAD, a, b, unk out of 16 slots
    monkeypatch.setattr(sarv.models, "_distinct_rows", lambda ids: (ids, np.arange(len(ids))))
    every_probs, every_grads = run()
    assert len(model._char_inverse) == batch["c"].shape[0] * TINY_MAX_LEN
    assert rel_to_max(probs, every_probs) <= tol
    for p, got, want in zip(model.params(), grads, every_grads):
        assert want.any(), p.name
        assert rel_to_max(got, want) <= tol, p.name


def _distinct_rows_cases():
    rng = np.random.default_rng(11)
    for n in (1, 7, 300):
        yield rng.integers(0, 1 << 16, size=(n, 20)).astype("<u2")  # the full id range
        yield rng.integers(0, 3, size=(n, 20)).astype("<u2")  # many repeats
    # Little-endian bytes would sort 256 (00 01) before 1 (01 00) and 255 (ff 00).
    traps = np.zeros((8, 20), "<u2")
    traps[:, 0] = (256, 1, 255, 0, 256, 65535, 511, 1)
    traps[3, 19] = 256
    traps[7, 1] = 256
    yield traps
    yield np.zeros((45, 20), "<u2")  # an all-PAD batch
    records = np.zeros(3, record_dtype(15, 20))
    records["c"] = rng.integers(0, 300, size=(3, 15, 20))
    records["c"][:, 10:] = 0
    yield records["c"].reshape(3 * 15, 20)  # as Model.forward passes a record array's chars
    yield records["c"][:, 2]  # a strided view: one slot of every record


def test_distinct_rows_equals_row_wise_unique():
    cases = list(_distinct_rows_cases())
    assert not cases[-1].flags.c_contiguous
    for ids in cases:
        rows, inverse = _distinct_rows(ids)
        want_rows, want_inverse = np.unique(ids, axis=0, return_inverse=True)
        assert rows.dtype == want_rows.dtype
        np.testing.assert_array_equal(rows, want_rows)
        np.testing.assert_array_equal(inverse, want_inverse.reshape(-1))
        np.testing.assert_array_equal(rows[inverse], ids)


def test_char_lengths_matches_brute_force():
    rng = np.random.default_rng(9)
    ids = rng.integers(0, 4, size=(20, 6))
    ids[3] = 0  # all-zero row
    got = _char_lengths(ids)
    for row, length in zip(ids, got):
        nz = [k for k, v in enumerate(row) if v != 0]
        expected = max(nz[-1] + 1 if nz else 0, 1)
        assert length == expected


# ---------------------------------------------------------------------------
# forward / predict
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("preset", PRESETS)
def test_forward_rows_are_probabilities(preset):
    model = build_model(tiny_spec(preset, classes=3), rng_seed=1, dtype=np.float64)
    probs = model.forward(tiny_batch(seed=4, n=5, classes=3), tiny_emb(seed=5))
    assert probs.shape == (5, 3)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(probs >= 0)


@pytest.mark.parametrize("preset", PRESETS)
def test_eval_forward_is_deterministic(preset):
    model = build_model(tiny_spec(preset), rng_seed=2, dtype=np.float64)
    batch = tiny_batch(seed=6, n=4)
    emb = tiny_emb(seed=7)
    a = model.forward(batch, emb)
    b = model.forward(batch, emb)
    np.testing.assert_array_equal(a, b)


def _full_size_records(n: int, seed: int, spec: ModelSpec, vocab: int) -> np.ndarray:
    """Random records in ``spec``'s layout with true lengths 0 to ``max_len``, 0 and 1 included."""
    rng = np.random.default_rng(seed)
    records = np.zeros(n, record_dtype(spec.max_len, spec.max_word_chars))
    records["len"] = rng.integers(0, spec.max_len + 1, size=n)
    records["len"][:3] = [0, 1, 1]
    records["y"] = rng.integers(0, spec.num_classes, size=n)
    for row in records:
        for slot in range(row["len"]):
            row["t"][slot] = rng.integers(0, vocab + 1)  # 0: an OOV token
            row["c"][slot, : rng.integers(1, spec.max_word_chars + 1)] = rng.integers(
                1, spec.char_vocab_size + 1)
    return records


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("preset", PRESETS)
def test_predict_gives_the_eval_forwards_probabilities_bit_for_bit(preset, dtype):
    spec = ModelSpec(preset=preset, num_classes=3, char_vocab_size=40)
    model = build_model(spec, rng_seed=5, dtype=dtype)
    emb = np.random.default_rng(6).normal(size=(300, spec.embed_dim)).astype(dtype)
    emb[0] = 0.0
    records = _full_size_records(70, seed=7, spec=spec, vocab=299)
    for batch in (records, records[1:2], records[:0]):
        labels, got = model.predict(batch, emb)
        want = model.forward(batch, emb, mode="eval")
        assert got.dtype == want.dtype == dtype and got.shape == want.shape == (len(batch), 3)
        assert got.tobytes() == want.tobytes()
        assert labels.tolist() == np.argmax(want, axis=1).tolist()
        assert model.predict(batch, emb)[1].tobytes() == want.tobytes()


def test_predict_after_a_training_step_reuses_the_training_block():
    spec = ModelSpec(preset="W2V_LSTM", char_vocab_size=40)
    model = build_model(spec, rng_seed=8)
    emb = np.random.default_rng(9).normal(size=(300, spec.embed_dim)).astype(np.float32)
    records = _full_size_records(256, seed=10, spec=spec, vocab=299)
    records["len"] = spec.max_len
    probs = model.forward(records, emb, mode="train", rng=np.random.default_rng(11))
    model.backward(softmax_xent_grad(probs, one_hot(records["y"], 2, np.float32)))
    block = model.word_lstm._block
    tracemalloc.start()
    try:
        model.predict(records, emb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.word_lstm._block is block
    # An inference block of its own would be about 0.7 of the training block.
    assert peak < 0.3 * block.nbytes, (peak, block.nbytes)


@pytest.mark.parametrize("preset", PRESETS)
def test_backward_after_predict_fails_in_the_first_lstm_it_reaches(preset):
    model = build_model(tiny_spec(preset), rng_seed=12, dtype=np.float64)
    batch = tiny_batch(seed=13, n=3)
    _, probs = model.predict(batch, tiny_emb(seed=14))
    dlogits = softmax_xent_grad(probs, one_hot(batch["y"], 2))
    if model.word_lstm is None:
        model.backward(dlogits)  # the dense chain keeps what its backward needs
    else:
        with pytest.raises(RuntimeError, match="word_lstm"):
            model.backward(dlogits)


@pytest.mark.parametrize("preset", PRESETS)
def test_only_the_char_presets_compute_an_input_gradient_below_the_dense_chain(preset):
    model = build_model(tiny_spec(preset), rng_seed=0)
    dense = [layer for layer in model.layers if isinstance(layer, Dense)]
    # The frozen word vectors take no gradient; the char channel takes the word LSTM's.
    assert [layer.input_grad for layer in dense] == [model.word_lstm is not None] + [True] * (
        len(dense) - 1)
    if model.word_lstm is not None:
        assert model.word_lstm.input_grad == (preset in CHAR_PRESETS)


def test_predict_breaks_ties_toward_lowest_class():
    model = build_model(tiny_spec("W2V_SOFTMAX", classes=3), rng_seed=0, dtype=np.float64)
    for p in model.params():
        p.value[...] = 0.0  # all-zero head -> uniform probabilities
    labels, probs = model.predict(tiny_batch(seed=10, n=4, classes=3), tiny_emb(seed=1))
    np.testing.assert_allclose(probs, 1.0 / 3.0, atol=1e-15)
    assert labels.tolist() == [0, 0, 0, 0]


def test_forward_rejects_mismatched_embedding_dim():
    model = build_model(tiny_spec("W2V_SOFTMAX"), rng_seed=0)
    bad = np.zeros((13, TINY_EMBED_DIM + 1), dtype=np.float32)
    with pytest.raises(ConfigError):
        model.forward(tiny_batch(seed=0, n=1), bad)


def test_dropout_preset_train_mode_is_stochastic_eval_is_not():
    spec = tiny_spec("W2V_MLP_RELU_LRDECAY_DROPOUT")
    model = build_model(spec, rng_seed=4, dtype=np.float64)
    batch = tiny_batch(seed=11, n=6)
    emb = tiny_emb(seed=12)
    t1 = model.forward(batch, emb, mode="train", rng=np.random.default_rng(1))
    t2 = model.forward(batch, emb, mode="train", rng=np.random.default_rng(2))
    assert (t1 != t2).any()
    e1 = model.forward(batch, emb)
    e2 = model.forward(batch, emb)
    np.testing.assert_array_equal(e1, e2)


# ---------------------------------------------------------------------------
# gradient spot checks (one good seed per preset; the acceptance gate
# sweeps many seeds)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("preset", PRESETS)
def test_preset_gradients_match_finite_differences(preset):
    classes = 3 if preset in CHAR_PRESETS else 2
    needs_margin = "RELU" in preset
    seed = 0
    while True:
        model = build_model(tiny_spec(preset, classes), rng_seed=seed, dtype=np.float64)
        records = tiny_batch(seed=seed + 1000, n=2, classes=classes)
        emb = tiny_emb(seed=seed + 2000)
        if not needs_margin or relu_margin(model, records, emb, dropout_seed=seed) > 1e-3:
            break
        seed += 1
    mode = "train" if preset == "W2V_MLP_RELU_LRDECAY_DROPOUT" else "eval"
    targets = one_hot(records["y"], classes)
    fn, arrays = model_loss_fn(model, records, emb, targets, mode=mode, dropout_seed=seed)
    err = grad_check(fn, arrays, h=1e-5, sample_per_array=3, seed=seed, floor=1e-6)
    assert err <= 1e-5, f"{preset}: max relative error {err:.3e}"


# ---------------------------------------------------------------------------
# save / load
# ---------------------------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    spec = tiny_spec("CHAR_W2V_LSTM", classes=3)
    model = build_model(spec, rng_seed=6, dtype=np.float64)
    records = tiny_batch(seed=13, n=3, classes=3)
    emb = tiny_emb(seed=14)
    want_labels, want_probs = model.predict(records, emb)

    path = tmp_path / "model.bin"
    save_model(model, path, emb, extra_meta={"note": "roundtrip"})
    back, back_emb, meta = load_model(path, TINY_VOCAB)
    assert meta["preset"] == "CHAR_W2V_LSTM"
    assert meta["precision"] == "double"
    assert meta["note"] == "roundtrip"
    assert back.spec == spec
    for pa, pb in zip(model.params(), back.params()):
        np.testing.assert_array_equal(pa.value, pb.value)
    assert back_emb.dtype == np.float64
    np.testing.assert_array_equal(back_emb, emb)
    assert not back_emb.flags.writeable
    got_labels, got_probs = back.predict(records, back_emb)
    np.testing.assert_array_equal(got_labels, want_labels)
    np.testing.assert_array_equal(got_probs, want_probs)


@pytest.mark.parametrize("preset", PRESETS)
def test_load_draws_no_random_initialisation(preset, tmp_path, monkeypatch):
    spec = tiny_spec(preset)
    model = build_model(spec, rng_seed=9, dtype=np.float32)
    path = tmp_path / "model.bin"
    save_model(model, path, tiny_emb(seed=15))

    def no_generator(*args, **kwargs):
        raise AssertionError("load_model made a random generator")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    back, _, _ = load_model(path, TINY_VOCAB)
    assert [p.name for p in back.params()] == [p.name for p in model.params()]
    for pa, pb in zip(model.params(), back.params()):
        assert pb.value.dtype == pa.value.dtype
        assert pb.value.tobytes() == pa.value.tobytes()


def test_save_load_preserves_single_precision(tmp_path):
    model = build_model(tiny_spec("W2V_SOFTMAX"), rng_seed=0, dtype=np.float32)
    path = tmp_path / "model.bin"
    emb = tiny_emb(seed=3)  # float64: stored at the model's precision
    save_model(model, path, emb)
    back, back_emb, meta = load_model(path, TINY_VOCAB)
    assert meta["precision"] == "single"
    assert back.params()[0].value.dtype == np.float32
    assert back_emb.dtype == np.float32
    np.testing.assert_array_equal(back_emb, emb.astype(np.float32))


def test_embeddings_are_stored_after_the_parameters_and_are_not_a_parameter(tmp_path):
    model = build_model(tiny_spec("W2V_LSTM"), rng_seed=0, dtype=np.float32)
    path = tmp_path / "model.bin"
    save_model(model, path, tiny_emb(seed=4))
    names = [ln.split()[1] for ln in (tmp_path / "model.bin.manifest.txt").read_text(
        "utf-8").splitlines() if ln.startswith("param ")]
    assert names == [p.name for p in model.params()] + ["embeddings"]
    assert "embeddings" not in {p.name for p in model.params()}


def test_load_rejects_embeddings_of_another_vocabulary(tmp_path):
    model = build_model(tiny_spec("W2V_SOFTMAX"), rng_seed=0, dtype=np.float32)
    path = tmp_path / "model.bin"
    save_model(model, path, tiny_emb(seed=5))
    with pytest.raises(DataError, match="embeddings: expected \\(12, 5\\) for 11 tokens"):
        load_model(path, TINY_VOCAB - 1)


def test_load_rejects_mismatched_architecture(tmp_path):
    donor = build_model(tiny_spec("W2V_LSTM"), rng_seed=0, dtype=np.float32)
    # metadata claims a softmax model, but the arrays are LSTM-shaped
    meta = tiny_spec("W2V_SOFTMAX").to_meta()
    meta["precision"] = "single"
    path = tmp_path / "model.bin"
    save_checkpoint(path, donor.params(), meta)
    with pytest.raises(DataError) as exc:
        load_model(path, TINY_VOCAB)
    assert "head.W" in str(exc.value)
    assert "embeddings" in str(exc.value) and "missing from checkpoint" in str(exc.value)


def test_zero_grads_after_backward():
    model = build_model(tiny_spec("W2V_LSTM"), rng_seed=7, dtype=np.float64)
    batch = tiny_batch(seed=15, n=2)
    emb = tiny_emb(seed=16)
    probs = model.forward(batch, emb)
    targets = one_hot(batch["y"], 2)
    model.backward(softmax_xent_grad(probs, targets))
    assert any(p.grad.any() for p in model.params())
    zero_grads(model.params())
    assert not any(p.grad.any() for p in model.params())

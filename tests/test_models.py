"""Preset construction, forward/predict behavior, and model checkpoints.

Parameter counts are recomputed from closed-form arithmetic, and every
preset's backward pass is spot-checked against finite differences (the
exhaustive multi-seed sweep lives in the acceptance tests).
"""

from __future__ import annotations

import numpy as np
import pytest

from sarv.corpus import EncodedSentence, as_records
from sarv.errors import ConfigError, DataError
from sarv.models import (
    CHAR_PRESETS,
    MLP_PRESETS,
    PRESETS,
    REFERENCE_F1,
    ModelSpec,
    _char_lengths,
    build_model,
    load_model,
    model_loss_fn,
    save_model,
    with_char_vocab,
)
from sarv.nn import grad_check, one_hot, save_checkpoint, zero_grads

from conftest import (
    TINY_EMBED_DIM,
    TINY_MAX_LEN,
    TINY_MAX_WORD_CHARS,
    relu_margin,
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


def test_with_char_vocab():
    spec = ModelSpec(preset="CHAR_W2V_LSTM")
    assert with_char_vocab(spec, 44).char_vocab_size == 44


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
    probs = model.forward(as_records([empty], TINY_MAX_WORD_CHARS), tiny_emb(seed=0))
    assert probs.shape == (1, 2) and np.all(np.isfinite(probs))


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
        records = tiny_records(seed=seed + 1000, n=2, classes=classes)
        emb = tiny_emb(seed=seed + 2000)
        if not needs_margin or relu_margin(model, records, emb, dropout_seed=seed) > 1e-3:
            break
        seed += 1
    mode = "train" if preset == "W2V_MLP_RELU_LRDECAY_DROPOUT" else "eval"
    targets = one_hot(np.array([r.label for r in records]), classes)
    fn, arrays = model_loss_fn(model, records, emb, targets, mode=mode, dropout_seed=seed)
    err = grad_check(fn, arrays, h=1e-5, sample_per_array=3, seed=seed, floor=1e-6)
    assert err <= 1e-5, f"{preset}: max relative error {err:.3e}"


# ---------------------------------------------------------------------------
# save / load
# ---------------------------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    spec = tiny_spec("CHAR_W2V_LSTM", classes=3)
    model = build_model(spec, rng_seed=6, dtype=np.float64)
    records = tiny_records(seed=13, n=3, classes=3)
    emb = tiny_emb(seed=14)
    want_labels, want_probs = model.predict(records, emb)

    path = tmp_path / "model.bin"
    save_model(model, path, extra_meta={"note": "roundtrip"})
    back, meta = load_model(path)
    assert meta["preset"] == "CHAR_W2V_LSTM"
    assert meta["precision"] == "double"
    assert meta["note"] == "roundtrip"
    assert back.spec == spec
    for pa, pb in zip(model.params(), back.params()):
        np.testing.assert_array_equal(pa.value, pb.value)
    got_labels, got_probs = back.predict(records, emb)
    np.testing.assert_array_equal(got_labels, want_labels)
    np.testing.assert_array_equal(got_probs, want_probs)


def test_save_load_preserves_single_precision(tmp_path):
    model = build_model(tiny_spec("W2V_SOFTMAX"), rng_seed=0, dtype=np.float32)
    path = tmp_path / "model.bin"
    save_model(model, path)
    back, meta = load_model(path)
    assert meta["precision"] == "single"
    assert back.params()[0].value.dtype == np.float32


def test_load_rejects_mismatched_architecture(tmp_path):
    donor = build_model(tiny_spec("W2V_LSTM"), rng_seed=0, dtype=np.float32)
    # metadata claims a softmax model, but the arrays are LSTM-shaped
    meta = tiny_spec("W2V_SOFTMAX").to_meta()
    meta["precision"] = "single"
    path = tmp_path / "model.bin"
    save_checkpoint(path, donor.params(), meta)
    with pytest.raises(DataError) as exc:
        load_model(path)
    assert "head.W" in str(exc.value)


def test_zero_grads_after_backward():
    model = build_model(tiny_spec("W2V_LSTM"), rng_seed=7, dtype=np.float64)
    batch = tiny_batch(seed=15, n=2)
    emb = tiny_emb(seed=16)
    probs = model.forward(batch, emb)
    from sarv.nn import softmax_xent_grad

    targets = one_hot(batch["y"], 2)
    model.backward(softmax_xent_grad(probs, targets))
    assert any(p.grad.any() for p in model.params())
    zero_grads(model.params())
    assert not any(p.grad.any() for p in model.params())

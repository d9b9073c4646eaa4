"""Optimizers, schedules, rebalancing, shard IO, and the training loop.

SGD is checked against the closed-form contraction on a quadratic bowl,
Adam against a textbook reference implementation written here, and the
shard reader against byte-for-byte reload plus a residency high-water
mark.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import shutil
import tempfile
import threading
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sarv.corpus import encode_sentence, record_dtype
from sarv.embed import build_char_vocab, build_token_vocab
from sarv.errors import ConfigError, DataError, NumericsError
from sarv.nn import Parameter
from sarv.train import (
    AdamState,
    PlateauScheduler,
    ShardInfo,
    ShardManifest,
    TrainConfig,
    adam_step,
    batches,
    load_shards,
    lr_exp_decay,
    sgd_step,
    split_indices,
    train_loop,
    undersample_indices,
    write_shards,
)

from sarv.textproc import MAX_LEN, TOKENIZE_CHUNK, tokenize, unify_length

from conftest import (TINY_MAX_LEN, TINY_MAX_WORD_CHARS, stack_sentences, tiny_batch, tiny_emb,
                      tiny_spec)


def reload(manifest) -> np.ndarray:
    return np.concatenate(list(load_shards(manifest)))


def replace_shard(manifest, index, array, allow_pickle=False):
    """Overwrite one shard file with ``array`` and record its new sha256."""
    info = manifest.shards[index]
    buf = io.BytesIO()
    np.save(buf, array, allow_pickle=allow_pickle)
    (manifest.base_dir / info.path).write_bytes(buf.getvalue())
    sha = hashlib.sha256(buf.getvalue()).hexdigest()
    manifest.shards[index] = ShardInfo(info.path, info.count, sha)


# ---------------------------------------------------------------------------
# config + split
# ---------------------------------------------------------------------------


def test_train_config_validation():
    TrainConfig()  # defaults are valid
    with pytest.raises(ConfigError):
        TrainConfig(optimizer="rmsprop")
    with pytest.raises(ConfigError):
        TrainConfig(lr_schedule="cosine")
    with pytest.raises(ConfigError):
        TrainConfig(precision="half")
    with pytest.raises(ConfigError):
        TrainConfig(exp_step_unit="minute")
    for lr in (0.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="base_lr"):
            TrainConfig(base_lr=lr)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(epochs=-1)
    with pytest.raises(ConfigError):
        TrainConfig(plateau_factor=1.0)
    for acc in (float("nan"), -0.1, 1.5, 5.0):
        with pytest.raises(ConfigError, match="stop_at_train_accuracy"):
            TrainConfig(stop_at_train_accuracy=acc)
    TrainConfig(stop_at_train_accuracy=0.0)
    TrainConfig(stop_at_train_accuracy=1.0)
    assert TrainConfig(precision="double").dtype == np.float64
    assert TrainConfig(precision="single").dtype == np.float32


def test_split_eight_two():
    train, test = split_indices(10, fraction=0.8, seed=0)
    assert len(train) == 8 and len(test) == 2
    assert sorted(np.concatenate([train, test]).tolist()) == list(range(10))


def test_split_uses_floor():
    train, test = split_indices(100003, fraction=0.8, seed=1)
    assert len(train) == 80002  # floor(0.8 * 100003)
    assert len(test) == 20001


def test_split_is_deterministic_and_seed_sensitive():
    a = np.concatenate(split_indices(50, seed=4))
    assert np.array_equal(a, np.concatenate(split_indices(50, seed=4)))
    assert not np.array_equal(a, np.concatenate(split_indices(50, seed=5)))


def test_split_validation():
    with pytest.raises(ConfigError):
        split_indices(2, fraction=1.0)
    with pytest.raises(ConfigError):
        split_indices(2, fraction=0.0)
    with pytest.raises(DataError):
        split_indices(0, fraction=0.8)


# ---------------------------------------------------------------------------
# shards
# ---------------------------------------------------------------------------


def test_write_shards_layout_and_reload(tmp_path):
    records = tiny_batch(seed=0, n=23)
    manifest = write_shards(records, shard_size=5, out_dir=tmp_path, name="train")
    assert [s.count for s in manifest.shards] == [5, 5, 5, 5, 3]
    assert [s.path for s in manifest.shards] == [
        f"train-{i:05d}.npy" for i in range(5)
    ]
    assert manifest.total == 23
    assert manifest.class_histogram == dict(Counter(records["y"].tolist()))
    assert (tmp_path / "train.manifest.json").exists()

    back = reload(ShardManifest.load(tmp_path / "train.manifest.json"))
    assert np.array_equal(back, records)  # order preserved, values identical
    assert back.dtype == record_dtype(TINY_MAX_LEN, TINY_MAX_WORD_CHARS)


def test_write_shards_holds_one_chunk_beyond_its_input(tmp_path):
    records = np.zeros(20_000, record_dtype(MAX_LEN, 20))
    records["y"] = np.arange(len(records)) % 3
    rows = np.random.default_rng(0).permutation(len(records))
    chunk_bytes = TOKENIZE_CHUNK * records.itemsize
    tracemalloc.start()
    try:
        manifest = write_shards(records, 7_000, tmp_path, rows=rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * chunk_bytes, (peak, chunk_bytes)
    assert np.array_equal(reload(manifest), records[rows])


def test_write_shards_picks_the_rows_indexing_picks(tmp_path):
    records = tiny_batch(seed=5, n=6)
    rows = np.array([5, -1, 0, -6, 2])  # negative rows count from the end, as in records[rows]
    manifest = write_shards(records, 2, tmp_path / "ok", rows=rows)
    assert reload(manifest).tobytes() == records[rows].tobytes()
    for bad in ([0, 6], [-7, 1]):
        with pytest.raises(IndexError):
            write_shards(records, 2, tmp_path / "bad", rows=np.array(bad))


def test_shard_hash_mismatch_is_fatal(tmp_path):
    write_shards(tiny_batch(seed=2, n=6), shard_size=3, out_dir=tmp_path)
    victim = tmp_path / "data-00001.npy"
    blob = bytearray(victim.read_bytes())
    blob[-1] ^= 0x01  # one bit of the last record's last char id
    victim.write_bytes(bytes(blob))
    manifest = ShardManifest.load(tmp_path / "data.manifest.json")
    with pytest.raises(DataError) as exc:
        list(load_shards(manifest))
    assert "hash mismatch" in str(exc.value)


def test_shard_missing_file_is_fatal(tmp_path):
    write_shards(tiny_batch(seed=3, n=4), shard_size=2, out_dir=tmp_path)
    (tmp_path / "data-00000.npy").unlink()
    manifest = ShardManifest.load(tmp_path / "data.manifest.json")
    with pytest.raises(DataError):
        list(load_shards(manifest))


def test_manifest_relocates_with_its_directory(tmp_path):
    records = tiny_batch(seed=4, n=6)
    src, dst = tmp_path / "a", tmp_path / "b"
    write_shards(records, shard_size=4, out_dir=src)
    shutil.move(str(src), str(dst))
    manifest = ShardManifest.load(dst / "data.manifest.json")
    assert np.array_equal(reload(manifest), records)


def test_manifest_validation_rejects_bad_counts():
    good = ShardInfo("x-00000.npy", 5, "0" * 64)
    with pytest.raises(DataError):
        ShardManifest(
            shards=[good], total=6, shard_size=5, class_histogram={}, max_word_chars=5
        ).validate()
    with pytest.raises(DataError):
        ShardManifest(
            shards=[ShardInfo("x-00000.npy", 3, "0" * 64), ShardInfo("x-00001.npy", 2, "0" * 64)],
            total=5,
            shard_size=5,  # non-final shard must be full
            class_histogram={},
            max_word_chars=5,
        ).validate()


def test_manifest_load_missing_is_data_error(tmp_path):
    with pytest.raises(DataError):
        ShardManifest.load(tmp_path / "absent.manifest.json")


def test_shard_reader_holds_one_shard_at_a_time(tmp_path):
    records = tiny_batch(seed=5, n=40)
    manifest = write_shards(records, shard_size=4, out_dir=tmp_path)
    assert len(manifest.shards) == 10
    reader = load_shards(manifest)
    seen = list(reader)
    assert [len(s) for s in seen] == [4] * 10  # one record array per shard
    assert np.array_equal(np.concatenate(seen), records)
    assert reader.max_resident == 1


def test_abandoned_shard_stream_closes_at_once(tmp_path):
    manifest = write_shards(tiny_batch(seed=6, n=12), shard_size=4, out_dir=tmp_path)
    assert len(manifest.shards) == 3
    threads_before = threading.active_count()
    t0 = time.perf_counter()
    it = iter(load_shards(manifest))
    next(it)
    it.close()
    assert time.perf_counter() - t0 < 1.0
    assert threading.active_count() == threads_before


def test_batches_chunking(tmp_path):
    stacked = tiny_batch(seed=7, n=23)
    manifest = write_shards(stacked, shard_size=5, out_dir=tmp_path)
    for size in (3, 12):  # batches straddle one shard boundary, or several
        got = list(batches(load_shards(manifest), size))
        want = [stacked[i:i + size] for i in range(0, len(stacked), size)]
        assert [len(b) for b in got] == [len(b) for b in want]
        for b, w in zip(got, want):
            assert np.array_equal(b, w)
    assert list(batches(iter([]), 3)) == []
    with pytest.raises(ConfigError):
        next(batches(load_shards(manifest), 0))


def test_shard_with_wrong_layout_is_fatal(tmp_path):
    # The hash matches the file, but the file is not what the manifest lists.
    stacked = tiny_batch(seed=8, n=6)
    wider = np.zeros(3, record_dtype(TINY_MAX_LEN, TINY_MAX_WORD_CHARS + 1))
    for index, array in ((0, wider), (1, stacked[3:5])):
        manifest = write_shards(stacked, shard_size=3, out_dir=tmp_path / str(index))
        replace_shard(manifest, index, array)
        with pytest.raises(DataError, match="does not hold the 3 records"):
            list(load_shards(manifest))


class _Tripwire:
    """Unpickling this object would call ``_trip``."""

    def __reduce__(self):
        return _trip, ()


TRIPPED = []


def _trip():
    TRIPPED.append(True)


def test_pickled_shard_is_refused_not_loaded(tmp_path):
    manifest = write_shards(tiny_batch(seed=9, n=4), shard_size=2, out_dir=tmp_path)
    replace_shard(manifest, 1, np.array([_Tripwire(), _Tripwire()], dtype=object),
                  allow_pickle=True)
    with pytest.raises(DataError, match="unreadable shard"):
        list(load_shards(manifest))
    assert TRIPPED == []


def test_shard_hash_mismatch_is_reported_before_a_parse_error(tmp_path):
    pickled = io.BytesIO()
    np.save(pickled, np.array([_Tripwire(), _Tripwire()], dtype=object), allow_pickle=True)
    for name, damage in (("short", lambda blob: blob[:-1]),  # the array data ends early
                         ("pickled", lambda blob: pickled.getvalue())):
        manifest = write_shards(tiny_batch(seed=10, n=2), shard_size=2, out_dir=tmp_path / name)
        path = manifest.base_dir / manifest.shards[0].path
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(DataError, match="hash mismatch"):
            list(load_shards(manifest))
    assert TRIPPED == []


def test_reading_a_shard_holds_its_array_once(tmp_path):
    records = np.zeros(20_000, record_dtype(MAX_LEN, 20))
    records["y"] = np.arange(len(records)) % 3
    manifest = write_shards(records, len(records), tmp_path)
    tracemalloc.start()
    try:
        (got,) = load_shards(manifest)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, records)
    assert peak <= 1.1 * records.nbytes, (peak, records.nbytes)


@given(
    st.lists(
        st.tuples(
            st.lists(st.text(alphabet=st.sampled_from(list("ابپتث")), min_size=1, max_size=7),
                     max_size=20),
            st.integers(min_value=0, max_value=2),
        ),
        min_size=1,
        max_size=12,
    ),
    st.integers(min_value=1, max_value=5),
)
@settings(max_examples=100, deadline=None)
def test_shard_round_trip_fuzz(sentences, shard_size):
    seqs = [tokenize("ا ب پ ت ث اب پت")]
    token_vocab, char_vocab = build_token_vocab(seqs), build_char_vocab(seqs, max_word_chars=5)
    encoded = [encode_sentence(unify_length(words), token_vocab, char_vocab, label)
               for words, label in sentences]
    with tempfile.TemporaryDirectory() as out:
        manifest = write_shards(stack_sentences(encoded, 5), shard_size, out)
        back = reload(ShardManifest.load(Path(out) / "data.manifest.json"))
    assert len(back) == len(encoded)
    for row, enc in zip(back, encoded):
        assert row["t"].tolist() == list(enc.token_ids)
        assert row["c"].tolist() == [list(c) for c in enc.char_ids]
        assert (row["len"], row["y"]) == (enc.true_length, enc.label)
    assert manifest.total == len(encoded)


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------


def test_sgd_matches_closed_form_contraction():
    w0, curvature, lr, steps = 3.0, 2.0, 0.05, 40
    p = Parameter("w", np.array([w0]))
    for _ in range(steps):
        p.grad[...] = curvature * p.value  # gradient of (c/2) w^2
        sgd_step([p], lr)
    expected = w0 * (1.0 - lr * curvature) ** steps
    assert p.value[0] == pytest.approx(expected, rel=1e-12)


def test_sgd_rejects_non_finite_gradient():
    p = Parameter("w_bad", np.array([1.0]))
    p.grad[...] = np.nan
    with pytest.raises(NumericsError) as exc:
        sgd_step([p], 0.1)
    assert "w_bad" in str(exc.value)


def reference_adam(w0, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Textbook Adam with bias correction, scalar-free numpy."""
    w = w0.copy()
    m = np.zeros_like(w)
    v = np.zeros_like(w)
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        w = w - lr * m_hat / (np.sqrt(v_hat) + eps)
    return w


def test_adam_matches_reference_implementation():
    rng = np.random.default_rng(42)
    w0 = rng.normal(size=(4, 3))
    grads = [rng.normal(size=(4, 3)) for _ in range(50)]
    p = Parameter("w", w0.copy())
    state = AdamState()
    for g in grads:
        p.grad[...] = g
        adam_step([p], lr=0.002, state=state)
    np.testing.assert_allclose(p.value, reference_adam(w0, grads, 0.002), rtol=1e-10, atol=1e-14)
    assert state.t == 50


def test_adam_first_step_size_is_about_lr():
    p = Parameter("w", np.array([5.0]))
    p.grad[...] = 0.73  # any O(1) gradient
    adam_step([p], lr=0.01, state=AdamState())
    assert abs(p.value[0] - 5.0) == pytest.approx(0.01, rel=1e-6)


def test_adam_rejects_non_finite_gradient():
    p = Parameter("w_nan", np.array([1.0]))
    p.grad[...] = np.inf
    with pytest.raises(NumericsError) as exc:
        adam_step([p], 0.01, AdamState())
    assert "w_nan" in str(exc.value)


def test_adam_state_is_per_parameter():
    a, b = Parameter("a", np.ones(1)), Parameter("b", np.ones(1))
    state = AdamState()
    a.grad[...] = 1.0
    b.grad[...] = -1.0
    adam_step([a, b], 0.1, state)
    assert set(state.m) == {"a", "b"}
    assert a.value[0] < 1.0 < b.value[0]


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------


def test_exp_decay_hand_values():
    assert lr_exp_decay(0) == 0.0031  # exact float identity
    assert lr_exp_decay(2000) == pytest.approx(0.0001 + 0.003 * math.exp(-1.0), abs=1e-12)
    assert lr_exp_decay(4000) == pytest.approx(0.0001 + 0.003 * math.exp(-2.0), abs=1e-12)


def test_exp_decay_monotone_toward_floor():
    values = np.array([lr_exp_decay(s) for s in range(0, 100_001, 100)])
    assert np.all(np.diff(values) <= 0)
    assert np.all(values >= 0.0001)
    assert values[0] == 0.0031
    # strictly decreasing while the decay term is still representable
    # (beyond ~81k steps it underflows below one ulp of the floor)
    early = values[: 20_000 // 100]
    assert np.all(np.diff(early) < 0)
    assert abs(lr_exp_decay(100_000) - 0.0001) <= 1e-9


def test_exp_decay_rejects_negative_step():
    with pytest.raises(ValueError):
        lr_exp_decay(-1)


def test_plateau_decays_after_patience_and_compounds():
    sched = PlateauScheduler(base_lr=0.01, factor=0.9, patience=3)
    assert sched.update(0.5) == 0.01  # first epoch sets the best
    assert sched.update(0.5) == 0.01  # stale 1
    assert sched.update(0.5) == 0.01  # stale 2
    assert sched.update(0.5) == 0.01 * 0.9  # stale 3 -> decay
    sched.update(0.5)
    sched.update(0.5)
    assert sched.update(0.5) == 0.01 * 0.9 * 0.9  # compounds


def test_plateau_resets_on_improvement():
    sched = PlateauScheduler(base_lr=0.01, factor=0.9, patience=2)
    sched.update(0.5)
    sched.update(0.5)  # stale 1
    assert sched.update(0.6) == 0.01  # improvement resets staleness
    sched.update(0.6)  # stale 1
    assert sched.update(0.6) == 0.01 * 0.9  # stale 2 -> decay


def test_plateau_validation():
    with pytest.raises(ConfigError):
        PlateauScheduler(0.01, factor=0.0)
    with pytest.raises(ConfigError):
        PlateauScheduler(0.01, patience=0)


# ---------------------------------------------------------------------------
# random undersampling
# ---------------------------------------------------------------------------


def imbalanced(counts):
    return np.repeat(list(counts), list(counts.values()))


def test_undersample_equalizes_to_minority():
    labels = imbalanced({0: 546, 1: 107, 2: 92})
    kept = undersample_indices(labels, seed=0, num_classes=3)
    assert Counter(labels[kept].tolist()) == {0: 92, 1: 92, 2: 92}
    assert kept.min() >= 0 and kept.max() < len(labels)
    assert len(set(kept.tolist())) == len(kept)  # sampled without replacement


def test_undersample_is_deterministic_and_seed_sensitive():
    labels = imbalanced({0: 30, 1: 11})
    kept = undersample_indices(labels, seed=5)
    assert np.array_equal(kept, undersample_indices(labels, seed=5))
    assert not np.array_equal(kept, undersample_indices(labels, seed=6))


def test_undersample_no_op_when_balanced():
    labels = imbalanced({0: 10, 1: 10})
    kept = undersample_indices(labels, seed=1, num_classes=2)
    assert sorted(kept.tolist()) == list(range(20))


def test_undersample_missing_class_is_fatal():
    labels = imbalanced({0: 5, 2: 5})
    with pytest.raises(DataError) as exc:
        undersample_indices(labels, seed=0, num_classes=3)
    assert "1" in str(exc.value)
    with pytest.raises(DataError):
        undersample_indices([], seed=0)


# ---------------------------------------------------------------------------
# train loop
# ---------------------------------------------------------------------------


def loop_fixtures(tmp_path, n=12, seed=0):
    records = tiny_batch(seed=seed, n=n)
    manifest = write_shards(records, shard_size=5, out_dir=tmp_path / "shards", name="train")
    return manifest, tiny_emb(seed=seed + 100, dtype=np.float64)


def test_train_loop_zero_epochs_still_writes_final(tmp_path):
    manifest, emb = loop_fixtures(tmp_path)
    cfg = TrainConfig(epochs=0, batch_size=4, precision="double")
    report, model = train_loop(tiny_spec("W2V_SOFTMAX"), cfg, manifest, emb, tmp_path / "run")
    assert report.epochs == []
    assert report.best_epoch is None
    assert report.best_checkpoint_hash == report.final_checkpoint_hash != ""
    assert (tmp_path / "run" / "checkpoint_final.bin").exists()
    assert (tmp_path / "run" / "report.jsonl").read_text(encoding="utf-8") == ""


def test_train_loop_is_deterministic(tmp_path):
    spec = tiny_spec("W2V_LSTM")
    cfg = TrainConfig(optimizer="adam", base_lr=0.01, epochs=2, batch_size=4, seed=7)
    manifest, emb = loop_fixtures(tmp_path)
    r1, _ = train_loop(spec, cfg, manifest, emb, tmp_path / "run1")
    r2, _ = train_loop(spec, cfg, manifest, emb, tmp_path / "run2")
    assert (tmp_path / "run1" / "report.jsonl").read_bytes() == (
        tmp_path / "run2" / "report.jsonl"
    ).read_bytes()
    assert (tmp_path / "run1" / "checkpoint_final.bin").read_bytes() == (
        tmp_path / "run2" / "checkpoint_final.bin"
    ).read_bytes()
    assert r1.final_checkpoint_hash == r2.final_checkpoint_hash


def test_train_loop_seed_changes_outcome(tmp_path):
    spec = tiny_spec("W2V_SOFTMAX")
    manifest, emb = loop_fixtures(tmp_path)
    r1, _ = train_loop(spec, TrainConfig(epochs=1, seed=1, batch_size=4), manifest, emb, tmp_path / "a")
    r2, _ = train_loop(spec, TrainConfig(epochs=1, seed=2, batch_size=4), manifest, emb, tmp_path / "b")
    assert r1.final_checkpoint_hash != r2.final_checkpoint_hash


def test_train_loop_reports_trainable_progress(tmp_path):
    manifest, emb = loop_fixtures(tmp_path, n=16)
    cfg = TrainConfig(optimizer="adam", base_lr=0.02, epochs=3, batch_size=4, precision="double")
    report, model = train_loop(tiny_spec("W2V_SOFTMAX"), cfg, manifest, emb, tmp_path / "run")
    assert len(report.epochs) == 3
    assert [e.epoch for e in report.epochs] == [0, 1, 2]
    assert report.epochs[-1].train_loss < report.epochs[0].train_loss
    assert report.best_epoch is not None
    assert report.wall_time_s > 0
    # persisted artifacts never contain the wall time
    assert "wall" not in report.to_text()
    assert "wall" not in report.to_jsonl()


def test_train_loop_final_train_accuracy_is_reproducible(tmp_path):
    from sarv.metrics import metrics as _metrics
    from sarv.train import _eval_confusion

    manifest, emb = loop_fixtures(tmp_path, n=10)
    cfg = TrainConfig(epochs=2, batch_size=4, precision="double")
    report, model = train_loop(tiny_spec("W2V_SOFTMAX"), cfg, manifest, emb, tmp_path / "run")
    acc = _metrics(_eval_confusion(model, manifest, emb, cfg.batch_size)).accuracy
    assert acc == pytest.approx(report.epochs[-1].train_accuracy, abs=1e-12)


def test_train_loop_early_stop_on_train_accuracy(tmp_path):
    manifest, emb = loop_fixtures(tmp_path)
    cfg = TrainConfig(epochs=50, batch_size=4, stop_at_train_accuracy=0.0)
    report, _ = train_loop(tiny_spec("W2V_SOFTMAX"), cfg, manifest, emb, tmp_path / "run")
    assert len(report.epochs) == 1  # threshold 0 satisfied after the first epoch


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_train_loop_numerics_error_names_epoch_and_batch(tmp_path):
    manifest, _ = loop_fixtures(tmp_path)
    bad_emb = tiny_emb(seed=9, dtype=np.float64)
    bad_emb[1, 0] = np.inf
    cfg = TrainConfig(epochs=1, batch_size=4)
    with pytest.raises(NumericsError) as exc:
        train_loop(tiny_spec("W2V_SOFTMAX"), cfg, manifest, bad_emb, tmp_path / "run")
    assert "epoch 0 batch" in str(exc.value)


def test_train_loop_separate_eval_manifest(tmp_path):
    train_records = tiny_batch(seed=20, n=10)
    eval_records = tiny_batch(seed=21, n=6)
    train_m = write_shards(train_records, 5, tmp_path / "tr", name="train")
    eval_m = write_shards(eval_records, 5, tmp_path / "ev", name="test")
    emb = tiny_emb(seed=22, dtype=np.float64)
    cfg = TrainConfig(epochs=2, batch_size=4, precision="double")
    report, model = train_loop(
        tiny_spec("W2V_SOFTMAX"), cfg, train_m, emb, tmp_path / "run", eval_manifest=eval_m
    )
    best = max(report.epochs, key=lambda e: e.eval_accuracy)
    assert report.best_epoch == best.epoch
    assert (tmp_path / "run" / "checkpoint_best.bin").exists()


@pytest.mark.parametrize("with_eval, passes_per_epoch", [(False, 2), (True, 3)])
def test_train_loop_shard_passes_per_epoch(tmp_path, monkeypatch, with_eval, passes_per_epoch):
    passes = []

    def counting_load_shards(manifest):
        passes.append(manifest)
        return load_shards(manifest)

    monkeypatch.setattr("sarv.train.load_shards", counting_load_shards)
    train_m, emb = loop_fixtures(tmp_path, n=10)
    eval_m = (write_shards(tiny_batch(seed=30, n=6), 5, tmp_path / "ev", name="test")
              if with_eval else None)
    cfg = TrainConfig(epochs=2, batch_size=4, precision="double")
    train_loop(tiny_spec("W2V_SOFTMAX"), cfg, train_m, emb, tmp_path / "run", eval_manifest=eval_m)
    assert len(passes) == 2 * passes_per_epoch
    report = (tmp_path / "run" / "report.jsonl").read_text("utf-8")
    rows = [json.loads(ln) for ln in report.splitlines()]
    assert len(rows) == 2
    if not with_eval:
        assert all(row["eval_accuracy"] == row["train_accuracy"] for row in rows)

"""Acceptance gate: eleven end-to-end criteria, one test (and one printed
pass line) each.  Every tolerance is stated inline next to its assertion.

Run with ``pytest -s tests/test_acceptance.py`` to see the pass lines.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from sarv.cli import main
from sarv.corpus import RawRecord
from sarv.metrics import confusion, metrics
from sarv.models import (
    PRESETS,
    ModelSpec,
    build_model,
    model_loss_fn,
)
from sarv.nn import (
    Dense,
    Dropout,
    Lstm,
    Relu,
    Sigmoid,
    cross_entropy,
    grad_check,
    one_hot,
    softmax,
    softmax_xent_grad,
    zero_grads,
)
from sarv.textproc import MAX_LEN, NormConfig, normalize, tokenize, unify_length
from sarv.train import (
    ShardReader,
    TrainConfig,
    lr_exp_decay,
    split_indices,
    train_loop,
    undersample_indices,
    write_shards,
)

from conftest import (
    REVIEWS_TSV,
    bundled_embedding_path,
    SPELLED_SUFFIX,
    emb_matrix_for,
    encode_rows,
    order_rows,
    relu_margin,
    separable_rows,
    spelling_rows,
    tiny_batch,
    tiny_emb,
    tiny_spec,
    write_corpus_tsv,
)

SEEDS_PER_CASE = 100  # random seeds swept per op and per preset in criterion 1


def _passed(n: int, detail: str) -> None:
    print(f"PASS criterion {n}: {detail}")


# ---------------------------------------------------------------------------
# criterion 1 — gradient verification
# ---------------------------------------------------------------------------


def _op_cases(seed: int):
    """One grad_check case per differentiable op, freshly drawn per seed."""
    rng = np.random.default_rng(seed)

    def weighted(layer_forward, layer_backward, param_lists, arrays, weight):
        def fn(arrs, want_grad):
            out = layer_forward()
            loss = float(np.sum(out * weight))
            if not want_grad:
                return loss, None
            zero_grads(param_lists)
            dx = layer_backward(weight)
            grads = [p.grad.copy() for p in param_lists]
            if dx is not None:
                grads.append(dx)
            return loss, grads
        return fn, arrays

    cases = {}

    dense = Dense(4, 3, rng, dtype=np.float64)
    x_d = rng.normal(size=(2, 4))
    c_d = rng.normal(size=(2, 3))
    cases["dense"] = weighted(
        lambda: dense.forward(x_d), dense.backward, dense.params(),
        [dense.W.value, dense.b.value, x_d], c_d,
    )

    sig = Sigmoid()
    x_s = rng.normal(size=(2, 6))
    c_s = rng.normal(size=(2, 6))
    cases["sigmoid"] = weighted(lambda: sig.forward(x_s), sig.backward, [], [x_s], c_s)

    relu = Relu()
    # keep inputs off the kink so central differences stay two-sided
    x_r = rng.uniform(0.05, 1.0, size=(2, 6)) * rng.choice([-1.0, 1.0], size=(2, 6))
    c_r = rng.normal(size=(2, 6))
    cases["relu"] = weighted(lambda: relu.forward(x_r), relu.backward, [], [x_r], c_r)

    logits = rng.normal(size=(2, 5))
    targets = one_hot(rng.integers(0, 5, size=2), 5)

    def fused(arrs, want_grad):
        probs = softmax(logits)
        loss = cross_entropy(probs, targets)
        if not want_grad:
            return loss, None
        return loss, [softmax_xent_grad(probs, targets)]

    cases["softmax_xent"] = (fused, [logits])

    drop = Dropout(0.25)
    x_p = rng.normal(size=(2, 8))
    c_p = rng.normal(size=(2, 8))

    def drop_fn(arrs, want_grad):
        out = drop.forward(x_p, mode="train", rng=np.random.default_rng(seed))
        loss = float(np.sum(out * c_p))
        if not want_grad:
            return loss, None
        return loss, [drop.backward(c_p)]

    cases["dropout"] = (drop_fn, [x_p])

    lstm = Lstm(4, 5, rng, dtype=np.float64)
    lengths = np.array([3, 2])
    seq = rng.normal(size=(2, 3, 4))[np.arange(3) < lengths[:, None]]  # (5, 4), row-major
    c_l = rng.normal(size=(2, 5))

    def lstm_fn(arrs, want_grad):
        out = lstm.forward(seq, lengths)
        loss = float(np.sum(out * c_l))
        if not want_grad:
            return loss, None
        zero_grads(lstm.params())
        dseq = lstm.backward(c_l)
        return loss, [p.grad.copy() for p in lstm.params()] + [dseq]

    cases["lstm"] = (lstm_fn, [p.value for p in lstm.params()] + [seq])
    return cases


def _preset_case(preset: str, seed: int):
    classes = 3 if PRESETS[preset].char_channel else 2
    needs_margin = "RELU" in preset
    model = build_model(tiny_spec(preset, classes), rng_seed=seed, dtype=np.float64)
    records = tiny_batch(seed=seed + 1000, n=2, classes=classes)
    emb = tiny_emb(seed=seed + 2000)
    if needs_margin and relu_margin(model, records, emb, dropout_seed=seed) <= 1e-3:
        return None  # draw near a relu kink: screened, caller picks a new seed
    mode = "train" if preset == "W2V_MLP_RELU_LRDECAY_DROPOUT" else "eval"
    targets = one_hot(records["y"], classes)
    fn, arrays = model_loss_fn(model, records, emb, targets, mode=mode, dropout_seed=seed)
    return fn, arrays


def test_criterion_01_gradient_verification():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(SEEDS_PER_CASE):
        for op, (fn, arrays) in _op_cases(seed).items():
            err = grad_check(fn, arrays, h=1e-5, seed=seed, floor=1e-6)
            assert err <= 1e-5, f"op {op} seed {seed}: max relative error {err:.3e}"
            worst = max(worst, err)
    for preset in PRESETS:
        done, seed = 0, 0
        while done < SEEDS_PER_CASE:
            case = _preset_case(preset, seed)
            seed += 1
            if case is None:
                continue
            fn, arrays = case
            # floor 1e-5: coordinates with near-zero gradients are held to an
            # absolute tolerance of 1e-10, above central-difference roundoff
            err = grad_check(fn, arrays, h=1e-5, sample_per_array=3, seed=seed, floor=1e-5)
            assert err <= 1e-5, f"preset {preset} seed {seed}: max relative error {err:.3e}"
            worst = max(worst, err)
            done += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"gradient sweep took {elapsed:.1f}s (budget 60s)"
    _passed(
        1,
        f"6 ops and 7 presets x {SEEDS_PER_CASE} seeds, worst relative error "
        f"{worst:.2e} <= 1e-5, in {elapsed:.1f}s < 60s",
    )


# ---------------------------------------------------------------------------
# criterion 2 — exponential learning-rate schedule
# ---------------------------------------------------------------------------


def test_criterion_02_exponential_schedule():
    assert lr_exp_decay(0) == 0.0031  # exact: 0.0001 + 0.003 is representable
    expected_2000 = 0.0001 + 0.003 * math.exp(-1.0)
    assert abs(lr_exp_decay(2000) - expected_2000) <= 1e-12
    values = np.array([lr_exp_decay(s) for s in range(0, 100_001)])
    diffs = np.diff(values)
    assert np.all(diffs <= 0.0), "schedule must never increase"
    assert np.all(diffs[:20_000] < 0.0), "schedule must strictly decrease early on"
    assert np.all(values >= 0.0001)
    assert abs(values[-1] - 0.0001) <= 1e-9
    _passed(
        2,
        "lr(0)=0.0031 exact, lr(2000) within 1e-12 of closed form, "
        "monotone over 0..1e5, floor 1e-4 within 1e-9",
    )


# ---------------------------------------------------------------------------
# criterion 3 — softmax / cross-entropy identities
# ---------------------------------------------------------------------------


def test_criterion_03_softmax_cross_entropy_identities():
    rng = np.random.default_rng(30)
    for _ in range(50):
        batch, classes = int(rng.integers(1, 33)), int(rng.integers(2, 9))
        logits = rng.normal(scale=5.0, size=(batch, classes))
        probs = softmax(logits)
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) <= 1e-12
        targets = one_hot(rng.integers(0, classes, size=batch), classes)
        assert np.max(np.abs(softmax_xent_grad(probs, targets) - (probs - targets) / batch)) <= 1e-12
    exact = one_hot(np.array([0, 2, 1]), 3)
    assert abs(cross_entropy(exact, exact)) <= 1e-10
    _passed(
        3,
        "row sums within 1e-12, fused gradient equals (p - y)/B within 1e-12, "
        "exact one-hot CE <= 1e-10",
    )


# ---------------------------------------------------------------------------
# criterion 4 — every preset overfits a small separable corpus
# ---------------------------------------------------------------------------


def test_criterion_04_presets_overfit_separable_corpus(tmp_path):
    budgets = []
    for preset in PRESETS:
        for classes in (2, 3):
            rows = separable_rows(64, classes=classes, seed=42)
            encoded, token_vocab, char_vocab = encode_rows(rows, classes)
            emb = emb_matrix_for(token_vocab)
            out = tmp_path / f"{preset}-{classes}"
            manifest = write_shards(encoded, 64, out, name="train")
            spec = ModelSpec(
                preset=preset, num_classes=classes,
                char_vocab_size=len(char_vocab) if PRESETS[preset].char_channel else 0,
            )
            cfg = TrainConfig(
                optimizer="adam", lr=0.01, batch_size=64, epochs=200,
                seed=0, stop_at_train_accuracy=1.0,
            )
            t0 = time.perf_counter()
            report, _ = train_loop(spec, cfg, manifest, emb, out / "run")
            elapsed = time.perf_counter() - t0
            last = report.epochs[-1]
            assert last.train_accuracy == 1.0, (
                f"{preset} ({classes} classes): accuracy {last.train_accuracy} "
                f"after {len(report.epochs)} epochs"
            )
            assert len(report.epochs) <= 200
            assert elapsed < 120.0, f"{preset}: {elapsed:.1f}s (budget 120s per preset)"
            losses = [row.train_loss for row in report.epochs]
            windows = [np.mean(losses[i:i + 10]) for i in range(0, len(losses) - 9, 10)]
            assert all(b <= a for a, b in zip(windows, windows[1:])), (
                f"{preset}: 10-epoch mean loss increased"
            )
            budgets.append((preset, classes, len(report.epochs), elapsed))
    slowest = max(b[3] for b in budgets)
    most_epochs = max(b[2] for b in budgets)
    _passed(
        4,
        f"7 presets x 2 label schemes reach 100% train accuracy, worst "
        f"{most_epochs} epochs <= 200 and {slowest:.2f}s < 120s per preset",
    )


# ---------------------------------------------------------------------------
# criterion 5 — sequence model beats bag-of-tokens on an ordering corpus
# ---------------------------------------------------------------------------


def test_criterion_05_lstm_beats_softmax_on_token_order(tmp_path):
    # every record holds the same marker multiset; only the token right
    # after the cue decides the label, so averaging models cannot separate
    rows = order_rows(2000, seed=11)
    encoded, token_vocab, _ = encode_rows(rows, classes=2)
    emb = emb_matrix_for(token_vocab)
    train, test = (encoded[rows] for rows in split_indices(len(encoded), 0.8, seed=0))
    scores = {}
    for preset in ("W2V_SOFTMAX", "W2V_LSTM"):
        out = tmp_path / preset
        manifest = write_shards(train, 2000, out, name="train")
        cfg = TrainConfig(optimizer="adam", lr=0.003, batch_size=256, epochs=40, seed=3)
        _, model = train_loop(ModelSpec(preset=preset, num_classes=2), cfg, manifest, emb, out / "run")
        labels, _ = model.predict(test, emb.astype(np.float32))
        cm = confusion(labels, test["y"], num_classes=2)
        scores[preset] = metrics(cm).macro_f1
    gap = scores["W2V_LSTM"] - scores["W2V_SOFTMAX"]
    assert gap >= 0.10, f"macro F1 gap {gap:.4f} < 0.10 ({scores})"
    _passed(
        5,
        f"test macro F1 {scores['W2V_LSTM']:.4f} (LSTM) vs "
        f"{scores['W2V_SOFTMAX']:.4f} (softmax): gap {gap:.4f} >= 0.10",
    )


@pytest.mark.parametrize("classes", [2, 3])
def test_char_channel_reads_labels_spelled_only_in_words_without_vectors(classes, tmp_path):
    # The label is the suffix of a marker word that has no word vector, so
    # the word channel sees only label-free fillers.  Over row seeds 1-10
    # (training seeds 0-4) the char preset scored 1.0 every time and the
    # word-only preset 0.45-0.52 (2 classes) and 0.32-0.35 (3 classes).
    rows = spelling_rows(2000, classes, seed=11)
    encoded, token_vocab, char_vocab = encode_rows(rows, classes)
    emb = emb_matrix_for(token_vocab)
    markers = [token_vocab.ids[t] for t in token_vocab.tokens
               if t.endswith(tuple(SPELLED_SUFFIX.values()))]
    assert markers and not emb[markers].any()  # every marker is the zero vector
    train, test = (encoded[idx] for idx in split_indices(len(encoded), 0.8, seed=0))
    scores = {}
    for preset in ("W2V_LSTM", "CHAR_W2V_LSTM"):
        out = tmp_path / preset
        manifest = write_shards(train, 2000, out, name="train")
        spec = ModelSpec(preset=preset, num_classes=classes,
                         char_vocab_size=len(char_vocab) if PRESETS[preset].char_channel else 0)
        cfg = TrainConfig(optimizer="adam", lr=0.003, batch_size=256, epochs=15, seed=3)
        _, model = train_loop(spec, cfg, manifest, emb, out / "run")
        labels, _ = model.predict(test, emb.astype(np.float32))
        scores[preset] = metrics(confusion(labels, test["y"], num_classes=classes)).macro_f1
    assert scores["CHAR_W2V_LSTM"] >= 0.95, scores
    assert scores["W2V_LSTM"] <= 1 / classes + 0.15, scores


# ---------------------------------------------------------------------------
# criterion 6 — dropout statistics
# ---------------------------------------------------------------------------


def test_criterion_06_dropout_statistics():
    rng = np.random.default_rng(60)
    x = rng.uniform(1.0, 2.0, size=1_000_000)
    layer = Dropout(0.25)
    out = layer.forward(x, mode="train", rng=np.random.default_rng(61))
    dropped = float(np.mean(out == 0.0))
    assert abs(dropped - 0.25) <= 0.005
    mean_err = abs(float(out.mean()) - float(x.mean())) / float(x.mean())
    assert mean_err <= 0.01
    evaled = layer.forward(x, mode="eval")
    assert evaled is x or np.array_equal(evaled, x)
    _passed(
        6,
        f"drop fraction {dropped:.4f} within 0.25 +/- 0.005, train mean off by "
        f"{mean_err:.4%} <= 1%, eval output bit-identical",
    )


# ---------------------------------------------------------------------------
# criterion 7 — random undersampling
# ---------------------------------------------------------------------------


def test_criterion_07_random_undersampling():
    counts = {0: 546, 1: 107, 2: 92}
    labels = np.repeat(list(counts), list(counts.values()))
    kept = undersample_indices(labels, seed=7)
    histogram = dict(zip(*np.unique(labels[kept], return_counts=True)))
    assert histogram == {0: 92, 1: 92, 2: 92}
    assert np.all((kept >= 0) & (kept < len(labels))), "output record not drawn from input"
    assert len(np.unique(kept)) == len(kept), "record sampled twice"
    _passed(7, "counts {546, 107, 92} -> exactly {92, 92, 92}, all records drawn "
               "from the input without replacement")


# ---------------------------------------------------------------------------
# criterion 8 — shard round trip under a bounded-memory loader
# ---------------------------------------------------------------------------


def test_criterion_08_shard_round_trip(tmp_path):
    records = tiny_batch(seed=80, n=10_000, classes=3)
    first = write_shards(records, 1_000, tmp_path / "a", name="data")
    assert len(first.shards) == 10
    reader = ShardReader(first)
    reloaded = np.concatenate(list(reader))
    assert np.array_equal(reloaded, records), "reload is not record-identical"
    assert reader.max_resident <= 2, f"loader held {reader.max_resident} shards"
    second = write_shards(reloaded, 1_000, tmp_path / "b", name="data")
    assert [s.sha256 for s in first.shards] == [s.sha256 for s in second.shards]
    _passed(
        8,
        "10,000 records -> 10 shards, reload bit-identical (sha256 equality), "
        f"max {reader.max_resident} <= 2 shards resident",
    )


# ---------------------------------------------------------------------------
# criterion 9 — metrics against a brute-force oracle
# ---------------------------------------------------------------------------


def _oracle_accuracy_macro_f1(preds, truth, num_classes):
    correct = sum(1 for p, t in zip(preds, truth) if p == t)
    f1s = []
    for c in range(num_classes):
        tp = sum(1 for p, t in zip(preds, truth) if p == c and t == c)
        fp = sum(1 for p, t in zip(preds, truth) if p == c and t != c)
        fn = sum(1 for p, t in zip(preds, truth) if p != c and t == c)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1s.append(2 * precision * recall / (precision + recall) if precision + recall else 0.0)
    return correct / len(preds), sum(f1s) / num_classes


def test_criterion_09_metrics_match_brute_force():
    rng = np.random.default_rng(90)
    for _ in range(1000):
        classes = int(rng.integers(2, 6))
        n = int(rng.integers(1, 60))
        truth = rng.integers(0, classes, size=n)
        preds = rng.integers(0, classes, size=n)
        report = metrics(confusion(preds, truth, num_classes=classes))
        acc, macro = _oracle_accuracy_macro_f1(preds.tolist(), truth.tolist(), classes)
        assert abs(report.accuracy - acc) <= 1e-12
        assert abs(report.macro_f1 - macro) <= 1e-12
    # worked example: confusion matrix [[8, 2], [3, 7]]
    truth = [0] * 10 + [1] * 10
    preds = [0] * 8 + [1] * 2 + [0] * 3 + [1] * 7
    report = metrics(confusion(preds, truth, num_classes=2))
    assert abs(report.accuracy - 0.75) <= 1e-12
    assert abs(report.macro_f1 - 0.7494) <= 1e-4
    _passed(
        9,
        "1000 randomized trials match the brute-force oracle within 1e-12; "
        "[[8,2],[3,7]] gives accuracy 0.75 and macro F1 0.7494 within 1e-4",
    )


# ---------------------------------------------------------------------------
# criterion 10 — training is byte-level deterministic
# ---------------------------------------------------------------------------


def test_criterion_10_training_determinism(tmp_path):
    rows = separable_rows(40, classes=2, seed=100)
    corpus = write_corpus_tsv(tmp_path / "corpus.tsv", rows)
    shards = tmp_path / "shards"
    assert main(["shard", "--corpus", str(corpus), "--out-dir", str(shards),
                 "--seed", "4"]) == 0
    outputs = []
    for name in ("first", "second"):
        run = tmp_path / name
        assert main([
            "train", "--shard-dir", str(shards), "--out-dir", str(run),
            "--embeddings", str(bundled_embedding_path()),
            "--preset", "W2V_MLP_RELU_LRDECAY_DROPOUT",
            "--epochs", "3", "--batch-size", "16", "--seed", "7",
        ]) == 0
        outputs.append({
            rel: (run / rel).read_bytes()
            for rel in ("report.jsonl", "report.txt",
                        "checkpoint_final.bin", "checkpoint_best.bin")
        })
    for rel in outputs[0]:
        assert outputs[0][rel] == outputs[1][rel], f"{rel} differs between runs"
    _passed(10, "two identically seeded train runs (seeded dropout masks) produced "
                "byte-identical reports and checkpoints")


@pytest.mark.parametrize("preset", ["W2V_LSTM", "CHAR_W2V_LSTM"])
def test_recurrent_presets_train_byte_deterministically(preset, tmp_path):
    # Criterion 10's check on the presets that run the packed LSTMs.
    rows = separable_rows(40, classes=2, seed=101)
    corpus = write_corpus_tsv(tmp_path / "corpus.tsv", rows)
    shards = tmp_path / "shards"
    assert main(["shard", "--corpus", str(corpus), "--out-dir", str(shards),
                 "--seed", "5"]) == 0
    outputs = []
    for name in ("first", "second"):
        run = tmp_path / name
        assert main([
            "train", "--shard-dir", str(shards), "--out-dir", str(run),
            "--embeddings", str(bundled_embedding_path()), "--preset", preset,
            "--epochs", "3", "--batch-size", "16", "--seed", "9",
        ]) == 0
        outputs.append({
            rel: (run / rel).read_bytes()
            for rel in ("report.jsonl", "report.txt",
                        "checkpoint_final.bin", "checkpoint_best.bin")
        })
    for rel in outputs[0]:
        assert outputs[0][rel] == outputs[1][rel], f"{rel} differs between runs"


# ---------------------------------------------------------------------------
# criterion 11 — preprocessing parity on the bundled review fixtures
# ---------------------------------------------------------------------------


def test_criterion_11_preprocessing_parity():
    # hand-counted token counts for the six bundled review comments,
    # in file order (counted independently on the raw text) [DERIVED]
    hand_counts = {
        "IT": 7,
        "Home Appliance": 17,
        "Mobile": 13,
        "Trimming Machine": 52,
        "Player": 50,
        "Audio": 12,
    }
    lines = Path(REVIEWS_TSV).read_text("utf-8").splitlines()
    header = lines[0].split("\t")
    text_col, cat_col = header.index("text"), header.index("category")
    cfg = NormConfig(stopwords=frozenset())
    seen = []
    for line in lines[1:]:
        fields = line.split("\t")
        tokens = tokenize(normalize(fields[text_col], cfg))
        fixed = unify_length(tokens, MAX_LEN)
        assert len(fixed.tokens) == MAX_LEN, "output must always hold 15 slots"
        expected = hand_counts[fields[cat_col]]
        assert fixed.true_length == min(expected, MAX_LEN), (
            f"{fields[cat_col]}: true_length {fixed.true_length}, "
            f"hand count {expected}"
        )
        seen.append(fields[cat_col])
    assert sorted(seen) == sorted(hand_counts)
    _passed(11, "all six bundled comments unify to exactly 15 slots with "
                "true_length matching independent hand counts")

"""End-to-end command-line behavior: flags, config files, exit codes."""

from __future__ import annotations

import configparser
import csv
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import sarv.cli
import sarv.models
import sarv.textproc
from sarv.cli import (
    RunConfig,
    build_parser,
    config_from_ini,
    config_to_ini,
    main,
    resolve_config,
)
from sarv.corpus import Encoder, RawRecord, encode_sentence, read_corpus
from sarv.embed import parse_char_vocab, parse_token_vocab
from sarv.errors import ConfigError, DataError
from sarv.models import PRECISIONS, PRESETS, Model, load_model, save_model
from sarv.nn import Parameter, load_checkpoint, save_checkpoint
from sarv.textproc import MAX_LEN, NormConfig, normalize, tokenize, unify_length
from sarv.train import ShardManifest

from conftest import (
    FILLERS,
    REVIEWS_TSV,
    bundled_embedding_path,
    byte_stdin,
    emb_matrix_for,
    separable_rows,
    stack_sentences,
    write_corpus_tsv,
)


def invoke(capsys, *argv):
    code = main([str(a) for a in argv])
    cap = capsys.readouterr()
    return code, cap.out, cap.err



@pytest.fixture()
def empty_stopwords(tmp_path):
    p = tmp_path / "no_stopwords.txt"
    p.write_text("", encoding="utf-8")
    return p


# ---------------------------------------------------------------------------
# preprocess
# ---------------------------------------------------------------------------


def test_preprocess_review_fixture(tmp_path, capsys, empty_stopwords):
    out = tmp_path / "out"
    code, stdout, _ = invoke(
        capsys, "preprocess", "--corpus", REVIEWS_TSV, "--out-dir", out,
        "--stopwords", empty_stopwords,
    )
    assert code == 0
    assert "records 6" in stdout
    # hand counts: lengths 7, 17, 13, 52, 50, 12 -> three of six fit in 15
    assert "fraction with <= 15 tokens: 0.5000" in stdout
    encoded = (out / "encoded.jsonl").read_text("utf-8").splitlines()
    assert len(encoded) == 6
    for line in encoded:
        obj = json.loads(line)
        assert len(obj["t"]) == 15
        assert obj["y"] in (0, 1)
    assert (out / "vocab.tsv").exists()
    assert (out / "chars.tsv").exists()
    assert (out / "histogram.txt").read_text("utf-8").endswith("#total\t6\n")
    assert (out / "resolved.ini").exists()


def test_preprocess_empty_corpus_warns_but_succeeds(tmp_path, capsys):
    corpus = tmp_path / "empty.tsv"
    corpus.write_text("text\tlabel\tcategory\n", encoding="utf-8")
    code, stdout, stderr = invoke(
        capsys, "preprocess", "--corpus", corpus, "--out-dir", tmp_path / "out"
    )
    assert code == 0
    assert "records 0" in stdout
    assert "empty corpus" in stderr
    assert (tmp_path / "out" / "encoded.jsonl").read_text("utf-8") == ""


def test_preprocess_fuzz_corpus_recount(tmp_path, capsys):
    rows = separable_rows(300, classes=2, seed=17)
    corpus = write_corpus_tsv(tmp_path / "fuzz.tsv", rows)
    out = tmp_path / "out"
    code, stdout, _ = invoke(capsys, "preprocess", "--corpus", corpus, "--out-dir", out)
    assert code == 0
    assert "records 300" in stdout
    lines = (out / "encoded.jsonl").read_text("utf-8").splitlines()
    assert len(lines) == 300
    labels = Counter(json.loads(ln)["y"] for ln in lines)
    assert labels == Counter(0 if r.label == "negative" else 1 for r in rows)


def test_preprocess_headerless_integer_columns(tmp_path, capsys):
    corpus = tmp_path / "plain.tsv"
    corpus.write_text("کتاب خوب\tpositive\nکتاب بد\tnegative\n", encoding="utf-8")
    code, stdout, _ = invoke(
        capsys, "preprocess", "--corpus", corpus, "--out-dir", tmp_path / "out",
        "--text-col", "0", "--label-col", "1", "--category-col", "",
    )
    assert code == 0
    assert "records 2" in stdout


# Words, stopwords, punctuation, digits and Latin letters: not every word is a token.
NOISY_WORDS = ("کتاب", "خوب", "بد", "گوشی", "از", "و", "این", "!", "،", "۱۲", "abc", "كيفيت")


def _histogram_corpus(case: str, tmp_path) -> Path:
    if case == "fixture":  # reviews of 7 to 52 tokens
        return REVIEWS_TSV
    rng = np.random.default_rng(5)
    texts = {
        "empty": [],
        "every_length": [" ".join(["کتاب"] * n) for n in range(31)],
        "noisy": [" ".join(rng.choice(NOISY_WORDS, size=rng.integers(0, 40))) for _ in range(60)],
    }[case]
    return write_corpus_tsv(tmp_path / f"{case}.tsv", [RawRecord(t, "positive") for t in texts])


@pytest.mark.parametrize("case", ["empty", "fixture", "every_length", "noisy"])
def test_preprocess_histogram_is_a_brute_force_count(case, tmp_path, capsys):
    corpus = _histogram_corpus(case, tmp_path)
    out = tmp_path / "out"
    code, stdout, _ = invoke(capsys, "preprocess", "--corpus", corpus, "--out-dir", out)
    assert code == 0
    norm = NormConfig.default()  # the stopwords `preprocess` drops by default
    rows = csv.DictReader(corpus.read_text("utf-8").splitlines(), delimiter="\t")
    lengths = [len(tokenize(normalize(row["text"], norm))) for row in rows]
    assert any(n > MAX_LEN for n in lengths) == (case != "empty")
    counts = Counter(lengths)
    want = "".join(f"{n}\t{c}\n" for n, c in sorted(counts.items())) + f"#total\t{len(lengths)}\n"
    assert (out / "histogram.txt").read_text("utf-8") == want
    fraction = sum(n <= MAX_LEN for n in lengths) / len(lengths) if lengths else 0.0
    assert f"fraction with <= {MAX_LEN} tokens: {fraction:.4f}\n" in stdout
    assert (case == "empty") == (fraction == 0.0)


def test_a_preprocess_that_fails_part_way_leaves_no_partial_encoded_jsonl(tmp_path, capsys,
                                                                          monkeypatch):
    corpus = write_corpus_tsv(tmp_path / "c.tsv", separable_rows(10, classes=2, seed=3))
    out = tmp_path / "out"
    to_json_lines, calls = sarv.cli.to_json_lines, []

    def failing_second_chunk(records):
        calls.append(len(records))
        if len(calls) == 2:
            raise DataError("disk full")
        return to_json_lines(records)

    monkeypatch.setattr(sarv.textproc, "TOKENIZE_CHUNK", 4)
    monkeypatch.setattr(sarv.cli, "to_json_lines", failing_second_chunk)
    code, _, stderr = invoke(capsys, "preprocess", "--corpus", corpus, "--out-dir", out)
    assert (code, calls) == (2, [4, 4]) and "disk full" in stderr
    assert not [p.name for p in out.iterdir() if p.name.startswith("encoded")]
    # A failed run leaves an earlier whole output as it was.
    monkeypatch.setattr(sarv.cli, "to_json_lines", to_json_lines)
    assert invoke(capsys, "preprocess", "--corpus", corpus, "--out-dir", out)[0] == 0
    whole = (out / "encoded.jsonl").read_bytes()
    assert len(whole.splitlines()) == 10
    calls.clear()
    monkeypatch.setattr(sarv.cli, "to_json_lines", failing_second_chunk)
    assert invoke(capsys, "preprocess", "--corpus", corpus, "--out-dir", out)[0] == 2
    assert (out / "encoded.jsonl").read_bytes() == whole
    assert [p.name for p in out.iterdir() if p.name.startswith("encoded")] == ["encoded.jsonl"]


# ---------------------------------------------------------------------------
# shard
# ---------------------------------------------------------------------------


def test_shard_ten_records_splits_eight_two(tmp_path, capsys):
    rows = separable_rows(10, classes=2, seed=3)
    corpus = write_corpus_tsv(tmp_path / "ten.tsv", rows)
    out = tmp_path / "shards"
    code, stdout, _ = invoke(
        capsys, "shard", "--corpus", corpus, "--out-dir", out, "--seed", 5
    )
    assert code == 0
    assert "train: 8 records in 1 shard(s)" in stdout
    assert "test: 2 records in 1 shard(s)" in stdout
    train = ShardManifest.load(out / "train.manifest.json")
    test = ShardManifest.load(out / "test.manifest.json")
    assert train.total == 8 and test.total == 2
    assert train.split_seed == 5


def test_shard_same_seed_reproduces_identical_hashes(tmp_path, capsys):
    rows = separable_rows(40, classes=2, seed=8)
    corpus = write_corpus_tsv(tmp_path / "c.tsv", rows)
    outs = []
    for name in ("a", "b"):
        code, _, _ = invoke(
            capsys, "shard", "--corpus", corpus, "--out-dir", tmp_path / name, "--seed", 9
        )
        assert code == 0
        outs.append(ShardManifest.load(tmp_path / name / "train.manifest.json"))
    assert [s.sha256 for s in outs[0].shards] == [s.sha256 for s in outs[1].shards]


def test_shard_serialises_the_token_vocab_once(tmp_path, capsys, monkeypatch):
    import sarv.corpus
    import sarv.embed

    corpus = write_corpus_tsv(tmp_path / "c.tsv", separable_rows(40, classes=2, seed=8))
    calls = []
    serialize = sarv.embed.serialize_token_vocab

    def counted(vocab):
        calls.append(len(vocab))
        return serialize(vocab)

    monkeypatch.setattr(sarv.embed, "serialize_token_vocab", counted)
    monkeypatch.setattr(sarv.corpus, "serialize_token_vocab", counted)
    code, _, _ = invoke(capsys, "shard", "--corpus", corpus, "--out-dir", tmp_path / "s",
                        "--seed", 9, "--shard-size", 10)
    assert code == 0
    assert len(calls) == 1  # vocab.tsv, whose text also gives both manifests' vocab_hash


def test_shard_sizes_follow_arithmetic(tmp_path, capsys):
    rows = separable_rows(5000, classes=2, seed=2)
    corpus = write_corpus_tsv(tmp_path / "big.tsv", rows)
    out = tmp_path / "shards"
    code, _, _ = invoke(
        capsys, "shard", "--corpus", corpus, "--out-dir", out, "--shard-size", 2000
    )
    assert code == 0
    train = ShardManifest.load(out / "train.manifest.json")
    test = ShardManifest.load(out / "test.manifest.json")
    assert [s.count for s in train.shards] == [2000, 2000]  # 4000 train records
    assert [s.count for s in test.shards] == [1000]
    assert {s.path for s in train.shards} == {"train-00000.npy", "train-00001.npy"}


@pytest.mark.parametrize("size", [0, -3])
def test_shard_size_below_one_writes_nothing(size, tmp_path, capsys):
    corpus = write_corpus_tsv(tmp_path / "c.tsv", separable_rows(10, classes=2, seed=3))
    absent, empty = tmp_path / "absent", tmp_path / "empty"
    empty.mkdir()
    for out in (absent, empty):
        code, stdout, stderr = invoke(
            capsys, "shard", "--corpus", corpus, "--out-dir", out, "--shard-size", size
        )
        assert code == 1, stdout
        assert "config error" in stderr and "shard_size" in stderr
    assert not absent.exists()
    assert list(empty.iterdir()) == []


@pytest.mark.parametrize("rows, split, error", [
    (1, 0.5, "the train split of 1 review(s) at split 0.5 holds no records"),
    (3, 0.3, "the train split of 3 review(s) at split 0.3 holds no records"),
    (0, 0.8, "cannot split an empty corpus"),
])
def test_shard_refuses_a_split_of_no_records_and_writes_nothing(rows, split, error, tmp_path,
                                                                capsys):
    corpus = write_corpus_tsv(tmp_path / "c.tsv", separable_rows(rows, classes=2, seed=3))
    absent, existing = tmp_path / "absent", tmp_path / "existing"
    existing.mkdir()
    for out in (absent, existing):
        code, stdout, stderr = invoke(capsys, "shard", "--corpus", corpus, "--out-dir", out,
                                      "--split", split)
        assert (code, stdout) == (2, "")
        assert stderr.startswith(f"sarv: data error: {error}")
    assert not absent.exists()
    assert list(existing.iterdir()) == []


def test_shard_reports_the_reviews_it_truncated(tmp_path, capsys):
    records, _ = read_corpus(REVIEWS_TSV)
    norm = NormConfig.default()
    longer = sum(len(tokenize(normalize(rec.text, norm))) > MAX_LEN for rec in records)
    assert 0 < longer < len(records)
    code, stdout, stderr = invoke(capsys, "shard", "--corpus", REVIEWS_TSV,
                                  "--out-dir", tmp_path / "long")
    assert code == 0
    assert stderr == f"note: {longer} review(s) longer than {MAX_LEN} tokens were truncated\n"
    train = ShardManifest.load(tmp_path / "long" / "train.manifest.json")
    test = ShardManifest.load(tmp_path / "long" / "test.manifest.json")
    assert stdout == (f"train: {train.total} records in 1 shard(s)\n"
                      f"test: {test.total} records in 1 shard(s)\n")
    corpus = write_corpus_tsv(tmp_path / "short.tsv", separable_rows(10, classes=2, seed=3))
    code, _, stderr = invoke(capsys, "shard", "--corpus", corpus, "--out-dir", tmp_path / "short")
    assert (code, stderr) == (0, "")  # 2-6 tokens each: nothing to report


@pytest.mark.parametrize("argv, word", [
    (["shard", "--split", "1.5"], "split fraction must be in (0, 1), got 1.5"),
    (["shard", "--split", "0"], "split fraction must be in (0, 1), got 0.0"),
    (["train", "--lr-schedule", "constant", "--plateau-patience", "0"],
     "plateau_patience must be >= 1, got 0"),
])
def test_bad_split_or_patience_is_refused_before_any_input_is_read(argv, word, tmp_path, capsys):
    out, missing = tmp_path / "out", tmp_path / "missing"  # no input file exists
    inputs = {"shard": ["--corpus", missing / "c.tsv"],
              "train": ["--shard-dir", missing, "--embeddings", missing / "v.txt"]}[argv[0]]
    code, stdout, stderr = invoke(capsys, *argv, *inputs, "--out-dir", out)
    assert (code, stdout) == (1, "")
    assert stderr == f"sarv: config error: {word}\n"
    assert not out.exists()


def test_shard_rus_flag_balances_train_split(tmp_path, capsys):
    rows = separable_rows(30, classes=2, seed=4)
    rows = [r for r in rows if r.label == "positive"][:6] + [
        r for r in rows if r.label == "negative"
    ]
    corpus = write_corpus_tsv(tmp_path / "imb.tsv", rows)
    out = tmp_path / "shards"
    code, _, _ = invoke(
        capsys, "shard", "--corpus", corpus, "--out-dir", out, "--rus", "--seed", 1
    )
    assert code == 0
    train = ShardManifest.load(out / "train.manifest.json")
    counts = set(train.class_histogram.values())
    assert len(counts) == 1  # equalized
    test = ShardManifest.load(out / "test.manifest.json")
    assert test.total > 0  # the test split is never undersampled


def test_shard_rus_preset_default(tmp_path, capsys):
    rows = separable_rows(40, classes=2, seed=6)
    rows = rows[:30] + [r for r in rows[30:] if r.label == "negative"]
    corpus = write_corpus_tsv(tmp_path / "c.tsv", rows)
    out = tmp_path / "shards"
    code, _, _ = invoke(
        capsys, "shard", "--corpus", corpus, "--out-dir", out,
        "--preset", "CHAR_W2V_LSTM_RUS", "--seed", 2,
    )
    assert code == 0
    train = ShardManifest.load(out / "train.manifest.json")
    assert len(set(train.class_histogram.values())) == 1


# ---------------------------------------------------------------------------
# config resolution
# ---------------------------------------------------------------------------


def test_config_ini_round_trip_is_fixed_point(tmp_path):
    cfg = RunConfig(seed=11, preset="W2V_LSTM", lr=0.0005, rus=True,
                    stop_at_train_accuracy=0.99, corpus="data/x.tsv")
    ini = config_to_ini(cfg)
    path = tmp_path / "run.ini"
    path.write_text(ini, encoding="utf-8")
    values = config_from_ini(path)
    rebuilt = replace(RunConfig(), **values)
    assert config_to_ini(rebuilt) == ini
    assert rebuilt == cfg


def test_run_config_validation():
    RunConfig()  # defaults are valid, the empty "infer" --format among them
    with pytest.raises(ConfigError):
        RunConfig(optimizer="rmsprop")
    with pytest.raises(ConfigError):
        RunConfig(lr_schedule="cosine")
    with pytest.raises(ConfigError):
        RunConfig(precision="half")
    with pytest.raises(ConfigError):
        RunConfig(exp_step_unit="minute")
    for lr in (0.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="lr"):
            RunConfig(lr=lr)
    with pytest.raises(ConfigError):
        RunConfig(batch_size=0)
    with pytest.raises(ConfigError):
        RunConfig(epochs=-1)
    with pytest.raises(ConfigError):
        RunConfig(plateau_factor=1.0)
    for acc in (float("nan"), -0.1, 1.5, 5.0):
        with pytest.raises(ConfigError, match="stop_at_train_accuracy"):
            RunConfig(stop_at_train_accuracy=acc)
    RunConfig(stop_at_train_accuracy=0.0)
    RunConfig(stop_at_train_accuracy=1.0)
    for kwargs, word in (({"seed": -1}, "seed"), ({"classes": 4}, "classes"),
                         ({"fmt": "xml"}, "fmt"), ({"preset": "W2V_GRU"}, "preset"),
                         ({"shard_size": 0}, "shard_size"), ({"split": 1.0}, "split"),
                         ({"split": float("nan")}, "split"), ({"dropout": 1.0}, "dropout"),
                         ({"dropout": -0.1}, "dropout"), ({"dropout": float("nan")}, "dropout"),
                         ({"max_bad_rows": -1}, "max_bad_rows")):
        with pytest.raises(ConfigError, match=word):
            RunConfig(**kwargs)
    RunConfig(seed=0, fmt="jsonl", classes=3, dropout=0.0, max_bad_rows=0)
    assert PRECISIONS == {"single": np.float32, "double": np.float64}


@pytest.mark.parametrize("name, table_name", [
    ("optimizer", "OPTIMIZERS"), ("lr_schedule", "SCHEDULES"), ("precision", "PRECISIONS")])
def test_run_config_takes_exactly_its_choices(name, table_name):
    # The flag offers the names of sarv.models' table as choices; RunConfig checks the same ones.
    choices = tuple(getattr(sarv.cli, table_name))
    assert getattr(sarv.cli, table_name) is getattr(sarv.models, table_name)
    assert sarv.cli._FIELDS[name].metadata["argparse"]["choices"] == choices
    for value in choices:
        assert getattr(RunConfig(**{name: value}), name) == value
    for bad in ("", "bogus", choices[0].upper(), f" {choices[0]}"):
        with pytest.raises(ConfigError, match=name):
            RunConfig(**{name: bad})


@pytest.mark.parametrize("command, setting, word", [
    ("train", "ini:[run]\nclasses = 4\n", "classes must be one of (2, 3), got 4"),
    ("shard", "flag:--seed -1", "seed must be >= 0, got -1"),
    ("train", "env:-1", "seed must be >= 0, got -1"),
    ("predict", "ini:[train]\noptimizer = rmsprop\n",
     "optimizer must be one of ('sgd', 'adam'), got 'rmsprop'"),
    ("train", "flag:--dropout 1.5", "dropout must be in [0, 1), got 1.5"),
    ("shard", "flag:--max-bad-rows -1", "max_bad_rows must be >= 0, got -1"),
], ids=["train-ini-classes", "shard-flag-seed", "train-env-seed", "predict-ini-optimizer",
        "train-flag-dropout", "shard-flag-max-bad-rows"])
def test_a_bad_value_from_any_source_exits_one_before_any_input_is_read(
        command, setting, word, tmp_path, capsys, monkeypatch):
    source, value = setting.split(":", 1)
    out, missing = tmp_path / "out", tmp_path / "missing"  # no input file exists
    argv = [command, *{
        "shard": ["--corpus", missing / "c.tsv", "--stopwords", missing / "stop.txt"],
        "train": ["--shard-dir", missing, "--embeddings", missing / "v.txt"],
        "predict": ["--shard-dir", missing, "--embeddings", missing / "v.txt",
                    "--checkpoint", missing / "m.bin", "--input", missing / "in.txt"],
    }[command], "--out-dir", out]
    if source == "ini":
        (tmp_path / "run.ini").write_text(value, encoding="utf-8")
        argv += ["--config", tmp_path / "run.ini"]
    elif source == "flag":
        argv += value.split()
    else:
        monkeypatch.setenv("SARV_SEED", value)
    code, stdout, stderr = invoke(capsys, *argv)
    assert (code, stdout) == (1, "")
    assert stderr == f"sarv: config error: {word}\n"  # one line: no traceback
    assert not out.exists()


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[train]\nmomentum = 0.9\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        config_from_ini(path)


def test_config_rejects_bad_values(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[train]\nepochs = soon\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        config_from_ini(path)


def test_config_file_not_utf8_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_bytes(b"[run]\nseed = 5\xff\n")
    code, _, stderr = invoke(capsys, "stats", "--config", path, "--corpus", REVIEWS_TSV)
    assert code == 1, stderr
    assert stderr.startswith("sarv: config error: ") and str(path) in stderr


def test_flags_override_config_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[run]\nseed = 5\n\n[train]\nepochs = 3\nlr = 0.01\n", encoding="utf-8")
    args = build_parser().parse_args(
        ["train", "--config", str(path), "--epochs", "7"]
    )
    cfg = resolve_config(args)
    assert cfg.epochs == 7      # flag wins
    assert cfg.lr == 0.01       # file wins over defaults
    assert cfg.seed == 5


def test_preset_defaults_apply_then_yield(tmp_path):
    args = build_parser().parse_args(["train", "--preset", "W2V_SOFTMAX"])
    cfg = resolve_config(args)
    assert cfg.optimizer == "sgd" and cfg.lr == 0.003 and cfg.lr_schedule == "constant"
    args = build_parser().parse_args(
        ["train", "--preset", "W2V_SOFTMAX", "--lr", "0.5", "--optimizer", "adam"]
    )
    cfg = resolve_config(args)
    assert cfg.optimizer == "adam" and cfg.lr == 0.5


def test_all_presets_have_train_defaults():
    assert PRESETS["W2V_MLP_RELU_LRDECAY"].train["lr_schedule"] == "exp"
    assert PRESETS["W2V_MLP_RELU_LRDECAY_DROPOUT"].train["dropout"] == 0.25
    assert PRESETS["CHAR_W2V_LSTM_RUS"].train["rus"] is True


def test_env_seed_fallback(monkeypatch):
    monkeypatch.setenv("SARV_SEED", "123")
    cfg = resolve_config(build_parser().parse_args(["train"]))
    assert cfg.seed == 123
    # explicit flag beats the environment
    cfg = resolve_config(build_parser().parse_args(["train", "--seed", "9"]))
    assert cfg.seed == 9


def test_env_seed_yields_to_config_file(monkeypatch, tmp_path):
    monkeypatch.setenv("SARV_SEED", "123")
    path = tmp_path / "run.ini"
    path.write_text("[run]\nseed = 44\n", encoding="utf-8")
    cfg = resolve_config(build_parser().parse_args(["train", "--config", str(path)]))
    assert cfg.seed == 44


def test_invalid_env_seed_is_config_error(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("SARV_SEED", "not-a-number")
    code, _, stderr = invoke(
        capsys, "stats", "--corpus", REVIEWS_TSV, "--classes", "2"
    )
    assert code == 1
    assert "SARV_SEED" in stderr


_CORPUS_OPTIONS = {"--corpus", "--format", "--text-col", "--label-col", "--category-col",
                   "--max-bad-rows"}
_COMMON_OPTIONS = {"-h", "--help", "--config", "--out-dir"}
CLI_OPTIONS = {
    "preprocess": _COMMON_OPTIONS | _CORPUS_OPTIONS | {"--stopwords", "--classes"},
    "shard": _COMMON_OPTIONS | _CORPUS_OPTIONS | {
        "--stopwords", "--classes", "--split", "--shard-size", "--rus", "--preset", "--seed"},
    "train": _COMMON_OPTIONS | {
        "--embeddings", "--shard-dir", "--preset", "--seed", "--epochs", "--batch-size",
        "--lr", "--lr-schedule", "--dropout", "--optimizer", "--precision", "--exp-step-unit",
        "--plateau-factor", "--plateau-patience", "--stop-at-train-accuracy"},
    "eval": _COMMON_OPTIONS | {
        "--checkpoint", "--manifest", "--shard-dir", "--embeddings", "--batch-size"},
    "predict": _COMMON_OPTIONS | {"--checkpoint", "--shard-dir", "--embeddings", "--input"},
    "stats": _COMMON_OPTIONS | _CORPUS_OPTIONS | {"--classes"},
}


def test_cli_surface_is_pinned():
    parser = build_parser()
    (commands,) = [a.choices for a in parser._actions if isinstance(a.choices, dict)]
    assert set(commands) == set(CLI_OPTIONS)
    field_names = {f.name for f in fields(RunConfig)}
    for name, sub in commands.items():
        assert {s for a in sub._actions for s in a.option_strings} == CLI_OPTIONS[name], name
        # every setting flag stores under its RunConfig field, which resolve_config reads
        assert {a.dest for a in sub._actions} - {"help", "config"} <= field_names, name


def test_train_help_lists_the_training_choices(capsys):
    assert main(["train", "--help"]) == 0
    out = capsys.readouterr().out
    for choices in ("{sgd,adam}", "{constant,exp,plateau}", "{single,double}"):
        assert choices in out


@pytest.mark.parametrize("flag", ["--optimizer", "--lr-schedule", "--precision"])
def test_bad_training_choice_exits_one_before_any_file_is_read(flag, tmp_path, capsys):
    # Reading the absent shard directory would be a data error (exit 2).
    out = tmp_path / "out"
    code, stdout, stderr = invoke(
        capsys, "train", flag, "bogus", "--shard-dir", tmp_path / "absent",
        "--embeddings", tmp_path / "absent.txt", "--out-dir", out,
    )
    assert code == 1
    assert stdout == ""
    assert f"argument {flag}: invalid choice: 'bogus'" in stderr
    assert not out.exists()


def test_every_config_field_has_one_ini_key():
    ini = configparser.ConfigParser(interpolation=None)
    ini.read_string(config_to_ini(RunConfig()))
    pairs = [(section, key) for section in ini.sections() for key in ini[section]]
    keys = [key for _, key in pairs]
    assert sorted(keys) == sorted(f.name for f in fields(RunConfig))
    assert len(set(keys)) == len(pairs)


def test_resolved_ini_round_trips_through_config_flag(tmp_path, capsys, empty_stopwords):
    out = tmp_path / "out"
    code, _, _ = invoke(
        capsys, "preprocess", "--corpus", REVIEWS_TSV, "--out-dir", out,
        "--stopwords", empty_stopwords, "--max-bad-rows", "3",
    )
    assert code == 0
    first = (out / "resolved.ini").read_bytes()
    assert b"\nmax_bad_rows = 3\n" in first
    code, _, _ = invoke(capsys, "preprocess", "--config", out / "resolved.ini")
    assert code == 0
    assert (out / "resolved.ini").read_bytes() == first


def test_train_config_file_round_trips(trained, tmp_path, capsys):
    _, shards, _ = trained
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\nprecision = double\n\n"
                   "[train]\noptimizer = sgd\nlr_schedule = exp\nepochs = 1\nbatch_size = 16\n",
                   encoding="utf-8")
    out = tmp_path / "out"
    code, _, _ = invoke(capsys, "train", "--config", ini, "--shard-dir", shards,
                        "--embeddings", bundled_embedding_path(), "--out-dir", out)
    assert code == 0
    resolved = config_from_ini(out / "resolved.ini")
    assert {k: resolved[k] for k in ("precision", "optimizer", "lr_schedule", "epochs",
                                     "batch_size")} == {
        "precision": "double", "optimizer": "sgd", "lr_schedule": "exp", "epochs": 1,
        "batch_size": 16}
    first = (out / "resolved.ini").read_bytes()
    checkpoint = (out / "checkpoint_final.bin").read_bytes()
    code, _, _ = invoke(capsys, "train", "--config", out / "resolved.ini")
    assert code == 0
    assert (out / "resolved.ini").read_bytes() == first
    assert (out / "checkpoint_final.bin").read_bytes() == checkpoint


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["unknown-command"]) == 1
    assert main(["preprocess", "--bogus-flag"]) == 1
    assert main(["train", "--preset", "NOT_A_PRESET"]) == 1
    capsys.readouterr()


def test_missing_required_setting_exits_one(capsys):
    code, _, stderr = invoke(capsys, "preprocess")
    assert code == 1
    assert "corpus" in stderr


def test_negative_max_bad_rows_is_a_config_error(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[preprocess]\nmax_bad_rows = -1\n", encoding="utf-8")
    for argv in (["--max-bad-rows", "-1"], ["--config", ini]):
        code, _, stderr = invoke(capsys, "stats", "--corpus", REVIEWS_TSV, *argv)
        assert code == 1
        assert "config error" in stderr and "max_bad_rows" in stderr


def test_missing_corpus_file_exits_two(tmp_path, capsys):
    code, _, stderr = invoke(
        capsys, "preprocess", "--corpus", tmp_path / "nope.tsv",
        "--out-dir", tmp_path / "out",
    )
    assert code == 2
    assert "data error" in stderr


def test_missing_manifest_exits_two(tmp_path, capsys):
    ckpt = tmp_path / "missing.bin"
    code, _, _ = invoke(
        capsys, "eval", "--checkpoint", ckpt, "--embeddings",
        bundled_embedding_path(), "--shard-dir", tmp_path,
    )
    assert code == 2


@pytest.mark.parametrize("command", ["shard", "preprocess"])
@pytest.mark.parametrize("problem", ["missing", "not_utf8"])
def test_unreadable_stopwords_exit_two(command, problem, tmp_path, capsys):
    corpus = write_corpus_tsv(tmp_path / "c.tsv", separable_rows(10, classes=2, seed=3))
    stop_file = tmp_path / "stop.txt"
    if problem == "not_utf8":
        stop_file.write_bytes(b"\xff\xfe\x00bad\n")
    code, _, stderr = invoke(
        capsys, command, "--corpus", corpus, "--out-dir", tmp_path / "out",
        "--stopwords", stop_file,
    )
    assert code == 2
    assert "data error" in stderr and "stopwords" in stderr


def _edit_manifests(shard_dir, edit) -> None:
    for path in shard_dir.glob("*.manifest.json"):
        path.write_text(json.dumps(edit(json.loads(path.read_text("utf-8")))), encoding="utf-8")


def _without(obj, key):
    return {k: v for k, v in obj.items() if k != key}


@pytest.mark.parametrize("edit", [
    pytest.param(lambda m: _without(m, "shards"), id="missing_key"),
    pytest.param(lambda m: {"total": 1}, id="total_only"),
    pytest.param(lambda m: {**m, "max_word_chars": "20"}, id="wrong_type"),
    pytest.param(lambda m: {**m, "shards": [{**m["shards"][0], "count": None}]},
                 id="wrong_shard_type"),
    pytest.param(lambda m: {**m, "version": 1}, id="old_version"),
    pytest.param(lambda m: _without(m, "num_classes"), id="no_class_count"),
    pytest.param(lambda m: {**m, "num_classes": 4}, id="unsupported_class_count"),
    pytest.param(lambda m: {**m, "num_classes": True}, id="bool_class_count"),
])
def test_malformed_manifest_exits_two(edit, trained, tmp_path, capsys):
    _, shards, run = trained
    tampered = tmp_path / "shards"
    shutil.copytree(shards, tampered)
    _edit_manifests(tampered, edit)
    code, stdout, stderr = invoke(
        capsys, "eval", "--checkpoint", run / "checkpoint_final.bin",
        "--shard-dir", tampered, "--embeddings", bundled_embedding_path(),
    )
    assert code == 2, stdout
    assert "manifest" in stderr


def test_jsonl_shard_dir_asks_to_reshard(trained, tmp_path, capsys):
    # The layout before array shards: format version 1, one JSONL file per shard.
    _, shards, run = trained
    old = tmp_path / "shards"
    shutil.copytree(shards, old)

    def as_version_1(m):
        shard_list = [{**s, "path": s["path"].replace(".npy", ".jsonl")} for s in m["shards"]]
        return {**_without(m, "max_len"), "version": 1, "shards": shard_list}

    _edit_manifests(old, as_version_1)
    for npy in old.glob("*.npy"):
        npy.rename(npy.with_suffix(".jsonl"))
    emb = bundled_embedding_path()
    for argv in (
        ["train", "--shard-dir", old, "--out-dir", tmp_path / "run", "--embeddings", emb],
        ["eval", "--checkpoint", run / "checkpoint_final.bin", "--shard-dir", old,
         "--embeddings", emb],
    ):
        code, _, stderr = invoke(capsys, *argv)
        assert code == 2
        assert "version 1" in stderr and "re-run `sarv shard`" in stderr


def test_version_2_manifest_asks_to_reshard(trained, tmp_path, capsys):
    # The layout before manifests recorded their class count.
    _, shards, run = trained
    old = tmp_path / "shards"
    shutil.copytree(shards, old)
    _edit_manifests(old, lambda m: {**_without(m, "num_classes"), "version": 2})
    emb = bundled_embedding_path()
    for argv in (
        ["train", "--shard-dir", old, "--out-dir", tmp_path / "run", "--embeddings", emb],
        ["eval", "--checkpoint", run / "checkpoint_final.bin", "--shard-dir", old,
         "--embeddings", emb],
    ):
        code, _, stderr = invoke(capsys, *argv)
        assert code == 2
        assert "version 2, not 3" in stderr and "re-run `sarv shard`" in stderr


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_numeric_blowup_exits_three(tmp_path, capsys):
    rows = separable_rows(24, classes=2, seed=12)
    corpus = write_corpus_tsv(tmp_path / "c.tsv", rows)
    shards = tmp_path / "shards"
    assert invoke(capsys, "shard", "--corpus", corpus, "--out-dir", shards)[0] == 0
    code, _, stderr = invoke(
        capsys, "train", "--shard-dir", shards, "--out-dir", tmp_path / "run",
        "--embeddings", bundled_embedding_path(), "--preset", "W2V_SOFTMAX",
        "--optimizer", "sgd", "--lr", "1e308", "--epochs", "2", "--batch-size", "8",
    )
    assert code == 3
    assert "numeric failure" in stderr
    assert re.search(r"epoch \d+ batch \d+", stderr)


# ---------------------------------------------------------------------------
# train / eval / predict / stats
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """Shard a separable corpus and train a softmax model on it."""
    base = tmp_path_factory.mktemp("cli_train")
    rows = separable_rows(60, classes=2, seed=21)
    corpus = write_corpus_tsv(base / "corpus.tsv", rows)
    shards = base / "shards"
    run = base / "run"
    assert main([
        "shard", "--corpus", str(corpus), "--out-dir", str(shards), "--seed", "1",
    ]) == 0
    assert main([
        "train", "--shard-dir", str(shards), "--out-dir", str(run),
        "--embeddings", str(bundled_embedding_path()), "--preset", "W2V_SOFTMAX",
        "--epochs", "40", "--batch-size", "16", "--lr", "0.05", "--seed", "1",
        "--stop-at-train-accuracy", "1.0",
    ]) == 0
    return base, shards, run


def _poisoned_checkpoint(trained, path):
    """The trained checkpoint with one NaN in the head's weights, saved under ``path``."""
    _, shards, run = trained
    encoder, _ = Encoder.load(shards)
    model, emb, meta = load_model(run / "checkpoint_final.bin", len(encoder.token_vocab))
    head = model.layers[-1]
    head.W.value = head.W.value.copy()
    head.W.value[0, 0] = np.nan
    save_model(model, path, emb, meta)
    return path


def test_eval_names_the_batch_of_a_numeric_failure(trained, tmp_path, capsys):
    _, shards, _ = trained
    ckpt = _poisoned_checkpoint(trained, tmp_path / "poisoned.bin")
    code, _, stderr = invoke(capsys, "eval", "--checkpoint", ckpt, "--shard-dir", shards,
                             "--embeddings", bundled_embedding_path(), "--batch-size", 4)
    assert code == 3
    assert "sarv: numeric failure: eval batch 0: non-finite values in head" in stderr


def test_predict_names_the_batch_of_a_numeric_failure(trained, tmp_path, capsys):
    _, shards, _ = trained
    ckpt = _poisoned_checkpoint(trained, tmp_path / "poisoned.bin")
    inp = tmp_path / "lines.txt"
    inp.write_text("واقعا عالی بود\n", encoding="utf-8")
    code, stdout, stderr = invoke(capsys, "predict", "--checkpoint", ckpt, "--shard-dir", shards,
                                  "--embeddings", bundled_embedding_path(), "--input", inp)
    assert code == 3
    assert stdout == ""
    assert "sarv: numeric failure: predict batch 0: non-finite values in head" in stderr


def test_train_names_the_epoch_pass_and_batch_of_a_scoring_failure(trained, tmp_path, capsys,
                                                                   monkeypatch):
    import sarv.train

    _, shards, _ = trained
    step = sarv.train.adam_step

    def poisoning_step(params, lr, state):  # the training step passes, then a weight goes bad
        step(params, lr, state)
        params[0].value[0, 0] = np.nan

    monkeypatch.setattr(sarv.train, "adam_step", poisoning_step)
    code, _, stderr = invoke(
        capsys, "train", "--shard-dir", shards, "--out-dir", tmp_path / "run",
        "--embeddings", bundled_embedding_path(), "--preset", "W2V_SOFTMAX",
        "--optimizer", "adam", "--epochs", 1, "--batch-size", 64,
    )
    assert code == 3
    assert ("sarv: numeric failure: epoch 0 train-accuracy pass batch 0: "
            "non-finite values in head") in stderr


@pytest.mark.parametrize("command", ["train", "eval", "predict"])
def test_each_command_hashes_the_encoder_once(command, trained, tmp_path, capsys, monkeypatch):
    import sarv.embed

    _, shards, run = trained
    calls, serialized = [], []
    hashes = Encoder._hashes

    def counted(self, vocab, chars):
        calls.append(len(vocab))
        return hashes(self, vocab, chars)

    monkeypatch.setattr(Encoder, "_hashes", counted)
    monkeypatch.setattr(sarv.embed, "serialize_token_vocab", serialized.append)
    lines = tmp_path / "lines.txt"
    lines.write_text("واقعا عالی بود\n", encoding="utf-8")
    common = ["--shard-dir", shards, "--embeddings", bundled_embedding_path()]
    argv = {
        "train": ["--out-dir", tmp_path / "run", "--preset", "W2V_SOFTMAX", "--epochs", 1],
        "eval": ["--checkpoint", run / "checkpoint_final.bin"],
        "predict": ["--checkpoint", run / "checkpoint_final.bin", "--input", lines],
    }[command]
    code, _, _ = invoke(capsys, command, *common, *argv)
    assert code == 0
    assert len(calls) == 1  # train and eval check two artifacts against the one hash
    assert serialized == []  # taken from the bytes read, never from a re-serialised vocabulary


@pytest.fixture(scope="module")
def trained_three(tmp_path_factory):
    """Shards of a 3-class corpus and a checkpoint trained on them with no class flag."""
    base = tmp_path_factory.mktemp("cli_train_three")
    corpus = write_corpus_tsv(base / "corpus.tsv", separable_rows(30, classes=3, seed=4))
    shards, run = base / "shards", base / "run"
    assert main(["shard", "--corpus", str(corpus), "--out-dir", str(shards), "--classes", "3",
                 "--seed", "1"]) == 0
    assert main(["train", "--shard-dir", str(shards), "--out-dir", str(run),
                 "--embeddings", str(bundled_embedding_path()), "--batch-size", "8"]) == 0
    return base, shards, run


def test_train_builds_the_class_count_its_shards_record(trained_three):
    _, shards, run = trained_three
    assert ShardManifest.load(shards / "train.manifest.json").num_classes == 3
    encoder, _ = Encoder.load(shards)
    model, _, _ = load_model(run / "checkpoint_final.bin", len(encoder.token_vocab))
    assert model.spec.num_classes == 3
    assert config_from_ini(run / "resolved.ini")["classes"] == 3  # the count trained


def test_train_refuses_a_manifest_label_outside_its_class_count_before_reading_embeddings(
        trained_three, tmp_path, capsys, monkeypatch):
    _, shards, _ = trained_three
    tampered = tmp_path / "shards"
    shutil.copytree(shards, tampered)
    _edit_manifests(tampered, lambda m: {**m, "num_classes": 2})  # its labels reach 2

    def no_embeddings(*args, **kwargs):
        raise AssertionError("train read the embeddings before refusing the class count")

    monkeypatch.setattr(sarv.cli, "load_embeddings", no_embeddings)
    code, _, stderr = invoke(
        capsys, "train", "--shard-dir", tampered, "--out-dir", tmp_path / "run",
        "--embeddings", bundled_embedding_path(),
    )
    assert code == 2
    assert "data error" in stderr and "train.manifest.json" in stderr
    assert "labels [2]" in stderr and "num_classes is 2" in stderr
    assert not (tmp_path / "run").exists()


def test_train_refuses_a_manifest_of_no_records_before_reading_embeddings(tmp_path, capsys):
    corpus = write_corpus_tsv(tmp_path / "ten.tsv", separable_rows(10, classes=2, seed=3))
    shards = tmp_path / "shards"
    assert invoke(capsys, "shard", "--corpus", corpus, "--out-dir", shards)[0] == 0
    _edit_manifests(shards, lambda m: {**m, "shards": [], "total": 0, "class_histogram": {}})
    for epochs in (1, 0):  # an untrained checkpoint is no answer either
        code, _, stderr = invoke(
            capsys, "train", "--shard-dir", shards, "--out-dir", tmp_path / "run",
            "--embeddings", tmp_path / "no_such_vectors.txt", "--epochs", epochs,
        )
        assert code == 2
        assert "data error" in stderr and "train.manifest.json holds no records" in stderr
        assert not (tmp_path / "run").exists()


def test_eval_refuses_a_manifest_of_no_records(trained, tmp_path, capsys):
    _, shards, run = trained
    emptied = tmp_path / "shards"
    shutil.copytree(shards, emptied)
    _edit_manifests(emptied, lambda m: {**m, "shards": [], "total": 0, "class_histogram": {}})
    code, _, stderr = invoke(
        capsys, "eval", "--checkpoint", run / "checkpoint_final.bin", "--shard-dir", emptied,
        "--embeddings", bundled_embedding_path(),
    )
    assert code == 2
    assert "data error" in stderr and "test.manifest.json holds no records" in stderr


def _two_class_shards(trained_three, out, capsys):
    """2-class shards of ``trained_three``'s texts, so the encoder is the checkpoint's.

    Each neutral review becomes positive, the label that 2-class shards store
    as 1 and that a 3-class model reads as neutral.
    """
    base, _, _ = trained_three
    lines = (base / "corpus.tsv").read_text("utf-8").splitlines()
    relabelled = [lines[0]] + [
        "\t".join([text, "positive" if label == "neutral" else label, cat])
        for text, label, cat in (ln.split("\t") for ln in lines[1:])
    ]
    corpus = out.parent / "two.tsv"
    corpus.write_text("\n".join(relabelled) + "\n", encoding="utf-8")
    assert invoke(capsys, "shard", "--corpus", corpus, "--out-dir", out, "--classes", 2,
                  "--seed", 1)[0] == 0
    return out


def test_train_refuses_a_test_manifest_of_another_class_count(trained_three, tmp_path, capsys):
    _, shards, _ = trained_three
    mixed = tmp_path / "shards"
    shutil.copytree(shards, mixed)
    two = _two_class_shards(trained_three, tmp_path / "two", capsys)
    for path in [two / "test.manifest.json", *two.glob("test-*.npy")]:
        shutil.copy(path, mixed / path.name)
    code, _, stderr = invoke(
        capsys, "train", "--shard-dir", mixed, "--out-dir", tmp_path / "run",
        "--embeddings", bundled_embedding_path(),
    )
    assert code == 2
    assert "test.manifest.json" in stderr and "2 classes" in stderr and "3 classes" in stderr
    assert not (tmp_path / "run" / "report.jsonl").exists()


def test_eval_of_a_three_class_checkpoint_on_two_class_shards_exits_two(trained_three,
                                                                        tmp_path, capsys):
    _, _, run = trained_three
    shards = _two_class_shards(trained_three, tmp_path / "shards", capsys)
    code, stdout, stderr = invoke(
        capsys, "eval", "--checkpoint", run / "checkpoint_final.bin", "--shard-dir", shards,
        "--embeddings", bundled_embedding_path(), "--out-dir", tmp_path / "metrics",
    )
    assert code == 2, stdout
    assert "data error" in stderr and "test.manifest.json" in stderr
    assert "2 classes" in stderr and "3 classes" in stderr
    assert not (tmp_path / "metrics").exists()


def test_eval_of_a_two_class_checkpoint_on_three_class_shards_exits_two(trained, tmp_path,
                                                                        capsys):
    base, _, run = trained
    # Same texts, so the same encoder as the checkpoint's; every third label becomes neutral.
    lines = (base / "corpus.tsv").read_text("utf-8").splitlines()
    relabelled = [lines[0]] + [
        "\t".join([text, "neutral" if i % 3 == 0 else label, cat])
        for i, (text, label, cat) in enumerate(ln.split("\t") for ln in lines[1:])
    ]
    corpus = tmp_path / "three.tsv"
    corpus.write_text("\n".join(relabelled) + "\n", encoding="utf-8")
    shards = tmp_path / "shards"
    assert invoke(capsys, "shard", "--corpus", corpus, "--out-dir", shards, "--classes", 3,
                  "--seed", 1)[0] == 0
    code, stdout, stderr = invoke(
        capsys, "eval", "--checkpoint", run / "checkpoint_final.bin", "--shard-dir", shards,
        "--manifest", shards / "train.manifest.json", "--embeddings", bundled_embedding_path(),
    )
    assert code == 2, stdout
    assert "data error" in stderr and "train.manifest.json" in stderr and "2 classes" in stderr


def test_train_writes_report_and_checkpoints(trained, capsys):
    _, _, run = trained
    capsys.readouterr()
    assert (run / "checkpoint_final.bin").exists()
    assert (run / "checkpoint_best.bin").exists()
    assert (run / "resolved.ini").exists()
    report_lines = (run / "report.jsonl").read_text("utf-8").splitlines()
    assert report_lines
    last = json.loads(report_lines[-1])
    assert set(last) == {"epoch", "train_loss", "train_accuracy", "eval_accuracy", "macro_f1", "lr"}
    assert "wall_time" not in (run / "report.txt").read_text("utf-8")


def test_eval_on_train_split_matches_reported_accuracy(trained, tmp_path, capsys):
    _, shards, run = trained
    last = json.loads((run / "report.jsonl").read_text("utf-8").splitlines()[-1])
    code, stdout, _ = invoke(
        capsys, "eval", "--checkpoint", run / "checkpoint_final.bin",
        "--shard-dir", shards, "--manifest", shards / "train.manifest.json",
        "--embeddings", bundled_embedding_path(), "--out-dir", tmp_path / "metrics",
    )
    assert code == 0
    accuracy = float(re.search(r"accuracy\s+([0-9.]+)", stdout).group(1))
    assert accuracy >= last["train_accuracy"] - 1e-6
    saved = json.loads((tmp_path / "metrics" / "metrics.json").read_text("utf-8"))
    assert saved["accuracy"] == pytest.approx(accuracy, abs=1e-6)


@pytest.fixture(scope="module")
def other_shards(tmp_path_factory):
    """Shards of a different corpus than ``trained``'s, so the vocabulary hash differs."""
    base = tmp_path_factory.mktemp("cli_other")
    rows = separable_rows(20, classes=2, seed=77)
    # different filler usage -> different vocabulary -> different hash
    other_corpus = write_corpus_tsv(base / "other.tsv", rows[:10])
    assert main(["shard", "--corpus", str(other_corpus), "--out-dir", str(base / "shards")]) == 0
    return base / "shards"


def test_eval_rejects_checkpoint_from_other_vocab(trained, other_shards, capsys):
    _, _, run = trained
    code, _, stderr = invoke(
        capsys, "eval", "--checkpoint", run / "checkpoint_final.bin",
        "--shard-dir", other_shards, "--embeddings", bundled_embedding_path(),
    )
    assert code == 2
    assert "mismatch" in stderr


@pytest.mark.parametrize("case", [
    "missing_meta_key", "non_integer_classes", "unknown_preset", "unknown_precision",
    "truncated_body", "missing_embeddings", "missing_embeddings_hash",
])
def test_malformed_checkpoint_exits_two(case, trained, tmp_path, capsys):
    # Each checkpoint ends in the sha256 of its body, so only the parse can refuse it.
    _, shards, run = trained
    ckpt = tmp_path / "model.bin"
    arrays, meta = load_checkpoint(run / "checkpoint_final.bin")
    if case == "missing_meta_key":
        del meta["max_len"]
    elif case == "non_integer_classes":
        meta["num_classes"] = "two"
    elif case == "unknown_preset":
        meta["preset"] = "W2V_TRANSFORMER"
    elif case == "unknown_precision":  # once loaded as float32
        meta["precision"] = "half"
    elif case == "missing_embeddings":
        del arrays["embeddings"]
    elif case == "missing_embeddings_hash":
        del meta["embeddings_sha256"]
    save_checkpoint(ckpt, [Parameter(name, value) for name, value in arrays.items()], meta)
    if case == "truncated_body":
        body = ckpt.read_bytes()[:-32][:-40]
        ckpt.write_bytes(body + hashlib.sha256(body).digest())
    lines = tmp_path / "lines.txt"
    lines.write_text("واقعا عالی بود\n", encoding="utf-8")
    common = ["--checkpoint", ckpt, "--shard-dir", shards, "--embeddings", bundled_embedding_path()]
    for argv in (["eval", *common], ["predict", *common, "--input", lines]):
        code, stdout, stderr = invoke(capsys, *argv)
        assert code == 2, (argv[0], stdout, stderr)
        assert "data error" in stderr and "checkpoint" in stderr
        if case == "unknown_precision":
            assert "bad or missing metadata: KeyError('half')" in stderr


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_a_format_1_checkpoint_is_refused_by_name(command, trained, tmp_path, capsys):
    # SARVCKP1 held the same bytes after its magic, with no digest at the end.
    _, shards, run = trained
    ckpt = tmp_path / "model.bin"
    ckpt.write_bytes(b"SARVCKP1" + (run / "checkpoint_best.bin").read_bytes()[8:-32])
    lines = tmp_path / "lines.txt"
    lines.write_text("واقعا عالی بود\n", encoding="utf-8")
    argv = [command, "--checkpoint", ckpt, "--shard-dir", shards,
            "--embeddings", bundled_embedding_path()]
    if command == "predict":
        argv += ["--input", lines]
    code, stdout, stderr = invoke(capsys, *argv)
    assert code == 2, (stdout, stderr)
    assert stderr.startswith(f"sarv: data error: checkpoint {ckpt} has format SARVCKP1")
    assert "re-run `sarv train`" in stderr and "hash mismatch" not in stderr


@pytest.mark.parametrize("case, word", [
    ("predict_other_shard_dir", "mismatch"),
    ("eval_own_manifest_other_shard_dir", "mismatch"),
    ("train_swapped_vocab", "mismatch"),
    ("predict_tampered_stopwords", "mismatch"),
    ("predict_missing_stopwords", "missing"),
])
def test_mismatched_shard_dir_exits_two(case, word, trained, other_shards, tmp_path, capsys):
    _, shards, run = trained
    ckpt = run / "checkpoint_final.bin"
    emb = bundled_embedding_path()
    lines = tmp_path / "lines.txt"
    lines.write_text("واقعا عالی بود\n", encoding="utf-8")
    predict = ["predict", "--checkpoint", ckpt, "--embeddings", emb, "--input", lines]
    tampered = tmp_path / "shards"
    shutil.copytree(shards, tampered)
    if case == "predict_other_shard_dir":
        argv = predict + ["--shard-dir", other_shards]
    elif case == "eval_own_manifest_other_shard_dir":
        argv = ["eval", "--checkpoint", ckpt, "--embeddings", emb, "--shard-dir", other_shards,
                "--manifest", shards / "test.manifest.json"]
    elif case == "train_swapped_vocab":
        shutil.copy(other_shards / "vocab.tsv", tampered / "vocab.tsv")
        argv = ["train", "--shard-dir", tampered, "--out-dir", tmp_path / "run",
                "--embeddings", emb, "--preset", "W2V_SOFTMAX", "--batch-size", 16]
    elif case == "predict_tampered_stopwords":
        with open(tampered / "stopwords.txt", "a", encoding="utf-8") as fh:
            fh.write(FILLERS[0] + "\n")
        argv = predict + ["--shard-dir", tampered]
    else:
        (tampered / "stopwords.txt").unlink()
        argv = predict + ["--shard-dir", tampered]
    code, stdout, stderr = invoke(capsys, *argv)
    assert code == 2, stdout
    assert word in stderr


@pytest.mark.parametrize("command", ["train", "eval", "predict"])
def test_a_vocab_file_rewritten_with_crlf_line_ends_exits_two(command, trained, tmp_path, capsys):
    # The rewritten file parses to the same vocabulary, but its bytes are not
    # those the manifests and the checkpoint recorded.
    _, shards, run = trained
    crlf = tmp_path / "shards"
    shutil.copytree(shards, crlf)
    vocab = crlf / "vocab.tsv"
    vocab.write_bytes(vocab.read_bytes().replace(b"\n", b"\r\n"))
    assert (parse_token_vocab(vocab.read_bytes().decode("utf-8"))
            == parse_token_vocab((shards / "vocab.tsv").read_text("utf-8")))
    lines = tmp_path / "lines.txt"
    lines.write_text("واقعا عالی بود\n", encoding="utf-8")
    common = ["--shard-dir", crlf, "--embeddings", bundled_embedding_path()]
    argv = {
        "train": ["--out-dir", tmp_path / "run", "--preset", "W2V_SOFTMAX", "--epochs", 1],
        "eval": ["--checkpoint", run / "checkpoint_final.bin"],
        "predict": ["--checkpoint", run / "checkpoint_final.bin", "--input", lines],
    }[command]
    code, stdout, stderr = invoke(capsys, command, *common, *argv)
    assert (code, stdout) == (2, "")
    assert "mismatch: vocab_hash" in stderr


def test_predict_normalizes_with_shard_stopwords(tmp_path, capsys):
    stopwords = frozenset({FILLERS[0], FILLERS[1]})
    stop_file = tmp_path / "stop.txt"
    stop_file.write_text("".join(w + "\n" for w in stopwords), encoding="utf-8")
    corpus = write_corpus_tsv(tmp_path / "c.tsv", separable_rows(60, classes=2, seed=21))
    shards, run = tmp_path / "shards", tmp_path / "run"
    assert invoke(capsys, "shard", "--corpus", corpus, "--out-dir", shards,
                  "--stopwords", stop_file)[0] == 0
    assert invoke(capsys, "train", "--shard-dir", shards, "--out-dir", run,
                  "--embeddings", bundled_embedding_path(), "--preset", "W2V_SOFTMAX",
                  "--epochs", 5, "--batch-size", 16, "--lr", 0.05)[0] == 0
    lines = [f"{FILLERS[0]} {FILLERS[0]} {FILLERS[1]} عالی", f"{FILLERS[1]} {FILLERS[2]} افتضاح"]
    inp = tmp_path / "lines.txt"
    inp.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, stdout, _ = invoke(
        capsys, "predict", "--checkpoint", run / "checkpoint_final.bin", "--shard-dir", shards,
        "--embeddings", bundled_embedding_path(), "--input", inp,
    )
    assert code == 0

    token_vocab = parse_token_vocab((shards / "vocab.tsv").read_text("utf-8"))
    model, _, _ = load_model(run / "checkpoint_final.bin", len(token_vocab))
    char_vocab = parse_char_vocab((shards / "chars.tsv").read_text("utf-8"))
    norm = NormConfig(stopwords=stopwords)
    encoded = [
        encode_sentence(unify_length(tokenize(normalize(ln, norm)), MAX_LEN),
                        token_vocab, char_vocab, label=0)
        for ln in lines
    ]
    labels, probs = model.predict(stack_sentences(encoded, char_vocab.max_word_chars),
                                  emb_matrix_for(token_vocab))
    expected = "".join(
        "\t".join([("negative", "positive")[y]] + [f"{p:.6f}" for p in row]) + "\n"
        for y, row in zip(labels, probs)
    )
    assert stdout == expected
    assert (shards / "stopwords.txt").read_text("utf-8").splitlines() == sorted(stopwords)


def test_eval_and_predict_embed_at_checkpoint_precision(trained, tmp_path, capsys, monkeypatch):
    _, shards, _ = trained
    run = tmp_path / "run"
    assert invoke(capsys, "train", "--shard-dir", shards, "--out-dir", run,
                  "--embeddings", bundled_embedding_path(), "--preset", "W2V_SOFTMAX",
                  "--batch-size", 16, "--precision", "double")[0] == 0
    arrays, _ = load_checkpoint(run / "checkpoint_final.bin")
    stored = arrays["embeddings"]
    assert stored.dtype == np.float64
    token_vocab = parse_token_vocab((shards / "vocab.tsv").read_text("utf-8"))
    np.testing.assert_array_equal(stored, emb_matrix_for(token_vocab, dtype=np.float64))
    used = []
    forward = Model.forward

    def spy(self, batch, emb_matrix, *args, **kwargs):
        used.append(emb_matrix)
        return forward(self, batch, emb_matrix, *args, **kwargs)

    monkeypatch.setattr(Model, "forward", spy)
    common = ["--checkpoint", run / "checkpoint_final.bin", "--shard-dir", shards,
              "--embeddings", bundled_embedding_path()]
    assert invoke(capsys, "eval", *common)[0] == 0
    monkeypatch.setattr("sys.stdin", byte_stdin("عالی\n".encode("utf-8")))
    assert invoke(capsys, "predict", *common)[0] == 0
    assert used
    for emb in used:
        assert emb.dtype == np.float64
        np.testing.assert_array_equal(emb, stored)


def test_predict_from_file_and_stdin(trained, tmp_path, capsys, monkeypatch):
    _, shards, run = trained
    inp = tmp_path / "lines.txt"
    inp.write_text("واقعا عالی بود\n\nافتضاح بود\n", encoding="utf-8")
    code, stdout, _ = invoke(
        capsys, "predict", "--checkpoint", run / "checkpoint_best.bin",
        "--shard-dir", shards, "--embeddings", bundled_embedding_path(),
        "--input", inp, "--out-dir", tmp_path / "pred",
    )
    assert code == 0
    lines = stdout.splitlines()
    assert len(lines) == 2  # blank input line skipped
    for line in lines:
        fields = line.split("\t")
        assert fields[0] in ("negative", "positive")
        probs = [float(x) for x in fields[1:]]
        assert len(probs) == 2
        assert sum(probs) == pytest.approx(1.0, abs=1e-4)
    assert lines[0].split("\t")[0] == "positive"
    assert lines[1].split("\t")[0] == "negative"
    assert (tmp_path / "pred" / "predictions.tsv").read_text("utf-8") == stdout

    stdin = byte_stdin("عالی\n".encode("utf-8"))
    monkeypatch.setattr("sys.stdin", stdin)
    code, stdout, _ = invoke(
        capsys, "predict", "--checkpoint", run / "checkpoint_best.bin",
        "--shard-dir", shards, "--embeddings", bundled_embedding_path(),
    )
    assert code == 0
    assert stdout.splitlines()[0].split("\t")[0] == "positive"
    assert not stdin.buffer.closed  # main() may be called again in the same process


def test_predict_refuses_a_closed_stdin(trained, tmp_path, capsys, monkeypatch):
    _, shards, run = trained
    argv = ("predict", "--checkpoint", run / "checkpoint_best.bin", "--shard-dir", shards,
            "--embeddings", bundled_embedding_path(), "--out-dir", tmp_path / "pred")
    monkeypatch.setattr("sys.stdin", None)  # as `sarv predict ... <&-` starts
    code, stdout, stderr = invoke(capsys, *argv)
    assert (code, stdout) == (1, "")
    assert stderr == "sarv: config error: standard input is closed; pass --input\n"
    assert not (tmp_path / "pred").exists()
    inp = tmp_path / "lines.txt"
    inp.write_text("عالی\n", encoding="utf-8")
    code, stdout, _ = invoke(capsys, *argv, "--input", inp)
    assert code == 0 and stdout.split("\t")[0] == "positive"


def test_predict_splits_input_only_at_line_ends(trained, tmp_path, capsys, monkeypatch):
    _, shards, run = trained
    argv = ("predict", "--checkpoint", run / "checkpoint_best.bin", "--shard-dir", shards,
            "--embeddings", bundled_embedding_path())
    inp = tmp_path / "lines.txt"
    inp.write_bytes("واقعا عالی\u2028بود\x1cخوب\r\nافتضاح\x85بود\rبد\n".encode("utf-8"))
    code, from_file, _ = invoke(capsys, *argv, "--input", inp)
    assert code == 0
    monkeypatch.setattr("sys.stdin", byte_stdin(inp.read_bytes()))
    code, from_stdin, _ = invoke(capsys, *argv)
    assert code == 0
    # Three line ends ("\r\n", "\r", "\n"), so three records, not the six
    # str.splitlines would make.
    assert from_file == from_stdin
    assert len(from_file.splitlines()) == 3


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_predict_refuses_invalid_utf8_naming_the_input_and_byte(source, trained, tmp_path,
                                                                capsys, monkeypatch):
    _, shards, run = trained
    data = "عالی\n".encode("utf-8") + b"bad \xff byte\n"  # 0xff is byte 13
    argv = ["predict", "--checkpoint", run / "checkpoint_best.bin", "--shard-dir", shards,
            "--embeddings", bundled_embedding_path()]
    if source == "file":
        inp = tmp_path / "lines.txt"
        inp.write_bytes(data)
        argv += ["--input", inp]
        name = f"input {inp}"
    else:  # the bytes under a text stdin, as a terminal or pipe gives them
        monkeypatch.setattr("sys.stdin", byte_stdin(data))
        name = "standard input"
    code, stdout, err = invoke(capsys, *argv)
    assert (code, stdout) == (2, "")
    assert err == f"sarv: data error: {name} is not valid UTF-8 at byte 13\n"


def test_train_on_embeddings_with_invalid_utf8_exits_two(trained, tmp_path, capsys):
    _, shards, _ = trained
    vectors = tmp_path / "glove_50d.txt"
    vectors.write_bytes(bundled_embedding_path().read_bytes() + b"\xffbad " + b"0.5 " * 50 + b"\n")
    code, stdout, err = invoke(capsys, "train", "--shard-dir", shards, "--out-dir",
                               tmp_path / "run", "--embeddings", vectors)
    assert (code, stdout) == (2, "")
    assert err.startswith(f"sarv: data error: embeddings {vectors} is not valid UTF-8")
    assert not (tmp_path / "run" / "report.jsonl").exists()


def test_predict_counts_blank_and_tokenless_lines_on_stderr(trained, tmp_path, capsys):
    _, shards, run = trained
    argv = ("predict", "--checkpoint", run / "checkpoint_best.bin", "--shard-dir", shards,
            "--embeddings", bundled_embedding_path(), "--input")
    clean, noisy, kept = tmp_path / "clean.txt", tmp_path / "noisy.txt", tmp_path / "kept.txt"
    clean.write_text("عالی\nافتضاح\n", encoding="utf-8")
    # Three blank lines ("", "  \t", ""); "!!!" and "123" keep no token.
    noisy.write_text("\nعالی\n  \t\n!!!\nافتضاح\n123\n\n", encoding="utf-8")
    kept.write_text("عالی\n!!!\nافتضاح\n123", encoding="utf-8")

    code, stdout, stderr = invoke(capsys, *argv, clean)
    assert code == 0 and len(stdout.splitlines()) == 2
    assert stderr == ""
    code, from_noisy, stderr = invoke(capsys, *argv, noisy)
    assert code == 0
    assert stderr == ("warning: dropped 3 blank input line(s)\n"
                      "warning: 2 input line(s) normalised to no token\n")
    code, from_kept, stderr = invoke(capsys, *argv, kept)
    assert code == 0
    assert stderr == "warning: 2 input line(s) normalised to no token\n"
    assert from_noisy == from_kept
    assert from_noisy.splitlines()[0] == stdout.splitlines()[0]
    assert from_noisy.splitlines()[2] == stdout.splitlines()[1]


# Run in a fresh interpreter: sarv with the given arguments, then the names in
# sys.modules, one a line, into the file named first.
_LIST_MODULES = """\
import sys
from sarv.cli import main
code = main(sys.argv[2:])
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    fh.write("\\n".join(sorted(sys.modules)))
sys.exit(code)
"""

# What only shard, train, eval, stats and a --config file use.
TRAINING_ONLY_MODULES = {"sarv.train", "sarv.metrics", "configparser"}


def modules_loaded_by(tmp_path, *argv) -> set[str]:
    listing = tmp_path / "modules.txt"
    src = Path(sarv.cli.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", _LIST_MODULES, str(listing), *map(str, argv)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(listing.read_text("utf-8").split())


def test_predict_and_help_load_no_training_code(trained, tmp_path):
    _, shards, run = trained
    inp = tmp_path / "lines.txt"
    inp.write_text("واقعا عالی بود\n", encoding="utf-8")
    loaded = modules_loaded_by(tmp_path, "predict", "--checkpoint", run / "checkpoint_best.bin",
                               "--shard-dir", shards, "--embeddings", bundled_embedding_path(),
                               "--input", inp, "--out-dir", tmp_path / "pred")
    assert (tmp_path / "pred" / "predictions.tsv").exists()  # a whole predict ran
    assert {"sarv.cli", "sarv.models", "sarv.corpus"} <= loaded
    assert not loaded & TRAINING_ONLY_MODULES
    loaded = modules_loaded_by(tmp_path, "--help")
    assert "sarv.cli" in loaded
    assert not loaded & TRAINING_ONLY_MODULES


def test_predict_scores_in_batches_of_the_configured_size(trained, tmp_path, capsys,
                                                          monkeypatch):
    _, shards, run = trained
    words = ["واقعا", "عالی", "بود", "افتضاح", *FILLERS[:3]]
    lines = [" ".join(words[k % len(words):] + words[:k % 3 + 1]) for k in range(11)]
    inp = tmp_path / "lines.txt"
    inp.write_text("\n".join(lines) + "\n", encoding="utf-8")
    ini = tmp_path / "batch.ini"
    ini.write_text("[train]\nbatch_size = 4\n", encoding="utf-8")
    ckpt = run / "checkpoint_best.bin"
    rows = []
    forward = Model.forward

    def spy(self, batch, *args, **kwargs):
        rows.append(len(batch))
        return forward(self, batch, *args, **kwargs)

    monkeypatch.setattr(Model, "forward", spy)
    code, stdout, _ = invoke(capsys, "predict", "--config", ini, "--checkpoint", ckpt,
                             "--shard-dir", shards, "--embeddings", bundled_embedding_path(),
                             "--input", inp)
    monkeypatch.undo()
    assert code == 0
    assert rows == [4, 4, 3]

    encoder, _ = Encoder.load(shards)
    model, emb, _ = load_model(ckpt, len(encoder.token_vocab))
    encoded = [encode_sentence(unify_length(tokenize(normalize(ln, encoder.norm)), MAX_LEN),
                               encoder.token_vocab, encoder.char_vocab, label=0)
               for ln in lines]
    labels, probs = model.predict(stack_sentences(encoded, encoder.char_vocab.max_word_chars), emb)
    assert stdout == "".join(
        "\t".join([("negative", "positive")[y]] + [f"{p:.6f}" for p in row]) + "\n"
        for y, row in zip(labels, probs)
    )


def test_stats_reports_category_table(tmp_path, capsys):
    rows = [
        RawRecord(text="متن", label=label, category="Mobile")
        for label, n in (("positive", 546), ("negative", 107), ("neutral", 92))
        for _ in range(n)
    ]
    corpus = write_corpus_tsv(tmp_path / "mob.tsv", rows)
    code, stdout, _ = invoke(
        capsys, "stats", "--corpus", corpus, "--classes", "3",
        "--out-dir", tmp_path / "out",
    )
    assert code == 0
    parsed = [[f.strip() for f in line.split("\t")] for line in stdout.splitlines()]
    assert parsed[0] == ["category", "positive", "negative", "neutral"]
    assert ["Mobile", "546", "107", "92"] in parsed
    assert parsed[-1] == ["total", "546", "107", "92"]
    assert (tmp_path / "out" / "stats.tsv").exists()


def test_stats_reports_a_malformed_row_and_exits_two_past_the_threshold(tmp_path, capsys):
    corpus = tmp_path / "bad.tsv"
    corpus.write_text("text\tlabel\tcategory\nخوب\tpositive\tMobile\nبد\n"
                      "بد\tnegative\tBook\nعالی\t1\n", encoding="utf-8")
    code, stdout, stderr = invoke(capsys, "stats", "--corpus", corpus, "--classes", "2")
    assert code == 0
    assert stderr == "warning: skipped line 3: missing column: list index out of range\n"
    assert stdout == ("category\tpositive\tnegative\n(none)  \t1\t0\nBook    \t0\t1\n"
                      "Mobile  \t1\t0\ntotal   \t2\t1\n")
    code, stdout, stderr = invoke(capsys, "stats", "--corpus", corpus, "--max-bad-rows", 0)
    assert (code, stdout) == (2, "")
    assert stderr == ("sarv: data error: 1 malformed rows exceed threshold 0; first: line 3: "
                      "missing column: list index out of range\n")


@pytest.mark.parametrize("command", ["train", "eval", "predict"])
def test_embeddings_of_the_wrong_dimension_exit_two(command, trained, tmp_path, capsys,
                                                    monkeypatch):
    _, shards, run = trained
    wide = tmp_path / "glove_100d.txt"
    wide.write_text("".join(f"{w} " + " ".join(["0.25"] * 100) + "\n" for w in FILLERS),
                    encoding="utf-8")
    argv = {
        "train": ["train", "--shard-dir", shards, "--out-dir", tmp_path / "run"],
        "eval": ["eval", "--checkpoint", run / "checkpoint_best.bin", "--shard-dir", shards],
        "predict": ["predict", "--checkpoint", run / "checkpoint_best.bin", "--shard-dir", shards],
    }[command]
    monkeypatch.setattr("sys.stdin", byte_stdin("عالی\n".encode("utf-8")))
    code, stdout, err = invoke(capsys, *argv, "--embeddings", wide)
    assert code == 2
    assert stdout == ""
    assert str(wide) in err
    if command == "train":
        assert "50 finite components" in err
    else:  # eval and predict read the checkpoint's matrix and check the file's hash
        assert "mismatch" in err and "sha256" in err
    assert not (tmp_path / "run" / "report.jsonl").exists()


@pytest.mark.parametrize("command", ["eval", "predict"])
@pytest.mark.parametrize("problem", ["other_values", "missing"])
def test_eval_and_predict_refuse_embeddings_the_checkpoint_was_not_trained_on(
        command, problem, trained, tmp_path, capsys, monkeypatch):
    _, shards, run = trained
    vectors = tmp_path / "glove_other_50d.txt"
    if problem == "other_values":  # the bundled tokens, 50-d, every value changed
        vectors.write_text("".join(
            ln.split()[0] + " " + " ".join(f"{float(v) + 0.5:.6f}" for v in ln.split()[1:]) + "\n"
            for ln in bundled_embedding_path().read_text("utf-8").splitlines() if ln.strip()
        ), encoding="utf-8")
    monkeypatch.setattr("sys.stdin", byte_stdin("عالی\n".encode("utf-8")))
    code, stdout, err = invoke(capsys, command, "--checkpoint", run / "checkpoint_best.bin",
                               "--shard-dir", shards, "--embeddings", vectors)
    assert code == 2
    assert stdout == ""
    assert "data error" in err and str(vectors) in err


def test_eval_and_predict_read_the_stored_matrix_without_parsing(trained, capsys, monkeypatch):
    _, shards, run = trained

    def refuse(*args, **kwargs):
        raise AssertionError("eval and predict must not parse the embeddings file")

    monkeypatch.setattr("sarv.cli.load_embeddings", refuse)
    monkeypatch.setattr("sarv.cli.embedding_matrix", refuse)
    common = ["--checkpoint", run / "checkpoint_best.bin", "--shard-dir", shards,
              "--embeddings", bundled_embedding_path()]
    code, stdout, _ = invoke(capsys, "eval", *common)
    assert code == 0 and "accuracy" in stdout
    monkeypatch.setattr("sys.stdin", byte_stdin("عالی\n".encode("utf-8")))
    code, stdout, _ = invoke(capsys, "predict", *common)
    assert code == 0 and stdout.split("\t")[0] == "positive"

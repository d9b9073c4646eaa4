"""Tests of the benchmark itself (not part of the sarv test suite).

Run from the repository root::

    python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import json

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from sarv.corpus import encode_sentence, read_corpus  # noqa: E402
from sarv.embed import (  # noqa: E402
    build_char_vocab, build_token_vocab, embedding_matrix, load_embeddings,
)
from sarv.textproc import MAX_LEN, NormConfig, normalize, tokenize, unify_length  # noqa: E402

TINY = inputs.InputSpec(rows=60, min_tokens=2, max_tokens=18, vocab=120, embed_lines=150,
                        predict_lines=7, noise=True)


def _files(d: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


def test_generator_is_byte_identical_per_seed(tmp_path):
    src = ROOT / "src"
    inputs.generate("w", TINY, 5, tmp_path / "a", src)
    inputs.generate("w", TINY, 5, tmp_path / "b", src)
    inputs.generate("w", TINY, 6, tmp_path / "c", src)
    a, b, c = (_files(tmp_path / k) for k in "abc")
    assert a == b
    assert a["corpus.tsv"] != c["corpus.tsv"]


def test_generated_rows_normalize_to_labelled_reviews(tmp_path):
    src = ROOT / "src"
    inputs.generate("w", TINY, 1, tmp_path, src)
    raw, skipped = read_corpus(tmp_path / "corpus.tsv")
    assert not skipped and len(raw) == TINY.rows
    norm = NormConfig.default()
    for rec in raw:
        toks = tokenize(normalize(rec.text, norm)).tokens
        assert TINY.min_tokens <= len(toks) <= TINY.max_tokens
        cue = toks.index(inputs.CUE)
        assert cue + 1 < MAX_LEN
        wanted = inputs.POSITIVE if rec.label == "positive" else inputs.NEGATIVE
        assert toks[cue + 1] in wanted
    lines = (tmp_path / "vectors.txt").read_text("utf-8").splitlines()
    assert len(lines) == TINY.embed_lines
    assert all(len(line.split()) == 51 for line in lines)


def test_self_time_on_hand_built_tree():
    # root [0, 10] -> a [1, 4] -> c [2, 3]
    #              -> b [5, 9]
    # d [0, 6] is the root of another thread.
    parent = np.array([-1, 0, 0, 1, -1], dtype=np.int32)
    start = np.array([0.0, 1.0, 5.0, 2.0, 0.0])
    end = np.array([10.0, 4.0, 9.0, 3.0, 6.0])
    np.testing.assert_allclose(tracer.self_times(parent, start, end), [3, 2, 4, 1, 6])

    spans = {"name": np.array([0, 1, 1, 2, 3]), "parent": parent, "start": start,
             "end": end, "names": ["root", "child", "leaf", "other"]}
    summ = tracer.summarize(spans)
    assert summ["child"]["calls"] == 2
    assert summ["child"]["self_s"] == pytest.approx(6.0)
    assert summ["child"]["s"] == pytest.approx(7.0)
    assert summ["root"]["self_s"] == pytest.approx(3.0)


def test_tracer_records_nested_spans_and_names_missing_hooks(monkeypatch):
    from sarv.train import ShardReader

    monkeypatch.setattr(ShardReader, "__iter__", ShardReader.__iter__)
    t = tracer.Tracer()
    outer = t.open("outer")
    inner = t.wrap("inner", lambda x: x + 1)
    assert inner(1) == 2
    t.close(outer)
    assert list(t.parent) == [-1, 0]
    assert t.names == ["outer", "inner"]
    monkeypatch.setattr(tracer, "_hooks", lambda tr: [
        ("sarv.nn", "NoSuchLayer.forward", "x", None),
        ("sarv.nn", "no_such_function", "y", None),
    ])
    assert tracer.install_hooks(t) == ["sarv.nn:NoSuchLayer.forward", "sarv.nn:no_such_function"]


@pytest.fixture(scope="module")
def tiny_batch(tmp_path_factory):
    """Records, char ids and embedding matrix of a generated tiny corpus."""
    d = tmp_path_factory.mktemp("tiny")
    inputs.generate("w", TINY, 3, d, ROOT / "src")
    raw, _ = read_corpus(d / "corpus.tsv")
    norm = NormConfig.default()
    seqs = [tokenize(normalize(r.text, norm)) for r in raw]
    tv, cv = build_token_vocab(seqs), build_char_vocab(seqs)
    recs = [encode_sentence(unify_length(s, MAX_LEN), tv, cv, 0) for s in seqs]
    emb = embedding_matrix(load_embeddings(d / "vectors.txt"), tv)
    return recs, emb, tv


def test_useful_step_ratio_matches_brute_force(tiny_batch):
    recs, _, _ = tiny_batch
    lengths = np.array([max(r.true_length, 1) for r in recs])
    real, total = tracer.useful_step_counts(lengths, MAX_LEN)
    assert real == sum(max(r.true_length, 1) for r in recs)
    assert total == len(recs) * MAX_LEN

    ids = np.array([r.char_ids for r in recs]).reshape(len(recs) * MAX_LEN, -1)
    real_chars, steps = tracer.char_step_counts(ids)
    brute = 0
    for row in ids.tolist():
        nz = [k for k, c in enumerate(row) if c]
        brute += nz[-1] + 1 if nz else 0
    assert real_chars == brute
    assert steps == ids.size


def test_unique_token_ratio_matches_brute_force(tiny_batch):
    recs, _, tv = tiny_batch
    ids = np.array([r.char_ids for r in recs]).reshape(len(recs) * MAX_LEN, -1)
    unique, slots = tracer.unique_token_count(ids)
    assert slots == len(recs) * MAX_LEN
    assert unique == len({tuple(row) for row in ids.tolist() if any(row)})
    # Every distinct word is a distinct char row here (no word exceeds 20 chars).
    words = {tv.tokens[t - 1] for r in recs for t in r.token_ids if t}
    assert unique == len(words)


def test_oov_slot_ratio_matches_brute_force(tiny_batch):
    recs, emb, _ = tiny_batch
    token_ids = np.array([r.token_ids for r in recs])
    lengths = np.array([r.true_length for r in recs])
    oov, real = tracer.oov_slot_counts(token_ids, lengths, emb)
    brute_oov = brute_real = 0
    for r in recs:
        for t in r.token_ids[: r.true_length]:
            brute_real += 1
            brute_oov += not np.any(emb[t])
    assert (oov, real) == (brute_oov, brute_real)
    assert 0 < oov < real


BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_the_workloads_and_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert e2e == run.END_TO_END_UNITS


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_tiny_smoke_run(name):
    wl = run.WORKLOADS[name]
    tiny = replace(wl, inputs=replace(wl.inputs, rows=200, vocab=300, embed_lines=400,
                                      predict_lines=9),
                   shard_size=min(wl.shard_size, 50))
    result = run.run_workload(f"selftest-{name}", tiny, 1, 0.0, name == "char_short", ROOT)
    checks = result["checks"]
    assert "error" not in result, result.get("error")
    assert not checks.failures
    assert set(result["e2e"]) == set(run.END_TO_END_UNITS) | set(run.UNGATED_UNITS)
    assert all(v > 0 for v in result["e2e"].values())
    if name == "char_short":
        assert not result["missing"]
        layers = result["layers"]
        assert {k: u for k, (_, u) in layers.items()} == {
            m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        assert layers["nn.char_lstm.forward.s"][0] > 0
        assert 0 < layers["nn.word_lstm.useful_step_ratio"][0] < 1
        assert layers["train.shard_reader.records"][0] > 0

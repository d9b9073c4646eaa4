"""Corpus reading, label schemes, and encoded-record serialization."""

from __future__ import annotations

import json

import pytest

from sarv.corpus import (
    EncodedSentence,
    Encoder,
    LabelScheme,
    RawRecord,
    encode_sentence,
    preprocess_records,
    read_corpus,
)
from sarv.embed import build_char_vocab, build_token_vocab
from sarv.errors import ConfigError, DataError
from sarv.textproc import NormConfig, tokenize, unify_length

from conftest import REVIEWS_TSV


# ---------------------------------------------------------------------------
# label schemes
# ---------------------------------------------------------------------------


def test_label_scheme_binary_and_ternary():
    binary = LabelScheme.for_num_classes(2)
    assert binary.classes == ("negative", "positive")
    ternary = LabelScheme.for_num_classes(3)
    assert ternary.classes == ("negative", "neutral", "positive")
    with pytest.raises(ConfigError):
        LabelScheme.for_num_classes(4)


def test_label_index_accepts_names_and_integers():
    scheme = LabelScheme.for_num_classes(3)
    assert scheme.label_index("negative") == 0
    assert scheme.label_index("  Neutral ") == 1
    assert scheme.label_index("positive") == 2
    assert scheme.label_index("2") == 2
    assert scheme.label_index(0) == 0


def test_label_index_rejects_bad_labels():
    scheme = LabelScheme.for_num_classes(2)
    with pytest.raises(DataError):
        scheme.label_index("mixed")
    with pytest.raises(DataError):
        scheme.label_index("5")
    with pytest.raises(DataError):
        scheme.label_index(-1)


# ---------------------------------------------------------------------------
# readers
# ---------------------------------------------------------------------------


def test_read_fixture_tsv():
    records, skipped = read_corpus(REVIEWS_TSV)
    assert len(records) == 6
    assert not skipped
    assert records[0].category == "IT"
    assert {r.label for r in records} == {"positive", "negative"}


def test_read_csv_with_header(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text('text,label\n"خوب, خیلی خوب",positive\nبد,negative\n', encoding="utf-8")
    records, skipped = read_corpus(p)
    assert [r.label for r in records] == ["positive", "negative"]
    assert records[0].text == "خوب, خیلی خوب"
    assert not skipped


def test_read_headerless_with_integer_columns(tmp_path):
    p = tmp_path / "c.tsv"
    p.write_text("خوب\tpositive\nبد\tnegative\n", encoding="utf-8")
    records, _ = read_corpus(p, text_col=0, label_col=1, category_col=None)
    assert [r.text for r in records] == ["خوب", "بد"]
    assert records[0].source_id == 1  # rows count from 1 when headerless


def test_read_jsonl(tmp_path):
    p = tmp_path / "c.jsonl"
    rows = [
        {"text": "خوب", "label": "positive", "category": "A"},
        {"text": "بد", "label": "negative"},
    ]
    p.write_text("\n".join(json.dumps(r, ensure_ascii=False) for r in rows), encoding="utf-8")
    records, skipped = read_corpus(p)
    assert len(records) == 2 and not skipped
    assert records[0].category == "A"
    assert records[1].category is None


def test_read_jsonl_skips_malformed_lines(tmp_path):
    p = tmp_path / "c.jsonl"
    p.write_text(
        '{"text": "خوب", "label": "positive"}\n'
        "not json\n"
        '{"label": "negative"}\n'  # missing text key
        '{"text": "بد", "label": "negative"}\n',
        encoding="utf-8",
    )
    records, skipped = read_corpus(p)
    assert len(records) == 2
    assert [s.line_no for s in skipped] == [2, 3]


def test_read_fails_past_bad_row_threshold(tmp_path):
    p = tmp_path / "c.jsonl"
    p.write_text("junk\n" * 5 + '{"text":"خوب","label":"positive"}\n', encoding="utf-8")
    records, skipped = read_corpus(p, max_bad_rows=5)
    assert len(records) == 1 and len(skipped) == 5
    with pytest.raises(DataError) as exc:
        read_corpus(p, max_bad_rows=4)
    assert "line 1" in str(exc.value)


def test_read_rejects_invalid_utf8(tmp_path):
    p = tmp_path / "c.tsv"
    p.write_bytes(b"text\tlabel\n\xff\xfe\tpositive\n")
    with pytest.raises(DataError) as exc:
        read_corpus(p)
    assert "byte 11" in str(exc.value)


def test_read_missing_file_is_data_error(tmp_path):
    with pytest.raises(DataError):
        read_corpus(tmp_path / "absent.tsv")


def test_format_inference_and_override(tmp_path):
    p = tmp_path / "data.weird"
    p.write_text("text\tlabel\nخوب\tpositive\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        read_corpus(p)
    records, _ = read_corpus(p, fmt="tsv")
    assert len(records) == 1
    with pytest.raises(ConfigError):
        read_corpus(p, fmt="parquet")


def test_read_delimited_skips_short_rows(tmp_path):
    p = tmp_path / "c.tsv"
    p.write_text("text\tlabel\nخوب\tpositive\nتنها\n", encoding="utf-8")
    records, skipped = read_corpus(p, category_col=None)
    assert len(records) == 1
    assert [s.line_no for s in skipped] == [3]


# ---------------------------------------------------------------------------
# encoded records
# ---------------------------------------------------------------------------


def make_vocabs(*texts):
    token_seqs = [tokenize(t) for t in texts]
    return build_token_vocab(token_seqs), build_char_vocab(token_seqs, max_word_chars=5)


def test_encode_sentence_fields():
    token_vocab, char_vocab = make_vocabs("خوب بد")
    fixed = unify_length(["خوب", "خارج"])  # second word OOV, first char known
    enc = encode_sentence(fixed, token_vocab, char_vocab, label=1)
    assert len(enc.token_ids) == 15
    assert enc.token_ids[0] == token_vocab.token_id("خوب")
    assert enc.token_ids[1] == 0  # OOV token id
    assert enc.true_length == 2
    assert enc.label == 1
    assert len(enc.char_ids) == 15
    assert len(enc.char_ids[0]) == 5
    assert any(enc.char_ids[1])  # OOV word still has known characters
    assert not any(enc.char_ids[2])  # PAD slot has all-zero chars


def test_json_line_trims_trailing_char_zeros():
    token_vocab, char_vocab = make_vocabs("با")
    enc = encode_sentence(unify_length(["با"]), token_vocab, char_vocab, label=0)
    obj = json.loads(enc.to_json_line())
    assert obj["len"] == 1 and obj["y"] == 0
    assert len(obj["c"][0]) == 2  # trailing zeros dropped
    assert obj["c"][1] == []  # PAD slot serializes empty


def test_json_line_round_trip():
    token_vocab, char_vocab = make_vocabs("خوب بد زشت")
    fixed = unify_length(["زشت", "خوب", "بد"])
    enc = encode_sentence(fixed, token_vocab, char_vocab, label=2)
    obj = json.loads(enc.to_json_line())
    chars = tuple(tuple(row) + (0,) * (5 - len(row)) for row in obj["c"])
    assert EncodedSentence(tuple(obj["t"]), chars, obj["len"], obj["y"]) == enc


def test_encoder_round_trip_and_check(tmp_path):
    token_vocab, char_vocab = make_vocabs("خوب بد کتاب")
    norm = NormConfig(stopwords=frozenset({"كتاب", "Very "}))  # Arabic kaf, case, padding
    encoder = Encoder(norm, token_vocab, char_vocab)
    encoder.save(tmp_path)
    assert (tmp_path / "stopwords.txt").read_text("utf-8") == "very\nکتاب\n"
    back = Encoder.load(tmp_path)
    hashes = encoder.hashes()
    assert back == encoder
    assert back.hashes() == hashes
    back.check(hashes, "manifest")
    fixed = unify_length(["خوب", "بد"])
    assert back.encode(fixed, 1) == encode_sentence(fixed, token_vocab, char_vocab, 1)
    for key in hashes:
        empty = {**hashes, key: ""}
        missing = {k: v for k, v in hashes.items() if k != key}
        for recorded in (empty, missing):
            with pytest.raises(DataError, match="mismatch"):
                back.check(recorded, "manifest")
    (tmp_path / "chars.tsv").write_text("x\t7\n", encoding="utf-8")
    with pytest.raises(DataError, match="corrupt"):
        Encoder.load(tmp_path)
    (tmp_path / "vocab.tsv").unlink()
    with pytest.raises(DataError, match="missing"):
        Encoder.load(tmp_path)


# ---------------------------------------------------------------------------
# preprocess + labels
# ---------------------------------------------------------------------------


def test_preprocess_records_keeps_pretruncation_sequence():
    raw = [RawRecord(text=" ".join(["خوب"] * 20), label="positive", source_id=7)]
    [(seq, fixed, rec)] = preprocess_records(raw, NormConfig(stopwords=frozenset()), max_len=15)
    assert len(seq.tokens) == 20
    assert fixed.true_length == 15
    assert rec is raw[0]
    assert seq.source_id == 7

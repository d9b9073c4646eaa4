"""Corpus reading, label schemes, and encoded-record serialization."""

from __future__ import annotations

import hashlib
import json

import pytest

from sarv.corpus import (
    EncodedSentence,
    Encoder,
    LabelScheme,
    RawRecord,
    check_hashes,
    encode_corpus,
    encode_sentence,
    read_corpus,
)
from sarv.embed import (build_char_vocab, build_token_vocab, serialize_char_vocab,
                        serialize_token_vocab)
from sarv.errors import ConfigError, DataError
from sarv.textproc import MAX_LEN, NormConfig, TokenTable, tokenize, unify_length

from conftest import REVIEWS_TSV, stack_sentences


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


def test_jsonl_text_holding_a_line_separator_is_one_record(tmp_path):
    p = tmp_path / "c.jsonl"
    rows = [{"text": "خوب\u2028عالی\x85", "label": "positive"}, {"label": "negative"},
            {"text": "بد", "label": "negative"}]
    lines = [json.dumps(r, ensure_ascii=False) for r in rows]
    for first_ends, last_end in (("\r\n", "\n"), ("\r", "\r")):
        p.write_bytes((first_ends.join(lines) + last_end + "not json\n").encode("utf-8"))
        records, skipped = read_corpus(p)
        assert [r.text for r in records] == ["خوب\u2028عالی\x85", "بد"]
        assert [s.line_no for s in skipped] == [2, 4]


def test_tsv_row_holding_a_file_separator_is_one_record(tmp_path):
    p = tmp_path / "c.tsv"
    p.write_text("text\tlabel\nخوب\x1cعالی\tpositive\nبد\x0bزشت\x0c\tnegative\n",
                 encoding="utf-8")
    records, skipped = read_corpus(p, category_col=None)
    assert [(r.text, r.label) for r in records] == [("خوب\x1cعالی", "positive"),
                                                     ("بد\x0bزشت\x0c", "negative")]
    assert not skipped


def test_quoted_csv_field_keeps_its_line_feed(tmp_path):
    p = tmp_path / "c.csv"
    p.write_bytes('text,label\r\n"a\nb",positive\r\nتنها\r\nبد,negative\r\n'.encode("utf-8"))
    records, skipped = read_corpus(p, category_col=None)
    assert [(r.text, r.label) for r in records] == [("a\nb", "positive"), ("بد", "negative")]
    assert [s.line_no for s in skipped] == [4]  # the quoted field spans lines 2 and 3


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
    hashes = encoder.save(tmp_path)
    assert (tmp_path / "stopwords.txt").read_text("utf-8") == "very\nکتاب\n"
    for name, text, key in (("vocab.tsv", serialize_token_vocab(token_vocab), "vocab_hash"),
                            ("chars.tsv", serialize_char_vocab(char_vocab), "char_vocab_hash")):
        assert (tmp_path / name).read_bytes() == text.encode("utf-8")
        assert hashes[key] == hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert hashes["norm_config_hash"] == norm.config_hash()
    back, back_hashes = Encoder.load(tmp_path)
    assert back == encoder
    assert back_hashes == hashes
    check_hashes(back_hashes, hashes, "manifest")
    fixed = unify_length(["خوب", "بد"])
    want = stack_sentences([encode_sentence(fixed, token_vocab, char_vocab, 1)],
                           char_vocab.max_word_chars)
    assert back.encode_texts(["خوب بد"], [1], MAX_LEN).tobytes() == want.tobytes()
    for key in hashes:
        empty = {**hashes, key: ""}
        missing = {k: v for k, v in hashes.items() if k != key}
        for recorded in (empty, missing):
            with pytest.raises(DataError, match="mismatch"):
                check_hashes(back_hashes, recorded, "manifest")
    (tmp_path / "chars.tsv").write_text("x\t7\n", encoding="utf-8")
    with pytest.raises(DataError, match="corrupt"):
        Encoder.load(tmp_path)
    (tmp_path / "vocab.tsv").unlink()
    with pytest.raises(DataError, match="missing"):
        Encoder.load(tmp_path)


def test_a_vocab_file_with_crlf_line_ends_parses_alike_but_hashes_apart(tmp_path):
    token_vocab, char_vocab = make_vocabs("خوب بد کتاب")
    encoder = Encoder(NormConfig(stopwords=frozenset()), token_vocab, char_vocab)
    hashes = encoder.save(tmp_path)
    vocab = tmp_path / "vocab.tsv"
    vocab.write_bytes(vocab.read_bytes().replace(b"\n", b"\r\n"))
    back, back_hashes = Encoder.load(tmp_path)
    assert back == encoder
    assert back_hashes == {**hashes, "vocab_hash": hashlib.sha256(vocab.read_bytes()).hexdigest()}
    with pytest.raises(DataError, match="mismatch: vocab_hash"):
        check_hashes(back_hashes, hashes, "manifest")


# ---------------------------------------------------------------------------
# preprocess + labels
# ---------------------------------------------------------------------------


def test_token_table_keeps_pretruncation_sequence():
    norm = NormConfig(stopwords=frozenset())
    text = " ".join(["خوب"] * 20)
    [seq] = TokenTable(norm).number_many([text])
    assert len(seq) == 20
    encoded, _ = encode_corpus([RawRecord(text, "positive")], norm, LabelScheme.for_num_classes(2))
    assert encoded.lengths.tolist() == [20]
    [rec] = Encoder(norm, *make_vocabs("خوب")).encode_texts([text], [1], MAX_LEN)
    assert rec["len"] == MAX_LEN == 15

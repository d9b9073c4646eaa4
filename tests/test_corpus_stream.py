"""The chunked corpus path: ``CorpusReader`` -> ``encode_corpus`` -> ``write_shards``.

``shard`` and ``preprocess`` read, tokenize and encode a corpus
``TOKENIZE_CHUNK`` reviews at a time, reading the file ``READ_BYTES`` at a
time.  These tests pin that neither size shows in any artifact or error,
that the result equals the per-review path (``read_corpus`` -> ``normalize``
-> ``tokenize`` -> vocabularies -> ``unify_length`` -> ``encode_sentence``)
in any row order, and that ``shard`` and ``preprocess`` hold well under one
record array: records are gathered only a chunk at a time, as written.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import tracemalloc

import numpy as np
import pytest

import sarv.corpus
import sarv.textproc
from sarv.cli import main
from sarv.corpus import (CorpusReader, Encoder, LabelScheme, encode_corpus, encode_sentence,
                         read_corpus, record_dtype)
from sarv.embed import build_char_vocab, build_token_vocab
from sarv.errors import DataError
from sarv.textproc import MAX_LEN, NormConfig, length_histogram, normalize, tokenize, unify_length
from sarv.train import split_indices, undersample_indices

from conftest import separable_rows, stack_sentences

FORMATS = ("csv", "tsv", "jsonl")
# (reviews per chunk, bytes per read): block ends fall inside multi-byte
# characters, inside "\r\n" pairs and inside quoted multi-line fields.
SIZES = [(1, 5), (2, 64), (3, 1 << 16), (1024, 3)]


def corpus_text(fmt: str, n: int = 40) -> str:
    """``n`` reviews in ``fmt`` with "\r\n" (and "\r") line ends, multi-line texts and bad rows."""
    rows = separable_rows(n, classes=2, seed=31)
    lines = []
    if fmt == "jsonl":
        for k, rec in enumerate(rows):
            text = rec.text + ("\nو\r\nهمچنین" if k % 7 == 3 else "")
            lines.append(json.dumps({"text": text, "label": rec.label, "category": "Noise"},
                                    ensure_ascii=False))
            if k % 9 == 4:
                lines += ["not json", '{"label": "negative"}', ""]
        ends = ("\r\n", "\r", "\n")  # JSONL lines may end at a lone "\r" too
        return "".join(line + ends[k % 3] for k, line in enumerate(lines))
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter="," if fmt == "csv" else "\t", lineterminator="\r\n")
    writer.writerow(["text", "label", "category"])
    for k, rec in enumerate(rows):
        # A text holding a line end or the delimiter is quoted and may span lines.
        text = rec.text + ("\nو, «همچنین»\t\r\nآخر" if k % 7 == 3 else "")
        writer.writerow([text, rec.label, "Noise"])
        if k % 9 == 4:
            buf.write("تنها\r\n\r\n")  # a row without its label column, then a blank line
    return buf.getvalue()


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    base = tmp_path_factory.mktemp("stream_corpora")
    paths = {}
    for fmt in FORMATS:
        paths[fmt] = base / f"corpus.{fmt}"
        paths[fmt].write_bytes(corpus_text(fmt).encode("utf-8"))
    return paths


def digests(out_dir) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir()) if p.name != "resolved.ini"}


COMMANDS = {
    "preprocess": ("preprocess",),
    "shard": ("shard", "--seed", "5", "--shard-size", "4"),
    "shard-rus": ("shard", "--seed", "5", "--shard-size", "4", "--rus"),
}


def run_all(corpus, out_base) -> dict[str, dict[str, str]]:
    out = {}
    for name, (command, *flags) in COMMANDS.items():
        assert main([command, "--corpus", str(corpus), "--out-dir", str(out_base / name),
                     *flags]) == 0
        out[name] = digests(out_base / name)
    return out


@pytest.fixture(scope="module")
def reference(corpora, tmp_path_factory):
    """Every artifact at the default chunk and read sizes."""
    base = tmp_path_factory.mktemp("stream_reference")
    return {fmt: run_all(path, base / fmt) for fmt, path in corpora.items()}


@pytest.mark.parametrize("chunk, read_bytes", SIZES)
@pytest.mark.parametrize("fmt", FORMATS)
def test_artifacts_do_not_depend_on_chunk_or_read_size(fmt, chunk, read_bytes, corpora, reference,
                                                       tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sarv.textproc, "TOKENIZE_CHUNK", chunk)
    monkeypatch.setattr(sarv.corpus, "READ_BYTES", read_bytes)
    assert run_all(corpora[fmt], tmp_path) == reference[fmt]
    skipped = [ln for ln in capsys.readouterr().err.splitlines() if "skipped line" in ln]
    assert len(skipped) == (3 * 8 if fmt == "jsonl" else 3 * 4)  # each run names each bad row


@pytest.mark.parametrize("chunk, read_bytes", SIZES)
@pytest.mark.parametrize("fmt", FORMATS)
def test_encode_corpus_equals_the_per_review_path(fmt, chunk, read_bytes, corpora, monkeypatch):
    norm = NormConfig.default()
    scheme = LabelScheme.for_num_classes(2)
    records, skipped = read_corpus(corpora[fmt])
    assert len(records) == 40 and any("\n" in r.text for r in records)
    seqs = [tokenize(normalize(r.text, norm)) for r in records]
    encoder = Encoder(norm, build_token_vocab(seqs), build_char_vocab(seqs))
    want = stack_sentences(
        [encode_sentence(unify_length(seq, MAX_LEN), encoder.token_vocab, encoder.char_vocab,
                         scheme.label_index(r.label)) for seq, r in zip(seqs, records)],
        encoder.char_vocab.max_word_chars)

    monkeypatch.setattr(sarv.textproc, "TOKENIZE_CHUNK", chunk)
    monkeypatch.setattr(sarv.corpus, "READ_BYTES", read_bytes)
    reader = CorpusReader(corpora[fmt])
    encoded, got_encoder, histogram = encode_corpus(reader, norm, scheme)
    got = encoded.take(np.arange(len(encoded)))
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert got_encoder == encoder
    assert histogram == length_histogram(seqs)
    assert reader.skipped == skipped and skipped
    # Shuffled row orders, as `shard` writes its splits and their undersampled train rows.
    train, test = split_indices(len(encoded), 0.8, seed=chunk)
    rus = train[undersample_indices(encoded.labels[train], seed=chunk, num_classes=2)]
    for rows in (train, test, rus, rus - len(encoded)):
        assert encoded.take(rows).tobytes() == got[rows].tobytes()
        # the gather `write_shards` makes, into a reused buffer
        buffer = np.empty(len(rows) + 3, got.dtype)
        gathered = np.take(encoded, rows, out=buffer[:len(rows)], mode="wrap")
        assert gathered.base is buffer and gathered.tobytes() == got[rows].tobytes()


@pytest.mark.parametrize("chunk, read_bytes", SIZES)
def test_invalid_utf8_past_the_first_chunk_names_its_byte(chunk, read_bytes, tmp_path,
                                                          monkeypatch, capsys):
    monkeypatch.setattr(sarv.textproc, "TOKENIZE_CHUNK", chunk)
    monkeypatch.setattr(sarv.corpus, "READ_BYTES", read_bytes)
    good = ("text\tlabel\n" + "کتاب خوب\tpositive\n" * 30).encode("utf-8")
    bad_at = len(good) + len("عالی".encode("utf-8"))
    cases = {
        "stray byte": good + "عالی".encode("utf-8") + b"\xff\tpositive\n",
        "truncated at the end": good + "عالی".encode("utf-8") + "ی".encode("utf-8")[:1],
    }
    for what, blob in cases.items():
        path = tmp_path / "c.tsv"
        path.write_bytes(blob)
        with pytest.raises(DataError, match=f"not valid UTF-8 at byte {bad_at}$"):
            read_corpus(path)
        code = main(["shard", "--corpus", str(path), "--out-dir", str(tmp_path / "out")])
        assert code == 2, what
        assert f"at byte {bad_at}" in capsys.readouterr().err, what


@pytest.mark.parametrize("chunk, read_bytes", SIZES)
def test_skip_threshold_names_the_first_skipped_line(chunk, read_bytes, tmp_path, monkeypatch,
                                                     capsys):
    monkeypatch.setattr(sarv.textproc, "TOKENIZE_CHUNK", chunk)
    monkeypatch.setattr(sarv.corpus, "READ_BYTES", read_bytes)
    good = '{"text": "کتاب خوب", "label": "positive"}\n'
    path = tmp_path / "c.jsonl"
    path.write_text(good * 6 + "junk one\n" + good * 4 + "junk two\n" + good + "junk three\n",
                    encoding="utf-8")
    code = main(["preprocess", "--corpus", str(path), "--out-dir", str(tmp_path / "out"),
                 "--max-bad-rows", "2"])
    assert code == 2
    assert "3 malformed rows exceed threshold 2; first: line 7:" in capsys.readouterr().err
    records, skipped = read_corpus(path, max_bad_rows=3)
    assert len(records) == 11 and [s.line_no for s in skipped] == [7, 12, 14]
    with pytest.raises(DataError, match="^3 malformed rows exceed threshold 0; first: line 7:"):
        read_corpus(path, max_bad_rows=0)


def test_an_over_long_field_is_a_data_error_naming_its_line(tmp_path, capsys):
    path = tmp_path / "c.csv"
    # An unclosed quote on line 3 swallows the rest of the file into one field.
    path.write_text('text,label\nخوب,positive\n"بد,negative\n' + "کتاب عالی,positive\n" * 20_000,
                    encoding="utf-8")
    with pytest.raises(DataError, match="line 3: field larger than field limit"):
        read_corpus(path)
    for command in ("shard", "preprocess", "stats"):
        code = main([command, "--corpus", str(path), "--out-dir", str(tmp_path / command)])
        assert code == 2, command
        err = capsys.readouterr().err
        assert "data error" in err and "line 3: field larger than field limit" in err, command


@pytest.mark.parametrize("command", ["shard", "preprocess"])
def test_peak_is_well_under_one_record_array(command, tmp_path, capsys):
    rows = 20_000
    path = tmp_path / "big.tsv"
    lines = ["text\tlabel"] + [f"{r.text}\t{r.label}" for r in separable_rows(rows, 2, seed=6)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = [command, "--corpus", str(path)]
    if command == "shard":
        argv += ["--shard-size", "500", "--seed", "2"]
    assert main(argv + ["--out-dir", str(tmp_path / "warm")]) == 0  # imports and caches
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 0
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    record_bytes = rows * record_dtype(MAX_LEN, 20).itemsize
    # Each review's 15 slot numbers, the per-token tables and one chunk of text
    # and of records; not the record array, the raw corpus or a split copy.
    assert peak < 0.5 * record_bytes, (peak, record_bytes)

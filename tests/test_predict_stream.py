"""The streamed ``predict`` path: ``text_lines`` -> ``Encoder.encode_texts`` -> ``scored_batches``.

``predict`` reads ``--input`` or stdin ``READ_BYTES`` at a time and
tokenizes, encodes and scores it ``TOKENIZE_CHUNK`` lines at a time.  These
tests pin that neither size shows in stdout, ``predictions.tsv``, the
warnings or the batches the model sees; that the output equals scoring
each review through ``normalize`` -> ``tokenize`` -> ``unify_length`` ->
``encode_sentence``; that a data error part way through leaves no
``predictions.tsv`` behind; and that memory stays about one chunk beyond
the loaded model, however many chunks the input holds.
"""

from __future__ import annotations

import os
import re
import tracemalloc
from contextlib import redirect_stdout

import pytest

import sarv.corpus
import sarv.textproc
from sarv.cli import main
from sarv.corpus import Encoder, encode_sentence, record_dtype
from sarv.models import Model, load_model
from sarv.textproc import MAX_LEN, normalize, tokenize, unify_length

from conftest import (FILLERS, bundled_embedding_path, byte_stdin, separable_rows,
                      stack_sentences, write_corpus_tsv)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """Shards of a separable corpus and a char-channel model trained one epoch on them."""
    base = tmp_path_factory.mktemp("predict_stream")
    corpus = write_corpus_tsv(base / "corpus.tsv", separable_rows(60, classes=2, seed=21))
    shards, run = base / "shards", base / "run"
    assert main(["shard", "--corpus", str(corpus), "--out-dir", str(shards), "--seed", "1"]) == 0
    assert main(["train", "--shard-dir", str(shards), "--out-dir", str(run), "--embeddings",
                 str(bundled_embedding_path()), "--preset", "CHAR_W2V_LSTM", "--epochs", "1",
                 "--batch-size", "16", "--seed", "1"]) == 0
    return shards, run / "checkpoint_final.bin"


def input_bytes(n: int = 40) -> bytes:
    """``n`` reviews ending in "\\n", "\\r\\n" or "\\r", with blank and tokenless lines among them."""
    lines = []
    for k, rec in enumerate(separable_rows(n, classes=2, seed=41)):
        lines.append(rec.text)
        if k % 5 == 2:
            lines.append("  \t")  # blank
        if k % 7 == 3:
            lines.append("!!! 123")  # normalises to no token
        if k % 6 == 1:  # separators str.splitlines would break at, inside one line
            lines.append(f"{rec.text} {FILLERS[k % len(FILLERS)]}\x1cعالی")
    ends = ("\n", "\r\n", "\r")
    text = "".join(line + ends[k % 3] for k, line in enumerate(lines))
    return (text + "\r\nپایان").encode("utf-8")  # one more blank line; the last has no line end


@pytest.fixture(scope="module")
def given(tmp_path_factory):
    path = tmp_path_factory.mktemp("predict_input") / "lines.txt"
    path.write_bytes(input_bytes())
    return path



def predict(trained, capsys, out_dir, *flags) -> tuple[int, str, str]:
    shards, ckpt = trained
    code = main(["predict", "--checkpoint", str(ckpt), "--shard-dir", str(shards),
                 "--embeddings", str(bundled_embedding_path()), "--out-dir", str(out_dir),
                 *map(str, flags)])
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_output_equals_the_per_review_path(trained, given, tmp_path, capsys):
    shards, ckpt = trained
    code, stdout, stderr = predict(trained, capsys, tmp_path, "--input", given)
    assert code == 0
    assert (tmp_path / "predictions.tsv").read_text("utf-8") == stdout
    lines = re.split("\r\n|\r|\n", given.read_bytes().decode("utf-8"))
    kept = [ln for ln in lines if ln.strip()]
    assert stderr == (f"warning: dropped {len(lines) - len(kept)} blank input line(s)\n"
                      f"warning: {kept.count('!!! 123')} input line(s) normalised to no token\n")
    encoder, _ = Encoder.load(shards)
    model, emb, _ = load_model(ckpt, len(encoder.token_vocab))
    encoded = [encode_sentence(unify_length(tokenize(normalize(ln, encoder.norm)), MAX_LEN),
                               encoder.token_vocab, encoder.char_vocab, label=0) for ln in kept]
    labels, probs = model.predict(stack_sentences(encoded, encoder.char_vocab.max_word_chars), emb)
    assert stdout == "".join("\t".join([("negative", "positive")[y]] + [f"{p:.6f}" for p in row])
                             + "\n" for y, row in zip(labels, probs))


@pytest.mark.parametrize("read_bytes", [3, 64, 1 << 16])
@pytest.mark.parametrize("chunk", [1, 2, 3, 1024])
@pytest.mark.parametrize("source", ["file", "stdin"])
def test_output_does_not_depend_on_chunk_or_read_size(source, chunk, read_bytes, trained, given,
                                                      tmp_path, capsys, monkeypatch):
    flags = ["--input", given] if source == "file" else []

    def run(out_dir):
        if source == "stdin":
            monkeypatch.setattr("sys.stdin", byte_stdin(given.read_bytes()))
        code, stdout, stderr = predict(trained, capsys, out_dir, *flags)
        assert code == 0
        return stdout, (out_dir / "predictions.tsv").read_bytes(), stderr

    want = run(tmp_path / "default")
    monkeypatch.setattr(sarv.textproc, "TOKENIZE_CHUNK", chunk)
    monkeypatch.setattr(sarv.corpus, "READ_BYTES", read_bytes)
    assert run(tmp_path / "patched") == want
    assert want[1] == want[0].encode("utf-8") and want[2].count("warning") == 2


def test_batches_cross_chunk_boundaries(trained, tmp_path, capsys, monkeypatch):
    rows = separable_rows(11, classes=2, seed=43)
    inp = tmp_path / "lines.txt"
    inp.write_text("".join(rec.text + ("\n\n" if k % 4 == 1 else "\n")
                           for k, rec in enumerate(rows)), encoding="utf-8")
    ini = tmp_path / "batch.ini"
    ini.write_text("[train]\nbatch_size = 4\n", encoding="utf-8")
    seen = []
    forward = Model.forward

    def spy(self, batch, *args, **kwargs):
        seen.append(len(batch))
        return forward(self, batch, *args, **kwargs)

    monkeypatch.setattr(Model, "forward", spy)
    code, want, _ = predict(trained, capsys, tmp_path / "default", "--config", ini, "--input", inp)
    assert code == 0 and seen == [4, 4, 3]
    seen.clear()
    monkeypatch.setattr(sarv.textproc, "TOKENIZE_CHUNK", 3)  # blank lines count toward a chunk
    code, got, _ = predict(trained, capsys, tmp_path / "chunked", "--config", ini, "--input", inp)
    assert code == 0 and seen == [4, 4, 3]
    assert got == want


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_invalid_utf8_in_a_later_block_keeps_what_was_scored(source, trained, given, tmp_path,
                                                            capsys, monkeypatch):
    ini = tmp_path / "batch.ini"
    ini.write_text("[train]\nbatch_size = 4\n", encoding="utf-8")
    good = given.read_bytes() + b"\n"
    code, whole, _ = predict(trained, capsys, tmp_path / "whole", "--config", ini,
                             "--input", given)
    assert code == 0
    bad_at = len(good) + len("عالی".encode("utf-8"))
    blob = good + "عالی".encode("utf-8") + b"\xff\n" + good
    monkeypatch.setattr(sarv.textproc, "TOKENIZE_CHUNK", 2)
    monkeypatch.setattr(sarv.corpus, "READ_BYTES", 64)
    if source == "file":
        inp = tmp_path / "bad.txt"
        inp.write_bytes(blob)
        flags, name = ["--input", inp], f"input {inp}"
    else:
        monkeypatch.setattr("sys.stdin", byte_stdin(blob))
        flags, name = [], "standard input"
    out = tmp_path / "out"
    code, stdout, stderr = predict(trained, capsys, out, "--config", ini, *flags)
    assert code == 2
    assert stderr == f"sarv: data error: {name} is not valid UTF-8 at byte {bad_at}\n"
    # Every batch scored before the bad block stays on stdout; nothing is left in --out-dir.
    assert stdout and whole.startswith(stdout) and len(stdout.splitlines()) % 4 == 0
    assert list(out.iterdir()) == []


def test_predict_holds_about_one_chunk_beyond_the_model(trained, tmp_path, capsys, monkeypatch):
    chunk = 256
    monkeypatch.setattr(sarv.textproc, "TOKENIZE_CHUNK", chunk)
    ini = tmp_path / "batch.ini"  # one batch per chunk, so both runs score batches of one size
    ini.write_text(f"[train]\nbatch_size = {chunk}\n", encoding="utf-8")
    line = " ".join(FILLERS[:12]) + " عالی\n"

    def peak(chunks: int) -> int:
        inp = tmp_path / f"{chunks}.txt"
        inp.write_text(line * (chunks * chunk), encoding="utf-8")
        with open(os.devnull, "w", encoding="utf-8") as sink, redirect_stdout(sink):
            tracemalloc.start()  # captured stdout would grow with the input
            try:
                start = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                assert predict(trained, capsys, tmp_path / inp.stem, "--config", ini,
                               "--input", inp)[0] == 0
                return tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()

    peak(4)  # imports and caches
    # Both inputs fill more than one read block.
    few, many = peak(4), peak(40)
    chunk_bytes = chunk * record_dtype(MAX_LEN, 20).itemsize
    # The model, one read block, one chunk of lines and records and one
    # batch's scoring; not the input, its lines or a record per line, which
    # would add 36 chunks of records and more.
    assert many < few + chunk_bytes, (many, few, chunk_bytes)

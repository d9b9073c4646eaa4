"""Embedding table, vocabulary, and matrix tests.

The bundled 50-d vector file is recounted with an independent parser,
and the loader's skip/duplicate/OOV rules are exercised on synthetic
files written by the tests themselves.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sarv.nn
from sarv.embed import (
    build_char_vocab,
    build_token_vocab,
    embedding_matrix,
    embeddings_sha256,
    encode_chars,
    encode_token_ids,
    load_embeddings,
    lookup,
    parse_char_vocab,
    parse_token_vocab,
    serialize_char_vocab,
    serialize_token_vocab,
)
from sarv.errors import DataError
from sarv.textproc import tokenize, unify_length

from conftest import bundled_embedding_path


def seqs(*texts):
    return [tokenize(t) for t in texts]


# ---------------------------------------------------------------------------
# bundled vector file, recounted independently
# ---------------------------------------------------------------------------


def independent_parse(path):
    entries = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.rstrip("\n").split(" ")
            entries[parts[0]] = [float(x) for x in parts[1:]]
    return entries


def test_bundled_file_shape_and_content(emb_table):
    raw = independent_parse(bundled_embedding_path())
    assert len(raw) == 100
    assert all(len(v) == 50 for v in raw.values())
    assert all(np.isfinite(v).all() for v in raw.values())

    assert emb_table.dim == 50
    assert emb_table.loaded_lines == 100
    assert emb_table.skipped_lines == 0
    assert set(emb_table.entries) == set(raw)
    for word, vec in raw.items():
        np.testing.assert_array_equal(
            lookup(emb_table, word), np.asarray(vec, dtype=np.float32)
        )


def test_bundled_file_covers_markers(emb_table):
    for word in ("عالی", "افتضاح", "معمولی", "واقعا"):
        assert word in emb_table
        assert float(np.abs(lookup(emb_table, word)).max()) > 0


# ---------------------------------------------------------------------------
# loader rules
# ---------------------------------------------------------------------------


def write_vectors(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_loader_skips_malformed_lines(tmp_path):
    p = tmp_path / "vec.txt"
    write_vectors(
        p,
        [
            "خوب 1.0 2.0",
            "بد 3.0",  # wrong column count
            "زشت x y",  # unparsable floats
            "تند 1.0 nan",  # non-finite
            "کند 5.0 6.0",
        ],
    )
    table = load_embeddings(p, dim=2)
    assert set(table.entries) == {"خوب", "کند"}
    assert table.loaded_lines == 2
    assert table.skipped_lines == 3


def test_loader_keeps_last_duplicate(tmp_path):
    p = tmp_path / "vec.txt"
    write_vectors(p, ["خوب 1.0 2.0", "خوب 9.0 8.0"])
    table = load_embeddings(p, dim=2)
    np.testing.assert_array_equal(lookup(table, "خوب"), np.float32([9.0, 8.0]))
    assert table.loaded_lines == 2
    assert len(table) == 1


def test_loader_ignores_blank_lines(tmp_path):
    p = tmp_path / "vec.txt"
    p.write_text("خوب 1.0 2.0\n\nبد 3.0 4.0\n", encoding="utf-8")
    table = load_embeddings(p, dim=2)
    assert table.loaded_lines == 2
    assert table.skipped_lines == 0


def test_loader_missing_file_is_data_error(tmp_path):
    with pytest.raises(DataError):
        load_embeddings(tmp_path / "absent.txt")


def test_embeddings_sha256_hashes_the_file_bytes(tmp_path):
    p = tmp_path / "vec.txt"
    data = b"".join(b"w%d 1.0 2.0\n" % i for i in range(200_000))  # spans several read chunks
    p.write_bytes(data)
    assert embeddings_sha256(p) == hashlib.sha256(data).hexdigest()
    with pytest.raises(DataError, match="absent.txt"):
        embeddings_sha256(tmp_path / "absent.txt")


def test_loader_digest_is_the_hash_of_the_bytes_it_parsed(tmp_path, monkeypatch):
    malformed = tmp_path / "malformed.txt"
    lines = [f"ک{i} {i}.5 -2e-3" for i in range(30_000)]  # spans many reads
    lines[7], lines[20_001] = "بد 3.0", "زشت x 1.0"
    malformed.write_bytes(("\n".join(lines) + "\r\nتند 1 nan\r\n\n").encode("utf-8"))
    reads = []
    readinto = sarv.nn.HashingFileReader.readinto
    monkeypatch.setattr(sarv.nn.HashingFileReader, "readinto",
                        lambda self, buffer: reads.append(len(buffer)) or readinto(self, buffer))
    for path, dim in ((bundled_embedding_path(), 50), (malformed, 2)):
        table = load_embeddings(path, dim=dim)
        assert table.sha256 == embeddings_sha256(path)
    assert (table.loaded_lines, table.skipped_lines) == (29_998, 3)
    assert len(reads) > 2 and max(reads) <= sarv.nn.HASH_READ_BYTES


def test_oov_lookup_is_zero_vector(emb_table):
    vec = lookup(emb_table, "واژهناموجود")
    assert vec.shape == (50,)
    assert not vec.any()
    assert not vec.flags.writeable


# ---------------------------------------------------------------------------
# token vocabulary
# ---------------------------------------------------------------------------


def test_token_vocab_ids_and_oov():
    vocab = build_token_vocab(seqs("خوب بد", "بد زشت"))
    assert vocab.token_id("") == 0  # PAD
    ids = {t: vocab.token_id(t) for t in ("خوب", "بد", "زشت")}
    assert sorted(ids.values()) == [1, 2, 3]
    assert vocab.token_id("ناموجود") == 0
    assert len(vocab) == 3


def test_token_vocab_ids_are_codepoint_sorted():
    vocab = build_token_vocab(seqs("ب آ ا"))
    assert [vocab.token_id(t) for t in ("آ", "ا", "ب")] == [1, 2, 3]


def test_token_vocab_round_trip():
    vocab = build_token_vocab(seqs("خوب بد زشت"))
    back = parse_token_vocab(serialize_token_vocab(vocab))
    assert len(back) == len(vocab)
    for t in ("خوب", "بد", "زشت", "ناموجود"):
        assert back.token_id(t) == vocab.token_id(t)
    assert serialize_token_vocab(back) == serialize_token_vocab(vocab)


def test_token_vocab_parse_rejects_sparse_ids():
    with pytest.raises(ValueError):
        parse_token_vocab("خوب\t1\nبد\t3\n")


def test_encode_token_ids():
    vocab = build_token_vocab(seqs("خوب بد"))
    fixed = unify_length(["خوب", "ناشناس"])
    ids = encode_token_ids(fixed, vocab)
    assert ids.shape == (15,)
    assert ids[0] == vocab.token_id("خوب")
    assert ids[1] == 0  # OOV
    assert not ids[2:].any()  # PAD


# ---------------------------------------------------------------------------
# character vocabulary
# ---------------------------------------------------------------------------


def test_char_vocab_ids_start_at_one():
    vocab = build_char_vocab(seqs("با آب"))
    # sorted by code point: آ (0622) < ا (0627) < ب (0628)
    assert vocab.ids == {"آ": 1, "ا": 2, "ب": 3}
    assert vocab.ids.get("ژ", 0) == 0  # unknown characters map to pad id


def test_encode_chars_pads_and_truncates():
    vocab = build_char_vocab(seqs("با"), max_word_chars=4)
    b, a = vocab.ids["ب"], vocab.ids["ا"]
    assert encode_chars("بابابا", vocab).tolist() == [b, a, b, a]
    assert encode_chars("با", vocab).tolist() == [b, a, 0, 0]
    assert encode_chars("ژژ", vocab).tolist() == [0, 0, 0, 0]
    assert encode_chars("", vocab).tolist() == [0, 0, 0, 0]


def test_char_vocab_round_trip():
    vocab = build_char_vocab(seqs("کتاب میز"), max_word_chars=7)
    back = parse_char_vocab(serialize_char_vocab(vocab))
    assert back.max_word_chars == 7
    assert back.chars == vocab.chars
    assert serialize_char_vocab(back) == serialize_char_vocab(vocab)


def test_char_vocab_parse_rejects_sparse_ids():
    with pytest.raises(ValueError):
        parse_char_vocab("آ\t1\nب\t5\n#max_word_chars\t20\n")


@given(
    st.lists(
        st.text(alphabet=st.sampled_from(list("ابپتثجچژک")), min_size=1, max_size=9),
        min_size=1,
        max_size=20,
    )
)
@settings(max_examples=50)
def test_char_vocab_round_trip_fuzz(words):
    vocab = build_char_vocab([tokenize(" ".join(words))], max_word_chars=6)
    back = parse_char_vocab(serialize_char_vocab(vocab))
    for w in words:
        assert encode_chars(w, back).tolist() == encode_chars(w, vocab).tolist()


# ---------------------------------------------------------------------------
# embedding matrix
# ---------------------------------------------------------------------------


def test_embedding_matrix_row_zero_is_pad(emb_table):
    vocab = build_token_vocab(seqs("عالی کتاب ناموجودی"))
    mat = embedding_matrix(emb_table, vocab)
    assert mat.shape == (len(vocab) + 1, 50)
    assert not mat[0].any()
    np.testing.assert_array_equal(
        mat[vocab.token_id("عالی")], lookup(emb_table, "عالی")
    )
    assert not mat[vocab.token_id("ناموجودی")].any()  # OOV row stays zero
    assert not mat.flags.writeable


def test_embedding_matrix_dtype(emb_table):
    vocab = build_token_vocab(seqs("عالی"))
    assert embedding_matrix(emb_table, vocab, dtype=np.float64).dtype == np.float64
    assert embedding_matrix(emb_table, vocab, dtype=np.float32).dtype == np.float32


def per_token_matrix(table, vocab, dtype):
    """The reference fill: row ``i + 1`` is ``lookup`` of token ``i``, row 0 stays zero."""
    mat = np.zeros((len(vocab) + 1, table.dim), dtype=dtype)
    for i, token in enumerate(vocab.tokens):
        mat[i + 1] = lookup(table, token)
    return mat


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("restrict", [False, True])
@pytest.mark.parametrize("text", ["", "ناموجودی", "عالی کتاب ناموجودی خوب بد xyz عالی"])
def test_embedding_matrix_matches_per_token_lookup(emb_path, text, restrict, dtype):
    vocab = build_token_vocab(seqs(text))
    table = load_embeddings(emb_path, vocab=vocab if restrict else None)
    mat = embedding_matrix(table, vocab, dtype=dtype)
    assert mat.dtype == dtype
    assert mat.tobytes() == per_token_matrix(table, vocab, dtype).tobytes()
    assert not mat[0].any()  # PAD
    for token in vocab.tokens:
        row = mat[vocab.token_id(token)]
        if token in table:
            assert row.tobytes() == table.entries[token].astype(dtype).tobytes()
        else:
            assert not row.any()  # OOV
    assert not mat.flags.writeable

"""The chunked embedding loader against the line-by-line oracle.

``load_embeddings`` parses ``LOAD_CHUNK_LINES`` lines per ``np.loadtxt``
call, which also reads each line's token, and re-parses line by line a
chunk it rejects, one of another width, or one whose tokens ``str.split``
would split.  Whatever the chunk
size and however the file is malformed, it must keep the same vectors
(bit for bit) and count the same loaded and skipped lines as
``embed_reference.reference_load``; with a vocabulary it keeps only the
vocabulary's rows and still counts every line.
"""

from __future__ import annotations

import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import sarv.embed
from sarv.cli import RunConfig, _embedding_matrix_for
from sarv.embed import TokenVocab, embedding_matrix, load_embeddings

from embed_reference import reference_load

TOKENS = ("خوب", "بد", "#x", "a", "عالی", "1.5")
# Components a line is skipped for (unparsable or non-finite), plus 1_0 and
# the Arabic-Indic digit one, which float() reads and loadtxt rejects.
BAD_NUMBERS = ("x", "1_0", "0x1p3", "", "1e400", "-1e39", "nan", "-inf", "Infinity", "1,5",
               "١", "1e", "--1", "nan(1)", "1.0f")
GOOD_NUMBERS = ("0", "-0.0", "1.", ".5", "+3", "1e-3", "2E5", "3.4028235e38", "0.30000000000000004")
SEPARATORS = (" ", "  ", "\t", " \t ", "\xa0", " ",
              "\x1c", "\x85", "\u2028", "\u3000")


def number():
    return st.one_of(
        st.floats(allow_nan=True, allow_infinity=True, width=64).map(repr),
        st.floats(min_value=-10, max_value=10).map(lambda x: f"{x:.5f}"),
        st.sampled_from(GOOD_NUMBERS),
        st.sampled_from(BAD_NUMBERS),
    )


@st.composite
def vector_line(draw, dim):
    count = draw(st.sampled_from((dim, dim, dim, dim - 1, dim + 1, 0)))
    fields = [draw(st.sampled_from(TOKENS))] + [draw(number()) for _ in range(count)]
    seps = [draw(st.sampled_from(SEPARATORS)) for _ in fields]
    lead = draw(st.sampled_from(("", "", " ", "\t")))
    return lead + "".join(f + s for f, s in zip(fields, seps)).rstrip(" ") + "\n"


def lines_of(dim):
    blank = st.sampled_from(("\n", "   \n", "\t\n", "\xa0\n"))
    return st.lists(st.one_of(vector_line(dim), vector_line(dim), blank), max_size=25)


def write(path: Path, lines) -> None:
    path.write_bytes("".join(lines).encode("utf-8"))


def assert_matches_reference(path: Path, dim: int, vocab: TokenVocab | None = None) -> None:
    table = load_embeddings(path, dim=dim, vocab=vocab)
    entries, loaded, skipped = reference_load(path, dim)
    if vocab is not None:
        entries = {t: v for t, v in entries.items() if t in vocab.ids}
    assert (table.loaded_lines, table.skipped_lines) == (loaded, skipped)
    assert set(table.entries) == set(entries)
    for token, vec in entries.items():
        assert table.entries[token].dtype == np.float32
        assert table.entries[token].tobytes() == vec.tobytes(), token
        assert not table.entries[token].flags.writeable


@given(lines=lines_of(2), chunk=st.integers(1, 6),
       keep=st.none() | st.sets(st.sampled_from(TOKENS)))
@settings(max_examples=300, deadline=None)
def test_chunked_loader_matches_line_by_line_oracle(lines, chunk, keep):
    vocab = None if keep is None else TokenVocab(tuple(sorted(keep)))
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(sarv.embed, "LOAD_CHUNK_LINES", chunk):
        path = Path(tmp) / "vec.txt"
        write(path, lines)
        assert_matches_reference(path, dim=2, vocab=vocab)


def test_each_malformed_kind_is_counted_like_the_oracle(tmp_path):
    lines = ["خوب 1.0 2.0\n", "\n", "   \n", "بد\t3.0   4.0\n", "a 1.0\n", "a 1 2 3\n"]
    lines += [f"x{i} {bad} 1.0\n" for i, bad in enumerate(BAD_NUMBERS)]
    lines += ["خوب 9.0 8.0\n", "#x 5 6\n"]  # duplicate wins; '#' is not a comment
    path = tmp_path / "vec.txt"
    write(path, lines)
    assert_matches_reference(path, dim=2)
    table = load_embeddings(path, dim=2)
    assert table.entries["خوب"].tolist() == [9.0, 8.0]
    # float() reads 1_0 and Arabic-Indic digits, which loadtxt rejects.
    assert table.entries[f"x{BAD_NUMBERS.index('1_0')}"].tolist() == [10.0, 1.0]
    assert table.entries[f"x{BAD_NUMBERS.index('١')}"].tolist() == [1.0, 1.0]


def test_malformed_line_past_the_first_chunk(tmp_path):
    rng = np.random.default_rng(0)
    n = 3 * sarv.embed.LOAD_CHUNK_LINES + 17
    lines = [f"w{i} " + " ".join(f"{v:.6f}" for v in rng.normal(size=4)) + "\n" for i in range(n)]
    bad_at = sarv.embed.LOAD_CHUNK_LINES + 5
    lines[bad_at] = "w_bad 1.0 1_0 nan 2.0\n"
    lines[bad_at + 1] = "w_short 1.0\n"
    lines[-1] = "w0 1 2 3 4\n"  # a duplicate in the last chunk
    path = tmp_path / "vec.txt"
    write(path, lines)
    assert_matches_reference(path, dim=4)
    table = load_embeddings(path, dim=4)
    assert (table.loaded_lines, table.skipped_lines) == (n - 2, 2)
    assert table.entries["w0"].tolist() == [1, 2, 3, 4]


def test_vocabulary_keeps_only_its_rows_and_counts_every_line(tmp_path):
    path = tmp_path / "vec.txt"
    write(path, ["خوب 1 2\n", "بد 3 4\n", "a x 5\n", "عالی 6 7\n"])
    vocab = TokenVocab(("بد", "ناموجود", "a"))
    table = load_embeddings(path, dim=2, vocab=vocab)
    assert set(table.entries) == {"بد"}
    assert (table.loaded_lines, table.skipped_lines) == (3, 1)
    assert_matches_reference(path, dim=2, vocab=vocab)


def test_wrong_dimension_loads_nothing(tmp_path):
    path = tmp_path / "vec.txt"
    write(path, [f"w{i} " + " ".join(["0.5"] * 100) + "\n" for i in range(5)])
    table = load_embeddings(path)
    assert (table.loaded_lines, table.skipped_lines, len(table)) == (0, 5, 0)


def clean_lines(n: int, dim: int, prefix: str = "w") -> list[str]:
    return [f"{prefix}{i} " + " ".join(f"{i + k / 8}" for k in range(dim)) + "\n"
            for i in range(n)]


def test_a_chunk_of_one_other_width_is_all_skipped(tmp_path):
    for width in (3, 1):  # every line has dim + 2 fields, or dim
        path = tmp_path / f"vec{width}.txt"
        write(path, clean_lines(5, width))
        assert_matches_reference(path, dim=2)
        table = load_embeddings(path, dim=2)
        assert (table.loaded_lines, table.skipped_lines, len(table)) == (0, 5, 0)


def test_inner_separator_in_a_token_splits_it_as_str_split_does(tmp_path):
    path = tmp_path / "vec.txt"
    write(path, clean_lines(3, 2) + ["a\x1c7 8\n", "b\x1cc 7 8\n"] + clean_lines(3, 2, "v"))
    assert_matches_reference(path, dim=2)
    table = load_embeddings(path, dim=2)
    assert table.entries["a"].tolist() == [7, 8]  # the token is "a", not "a\x1c7"
    assert "b\x1cc" not in table and "b" not in table
    assert (table.loaded_lines, table.skipped_lines) == (7, 1)


def test_duplicate_token_inside_one_chunk_keeps_the_last(tmp_path):
    path = tmp_path / "vec.txt"
    write(path, ["d 1 2\n", "e 3 4\n", "d 5 6\n", "d 7 nan\n"])
    for vocab in (None, TokenVocab(("d",))):
        table = load_embeddings(path, dim=2, vocab=vocab)
        assert table.entries["d"].tolist() == [5, 6]
        assert (table.loaded_lines, table.skipped_lines) == (3, 1)
        assert_matches_reference(path, dim=2, vocab=vocab)


def test_all_blank_chunk_raises_no_warning(tmp_path):
    path = tmp_path / "vec.txt"
    blank = ["\n", "   \n", "\t\n", "\xa0\n", "\x1c\n"]
    for lines in (blank, blank + clean_lines(2, 2)):
        write(path, lines)
        with warnings.catch_warnings(), mock.patch.object(sarv.embed, "LOAD_CHUNK_LINES", 5):
            warnings.simplefilter("error")
            table = load_embeddings(path, dim=2)
        assert (table.loaded_lines, table.skipped_lines) == (len(lines) - 5, 0)
        assert_matches_reference(path, dim=2)


def test_chunk_parse_does_not_rely_on_loadtxts_default_encoding(tmp_path):
    # numpy < 2.0 defaults to encoding="bytes", which hands converters
    # latin-1 bytes; the loader must still read str tokens in one call.
    real_loadtxt = np.loadtxt

    def loadtxt_numpy1(*args, encoding="bytes", **kwargs):
        return real_loadtxt(*args, encoding=encoding, **kwargs)

    path = tmp_path / "vec.txt"
    for prefix in ("w", "خوب"):
        write(path, clean_lines(4, 2, prefix))
        with mock.patch.object(np, "loadtxt", loadtxt_numpy1), \
                mock.patch.object(sarv.embed, "_load_lines", side_effect=AssertionError):
            table = load_embeddings(path, dim=2)
        assert set(table.entries) == {f"{prefix}{i}" for i in range(4)}
        assert (table.loaded_lines, table.skipped_lines) == (4, 0)
        assert_matches_reference(path, dim=2)


def test_kept_rows_share_a_base_of_kept_rows_only(tmp_path):
    path = tmp_path / "vec.txt"
    write(path, clean_lines(sarv.embed.LOAD_CHUNK_LINES, 4))
    kept = ("w3", "w10", "w200")
    table = load_embeddings(path, dim=4, vocab=TokenVocab(kept))
    assert set(table.entries) == set(kept)
    for vec in table.entries.values():
        root = vec
        while root.base is not None:
            root = root.base
        assert root.nbytes == len(kept) * vec.nbytes  # never the whole chunk


# ---------------------------------------------------------------------------
# the embedding matrix of a vocabulary-loaded table
# ---------------------------------------------------------------------------


def reference_matrix(path: Path, dim: int, vocab: TokenVocab, dtype) -> np.ndarray:
    """Row ``vocab.ids[token]`` is the oracle's vector for ``token``; every other row is zero."""
    entries, _, _ = reference_load(path, dim)
    mat = np.zeros((len(vocab) + 1, dim), dtype=dtype)
    for token, vec in entries.items():
        if token in vocab.ids:
            mat[vocab.ids[token]] = vec
    return mat


def assert_matrix_matches_reference(path: Path, dim: int, vocab: TokenVocab) -> None:
    table = load_embeddings(path, dim=dim, vocab=vocab)
    for dtype in (np.float32, np.float64):
        mat = embedding_matrix(table, vocab, dtype=dtype)
        assert mat.dtype == dtype
        assert mat.tobytes() == reference_matrix(path, dim, vocab, dtype).tobytes()
        assert not mat[0].any()
        assert not mat.flags.writeable
    assert embedding_matrix(table, vocab) is table.matrix  # float32: no copy


@given(lines=lines_of(2), chunk=st.integers(1, 6),
       keep=st.sets(st.sampled_from(TOKENS + ("ناموجود", "b"))))
@settings(max_examples=200, deadline=None)
def test_vocabulary_matrix_matches_line_by_line_oracle(lines, chunk, keep):
    vocab = TokenVocab(tuple(sorted(keep)))
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(sarv.embed, "LOAD_CHUNK_LINES", chunk):
        path = Path(tmp) / "vec.txt"
        write(path, lines)
        assert_matrix_matches_reference(path, dim=2, vocab=vocab)


def test_vocabulary_matrix_keeps_the_last_duplicate_inside_and_across_chunks(tmp_path):
    # Chunks of 8 lines.  "d" repeats only inside the first chunk and "h"
    # only inside the second; "e" and "f" repeat in every chunk, and the
    # third chunk has a malformed line, so it is parsed line by line.
    lines = [f"d {k} {-k}\n" for k in range(5)] + ["e 1 1\n", "f 2 2\n", "g 3 3\n"]
    lines += ["e 4 4\n", "h 1 1\n", "f 5 5\n", "e 11 12\n", "h 2 2\n"] + clean_lines(3, 2, "v")
    lines += ["e 6 6\n", "f 7 x\n", "f 8 8\n", "e 9 10\n"]
    path = tmp_path / "vec.txt"
    write(path, lines)
    vocab = TokenVocab(("absent", "d", "e", "f", "h", "v2"))
    with mock.patch.object(sarv.embed, "LOAD_CHUNK_LINES", 8):
        assert_matrix_matches_reference(path, dim=2, vocab=vocab)
        table = load_embeddings(path, dim=2, vocab=vocab)
    mat = embedding_matrix(table, vocab)
    expected = {"d": [4, -4], "e": [9, 10], "f": [8, 8], "h": [2, 2], "v2": [2, 2.125]}
    for token, vec in expected.items():
        assert mat[vocab.token_id(token)].tolist() == vec, token
    assert not mat[vocab.token_id("absent")].any() and not mat[0].any()
    assert (table.loaded_lines, table.skipped_lines) == (len(lines) - 1, 1)
    assert set(table.entries) == set(expected) and len(table) == len(expected)
    assert "absent" not in table and "g" not in table


def test_vocabulary_matrix_is_parsed_in_place_without_a_copy_per_row(tmp_path):
    path = tmp_path / "vec.txt"
    write(path, clean_lines(3 * sarv.embed.LOAD_CHUNK_LINES, 4))
    vocab = TokenVocab(tuple(f"w{i}" for i in range(0, 3 * sarv.embed.LOAD_CHUNK_LINES, 2)))
    table = load_embeddings(path, dim=4, vocab=vocab)
    assert table._entries is None  # no per-token table until entries is asked for
    mat = embedding_matrix(table, vocab)
    assert mat is table.matrix and not mat.flags.writeable
    double = embedding_matrix(table, vocab, dtype=np.float64)
    assert double.astype(np.float32).tobytes() == mat.tobytes()  # the cast is exact
    assert not double.flags.writeable and not np.shares_memory(double, mat)
    # A vocabulary the table was not loaded for gets its rows looked up.
    other = TokenVocab(("w1", "w2", "w4"))
    assert embedding_matrix(table, other).tolist() == [[0] * 4, [0] * 4, [2, 2.125, 2.25, 2.375],
                                                      [4, 4.125, 4.25, 4.375]]


def test_cli_vector_load_holds_one_matrix_and_one_chunk(tmp_path):
    dim, n = 50, 40 * sarv.embed.LOAD_CHUNK_LINES
    rng = np.random.default_rng(3)
    lines = [f"واژه{i} " + " ".join(f"{v:.6f}" for v in rng.normal(size=dim)) + "\n"
             for i in range(n)]
    path = tmp_path / "vec.txt"
    write(path, lines)
    # Three in four lines are kept, and a few vocabulary tokens are absent.
    vocab = TokenVocab(tuple(f"واژه{i}" for i in range(n) if i % 4) +
                       tuple(f"غایب{i}" for i in range(100)))
    cfg = RunConfig(embeddings=str(path))
    _embedding_matrix_for(cfg, vocab, np.float32)  # warm up imports and caches
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        emb, _ = _embedding_matrix_for(cfg, vocab, np.float32)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    chunk_text = sum(map(len, lines[:sarv.embed.LOAD_CHUNK_LINES])) * 2  # UCS-2 str
    # The matrix, one chunk's lines and what loadtxt parses them into; not
    # a second copy of the kept rows.
    assert peak < emb.nbytes + 4 * chunk_text, (peak, emb.nbytes, chunk_text)

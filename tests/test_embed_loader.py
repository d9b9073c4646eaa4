"""The chunked embedding loader against the line-by-line oracle.

``load_embeddings`` parses ``LOAD_CHUNK_LINES`` lines per ``np.loadtxt``
call and re-parses a rejected chunk line by line.  Whatever the chunk
size and however the file is malformed, it must keep the same vectors
(bit for bit) and count the same loaded and skipped lines as
``embed_reference.reference_load``; with a vocabulary it keeps only the
vocabulary's rows and still counts every line.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import sarv.embed
from sarv.embed import TokenVocab, load_embeddings

from embed_reference import reference_load

TOKENS = ("خوب", "بد", "#x", "a", "عالی", "1.5")
# Components a line is skipped for (unparsable or non-finite), plus 1_0 and
# the Arabic-Indic digit one, which float() reads and loadtxt rejects.
BAD_NUMBERS = ("x", "1_0", "0x1p3", "", "1e400", "-1e39", "nan", "-inf", "Infinity", "1,5",
               "١", "1e", "--1", "nan(1)", "1.0f")
GOOD_NUMBERS = ("0", "-0.0", "1.", ".5", "+3", "1e-3", "2E5", "3.4028235e38", "0.30000000000000004")
SEPARATORS = (" ", "  ", "\t", " \t ", "\xa0", " ")


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

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
import warnings
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

"""Word vectors, token/char vocabularies, and sentence vectorization.

Word vectors come from a GloVe-format text file and are frozen; any
token absent from the table (including PAD) maps to the zero vector.
Loaded for a token vocabulary, as training loads them, each kept vector
is parsed straight into its row of the one embedding matrix, so no
per-token copy is ever built.
Character ids feed the trained character channel, with id 0 reserved
for char-level padding and unknown characters.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from itertools import islice, repeat
from typing import Iterable, Sequence

import numpy as np

from sarv.errors import DataError
from sarv.nn import read_checked
from sarv.textproc import PAD, FixedSentence, TokenSeq

DEFAULT_DIM = 50
DEFAULT_MAX_WORD_CHARS = 20


class EmbeddingTable:
    """Token -> dense vector map loaded from GloVe text.

    Loaded without a vocabulary, ``entries`` maps each token to its
    vector.  Loaded for ``vocab``, the kept vectors live only in
    ``matrix``: row ``vocab.ids[token]`` holds the token's vector, and
    row 0 and the rows of tokens the file lacks are zero.  ``entries``
    is then built from the matrix on first use.
    """

    def __init__(self, dim: int, vocab: TokenVocab | None = None):
        if dim < 1:
            raise ValueError(f"embedding dim must be >= 1, got {dim}")
        self.dim = dim
        self.vocab = vocab
        self.zero_vector = np.zeros(dim, dtype=np.float32)
        self.zero_vector.flags.writeable = False
        self.loaded_lines = 0
        self.skipped_lines = 0
        self.sha256 = ""  # of the file's bytes, set by load_embeddings
        if vocab is None:
            self.matrix = self.found = None
            self._entries: dict[str, np.ndarray] | None = {}
        else:
            self.matrix = np.zeros((len(vocab) + 1, dim), dtype=np.float32)
            self.found = np.zeros(len(vocab) + 1, dtype=bool)  # rows the file filled
            self._entries = None

    @property
    def entries(self) -> dict[str, np.ndarray]:
        if self._entries is None:
            ids = np.flatnonzero(self.found)
            rows = self.matrix[ids]  # one compact copy of the filled rows
            rows.flags.writeable = False
            self._entries = dict(zip([self.vocab.tokens[i - 1] for i in ids.tolist()], rows))
        return self._entries

    def __len__(self) -> int:
        if self.vocab is None:
            return len(self._entries)
        return int(self.found.sum())

    def __contains__(self, token: str) -> bool:
        if self.vocab is None:
            return token in self._entries
        return bool(self.found[self.vocab.ids.get(token, 0)])


# Lines parsed per ``np.loadtxt`` call.  A whole-file parse measured
# +30 MB RSS; 256-line chunks parse as fast as 1024-line ones and load the
# benchmark's files with a 1.6-1.9 MB lower peak RSS.
LOAD_CHUNK_LINES = 256


def load_embeddings(
    path, dim: int = DEFAULT_DIM, vocab: TokenVocab | None = None
) -> EmbeddingTable:
    """Parse a GloVe text file: ``token float*dim`` per line.

    Malformed lines (wrong component count, unparsable or non-finite
    floats) are skipped and counted on the returned table; duplicate
    tokens keep the last occurrence.  An unreadable file, or one that is
    not valid UTF-8, is a DataError.
    Every line is checked, but with ``vocab`` only its tokens' vectors
    are kept, each written straight into its row of ``table.matrix``;
    ``loaded_lines`` still counts every well-formed line.

    Each chunk of ``LOAD_CHUNK_LINES`` lines is parsed by one
    ``np.loadtxt`` call, which also reads the tokens.  A chunk it
    rejects, one whose lines all have some other field count, or one
    whose tokens ``str.split`` would split is parsed again line by line,
    so each malformed line is found and counted as if the whole file
    were parsed that way.  Without ``vocab``, kept rows are read-only
    views of one compact array per chunk; with it, the matrix is made
    read-only once the file is parsed.  The file is read through
    :func:`sarv.nn.read_checked`, so the same reads feed ``table.sha256``,
    which equals :func:`embeddings_sha256` of the bytes parsed.
    """
    table = EmbeddingTable(dim, vocab)

    def parse(reader) -> None:
        fh = io.TextIOWrapper(io.BufferedReader(reader), encoding="utf-8")
        try:
            with np.errstate(over="ignore"):  # out-of-range components become inf, then skipped
                while lines := list(islice(fh, LOAD_CHUNK_LINES)):
                    _load_chunk(table, lines)
        except UnicodeDecodeError as exc:
            raise DataError(f"embeddings {path} is not valid UTF-8 ({exc.reason})") from exc
        finally:
            fh.detach().detach()  # closing the wrappers would close the reader read_checked owns

    _, table.sha256 = read_checked(path, f"embeddings {path}", parse)
    if table.vocab is not None:
        table.matrix.flags.writeable = False
    return table


def embeddings_sha256(path) -> str:
    """sha256 of an embeddings file's bytes; an unreadable file is a DataError."""
    return read_checked(path, f"embeddings {path}", lambda reader: None)[1]


def _load_chunk(table: EmbeddingTable, lines: list[str]) -> None:
    """Check and store one chunk of lines, parsed by one ``np.loadtxt`` call."""
    if all(map(str.isspace, lines)):  # blank lines are not counted as data
        return
    dim = table.dim
    tokens: list[str] = []
    try:
        # Column 0 goes to tokens.append (its None reads as nan), so loadtxt
        # itself raises when a line's field count differs from the first's.
        # It accepts a subset of what float() accepts, parsing it to the
        # same double before the float32 cast, and raises on the rest.
        # encoding=None hands the converter str, not numpy 1.x's latin-1 bytes.
        values = np.loadtxt(lines, dtype=np.float32, converters={0: tokens.append},
                            comments=None, ndmin=2, encoding=None)
    except ValueError:
        _load_lines(table, lines)
        return
    # Lines that all have another field count, or a token that str.split
    # would split, are left to the per-line parse too.
    if values.shape[1] != dim + 1 or "\n".join(tokens).split() != tokens:
        _load_lines(table, lines)
        return
    values = values[:, 1:]
    finite = np.isfinite(values).all(axis=1)
    loaded = int(finite.sum())
    table.loaded_lines += loaded
    table.skipped_lines += len(tokens) - loaded
    if table.vocab is None:
        rows = np.flatnonzero(finite)
        kept = values[rows]  # one compact copy: entries hold views of its rows
        kept.flags.writeable = False
        table._entries.update(zip(map(tokens.__getitem__, rows.tolist()), kept))
        return
    ids = np.fromiter(map(table.vocab.ids.get, tokens, repeat(0)), np.intp, len(tokens))
    # Fancy assignment leaves the winner among repeated ids unspecified, so
    # each id is written once: rows runs from the chunk's end, and unique's
    # first index of an id is then its last line.
    rows = np.flatnonzero(ids * finite)[::-1]
    ids, last = np.unique(ids[rows], return_index=True)
    table.matrix[ids] = values[rows[last]]
    table.found[ids] = True


def _load_lines(table: EmbeddingTable, lines: list[str]) -> None:
    """The per-line parse: one ``float()`` per component."""
    dim = table.dim
    for line in lines:
        parts = line.split()
        if len(parts) != dim + 1:
            if parts:  # blank lines are not counted as data
                table.skipped_lines += 1
            continue
        try:
            vec = np.array([float(p) for p in parts[1:]], dtype=np.float32)
        except ValueError:
            table.skipped_lines += 1
            continue
        if not np.all(np.isfinite(vec)):
            table.skipped_lines += 1
            continue
        table.loaded_lines += 1
        if table.vocab is None:
            vec.flags.writeable = False
            table._entries[parts[0]] = vec
        elif row := table.vocab.ids.get(parts[0]):
            table.matrix[row] = vec
            table.found[row] = True


def lookup(table: EmbeddingTable, token: str) -> np.ndarray:
    """Stored vector for ``token``, or the zero vector if absent."""
    return table.entries.get(token, table.zero_vector)


@dataclass(frozen=True)
class CharVocab:
    """Dense character ids starting at 1; id 0 is reserved char-PAD."""

    chars: tuple[str, ...]
    max_word_chars: int = DEFAULT_MAX_WORD_CHARS
    ids: dict[str, int] = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "ids", {ch: i + 1 for i, ch in enumerate(self.chars)}
        )

    def __len__(self) -> int:
        return len(self.chars)


def build_char_vocab(
    corpus: Iterable[TokenSeq | Sequence[str]], max_word_chars: int = DEFAULT_MAX_WORD_CHARS
) -> CharVocab:
    """Collect every character seen in corpus tokens, sorted by code point."""
    seen = set("".join(_distinct_tokens(corpus)))
    return CharVocab(chars=tuple(sorted(seen)), max_word_chars=max_word_chars)


def _distinct_tokens(corpus: Iterable[TokenSeq | Sequence[str]]) -> set[str]:
    """Every token of the corpus, from ``TokenSeq``s or plain token sequences."""
    seen: set[str] = set()
    for seq in corpus:
        seen.update(seq.tokens if isinstance(seq, TokenSeq) else seq)
    return seen


def encode_chars(token: str, vocab: CharVocab) -> np.ndarray:
    """First ``max_word_chars`` characters as ids, right-padded with 0.

    Unknown characters map to 0; the PAD token yields the all-zero row.
    """
    out = np.zeros(vocab.max_word_chars, dtype=np.int64)
    for i, ch in enumerate(token[: vocab.max_word_chars]):
        out[i] = vocab.ids.get(ch, 0)
    return out


def serialize_char_vocab(vocab: CharVocab) -> str:
    lines = [f"{ch}\t{i + 1}" for i, ch in enumerate(vocab.chars)]
    lines.append(f"#max_word_chars\t{vocab.max_word_chars}")
    return "\n".join(lines) + "\n"


def parse_char_vocab(text: str) -> CharVocab:
    chars: list[str] = []
    max_word_chars = DEFAULT_MAX_WORD_CHARS
    for line in text.splitlines():
        if not line:
            continue
        key, _, value = line.partition("\t")
        if key == "#max_word_chars":
            max_word_chars = int(value)
            continue
        if int(value) != len(chars) + 1:
            raise ValueError(f"char vocab ids not dense at {key!r}")
        chars.append(key)
    return CharVocab(chars=tuple(chars), max_word_chars=max_word_chars)


@dataclass(frozen=True)
class TokenVocab:
    """Token ids for shard records; id 0 is shared by PAD and OOV."""

    tokens: tuple[str, ...]
    ids: dict[str, int] = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "ids", {t: i + 1 for i, t in enumerate(self.tokens)}
        )

    def __len__(self) -> int:
        return len(self.tokens)

    def token_id(self, token: str) -> int:
        if token == PAD:
            return 0
        return self.ids.get(token, 0)


def build_token_vocab(corpus: Iterable[TokenSeq | Sequence[str]]) -> TokenVocab:
    """All distinct corpus tokens, sorted by code point for stable ids."""
    seen = _distinct_tokens(corpus)
    seen.discard(PAD)
    return TokenVocab(tokens=tuple(sorted(seen)))


def serialize_token_vocab(vocab: TokenVocab) -> str:
    return "".join(f"{t}\t{i + 1}\n" for i, t in enumerate(vocab.tokens))


def parse_token_vocab(text: str) -> TokenVocab:
    tokens: list[str] = []
    for line in text.splitlines():
        if not line:
            continue
        token, _, value = line.partition("\t")
        if int(value) != len(tokens) + 1:
            raise ValueError(f"token vocab ids not dense at {token!r}")
        tokens.append(token)
    return TokenVocab(tokens=tuple(tokens))


def encode_token_ids(sentence: FixedSentence, vocab: TokenVocab) -> np.ndarray:
    return np.array([vocab.token_id(t) for t in sentence.tokens], dtype=np.int64)


def embedding_matrix(
    table: EmbeddingTable, vocab: TokenVocab, dtype=np.float32
) -> np.ndarray:
    """Rows aligned with token ids; row 0 (PAD/OOV) is all zeros.

    For a table loaded for ``vocab`` this is ``table.matrix`` itself in
    float32, and its exact cast otherwise.  The result is read-only.
    """
    if table.vocab == vocab:
        mat = table.matrix.astype(dtype, copy=False)
    else:
        mat = np.zeros((len(vocab) + 1, table.dim), dtype=dtype)
        if vocab.tokens:
            zero = table.zero_vector
            rows = [table.entries.get(t, zero) for t in vocab.tokens]
            np.concatenate(rows, out=mat[1:].reshape(-1))  # a view: mat is contiguous
    mat.flags.writeable = False
    return mat

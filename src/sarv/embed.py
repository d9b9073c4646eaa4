"""Word vectors, token/char vocabularies, and sentence vectorization.

Word vectors come from a GloVe-format text file and are frozen; any
token absent from the table (including PAD) maps to the zero vector.
Character ids feed the trained character channel, with id 0 reserved
for char-level padding and unknown characters.
"""

from __future__ import annotations

import hashlib
import io
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Sequence

import numpy as np

from sarv.errors import DataError
from sarv.textproc import PAD, FixedSentence, TokenSeq

DEFAULT_DIM = 50
DEFAULT_MAX_WORD_CHARS = 20


class EmbeddingTable:
    """Immutable token -> dense vector map loaded from GloVe text."""

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError(f"embedding dim must be >= 1, got {dim}")
        self.dim = dim
        self.entries: dict[str, np.ndarray] = {}
        self.zero_vector = np.zeros(dim, dtype=np.float32)
        self.zero_vector.flags.writeable = False
        self.loaded_lines = 0
        self.skipped_lines = 0
        self.sha256 = ""  # of the file's bytes, set by load_embeddings

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, token: str) -> bool:
        return token in self.entries


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
    tokens keep the last occurrence.  An unreadable file is fatal.
    Every line is checked, but with ``vocab`` only its tokens' vectors
    are kept; ``loaded_lines`` still counts every well-formed line.

    Each chunk of ``LOAD_CHUNK_LINES`` lines is parsed by one
    ``np.loadtxt`` call, which also reads the tokens.  A chunk it
    rejects, one whose lines all have some other field count, or one
    whose tokens ``str.split`` would split is parsed again line by line,
    so each malformed line is found and counted as if the whole file
    were parsed that way.  Kept rows are read-only views of one compact
    array per chunk.  The same reads feed ``table.sha256``, which equals
    :func:`embeddings_sha256` of the bytes parsed.
    """
    table = EmbeddingTable(dim)
    keep = None if vocab is None else vocab.ids
    try:
        raw = _HashingReader(open(path, "rb", buffering=0))
    except OSError as exc:
        raise DataError(f"cannot read embeddings {path}: {exc}") from exc
    fh = io.TextIOWrapper(io.BufferedReader(raw), encoding="utf-8")
    with fh, np.errstate(over="ignore"):  # out-of-range components become inf, then skipped
        while lines := list(islice(fh, LOAD_CHUNK_LINES)):
            _load_chunk(table, lines, keep)
        table.sha256 = raw.digest.hexdigest()
    return table


# Bytes per read when hashing a file.  Reads below malloc's mmap threshold
# (128 KiB) hash as fast as 1 MiB reads, which raised `train`'s peak RSS.
HASH_READ_BYTES = 1 << 16


class _HashingReader(io.RawIOBase):
    """An unbuffered binary file whose reads also feed a sha256, in file order."""

    def __init__(self, fh: io.RawIOBase):
        self._fh = fh
        self.digest = hashlib.sha256()

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int | None:
        n = self._fh.readinto(buffer)
        if n:
            self.digest.update(memoryview(buffer)[:n])
        return n

    def close(self) -> None:
        self._fh.close()
        super().close()


def embeddings_sha256(path) -> str:
    """sha256 of an embeddings file's bytes; an unreadable file is a DataError."""
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            while chunk := fh.read(HASH_READ_BYTES):
                digest.update(chunk)
    except OSError as exc:
        raise DataError(f"cannot read embeddings {path}: {exc}") from exc
    return digest.hexdigest()


def _load_chunk(table: EmbeddingTable, lines: list[str], keep: dict | None) -> None:
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
        _load_lines(table, lines, keep)
        return
    # Lines that all have another field count, or a token that str.split
    # would split, are left to the per-line parse too.
    if values.shape[1] != dim + 1 or "\n".join(tokens).split() != tokens:
        _load_lines(table, lines, keep)
        return
    values = values[:, 1:]
    finite = np.isfinite(values).all(axis=1)
    loaded = int(finite.sum())
    table.loaded_lines += loaded
    table.skipped_lines += len(tokens) - loaded
    if keep is not None:
        finite &= np.fromiter(map(keep.__contains__, tokens), bool, len(tokens))
    rows = np.flatnonzero(finite)
    kept = values[rows]  # one compact copy: entries hold views of its rows
    kept.flags.writeable = False
    table.entries.update(zip(map(tokens.__getitem__, rows.tolist()), kept))


def _load_lines(table: EmbeddingTable, lines: list[str], keep: dict | None) -> None:
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
        if keep is None or parts[0] in keep:
            vec.flags.writeable = False
            table.entries[parts[0]] = vec


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

    def vocab_hash(self) -> str:
        return hashlib.sha256(serialize_char_vocab(self).encode("utf-8")).hexdigest()


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

    def vocab_hash(self) -> str:
        return hashlib.sha256(serialize_token_vocab(self).encode("utf-8")).hexdigest()


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
    """Rows aligned with token ids; row 0 (PAD/OOV) is all zeros."""
    mat = np.zeros((len(vocab) + 1, table.dim), dtype=dtype)
    if vocab.tokens:
        zero = table.zero_vector
        rows = [table.entries.get(t, zero) for t in vocab.tokens]
        np.concatenate(rows, out=mat[1:].reshape(-1))  # a view: mat is contiguous
    mat.flags.writeable = False
    return mat

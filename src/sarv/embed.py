"""Word vectors, token/char vocabularies, and sentence vectorization.

Word vectors come from a GloVe-format text file and are frozen; any
token absent from the table (including PAD) maps to the zero vector.
Character ids feed the trained character channel, with id 0 reserved
for char-level padding and unknown characters.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from sarv.errors import DataError
from sarv.textproc import PAD, FixedSentence, TokenSeq

DEFAULT_DIM = 50
DEFAULT_MAX_WORD_CHARS = 20


class EmbeddingTable:
    """Immutable token -> dense vector map loaded from GloVe text."""

    def __init__(self, dim: int, entries: dict[str, np.ndarray] | None = None):
        if dim < 1:
            raise ValueError(f"embedding dim must be >= 1, got {dim}")
        self.dim = dim
        self.entries: dict[str, np.ndarray] = {}
        self.zero_vector = np.zeros(dim, dtype=np.float32)
        self.zero_vector.flags.writeable = False
        self.loaded_lines = 0
        self.skipped_lines = 0
        for token, vec in (entries or {}).items():
            self.add(token, vec)

    def add(self, token: str, vector) -> None:
        vec = np.asarray(vector, dtype=np.float32)
        if vec.shape != (self.dim,):
            raise ValueError(f"vector for {token!r} has shape {vec.shape}, want ({self.dim},)")
        vec = vec.copy()
        vec.flags.writeable = False
        self.entries[token] = vec

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, token: str) -> bool:
        return token in self.entries


def load_embeddings(path, dim: int = DEFAULT_DIM) -> EmbeddingTable:
    """Parse a GloVe text file: ``token float*dim`` per line.

    Malformed lines (wrong component count, unparsable or non-finite
    floats) are skipped and counted on the returned table; duplicate
    tokens keep the last occurrence.  An unreadable file is fatal.
    """
    table = EmbeddingTable(dim)
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read embeddings {path}: {exc}") from exc
    with fh:
        for line in fh:
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
            vec.flags.writeable = False
            table.entries[parts[0]] = vec
            table.loaded_lines += 1
    return table


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
    corpus: Iterable[TokenSeq], max_word_chars: int = DEFAULT_MAX_WORD_CHARS
) -> CharVocab:
    """Collect every character seen in corpus tokens, sorted by code point."""
    seen: set[str] = set()
    for seq in corpus:
        for token in seq.tokens:
            seen.update(token)
    return CharVocab(chars=tuple(sorted(seen)), max_word_chars=max_word_chars)


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


def build_token_vocab(corpus: Iterable[TokenSeq]) -> TokenVocab:
    """All distinct corpus tokens, sorted by code point for stable ids."""
    seen: set[str] = set()
    for seq in corpus:
        seen.update(seq.tokens)
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
    for i, token in enumerate(vocab.tokens):
        mat[i + 1] = lookup(table, token)
    mat.flags.writeable = False
    return mat

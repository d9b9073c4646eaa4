"""Corpus readers, label schemes, the encoder, and the encoded record layout.

A corpus is delimited text (CSV/TSV) with a configurable column mapping
for {text, label, category}, or line-delimited JSON records with those
keys.  An encoded record is fixed-length token ids, per-token char ids,
true length, and class label, stored as one row of a structured array
(:func:`record_dtype`) from the encoder to the model.  An
:class:`Encoder` holds the normaliser and vocabularies a shard directory
was encoded with, encodes token sequences straight into that record
array, and checks them against what manifests and checkpoints recorded.
:func:`encode_sentence` encodes one review as an :class:`EncodedSentence`
tuple, the reference ``Encoder.encode_many`` is tested against.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from sarv.embed import (CharVocab, TokenVocab, encode_chars, encode_token_ids, parse_char_vocab,
                        parse_token_vocab, serialize_char_vocab, serialize_token_vocab)
from sarv.errors import ConfigError, DataError
from sarv.textproc import MAX_LEN, FixedSentence, NormConfig, load_stopwords

BINARY_CLASSES = ("negative", "positive")
TERNARY_CLASSES = ("negative", "neutral", "positive")


@dataclass(frozen=True)
class LabelScheme:
    """Ordered class names; records are one-hot encoded against them."""

    classes: tuple[str, ...]

    @classmethod
    def for_num_classes(cls, num_classes: int) -> "LabelScheme":
        if num_classes == 2:
            return cls(BINARY_CLASSES)
        if num_classes == 3:
            return cls(TERNARY_CLASSES)
        raise ConfigError(f"num_classes must be 2 or 3, got {num_classes}")

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    def label_index(self, raw: str | int) -> int:
        """Map a raw label (class name or integer index) to its index."""
        if isinstance(raw, int):
            idx = raw
        else:
            name = raw.strip().lower()
            if name in self.classes:
                return self.classes.index(name)
            try:
                idx = int(name)
            except ValueError:
                raise DataError(f"unknown label {raw!r}; expected one of {self.classes}")
        if not 0 <= idx < len(self.classes):
            raise DataError(f"label index {idx} out of range for {len(self.classes)} classes")
        return idx


@dataclass(frozen=True)
class RawRecord:
    text: str
    label: str
    category: str | None = None


@dataclass
class SkippedRow:
    line_no: int
    reason: str


def _infer_format(path: Path) -> str:
    suffix = path.suffix.lower()
    if suffix in (".csv",):
        return "csv"
    if suffix in (".tsv", ".tab"):
        return "tsv"
    if suffix in (".jsonl", ".ndjson", ".json"):
        return "jsonl"
    raise ConfigError(f"cannot infer corpus format from {path.name!r}; pass fmt explicitly")


def read_corpus(
    path,
    fmt: str | None = None,
    text_col: str | int = "text",
    label_col: str | int = "label",
    category_col: str | int | None = "category",
    max_bad_rows: int = 100,
) -> tuple[list[RawRecord], list[SkippedRow]]:
    """Load raw records, skipping malformed rows up to ``max_bad_rows``.

    Column values may be header names (CSV/TSV with a header row) or
    zero-based integer indices (headerless files).  Records are split only
    at line ends ("\n", "\r\n" and "\r"), never at the other separators
    ``str.splitlines`` breaks at (U+2028, "\x1c", ...), and a quoted CSV/TSV
    field may span lines.  Beyond the skip threshold the whole read fails;
    a negative threshold is a ``ConfigError``.
    """
    if max_bad_rows < 0:
        raise ConfigError(f"max_bad_rows must be >= 0, got {max_bad_rows}")
    path = Path(path)
    fmt = fmt or _infer_format(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read corpus {path}: {exc}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"corpus {path} is not valid UTF-8 at byte {exc.start}") from exc

    if fmt == "jsonl":
        records, skipped = _read_jsonl(text, text_col, label_col, category_col)
    elif fmt in ("csv", "tsv"):
        records, skipped = _read_delimited(
            text, "," if fmt == "csv" else "\t", text_col, label_col, category_col
        )
    else:
        raise ConfigError(f"unknown corpus format {fmt!r}")

    if len(skipped) > max_bad_rows:
        raise DataError(
            f"{len(skipped)} malformed rows exceed threshold {max_bad_rows}; "
            f"first: line {skipped[0].line_no}: {skipped[0].reason}"
        )
    return records, skipped


def split_lines(text: str) -> list[str]:
    """``text`` split at line ends only: "\n", "\r\n" and "\r".

    Unlike ``str.splitlines`` it does not break at U+2028/2029, "\x0b",
    "\x0c", "\x1c"-"\x1e" or "\x85", which may sit inside a record.
    """
    return io.StringIO(text, newline=None).read().split("\n")


def _read_jsonl(text, text_col, label_col, category_col):
    records: list[RawRecord] = []
    skipped: list[SkippedRow] = []
    for line_no, line in enumerate(split_lines(text), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            records.append(
                RawRecord(
                    text=str(obj[text_col]),
                    label=str(obj[label_col]),
                    category=str(obj[category_col]) if category_col and category_col in obj else None,
                )
            )
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            skipped.append(SkippedRow(line_no, f"{type(exc).__name__}: {exc}"))
    return records, skipped


def _read_delimited(text, delimiter, text_col, label_col, category_col):
    reader = csv.reader(io.StringIO(text, newline=""), delimiter=delimiter)
    rows, line_no = [], 1  # (the row's first line number, the row)
    for row in reader:
        rows.append((line_no, row))
        line_no = reader.line_num + 1
    records: list[RawRecord] = []
    skipped: list[SkippedRow] = []
    positional = isinstance(text_col, int) and isinstance(label_col, int)
    if positional:
        header_map = None
        data_rows = rows
    else:
        if not rows:
            return records, skipped
        header_map = {name: i for i, name in enumerate(rows[0][1])}
        data_rows = rows[1:]

    def col_index(col, line_no):
        if isinstance(col, int):
            return col
        if header_map is None or col not in header_map:
            raise KeyError(col)
        return header_map[col]

    for line_no, row in data_rows:
        if not row:
            continue
        try:
            ti = col_index(text_col, line_no)
            li = col_index(label_col, line_no)
            category = None
            if category_col is not None:
                try:
                    ci = col_index(category_col, line_no)
                    category = row[ci]
                except (KeyError, IndexError):
                    category = None
            records.append(RawRecord(text=row[ti], label=row[li], category=category))
        except (KeyError, IndexError) as exc:
            skipped.append(SkippedRow(line_no, f"missing column: {exc}"))
    return records, skipped


@dataclass(frozen=True)
class EncodedSentence:
    """Fixed-length token ids + per-token char ids + true length + label."""

    token_ids: tuple[int, ...]
    char_ids: tuple[tuple[int, ...], ...]
    true_length: int
    label: int

    def to_json_line(self) -> str:
        """The record as one JSON line, char rows without trailing zeros."""
        chars = [list(np.trim_zeros(row, "b")) for row in self.char_ids]
        return _json_line(list(self.token_ids), chars, self.true_length, self.label)


def _json_line(token_ids: list, char_rows: list, true_length: int, label: int) -> str:
    obj = {"t": token_ids, "c": char_rows, "len": true_length, "y": label}
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=True)


def char_widths(char_ids: np.ndarray) -> np.ndarray:
    """Each char row's length up to its last nonzero id (0 for an all-zero row)."""
    nonzero = char_ids != 0
    return np.where(nonzero.any(axis=-1),
                    char_ids.shape[-1] - np.argmax(nonzero[..., ::-1], axis=-1), 0)


def to_json_lines(records: np.ndarray) -> str:
    """A record array as ``EncodedSentence.to_json_line`` lines, one per record."""
    chars = records["c"]
    widths = char_widths(chars)
    lines = []
    for t, c, w, n, y in zip(records["t"].tolist(), chars.tolist(), widths.tolist(),
                             records["len"].tolist(), records["y"].tolist()):
        rows = [row[:k] for row, k in zip(c, w)]
        lines.append(_json_line(t, rows, n, y) + "\n")
    return "".join(lines)


def record_dtype(max_len: int, max_word_chars: int) -> np.dtype:
    """One encoded record as a row of a structured array.

    ``y`` label, ``len`` true length, ``t`` token ids, ``c`` char ids per
    token slot; 668 bytes per record at 15 slots of 20 chars.
    """
    return np.dtype([
        ("y", "<i4"),
        ("len", "<i4"),
        ("t", "<i4", (max_len,)),
        ("c", "<u2", (max_len, max_word_chars)),
    ])


def as_records(records: Sequence[EncodedSentence] | np.ndarray, max_word_chars: int) -> np.ndarray:
    """The encoder's sentences stacked into one record array, in order.

    A record array passes through unchanged.  The slot count is the
    sentences' own (``MAX_LEN`` when there are none).
    """
    if isinstance(records, np.ndarray):
        return records
    max_len = len(records[0].token_ids) if records else MAX_LEN
    rows = [(r.label, r.true_length, r.token_ids, r.char_ids) for r in records]
    try:
        return np.array(rows, dtype=record_dtype(max_len, max_word_chars))
    except (ValueError, OverflowError) as exc:
        raise DataError(f"records do not fit {max_len} slots x {max_word_chars} chars: {exc}") from exc


def encode_sentence(
    fixed: FixedSentence,
    token_vocab: TokenVocab,
    char_vocab: CharVocab,
    label: int,
) -> EncodedSentence:
    token_ids = tuple(int(i) for i in encode_token_ids(fixed, token_vocab))
    char_ids = tuple(
        tuple(int(c) for c in encode_chars(t, char_vocab)) for t in fixed.tokens
    )
    return EncodedSentence(
        token_ids=token_ids, char_ids=char_ids, true_length=fixed.true_length, label=label
    )


# What shard manifests and checkpoints record of the encoder they were built with.
ENCODER_HASH_KEYS = ("vocab_hash", "char_vocab_hash", "norm_config_hash")


@dataclass(frozen=True)
class Encoder:
    """The normaliser and vocabularies one shard directory was encoded with.

    ``encode_many`` is the one path from token sequences to a record
    array.  ``save``/``load`` own the directory's
    ``vocab.tsv``, ``chars.tsv`` and ``stopwords.txt`` (the folded
    stopword set, sorted, one per line); ``check`` refuses a manifest or
    checkpoint recorded against any other encoder.
    """

    norm: NormConfig
    token_vocab: TokenVocab
    char_vocab: CharVocab

    def save(self, out_dir) -> None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        files = {
            "vocab.tsv": serialize_token_vocab(self.token_vocab),
            "chars.tsv": serialize_char_vocab(self.char_vocab),
            "stopwords.txt": "".join(w + "\n" for w in sorted(self.norm.stopwords)),
        }
        for name, text in files.items():
            (out_dir / name).write_text(text, encoding="utf-8")

    @classmethod
    def load(cls, shard_dir) -> "Encoder":
        shard_dir = Path(shard_dir)
        try:
            token_vocab = parse_token_vocab((shard_dir / "vocab.tsv").read_text("utf-8"))
            char_vocab = parse_char_vocab((shard_dir / "chars.tsv").read_text("utf-8"))
            stopwords = load_stopwords(shard_dir / "stopwords.txt")
        except OSError as exc:
            raise DataError(f"missing encoder file in {shard_dir}: {exc}") from exc
        except ValueError as exc:  # includes UnicodeDecodeError
            raise DataError(f"corrupt encoder file in {shard_dir}: {exc}") from exc
        return cls(NormConfig(stopwords=stopwords), token_vocab, char_vocab)

    def hashes(self) -> dict[str, str]:
        """This encoder's value for each of ``ENCODER_HASH_KEYS``."""
        values = (self.token_vocab.vocab_hash(), self.char_vocab.vocab_hash(),
                  self.norm.config_hash())
        return dict(zip(ENCODER_HASH_KEYS, values))

    def check(self, recorded: Mapping[str, str], source: str) -> None:
        """Raise DataError unless ``recorded`` holds all three of this encoder's hashes.

        A missing or empty recorded hash is a mismatch too.
        """
        for key, found in self.hashes().items():
            want = recorded.get(key) or ""
            if want != found:
                raise DataError(
                    f"{source} / shard directory mismatch: {key} "
                    f"{want[:12] or '(none)'}… recorded vs {found[:12]}… in the shard directory"
                )

    def encode_many(self, seqs: Sequence[Sequence[str]], labels: Sequence[int],
                    max_len: int) -> np.ndarray:
        """Token sequences and their labels as one record array of ``max_len`` slots, in order.

        Each sequence keeps its first ``max_len`` tokens and the rest of its
        slots are PAD, so the result equals ``as_records`` of each sequence's
        ``encode_sentence(unify_length(seq, max_len), ...)``.  Each distinct
        token is looked up once: every kept token holds the index of its row
        in a table of distinct tokens, the token ids and char rows are
        gathered from that table, and PAD slots stay zero.
        """
        if max_len < 1:
            raise ValueError(f"max_len must be >= 1, got {max_len}")
        width = self.char_vocab.max_word_chars
        lengths = np.fromiter(map(len, seqs), dtype=np.intp, count=len(seqs))
        tokens = [t for seq in seqs for t in seq[:max_len]]
        row_of = {t: i for i, t in enumerate(dict.fromkeys(tokens))}
        rows = np.fromiter(map(row_of.__getitem__, tokens), dtype=np.intp, count=len(tokens))
        token_ids = np.array([self.token_vocab.token_id(t) for t in row_of], dtype=np.int64)
        char_id = self.char_vocab.ids.get
        widths = np.fromiter((min(len(t), width) for t in row_of), dtype=np.intp,
                             count=len(row_of))
        char_ids = np.zeros((len(row_of), width), dtype=np.int64)
        char_ids[np.arange(width) < widths[:, None]] = [
            char_id(ch, 0) for t in row_of for ch in t[:width]]
        dtype = record_dtype(max_len, width)
        for name, table in (("t", token_ids), ("c", char_ids)):
            limit = np.iinfo(dtype[name].base).max
            if table.size and table.max() > limit:
                raise DataError(f"records do not fit {max_len} slots x {width} chars: "
                                f"{name} id {table.max()} exceeds {limit}")
        out = np.zeros(len(seqs), dtype)
        out["y"] = labels
        out["len"] = np.minimum(lengths, max_len)
        kept = np.arange(max_len) < out["len"][:, None]  # row-major, like ``tokens``
        out["t"][kept] = token_ids[rows]
        out["c"][kept] = char_ids.astype(dtype["c"].base)[rows]
        return out

"""Corpus readers, label schemes, the encoder, and the encoded record layout.

A corpus is delimited text (CSV/TSV) with a configurable column mapping
for {text, label, category}, or line-delimited JSON records with those
keys.  An encoded record is fixed-length token ids, per-token char ids,
true length, and class label, stored as one row of a structured array
(:func:`record_dtype`) from the encoder to the model.  An
:class:`Encoder` holds the normaliser and vocabularies a shard directory
was encoded with and encodes raw texts straight into that record array;
its hashes are checked against what manifests and checkpoints recorded.
:func:`text_lines` reads the lines of a byte stream (a corpus file,
``predict``'s ``--input`` or standard input) a block at a time, and
:class:`CorpusReader` and :func:`encode_corpus` stream a corpus file
through it one chunk of reviews at a time into an :class:`EncodedCorpus`:
each review's slot numbers into per-token tables, from which its record
is gathered only when it is written.
:func:`encode_sentence` encodes one review as an :class:`EncodedSentence`
tuple, the reference ``Encoder.encode_texts`` is tested against.
:func:`batches` cuts a stream of record arrays (the shards of a manifest,
or ``predict``'s chunks) into fixed-size batches.
"""

from __future__ import annotations

import codecs
import csv
import hashlib
import io
import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from itertools import chain, islice
from typing import BinaryIO, Iterable, Iterator, Mapping, Sequence

import numpy as np

from sarv import textproc
from sarv.embed import (CharVocab, TokenVocab, build_char_vocab, build_token_vocab, encode_chars,
                        encode_token_ids, parse_char_vocab, parse_token_vocab,
                        serialize_char_vocab, serialize_token_vocab)
from sarv.errors import ConfigError, DataError
from sarv.nn import open_binary
from sarv.textproc import (MAX_LEN, FixedSentence, LengthHistogram, NormConfig, TokenTable,
                           load_stopwords)

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


# Bytes per read of a corpus file or of predict's input.
READ_BYTES = 1 << 16


class CorpusReader:
    """The raw records of a corpus file, read a block at a time as they are iterated.

    Column values may be header names (CSV/TSV with a header row) or
    zero-based integer indices (headerless files).  Records are split only
    at line ends ("\n", "\r\n" and "\r"), never at the other separators
    ``str.splitlines`` breaks at (U+2028, "\x1c", ...), and a quoted CSV/TSV
    field may span lines.  Iterating yields the records in file order and
    fills ``skipped`` with the malformed rows; past ``max_bad_rows`` of them
    the iteration ends in a DataError naming the first.  Invalid UTF-8 and
    a field over the ``csv`` module's size limit are DataErrors too.  A bad
    format or a negative threshold is a ``ConfigError`` on construction.
    """

    def __init__(self, path, fmt: str | None = None, text_col: str | int = "text",
                 label_col: str | int = "label", category_col: str | int | None = "category",
                 max_bad_rows: int = 100):
        if max_bad_rows < 0:
            raise ConfigError(f"max_bad_rows must be >= 0, got {max_bad_rows}")
        self.path = Path(path)
        self.fmt = fmt or _infer_format(self.path)
        if self.fmt not in ("jsonl", "csv", "tsv"):
            raise ConfigError(f"unknown corpus format {self.fmt!r}")
        self.columns = (text_col, label_col, category_col)
        self.max_bad_rows = max_bad_rows
        self.skipped: list[SkippedRow] = []

    def __iter__(self) -> Iterator[RawRecord]:
        self.skipped = []
        bad = 0
        name = f"corpus {self.path}"
        with open_binary(self.path, name) as fh:
            lines = text_lines(fh, name)
            if self.fmt == "jsonl":
                rows = _parse_jsonl(lines, *self.columns)
            else:
                rows = _parse_delimited(lines, "," if self.fmt == "csv" else "\t", self.path,
                                        *self.columns)
            for row in rows:
                if type(row) is RawRecord:
                    yield row
                    continue
                bad += 1
                if bad <= self.max_bad_rows + 1:  # threshold 0 still names a first
                    self.skipped.append(row)
        if bad > self.max_bad_rows:
            first = self.skipped[0]
            raise DataError(f"{bad} malformed rows exceed threshold {self.max_bad_rows}; "
                            f"first: line {first.line_no}: {first.reason}")


def read_corpus(
    path,
    fmt: str | None = None,
    text_col: str | int = "text",
    label_col: str | int = "label",
    category_col: str | int | None = "category",
    max_bad_rows: int = 100,
) -> tuple[list[RawRecord], list[SkippedRow]]:
    """Load every raw record of a corpus file, skipping malformed rows up to ``max_bad_rows``.

    The list form of :class:`CorpusReader`, which documents the columns,
    the line ends and the errors.
    """
    reader = CorpusReader(path, fmt, text_col, label_col, category_col, max_bad_rows)
    records = list(reader)
    return records, reader.skipped


def text_lines(stream: BinaryIO, name: str) -> Iterator[str]:
    """The lines of a UTF-8 byte stream, each with its line end, read ``READ_BYTES`` at a time.

    Lines end at "\n", "\r\n" or "\r", as ``open(newline="")`` splits them,
    never at the other separators ``str.splitlines`` breaks at.  A read
    error or invalid UTF-8 (by the offset of its first byte) is a DataError
    naming ``name``: ``corpus <path>``, ``input <path>`` or ``standard
    input``.  The caller closes the stream.
    """
    offset, pending, tail = 0, b"", []  # bytes decoded, bytes not yet, text after the cut
    while True:
        try:
            block = stream.read(READ_BYTES)
        except OSError as exc:
            raise DataError(f"cannot read {name}: {exc}") from exc
        data = pending + block
        try:
            text, used = codecs.utf_8_decode(data, "strict", not block)
        except UnicodeDecodeError as exc:
            raise DataError(f"{name} is not valid UTF-8 at byte {offset + exc.start}") from exc
        offset, pending = offset + used, data[used:]
        if not block:
            yield from io.StringIO("".join(tail) + text, newline="")
            return
        # Cut after the last line end, but not after a final "\r": the next
        # read may start with the "\n" of its "\r\n".
        cut = max(text.rfind("\n"), text.rfind("\r", 0, len(text) - 1)) + 1
        if cut:
            yield from io.StringIO("".join(tail) + text[:cut], newline="")
            tail = []
        tail.append(text[cut:])


def _parse_jsonl(lines, text_col, label_col, category_col) -> Iterator[RawRecord | SkippedRow]:
    for line_no, line in enumerate(lines, start=1):
        line = line.rstrip("\r\n")  # a line holds its own line end only, at its end
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            yield RawRecord(
                text=str(obj[text_col]),
                label=str(obj[label_col]),
                category=str(obj[category_col]) if category_col and category_col in obj else None,
            )
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            yield SkippedRow(line_no, f"{type(exc).__name__}: {exc}")


def _parse_delimited(lines, delimiter, path, text_col, label_col,
                     category_col) -> Iterator[RawRecord | SkippedRow]:
    reader = csv.reader(lines, delimiter=delimiter)
    positional = isinstance(text_col, int) and isinstance(label_col, int)

    def columns(header: list[str]):
        """Each column's index (None for a name ``header`` lacks), and the skip reason if
        it lacks the text or label column."""
        names = {name: i for i, name in enumerate(header)}
        at = [col if isinstance(col, int) else names.get(col)
              for col in (text_col, label_col, category_col)]
        lacking = [col for col, i in zip((text_col, label_col), at) if i is None]
        return (*at, f"missing column: {KeyError(lacking[0])}" if lacking else None)

    text_at, label_at, category_at, lacking = columns([])
    need_header = not positional
    next_line = 1  # the first line of the next row
    while True:
        line_no = next_line
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:  # e.g. an unclosed quote running past the field size limit
            raise DataError(f"corpus {path}: line {line_no}: {exc}") from exc
        next_line = reader.line_num + 1
        if need_header:
            text_at, label_at, category_at, lacking = columns(row)
            need_header = False
            continue
        if not row:
            continue
        if lacking:
            yield SkippedRow(line_no, lacking)
            continue
        try:
            text, label = row[text_at], row[label_at]
        except IndexError as exc:
            yield SkippedRow(line_no, f"missing column: {exc}")
            continue
        try:
            category = None if category_at is None else row[category_at]
        except IndexError:
            category = None
        yield RawRecord(text=text, label=label, category=category)


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
    # One record's char rows at a time become lists: a chunk's at once hold ~4 KB per record.
    for t, c, w, n, y in zip(records["t"].tolist(), chars, widths.tolist(),
                             records["len"].tolist(), records["y"].tolist()):
        rows = [row[:k] for row, k in zip(c.tolist(), w)]
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


def batches(shards: Iterable[np.ndarray], size: int) -> Iterator[np.ndarray]:
    """Consecutive ``size``-record slices of a stream of record arrays.

    A batch that crosses a shard boundary is the concatenation of its
    pieces; a shard's leftover is copied so the shard itself can be
    dropped.  The last batch may be short.
    """
    if size < 1:
        raise ConfigError(f"batch size must be >= 1, got {size}")
    pending: list[np.ndarray] = []
    have = 0
    for records in shards:
        while len(records):
            piece, records = records[:size - have], records[size - have:]
            have += len(piece)
            if have < size:
                pending.append(piece.copy())
            else:
                yield np.concatenate(pending + [piece]) if pending else piece
                pending, have = [], 0
    if pending:
        yield np.concatenate(pending)


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

    ``encode_texts`` turns raw texts into a record array, and
    :func:`encode_corpus` builds an encoder from a corpus and encodes it
    chunk by chunk.  ``save``/``load`` own the directory's
    ``vocab.tsv``, ``chars.tsv`` and ``stopwords.txt`` (the folded
    stopword set, sorted, one per line), and each returns the encoder's
    hashes: the sha256 of the bytes of ``vocab.tsv`` and ``chars.tsv`` it
    wrote or read, and ``norm.config_hash()``.  :func:`check_hashes` of
    them refuses a manifest or checkpoint recorded against any other
    encoder.
    """

    norm: NormConfig
    token_vocab: TokenVocab
    char_vocab: CharVocab

    def save(self, out_dir) -> dict[str, str]:
        """Write the encoder's files; return its hashes, taken from the bytes written."""
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        files = {
            "vocab.tsv": serialize_token_vocab(self.token_vocab),
            "chars.tsv": serialize_char_vocab(self.char_vocab),
            "stopwords.txt": "".join(w + "\n" for w in sorted(self.norm.stopwords)),
        }
        data = {name: text.encode("utf-8") for name, text in files.items()}
        for name, blob in data.items():
            (out_dir / name).write_bytes(blob)
        return self._hashes(data["vocab.tsv"], data["chars.tsv"])

    @classmethod
    def load(cls, shard_dir) -> tuple["Encoder", dict[str, str]]:
        """The encoder saved in ``shard_dir``, and its hashes, taken from the bytes read.

        A missing file, or one that is not strict UTF-8 or does not parse,
        is a DataError.
        """
        shard_dir = Path(shard_dir)
        try:
            vocab = (shard_dir / "vocab.tsv").read_bytes()
            chars = (shard_dir / "chars.tsv").read_bytes()
            token_vocab = parse_token_vocab(vocab.decode("utf-8"))
            char_vocab = parse_char_vocab(chars.decode("utf-8"))
            stopwords = load_stopwords(shard_dir / "stopwords.txt")
        except OSError as exc:
            raise DataError(f"missing encoder file in {shard_dir}: {exc}") from exc
        except ValueError as exc:  # includes UnicodeDecodeError
            raise DataError(f"corrupt encoder file in {shard_dir}: {exc}") from exc
        encoder = cls(NormConfig(stopwords=stopwords), token_vocab, char_vocab)
        return encoder, encoder._hashes(vocab, chars)

    def _hashes(self, vocab: bytes, chars: bytes) -> dict[str, str]:
        """Each of ``ENCODER_HASH_KEYS``, from the bytes of ``vocab.tsv`` and ``chars.tsv``."""
        return dict(zip(ENCODER_HASH_KEYS, (hashlib.sha256(vocab).hexdigest(),
                                            hashlib.sha256(chars).hexdigest(),
                                            self.norm.config_hash())))

    def encode_texts(self, texts: Sequence[str], labels: Sequence[int] | int,
                     max_len: int) -> np.ndarray:
        """Raw review texts and their labels as one record array of ``max_len`` slots, in order.

        Row ``i`` holds the fields of ``encode_sentence(unify_length(
        tokenize(normalize(texts[i], self.norm)), max_len), ...)``; ``labels``
        is one label per text or one for all.  The texts are numbered in one
        :class:`TokenTable`, so each distinct token is looked up once, and each
        slot's token id and char row are gathered from that table.
        """
        if max_len < 1:
            raise ValueError(f"max_len must be >= 1, got {max_len}")
        table = TokenTable(self.norm)
        slots, lengths = _slot_numbers(table.number_many(texts), max_len)
        out = np.zeros(len(texts), record_dtype(max_len, self.char_vocab.max_word_chars))
        _fill(out, slots, lengths, labels, *self._tables(table.tokens, max_len))
        return out

    def _tables(self, tokens: Sequence[str], max_len: int) -> tuple[np.ndarray, np.ndarray]:
        """Each token's id and char row, in the dtypes of ``max_len``-slot records.

        PAD gets id 0 and the all-zero char row.  An id too large for the
        record layout is a DataError.  The char rows are looked up by code
        point from the characters the tokens' first ``max_word_chars`` hold.
        """
        width = self.char_vocab.max_word_chars
        dtype = record_dtype(max_len, width)
        token_ids = [self.token_vocab.token_id(t) for t in tokens]
        char_id = self.char_vocab.ids.get
        used = {ch: char_id(ch, 0) for ch in set("".join(t[:width] for t in tokens))}
        largest_ids = {"t": max(token_ids, default=0), "c": max(used.values(), default=0)}
        for name, largest in largest_ids.items():
            limit = np.iinfo(dtype[name].base).max
            if largest > limit:
                raise DataError(f"records do not fit {max_len} slots x {width} chars: "
                                f"{name} id {largest} exceeds {limit}")
        by_code = np.zeros(max(map(ord, used), default=0) + 1, dtype["c"].base)
        by_code[list(map(ord, used))] = list(used.values())
        # A fixed-width string array truncates each token to its first `width`
        # characters and pads it with code 0.
        codes = np.array(tokens, dtype=f"<U{width}").view(np.uint32).reshape(len(tokens), width)
        char_rows = by_code[codes]
        if "\x00" in used:  # a NUL character and the padding share code 0
            widths = np.fromiter(map(len, tokens), dtype=np.intp, count=len(tokens))
            char_rows[np.arange(width) >= widths[:, None]] = 0
        return np.array(token_ids, dtype["t"].base), char_rows


def check_hashes(found: Mapping[str, str], recorded: Mapping[str, str], source: str) -> None:
    """Raise DataError unless ``recorded`` holds each of ``found``'s encoder hashes.

    ``found`` is the hashes ``Encoder.load`` returned for the shard
    directory's encoder, taken once per command; a missing or empty
    recorded hash is a mismatch too.
    """
    for key, value in found.items():
        want = recorded.get(key) or ""
        if want != value:
            raise DataError(
                f"{source} / shard directory mismatch: {key} "
                f"{want[:12] or '(none)'}… recorded vs {value[:12]}… in the shard directory"
            )


def _slot_numbers(numbered: Sequence[Sequence[int]], max_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Each sequence's first ``max_len`` numbers, 0-padded, and its true length.

    Returns an int32 ``(len(numbered), max_len)`` array and an int32 array
    of lengths.
    """
    lengths = np.fromiter(map(len, numbered), dtype=np.int32, count=len(numbered))
    kept = np.minimum(lengths, max_len)
    slots = np.zeros((len(numbered), max_len), dtype=np.int32)
    slots[np.arange(max_len) < kept[:, None]] = np.fromiter(
        chain.from_iterable(seq[:max_len] for seq in numbered), dtype=np.int32,
        count=int(kept.sum()))
    return slots, lengths


def _fill(out: np.ndarray, slots: np.ndarray, lengths: np.ndarray, labels,
          token_ids: np.ndarray, char_rows: np.ndarray) -> None:
    """Write records into ``out``: each slot's token id and char row come from its table row."""
    out["y"] = labels
    out["len"] = np.minimum(lengths, slots.shape[-1])
    token_ids.take(slots, out=out["t"])
    # A field of a record array is not contiguous, so a gather into it goes
    # through a contiguous temporary: one slot's char rows at a time keeps that
    # to 1/max_len of the records' char ids.
    chars = out["c"]
    for j in range(slots.shape[-1]):
        char_rows.take(slots[..., j], axis=0, out=chars[..., j, :])


@dataclass(frozen=True, eq=False)
class EncodedCorpus:
    """A corpus's records, kept as each review's slot numbers and two per-token tables.

    Review ``i`` is ``labels[i]``, its true length ``lengths[i]`` (before
    truncation) and ``slots[i]``, the numbers of its first ``max_len``
    tokens (0-padded) into ``token_ids`` and ``char_rows``, which hold each
    numbered token's id and char row in the record dtype's field types.
    That is 68 bytes per review, where a record is 668.  ``take`` gathers
    the records of any row order, and ``np.take`` of an encoding calls it,
    so :func:`sarv.train.write_shards` writes from an encoding as from a
    record array.
    """

    slots: np.ndarray  # int32 (reviews, max_len)
    lengths: np.ndarray  # int32 (reviews,)
    labels: np.ndarray  # int32 (reviews,)
    token_ids: np.ndarray  # (numbered tokens,) of the record's "t" type
    char_rows: np.ndarray  # (numbered tokens, max_word_chars) of the record's "c" type

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def dtype(self) -> np.dtype:
        """The record layout ``take`` gathers."""
        return record_dtype(self.slots.shape[1], self.char_rows.shape[1])

    def take(self, indices, axis=None, out: np.ndarray | None = None,
             mode: str = "raise") -> np.ndarray:
        """The records at ``indices``, in that order, into ``out`` if given.

        Equals ``np.take(records, indices, axis, out, mode)`` of the record
        array this encodes, of which ``axis`` 0 (or None) is the only one.
        """
        if axis not in (None, 0):
            raise ValueError(f"an encoded corpus has only axis 0, not {axis}")
        indices = np.asarray(indices)
        if out is None:
            out = np.empty(indices.shape, self.dtype)
        _fill(out, self.slots.take(indices, axis=0, mode=mode),
              self.lengths.take(indices, mode=mode), self.labels.take(indices, mode=mode),
              self.token_ids, self.char_rows)
        return out


def encode_corpus(records: Iterable[RawRecord], norm: NormConfig, scheme: LabelScheme,
                  max_len: int = MAX_LEN) -> tuple[EncodedCorpus, Encoder, LengthHistogram]:
    """Raw records -> (their encoding, the encoder built from them, length histogram).

    The records are taken, tokenized and dropped ``TOKENIZE_CHUNK`` at a
    time.  Of each review only its label, its true length and the numbers
    of its first ``max_len`` tokens in one :class:`TokenTable` are kept.
    Both vocabularies come from that table once the records run out, and
    then each numbered token's id and char row.  No record is built here:
    ``encoding.take(rows)`` gathers those of ``rows``, and
    ``encoding.take(np.arange(len(encoding)))`` equals ``encode_texts`` of
    every text by an encoder whose vocabularies are built from the texts'
    tokens.
    """
    table = TokenTable(norm)
    # (slot numbers, true lengths, labels) per chunk, after an empty one for an empty corpus
    chunks = [(*_slot_numbers([], max_len), np.zeros(0, dtype=np.int32))]
    histogram: Counter[int] = Counter()
    records = iter(records)
    while chunk := list(islice(records, textproc.TOKENIZE_CHUNK)):
        numbered = table.number_many([rec.text for rec in chunk])
        labels = np.array([scheme.label_index(rec.label) for rec in chunk], dtype=np.int32)
        slots, lengths = _slot_numbers(numbered, max_len)
        histogram.update(lengths.tolist())
        chunks.append((slots, lengths, labels))
    slots, lengths, labels = map(np.concatenate, zip(*chunks))
    del chunks
    vocab_tokens = [table.tokens[1:]]
    encoder = Encoder(norm, build_token_vocab(vocab_tokens), build_char_vocab(vocab_tokens))
    encoded = EncodedCorpus(slots, lengths, labels, *encoder._tables(table.tokens, max_len))
    return encoded, encoder, LengthHistogram(dict(histogram))

"""Persian review text normalization, tokenization, and length unification.

Raw comments pass through three stages before vectorization: character
normalization (punctuation/digit stripping, Persian unicode folding,
stopword removal), whitespace tokenization, and truncation/padding to a
fixed 15-token window.  All functions here are pure and safe to apply
across records in parallel.
"""

from __future__ import annotations

import hashlib
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from typing import Iterable, Sequence

MAX_LEN = 15

# Padding symbol for sentence slots beyond the true length.  The empty
# string is out-of-band by construction: tokenize() only ever emits
# non-empty whitespace-free tokens.
PAD = ""

ARABIC_YEH = "ي"
PERSIAN_YEH = "ی"
ARABIC_KAF = "ك"
PERSIAN_KAF = "ک"
ZWNJ = "‌"

# Arabic diacritics (tashkeel and superscript alef) removed by folding.
_DIACRITICS_RE = re.compile(r"[ً-ْٰ]")
# Default "letters and numbers" class: ASCII letters/digits plus
# Arabic-Indic and Extended (Persian) Arabic-Indic digits.
_LETTERS_DIGITS_RE = re.compile(r"[A-Za-z0-9٠-٩۰-۹]")
_WS_RE = re.compile(r"\s+")


class _PunctToSpace(dict):
    """``str.translate`` table mapping punctuation (Unicode category P*) to a space.

    stdlib re has no ``\\p{P}``, so each code point is classified with
    ``unicodedata`` the first time it is looked up, and cached.
    """

    def __missing__(self, cp: int) -> int:
        self[cp] = out = 0x20 if unicodedata.category(chr(cp)).startswith("P") else cp
        return out


_PUNCT_TO_SPACE = _PunctToSpace()


def fold_persian(text: str) -> str:
    """Fold Arabic letter variants to Persian forms.

    Arabic yeh/kaf map to their Persian counterparts, Arabic diacritics
    are dropped, and zero-width non-joiners become plain spaces (so
    affixed forms split into separate tokens).
    """
    text = text.replace(ARABIC_YEH, PERSIAN_YEH).replace(ARABIC_KAF, PERSIAN_KAF)
    text = text.replace(ZWNJ, " ")
    return _DIACRITICS_RE.sub("", text)


@lru_cache(maxsize=1 << 16)
def _fold_probe(token: str) -> str:
    # Comparison form used for stopword membership tests; tokens repeat,
    # so each distinct one is folded once.
    return fold_persian(token.casefold()).strip()


@dataclass(frozen=True)
class NormConfig:
    """Normalization switches; immutable once a corpus run starts.

    ``punctuation_pattern`` / ``letters_digits_pattern`` override the
    default stripped character classes with custom regexes.
    """

    strip_punctuation: bool = True
    strip_digits_and_foreign_letters: bool = True
    unicode_persian_fold: bool = True
    stopwords: frozenset[str] = field(default_factory=frozenset)
    punctuation_pattern: str | None = None
    letters_digits_pattern: str | None = None

    def __post_init__(self) -> None:
        folded = frozenset(_fold_probe(w) for w in self.stopwords) - {""}
        object.__setattr__(self, "stopwords", folded)

    @classmethod
    def default(cls) -> "NormConfig":
        """All stripping enabled, bundled Persian stopword list."""
        return cls(stopwords=bundled_stopwords())

    def config_hash(self) -> str:
        """Stable hash recorded in shard manifests."""
        parts = [
            f"strip_punctuation={self.strip_punctuation}",
            f"strip_digits_and_foreign_letters={self.strip_digits_and_foreign_letters}",
            f"unicode_persian_fold={self.unicode_persian_fold}",
            f"punctuation_pattern={self.punctuation_pattern!r}",
            f"letters_digits_pattern={self.letters_digits_pattern!r}",
            "stopwords=" + ",".join(sorted(self.stopwords)),
        ]
        return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class TokenSeq:
    """Ordered tokens of one normalized record."""

    tokens: tuple[str, ...]
    source_id: str | int | None = None

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class FixedSentence:
    """Exactly ``max_len`` token slots; trailing slots hold PAD."""

    tokens: tuple[str, ...]
    true_length: int

    def __post_init__(self) -> None:
        n = self.true_length
        if not 0 <= n <= len(self.tokens):
            raise ValueError(f"true_length {n} out of range for {len(self.tokens)} slots")
        if any(t == PAD for t in self.tokens[:n]) or any(
            t != PAD for t in self.tokens[n:]
        ):
            raise ValueError("PAD slots must be exactly the trailing ones")


def normalize(raw: str | bytes, cfg: NormConfig) -> str:
    """Normalize one raw comment according to ``cfg``.

    Stripped characters are replaced by spaces (never deleted in place,
    so punctuation between words cannot glue them together), stopwords
    are removed as whole tokens, and whitespace is collapsed.  The
    result is idempotent: normalizing twice changes nothing.

    Bytes input is decoded as UTF-8; invalid bytes raise
    ``UnicodeDecodeError`` carrying the offending byte offset.
    """
    if isinstance(raw, bytes):
        raw = raw.decode("utf-8")
    text = raw
    if cfg.unicode_persian_fold:
        text = fold_persian(text)
    if cfg.strip_punctuation:
        if cfg.punctuation_pattern is not None:
            text = re.sub(cfg.punctuation_pattern, " ", text)
        else:
            text = text.translate(_PUNCT_TO_SPACE)
    if cfg.strip_digits_and_foreign_letters:
        pattern = cfg.letters_digits_pattern
        if pattern is not None:
            text = re.sub(pattern, " ", text)
        else:
            text = _LETTERS_DIGITS_RE.sub(" ", text)
    if cfg.stopwords:
        kept = [t for t in text.split() if _probe(t, cfg) not in cfg.stopwords]
        text = " ".join(kept)
    return _WS_RE.sub(" ", text).strip()


def _probe(token: str, cfg: NormConfig) -> str:
    if cfg.unicode_persian_fold:
        return _fold_probe(token)
    return token.casefold()


def tokenize(text: str, source_id: str | int | None = None) -> TokenSeq:
    """Split normalized text into maximal whitespace-delimited tokens."""
    return TokenSeq(tokens=tuple(text.split()), source_id=source_id)


def unify_length(seq: TokenSeq | Sequence[str], max_len: int = MAX_LEN) -> FixedSentence:
    """Truncate to the first ``max_len`` tokens or pad up to ``max_len``."""
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    tokens = tuple(seq.tokens if isinstance(seq, TokenSeq) else seq)
    if len(tokens) > max_len:
        return FixedSentence(tokens=tokens[:max_len], true_length=max_len)
    padded = tokens + (PAD,) * (max_len - len(tokens))
    return FixedSentence(tokens=padded, true_length=len(tokens))


class LengthHistogram:
    """Distribution of pre-truncation sentence lengths."""

    def __init__(self, counts: dict[int, int]):
        self.counts = dict(sorted(counts.items()))
        self.total = sum(self.counts.values())

    def cumulative_fraction(self, length: int) -> float:
        """Fraction of records with at most ``length`` tokens."""
        if self.total == 0:
            return 0.0
        covered = sum(c for n, c in self.counts.items() if n <= length)
        return covered / self.total

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LengthHistogram) and self.counts == other.counts

    def __repr__(self) -> str:
        return f"LengthHistogram({self.counts!r})"


def length_histogram(corpus: Iterable[TokenSeq]) -> LengthHistogram:
    """Count records by token count before any truncation."""
    counts: Counter[int] = Counter(len(seq.tokens) for seq in corpus)
    return LengthHistogram(dict(counts))


def load_stopwords(path) -> frozenset[str]:
    """Read a stopword file: one token per line, UTF-8, blanks skipped."""
    with open(path, "r", encoding="utf-8") as fh:
        return frozenset(w.strip() for w in fh if w.strip())


def bundled_stopwords() -> frozenset[str]:
    """The packaged Persian stopword list (~150 function words)."""
    data = resources.files("sarv.data").joinpath("stopwords_fa.txt").read_text("utf-8")
    return frozenset(w.strip() for w in data.splitlines() if w.strip())

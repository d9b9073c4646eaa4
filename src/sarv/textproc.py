"""Persian review text normalization, tokenization, and length unification.

Raw comments pass through three stages before vectorization: character
normalization (punctuation/digit stripping, Persian unicode folding,
stopword removal), whitespace tokenization, and truncation/padding to a
fixed 15-token window.  The character steps take two regex passes after
the yeh/kaf fold: one drops the diacritics, and one turns ZWNJ,
punctuation, digits and Latin letters into spaces.  Merging the spacing
steps into one pass gives the same string, because each step maps one
character on its own over disjoint sets (see ``_strip_chars``).  All
functions here are pure and safe to apply across records in parallel.
:func:`normalize` is the per-review reference; :class:`TokenTable` gives
the same tokens, as numbers into its table of distinct tokens, for a
corpus or ``predict``'s input, chunk by chunk, by running the character
steps over many reviews at once.
"""

from __future__ import annotations

import hashlib
import re
import threading
import unicodedata
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from typing import Iterable, Sequence

MAX_LEN = 15

# Reviews per chunk: the character steps run once over this many reviews
# joined by "\n", ``shard``/``preprocess`` read, tokenize and encode a
# corpus this many reviews at a time, and ``predict`` its input.  A chunk's
# texts, tokens and records set ``shard``'s peak: on 3,500 reviews of 15-40
# tokens (2 vCPUs, median of 6 processes) its peak RSS is 43.4 MB at 1024
# and 40.4 MB at 256, at the same wall time.
TOKENIZE_CHUNK = 256

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
# The class also holds Arabic kaf, which can never match: both callers
# replace it with Persian kaf first.  With it, CPython's ``re`` compiles
# the class into a bitmap test (BIGCHARSET) instead of a RANGE and a
# LITERAL test per character, which makes this pass about a third faster.
_DIACRITICS_RE = re.compile(f"[{ARABIC_KAF}\u064b-\u0652\u0670]")
# The stripped "letters and numbers" class: ASCII letters/digits plus
# Arabic-Indic and Extended (Persian) Arabic-Indic digits.
_LETTERS_DIGITS = "A-Za-z0-9٠-٩۰-۹"
_WS_RE = re.compile(r"\s+")


def _char_class(starts: Iterable[int], width: int = 1) -> str:
    """The body of a regex character class matching ``width`` code points from each of ``starts``."""
    ranges: list[list[int]] = []
    for cp in sorted(starts):
        if ranges and cp == ranges[-1][1] + 1:
            ranges[-1][1] = cp + width - 1
        else:
            ranges.append([cp, cp + width - 1])
    return "".join(f"\\U{a:08x}-\\U{b:08x}" for a, b in ranges)


class _ToSpace:
    """Maps ZWNJ, the stripped letters and digits and punctuation (Unicode P*) to spaces.

    stdlib re has no ``\\p{P}``, so punctuation is classified with
    ``unicodedata``, one block of 4096 code points at a time, as texts hold
    it.  The first call classifies the blocks of ASCII and Arabic (U+0000)
    and of ZWNJ (U+2000).  Each call finds the characters in no classified
    block in one regex pass, classifies their blocks and recompiles both
    patterns if there are any, then spaces the class in a second pass.
    Blocks this wide keep the recompiles few: at most 272 in a process.
    """

    BLOCK_BITS = 12

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._blocks: set[int] = set()
        self._punct: set[int] = set()
        self._patterns: tuple[re.Pattern, re.Pattern] | None = None  # (unclassified, to space)

    def __call__(self, text: str) -> str:
        patterns = self._patterns or self._learn("\x00" + ZWNJ)
        new = patterns[0].findall(text)
        if new:
            patterns = self._learn(new)
        return patterns[1].sub(" ", text)

    def _learn(self, chars: Iterable[str]) -> tuple[re.Pattern, re.Pattern]:
        bits = self.BLOCK_BITS
        with self._lock:
            for block in {ord(ch) >> bits for ch in chars} - self._blocks:
                self._blocks.add(block)
                self._punct.update(cp for cp in range(block << bits, (block + 1) << bits)
                                   if unicodedata.category(chr(cp)).startswith("P"))
            seen = _char_class((block << bits for block in self._blocks), 1 << bits)
            self._patterns = (re.compile(f"[^{seen}]"),
                              re.compile(f"[{ZWNJ}{_LETTERS_DIGITS}{_char_class(self._punct)}]"))
            return self._patterns


_TO_SPACE = _ToSpace()


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


# The normaliser's former switches, at the only values they ever took.
# Every existing shard manifest and checkpoint recorded a hash of this
# text, so ``config_hash`` keeps it verbatim.
_FIXED_SWITCHES = (
    "strip_punctuation=True\n"
    "strip_digits_and_foreign_letters=True\n"
    "unicode_persian_fold=True\n"
    "punctuation_pattern=None\n"
    "letters_digits_pattern=None\n"
)


@dataclass(frozen=True)
class NormConfig:
    """The stopword set ``normalize`` drops; immutable once a corpus run starts."""

    stopwords: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        folded = frozenset(_fold_probe(w) for w in self.stopwords) - {""}
        object.__setattr__(self, "stopwords", folded)

    @classmethod
    def default(cls) -> "NormConfig":
        """The bundled Persian stopword list."""
        return cls(stopwords=bundled_stopwords())

    def config_hash(self) -> str:
        """Stable hash recorded in shard manifests."""
        text = _FIXED_SWITCHES + "stopwords=" + ",".join(sorted(self.stopwords))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class TokenSeq:
    """Ordered tokens of one normalized record."""

    tokens: tuple[str, ...]

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


def _strip_chars(text: str) -> str:
    """``normalize``'s character steps: fold, then punctuation, digits and letters to spaces.

    Arabic yeh and kaf are replaced, diacritics are dropped in one regex
    pass, and ZWNJ, punctuation, digits and letters become spaces in a
    second (see ``_ToSpace``).  This is ``fold_persian`` followed by the
    spacing steps, character for character: each step maps one character
    on its own, the sets are disjoint (yeh and kaf are Lo, ZWNJ is Cf,
    the diacritics are Mn and the letters and digits L or Nd, so none is
    P*), and no replacement (ی, ک or a space) falls in a later set.
    """
    text = text.replace(ARABIC_YEH, PERSIAN_YEH).replace(ARABIC_KAF, PERSIAN_KAF)
    return _TO_SPACE(_DIACRITICS_RE.sub("", text))


def normalize(raw: str, cfg: NormConfig) -> str:
    """Normalize one raw comment.

    Arabic letter variants are folded to Persian, punctuation, digits and
    Latin letters are replaced by spaces (never deleted in place, so
    punctuation between words cannot glue them together), ``cfg``'s
    stopwords are removed as whole tokens, and whitespace is collapsed.
    The result is idempotent: normalizing twice changes nothing.
    """
    text = _strip_chars(raw)
    if cfg.stopwords:
        text = " ".join(t for t in text.split() if _fold_probe(t) not in cfg.stopwords)
    return _WS_RE.sub(" ", text).strip()


def tokenize(text: str) -> TokenSeq:
    """Split normalized text into maximal whitespace-delimited tokens."""
    return TokenSeq(tokens=tuple(text.split()))


class TokenTable:
    """The distinct tokens of a stream of texts, numbered in order of first appearance.

    ``number_many`` tokenizes texts as ``tokenize(normalize(t, cfg))`` does
    and gives each text's tokens as numbers into ``tokens``, where number 0
    is PAD.  The character steps run once per ``TOKENIZE_CHUNK`` texts joined
    by "\n" (a text's own "\n" becoming a space), and the result is split
    back on "\n".  The table lives across calls: each distinct token's
    stopword status is decided once, and ``tokens`` holds one ``str`` per
    distinct token, so a corpus tokenized chunk by chunk keeps only numbers
    per review.
    """

    def __init__(self, cfg: NormConfig):
        self.cfg = cfg
        self.tokens: list[str] = [PAD]
        self._number: dict[str, int | None] = {}  # token -> its number, None if a stopword

    def number_many(self, texts: Sequence[str]) -> list[list[int]]:
        """Each text's tokens as numbers into ``tokens``, in order."""
        out: list[list[int]] = []
        number, tokens, stopwords = self._number, self.tokens, self.cfg.stopwords
        for start in range(0, len(texts), TOKENIZE_CHUNK):
            # Every character step maps one character on its own and keeps "\n"
            # and " ", both whitespace to split(), so stripping the joined chunk
            # strips each text once a text's own "\n" is a space.
            joined = "\n".join(t.replace("\n", " ") for t in texts[start:start + TOKENIZE_CHUNK])
            seqs = [line.split() for line in _strip_chars(joined).split("\n")]
            new = list(set().union(*seqs).difference(number))
            if stopwords:
                # _fold_probe of each new token, over all of them joined: casefold
                # and folding map each character on its own and keep "\n".
                probes = fold_persian("\n".join(new).casefold()).split("\n")
                number.update((t, None) for t, p in zip(new, probes) if p.strip() in stopwords)
                new = [t for t in new if t not in number]
            number.update(zip(new, range(len(tokens), len(tokens) + len(new))))
            tokens += new
            out += [[i for i in map(number.__getitem__, seq) if i is not None] for seq in seqs]
        return out


def unify_length(seq: TokenSeq | Sequence[str], max_len: int = MAX_LEN) -> FixedSentence:
    """Truncate to the first ``max_len`` tokens or pad up to ``max_len``."""
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    tokens = tuple(seq.tokens if isinstance(seq, TokenSeq) else seq)
    if len(tokens) > max_len:
        return FixedSentence(tokens=tokens[:max_len], true_length=max_len)
    padded = tokens + (PAD,) * (max_len - len(tokens))
    return FixedSentence(tokens=padded, true_length=len(tokens))


def load_stopwords(path) -> frozenset[str]:
    """Read a stopword file: one token per line, UTF-8, blanks skipped."""
    with open(path, "r", encoding="utf-8") as fh:
        return frozenset(w.strip() for w in fh if w.strip())


def bundled_stopwords() -> frozenset[str]:
    """The packaged Persian stopword list (~150 function words)."""
    data = resources.files("sarv.data").joinpath("stopwords_fa.txt").read_text("utf-8")
    return frozenset(w.strip() for w in data.splitlines() if w.strip())

"""Per-character text steps: the oracle for ``sarv.textproc._strip_chars``.

This is the character normaliser written one character at a time, with
no regex: Arabic yeh and kaf fold to their Persian forms, ZWNJ becomes a
space, the diacritics U+064B-U+0652 and U+0670 are dropped, punctuation
(``unicodedata`` category P*) becomes a space, and so do ASCII letters
and digits and the Arabic-Indic and Extended Arabic-Indic digits.
"""

from __future__ import annotations

import unicodedata

FOLDS = {"\u064a": "\u06cc", "\u0643": "\u06a9"}  # Arabic yeh, kaf -> Persian yeh, kaf
ZWNJ = "\u200c"
SPACED_RANGES = (("A", "Z"), ("a", "z"), ("0", "9"), ("\u0660", "\u0669"), ("\u06f0", "\u06f9"))


def is_diacritic(ch: str) -> bool:
    return "\u064b" <= ch <= "\u0652" or ch == "\u0670"


def strip_char(ch: str) -> str:
    """What the character steps make of one character: itself, a fold, a space or nothing."""
    if ch in FOLDS:
        return FOLDS[ch]
    if is_diacritic(ch):
        return ""
    if ch == ZWNJ or unicodedata.category(ch).startswith("P"):
        return " "
    if any(lo <= ch <= hi for lo, hi in SPACED_RANGES):
        return " "
    return ch


def reference_strip(text: str) -> str:
    return "".join(map(strip_char, text))

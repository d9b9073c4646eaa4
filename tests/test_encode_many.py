"""``Encoder.encode_many`` and the punctuation table against their slow forms.

``encode_many`` encodes each distinct token once and gathers the record
array from that table; it must give the same bytes as stacking one
``encode_sentence`` per review, and refuse ids the record layout cannot
hold.  ``normalize`` replaces punctuation through a ``str.translate``
table that classifies each code point once; its classification must be
``unicodedata.category(ch).startswith("P")``.
"""

from __future__ import annotations

import unicodedata

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sarv.corpus import Encoder, as_records, encode_sentence
from sarv.embed import CharVocab, TokenVocab
from sarv.errors import DataError
from sarv.textproc import _PUNCT_TO_SPACE, MAX_LEN, NormConfig, unify_length

KNOWN = "ابپتثجچ"
UNKNOWN = "ژکگ"
words = st.text(alphabet=KNOWN + UNKNOWN, min_size=1, max_size=9)


@st.composite
def corpora(draw):
    """(encoder, fixed sentences, labels), with words repeated across and within reviews."""
    width = draw(st.integers(1, 6))  # words are often longer than max_word_chars
    max_len = draw(st.integers(1, MAX_LEN))
    pool = draw(st.lists(words, min_size=1, max_size=12))
    known = draw(st.sets(st.sampled_from(pool)))
    reviews = draw(st.lists(st.lists(st.sampled_from(pool), max_size=max_len + 3), max_size=12))
    encoder = Encoder(NormConfig(), TokenVocab(tuple(sorted(known))),
                      CharVocab(tuple(KNOWN), max_word_chars=width))
    fixed = [unify_length(r, max_len) for r in reviews]  # PAD slots and truncation
    labels = draw(st.lists(st.integers(0, 2), min_size=len(fixed), max_size=len(fixed)))
    return encoder, fixed, labels


@given(corpora())
@settings(max_examples=200, deadline=None)
def test_encode_many_equals_stacked_encode_sentence(case):
    encoder, fixed, labels = case
    got = encoder.encode_many(fixed, labels)
    slow = [encode_sentence(f, encoder.token_vocab, encoder.char_vocab, y)
            for f, y in zip(fixed, labels)]
    want = as_records(slow, encoder.char_vocab.max_word_chars)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_encode_many_of_nothing_is_an_empty_record_array():
    encoder = Encoder(NormConfig(), TokenVocab(()), CharVocab(()))
    got = encoder.encode_many([], [])
    assert got.shape == (0,)
    assert got.dtype == as_records([], encoder.char_vocab.max_word_chars).dtype


def test_encode_many_refuses_char_ids_past_uint16():
    chars = tuple(chr(0x10000 + i) for i in range(70_000))  # ids 1..70000
    encoder = Encoder(NormConfig(), TokenVocab(()), CharVocab(chars, max_word_chars=4))
    small, large = chars[0], chars[66_000]
    ok = encoder.encode_many([unify_length([small])], [0])
    assert ok["c"][0, 0, 0] == 1
    fixed = [unify_length([small]), unify_length([small + large])]
    with pytest.raises(DataError, match="do not fit"):
        encoder.encode_many(fixed, [0, 1])
    slow = [encode_sentence(f, encoder.token_vocab, encoder.char_vocab, 0) for f in fixed]
    with pytest.raises(DataError, match="do not fit"):
        as_records(slow, 4)


def test_encode_many_refuses_ragged_sentences():
    encoder = Encoder(NormConfig(), TokenVocab(("ب",)), CharVocab(tuple(KNOWN)))
    with pytest.raises(DataError, match="do not fit"):
        encoder.encode_many([unify_length(["ب"], 3), unify_length(["ب"], 4)], [0, 0])


@given(st.lists(st.integers(0, 0x10FFFF), min_size=1, max_size=64))
@settings(max_examples=300, deadline=None)
def test_translate_table_classifies_punctuation_like_unicodedata(points):
    text = "".join(chr(cp) for cp in points)
    want = "".join(" " if unicodedata.category(ch).startswith("P") else ch for ch in text)
    assert text.translate(_PUNCT_TO_SPACE) == want


def test_translate_table_on_sampled_bmp_and_astral_points():
    rng = np.random.default_rng(0)
    points = np.concatenate([rng.integers(0, 0x10000, 4000), rng.integers(0x10000, 0x110000, 4000),
                             np.arange(0x2000, 0x2070), np.arange(0x0600, 0x0700)])
    for cp in points.tolist():
        ch = chr(cp)
        want = " " if unicodedata.category(ch).startswith("P") else ch
        assert ch.translate(_PUNCT_TO_SPACE) == want, hex(cp)

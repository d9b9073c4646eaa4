"""The text front end's fast paths against their slow forms.

``TokenTable`` normalises reviews in chunks joined by "\n"; it must give
every review the tokens ``tokenize(normalize(...))`` gives it alone.
``Encoder.encode_texts`` numbers raw texts in one ``TokenTable``, encodes
each distinct token once and gathers the record array from that table;
from texts and a slot count it must give the same bytes as stacking one
``encode_sentence(unify_length(tokenize(normalize(...))))`` per review, and
refuse ids the record layout cannot hold.  The character
steps run as two regex passes whose space class learns punctuation as
texts hold it; they must give what ``text_reference.reference_strip``
gives one character at a time, on every code point, whatever the order
the characters are first met in, and must treat exactly
``unicodedata.category(ch).startswith("P")`` as punctuation.
"""

from __future__ import annotations

import sys
import threading
import unicodedata

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sarv.textproc
from sarv.corpus import Encoder, encode_sentence, record_dtype
from sarv.embed import CharVocab, TokenVocab
from sarv.errors import DataError
from sarv.textproc import (MAX_LEN, NormConfig, TokenTable, _strip_chars, bundled_stopwords,
                           fold_persian, normalize, tokenize, unify_length)

from conftest import stack_sentences
from text_reference import FOLDS, ZWNJ, is_diacritic, reference_strip, strip_char

KNOWN = "ابپتثجچ"
UNKNOWN = "ژکگ"
words = st.text(alphabet=KNOWN + UNKNOWN, min_size=1, max_size=9)


# Everything the normaliser folds, strips or splits at, plus "\n" and "\r".
NOISE = ("\n\r \t\x0b\x0c\x1c\x1d\x1e\x1f\x85\u2028\u2029\u200c"  # ZWNJ
         "يكىۀ" "\u064b\u064e\u0650\u0652\u0670"  # Arabic yeh/kaf, tashkeel
         "09aZ٠٩۰۹" "!.,،؛؟«»-_()[]^\\\"'"  # digits, letters, punctuation below U+0800
         "…“‹⸮﴾\U00010100"  # punctuation from U+0800 on, one of it astral
         "ßİΣé\u200f😀")  # letters casefold changes, and other non-punctuation
STOPWORDS = ("از", "به", "که", "كه", "براي", "Very", "مي")  # folded and unfolded forms
texts = st.lists(
    st.one_of(st.just(""), st.lists(st.one_of(st.text(NOISE + KNOWN, max_size=4),
                                               st.sampled_from(STOPWORDS)),
                                     max_size=8).map("".join)),
    max_size=9)


@pytest.mark.parametrize("chunk", [1, 2, 3, sarv.textproc.TOKENIZE_CHUNK])
@given(texts=texts, stopwords=st.booleans())
@settings(max_examples=150, deadline=None)
def test_token_table_equals_tokenize_normalize(chunk, texts, stopwords):
    # The bundled list, plus words that only match once casefolded.
    cfg = NormConfig(stopwords=bundled_stopwords() | {"ß", "σ", "é"}) if stopwords else NormConfig()
    want = [list(tokenize(normalize(t, cfg)).tokens) for t in texts]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sarv.textproc, "TOKENIZE_CHUNK", chunk)
        table = TokenTable(cfg)
        got = [[table.tokens[i] for i in seq] for seq in table.number_many(texts)]
    assert got == want
    tokens = [t for seq in got for t in seq]
    assert len({id(t) for t in tokens}) == len(set(tokens))  # one object per distinct token


# What reviews put between their words: spaces, line ends, punctuation, digits.
SEPARATORS = (" ", "\n", "\r\n", "، ", "!", " 42 ", "\u200c")


@st.composite
def corpora(draw):
    """(encoder, review texts, slot count, labels), with words repeated across and within."""
    width = draw(st.integers(1, 6))  # words are often longer than max_word_chars
    max_len = draw(st.integers(1, MAX_LEN))
    pool = draw(st.lists(words, min_size=1, max_size=12))
    known = draw(st.sets(st.sampled_from(pool)))
    reviews = draw(st.lists(st.lists(st.sampled_from(pool), max_size=max_len + 3),
                            min_size=1, max_size=12))
    texts = [draw(st.sampled_from(SEPARATORS)).join(r) for r in reviews]
    encoder = Encoder(NormConfig(), TokenVocab(tuple(sorted(known))),
                      CharVocab(tuple(KNOWN), max_word_chars=width))
    labels = draw(st.lists(st.integers(0, 2), min_size=len(reviews), max_size=len(reviews)))
    return encoder, texts, max_len, labels


@given(corpora())
@settings(max_examples=200, deadline=None)
def test_encode_texts_equals_stacked_encode_sentence(case):
    encoder, texts, max_len, labels = case
    got = encoder.encode_texts(texts, labels, max_len)
    slow = [encode_sentence(unify_length(tokenize(normalize(t, encoder.norm)), max_len),
                            encoder.token_vocab, encoder.char_vocab, y)
            for t, y in zip(texts, labels)]  # PAD slots and truncation
    want = stack_sentences(slow, encoder.char_vocab.max_word_chars)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_encode_texts_of_nothing_is_an_empty_record_array():
    encoder = Encoder(NormConfig(), TokenVocab(()), CharVocab(()))
    got = encoder.encode_texts([], [], MAX_LEN)
    assert got.shape == (0,)
    assert got.dtype == record_dtype(MAX_LEN, encoder.char_vocab.max_word_chars)


def test_encode_texts_refuses_char_ids_past_uint16():
    chars = tuple(chr(0x10000 + i) for i in range(70_000))  # ids 1..70000
    encoder = Encoder(NormConfig(), TokenVocab(()), CharVocab(chars, max_word_chars=4))
    small, large = chars[0], chars[66_000]
    ok = encoder.encode_texts([small], [0], MAX_LEN)
    assert ok["c"][0, 0, 0] == 1
    with pytest.raises(DataError, match="do not fit"):
        encoder.encode_texts([small, small + large], [0, 1], MAX_LEN)


def test_pad_keeps_id_zero_whatever_the_vocabulary_holds():
    # A vocabulary file could list the empty token; PAD and its slots stay id 0.
    encoder = Encoder(NormConfig(), TokenVocab(("", "ب")), CharVocab(tuple(KNOWN)))
    assert encoder.token_vocab.token_id("") == 0
    assert encoder._tables(["", "ب"], MAX_LEN)[0].tolist() == [0, 2]
    assert encoder.encode_texts(["ب"], [0], MAX_LEN)["t"][0].tolist() == [2] + [0] * 14


def test_encode_texts_tells_a_nul_character_from_char_padding():
    # A NUL survives normalisation, and its code point is the padding's.
    encoder = Encoder(NormConfig(), TokenVocab(("ب\x00",)),
                      CharVocab(("\x00", "ب", "😀"), max_word_chars=4))
    texts = ["ب\x00 \x00 😀ب\x00\x00ب", "\x00\x00\x00\x00\x00 ب"]
    got = encoder.encode_texts(texts, [0, 1], MAX_LEN)
    slow = [encode_sentence(unify_length(tokenize(normalize(t, encoder.norm)), MAX_LEN),
                            encoder.token_vocab, encoder.char_vocab, y)
            for t, y in zip(texts, [0, 1])]
    assert got.tobytes() == stack_sentences(slow, 4).tobytes()
    assert got["c"][0, :3].tolist() == [[2, 1, 0, 0], [1, 0, 0, 0], [3, 2, 1, 1]]


def test_encode_texts_refuses_fewer_than_one_slot():
    encoder = Encoder(NormConfig(), TokenVocab(("ب",)), CharVocab(tuple(KNOWN)))
    with pytest.raises(ValueError, match="max_len"):
        encoder.encode_texts(["ب"], [0], 0)
    with pytest.raises(ValueError, match="max_len"):
        unify_length(["ب"], 0)


@given(st.lists(st.integers(0, 0x10FFFF), min_size=1, max_size=64))
@settings(max_examples=300, deadline=None)
def test_strip_classifies_punctuation_like_unicodedata(points):
    text = "".join(chr(cp) for cp in points)
    want = "".join(" " if unicodedata.category(ch).startswith("P") else strip_char(ch) for ch in text)
    assert _strip_chars(text) == want


def test_strip_on_sampled_bmp_and_astral_points():
    rng = np.random.default_rng(0)
    points = np.concatenate([rng.integers(0, 0x10000, 4000), rng.integers(0x10000, 0x110000, 4000),
                             np.arange(0x2000, 0x2070), np.arange(0x0600, 0x0700)])
    for cp in points.tolist():
        ch = chr(cp)
        want = " " if unicodedata.category(ch).startswith("P") else strip_char(ch)
        assert _strip_chars(ch) == want, hex(cp)


@pytest.fixture
def fresh_strip(monkeypatch):
    """``_strip_chars`` whose space class has classified no character yet."""
    monkeypatch.setattr(sarv.textproc, "_TO_SPACE", sarv.textproc._ToSpace())
    return _strip_chars


def test_fresh_strip_on_every_bmp_point_at_once(fresh_strip):
    text = "".join(map(chr, range(0x10000)))  # lone surrogates included
    assert fresh_strip(text) == reference_strip(text)


def test_fresh_strip_on_every_bmp_point_one_at_a_time(fresh_strip):
    for cp in range(0x10000):
        ch = chr(cp)
        assert fresh_strip(ch) == strip_char(ch), hex(cp)


def test_fresh_strip_on_sampled_astral_points_and_noise(fresh_strip):
    rng = np.random.default_rng(1)
    astral = "".join(map(chr, rng.integers(0x10000, 0x110000, 8000).tolist()))
    assert fresh_strip(NOISE) == reference_strip(NOISE)
    assert fresh_strip(astral) == reference_strip(astral)
    assert fresh_strip(NOISE + astral + KNOWN) == reference_strip(NOISE + astral + KNOWN)


def test_arabic_kaf_beside_diacritics_and_zwnj_is_folded_not_dropped():
    # The diacritics class also holds Arabic kaf, which both callers fold first.
    text = "كَتابٌ\u200cهاي يِكْ\u200cكٰ كً\u064e\u0670ي\u200cك ك"
    assert _strip_chars(text) == reference_strip(text)
    folded = "".join(" " if ch == ZWNJ else "" if is_diacritic(ch) else FOLDS.get(ch, ch)
                     for ch in text)
    assert fold_persian(text) == folded
    assert fold_persian(text).count("\u06a9") == text.count("\u0643") == 6


@pytest.mark.parametrize("text", ["]", "\\", "^", "-", "[^]", "]\\^-", "a-z", "[\\]^-]ب"])
def test_fresh_strip_on_regex_class_metacharacters(fresh_strip, text):
    assert fresh_strip(text) == reference_strip(text)


def test_punctuation_first_met_in_a_later_call_is_spaced(fresh_strip):
    assert fresh_strip("کتاب خوب") == "کتاب خوب"
    # U+2E2E, U+FD3E and U+10100 are punctuation on pages the first call did not classify.
    for _ in range(2):
        assert fresh_strip("کتاب\u2e2eخوب\ufd3eبد\U00010100😀") == "کتاب خوب بد 😀"


def test_fresh_strip_from_many_threads_at_once(monkeypatch):
    # Every 4096-code-point block outside the first call's that holds punctuation,
    # each first met by its own thread.  A block taken as classified before its
    # punctuation is recorded would leave that punctuation unspaced for good.
    blocks = [1, 3, 10, 15, 16, 17, 18, 22, 27, 29, 30]
    texts = ["".join(map(chr, range(b << 12, (b + 1) << 12))) + "\n" + KNOWN for b in blocks]
    want = [reference_strip(t) for t in texts]

    def strip(i):
        start.wait(timeout=60)
        got[i] = _strip_chars(texts[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            monkeypatch.setattr(sarv.textproc, "_TO_SPACE", sarv.textproc._ToSpace())
            start = threading.Barrier(len(texts))
            got = [None] * len(texts)
            threads = [threading.Thread(target=strip, args=(i,)) for i in range(len(texts))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert got == want
            assert [_strip_chars(t) for t in texts] == want
    finally:
        sys.setswitchinterval(interval)

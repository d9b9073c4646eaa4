"""Normalization, tokenization, and length-unification tests.

The bundled Persian review fixtures are checked against an independent
token-count oracle implemented here (plus frozen hand counts), and the
string-level invariants are fuzzed with hypothesis.
"""

from __future__ import annotations

import csv
import re
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sarv.textproc import (
    MAX_LEN,
    PAD,
    FixedSentence,
    NormConfig,
    bundled_stopwords,
    fold_persian,
    load_stopwords,
    normalize,
    tokenize,
    unify_length,
)

from conftest import REVIEWS_TSV

ZWNJ = "‌"

# Pre-truncation token counts for the six bundled review fixtures under
# an empty stopword list, hand-counted independently of the library
# (fold Arabic yeh/kaf, split ZWNJ, drop punctuation and diacritics).
HAND_COUNTS = {
    "IT": 7,
    "Home Appliance": 17,
    "Mobile": 13,
    "Trimming Machine": 52,
    "Player": 50,
    "Audio": 12,
}

EMPTY_CFG = NormConfig(stopwords=frozenset())


def fixture_rows() -> list[dict]:
    with open(REVIEWS_TSV, encoding="utf-8") as fh:
        return list(csv.DictReader(fh, delimiter="\t"))


def oracle_tokens(text: str) -> list[str]:
    """Minimal independent re-implementation of the normalization rules."""
    text = text.replace("ي", "ی").replace("ك", "ک").replace(ZWNJ, " ")
    text = re.sub(r"[ً-ْٰ]", "", text)
    text = "".join(" " if unicodedata.category(ch).startswith("P") else ch for ch in text)
    text = re.sub(r"[A-Za-z0-9٠-٩۰-۹]", " ", text)
    return text.split()


# ---------------------------------------------------------------------------
# Review fixture parity
# ---------------------------------------------------------------------------


def test_fixture_file_has_six_rows():
    rows = fixture_rows()
    assert len(rows) == 6
    assert [r["category"] for r in rows] == list(HAND_COUNTS)


@pytest.mark.parametrize("row", fixture_rows(), ids=lambda r: r["category"])
def test_fixture_token_counts_match_hand_counts(row):
    tokens = tokenize(normalize(row["text"], EMPTY_CFG))
    assert len(tokens) == HAND_COUNTS[row["category"]]
    # cross-check the frozen hand counts with the independent oracle
    assert len(oracle_tokens(row["text"])) == HAND_COUNTS[row["category"]]


@pytest.mark.parametrize("row", fixture_rows(), ids=lambda r: r["category"])
def test_fixture_unified_lengths(row):
    fixed = unify_length(tokenize(normalize(row["text"], EMPTY_CFG)))
    assert len(fixed.tokens) == MAX_LEN
    assert fixed.true_length == min(HAND_COUNTS[row["category"]], MAX_LEN)
    assert all(t != PAD for t in fixed.tokens[: fixed.true_length])
    assert all(t == PAD for t in fixed.tokens[fixed.true_length:])


def test_mobile_fixture_is_thirteen_tokens():
    row = next(r for r in fixture_rows() if r["category"] == "Mobile")
    normalized = normalize(row["text"], EMPTY_CFG)
    # independent count: whitespace runs in the normalized string
    assert len(re.findall(r"\S+", normalized)) == 13


# ---------------------------------------------------------------------------
# normalize
# ---------------------------------------------------------------------------


def test_normalize_strips_punctuation_keeps_words():
    raw = "واقعا عالیه، من که ازش خیلی راضیم."
    assert normalize(raw, EMPTY_CFG) == "واقعا عالیه من که ازش خیلی راضیم"


def test_normalize_strips_ascii_and_digits():
    assert normalize("abc 123 کتاب", EMPTY_CFG) == "کتاب"
    assert normalize("۱۲۳ ٤٥ کتاب x9", EMPTY_CFG) == "کتاب"


def test_normalize_folds_arabic_variants():
    assert fold_persian("علي كتاب") == "علی کتاب"
    assert normalize("علي", EMPTY_CFG) == "علی"


def test_normalize_splits_zwnj_compounds():
    assert normalize(f"می{ZWNJ}شود", EMPTY_CFG) == "می شود"


def test_normalize_removes_stopwords_as_whole_tokens():
    cfg = NormConfig(stopwords=frozenset({"که", "من"}))
    assert normalize("من گفتم که کتاب خوب است", cfg) == "گفتم کتاب خوب است"


def test_stopword_matching_uses_folded_forms():
    cfg = NormConfig(stopwords=frozenset({"كتاب"}))  # Arabic kaf in the list
    assert normalize("کتاب خوب", cfg) == "خوب"  # Persian kaf in the text


def test_normalize_punctuation_never_glues_words():
    assert normalize("خوب،بد", EMPTY_CFG) == "خوب بد"


def test_normconfig_is_immutable():
    cfg = NormConfig()
    with pytest.raises(Exception):
        cfg.stopwords = frozenset({"که"})


def test_normconfig_hash_tracks_content():
    a = NormConfig(stopwords=frozenset({"که"}))
    b = NormConfig(stopwords=frozenset({"که"}))
    c = NormConfig(stopwords=frozenset({"من"}))
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()


@pytest.mark.parametrize("cfg, digest", [
    (NormConfig(stopwords=frozenset()),
     "f6c456f6b867bdf760e49235b55bb4f1c03311ad81fccdac4e56223a54447f65"),
    (NormConfig.default(),
     "92db29a3196dba6da9655506376754db764a21780fab77aaaa8180673c3b8f29"),
    (NormConfig(stopwords=frozenset({"که", "من"})),
     "02c74d3ebde9d7cb35bfbaefd036331a6cb131ee5ae179d7504de3d63bf959f6"),
])
def test_normconfig_hash_is_pinned(cfg, digest):
    # Shard manifests and checkpoints already on disk recorded these digests.
    assert cfg.config_hash() == digest


def test_bundled_stopwords_load_and_apply():
    stops = bundled_stopwords()
    assert len(stops) > 50
    assert "از" in stops
    out = normalize("من از این کتاب راضی هستم", NormConfig.default())
    assert "از" not in out.split()


def test_load_stopwords_file(tmp_path):
    p = tmp_path / "stop.txt"
    p.write_text("که\n\nمن\n", encoding="utf-8")
    assert load_stopwords(p) == frozenset({"که", "من"})


# ---------------------------------------------------------------------------
# unify_length
# ---------------------------------------------------------------------------


def test_unify_truncates_to_first_fifteen():
    tokens = ["تا" * (i + 1) for i in range(17)]
    fixed = unify_length(tokens)
    assert fixed.tokens == tuple(tokens[:15])
    assert fixed.true_length == 15


def test_unify_pads_short_sentences():
    fixed = unify_length(["خوب", "بد"])
    assert fixed.tokens == ("خوب", "بد") + (PAD,) * 13
    assert fixed.true_length == 2


def test_unify_empty_sentence_is_all_pad():
    fixed = unify_length([])
    assert fixed.tokens == (PAD,) * 15
    assert fixed.true_length == 0


def test_unify_rejects_bad_max_len():
    with pytest.raises(ValueError):
        unify_length(["خوب"], max_len=0)


def test_fixed_sentence_validates_pad_layout():
    with pytest.raises(ValueError):
        FixedSentence(tokens=("خوب", PAD, "بد"), true_length=3)
    with pytest.raises(ValueError):
        FixedSentence(tokens=("خوب", "بد"), true_length=1)


# ---------------------------------------------------------------------------
# hypothesis fuzz
# ---------------------------------------------------------------------------

_ALPHABET = list(
    "ابپتثجچحخدذرزژسشصضطظعغفقکگلمنوهیيكئء"
    + "ًٌٍَُِّْٰ"
    + "abcXYZ0123456789٠٣۴۷"
    + " .,!?؟،؛:()[]\"'«»-_"
    + ZWNJ
)
raw_text = st.text(alphabet=st.sampled_from(_ALPHABET), max_size=80)
configs = st.sampled_from([EMPTY_CFG, NormConfig.default()])


@given(raw_text, configs)
@settings(max_examples=200)
def test_normalize_is_idempotent(text, cfg):
    once = normalize(text, cfg)
    assert normalize(once, cfg) == once


@given(raw_text)
@settings(max_examples=200)
def test_tokens_never_contain_stripped_characters(text):
    for token in tokenize(normalize(text, EMPTY_CFG)).tokens:
        assert token != PAD
        assert not any(unicodedata.category(ch).startswith("P") for ch in token)
        assert not re.search(r"[A-Za-z0-9٠-٩۰-۹\s]", token)
        assert ZWNJ not in token


@given(st.lists(st.text(alphabet=st.sampled_from(list("ابپت")), min_size=1, max_size=6), max_size=40))
@settings(max_examples=200)
def test_unify_length_invariants(tokens):
    fixed = unify_length(tokens)
    assert len(fixed.tokens) == MAX_LEN
    assert fixed.true_length == min(len(tokens), MAX_LEN)
    assert fixed.tokens[: fixed.true_length] == tuple(tokens[: fixed.true_length])
    assert all(t == PAD for t in fixed.tokens[fixed.true_length:])

"""Shared fixtures: bundled data paths and synthetic corpus builders."""

from __future__ import annotations

from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from sarv.corpus import (EncodedSentence, LabelScheme, RawRecord, as_records, encode_sentence,
                         preprocess_records)
from sarv.embed import (
    build_char_vocab,
    build_token_vocab,
    embedding_matrix,
    load_embeddings,
)
from sarv.models import ModelSpec
from sarv.nn import Dropout, Relu
from sarv.textproc import MAX_LEN, NormConfig

DATA_DIR = Path(__file__).parent / "data"
REVIEWS_TSV = DATA_DIR / "persian_reviews.tsv"

# Tokens drawn from the bundled vector fixture so synthetic corpora hit
# real (nonzero) embeddings.
FILLERS = (
    "گوشی کیفیت قیمت ارسال بسته صفحه باتری رنگ کتاب لباس "
    "کفش ساعت عینک کیف یخچال ماشین تلویزیون مبل فرش پرده"
).split()
MARKER = {"negative": "افتضاح", "neutral": "معمولی", "positive": "عالی"}
CUE = "واقعا"


def bundled_embedding_path() -> Path:
    return Path(str(resources.files("sarv.data").joinpath("mini_glove_50d.txt")))


@pytest.fixture(scope="session")
def emb_path() -> Path:
    return bundled_embedding_path()


@pytest.fixture(scope="session")
def emb_table(emb_path):
    return load_embeddings(emb_path)


def separable_rows(n: int, classes: int, seed: int) -> list[RawRecord]:
    """Each record carries exactly one class marker: trivially learnable."""
    rng = np.random.default_rng(seed)
    scheme = LabelScheme.for_num_classes(classes)
    rows = []
    for k in range(n):
        name = scheme.classes[k % classes]
        length = int(rng.integers(2, 7))
        toks = [FILLERS[int(rng.integers(len(FILLERS)))] for _ in range(length)]
        toks[int(rng.integers(length))] = MARKER[name]
        rows.append(RawRecord(" ".join(toks), name, category="Synthetic"))
    return rows


def order_rows(n: int, seed: int) -> list[RawRecord]:
    """Label = class of the marker right after the cue token.

    Every record holds the cue, one marker of each class, and fillers,
    so the token multiset carries no signal; only adjacency (order)
    decides the label.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        length = int(rng.integers(5, 11))
        toks = [FILLERS[int(rng.integers(len(FILLERS)))] for _ in range(length)]
        cue_at = int(rng.integers(0, length - 1))
        y = int(rng.random() < 0.5)
        toks[cue_at] = CUE
        toks[cue_at + 1] = MARKER["positive"] if y else MARKER["negative"]
        free = [k for k in range(length) if k not in (cue_at, cue_at + 1)]
        decoy = MARKER["negative"] if y else MARKER["positive"]
        toks[free[int(rng.integers(len(free)))]] = decoy
        rows.append(RawRecord(" ".join(toks), "positive" if y else "negative"))
    return rows


def encode_rows(rows, classes: int, stopwords=frozenset()):
    """Raw records -> (encoded sentences, token vocab, char vocab)."""
    norm = NormConfig(stopwords=stopwords)
    triples = preprocess_records(rows, norm, MAX_LEN)
    seqs = [seq for seq, _, _ in triples]
    token_vocab = build_token_vocab(seqs)
    char_vocab = build_char_vocab(seqs)
    scheme = LabelScheme.for_num_classes(classes)
    encoded = [
        encode_sentence(fixed, token_vocab, char_vocab, scheme.label_index(rec.label))
        for _, fixed, rec in triples
    ]
    return encoded, token_vocab, char_vocab


def emb_matrix_for(token_vocab, dtype=np.float32) -> np.ndarray:
    return embedding_matrix(load_embeddings(bundled_embedding_path()), token_vocab, dtype=dtype)


def write_corpus_tsv(path, rows) -> Path:
    lines = ["text\tlabel\tcategory"]
    for rec in rows:
        lines.append(f"{rec.text}\t{rec.label}\t{rec.category or ''}")
    path = Path(path)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# tiny models for gradient verification (small enough for fast finite
# differences, exercising every layer type each preset owns)
# ---------------------------------------------------------------------------

TINY_VOCAB = 12        # token ids 0..12 (0 = PAD/OOV)
TINY_CHAR_VOCAB = 9    # char ids 0..9
TINY_EMBED_DIM = 5
TINY_MAX_LEN = 4
TINY_MAX_WORD_CHARS = 5


def tiny_spec(preset: str, classes: int = 2) -> ModelSpec:
    return ModelSpec(
        preset=preset,
        num_classes=classes,
        hidden_sizes=(7, 5),
        word_lstm_size=6,
        char_lstm_size=4,
        char_embed_width=3,
        dropout_rate=0.25,
        embed_dim=TINY_EMBED_DIM,
        max_len=TINY_MAX_LEN,
        max_word_chars=TINY_MAX_WORD_CHARS,
        char_vocab_size=TINY_CHAR_VOCAB,
    )


def tiny_records(seed: int, n: int = 2, classes: int = 2) -> list[EncodedSentence]:
    rng = np.random.default_rng(seed)
    records = []
    for _ in range(n):
        true_length = int(rng.integers(1, TINY_MAX_LEN + 1))
        tokens = [0] * TINY_MAX_LEN
        chars = [[0] * TINY_MAX_WORD_CHARS for _ in range(TINY_MAX_LEN)]
        for slot in range(true_length):
            tokens[slot] = int(rng.integers(1, TINY_VOCAB + 1))
            n_chars = int(rng.integers(1, TINY_MAX_WORD_CHARS + 1))
            for k in range(n_chars):
                chars[slot][k] = int(rng.integers(1, TINY_CHAR_VOCAB + 1))
            chars[slot][n_chars - 1] = max(chars[slot][n_chars - 1], 1)
        records.append(
            EncodedSentence(
                token_ids=tuple(tokens),
                char_ids=tuple(tuple(row) for row in chars),
                true_length=true_length,
                label=int(rng.integers(0, classes)),
            )
        )
    return records


def tiny_batch(seed: int, n: int = 2, classes: int = 2) -> np.ndarray:
    """``tiny_records`` stacked into one record array."""
    return as_records(tiny_records(seed, n, classes), TINY_MAX_WORD_CHARS)


def tiny_emb(seed: int, dtype=np.float64) -> np.ndarray:
    rng = np.random.default_rng(seed)
    mat = rng.normal(scale=0.5, size=(TINY_VOCAB + 1, TINY_EMBED_DIM)).astype(dtype)
    mat[0] = 0.0
    return mat


def relu_margin(model, records, emb_matrix, dropout_seed: int = 0) -> float:
    """Smallest |pre-activation| reaching any relu layer for this input.

    Finite differences stride across the relu kink whenever a
    pre-activation sits within ``h`` of zero, so relu presets are only
    gradient-checked at inputs with a comfortable margin.  The dropout
    rng is seeded exactly as the loss adapter seeds it, keeping masks
    identical.
    """
    if not hasattr(model, "layers"):
        return np.inf
    batch = as_records(records, model.spec.max_word_chars)
    x = emb_matrix[batch["t"]].reshape(len(batch), -1)
    rng = np.random.default_rng(dropout_seed)
    margin = np.inf
    for layer in model.layers:
        if isinstance(layer, Relu):
            margin = min(margin, float(np.abs(x).min()))
            x = layer.forward(x)
        elif isinstance(layer, Dropout):
            x = layer.forward(x, mode="train", rng=rng)
        else:
            x = layer.forward(x)
    return margin

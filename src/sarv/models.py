"""The seven classifier presets and their forward/predict paths.

Every preset consumes a batch of encoded sentences plus a frozen
embedding matrix and produces per-class probabilities.  Architectures:

* ``W2V_SOFTMAX``: flatten the 15x50 input and map straight to classes.
* ``W2V_MLP_*``: flatten, then a dense chain over ``hidden_sizes`` with
  sigmoid or relu (and optional dropout after every hidden activation).
* ``W2V_LSTM``: word-level LSTM, last-real-step hidden state to classes.
* ``CHAR_W2V_LSTM[_RUS]``: a character LSTM turns each token's char ids
  into a learned word feature, concatenated with the word vector before
  the word LSTM.  The ``_RUS`` variant shares the architecture; random
  under-sampling happens at data preparation time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from sarv.corpus import EncodedSentence
from sarv.errors import ConfigError, DataError
from sarv.nn import (
    ACTIVATIONS,
    Dense,
    Dropout,
    Lstm,
    OneHotDense,
    Parameter,
    cross_entropy,
    load_checkpoint,
    save_checkpoint,
    softmax,
    softmax_xent_grad,
    zero_grads,
)

PRESETS = (
    "W2V_SOFTMAX",
    "W2V_MLP_SIGMOID",
    "W2V_MLP_RELU_LRDECAY",
    "W2V_MLP_RELU_LRDECAY_DROPOUT",
    "W2V_LSTM",
    "CHAR_W2V_LSTM_RUS",
    "CHAR_W2V_LSTM",
)

MLP_PRESETS = ("W2V_MLP_SIGMOID", "W2V_MLP_RELU_LRDECAY", "W2V_MLP_RELU_LRDECAY_DROPOUT")
CHAR_PRESETS = ("CHAR_W2V_LSTM_RUS", "CHAR_W2V_LSTM")

# F1 reported for these configurations on the full 100k-review corpus.
# Desk-scale runs will not reproduce them; where two figures were
# published for the same configuration, both are kept.
REFERENCE_F1 = {
    "W2V_SOFTMAX": "63.1",
    "W2V_MLP_SIGMOID": "72",
    "W2V_MLP_RELU_LRDECAY": "72.1 (also reported as 72.01)",
    "W2V_MLP_RELU_LRDECAY_DROPOUT": "71.8 (also reported as 72.01)",
    "W2V_LSTM": "75.7 (also reported as 75.07)",
    "CHAR_W2V_LSTM_RUS": "73.9",
    "CHAR_W2V_LSTM": "78.3",
}


@dataclass(frozen=True)
class ModelSpec:
    """Declarative description of one preset plus its hyperparameters."""

    preset: str
    num_classes: int = 2
    hidden_sizes: tuple[int, ...] = (200, 100, 60, 30)
    word_lstm_size: int = 100
    char_lstm_size: int = 50
    char_embed_width: int = 16
    dropout_rate: float = 0.25
    embed_dim: int = 50
    max_len: int = 15
    max_word_chars: int = 20
    char_vocab_size: int = 0

    def __post_init__(self) -> None:
        if self.preset not in PRESETS:
            raise ConfigError(f"unknown preset {self.preset!r}; choose from {PRESETS}")
        if self.num_classes not in (2, 3):
            raise ConfigError(f"num_classes must be 2 or 3, got {self.num_classes}")
        sizes = (
            self.word_lstm_size, self.char_lstm_size, self.char_embed_width,
            self.embed_dim, self.max_len, self.max_word_chars, *self.hidden_sizes,
        )
        if any(s < 1 for s in sizes):
            raise ConfigError("all model sizes must be >= 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.char_vocab_size < 0:
            raise ConfigError("char_vocab_size must be >= 0")

    def to_meta(self) -> dict[str, str]:
        return {
            "preset": self.preset,
            "num_classes": str(self.num_classes),
            "hidden_sizes": ",".join(map(str, self.hidden_sizes)),
            "word_lstm_size": str(self.word_lstm_size),
            "char_lstm_size": str(self.char_lstm_size),
            "char_embed_width": str(self.char_embed_width),
            "dropout_rate": repr(self.dropout_rate),
            "embed_dim": str(self.embed_dim),
            "max_len": str(self.max_len),
            "max_word_chars": str(self.max_word_chars),
            "char_vocab_size": str(self.char_vocab_size),
        }

    @classmethod
    def from_meta(cls, meta: dict[str, str]) -> "ModelSpec":
        return cls(
            preset=meta["preset"],
            num_classes=int(meta["num_classes"]),
            hidden_sizes=tuple(int(s) for s in meta["hidden_sizes"].split(",") if s),
            word_lstm_size=int(meta["word_lstm_size"]),
            char_lstm_size=int(meta["char_lstm_size"]),
            char_embed_width=int(meta["char_embed_width"]),
            dropout_rate=float(meta["dropout_rate"]),
            embed_dim=int(meta["embed_dim"]),
            max_len=int(meta["max_len"]),
            max_word_chars=int(meta["max_word_chars"]),
            char_vocab_size=int(meta["char_vocab_size"]),
        )


@dataclass
class Batch:
    """Dense arrays assembled from encoded sentences."""

    word_vecs: np.ndarray      # [B, max_len, embed_dim]
    char_ids: np.ndarray       # [B, max_len, max_word_chars]
    lengths: np.ndarray        # [B], clamped to >= 1
    labels: np.ndarray         # [B]


def assemble_batch(records: Sequence[EncodedSentence], emb_matrix: np.ndarray) -> Batch:
    if not records:
        raise ValueError("empty batch")
    token_ids = np.array([r.token_ids for r in records], dtype=np.int64)
    char_ids = np.array([r.char_ids for r in records], dtype=np.int64)
    # An all-PAD sentence still runs one LSTM step over the zero vector.
    lengths = np.maximum([r.true_length for r in records], 1).astype(np.int64)
    labels = np.array([r.label for r in records], dtype=np.int64)
    return Batch(emb_matrix[token_ids], char_ids, lengths, labels)


class Model:
    """Shared surface: parameters, forward to probabilities, backward."""

    def __init__(self, spec: ModelSpec):
        self.spec = spec

    def params(self) -> list[Parameter]:
        raise NotImplementedError

    def _logits(self, batch: Batch, mode: str, rng) -> np.ndarray:
        raise NotImplementedError

    def _backward_logits(self, dlogits: np.ndarray) -> None:
        raise NotImplementedError

    def forward(
        self,
        records: Sequence[EncodedSentence],
        emb_matrix: np.ndarray,
        mode: str = "eval",
        rng: np.random.Generator | None = None,
        logit_shift: float = 0.0,
    ) -> np.ndarray:
        """Probability rows for a batch; ``logit_shift`` is a test hook."""
        if emb_matrix.shape[1] != self.spec.embed_dim:
            raise ConfigError(
                f"embedding dim {emb_matrix.shape[1]} != spec embed_dim {self.spec.embed_dim}"
            )
        batch = assemble_batch(records, emb_matrix)
        logits = self._logits(batch, mode, rng)
        if logit_shift:
            logits = logits + logit_shift
        return softmax(logits)

    def backward(self, dlogits: np.ndarray) -> None:
        self._backward_logits(dlogits)

    def predict(
        self, records: Sequence[EncodedSentence], emb_matrix: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Argmax labels (ties break toward the lowest class index) + probs."""
        probs = self.forward(records, emb_matrix, mode="eval")
        return np.argmax(probs, axis=1), probs

    def parameter_count(self) -> int:
        return sum(p.value.size for p in self.params())


class _FeedForward(Model):
    def __init__(self, spec: ModelSpec, rng: np.random.Generator, dtype):
        super().__init__(spec)
        flat = spec.max_len * spec.embed_dim
        self.layers: list = []
        if spec.preset == "W2V_SOFTMAX":
            hidden: tuple[int, ...] = ()
            activation = None
            use_dropout = False
        else:
            hidden = spec.hidden_sizes
            activation = "sigmoid" if spec.preset == "W2V_MLP_SIGMOID" else "relu"
            use_dropout = spec.preset == "W2V_MLP_RELU_LRDECAY_DROPOUT"
        prev = flat
        for i, size in enumerate(hidden):
            self.layers.append(Dense(prev, size, rng, dtype, name=f"dense{i}"))
            self.layers.append(ACTIVATIONS[activation]())
            if use_dropout:
                self.layers.append(Dropout(spec.dropout_rate))
            prev = size
        self.layers.append(Dense(prev, spec.num_classes, rng, dtype, name="head"))

    def params(self) -> list[Parameter]:
        out: list[Parameter] = []
        for layer in self.layers:
            out.extend(layer.params())
        return out

    def _logits(self, batch: Batch, mode: str, rng) -> np.ndarray:
        x = batch.word_vecs.reshape(len(batch.labels), -1)
        for layer in self.layers:
            if isinstance(layer, Dropout):
                x = layer.forward(x, mode=mode, rng=rng)
            else:
                x = layer.forward(x)
        return x

    def _backward_logits(self, dlogits: np.ndarray) -> None:
        d = dlogits
        for layer in reversed(self.layers):
            d = layer.backward(d)


class _WordLstm(Model):
    def __init__(self, spec: ModelSpec, rng: np.random.Generator, dtype):
        super().__init__(spec)
        self.lstm = Lstm(spec.embed_dim, spec.word_lstm_size, rng, dtype, name="word_lstm")
        self.head = Dense(spec.word_lstm_size, spec.num_classes, rng, dtype, name="head")

    def params(self) -> list[Parameter]:
        return self.lstm.params() + self.head.params()

    def _logits(self, batch: Batch, mode: str, rng) -> np.ndarray:
        h = self.lstm.forward(batch.word_vecs, batch.lengths)
        return self.head.forward(h)

    def _backward_logits(self, dlogits: np.ndarray) -> None:
        dh = self.head.backward(dlogits)
        self.lstm.backward(dh)


def _char_lengths(char_ids: np.ndarray) -> np.ndarray:
    """Per-token char count = last nonzero id position + 1, clamped to >= 1.

    The shard format trims trailing zeros, so a token ending in unknown
    characters is indistinguishable from a shorter one; interior zeros
    (unknown chars mid-token) keep their step.
    """
    nz = char_ids != 0
    cap = char_ids.shape[-1]
    lengths = np.where(nz.any(axis=-1), cap - np.argmax(nz[..., ::-1], axis=-1), 0)
    return np.maximum(lengths, 1)


class _CharWordLstm(Model):
    def __init__(self, spec: ModelSpec, rng: np.random.Generator, dtype):
        super().__init__(spec)
        self.char_proj = OneHotDense(
            spec.char_vocab_size + 1, spec.char_embed_width, rng, dtype, name="char_proj"
        )
        self.char_lstm = Lstm(
            spec.char_embed_width, spec.char_lstm_size, rng, dtype, name="char_lstm"
        )
        self.word_lstm = Lstm(
            spec.embed_dim + spec.char_lstm_size, spec.word_lstm_size, rng, dtype,
            name="word_lstm",
        )
        self.head = Dense(spec.word_lstm_size, spec.num_classes, rng, dtype, name="head")

    def params(self) -> list[Parameter]:
        return (
            self.char_proj.params() + self.char_lstm.params()
            + self.word_lstm.params() + self.head.params()
        )

    def _logits(self, batch: Batch, mode: str, rng) -> np.ndarray:
        b, max_len, cap = batch.char_ids.shape
        flat_ids = batch.char_ids.reshape(b * max_len, cap)
        char_x = self.char_proj.forward(flat_ids)
        char_h = self.char_lstm.forward(char_x, _char_lengths(flat_ids))
        word_feat = char_h.reshape(b, max_len, self.spec.char_lstm_size)
        self._word_input = np.concatenate([batch.word_vecs, word_feat], axis=2)
        h = self.word_lstm.forward(self._word_input, batch.lengths)
        return self.head.forward(h)

    def _backward_logits(self, dlogits: np.ndarray) -> None:
        dh = self.head.backward(dlogits)
        dxin = self.word_lstm.backward(dh)
        dim = self.spec.embed_dim
        dchar_h = dxin[:, :, dim:].reshape(-1, self.spec.char_lstm_size)
        dchar_x = self.char_lstm.backward(dchar_h)
        self.char_proj.backward(dchar_x)


def build_model(
    spec: ModelSpec, rng_seed: int | np.random.Generator = 0, dtype=np.float32
) -> Model:
    """Assemble the parameter set for ``spec.preset``."""
    rng = (
        rng_seed
        if isinstance(rng_seed, np.random.Generator)
        else np.random.default_rng(rng_seed)
    )
    if spec.preset in ("W2V_SOFTMAX", *MLP_PRESETS):
        return _FeedForward(spec, rng, dtype)
    if spec.preset == "W2V_LSTM":
        return _WordLstm(spec, rng, dtype)
    if spec.preset in CHAR_PRESETS:
        return _CharWordLstm(spec, rng, dtype)
    raise ConfigError(f"unknown preset {spec.preset!r}")


def model_loss_fn(
    model: Model,
    records: Sequence[EncodedSentence],
    emb_matrix: np.ndarray,
    targets: np.ndarray,
    mode: str = "eval",
    dropout_seed: int = 0,
):
    """Adapter for :func:`sarv.nn.grad_check` over a whole model.

    Returns ``(fn, arrays)`` where ``arrays`` are the live parameter
    values.  Dropout draws from a freshly seeded rng on every call so
    the masks are identical across finite-difference evaluations.
    """
    params = model.params()

    def fn(arrays, want_grad):
        rng = np.random.default_rng(dropout_seed)
        probs = model.forward(records, emb_matrix, mode=mode, rng=rng)
        loss = cross_entropy(probs, targets)
        if not want_grad:
            return loss, None
        zero_grads(params)
        model.backward(softmax_xent_grad(probs, targets))
        return loss, [p.grad.copy() for p in params]

    return fn, [p.value for p in params]


def save_model(model: Model, path, extra_meta: dict[str, str] | None = None) -> str:
    meta = model.spec.to_meta()
    meta["precision"] = "double" if model.params()[0].value.dtype == np.float64 else "single"
    meta.update(extra_meta or {})
    return save_checkpoint(path, model.params(), meta)


def load_model(path, verify: bool = True) -> tuple[Model, dict[str, str]]:
    """Rebuild a model from a checkpoint, validating every parameter shape."""
    arrays, meta = load_checkpoint(path, verify=verify)
    spec = ModelSpec.from_meta(meta)
    dtype = np.float64 if meta.get("precision") == "double" else np.float32
    model = build_model(spec, rng_seed=0, dtype=dtype)
    mismatches = []
    params = model.params()
    for p in params:
        found = arrays.get(p.name)
        if found is None:
            mismatches.append(f"{p.name}: expected {p.value.shape}, missing from checkpoint")
        elif found.shape != p.value.shape:
            mismatches.append(f"{p.name}: expected {p.value.shape}, found {found.shape}")
    extra = set(arrays) - {p.name for p in params}
    mismatches.extend(f"{name}: unexpected parameter" for name in sorted(extra))
    if mismatches:
        raise DataError(
            "checkpoint does not match model spec:\n  " + "\n  ".join(mismatches)
        )
    for p in params:
        p.value[...] = arrays[p.name].astype(p.value.dtype)
    return model, meta


def with_char_vocab(spec: ModelSpec, char_vocab_size: int) -> ModelSpec:
    return replace(spec, char_vocab_size=char_vocab_size)

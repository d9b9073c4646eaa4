"""The seven classifier presets: one model class, one forward/backward path.

Every preset consumes a batch of records (a structured array, see
:func:`sarv.corpus.record_dtype`) plus a frozen embedding matrix and
produces per-class probabilities through the same pipeline; a preset
only chooses which stages it has:

1. char channel (``CHAR_W2V_LSTM[_RUS]``): a character LSTM turns each
   token's char ids into a learned word feature, concatenated with the
   word vector.  The ``_RUS`` variant shares the architecture; random
   under-sampling happens at data preparation time.
2. word LSTM (``W2V_LSTM`` and the char presets), last-real-step hidden
   state; every other preset flattens the 15x50 input instead.
3. dense chain: ``W2V_MLP_*`` run ``hidden_sizes`` dense layers with
   sigmoid or relu (and dropout after every hidden activation in the
   ``_DROPOUT`` preset); ``W2V_SOFTMAX`` has none.
4. ``head``: a dense layer to class logits, then softmax.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from sarv.corpus import char_widths
from sarv.errors import ConfigError, DataError
from sarv.nn import (
    ACTIVATIONS,
    Dense,
    Dropout,
    Lstm,
    NamedArray,
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

# The checkpoint array holding the frozen word-vector matrix, and the
# metadata key holding the sha256 of the file it was built from.
EMBEDDINGS_ARRAY = "embeddings"
EMBEDDINGS_HASH_KEY = "embeddings_sha256"

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
        """Every field as text: tuples comma-joined, floats by ``repr``."""
        meta = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = ",".join(map(str, value))
            meta[f.name] = repr(value) if isinstance(value, float) else str(value)
        return meta

    @classmethod
    def from_meta(cls, meta: dict[str, str]) -> "ModelSpec":
        parse = {"str": str, "int": int, "float": float,
                 "tuple[int, ...]": lambda s: tuple(int(x) for x in s.split(",") if x)}
        return cls(**{f.name: parse[f.type](meta[f.name]) for f in fields(cls)})


def _char_lengths(char_ids: np.ndarray) -> np.ndarray:
    """Per-token char count = last nonzero id position + 1, clamped to >= 1.

    Char id 0 means both PAD and an unknown character, so a token ending
    in unknown characters is indistinguishable from a shorter one;
    interior zeros (unknown chars mid-token) keep their step.
    """
    return np.maximum(char_widths(char_ids), 1)


def _distinct_rows(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distinct rows of 2-d unsigned ``ids``, index of each input row in them).

    Equals ``np.unique(ids, axis=0, return_inverse=True)`` with a flat
    inverse, but sorts once over one byte key per row instead of field by
    field.  The bytes of big-endian unsigned values compare in the same
    order as the numbers, so the rows come out in the same order.
    """
    big_endian = np.ascontiguousarray(ids, dtype=ids.dtype.newbyteorder(">"))
    row_bytes = big_endian.shape[1] * big_endian.itemsize
    keys = big_endian.view(np.dtype((np.void, row_bytes))).reshape(-1)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return ids[first], inverse.reshape(-1)


class Model:
    """One preset's layers on the shared pipeline; see the module docstring.

    ``char_proj``/``char_lstm`` and ``word_lstm`` are ``None`` for presets
    without them.  ``layers`` is the dense chain ending in ``head``.
    Parameters are listed (and checkpointed) in pipeline order.  With
    ``rng`` None every weight starts at zero and no generator is made, for
    ``load_model`` to put the checkpoint's arrays in place.
    """

    def __init__(self, spec: ModelSpec, rng: np.random.Generator | None, dtype=np.float32):
        self.spec = spec
        self.char_proj: OneHotDense | None = None
        self.char_lstm: Lstm | None = None
        self.word_lstm: Lstm | None = None
        self._char_inverse: np.ndarray | None = None  # slot -> distinct char row, last forward
        self._char_rows = 0  # distinct char rows in the last forward
        # Nothing reads the gradient of the frozen word vectors, so the first
        # layer over them returns none.  The char presets' word LSTM returns
        # its whole input gradient, whose char columns feed the char channel.
        word_dim = spec.embed_dim
        if spec.preset in CHAR_PRESETS:
            self.char_proj = OneHotDense(
                spec.char_vocab_size + 1, spec.char_embed_width, rng, dtype, name="char_proj"
            )
            self.char_lstm = Lstm(
                spec.char_embed_width, spec.char_lstm_size, rng, dtype, name="char_lstm"
            )
            word_dim += spec.char_lstm_size
        if spec.preset == "W2V_LSTM" or self.char_lstm is not None:
            self.word_lstm = Lstm(word_dim, spec.word_lstm_size, rng, dtype, name="word_lstm",
                                  input_grad=self.char_lstm is not None)
            prev = spec.word_lstm_size
        else:
            prev = spec.max_len * spec.embed_dim
        self.layers: list = []
        grad_below = self.word_lstm is not None  # a layer below the next dense reads its input grad
        if spec.preset in MLP_PRESETS:
            activation = ACTIVATIONS["sigmoid" if spec.preset == "W2V_MLP_SIGMOID" else "relu"]
            for i, size in enumerate(spec.hidden_sizes):
                self.layers.append(Dense(prev, size, rng, dtype, name=f"dense{i}",
                                         input_grad=grad_below))
                grad_below = True
                self.layers.append(activation())
                if spec.preset == "W2V_MLP_RELU_LRDECAY_DROPOUT":
                    self.layers.append(Dropout(spec.dropout_rate))
                prev = size
        self.layers.append(Dense(prev, spec.num_classes, rng, dtype, name="head",
                                 input_grad=grad_below))

    def params(self) -> list[Parameter]:
        out: list[Parameter] = []
        for layer in (self.char_proj, self.char_lstm, self.word_lstm, *self.layers):
            if layer is not None:
                out.extend(layer.params())
        return out

    def forward(
        self,
        batch: np.ndarray,
        emb_matrix: np.ndarray,
        mode: str = "eval",
        rng: np.random.Generator | None = None,
        cache: bool = True,
    ) -> np.ndarray:
        """Probability rows for a record array.

        With ``cache`` False the LSTMs keep no state for ``backward``; only
        :meth:`predict` passes it.
        """
        if emb_matrix.shape[1] != self.spec.embed_dim:
            raise ConfigError(
                f"embedding dim {emb_matrix.shape[1]} != spec embed_dim {self.spec.embed_dim}"
            )
        x = emb_matrix[batch["t"]]
        if self.char_lstm is not None:
            b, max_len, cap = batch["c"].shape
            # The char channel runs once per distinct char row (PAD included).
            rows, self._char_inverse = _distinct_rows(batch["c"].reshape(b * max_len, cap))
            self._char_rows = len(rows)
            char_x = self.char_proj.forward(rows)
            char_h = self.char_lstm.forward(char_x, _char_lengths(rows), cache=cache)
            char_h = char_h[self._char_inverse].reshape(b, max_len, self.spec.char_lstm_size)
            x = np.concatenate([x, char_h], axis=2)
        if self.word_lstm is not None:
            # An all-PAD sentence still runs one LSTM step over the zero vector.
            x = self.word_lstm.forward(x, np.maximum(batch["len"], 1), cache=cache)
        else:
            x = x.reshape(len(batch), x.shape[1] * x.shape[2])
        for layer in self.layers:
            if isinstance(layer, Dropout):
                x = layer.forward(x, mode=mode, rng=rng)
            else:
                x = layer.forward(x)
        return softmax(x)

    def backward(self, dlogits: np.ndarray) -> None:
        """Accumulate parameter gradients for the last ``forward``'s logits."""
        d = dlogits
        for layer in reversed(self.layers):
            d = layer.backward(d)
        if self.word_lstm is not None:
            d = self.word_lstm.backward(d)
        if self.char_lstm is not None:
            dchar_h = d[:, :, self.spec.embed_dim:].reshape(-1, self.spec.char_lstm_size)
            drows = np.zeros((self._char_rows, dchar_h.shape[1]), dchar_h.dtype)
            np.add.at(drows, self._char_inverse, dchar_h)
            self.char_proj.backward(self.char_lstm.backward(drows))

    def predict(self, records: np.ndarray, emb_matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Argmax labels (ties break toward the lowest class index) + probs of a record array.

        The one inference entry point: an eval-mode forward whose LSTMs keep
        no backward cache, only the packed inputs, the hoisted input
        projection and one step's ``h`` and ``c``, so ``backward`` cannot
        follow it.  The probabilities equal ``forward(mode="eval")``'s bit for
        bit, and peak memory grows with the number of records passed.
        """
        probs = self.forward(records, emb_matrix, mode="eval", cache=False)
        return np.argmax(probs, axis=1), probs

    def parameter_count(self) -> int:
        return sum(p.value.size for p in self.params())


def build_model(
    spec: ModelSpec, rng_seed: int | np.random.Generator = 0, dtype=np.float32
) -> Model:
    """Assemble the parameter set for ``spec.preset``."""
    rng = (
        rng_seed
        if isinstance(rng_seed, np.random.Generator)
        else np.random.default_rng(rng_seed)
    )
    return Model(spec, rng, dtype)


def model_loss_fn(
    model: Model,
    records: np.ndarray,
    emb_matrix: np.ndarray,
    targets: np.ndarray,
    mode: str = "eval",
    dropout_seed: int = 0,
):
    """Adapter for :func:`sarv.nn.grad_check` over a whole model on a record array.

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


def save_model(
    model: Model, path, embeddings: np.ndarray, extra_meta: dict[str, str] | None = None
) -> str:
    """Write the parameters, then the frozen ``embeddings`` matrix at the model's precision."""
    dtype = model.params()[0].value.dtype
    meta = model.spec.to_meta()
    meta["precision"] = "double" if dtype == np.float64 else "single"
    meta.update(extra_meta or {})
    frozen = NamedArray(EMBEDDINGS_ARRAY, embeddings.astype(dtype, copy=False))
    return save_checkpoint(path, [*model.params(), frozen], meta)


def load_model(path, num_tokens: int) -> tuple[Model, np.ndarray, dict[str, str]]:
    """Rebuild a model and its embedding matrix from a checkpoint.

    Every parameter shape is checked against the metadata's spec, and the
    ``embeddings`` array must be ``(num_tokens + 1, embed_dim)``.  The
    parameters are the checkpoint's arrays themselves (cast only if the
    stored precision differs), and no random initialisation is drawn.
    """
    arrays, meta = load_checkpoint(path)
    try:
        spec = ModelSpec.from_meta(meta)
    except (KeyError, ValueError, ConfigError) as exc:
        raise DataError(f"checkpoint {path} has bad or missing metadata: {exc!r}") from exc
    dtype = np.float64 if meta.get("precision") == "double" else np.float32
    model = Model(spec, None, dtype)
    embeddings = arrays.pop(EMBEDDINGS_ARRAY, None)
    want = (num_tokens + 1, spec.embed_dim)
    mismatches = []
    if embeddings is None:
        mismatches.append(f"{EMBEDDINGS_ARRAY}: expected {want}, missing from checkpoint")
    elif embeddings.shape != want:
        mismatches.append(f"{EMBEDDINGS_ARRAY}: expected {want} for {num_tokens} tokens, "
                          f"found {embeddings.shape}")
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
            f"checkpoint {path} / model spec mismatch:\n  " + "\n  ".join(mismatches)
        )
    for p in params:
        p.value = arrays[p.name].astype(dtype, copy=False)
    embeddings = embeddings.astype(dtype, copy=False)
    embeddings.flags.writeable = False
    return model, embeddings, meta

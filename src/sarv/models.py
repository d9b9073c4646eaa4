"""The seven classifier presets: one model class, one forward/backward path.

``PRESETS`` is the one table of presets.  Each :class:`Preset` record
holds the stages its model builds, the training defaults it starts from
and the F1 the paper reports for it.  Every preset consumes a batch of
records (a structured array, see :func:`sarv.corpus.record_dtype`) plus
a frozen embedding matrix and produces per-class probabilities through
the same pipeline; a record only chooses which stages it has:

1. char channel (``char_channel``): a character LSTM turns each token's
   char ids into a learned word feature, concatenated with the word
   vector.  Two presets share this architecture; the one whose training
   defaults set ``rus`` random-undersamples at data preparation time.
2. word LSTM (``word_lstm``), last-real-step hidden state; without it
   the 15x50 input is flattened instead.
3. dense chain (``hidden``): ``hidden_sizes`` dense layers with the named
   activation, and with ``dropout`` a dropout after every hidden
   activation; an empty ``hidden`` builds none.
4. ``head``: a dense layer to class logits, then softmax.

:func:`scored_batches` scores a stream of record arrays batch by batch
through ``Model.predict``; ``sarv predict`` and the eval passes of
:mod:`sarv.train` share it.  The training choices (``OPTIMIZERS``,
``SCHEDULES``, ``PRECISIONS``) sit beside ``PRESETS``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, Iterator

import numpy as np

from sarv.corpus import batches, char_widths
from sarv.errors import ConfigError, DataError, NumericsError
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


@dataclass(frozen=True)
class Preset:
    """One preset: the stages ``Model`` builds, its training defaults and its paper F1.

    ``char_channel`` feeds the word LSTM, so it comes with ``word_lstm``.
    ``hidden`` names the dense chain's activation (a key of
    ``sarv.nn.ACTIVATIONS``), or is empty for no dense chain; ``dropout``
    follows each of its activations with a ``Dropout``.  ``train`` holds the
    ``RunConfig`` values the preset starts from; a config file or flag
    overrides any of them.  ``reference_f1`` was reported on the full
    100k-review corpus, which desk-scale runs will not reproduce; where two
    figures were published, both are kept.
    """

    train: dict
    reference_f1: str
    char_channel: bool = False
    word_lstm: bool = False
    hidden: str = ""
    dropout: bool = False


PRESETS = {
    "W2V_SOFTMAX": Preset(
        reference_f1="63.1",
        train={"optimizer": "sgd", "lr": 0.003, "lr_schedule": "constant"}),
    "W2V_MLP_SIGMOID": Preset(
        hidden="sigmoid", reference_f1="72",
        train={"optimizer": "adam", "lr": 0.001, "lr_schedule": "plateau"}),
    "W2V_MLP_RELU_LRDECAY": Preset(
        hidden="relu", reference_f1="72.1 (also reported as 72.01)",
        train={"optimizer": "adam", "lr": 0.001, "lr_schedule": "exp"}),
    "W2V_MLP_RELU_LRDECAY_DROPOUT": Preset(
        hidden="relu", dropout=True, reference_f1="71.8 (also reported as 72.01)",
        train={"optimizer": "adam", "lr": 0.001, "lr_schedule": "exp", "dropout": 0.25}),
    "W2V_LSTM": Preset(
        word_lstm=True, reference_f1="75.7 (also reported as 75.07)",
        train={"optimizer": "adam", "lr": 0.001, "lr_schedule": "plateau"}),
    "CHAR_W2V_LSTM_RUS": Preset(
        char_channel=True, word_lstm=True, reference_f1="73.9",
        train={"optimizer": "adam", "lr": 0.001, "lr_schedule": "plateau", "rus": True}),
    "CHAR_W2V_LSTM": Preset(
        char_channel=True, word_lstm=True, reference_f1="78.3",
        train={"optimizer": "adam", "lr": 0.001, "lr_schedule": "plateau"}),
}

# The training choices ``sarv.train.TrainConfig`` accepts.  They live here
# so the CLI can offer them as flag choices without importing the trainer.
OPTIMIZERS = ("sgd", "adam")
SCHEDULES = ("constant", "exp", "plateau")
PRECISIONS = ("single", "double")

# The checkpoint array holding the frozen word-vector matrix, and the
# metadata key holding the sha256 of the file it was built from.
EMBEDDINGS_ARRAY = "embeddings"
EMBEDDINGS_HASH_KEY = "embeddings_sha256"


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
            raise ConfigError(f"unknown preset {self.preset!r}; choose from {tuple(PRESETS)}")
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

    The LSTM presets gather the word vector (and char feature) of each real
    word slot only, in row-major slot order, the layout both LSTMs take, so
    no padded ``(batch, max_len, ·)`` array is built.  The char projection
    covers only each distinct char row's real positions.  Every gradient is
    summed in row-major slot order, the order a padded layout would sum it
    in, minus its zero terms, so forward and backward give the padded
    layout's bits.
    """

    def __init__(self, spec: ModelSpec, rng: np.random.Generator | None, dtype=np.float32):
        self.spec = spec
        self.char_proj: OneHotDense | None = None
        self.char_lstm: Lstm | None = None
        self.word_lstm: Lstm | None = None
        # Of the last forward: the number of distinct char rows, and the
        # distinct char row of each real word slot, in row-major slot order.
        self._char_rows = 0
        self._slot_chars: np.ndarray | None = None
        # Nothing reads the gradient of the frozen word vectors, so the first
        # layer over them returns none.  The char presets' word LSTM returns
        # its whole input gradient, whose char columns feed the char channel.
        preset = PRESETS[spec.preset]
        word_dim = spec.embed_dim
        if preset.char_channel:
            self.char_proj = OneHotDense(
                spec.char_vocab_size + 1, spec.char_embed_width, rng, dtype, name="char_proj"
            )
            self.char_lstm = Lstm(
                spec.char_embed_width, spec.char_lstm_size, rng, dtype, name="char_lstm"
            )
            word_dim += spec.char_lstm_size
        if preset.word_lstm:
            self.word_lstm = Lstm(word_dim, spec.word_lstm_size, rng, dtype, name="word_lstm",
                                  input_grad=preset.char_channel)
            prev = spec.word_lstm_size
        else:
            prev = spec.max_len * spec.embed_dim
        self.layers: list = []
        grad_below = preset.word_lstm  # a layer below the next dense reads its input grad
        if preset.hidden:
            activation = ACTIVATIONS[preset.hidden]
            for i, size in enumerate(spec.hidden_sizes):
                self.layers.append(Dense(prev, size, rng, dtype, name=f"dense{i}",
                                         input_grad=grad_below))
                grad_below = True
                self.layers.append(activation())
                if preset.dropout:
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
        if self.word_lstm is None:
            x = emb_matrix[batch["t"]]
            x = x.reshape(len(batch), x.shape[1] * x.shape[2])
        else:
            # An all-PAD sentence still runs one LSTM step over the zero vector.
            lengths = np.maximum(batch["len"], 1)
            real = np.arange(batch["t"].shape[1]) < lengths[:, None]
            x = emb_matrix[batch["t"][real]]
            if self.char_lstm is not None:
                x = self._append_char_features(x, batch["c"], real, cache)
            x = self.word_lstm.forward(x, lengths, cache=cache)
        for layer in self.layers:
            if isinstance(layer, Dropout):
                x = layer.forward(x, mode=mode, rng=rng)
            else:
                x = layer.forward(x)
        return softmax(x)

    def _append_char_features(self, words: np.ndarray, chars: np.ndarray, real: np.ndarray,
                              cache: bool) -> np.ndarray:
        """The word vectors of the real slots, each beside the char-LSTM feature of its slot.

        ``real`` marks the real slots of the ``(batch, max_len)`` grid.  The
        char channel runs once per distinct char row of all the batch's slots
        (PAD included), over only each row's real positions.
        """
        b, max_len, cap = chars.shape
        distinct, inverse = _distinct_rows(chars.reshape(b * max_len, cap))
        self._char_rows = len(distinct)
        self._slot_chars = inverse.reshape(b, max_len)[real]
        lengths = _char_lengths(distinct)
        char_x = self.char_proj.forward(distinct, lengths)
        char_h = self.char_lstm.forward(char_x, lengths, cache=cache)
        x = np.empty((len(words), words.shape[1] + char_h.shape[1]),
                     np.result_type(words.dtype, char_h.dtype))
        x[:, :words.shape[1]] = words
        x[:, words.shape[1]:] = char_h[self._slot_chars]
        return x

    def backward(self, dlogits: np.ndarray) -> None:
        """Accumulate parameter gradients for the last ``forward``'s logits."""
        d = dlogits
        for layer in reversed(self.layers):
            d = layer.backward(d)
        if self.word_lstm is not None:
            d = self.word_lstm.backward(d)
        if self.char_lstm is not None:
            # Only real word slots have a gradient.  They are summed into their
            # distinct rows in row-major slot order, as over the padded layout,
            # whose padded slots only add zeros.
            dchar_h = d[:, self.spec.embed_dim:]
            drows = np.zeros((self._char_rows, dchar_h.shape[1]), dchar_h.dtype)
            np.add.at(drows, self._slot_chars, dchar_h)
            self.char_proj.backward(self.char_lstm.backward(drows))

    def predict(self, records: np.ndarray, emb_matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Argmax labels (ties break toward the lowest class index) + probs of a record array.

        The one inference entry point: an eval-mode forward whose LSTMs keep
        no backward cache, only one step's inputs, gates, ``h`` and ``c``, so
        ``backward`` cannot follow it.  The probabilities equal
        ``forward(mode="eval")``'s bit for bit.  Peak memory grows with the
        number of records passed, through the gathered inputs of their real
        slots; the LSTMs add one step's worth.
        """
        probs = self.forward(records, emb_matrix, mode="eval", cache=False)
        return np.argmax(probs, axis=1), probs

    def parameter_count(self) -> int:
        return sum(p.value.size for p in self.params())


def scored_batches(
    model: Model, shards: Iterable[np.ndarray], emb_matrix: np.ndarray, batch_size: int,
    where: str,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """``(batch, labels, probs)`` for each ``batch_size`` slice, scored by ``Model.predict``.

    A numeric failure is raised again with ``where`` (the pass) and the
    batch number in front of its message.
    """
    for batch_no, batch in enumerate(batches(shards, batch_size)):
        try:
            labels, probs = model.predict(batch, emb_matrix)
        except NumericsError as exc:
            raise NumericsError(f"{where} batch {batch_no}: {exc}") from exc
        yield batch, labels, probs


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
    ``embeddings`` array must be ``(num_tokens + 1, embed_dim)``.  Every
    parameter is filled in place from the checkpoint's array (cast if the
    stored precision differs), so an LSTM's per-gate views stay views of its
    fused weights, and no random initialisation is drawn.
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
        p.value[...] = arrays[p.name]
    embeddings = embeddings.astype(dtype, copy=False)
    embeddings.flags.writeable = False
    return model, embeddings, meta

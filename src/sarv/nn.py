"""Differentiable operations with hand-written backward passes.

Everything the model zoo needs: dense layers, sigmoid/relu, softmax with
fused cross-entropy, inverted dropout, an LSTM with backprop through
time, and a central-finite-difference gradient checker.  Layers cache
their forward inputs, accumulate parameter gradients on ``backward``,
and return the gradient with respect to their input.

Arrays are plain numpy ndarrays.  float32 is the training default;
gradient verification requires float64.
"""

from __future__ import annotations

import hashlib
import io
import os
import struct
from typing import Callable, NamedTuple, Sequence

import numpy as np

from sarv.errors import DataError, NumericsError, SarvError

EPS_LOG = 1e-12


class GradCheckError(SarvError):
    """A gradient check could not be evaluated (non-finite op output)."""


def require_finite(arr: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericsError(f"non-finite values in {what}")


class Parameter:
    """A named value array with a same-shaped gradient buffer."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = value
        self.grad = np.zeros_like(value)

    def zero_grad(self) -> None:
        self.grad[...] = 0

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.value.shape})"


def zero_grads(params: Sequence[Parameter]) -> None:
    for p in params:
        p.zero_grad()


def glorot_uniform(rng: np.random.Generator | None, shape: tuple[int, ...], dtype) -> np.ndarray:
    """Glorot-uniform weights; zeros when ``rng`` is None, for weights about to be loaded."""
    if rng is None:
        return np.zeros(shape, dtype)
    fan_in, fan_out = shape[0], shape[-1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Elementwise logistic function as ``(tanh(x/2) + 1) / 2``: no overflow, keeps the dtype."""
    return 0.5 * (np.tanh(0.5 * x) + 1.0)


class Dense:
    """Affine map ``x @ W + b`` with row-broadcast bias.

    With ``input_grad`` False, ``backward`` accumulates the parameter
    gradients only and returns None, for a first layer whose input is frozen.
    """

    def __init__(self, input_size: int, output_size: int, rng: np.random.Generator | None,
                 dtype=np.float32, name: str = "dense", input_grad: bool = True):
        self.name = name
        self.input_size = input_size
        self.input_grad = input_grad
        self.W = Parameter(f"{name}.W", glorot_uniform(rng, (input_size, output_size), dtype))
        self.b = Parameter(f"{name}.b", np.zeros(output_size, dtype=dtype))
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.input_size:
            raise ValueError(
                f"{self.name}: input shape {x.shape} does not match "
                f"weight shape {self.W.value.shape}"
            )
        self._x = x
        out = x @ self.W.value + self.b.value
        require_finite(out, self.name)
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray | None:
        self.W.grad += self._x.T @ dout
        self.b.grad += dout.sum(axis=0)
        return dout @ self.W.value.T if self.input_grad else None

    def params(self) -> list[Parameter]:
        return [self.W, self.b]


class Sigmoid:
    def forward(self, x: np.ndarray) -> np.ndarray:
        self._out = sigmoid(x)
        return self._out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        return dout * self._out * (1.0 - self._out)

    def params(self) -> list[Parameter]:
        return []


class Relu:
    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.maximum(x, 0)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        return dout * self._mask

    def params(self) -> list[Parameter]:
        return []


ACTIVATIONS = {"sigmoid": Sigmoid, "relu": Relu}


class Dropout:
    """Inverted dropout: scale survivors at train time, identity at eval."""

    def __init__(self, rate: float):
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._scale: np.ndarray | None = None

    def forward(self, x: np.ndarray, mode: str = "train",
                rng: np.random.Generator | None = None) -> np.ndarray:
        if mode not in ("train", "eval"):
            raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
        if mode == "eval" or self.rate == 0.0:
            self._scale = None
            return x
        if rng is None:
            raise ValueError("train-mode dropout needs an rng")
        keep = rng.random(x.shape) >= self.rate
        self._scale = keep.astype(x.dtype) / (1.0 - self.rate)
        return x * self._scale

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._scale is None:
            return dout
        return dout * self._scale

    def params(self) -> list[Parameter]:
        return []


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise max-shifted softmax; each row sums to 1."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)
    require_finite(out, "softmax")
    return out


def one_hot(labels: np.ndarray, num_classes: int, dtype=np.float64) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(f"labels out of range [0, {num_classes})")
    return np.eye(num_classes, dtype=dtype)[labels]


def _validate_one_hot(targets: np.ndarray) -> None:
    ok = np.all((targets == 0) | (targets == 1)) and np.all(targets.sum(axis=1) == 1)
    if not ok:
        raise ValueError("targets must be exact one-hot rows")


def cross_entropy(probs: np.ndarray, targets: np.ndarray) -> float:
    """Mean over the batch of ``-sum_c target * log(prob + eps)``."""
    if probs.shape != targets.shape:
        raise ValueError(f"probs shape {probs.shape} != targets shape {targets.shape}")
    _validate_one_hot(targets)
    batch = probs.shape[0]
    loss = float(-(targets * np.log(probs + EPS_LOG)).sum() / batch)
    if not np.isfinite(loss):
        raise NumericsError("non-finite cross-entropy loss")
    return loss


def softmax_xent_grad(probs: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Gradient of mean cross-entropy w.r.t. the pre-softmax logits."""
    return (probs - targets) / probs.shape[0]


class Lstm:
    """Single-layer LSTM reading out the hidden state at each row's last real step.

    Gates follow the standard recurrence: ``i, f, o`` sigmoid and
    candidate ``g`` tanh over the concatenated ``[x_t, h_{t-1}]``, with
    ``c_t = f*c_{t-1} + i*g`` and ``h_t = o*tanh(c_t)``.  Each gate keeps
    its own ``[input_size + hidden_size, hidden_size]`` weight parameter
    (the checkpoint layout); ``forward`` concatenates them into one fused
    weight with columns ``i, f, o, g``, so one ``sigmoid`` call covers
    the three sigmoid gates.  The input projection of every step is one
    matmul hoisted out of the time loop.

    Rows are packed: sorted by length (stably) once per batch, step ``t``
    updates only the leading rows whose length exceeds ``t``, and each
    row reads out its final state.  Padded steps are never computed, so
    padded content cannot influence the output or the gradients.

    A training forward (``cache=True``) keeps ``[x_t, h_{t-1}]``, the gate
    activations and ``c_t`` of every computed step for ``backward``:
    ``rows * (input_size + 6 * hidden_size)`` values, where ``rows`` is the
    number of computed steps summed over the batch.  An inference forward
    (``cache=False``) keeps the packed inputs and the hoisted input
    projection, ``rows * (input_size + 4 * hidden_size)`` values, plus one
    step's ``h`` and ``c``, and leaves nothing for ``backward``; it never
    needs more than a training forward of the same batch.  Both take their
    memory from one block that the layer keeps and only ever grows, and
    both give the same output bits.

    With ``input_grad`` False, ``backward`` returns None and builds no input
    gradient, for a layer whose input is frozen.  Each step still takes its
    recurrent gradient from the whole ``da @ W.T``: the product over only the
    recurrent rows of ``W`` is a differently shaped GEMM, which BLAS may round
    differently (it does at small row counts), and that would change the
    parameter gradients' bits.
    """

    GATES = ("i", "f", "g", "o")
    FUSED_ORDER = ("i", "f", "o", "g")
    FORGET_BIAS = 1.0  # initial forget-gate bias; every other bias starts at 0

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator | None,
                 dtype=np.float32, name: str = "lstm", input_grad: bool = True):
        self.name = name
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.input_grad = input_grad
        concat = input_size + hidden_size
        self.W = {
            g: Parameter(f"{name}.W_{g}", glorot_uniform(rng, (concat, hidden_size), dtype))
            for g in self.GATES
        }
        self.b = {
            g: Parameter(f"{name}.b_{g}", np.zeros(hidden_size, dtype=dtype))
            for g in self.GATES
        }
        self.b["f"].value += self.FORGET_BIAS
        self._W_fused = [self.W[g] for g in self.FUSED_ORDER]
        self._b_fused = [self.b[g] for g in self.FUSED_ORDER]
        self._cache: dict[str, np.ndarray] | None = None
        self._block: np.ndarray | None = None

    def forward(self, seq: np.ndarray, lengths: np.ndarray, cache: bool = True) -> np.ndarray:
        if seq.ndim != 3 or seq.shape[2] != self.input_size:
            raise ValueError(
                f"{self.name}: sequence shape {seq.shape} does not match "
                f"input size {self.input_size}"
            )
        batch, steps, _ = seq.shape
        lengths = np.asarray(lengths, dtype=np.int64)
        if lengths.shape != (batch,):
            raise ValueError(f"{self.name}: lengths shape {lengths.shape} != ({batch},)")
        if np.any(lengths < 1) or np.any(lengths > steps):
            raise ValueError(f"{self.name}: lengths must lie in [1, {steps}]")
        self._cache = None  # release the previous batch's cache before building this one

        n_in, H = self.input_size, self.hidden_size
        order = np.argsort(-lengths, kind="stable")
        # active[t] rows still run at step t: the leading rows in sorted order
        active = np.count_nonzero(lengths > np.arange(lengths.max(initial=0))[:, None], axis=1)
        offsets = np.concatenate([[0], np.cumsum(active)])
        W = np.concatenate([p.value for p in self._W_fused], axis=1)
        b = np.concatenate([p.value for p in self._b_fused])
        W_h = W[n_in:]
        dtype = np.result_type(seq.dtype, W.dtype)

        # Step t reads h_{t-1} from, and writes c_t to, the rows of h_store and
        # cell that start at start[t].  A training forward keeps every step's
        # rows, step-major, with h_{t-1} beside x_t in xh = [x_t, h_{t-1}]; an
        # inference forward overwrites one step-sized slot of each.
        rows = int(offsets[-1])
        if cache:
            start = offsets
            xh, gates, cell = self._carve(dtype, (rows, n_in + H), (rows, 4 * H), (rows, H))
            x, h_store = xh[:, :n_in], xh[:, n_in:]
        else:
            start = np.zeros_like(offsets)
            x, gates, h_store, cell = self._carve(
                dtype, (rows, n_in), (rows, 4 * H), (batch, H), (batch, H))
        for t, n in enumerate(active):
            x[offsets[t]:offsets[t + 1]] = seq[order[:n], t]
        if rows:
            h_store[: active[0]] = 0  # h_{-1}
        np.matmul(x, W[:n_in], out=gates)
        gates += b
        out = np.empty((batch, H), dtype=dtype)
        for t, n in enumerate(active):
            a = gates[offsets[t]:offsets[t + 1]]
            if t:
                a += h_store[start[t]:start[t] + n] @ W_h
            a[:, : 3 * H] = sigmoid(a[:, : 3 * H])
            np.tanh(a[:, 3 * H:], out=a[:, 3 * H:])
            i, f, o, g = a[:, :H], a[:, H:2 * H], a[:, 2 * H:3 * H], a[:, 3 * H:]
            if t:
                kept = f * cell[start[t - 1]:start[t - 1] + n]  # read before c_t can overwrite it
            c = np.multiply(i, g, out=cell[start[t]:start[t] + n])
            if t:
                c += kept
            h = o * np.tanh(c)
            n_next = active[t + 1] if t + 1 < len(active) else 0
            h_store[start[t + 1]:start[t + 1] + n_next] = h[:n_next]
            out[order[n_next:n]] = h[n_next:]
        if cache:
            self._cache = {"order": order, "active": active, "offsets": offsets, "W": W,
                           "xh": xh, "gates": gates, "cell": cell, "seq_shape": seq.shape}
        require_finite(out, self.name)
        return out

    def _carve(self, dtype, *shapes: tuple[int, int]) -> list[np.ndarray]:
        """Consecutive 2-d views of ``shapes`` at the start of the layer's block.

        The block is kept and reused while it is large enough: a training
        cache must outlive ``forward`` anyway, and reallocating it for every
        batch size fragments the heap.
        """
        need = sum(r * c for r, c in shapes)
        if self._block is None or self._block.dtype != dtype or self._block.size < need:
            self._block = None
            self._block = np.empty(need, dtype=dtype)
        views, at = [], 0
        for r, c in shapes:
            views.append(self._block[at:at + r * c].reshape(r, c))
            at += r * c
        return views

    def backward(self, dout: np.ndarray) -> np.ndarray | None:
        cache = self._cache
        if cache is None:
            raise RuntimeError(f"{self.name}: backward needs the state of a training forward, "
                               "and the last forward kept none")
        order, active, offsets, W = cache["order"], cache["active"], cache["offsets"], cache["W"]
        xh, gates, cell = cache["xh"], cache["gates"], cache["cell"]
        n_in, H = self.input_size, self.hidden_size
        dtype = dout.dtype
        dseq = np.zeros(cache["seq_shape"], dtype=dtype) if self.input_grad else None
        dW = np.zeros_like(W)
        db = np.zeros(4 * H, dtype=dtype)
        # Rows are sorted; a row's readout gradient enters at its last step,
        # and the recurrent gradients overwrite the leading rows step by step.
        dh = dout[order]
        dc = np.zeros_like(dh)
        dA = np.empty((len(order), 4 * H), dtype=dtype)
        for t in range(len(active) - 1, -1, -1):
            n = active[t]
            s, e = offsets[t], offsets[t + 1]
            a = gates[s:e]
            i, f, o, g = a[:, :H], a[:, H:2 * H], a[:, 2 * H:3 * H], a[:, 3 * H:]
            tc = np.tanh(cell[s:e])
            dh_t = dh[:n]
            dc_t = dc[:n] + dh_t * o * (1.0 - tc * tc)
            da = dA[:n]
            np.multiply(dc_t * g, i * (1.0 - i), out=da[:, :H])
            if t:
                np.multiply(dc_t * cell[offsets[t - 1]:offsets[t - 1] + n], f * (1.0 - f),
                            out=da[:, H:2 * H])
            else:
                da[:, H:2 * H] = 0
            np.multiply(dh_t * tc, o * (1.0 - o), out=da[:, 2 * H:3 * H])
            np.multiply(dc_t * i, 1.0 - g * g, out=da[:, 3 * H:])
            dc[:n] = dc_t * f
            dW += xh[s:e].T @ da
            db += da.sum(axis=0)
            dxh = da @ W.T
            if dseq is not None:
                dseq[order[:n], t] = dxh[:, :n_in]
            dh[:n] = dxh[:, n_in:]
        for p, grad in zip(self._W_fused, np.split(dW, 4, axis=1)):
            p.grad += grad
        for p, grad in zip(self._b_fused, np.split(db, 4)):
            p.grad += grad
        return dseq

    def params(self) -> list[Parameter]:
        return [self.W[g] for g in self.GATES] + [self.b[g] for g in self.GATES]


class OneHotDense:
    """Trained dense layer over one-hot integer ids (table lookup + bias).

    Used as the input projection of the character channel: each char id
    in ``[0, num_ids)`` selects a learned row.  Ids are not
    differentiable, so ``backward`` only accumulates parameter grads.
    """

    def __init__(self, num_ids: int, width: int, rng: np.random.Generator | None,
                 dtype=np.float32, name: str = "onehot"):
        self.name = name
        self.num_ids = num_ids
        self.W = Parameter(f"{name}.W", glorot_uniform(rng, (num_ids, width), dtype))
        self.b = Parameter(f"{name}.b", np.zeros(width, dtype=dtype))
        self._ids: np.ndarray | None = None

    def forward(self, ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(ids)
        if ids.size and (ids.min() < 0 or ids.max() >= self.num_ids):
            raise ValueError(f"{self.name}: ids out of range [0, {self.num_ids})")
        self._ids = ids
        out = self.W.value[ids] + self.b.value
        require_finite(out, self.name)
        return out

    def backward(self, dout: np.ndarray) -> None:
        np.add.at(self.W.grad, self._ids, dout)
        self.b.grad += dout.reshape(-1, dout.shape[-1]).sum(axis=0)
        return None

    def params(self) -> list[Parameter]:
        return [self.W, self.b]


LossFn = Callable[[list[np.ndarray], bool], tuple[float, list[np.ndarray] | None]]


def grad_check(
    fn: LossFn,
    arrays: list[np.ndarray],
    h: float = 1e-6,
    sample_per_array: int | None = None,
    seed: int = 0,
    floor: float = 1e-8,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``fn(arrays, want_grad)`` evaluates a scalar loss from the given
    arrays (which it must read fresh on every call) and, when asked,
    returns analytic gradients aligned with ``arrays``.  All arrays must
    be float64.  When ``sample_per_array`` is set, large arrays are
    checked on a deterministic random coordinate subset instead of
    exhaustively.  ``floor`` bounds the relative-error denominator from
    below, so coordinates whose gradient magnitude sits under it are in
    effect held to an absolute tolerance of ``tol * floor`` (central
    differences carry ~``eps/h`` roundoff regardless of the gradient's
    size).
    """
    for arr in arrays:
        if arr.dtype != np.float64:
            raise ValueError("grad_check requires float64 arrays")
    loss0, grads = fn(arrays, True)
    if not np.isfinite(loss0):
        raise GradCheckError("non-finite loss at the unperturbed point")
    rng = np.random.default_rng(seed)
    max_err = 0.0
    for k, arr in enumerate(arrays):
        n = arr.size
        if sample_per_array is not None and n > sample_per_array:
            coords = rng.choice(n, size=sample_per_array, replace=False)
        else:
            coords = np.arange(n)
        grad_flat = grads[k].reshape(-1)
        for idx in coords:
            multi = np.unravel_index(idx, arr.shape)
            orig = arr[multi]
            arr[multi] = orig + h
            lp, _ = fn(arrays, False)
            arr[multi] = orig - h
            lm, _ = fn(arrays, False)
            arr[multi] = orig
            if not (np.isfinite(lp) and np.isfinite(lm)):
                raise GradCheckError(f"non-finite loss at array {k}, coordinate {multi}")
            numeric = (lp - lm) / (2.0 * h)
            analytic = float(grad_flat[idx])
            err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), floor)
            max_err = max(max_err, err)
    return max_err


# ---------------------------------------------------------------------------
# Checkpoint format: versioned binary container + plain-text manifest.
#
#   magic   8 bytes  b"SARVCKP1"
#   u32     number of metadata entries
#   entry   u16 key length, key utf-8, u32 value length, value utf-8
#   u32     number of arrays
#   array   u16 name length, name utf-8
#           u8  dtype code (4 = little-endian float32, 8 = float64)
#           u8  ndim, then u32 per dimension
#           raw row-major little-endian values
#
# A model checkpoint (``sarv.models.save_model``) holds the parameters in
# pipeline order, then one array named ``embeddings``: the frozen
# ``(vocabulary + 1, embed_dim)`` word-vector matrix training used, at the
# model's precision, with row 0 the PAD/OOV zero row.  Its metadata
# records ``embeddings_sha256``, the sha256 of the embeddings file the
# matrix was built from.
#
# The side-car "<file>.manifest.txt" lists names/shapes/dtypes plus the
# sha256 of the binary file.
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"SARVCKP1"
_DTYPE_CODES = {4: np.dtype("<f4"), 8: np.dtype("<f8")}


class NamedArray(NamedTuple):
    """A checkpoint array that is not a trained ``Parameter``."""

    name: str
    value: np.ndarray


def save_checkpoint(path, arrays: Sequence[Parameter | NamedArray], meta: dict[str, str]) -> str:
    """Write arrays and metadata; returns the content hash.

    Each piece goes straight to the file and into the hash, so no copy of
    the whole checkpoint is built in memory.
    """
    digest = hashlib.sha256()
    with open(path, "wb") as fh:

        def emit(data) -> None:
            fh.write(data)
            digest.update(data)

        emit(CHECKPOINT_MAGIC)
        emit(struct.pack("<I", len(meta)))
        for key in sorted(meta):
            kb, vb = key.encode("utf-8"), str(meta[key]).encode("utf-8")
            emit(struct.pack("<H", len(kb)) + kb)
            emit(struct.pack("<I", len(vb)) + vb)
        emit(struct.pack("<I", len(arrays)))
        for p in arrays:
            nb = p.name.encode("utf-8")
            code = 8 if p.value.dtype == np.float64 else 4
            emit(struct.pack("<H", len(nb)) + nb)
            emit(struct.pack(f"<BB{p.value.ndim}I", code, p.value.ndim, *p.value.shape))
            values = np.ascontiguousarray(p.value, dtype=_DTYPE_CODES[code])
            emit(values.reshape(-1).view(np.uint8))
    hexdigest = digest.hexdigest()
    lines = [f"format {CHECKPOINT_MAGIC.decode()}"]
    lines += [f"meta {k}={meta[k]}" for k in sorted(meta)]
    lines += [
        f"param {p.name} shape={','.join(map(str, p.value.shape))} "
        f"dtype=float{64 if p.value.dtype == np.float64 else 32}"
        for p in arrays
    ]
    lines.append(f"sha256 {hexdigest}")
    with open(str(path) + ".manifest.txt", "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return hexdigest


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    """Read a checkpoint after checking its bytes against the side-car's sha256.

    Each array is read from the file straight into its own buffer, and every
    byte read also feeds the hash, so the file is never held whole.  A hash
    mismatch is reported before anything the parse found wrong, and a
    malformed body is a DataError.
    """
    try:
        with open(str(path) + ".manifest.txt", "r", encoding="utf-8") as fh:
            manifest = fh.read()
    except OSError as exc:
        raise DataError(f"checkpoint manifest missing for {path}: {exc}") from exc
    recorded = None
    for line in manifest.splitlines():
        if line.startswith("sha256 "):
            recorded = line.split(" ", 1)[1].strip()
    try:
        reader = HashingFileReader(open(path, "rb"))
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    with reader:
        try:
            parsed, error = _parse_checkpoint(path, reader), None
        except (DataError, struct.error, ValueError) as exc:  # ValueError: bad UTF-8, short data
            parsed, error = None, exc
        reader.read_rest()
    if recorded != reader.digest.hexdigest():
        raise DataError(f"checkpoint hash mismatch for {path}")
    if isinstance(error, DataError):
        raise error
    if error is not None:
        raise DataError(f"{path} is a malformed checkpoint: {error}") from error
    return parsed


# Bytes per read when hashing the rest of a file.  Reads below malloc's mmap
# threshold (128 KiB) hash as fast as 1 MiB reads, which raised `train`'s peak RSS.
HASH_READ_BYTES = 1 << 16


class HashingFileReader(io.RawIOBase):
    """An unbuffered binary file whose reads feed a sha256 and count down ``left``.

    Checkpoints, shards and embeddings files are read through it, so a file is
    hashed as it is parsed and never held whole.  No ``read`` asks for more than is left.
    """

    def __init__(self, fh):
        self._fh = fh
        self.left = os.fstat(fh.fileno()).st_size
        self.digest = hashlib.sha256()

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int | None:
        n = self._fh.readinto(buffer)
        if n:
            self.digest.update(memoryview(buffer)[:n])
            self.left -= n
        return n

    def read(self, size: int = -1) -> bytes:
        """Up to ``size`` bytes (the rest of the file if negative)."""
        return super().read(self.left if size < 0 else min(size, self.left))

    def close(self) -> None:
        self._fh.close()
        super().close()

    def read_array(self, shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
        """The next ``shape`` values of ``dtype``, read into a new array."""
        out = np.empty(shape, dtype)
        raw = out.reshape(-1).view(np.uint8)
        if raw.size > self.left:
            raise ValueError(f"array of {raw.size} bytes runs past the end ({self.left} left)")
        n = self.readinto(raw)
        if n < raw.size:
            raise ValueError(f"array data ends after {n} of {raw.size} bytes")
        return out

    def read_rest(self) -> None:
        """Read the rest of the file into the hash, ``HASH_READ_BYTES`` at a time."""
        buffer = bytearray(HASH_READ_BYTES)
        while self.readinto(buffer):
            pass


def _parse_checkpoint(path, reader: HashingFileReader) -> tuple[dict, dict]:
    if reader.read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
        raise DataError(f"{path} is not a checkpoint (bad magic)")

    def take(fmt):
        return struct.unpack(fmt, reader.read(struct.calcsize(fmt)))

    def take_str(len_fmt):
        (n,) = take(len_fmt)
        return reader.read(n).decode("utf-8")

    meta: dict[str, str] = {}
    (n_meta,) = take("<I")
    for _ in range(n_meta):
        key = take_str("<H")
        meta[key] = take_str("<I")
    arrays: dict[str, np.ndarray] = {}
    (n_params,) = take("<I")
    for _ in range(n_params):
        name = take_str("<H")
        code, ndim = take("<BB")
        if code not in _DTYPE_CODES:
            raise DataError(f"{path}: unknown dtype code {code} for {name}")
        shape = take(f"<{ndim}I")
        arrays[name] = reader.read_array(shape, _DTYPE_CODES[code])
    return arrays, meta

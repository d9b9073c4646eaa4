"""In-memory span tracer and the hooks that attach it to sarv's public functions.

A span is ``(name, parent, start, end)``; the parent is the innermost span
open on the same thread when the span started, or -1.  Spans stay in
flat arrays until :meth:`Tracer.dump` writes them out, so a traced
command pays a few appends per call and nothing else.  Counters (records,
bytes, useful steps) are recorded at the same boundaries.

:func:`install_hooks` wraps each hooked function in its defining module
and at every ``from sarv.x import f`` site, since a module that imported
the name holds its own reference.  A hook whose target no longer exists
is reported by name, and the command still runs untraced there.

The ratio helpers at the bottom (useful LSTM steps, unique tokens, OOV
slots) are plain functions over arrays so they can be checked against a
brute-force count.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from array import array
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        with self._lock:
            nid = self._name_ids.get(name)
            if nid is None:
                nid = self._name_ids[name] = len(self.names)
                self.names.append(name)
            sid = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(float("nan"))
            self.start.append(time.perf_counter())
        stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack().pop()

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] += value

    def high_water(self, name: str, value: float) -> None:
        with self._lock:
            self.maxima[name] = max(self.maxima.get(name, value), value)

    def wrap(self, name, fn, after=None):
        """``fn`` inside a span; ``name`` may be a callable of the call's args.

        ``after(result, *args, **kwargs)`` runs once the span is closed and
        records counters without charging their cost to the span.
        """
        def traced(*args, **kwargs):
            sid = self.open(name(*args, **kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def dump(self, path, missing: list[str]) -> None:
        """Write spans, counters and missing hooks; a span still open ends now."""
        meta = {"names": self.names, "counters": dict(self.counters),
                "maxima": self.maxima, "missing": missing}
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        end[np.isnan(end)] = time.perf_counter()
        np.savez(
            path,
            name=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=end,
            meta=np.array(json.dumps(meta)),
        )


def load_spans(path) -> dict:
    with np.load(path, allow_pickle=False) as z:
        out = {k: z[k] for k in ("name", "parent", "start", "end")}
        out.update(json.loads(str(z["meta"])))
    return out


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - covered


def summarize(spans: dict) -> dict[str, dict]:
    """Per span name: calls, total seconds, self seconds and the durations."""
    dur = spans["end"] - spans["start"]
    selfs = self_times(spans["parent"], spans["start"], spans["end"])
    out = {}
    for nid, name in enumerate(spans["names"]):
        mask = spans["name"] == nid
        out[name] = {
            "calls": int(mask.sum()),
            "s": float(dur[mask].sum()),
            "self_s": float(selfs[mask].sum()),
            "durations": dur[mask],
        }
    return out


# ---------------------------------------------------------------------------
# Hooks
# ---------------------------------------------------------------------------


def useful_step_counts(lengths: np.ndarray, steps: int) -> tuple[int, int]:
    """(steps inside each row's length, steps the recurrence runs)."""
    lengths = np.asarray(lengths)
    return int(lengths.sum()), int(lengths.size * steps)


def char_step_counts(char_ids: np.ndarray) -> tuple[int, int]:
    """(real characters, char-LSTM steps run) for ``[slots, max_chars]`` ids.

    A token's real length runs to its last nonzero id, as sarv's char
    channel reads it; PAD slots have none.
    """
    nz = char_ids != 0
    cap = char_ids.shape[-1]
    lengths = np.where(nz.any(axis=-1), cap - np.argmax(nz[..., ::-1], axis=-1), 0)
    return int(lengths.sum()), int(char_ids.size)


def unique_token_count(char_ids: np.ndarray) -> tuple[int, int]:
    """(distinct non-PAD tokens, slots) in one batch of ``[slots, max_chars]`` ids."""
    real = char_ids[(char_ids != 0).any(axis=1)]
    unique = np.unique(real, axis=0).shape[0] if len(real) else 0
    return int(unique), int(char_ids.shape[0])


def oov_slot_counts(token_ids: np.ndarray, lengths: np.ndarray,
                    emb_matrix: np.ndarray) -> tuple[int, int]:
    """(real slots whose embedding row is all zero, real slots)."""
    real = np.arange(token_ids.shape[1])[None, :] < np.asarray(lengths)[:, None]
    zero_row = ~emb_matrix.any(axis=1)
    return int((zero_row[token_ids] & real).sum()), int(real.sum())


def _resolve(module, path: str):
    """(owner, attribute name, raw attribute) for ``Class.attr`` or ``func``."""
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def _patch(tracer: Tracer, modname: str, path: str, name, after=None) -> None:
    module = importlib.import_module(modname)
    owner, attr, raw = _resolve(module, path)
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(tracer.wrap(name, raw.__func__, after)))
        return
    wrapped = tracer.wrap(name, raw, after)
    setattr(owner, attr, wrapped)
    if isinstance(owner, type):
        return
    for mod in list(sys.modules.values()):  # every ``from sarv.x import f`` site
        if getattr(mod, "__name__", "").startswith("sarv") and mod.__dict__.get(attr) is raw:
            setattr(mod, attr, wrapped)


def _hooks(tracer: Tracer):
    """(module, attribute path, span name or namer, counter hook) for each hook."""
    count = tracer.count

    def shard_bytes(manifest, *a, **k):
        count("train.write_shards.bytes",
              sum((manifest.base_dir / s.path).stat().st_size for s in manifest.shards))

    def embed_lines(table, *a, **k):
        count("embed.load_embeddings.lines", table.loaded_lines)

    def lstm_name(suffix):
        return lambda self, *a, **k: f"nn.{self.name}.{suffix}"

    def lstm_counts(result, self, seq, lengths, *a, **k):
        real, total = useful_step_counts(lengths, seq.shape[1])
        count(f"nn.{self.name}.real_steps", real)
        count(f"nn.{self.name}.run_steps", total)

    def char_counts(result, self, ids, *a, **k):
        ids = np.asarray(ids)
        real, total = char_step_counts(ids)
        count("nn.char_lstm.real_chars", real)
        count("nn.char_lstm.char_steps", total)
        unique, slots = unique_token_count(ids)
        count("nn.char_lstm.unique_tokens", unique)
        count("nn.char_lstm.slots", slots)

    def oov_counts(batch, records, emb_matrix, *a, **k):
        token_ids = np.array([r.token_ids for r in records], dtype=np.int64)
        lengths = np.array([r.true_length for r in records], dtype=np.int64)
        oov, real = oov_slot_counts(token_ids, lengths, emb_matrix)
        count("embed.oov_slots", oov)
        count("embed.real_slots", real)

    def forward_name(self, records, emb_matrix, mode="eval", *a, **k):
        return f"models.forward_{mode}"

    def forward_records(result, self, records, emb_matrix, mode="eval", *a, **k):
        count(f"models.forward_{mode}.records", len(records))

    return [
        ("sarv.textproc", "normalize", "textproc.normalize", None),
        ("sarv.corpus", "read_corpus", "corpus.read_corpus", None),
        ("sarv.corpus", "encode_sentence", "corpus.encode_sentence", None),
        ("sarv.corpus", "EncodedSentence.to_json_line", "corpus.to_json_line", None),
        ("sarv.corpus", "EncodedSentence.from_json_line", "corpus.from_json_line", None),
        ("sarv.embed", "build_token_vocab", "embed.build_vocab", None),
        ("sarv.embed", "build_char_vocab", "embed.build_vocab", None),
        ("sarv.embed", "load_embeddings", "embed.load_embeddings", embed_lines),
        ("sarv.embed", "embedding_matrix", "embed.embedding_matrix", None),
        ("sarv.nn", "sigmoid", "nn.sigmoid", None),
        ("sarv.nn", "Lstm.forward", lstm_name("forward"), lstm_counts),
        ("sarv.nn", "Lstm.backward", lstm_name("backward"), None),
        ("sarv.nn", "OneHotDense.forward", "nn.onehot_dense.forward", char_counts),
        ("sarv.nn", "OneHotDense.backward", "nn.onehot_dense.backward", None),
        ("sarv.nn", "Dense.forward", "nn.dense.forward", None),
        ("sarv.nn", "Dense.backward", "nn.dense.backward", None),
        ("sarv.nn", "Dropout.forward", "nn.dropout.forward", None),
        ("sarv.nn", "softmax", "nn.softmax_xent", None),
        ("sarv.nn", "cross_entropy", "nn.softmax_xent", None),
        ("sarv.nn", "softmax_xent_grad", "nn.softmax_xent", None),
        ("sarv.models", "assemble_batch", "models.assemble_batch", oov_counts),
        ("sarv.models", "Model.forward", forward_name, forward_records),
        ("sarv.models", "Model.backward", "models.backward", None),
        ("sarv.models", "load_model", "models.load_model", None),
        ("sarv.models", "save_model", "models.save_model", None),
        ("sarv.train", "write_shards", "train.write_shards", shard_bytes),
        ("sarv.train", "train_loop", "train.train_loop", None),
        ("sarv.train", "adam_step", "train.optimizer_step", None),
        ("sarv.train", "sgd_step", "train.optimizer_step", None),
        ("sarv.metrics", "confusion", "metrics.confusion", None),
        ("sarv.metrics", "metrics", "metrics.metrics", None),
    ]


def _hook_shard_reader(tracer: Tracer) -> None:
    """Time the consumer's ``next()`` on every ``ShardReader`` pass."""
    from sarv.train import ShardReader

    orig = ShardReader.__dict__["__iter__"]

    def traced_iter(self):
        tracer.count("train.shard_reader.passes")
        it = orig(self)
        try:
            while True:
                sid = tracer.open("train.shard_reader.wait")
                try:
                    rec = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.close(sid)
                tracer.count("train.shard_reader.records")
                yield rec
        finally:
            it.close()
            tracer.high_water("train.shard_reader.max_resident", self.max_resident)

    ShardReader.__iter__ = traced_iter


def install_hooks(tracer: Tracer) -> list[str]:
    """Attach every hook; return the ``module:attribute`` of each one missing."""
    missing = []
    for modname, path, name, after in _hooks(tracer):
        try:
            _patch(tracer, modname, path, name, after)
        except (ImportError, AttributeError, KeyError):
            missing.append(f"{modname}:{path}")
    try:
        _hook_shard_reader(tracer)
    except (ImportError, KeyError):
        missing.append("sarv.train:ShardReader.__iter__")
    return missing

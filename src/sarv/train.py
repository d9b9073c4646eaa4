"""Disk shards, optimizers, LR schedules, rebalancing, and the train loop.

Encoded records are stored as fixed-size ``.npy`` shards, each one
structured record array (:func:`sarv.corpus.record_dtype`) with its
sha256 in a manifest; the loader reads and checks one shard at a time,
so only one shard is ever resident.  Every pass over the records
(train, frozen train-accuracy, eval) is :class:`ShardReader` ->
:func:`sarv.corpus.batches` -> model, and a batch is a slice of a shard
array; the scoring passes go through :func:`sarv.models.scored_batches`.
The choices :class:`TrainConfig` checks (``OPTIMIZERS``, ``SCHEDULES``,
``PRECISIONS``) live in :mod:`sarv.models`, so ``sarv predict`` can
build its flags without importing this module.
Training is single-writer over the model parameters and fully
deterministic under a fixed seed.
"""

from __future__ import annotations

import io
import json
import math
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from sarv import textproc
from sarv.corpus import ENCODER_HASH_KEYS, EncodedCorpus, LabelScheme, batches, record_dtype
from sarv.errors import ConfigError, DataError, NumericsError
from sarv.metrics import ConfusionMatrix, confusion, metrics
from sarv.models import (EMBEDDINGS_HASH_KEY, OPTIMIZERS, PRECISIONS, SCHEDULES, Model,
                         ModelSpec, build_model, save_model, scored_batches)
from sarv.nn import (HashingFileReader, Parameter, cross_entropy, one_hot, read_checked,
                     replaced_on_success, softmax_xent_grad, zero_grads)
from sarv.textproc import MAX_LEN


@dataclass(frozen=True)
class TrainConfig:
    """Training settings; each field is the ``sarv.cli.RunConfig`` field of the same name."""

    optimizer: str = "adam"
    lr: float = 0.001
    lr_schedule: str = "constant"
    plateau_factor: float = 0.9
    plateau_patience: int = 27
    exp_step_unit: str = "epoch"
    batch_size: int = 512
    epochs: int = 1
    seed: int = 0
    precision: str = "single"
    stop_at_train_accuracy: float | None = None

    def __post_init__(self) -> None:
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")
        if self.lr_schedule not in SCHEDULES:
            raise ConfigError(f"lr_schedule must be one of {SCHEDULES}, got {self.lr_schedule!r}")
        if self.precision not in PRECISIONS:
            raise ConfigError(f"precision must be one of {PRECISIONS}, got {self.precision!r}")
        if self.exp_step_unit not in ("epoch", "batch"):
            raise ConfigError(f"exp_step_unit must be 'epoch' or 'batch', got {self.exp_step_unit!r}")
        if not (self.lr > 0 and math.isfinite(self.lr)):
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if not 0.0 < self.plateau_factor < 1.0:
            raise ConfigError(f"plateau_factor must be in (0, 1), got {self.plateau_factor}")
        if self.plateau_patience < 1:
            raise ConfigError(f"plateau_patience must be >= 1, got {self.plateau_patience}")
        stop = self.stop_at_train_accuracy
        if stop is not None and not 0.0 <= stop <= 1.0:
            raise ConfigError(f"stop_at_train_accuracy must be in [0, 1], got {stop}")

    @property
    def dtype(self):
        return np.float64 if self.precision == "double" else np.float32


def split_indices(n: int, fraction: float = 0.8, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """A deterministic shuffled split of ``n`` positions; train gets ``floor(fraction * n)``."""
    if not 0.0 < fraction < 1.0:
        raise ConfigError(f"split fraction must be in (0, 1), got {fraction}")
    if n == 0:
        raise DataError("cannot split an empty corpus")
    perm = np.random.default_rng(seed).permutation(n)
    n_train = int(math.floor(fraction * n))
    return perm[:n_train], perm[n_train:]


# ---------------------------------------------------------------------------
# Shards
# ---------------------------------------------------------------------------


MANIFEST_VERSION = 2


@dataclass(frozen=True)
class ShardInfo:
    path: str  # relative to the manifest's directory
    count: int
    sha256: str


def _typed(obj: dict, key: str, kind: type):
    """``obj[key]``, which must have exactly type ``kind`` (a bool is not an int here)."""
    if type(obj[key]) is not kind:
        raise TypeError(f"{key} is {obj[key]!r}, not {kind.__name__}")
    return obj[key]


@dataclass
class ShardManifest:
    shards: list[ShardInfo]
    total: int
    shard_size: int
    class_histogram: dict[int, int]
    max_word_chars: int
    max_len: int = MAX_LEN
    encoder_hashes: dict[str, str] = field(default_factory=dict)
    split_seed: int | None = None
    base_dir: Path | None = None  # set on load; not serialized

    @property
    def dtype(self) -> np.dtype:
        """The record layout every shard of this manifest holds."""
        return record_dtype(self.max_len, self.max_word_chars)

    def validate(self) -> None:
        if sum(s.count for s in self.shards) != self.total:
            raise DataError("manifest shard counts do not sum to total")
        for s in self.shards[:-1]:
            if s.count != self.shard_size:
                raise DataError(f"non-final shard {s.path} holds {s.count} != {self.shard_size}")

    def save(self, path) -> None:
        text = json.dumps(
            {
                "version": MANIFEST_VERSION,
                "total": self.total,
                "shard_size": self.shard_size,
                "max_len": self.max_len,
                "max_word_chars": self.max_word_chars,
                "class_histogram": {str(k): v for k, v in sorted(self.class_histogram.items())},
                **self.encoder_hashes,
                "split_seed": self.split_seed,
                "shards": [
                    {"path": s.path, "count": s.count, "sha256": s.sha256} for s in self.shards
                ],
            },
            indent=2,
            sort_keys=True,
        )
        Path(path).write_text(text + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path) -> "ShardManifest":
        """Read and check a manifest; anything unreadable or malformed is a DataError."""
        path = Path(path)
        try:
            obj = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:  # ValueError: bad JSON or UTF-8
            raise DataError(f"cannot read manifest {path}: {exc}") from exc
        version = obj.get("version") if isinstance(obj, dict) else None
        if version != MANIFEST_VERSION:
            raise DataError(
                f"manifest {path} is format version {version}, not {MANIFEST_VERSION}; "
                "re-run `sarv shard` to rewrite the shard directory"
            )
        try:
            manifest = cls(
                shards=[ShardInfo(_typed(s, "path", str), _typed(s, "count", int),
                                  _typed(s, "sha256", str)) for s in obj["shards"]],
                total=_typed(obj, "total", int),
                shard_size=_typed(obj, "shard_size", int),
                class_histogram={int(k): _typed(obj["class_histogram"], k, int)
                                 for k in obj["class_histogram"]},
                max_word_chars=_typed(obj, "max_word_chars", int),
                max_len=_typed(obj, "max_len", int),
                encoder_hashes={k: _typed(obj, k, str) for k in ENCODER_HASH_KEYS if k in obj},
                split_seed=obj.get("split_seed"),
                base_dir=path.parent,
            )
        except KeyError as exc:
            raise DataError(f"malformed manifest {path}: missing key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise DataError(f"malformed manifest {path}: {exc}") from exc
        manifest.validate()
        return manifest


def write_shards(
    records: np.ndarray | EncodedCorpus,
    shard_size: int,
    out_dir,
    name: str = "data",
    encoder_hashes: dict[str, str] | None = None,
    split_seed: int | None = None,
    rows: np.ndarray | None = None,
) -> ShardManifest:
    """Save records as ``shard_size``-row ``.npy`` record arrays plus a manifest.

    ``records`` is a record array or an :class:`sarv.corpus.EncodedCorpus`,
    whose records are built only here.  With ``rows``, the records at those
    positions are written, in that order, as if ``records[rows]`` had been
    passed.  Each shard file holds the bytes ``np.save`` writes.  It is
    gathered (``np.take``, which calls an encoding's own ``take``), written
    and hashed ``TOKENIZE_CHUNK`` records at a time into one reused buffer,
    so writing holds no more than that many records beyond the input.  Each
    shard is written through :func:`sarv.nn.replaced_on_success`, so a write
    that fails leaves no partial shard; the manifest is written after the last.
    """
    if shard_size < 1:
        raise ConfigError(f"shard_size must be >= 1, got {shard_size}")
    if rows is None:
        rows = np.arange(len(records))
    elif len(rows) and not -len(records) <= rows.min() <= rows.max() < len(records):
        raise IndexError(f"rows must lie in [{-len(records)}, {len(records)})")
    buffer = np.empty(min(len(rows), textproc.TOKENIZE_CHUNK), records.dtype)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    shards: list[ShardInfo] = []
    histogram: Counter[int] = Counter()
    for start in range(0, len(rows), shard_size):
        shard_rows = rows[start:start + shard_size]
        header = io.BytesIO()
        np.lib.format.write_array_header_1_0(header, {
            "descr": np.lib.format.dtype_to_descr(records.dtype), "fortran_order": False,
            "shape": (len(shard_rows),)})
        rel = f"{name}-{len(shards):05d}.npy"
        with replaced_on_success(out_dir / rel) as fh:
            fh.write(header.getvalue())
            for at in range(0, len(shard_rows), textproc.TOKENIZE_CHUNK):
                idx = shard_rows[at:at + textproc.TOKENIZE_CHUNK]
                # "wrap" gathers straight into the buffer, where the default "raise"
                # gathers into a temporary first; the rows were checked above.
                chunk = np.take(records, idx, out=buffer[:len(idx)], mode="wrap")
                fh.write(chunk.view(np.uint8))  # the gathered rows' own bytes
                histogram.update(chunk["y"].tolist())
        shards.append(ShardInfo(rel, len(shard_rows), fh.digest.hexdigest()))
    max_len, max_word_chars = records.dtype["c"].shape
    manifest = ShardManifest(
        shards=shards,
        total=len(rows),
        shard_size=shard_size,
        class_histogram=dict(sorted(histogram.items())),
        max_word_chars=max_word_chars,
        max_len=max_len,
        encoder_hashes=dict(encoder_hashes or {}),
        split_seed=split_seed,
        base_dir=out_dir,
    )
    manifest.save(out_dir / f"{name}.manifest.json")
    return manifest


def _read_shard(manifest: ShardManifest, info: ShardInfo) -> np.ndarray:
    """A shard's records, read through :func:`read_checked` straight into their array.

    The ``.npy`` header's layout is checked against the manifest before the
    array is allocated, so a pickled shard is refused without being loaded.
    """
    path = (manifest.base_dir or Path(".")) / info.path
    records, _ = read_checked(path, f"shard {path}",
                              lambda reader: _parse_shard(path, reader, (info.count,),
                                                          manifest.dtype), info.sha256)
    return records


def _parse_shard(path, reader: HashingFileReader, shape: tuple[int], dtype: np.dtype) -> np.ndarray:
    version = np.lib.format.read_magic(reader)
    if version != (1, 0):  # the only version write_shards writes
        raise ValueError(f"unsupported .npy format version {version}")
    found_shape, _, found_dtype = np.lib.format.read_array_header_1_0(reader)
    if found_dtype.hasobject:
        raise ValueError("it holds Python objects, which are never unpickled")
    if (found_shape, found_dtype) != (shape, dtype):  # fortran_order is moot in 1-D
        raise DataError(f"shard {path} does not hold the {shape[0]} records of "
                        f"{dtype} its manifest lists")
    return reader.read_array(shape, dtype)


class ShardReader:
    """Sequential stream of a manifest's shards, one record array each.

    One shard is read and checked at a time, and dropped before the next
    is read, so a pass holds at most one shard in memory.
    ``max_resident`` records the high-water mark for instrumentation.
    """

    def __init__(self, manifest: ShardManifest):
        self.manifest = manifest
        self.max_resident = 0

    def __iter__(self) -> Iterator[np.ndarray]:
        for info in self.manifest.shards:
            records = _read_shard(self.manifest, info)
            self.max_resident = 1
            yield records
            del records


# ---------------------------------------------------------------------------
# Optimizers and schedules
# ---------------------------------------------------------------------------


def _check_grads(params: Sequence[Parameter]) -> None:
    for p in params:
        if not np.all(np.isfinite(p.grad)):
            raise NumericsError(f"non-finite gradient in parameter {p.name}")


def sgd_step(params: Sequence[Parameter], lr: float) -> None:
    """Plain gradient descent: ``p <- p - lr * g``."""
    _check_grads(params)
    for p in params:
        p.value -= np.multiply(p.grad, lr)


class AdamState:
    def __init__(self):
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}


def adam_step(
    params: Sequence[Parameter],
    lr: float,
    state: AdamState,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """Adam with bias correction, computed in place.

    Per parameter: ``m += (1 - beta1) * (g - m)``, ``v += (1 - beta2) *
    (g * g - v)`` and ``p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)``,
    each operation rounded as that expression rounds it.
    """
    _check_grads(params)
    state.t += 1
    bc1 = 1.0 - beta1 ** state.t
    bc2 = 1.0 - beta2 ** state.t
    for p in params:
        if p.name not in state.m:
            state.m[p.name], state.v[p.name] = np.zeros_like(p.value), np.zeros_like(p.value)
        g, m, v = p.grad, state.m[p.name], state.v[p.name]
        step, denom = np.empty_like(p.value), np.empty_like(p.value)
        np.subtract(g, m, out=step)
        step *= 1.0 - beta1
        m += step
        np.multiply(g, g, out=step)
        step -= v
        step *= 1.0 - beta2
        v += step
        np.divide(m, bc1, out=step)
        step *= lr
        np.divide(v, bc2, out=denom)
        np.sqrt(denom, out=denom)
        denom += eps
        step /= denom
        p.value -= step
        del step, denom  # before the next parameter's are made


def lr_exp_decay(
    step: int | float,
    floor: float = 0.0001,
    amplitude: float = 0.003,
    time_const: float = 2000.0,
) -> float:
    """Exponential decay from ``floor + amplitude`` down to ``floor``."""
    if step < 0:
        raise ValueError(f"step must be >= 0, got {step}")
    return floor + amplitude * math.exp(-step / time_const)


class PlateauScheduler:
    """Multiply lr by ``factor`` after ``patience`` epochs without improvement.

    The staleness counter resets on every improvement and after every
    decay.
    """

    def __init__(self, base_lr: float, factor: float = 0.9, patience: int = 27):
        if not 0.0 < factor < 1.0:
            raise ConfigError(f"plateau factor must be in (0, 1), got {factor}")
        if patience < 1:
            raise ConfigError(f"patience must be >= 1, got {patience}")
        self.lr = base_lr
        self.factor = factor
        self.patience = patience
        self.best = -math.inf
        self.stale = 0

    def update(self, eval_accuracy: float) -> float:
        """Record one epoch's eval accuracy; returns the lr for the next epoch."""
        if eval_accuracy > self.best:
            self.best = eval_accuracy
            self.stale = 0
        else:
            self.stale += 1
        if self.stale >= self.patience:
            self.lr *= self.factor
            self.stale = 0
        return self.lr


def undersample_indices(labels: Sequence[int] | np.ndarray, seed: int = 0,
                        num_classes: int | None = None) -> np.ndarray:
    """Positions keeping the minority count of each class, drawn without replacement, shuffled."""
    if len(labels) == 0:
        raise DataError("cannot undersample an empty dataset")
    labels = np.asarray(labels)
    groups = {int(c): np.flatnonzero(labels == c) for c in np.unique(labels)}
    if num_classes is not None:
        missing = [c for c in range(num_classes) if c not in groups]
        if missing:
            raise DataError(f"classes with zero records: {missing}")
    rng = np.random.default_rng(seed)
    minority = min(len(v) for v in groups.values())
    kept = np.concatenate([idx[rng.permutation(len(idx))[:minority]]
                           for idx in groups.values()])  # in label order
    return kept[rng.permutation(len(kept))]


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    train_accuracy: float
    eval_accuracy: float
    macro_f1: float
    lr: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), separators=(",", ":"))


@dataclass
class TrainReport:
    epochs: list[EpochStats] = field(default_factory=list)
    best_epoch: int | None = None
    best_checkpoint_hash: str = ""
    final_checkpoint_hash: str = ""
    wall_time_s: float = 0.0  # informational; excluded from persisted artifacts

    def to_jsonl(self) -> str:
        return "".join(row.to_json() + "\n" for row in self.epochs)

    def to_text(self) -> str:
        lines = [
            f"{'epoch':>5} {'loss':>12} {'train_acc':>10} {'eval_acc':>10} "
            f"{'macro_f1':>10} {'lr':>12}"
        ]
        for r in self.epochs:
            lines.append(
                f"{r.epoch:>5} {r.train_loss:>12.6f} {r.train_accuracy:>10.6f} "
                f"{r.eval_accuracy:>10.6f} {r.macro_f1:>10.6f} {r.lr:>12.8f}"
            )
        lines.append(f"best_epoch {self.best_epoch}")
        lines.append(f"best_checkpoint {self.best_checkpoint_hash}")
        lines.append(f"final_checkpoint {self.final_checkpoint_hash}")
        return "\n".join(lines) + "\n"


def _eval_confusion(
    model: Model, manifest: ShardManifest, emb_matrix: np.ndarray, batch_size: int,
    where: str = "eval",
) -> ConfusionMatrix:
    num_classes = model.spec.num_classes
    names = LabelScheme.for_num_classes(num_classes).classes
    cm: ConfusionMatrix | None = None
    for batch, preds, _ in scored_batches(model, ShardReader(manifest), emb_matrix, batch_size,
                                          where):
        part = confusion(preds, batch["y"], num_classes=num_classes, class_names=names)
        cm = part if cm is None else cm.merged(part)
    if cm is None:
        raise DataError("evaluation manifest holds no records")
    return cm


def train_loop(
    model_spec: ModelSpec,
    cfg: TrainConfig,
    train_manifest: ShardManifest,
    emb_matrix: np.ndarray,
    out_dir,
    eval_manifest: ShardManifest | None = None,
    embeddings_sha256: str = "",
) -> tuple[TrainReport, Model]:
    """Run the full optimization loop and persist checkpoints + report.

    Per epoch: stream train shards into batches, forward/backward/step
    under the scheduled lr, then score the train split (frozen pass) and
    the eval split.  The best-by-eval-accuracy checkpoint and the final
    checkpoint are both written; each stores ``emb_matrix`` and records
    ``embeddings_sha256``, the hash of the file it was built from.  With
    no eval manifest the train split doubles as the eval split, and its
    frozen pass is scored only once.
    """
    t0 = time.perf_counter()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    init_ss, dropout_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    model = build_model(model_spec, np.random.default_rng(init_ss), dtype=cfg.dtype)
    dropout_rng = np.random.default_rng(dropout_ss)
    params = model.params()
    emb_matrix = emb_matrix.astype(cfg.dtype, copy=False)
    adam = AdamState()
    plateau = PlateauScheduler(cfg.lr, cfg.plateau_factor, cfg.plateau_patience)
    meta = {"seed": str(cfg.seed), EMBEDDINGS_HASH_KEY: embeddings_sha256,
            **train_manifest.encoder_hashes}

    report = TrainReport()
    best_acc = -math.inf
    global_step = 0
    for epoch in range(cfg.epochs):
        if cfg.lr_schedule == "constant":
            lr = cfg.lr
        elif cfg.lr_schedule == "exp":
            lr = lr_exp_decay(epoch if cfg.exp_step_unit == "epoch" else global_step)
        else:
            lr = plateau.lr
        loss_sum = 0.0
        n_batches = 0
        for batch_no, batch in enumerate(batches(ShardReader(train_manifest), cfg.batch_size)):
            if cfg.lr_schedule == "exp" and cfg.exp_step_unit == "batch":
                lr = lr_exp_decay(global_step)
            try:
                zero_grads(params)
                probs = model.forward(batch, emb_matrix, mode="train", rng=dropout_rng)
                targets = one_hot(batch["y"], model_spec.num_classes, cfg.dtype)
                loss = cross_entropy(probs, targets)
                model.backward(softmax_xent_grad(probs, targets))
                if cfg.optimizer == "sgd":
                    sgd_step(params, lr)
                else:
                    adam_step(params, lr, adam)
            except NumericsError as exc:
                raise NumericsError(f"epoch {epoch} batch {batch_no}: {exc}") from exc
            loss_sum += loss
            n_batches += 1
            global_step += 1

        train_report = metrics(_eval_confusion(model, train_manifest, emb_matrix, cfg.batch_size,
                                               f"epoch {epoch} train-accuracy pass"))
        train_acc = train_report.accuracy
        eval_report = train_report if eval_manifest is None else metrics(
            _eval_confusion(model, eval_manifest, emb_matrix, cfg.batch_size,
                            f"epoch {epoch} eval pass")
        )
        report.epochs.append(
            EpochStats(
                epoch=epoch,
                train_loss=loss_sum / max(n_batches, 1),
                train_accuracy=train_acc,
                eval_accuracy=eval_report.accuracy,
                macro_f1=eval_report.macro_f1,
                lr=lr,
            )
        )
        if eval_report.accuracy > best_acc:
            best_acc = eval_report.accuracy
            report.best_epoch = epoch
            report.best_checkpoint_hash = save_model(
                model, out_dir / "checkpoint_best.bin", emb_matrix, meta
            )
        if cfg.lr_schedule == "plateau":
            plateau.update(eval_report.accuracy)
        if (
            cfg.stop_at_train_accuracy is not None
            and train_acc >= cfg.stop_at_train_accuracy
        ):
            break

    report.final_checkpoint_hash = save_model(
        model, out_dir / "checkpoint_final.bin", emb_matrix, meta
    )
    if report.best_epoch is None:  # no epoch ran: the best checkpoint is the final one
        report.best_checkpoint_hash = save_model(
            model, out_dir / "checkpoint_best.bin", emb_matrix, meta
        )
    (out_dir / "report.jsonl").write_text(report.to_jsonl(), encoding="utf-8")
    (out_dir / "report.txt").write_text(report.to_text(), encoding="utf-8")
    report.wall_time_s = time.perf_counter() - t0
    return report, model

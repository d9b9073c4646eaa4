"""Optimizers, LR schedules, rebalancing, disk shards, and the train loop.

Encoded records are stored in fixed-size JSONL shards with per-file
content hashes; the loader reads and checks one shard at a time, so
only one shard is ever resident.  Every pass over the records (train,
frozen train-accuracy, eval) is ``load_shards`` -> ``batches`` -> model.
Training is single-writer over the model parameters and fully
deterministic under a fixed seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from sarv.corpus import ENCODER_HASH_KEYS, EncodedSentence, LabelScheme
from sarv.errors import ConfigError, DataError, NumericsError
from sarv.metrics import ConfusionMatrix, confusion, metrics
from sarv.models import Model, ModelSpec, build_model, save_model
from sarv.nn import Parameter, cross_entropy, one_hot, softmax_xent_grad, zero_grads

OPTIMIZERS = ("sgd", "adam")
SCHEDULES = ("constant", "exp", "plateau")
PRECISIONS = ("single", "double")


@dataclass(frozen=True)
class TrainConfig:
    optimizer: str = "adam"
    base_lr: float = 0.001
    lr_schedule: str = "constant"
    plateau_factor: float = 0.9
    plateau_patience: int = 27
    plateau_start_epoch: int = 0
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
        if self.base_lr <= 0:
            raise ConfigError(f"base_lr must be > 0, got {self.base_lr}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if not 0.0 < self.plateau_factor < 1.0:
            raise ConfigError(f"plateau_factor must be in (0, 1), got {self.plateau_factor}")

    @property
    def dtype(self):
        return np.float64 if self.precision == "double" else np.float32


def split_train_test(
    records: Sequence, fraction: float = 0.8, seed: int = 0
) -> tuple[list, list]:
    """Deterministic shuffled split; train gets ``floor(fraction * N)``."""
    if not 0.0 < fraction < 1.0:
        raise ConfigError(f"split fraction must be in (0, 1), got {fraction}")
    if len(records) == 0:
        raise DataError("cannot split an empty corpus")
    perm = np.random.default_rng(seed).permutation(len(records))
    n_train = int(math.floor(fraction * len(records)))
    train = [records[i] for i in perm[:n_train]]
    test = [records[i] for i in perm[n_train:]]
    return train, test


# ---------------------------------------------------------------------------
# Shards
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShardInfo:
    path: str  # relative to the manifest's directory
    count: int
    sha256: str


@dataclass
class ShardManifest:
    shards: list[ShardInfo]
    total: int
    shard_size: int
    class_histogram: dict[int, int]
    max_word_chars: int
    encoder_hashes: dict[str, str] = field(default_factory=dict)
    split_seed: int | None = None
    base_dir: Path | None = None  # set on load; not serialized

    def validate(self) -> None:
        if sum(s.count for s in self.shards) != self.total:
            raise DataError("manifest shard counts do not sum to total")
        for s in self.shards[:-1]:
            if s.count != self.shard_size:
                raise DataError(f"non-final shard {s.path} holds {s.count} != {self.shard_size}")

    def to_json(self) -> str:
        return json.dumps(
            {
                "version": 1,
                "total": self.total,
                "shard_size": self.shard_size,
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

    def save(self, path) -> None:
        Path(path).write_text(self.to_json() + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path) -> "ShardManifest":
        path = Path(path)
        try:
            obj = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise DataError(f"cannot read manifest {path}: {exc}") from exc
        manifest = cls(
            shards=[ShardInfo(s["path"], s["count"], s["sha256"]) for s in obj["shards"]],
            total=obj["total"],
            shard_size=obj["shard_size"],
            class_histogram={int(k): v for k, v in obj["class_histogram"].items()},
            max_word_chars=obj["max_word_chars"],
            encoder_hashes={k: obj[k] for k in ENCODER_HASH_KEYS if k in obj},
            split_seed=obj.get("split_seed"),
            base_dir=path.parent,
        )
        manifest.validate()
        return manifest


def write_shards(
    records: Iterable[EncodedSentence],
    shard_size: int,
    out_dir,
    name: str = "data",
    max_word_chars: int = 20,
    encoder_hashes: dict[str, str] | None = None,
    split_seed: int | None = None,
) -> ShardManifest:
    """Chunk records into ``shard_size`` JSONL files plus a manifest."""
    if shard_size < 1:
        raise ConfigError(f"shard_size must be >= 1, got {shard_size}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    shards: list[ShardInfo] = []
    histogram: dict[int, int] = {}
    total = 0
    chunk: list[str] = []

    def flush() -> None:
        if not chunk:
            return
        rel = f"{name}-{len(shards):05d}.jsonl"
        blob = ("\n".join(chunk) + "\n").encode("utf-8")
        (out_dir / rel).write_bytes(blob)
        shards.append(ShardInfo(rel, len(chunk), hashlib.sha256(blob).hexdigest()))
        chunk.clear()

    for rec in records:
        chunk.append(rec.to_json_line())
        histogram[rec.label] = histogram.get(rec.label, 0) + 1
        total += 1
        if len(chunk) == shard_size:
            flush()
    flush()
    manifest = ShardManifest(
        shards=shards,
        total=total,
        shard_size=shard_size,
        class_histogram=histogram,
        max_word_chars=max_word_chars,
        encoder_hashes=dict(encoder_hashes or {}),
        split_seed=split_seed,
        base_dir=out_dir,
    )
    manifest.save(out_dir / f"{name}.manifest.json")
    return manifest


def _read_shard(manifest: ShardManifest, info: ShardInfo) -> list[EncodedSentence]:
    path = (manifest.base_dir or Path(".")) / info.path
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise DataError(f"missing shard {path}: {exc}") from exc
    if hashlib.sha256(blob).hexdigest() != info.sha256:
        raise DataError(f"corrupt shard (hash mismatch): {path}")
    lines = blob.decode("utf-8").splitlines()
    if len(lines) != info.count:
        raise DataError(f"shard {path} holds {len(lines)} records, manifest says {info.count}")
    return [EncodedSentence.from_json_line(ln, manifest.max_word_chars) for ln in lines]


class ShardReader:
    """Sequential record stream over a manifest's shards.

    One shard is read and checked at a time, and dropped before the next
    is read, so a pass holds at most one shard in memory.
    ``max_resident`` records the high-water mark for instrumentation.
    """

    def __init__(self, manifest: ShardManifest):
        self.manifest = manifest
        self.max_resident = 0

    def __iter__(self) -> Iterator[EncodedSentence]:
        for info in self.manifest.shards:
            records = _read_shard(self.manifest, info)
            self.max_resident = 1
            yield from records
            del records


def load_shards(manifest: ShardManifest) -> ShardReader:
    return ShardReader(manifest)


def batches(records: Iterable, size: int) -> Iterator[list]:
    buf: list = []
    for rec in records:
        buf.append(rec)
        if len(buf) == size:
            yield buf
            buf = []
    if buf:
        yield buf


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
        p.value -= lr * p.grad


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
    """Adam with bias correction."""
    _check_grads(params)
    state.t += 1
    bc1 = 1.0 - beta1 ** state.t
    bc2 = 1.0 - beta2 ** state.t
    for p in params:
        g = p.grad
        m = state.m.setdefault(p.name, np.zeros_like(p.value))
        v = state.v.setdefault(p.name, np.zeros_like(p.value))
        m += (1.0 - beta1) * (g - m)
        v += (1.0 - beta2) * (g * g - v)
        p.value -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


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
    decay.  ``start_epoch`` optionally delays decay eligibility (the
    alternative reading of "after N epochs").
    """

    def __init__(self, base_lr: float, factor: float = 0.9, patience: int = 27,
                 start_epoch: int = 0):
        if not 0.0 < factor < 1.0:
            raise ConfigError(f"plateau factor must be in (0, 1), got {factor}")
        if patience < 1:
            raise ConfigError(f"patience must be >= 1, got {patience}")
        self.lr = base_lr
        self.factor = factor
        self.patience = patience
        self.start_epoch = start_epoch
        self.best = -math.inf
        self.stale = 0
        self._epoch = -1

    def update(self, eval_accuracy: float) -> float:
        """Record one epoch's eval accuracy; returns the lr for the next epoch."""
        self._epoch += 1
        if eval_accuracy > self.best:
            self.best = eval_accuracy
            self.stale = 0
        else:
            self.stale += 1
        if self.stale >= self.patience and self._epoch >= self.start_epoch:
            self.lr *= self.factor
            self.stale = 0
        return self.lr


def random_undersample(records: Sequence, seed: int = 0,
                       num_classes: int | None = None) -> list:
    """Down-sample every class to the minority count, without replacement."""
    if len(records) == 0:
        raise DataError("cannot undersample an empty dataset")
    groups: dict[int, list[int]] = {}
    for i, rec in enumerate(records):
        groups.setdefault(rec.label, []).append(i)
    if num_classes is not None:
        missing = [c for c in range(num_classes) if c not in groups]
        if missing:
            raise DataError(f"classes with zero records: {missing}")
    rng = np.random.default_rng(seed)
    minority = min(len(v) for v in groups.values())
    kept: list[int] = []
    for label in sorted(groups):
        idx = np.array(groups[label])
        kept.extend(idx[rng.permutation(len(idx))[:minority]])
    order = rng.permutation(len(kept))
    return [records[kept[i]] for i in order]


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
        return json.dumps(
            {
                "epoch": self.epoch,
                "train_loss": self.train_loss,
                "train_accuracy": self.train_accuracy,
                "eval_accuracy": self.eval_accuracy,
                "macro_f1": self.macro_f1,
                "lr": self.lr,
            },
            separators=(",", ":"),
        )


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
    model: Model, manifest: ShardManifest, emb_matrix: np.ndarray, batch_size: int
) -> ConfusionMatrix:
    num_classes = model.spec.num_classes
    names = LabelScheme.for_num_classes(num_classes).classes
    cm: ConfusionMatrix | None = None
    for chunk in batches(load_shards(manifest), batch_size):
        preds, _ = model.predict(chunk, emb_matrix)
        truth = [r.label for r in chunk]
        part = confusion(preds, truth, num_classes=num_classes, class_names=names)
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
) -> tuple[TrainReport, Model]:
    """Run the full optimization loop and persist checkpoints + report.

    Per epoch: stream train shards into batches, forward/backward/step
    under the scheduled lr, then score the train split (frozen pass) and
    the eval split.  The best-by-eval-accuracy checkpoint and the final
    checkpoint are both written.  With no eval manifest the train split
    doubles as the eval split, and its frozen pass is scored only once.
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
    plateau = PlateauScheduler(
        cfg.base_lr, cfg.plateau_factor, cfg.plateau_patience, cfg.plateau_start_epoch
    )
    meta = {"seed": str(cfg.seed), **train_manifest.encoder_hashes}

    report = TrainReport()
    best_acc = -math.inf
    global_step = 0
    for epoch in range(cfg.epochs):
        if cfg.lr_schedule == "constant":
            lr = cfg.base_lr
        elif cfg.lr_schedule == "exp":
            lr = lr_exp_decay(epoch if cfg.exp_step_unit == "epoch" else global_step)
        else:
            lr = plateau.lr
        loss_sum = 0.0
        n_batches = 0
        for batch_no, chunk in enumerate(batches(load_shards(train_manifest), cfg.batch_size)):
            if cfg.lr_schedule == "exp" and cfg.exp_step_unit == "batch":
                lr = lr_exp_decay(global_step)
            try:
                zero_grads(params)
                probs = model.forward(chunk, emb_matrix, mode="train", rng=dropout_rng)
                targets = one_hot([r.label for r in chunk], model_spec.num_classes, cfg.dtype)
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

        train_report = metrics(_eval_confusion(model, train_manifest, emb_matrix, cfg.batch_size))
        train_acc = train_report.accuracy
        eval_report = train_report if eval_manifest is None else metrics(
            _eval_confusion(model, eval_manifest, emb_matrix, cfg.batch_size)
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
                model, out_dir / "checkpoint_best.bin", meta
            )
        if cfg.lr_schedule == "plateau":
            plateau.update(eval_report.accuracy)
        if (
            cfg.stop_at_train_accuracy is not None
            and train_acc >= cfg.stop_at_train_accuracy
        ):
            break

    report.final_checkpoint_hash = save_model(model, out_dir / "checkpoint_final.bin", meta)
    if report.best_epoch is None:
        report.best_checkpoint_hash = report.final_checkpoint_hash
    (out_dir / "report.jsonl").write_text(report.to_jsonl(), encoding="utf-8")
    (out_dir / "report.txt").write_text(report.to_text(), encoding="utf-8")
    report.wall_time_s = time.perf_counter() - t0
    return report, model

"""Command-line entry point wiring the pipeline end to end.

One binary with subcommands: ``preprocess`` (normalize/tokenize/encode
plus a length histogram), ``shard`` (split + write train/test shards),
``train``, ``eval``, ``predict`` (raw text through the full pipeline),
and ``stats`` (per-category label counts).  Configuration comes from an
INI file plus overriding flags; the fully resolved config is written
next to every run's outputs.  Exit codes: 0 success, 1 usage or config
error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from sarv.corpus import Encoder, LabelScheme, RawRecord, preprocess_records, read_corpus
from sarv.embed import build_char_vocab, build_token_vocab, embedding_matrix, load_embeddings
from sarv.errors import ConfigError, DataError, NumericsError, SarvError
from sarv.metrics import category_stats, metrics
from sarv.models import CHAR_PRESETS, PRESETS, ModelSpec, load_model
from sarv.textproc import MAX_LEN, NormConfig, length_histogram, load_stopwords
from sarv.train import (
    ShardManifest,
    TrainConfig,
    _eval_confusion,
    random_undersample,
    split_train_test,
    train_loop,
    write_shards,
)

SEED_ENV_VAR = "SARV_SEED"

# Training hyperparameters each preset starts from; a config file or
# flag overrides any of them.
PRESET_TRAIN_DEFAULTS: dict[str, dict] = {
    "W2V_SOFTMAX": {"optimizer": "sgd", "lr": 0.003, "lr_schedule": "constant"},
    "W2V_MLP_SIGMOID": {"optimizer": "adam", "lr": 0.001, "lr_schedule": "plateau"},
    "W2V_MLP_RELU_LRDECAY": {"optimizer": "adam", "lr": 0.001, "lr_schedule": "exp"},
    "W2V_MLP_RELU_LRDECAY_DROPOUT": {
        "optimizer": "adam", "lr": 0.001, "lr_schedule": "exp", "dropout": 0.25,
    },
    "W2V_LSTM": {"optimizer": "adam", "lr": 0.001, "lr_schedule": "plateau"},
    "CHAR_W2V_LSTM_RUS": {
        "optimizer": "adam", "lr": 0.001, "lr_schedule": "plateau", "rus": True,
    },
    "CHAR_W2V_LSTM": {"optimizer": "adam", "lr": 0.001, "lr_schedule": "plateau"},
}


@dataclass
class RunConfig:
    """Union of pipeline settings; round-trips losslessly through INI."""

    seed: int = 0
    preset: str = "W2V_SOFTMAX"
    classes: int = 2
    precision: str = "single"

    corpus: str = ""
    embeddings: str = ""
    stopwords: str = ""
    shard_dir: str = ""
    checkpoint: str = ""
    manifest: str = ""
    input_path: str = ""
    out_dir: str = ""

    fmt: str = ""
    text_col: str = "text"
    label_col: str = "label"
    category_col: str = "category"
    max_bad_rows: int = 100

    split: float = 0.8
    shard_size: int = 200000
    rus: bool = False

    optimizer: str = "adam"
    lr: float = 0.001
    lr_schedule: str = "constant"
    epochs: int = 1
    batch_size: int = 512
    dropout: float = 0.0
    plateau_factor: float = 0.9
    plateau_patience: int = 27
    exp_step_unit: str = "epoch"
    stop_at_train_accuracy: float | None = None


# (section, field) pairs define both the INI layout and its canonical
# emission order.
_INI_SCHEMA: tuple[tuple[str, str], ...] = (
    ("run", "seed"),
    ("run", "preset"),
    ("run", "classes"),
    ("run", "precision"),
    ("paths", "corpus"),
    ("paths", "embeddings"),
    ("paths", "stopwords"),
    ("paths", "shard_dir"),
    ("paths", "checkpoint"),
    ("paths", "manifest"),
    ("paths", "input_path"),
    ("paths", "out_dir"),
    ("preprocess", "fmt"),
    ("preprocess", "text_col"),
    ("preprocess", "label_col"),
    ("preprocess", "category_col"),
    ("preprocess", "max_bad_rows"),
    ("shard", "split"),
    ("shard", "shard_size"),
    ("shard", "rus"),
    ("train", "optimizer"),
    ("train", "lr"),
    ("train", "lr_schedule"),
    ("train", "epochs"),
    ("train", "batch_size"),
    ("train", "dropout"),
    ("train", "plateau_factor"),
    ("train", "plateau_patience"),
    ("train", "exp_step_unit"),
    ("train", "stop_at_train_accuracy"),
)

_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_value(name: str, raw: str):
    raw = raw.strip()
    ftype = _FIELD_TYPES[name]
    try:
        if ftype == "int":
            return int(raw)
        if ftype == "float":
            return float(raw)
        if ftype == "bool":
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no", ""):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if ftype == "float | None":
            return float(raw) if raw else None
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad config value {name} = {raw!r}: {exc}") from exc


def config_to_ini(cfg: RunConfig) -> str:
    """Canonical INI text; emitting, parsing, and re-emitting is a fixed point."""
    lines: list[str] = []
    current = None
    for section, name in _INI_SCHEMA:
        if section != current:
            if current is not None:
                lines.append("")
            lines.append(f"[{section}]")
            current = section
        lines.append(f"{name} = {_format_value(getattr(cfg, name))}")
    return "\n".join(lines) + "\n"


def config_from_ini(path) -> dict:
    """Read an INI file into {field: value}, validating names strictly."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    known = {(s, n) for s, n in _INI_SCHEMA}
    values: dict = {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            if (section, key) not in known:
                raise ConfigError(f"unknown config entry [{section}] {key}")
            values[key] = _parse_value(key, raw)
    return values


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults < preset defaults < config file < env seed < flags."""
    flag_values = {
        name: getattr(args, name)
        for _, name in _INI_SCHEMA
        if getattr(args, name, None) is not None
    }
    file_values = config_from_ini(args.config) if getattr(args, "config", None) else {}
    merged = {f.name: getattr(RunConfig(), f.name) for f in fields(RunConfig)}
    preset = flag_values.get("preset", file_values.get("preset", merged["preset"]))
    if preset not in PRESETS:
        raise ConfigError(f"unknown preset {preset!r}; choose from {PRESETS}")
    merged.update(PRESET_TRAIN_DEFAULTS[preset])
    merged["preset"] = preset
    merged.update(file_values)
    if "seed" not in flag_values and "seed" not in file_values:
        env_seed = os.environ.get(SEED_ENV_VAR)
        if env_seed is not None:
            try:
                merged["seed"] = int(env_seed)
            except ValueError as exc:
                raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {env_seed!r}") from exc
    merged.update(flag_values)
    return RunConfig(**merged)


def _require(cfg: RunConfig, *names: str) -> None:
    for name in names:
        if not getattr(cfg, name):
            flag = "--" + name.replace("_", "-").replace("-path", "")
            raise ConfigError(f"{name} is required (pass {flag} or set it in the config file)")


def _write_outputs(cfg: RunConfig, files: dict[str, str]) -> None:
    """Write each named text file, then ``resolved.ini``, into ``out_dir`` if one is set."""
    if not cfg.out_dir:
        return
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in {**files, "resolved.ini": config_to_ini(cfg)}.items():
        (out / name).write_text(text, encoding="utf-8")


def _col(value: str) -> str | int:
    stripped = value.strip()
    return int(stripped) if stripped.lstrip("-").isdigit() else stripped


def _read_raw(cfg: RunConfig):
    return read_corpus(
        cfg.corpus,
        fmt=cfg.fmt or None,
        text_col=_col(cfg.text_col),
        label_col=_col(cfg.label_col),
        category_col=_col(cfg.category_col) if cfg.category_col else None,
        max_bad_rows=cfg.max_bad_rows,
    )


def _encode_corpus(cfg: RunConfig):
    """Corpus file -> (encoded records, encoder, histogram, skipped)."""
    if cfg.stopwords:
        try:
            norm = NormConfig(stopwords=load_stopwords(cfg.stopwords))
        except (OSError, UnicodeDecodeError) as exc:
            raise DataError(f"cannot read stopwords {cfg.stopwords}: {exc}") from exc
    else:
        norm = NormConfig.default()
    raw, skipped = _read_raw(cfg)
    triples = preprocess_records(raw, norm, MAX_LEN)
    seqs = [seq for seq, _, _ in triples]
    encoder = Encoder(norm, build_token_vocab(seqs), build_char_vocab(seqs))
    scheme = LabelScheme.for_num_classes(cfg.classes)
    encoded = [encoder.encode(fixed, scheme.label_index(rec.label)) for _, fixed, rec in triples]
    return encoded, encoder, length_histogram(seqs), skipped


def _report_skipped(skipped) -> None:
    for row in skipped:
        print(f"warning: skipped line {row.line_no}: {row.reason}", file=sys.stderr)


def _histogram_text(hist) -> str:
    lines = [f"{n}\t{c}" for n, c in hist.counts.items()]
    lines.append(f"#total\t{hist.total}")
    return "\n".join(lines) + "\n"


def cmd_preprocess(cfg: RunConfig) -> int:
    _require(cfg, "corpus", "out_dir")
    encoded, encoder, hist, skipped = _encode_corpus(cfg)
    _report_skipped(skipped)
    encoder.save(cfg.out_dir)
    _write_outputs(cfg, {
        "encoded.jsonl": "".join(rec.to_json_line() + "\n" for rec in encoded),
        "histogram.txt": _histogram_text(hist),
    })
    if not encoded:
        print("warning: empty corpus, wrote 0 records", file=sys.stderr)
    print(f"records {len(encoded)}")
    print(f"fraction with <= {MAX_LEN} tokens: {hist.cumulative_fraction(MAX_LEN):.4f}")
    return 0


def cmd_shard(cfg: RunConfig) -> int:
    _require(cfg, "corpus", "out_dir")
    encoded, encoder, _, skipped = _encode_corpus(cfg)
    _report_skipped(skipped)
    train, test = split_train_test(encoded, cfg.split, cfg.seed)
    if cfg.rus:
        train = random_undersample(train, seed=cfg.seed, num_classes=cfg.classes)
    encoder.save(cfg.out_dir)
    for name, records in (("train", train), ("test", test)):
        manifest = write_shards(
            records,
            cfg.shard_size,
            cfg.out_dir,
            name=name,
            max_word_chars=encoder.char_vocab.max_word_chars,
            split_seed=cfg.seed,
            encoder_hashes=encoder.hashes(),
        )
        print(f"{name}: {manifest.total} records in {len(manifest.shards)} shard(s)")
    _write_outputs(cfg, {})
    return 0


def _checked_manifest(path: Path, encoder: Encoder) -> ShardManifest:
    manifest = ShardManifest.load(path)
    encoder.check(manifest.encoder_hashes, f"manifest {path}")
    return manifest


def _embedding_matrix_for(cfg: RunConfig, token_vocab, dtype):
    table = load_embeddings(cfg.embeddings)
    if table.skipped_lines:
        print(f"warning: skipped {table.skipped_lines} malformed embedding line(s)",
              file=sys.stderr)
    return embedding_matrix(table, token_vocab, dtype=dtype)


def _load_checkpoint(cfg: RunConfig, encoder: Encoder):
    """Checkpoint -> (model, embedding matrix at the checkpoint's precision).

    The checkpoint must have been trained on ``encoder``'s shard directory.
    """
    model, meta = load_model(cfg.checkpoint)
    encoder.check(meta, f"checkpoint {cfg.checkpoint}")
    dtype = np.float64 if meta.get("precision") == "double" else np.float32
    return model, _embedding_matrix_for(cfg, encoder.token_vocab, dtype)


def cmd_train(cfg: RunConfig) -> int:
    _require(cfg, "embeddings", "out_dir")
    shard_dir = Path(cfg.shard_dir or cfg.out_dir)
    encoder = Encoder.load(shard_dir)
    train_manifest = _checked_manifest(shard_dir / "train.manifest.json", encoder)
    test_path = shard_dir / "test.manifest.json"
    eval_manifest = _checked_manifest(test_path, encoder) if test_path.exists() else None

    train_cfg = TrainConfig(
        optimizer=cfg.optimizer,
        base_lr=cfg.lr,
        lr_schedule=cfg.lr_schedule,
        plateau_factor=cfg.plateau_factor,
        plateau_patience=cfg.plateau_patience,
        exp_step_unit=cfg.exp_step_unit,
        batch_size=cfg.batch_size,
        epochs=cfg.epochs,
        seed=cfg.seed,
        precision=cfg.precision,
        stop_at_train_accuracy=cfg.stop_at_train_accuracy,
    )
    spec = ModelSpec(
        preset=cfg.preset,
        num_classes=cfg.classes,
        dropout_rate=cfg.dropout,
        max_word_chars=train_manifest.max_word_chars,
        char_vocab_size=len(encoder.char_vocab) if cfg.preset in CHAR_PRESETS else 0,
    )
    emb = _embedding_matrix_for(cfg, encoder.token_vocab, train_cfg.dtype)
    report, _ = train_loop(spec, train_cfg, train_manifest, emb, cfg.out_dir, eval_manifest)
    _write_outputs(cfg, {})
    sys.stdout.write(report.to_text())
    print(f"wall_time_s {report.wall_time_s:.3f}")
    return 0


def cmd_eval(cfg: RunConfig) -> int:
    _require(cfg, "checkpoint", "embeddings")
    shard_dir = Path(cfg.shard_dir or cfg.out_dir or ".")
    encoder = Encoder.load(shard_dir)
    manifest_path = Path(cfg.manifest) if cfg.manifest else shard_dir / "test.manifest.json"
    manifest = _checked_manifest(manifest_path, encoder)
    model, emb = _load_checkpoint(cfg, encoder)
    report = metrics(_eval_confusion(model, manifest, emb, cfg.batch_size))
    sys.stdout.write(report.to_text())
    _write_outputs(cfg, {"metrics.txt": report.to_text(), "metrics.json": report.to_json() + "\n"})
    return 0


def cmd_predict(cfg: RunConfig) -> int:
    _require(cfg, "checkpoint", "embeddings", "shard_dir")
    encoder = Encoder.load(cfg.shard_dir)
    model, emb = _load_checkpoint(cfg, encoder)
    scheme = LabelScheme.for_num_classes(model.spec.num_classes)
    if cfg.input_path:
        try:
            lines = Path(cfg.input_path).read_text("utf-8").splitlines()
        except OSError as exc:
            raise DataError(f"cannot read input {cfg.input_path}: {exc}") from exc
    else:
        lines = sys.stdin.read().splitlines()
    lines = [ln for ln in lines if ln.strip()]
    text = ""
    if lines:
        raw = [RawRecord(text=ln, label="") for ln in lines]
        encoded = [
            encoder.encode(fixed, label=0)
            for _, fixed, _ in preprocess_records(raw, encoder.norm, MAX_LEN)
        ]
        labels, probs = model.predict(encoded, emb)
        text = "".join(
            "\t".join([scheme.classes[y]] + [f"{p:.6f}" for p in row]) + "\n"
            for y, row in zip(labels, probs)
        )
    sys.stdout.write(text)
    _write_outputs(cfg, {"predictions.tsv": text})
    return 0


def cmd_stats(cfg: RunConfig) -> int:
    _require(cfg, "corpus")
    raw, skipped = _read_raw(cfg)
    _report_skipped(skipped)
    stats = category_stats(raw, LabelScheme.for_num_classes(cfg.classes))
    sys.stdout.write(stats.to_text())
    _write_outputs(cfg, {"stats.tsv": stats.to_text()})
    return 0


_COMMANDS = {
    "preprocess": cmd_preprocess,
    "shard": cmd_shard,
    "train": cmd_train,
    "eval": cmd_eval,
    "predict": cmd_predict,
    "stats": cmd_stats,
}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this toolkit reserves 2 for data."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_flags(p: _Parser, *names: str) -> None:
    specs = {
        "corpus": (["--corpus"], {"help": "corpus file (csv/tsv/jsonl)"}),
        "embeddings": (["--embeddings"], {"help": "GloVe-format word vector file"}),
        "stopwords": (["--stopwords"], {"help": "stopword file, one per line"}),
        "preset": (["--preset"], {"choices": PRESETS, "help": "model preset"}),
        "classes": (["--classes"], {"type": int, "choices": (2, 3)}),
        "epochs": (["--epochs"], {"type": int}),
        "batch_size": (["--batch-size"], {"type": int}),
        "lr": (["--lr"], {"type": float, "help": "base learning rate"}),
        "lr_schedule": (["--lr-schedule"], {"choices": ("constant", "exp", "plateau")}),
        "dropout": (["--dropout"], {"type": float}),
        "shard_size": (["--shard-size"], {"type": int}),
        "split": (["--split"], {"type": float, "help": "train fraction (default 0.8)"}),
        "seed": (["--seed"], {"type": int, "help": f"rng seed (falls back to ${SEED_ENV_VAR})"}),
        "rus": (["--rus"], {"action": "store_true", "default": None,
                            "help": "random-undersample the train split"}),
        "precision": (["--precision"], {"choices": ("single", "double")}),
        "out_dir": (["--out-dir"], {"help": "output directory"}),
        "shard_dir": (["--shard-dir"], {"help": "directory holding shards + vocabs"}),
        "checkpoint": (["--checkpoint"], {"help": "model checkpoint file"}),
        "manifest": (["--manifest"], {"help": "shard manifest to evaluate"}),
        "input_path": (["--input"], {"dest": "input_path", "help": "text file, one record per line"}),
        "fmt": (["--format"], {"dest": "fmt", "choices": ("csv", "tsv", "jsonl")}),
        "text_col": (["--text-col"], {}),
        "label_col": (["--label-col"], {}),
        "category_col": (["--category-col"], {}),
        "max_bad_rows": (["--max-bad-rows"], {"type": int}),
        "optimizer": (["--optimizer"], {"choices": ("sgd", "adam")}),
        "exp_step_unit": (["--exp-step-unit"], {"choices": ("epoch", "batch")}),
        "plateau_factor": (["--plateau-factor"], {"type": float}),
        "plateau_patience": (["--plateau-patience"], {"type": int}),
        "stop_at_train_accuracy": (["--stop-at-train-accuracy"], {"type": float}),
    }
    p.add_argument("--config", help="INI config file; flags override its values")
    for name in names:
        flags, kwargs = specs[name]
        p.add_argument(*flags, **kwargs)


_CORPUS_FLAGS = ("corpus", "fmt", "text_col", "label_col", "category_col", "max_bad_rows")


def build_parser() -> _Parser:
    parser = _Parser(prog="sarv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("preprocess", help="normalize, tokenize, and encode a corpus")
    _add_flags(p, *_CORPUS_FLAGS, "stopwords", "classes", "out_dir", "seed")

    p = sub.add_parser("shard", help="split a corpus and write train/test shards")
    _add_flags(p, *_CORPUS_FLAGS, "stopwords", "classes", "split", "shard_size",
               "rus", "seed", "out_dir", "preset")

    p = sub.add_parser("train", help="train a preset on prepared shards")
    _add_flags(p, "embeddings", "shard_dir", "out_dir", "preset", "classes", "epochs",
               "batch_size", "lr", "lr_schedule", "dropout", "optimizer", "seed",
               "precision", "exp_step_unit", "plateau_factor", "plateau_patience",
               "stop_at_train_accuracy")

    p = sub.add_parser("eval", help="score a checkpoint against a shard manifest")
    _add_flags(p, "checkpoint", "manifest", "shard_dir", "embeddings", "batch_size",
               "out_dir", "seed")

    p = sub.add_parser("predict", help="classify raw text lines")
    _add_flags(p, "checkpoint", "shard_dir", "embeddings", "input_path", "out_dir", "seed")

    p = sub.add_parser("stats", help="per-category label counts for a corpus")
    _add_flags(p, *_CORPUS_FLAGS, "classes", "out_dir", "seed")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = resolve_config(args)
        return _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"sarv: config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"sarv: data error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"sarv: numeric failure: {exc}", file=sys.stderr)
        return 3
    except SarvError as exc:  # base-class fallback
        print(f"sarv: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

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
from dataclasses import dataclass, field, fields
from itertools import groupby
from pathlib import Path

from sarv.corpus import (CorpusReader, Encoder, LabelScheme, check_hashes, encode_corpus,
                         split_lines, to_json_lines)
from sarv.embed import embedding_matrix, embeddings_sha256, load_embeddings
from sarv.errors import ConfigError, DataError, NumericsError, SarvError
from sarv.metrics import category_stats, metrics
from sarv.models import CHAR_PRESETS, EMBEDDINGS_HASH_KEY, PRESETS, ModelSpec, load_model
from sarv.textproc import MAX_LEN, TOKENIZE_CHUNK, NormConfig, load_stopwords, tokenize_many
from sarv.train import (
    OPTIMIZERS,
    PRECISIONS,
    SCHEDULES,
    ShardManifest,
    TrainConfig,
    _eval_confusion,
    scored_batches,
    split_indices,
    train_loop,
    undersample_indices,
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


# Field annotation -> parser of a flag or INI value; str fields keep the raw
# string and bool fields are switches.
_ARG_TYPES = {"int": int, "float": float, "float | None": float}


def _opt(section: str, flag: str, default, *, train_field: str = "", **argparse_kwargs):
    """A ``RunConfig`` field with its INI section, its flag and the flag's argparse keywords.

    ``train_field`` names the ``TrainConfig`` field it feeds when the names differ.
    """
    metadata = {"section": section, "flag": flag, "argparse": argparse_kwargs}
    if train_field:
        metadata["train_field"] = train_field
    return field(default=default, metadata=metadata)


@dataclass
class RunConfig:
    """Union of pipeline settings; round-trips losslessly through INI.

    Each field is declared once: its metadata gives its INI section and its
    flag, and field order is the INI emission order.
    """

    seed: int = _opt("run", "--seed", 0, help=f"rng seed (falls back to ${SEED_ENV_VAR})")
    preset: str = _opt("run", "--preset", "W2V_SOFTMAX", choices=PRESETS, help="model preset")
    classes: int = _opt("run", "--classes", 2, choices=(2, 3))
    precision: str = _opt("run", "--precision", "single", choices=PRECISIONS)

    corpus: str = _opt("paths", "--corpus", "", help="corpus file (csv/tsv/jsonl)")
    embeddings: str = _opt("paths", "--embeddings", "", help="GloVe-format word vector file")
    stopwords: str = _opt("paths", "--stopwords", "", help="stopword file, one per line")
    shard_dir: str = _opt("paths", "--shard-dir", "", help="directory holding shards + vocabs")
    checkpoint: str = _opt("paths", "--checkpoint", "", help="model checkpoint file")
    manifest: str = _opt("paths", "--manifest", "", help="shard manifest to evaluate")
    input_path: str = _opt("paths", "--input", "", help="text file, one record per line")
    out_dir: str = _opt("paths", "--out-dir", "", help="output directory")

    fmt: str = _opt("preprocess", "--format", "", choices=("csv", "tsv", "jsonl"))
    text_col: str = _opt("preprocess", "--text-col", "text")
    label_col: str = _opt("preprocess", "--label-col", "label")
    category_col: str = _opt("preprocess", "--category-col", "category")
    max_bad_rows: int = _opt("preprocess", "--max-bad-rows", 100)

    split: float = _opt("shard", "--split", 0.8, help="train fraction (default 0.8)")
    shard_size: int = _opt("shard", "--shard-size", 200000)
    rus: bool = _opt("shard", "--rus", False, help="random-undersample the train split")

    optimizer: str = _opt("train", "--optimizer", "adam", choices=OPTIMIZERS)
    lr: float = _opt("train", "--lr", 0.001, train_field="base_lr",
                     help="base learning rate (ignored by --lr-schedule exp)")
    lr_schedule: str = _opt("train", "--lr-schedule", "constant", choices=SCHEDULES)
    epochs: int = _opt("train", "--epochs", 1)
    batch_size: int = _opt("train", "--batch-size", 512)
    dropout: float = _opt("train", "--dropout", 0.0)
    plateau_factor: float = _opt("train", "--plateau-factor", 0.9)
    plateau_patience: int = _opt("train", "--plateau-patience", 27)
    exp_step_unit: str = _opt("train", "--exp-step-unit", "epoch", choices=("epoch", "batch"))
    stop_at_train_accuracy: float | None = _opt("train", "--stop-at-train-accuracy", None)


_FIELDS = {f.name: f for f in fields(RunConfig)}


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
    ftype = _FIELDS[name].type
    try:
        if ftype == "bool":
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no", ""):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if ftype == "float | None" and not raw:
            return None
        return _ARG_TYPES.get(ftype, str)(raw)
    except ValueError as exc:
        raise ConfigError(f"bad config value {name} = {raw!r}: {exc}") from exc


def config_to_ini(cfg: RunConfig) -> str:
    """Canonical INI text; emitting, parsing, and re-emitting is a fixed point."""
    blocks = []
    for section, group in groupby(_FIELDS.values(), key=lambda f: f.metadata["section"]):
        lines = [f"{f.name} = {_format_value(getattr(cfg, f.name))}" for f in group]
        blocks.append("\n".join([f"[{section}]", *lines]))
    return "\n\n".join(blocks) + "\n"


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
    values: dict = {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            if key not in _FIELDS or _FIELDS[key].metadata["section"] != section:
                raise ConfigError(f"unknown config entry [{section}] {key}")
            values[key] = _parse_value(key, raw)
    return values


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults < preset defaults < config file < env seed < flags."""
    flag_values = {
        name: getattr(args, name) for name in _FIELDS if getattr(args, name, None) is not None
    }
    file_values = config_from_ini(args.config) if getattr(args, "config", None) else {}
    merged = {name: f.default for name, f in _FIELDS.items()}
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
            flag = _FIELDS[name].metadata["flag"]
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


def _corpus_args(cfg: RunConfig) -> dict:
    """``CorpusReader`` keywords for the configured corpus."""
    return {
        "path": cfg.corpus,
        "fmt": cfg.fmt or None,
        "text_col": _col(cfg.text_col),
        "label_col": _col(cfg.label_col),
        "category_col": _col(cfg.category_col) if cfg.category_col else None,
        "max_bad_rows": cfg.max_bad_rows,
    }


def _encode_corpus(cfg: RunConfig):
    """Corpus file -> (encoded records, encoder, histogram, skipped).

    The corpus is read, tokenized and encoded ``TOKENIZE_CHUNK`` reviews at
    a time (``corpus.encode_corpus``).
    """
    if cfg.stopwords:
        try:
            norm = NormConfig(stopwords=load_stopwords(cfg.stopwords))
        except (OSError, UnicodeDecodeError) as exc:
            raise DataError(f"cannot read stopwords {cfg.stopwords}: {exc}") from exc
    else:
        norm = NormConfig.default()
    reader = CorpusReader(**_corpus_args(cfg))
    encoded, encoder, hist = encode_corpus(reader, norm, LabelScheme.for_num_classes(cfg.classes))
    return encoded, encoder, hist, reader.skipped


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
    with open(Path(cfg.out_dir) / "encoded.jsonl", "w", encoding="utf-8") as fh:
        for start in range(0, len(encoded), TOKENIZE_CHUNK):
            fh.write(to_json_lines(encoded[start:start + TOKENIZE_CHUNK]))
    _write_outputs(cfg, {"histogram.txt": _histogram_text(hist)})
    if not len(encoded):
        print("warning: empty corpus, wrote 0 records", file=sys.stderr)
    print(f"records {len(encoded)}")
    print(f"fraction with <= {MAX_LEN} tokens: {hist.cumulative_fraction(MAX_LEN):.4f}")
    return 0


def cmd_shard(cfg: RunConfig) -> int:
    _require(cfg, "corpus", "out_dir")
    if cfg.shard_size < 1:  # refused before anything is read or written
        raise ConfigError(f"shard_size must be >= 1, got {cfg.shard_size}")
    encoded, encoder, _, skipped = _encode_corpus(cfg)
    _report_skipped(skipped)
    # Both splits are positions into the one record array; each shard is
    # gathered from it as it is written.
    train, test = split_indices(len(encoded), cfg.split, cfg.seed)
    if cfg.rus:
        train = train[undersample_indices(encoded["y"][train], cfg.seed, cfg.classes)]
    encoder.save(cfg.out_dir)
    hashes = encoder.hashes()
    for name, rows in (("train", train), ("test", test)):
        manifest = write_shards(
            encoded,
            cfg.shard_size,
            cfg.out_dir,
            name=name,
            split_seed=cfg.seed,
            encoder_hashes=hashes,
            rows=rows,
        )
        print(f"{name}: {manifest.total} records in {len(manifest.shards)} shard(s)")
    _write_outputs(cfg, {})
    return 0


def _checked_manifest(path: Path, hashes: dict[str, str], num_classes: int) -> ShardManifest:
    """The manifest at ``path``, by the encoder of ``hashes``, with labels below ``num_classes``."""
    manifest = ShardManifest.load(path)
    check_hashes(hashes, manifest.encoder_hashes, f"manifest {path}")
    outside = sorted(k for k in manifest.class_histogram if not 0 <= k < num_classes)
    if outside:
        raise DataError(f"manifest {path} holds labels {outside}, but the model has "
                        f"{num_classes} classes (labels 0..{num_classes - 1})")
    return manifest


def _embedding_matrix_for(cfg: RunConfig, token_vocab, dtype):
    """``token_vocab``'s rows of the checked embeddings file, and the sha256 of its bytes.

    No usable line is a DataError.  The parsed table is freed on return,
    so training holds only the matrix.
    """
    table = load_embeddings(cfg.embeddings, vocab=token_vocab)
    if not table.loaded_lines:
        raise DataError(f"no line of embeddings {cfg.embeddings} is a token followed by "
                        f"{table.dim} finite components ({table.skipped_lines} malformed)")
    if table.skipped_lines:
        print(f"warning: skipped {table.skipped_lines} malformed embedding line(s)",
              file=sys.stderr)
    return embedding_matrix(table, token_vocab, dtype=dtype), table.sha256


def _load_checkpoint(cfg: RunConfig, encoder: Encoder, hashes: dict[str, str]):
    """Checkpoint -> (model, the embedding matrix it stores).

    The checkpoint must have been trained on the shard directory of
    ``encoder`` (whose ``hashes()`` are ``hashes``) and on the
    ``--embeddings`` file, whose bytes are hashed, not parsed.
    """
    model, emb, meta = load_model(cfg.checkpoint, len(encoder.token_vocab))
    check_hashes(hashes, meta, f"checkpoint {cfg.checkpoint}")
    recorded = meta.get(EMBEDDINGS_HASH_KEY) or ""
    found = embeddings_sha256(cfg.embeddings)
    if recorded != found:
        raise DataError(
            f"embeddings {cfg.embeddings} / checkpoint {cfg.checkpoint} mismatch: sha256 "
            f"{found[:12]}… vs {recorded[:12] or '(none)'}… recorded in the checkpoint"
        )
    return model, emb


def cmd_train(cfg: RunConfig) -> int:
    _require(cfg, "embeddings", "out_dir")
    shard_dir = Path(cfg.shard_dir or cfg.out_dir)
    encoder = Encoder.load(shard_dir)
    hashes = encoder.hashes()
    train_manifest = _checked_manifest(shard_dir / "train.manifest.json", hashes, cfg.classes)
    test_path = shard_dir / "test.manifest.json"
    eval_manifest = (_checked_manifest(test_path, hashes, cfg.classes)
                     if test_path.exists() else None)

    source = {f.metadata.get("train_field", name): name for name, f in _FIELDS.items()}
    train_cfg = TrainConfig(**{f.name: getattr(cfg, source[f.name]) for f in fields(TrainConfig)})
    spec = ModelSpec(
        preset=cfg.preset,
        num_classes=cfg.classes,
        dropout_rate=cfg.dropout,
        max_word_chars=train_manifest.max_word_chars,
        char_vocab_size=len(encoder.char_vocab) if cfg.preset in CHAR_PRESETS else 0,
    )
    emb, emb_hash = _embedding_matrix_for(cfg, encoder.token_vocab, train_cfg.dtype)
    report, _ = train_loop(spec, train_cfg, train_manifest, emb, cfg.out_dir, eval_manifest,
                           emb_hash)
    _write_outputs(cfg, {})
    sys.stdout.write(report.to_text())
    print(f"wall_time_s {report.wall_time_s:.3f}")
    return 0


def cmd_eval(cfg: RunConfig) -> int:
    _require(cfg, "checkpoint", "embeddings")
    shard_dir = Path(cfg.shard_dir or cfg.out_dir or ".")
    encoder = Encoder.load(shard_dir)
    hashes = encoder.hashes()
    model, emb = _load_checkpoint(cfg, encoder, hashes)
    manifest_path = Path(cfg.manifest) if cfg.manifest else shard_dir / "test.manifest.json"
    manifest = _checked_manifest(manifest_path, hashes, model.spec.num_classes)
    report = metrics(_eval_confusion(model, manifest, emb, cfg.batch_size))
    sys.stdout.write(report.to_text())
    _write_outputs(cfg, {"metrics.txt": report.to_text(), "metrics.json": report.to_json() + "\n"})
    return 0


def cmd_predict(cfg: RunConfig) -> int:
    _require(cfg, "checkpoint", "embeddings", "shard_dir")
    encoder = Encoder.load(cfg.shard_dir)
    model, emb = _load_checkpoint(cfg, encoder, encoder.hashes())
    scheme = LabelScheme.for_num_classes(model.spec.num_classes)
    if cfg.input_path:
        try:
            text = Path(cfg.input_path).read_text("utf-8")
        except OSError as exc:
            raise DataError(f"cannot read input {cfg.input_path}: {exc}") from exc
    else:
        text = sys.stdin.read()
    lines = [ln for ln in split_lines(text) if ln.strip()]
    seqs = tokenize_many(lines, encoder.norm)
    records = encoder.encode_many(seqs, [0] * len(seqs), MAX_LEN)
    scored = scored_batches(model, [records], emb, cfg.batch_size, "predict")
    text = "".join(
        "\t".join([scheme.classes[y]] + [f"{p:.6f}" for p in row]) + "\n"
        for _, labels, probs in scored for y, row in zip(labels, probs)
    )
    sys.stdout.write(text)
    _write_outputs(cfg, {"predictions.tsv": text})
    return 0


def cmd_stats(cfg: RunConfig) -> int:
    _require(cfg, "corpus")
    reader = CorpusReader(**_corpus_args(cfg))
    stats = category_stats(reader, LabelScheme.for_num_classes(cfg.classes))
    _report_skipped(reader.skipped)
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
    p.add_argument("--config", help="INI config file; flags override its values")
    for name in names:
        f = _FIELDS[name]
        kwargs = {"dest": name, **f.metadata["argparse"]}
        if f.type == "bool":
            kwargs.update(action="store_true", default=None)
        elif f.type in _ARG_TYPES:
            kwargs["type"] = _ARG_TYPES[f.type]
        p.add_argument(f.metadata["flag"], **kwargs)


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

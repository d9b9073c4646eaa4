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
import os
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field, fields
from itertools import groupby, islice
from pathlib import Path
from typing import TYPE_CHECKING

from sarv import textproc
from sarv.corpus import (CorpusReader, Encoder, LabelScheme, check_hashes, encode_corpus,
                         text_lines, to_json_lines)
from sarv.embed import embedding_matrix, embeddings_sha256, load_embeddings
from sarv.errors import ConfigError, DataError, NumericsError, SarvError
from sarv.models import (EMBEDDINGS_HASH_KEY, OPTIMIZERS, PRECISIONS, PRESETS, SCHEDULES,
                         ModelSpec, load_model, scored_batches)
from sarv.nn import open_binary, replaced_on_success
from sarv.textproc import MAX_LEN, NormConfig, load_stopwords

# ``predict`` never trains, scores a manifest or reads an INI file, so the
# trainer, the metrics and configparser are imported only by the commands
# that use them; each is a few milliseconds of every process's start-up.
if TYPE_CHECKING:
    from sarv.train import ShardManifest

SEED_ENV_VAR = "SARV_SEED"

# Field annotation -> parser of a flag or INI value; str fields keep the raw
# string and bool fields are switches.
_ARG_TYPES = {"int": int, "float": float, "float | None": float}


def _opt(section: str, flag: str, default, **argparse_kwargs):
    """A ``RunConfig`` field with its INI section, its flag and the flag's argparse keywords."""
    return field(default=default,
                 metadata={"section": section, "flag": flag, "argparse": argparse_kwargs})


@dataclass
class RunConfig:
    """Union of pipeline settings; round-trips losslessly through INI.

    Each field is declared once: its metadata gives its INI section and its
    flag, and field order is the INI emission order.
    """

    seed: int = _opt("run", "--seed", 0, help=f"rng seed (falls back to ${SEED_ENV_VAR})")
    preset: str = _opt("run", "--preset", "W2V_SOFTMAX", choices=tuple(PRESETS),
                        help="model preset")
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
    lr: float = _opt("train", "--lr", 0.001,
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
    import configparser

    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError) as exc:
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
        raise ConfigError(f"unknown preset {preset!r}; choose from {tuple(PRESETS)}")
    merged.update(PRESETS[preset].train)
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
    """Corpus file -> (``corpus.EncodedCorpus``, encoder, histogram, skipped).

    The corpus is read, tokenized and numbered ``TOKENIZE_CHUNK`` reviews at
    a time (``corpus.encode_corpus``); records are gathered from the
    encoding only as they are written.
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
        for start in range(0, len(encoded), textproc.TOKENIZE_CHUNK):
            rows = range(start, min(start + textproc.TOKENIZE_CHUNK, len(encoded)))
            fh.write(to_json_lines(encoded.take(rows)))
    _write_outputs(cfg, {"histogram.txt": _histogram_text(hist)})
    if not len(encoded):
        print("warning: empty corpus, wrote 0 records", file=sys.stderr)
    print(f"records {len(encoded)}")
    print(f"fraction with <= {MAX_LEN} tokens: {hist.cumulative_fraction(MAX_LEN):.4f}")
    return 0


def cmd_shard(cfg: RunConfig) -> int:
    from sarv.train import split_indices, undersample_indices, write_shards

    _require(cfg, "corpus", "out_dir")
    if cfg.shard_size < 1:  # both refused before anything is read or written
        raise ConfigError(f"shard_size must be >= 1, got {cfg.shard_size}")
    if not 0.0 < cfg.split < 1.0:
        raise ConfigError(f"split fraction must be in (0, 1), got {cfg.split}")
    encoded, encoder, _, skipped = _encode_corpus(cfg)
    _report_skipped(skipped)
    # Both splits are positions into the one encoding; each shard's records
    # are gathered from it as they are written.
    train, test = split_indices(len(encoded), cfg.split, cfg.seed)
    if cfg.rus:
        train = train[undersample_indices(encoded.labels[train], cfg.seed, cfg.classes)]
    hashes = encoder.save(cfg.out_dir)
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
    from sarv.train import ShardManifest

    manifest = ShardManifest.load(path)
    check_hashes(hashes, manifest.encoder_hashes, f"manifest {path}")
    outside = sorted(k for k in manifest.class_histogram if not 0 <= k < num_classes)
    if outside:
        raise DataError(f"manifest {path} holds labels {outside}, but the model has "
                        f"{num_classes} classes (labels 0..{num_classes - 1})")
    return manifest


def _embedding_matrix_for(cfg: RunConfig, token_vocab, dtype):
    """``token_vocab``'s rows of the checked embeddings file, and the sha256 of its bytes.

    No usable line is a DataError.  The file is parsed straight into the
    float32 matrix, which is returned as it is, or cast exactly for
    ``--precision double``; no per-token copy of the vectors is made.
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
    ``encoder``, whose hashes ``Encoder.load`` returned as ``hashes``, and
    on the ``--embeddings`` file, whose bytes are hashed, not parsed.
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
    from sarv.train import TrainConfig, train_loop

    _require(cfg, "embeddings", "out_dir")
    train_cfg = TrainConfig(**{f.name: getattr(cfg, f.name) for f in fields(TrainConfig)})
    shard_dir = Path(cfg.shard_dir or cfg.out_dir)
    encoder, hashes = Encoder.load(shard_dir)
    train_path = shard_dir / "train.manifest.json"
    train_manifest = _checked_manifest(train_path, hashes, cfg.classes)
    missing = [k for k in range(cfg.classes) if not train_manifest.class_histogram.get(k)]
    if missing:  # as from 2-class shards, whose "positive" (1) is the 3-class "neutral"
        raise DataError(f"manifest {train_path} holds no record of classes {missing}, but "
                        f"--classes is {cfg.classes}; were the shards written for fewer classes?")
    test_path = shard_dir / "test.manifest.json"
    eval_manifest = (_checked_manifest(test_path, hashes, cfg.classes)
                     if test_path.exists() else None)

    spec = ModelSpec(
        preset=cfg.preset,
        num_classes=cfg.classes,
        dropout_rate=cfg.dropout,
        max_word_chars=train_manifest.max_word_chars,
        char_vocab_size=len(encoder.char_vocab) if PRESETS[cfg.preset].char_channel else 0,
    )
    emb, emb_hash = _embedding_matrix_for(cfg, encoder.token_vocab, train_cfg.dtype)
    del encoder  # training needs none of its vocabularies
    report, _ = train_loop(spec, train_cfg, train_manifest, emb, cfg.out_dir, eval_manifest,
                           emb_hash)
    _write_outputs(cfg, {})
    sys.stdout.write(report.to_text())
    print(f"wall_time_s {report.wall_time_s:.3f}")
    return 0


def cmd_eval(cfg: RunConfig) -> int:
    from sarv.metrics import metrics
    from sarv.train import _eval_confusion

    _require(cfg, "checkpoint", "embeddings")
    shard_dir = Path(cfg.shard_dir or cfg.out_dir or ".")
    encoder, hashes = Encoder.load(shard_dir)
    model, emb = _load_checkpoint(cfg, encoder, hashes)
    manifest_path = Path(cfg.manifest) if cfg.manifest else shard_dir / "test.manifest.json"
    manifest = _checked_manifest(manifest_path, hashes, model.spec.num_classes)
    report = metrics(_eval_confusion(model, manifest, emb, cfg.batch_size))
    sys.stdout.write(report.to_text())
    _write_outputs(cfg, {"metrics.txt": report.to_text(), "metrics.json": report.to_json() + "\n"})
    return 0


def cmd_predict(cfg: RunConfig) -> int:
    """Label each non-blank line of ``--input`` or stdin, ``TOKENIZE_CHUNK`` lines at a time.

    Each batch's rows go to stdout as it is scored; ``predictions.tsv``
    appears only once the whole input is scored.
    """
    _require(cfg, "checkpoint", "embeddings", "shard_dir")
    if not cfg.input_path and sys.stdin is None:
        raise ConfigError("standard input is closed; pass --input")
    encoder, hashes = Encoder.load(cfg.shard_dir)
    model, emb = _load_checkpoint(cfg, encoder, hashes)
    scheme = LabelScheme.for_num_classes(model.spec.num_classes)
    name = f"input {cfg.input_path}" if cfg.input_path else "standard input"
    # stdin is left open: main() may be called again in the same process.
    source = open_binary(cfg.input_path, name) if cfg.input_path else nullcontext(sys.stdin.buffer)
    blank = tokenless = 0

    def encoded(lines):
        nonlocal blank, tokenless
        while chunk := list(islice(lines, textproc.TOKENIZE_CHUNK)):
            texts = [line for line in chunk if line.strip()]
            blank += len(chunk) - len(texts)
            records = encoder.encode_texts(texts, 0, MAX_LEN)
            tokenless += int((records["len"] == 0).sum())
            yield records

    sink = nullcontext()
    if cfg.out_dir:
        Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
        sink = replaced_on_success(Path(cfg.out_dir) / "predictions.tsv")
    with source as fh, sink as out:
        for _, labels, probs in scored_batches(model, encoded(text_lines(fh, name)), emb,
                                               cfg.batch_size, "predict"):
            rows = "".join("\t".join([scheme.classes[y]] + [f"{p:.6f}" for p in row]) + "\n"
                           for y, row in zip(labels, probs))
            sys.stdout.write(rows)
            if out is not None:
                out.write(rows.encode("utf-8"))
    if blank:
        print(f"warning: dropped {blank} blank input line(s)", file=sys.stderr)
    if tokenless:
        print(f"warning: {tokenless} input line(s) normalised to no token", file=sys.stderr)
    _write_outputs(cfg, {})
    return 0


def cmd_stats(cfg: RunConfig) -> int:
    from sarv.metrics import category_stats

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

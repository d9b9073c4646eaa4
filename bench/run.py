"""End-to-end benchmark of the ``sarv`` CLI pipeline.

Usage::

    python3 bench/run.py --workload lstm_long --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  One closed-loop client runs the
pipeline steps in order, one child process per step and never two at a
time: ``shard`` -> ``train`` -> ``eval`` -> ``predict`` on N lines ->
``predict`` on one line, whose wall time is ``setup_s``.  Inputs are
generated from the seed (see ``inputs.py``) and cached under
``.bench_work/``; generation is never timed.

``--trace 0`` repeats whole pipeline passes, as many as the first pass
says fit in ``--seconds`` (at least two), and reports the median of each
step.  ``--trace 1`` runs one untraced pass and one pass under the span
tracer (``traced_cli.py``) and reports per-layer metrics plus the
tracing overhead.  Every step's outputs are checked; the last stdout
line is the JSON result, and the lines before it print every metric by
name and unit, the wall-clock rates, the failed fraction and the
provenance of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from inputs import CLASSES, InputSpec, cached_inputs
from tracer import load_spans, summarize

BENCH_DIR = Path(__file__).resolve().parent
STEP_TIMEOUT_S = 120
SPLIT = 0.8
STEPS = ("shard", "train", "eval", "predict", "setup")
SINGLE_REPS = dict.fromkeys(STEPS, 1)


@dataclass(frozen=True)
class Workload:
    preset: str
    inputs: InputSpec
    # Runs of each step per pass, chosen so every step gets a similar share
    # of the measured time.
    reps: dict[str, int]
    epochs: int = 1
    batch_size: int = 512
    lr: float | None = None  # None keeps the preset's default
    shard_size: int = 200_000


# Sizes keep one pass near 10 s on a 2-core x86 VM, so that a 30 s run
# holds three passes.  Batch size and learning rate are set so one short
# run learns the task (eval accuracy 0.8-1.0): a model stuck near chance
# would hide a change that breaks learning and spread accuracy widely.
WORKLOADS = {
    # Every review fills all 15 slots: the word-LSTM recurrence dominates.
    "lstm_long": Workload(
        "W2V_LSTM",
        InputSpec(rows=3_500, min_tokens=15, max_tokens=40, vocab=15_000,
                  embed_lines=17_000, predict_lines=600),
        reps={"shard": 1, "train": 1, "eval": 2, "predict": 2, "setup": 2},
        batch_size=256, lr=0.01,
    ),
    # Short reviews over a small Zipf vocabulary: most word slots and char
    # steps are padding and tokens repeat within a batch.
    "char_short": Workload(
        "CHAR_W2V_LSTM",
        InputSpec(rows=1_000, min_tokens=2, max_tokens=8, vocab=5_000,
                  embed_lines=10_000, predict_lines=200),
        reps={"shard": 3, "train": 1, "eval": 2, "predict": 2, "setup": 2},
        batch_size=64, lr=0.01,
    ),
    # Cheap model, noisy text, many shards: ingest, shard I/O and
    # embedding load carry the time.
    "mlp_stream": Workload(
        "W2V_MLP_RELU_LRDECAY_DROPOUT",
        InputSpec(rows=6_000, min_tokens=4, max_tokens=20, vocab=15_000,
                  embed_lines=25_000, predict_lines=800, noise=True),
        epochs=2, batch_size=128, shard_size=1_000,
        reps={"shard": 1, "train": 1, "eval": 2, "predict": 2, "setup": 2},
    ),
}

# The gated end-to-end metrics.  On a shared VM the machine's speed drifts
# by +-12% over minutes, so raw wall-clock rates spread widely between runs.
# Each step's wall time is therefore expressed in units of the wall time of
# ``probe.py``, a fixed workload run before every step of the same pass:
# ``*_per_ref`` is records per reference-probe second.  Wall time keeps
# what a user waits for, including time blocked on I/O, locks or the shard
# prefetch thread.  ``setup_s`` stays plain wall time.
END_TO_END_UNITS = {
    "setup_s": "s",
    "shard_records_per_ref": "1/ref",
    "train_records_per_ref": "1/ref",
    "eval_records_per_ref": "1/ref",
    "predict_records_per_ref": "1/ref",
    "pipeline_ref": "ref",
    "shard_rss_mb": "MB",
    "train_rss_mb": "MB",
    "predict_rss_mb": "MB",
    "train_loss": "nat",
    "eval_accuracy": "fraction",
}
# Printed beside the gated metrics but not gated: the same rates in plain
# wall-clock seconds, and the probe itself.
UNGATED_UNITS = {
    "shard_records_per_s": "1/s",
    "train_records_per_s": "1/s",
    "eval_records_per_s": "1/s",
    "predict_records_per_s": "1/s",
    "pipeline_s": "s",
    "probe_s": "s",
}

# Per-batch spans also get p50/p90 and their sample count.
PER_BATCH = ("models.assemble_batch", "models.forward_train", "models.backward",
             "models.forward_eval", "train.optimizer_step")
# Spans reported as summed self seconds; CALLS also get their call count.
SELF_SECONDS = (
    "textproc.normalize", "corpus.read_corpus", "corpus.encode_sentence",
    "corpus.to_json_line", "embed.build_vocab", "train.write_shards",
    "corpus.from_json_line", "models.assemble_batch", "embed.load_embeddings",
    "embed.embedding_matrix", "models.load_model", "nn.sigmoid",
    "nn.word_lstm.forward", "nn.word_lstm.backward", "nn.char_lstm.forward",
    "nn.char_lstm.backward", "nn.onehot_dense.forward", "nn.onehot_dense.backward",
    "nn.dense.forward", "nn.dense.backward", "nn.dropout.forward", "nn.softmax_xent",
    "train.optimizer_step", "models.forward_train", "models.backward",
    "models.forward_eval", "models.save_model", "train.train_loop",
    "metrics.confusion", "metrics.metrics",
)
CALLS = (
    "textproc.normalize", "corpus.encode_sentence", "corpus.from_json_line",
    "models.assemble_batch", "nn.sigmoid", "train.optimizer_step", "models.save_model",
)
COUNTERS = {
    "train.write_shards.bytes": "B",
    "train.shard_reader.passes": "count",
    "train.shard_reader.records": "count",
    "embed.load_embeddings.lines": "count",
    "models.forward_eval.records": "count",
}
RATIOS = {
    "nn.word_lstm.useful_step_ratio": ("nn.word_lstm.real_steps", "nn.word_lstm.run_steps"),
    "nn.char_lstm.useful_step_ratio": ("nn.char_lstm.real_chars", "nn.char_lstm.char_steps"),
    "nn.char_lstm.unique_token_ratio": ("nn.char_lstm.unique_tokens", "nn.char_lstm.slots"),
    "embed.oov_slot_ratio": ("embed.oov_slots", "embed.real_slots"),
}


class StepFailed(Exception):
    pass


@dataclass
class Step:
    wall_s: float
    cpu_s: float  # user + system over all threads; printed as a diagnostic only
    rss_mb: float
    stdout: Path


@dataclass
class Pass:
    steps: dict[str, list[Step]] = field(default_factory=dict)
    probes: list[Step] = field(default_factory=list)
    spans: list[Path] = field(default_factory=list)
    n_train: int = 0
    n_test: int = 0
    train_loss: float = 0.0
    eval_accuracy: float = 0.0

    def ref_s(self) -> float:
        """The median wall time of this pass's probes: one reference second."""
        return statistics.median(s.wall_s for s in self.probes)

    def in_ref(self, key: str) -> list[float]:
        """Wall times of a step's repetitions in units of this pass's probe."""
        ref = self.ref_s()
        return [s.wall_s / ref for s in self.steps[key]]

    def pipeline_ref(self) -> float:
        return sum(statistics.median(self.in_ref(k)) for k in STEPS)


class Checks:
    """Output checks; every attempt and failure feeds ``failed_fraction``."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


class Runner:
    """Runs ``sarv`` steps as child processes, one at a time, against ``src/``."""

    def __init__(self, root: Path, work: Path, checks: Checks):
        self.checks = checks
        tmp = work / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, TMPDIR=str(tmp))
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )

    def warm_up(self) -> None:
        """Byte-compile and page in the package so no timed step pays for it."""
        subprocess.run([sys.executable, "-c", "import sarv.cli"], env=self.env,
                       check=True, timeout=STEP_TIMEOUT_S)

    def run(self, label: str, args: list[str], out_dir: Path, spans: Path | None) -> Step:
        if spans is None:
            argv = [sys.executable, "-m", "sarv.cli", *args]
        else:
            argv = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans), *args]
        return self.spawn(label, argv, out_dir)

    def probe(self, label: str, out_dir: Path) -> Step:
        return self.spawn(label, [sys.executable, str(BENCH_DIR / "probe.py")], out_dir)

    def spawn(self, label: str, argv: list[str], out_dir: Path) -> Step:
        out = out_dir / f"{label}.stdout"
        err = out_dir / f"{label}.stderr"
        with open(out, "wb") as fo, open(err, "wb") as fe:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=fo, stderr=fe,
                                    env=self.env)
            timer = threading.Timer(STEP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        ok = self.checks.expect(proc.returncode == 0, f"{label} exited {proc.returncode}")
        if not ok:
            tail = err.read_text("utf-8", errors="replace")[-2000:]
            raise StepFailed(f"{label} exited {proc.returncode}:\n{tail}")
        # ru_maxrss is in KiB on Linux.
        return Step(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, out)


def _read_tsv_probs(path: Path) -> list[list[str]]:
    return [line.split("\t") for line in path.read_text("utf-8").splitlines()]


def check_predictions(checks: Checks, rows: list[list[str]], expected: int, label: str) -> None:
    checks.expect(len(rows) == expected, f"{label}: {len(rows)} rows for {expected} lines")
    bad = 0
    for row in rows:
        try:
            probs = [float(p) for p in row[1:]]
        except ValueError:
            bad += 1
            continue
        if row[0] not in CLASSES or len(probs) != len(CLASSES) or abs(sum(probs) - 1) > 1e-5:
            bad += 1
    checks.expect(bad == 0, f"{label}: {bad} malformed prediction rows")


def run_pass(runner: Runner, wl: Workload, seed: int, inputs: Path, meta: dict,
             pass_dir: Path, reps: dict[str, int], traced: bool, report_ref: list) -> Pass:
    """One checked ``shard -> train -> eval -> predict -> setup`` pass.

    Each step runs ``reps[step]`` times on the same inputs; later steps use
    the first repetition's outputs, and every repetition is checked.
    """
    checks = runner.checks
    pass_dir.mkdir(parents=True)
    vectors = str(inputs / "vectors.txt")
    shards, run = pass_dir / "shard0", pass_dir / "train0"
    ckpt = str(run / "checkpoint_best.bin")
    result = Pass()

    def step(key: str, args) -> list[Step]:
        result.probes.append(runner.probe(f"probe-{key}", pass_dir))
        out = []
        for k in range(reps[key]):
            label = f"{key}{k}"
            spans = pass_dir / f"{label}.npz" if traced else None
            out.append(runner.run(label, args(pass_dir / label), pass_dir, spans))
            if spans is not None:
                result.spans.append(spans)
        result.steps[key] = out
        return out

    step("shard", lambda out: ["shard", "--corpus", str(inputs / "corpus.tsv"), "--out-dir",
                               str(out), "--split", str(SPLIT), "--shard-size",
                               str(wl.shard_size), "--seed", str(seed)])
    manifests = [(pass_dir / f"shard{k}" / "train.manifest.json").read_text()
                 for k in range(reps["shard"])]
    checks.expect(len(set(manifests)) == 1, "shard manifests differ between repetitions")
    train_m = json.loads(manifests[0])
    test_m = json.loads((shards / "test.manifest.json").read_text())
    n_train = int(SPLIT * meta["rows"])
    checks.expect(
        (train_m["total"], test_m["total"]) == (n_train, meta["rows"] - n_train),
        f"manifest totals {train_m['total']}+{test_m['total']} != {meta['rows']} rows",
    )

    lr = [] if wl.lr is None else ["--lr", str(wl.lr)]
    step("train", lambda out: ["train", "--shard-dir", str(shards), "--out-dir", str(out),
                               "--embeddings", vectors, "--preset", wl.preset, "--epochs",
                               str(wl.epochs), "--batch-size", str(wl.batch_size),
                               "--seed", str(seed), *lr])
    for k in range(reps["train"]):
        report = (pass_dir / f"train{k}" / "report.jsonl").read_bytes()
        report_ref.append(report)
        checks.expect(report == report_ref[0], "report.jsonl differs between same-seed runs")
    epochs = [json.loads(line) for line in report_ref[0].decode().splitlines()]
    best = max(e["eval_accuracy"] for e in epochs)

    step("eval", lambda out: ["eval", "--checkpoint", ckpt, "--shard-dir", str(shards),
                              "--embeddings", vectors, "--batch-size", str(wl.batch_size),
                              "--out-dir", str(out)])
    for k in range(reps["eval"]):
        accuracy = json.loads((pass_dir / f"eval{k}" / "metrics.json").read_text())["accuracy"]
        checks.expect(accuracy == best, f"eval accuracy {accuracy} != best in report {best}")

    for key, source, lines in (("predict", "predict.txt", meta["predict_lines"]),
                               ("setup", "one.txt", 1)):
        done = step(key, lambda out: ["predict", "--checkpoint", ckpt, "--shard-dir",
                                      str(shards), "--embeddings", vectors, "--input",
                                      str(inputs / source)])
        for s in done:
            check_predictions(checks, _read_tsv_probs(s.stdout), lines, key)
    result.probes.append(runner.probe("probe-end", pass_dir))

    result.n_train, result.n_test = train_m["total"], test_m["total"]
    result.train_loss = epochs[-1]["train_loss"]
    result.eval_accuracy = best
    return result


def end_to_end(passes: list[Pass], wl: Workload, meta: dict) -> dict[str, float]:
    """Every gated and ungated end-to-end metric, from medians over all repetitions."""
    def med(key: str, attr: str) -> float:
        return statistics.median(getattr(s, attr) for p in passes for s in p.steps[key])

    def med_ref(key: str) -> float:
        return statistics.median(r for p in passes for r in p.in_ref(key))

    p0 = passes[0]
    records = {
        "shard": meta["rows"],
        "train": p0.n_train * wl.epochs,
        "eval": p0.n_test,
        "predict": meta["predict_lines"],
    }
    values = {
        "setup_s": med("setup", "wall_s"),
        "probe_s": statistics.median(s.wall_s for p in passes for s in p.probes),
    }
    for key, n in records.items():
        values[f"{key}_records_per_ref"] = n / med_ref(key)
        values[f"{key}_records_per_s"] = n / med(key, "wall_s")
    values["pipeline_ref"] = sum(med_ref(k) for k in STEPS)
    values["pipeline_s"] = sum(med(k, "wall_s") for k in STEPS)
    for key in ("shard", "train", "predict"):
        values[f"{key}_rss_mb"] = med(key, "rss_mb")
    values["train_loss"] = p0.train_loss
    values["eval_accuracy"] = p0.eval_accuracy
    return values


def _merge(summaries: list[dict]) -> dict:
    out: dict[str, dict] = {}
    for summ in summaries:
        for name, row in summ.items():
            acc = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []})
            acc["calls"] += row["calls"]
            acc["s"] += row["s"]
            acc["self_s"] += row["self_s"]
            acc["durations"].append(row["durations"])
    for acc in out.values():
        acc["durations"] = np.concatenate(acc["durations"])
    return out


def per_layer(traced: Pass, untraced: Pass) -> tuple[dict, dict, list[str]]:
    """(metrics, per-step span summaries, missing hooks) from a traced pass."""
    loaded = [load_spans(p) for p in traced.spans]
    by_step = {p.stem: summarize(sp) for p, sp in zip(traced.spans, loaded)}
    agg = _merge(list(by_step.values()))
    counters: dict[str, float] = {}
    maxima: dict[str, float] = {}
    missing: set[str] = set()
    for sp in loaded:
        for k, v in sp["counters"].items():
            counters[k] = counters.get(k, 0) + v
        for k, v in sp["maxima"].items():
            maxima[k] = max(maxima.get(k, v), v)
        missing.update(sp["missing"])

    def row(name: str) -> dict:
        return agg.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": np.zeros(0)})

    m: dict[str, tuple[float, str]] = {}
    for name in SELF_SECONDS:
        m[f"{name}.s"] = (row(name)["self_s"], "s")
    for name in CALLS:
        m[f"{name}.calls"] = (row(name)["calls"], "count")
    for name in PER_BATCH:
        d = row(name)["durations"]
        p50, p90 = (np.percentile(d, [50, 90]) if len(d) else (0.0, 0.0))
        m[f"{name}.p50_s"] = (float(p50), "s")
        m[f"{name}.p90_s"] = (float(p90), "s")
        m[f"{name}.n"] = (len(d), "count")
    for name, unit in COUNTERS.items():
        m[name] = (counters.get(name, 0), unit)
    for metric, (num, den) in RATIOS.items():
        m[metric] = (counters.get(num, 0) / counters[den] if counters.get(den) else 0.0, "ratio")
    m["train.shard_reader.wait_s"] = (row("train.shard_reader.wait")["s"], "s")
    m["train.shard_reader.max_resident"] = (maxima.get("train.shard_reader.max_resident", 0),
                                            "count")
    m["cli.self_s"] = (row("cli.main")["self_s"], "s")
    m["trace.overhead_frac"] = (traced.pipeline_ref() / untraced.pipeline_ref() - 1, "ratio")
    return m, by_step, sorted(missing)


def provenance(root: Path, workload: str, seed: int, wl: Workload) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "git_commit": _git_commit(root),
        "workload": workload,
        "seed": seed,
        "inputs": asdict(wl.inputs),
    }


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    """BLAS name/version from numpy's build config, and its live thread count."""
    out: dict = {"threads": None}
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        out.update(name=cfg.get("name"), version=cfg.get("version"))
    except (TypeError, KeyError):
        pass
    try:
        import ctypes

        for line in Path("/proc/self/maps").read_text().splitlines():
            path = line.split()[-1]
            if "openblas" in path and ".so" in path:
                lib = ctypes.CDLL(path)
                for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                    if hasattr(lib, fn):
                        getattr(lib, fn).restype = ctypes.c_int
                        out["threads"] = getattr(lib, fn)()
                        return out
    except OSError:
        pass
    return out


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        res = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() or "unknown"


def run_workload(name: str, wl: Workload, seed: int, seconds: float, trace: bool,
                 root: Path) -> dict:
    work = root / ".bench_work"
    checks = Checks()
    inputs, meta = cached_inputs(name, wl.inputs, seed, work / "inputs", root / "src")
    one = inputs / "one.txt"
    if not one.exists():
        with open(inputs / "predict.txt", encoding="utf-8") as fh:
            one.write_text(fh.readline(), encoding="utf-8")
    run_dir = work / "runs" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    runner = Runner(root, work, checks)
    report_ref: list[bytes] = []
    passes: list[Pass] = []
    result: dict = {"checks": checks, "provenance": provenance(root, name, seed, wl)}
    try:
        runner.warm_up()
        t0 = time.perf_counter()
        if trace:
            for k, traced in enumerate((False, True)):
                passes.append(run_pass(runner, wl, seed, inputs, meta, run_dir / f"pass{k}",
                                       SINGLE_REPS, traced, report_ref))
            result["layers"], result["by_step"], result["missing"] = per_layer(*passes[::-1])
            passes = passes[:1]
        else:
            # The first pass sets how many fit in ``seconds`` (at least two).
            target = 2
            while len(passes) < target:
                passes.append(run_pass(runner, wl, seed, inputs, meta,
                                       run_dir / f"pass{len(passes)}", wl.reps, False,
                                       report_ref))
                if len(passes) == 1:
                    target = max(2, round(seconds / (time.perf_counter() - t0)))
        result["passes"] = len(passes)
        result["samples"] = {k: [s for p in passes for s in p.steps[k]] for k in passes[0].steps}
        result["e2e"] = end_to_end(passes, wl, meta)
    except (StepFailed, OSError, ValueError, KeyError) as exc:
        result["error"] = str(exc)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return result


def _print_report(name: str, result: dict, trace: bool) -> None:
    checks: Checks = result["checks"]
    print(f"workload {name}: {result.get('passes', 0)} pass(es)")
    print("provenance " + json.dumps(result["provenance"], ensure_ascii=False))
    for key, samples in result.get("samples", {}).items():
        for attr in ("wall_s", "cpu_s"):
            vals = sorted(getattr(s, attr) for s in samples)
            print(f"  step {key:<8} {attr:<6} n={len(vals)} median {statistics.median(vals):.3f} "
                  f"min {vals[0]:.3f} max {vals[-1]:.3f}")
    label = " (untraced pass)" if trace else ""
    for metric, value in result.get("e2e", {}).items():
        unit = END_TO_END_UNITS.get(metric) or UNGATED_UNITS[metric] + " (not gated)"
        print(f"  {metric:<28} {value:>14.6g} {unit}{label}")
    failed = len(checks.failures)
    print(f"  {'failed_fraction':<28} {failed / max(checks.attempted, 1):>14.6g} "
          f"({failed} of {checks.attempted} steps and checks)")
    for failure in checks.failures:
        print(f"  FAILED: {failure}")
    if "error" in result:
        print(result["error"])
    if trace and "layers" in result:
        for hook in result["missing"]:
            print(f"  trace hook missing: {hook}")
        for metric, (value, unit) in result["layers"].items():
            print(f"  {metric:<40} {value:>14.6g} {unit}")
        print("  trace.overhead_frac is indicative: it compares one traced pass with one "
              "untraced pass, and single passes vary by more than the tracing cost")
        for step, summ in result["by_step"].items():
            top = sorted(summ.items(), key=lambda kv: -kv[1]["self_s"])[:6]
            cells = ", ".join(f"{n} {r['self_s']:.3f}s/{r['calls']}" for n, r in top)
            print(f"  top self time in {step}: {cells}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "sarv" / "cli.py").is_file():
        print(f"bench: no sarv sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    result = run_workload(args.workload, WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace), root)
    _print_report(args.workload, result, bool(args.trace))
    checks: Checks = result["checks"]
    if "error" in result:
        return 1
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["layers"].items()}
    else:
        metrics = {k: {"value": result["e2e"][k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

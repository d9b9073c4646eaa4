"""The bench's span tracer still runs every ``sarv`` step it traces.

``bench/traced_cli.py`` runs one ``sarv`` command with the tracer's hooks
installed.  A hook whose counter callback no longer matches the function it
wraps makes the command fail, and a hook whose target is gone is listed in
the spans file as missing.  Each step of a traced bench pass runs here once,
in its own process, on the bundled review fixture: ``shard``, ``train`` of a
word-LSTM, a char-channel and a dropout-MLP preset, ``eval`` and ``predict``.
``bench/`` is only read.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from conftest import REVIEWS_TSV, bundled_embedding_path

ROOT = Path(__file__).resolve().parent.parent
TRACED_CLI = ROOT / "bench" / "traced_cli.py"
# Hooks whose targets the code no longer has; the tracer names them and runs on.
MISSING = ["sarv.corpus:EncodedSentence.from_json_line", "sarv.models:assemble_batch"]
PRESETS = ("W2V_LSTM", "CHAR_W2V_LSTM", "W2V_MLP_RELU_LRDECAY_DROPOUT")


def traced(tmp_path: Path, step: str, *argv) -> str:
    """Run ``sarv *argv`` under the tracer; check it exits 0 and names only ``MISSING``."""
    spans = tmp_path / f"{step}.npz"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    proc = subprocess.run([sys.executable, str(TRACED_CLI), str(spans), *map(str, argv)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, f"{step} exited {proc.returncode}:\n{proc.stderr}"
    with np.load(spans, allow_pickle=False) as z:
        assert json.loads(str(z["meta"]))["missing"] == MISSING, step
    return proc.stdout


def test_every_step_of_a_bench_pass_runs_traced(tmp_path):
    shards, emb = tmp_path / "shards", bundled_embedding_path()
    traced(tmp_path, "shard", "shard", "--corpus", REVIEWS_TSV, "--out-dir", shards)
    for preset in PRESETS:
        traced(tmp_path, f"train-{preset}", "train", "--shard-dir", shards,
               "--out-dir", tmp_path / preset, "--embeddings", emb, "--preset", preset,
               "--epochs", 1, "--batch-size", 2)
    checkpoint = tmp_path / PRESETS[-1] / "checkpoint_final.bin"
    traced(tmp_path, "eval", "eval", "--checkpoint", checkpoint, "--shard-dir", shards,
           "--embeddings", emb)
    lines = tmp_path / "lines.txt"
    lines.write_text("واقعا عالی بود\nافتضاح بود\n", encoding="utf-8")
    stdout = traced(tmp_path, "predict", "predict", "--checkpoint", checkpoint,
                    "--shard-dir", shards, "--embeddings", emb, "--input", lines)
    assert len(stdout.splitlines()) == 2

"""Fixed reference workload that tracks how fast the machine runs right now.

``run.py`` runs this as a child process beside the pipeline steps and
takes its wall seconds as the unit of the ``*_per_ref`` metrics.  It
mixes what sarv's steps spend their time on: interpreter start and the
numpy import, string and dict work, JSON round trips, and float32
matrix products of LSTM-gate shapes.  Its inputs are fixed, so only the
machine changes its cost.
"""

import json

import numpy as np


def main() -> None:
    counts: dict[str, int] = {}
    for i in range(60_000):
        word = "".join(chr(0x0627 + (i * k) % 30) for k in range(1, 7))
        counts[word] = counts.get(word, 0) + 1
    rows = [{"t": [i % 97, i % 89, i % 83], "len": i % 15, "y": i % 2} for i in range(8_000)]
    decoded = [json.loads(json.dumps(row, separators=(",", ":"))) for row in rows]
    rng = np.random.default_rng(0)
    x = rng.standard_normal((512, 150), dtype=np.float32)
    w = rng.standard_normal((150, 100), dtype=np.float32)
    acc = np.zeros((512, 100), dtype=np.float32)
    for _ in range(300):
        acc += np.tanh(x @ w)
    if len(counts) + len(decoded) + int(acc.shape[0]) <= 0:
        raise SystemExit(1)


if __name__ == "__main__":
    main()

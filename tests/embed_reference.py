"""Line-by-line GloVe text parser: the oracle for ``sarv.embed.load_embeddings``.

This is the straightforward loader the chunked one replaced: every line
is split on whitespace, each of its components goes through ``float()``
and the vector is cast to float32, and a line with the wrong field
count, an unparsable component or a non-finite value is skipped and
counted.  Blank lines are not data.  A duplicate token keeps its last
vector.
"""

from __future__ import annotations

import numpy as np


def reference_load(path, dim: int) -> tuple[dict[str, np.ndarray], int, int]:
    """(token -> float32 vector, loaded line count, skipped line count)."""
    entries: dict[str, np.ndarray] = {}
    loaded = skipped = 0
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if len(parts) != dim + 1:
                if parts:
                    skipped += 1
                continue
            try:
                with np.errstate(over="ignore"):  # out-of-range values become inf
                    vec = np.array([float(p) for p in parts[1:]], dtype=np.float32)
            except ValueError:
                skipped += 1
                continue
            if not np.all(np.isfinite(vec)):
                skipped += 1
                continue
            entries[parts[0]] = vec
            loaded += 1
    return entries, loaded, skipped

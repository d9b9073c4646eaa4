"""The one policy for files checked against a recorded sha256, and the writer behind them.

``load_checkpoint`` checks a checkpoint against the sha256 its last 32
bytes record and ``ShardReader`` each shard against its manifest's; both
go through ``sarv.nn.read_checked``.  One table drives both readers: each
case damages the hashed bytes (a checkpoint's body, before its digest),
with the recorded hash left stale or updated to the damaged bytes, and
names what the error must say.  Shards and checkpoints are written
through ``sarv.nn.replaced_on_success``.
"""

from __future__ import annotations

import hashlib
import io
import os
import re
import struct

import numpy as np
import pytest

import sarv.textproc
from sarv.errors import DataError
from sarv.nn import Parameter, load_checkpoint, save_checkpoint
from sarv.train import ShardInfo, ShardReader, write_shards

from conftest import TRIPPED, Tripwire, tiny_batch


def _checkpoint(tmp_path):
    """(path, its hashed bytes, their recorded sha256, a writer of both, the load) of a checkpoint.

    The hashed bytes are the body, and the writer appends the recorded
    sha256 to the body it is given, as the trailer.
    """
    rng = np.random.default_rng(80)
    path = tmp_path / "model.bin"
    save_checkpoint(path, [Parameter("layer0.W", rng.normal(size=(3, 2)).astype(np.float32)),
                           Parameter("layer0.b", rng.normal(size=(2,)))], {"k": "v"})
    blob = path.read_bytes()

    def write(body, sha256):
        path.write_bytes(body + bytes.fromhex(sha256))

    return path, blob[:-32], blob[-32:].hex(), write, lambda: load_checkpoint(path)


def _shard(tmp_path):
    """(path, its bytes, their recorded sha256, a writer of both, the read) of one shard."""
    manifest = write_shards(tiny_batch(seed=10, n=2), shard_size=2, out_dir=tmp_path)
    info = manifest.shards[0]
    path = manifest.base_dir / info.path

    def write(blob, sha256):
        path.write_bytes(blob)
        manifest.shards[0] = ShardInfo(info.path, info.count, sha256)

    return path, path.read_bytes(), info.sha256, write, lambda: list(ShardReader(manifest))


def _huge_shape(blob: bytes) -> bytes:
    """The checkpoint with its first array's shape raised to 2**32 - 1 rows and columns."""
    at = blob.index(b"layer0.W") + len(b"layer0.W") + 2  # past the dtype code and ndim
    return blob[:at] + struct.pack("<2I", 2**32 - 1, 2**32 - 1) + blob[at + 8:]


def _pickled(blob: bytes) -> bytes:
    """A ``.npy`` file of objects, whose load would unpickle them."""
    out = io.BytesIO()
    np.save(out, np.array([Tripwire(), Tripwire()], dtype=object), allow_pickle=True)
    return out.getvalue()


READERS = {"checkpoint": _checkpoint, "shard": _shard}
CASES = [
    # kind, damage (None: delete the file), whether the recorded hash is updated, message
    ("checkpoint", None, False, "cannot read checkpoint {path}: "),
    ("shard", None, False, "cannot read shard {path}: "),
    ("checkpoint", lambda blob: blob[:-5], False, "checkpoint {path}: hash mismatch"),
    ("shard", lambda blob: blob[:-1], False, "shard {path}: hash mismatch"),
    ("shard", _pickled, False, "shard {path}: hash mismatch"),
    ("checkpoint", _huge_shape, False, "checkpoint {path}: hash mismatch"),
    # cut inside the last array, the first array, the metadata
    ("checkpoint", lambda blob: blob[:-3], True, "malformed checkpoint {path}: "),
    ("checkpoint", lambda blob: blob[:-40], True, "malformed checkpoint {path}: "),
    ("checkpoint", lambda blob: blob[:-85], True, "malformed checkpoint {path}: "),
    ("shard", lambda blob: blob[:-1], True, "malformed shard {path}: array of "),
    ("checkpoint", _huge_shape, True, "malformed checkpoint {path}: array of "),
]


@pytest.mark.parametrize("kind, damage, rehash, message", CASES, ids=[
    "checkpoint-unreadable", "shard-unreadable",
    "checkpoint-stale-hash-short-body", "shard-stale-hash-short-body",
    "shard-stale-hash-pickled-body", "checkpoint-stale-hash-huge-shape",
    "checkpoint-matching-hash-cut-3", "checkpoint-matching-hash-cut-40",
    "checkpoint-matching-hash-cut-85", "shard-matching-hash-short-body",
    "checkpoint-matching-hash-huge-shape",
])
def test_a_damaged_file_is_refused_with_the_hash_first(kind, damage, rehash, message, tmp_path):
    path, blob, recorded, write, read = READERS[kind](tmp_path)
    if damage is None:
        path.unlink()
    else:
        blob = damage(blob)
        write(blob, hashlib.sha256(blob).hexdigest() if rehash else recorded)
    with pytest.raises(DataError, match="^" + re.escape(message.format(path=path))):
        read()
    assert TRIPPED == []


def test_a_write_that_fails_part_way_leaves_no_partial_shard(tmp_path, monkeypatch):
    records = tiny_batch(seed=11, n=8)
    take, calls = np.take, []

    def failing_take(*args, **kwargs):  # the second chunk of the second shard fails
        calls.append(1)
        if len(calls) == 4:
            raise OSError("No space left on device")
        return take(*args, **kwargs)

    monkeypatch.setattr(sarv.textproc, "TOKENIZE_CHUNK", 2)
    monkeypatch.setattr(np, "take", failing_take)
    with pytest.raises(OSError, match="No space left"):
        write_shards(records, shard_size=4, out_dir=tmp_path)
    monkeypatch.undo()
    assert sorted(os.listdir(tmp_path)) == ["data-00000.npy"]  # the first shard is whole
    assert np.load(tmp_path / "data-00000.npy").tobytes() == records[:4].tobytes()

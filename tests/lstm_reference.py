"""Per-gate, unpacked LSTM recurrence: the float64 oracle for ``sarv.nn.Lstm``.

This is the straightforward formulation the fused layer replaced: four
separate gate matmuls over ``[x_t, h_{t-1}]`` at every step of the
padded ``(batch, steps, input)`` sequence, with each row's readout taken
at its last real step and its gradient injected there.  The oracle stays
padded while :class:`sarv.nn.Lstm` takes only the real steps, row-major,
so tests gather them from the padded sequence with a mask
(``np.arange(steps) < lengths[:, None]``) and scatter the layer's input
gradient back through the same mask before comparing.  It shares the
per-gate parameter names with :class:`sarv.nn.Lstm`, so its constructor
copies the layer's gate weights.
"""

from __future__ import annotations

import numpy as np

GATES = ("i", "f", "g", "o")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class ReferenceLstm:
    """Float64 per-gate LSTM whose weights are copied from a ``sarv.nn.Lstm``."""

    def __init__(self, lstm):
        self.input_size = lstm.input_size
        self.hidden_size = lstm.hidden_size
        self.W = {g: lstm.W[g].value.astype(np.float64) for g in GATES}
        self.b = {g: lstm.b[g].value.astype(np.float64) for g in GATES}
        self.dW = {g: np.zeros_like(self.W[g]) for g in GATES}
        self.db = {g: np.zeros_like(self.b[g]) for g in GATES}

    def grads(self) -> dict[str, np.ndarray]:
        """Accumulated gradients keyed by the ``sarv.nn.Lstm`` parameter suffix."""
        out = {f"W_{g}": self.dW[g] for g in GATES}
        out.update({f"b_{g}": self.db[g] for g in GATES})
        return out

    def forward(self, seq: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        seq = np.asarray(seq, dtype=np.float64)
        batch, steps, _ = seq.shape
        lengths = np.asarray(lengths, dtype=np.int64)
        h = np.zeros((batch, self.hidden_size))
        c = np.zeros((batch, self.hidden_size))
        self._cache = []
        self._lengths = lengths
        self._seq_shape = seq.shape
        h_stack = np.empty((batch, steps, self.hidden_size))
        for t in range(steps):
            xh = np.concatenate([seq[:, t, :], h], axis=1)
            i = _sigmoid(xh @ self.W["i"] + self.b["i"])
            f = _sigmoid(xh @ self.W["f"] + self.b["f"])
            g = np.tanh(xh @ self.W["g"] + self.b["g"])
            o = _sigmoid(xh @ self.W["o"] + self.b["o"])
            c_prev = c
            c = f * c_prev + i * g
            tc = np.tanh(c)
            h = o * tc
            h_stack[:, t, :] = h
            self._cache.append(
                {"xh": xh, "i": i, "f": f, "g": g, "o": o, "c_prev": c_prev, "c": c, "tc": tc}
            )
        return h_stack[np.arange(batch), lengths - 1]

    def backward(self, dout: np.ndarray) -> np.ndarray:
        dout = np.asarray(dout, dtype=np.float64)
        batch, steps, _ = self._seq_shape
        lengths = self._lengths
        dseq = np.zeros(self._seq_shape)
        dh = np.zeros((batch, self.hidden_size))
        dc = np.zeros((batch, self.hidden_size))
        for t in range(steps - 1, -1, -1):
            step = self._cache[t]
            at_readout = (lengths - 1 == t)[:, None]
            dh_t = dh + np.where(at_readout, dout, 0)
            i, f, g, o = step["i"], step["f"], step["g"], step["o"]
            tc = step["tc"]
            do = dh_t * tc
            dc_t = dc + dh_t * o * (1.0 - tc * tc)
            di = dc_t * g
            dg = dc_t * i
            df = dc_t * step["c_prev"]
            dc = dc_t * f
            da = {
                "i": di * i * (1.0 - i),
                "f": df * f * (1.0 - f),
                "g": dg * (1.0 - g * g),
                "o": do * o * (1.0 - o),
            }
            xh = step["xh"]
            dxh = np.zeros_like(xh)
            for gate in GATES:
                self.dW[gate] += xh.T @ da[gate]
                self.db[gate] += da[gate].sum(axis=0)
                dxh += da[gate] @ self.W[gate].T
            dseq[:, t, :] = dxh[:, : self.input_size]
            dh = dxh[:, self.input_size:]
        return dseq

"""Two-layer perceptrons with hand-written gradients and the Adam update.

Everything is float64. Inference runs row-wise in ``net_forward_rows`` alone
(``trainer.refine`` and ``synthgen`` call it): one ``_block_forward(net, ...)``
per fixed block of ``ROW_BLOCK`` rows, so a row can differ from an
explicit-loop evaluation in the last bits (summation order; 8.9e-16
measured). It is bit-identical from run to run, and a row's output does not
depend on how many rows follow it. Training runs ``_block_forward`` over each
pair's two node rows (``elbo.elbo_batch_grads``) and its backward pass as
matrix products over the same rows; the weight gradients are one matrix
product per ``GRAD_ROWS`` buffered node rows (see ``NetGrads``).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError, TrainingError

# Rows per matrix product in ``net_forward_rows``.
# Blocks start at row 0 and the last one is padded to full height, because
# the BLAS result for one row may change with the height of the matrix it
# sits in (not with the other rows' values): with fixed blocks, the first m
# rows of a table give the same bits alone or inside the whole table.
ROW_BLOCK = 128

# Node rows per weight-gradient product in ``NetGrads``: a net's buffers
# hold this many rows of each of its four widths, so their size does not
# grow with the batch.
GRAD_ROWS = 64

# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def softplus(x: np.ndarray) -> np.ndarray:
    # log(1 + exp(x)) without overflow for large |x|
    return np.logaddexp(0.0, x)


def sigmoid(x: np.ndarray) -> np.ndarray:
    # 1 / (1 + exp(-x)) without overflow: exactly 0 or 1 far out
    return np.exp(-softplus(-x))


@dataclass(eq=False)
class DiffNet:
    """y = W2 @ relu(W1 @ x + b1) + b2. Shapes are fixed at construction."""

    in_dim: int
    hidden_dim: int
    out_dim: int
    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray

    def __post_init__(self):
        if min(self.in_dim, self.hidden_dim, self.out_dim) < 1:
            raise ShapeError("net dimensions must be positive")
        expected = {
            "W1": (self.hidden_dim, self.in_dim),
            "b1": (self.hidden_dim,),
            "W2": (self.out_dim, self.hidden_dim),
            "b2": (self.out_dim,),
        }
        for name, shape in expected.items():
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != shape:
                raise ShapeError(f"{name} has shape {arr.shape}, expected {shape}")
            if not np.all(np.isfinite(arr)):
                raise TrainingError(f"non-finite values in {name}")
            setattr(self, name, arr)

    @classmethod
    def random(cls, in_dim: int, hidden_dim: int, out_dim: int,
               rng: np.random.Generator) -> "DiffNet":
        """Uniform(+-sqrt(6/(fan_in+fan_out))) weights, zero biases."""
        lim1 = np.sqrt(6.0 / (in_dim + hidden_dim))
        lim2 = np.sqrt(6.0 / (hidden_dim + out_dim))
        return cls(
            in_dim, hidden_dim, out_dim,
            W1=rng.uniform(-lim1, lim1, size=(hidden_dim, in_dim)),
            b1=np.zeros(hidden_dim),
            W2=rng.uniform(-lim2, lim2, size=(out_dim, hidden_dim)),
            b2=np.zeros(out_dim),
        )

    def param_dict(self, prefix: str = "") -> dict[str, np.ndarray]:
        return {f"{prefix}W1": self.W1, f"{prefix}b1": self.b1,
                f"{prefix}W2": self.W2, f"{prefix}b2": self.b2}


class NetGrads:
    """Gradients for one DiffNet, same shapes as the parameters.

    The biases are summed pair by pair. Each weight gradient is a sum of
    per-node outer products, kept as a running sum plus ``GRAD_ROWS``-row
    buffers of the factors: a full buffer is flushed into the sum as one
    matrix product (``W1 += D.T @ X``, ``W2 += U.T @ H``). ``W1`` and ``W2``
    flush before they are read, and so do ``scale_`` and ``param_dict``, so
    no caller sees a partial sum.
    """

    def __init__(self, W1: np.ndarray, b1: np.ndarray, W2: np.ndarray, b2: np.ndarray):
        self._W1, self.b1, self._W2, self.b2 = W1, b1, W2, b2
        (hidden_dim, in_dim), out_dim = W1.shape, W2.shape[0]
        # Per node: hidden delta, net input, output upstream, hidden activation.
        self._dpre, self._x, self._up, self._hid = (
            np.empty((GRAD_ROWS, width)) for width in (hidden_dim, in_dim, out_dim, hidden_dim))
        self._filled = 0

    @classmethod
    def zeros_like(cls, net: DiffNet) -> "NetGrads":
        return cls(np.zeros_like(net.W1), np.zeros_like(net.b1),
                   np.zeros_like(net.W2), np.zeros_like(net.b2))

    @property
    def W1(self) -> np.ndarray:
        self._flush()
        return self._W1

    @property
    def W2(self) -> np.ndarray:
        self._flush()
        return self._W2

    def _add_rows(self, x: np.ndarray, dpre: np.ndarray, hid: np.ndarray,
                  upstream: np.ndarray) -> None:
        """Add the gradients of 2n node rows, side a of n pairs then side b:
        ``dpre.T @ x`` to W1 and ``upstream.T @ hid`` to W2, through the
        buffers in row order, and to b1 and b2 the column sums of ``dpre`` and
        ``upstream`` with each pair's two rows added first, so that rows that
        cancel within every pair add exactly 0."""
        n = len(x) // 2
        self.b1 += (dpre[:n] + dpre[n:]).sum(axis=0)
        self.b2 += (upstream[:n] + upstream[n:]).sum(axis=0)
        start = 0
        while start < len(x):
            k = self._filled
            take = min(GRAD_ROWS - k, len(x) - start)
            for buf, rows in zip((self._dpre, self._x, self._up, self._hid),
                                 (dpre, x, upstream, hid)):
                buf[k:k + take] = rows[start:start + take]
            self._filled, start = k + take, start + take
            if self._filled == GRAD_ROWS:
                self._flush()

    def _flush(self) -> None:
        k = self._filled
        if k:
            self._W1 += self._dpre[:k].T @ self._x[:k]
            self._W2 += self._up[:k].T @ self._hid[:k]
            self._filled = 0

    def scale_(self, c: float) -> "NetGrads":
        for arr in (self.W1, self.b1, self.W2, self.b2):
            arr *= c
        return self

    def param_dict(self, prefix: str = "") -> dict[str, np.ndarray]:
        return {f"{prefix}W1": self.W1, f"{prefix}b1": self.b1,
                f"{prefix}W2": self.W2, f"{prefix}b2": self.b2}


def net_forward_rows(net: DiffNet, *columns) -> np.ndarray:
    """Row-wise forward pass over a matrix of inputs, or over column blocks
    that each padded block takes side by side (no joined copy is built)."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    if (not columns or any(c.ndim != 2 or len(c) != len(columns[0]) for c in columns)
            or sum(c.shape[1] for c in columns) != net.in_dim):
        raise ShapeError(f"inputs of shapes {[c.shape for c in columns]} do not make "
                         f"rows of width {net.in_dim}")
    n = len(columns[0])
    out = np.empty((n, net.out_dim))
    block = np.zeros((ROW_BLOCK, net.in_dim))
    targets = np.split(block, np.cumsum([c.shape[1] for c in columns])[:-1], axis=1)
    hidden, result = np.empty((ROW_BLOCK, net.hidden_dim)), np.empty((ROW_BLOCK, net.out_dim))
    for start in range(0, n, ROW_BLOCK):
        rows = min(ROW_BLOCK, n - start)
        for target, c in zip(targets, columns):
            target[:rows] = c[start:start + rows]
        block[rows:] = 0.0
        _block_forward(net, block, hidden, result)
        out[start:start + rows] = result[:rows]
    return out


def _block_forward(net: DiffNet, block, hidden, out) -> None:
    """``out = relu(block @ W1.T + b1) @ W2.T + b2`` for one block of rows,
    into the caller's ``hidden`` and ``out`` buffers."""
    np.matmul(block, net.W1.T, out=hidden)
    hidden += net.b1
    np.maximum(hidden, 0.0, out=hidden)
    np.matmul(hidden, net.W2.T, out=out)
    out += net.b2


@dataclass(eq=False)
class AdamState:
    """Moment estimates for a named parameter set."""

    learning_rate: float
    step_count: int = 0
    first_moment: dict[str, np.ndarray] = field(default_factory=dict)
    second_moment: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray], learning_rate: float) -> "AdamState":
        state = cls(learning_rate=learning_rate)
        for name, p in params.items():
            state.first_moment[name] = np.zeros_like(p)
            state.second_moment[name] = np.zeros_like(p)
        return state


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState):
    """One bias-corrected Adam update, in place. Returns (params, state)."""
    if set(params) != set(state.first_moment):
        raise ShapeError("parameter names do not match the optimizer state")
    for name, g in grads.items():
        if name not in params:
            raise ShapeError(f"gradient for unknown parameter {name!r}")
        if g.shape != params[name].shape:
            raise ShapeError(f"gradient shape mismatch for {name!r}")
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient for {name!r}")
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    for name, p in params.items():
        g = grads[name]
        m = state.first_moment[name]
        v = state.second_moment[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        p -= state.learning_rate * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
        if not np.all(np.isfinite(p)):
            raise TrainingError(f"non-finite parameter {name!r} after update")
    return params, state

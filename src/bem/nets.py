"""Two-layer perceptrons with hand-written gradients and the Adam update.

Everything is float64. Inference runs row-wise in ``net_forward_rows`` alone
(``trainer.refine`` and ``synthgen`` call it), one fixed block of
``ROW_BLOCK`` rows at a time, so a row can differ from an explicit-loop
evaluation in the last bits (summation order; 8.9e-16 measured). It is
bit-identical from run to run, and a row's output does not depend on how
many rows follow it. Its first product carries the bias: each block has a
trailing column of ones and the first layer is ``[W1 | b1]``, joined once
per call. Training runs its own forward, ``_block_forward``, over each
pair's two node rows (``elbo.elbo_batch_grads``), adding ``b1`` in a separate
pass: it is called once per pair, too often to join the weights per call.
It returns its hidden and output arrays, and the backward pass runs as
matrix products over the same rows; the weight gradients are one matrix
product per ``GRAD_ROWS`` buffered node rows (see ``NetGrads``). There is
no ``sigmoid``: the engine derives it from the softplus it holds.
Training holds parameters, gradient sums and Adam moments in four flat arrays
with each net's tensors as views (``flat_views``): one ``adam_step`` for all.
"""
from __future__ import annotations

from dataclasses import dataclass

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
    """Gradient sums for one DiffNet, in the caller's arrays of the
    parameters' shapes (in training, views of the flat ``grad``).

    The biases are summed pair by pair. Each weight gradient is a sum of
    per-node outer products, kept as a running sum plus ``GRAD_ROWS``-row
    buffers of the factors: a full buffer is flushed into the sum as one
    matrix product (``W1 += D.T @ X``, ``W2 += U.T @ H``). ``W1`` and ``W2``
    hold every added row only after ``flush()``.
    """

    def __init__(self, W1: np.ndarray, b1: np.ndarray, W2: np.ndarray, b2: np.ndarray):
        self.W1, self.b1, self.W2, self.b2 = W1, b1, W2, b2
        (hidden_dim, in_dim), out_dim = W1.shape, W2.shape[0]
        # Per node: hidden delta, net input, output upstream, hidden activation.
        self._dpre, self._x, self._up, self._hid = (
            np.empty((GRAD_ROWS, width)) for width in (hidden_dim, in_dim, out_dim, hidden_dim))
        self._filled = 0

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
                self.flush()

    def flush(self) -> None:
        """Add the buffered rows to W1 and W2."""
        k = self._filled
        if k:
            self.W1 += self._dpre[:k].T @ self._x[:k]
            self.W2 += self._up[:k].T @ self._hid[:k]
            self._filled = 0


def flat_views(flat: np.ndarray, *nets: DiffNet) -> list[dict[str, np.ndarray]]:
    """Per net, its ``param_dict`` as views of consecutive slices of
    ``flat``, net after net: the flat training layout."""
    parts = iter(np.split(flat, np.cumsum([p.size for net in nets
                                           for p in net.param_dict().values()])))
    return [{name: next(parts).reshape(p.shape) for name, p in net.param_dict().items()}
            for net in nets]


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
    # A trailing column of ones meets b1 in the joined first layer.
    block = np.zeros((ROW_BLOCK, net.in_dim + 1))
    block[:, -1] = 1.0
    first = np.hstack([net.W1, net.b1[:, None]]).T
    targets = np.split(block, np.cumsum([c.shape[1] for c in columns]), axis=1)[:-1]
    hidden, result = np.empty((ROW_BLOCK, net.hidden_dim)), np.empty((ROW_BLOCK, net.out_dim))
    for start in range(0, n, ROW_BLOCK):
        rows = min(ROW_BLOCK, n - start)
        for target, c in zip(targets, columns):
            target[:rows] = c[start:start + rows]
        block[rows:, :-1] = 0.0
        np.matmul(block, first, out=hidden)
        np.maximum(hidden, 0.0, out=hidden)
        np.matmul(hidden, net.W2.T, out=result)
        result += net.b2
        out[start:start + rows] = result[:rows]
    return out


def _block_forward(net: DiffNet, block) -> tuple[np.ndarray, np.ndarray]:
    """``(hidden, out)`` for one block of rows, ``hidden = relu(block @ W1.T
    + b1)`` and ``out = hidden @ W2.T + b2``: training's forward over a
    pair's node rows, ``b1`` added in its own pass (see the module docstring)."""
    hidden = block @ net.W1.T
    hidden += net.b1
    np.maximum(hidden, 0.0, out=hidden)
    out = hidden @ net.W2.T
    out += net.b2
    return hidden, out


def adam_step(theta: np.ndarray, grad: np.ndarray, first: np.ndarray,
              second: np.ndarray, t: int, learning_rate: float) -> None:
    """Update ``t`` (counted from 1) of bias-corrected Adam, in place, on
    equal-shape arrays: the parameters, the loss gradient and the two moment
    estimates. Raises TrainingError on a non-finite gradient or update."""
    if not np.all(np.isfinite(grad)):
        raise TrainingError("non-finite gradient")
    with np.errstate(over="ignore", invalid="ignore"):  # refused by the check below
        first *= ADAM_BETA1
        first += (1.0 - ADAM_BETA1) * grad
        second *= ADAM_BETA2
        second += (1.0 - ADAM_BETA2) * (grad * grad)
        denom = np.sqrt(second / (1.0 - ADAM_BETA2 ** t))  # two state-sized temporaries at most
        denom += ADAM_EPS
        theta -= learning_rate * (first / (1.0 - ADAM_BETA1 ** t)) / denom
    if not np.all(np.isfinite(theta)):
        raise TrainingError("non-finite parameter after update")

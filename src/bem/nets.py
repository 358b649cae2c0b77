"""Two-layer perceptrons with hand-written gradients and the Adam update.

Everything is float64. The batched forward pass runs as matrix products
over fixed blocks of ``ROW_BLOCK`` rows, so a batched row can differ from
the single-vector result in the last bits (summation order; 2.8e-16
measured). It is bit-identical from run to run, and a row's output does not
depend on how many rows follow it.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError, TrainingError

# Rows per matrix product in ``net_forward_rows``. Blocks start at row 0 and
# the last one is zero-padded to full height, because the BLAS result for
# one row may change with the height of the matrix it sits in: with fixed
# blocks, the first m rows of a table give the same bits alone or inside
# the whole table.
ROW_BLOCK = 128


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def softplus(x: np.ndarray) -> np.ndarray:
    # log(1 + exp(x)) without overflow for large |x|
    return np.logaddexp(0.0, x)


def sigmoid(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


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

    @classmethod
    def zeros(cls, in_dim: int, hidden_dim: int, out_dim: int) -> "DiffNet":
        return cls(in_dim, hidden_dim, out_dim,
                   W1=np.zeros((hidden_dim, in_dim)), b1=np.zeros(hidden_dim),
                   W2=np.zeros((out_dim, hidden_dim)), b2=np.zeros(out_dim))

    def param_dict(self, prefix: str = "") -> dict[str, np.ndarray]:
        return {f"{prefix}W1": self.W1, f"{prefix}b1": self.b1,
                f"{prefix}W2": self.W2, f"{prefix}b2": self.b2}

    def copy(self) -> "DiffNet":
        return DiffNet(self.in_dim, self.hidden_dim, self.out_dim,
                       self.W1.copy(), self.b1.copy(),
                       self.W2.copy(), self.b2.copy())


@dataclass(eq=False)
class NetGrads:
    """Gradients for one DiffNet, same shapes as the parameters."""

    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray

    @classmethod
    def zeros_like(cls, net: DiffNet) -> "NetGrads":
        return cls(np.zeros_like(net.W1), np.zeros_like(net.b1),
                   np.zeros_like(net.W2), np.zeros_like(net.b2))

    def scale_(self, c: float) -> "NetGrads":
        for arr in (self.W1, self.b1, self.W2, self.b2):
            arr *= c
        return self

    def param_dict(self, prefix: str = "") -> dict[str, np.ndarray]:
        return {f"{prefix}W1": self.W1, f"{prefix}b1": self.b1,
                f"{prefix}W2": self.W2, f"{prefix}b2": self.b2}


def _check_vec(x, dim: int, what: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (dim,):
        raise ShapeError(f"{what} has shape {x.shape}, expected ({dim},)")
    return x


def net_forward(net: DiffNet, x) -> np.ndarray:
    """Evaluate the net on a single input vector."""
    x = _check_vec(x, net.in_dim, "input")
    return net.W2 @ relu(net.W1 @ x + net.b1) + net.b2


def net_forward_rows(net: DiffNet, X) -> np.ndarray:
    """Row-wise forward pass over a matrix of inputs."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != net.in_dim:
        raise ShapeError(f"input matrix has shape {X.shape}, expected (*, {net.in_dim})")
    n = X.shape[0]
    out = np.empty((n, net.out_dim))
    block = np.zeros((ROW_BLOCK, net.in_dim))
    hidden = np.empty((ROW_BLOCK, net.hidden_dim))
    result = np.empty((ROW_BLOCK, net.out_dim))
    for start in range(0, n, ROW_BLOCK):
        rows = min(ROW_BLOCK, n - start)
        block[:rows] = X[start:start + rows]
        block[rows:] = 0.0
        np.matmul(block, net.W1.T, out=hidden)
        hidden += net.b1
        np.maximum(hidden, 0.0, out=hidden)
        np.matmul(hidden, net.W2.T, out=result)
        result += net.b2
        out[start:start + rows] = result[:rows]
    return out


def _forward_cached(net: DiffNet, x: np.ndarray):
    """Forward pass keeping the hidden pre-activation and activation."""
    pre = net.W1 @ x + net.b1
    hid = relu(pre)
    return net.W2 @ hid + net.b2, pre, hid


def _backward_from_cache(net: DiffNet, x: np.ndarray, pre: np.ndarray,
                         hid: np.ndarray, upstream: np.ndarray, acc: NetGrads):
    """Backward pass given cached activations, accumulated into ``acc``.
    Returns ``(acc, d_input)``. The relu subgradient at exactly 0 is 0."""
    dh = net.W2.T @ upstream
    dpre = dh * (pre > 0)
    dx = net.W1.T @ dpre
    acc.W1 += np.outer(dpre, x)
    acc.b1 += dpre
    acc.W2 += np.outer(upstream, hid)
    acc.b2 += upstream
    return acc, dx


def net_backward(net: DiffNet, x, upstream) -> tuple[NetGrads, np.ndarray]:
    """Exact gradients of upstream . net(x) w.r.t. parameters and x."""
    x = _check_vec(x, net.in_dim, "input")
    upstream = _check_vec(upstream, net.out_dim, "upstream gradient")
    _, pre, hid = _forward_cached(net, x)
    return _backward_from_cache(net, x, pre, hid, upstream, NetGrads.zeros_like(net))


@dataclass(eq=False)
class AdamState:
    """Moment estimates for a named parameter set."""

    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    first_moment: dict[str, np.ndarray] = field(default_factory=dict)
    second_moment: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray], learning_rate: float,
                   beta1: float = 0.9, beta2: float = 0.999,
                   eps: float = 1e-8) -> "AdamState":
        state = cls(learning_rate=learning_rate, beta1=beta1, beta2=beta2, eps=eps)
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
    c1 = 1.0 - state.beta1 ** t
    c2 = 1.0 - state.beta2 ** t
    for name, p in params.items():
        g = grads[name]
        m = state.first_moment[name]
        v = state.second_moment[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        p -= state.learning_rate * (m / c1) / (np.sqrt(v / c2) + state.eps)
        if not np.all(np.isfinite(p)):
            raise TrainingError(f"non-finite parameter {name!r} after update")
    return params, state

"""Reference kernels: how fast the host runs the benchmark's kind of work now.

The shared host the benchmark was tuned on changes speed by 30-75% over
minutes with the load of other tenants, and by up to 1.6x within a second,
so a raw rate measured in one run says as much about the neighbours as
about ``bem``. Each re-timed stage call, and each training step, is
bracketed by samples of a fixed kernel of like work; dividing the call's
seconds by the kernel's seconds beside it cancels the host's speed, and
multiplying by the kernel's ``NOMINAL_S`` turns the ratio back into
seconds on a host that runs the kernel in that time.

The kernels use only Python and numpy, never ``bem``, so a change to the
package moves the measured stage and not its reference:

- ``py``: parse and format rows of floats as text, the inner loop of a
  text table reader and writer;
- ``np``: small matrix-vector products, ReLU and an argsort, the per-row
  and per-query numpy calls of refinement, retrieval and training steps.
"""
from __future__ import annotations

import time

import numpy as np

# Seconds of one kernel on a 2-vCPU x86-64 VM (Python 3.11, numpy 2.4, one
# OpenBLAS thread) in its fast state. Only the scale of the reported
# figures depends on these.
NOMINAL_S = {"py": 0.005, "np": 0.004}

# A stage call's reference sample runs for this share of the call's last
# duration, between one kernel and MAX_SAMPLE_S.
SAMPLE_SHARE = 0.1
MAX_SAMPLE_S = 0.3


class Reference:
    def __init__(self):
        rng = np.random.default_rng(20190828)
        values = rng.standard_normal((100, 32))
        self._lines = ["\t".join(format(v, ".17g") for v in row) for row in values]
        self._W1 = rng.standard_normal((128, 48))
        self._W2 = rng.standard_normal((48, 128))
        self._x = rng.standard_normal(48)
        self._sims = rng.standard_normal(20000)
        self._kernels = {"py": self._py, "np": self._np}

    def _py(self) -> None:
        rows = [[float(f) for f in line.split("\t")] for line in self._lines]
        "\n".join("\t".join(format(v, ".17g") for v in row) for row in rows)

    def _np(self) -> None:
        x = self._x
        for _ in range(400):
            h = np.maximum(self._W1 @ x, 0.0)
            x = np.tanh(self._W2 @ h)
        np.argsort(-self._sims, kind="stable")

    def sample(self, kind: str, target_s: float) -> tuple[float, int]:
        """Run the kernel at least once and until ``target_s`` (capped at
        MAX_SAMPLE_S) has passed; return (seconds, kernels run)."""
        kernel = self._kernels[kind]
        target_s = min(target_s, MAX_SAMPLE_S)
        n = 0
        t0 = time.perf_counter()
        while True:
            kernel()
            n += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= target_s:
                return elapsed, n

"""The benchmark's pipeline on two tiny workloads.

``bench/workloads.py`` is imported as it is (read-only, with ``bench/`` on
the import path) and driven the way ``bench/run.py`` drives it: set-up, one
pipeline under a reference-scaled ledger, one round of the re-timed parts
with their checks, and the replay check. A change to ``bem`` that breaks a
call the benchmark makes (a renamed function, a dropped keyword) fails here.
"""
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from bem.trainer import TrainConfig

BENCH = Path(__file__).resolve().parent.parent / "bench"

TINY_WORKLOADS = {
    "trained": dict(spec={"n_entities": 300},
                    cfg=TrainConfig(n_batch=50, hidden_dim=16, epochs=2.0)),
    "untrained-sliced": dict(spec={"n_entities": 600, "n_clusters": 5}, cfg=None,
                             writes_inputs=True, round_rows=100),
}


@pytest.fixture(scope="module")
def bench_modules():
    # No bytecode cache is written under bench/: the import leaves it as it is.
    sys.path.insert(0, str(BENCH))
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import reference
        import workloads
    finally:
        sys.path.remove(str(BENCH))
        sys.dont_write_bytecode = saved
    return workloads, reference


@pytest.mark.parametrize("name", TINY_WORKLOADS)
def test_benchmark_pipeline_runs_and_passes_its_checks(bench_modules, tmp_path, name):
    wl, reference = bench_modules
    workload = wl.Workload(name=name, **TINY_WORKLOADS[name])
    seed = 7
    inputs = wl.setup(workload, seed, tmp_path)
    led = wl.Ledger(reference.Reference())
    result = wl.run_pipeline(workload, inputs, seed, led)
    # One round: every part is called once, bracketed, and its output checked.
    led.retime(result.round_parts, deadline=time.perf_counter())
    assert set(led.timed) == set(result.round_parts)
    replay_led = wl.Ledger()
    wl.replay_check(workload, inputs, result, replay_led)

    checks = {**led.checks, **replay_led.checks}
    assert {f"retimed.{part}" for part in result.round_parts} <= set(checks)
    # A 12-step run cannot beat the raw BG table; every other check must pass.
    failing = [check for check, ok in checks.items()
               if not ok and not check.startswith("quality.")]
    assert failing == []
    for stage in ("load", "write", "refine", "recall"):
        assert wl.stage_rate(led, result.round_parts, stage) > 0.0
    assert np.isfinite(result.oracle_mse) and 0.0 <= result.recall_at_10 <= 1.0
    assert (result.n_steps > 0) is (workload.cfg is not None)

"""Benchmark for ``bem``: one closed-loop client per workload, from one command.

Run from the repository root:

    python3 bench/run.py --workload train-desk --seed 1 --seconds 45 --trace 0

Workloads are ``train-desk`` and ``table-scale``, the two in BENCHMARK.json,
and ``train-bemi`` (see ``workloads.py`` for what each exercises and why).
The run sets up its inputs from ``--seed`` several times and reports the
median as ``setup_s``, then runs whole pipelines one after another for the
first half of ``--seconds`` (at least one). For the rest of ``--seconds``,
outside ``pipeline_s``, the stages that have a row count (load, write,
refine, recall) are called again in turn, one table file or one table per
call, each call bracketed by samples of a reference kernel of like work
(``reference.py``), and each output checked; each stage's rate is its rows
over those calls' seconds scaled to the reference's nominal speed
(``workloads.stage_rate``). On a workload that trains, ``pipeline_s``
scales each training step the same way; other pipeline stages and set-up
are wall time. The unscaled rates and pipeline times are in the detail
record. Every end-to-end metric is printed
by name and unit, then a detail record (provenance, checks, extra figures)
as one JSON line, then the result as the last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 1`` the metrics are the per-layer split instead: each
iteration runs one untraced pipeline, then set-up and the same pipeline
under the tracer, and reports per-iteration self times, call counts and
rates, plus ``trace.overhead_frac``.

Any failed call or correctness check makes ``correct`` false and the exit
code 1. A checkout without ``src/bem`` exits with code 2 and no result.
BLAS is pinned to one thread before numpy is imported.
"""
from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# Set-up runs at least SETUP_REPEATS times and until it has run SETUP_MIN_S.
SETUP_REPEATS = 3
SETUP_MIN_S = 3.0

# Traced functions whose call counts are reported beside their self time.
COUNTED = ("elbo.elbo_pair_accumulate_grads", "elbo.estimate_prior",
           "elbo.draw_pair_eps", "elbo.infer_posterior", "nets.adam_step",
           "nets.net_forward", "trainer.sample_paired_batches")


def provenance(root: Path, seed: int) -> dict:
    import numpy as np

    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
        sha = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30,
                             env=env).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


RATE_STAGES = {"refine_rows_per_s": "refine", "load_rows_per_s": "load",
               "write_rows_per_s": "write", "recall_queries_per_s": "recall"}


def rates(result, normalized: bool = True) -> dict:
    """Stage rates from the pipeline result whose ledger holds the re-timed calls."""
    from workloads import stage_rate

    return {metric: stage_rate(result.ledger, result.round_parts, stage, normalized)
            for metric, stage in RATE_STAGES.items()}


def end_to_end(results, setup_s, attempted: int, failed: int) -> dict:
    first = results[0]
    return {
        "setup_s": statistics.median(setup_s),
        "pipeline_s": statistics.median([r.pipeline_s for r in results]),
        **rates(results[-1]),
        "oracle_mse": first.oracle_mse,
        "recall_at_10": first.recall_at_10,
        "classify_acc": first.classify_acc,
        "peak_rss_mb": peak_rss_mb(),
        "ops_ok_frac": 1.0 - failed / attempted,
    }


def train_figures(workload, results) -> dict:
    """Untraced training figures; zero on a workload that does not train."""
    if workload.cfg is None:
        return {"train_s": 0.0, "train_pairs_per_s": 0.0, "train_step_s_p50": 0.0}
    train_s = statistics.median([r.ledger.calls["train"][0] for r in results])
    return {
        "train_s": train_s,
        "train_pairs_per_s": results[0].n_steps * workload.cfg.n_batch / train_s,
        "train_step_s_p50": statistics.median(s for r in results for s in r.step_s),
    }


def per_layer(workload, inputs, untraced, traced, tracers) -> dict:
    """Per-iteration means over the traced iterations."""
    from tracer import TRACED
    from workloads import step_gflop

    n_it = len(tracers)

    def total(qualname, what):
        return sum(getattr(t.stats[qualname], what) for t in tracers) / n_it

    def work(qualname, key):
        return sum(t.stats[qualname].work.get(key, 0.0) for t in tracers) / n_it

    def per_s(qualname, key):
        busy = total(qualname, "total_s")
        return work(qualname, key) / busy if busy > 0 else 0.0

    m = {}
    for layer, names in TRACED.items():
        for name in names:
            m[f"{layer}.{name}.s"] = total(f"{layer}.{name}", "self_s")
    for q in COUNTED:
        m[f"{q}.calls"] = total(q, "calls")
    m["trainer.refine.rows_per_s"] = per_s("trainer.refine", "rows")
    for q in ("dataio.load_table", "dataio.write_table"):
        m[f"{q}.rows_per_s"] = per_s(q, "rows")
        m[f"{q}.bytes_per_s"] = per_s(q, "bytes")
    m["evalkit.hit_recall.queries_per_s"] = per_s("evalkit.hit_recall", "queries")
    queries = work("evalkit.hit_recall", "queries")
    m["evalkit.hit_recall.skipped_frac"] = (
        work("evalkit.hit_recall", "skipped") / queries if queries else 0.0)
    train_total = total("trainer.train", "total_s")
    m["elbo.elbo_pair_accumulate_grads.train_share"] = (
        m["elbo.elbo_pair_accumulate_grads.s"] / train_total if train_total else 0.0)

    figures = train_figures(workload, untraced)
    m.update(figures)
    gflop = 0.0
    if workload.cfg is not None:
        gflop = step_gflop(workload.cfg, inputs.truth.kg.dim, inputs.truth.bg.dim)
    m["trainer.step.gflop_computed"] = gflop
    m["trainer.step.gflop_per_s"] = (
        gflop / figures["train_step_s_p50"] if figures["train_step_s_p50"] else 0.0)
    m["trace.overhead_frac"] = (
        statistics.median([r.pipeline_s for r in traced])
        / statistics.median([r.pipeline_s for r in untraced]) - 1.0)
    return m


def layer_counters() -> dict:
    def file_bytes(path) -> float:
        return float(os.path.getsize(path))

    return {
        "dataio.load_table": lambda a, kw, res: {"rows": len(res),
                                                 "bytes": file_bytes(a[0])},
        "dataio.write_table": lambda a, kw, res: {"rows": len(a[0]),
                                                  "bytes": file_bytes(a[1])},
        "trainer.refine": lambda a, kw, res: {"rows": len(res[0])},
        "evalkit.hit_recall": lambda a, kw, res: {
            "queries": sum(len(v) for v in a[2].values()),
            "skipped": res.skipped_triggers},
    }


def run(args, root: Path, work_dir: Path) -> tuple[dict, dict, int, int]:
    import workloads as wl
    from reference import Reference
    from tracer import Tracer

    workload = wl.WORKLOADS[args.workload]
    run_led = wl.Ledger()
    setup_s = []
    while len(setup_s) < SETUP_REPEATS or sum(setup_s) < SETUP_MIN_S:
        t0 = time.perf_counter()
        inputs = wl.setup(workload, args.seed, work_dir)
        setup_s.append(time.perf_counter() - t0)

    untraced, traced, tracers, ledgers = [], [], [], []

    # Untraced, re-timed stage calls and training steps are scaled by
    # reference samples (reference.py).
    ref = None if args.trace else Reference()

    def pipeline(inp):
        led = wl.Ledger(ref)
        ledgers.append(led)
        return wl.run_pipeline(workload, inp, args.seed, led)

    t_start = time.perf_counter()
    deadline = t_start + args.seconds
    # Untraced, whole pipelines take the first half of the time (at least
    # one), and re-calls of the row-counted stages the rest; traced, each
    # iteration is an untraced and a traced pipeline, for all of the time.
    pipelines_end = deadline if args.trace else t_start + args.seconds / 2
    try:
        while True:
            t_iter = time.perf_counter()
            untraced.append(pipeline(inputs))
            if args.trace:
                with Tracer(layer_counters()) as tracer:
                    traced_inputs = wl.setup(workload, args.seed, work_dir)
                    traced.append(pipeline(traced_inputs))
                tracers.append(tracer)
            now = time.perf_counter()
            if now + (now - t_iter) > pipelines_end:
                break
        if not args.trace:
            untraced[-1].ledger.retime(untraced[-1].round_parts, deadline)
        wl.replay_check(workload, inputs, untraced[0], run_led)
    except Exception:
        traceback.print_exc()
        run_led.attempted += 1
        run_led.failed += 1

    if untraced:
        run_led.check("determinism.pipelines",
                      all(wl.same_outputs(untraced[0], r) for r in untraced + traced))
    attempted = run_led.attempted + sum(led.attempted for led in ledgers)
    failed = run_led.failed + sum(led.failed for led in ledgers)
    checks = {}
    for led in [*ledgers, run_led]:
        for name, ok in led.checks.items():
            checks[name] = checks.get(name, True) and ok

    detail = {"workload": workload.name, "provenance": provenance(root, args.seed),
              "checks": checks,
              "pipelines": len(untraced), "setup_s_all": setup_s}
    if not untraced or (args.trace and not traced):
        return detail, {}, max(attempted, 1), max(failed, 1)
    detail["raw_bg_mse"] = untraced[0].raw_mse
    detail["pipeline_s_all"] = [r.pipeline_s for r in untraced]
    detail["pipeline_wall_s_all"] = [r.pipeline_wall_s for r in untraced]
    detail["stage_s"] = {name: sum(calls)
                         for name, calls in untraced[0].ledger.calls.items()}
    detail.update(train_figures(workload, untraced))
    if not args.trace:
        last = untraced[-1]
        detail["raw_rates"] = rates(last, normalized=False)
        detail["retimed_calls"] = {name: len(t) for name, t in last.ledger.timed.items()}
        kernel_s = {}
        for name, part in last.round_parts.items():
            kernel_s.setdefault(wl.STAGE_REFERENCE[part.stage], []).extend(
                k for _, k in last.ledger.timed.get(name, []))
        detail["kernel_s"] = {kind: statistics.median(v) for kind, v in kernel_s.items()}
    if args.trace:
        detail["absent"] = tracers[0].absent
        metrics = per_layer(workload, inputs, untraced, traced, tracers)
    else:
        metrics = end_to_end(untraced, setup_s, attempted, failed)
    return detail, metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("train-desk", "train-bemi", "table-scale"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "bem" / "__init__.py").is_file():
        print(f"no bem package under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    work_dir = Path(tempfile.mkdtemp(prefix=".bench_tmp-", dir=root))
    try:
        detail, metrics, attempted, failed = run(args, root, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    # BENCHMARK.json is the one list of metric names and units.
    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    if metrics and set(metrics) != set(units):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} "
                         "disagree with BENCHMARK.json")
    for name, value in metrics.items():
        print(f"{args.workload:12s} {name:46s} {value:>16.6g} {units[name]}")
    print(json.dumps({"detail": detail}))
    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Run the benchmark once per seed and summarise each metric's spread.

    python3 bench/spread.py --workloads train-desk table-scale --seeds 1-10 \\
        [--trace 0] [--out bench/results/NAME.json]

Each run is a separate process, one after another, from the current
directory. For every workload and metric it reports the median, the
quartiles from ``statistics.quantiles(values, n=4)`` and the spread
(Q3 - Q1) / median, and flags a spread above a third of the metric's
bound in BENCHMARK.json. With ``--out`` the summary, every run's values
and detail record, and the first run's provenance are written as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(command, workload: str, seed: int, seconds: int, trace: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run([*command, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    return {"seed": seed, "wall_s": time.perf_counter() - t0, "result": result,
            "detail": detail}


def summarise(runs: list[dict], bounds: dict) -> dict:
    out = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else 0.0
        out[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                     "bound": bounds.get(name), "values": values}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in parse_seeds(args.seeds):
            runs.append(run_once(spec["command"], workload, seed,
                                 spec["run_seconds"], args.trace))
            print(f"{workload} seed {seed}: {runs[-1]['wall_s']:.1f} s", file=sys.stderr)
        summary = summarise(runs, bounds)
        report.setdefault("provenance", runs[0]["detail"]["provenance"])
        report["workloads"][workload] = {
            "seeds": [r["seed"] for r in runs],
            "wall_s": [r["wall_s"] for r in runs],
            "details": [{k: v for k, v in r["detail"].items() if k != "provenance"}
                        for r in runs],
            "metrics": summary}
        for name, m in summary.items():
            flag = ""
            if m["bound"] is not None and name != "setup_s" and m["spread"] > m["bound"] / 3:
                flag = "  SPREAD > bound/3"
            print(f"{workload:12s} {name:46s} median {m['median']:<14.6g} "
                  f"spread {m['spread']:.4f}{flag}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

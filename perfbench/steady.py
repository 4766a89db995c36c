"""Run the benchmark on several workloads and seeds; report medians and spreads.

    python3 perfbench/steady.py [--workloads sweeps,campaign,service] \\
        [--seeds 1-10] [--seconds S] [--trace 0|1]

One command for every workload: prints each run's metrics, then per
workload and metric the median with its unit and the distance between
the first and third quartile as a share of the median (the spread the
bounds in ``BENCHMARK.json`` are compared with).  Runs of one seed must
print identical exact counts (``--seeds 3,3`` repeats seed 3).  Exits 1
when a spread other than ``setup_s`` exceeds a third of its bound, a
count differs between runs of one seed, or a run is not correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, str]:
    """One benchmark run: its result object and its exact-counts line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stdout}{proc.stderr}")
    counts = next(line for line in lines if line.startswith("counts: "))
    return json.loads(lines[-1]), counts


def check_workload(workload: str, seeds: list[int], seconds: float, trace: int,
                   spec: dict) -> list[str]:
    """Run ``workload`` on ``seeds``; print its report, return problems."""
    values: dict[str, list[float]] = defaultdict(list)
    units: dict[str, str] = {}
    counts_by_seed: dict[int, set[str]] = defaultdict(set)
    bad = []
    for seed in seeds:
        result, counts = run_once(workload, seed, seconds, trace)
        counts_by_seed[seed].add(counts)
        if not result["correct"]:
            bad.append(f"{workload} seed {seed}: not correct")
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
            units[name] = metric["unit"]
        print(f"{workload} seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name, vals in values.items():
        med = statistics.median(vals)
        line = f"{workload:9s} {name:28s} median {med:12.6g} {units[name]:9s}"
        if len(vals) > 1 and med != 0:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(med)
            line += f" spread {spread:6.3f}"
            bound = bounds.get(name)
            if bound is not None and name != "setup_s" and spread > bound / 3:
                line += f"  > bound/3 ({bound / 3:.3f})"
                bad.append(f"{workload} {name} spread {spread:.3f}")
        print(line, flush=True)
    for seed, seen in counts_by_seed.items():
        if len(seen) > 1:
            bad.append(f"{workload} seed {seed}: exact counts differ between runs")
    return bad


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default=None,
                        help="comma-separated (default: every workload in BENCHMARK.json)")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,1,2,2")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    bad = []
    for workload in workloads:
        bad += check_workload(workload, parse_seeds(args.seeds),
                              args.seconds or spec["run_seconds"], args.trace, spec)
    for line in bad:
        print(f"NOT STEADY: {line}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

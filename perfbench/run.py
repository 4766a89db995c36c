"""The repo benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload sweeps|campaign|service \\
        --seed N --seconds S --trace 0|1

Run from the repository root.  Every measurement happens in a fresh
interpreter (``worker.py``) with a hermetic environment: the ``REPRO_*``
variables are cleared, the executor is pinned to one job, and every
cache and ledger lives in a per-run directory under ``.perfbench_runs/``
that is removed afterwards.

Times are reported at quiet-host speed (see ``hostspeed.py``); the raw
figures and the host's slowdown are printed beside them.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` is the median
over three fresh set-ups (two set-up-only probes and the measured run).
``--trace 1`` runs the workload untraced and then traced, and prints the
per-layer split from the traced run plus the tracing overhead between
the two.  Metric names, units and directions come from
``BENCHMARK.json``.  The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

import numpy as np
from scipy.stats import beta

import hostspeed
from tracer import COUNT, LAYER, LAYERS, NAME, T0, T1, self_times

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()

#: Environment that would change what the system does; cleared per run.
CLEARED_ENV = ("REPRO_CACHE", "REPRO_PARALLEL", "REPRO_FAST_PATH", "REPRO_GIT_SHA",
               "REPRO_LEDGER_TS", "REPRO_SEED")

#: Extra set-up-only processes per untraced run (``setup_s`` is the
#: median of these and the measured run's own set-up).
SETUP_PROBES = 2


def hermetic_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)  # git looks no further up
    return env


def run_worker(args, tmp_root: Path, *, traced: bool = False, setup_only: bool = False) -> dict:
    tmp = Path(tempfile.mkdtemp(dir=tmp_root))
    out = tmp / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--tmp", str(tmp), "--out", str(out)]
    if traced:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    # A session of its own, so a timeout also stops the worker's server.
    proc = subprocess.Popen(cmd, cwd=tmp, env=hermetic_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, start_new_session=True)
    try:
        output, _ = proc.communicate(timeout=min(150.0, 4 * args.seconds + 60))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        output, _ = proc.communicate()
    if proc.returncode != 0 or not out.is_file():
        raise SystemExit(f"worker failed (exit {proc.returncode}):\n{output[-3000:]}")
    return json.loads(out.read_text())


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=hermetic_env(),
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def latencies(result: dict) -> list[float]:
    return [op["t1"] - op["t0"] for op in result["ops"]]


def slowed_ops(result: dict) -> tuple[list[dict], list[float]]:
    """The ops in start order, and the host slowdown around each."""
    ops = sorted(result["ops"], key=lambda op: op["t0"])
    return ops, hostspeed.slowdowns([op["loop_s"] for op in ops])


def quiet_latencies(result: dict) -> list[float]:
    """Op latencies at quiet-host speed."""
    ops, slow = slowed_ops(result)
    return [(op["t1"] - op["t0"]) / s for op, s in zip(ops, slow)]


def quiet_wall_s(result: dict) -> float:
    """The run's wall time at quiet-host speed: the time from each op's
    start to the next one's (the last one's to the run's end), divided by
    the slowdown around that op."""
    ops, slow = slowed_ops(result)
    ends = [op["t0"] for op in ops[1:]] + [ops[0]["t0"] + result["wall_s"]]
    return sum(max(0.0, end - op["t0"]) / s for op, end, s in zip(ops, ends, slow))


def run_slowdown(result: dict) -> float:
    return hostspeed.slowdown([op["loop_s"] for op in result["ops"]])


def quiet_setup_s(result: dict) -> float:
    return result["setup_s"] / hostspeed.slowdown(result["setup_loops"])


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile: a Beta-weighted mean
    of all order statistics.  Unlike one order statistic it stays put
    when the sample is multimodal (a sweep pass mixes 10 ms and 80 ms
    figures, so the plain median falls in the gap between them)."""
    ordered = np.sort(values)
    n = len(ordered)
    weights = np.diff(beta.cdf(np.arange(n + 1) / n, q * (n + 1), (1 - q) * (n + 1)))
    return float(weights @ ordered)


def failures(result: dict) -> int:
    return sum(not op["ok"] for op in result["ops"])


# -------------------------------------------------------------- end to end


def end_to_end(result: dict, setups: list[float]) -> dict[str, float]:
    """The end-to-end metrics at quiet-host speed (``setups`` already are)."""
    lat = quiet_latencies(result)
    passed = len(lat) - failures(result)
    rss = result["server"]["rss_mb"] if "server" in result else result["rss_mb"]
    return {
        "ops_per_s": passed / quiet_wall_s(result),
        "op_p50_ms": 1e3 * quantile(lat, 0.5),
        "op_p95_ms": 1e3 * quantile(lat, 0.95),
        "peak_rss_mb": rss,
        "setup_s": statistics.median(setups),
    }


# --------------------------------------------------------------- per layer


def attribute(result: dict) -> dict:
    """Sum span self times, durations, calls and counts over the ops.

    A span belongs to the op whose request id it carries (its own or an
    ancestor's) and whose client-side window contains it.  In-process
    workloads give each op a root ``op`` span; the service joins server
    spans to client ops by job key.
    """
    server = result.get("server") or {}
    dumps = result.get("spans") or server.get("spans") or []
    windows = defaultdict(list)
    for op in result["ops"]:
        windows[op["rid"]].append(op)
    agg = {"self": defaultdict(float), "self_by_name": defaultdict(float),
           "dur": defaultdict(float), "calls": defaultdict(int), "count": defaultdict(int),
           "append_ms": [], "replicate": defaultdict(lambda: [0.0, 0])}
    for spans in dumps:
        for span, self_s, rid in self_times(spans):
            op = next((op for op in windows.get(rid, ())
                       if op["t0"] <= span[T0] and span[T1] <= op["t1"]), None)
            if op is None:
                continue
            name, dur = span[NAME], span[T1] - span[T0]
            agg["self"][span[LAYER]] += self_s
            agg["self_by_name"][name] += self_s
            agg["dur"][name] += dur
            agg["calls"][name] += 1
            agg["count"][name] += span[COUNT]
            if name == "ledger.append":
                agg["append_ms"].append(1e3 * dur)
            if name == "campaign.replicate":
                agg["replicate"][op["label"]][0] += dur
                agg["replicate"][op["label"]][1] += 1
    total = sum(latencies(result))
    agg["self"]["harness"] = total - sum(v for k, v in agg["self"].items() if k != "harness")
    return agg


def per_layer(result: dict, untraced: dict) -> tuple[dict[str, float], dict]:
    """The per-layer metrics of a traced run, times at quiet-host speed."""
    ops = result["ops"]
    speed = run_slowdown(result)
    n = len(ops)
    agg = attribute(result)
    server = result.get("server") or {}
    counters = result.get("counters") or server.get("counters") or {}

    def ms(seconds: float) -> float:
        """Milliseconds per op."""
        return 1e3 * seconds / n / speed

    def per(count: float) -> float:
        """Count per op."""
        return count / n

    calls, dur, count, self_ = agg["calls"], agg["dur"], agg["count"], agg["self"]

    fast = count["analytic.try_fast_path"] + count["analytic.batch"]
    des = calls["analytic.try_fast_path"] - count["analytic.try_fast_path"]
    lookups, hits = calls["cache.get"], count["cache.get"]
    append_ms = agg["append_ms"]
    is_service = "server" in result
    computed = sum(op.get("source") == "computed" for op in ops)

    def replicate_ms(model: str) -> float:
        spent, reps = agg["replicate"].get(model, (0.0, 0))
        return 1e3 * spent / reps / speed if reps else 0.0

    traced_mean = statistics.fmean(quiet_latencies(result))
    untraced_mean = statistics.fmean(quiet_latencies(untraced))
    metrics = {
        "experiments.self_ms": ms(self_["experiments"]),
        "experiments.sim_points": per(counters.get("experiments.sim_points", 0)),
        "analytic.points": per(fast),
        "analytic.des_points": per(des),
        "analytic.share": fast / (fast + des) if fast + des else 0.0,
        "analytic.self_ms": ms(self_["analytic"]),
        "des.run_calls": per(calls["des.run"]),
        "des.run_ms": ms(dur["des.run"]),
        "apps.self_ms": ms(self_["apps"]),
        "apps.overlap_report_ms": ms(dur["apps.overlap_report"]),
        "campaign.tasks_ms": ms(dur["campaign.tasks"]),
        "campaign.replicate_ms": ms(agg["self_by_name"]["campaign.replicate"]),
        "campaign.aggregate_ms": ms(agg["self_by_name"]["campaign.run"]),
        "campaign.replicates": per(calls["campaign.replicate"]),
        "campaign.stall_replicate_ms": replicate_ms("stall"),
        "campaign.jitter_replicate_ms": replicate_ms("jitter"),
        "tune.evals_analytic": per(counters.get("tune.evals.analytic", 0)),
        "tune.evals_des": per(counters.get("tune.evals.des", 0)),
        "tune.self_ms": ms(self_["tune"]),
        "executor.maps": per(calls["executor.map"]),
        "executor.self_ms": ms(self_["executor"]),
        "cache.lookups": per(lookups),
        "cache.hits": per(hits),
        "cache.puts": per(calls["cache.put"]),
        "cache.hit_ratio": hits / lookups if lookups else 0.0,
        "cache.get_ms": ms(dur["cache.get"]),
        "cache.put_ms": ms(dur["cache.put"]),
        "ledger.appends": per(calls["ledger.append"]),
        "ledger.append_p50_ms": quantile(append_ms, 0.5) / speed if append_ms else 0.0,
        "ledger.append_p95_ms": quantile(append_ms, 0.95) / speed if append_ms else 0.0,
        "ledger.git_sha_ms": ms(dur["ledger.git_sha"]),
        "ledger.bytes_end": float(server.get("ledger_bytes", 0)),
        "service.submit_ms": ms(sum(op.get("submit_s", 0.0) for op in ops)),
        "service.wait_polls": per(sum(op.get("polls", 0) for op in ops)),
        "service.queue_wait_ms": ms(sum(op.get("queue_wait_s", 0.0) for op in ops)),
        "service.run_ms": ms(dur["service.run"]),
        "service.normalize_ms": ms(dur["service.normalize"]),
        "service.computed": per(computed) if is_service else 0.0,
        "service.reused": per(n - computed) if is_service else 0.0,
        "service.repeat_share": per(server.get("repeats", 0)),
        "service.rejected": per(sum(op.get("rejected", False) for op in ops)),
        "service.retried": per((server.get("queue_counters") or {}).get("retried", 0)),
        "trace.overhead_pct": 100.0 * (traced_mean / untraced_mean - 1.0),
        "trace.unattributed_pct": 100.0 * self_["harness"] / sum(latencies(result)),
    }
    table = {layer: ms(self_[layer]) for layer in LAYERS}
    return metrics, {"table": table, "mean_ms": ms(sum(latencies(result)))}


def exact_counts(result: dict, metrics: dict | None) -> dict:
    """Counts that must repeat exactly across runs of one seed: per op
    over whole op cycles, so a time-bounded run's length does not change
    them, and the service's fixed schedule in full."""
    n = len(result["ops"])
    server = result.get("server")
    program = result.get("counters") or server["counters"]
    counts = {"failed": failures(result)}
    counts.update({f"{name}/op": value / n for name, value in program.items()})
    if server:
        counts["attempted"] = n
        counts["server_counters"] = server["queue_counters"]
        counts["server_cache"] = server["cache_stats"]
    if metrics:
        for name in ("analytic.points", "analytic.des_points", "des.run_calls",
                     "campaign.replicates", "cache.lookups", "cache.hits", "cache.puts",
                     "ledger.appends", "service.computed", "service.reused",
                     "experiments.sim_points", "tune.evals_analytic", "tune.evals_des"):
            counts[name] = metrics[name]
    return counts


# -------------------------------------------------------------------- main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro source under {ROOT / 'src'}; run from the repo root",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    tmp_root = ROOT / ".perfbench_runs"
    tmp_root.mkdir(exist_ok=True)
    tmp_root = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        if args.trace:
            untraced = run_worker(args, tmp_root)
            result = run_worker(args, tmp_root, traced=True)
            values, extra = per_layer(result, untraced)
            wanted = spec["per_layer"]
        else:
            runs = [run_worker(args, tmp_root, setup_only=True) for _ in range(SETUP_PROBES)]
            result = run_worker(args, tmp_root)
            setups = [quiet_setup_s(r) for r in runs + [result]]
            values, extra = end_to_end(result, setups), {"setups": setups}
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
        try:
            tmp_root.parent.rmdir()
        except OSError:
            pass

    attempted, failed = len(result["ops"]), failures(result)
    problems = list(result.get("lifecycle_errors", []))
    if args.trace:
        problems += [f"untraced run: {line}" for line in
                     untraced["errors"] + untraced.get("lifecycle_errors", [])]
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} python={platform.python_version()} nproc={os.cpu_count()} "
          f"git={git_sha()}")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:28s} {values[m['name']]:14.6f} {m['unit']}")
    print(f"  {'error_rate':28s} {failed / attempted:14.6f} ratio "
          f"({failed} failed / {attempted} attempted ops)")
    lat = latencies(result)
    print(f"  host slowdown {run_slowdown(result):.4f}; raw: ops_per_s "
          f"{(attempted - failed) / result['wall_s']:.4f}, op_p50_ms "
          f"{1e3 * quantile(lat, 0.5):.4f}, op_p95_ms {1e3 * quantile(lat, 0.95):.4f}")
    if args.trace:
        print(f"per-layer self time, ms per op (traced mean op latency "
              f"{extra['mean_ms']:.3f} ms):")
        for layer, value in extra["table"].items():
            print(f"  {layer:12s} {value:10.3f}  {100 * value / extra['mean_ms']:6.1f}%")
    else:
        print("  setup_s samples: " + ", ".join(f"{s:.4f}" for s in extra["setups"]))
        print(f"  op latency samples: {attempted}")
    print("counts: " + json.dumps(exact_counts(result, values if args.trace else None),
                                  sort_keys=True))
    for line in result["errors"] + problems:
        print(f"  problem: {line}")
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

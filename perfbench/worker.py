"""One benchmark process: set up, run one workload's ops, write a result.

Started by ``run.py`` in a fresh interpreter with a hermetic
environment.  ``setup_s`` runs from this interpreter's first statement
(before ``import repro``) to the first timed op, warm-up included.  With
``--setup-only`` the process stops there.  The result is one JSON
document written to ``--out``.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402
import tracer  # noqa: E402
import workloads as W  # noqa: E402

HERE = Path(__file__).resolve().parent

#: Program counters the reports read (summed over labels, except that
#: ``fastpath.points`` splits by path into ``fastpath.analytic``/``.des``).
COUNTERS = ("experiments.sim_points", "tune.evals.analytic", "tune.evals.des",
            "campaign.replicates", "fastpath.analytic", "fastpath.des")


def counter_totals() -> dict[str, float]:
    from repro.obs import REGISTRY

    totals = dict.fromkeys(COUNTERS, 0.0)
    for item in REGISTRY.snapshot():
        name = item["name"]
        if name == "fastpath.points":
            name = f"fastpath.{item['labels'].get('path')}"
        if name in totals:
            totals[name] += item["value"]
    return totals


def peak_rss_mb() -> float:
    """Peak resident memory of this process image.

    ``VmHWM``, not ``ru_maxrss``: the latter keeps the parent's size from
    before ``exec``, so it would read the launcher's memory instead.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def setup_done() -> dict:
    """Set-up time so far, and the host-speed loop right after it."""
    setup_s = perf_counter() - T_START
    loops = [hostspeed.loop_seconds() for _ in range(hostspeed.WINDOW)]
    return {"setup_s": setup_s, "setup_loops": loops}


class Run:
    """Op records of one measured run."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.ops: list[dict] = []
        self.errors: list[str] = []

    def op(self, label: str, call, check) -> None:
        """Time ``call()`` as one op, then ``check(result)`` its output."""
        rid = f"op-{len(self.ops)}"
        loop_s = hostspeed.loop_seconds()
        span = tracer.open_span("op", "harness", rid) if self.traced else None
        t0 = perf_counter()
        try:
            result = call()
            error = None
        except Exception as exc:  # noqa: BLE001 - a failed op is counted
            result, error = None, f"{label}: {type(exc).__name__}: {exc}"
        t1 = perf_counter()
        if span is not None:
            tracer.close_span(span)
        if error is None:
            error = check(result)
        if error is not None and len(self.errors) < 5:
            self.errors.append(error)
        self.ops.append({"rid": rid, "label": label, "t0": t0, "t1": t1, "ok": error is None,
                         "loop_s": loop_s})


def _digest_error(label: str, got: str, want: str | None) -> str | None:
    if want is None:
        return f"{label}: no reference digest"
    return None if got == want else f"{label}: output digest {got[:12]} != reference {want[:12]}"


# ----------------------------------------------------------------- sweeps


def run_sweeps(args, ref: dict, run: Run) -> dict:
    from repro import experiments as E

    def check_for(name):
        def check(res):
            if not res.ok:
                return f"{name}: reproduction checks failed"
            return _digest_error(name, W.experiment_digest(res), ref["sweeps"].get(name))
        return check

    with E.configured(jobs=1, cache=False):
        for name in W.sweep_pass(args.seed, -1):
            error = check_for(name)(E.ALL_EXPERIMENTS[name]())
            if error:
                raise SystemExit(f"warm-up failed: {error}")
        setup = setup_done()
        if args.setup_only:
            return setup
        before = counter_totals()
        t0 = perf_counter()
        index = 0
        while perf_counter() - t0 < args.seconds:
            for name in W.sweep_pass(args.seed, index):
                run.op(name, E.ALL_EXPERIMENTS[name], check_for(name))
            index += 1
        wall = perf_counter() - t0
    return {**setup, "wall_s": wall, "counters": _delta(before)}


def _delta(before: dict[str, float]) -> dict[str, float]:
    return {k: v - before[k] for k, v in counter_totals().items()}


# --------------------------------------------------------------- campaign


def run_campaign_ops(args, ref: dict, run: Run) -> dict:
    from repro.campaign import run_campaign

    def op_for(index):
        app, model, cseed = W.campaign_op(args.seed, index)
        key = W.campaign_key(app, model, cseed)
        spec = W.campaign_spec(app, model, cseed)

        def check(manifest):
            if manifest["failures"]:
                return f"{key}: {manifest['failures']} failed replicates"
            return _digest_error(key, W.digest(manifest), ref["campaign"].get(key))
        return model, (lambda: run_campaign(spec, jobs=1, cache=False)), check

    for index in range(-len(W.CAMPAIGN_CYCLE), 0):
        _, call, check = op_for(index)
        error = check(call())
        if error:
            raise SystemExit(f"warm-up failed: {error}")
    setup = setup_done()
    if args.setup_only:
        return setup
    before = counter_totals()
    t0 = perf_counter()
    index = 0
    while perf_counter() - t0 < args.seconds:
        for _ in W.CAMPAIGN_CYCLE:
            model, call, check = op_for(index)
            run.op(model, call, check)
            index += 1
    wall = perf_counter() - t0
    return {**setup, "wall_s": wall, "counters": _delta(before)}


# ---------------------------------------------------------------- service


def prefill_ledger(path: Path, lines: int) -> None:
    """Write ``lines`` prior ``service`` entries, as a long-lived server's
    ledger holds them (same line format ``RunLedger.append`` writes)."""
    from repro.obs.ledger import LEDGER_SCHEMA, service_entry

    with open(path, "w", encoding="utf-8") as fh:
        for seq in range(1, lines + 1):
            entry = service_entry(
                {"job": f"j-{seq:06d}", "job_kind": "design", "outcome": "computed",
                 "key": f"{seq:064x}", "priority": "default", "client": "prior",
                 "queue_wait_s": 0.001, "run_s": 0.05, "attempts": 1,
                 "dedup_count": 0, "result_hash": f"{seq:064x}"},
                git_sha="0" * 40,
            )
            entry.update(schema=LEDGER_SCHEMA, seq=seq, ts="2026-01-01T00:00:00Z")
            fh.write(json.dumps(entry, sort_keys=True) + "\n")


class Server:
    """``repro serve`` in a subprocess, through the benchmark launcher."""

    def __init__(self, tmp: Path, traced: bool) -> None:
        self.stats_path = tmp / "server-stats.json"
        self.ledger = tmp / "ledger.jsonl"
        prefill_ledger(self.ledger, W.LEDGER_PREFILL)
        cmd = [sys.executable, str(HERE / "serve.py"), "--stats", str(self.stats_path)]
        if traced:
            cmd.append("--trace")
        cmd += ["serve", "--port", "0", "--jobs", "1", "--cache", str(tmp / "cache"),
                "--ledger", str(self.ledger)]
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        self.stderr_path = tmp / "server-stderr.txt"
        with open(self.stderr_path, "w", encoding="utf-8") as stderr:
            self.proc = subprocess.Popen(cmd, cwd=tmp, env=env, stdout=subprocess.PIPE,
                                         stderr=stderr, text=True)
        self.port = self._read_port()

    def _read_port(self) -> int:
        marker = "co-design service listening on "
        for line in self.proc.stdout:
            if marker in line:
                return int(line.rsplit(":", 1)[1])
        self.stop()
        raise SystemExit(f"server exited before listening: {self.stderr_text()}")

    def stderr_text(self) -> str:
        return self.stderr_path.read_text(encoding="utf-8")[-2000:]

    def stop(self) -> int:
        """SIGTERM drain; returns the exit code (killed after 60 s)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        return self.proc.returncode


def _wait_healthy(client, timeout: float = 30.0) -> None:
    deadline = perf_counter() + timeout
    while perf_counter() < deadline:
        try:
            if client.healthz().get("status") == "ok":
                return
        except OSError:
            pass
    raise SystemExit("server never answered /v1/healthz")


def run_service(args, ref: dict, run: Run) -> dict:
    from repro.service import ServiceClient, ServiceError

    class CountingClient(ServiceClient):
        """``ServiceClient`` counting its status polls."""

        polls = 0

        def status(self, job_id):
            self.polls += 1
            return super().status(job_id)

    server = Server(Path(args.tmp), run.traced)
    try:
        warm = CountingClient(port=server.port, client_id="bench-warmup")
        _wait_healthy(warm)
        job_ids: set[str] = set()
        record_lock = threading.Lock()

        def one_job(client, template, record: bool) -> None:
            kind, params = template
            tid = W.template_id(template)
            client.polls = 0
            loop_s = hostspeed.loop_seconds()
            t0 = perf_counter()
            error = None
            rejected = False
            doc: dict = {}
            try:
                doc = client.submit(kind, params)
                t_submit = perf_counter()
                if doc.get("state") not in ("completed", "failed"):
                    doc = client.wait(doc["id"], timeout=120)
            except (ServiceError, OSError, TimeoutError) as exc:
                error = f"{tid}: {exc}"
                rejected = isinstance(exc, ServiceError)
                t_submit = perf_counter()
            t1 = perf_counter()
            if error is None:
                if doc.get("state") != "completed":
                    error = f"{tid}: job {doc.get('state')}: {doc.get('error')}"
                elif not W.result_checks_pass(kind, doc["result"]):
                    error = f"{tid}: reproduction checks failed"
                else:
                    error = _digest_error(tid, doc["result_hash"], ref["service"].get(tid))
            if not record:
                if error:
                    raise SystemExit(f"warm-up failed: {error}")
                job_ids.add(doc["id"])
                return
            with record_lock:
                if "id" in doc:
                    job_ids.add(doc["id"])
                if error is not None and len(run.errors) < 5:
                    run.errors.append(error)
                run.ops.append({
                    "rid": doc.get("key"), "label": kind, "t0": t0, "t1": t1,
                    "ok": error is None, "submit_s": t_submit - t0, "polls": client.polls,
                    "queue_wait_s": doc.get("queue_wait_s") or 0.0,
                    "source": doc.get("source"), "rejected": rejected, "loop_s": loop_s,
                })

        for _ in range(2):
            one_job(warm, W.WARMUP_TEMPLATE, record=False)
        setup = setup_done()
        schedules = [] if args.setup_only else W.service_schedule(args.seed, args.seconds)

        def client_loop(c: int, ops: list) -> None:
            client = CountingClient(port=server.port, client_id=f"bench-{c}")
            for template in ops:
                one_job(client, template, record=True)

        threads = [threading.Thread(target=client_loop, args=(c, ops), name=f"client-{c}")
                   for c, ops in enumerate(schedules)]
        t0 = perf_counter()
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        wall = perf_counter() - t0
        queue = warm.queue()
    finally:
        code = server.stop()
    if args.setup_only:
        return setup
    stats = json.loads(server.stats_path.read_text()) if server.stats_path.is_file() else {}
    lifecycle = _check_lifecycle(server, code, len(job_ids), stats)
    repeats = sum(len(ops) for ops in schedules) - sum(len(set(map(W.template_id, ops)))
                                                     for ops in schedules)
    counts = queue["counters"]
    if counts["cache_hit"] + counts["deduped"] != repeats + 1:  # + the warm-up repeat
        lifecycle.append(f"server reused {counts['cache_hit'] + counts['deduped']} jobs, "
                         f"schedule repeats {repeats} + 1 warm-up")
    return {
        **setup, "wall_s": wall, "lifecycle_errors": lifecycle,
        "server": {"rss_mb": stats.get("rss_mb"), "counters": stats.get("counters"),
                   "spans": stats.get("spans"), "queue_counters": counts,
                   "cache_stats": queue["cache"],
                   "ledger_bytes": server.ledger.stat().st_size, "repeats": repeats},
    }


def _check_lifecycle(server: Server, code: int, jobs: int, stats: dict) -> list[str]:
    """Exit code 0 after the SIGTERM drain, and one whole ledger line per
    finished job on top of the prefill."""
    from repro.obs.ledger import LedgerError, RunLedger

    problems = []
    if code != 0:
        problems.append(f"server exit code {code}: {server.stderr_text()}")
    if not stats:
        problems.append("server wrote no stats on shutdown")
    try:
        lines = len(RunLedger(server.ledger).entries())
    except LedgerError as exc:
        problems.append(f"torn ledger: {exc}")
    else:
        if lines != W.LEDGER_PREFILL + jobs:
            problems.append(f"ledger has {lines} lines, want {W.LEDGER_PREFILL} + {jobs} jobs")
    return problems


# ------------------------------------------------------------------- main

WORKLOADS = {"sweeps": run_sweeps, "campaign": run_campaign_ops, "service": run_service}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    ref = json.loads((HERE / "reference.json").read_text())
    run = Run(args.trace)
    if args.trace and args.workload != "service":  # the server traces itself
        tracer.install()
    out = WORKLOADS[args.workload](args, ref, run)
    out.update(ops=run.ops, errors=run.errors, rss_mb=peak_rss_mb())
    if args.trace and args.workload != "service":
        out["spans"] = tracer.dump()
    Path(args.out).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

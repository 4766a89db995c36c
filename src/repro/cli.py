"""Command-line interface: ``repro-xd1``.

Runs the paper's experiments from the shell::

    repro-xd1 lu                 # headline LU comparison (Figure 9, left)
    repro-xd1 fw                 # headline FW comparison (Figure 9, right)
    repro-xd1 plan-lu --n 30000  # just the design-model decisions
    repro-xd1 plan-fw --n 92160
    repro-xd1 machines           # predicted performance across presets

Any ``lu``/``fw`` run also accepts ``--trace-out timeline.json`` (a
Chrome ``trace_event`` timeline of the simulated lanes plus harness
wall-clock spans), ``--metrics-out metrics.jsonl`` (counters, gauges,
histograms and the overlap-accounting report), and ``--cache DIR``
(replay the baseline comparison through the shared result cache).

The job commands -- ``lu``, ``fw``, ``faults sweep``, ``campaign run``
and ``tune run`` -- are front-ends over the service's job layer: each
turns its flags into job params, normalizes them with
:func:`repro.service.jobs.normalize_request` (which owns every default)
and runs the manifest in-process with
:func:`repro.service.runners.run_manifest`, so a command's result is the
result a ``repro-xd1 serve`` job with the same params returns.

The observatory commands sit under ``repro-xd1 obs``::

    obs summary --metrics m.jsonl      # pretty-print a metrics file
    obs check   --metrics m.jsonl      # gate on overlap_efficiency
    obs ledger record --metrics m.jsonl --trace t.json --ledger L
    obs ledger list|diff|check --ledger L
    obs dashboard --ledger L [--html dashboard.html]
    obs explain --baseline base.json --manifest cur.json [--cell KEY]

Fault injection and graceful degradation under ``repro-xd1 faults``::

    faults run   --app lu --scenario degraded-link --policy repartition
    faults sweep --apps lu,fw --scenarios degraded-link,flaky-dma --ledger L
    faults report --ledger L

Replicated statistical campaigns under ``repro-xd1 campaign``::

    campaign run   --replicates 20 --seed 7 --out campaign.json --ledger L
    campaign report --manifest campaign.json        # or --ledger L
    campaign check --baseline base.json --manifest campaign.json [--explain]
    campaign figures --manifest campaign.json       # box plots (+ timeline)

Guided design-space search under ``repro-xd1 tune``::

    tune run --space fig5-bf --out tune.json --ledger L
    tune run --kind block_mm --fixed b=3000 --axis b_f=0:3000:200 --axis k=2,4,6,8
    tune report --manifest tune.json                # or --ledger L

The co-design job server (docs/service.md) under ``serve``/``client``::

    serve --port 8080 --cache .repro_cache --ledger L
    client submit sweep --param experiments=fig5 --wait
    client status JOB | wait JOB | result JOB ; client queue

Exit codes: 0 is success.  1 means a gate failed: ``obs check``, ``obs
ledger check``, ``campaign check``, ``experiments`` or ``validate``, or a
failed job under ``client submit --wait`` / ``client wait``.  2 means bad
input, a ledger error or a service error, printed as one ``error:`` line
by :func:`main`, the CLI's only error boundary.

Schemas: docs/observability.md; fault scenarios and policies:
docs/robustness.md; the guided search: docs/performance.md ("Guided
search").  All output goes through one BrokenPipe-safe writer, so
``repro-xd1 ... | head`` never stack-traces.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from importlib import import_module
from pathlib import Path

from .analysis import bar_chart, percent, table
from .apps import build_design
from .apps.fw import FwDesign
from .apps.lu import LuDesign
from .hw import FloydWarshallDesign, MatrixMultiplyDesign
from .machine import ALL_PRESETS, cray_xd1
from .obs import LedgerError, RunLedger
from .obs.console import safe_print as _p


def _obs_enabled(args: argparse.Namespace) -> bool:
    return bool(getattr(args, "trace_out", None) or getattr(args, "metrics_out", None))


def _obs_run(args: argparse.Namespace, app: str, design, params: dict) -> None:
    """The ``--trace-out`` / ``--metrics-out`` tail of an app command.

    Runs one *traced* hybrid simulation with a DES monitor attached,
    reconciles it against the plan's prediction, and writes whichever
    exports were requested.  DES wall throughput is published as the
    ``des.events_per_s`` gauge so the run ledger can record it.
    """
    from .obs import REGISTRY, get_tracer, write_chrome_trace, write_metrics_jsonl
    from .sim import SimMonitor

    tracer = get_tracer()
    monitor = SimMonitor()
    t0 = time.perf_counter()
    with tracer.span(f"{app}.traced_run", category="cli", n=params["n"], p=params["p"]):
        result = design.simulate(trace=True, monitor=monitor)
    wall = time.perf_counter() - t0
    report = design.overlap_report(result=result)
    monitor.to_registry(REGISTRY, app=app)
    if wall > 0 and monitor.events_fired:
        REGISTRY.gauge("des.events_per_s", app=app).set(monitor.events_fired / wall)
    _p(report.summary())
    if args.trace_out:
        path = write_chrome_trace(
            args.trace_out, sim_trace=result.trace,
            spans=tracer.spans, span_epoch=tracer.epoch,
        )
        _p(f"trace written to {path} (chrome://tracing / Perfetto)")
    if args.metrics_out:
        path = write_metrics_jsonl(
            args.metrics_out, REGISTRY, overlap=[report],
            extra={
                "app": app, "n": params["n"], "b": params["b"],
                "p": params["p"], "preset": "xd1",
                "partition": design.partition_params(),
            },
        )
        _p(f"metrics written to {path}")


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write a Chrome trace_event timeline of a traced hybrid run",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write metrics JSON-lines (counters, histograms, overlap report)",
    )


def _add_exec_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", default=None,
        help="worker processes (int or 'auto'; default: $REPRO_PARALLEL or serial)",
    )
    parser.add_argument(
        "--cache", default=None,
        help="result-cache directory ('off' disables; default: $REPRO_CACHE or no cache)",
    )


# ------------------------------------------------------------ shared paths


def _json_text(doc) -> str:
    """The CLI's one JSON form: sorted keys, two-space indent."""
    return json.dumps(doc, indent=2, sort_keys=True)


def _emit(as_json: bool, doc, render) -> None:
    """Print ``doc`` as JSON (``--json``) or as ``render(doc)``."""
    _p(_json_text(doc) if as_json else render(doc))


def _write_out(path: str, text: str, what: str, note: str = "") -> None:
    """Write ``text`` to ``path`` (parents created) and say so."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    _p(f"{what} written to {path}{note}")


def _append(path: str, entries: list[dict], what: str) -> None:
    """Append ``entries`` to the run ledger at ``path`` and say so."""
    ledger = RunLedger(path)
    for entry in entries:
        ledger.append(entry)
    _p(f"{what} appended to {ledger.path}")


def _load_source(args: argparse.Namespace, kind: str, load) -> dict:
    """The manifest named by ``--manifest``, else the latest ``kind`` entry
    of ``--ledger``."""
    if args.manifest:
        return load(args.manifest)
    if not args.ledger:
        raise ValueError("pass --manifest PATH or --ledger PATH")
    entries = RunLedger(args.ledger).entries(kind=kind)
    if not entries:
        raise LedgerError(f"{args.ledger}: no {kind} entries")
    return entries[-1]


def _run_job(
    kind: str,
    params: dict,
    *,
    jobs=None,
    cache=None,
    telemetry: dict | None = None,
    env_seed: bool = False,
) -> tuple[dict, object]:
    """Run a ``kind`` job in-process through the service's job layer.

    Unset flags (None) are left out, so the kind's normalizer supplies
    every default; with ``env_seed`` an unset ``--seed`` falls back to
    ``$REPRO_SEED``.  Returns ``(normalized params, result document)``; a
    rejected request raises ``ValueError``.
    """
    from .campaign import resolve_seed
    from .parallel import executor_for
    from .service.jobs import normalize_request
    from .service.runners import RunnerContext, run_manifest

    with executor_for(jobs) as executor:
        if env_seed:
            params["seed"] = resolve_seed(params.get("seed"))
        manifest = normalize_request(kind, {k: v for k, v in params.items() if v is not None})
        ctx = RunnerContext(executor, cache, telemetry=telemetry)
        return manifest["params"], run_manifest(manifest, ctx)


#: Per app: chart title and the paper's claims for the four ratios
#: (speedup vs CPU-only, vs FPGA-only, of baseline sum, of prediction).
_FIG9 = {
    "lu": ("LU decomposition", ("1.3x", "2x", "~80%", "~86%")),
    "fw": ("Floyd-Warshall", ("5.8x", "1.15x", ">95%", "~96%")),
}


def _render_compare(app: str, params: dict, cmp: dict) -> list[str]:
    """The Figure 9 chart and ratio lines of a ``design`` job result."""
    title, paper = _FIG9[app]
    return [
        bar_chart(
            ["Hybrid", "Processor-only", "FPGA-only", "Predicted"],
            [cmp["hybrid"], cmp["cpu_only"], cmp["fpga_only"], cmp["predicted"]],
            f"{title}, n={params['n']}, b={params['b']}, p={params['p']} (GFLOPS)",
            unit=" GFLOPS",
        ),
        f"speedup vs CPU-only  : {cmp['speedup_vs_cpu']:.2f}x (paper: {paper[0]})",
        f"speedup vs FPGA-only : {cmp['speedup_vs_fpga']:.2f}x (paper: {paper[1]})",
        f"of baseline sum      : {percent(cmp['fraction_of_sum'])} (paper: {paper[2]})",
        f"of model prediction  : {percent(cmp['fraction_of_predicted'])} "
        f"(paper: {paper[3]})",
    ]


def _cmd_design(args: argparse.Namespace) -> int:
    """``lu`` / ``fw``: the Figure 9 comparison as a ``design`` job.

    Without ``--cache`` the comparison runs with the cache off; with it,
    a warm cache replays the stored ``lu_compare``/``fw_compare`` values
    and the cache footer reports the lookups.
    """
    from .parallel import as_cache

    app = args.app
    if _obs_enabled(args):
        from .obs import Tracer, set_tracer

        set_tracer(Tracer())
    cache = as_cache(args.cache) if args.cache is not None else None
    params, result = _run_job(
        "design", {"app": app, "n": args.n, "b": args.b, "p": args.p}, cache=cache
    )
    design = build_design(app, n=params["n"], b=params["b"], p=params["p"])
    split = " ".join(
        f"{name}={value}" for name, value in design.partition_params().items() if name != "k"
    )
    _p(f"plan: {split} predicted={design.predicted_gflops:.2f} GFLOPS")
    for line in _render_compare(app, params, result["compare"]):
        _p(line)
    if cache is not None:
        _p(cache.footer())
    if _obs_enabled(args):
        _obs_run(args, app, design, params)
    return 0


def _cmd_plan_lu(args: argparse.Namespace) -> None:
    design = LuDesign(cray_xd1(p=args.p), n=args.n, b=args.b)
    part, bal = design.plan.partition, design.plan.balance
    rows = [
        ["b_p (CPU rows)", part.b_p],
        ["b_f (FPGA rows)", part.b_f],
        ["b_f exact (Eq. 4)", f"{part.b_f_exact:.1f}"],
        ["T_p / stripe", f"{part.t_p * 1e3:.3f} ms"],
        ["T_f / stripe", f"{part.t_f * 1e3:.3f} ms"],
        ["T_comm / stripe", f"{part.t_comm * 1e3:.3f} ms"],
        ["T_mem / stripe", f"{part.t_mem * 1e3:.3f} ms"],
        ["l (Eq. 5)", bal.l],
        ["SRAM words", part.sram_words],
        ["coordination", f"{design.plan.coordination_hz:.1f} Hz"],
        ["predicted", f"{design.plan.prediction.gflops:.2f} GFLOPS"],
    ]
    _p(table(["decision", "value"], rows, title=f"LU plan (n={args.n}, b={args.b})"))


def _cmd_plan_fw(args: argparse.Namespace) -> None:
    design = FwDesign(cray_xd1(p=args.p), n=args.n, b=args.b)
    part = design.plan.partition
    rows = [
        ["l1 (CPU ops/phase)", part.l1],
        ["l2 (FPGA ops/phase)", part.l2],
        ["l1 exact (Eq. 6)", f"{part.l1_exact:.2f}"],
        ["T_p / op", f"{part.t_p * 1e3:.1f} ms"],
        ["T_f / op", f"{part.t_f * 1e3:.1f} ms"],
        ["T_comm / phase", f"{part.t_comm * 1e3:.3f} ms"],
        ["T_mem / op", f"{part.t_mem * 1e3:.3f} ms"],
        ["coordination", f"{design.plan.coordination_hz:.2f} Hz"],
        ["predicted", f"{design.plan.prediction.gflops:.2f} GFLOPS"],
    ]
    _p(table(["decision", "value"], rows, title=f"FW plan (n={args.n}, b={args.b})"))


def _cmd_machines(args: argparse.Namespace) -> None:
    from .core import DesignModel

    rows = []
    for key, factory in ALL_PRESETS.items():
        spec = factory()
        mm = MatrixMultiplyDesign.for_device(spec.node.fpga.device)
        fwd = FloydWarshallDesign.for_device(spec.node.fpga.device)
        lu_pred = DesignModel(spec.parameters("dgemm", mm)).plan_lu(
            args.n, 3000, mm.k
        ).prediction.gflops if spec.p >= 2 else float("nan")
        fw_n = 256 * spec.p * 60
        fw_pred = DesignModel(spec.parameters("fw", fwd)).plan_fw(fw_n, 256, fwd.k).prediction.gflops
        rows.append([spec.name, spec.p, mm.k, f"{mm.freq_hz / 1e6:.0f} MHz",
                     f"{lu_pred:.1f}", f"{fw_pred:.2f}"])
    _p(table(
        ["machine", "p", "k", "F_f(MM)", "LU GFLOPS (pred)", "FW GFLOPS (pred)"],
        rows,
        title="Design-model predictions across machine presets (Section 4.5)",
    ))


def _service_error() -> type:
    """The client's ``ServiceError``, imported only once an exception is
    in flight, so no command pays for the service package up front."""
    from .service import ServiceError

    return ServiceError


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``repro-xd1`` console script, and the CLI's one
    error boundary: see the module docstring's exit codes."""
    from .campaign import DEFAULT_ALPHA, DEFAULT_EFFECT
    from .obs.ledger import LEDGER_SCHEMA

    parser = argparse.ArgumentParser(
        prog="repro-xd1",
        description="Reproduce Zhuo & Prasanna (IPPS 2007) experiments on a simulated Cray XD1.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for app, n, b, side in (("lu", 30000, 3000, "left"), ("fw", 92160, 256, "right")):
        cmd = sub.add_parser(app, help=f"headline {app.upper()} comparison "
                                       f"(Fig. 9 {side})")
        cmd.add_argument("--n", type=int, default=None, help=f"default {n}")
        cmd.add_argument("--b", type=int, default=None, help=f"default {b}")
        cmd.add_argument("--p", type=int, default=None, help="default 6")
        cmd.add_argument("--cache", default=None, metavar="DIR",
                         help="replay the comparison through this result cache")
        _add_obs_flags(cmd)
        cmd.set_defaults(fn=_cmd_design, app=app)

    plu = sub.add_parser("plan-lu", help="LU design-model decisions only")
    plu.add_argument("--n", type=int, default=30000)
    plu.add_argument("--b", type=int, default=3000)
    plu.add_argument("--p", type=int, default=6)
    plu.set_defaults(fn=_cmd_plan_lu)

    pfw = sub.add_parser("plan-fw", help="FW design-model decisions only")
    pfw.add_argument("--n", type=int, default=92160)
    pfw.add_argument("--b", type=int, default=256)
    pfw.add_argument("--p", type=int, default=6)
    pfw.set_defaults(fn=_cmd_plan_fw)

    mach = sub.add_parser("machines", help="predictions across machine presets")
    mach.add_argument("--n", type=int, default=30000)
    mach.set_defaults(fn=_cmd_machines)

    val = sub.add_parser("validate", help="functional validation (real numerics)")
    val.set_defaults(fn=_cmd_validate)

    exp = sub.add_parser("experiments", help="run the full table/figure harness")
    exp.add_argument("--only", help="comma-separated experiment ids", default=None)
    _add_exec_flags(exp)
    exp.add_argument(
        "--ledger", default=None, metavar="PATH",
        help="append an 'experiments' manifest to this run ledger",
    )
    exp.add_argument(
        "--fast-path",
        choices=("auto", "on", "off"),
        default=None,
        help="analytic no-contention fast path for sweep points "
        "(auto: use when bitwise-safe, on: require, off: always DES; "
        "default: $REPRO_FAST_PATH or auto)",
    )
    _add_obs_flags(exp)
    exp.set_defaults(fn=_cmd_experiments)

    obs = sub.add_parser("obs", help="inspect / gate metrics files and the run ledger")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    osum = obs_sub.add_parser("summary", help="pretty-print a metrics JSON-lines file")
    osum.add_argument("--metrics", required=True, metavar="PATH")
    osum.set_defaults(fn=_cmd_obs_summary)
    ochk = obs_sub.add_parser(
        "check", help="fail unless every overlap report meets the efficiency floor"
    )
    ochk.add_argument("--metrics", required=True, metavar="PATH")
    ochk.add_argument("--min", type=float, default=0.85, dest="minimum",
                      help="overlap_efficiency floor (default 0.85)")
    ochk.add_argument("--app", default=None, help="only check this app's reports")
    ochk.set_defaults(fn=_cmd_obs_check)

    led = obs_sub.add_parser(
        "ledger",
        help=f"the append-only run ledger (schema {LEDGER_SCHEMA})",
    )
    led_sub = led.add_subparsers(dest="ledger_command", required=True)

    lrec = led_sub.add_parser("record", help="append manifests for a recorded run")
    lrec.add_argument("--metrics", required=True, metavar="PATH",
                      help="metrics JSON-lines file of the run (--metrics-out)")
    lrec.add_argument("--trace", default=None, metavar="PATH",
                      help="Chrome trace of the run (--trace-out); enables "
                      "critical-path attribution in the manifest")
    lrec.add_argument("--ledger", required=True, metavar="PATH")
    lrec.add_argument("--preset", default=None, help="machine preset key (default: header)")
    lrec.add_argument("--source", default="cli", help="who recorded this (cli/ci/bench)")
    lrec.add_argument("--git-sha", default=None, dest="git_sha",
                      help="override the recorded commit SHA")
    lrec.add_argument("--note", default=None, help="free-form annotation")
    lrec.set_defaults(fn=_cmd_ledger_record)

    llist = led_sub.add_parser("list", help="tabulate ledger entries")
    llist.add_argument("--ledger", required=True, metavar="PATH")
    llist.add_argument("--app", default=None)
    llist.add_argument("--limit", type=int, default=None, help="newest N entries only")
    llist.set_defaults(fn=_cmd_ledger_list)

    ldiff = led_sub.add_parser("diff", help="per-field delta between two entries")
    ldiff.add_argument("--ledger", required=True, metavar="PATH")
    ldiff.add_argument("a", help="entry ref: seq number, negative index, or 'latest'")
    ldiff.add_argument("b", help="entry ref: seq number, negative index, or 'latest'")
    ldiff.set_defaults(fn=_cmd_ledger_diff)

    lchk = led_sub.add_parser(
        "check", help="gate on fidelity: fail when a series drops below the band"
    )
    lchk.add_argument("--ledger", required=True, metavar="PATH")
    lchk.add_argument("--band", type=float, default=0.85,
                      help="overlap_efficiency floor (default 0.85, the paper's claim)")
    lchk.add_argument("--drift", type=float, default=0.05,
                      help="non-fatal warning threshold for latest-vs-history drift")
    lchk.add_argument("--app", default=None, help="only check this app's series")
    lchk.set_defaults(fn=_cmd_ledger_check)

    dash = obs_sub.add_parser("dashboard", help="render the fidelity observatory")
    dash.add_argument("--ledger", required=True, metavar="PATH")
    dash.add_argument("--band", type=float, default=0.85)
    dash.add_argument("--html", default=None, metavar="PATH",
                      help="also write a self-contained HTML dashboard")
    dash.set_defaults(fn=_cmd_obs_dashboard)

    oexp = obs_sub.add_parser(
        "explain", help="root-cause diff of campaign cells (paired traced re-runs)"
    )
    oexp.add_argument("--baseline", required=True, metavar="PATH",
                      help="baseline campaign manifest JSON")
    oexp.add_argument("--manifest", required=True, metavar="PATH",
                      help="current campaign manifest JSON")
    oexp.add_argument("--cell", default=None, metavar="KEY",
                      help="comma-separated cell keys (default: every cell the "
                           "statistical check flags)")
    oexp.add_argument("--replicate", type=int, default=None,
                      help="replicate index to re-run (default: the completed "
                           "one nearest the current median)")
    oexp.add_argument("--alpha", type=float, default=DEFAULT_ALPHA,
                      help="Mann-Whitney significance level (default 0.05)")
    oexp.add_argument("--effect", type=float, default=DEFAULT_EFFECT,
                      help="relative median-shift threshold (default 0.02)")
    oexp.add_argument("--ledger", default=None, metavar="PATH",
                      help="append 'explain' entries to this run ledger")
    oexp.add_argument("--out", default=None, metavar="PATH",
                      help="write the explain manifests as a JSON array")
    oexp.add_argument("--json", action="store_true",
                      help="emit the explain manifests as JSON")
    oexp.set_defaults(fn=_cmd_obs_explain)

    flt = sub.add_parser("faults", help="fault injection and graceful degradation")
    flt_sub = flt.add_subparsers(dest="faults_command", required=True)

    frun = flt_sub.add_parser("run", help="one fault run: nominal vs faulted + policy")
    frun.add_argument("--app", default="lu", choices=("lu", "fw"))
    frun.add_argument("--preset", default="xd1")
    frun.add_argument("--scenario", default="degraded-link",
                      help="library scenario name (see docs/robustness.md)")
    frun.add_argument("--policy", default="repartition",
                      help="fail-fast | degrade-static | repartition | exclude-node")
    frun.add_argument("--factor", type=float, default=None,
                      help="rate factor for the scenario (e.g. 0.5 = half bandwidth)")
    frun.add_argument("--at", type=float, default=None, help="fault onset time (s)")
    frun.add_argument("--duration", type=float, default=None,
                      help="fault window length (default: persists to the end)")
    frun.add_argument("--node", type=int, default=None, help="target node id")
    frun.add_argument("--seed", type=int, default=0, help="scenario RNG seed")
    frun.add_argument("--n", type=int, default=None, help="problem size (app default)")
    frun.add_argument("--b", type=int, default=None, help="block size (app default)")
    frun.add_argument("--ledger", default=None, metavar="PATH",
                      help="append a 'fault_run' manifest to this run ledger")
    frun.add_argument("--json", action="store_true", help="emit the result as JSON")
    frun.set_defaults(fn=_cmd_faults_run)

    fswp = flt_sub.add_parser("sweep", help="apps x scenarios x policies fault grid")
    fswp.add_argument("--apps", default=None, help="comma-separated (default lu,fw)")
    fswp.add_argument("--scenarios", default=None,
                      help="comma-separated library scenario names "
                           "(default degraded-link,dram-contention,flaky-dma)")
    fswp.add_argument("--policies", default=None,
                      help="comma-separated policy names "
                           "(default degrade-static,repartition)")
    fswp.add_argument("--preset", default=None, help="machine preset (default xd1)")
    fswp.add_argument("--factor", type=float, default=None,
                      help="rate factor applied to every rate scenario")
    fswp.add_argument("--seed", type=int, default=None,
                      help="scenario RNG seed (default 0)")
    _add_exec_flags(fswp)
    fswp.add_argument("--ledger", default=None, metavar="PATH",
                      help="append one 'fault_run' manifest per grid point")
    fswp.add_argument("--out", default=None, metavar="PATH",
                      help="write the raw result dicts as JSON")
    fswp.set_defaults(fn=_cmd_faults_sweep)

    frep = flt_sub.add_parser("report", help="resilience report from a run ledger")
    frep.add_argument("--ledger", required=True, metavar="PATH")
    frep.add_argument("--json", action="store_true", help="emit the report as JSON")
    frep.set_defaults(fn=_cmd_faults_report)

    cmp_ = sub.add_parser(
        "campaign", help="replicated statistical campaigns and drift checks"
    )
    cmp_sub = cmp_.add_subparsers(dest="campaign_command", required=True)

    crun = cmp_sub.add_parser(
        "run", help="apps x scenarios grid, N seeded replicates per cell"
    )
    crun.add_argument("--apps", default=None, help="comma-separated (default lu,fw)")
    crun.add_argument("--preset", default=None,
                      help="machine preset, or a comma-separated list for a "
                           "multi-preset grid (e.g. xd1,xt3,rasc; default xd1)")
    crun.add_argument("--scenarios", default=None,
                      help="comma-separated library scenario names (default nominal)")
    crun.add_argument("--replicates", type=int, default=None,
                      help="replicates per cell (default 20)")
    crun.add_argument("--seed", default=None,
                      help="master seed (default: $REPRO_SEED, else 0)")
    crun.add_argument("--jitter", type=float, default=None,
                      help="bandwidth/DRAM/clock jitter amplitude (default 0.05)")
    crun.add_argument("--stalls", type=int, default=None,
                      help="transient DMA stalls per replicate (arrival noise; "
                           "default 4)")
    crun.add_argument("--throttle-fpga", type=float, default=None, metavar="FACTOR",
                      help="persistent FPGA clock factor on every cell (e.g. 0.8)")
    crun.add_argument("--factor", type=float, default=None,
                      help="rate factor for the base scenarios")
    _add_exec_flags(crun)
    crun.add_argument("--out", default=None, metavar="PATH",
                      help="write the campaign manifest as JSON")
    crun.add_argument("--ledger", default=None, metavar="PATH",
                      help="append a 'campaign' manifest to this run ledger")
    crun.add_argument("--json", action="store_true", help="emit the manifest as JSON")
    crun.set_defaults(fn=_cmd_campaign_run)

    crep = cmp_sub.add_parser("report", help="per-cell distribution summary")
    crep.add_argument("--manifest", default=None, metavar="PATH",
                      help="campaign manifest JSON (from 'campaign run --out')")
    crep.add_argument("--ledger", default=None, metavar="PATH",
                      help="read the latest 'campaign' entry from this ledger")
    crep.add_argument("--json", action="store_true", help="emit the manifest as JSON")
    crep.set_defaults(fn=_cmd_report, kind="campaign", render="render_manifest")

    cchk = cmp_sub.add_parser(
        "check", help="statistical regression check against a baseline campaign"
    )
    cchk.add_argument("--baseline", required=True, metavar="PATH",
                      help="baseline campaign manifest JSON")
    cchk.add_argument("--manifest", required=True, metavar="PATH",
                      help="current campaign manifest JSON")
    cchk.add_argument("--alpha", type=float, default=DEFAULT_ALPHA,
                      help="Mann-Whitney significance level (default 0.05)")
    cchk.add_argument("--effect", type=float, default=DEFAULT_EFFECT,
                      help="relative median-shift threshold (default 0.02)")
    cchk.add_argument("--ledger", default=None, metavar="PATH",
                      help="append a 'campaign_check' manifest to this run ledger"
                           " (and, with --explain, the explain manifests)")
    cchk.add_argument("--json", action="store_true", help="emit the verdicts as JSON")
    cchk.add_argument("--explain", action="store_true",
                      help="re-run each flagged cell traced on both sides and "
                           "print a blame-ranked root-cause diff")
    cchk.add_argument("--explain-out", default=None, metavar="PATH",
                      help="write the explain manifests as a JSON array")
    cchk.set_defaults(fn=_cmd_campaign_check)

    cfig = cmp_sub.add_parser(
        "figures", help="per-cell box plots (and --ledger makespan timeline)"
    )
    cfig.add_argument("--manifest", default=None, metavar="PATH",
                      help="campaign manifest JSON (from 'campaign run --out')")
    cfig.add_argument("--ledger", default=None, metavar="PATH",
                      help="read campaign entries from this ledger (latest for "
                           "the box plot, all of them for the timeline)")
    cfig.add_argument("--width", type=int, default=46, help="box-plot width")
    cfig.add_argument("--out", default=None, metavar="PATH",
                      help="also write the figures to a text file")
    cfig.set_defaults(fn=_cmd_campaign_figures)

    tun = sub.add_parser(
        "tune", help="guided design-space search (successive halving + Pareto)"
    )
    tun_sub = tun.add_subparsers(dest="tune_command", required=True)

    trun = tun_sub.add_parser(
        "run", help="score each point once -> re-rank survivors -> refine"
    )
    trun.add_argument("--space", default=None, metavar="NAME",
                      help="named search space: fig5-bf, fw-split, lu-bf-l, "
                           "mm-codesign (exclusive with --kind/--fixed/--axis)")
    trun.add_argument("--kind", default=None, choices=("block_mm", "lu", "fw"),
                      help="workload kind for an ad-hoc space")
    trun.add_argument("--machine", default=None, help="machine preset (default xd1)")
    trun.add_argument("--fixed", action="append", metavar="NAME=VALUE",
                      help="pin one parameter (repeatable), e.g. --fixed b=3000")
    trun.add_argument("--axis", action="append", metavar="NAME=LO:HI:STEP",
                      help="search axis (repeatable): name=lo:hi:step inclusive, "
                           "or name=v1,v2,...")
    trun.add_argument("--seed", default=None,
                      help="master seed (default: $REPRO_SEED, else 0)")
    trun.add_argument("--eta", type=int, default=None,
                      help="keep the top 1/eta of the analytic rung (default 4)")
    trun.add_argument("--budget", type=int, default=None,
                      help="cap on the points the DES rungs re-rank "
                           "(default: a quarter of the space)")
    trun.add_argument("--refine", type=int, default=None,
                      help="local-refinement neighbourhood radius; 0 disables "
                           "(default 1)")
    trun.add_argument("--resilience", default=None, metavar="SCENARIO",
                      help="also score DES survivors under this fault scenario "
                           "(adds the resilience Pareto objective)")
    trun.add_argument("--resilience-keep", type=int, default=None,
                      help="how many survivors to score under faults (default 2)")
    _add_exec_flags(trun)
    trun.add_argument("--out", default=None, metavar="PATH",
                      help="write the tune manifest as JSON")
    trun.add_argument("--ledger", default=None, metavar="PATH",
                      help="append a 'tune' manifest to this run ledger")
    trun.add_argument("--json", action="store_true", help="emit the manifest as JSON")
    trun.set_defaults(fn=_cmd_tune_run)

    trep = tun_sub.add_parser("report", help="render a recorded tune manifest")
    trep.add_argument("--manifest", default=None, metavar="PATH",
                      help="tune manifest JSON (from 'tune run --out')")
    trep.add_argument("--ledger", default=None, metavar="PATH",
                      help="read the latest 'tune' entry from this ledger")
    trep.add_argument("--json", action="store_true", help="emit the manifest as JSON")
    trep.set_defaults(fn=_cmd_report, kind="tune", render="render_tune")

    srv = sub.add_parser(
        "serve", help="run the co-design job server (docs/service.md)"
    )
    srv.add_argument("--host", default="127.0.0.1", help="listen address")
    srv.add_argument("--port", type=int, default=8080,
                     help="listen port (0 binds an ephemeral port; default 8080)")
    srv.add_argument("--jobs", default=None,
                     help="worker processes for the shared sweep executor "
                          "(int or 'auto'; default: $REPRO_PARALLEL)")
    srv.add_argument("--cache", default=None, metavar="DIR",
                     help="result-cache directory backing job-level dedup "
                          "('off' disables; default: $REPRO_CACHE)")
    srv.add_argument("--ledger", default=None, metavar="PATH",
                     help="append a 'service' manifest per finished job")
    srv.add_argument("--rate-capacity", type=float, default=None,
                     help="per-client token-bucket burst size "
                          "(default: no rate limiting)")
    srv.add_argument("--rate-refill", type=float, default=2.0,
                     help="token-bucket refill rate per second (default 2)")
    srv.add_argument("--max-retries", type=int, default=2,
                     help="retries after a crashed job attempt (default 2)")
    srv.set_defaults(fn=_cmd_serve)

    cli = sub.add_parser(
        "client", help="talk to a running co-design job server"
    )
    cli.add_argument("--server", default="127.0.0.1:8080", metavar="HOST:PORT",
                     help="server address (default 127.0.0.1:8080)")
    cli.add_argument("--client-id", default="cli",
                     help="client identity for rate limiting (default 'cli')")
    cli_sub = cli.add_subparsers(dest="client_command", required=True)

    csub = cli_sub.add_parser("submit", help="submit one job")
    csub.add_argument("kind", help="job kind: design, sweep, faults, campaign, tune")
    csub.add_argument("--param", action="append", metavar="NAME=VALUE",
                      help="job parameter (repeatable), e.g. --param app=lu "
                           "--param experiments=fig5 (JSON values accepted)")
    csub.add_argument("--priority", default="default",
                      choices=("interactive", "default", "batch"))
    csub.add_argument("--wait", action="store_true",
                      help="block until the job completes and print its outcome")
    csub.add_argument("--timeout", type=float, default=600.0,
                      help="--wait timeout in seconds (default 600)")
    csub.add_argument("--json", action="store_true",
                      help="emit the full status document as JSON")
    csub.set_defaults(fn=_cmd_client_submit)

    csta = cli_sub.add_parser("status", help="one job's status")
    csta.add_argument("job", help="job id (from submit)")
    csta.add_argument("--json", action="store_true")
    csta.set_defaults(fn=_cmd_client)

    cwai = cli_sub.add_parser("wait", help="block until a job finishes")
    cwai.add_argument("job", help="job id (from submit)")
    cwai.add_argument("--timeout", type=float, default=600.0)
    cwai.add_argument("--json", action="store_true")
    cwai.set_defaults(fn=_cmd_client)

    cres = cli_sub.add_parser("result", help="a completed job's result document")
    cres.add_argument("job", help="job id (from submit)")
    cres.set_defaults(fn=_cmd_client)

    cque = cli_sub.add_parser("queue", help="queue depth, counters, cache stats")
    cque.set_defaults(fn=_cmd_client)

    cpau = cli_sub.add_parser("pause", help="hold the server's worker loop (admin)")
    cpau.set_defaults(fn=_cmd_client)

    cresu = cli_sub.add_parser("resume", help="release a paused worker loop (admin)")
    cresu.set_defaults(fn=_cmd_client)

    args = parser.parse_args(argv)
    _p.reset()
    try:
        return args.fn(args) or 0
    except BrokenPipeError:
        # Backstop for writes outside the safe writer (e.g. argparse).  It
        # must come first: a BrokenPipeError is also an OSError.
        _p._die()
        return 0
    except (ValueError, OSError, _service_error()) as exc:
        _p(f"error: {exc}")
        return 2


def _cmd_validate(args: argparse.Namespace) -> int:
    from .validate import main as validate_main

    return validate_main()


def _cmd_obs_summary(args: argparse.Namespace) -> None:
    from .obs import metrics_summary, read_metrics_jsonl

    _p(metrics_summary(read_metrics_jsonl(args.metrics)))


def _cmd_obs_check(args: argparse.Namespace) -> int:
    from .obs import read_metrics_jsonl

    reports = [
        rec for rec in read_metrics_jsonl(args.metrics)
        if rec.get("kind") == "overlap" and (args.app is None or rec.get("app") == args.app)
    ]
    if not reports:
        which = f" for app {args.app!r}" if args.app else ""
        raise ValueError(f"no overlap reports{which} in {args.metrics}")
    failed = 0
    for rec in reports:
        eff = rec["overlap_efficiency"]
        ok = eff >= args.minimum
        status = "ok  " if ok else "FAIL"
        _p(f"{status} {rec['app']}: overlap_efficiency {eff:.4f} "
           f"(floor {args.minimum:.2f})")
        failed += 0 if ok else 1
    return 1 if failed else 0


# ------------------------------------------------------------- run ledger


def _cmd_ledger_record(args: argparse.Namespace) -> None:
    from .obs import critical_path, entries_from_metrics, from_chrome_trace, read_metrics_jsonl

    records = read_metrics_jsonl(args.metrics)
    critical_paths = None
    if args.trace:
        report = critical_path(from_chrome_trace(args.trace))
        apps = {r.get("app") for r in records if r.get("kind") == "overlap"}
        critical_paths = {app: report.to_dict() for app in apps}
    entries = entries_from_metrics(
        records,
        preset=args.preset,
        source=args.source,
        git_sha=args.git_sha,
        critical_paths=critical_paths,
        note=args.note,
    )
    ledger = RunLedger(args.ledger)
    for entry in entries:
        appended = ledger.append(entry)
        cp = appended.get("critical_path") or {}
        dominant = f", critical path: {cp['dominant']}" if cp else ""
        _p(f"recorded seq {appended['seq']}: {appended['app']}@{appended['preset']} "
           f"overlap_efficiency "
           f"{appended['measured']['overlap_efficiency']:.4f}{dominant} "
           f"-> {ledger.path}")


def _cmd_ledger_list(args: argparse.Namespace) -> None:
    from .obs import LEDGER_SCHEMA

    entries = RunLedger(args.ledger).entries(app=args.app)
    if args.limit:
        entries = entries[-args.limit:]
    if not entries:
        _p(f"(no entries in {args.ledger})")
        return
    rows = []
    for e in entries:
        measured = e.get("measured") or {}
        eff = measured.get("overlap_efficiency")
        cp = e.get("critical_path") or {}
        rows.append([
            e.get("seq"), e.get("ts", ""), e.get("kind", ""), e.get("app", ""),
            e.get("preset", ""),
            f"{eff:.4f}" if eff is not None else "-",
            cp.get("dominant", "-"),
            str(e.get("git_sha", ""))[:8],
            e.get("source", ""),
        ])
    _p(table(
        ["seq", "ts", "kind", "app", "preset", "overlap_eff", "bound by", "git", "source"],
        rows,
        title=f"run ledger {args.ledger} (schema {LEDGER_SCHEMA})",
    ))


def _cmd_ledger_diff(args: argparse.Namespace) -> None:
    from .obs import render_diff

    ledger = RunLedger(args.ledger)
    a, b = ledger.resolve(args.a), ledger.resolve(args.b)
    _p(render_diff(a, b))


def _cmd_ledger_check(args: argparse.Namespace) -> int:
    from .obs import fidelity_check, fidelity_report

    entries = RunLedger(args.ledger).entries()
    if not entries:
        raise LedgerError(f"ledger {args.ledger} is empty or missing")
    stats = fidelity_report(entries, band=args.band)
    if args.app is not None:
        stats = [st for st in stats if st.app == args.app]
    if not stats:
        which = f" for app {args.app!r}" if args.app else ""
        raise ValueError(f"no design_run series{which} in {args.ledger}")
    for st in stats:
        _p(st.summary(band=args.band))
    failures, warnings = fidelity_check(
        entries, band=args.band, drift_tolerance=args.drift, app=args.app
    )
    for msg in warnings:
        _p(f"warning: {msg}")
    for msg in failures:
        _p(f"FAIL: {msg}")
    if failures:
        return 1
    _p(f"fidelity ok: every series at or above the {args.band:.2f} band")
    return 0


def _cmd_obs_dashboard(args: argparse.Namespace) -> None:
    from .obs import render_ascii, render_html

    entries = RunLedger(args.ledger).entries()
    _p(render_ascii(entries, band=args.band))
    if args.html:
        _write_out(args.html, render_html(entries, band=args.band), "dashboard")


# ------------------------------------------------------------------ faults


def _append_fault_entries(ledger: str, results: list[dict]) -> None:
    from .obs import fault_run_entry

    _append(ledger, [fault_run_entry(result, source="cli") for result in results],
            f"{len(results)} fault_run manifest(s)")


def _cmd_faults_run(args: argparse.Namespace) -> None:
    from .faults import ResilienceReport, build_scenario, run_with_faults

    scenario = build_scenario(args.scenario, factor=args.factor, at=args.at,
                              duration=args.duration, node=args.node, seed=args.seed)
    result = run_with_faults(
        args.app, scenario, args.policy, preset=args.preset, n=args.n, b=args.b
    ).to_dict()
    _emit(args.json, result, lambda r: ResilienceReport([r]).render_ascii())
    if args.ledger:
        _append_fault_entries(args.ledger, [result])


def _cmd_faults_sweep(args: argparse.Namespace) -> None:
    from .faults import ResilienceReport
    from .parallel import as_cache

    _, doc = _run_job(
        "faults",
        {"apps": args.apps, "scenarios": args.scenarios, "policies": args.policies,
         "preset": args.preset, "factor": args.factor, "seed": args.seed},
        jobs=args.jobs, cache=as_cache(args.cache),
    )
    results = doc["results"]
    _p(ResilienceReport(results).render_ascii())
    if args.out:
        _write_out(args.out, _json_text(results), "results")
    if args.ledger:
        _append_fault_entries(args.ledger, results)


def _cmd_faults_report(args: argparse.Namespace) -> None:
    from .faults import ResilienceReport

    report = ResilienceReport.from_ledger(args.ledger)
    _emit(args.json, report.to_dict(), lambda _: report.render_ascii())


# ---------------------------------------------------------- campaign / tune


def _emit_manifest(args: argparse.Namespace, manifest: dict, telemetry: dict,
                   render) -> None:
    """Print a campaign / tune manifest (``--json``, or rendered plus the
    ``workers:`` telemetry footer) and write it to ``--out``."""
    _emit(args.json, manifest, render)
    if not args.json and telemetry.get("executor"):
        from .obs.dashboard import panel_lines, workers_panel

        _p("workers:")
        for line in panel_lines(workers_panel(telemetry)):
            _p(line)
    if args.out:
        _write_out(args.out, _json_text(manifest) + "\n", "manifest")


def _cmd_campaign_run(args: argparse.Namespace) -> None:
    from .campaign import render_manifest
    from .obs import campaign_entry
    from .parallel import as_cache

    telemetry: dict = {}
    _, manifest = _run_job(
        "campaign",
        {"apps": args.apps, "preset": args.preset, "scenarios": args.scenarios,
         "replicates": args.replicates, "seed": args.seed, "jitter": args.jitter,
         "stalls": args.stalls, "throttle_fpga": args.throttle_fpga,
         "factor": args.factor},
        jobs=args.jobs, cache=as_cache(args.cache), telemetry=telemetry,
        env_seed=True,
    )
    _emit_manifest(args, manifest, telemetry, render_manifest)
    if args.ledger:
        _append(args.ledger, [campaign_entry(manifest, source="cli", workers=telemetry)],
                "campaign manifest")


def _cmd_report(args: argparse.Namespace) -> None:
    """``campaign report`` / ``tune report``: a recorded ``args.kind``
    manifest, as JSON or through the kind module's ``args.render``."""
    module = import_module(f".{args.kind}", __package__)
    manifest = _load_source(args, args.kind, module.load_manifest)
    _emit(args.json, manifest, getattr(module, args.render))


def _cmd_campaign_check(args: argparse.Namespace) -> int:
    from .campaign import compare_campaigns, explain_comparison, load_manifest, render_check
    from .obs import campaign_check_entry

    baseline, current = load_manifest(args.baseline), load_manifest(args.manifest)
    comparison = compare_campaigns(
        baseline, current, alpha=args.alpha, effect_threshold=args.effect
    )
    _emit(args.json, comparison, render_check)
    if args.ledger:
        _append(args.ledger, [campaign_check_entry(comparison, source="cli")],
                "campaign_check manifest")
    if args.explain or args.explain_out:
        explains = explain_comparison(baseline, current, comparison=comparison)
        _emit_explains(explains, out=args.explain_out,
                       ledger=args.ledger, as_json=args.json)
    return 1 if comparison["verdict"] == "fail" else 0


def _emit_explains(
    explains: list[dict],
    *,
    out: str | None,
    ledger: str | None,
    as_json: bool,
) -> None:
    """Print / persist explain manifests (shared by check --explain and
    obs explain)."""
    from .obs import explain_entry, render_explain

    def render(docs: list[dict]) -> str:
        if not docs:
            return "nothing to explain (no flagged cells)"
        return "\n".join(render_explain(doc) for doc in docs)

    _emit(as_json, explains, render)
    if out:
        _write_out(out, _json_text(explains) + "\n", "explain manifests",
                   f" ({len(explains)} cells)")
    if ledger and explains:
        _append(ledger, [explain_entry(doc, source="cli") for doc in explains],
                f"{len(explains)} explain manifests")


def _cmd_obs_explain(args: argparse.Namespace) -> None:
    from .campaign import load_manifest
    from .campaign.explain import explain_cell, explain_comparison

    baseline, current = load_manifest(args.baseline), load_manifest(args.manifest)
    if args.cell:
        keys = [k.strip() for k in args.cell.split(",") if k.strip()]
        explains = [
            explain_cell(baseline, current, key, replicate=args.replicate)
            for key in keys
        ]
    else:
        explains = explain_comparison(
            baseline, current, alpha=args.alpha, effect_threshold=args.effect
        )
    _emit_explains(explains, out=args.out, ledger=args.ledger, as_json=args.json)


def _cmd_campaign_figures(args: argparse.Namespace) -> None:
    from .campaign import load_manifest, render_figures, render_timeline

    manifest = _load_source(args, "campaign", load_manifest)
    parts = [render_figures(manifest, width=args.width)]
    if args.ledger:
        entries = RunLedger(args.ledger).entries(kind="campaign")
        if len(entries) > 1:
            parts.append(render_timeline(entries))
    text = "\n\n".join(parts)
    _p(text)
    if args.out:
        _write_out(args.out, text + "\n", "figures")


def _cmd_experiments(args: argparse.Namespace) -> int:
    from .experiments import ALL_EXPERIMENTS, active_cache, configured

    if args.only:
        wanted = [name.strip() for name in args.only.split(",")]
        unknown = [w for w in wanted if w not in ALL_EXPERIMENTS]
        if unknown:
            _p(f"unknown experiment ids: {unknown}; available: {sorted(ALL_EXPERIMENTS)}")
            return 2
        selected = {name: ALL_EXPERIMENTS[name] for name in wanted}
    else:
        selected = ALL_EXPERIMENTS
    if _obs_enabled(args):
        from .obs import Tracer, set_tracer

        set_tracer(Tracer())
    failed = []
    outcomes: list[tuple[str, bool]] = []
    with configured(jobs=args.jobs, cache=args.cache, fast_path=args.fast_path):
        for name, fn in selected.items():
            result = fn()
            outcomes.append((name, result.ok))
            _p("=" * 72)
            _p(result.summary())
            _p(result.text)
            _p()
            if not result.ok:
                failed.append(name)
        run_cache = active_cache()
        if run_cache is not None:
            _p(run_cache.footer())
    if _obs_enabled(args):
        from .obs import REGISTRY, get_tracer, write_chrome_trace, write_metrics_jsonl

        tracer = get_tracer()
        if args.trace_out:
            path = write_chrome_trace(
                args.trace_out, spans=tracer.spans, span_epoch=tracer.epoch
            )
            _p(f"trace written to {path} (chrome://tracing / Perfetto)")
        if args.metrics_out:
            path = write_metrics_jsonl(
                args.metrics_out, REGISTRY,
                extra={"command": "experiments", "only": args.only},
            )
            _p(f"metrics written to {path}")
    if args.ledger:
        from .obs import REGISTRY, experiments_entry
        from .sim.analytic import fastpath_summary

        try:
            sim_points = int(REGISTRY.value("experiments.sim_points"))
        except KeyError:
            sim_points = None
        entry = RunLedger(args.ledger).append(
            experiments_entry(
                outcomes,
                sim_points=sim_points,
                source="cli",
                fast_path=fastpath_summary(REGISTRY),
            )
        )
        _p(f"recorded seq {entry['seq']}: experiments "
           f"({entry['passed']} passed, {entry['failed']} failed) -> {args.ledger}")
    if failed:
        _p(f"FAILED checks in: {failed}")
        return 1
    _p("All reproduction checks passed.")
    return 0


def _cmd_tune_run(args: argparse.Namespace) -> None:
    from .obs import tune_entry
    from .parallel import as_cache
    from .tune import render_tune

    space = args.space
    if args.kind or args.fixed or args.axis:
        if space:
            raise ValueError("--space is exclusive with --kind/--fixed/--axis")
        adhoc = {"kind": args.kind, "machine": args.machine,
                 "fixed": args.fixed, "axes": args.axis}
        space = {k: v for k, v in adhoc.items() if v is not None}
    telemetry: dict = {}
    _, manifest = _run_job(
        "tune",
        {"space": space, "seed": args.seed, "eta": args.eta, "budget": args.budget,
         "refine": args.refine, "resilience": args.resilience,
         "resilience_keep": args.resilience_keep},
        jobs=args.jobs, cache=as_cache(args.cache), telemetry=telemetry,
        env_seed=True,
    )
    _emit_manifest(args, manifest, telemetry, render_tune)
    if args.ledger:
        ledger = RunLedger(args.ledger)
        entry = ledger.append(
            tune_entry(manifest, source="cli", workers=telemetry or None)
        )
        _p(f"recorded seq {entry['seq']}: tune manifest -> {ledger.path}")


# ------------------------------------------------------------------ service


def _cmd_serve(args: argparse.Namespace) -> None:
    import asyncio
    import signal

    from .parallel import as_cache
    from .service import CodesignServer

    server = CodesignServer(
        args.host,
        args.port,
        jobs=args.jobs,
        cache=as_cache(args.cache),
        ledger=args.ledger,
        rate_capacity=args.rate_capacity,
        rate_refill_per_s=args.rate_refill,
        max_retries=args.max_retries,
    )

    async def _serve() -> None:
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        await server.start()
        _p(f"co-design service listening on {args.host}:{server.bound_port}")
        _p(f"  jobs={server.executor.jobs}  cache={'on' if server.cache else 'off'}"
           f"  ledger={args.ledger or 'off'}")
        await stop.wait()
        _p("shutting down: draining queue ...")
        await server.stop(drain=True)
        _p("service stopped cleanly")

    asyncio.run(_serve())


def _parse_client_params(pairs: list[str] | None) -> dict:
    """``--param name=value`` pairs into a params dict (JSON values OK)."""
    params: dict = {}
    for pair in pairs or []:
        name, sep, raw = pair.partition("=")
        if not sep or not name:
            raise ValueError(f"bad --param {pair!r}: expected NAME=VALUE")
        try:
            params[name] = json.loads(raw)
        except json.JSONDecodeError:
            params[name] = raw
    return params


def _client_from_args(args: argparse.Namespace):
    from .service import ServiceClient

    host, _, port = args.server.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"bad --server {args.server!r}: expected HOST:PORT")
    return ServiceClient(host, int(port), client_id=args.client_id)


def _job_line(doc: dict) -> str:
    """A job status document as one ``job ID  kind=...  state=...`` line."""
    line = (f"job {doc.get('id')}  kind={doc.get('kind')}  "
            f"state={doc.get('state')}  source={doc.get('source')}")
    if doc.get("deduped"):
        line += "  deduped=true"
    if doc.get("result_hash"):
        line += f"  result_hash={doc['result_hash'][:16]}"
    if doc.get("error"):
        line += f"  error={doc['error']}"
    return line


def _job_exit(doc: dict) -> int:
    """1 for a failed job, else 0."""
    return 1 if doc.get("state") == "failed" else 0


def _cmd_client_submit(args: argparse.Namespace) -> int:
    client = _client_from_args(args)
    params = _parse_client_params(args.param)
    doc = client.submit(args.kind, params, priority=args.priority)
    if args.wait and doc.get("state") not in ("completed", "failed"):
        waited = client.wait(doc["id"], timeout=args.timeout)
        waited["deduped"] = doc.get("deduped", False)
        doc = waited
    _emit(args.json, doc, _job_line)
    return _job_exit(doc)


#: ``client`` verb -> (render of the answer, None to print it as JSON;
#: whether a failed job exits 1).  The request is the ``ServiceClient``
#: method of the same name, given the verb's ``job`` and ``--timeout``.
_CLIENT_VERBS = {
    "status": (_job_line, False),
    "wait": (_job_line, True),
    "result": (None, False),
    "queue": (None, False),
    "pause": (lambda doc: "paused", False),
    "resume": (lambda doc: "resumed", False),
}


def _cmd_client(args: argparse.Namespace) -> int:
    render, gated = _CLIENT_VERBS[args.client_command]
    request = getattr(_client_from_args(args), args.client_command)
    job = [args.job] if "job" in args else []
    wait = {"timeout": args.timeout} if "timeout" in args else {}
    doc = request(*job, **wait)
    _emit(render is None or getattr(args, "json", False), doc, render)
    return _job_exit(doc) if gated else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

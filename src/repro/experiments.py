"""The experiment harness: one function per table/figure in the paper.

Each function regenerates one evaluation artifact of Zhuo & Prasanna
(IPPS 2007) on the simulated XD1 and returns an
:class:`ExperimentResult` carrying

* ``text`` -- the rendered table/ASCII figure,
* ``data`` -- the raw rows/series,
* ``checks`` -- named boolean reproduction criteria (the *shape* claims
  of the paper: who wins, by roughly what factor, where optima fall).

The pytest benchmarks in ``benchmarks/`` time these functions and assert
their checks; ``python -m repro.experiments`` writes the full record to
stdout (the source of EXPERIMENTS.md).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from .analysis import Series, bar_chart, line_chart, percent, table
from .apps import build_design
from .apps.fw import FwSimConfig, simulate_fw
from .apps.lu import LuSimConfig, simulate_block_mm, simulate_lu
from .core import DesignModel, balance_flops, lu_stripe_partition
from .hw import FloydWarshallDesign, MatrixMultiplyDesign
from .kernels.flops import getrf_flops, trsm_flops
from .machine import ALL_PRESETS, cray_xd1
from .obs import REGISTRY, get_tracer
from .parallel import ResultCache, SweepExecutor, as_cache, cached_map, executor_for

__all__ = [
    "ALL_EXPERIMENTS",
    "ExperimentResult",
    "active_cache",
    "ablation_blocksize",
    "ablation_overlap",
    "ablation_partition",
    "ablation_presets",
    "configured",
    "fig5_bf_sweep",
    "fig6_l_sweep",
    "fig7_l1_sweep",
    "fig8_lu_scaling",
    "ext_ring_mm",
    "ext_scaling",
    "fig9_fw",
    "fig9_lu",
    "run_all",
    "run_sim_task",
    "table1_routines",
]


@dataclass
class ExperimentResult:
    """One reproduced table or figure."""

    id: str
    title: str
    text: str
    data: dict = field(default_factory=dict)
    checks: dict[str, bool] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(self.checks.values())

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"[{status}] {self.id}: {self.title}"


# ------------------------------------------------ sweep execution context
#
# Every simulation an experiment runs is expressed as a JSON-able *task*
# and evaluated through ``_eval_sim_points``: the active result cache
# replays stored values (``repro.parallel.cached_map``) and the misses go
# to :func:`run_sim_task`, mapped over the active executor (or a plain
# loop without one).  Each simulation runs in its own Simulator, so
# results are identical regardless of worker count or cache state.

_EXECUTOR: Optional[SweepExecutor] = None
_CACHE: Optional[ResultCache] = None

#: Number of simulation points actually executed (i.e. cache misses)
#: since import.  Serial-mode only bookkeeping -- worker processes count
#: in their own interpreter -- used by tests to verify that warm-cache
#: runs skip re-simulation.
SIM_CALLS = 0


@contextmanager
def configured(jobs: Any = None, cache: Any = None, fast_path: Any = None):
    """Run experiments with a given executor/cache configuration.

    ``jobs``: worker count, ``"auto"``, None to consult the
    ``REPRO_PARALLEL`` environment variable, or an existing
    :class:`SweepExecutor` to reuse (the service shares one pool across
    jobs); only an executor built here is closed on exit (see
    :func:`~repro.parallel.executor_for`).  ``cache``: anything
    :func:`~repro.parallel.as_cache` takes -- a directory path, a
    :class:`ResultCache`, True (default ``.repro_cache/``), False
    (force off), or None to consult ``REPRO_CACHE``.
    ``fast_path``: ``"auto"`` / ``"on"`` / ``"off"`` for the analytic
    no-contention fast path, or None to consult ``REPRO_FAST_PATH``
    (default auto); results are bitwise identical either way.
    """
    global _EXECUTOR, _CACHE
    from .sim.analytic import set_fast_path_mode

    prev = (_EXECUTOR, _CACHE)
    prev_mode = set_fast_path_mode(fast_path)
    try:
        with executor_for(jobs) as executor:
            _EXECUTOR, _CACHE = executor, as_cache(cache)
            yield (_EXECUTOR, _CACHE)
    finally:
        set_fast_path_mode(prev_mode)
        _EXECUTOR, _CACHE = prev


def active_cache() -> Optional[ResultCache]:
    """The result cache of the current :func:`configured` block, if any.

    The CLI uses this to print the cache footer (hits/misses/stores)
    after an ``experiments`` run.
    """
    return _CACHE


def _spec_for(machine: str):
    """Machine specs by task key (presets plus the ablation variants)."""
    if machine == "xd1-slow-dram":
        return _slow_dram_xd1()
    return ALL_PRESETS[machine]()


def run_sim_task(task: dict) -> Any:
    """Evaluate one simulation task; returns a JSON-able value.

    The one evaluator for simulation tasks: the experiment sweeps and
    the tuner (:func:`repro.tune.evaluate.run_tune_task`) both hand
    their tasks here, so equal task dicts -- equal cache keys -- always
    come from the same code.  ``block_mm`` / ``lu`` / ``fw`` tasks
    follow the process fast-path mode.

    Must stay module-level (and all task contents picklable) so the
    process-pool executor can ship tasks to workers.
    """
    global SIM_CALLS
    SIM_CALLS += 1
    kind = task["kind"]
    if kind == "block_mm":
        spec = _spec_for(task["machine"])
        return simulate_block_mm(spec, task["b"], task["b_f"], task["k"])
    if kind == "lu":
        res = simulate_lu(_spec_for(task["machine"]), task["cfg"])
        return {"elapsed": res.elapsed, "gflops": res.gflops}
    if kind == "fw":
        res = simulate_fw(_spec_for(task["machine"]), task["cfg"])
        return {"elapsed": res.elapsed, "gflops": res.gflops}
    if kind == "fw_weak":
        from .analysis import fw_weak_scaling

        (pt,) = fw_weak_scaling(ps=(task["p"],), cols_per_node=task["cols_per_node"])
        return {"p": pt.p, "gflops": pt.gflops, "predicted": pt.predicted,
                "efficiency_of_prediction": pt.efficiency_of_prediction}
    if kind == "lu_strong":
        from .analysis import lu_strong_scaling

        (pt,) = lu_strong_scaling(ps=(task["p"],), n=task["n"], b=task["b"])
        return {"p": pt.p, "gflops": pt.gflops, "predicted": pt.predicted,
                "efficiency_of_prediction": pt.efficiency_of_prediction}
    if not kind.endswith("_compare"):
        raise ValueError(f"unknown simulation task kind {kind!r}")
    # lu_compare / fw_compare / mm_compare: extract every float the
    # experiments print or check, so cached values reproduce the
    # rendered text bit-for-bit.
    app, p = kind[: -len("_compare")], task.get("p", 6)
    if app == "mm":
        from .apps.mm import MmDesign

        design = MmDesign(cray_xd1(p=p), n=task["n"])
    else:
        design = build_design(app, n=task["n"], b=task["b"], p=p)
    cmp = design.compare()
    return {
        "hybrid": cmp.hybrid.gflops,
        "cpu_only": cmp.cpu_only.gflops,
        "fpga_only": cmp.fpga_only.gflops,
        "predicted": cmp.predicted_gflops,
        "speedup_vs_cpu": cmp.speedup_vs_cpu,
        "speedup_vs_fpga": cmp.speedup_vs_fpga,
        "fraction_of_sum": cmp.fraction_of_sum,
        "fraction_of_predicted": cmp.fraction_of_predicted,
    }


def _eval_sim_points(tasks: list[dict]) -> list[Any]:
    """Evaluate tasks through the active cache and executor, in order."""
    REGISTRY.counter("experiments.sim_points").inc(len(tasks))

    def compute(todo: list[dict]) -> list[Any]:
        with get_tracer().span("eval_sim_points", category="sweep", tasks=len(todo),
                               cached=len(tasks) - len(todo)):
            if _EXECUTOR is not None:
                return _EXECUTOR.map(run_sim_task, todo)
            return [run_sim_task(t) for t in todo]

    return cached_map(tasks, compute, _CACHE)


def _eval_sim_point(task: dict) -> Any:
    return _eval_sim_points([task])[0]


# ---------------------------------------------------------------- Table 1


def table1_routines() -> ExperimentResult:
    """Table 1: panel-routine latencies at b = 3000 on the Opteron model."""
    spec = cray_xd1()
    proc = spec.node.processor
    b = 3000
    rows = [
        ["opLU", "dgetrf", 4.9, proc.kernel_time("dgetrf", getrf_flops(b))],
        ["opL", "dtrsm", 7.1, proc.kernel_time("dtrsm", trsm_flops(b, b))],
        ["opU", "dtrsm", 7.1, proc.kernel_time("dtrsm", trsm_flops(b, b))],
    ]
    text = table(
        ["operation", "routine", "paper latency (s)", "model latency (s)"],
        rows,
        title="Table 1: routines and latencies for LU operations (b = 3000)",
    )
    checks = {
        f"{op}_matches_paper": abs(model - paper) / paper < 0.01
        for op, _, paper, model in rows
    }
    return ExperimentResult("table1", "LU panel routine latencies", text, {"rows": rows}, checks)


# ---------------------------------------------------------------- Figure 5


def fig5_bf_sweep(step: int = 200) -> ExperimentResult:
    """Figure 5: latency of one b x b block MM vs b_f (b=3000, p=6)."""
    spec = cray_xd1()
    b, k = 3000, 8
    bfs = [bf for bf in range(0, b + 1, step) if bf % k == 0]
    if b not in bfs:
        bfs.append(b)
    ys = _eval_sim_points(
        [{"kind": "block_mm", "machine": "xd1", "b": b, "b_f": int(bf), "k": k} for bf in bfs]
    )
    series = Series("block MM latency")
    for bf, y in zip(bfs, ys):
        series.append(bf, y)
    params = spec.parameters("dgemm", MatrixMultiplyDesign.for_device())
    solved = lu_stripe_partition(b, k, params).b_f
    text = line_chart(
        [series],
        "Figure 5: latency of one 3000x3000 block MM vs b_f (p = 6)",
        x_label="b_f (rows on FPGA)",
        y_label="seconds",
    )
    text += f"\nEq. 4 solution: b_f = {solved}; sweep minimum at b_f = {series.argmin():.0f}"
    checks = {
        "u_shaped": series.is_u_shaped(),
        "minimum_near_eq4_solution": abs(series.argmin() - solved) <= 2 * step,
        "fpga_only_slower_than_cpu_only": series.ys[-1] > series.ys[0],
    }
    return ExperimentResult(
        "fig5", "block-MM latency vs b_f", text, {"series": series, "solved_bf": solved}, checks
    )


# ---------------------------------------------------------------- Figure 6


def fig6_l_sweep() -> ExperimentResult:
    """Figure 6: latency of the 0th LU iteration vs l (n=30000, p=6)."""
    ls = [0, 1, 2, 3, 4, 5]
    results = _eval_sim_points(
        [
            {
                "kind": "lu",
                "machine": "xd1",
                "cfg": LuSimConfig(n=30000, b=3000, k=8, b_f=1080, l=l, iterations=1),
            }
            for l in ls
        ]
    )
    series = Series("0th iteration latency")
    for l, res in zip(ls, results):
        series.append(l, res["elapsed"])
    text = line_chart(
        [series],
        "Figure 6: latency of the 0th LU iteration vs l (n = 30000, p = 6)",
        x_label="l (opMMs shipped per panel routine)",
        y_label="seconds",
    )
    text += (
        "\nPaper: minimum at l = 3, nearly flat beyond (increase 'not noticeable "
        "until l = 5'); Eq. 5 yields l = 3 with the Table 1 latencies."
    )
    checks = {
        "improves_up_to_eq5_value": series.ys[0] > series.ys[1] > series.ys[2] > series.ys[3],
        "flat_beyond_optimum": abs(series.ys[5] - series.ys[4]) / series.ys[4] < 0.05,
    }
    return ExperimentResult("fig6", "LU iteration latency vs l", text, {"series": series}, checks)


# ---------------------------------------------------------------- Figure 7


def fig7_l1_sweep() -> ExperimentResult:
    """Figure 7: latency of one FW iteration vs l1 (b=256, n=18432, p=6)."""
    l1s = list(range(0, 13))
    results = _eval_sim_points(
        [
            {
                "kind": "fw",
                "machine": "xd1",
                "cfg": FwSimConfig(n=18432, b=256, k=8, l1=l1, l2=12 - l1, iterations=1),
            }
            for l1 in l1s
        ]
    )
    series = Series("iteration latency")
    for l1, res in zip(l1s, results):
        series.append(l1, res["elapsed"])
    text = line_chart(
        [series],
        "Figure 7: latency of one FW iteration vs l1 (n = 18432, p = 6)",
        x_label="l1 (tasks per phase on CPU)",
        y_label="seconds",
    )
    text += (
        f"\nMinimum at l1 = {series.argmin():.0f} (paper: 2; Eq. 6 gives l1 = 2). "
        "FPGA-only (l1 = 0) beats all splits with l1 >= 3, as the paper notes."
    )
    ys = dict(zip(series.xs, series.ys))
    checks = {
        "minimum_at_l1_2": series.argmin() == 2,
        "fpga_overloaded_at_l1_1": ys[1] > ys[2],
        "fpga_only_beats_l1_3_and_up": all(ys[0] < ys[l1] for l1 in range(3, 13)),
        "monotone_beyond_3": all(ys[l1 + 1] > ys[l1] for l1 in range(3, 12)),
    }
    return ExperimentResult("fig7", "FW iteration latency vs l1", text, {"series": series}, checks)


# ---------------------------------------------------------------- Figure 8


def fig8_lu_scaling() -> ExperimentResult:
    """Figure 8: LU GFLOPS vs n/b (b = 3000, growing matrix)."""
    nbs = (2, 4, 6, 8, 10)
    results = _eval_sim_points(
        [
            {
                "kind": "lu",
                "machine": "xd1",
                "cfg": LuSimConfig(n=3000 * nb, b=3000, k=8, b_f=1080, l=3),
            }
            for nb in nbs
        ]
    )
    series = Series("hybrid LU")
    for nb, res in zip(nbs, results):
        series.append(nb, res["gflops"])
    text = line_chart(
        [series],
        "Figure 8: GFLOPS of LU decomposition vs n/b (b = 3000)",
        x_label="n/b (blocks per dimension)",
        y_label="GFLOPS",
    )
    text += (
        "\nPaper: performance rises with n/b because opMM -- the only task "
        "using both devices -- dominates more as the matrix grows."
    )
    checks = {
        "monotone_increasing": series.is_monotone_increasing(),
        "reaches_headline_band": 17.0 < series.ys[-1] < 23.0,
    }
    return ExperimentResult("fig8", "LU GFLOPS vs n/b", text, {"series": series}, checks)


# ---------------------------------------------------------------- Figure 9


def fig9_lu() -> ExperimentResult:
    """Figure 9 (left): LU hybrid vs baselines, plus model prediction."""
    cmp = _eval_sim_point({"kind": "lu_compare", "n": 30000, "b": 3000})
    text = bar_chart(
        ["Hybrid", "Processor-only", "FPGA-only", "Model prediction"],
        [cmp["hybrid"], cmp["cpu_only"], cmp["fpga_only"], cmp["predicted"]],
        "Figure 9 (LU): n = 30000, b = 3000, p = 6",
        unit=" GFLOPS",
    )
    text += (
        f"\nspeedup vs CPU-only {cmp['speedup_vs_cpu']:.2f}x (paper 1.3x), "
        f"vs FPGA-only {cmp['speedup_vs_fpga']:.2f}x (paper 2x); "
        f"{percent(cmp['fraction_of_sum'])} of baseline sum (paper ~80%); "
        f"{percent(cmp['fraction_of_predicted'])} of prediction (paper ~86%)."
    )
    checks = {
        "hybrid_near_20_gflops": abs(cmp["hybrid"] - 20.0) / 20.0 < 0.15,
        "hybrid_beats_cpu_only": cmp["speedup_vs_cpu"] > 1.05,
        "hybrid_beats_fpga_only": cmp["speedup_vs_fpga"] > 1.5,
        "fpga_only_near_10": abs(cmp["fpga_only"] - 10.0) / 10.0 < 0.2,
        "fraction_of_sum_in_band": 0.6 < cmp["fraction_of_sum"] < 0.95,
        "below_prediction": cmp["fraction_of_predicted"] < 1.0,
    }
    return ExperimentResult(
        "fig9-lu",
        "LU comparison with baselines",
        text,
        {
            "hybrid": cmp["hybrid"],
            "cpu_only": cmp["cpu_only"],
            "fpga_only": cmp["fpga_only"],
            "predicted": cmp["predicted"],
        },
        checks,
    )


def fig9_fw() -> ExperimentResult:
    """Figure 9 (right): FW hybrid vs baselines, plus model prediction."""
    cmp = _eval_sim_point({"kind": "fw_compare", "n": 92160, "b": 256})
    text = bar_chart(
        ["Hybrid", "Processor-only", "FPGA-only", "Model prediction"],
        [cmp["hybrid"], cmp["cpu_only"], cmp["fpga_only"], cmp["predicted"]],
        "Figure 9 (FW): n = 92160, b = 256, p = 6",
        unit=" GFLOPS",
    )
    text += (
        f"\nspeedup vs CPU-only {cmp['speedup_vs_cpu']:.2f}x (paper 5.8x), "
        f"vs FPGA-only {cmp['speedup_vs_fpga']:.2f}x (paper 1.15x); "
        f"{percent(cmp['fraction_of_sum'])} of baseline sum (paper >95%); "
        f"{percent(cmp['fraction_of_predicted'])} of prediction (paper ~96%)."
    )
    checks = {
        "hybrid_near_6_6_gflops": abs(cmp["hybrid"] - 6.6) / 6.6 < 0.05,
        "cpu_only_near_1_14": abs(cmp["cpu_only"] - 1.14) / 1.14 < 0.05,
        "fpga_only_near_5_75": abs(cmp["fpga_only"] - 5.75) / 5.75 < 0.05,
        "speedup_vs_cpu_near_5_8": abs(cmp["speedup_vs_cpu"] - 5.8) / 5.8 < 0.1,
        "speedup_vs_fpga_near_1_15": abs(cmp["speedup_vs_fpga"] - 1.15) / 1.15 < 0.05,
        "over_95_percent_of_sum": cmp["fraction_of_sum"] > 0.95,
        "near_96_percent_of_prediction": abs(cmp["fraction_of_predicted"] - 0.96) < 0.03,
    }
    return ExperimentResult(
        "fig9-fw",
        "FW comparison with baselines",
        text,
        {
            "hybrid": cmp["hybrid"],
            "cpu_only": cmp["cpu_only"],
            "fpga_only": cmp["fpga_only"],
            "predicted": cmp["predicted"],
        },
        checks,
    )


# ---------------------------------------------------------------- ablations


def ablation_overlap() -> ExperimentResult:
    """Overlap on/off: quantifies Section 4.2/4.3's overlap refinement.

    The effect is largest where the FPGA is the bottleneck (FPGA-only
    configurations): there, unoverlapped staging delays every FPGA start.
    At the balanced Eq. 4/6 splits the CPU-side serial path already pays
    for the staging, so the penalty nearly vanishes -- which is exactly
    why the equations put T_comm/T_mem on the CPU side.
    """
    tasks = []
    for overlap in (True, False):
        tasks.append({"kind": "lu", "machine": "xd1",
                      "cfg": LuSimConfig(n=18000, b=3000, k=8, b_f=3000, l=3, overlap=overlap)})
    for overlap in (True, False):
        tasks.append({"kind": "lu", "machine": "xd1",
                      "cfg": LuSimConfig(n=18000, b=3000, k=8, b_f=1080, l=3, overlap=overlap)})
    for overlap in (True, False):
        tasks.append({"kind": "fw", "machine": "xd1",
                      "cfg": FwSimConfig(n=18432, b=256, k=8, l1=0, l2=12, iterations=1,
                                         overlap=overlap)})
    for overlap in (True, False):
        tasks.append({"kind": "fw", "machine": "xd1",
                      "cfg": FwSimConfig(n=18432, b=256, k=8, l1=2, l2=10, iterations=1,
                                         overlap=overlap)})
    # Where staging is expensive (slow FPGA-DRAM path) the overlap is the
    # difference between usable and unusable FPGA acceleration.
    for overlap in (True, False):
        tasks.append({"kind": "lu", "machine": "xd1-slow-dram",
                      "cfg": LuSimConfig(n=18000, b=3000, k=8, b_f=3000, l=3, overlap=overlap)})
    (lu_on, lu_off, lu_bal_on, lu_bal_off, fw_on, fw_off,
     fw_bal_on, fw_bal_off, slow_on, slow_off) = (
        r["elapsed"] for r in _eval_sim_points(tasks)
    )
    rows = [
        ["LU n=18000 (FPGA-only)", lu_on, lu_off, f"{lu_off / lu_on:.3f}x"],
        ["LU n=18000 (balanced)", lu_bal_on, lu_bal_off, f"{lu_bal_off / lu_bal_on:.3f}x"],
        ["FW iter (FPGA-only)", fw_on, fw_off, f"{fw_off / fw_on:.3f}x"],
        ["FW iter (balanced)", fw_bal_on, fw_bal_off, f"{fw_bal_off / fw_bal_on:.3f}x"],
        ["LU FPGA-only, slow B_d", slow_on, slow_off, f"{slow_off / slow_on:.3f}x"],
    ]
    text = table(
        ["workload", "overlapped (s)", "no overlap (s)", "slowdown"],
        rows,
        title="Ablation: computation/communication overlap (Sections 4.2-4.3)",
    )
    text += (
        "\nUnoverlapped staging hurts the FPGA-bound configurations; at the "
        "balanced splits the CPU-side serial path hides it (by design)."
    )
    checks = {
        "lu_fpga_only_overlap_helps": lu_off > lu_on * 1.003,
        "fw_fpga_only_overlap_helps": fw_off > fw_on * 1.01,
        "balanced_split_hides_staging": lu_bal_off < lu_bal_on * 1.02,
        "slow_bd_makes_overlap_critical": slow_off > slow_on * 1.05,
    }
    return ExperimentResult("ablation-overlap", "overlap on/off", text, {"rows": rows}, checks)


def ablation_partition() -> ExperimentResult:
    """Naive T_p = T_f split (the earlier [22] rule) vs the Eq. 4
    transfer-aware split, on the XD1 and on a bandwidth-starved variant.

    On the XD1 the transfer terms are small relative to compute, so both
    rules land near the same b_f (a finding in itself: the refinement is
    cheap insurance there).  On a machine with a 10x slower FPGA-DRAM
    path, ignoring T_mem visibly misplaces the split.
    """
    b, k = 3000, 8
    rows = []
    results = {}
    for label, machine in (
        ("Cray XD1", "xd1"),
        ("XD1, 10x slower FPGA-DRAM path", "xd1-slow-dram"),
    ):
        spec = _spec_for(machine)
        design = MatrixMultiplyDesign.for_device(spec.node.fpga.device)
        params = spec.parameters("dgemm", design)
        naive = balance_flops(1.0, params)
        naive_bf = int(round(b * naive.n_f / k)) * k
        eq4_bf = lu_stripe_partition(b, k, params).b_f
        lat_naive, lat_eq4 = _eval_sim_points(
            [
                {"kind": "block_mm", "machine": machine, "b": b, "b_f": naive_bf, "k": k},
                {"kind": "block_mm", "machine": machine, "b": b, "b_f": eq4_bf, "k": k},
            ]
        )
        rows.append([label, naive_bf, lat_naive, eq4_bf, lat_eq4,
                     percent((lat_naive - lat_eq4) / lat_naive)])
        results[label] = (lat_naive, lat_eq4)
    text = table(
        ["machine", "naive b_f", "naive (s)", "Eq.4 b_f", "Eq.4 (s)", "gain"],
        rows,
        title="Ablation: naive T_p=T_f split vs Eq. 4 (one 3000x3000 block MM)",
    )
    xd1_naive, xd1_eq4 = results["Cray XD1"]
    slow_naive, slow_eq4 = results["XD1, 10x slower FPGA-DRAM path"]
    checks = {
        "rules_close_on_xd1": abs(xd1_eq4 - xd1_naive) / xd1_naive < 0.03,
        "eq4_wins_when_bandwidth_bound": slow_eq4 < slow_naive * 0.99,
    }
    return ExperimentResult(
        "ablation-partition", "naive vs Eq. 4 partition", text, {"rows": rows}, checks
    )


def _slow_dram_xd1():
    """The XD1 preset with the FPGA-DRAM link cut to 104 MB/s."""
    from .machine import with_fpga_dram_bandwidth

    return with_fpga_dram_bandwidth(cray_xd1(), 0.104e9)


def ablation_presets() -> ExperimentResult:
    """Design-model predictions across the Section 3 machine presets."""
    rows = []
    for key, factory in ALL_PRESETS.items():
        spec = factory()
        mm = MatrixMultiplyDesign.for_device(spec.node.fpga.device)
        fwd = FloydWarshallDesign.for_device(spec.node.fpga.device)
        lu_pred = (
            DesignModel(spec.parameters("dgemm", mm)).plan_lu(30000, 3000, mm.k).prediction.gflops
            if spec.p >= 2
            else None
        )
        fw_n = 256 * spec.p * 60
        fw_pred = DesignModel(spec.parameters("fw", fwd)).plan_fw(fw_n, 256, fwd.k).prediction.gflops
        rows.append(
            [spec.name, spec.p, mm.k, f"{mm.freq_hz / 1e6:.0f}",
             f"{lu_pred:.1f}" if lu_pred else "n/a (p=1)", f"{fw_pred:.2f}"]
        )
    text = table(
        ["machine", "p", "k", "F_f MHz", "LU pred (GFLOPS)", "FW pred (GFLOPS)"],
        rows,
        title="Ablation: model predictions across machine presets (Section 3 survey)",
    )
    xd1_fw = float(rows[0][5])
    checks = {
        "xd1_matches_headline_prediction": abs(xd1_fw - 6.84) < 0.1,
        "bigger_fpgas_predict_higher_fw": float(rows[1][5]) > xd1_fw,
    }
    return ExperimentResult("ablation-presets", "machine presets", text, {"rows": rows}, checks)


def ablation_blocksize() -> ExperimentResult:
    """Block-size selection: regenerate the Section 6.1 choices.

    LU: b must be a multiple of k and p-1 and the Eq. 4 split must fit
    the 8 MB SRAM (the paper picks 3000; the frontier sits at ~3800).
    FW: 2 b^2 words bound b at 720; the paper uses 256 where the
    processor's kernel is cache-resident.
    """
    from .core import (
        choose_fw_block_size,
        fw_block_size_bound,
        lu_block_candidates,
        max_lu_block_size,
    )

    spec = cray_xd1()
    lu_params = spec.parameters("dgemm", MatrixMultiplyDesign.for_device())
    fw_params = spec.parameters("fw", FloydWarshallDesign.for_device())
    cands = lu_block_candidates(lu_params, 8, b_max=4400)
    shown = [c for c in cands if c.b % 600 == 0]
    rows = [
        [c.b, c.b_f_unconstrained, c.sram_words_needed * 8 // 2**20, "yes" if c.feasible else "NO"]
        for c in shown
    ]
    text = table(
        ["b", "Eq.4 b_f", "SRAM needed (MB)", "feasible"],
        rows,
        title="Ablation: LU block-size feasibility (k=8, p=6, 8 MB SRAM)",
    )
    b_star = max_lu_block_size(lu_params, 8)
    fw_bound = fw_block_size_bound(fw_params, 8)
    fw_choice = choose_fw_block_size(fw_params, 8)
    text += (
        f"\nLargest feasible LU block: b = {b_star} (paper uses 3000)."
        f"\nFW tile bound from 2b^2 words on SRAM: b <= {fw_bound}; cache-resident "
        f"choice b = {fw_choice} (the paper's 256)."
    )
    by_b = {c.b: c for c in cands}
    checks = {
        "paper_lu_block_feasible": by_b[3000].feasible,
        "frontier_between_3000_and_4200": 3000 <= b_star < 4200,
        "fw_bound_is_720": fw_bound == 720,
        "fw_choice_is_256": fw_choice == 256,
    }
    return ExperimentResult(
        "ablation-blocksize", "block-size selection", text,
        {"lu_frontier": b_star, "fw_bound": fw_bound, "fw_choice": fw_choice},
        checks,
    )


def ext_ring_mm() -> ExperimentResult:
    """Extension: the model applied to a third application (ring MM).

    The paper positions its model for "a class of applications"; this
    experiment applies it beyond the two worked examples, to the
    distributed C = A x B of the authors' prior work [22], using
    Equation (2) for the split.  Ring MM has no serial panel path, so
    the hybrid should approach the *sum* of the baselines -- the model's
    best case, bracketing LU (~70%) and FW (~96%) from above.
    """
    from .apps.mm import MmDesign

    design = MmDesign(cray_xd1(), n=30000)  # plan only; the sims are cached tasks
    cmp = _eval_sim_point({"kind": "mm_compare", "n": 30000})
    text = bar_chart(
        ["Hybrid", "Processor-only", "FPGA-only", "Model prediction"],
        [cmp["hybrid"], cmp["cpu_only"], cmp["fpga_only"], cmp["predicted"]],
        "Extension: ring matrix multiplication, n = 30000, p = 6",
        unit=" GFLOPS",
    )
    text += (
        f"\nEq. 2 split: m_f = {design.plan.m_f} of r = {design.plan.r} rows per step; "
        f"{percent(cmp['fraction_of_sum'])} of baseline sum, "
        f"{percent(cmp['fraction_of_predicted'])} of prediction."
    )
    checks = {
        "hybrid_beats_cpu_only": cmp["speedup_vs_cpu"] > 1.3,
        "hybrid_beats_fpga_only": cmp["speedup_vs_fpga"] > 2.0,
        "near_sum_of_baselines": cmp["fraction_of_sum"] > 0.95,
        "near_prediction": cmp["fraction_of_predicted"] > 0.9,
    }
    return ExperimentResult(
        "ext-mm",
        "extension: ring matrix multiplication",
        text,
        {
            "hybrid": cmp["hybrid"],
            "cpu_only": cmp["cpu_only"],
            "fpga_only": cmp["fpga_only"],
            "predicted": cmp["predicted"],
        },
        checks,
    )


def ext_scaling() -> ExperimentResult:
    """Extension: node-count scaling beyond the paper's single chassis.

    Weak scaling for FW (fixed 12 block columns per node) and strong
    scaling for LU (n = 18000 across chassis sizes), simulated and
    compared with the Section 4.5 predictions.
    """
    fw_ps, lu_ps = (2, 4, 6, 12), (2, 3, 6)
    points = _eval_sim_points(
        [{"kind": "fw_weak", "p": p, "cols_per_node": 12} for p in fw_ps]
        + [{"kind": "lu_strong", "p": p, "n": 18000, "b": 3000} for p in lu_ps]
    )
    fw_points, lu_points = points[: len(fw_ps)], points[len(fw_ps):]
    rows = [
        ["FW weak", pt["p"], f"{pt['gflops']:.2f}", f"{pt['predicted']:.2f}",
         percent(pt["efficiency_of_prediction"])]
        for pt in fw_points
    ] + [
        ["LU strong", pt["p"], f"{pt['gflops']:.2f}", f"{pt['predicted']:.2f}",
         percent(pt["efficiency_of_prediction"])]
        for pt in lu_points
    ]
    text = table(
        ["study", "p", "simulated GFLOPS", "predicted GFLOPS", "sim/pred"],
        rows,
        title="Extension: scaling across chassis sizes (paper evaluates p = 6 only)",
    )
    text += (
        "\nFW scales near-linearly under weak scaling (uniform phases); LU's "
        "strong-scaling curve flattens as the serial panel path grows relative "
        "to the shrinking per-node opMM work -- Amdahl in the owner lane."
    )
    fw_g = [pt["gflops"] for pt in fw_points]
    lu_g = [pt["gflops"] for pt in lu_points]
    checks = {
        "fw_weak_scaling_monotone": all(b > a for a, b in zip(fw_g, fw_g[1:])),
        "fw_near_linear": fw_points[-1]["gflops"] / fw_points[0]["gflops"]
        > 0.8 * fw_points[-1]["p"] / fw_points[0]["p"],
        "lu_more_nodes_help": lu_g[-1] > lu_g[0],
        "predictions_are_upper_bounds": all(
            pt["efficiency_of_prediction"] <= 1.001 for pt in fw_points + lu_points
        ),
    }
    return ExperimentResult(
        "ext-scaling", "extension: chassis-size scaling", text,
        {"fw": fw_points, "lu": lu_points}, checks,
    )


ALL_EXPERIMENTS: dict[str, Callable[[], ExperimentResult]] = {
    "table1": table1_routines,
    "fig5": fig5_bf_sweep,
    "fig6": fig6_l_sweep,
    "fig7": fig7_l1_sweep,
    "fig8": fig8_lu_scaling,
    "fig9-lu": fig9_lu,
    "fig9-fw": fig9_fw,
    "ablation-overlap": ablation_overlap,
    "ablation-partition": ablation_partition,
    "ablation-presets": ablation_presets,
    "ablation-blocksize": ablation_blocksize,
    "ext-mm": ext_ring_mm,
    "ext-scaling": ext_scaling,
}


def run_all(jobs: Any = None, cache: Any = None) -> list[ExperimentResult]:
    """Run every experiment; returns results in presentation order.

    ``jobs`` and ``cache`` configure the sweep executor and result cache
    for the duration of the run (see :func:`configured`); the defaults
    consult ``REPRO_PARALLEL`` and ``REPRO_CACHE``.  Output is identical
    for any worker count and cache state.
    """
    with configured(jobs=jobs, cache=cache):
        return [fn() for fn in ALL_EXPERIMENTS.values()]


def main() -> int:  # pragma: no cover - exercised via the generator script
    results = run_all()
    for res in results:
        print("=" * 72)
        print(res.summary())
        print(res.text)
        print()
    failed = [r.id for r in results if not r.ok]
    if failed:
        print(f"FAILED checks in: {failed}")
        return 1
    print("All reproduction checks passed.")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

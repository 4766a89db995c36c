"""Tests for the fault-injection & graceful-degradation subsystem (repro.faults)."""

import json
from pathlib import Path

import pytest

from repro.apps.lu import LuDesign, simulate_lu
from repro.faults import (
    POLICIES,
    SCENARIO_BUILDERS,
    FaultEvent,
    FaultInjector,
    FaultScenario,
    ResilienceReport,
    StallBurst,
    brownout,
    build_scenario,
    degraded_link,
    fault_sweep,
    fpga_clock_throttle,
    node_failure,
    run_with_faults,
    transient_dma_stalls,
)
from repro.machine import cray_xd1
from repro.machine.system import ReconfigurableSystem
from repro.obs.metrics import REGISTRY
from repro.parallel import ResultCache
from repro.sim import ProcessFailure
from repro.sim.analytic import set_fast_path_mode
from repro.tune import SearchSpace, TuneSpec, run_tune

N, B = 12000, 3000  # small-but-real LU size (nb = 4, Table 1 latencies apply)


# ------------------------------------------------------------- scenarios


def test_fault_event_validation():
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultEvent(kind="meteor_strike")
    with pytest.raises(ValueError, match=">= 0"):
        FaultEvent(kind="link_slowdown", at=-1.0)
    with pytest.raises(ValueError, match="positive"):
        FaultEvent(kind="link_slowdown", duration=0.0)
    with pytest.raises(ValueError, match="factor"):
        FaultEvent(kind="dram_contention", factor=0.0)
    with pytest.raises(ValueError, match="node must be None"):
        FaultEvent(kind="link_slowdown", node=2)
    with pytest.raises(ValueError, match="duration"):
        FaultEvent(kind="dma_stall")
    with pytest.raises(ValueError, match="node id"):
        FaultEvent(kind="node_failure")
    with pytest.raises(ValueError, match="permanent"):
        FaultEvent(kind="node_failure", node=1, duration=0.5)


def test_scenario_json_round_trip():
    sc = brownout(seed=3) + transient_dma_stalls(count=2, seed=9) + node_failure(node=2)
    again = FaultScenario.from_dict(json.loads(json.dumps(sc.to_dict())))
    assert again == sc
    assert again.expand() == sc.expand()


def test_expand_is_seed_deterministic():
    a = transient_dma_stalls(count=5, seed=11)
    assert a.expand() == a.expand()
    assert a.expand() == FaultScenario.from_dict(a.to_dict()).expand()
    b = transient_dma_stalls(count=5, seed=12)
    assert a.expand() != b.expand()
    # bursts materialise as validated dma_stall events, sorted by time
    times = [e.at for e in a.expand()]
    assert times == sorted(times)
    assert all(e.kind == "dma_stall" and e.duration > 0 for e in a.expand())


def test_scenario_composition_and_views():
    sc = degraded_link(0.5) + fpga_clock_throttle(0.8) + node_failure(node=4, at=1.0)
    assert sc.name == "degraded-link+fpga-throttle+node-failure"
    factors = sc.rate_factors()
    assert factors == {"b_n": 0.5, "f_f": 0.8, "b_d": 1.0}
    assert sc.failed_nodes() == (4,)
    assert sc.without_node_failures().failed_nodes() == ()
    assert sc.first_fault_time() == 0.0


def test_build_scenario_filters_kwargs_and_rejects_unknown():
    sc = build_scenario("degraded-link", factor=0.25, node=None, seed=5)
    assert sc.events[0].factor == 0.25
    assert sc.seed == 5
    # 'factor' is not a knob of flaky-dma; it must be dropped, not crash
    build_scenario("flaky-dma", factor=0.25, count=2)
    with pytest.raises(ValueError, match="unknown scenario"):
        build_scenario("volcano")


# -------------------------------------------------------------- injector


def test_steady_link_slowdown_slows_the_run():
    design = LuDesign(cray_xd1(), N, B)
    nominal = design.simulate().elapsed
    faulted = design.simulate(faults=FaultInjector(degraded_link(0.5))).elapsed
    assert faulted > nominal


def test_injector_runs_are_bitwise_deterministic():
    design = LuDesign(cray_xd1(), N, B)
    sc = transient_dma_stalls(seed=13) + degraded_link(0.7)
    a = design.simulate(trace=True, faults=FaultInjector(sc))
    b = design.simulate(trace=True, faults=FaultInjector(sc))
    assert a.elapsed.hex() == b.elapsed.hex()
    assert [
        (i.category, i.label, i.start, i.end) for i in a.trace.intervals
    ] == [(i.category, i.label, i.start, i.end) for i in b.trace.intervals]


def test_injector_logs_and_traces_fault_marks():
    design = LuDesign(cray_xd1(), N, B)
    injector = FaultInjector(transient_dma_stalls(count=2, seed=1))
    result = design.simulate(trace=True, faults=injector)
    # 2 stalls x 6 nodes x (apply + revert)
    assert len(injector.injected) == 2 * 6 * 2
    marks = [i for i in result.trace.intervals if i.category == "faults"]
    assert len(marks) == len(injector.injected)
    assert all(m.start == m.end for m in marks)


def test_windowed_fault_restores_base_value_bitwise():
    sc = FaultScenario(
        name="window",
        events=(FaultEvent(kind="link_slowdown", at=0.01, duration=0.02, factor=0.5),),
    )
    spec = cray_xd1()
    base = spec.network.bandwidth
    system = ReconfigurableSystem(spec, trace=False)
    system.configure_fpgas(
        lambda: __import__(
            "repro.hw", fromlist=["MatrixMultiplyDesign"]
        ).MatrixMultiplyDesign.for_device(spec.node.fpga.device)
    )
    FaultInjector(sc).install(system)
    seen = []

    def probe(sim):
        for t in (0.005, 0.02, 0.05):
            yield sim.timeout(t - sim.now)
            seen.append(system.network.spec.bandwidth)

    system.sim.process(probe(system.sim))
    system.sim.run()
    assert seen[0] == base
    assert seen[1] == base * 0.5
    assert seen[2].hex() == base.hex()  # exact restore


def test_injector_is_single_use_and_validates_nodes():
    design = LuDesign(cray_xd1(), N, B)
    injector = FaultInjector(degraded_link(0.9))
    design.simulate(faults=injector)
    with pytest.raises(RuntimeError, match="already installed"):
        design.simulate(faults=injector)
    bad = FaultScenario(
        name="bad", events=(FaultEvent(kind="dram_contention", node=7, factor=0.5),)
    )
    with pytest.raises(ValueError, match="p=6"):
        design.simulate(faults=FaultInjector(bad))


def test_injector_log_is_identical_on_the_analytic_path():
    design = LuDesign(cray_xd1(), N, B)
    scenario = degraded_link(0.7) + fpga_clock_throttle(0.9) + FaultScenario(
        name="dram", events=(FaultEvent(kind="dram_contention", factor=1.1),)
    )
    runs = {}
    for mode in ("on", "off"):  # folded analytic replay vs DES
        injector = FaultInjector(scenario)
        result = simulate_lu(design.spec, design.config(), design=design.design,
                             faults=injector, fast_path=mode)
        runs[mode] = (result, injector.injected)
    assert runs["on"] == runs["off"]
    assert [(e["t"], e["phase"]) for e in runs["on"][1]] == [(0.0, "apply")] * 3


def test_node_failure_raises_structured_process_failure():
    design = LuDesign(cray_xd1(), N, B)
    with pytest.raises(ProcessFailure) as excinfo:
        design.simulate(trace=True, faults=FaultInjector(node_failure(node=1, at=0.05)))
    exc = excinfo.value
    assert exc.process_name == "fault:node_failure@1"
    assert exc.sim_time == pytest.approx(0.05)
    assert exc.lane == "faults"


# -------------------------------------------------------------- policies


def test_acceptance_lu_degraded_link_repartition_on_xd1():
    """The ISSUE acceptance bar: XD1, B_n x 0.5, repartition policy."""
    result = run_with_faults("lu", degraded_link(0.5), "repartition")
    assert not result.failed
    assert result.efficiency_retention >= 0.90
    assert result.attribution["term"] == "t_comm"
    assert "Eq. (2)" in result.attribution["gloss"]
    # the re-solved split moved work toward the FPGA (comm got pricier)
    assert result.partition["b_f"] > result.nominal_partition["b_f"]


def test_fail_fast_aborts_on_node_failure_and_records_context():
    result = run_with_faults("lu", node_failure(node=1, at=0.05), "fail-fast")
    assert result.failed
    assert result.failure["process"] == "fault:node_failure@1"
    assert result.failure["lane"] == "faults"
    assert result.efficiency_retention is None
    assert result.makespan_inflation is None


def test_exclude_node_survives_node_failure():
    result = run_with_faults("lu", node_failure(node=1, at=0.05), "exclude-node")
    assert not result.failed
    assert result.p_effective == 5
    assert result.attribution["term"] == "p"
    assert result.recovery_latency == pytest.approx(0.05)
    assert result.efficiency_retention > 0.5


def test_exclude_node_aborts_cleanly_on_incompatible_layout():
    # FW at the default size needs n % (b p) == 0; p=5 breaks that.
    result = run_with_faults("fw", node_failure(node=1), "exclude-node")
    assert result.failed
    assert result.failure["stage"] == "replan"


def test_run_with_faults_validates_inputs():
    with pytest.raises(ValueError, match="unknown policy"):
        run_with_faults("lu", degraded_link(), "pray")
    with pytest.raises(ValueError, match="unknown app"):
        run_with_faults("mm", degraded_link(), "repartition")
    with pytest.raises(ValueError, match="unknown preset"):
        run_with_faults("lu", degraded_link(), "repartition", preset="cray-3")


def test_run_with_faults_accepts_scenario_dicts():
    result = run_with_faults("lu", degraded_link(0.8).to_dict(), "degrade-static")
    assert result.scenario.name == "degraded-link"
    assert not result.failed


def test_fault_run_results_are_bitwise_reproducible():
    sc = transient_dma_stalls(seed=7) + degraded_link(0.6)
    a = run_with_faults("lu", sc, "repartition").to_dict()
    b = run_with_faults("lu", sc, "repartition").to_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


# ------------------------------------------------------------- fast path


def _counts(name: str) -> dict[tuple, float]:
    """Every ``name`` counter in the global registry, by sorted labels."""
    return {
        tuple(sorted(item["labels"].items())): item["value"]
        for item in REGISTRY.snapshot()
        if item["name"] == name
    }


def _delta(name: str, before: dict[tuple, float]) -> dict[tuple, float]:
    """The ``name`` counters that moved since ``before``."""
    after = _counts(name)
    moved = {k: v - before.get(k, 0.0) for k, v in after.items()}
    return {k: v for k, v in moved.items() if v}


@pytest.mark.parametrize("app", ["lu", "fw"])
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("name", sorted(SCENARIO_BUILDERS))
def test_fault_runs_equal_the_des_and_fold_unless_a_node_can_fail(app, policy, name):
    """The fast path changes no fault-run result, and takes every run a
    node failure cannot abort: those keep their trace and their DES,
    whose last active lane names where the failure struck."""
    scenario = build_scenario(name, seed=7)
    run_scenario = scenario.without_node_failures() if policy == "exclude-node" else scenario
    prev = set_fast_path_mode("auto")
    try:
        before = _counts("fastpath.points")
        fast = run_with_faults(app, scenario, policy).to_dict()
        points = _delta("fastpath.points", before)
        set_fast_path_mode("off")
        des = run_with_faults(app, scenario, policy).to_dict()
    finally:
        set_fast_path_mode(prev)
    assert json.dumps(fast, sort_keys=True) == json.dumps(des, sort_keys=True)
    if run_scenario.failed_nodes():
        assert fast["failed"] and fast["failure"]["lane"] is not None
    elif FaultInjector(run_scenario).steady_rates() is not None and not fast["failed"]:
        # the nominal run and the faulted run, both analytic
        assert points == {(("app", app), ("path", "analytic")): 2}


#: Refusal reasons a production path may count: unfoldable fault
#: timelines, monitors and configurations the replay
#: does not model.  Never ``ambiguous-tie``: the replay orders every
#: same-instant choice of these runs as the DES does.  Never ``trace``,
#: and never ``disabled``: no path turns the fast path off by itself,
#: only ``--fast-path off`` does.
ALLOWED_FALLBACKS = {"faults", "monitor", "unsupported-config"}


def test_fault_grid_and_resilience_tune_never_fall_back_for_a_trace():
    """The full ``experiments`` run, the CI fault grid, one campaign and
    one resilience tune count only :data:`ALLOWED_FALLBACKS`."""
    from repro import experiments as E
    from repro.campaign import CampaignSpec, run_campaign

    before = _counts("fastpath.fallback")
    E.run_all(jobs=1, cache=False)
    scenarios = [
        build_scenario(name, seed=7)
        for name in ("degraded-link", "dram-contention", "flaky-dma")
    ]
    fault_sweep(["lu", "fw"], scenarios, ["degrade-static", "repartition"],
                jobs=1, cache=False)
    run_campaign(CampaignSpec(replicates=2, seed=7), jobs=1, cache=False)
    space = SearchSpace(kind="block_mm", machine="xd1", fixed={"b": 240, "k": 8},
                        axes={"b_f": (0, 80, 160, 240)})
    run_tune(TuneSpec(space=space, resilience="degraded-link"), jobs=1, cache=False)
    reasons = {dict(labels)["reason"] for labels in _delta("fastpath.fallback", before)}
    assert "trace" not in reasons
    assert reasons <= ALLOWED_FALLBACKS


# ----------------------------------------------------------------- sweep


def test_fault_sweep_orders_results_and_caches(tmp_path):
    scenarios = [degraded_link(0.5), node_failure(node=1, at=0.05)]
    cache_dir = tmp_path / "cache"
    results = fault_sweep(
        ["lu"], scenarios, ["fail-fast", "exclude-node"], jobs=1, cache=str(cache_dir)
    )
    assert [(r["scenario"]["name"], r["policy"]) for r in results] == [
        ("degraded-link", "fail-fast"),
        ("degraded-link", "exclude-node"),
        ("node-failure", "fail-fast"),
        ("node-failure", "exclude-node"),
    ]
    assert results[2]["failed"] and not results[3]["failed"]
    fanned = fault_sweep(
        ["lu"], scenarios, ["fail-fast", "exclude-node"], jobs=2, cache=False
    )
    warm_cache = ResultCache(cache_dir)
    warm = fault_sweep(
        ["lu"], scenarios, ["fail-fast", "exclude-node"], jobs=1, cache=warm_cache
    )
    assert warm == results
    # Cold serial == cold two-worker == warm serial, bitwise.
    assert json.dumps(results) == json.dumps(fanned) == json.dumps(warm)
    assert warm_cache.hits == warm_cache.lookups == len(results)


# ---------------------------------------------------------------- report


def test_resilience_report_renders_both_shapes(tmp_path):
    from repro.obs import RunLedger, fault_run_entry

    result = run_with_faults("lu", degraded_link(0.5), "repartition").to_dict()
    # raw result dicts
    text = ResilienceReport([result]).render_ascii()
    assert "degraded-link" in text and "repartition" in text
    assert "Eq. (2)/(4) network term" in text
    # ledger manifests
    ledger = RunLedger(tmp_path / "ledger.jsonl")
    ledger.append(fault_run_entry(result, source="test"))
    report = ResilienceReport.from_ledger(ledger.path)
    assert len(report) == 1
    row = report.rows[0]
    assert row.efficiency_retention == pytest.approx(result["efficiency_retention"])
    assert report.summary()["aborted"] == 0
    assert report.to_dict()["rows"][0]["attributed_term"] == "t_comm"


def test_resilience_report_keeps_latest_per_triple(tmp_path):
    from repro.obs import RunLedger, fault_run_entry

    result = run_with_faults("lu", degraded_link(0.5), "degrade-static").to_dict()
    ledger = RunLedger(tmp_path / "ledger.jsonl")
    ledger.append(fault_run_entry(result, source="old"))
    ledger.append(fault_run_entry(result, source="new"))
    assert len(ResilienceReport.from_ledger(ledger.path)) == 1


def test_empty_report():
    report = ResilienceReport([])
    assert report.render_ascii() == "no fault runs recorded"
    assert report.summary()["worst_retention"] is None


# ------------------------------------------------------------------- CLI


def test_cli_faults_run_appends_ledger(tmp_path, capsys):
    from repro.cli import main

    ledger = tmp_path / "ledger.jsonl"
    rc = main([
        "faults", "run", "--app", "lu", "--scenario", "degraded-link",
        "--factor", "0.5", "--policy", "repartition", "--ledger", str(ledger),
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Eq. (2)/(4) network term" in out
    entries = json.loads(ledger.read_text().splitlines()[0])
    assert entries["kind"] == "fault_run" and entries["schema"] == 7


def test_cli_faults_run_json_and_validation(tmp_path, capsys):
    from repro.cli import main

    rc = main(["faults", "run", "--scenario", "degraded-link", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["policy"] == "repartition" and not payload["failed"]
    assert main(["faults", "run", "--policy", "pray"]) == 2
    assert main(["faults", "run", "--scenario", "volcano"]) == 2


def test_cli_faults_sweep_and_report(tmp_path, capsys):
    from repro.cli import main

    ledger = tmp_path / "ledger.jsonl"
    out_json = tmp_path / "results.json"
    rc = main([
        "faults", "sweep", "--apps", "lu", "--scenarios", "degraded-link",
        "--policies", "fail-fast,repartition", "--seed", "7",
        "--ledger", str(ledger), "--out", str(out_json),
    ])
    sweep_out = capsys.readouterr().out
    assert rc == 0
    assert "2 fault_run manifest(s)" in sweep_out
    assert len(json.loads(out_json.read_text())) == 2
    rc = main(["faults", "report", "--ledger", str(ledger)])
    report_out = capsys.readouterr().out
    assert rc == 0
    assert "fail-fast" in report_out and "repartition" in report_out
    rc = main(["faults", "report", "--ledger", str(ledger), "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0 and payload["summary"]["runs"] == 2


def test_cli_faults_sweep_rejects_unknown_policy(capsys):
    from repro.cli import main

    assert main(["faults", "sweep", "--policies", "pray"]) == 2


# ---------------------------------------------------------------- golden

_FAULT_GOLDEN = Path(__file__).parent / "golden" / "fault_runs.json"


def _golden_fault_runs() -> list[dict]:
    """Both apps x every policy x a rate fault and a node failure."""
    return [
        run_with_faults(app, scenario, policy).to_dict()
        for app in ("lu", "fw")
        for scenario in (degraded_link(0.5), node_failure(node=1, at=0.05))
        for policy in POLICIES
    ]


def test_fault_runs_match_golden():
    """Every policy path of both apps, byte for byte as sorted-key JSON.

    Regenerate (only when a result change is intended) with
    ``PYTHONPATH=src python tests/test_faults.py``.
    """
    current = json.dumps(_golden_fault_runs(), sort_keys=True, indent=1)
    assert current + "\n" == _FAULT_GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":  # pragma: no cover
    _FAULT_GOLDEN.write_text(
        json.dumps(_golden_fault_runs(), sort_keys=True, indent=1) + "\n", encoding="utf-8"
    )
    print(f"wrote {_FAULT_GOLDEN}")

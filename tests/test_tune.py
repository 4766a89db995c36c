"""Tests for the guided design-space autotuner (repro.tune).

Covers the search-space surface (axis parsing, feasibility, neighbours,
named spaces), Pareto-front extraction, the successive-halving driver's
acceptance contract on the paper's Figure 5 grid (within 2% of the
exhaustive optimum at <= 25% of the exhaustive DES evaluations, cold
cache), bitwise serial-vs-parallel determinism, manifest round-trips,
the resilience rung, and the ledger/dashboard integration.
"""

import json

import pytest

from repro.obs import RunLedger, tune_entry
from repro.obs.dashboard import render_ascii, render_html
from repro.obs.metrics import REGISTRY
from repro.sim.analytic import set_fast_path_mode
from repro.tune import (
    DEFAULT_SENSES,
    NAMED_SPACES,
    SearchSpace,
    TuneSpec,
    dominates,
    front_rows,
    load_manifest,
    named_space,
    objectives_for,
    pareto_front,
    parse_axis,
    point_task,
    render_tune,
    run_tune,
    run_tune_task,
)


def small_space(**overrides):
    """A 4-point block_mm space cheap enough for full-fidelity tests."""
    kw = dict(
        kind="block_mm",
        machine="xd1",
        fixed={"b": 240, "k": 8},
        axes={"b_f": (0, 80, 160, 240)},
    )
    kw.update(overrides)
    return SearchSpace(**kw)


# ---------------------------------------------------------------------------
# axis parsing
# ---------------------------------------------------------------------------


def test_parse_axis_inclusive_range():
    name, values = parse_axis("b_f=0:3000:200")
    assert name == "b_f"
    assert values[0] == 0 and values[-1] == 3000
    assert len(values) == 16  # inclusive bounds, like the paper's sweeps


def test_parse_axis_list_and_floats():
    assert parse_axis("k=2,4,6,8") == ("k", (2, 4, 6, 8))
    assert parse_axis("x=1.5,2") == ("x", (1.5, 2))


def test_parse_axis_rejects_malformed():
    for bad in ("b_f", "b_f=", "=1:2", "b_f=3:1", "b_f=0:10:0", "b_f=1:2:3:4"):
        with pytest.raises(ValueError):
            parse_axis(bad)


# ---------------------------------------------------------------------------
# SearchSpace
# ---------------------------------------------------------------------------


def test_space_validates_kind_machine_params():
    with pytest.raises(ValueError, match="unknown space kind"):
        SearchSpace(kind="qr", axes={"b": (1,)})
    with pytest.raises(ValueError, match="unknown machine"):
        small_space(machine="roadrunner")
    with pytest.raises(ValueError, match="at least one axis"):
        SearchSpace(kind="block_mm", fixed={"b": 240, "b_f": 0, "k": 8}, axes={})
    with pytest.raises(ValueError, match="unknown parameter"):
        small_space(axes={"zeta": (1, 2)})
    with pytest.raises(ValueError, match="both fixed and swept"):
        small_space(fixed={"b": 240, "k": 8, "b_f": 0})
    with pytest.raises(ValueError, match="missing parameters"):
        SearchSpace(kind="block_mm", fixed={"b": 240}, axes={"b_f": (0, 80)})


def test_space_accepts_range_strings_and_dicts():
    a = small_space(axes={"b_f": "0:240:80"})
    b = small_space(axes={"b_f": {"start": 0, "stop": 240, "step": 80}})
    assert a.axes["b_f"] == b.axes["b_f"] == (0, 80, 160, 240)


def test_space_feasibility_block_mm():
    space = small_space(axes={"b_f": (0, 240, 480)})
    assert space.feasible({"b_f": 0}) and space.feasible({"b_f": 240})
    assert not space.feasible({"b_f": 480})  # b_f > b
    assert not small_space(fixed={"b": 241, "k": 8}).feasible({"b_f": 0})  # b % k
    # k beyond what the device fits fails synthesis, hence infeasible.
    big_k = small_space(fixed={"b": 240}, axes={"b_f": (0,), "k": (64,)})
    assert not big_k.feasible({"b_f": 0, "k": 64})


def test_space_feasibility_fw_split_covers_phase_workload():
    # n / (b p) = 18432 / (256 * 6) = 12, so l1 + l2 must equal 12.
    space = named_space("fw-split")
    assert space.feasible({"l1": 2, "l2": 10})
    assert not space.feasible({"l1": 2, "l2": 9})
    assert all(pt["l1"] + pt["l2"] == 12 for pt in space.points())
    assert len(space.points()) == 13


def test_space_points_in_grid_order():
    space = small_space()
    assert space.points() == [{"b_f": v} for v in (0, 80, 160, 240)]
    assert space.params({"b_f": 80}) == {"b": 240, "k": 8, "b_f": 80}


def test_space_neighbors():
    space = small_space()
    assert space.neighbors({"b_f": 80}) == [{"b_f": 0}, {"b_f": 160}]
    assert space.neighbors({"b_f": 0}) == [{"b_f": 80}]
    assert space.neighbors({"b_f": 0}, radius=2) == [{"b_f": 80}, {"b_f": 160}]
    # Infeasible coordinates are skipped.
    edge = small_space(axes={"b_f": (160, 240, 480)})
    assert edge.neighbors({"b_f": 240}) == [{"b_f": 160}]


def test_space_dict_round_trip():
    space = named_space("mm-codesign")
    again = SearchSpace.from_dict(space.to_dict())
    assert again == space
    assert again.to_dict() == space.to_dict()


def test_named_spaces():
    for name in NAMED_SPACES:
        space = named_space(name)
        assert space.points(), name
    assert len(named_space("fig5-bf").points()) == 16
    with pytest.raises(ValueError, match="unknown space"):
        named_space("fig5")


# ---------------------------------------------------------------------------
# Pareto front
# ---------------------------------------------------------------------------


def _row(point, **obj):
    return {"point": point, "objectives": obj}


def test_dominates_respects_senses():
    senses = {"gflops": "max", "slice_utilisation": "min"}
    a = {"gflops": 10.0, "slice_utilisation": 0.5}
    b = {"gflops": 8.0, "slice_utilisation": 0.5}
    c = {"gflops": 8.0, "slice_utilisation": 0.4}
    assert dominates(a, b, senses)
    assert not dominates(b, a, senses)
    assert not dominates(a, c, senses) and not dominates(c, a, senses)  # trade-off
    assert not dominates(a, a, senses)  # equal on all => no strict gain


def test_pareto_front_extraction_and_order():
    rows = [
        _row({"x": 1}, gflops=10.0, slice_utilisation=0.9),
        _row({"x": 2}, gflops=8.0, slice_utilisation=0.5),   # trade-off: survives
        _row({"x": 3}, gflops=7.0, slice_utilisation=0.6),   # dominated by x=2
        _row({"x": 4}, gflops=8.0, slice_utilisation=0.5),   # duplicate: survives
    ]
    front = pareto_front(rows, {"gflops": "max", "slice_utilisation": "min"})
    assert [r["point"]["x"] for r in front] == [1, 2, 4]  # desc gflops, point tiebreak


def test_pareto_front_drops_missing_objectives_and_rejects_empty_senses():
    rows = [
        _row({"x": 1}, gflops=10.0, resilience=None),
        _row({"x": 2}, gflops=8.0, resilience=0.99),
    ]
    # resilience is not usable (None in one row) -> gflops-only front.
    front = pareto_front(rows, {"gflops": "max", "resilience": "max"})
    assert [r["point"]["x"] for r in front] == [1]
    with pytest.raises(ValueError, match="no usable objectives"):
        pareto_front(rows, {"resilience": "max"})
    assert pareto_front([], DEFAULT_SENSES) == []


# ---------------------------------------------------------------------------
# TuneSpec
# ---------------------------------------------------------------------------


def test_tune_spec_validation():
    space = small_space()
    with pytest.raises(ValueError, match="eta"):
        TuneSpec(space=space, eta=1)
    with pytest.raises(ValueError, match="budget"):
        TuneSpec(space=space, budget=0)
    with pytest.raises(ValueError, match="refine"):
        TuneSpec(space=space, refine=-1)
    with pytest.raises(ValueError, match="resilience_keep"):
        TuneSpec(space=space, resilience_keep=0)


def test_tune_spec_budget_defaults_to_quarter_of_space():
    spec = TuneSpec(space=small_space())
    assert spec.effective_budget(16) == 4
    assert spec.effective_budget(17) == 5  # ceil
    assert spec.effective_budget(1) == 1
    assert TuneSpec(space=small_space(), budget=9).effective_budget(16) == 9


def test_tune_spec_dict_round_trip():
    spec = TuneSpec(
        space=small_space(), seed=7, eta=3, budget=5,
        refine=2, resilience="brownout", resilience_keep=3,
    )
    assert TuneSpec.from_dict(spec.to_dict()) == spec
    lean = TuneSpec(space=small_space())
    assert "budget" not in lean.to_dict() and "resilience" not in lean.to_dict()
    assert TuneSpec.from_dict(lean.to_dict()) == lean


# ---------------------------------------------------------------------------
# the search driver
# ---------------------------------------------------------------------------


def exhaustive_best_gflops(space):
    """The full-fidelity optimum, by DES-evaluating every feasible point."""
    prev = set_fast_path_mode("off")
    try:
        return max(
            objectives_for(space, pt, run_tune_task(point_task(space, pt)))["gflops"]
            for pt in space.points()
        )
    finally:
        set_fast_path_mode(prev)


def test_fig5_acceptance_within_2pct_at_quarter_budget():
    """The ISSUE acceptance bar: on the paper's Figure 5 grid the guided
    search must land within 2% of the exhaustive DES optimum while
    scheduling at most 25% of the exhaustive DES evaluations, cold cache."""
    space = named_space("fig5-bf")
    manifest = run_tune(TuneSpec(space=space, seed=0), jobs=1, cache=False)
    assert manifest["space"]["size"] == 16
    assert manifest["exhaustive_des"] == 16
    assert manifest["budget"]["des"] == 4  # ceil(16 / 4)
    used = manifest["budget"]["des_used"]
    assert used == manifest["evals"]["des"] <= 4
    assert used / manifest["exhaustive_des"] <= 0.25
    assert manifest["savings"]["fraction_of_exhaustive"] == used / 16
    incumbent = manifest["incumbent"]["objectives"]["gflops"]
    best = exhaustive_best_gflops(space)
    assert incumbent >= (1.0 - 0.02) * best
    assert manifest["incumbent"]["fidelity"] == "des"


def test_run_tune_manifest_shape_and_counters():
    before = {
        name: REGISTRY.counter(f"tune.evals.{name}").value
        for name in ("analytic", "des", "resilience")
    }
    rungs_before = REGISTRY.counter("tune.rungs").value
    manifest = run_tune(TuneSpec(space=small_space(), seed=1), jobs=1, cache=False)
    assert manifest["kind"] == "tune"
    assert manifest["app"] == "block_mm" and manifest["preset"] == "xd1"
    assert manifest["evals"]["analytic"] == 4
    assert len(manifest["points"]) == 4
    assert manifest["rungs"][0]["fidelity"] == "analytic"
    assert manifest["rungs"][1]["fidelity"] == "des"
    assert manifest["objectives"] == {"gflops": "max", "slice_utilisation": "min"}
    assert manifest["front"], "front must be non-empty"
    # The incumbent is never dominated, so it sits on the front.
    front_points = [r["point"] for r in manifest["front"]]
    assert manifest["incumbent"]["point"] in front_points
    # Registry counters advanced by exactly the scheduled evaluations.
    for name in ("analytic", "des", "resilience"):
        delta = REGISTRY.counter(f"tune.evals.{name}").value - before[name]
        assert delta == manifest["evals"][name]
    assert REGISTRY.counter("tune.rungs").value - rungs_before == len(manifest["rungs"])


def test_run_tune_honors_explicit_budget():
    manifest = run_tune(
        TuneSpec(space=small_space(), seed=0, budget=1), jobs=1, cache=False
    )
    assert manifest["budget"] == {"des": 1, "des_used": 1}
    assert manifest["evals"]["des"] == 1


def test_run_tune_budget_counts_scheduled_evals_not_cache_misses(tmp_path):
    """A warm cache must change wall-clock only, never the trajectory."""
    spec = TuneSpec(space=small_space(), seed=3)
    cold = run_tune(spec, jobs=1, cache=str(tmp_path / "cache"))
    warm = run_tune(spec, jobs=1, cache=str(tmp_path / "cache"))
    assert json.dumps(cold, sort_keys=True) == json.dumps(warm, sort_keys=True)
    assert warm["budget"]["des_used"] == cold["budget"]["des_used"]


def test_run_tune_simulates_each_point_once_and_equals_the_des_run():
    """The DES rungs re-rank rung 0's values: a run simulates each point
    once, on the fast path, and its manifest equals the same run with
    every point simulated on the DES."""
    spec = TuneSpec(space=small_space(), seed=0)

    def served(path):
        return REGISTRY.counter("fastpath.points", app="block_mm", path=path).value

    before = served("analytic"), served("des")
    fast = run_tune(spec, jobs=1, cache=False)
    assert (served("analytic") - before[0], served("des") - before[1]) == (4, 0)
    assert fast["evals"]["des"] >= 1
    prev = set_fast_path_mode("off")
    try:
        des = run_tune(spec, jobs=1, cache=False)
    finally:
        set_fast_path_mode(prev)
    assert json.dumps(fast, sort_keys=True) == json.dumps(des, sort_keys=True)


def _fig5_tune(cache):
    return run_tune(TuneSpec(space=named_space("fig5-bf"), seed=7), jobs=1, cache=cache)


def test_fig5_sweep_warms_the_tuner_analytic_rung(tmp_path):
    """Every analytic task of the fig5-bf space replays a fig5 entry."""
    from repro import experiments as E

    cache = str(tmp_path / "cache")
    with E.configured(cache=cache):
        E.fig5_bf_sweep()
    hits = REGISTRY.counter("tune.cache_hits").value
    analytic = REGISTRY.counter("tune.evals.analytic").value
    manifest = _fig5_tune(cache)
    hits = REGISTRY.counter("tune.cache_hits").value - hits
    analytic = REGISTRY.counter("tune.evals.analytic").value - analytic
    assert hits == analytic == manifest["evals"]["analytic"] == 16


def test_tuner_warms_the_fig5_sweep(tmp_path):
    """After a tune run, fig5 replays every point from the cache."""
    from repro import experiments as E

    cache = str(tmp_path / "cache")
    _fig5_tune(cache)
    # The cache's own counters hold in any jobs mode (SIM_CALLS would not
    # see simulations run in pool workers).
    with E.configured(cache=cache) as (_, c):
        assert E.fig5_bf_sweep().ok
    assert c.misses == 0
    assert c.hits == c.lookups == 16


def test_run_tune_serial_parallel_bitwise_identical():
    spec = TuneSpec(space=named_space("fig5-bf"), seed=7)
    serial = run_tune(spec, jobs=1, cache=False)
    parallel = run_tune(spec, jobs=4, cache=False)
    assert json.dumps(serial, sort_keys=True) == json.dumps(parallel, sort_keys=True)


def test_run_tune_rejects_empty_space():
    space = small_space(axes={"b_f": (241, 243)})  # all infeasible (b_f % 8)
    with pytest.raises(ValueError, match="no feasible points"):
        run_tune(TuneSpec(space=space), jobs=1, cache=False)


def test_run_tune_resilience_rung_adds_third_objective():
    """Also on an ``fw`` space, whose probes run the point's own (l1, l2)."""
    for space in (small_space(), named_space("fw-split")):
        manifest = run_tune(
            TuneSpec(space=space, seed=0, resilience="degraded-link"),
            jobs=1,
            cache=False,
        )
        assert manifest["objectives"]["resilience"] == "max"
        assert manifest["rungs"][-1]["fidelity"] == "resilience"
        assert manifest["evals"]["resilience"] >= 1
        assert manifest["scenario"]["name"] == "degraded-link"
        for row in manifest["front"]:
            assert row["objectives"]["resilience"] is not None
            assert 0.0 <= row["objectives"]["resilience"] <= 1.0


def test_resilience_probe_runs_the_points_own_k(monkeypatch):
    """``mm-codesign`` crosses ``b_f`` with the PE count ``k``: each
    candidate's fault probe must build its design at that ``k``, not at
    the device's default (8 on the XD1)."""
    from repro.faults import build_scenario
    from repro.tune.evaluate import resilience_task

    space = named_space("mm-codesign")
    scenario = build_scenario("degraded-link", seed=7).to_dict()
    tasks = {k: resilience_task(space, {"b_f": 1000, "k": k}, scenario) for k in (4, 8)}
    assert tasks[4] != tasks[8] and tasks[4]["k"] == 4
    seen = []
    import repro.faults as faults

    real = faults.run_with_faults

    def spy(*args, **kwargs):
        result = real(*args, **kwargs)
        seen.append(result.nominal_partition["k"])
        return result

    monkeypatch.setattr(faults, "run_with_faults", spy)
    run_tune_task(tasks[4])
    assert seen == [4]


def test_run_tune_telemetry_stays_out_of_manifest(tmp_path):
    telemetry = {}
    manifest = run_tune(
        TuneSpec(space=small_space(), seed=0),
        jobs=1,
        cache=str(tmp_path / "cache"),
        telemetry=telemetry,
    )
    assert "executor" in telemetry and "cache" in telemetry
    assert "telemetry" not in manifest and "executor" not in manifest


# ---------------------------------------------------------------------------
# manifests, reports, ledger, dashboard
# ---------------------------------------------------------------------------


def test_manifest_write_load_round_trip(tmp_path):
    manifest = run_tune(TuneSpec(space=small_space(), seed=0), jobs=1, cache=False)
    path = tmp_path / "tune.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    assert load_manifest(str(path)) == manifest
    bad = tmp_path / "other.json"
    bad.write_text(json.dumps({"kind": "campaign"}))
    with pytest.raises(ValueError, match="not a tune manifest"):
        load_manifest(str(bad))


def test_render_tune_report(tmp_path):
    manifest = run_tune(TuneSpec(space=small_space(), seed=0), jobs=1, cache=False)
    text = render_tune(manifest)
    assert "Successive-halving rungs" in text
    assert "Pareto front" in text
    assert "incumbent:" in text
    assert "of exhaustive" in text
    rows = front_rows(manifest)
    assert rows and all(len(r) == 5 for r in rows)  # no resilience column


def test_tune_entry_renders_in_both_dashboards(tmp_path):
    manifest = run_tune(TuneSpec(space=small_space(), seed=0), jobs=1, cache=False)
    ledger = RunLedger(str(tmp_path / "ledger.jsonl"))
    ledger.append(tune_entry(manifest, source="test"))
    entries = ledger.entries()
    ascii_dash = render_ascii(entries)
    assert "guided tuning" in ascii_dash
    assert "GFLOPS" in ascii_dash
    html = render_html(entries)
    assert "Guided tuning Pareto front (block_mm@xd1)" in html


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


def test_cli_tune_run_adhoc_json(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "tune.json"
    rc = main(
        [
            "tune", "run",
            "--kind", "block_mm",
            "--fixed", "b=240",
            "--fixed", "k=8",
            "--axis", "b_f=0:240:80",
            "--cache", "off",
            "--json",
            "--out", str(out),
        ]
    )
    assert rc == 0
    payload = capsys.readouterr().out.partition("\nmanifest written to")[0]
    manifest = json.loads(payload)
    assert manifest["kind"] == "tune"
    assert manifest["space"]["size"] == 4
    assert load_manifest(str(out)) == manifest


def test_cli_tune_run_rejects_space_and_adhoc_mix(capsys):
    from repro.cli import main

    rc = main(["tune", "run", "--space", "fig5-bf", "--kind", "block_mm"])
    assert rc == 2
    assert "exclusive" in capsys.readouterr().out

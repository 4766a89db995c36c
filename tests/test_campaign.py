"""Tests for the statistical campaign harness (repro.campaign)."""

import json

import pytest

from repro.campaign import (
    CampaignSpec,
    PerturbationModel,
    campaign_tasks,
    cell_key,
    default_model,
    derive_seed,
    resolve_seed,
    run_campaign,
    run_replicate,
)
from repro.campaign.seeds import SEED_ENV_VAR
from repro.faults.scenarios import FaultEvent, FaultScenario

#: Small problem sizes so a replicate is a few milliseconds.
SIZES = {"lu": (6000, 3000), "fw": (9216, 256)}


def _spec(**over):
    defaults = dict(
        apps=("lu",),
        replicates=3,
        seed=7,
        sizes=SIZES,
    )
    defaults.update(over)
    return CampaignSpec(**defaults)


# ------------------------------------------------------------------ seeds


def test_resolve_seed_precedence(monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    assert resolve_seed() == 0
    assert resolve_seed(42) == 42
    monkeypatch.setenv(SEED_ENV_VAR, "99")
    assert resolve_seed() == 99
    assert resolve_seed(1) == 1  # explicit argument wins over the env
    monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
    with pytest.raises(ValueError, match="invalid seed"):
        resolve_seed()


def test_derive_seed_stable_and_distinct():
    a = derive_seed(7, "lu@xd1/nominal", 0)
    assert a == derive_seed(7, "lu@xd1/nominal", 0)  # deterministic
    assert a != derive_seed(7, "lu@xd1/nominal", 1)  # per replicate
    assert a != derive_seed(7, "fw@xd1/nominal", 0)  # per cell
    assert a != derive_seed(8, "lu@xd1/nominal", 0)  # per master
    assert 0 <= a < 2**63


# ---------------------------------------------------------------- perturb


def test_perturbation_model_validates():
    with pytest.raises(ValueError, match="bandwidth_jitter"):
        PerturbationModel(bandwidth_jitter=1.5)
    with pytest.raises(ValueError, match="stall_count"):
        PerturbationModel(stall_count=-1)
    assert PerturbationModel(
        bandwidth_jitter=0, dram_jitter=0, clock_jitter=0, stall_count=0
    ).is_null
    assert not default_model().is_null


def test_sample_is_deterministic_and_bounded():
    model = default_model()
    s1 = model.sample(123)
    s2 = model.sample(123)
    assert s1.to_dict() == s2.to_dict()
    assert s1.to_dict() != model.sample(124).to_dict()
    factors = {e.kind: e.factor for e in s1.events}
    assert 0.95 <= factors["link_slowdown"] <= 1.05
    assert 0.95 <= factors["dram_contention"] <= 1.05
    assert 0.95 <= factors["fpga_throttle"] <= 1.0  # throttle-only
    assert len(s1.bursts) == 1


def test_sample_carries_base_scenario():
    base = FaultScenario(
        name="degraded-link",
        events=(FaultEvent(kind="link_slowdown", factor=0.5),),
    )
    drawn = default_model().sample(5, base=base)
    assert drawn.name == "degraded-link+perturb"
    assert drawn.events[0].factor == 0.5  # base event carried verbatim
    assert len(drawn.events) == 4  # base + three jitter events
    assert drawn.seed == 5


def test_perturb_roundtrips_via_dict():
    model = PerturbationModel(bandwidth_jitter=0.1, stall_count=2)
    assert PerturbationModel.from_dict(model.to_dict()) == model


# ----------------------------------------------------------------- runner


def test_run_replicate_nominal_lu():
    task = campaign_tasks(_spec(replicates=1))[0]
    result = run_replicate(task)
    assert result["failed"] is False
    assert result["makespan"] > 0
    assert result["overlap_efficiency"] > 0.85
    assert result["hist"]["count"] == 1
    assert result["seed"] == task["seed"]


def test_run_replicate_node_failure_reports_failed():
    task = campaign_tasks(_spec(replicates=1))[0]
    task["scenario"]["events"].append(
        {"kind": "node_failure", "at": 0.001, "node": 1, "factor": 1.0}
    )
    result = run_replicate(task)
    assert result["failed"] is True
    assert "failure" in result


def test_unknown_app_rejected():
    with pytest.raises(ValueError, match="unknown app"):
        campaign_tasks(_spec(apps=("sparse-qr",)))
    with pytest.raises(ValueError, match="unknown app"):
        run_campaign(_spec(apps=("lu", "sparse-qr")), jobs=1, cache=False)


# ------------------------------------------------------------------- core


def test_spec_validates():
    with pytest.raises(ValueError, match="replicates"):
        _spec(replicates=0)
    with pytest.raises(ValueError, match="at least one app"):
        _spec(apps=())
    with pytest.raises(ValueError, match="throttle_fpga"):
        _spec(throttle_fpga=1.5)


def test_spec_roundtrips_via_dict():
    spec = _spec(throttle_fpga=0.8)
    assert CampaignSpec.from_dict(spec.to_dict()) == spec


def test_campaign_tasks_grid_and_seeds():
    spec = _spec(apps=("lu", "fw"), replicates=3)
    tasks = campaign_tasks(spec)
    assert len(tasks) == 6  # 2 apps x 1 scenario x 3 replicates
    seeds = [t["seed"] for t in tasks]
    assert len(set(seeds)) == len(seeds)  # all distinct
    assert tasks[0]["seed"] == derive_seed(7, cell_key("lu", "xd1", "nominal"), 0)
    # every task embeds its own concrete perturbation draw
    scenarios = [json.dumps(t["scenario"], sort_keys=True) for t in tasks]
    assert len(set(scenarios)) == len(scenarios)


def test_run_campaign_manifest_shape_and_stats():
    manifest = run_campaign(_spec(replicates=5), jobs=1, cache=False)
    assert manifest["kind"] == "campaign"
    assert manifest["points"] == 5
    assert manifest["failures"] == 0
    (cell,) = manifest["cells"].values()
    mk = cell["makespan"]
    assert len(mk["samples"]) == 5
    assert mk["min"] <= mk["q25"] <= mk["median"] <= mk["q75"] <= mk["p95"] <= mk["max"]
    assert mk["iqr"] == pytest.approx(mk["q75"] - mk["q25"])
    assert mk["p99"] <= mk["max"]
    # the merged histogram counts every completed replicate (satellite:
    # Histogram.merge feeds the cell aggregate)
    assert cell["hist"]["count"] == 5
    assert cell["efficiency"]["median"] > 0.85
    assert cell["predicted_latency"] > 0


def test_run_campaign_deterministic_and_seed_sensitive():
    spec = _spec(replicates=2)
    a = run_campaign(spec, jobs=1, cache=False)
    b = run_campaign(spec, jobs=1, cache=False)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    c = run_campaign(_spec(replicates=2, seed=8), jobs=1, cache=False)
    assert json.dumps(a, sort_keys=True) != json.dumps(c, sort_keys=True)


def test_run_campaign_serial_parallel_bitwise_identical():
    spec = _spec(apps=("lu",), replicates=4)
    serial = run_campaign(spec, jobs=1, cache=False)
    parallel = run_campaign(spec, jobs=2, cache=False)
    assert json.dumps(serial, sort_keys=True) == json.dumps(parallel, sort_keys=True)


def test_run_campaign_uses_result_cache(tmp_path):
    spec = _spec(replicates=2)
    cold = run_campaign(spec, jobs=1, cache=str(tmp_path / "cache"))
    warm = run_campaign(spec, jobs=1, cache=str(tmp_path / "cache"))
    assert json.dumps(cold, sort_keys=True) == json.dumps(warm, sort_keys=True)


def test_run_campaign_telemetry_splits_replicates_by_engine(tmp_path):
    jitter = _spec(apps=("lu", "fw"), perturb=PerturbationModel(stall_count=0))
    for jobs, mode in ((1, "serial"), (2, "parallel")):
        telemetry: dict = {}
        run_campaign(jitter, jobs=jobs, cache=False, telemetry=telemetry)
        assert telemetry["executor"]["mode"] == mode  # worker counters ship back
        assert telemetry["replicates"] == {"analytic": 6, "des": 0}
    telemetry = {}
    run_campaign(_spec(apps=("lu", "fw")), jobs=2, cache=False, telemetry=telemetry)
    # Stall bursts: LU and FW both fold them into their schedule's replay.
    assert telemetry["replicates"] == {"analytic": 6, "des": 0}
    cache = str(tmp_path / "cache")
    run_campaign(jitter, jobs=1, cache=cache)
    telemetry = {}
    run_campaign(jitter, jobs=1, cache=cache, telemetry=telemetry)
    assert telemetry["replicates"] == {"analytic": 0, "des": 0}  # all cache hits


def test_throttled_campaign_is_slower():
    base = run_campaign(_spec(replicates=3), jobs=1, cache=False)
    slow = run_campaign(_spec(replicates=3, throttle_fpga=0.8), jobs=1, cache=False)
    (b,) = base["cells"].values()
    (s,) = slow["cells"].values()
    assert s["makespan"]["median"] > b["makespan"]["median"]
    # the throttle event is recorded in the cell's base scenario
    kinds = [e["kind"] for e in s["scenario"]["events"]]
    assert "fpga_throttle" in kinds


def test_manifest_is_json_serializable():
    manifest = run_campaign(_spec(replicates=2), jobs=1, cache=False)
    json.dumps(manifest)  # no histograms/dataclasses leaking through

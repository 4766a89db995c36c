"""End-to-end tests for the regression root-cause explainer
(repro.campaign.explain): flagged cells re-run traced on both sides and
diffed into deterministic blame manifests."""

import json

import pytest

from repro.apps import build_design
from repro.campaign import (
    CampaignSpec,
    compare_campaigns,
    explain_cell,
    explain_comparison,
    pick_replicate,
    replicate_task,
    run_campaign,
)
from repro.campaign.explain import run_traced

#: Small problem sizes so a replicate is a few milliseconds.
SIZES = {"lu": (6000, 3000), "fw": (9216, 256)}

#: With the Mann-Whitney continuity correction, 3v3 samples can never
#: reach p < 0.05; 4 replicates is the flagging minimum (p ~ 0.03).
REPLICATES = 4

#: The LU throttle shift at these sizes is ~+1.8%, below the default 2%
#: effect gate, so the explainer tests pin a 1% threshold.
EFFECT = 0.01


def _spec(**over):
    defaults = dict(apps=("lu", "fw"), replicates=REPLICATES, seed=7, sizes=SIZES)
    defaults.update(over)
    return CampaignSpec(**defaults)


@pytest.fixture(scope="module")
def campaign_pair():
    baseline = run_campaign(_spec(), cache=False)
    throttled = run_campaign(_spec(throttle_fpga=0.8), cache=False)
    return baseline, throttled


# --------------------------------------------------- replicate selection


def test_pick_replicate_prefers_median_sample():
    base = {
        "replicates": 4,
        "makespan": {"samples": [10.0, 11.0, 12.0, 13.0], "median": 11.5},
    }
    cur = {
        "replicates": 4,
        "makespan": {"samples": [20.0, 21.0, 23.0, 24.0], "median": 22.0},
    }
    assert pick_replicate(base, cur) == 1  # |21-22| == |23-22|: lowest index

    cur["failed_replicates"] = [1]
    cur["makespan"]["samples"] = [20.0, 23.0, 24.0]
    assert pick_replicate(base, cur) == 2  # replicate 1 gone; 23 is nearest


def test_pick_replicate_requires_shared_completion():
    base = {"replicates": 2, "failed_replicates": [0], "makespan": {"samples": [1.0]}}
    cur = {"replicates": 2, "failed_replicates": [1], "makespan": {"samples": [1.0]}}
    with pytest.raises(ValueError, match="no replicate completed on both sides"):
        pick_replicate(base, cur)


def test_replicate_task_rebuilds_the_campaign_draw(campaign_pair):
    """The reconstructed task must match what campaign_tasks produced."""
    from repro.campaign import campaign_tasks

    _, throttled = campaign_pair
    spec = _spec(throttle_fpga=0.8)
    key = "lu@xd1/nominal"
    original = [
        t for t in campaign_tasks(spec) if t["cell"] == key and t["replicate"] == 1
    ][0]
    rebuilt = replicate_task(throttled, key, 1)
    assert rebuilt["seed"] == original["seed"]
    assert rebuilt["scenario"] == original["scenario"]
    assert (rebuilt["n"], rebuilt["b"]) == (original["n"], original["b"])


def test_run_traced_matches_campaign_makespan(campaign_pair):
    """Traced re-simulation reproduces the campaign's sample exactly."""
    _, throttled = campaign_pair
    key = "lu@xd1/nominal"
    task = replicate_task(throttled, key, 0)
    traced = run_traced(task)
    assert traced["makespan"] == throttled["cells"][key]["makespan"]["samples"][0]
    assert traced["critical_path"]["by_resource"]
    assert traced["lanes"]
    assert traced["activity"]


# ------------------------------------------------------- explanations


def test_throttle_blames_fpga_for_both_apps(campaign_pair):
    baseline, throttled = campaign_pair
    comparison = compare_campaigns(baseline, throttled, effect_threshold=EFFECT)
    assert sorted(comparison["flagged"]) == ["fw@xd1/nominal", "lu@xd1/nominal"]
    explains = explain_comparison(
        baseline, throttled, comparison=comparison
    )
    assert [m["cell"] for m in explains] == sorted(comparison["flagged"])
    for manifest in explains:
        assert manifest["verdict"] == "model"
        assert manifest["top_blame"] == "fpga"
        assert "FPGA compute" in manifest["top_term"]
        assert manifest["blame"][0]["resource"] == "fpga"
        assert manifest["delta"]["makespan_s"] > 0
        assert manifest["check"]["verdict"] == "fail"
        assert manifest["seeds"]["baseline"] == manifest["seeds"]["current"]


def test_explanations_are_bitwise_deterministic(campaign_pair):
    baseline, throttled = campaign_pair
    a = explain_comparison(baseline, throttled, effect_threshold=EFFECT)
    b = explain_comparison(baseline, throttled, effect_threshold=EFFECT)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_self_check_explains_nothing(campaign_pair):
    baseline, _ = campaign_pair
    assert explain_comparison(baseline, dict(baseline)) == []


def test_explain_cell_unknown_key_raises(campaign_pair):
    baseline, throttled = campaign_pair
    with pytest.raises(ValueError, match="not present in both manifests"):
        explain_cell(baseline, throttled, "lu@xt3/nominal")


def test_explain_cells_override_selects_unflagged_cells(campaign_pair):
    baseline, _ = campaign_pair
    explains = explain_comparison(
        baseline, dict(baseline), cells=["lu@xd1/nominal"]
    )
    assert len(explains) == 1
    assert explains[0]["verdict"] == "inconclusive"  # identical pair
    assert explains[0]["delta"]["makespan_s"] == 0.0


# ------------------------------------------------------- multi-preset


def test_multi_preset_campaign_enumerates_per_preset_cells():
    spec = _spec(apps=("lu",), presets=("xd1", "xt3"), replicates=2)
    manifest = run_campaign(spec, cache=False)
    assert sorted(manifest["cells"]) == ["lu@xd1/nominal", "lu@xt3/nominal"]
    assert manifest["presets"] == ["xd1", "xt3"]
    xd1 = manifest["cells"]["lu@xd1/nominal"]
    xt3 = manifest["cells"]["lu@xt3/nominal"]
    assert xd1["preset"] == "xd1" and xt3["preset"] == "xt3"
    # Different machines, different distributions.
    assert xd1["makespan"]["median"] != xt3["makespan"]["median"]


def test_multi_preset_explain_rebuilds_the_right_machine():
    spec = _spec(apps=("lu",), presets=("xd1", "xt3"), replicates=2)
    manifest = run_campaign(spec, cache=False)
    for preset in ("xd1", "xt3"):
        key = f"lu@{preset}/nominal"
        task = replicate_task(manifest, key, 0)
        assert task["preset"] == preset
        traced = run_traced(task)
        assert traced["makespan"] == manifest["cells"][key]["makespan"]["samples"][0]


def test_build_design_validates_inputs():
    with pytest.raises(ValueError, match="unknown preset"):
        build_design("lu", "vax")
    with pytest.raises(ValueError, match="unknown app"):
        build_design("sort", "xd1")

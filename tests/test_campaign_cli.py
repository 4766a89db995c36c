"""Tests for the ``repro-xd1 campaign`` CLI family."""

import json

import pytest

from repro.cli import main


def _run(tmp_path, name, *extra):
    out = tmp_path / name
    rc = main(
        [
            "campaign", "run", "--apps", "lu", "--replicates", "4",
            "--seed", "7", "--cache", "off", "--out", str(out), *extra,
        ]
    )
    assert rc == 0
    return out


def test_campaign_run_writes_manifest_and_summary(tmp_path, capsys):
    path = _run(tmp_path, "c.json")
    out = capsys.readouterr().out
    assert "campaign: preset=xd1 replicates=4" in out
    assert "lu@xd1/nominal" in out
    manifest = json.loads(path.read_text())
    assert manifest["kind"] == "campaign"
    assert manifest["points"] == 4
    assert len(manifest["cells"]["lu@xd1/nominal"]["makespan"]["samples"]) == 4


def test_campaign_run_seed_env_equals_flag(tmp_path, monkeypatch, capsys):
    flagged = _run(tmp_path, "flag.json")
    monkeypatch.setenv("REPRO_SEED", "7")
    env_out = tmp_path / "env.json"
    rc = main(
        [
            "campaign", "run", "--apps", "lu", "--replicates", "4",
            "--cache", "off", "--out", str(env_out),
        ]
    )
    assert rc == 0
    assert flagged.read_text() == env_out.read_text()  # bitwise identical


def test_campaign_run_appends_ledger_entry(tmp_path, capsys):
    ledger = tmp_path / "ledger.jsonl"
    _run(tmp_path, "c.json", "--ledger", str(ledger))
    from repro.obs import RunLedger

    (entry,) = RunLedger(ledger).entries(kind="campaign")
    assert entry["schema"] == 7
    assert entry["replicates"] == 4
    assert entry["workers"]["executor"]["mode"] in ("serial", "parallel")


def test_campaign_run_rejects_unknown_scenario(capsys):
    rc = main(["campaign", "run", "--scenarios", "meteor-strike", "--cache", "off"])
    assert rc == 2
    assert "unknown scenario" in capsys.readouterr().out


def test_campaign_run_rejects_bad_seed(capsys):
    rc = main(["campaign", "run", "--seed", "lucky", "--cache", "off"])
    assert rc == 2
    assert "invalid seed" in capsys.readouterr().out


def test_campaign_report_from_manifest_and_ledger(tmp_path, capsys):
    ledger = tmp_path / "ledger.jsonl"
    path = _run(tmp_path, "c.json", "--ledger", str(ledger))
    capsys.readouterr()
    assert main(["campaign", "report", "--manifest", str(path)]) == 0
    from_file = capsys.readouterr().out
    assert "lu@xd1/nominal" in from_file
    assert main(["campaign", "report", "--ledger", str(ledger)]) == 0
    assert "lu@xd1/nominal" in capsys.readouterr().out
    assert main(["campaign", "report"]) == 2  # neither source given


def test_campaign_check_self_passes_and_throttle_fails(tmp_path, capsys):
    base = _run(tmp_path, "base.json")
    # identical re-run: zero flagged cells, exit 0
    assert (
        main(["campaign", "check", "--baseline", str(base), "--manifest", str(base)])
        == 0
    )
    out = capsys.readouterr().out
    assert "verdict=pass" in out and "flagged=0" in out
    # -20% FPGA clock: statistically significant regression, exit 1
    slow = _run(tmp_path, "slow.json", "--throttle-fpga", "0.8")
    capsys.readouterr()
    ledger = tmp_path / "ledger.jsonl"
    rc = main(
        [
            "campaign", "check", "--baseline", str(base),
            "--manifest", str(slow), "--ledger", str(ledger),
        ]
    )
    assert rc == 1
    out = capsys.readouterr().out
    assert "verdict=fail" in out
    assert "[FAIL] lu@xd1/nominal" in out
    from repro.obs import RunLedger

    (entry,) = RunLedger(ledger).entries(kind="campaign_check")
    assert entry["verdict"] == "fail"
    assert entry["flagged"] == ["lu@xd1/nominal"]


def test_campaign_check_missing_manifest_exits_2(tmp_path, capsys):
    rc = main(
        [
            "campaign", "check",
            "--baseline", str(tmp_path / "nope.json"),
            "--manifest", str(tmp_path / "nope.json"),
        ]
    )
    assert rc == 2
    assert "error:" in capsys.readouterr().out


def test_campaign_run_prints_worker_footer(tmp_path, capsys):
    _run(tmp_path, "c.json")
    out = capsys.readouterr().out
    assert "workers:" in out
    assert "mode serial" in out or "mode parallel" in out


def test_campaign_run_footer_reports_replicate_split(tmp_path, capsys):
    # LU and FW both fold the default model's stall burst.
    _run(tmp_path, "stalls.json")
    assert "replicates: 4 analytic, 0 DES (0% on the DES)" in capsys.readouterr().out
    _run(tmp_path, "jitter.json", "--stalls", "0")
    assert "replicates: 4 analytic, 0 DES (0% on the DES)" in capsys.readouterr().out
    _run(tmp_path, "fw.json", "--apps", "fw")
    assert "replicates: 4 analytic, 0 DES (0% on the DES)" in capsys.readouterr().out


def test_campaign_run_multi_preset_comma_list(tmp_path, capsys):
    out_path = tmp_path / "mp.json"
    rc = main(
        [
            "campaign", "run", "--apps", "lu", "--preset", "xd1,xt3",
            "--replicates", "2", "--seed", "7", "--cache", "off",
            "--out", str(out_path),
        ]
    )
    assert rc == 0
    manifest = json.loads(out_path.read_text())
    assert sorted(manifest["cells"]) == ["lu@xd1/nominal", "lu@xt3/nominal"]
    assert manifest["presets"] == ["xd1", "xt3"]
    assert manifest["cells"]["lu@xt3/nominal"]["preset"] == "xt3"


def test_campaign_run_help_example_grid_runs_both_apps(tmp_path, capsys):
    """The ``--preset`` help's own example, under the default ``--apps
    lu,fw``: FW takes each preset's Section 6.1 tile (231 on XT3 and RASC,
    whose arrays have k = 33), and XD1 keeps its (18432, 256)."""
    from repro.apps import build_design

    out_path = tmp_path / "grid.json"
    rc = main(
        [
            "campaign", "run", "--preset", "xd1,xt3,rasc",
            "--replicates", "2", "--seed", "7", "--cache", "off",
            "--out", str(out_path),
        ]
    )
    assert rc == 0
    cells = json.loads(out_path.read_text())["cells"]
    assert sorted(cells) == [
        f"{app}@{preset}/nominal" for app in ("fw", "lu") for preset in ("rasc", "xd1", "xt3")
    ]
    assert all(cell["completed"] == 2 for cell in cells.values())
    sizes = {preset: (d.n, d.b, d.k) for preset in ("xd1", "src", "xt3", "rasc")
             for d in [build_design("fw", preset)]}
    assert sizes == {"xd1": (18432, 256, 8), "src": (18432, 256, 16),
                     "xt3": (16632, 231, 33), "rasc": (16632, 231, 33)}


def test_campaign_preset_grid_lu_replicates_all_fold_and_equal_the_des(tmp_path, capsys):
    """``lu@rasc`` (p = 2) used to send every replicate to the DES: the
    replay refused with ``ambiguous-tie`` where a worker's kept part and
    its node's opMS sink meet on the CPU lane.  Such runs now replay on
    ``StepReplay``, in the DES's same-instant order, so no replicate of
    the preset grid runs the DES, and the manifest is byte-identical to
    the one the DES writes."""
    from repro.sim.analytic import set_fast_path_mode

    args = ["campaign", "run", "--preset", "xd1,xt3,rasc", "--replicates", "3",
            "--seed", "7", "--cache", "off", "--out"]
    assert main(args + [str(tmp_path / "fast.json")]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if "replicates:" in ln]
    assert lines and all(ln.rstrip().endswith("0 DES (0% on the DES)") for ln in lines)
    prev = set_fast_path_mode("off")
    try:
        assert main(args + [str(tmp_path / "des.json")]) == 0
    finally:
        set_fast_path_mode(prev)
    assert (tmp_path / "fast.json").read_bytes() == (tmp_path / "des.json").read_bytes()


def test_campaign_check_explain_blames_fpga(tmp_path, capsys):
    base = _run(tmp_path, "base.json")
    slow = _run(tmp_path, "slow.json", "--throttle-fpga", "0.8")
    capsys.readouterr()
    explains = tmp_path / "explains.json"
    ledger = tmp_path / "ledger.jsonl"
    rc = main(
        [
            "campaign", "check", "--baseline", str(base), "--manifest", str(slow),
            "--explain", "--explain-out", str(explains), "--ledger", str(ledger),
        ]
    )
    assert rc == 1  # still the check's failure exit code
    out = capsys.readouterr().out
    assert "explain lu@xd1/nominal" in out
    assert "-> blame fpga:" in out
    docs = json.loads(explains.read_text())
    assert [m["cell"] for m in docs] == ["lu@xd1/nominal"]
    assert docs[0]["top_blame"] == "fpga"
    assert docs[0]["verdict"] == "model"
    from repro.obs import RunLedger

    (entry,) = RunLedger(ledger).entries(kind="explain")
    assert entry["cell"] == "lu@xd1/nominal"
    assert entry["top_blame"] == "fpga"


def test_campaign_check_explain_self_explains_nothing(tmp_path, capsys):
    base = _run(tmp_path, "b.json")
    capsys.readouterr()
    explains = tmp_path / "explains.json"
    rc = main(
        [
            "campaign", "check", "--baseline", str(base), "--manifest", str(base),
            "--explain", "--explain-out", str(explains),
        ]
    )
    assert rc == 0
    assert "nothing to explain" in capsys.readouterr().out
    assert json.loads(explains.read_text()) == []


def test_campaign_figures_renders_box_plot_and_timeline(tmp_path, capsys):
    ledger = tmp_path / "ledger.jsonl"
    path = _run(tmp_path, "a.json", "--ledger", str(ledger))
    _run(tmp_path, "b.json", "--ledger", str(ledger), "--throttle-fpga", "0.8")
    capsys.readouterr()
    out_file = tmp_path / "figs.txt"
    rc = main(
        [
            "campaign", "figures", "--manifest", str(path),
            "--ledger", str(ledger), "--out", str(out_file),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "campaign makespan distributions" in out
    assert "campaign makespan timeline" in out  # two ledger runs
    assert "lu@xd1/nominal" in out
    assert "campaign makespan distributions" in out_file.read_text()
    assert main(["campaign", "figures"]) == 2  # neither source given


def test_campaign_check_json_output(tmp_path, capsys):
    base = _run(tmp_path, "b.json")
    capsys.readouterr()
    assert (
        main(
            [
                "campaign", "check", "--baseline", str(base),
                "--manifest", str(base), "--json",
            ]
        )
        == 0
    )
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "campaign_check"
    assert doc["verdict"] == "pass"

"""Golden analytic replays: every result field of ``fast_path="on"`` runs.

Pins the ``repr`` of ``elapsed``, ``cpu_busy``, ``fpga_busy`` and
``network_bytes`` -- or the refusal reason and message -- for:

- a fixed LU grid on the XD1: p in {2, 3, 4, 6}, n/b in {2, 4, 6, 10},
  b_f in {0, 344, 1080, 3000}, l in {0, 1, 3, 5}, overlap on and off;
- the seven ``experiments`` LU points that once refused with
  ``ambiguous-tie`` (fig9-lu's two baselines, ablation-overlap's four
  FPGA-only points and ext-scaling's p = 2 point) and the ten runs of
  the service's LU ``design`` grid that did (nine CPU-only baselines
  and the hybrid n = 24000, p = 4 run), all of which replay now, so a
  change to the replay's same-instant order shows up as a changed line;
- stall-folded LU, FW and MM runs on three presets, each with its
  fault injector's log.

The LU and MM runs replay on :class:`repro.sim.stepped.StepReplay` (LU
with its stretch fold), and the FW runs take FW's closed form or its
stall fold.  Any change to the replay's event order or arithmetic, or
to a fold's, shows up here as a changed line, whether or not the DES
would agree.

Regenerate (only when a result change is intended) with
``PYTHONPATH=src python tests/test_replay_golden.py``.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

from repro.apps import build_design
from repro.apps.fw import FwSimConfig, simulate_fw
from repro.apps.lu import LuSimConfig, simulate_lu
from repro.apps.mm.simulate import MmSimConfig, simulate_mm
from repro.faults import FaultEvent, FaultInjector, FaultScenario, StallBurst
from repro.hw.mm_design import MatrixMultiplyDesign
from repro.machine import ALL_PRESETS, cray_xd1, with_fpga_dram_bandwidth
from repro.sim.analytic import FastPathUnsupported

_GOLDEN = Path(__file__).parent / "golden" / "replay_runs.json"

_B, _K = 3000, 8


def _lu_grid():
    """(name, spec, config) per grid point."""
    for p, nb, b_f, l, overlap in itertools.product(
        (2, 3, 4, 6), (2, 4, 6, 10), (0, 344, 1080, 3000), (0, 1, 3, 5), (True, False)
    ):
        name = f"lu-xd1-p{p}-nb{nb}-bf{b_f}-l{l}-{'overlap' if overlap else 'staged'}"
        yield name, cray_xd1(p=p), LuSimConfig(
            n=_B * nb, b=_B, k=_K, b_f=b_f, l=l, overlap=overlap
        )


def _lu_refusals():
    """The ``experiments`` LU points the replay once refused as ambiguous ties."""
    slow = with_fpga_dram_bandwidth(cray_xd1(), 0.104e9)  # ablation-overlap's slow B_d
    runs = [
        ("fig9-lu-cpu-only", cray_xd1(), dict(n=30000, b_f=0, l=3)),
        ("fig9-lu-fpga-only", cray_xd1(), dict(n=30000, b_f=_B, l=3)),
        ("ablation-overlap-fpga-only", cray_xd1(), dict(n=18000, b_f=_B, l=3)),
        ("ablation-overlap-fpga-only-staged", cray_xd1(),
         dict(n=18000, b_f=_B, l=3, overlap=False)),
        ("ablation-overlap-slow-bd", slow, dict(n=18000, b_f=_B, l=3)),
        ("ablation-overlap-slow-bd-staged", slow, dict(n=18000, b_f=_B, l=3, overlap=False)),
        ("ext-scaling-p2", cray_xd1(p=2), dict(n=18000, b_f=344, l=2)),
    ]
    for name, spec, cfg in runs:
        yield name, spec, LuSimConfig(b=_B, k=_K, **cfg)


#: ``(n, p, run)`` of the service ``design`` grid's LU runs (b = 3000 on
#: the XD1) the replay once refused as ambiguous ties.
_DESIGN_REFUSALS = [
    (15000, 4, "cpu-only"), (18000, 3, "cpu-only"), (18000, 4, "cpu-only"),
    (21000, 3, "cpu-only"), (21000, 4, "cpu-only"), (21000, 6, "cpu-only"),
    (24000, 3, "cpu-only"), (24000, 4, "cpu-only"), (24000, 6, "cpu-only"),
    (24000, 4, "hybrid"),
]


def _design_refusals():
    for n, p, run in _DESIGN_REFUSALS:
        design = build_design("lu", n=n, b=_B, p=p)
        cfg = design.config(b_f=0) if run == "cpu-only" else design.config()
        yield f"design-lu-n{n}-p{p}-{run}", design.spec, cfg


def _scenarios(h: float):
    """Four stall scenarios scaled to a run lasting about ``h`` seconds."""
    return [
        ("burst", FaultScenario(
            name="burst",
            events=(FaultEvent(kind="dram_contention", factor=0.9),
                    FaultEvent(kind="link_slowdown", factor=0.95)),
            bursts=(StallBurst(count=4, window=h, mean_duration=h / 20),),
            seed=1,
        )),
        ("one-node", FaultScenario(
            name="one-node",
            bursts=(StallBurst(count=6, start=h / 4, window=h / 2, mean_duration=h / 10,
                               node=1),),
            seed=2,
        )),
        ("explicit", FaultScenario(
            name="explicit",
            events=(FaultEvent(kind="dma_stall", at=0.0, duration=h / 8, node=0),
                    FaultEvent(kind="dma_stall", at=h / 16, duration=h / 8, node=0),
                    FaultEvent(kind="dma_stall", at=h / 8, duration=h / 8, node=1),
                    FaultEvent(kind="fpga_throttle", factor=0.8)),
        )),
        ("long", FaultScenario(
            name="long",
            events=(FaultEvent(kind="link_slowdown", factor=0.7),),
            bursts=(StallBurst(count=2, window=h / 2, mean_duration=h / 2),),
            seed=3,
        )),
    ]


def _stall_runs():
    """(name, simulate, spec, config, scenario) per stall-folded run."""
    for preset in ("xd1", "xt3", "rasc"):
        spec = ALL_PRESETS[preset]()
        k = MatrixMultiplyDesign.for_device(spec.node.fpga.device).k
        apps = [
            ("lu", simulate_lu, LuSimConfig(n=9000, b=_B, k=_K, b_f=1080, l=1), 60.0),
            ("fw", simulate_fw, FwSimConfig(n=128 * 2 * spec.p, b=128, k=8, l1=1, l2=1), 0.2),
            ("mm", simulate_mm, MmSimConfig(n=480 * spec.p, k=k, m_f=20 * k), 1.0),
        ]
        for app, simulate, cfg, horizon in apps:
            for label, scenario in _scenarios(horizon):
                yield f"{app}-{preset}-{label}", simulate, spec, cfg, scenario


def _outcome(simulate, spec, cfg, **kwargs) -> dict:
    try:
        res = simulate(spec, cfg, fast_path="on", **kwargs)
    except FastPathUnsupported as exc:
        return {"refused": exc.reason, "detail": str(exc)}
    return {
        "elapsed": repr(res.elapsed),
        "cpu_busy": repr(res.cpu_busy),
        "fpga_busy": repr(res.fpga_busy),
        "network_bytes": repr(res.network_bytes),
    }


def _golden_runs() -> list[dict]:
    runs = [
        {"name": name, **_outcome(simulate_lu, spec, cfg)}
        for name, spec, cfg in itertools.chain(_lu_grid(), _lu_refusals(), _design_refusals())
    ]
    for name, simulate, spec, cfg, scenario in _stall_runs():
        injector = FaultInjector(scenario)
        runs.append({"name": name, **_outcome(simulate, spec, cfg, faults=injector),
                     "injected": injector.injected})
    return runs


def _dump(runs: list[dict]) -> str:
    return json.dumps(runs, sort_keys=True, indent=0) + "\n"


def test_replay_runs_match_golden():
    """Every pinned replay, compared run by run as sorted-key JSON."""
    want = json.loads(_GOLDEN.read_text(encoding="utf-8"))
    got = json.loads(_dump(_golden_runs()))
    assert [r["name"] for r in got] == [r["name"] for r in want]
    for g, w in zip(got, want):
        assert g == w, g["name"]


if __name__ == "__main__":  # pragma: no cover
    _GOLDEN.write_text(_dump(_golden_runs()), encoding="utf-8")
    print(f"wrote {_GOLDEN}")

"""Golden DES runs of the ring-allgather matrix multiplication.

Pins ``simulate_mm(..., fast_path="off", trace=True)`` with a
:class:`~repro.sim.SimMonitor` attached: each run's result fields, every
trace interval (lane, label, start, end and its metadata), the
monitor's event counters and the fault injector's log, so any change to
the event stream (order, count or timing) shows up byte for byte.  The
runs cover every machine preset (``src`` as a single node), both
baselines (``m_f = 0`` and ``m_f = r``), the no-overlap ablation, a slow
node, a timed and a windowed fault and DMA stall bursts.

Regenerate (only when a result change is intended) with
``PYTHONPATH=src python tests/test_mm_des_golden.py``.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from repro.apps.mm import MmDesign, simulate_mm
from repro.faults import FaultInjector
from repro.faults.scenarios import degraded_link, dram_contention, transient_dma_stalls
from repro.machine import ALL_PRESETS, cray_xd1, cray_xt3_drc
from repro.machine.processor import ProcessorSpec
from repro.sim import SimMonitor

_GOLDEN = Path(__file__).parent / "golden" / "mm_des_runs.json"

_R = 480  # panel rows per node: a multiple of every preset's k (8, 10, 15)


def _slow_node(spec, factor: float):
    old = spec.node.processor
    slow = ProcessorSpec(
        name=f"{old.name} (slowed {factor:g}x)",
        clock_hz=old.clock_hz / factor,
        sustained={k: v / factor for k, v in old.sustained.items()},
    )
    return dataclasses.replace(spec.node, processor=slow)


def _runs():
    """(name, spec, config overrides, extra simulate_mm kwargs) per pinned run."""
    xd1 = cray_xd1(p=4)
    runs = [
        ("xd1-p6", cray_xd1(), {}, {}),
        ("xd1-p4", xd1, {}, {}),
        ("xt3-p3", cray_xt3_drc(p=3), {}, {}),
        ("rasc", ALL_PRESETS["rasc"](), {}, {}),
        ("src-p1", ALL_PRESETS["src"](), {}, {}),
        ("cpu-only", xd1, {"m_f": 0}, {}),
        ("fpga-only", xd1, {"m_f": _R}, {}),
        ("no-overlap", xd1, {"overlap": False}, {}),
        ("fpga-only-no-overlap", xd1, {"m_f": _R, "overlap": False}, {}),
        ("slow-node", xd1, {}, {"node_specs": [xd1.node] * 2 + [_slow_node(xd1, 2.0)]
                                + [xd1.node]}),
        ("timed-link-fault", xd1, {}, {"faults": degraded_link(0.5, at=0.2)}),
        ("windowed-dram-fault", xd1, {}, {"faults": dram_contention(
            0.5, at=0.1, duration=0.2, node=1)}),
        ("flaky-dma", xd1, {}, {"faults": transient_dma_stalls(
            count=4, window=0.4, mean_duration=0.02, node=2, seed=3)}),
        ("flaky-dma-all-nodes", ALL_PRESETS["rasc"](), {"overlap": False}, {
            "faults": transient_dma_stalls(count=3, window=0.1, mean_duration=0.01, seed=5)}),
    ]
    for name, spec, overrides, kwargs in runs:
        design = MmDesign(spec, _R * spec.p)
        yield name, spec, design.config(**overrides), design.design, kwargs


def _record(name, spec, cfg, design, kwargs) -> dict:
    monitor = SimMonitor()
    scenario = kwargs.pop("faults", None)
    injector = FaultInjector(scenario) if scenario is not None else None
    res = simulate_mm(spec, cfg, design=design, fast_path="off", trace=True,
                      monitor=monitor, faults=injector, **kwargs)
    return {
        "name": name,
        "p": spec.p,
        "config": dataclasses.asdict(cfg),
        "elapsed": res.elapsed,
        "cpu_busy": res.cpu_busy,
        "fpga_busy": res.fpga_busy,
        "network_bytes": res.network_bytes,
        "injected": injector.injected if injector is not None else [],
        "trace": [
            [iv.category, iv.label, iv.start, iv.end, iv.meta]
            for iv in res.trace.intervals
        ],
        "monitor": monitor.snapshot(),
    }


def _golden_runs() -> list[dict]:
    return [_record(*run) for run in _runs()]


def _dump(runs: list[dict]) -> str:
    return json.dumps(runs, sort_keys=True, indent=0) + "\n"


def test_mm_des_runs_match_golden():
    """Every pinned DES run, byte for byte as sorted-key JSON."""
    assert _dump(_golden_runs()) == _GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":  # pragma: no cover
    _GOLDEN.write_text(_dump(_golden_runs()), encoding="utf-8")
    print(f"wrote {_GOLDEN}")

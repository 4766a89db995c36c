"""Golden DES runs of the distributed FW schedule.

Pins ``simulate_fw(..., fast_path="off", trace=True)`` with a
:class:`~repro.sim.SimMonitor` attached: each run's result fields, every
trace interval (lane, label, start, end and its metadata), the
monitor's event counters and the fault injector's log, so any change to
the event stream (order, count or timing) shows up byte for byte.  The
runs cover per-op granularity, the no-overlap ablation, both baselines
(``l1 = 0`` and ``l2 = 0``), a single node (``src``), a timed and a
windowed fault and a DMA stall burst.

Regenerate (only when a result change is intended) with
``PYTHONPATH=src python tests/test_fw_des_golden.py``.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from repro.apps.fw import FwSimConfig, simulate_fw
from repro.faults import FaultInjector
from repro.faults.scenarios import degraded_link, dram_contention, transient_dma_stalls
from repro.machine import ALL_PRESETS, cray_xd1, cray_xt3_drc
from repro.machine.processor import ProcessorSpec
from repro.sim import SimMonitor

_GOLDEN = Path(__file__).parent / "golden" / "fw_des_runs.json"

_B, _K, _COLS = 128, 8, 4  # n = b * cols * p: n/(bp) = 4 ops per node per phase


def _slow_node(spec, factor: float):
    old = spec.node.processor
    slow = ProcessorSpec(
        name=f"{old.name} (slowed {factor:g}x)",
        clock_hz=old.clock_hz / factor,
        sustained={k: v / factor for k, v in old.sustained.items()},
    )
    return dataclasses.replace(spec.node, processor=slow)


def _runs():
    """(name, spec, config, extra simulate_fw kwargs) per pinned run."""
    xd1 = cray_xd1(p=4)
    runs = [
        ("xd1-p6", cray_xd1(), {}, {}),
        ("xd1-p4", xd1, {}, {}),
        ("xt3-p3", cray_xt3_drc(p=3), {}, {}),
        ("rasc", ALL_PRESETS["rasc"](), {}, {}),
        ("src-p1", ALL_PRESETS["src"](), {}, {}),
        ("no-overlap", xd1, {"overlap": False}, {}),
        ("per-op", xd1, {"aggregate_ops": False}, {}),
        ("per-op-no-overlap", xd1, {"aggregate_ops": False, "overlap": False}, {}),
        ("per-op-src-p1", ALL_PRESETS["src"](), {"aggregate_ops": False}, {}),
        ("fpga-only", xd1, {"l1": 0, "l2": _COLS}, {}),
        ("cpu-only", xd1, {"l1": _COLS, "l2": 0}, {}),
        ("one-fpga-op", xd1, {"l1": _COLS - 1, "l2": 1}, {}),
        ("two-iterations", cray_xd1(p=3), {"iterations": 2}, {}),
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
        cfg = dict(n=_B * _COLS * spec.p, b=_B, k=_K, l1=1, l2=_COLS - 1)
        yield name, spec, FwSimConfig(**{**cfg, **overrides}), kwargs


def _record(name, spec, cfg, kwargs) -> dict:
    monitor = SimMonitor()
    scenario = kwargs.pop("faults", None)
    injector = FaultInjector(scenario) if scenario is not None else None
    res = simulate_fw(spec, cfg, fast_path="off", trace=True, monitor=monitor,
                      faults=injector, **kwargs)
    return {
        "name": name,
        "p": spec.p,
        "config": dataclasses.asdict(cfg),
        "elapsed": res.elapsed,
        "iterations_run": res.iterations_run,
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


def test_fw_des_runs_match_golden():
    """Every pinned DES run, byte for byte as sorted-key JSON."""
    assert _dump(_golden_runs()) == _GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":  # pragma: no cover
    _GOLDEN.write_text(_dump(_golden_runs()), encoding="utf-8")
    print(f"wrote {_GOLDEN}")

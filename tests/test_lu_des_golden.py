"""Golden DES runs of the distributed LU schedule.

Pins ``simulate_lu(..., fast_path="off", trace=True)`` with a
:class:`~repro.sim.SimMonitor` attached for the configurations the other
goldens miss: each run's result fields, every trace interval and the
monitor's event counters, so any change to the event stream (order,
count or timing) shows up byte for byte.

Regenerate (only when a result change is intended) with
``PYTHONPATH=src python tests/test_lu_des_golden.py``.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from repro.apps.lu import LuSimConfig, simulate_lu
from repro.faults import FaultInjector
from repro.faults.scenarios import brownout, transient_dma_stalls
from repro.machine import cray_xd1
from repro.machine.processor import ProcessorSpec
from repro.sim import SimMonitor

_GOLDEN = Path(__file__).parent / "golden" / "lu_des_runs.json"

_BASE = dict(n=9000, b=3000, k=8, b_f=1080, l=1)


def _slow_node(spec, factor: float):
    old = spec.node.processor
    slow = ProcessorSpec(
        name=f"{old.name} (slowed {factor:g}x)",
        clock_hz=old.clock_hz / factor,
        sustained={k: v / factor for k, v in old.sustained.items()},
    )
    return dataclasses.replace(spec.node, processor=slow)


def _runs():
    """(name, spec, config, extra simulate_lu kwargs) per pinned run."""
    xd1 = cray_xd1()
    runs = [
        ("xd1-p6", xd1, {}, {}),
        ("xd1-p3", cray_xd1(p=3), {}, {}),
        ("no-overlap", xd1, {"overlap": False}, {}),
        ("no-collect", xd1, {"collect_results": False}, {}),
        ("cpu-only", xd1, {"b_f": 0}, {}),
        ("fpga-only", xd1, {"b_f": 3000}, {}),
        ("l0", xd1, {"l": 0}, {}),
        ("one-superstripe", xd1, {"superstripes": 1}, {}),
        ("one-iteration", xd1, {"iterations": 1}, {}),
        ("slow-node", xd1, {}, {"node_specs": [xd1.node] * 2 + [_slow_node(xd1, 2.0)]
                                + [xd1.node] * 3}),
        ("brownout-mid-run", xd1, {}, {"faults": brownout(at=30.0)}),
        ("flaky-dma", xd1, {}, {"faults": transient_dma_stalls(
            count=4, window=60.0, mean_duration=3.0, node=2, seed=3)}),
    ]
    for name, spec, overrides, kwargs in runs:
        yield name, spec, LuSimConfig(**{**_BASE, **overrides}), kwargs


def _record(name, spec, cfg, kwargs) -> dict:
    monitor = SimMonitor()
    scenario = kwargs.pop("faults", None)
    injector = FaultInjector(scenario) if scenario is not None else None
    res = simulate_lu(spec, cfg, fast_path="off", trace=True, monitor=monitor,
                      faults=injector, **kwargs)
    return {
        "name": name,
        "p": spec.p,
        "config": dataclasses.asdict(cfg),
        "elapsed": res.elapsed,
        "useful_flops": res.useful_flops,
        "cpu_busy": res.cpu_busy,
        "fpga_busy": res.fpga_busy,
        "network_bytes": res.network_bytes,
        "injected": injector.injected if injector is not None else [],
        "trace": [
            [iv.category, iv.label, iv.start, iv.end, iv.meta.get("flops")]
            for iv in res.trace.intervals
        ],
        "monitor": monitor.snapshot(),
    }


def _golden_runs() -> list[dict]:
    return [_record(*run) for run in _runs()]


def _dump(runs: list[dict]) -> str:
    return json.dumps(runs, sort_keys=True, indent=0) + "\n"


def test_lu_des_runs_match_golden():
    """Every pinned DES run, byte for byte as sorted-key JSON."""
    assert _dump(_golden_runs()) == _GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":  # pragma: no cover
    _GOLDEN.write_text(_dump(_golden_runs()), encoding="utf-8")
    print(f"wrote {_GOLDEN}")

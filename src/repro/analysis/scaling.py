"""Scaling studies: how the hybrid designs use more nodes.

The paper evaluates one chassis (p = 6).  These helpers run the three
applications across node counts, in the two standard regimes:

* **weak scaling** -- per-node work held fixed (FW: block columns per
  node; MM: panel height), efficiency = GFLOPS(p) / (p * GFLOPS(1-ish));
* **strong scaling** -- total problem held fixed (LU at n = 30000),
  speedup relative to the smallest p.

Used by the scaling extension benchmark and the capacity-planning
example; the model's predictions can be laid over the simulated curves.
"""

from __future__ import annotations

from dataclasses import dataclass

from .series import Series

# The app facades are imported lazily inside each function: analysis is a
# lower layer than apps in the package graph.

__all__ = ["ScalingPoint", "fw_weak_scaling", "mm_weak_scaling", "lu_strong_scaling"]


@dataclass(frozen=True)
class ScalingPoint:
    """One (p, measured GFLOPS, predicted GFLOPS) sample."""

    p: int
    gflops: float
    predicted: float

    @property
    def efficiency_of_prediction(self) -> float:
        return self.gflops / self.predicted if self.predicted else 0.0


def fw_weak_scaling(ps=(2, 4, 6, 8, 12), cols_per_node: int = 12) -> list[ScalingPoint]:
    """FW with ``cols_per_node`` block columns per node (b = 256)."""
    from ..apps.fw import FwDesign
    from ..machine import cray_xd1

    out = []
    for p in ps:
        spec = cray_xd1(p=p)
        n = 256 * p * cols_per_node
        design = FwDesign(spec, n=n, b=256)
        out.append(
            ScalingPoint(
                p=p,
                gflops=design.simulate().gflops,
                predicted=design.plan.prediction.gflops,
            )
        )
    return out


def mm_weak_scaling(ps=(2, 4, 6, 8), rows_per_node: int = 2000) -> list[ScalingPoint]:
    """Ring MM with fixed panel height (n = p * rows_per_node)."""
    from ..apps.mm import MmDesign
    from ..machine import cray_xd1

    out = []
    for p in ps:
        spec = cray_xd1(p=p)
        design = MmDesign(spec, n=p * rows_per_node)
        out.append(
            ScalingPoint(
                p=p, gflops=design.simulate().gflops, predicted=design.predicted_gflops
            )
        )
    return out


def lu_strong_scaling(ps=(2, 3, 6), n: int = 18000, b: int = 3000) -> list[ScalingPoint]:
    """LU at fixed n across chassis sizes (b must divide n; p-1 | b)."""
    from ..apps.lu import LuDesign
    from ..machine import cray_xd1

    out = []
    for p in ps:
        if b % (p - 1):
            raise ValueError(f"b={b} must be divisible by p-1={p - 1}")
        spec = cray_xd1(p=p)
        design = LuDesign(spec, n=n, b=b)
        out.append(
            ScalingPoint(
                p=p,
                gflops=design.simulate().gflops,
                predicted=design.plan.prediction.gflops,
            )
        )
    return out


def to_series(points: list[ScalingPoint], label: str) -> tuple[Series, Series]:
    """(measured, predicted) curves over p."""
    measured = Series(f"{label} (simulated)")
    predicted = Series(f"{label} (predicted)")
    for pt in points:
        measured.append(pt.p, pt.gflops)
        predicted.append(pt.p, pt.predicted)
    return measured, predicted

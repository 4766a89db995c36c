"""What the hybrid designs share: the Figure 9 comparison, the makespan
answer, and re-planning on other system parameters.

:class:`~repro.apps.lu.LuDesign`, :class:`~repro.apps.fw.FwDesign` and
:class:`~repro.apps.mm.MmDesign` differ in their split (Eq. 4, Eq. 6,
Eq. 2) and in what they simulate; everything a caller asks of any of
them -- "compare against the baselines", "which field is the whole-run
makespan", "plan this design on a perturbed machine" -- lives here, so
no caller has to branch on the app.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any

__all__ = ["Comparison", "HybridDesign"]


@dataclass
class Comparison:
    """Hybrid vs the two baselines (the Figure 9 content)."""

    hybrid: Any
    cpu_only: Any
    fpga_only: Any
    predicted_gflops: float

    @property
    def speedup_vs_cpu(self) -> float:
        return self.hybrid.gflops / self.cpu_only.gflops

    @property
    def speedup_vs_fpga(self) -> float:
        return self.hybrid.gflops / self.fpga_only.gflops

    @property
    def fraction_of_sum(self) -> float:
        return self.hybrid.gflops / (self.cpu_only.gflops + self.fpga_only.gflops)

    @property
    def fraction_of_predicted(self) -> float:
        return self.hybrid.gflops / self.predicted_gflops


class HybridDesign:
    """Base of the hybrid design facades (``spec``, ``params``, ``plan``,
    ``simulate`` and the two baseline simulations come from each app)."""

    @property
    def predicted_gflops(self) -> float:
        return self.plan.prediction.gflops

    def makespan(self, result: Any) -> float:
        """The whole-run makespan of one of this design's simulations."""
        return result.elapsed

    def compare(self, **over: Any) -> Comparison:
        """Hybrid vs both baselines plus the model prediction (Figure 9)."""
        return Comparison(
            hybrid=self.simulate(**over),
            cpu_only=self.simulate_cpu_only(**over),
            fpga_only=self.simulate_fpga_only(**over),
            predicted_gflops=self.predicted_gflops,
        )

    def _planned(self, params: Any, plan: Any) -> Any:
        """This design with another plan; it still simulates ``spec``."""
        other = copy.copy(self)
        other.params, other.plan = params, plan
        return other

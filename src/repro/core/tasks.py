"""Task kinds: step 1 of the design methodology (Section 4).

The methodology starts by identifying the tasks of an application, their
computational complexity and their dependencies.  :class:`TaskKind`
captures the per-kind attributes the partitioning decision needs
(complexity class, whether the task's internal data dependencies permit
splitting it between processor and FPGA); the dependencies themselves
live in each app's op schedule (``repro.apps.*.schedule``).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["TaskKind", "LU_TASK_KINDS", "FW_TASK_KINDS"]


@dataclass(frozen=True)
class TaskKind:
    """Static attributes of one kind of task (Sections 5.1.2 / 5.2.2).

    ``partitionable`` encodes the key design decision: tasks with heavy
    internal data dependencies (opLU, opL, opU, and all four FW ops) are
    assigned *whole* to one device; only opMM is split CPU/FPGA.
    """

    name: str
    complexity: str  # e.g. "n^3", "n^2"
    partitionable: bool
    compute_intensive: bool = True

    def placement_policy(self) -> str:
        """The model's placement rule for this kind (Section 4.2)."""
        if not self.compute_intensive:
            return "cpu"  # not worth accelerating (opMS)
        return "split" if self.partitionable else "whole-task"


#: The five LU task kinds of Section 5.1.2.
LU_TASK_KINDS: dict[str, TaskKind] = {
    "opLU": TaskKind("opLU", "n^3", partitionable=False),
    "opL": TaskKind("opL", "n^3", partitionable=False),
    "opU": TaskKind("opU", "n^3", partitionable=False),
    "opMM": TaskKind("opMM", "n^3", partitionable=True),
    "opMS": TaskKind("opMS", "n^2", partitionable=False, compute_intensive=False),
}

#: The four FW task kinds of Section 5.2.2 (all unpartitionable).
FW_TASK_KINDS: dict[str, TaskKind] = {
    "op1": TaskKind("op1", "n^3", partitionable=False),
    "op21": TaskKind("op21", "n^3", partitionable=False),
    "op22": TaskKind("op22", "n^3", partitionable=False),
    "op3": TaskKind("op3", "n^3", partitionable=False),
}

"""The paper's contribution: the design model for hybrid CPU+FPGA designs.

* :mod:`repro.core.parameters` -- Section 4.1 system characterisation,
* :mod:`repro.core.tasks` -- task kinds and their placement attributes,
* :mod:`repro.core.partition` -- Equations (1), (2), (4), (6),
* :mod:`repro.core.load_balance` -- Equation (5),
* :mod:`repro.core.coordination` -- Section 4.4 handshakes and hazards,
* :mod:`repro.core.prediction` -- Section 4.5 performance prediction,
* :mod:`repro.core.model` -- the facade tying the methodology together.
"""

from .blocksize import (
    LuBlockCandidate,
    choose_fw_block_size,
    fw_block_size_bound,
    lu_block_candidates,
    max_lu_block_size,
)
from .coordination import (
    CoordinationGuard,
    HazardError,
    Violation,
    fw_coordination_rate,
    lu_coordination_rate,
)
from .hetero import (
    assignment_makespan,
    hetero_fw_assignment,
    imbalance,
    node_hybrid_rate,
    proportional_assignment,
)
from .load_balance import LuLoadBalance, lu_load_balance, node_work_balance
from .model import DesignModel, FwPlan, LuPlan
from .parameters import SystemParameters
from .partition import (
    FlopSplit,
    FwPartition,
    LuStripePartition,
    balance_flops,
    balance_with_network,
    balance_with_transfer,
    fw_op_times,
    fw_partition,
    lu_stripe_partition,
    lu_stripe_times,
)
from .prediction import Prediction, predict_fw, predict_lu
from .sensitivity import Elasticity, TUNABLE_RATES, prediction_sensitivity
from .tasks import FW_TASK_KINDS, LU_TASK_KINDS, TaskKind

__all__ = [
    "CoordinationGuard",
    "DesignModel",
    "FW_TASK_KINDS",
    "FlopSplit",
    "FwPartition",
    "FwPlan",
    "HazardError",
    "LU_TASK_KINDS",
    "LuLoadBalance",
    "LuPlan",
    "LuStripePartition",
    "Prediction",
    "SystemParameters",
    "TaskKind",
    "Violation",
    "Elasticity",
    "TUNABLE_RATES",
    "LuBlockCandidate",
    "assignment_makespan",
    "balance_flops",
    "balance_with_network",
    "balance_with_transfer",
    "fw_coordination_rate",
    "fw_op_times",
    "fw_partition",
    "lu_coordination_rate",
    "lu_load_balance",
    "lu_stripe_partition",
    "lu_stripe_times",
    "node_work_balance",
    "predict_fw",
    "predict_lu",
    "prediction_sensitivity",
    "proportional_assignment",
    "hetero_fw_assignment",
    "imbalance",
    "node_hybrid_rate",
    "choose_fw_block_size",
    "fw_block_size_bound",
    "lu_block_candidates",
    "max_lu_block_size",
]

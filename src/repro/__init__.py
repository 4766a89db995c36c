"""repro: Hardware/Software Co-Design for Matrix Computations on
Reconfigurable Computing Systems -- a full reproduction.

Reimplements Zhuo & Prasanna (IPPS 2007) as a Python library: the
hybrid-design model (Section 4), the Cray XD1-class machine as a
discrete-event simulation substrate, cycle-level models of the two FPGA
designs, and the distributed LU and Floyd-Warshall applications with
their Processor-only / FPGA-only baselines.

Quickstart::

    from repro import LuDesign, FwDesign, cray_xd1

    lu = LuDesign(cray_xd1(), n=30000, b=3000)
    print(lu.plan.partition)            # Eq. 4: (b_p, b_f)
    print(lu.simulate().gflops)         # ~20 GFLOPS, the paper's headline

    fw = FwDesign(cray_xd1(), n=92160, b=256)
    print(fw.compare().hybrid.gflops)   # ~6.6 GFLOPS

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from .apps import Comparison
from .apps.fw import FwDesign, FwSimConfig, distributed_blocked_fw, simulate_fw
from .apps.lu import (
    LuDesign,
    LuSimConfig,
    distributed_block_lu,
    simulate_block_mm,
    simulate_lu,
)
from .core import (
    CoordinationGuard,
    DesignModel,
    FwPartition,
    FwPlan,
    LuPlan,
    LuStripePartition,
    SystemParameters,
    fw_partition,
    lu_load_balance,
    lu_stripe_partition,
    predict_fw,
    predict_lu,
)
from .hw import FloydWarshallDesign, MatrixMultiplyDesign
from .machine import (
    MachineSpec,
    ReconfigurableSystem,
    cray_xd1,
    cray_xt3_drc,
    sgi_rasc,
    src_map_station,
)

__version__ = "1.0.0"

__all__ = [
    "Comparison",
    "CoordinationGuard",
    "DesignModel",
    "FloydWarshallDesign",
    "FwDesign",
    "FwPartition",
    "FwPlan",
    "FwSimConfig",
    "LuDesign",
    "LuPlan",
    "LuSimConfig",
    "LuStripePartition",
    "MachineSpec",
    "MatrixMultiplyDesign",
    "ReconfigurableSystem",
    "SystemParameters",
    "__version__",
    "cray_xd1",
    "cray_xt3_drc",
    "distributed_block_lu",
    "distributed_blocked_fw",
    "fw_partition",
    "lu_load_balance",
    "lu_stripe_partition",
    "predict_fw",
    "predict_lu",
    "sgi_rasc",
    "simulate_block_mm",
    "simulate_fw",
    "simulate_lu",
    "src_map_station",
]

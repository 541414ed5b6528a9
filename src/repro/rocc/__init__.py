"""RoCC (Rocket Custom Coprocessor) accelerator framework.

Implements the paper's Fig. 4 architecture in software: the command/response
interface between the Rocket core and an accelerator, the interface FSM of
Fig. 5, an accelerator register set, and the decimal accelerator that executes
the Table II instruction set (WR/RD/LD/ACCUM/CLR_ALL/DEC_CNV/DEC_ADD/DEC_MUL/
DEC_ACCUM).
"""

from repro.rocc.interface import (
    Accelerator,
    RoccCommand,
    RoccResult,
    RoccStatistics,
)
from repro.rocc.fsm import FsmState, InterfaceFsm
from repro.rocc.pipeline import (
    AcceleratorPipeline,
    PipelineTransaction,
    split_busy_cycles,
)
from repro.rocc.regfile import AcceleratorRegisterFile
from repro.rocc.decimal_accel import DecimalAccelerator, DecimalAcceleratorConfig

__all__ = [
    "Accelerator",
    "RoccCommand",
    "RoccResult",
    "RoccStatistics",
    "FsmState",
    "InterfaceFsm",
    "AcceleratorPipeline",
    "PipelineTransaction",
    "split_busy_cycles",
    "AcceleratorRegisterFile",
    "DecimalAccelerator",
    "DecimalAcceleratorConfig",
]

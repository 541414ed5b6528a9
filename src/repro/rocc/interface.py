"""RoCC command/response interface between the core and an accelerator.

The real RoCC interface has three default signal groups (Section IV-A of the
paper): core control, the register-mode command/response channel, and the
memory-mode channel to the L1 D-cache.  This module models the register-mode
channel as value objects plus an abstract :class:`Accelerator` base class; the
memory channel is represented by handing the accelerator a reference to the
simulated memory when a command executes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.errors import AcceleratorError
from repro.isa.rocc import DecimalFunct


class RoccCommand(NamedTuple):
    """One command sent over the ``cmd`` channel (decoded custom instruction)."""

    funct7: int
    rd: int
    rs1: int
    rs2: int
    rs1_value: int
    rs2_value: int
    xd: bool
    xs1: bool
    xs2: bool

    @property
    def function_name(self) -> str:
        return DecimalFunct.name_for(self.funct7)


@dataclass
class RoccStatistics:
    """Cumulative counters of the command/response channel.

    Grouped in one value object so :meth:`Accelerator.reset` (used between
    warm :class:`~repro.sim.batch.BatchRunner` runs) can clear every counter
    in one place and tests can snapshot/compare them wholesale.
    """

    commands_executed: int = 0
    busy_cycles_total: int = 0
    responses_sent: int = 0

    def reset(self) -> None:
        self.commands_executed = 0
        self.busy_cycles_total = 0
        self.responses_sent = 0


class RoccResult(NamedTuple):
    """What the executor needs to know after issuing a command.

    ``busy_cycles`` is the number of cycles the accelerator datapath is
    occupied; the timing model combines it with the interface latencies.
    ``memory_accesses`` counts L1-D requests made through the memory-mode
    interface (the LD instruction).
    """

    has_response: bool
    value: int
    busy_cycles: int
    memory_accesses: int = 0


class Accelerator:
    """Base class for RoCC accelerators.

    Subclasses implement :meth:`execute_command`; the plumbing that adapts the
    executor's call signature, counts statistics and tracks busy cycles lives
    here so every accelerator gets it for free.
    """

    name = "accelerator"

    def __init__(self) -> None:
        self.stats = RoccStatistics()
        #: Occupancy model for staged datapaths (an
        #: :class:`~repro.rocc.pipeline.AcceleratorPipeline`), or ``None``
        #: for blocking accelerators.  The Rocket timing model threads
        #: back-to-back command occupancy through this attribute.
        self.pipeline = None

    # ------------------------------------------------------------ statistics
    # Historic attribute spelling; the counters live on ``self.stats``.
    @property
    def commands_executed(self) -> int:
        return self.stats.commands_executed

    @property
    def busy_cycles_total(self) -> int:
        return self.stats.busy_cycles_total

    @property
    def responses_sent(self) -> int:
        return self.stats.responses_sent

    # ------------------------------------------------------------- executor API
    def execute(
        self,
        funct7: int,
        rd: int,
        rs1: int,
        rs2: int,
        rs1_value: int,
        rs2_value: int,
        xd: bool,
        xs1: bool,
        xs2: bool,
        memory,
    ) -> RoccResult:
        """Adapter called by :class:`repro.sim.executor.Executor`.

        The single entry point for every command, whichever core issued it:
        subclasses override :meth:`execute_command`, never this method.
        """
        result = self.execute_command(
            RoccCommand(funct7, rd, rs1, rs2, rs1_value, rs2_value, xd, xs1, xs2),
            memory,
        )
        stats = self.stats
        stats.commands_executed += 1
        stats.busy_cycles_total += result.busy_cycles
        if result.has_response:
            stats.responses_sent += 1
        return result

    def rocc_adapter(self):
        """Object with the executor-facing ``execute`` method (self)."""
        return self

    # ----------------------------------------------------------------- override
    def execute_command(self, command: RoccCommand, memory) -> RoccResult:
        """Execute one command; subclasses must override."""
        raise NotImplementedError

    def reset(self) -> None:
        """Reset architectural state and statistics."""
        self.stats.reset()
        if self.pipeline is not None:
            self.pipeline.reset()

    def area_report(self):
        """Hardware overhead report; subclasses should override."""
        raise NotImplementedError

    # ------------------------------------------------------------------ helpers
    @staticmethod
    def require(condition: bool, message: str) -> None:
        if not condition:
            raise AcceleratorError(message)

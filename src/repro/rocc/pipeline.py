"""Staged pipeline timing model of the accelerator datapath.

The paper's accelerator is a single blocking design point: the interface FSM
(Fig. 5) accepts one command, occupies its function state for the datapath's
busy cycles and only then returns to ``Idle``, so back-to-back RoCC commands
serialise completely.  This module generalises that into a *staged* datapath
behind issue/retire queues, which is what ROADMAP item 2's design-space study
sweeps:

* a command's busy cycles are split into ``min(depth, busy)`` balanced
  segments — the stage occupancies of a ``depth``-deep pipeline (the logical
  stage names per function come from :data:`repro.isa.rocc.PIPELINE_STAGES`:
  multiplicand-gen → pp-accumulate → round for the multiply family, align →
  effective-op → round for the add family);
* stage 0 has ``width`` issue slots; a command is *accepted* when it arrives
  AND a slot is free, occupies its slot for the first segment (the pipeline's
  initiation interval), then drains through the remaining stages while the
  next command enters behind it;
* a command *completes* (its architectural effects retire) ``busy`` cycles
  after acceptance — segment times sum exactly to the blocking datapath's
  busy cycles, so the work done is conserved at every depth;
* commands that carry ``xd`` hold the core until completion plus the response
  latency (the core blocks for the response value); commands without ``xd``
  release the core as soon as their issue slot frees, which is where deeper
  pipelines overlap back-to-back RoCC traffic.

Timing-only model: functional execution stays in program order inside
:class:`~repro.rocc.decimal_accel.DecimalAccelerator` (the hardware analogue
is full forwarding between in-flight commands), and at ``depth=1, width=1``
every formula above collapses to the blocking FSM's timing bit-for-bit —
``tests/test_pipeline_accel.py`` pins that lockstep equivalence.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from repro.errors import AcceleratorError
from repro.isa.rocc import DecimalFunct, stage_plan


def split_busy_cycles(busy_cycles: int, depth: int) -> tuple:
    """Balanced stage segments of a command's busy cycles.

    Returns ``min(depth, busy_cycles)`` positive segments summing exactly to
    ``busy_cycles``, longest first (so segment 0 — the initiation interval —
    is ``ceil(busy / n)``).  ``depth=1`` returns ``(busy_cycles,)``: the
    blocking datapath.
    """
    if busy_cycles < 1:
        raise AcceleratorError(f"busy cycles must be positive: {busy_cycles}")
    if depth < 1:
        raise AcceleratorError(f"pipeline depth must be positive: {depth}")
    stages = min(depth, busy_cycles)
    base, extra = divmod(busy_cycles, stages)
    return (base + 1,) * extra + (base,) * (stages - extra)


class PipelineTransaction(NamedTuple):
    """One command's trip through the staged datapath (all times in cycles).

    ``arrival``   when the command reaches the issue queue,
    ``accept``    when a stage-0 slot takes it (``max(arrival, slot free)``),
    ``complete``  when its architectural effects retire
                  (``accept + sum(segments)``),
    ``next_issue`` when its issue slot frees for the next command
                  (``accept + segments[0]`` — the initiation interval),
    ``release``   when the core may proceed: ``complete`` for responding
                  commands (the response latency is the core's to add),
                  ``next_issue`` otherwise.
    """

    funct_name: str
    arrival: int
    accept: int
    complete: int
    next_issue: int
    responds: bool
    segments: tuple

    @property
    def release(self) -> int:
        return self.complete if self.responds else self.next_issue

    @property
    def stall_cycles(self) -> int:
        """Cycles the command waited in the issue queue for a slot."""
        return self.accept - self.arrival

    @property
    def stage_names(self) -> tuple:
        """Logical stage names matching ``segments`` (see PIPELINE_STAGES)."""
        plan = stage_plan(self.funct_name)
        n = len(self.segments)
        if n <= len(plan):
            return plan[:n]
        # More physical segments than logical stages: number the extras.
        return plan + tuple(f"{plan[-1]}+{k}" for k in range(1, n - len(plan) + 1))


class AcceleratorPipeline:
    """Issue/retire-queue occupancy tracker for the staged datapath.

    The Rocket timing model calls :meth:`issue` once per RoCC command with
    the command's arrival cycle and the blocking datapath's busy cycles; the
    pipeline answers with the transaction's event times and keeps occupancy
    statistics.  It holds no architectural state — resetting it (or the
    owning accelerator) is safe between warm :class:`~repro.sim.batch.
    BatchRunner` runs.
    """

    def __init__(self, depth: int = 1, width: int = 1) -> None:
        if depth < 1:
            raise AcceleratorError(f"pipeline depth must be positive: {depth}")
        if width < 1:
            raise AcceleratorError(f"issue width must be positive: {width}")
        self.depth = depth
        self.width = width
        # The blocking design point: one slot, one stage, nothing overlaps.
        self._serial = depth == 1 and width == 1
        # Cycle at which each stage-0 issue slot frees.
        self._slot_free = [0] * width
        self._in_flight = []  # completion times of commands still in stages
        self.transactions = 0
        self.retired = 0
        self.stall_cycles = 0
        self.overlap_cycles = 0  # core cycles saved vs the blocking datapath
        self.peak_in_flight = 0
        self.function_counts = Counter()

    # ------------------------------------------------------------------ issue
    def issue(
        self, arrival: int, busy_cycles: int, responds: bool, funct7: int
    ) -> PipelineTransaction:
        """Accept one command into the pipeline; return its event times."""
        if self._serial:
            return self._issue_serial(arrival, busy_cycles, responds, funct7)
        segments = split_busy_cycles(busy_cycles, self.depth)
        slot = min(range(self.width), key=self._slot_free.__getitem__)
        free = self._slot_free[slot]
        accept = arrival if arrival >= free else free
        complete = accept + busy_cycles
        next_issue = accept + segments[0]
        self._slot_free[slot] = next_issue
        txn = PipelineTransaction(
            DecimalFunct.name_for(funct7),
            arrival, accept, complete, next_issue, responds, segments,
        )
        # Retire everything that finished before this command was accepted.
        still = [t for t in self._in_flight if t > accept]
        self.retired += len(self._in_flight) - len(still)
        still.append(complete)
        self._in_flight = still
        if len(still) > self.peak_in_flight:
            self.peak_in_flight = len(still)
        self.transactions += 1
        self.stall_cycles += txn.stall_cycles
        self.overlap_cycles += complete - txn.release
        self.function_counts[txn.funct_name] += 1
        return txn

    def _issue_serial(
        self, arrival: int, busy_cycles: int, responds: bool, funct7: int
    ) -> PipelineTransaction:
        """:meth:`issue` at depth 1 / width 1: the one segment is the whole
        busy time, so the previous command has retired by acceptance and
        the core releases at completion either way (nothing overlaps)."""
        if busy_cycles < 1:
            raise AcceleratorError(f"busy cycles must be positive: {busy_cycles}")
        free = self._slot_free[0]
        accept = arrival if arrival >= free else free
        complete = accept + busy_cycles
        self._slot_free[0] = complete
        self.retired += len(self._in_flight)
        self._in_flight = [complete]
        self.peak_in_flight = 1
        self.transactions += 1
        self.stall_cycles += accept - arrival
        name = DecimalFunct.name_for(funct7)
        self.function_counts[name] += 1
        return PipelineTransaction(
            name, arrival, accept, complete, complete, responds, (busy_cycles,)
        )

    # ------------------------------------------------------------------ state
    @property
    def in_flight(self) -> int:
        """Commands accepted but not yet retired by a later acceptance."""
        return len(self._in_flight)

    def reset(self) -> None:
        self._slot_free = [0] * self.width
        self._in_flight = []
        self.transactions = 0
        self.retired = 0
        self.stall_cycles = 0
        self.overlap_cycles = 0
        self.peak_in_flight = 0
        self.function_counts.clear()

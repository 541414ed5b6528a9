"""Interface finite-state machine of the accelerator (paper Fig. 5).

The decode-and-interface FSM sits between the RoCC command queue and the
execution units: from ``Idle`` it moves to a per-function state
(``RD``, ``WR``, ``CLR_ALL``, ``DEC_ADD``, ``ACCUM`` ...), then to a response
state (``Read Resp`` / ``Write Resp``) when the core expects data back, and
returns to ``Idle``.  The software model tracks the visited states and
transition counts so tests can assert the Fig. 5 structure and the timing
model can charge one cycle per transition.

Every command walks one of a few fixed paths, so :meth:`InterfaceFsm.
run_command` charges a per-(state, respond) hop table built at import time
from :data:`_LEGAL`; :meth:`InterfaceFsm._go` is the step-by-step
specification the table is tested against.
"""

from __future__ import annotations

from collections import Counter

from repro.errors import AcceleratorError


class FsmState:
    """States of the interface FSM (Fig. 5)."""

    IDLE = "Idle"
    READ = "RD"
    WRITE = "WR"
    CLR_ALL = "CLR_ALL"
    DEC_ADD = "DEC_ADD"
    DEC_ACCUM = "DEC_ACCUM"
    DEC_CNV = "DEC_CNV"
    DEC_MUL = "DEC_MUL"
    DEC_ADDSUB = "DEC_ADDSUB"
    DEC_FMA_ACC = "DEC_FMA_ACC"
    DEC_ADDC = "DEC_ADDC"
    DEC_SUBB = "DEC_SUBB"
    ACCUM = "ACCUM"
    LOAD = "LD"
    READ_RESP = "Read Resp"
    WRITE_RESP = "Write Resp"

    ALL = (
        IDLE,
        READ,
        WRITE,
        CLR_ALL,
        DEC_ADD,
        DEC_ACCUM,
        DEC_CNV,
        DEC_MUL,
        DEC_ADDSUB,
        DEC_FMA_ACC,
        DEC_ADDC,
        DEC_SUBB,
        ACCUM,
        LOAD,
        READ_RESP,
        WRITE_RESP,
    )


#: Function states reachable directly from Idle when a command fires.
_EXECUTE_STATES = {
    FsmState.READ,
    FsmState.WRITE,
    FsmState.CLR_ALL,
    FsmState.DEC_ADD,
    FsmState.DEC_ACCUM,
    FsmState.DEC_CNV,
    FsmState.DEC_MUL,
    FsmState.DEC_ADDSUB,
    FsmState.DEC_FMA_ACC,
    FsmState.DEC_ADDC,
    FsmState.DEC_SUBB,
    FsmState.ACCUM,
    FsmState.LOAD,
}

#: Legal transitions; anything else is a modelling bug.
_LEGAL = set()
for _state in _EXECUTE_STATES:
    _LEGAL.add((FsmState.IDLE, _state))
    _LEGAL.add((_state, FsmState.IDLE))
    _LEGAL.add((_state, FsmState.READ_RESP))
    _LEGAL.add((_state, FsmState.WRITE_RESP))
_LEGAL.add((FsmState.READ_RESP, FsmState.IDLE))
_LEGAL.add((FsmState.WRITE_RESP, FsmState.IDLE))


#: (execute state, respond) -> the transitions one command walks: Idle, its
#: state, [response,] Idle.  Every hop is checked against _LEGAL once, here.
_HOPS = {}
for _state in _EXECUTE_STATES:
    _resp = FsmState.READ_RESP if _state == FsmState.READ else FsmState.WRITE_RESP
    _HOPS[(_state, False)] = ((FsmState.IDLE, _state), (_state, FsmState.IDLE))
    _HOPS[(_state, True)] = (
        (FsmState.IDLE, _state), (_state, _resp), (_resp, FsmState.IDLE)
    )
assert _LEGAL.issuperset(hop for hops in _HOPS.values() for hop in hops)


class InterfaceFsm:
    """Tracks the interface FSM state, transitions and cycle counts.

    Whole commands are tallied per (execute state, respond) path and only
    expanded into per-transition counts when :attr:`transition_counts` or
    :attr:`visited_states` is read.
    """

    def __init__(self) -> None:
        self.state = FsmState.IDLE
        self.cycles = 0
        self._commands = Counter()  # (execute state, respond) -> commands run
        self._steps = Counter()     # transitions taken one at a time by _go

    @property
    def transition_counts(self) -> Counter:
        counts = Counter(self._steps)
        for key, runs in self._commands.items():
            for hop in _HOPS[key]:
                counts[hop] += runs
        return counts

    @property
    def visited_states(self) -> set:
        return {FsmState.IDLE}.union(target for _, target in self.transition_counts)

    def _go(self, next_state: str) -> None:
        if (self.state, next_state) not in _LEGAL:
            raise AcceleratorError(
                f"illegal FSM transition {self.state!r} -> {next_state!r}"
            )
        self._steps[(self.state, next_state)] += 1
        self.state = next_state
        self.cycles += 1

    def run_command(self, execute_state: str, respond: bool, busy_cycles: int = 1) -> int:
        """Charge the FSM for one command; return the cycles it spent.

        ``execute_state`` is the per-function state; ``respond`` selects the
        Read Resp / Write Resp hop before returning to Idle (used when the
        command carries ``xd`` and the core waits for data).  One cycle per
        hop, plus ``busy_cycles - 1`` extra ticks in the function state.
        """
        if self.state != FsmState.IDLE:
            raise AcceleratorError("command fired while the FSM was busy")
        key = (execute_state, bool(respond))
        hops = _HOPS.get(key)
        if hops is None:
            self._go(execute_state)  # not an execute state: raises
        self._commands[key] += 1
        cycles = len(hops) + busy_cycles - 1 if busy_cycles > 1 else len(hops)
        self.cycles += cycles
        return cycles

    def reset(self) -> None:
        self.state = FsmState.IDLE
        self.cycles = 0
        self._commands.clear()
        self._steps.clear()

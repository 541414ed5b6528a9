"""The decimal RoCC accelerator (paper Fig. 4, Table II instruction set).

The accelerator contains (Fig. 4): a register set, a BCD carry-lookahead
adder, control logic, and the decode/interface and execution FSMs.  On top of
those, this model adds a wide BCD accumulator used by ``DEC_ACCUM`` so that a
full 32-digit product can be accumulated inside the accelerator — this is how
the Method-1 kernel keeps the paper's "accumulate partial products in
hardware" step functionally exact for decimal64 operands (see DESIGN.md).

Operand selection follows the RoCC flag semantics exactly as in the paper:
when ``xs1``/``xs2`` is set the operand value travels with the command from a
Rocket core register, otherwise the corresponding 5-bit field addresses the
accelerator's own register set; when ``xd`` is set the core blocks until the
accelerator responds with a value for core register ``rd``, otherwise the
result stays inside the accelerator.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.errors import AcceleratorError
from repro.hw.bcd_adder import BcdCarryLookaheadAdder, repeat_nibble
from repro.hw.bcd_multiplier import BcdMultiplier
from repro.hw.binary_to_bcd import BinaryToBcdConverter
from repro.hw.cost import AreaReport, GateCost, register_cost
from repro.isa.rocc import DecimalFunct
from repro.rocc.fsm import FsmState, InterfaceFsm
from repro.rocc.interface import Accelerator, RoccCommand, RoccResult
from repro.rocc.pipeline import AcceleratorPipeline
from repro.rocc.regfile import AcceleratorRegisterFile

#: RD selector values above the register file: the two low accumulator words
#: and the status register (the original decimal64 read surface).
ACC_LO_SELECTOR = 16
ACC_HI_SELECTOR = 17
STATUS_SELECTOR = 18

#: RD selectors for accumulator words beyond the first two (wider formats):
#: word k of the accumulator reads through ``ACC_WORD_SELECTORS[k]``.  The
#: low two words keep their historic selector values so decimal64 kernels
#: are unchanged; words 2+ continue after the status register.
ACC_WORD_SELECTORS = (ACC_LO_SELECTOR, ACC_HI_SELECTOR, 19, 20, 21, 22)

#: RD selectors for word lanes of wide register-file registers.  These do
#: not fit the 5-bit rs2 field, so kernels pass them by value (``xs2=1``):
#: ``selector = REGFILE_WORD_SELECTOR_BASE + 4 * register + lane``.
REGFILE_WORD_SELECTOR_BASE = 64
REGFILE_WORD_LANES = 4


def acc_word_selector(word: int) -> int:
    """RD selector for accumulator word ``word`` (64 bits each)."""
    if not 0 <= word < len(ACC_WORD_SELECTORS):
        raise AcceleratorError(f"no RD selector for accumulator word {word}")
    return ACC_WORD_SELECTORS[word]


def regfile_word_selector(register: int, word: int) -> int:
    """RD selector (passed by value) for one word lane of a wide register."""
    if not 0 <= word < REGFILE_WORD_LANES:
        raise AcceleratorError(f"register word lane out of range: {word}")
    return REGFILE_WORD_SELECTOR_BASE + REGFILE_WORD_LANES * register + word

_MASK64 = 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True)
class DecimalAcceleratorConfig:
    """Datapath configuration (the co-design knobs a framework user can turn).

    ``digits`` is the operand digit width the datapath is sized for — the
    coefficient precision of the interchange format the accelerator serves
    (16 for decimal64, 34 for decimal128).  Register width, accumulator
    width and adder pass counts all follow from it; use :meth:`for_format`
    to derive the whole configuration from a format spec.
    """

    num_registers: int = 16
    register_width_digits: int = 20
    accumulator_digits: int = 32
    adder_width_digits: int = 20
    adder_latency_cycles: int = 1
    include_multiplier: bool = False
    include_converter: bool = True
    digits: int = 16
    #: Microarchitecture knobs (docs/pipeline.md).  ``pipeline_depth`` is the
    #: physical register stage count of the staged datapath; ``issue_width``
    #: the number of stage-0 issue slots.  The 1/1 default is timing-identical
    #: to the paper's blocking FSM; ``pipelined=False`` removes the pipeline
    #: model entirely (the legacy timing path, kept for lockstep tests).
    pipeline_depth: int = 1
    issue_width: int = 1
    pipelined: bool = True

    def __post_init__(self) -> None:
        if self.digits < 1:
            raise AcceleratorError("operand digit width must be positive")
        if self.pipeline_depth < 1:
            raise AcceleratorError("pipeline depth must be positive")
        if self.issue_width < 1:
            raise AcceleratorError("issue width must be positive")
        if self.register_width_digits < self.digits + 1:
            # Multiples of a ``digits``-digit coefficient reach digits + 1.
            raise AcceleratorError(
                f"register width must hold at least {self.digits + 1} digits "
                f"for {self.digits}-digit operands"
            )
        if self.accumulator_digits < 2 * self.digits:
            raise AcceleratorError(
                f"the accumulator must hold a full {2 * self.digits}-digit "
                f"product of {self.digits}-digit operands"
            )

    @classmethod
    def for_format(cls, fmt, **overrides) -> "DecimalAcceleratorConfig":
        """Datapath sized for an interchange format (spec or name).

        The decimal64 result is exactly the historical default
        configuration (16-digit operands, 20-digit registers, 32-digit
        accumulator, 20-digit adder); wider formats scale the same shape.
        """
        from repro.decnumber.formats import get_format

        spec = get_format(fmt)
        params = dict(
            digits=spec.precision,
            register_width_digits=spec.precision + 4,
            accumulator_digits=spec.product_digits,
            adder_width_digits=spec.precision + 4,
        )
        params.update(overrides)
        return cls(**params)

    @property
    def accumulator_words(self) -> int:
        """64-bit words needed to read the full accumulator back."""
        return -(-(4 * self.accumulator_digits) // 64)

    @property
    def register_words(self) -> int:
        """64-bit word lanes of one register-file register."""
        return -(-(4 * self.register_width_digits) // 64)

    def area_report(self) -> AreaReport:
        """Hardware overhead of this configuration (no accelerator needed).

        This is the single area model: :meth:`DecimalAccelerator.
        area_report` delegates here, and solution-level overhead queries
        (:meth:`repro.core.solution.CoDesignSolution.hardware_overhead`)
        read it straight off the config instead of instantiating a full
        accelerator.
        """
        report = AreaReport()
        report.add(
            AcceleratorRegisterFile(
                num_registers=self.num_registers,
                width_bits=4 * self.register_width_digits,
            ).cost()
        )
        report.add(
            register_cost(
                f"accumulator ({self.accumulator_digits} digits)",
                4 * self.accumulator_digits,
            )
        )
        hardware_adder = BcdCarryLookaheadAdder(
            width_digits=self.adder_width_digits,
            latency_cycles=self.adder_latency_cycles,
        )
        report.add(hardware_adder.cost())
        report.add(GateCost("decode + interface FSM", 350.0, 4, flip_flops=18))
        report.add(GateCost("operand multiplexers", 4.0 * 2 * self.accumulator_digits, 2))
        if self.include_multiplier:
            for component in BcdMultiplier(operand_digits=self.digits).cost().components:
                report.add(component)
        if self.include_converter:
            converter = BinaryToBcdConverter(
                input_bits=64, output_digits=self.register_width_digits
            )
            for component in converter.cost().components:
                report.add(component)
        # Staged-pipeline overhead (docs/pipeline.md).  Both terms are zero at
        # the blocking-equivalent depth=1 / width=1 point, so the paper's
        # Table V area is unchanged for the baseline design.
        if self.pipeline_depth > 1:
            # One latch rank per stage boundary, wide enough for the datapath
            # result in flight plus per-stage control/valid bits.
            boundary_bits = 4 * self.accumulator_digits + 16
            report.add(
                register_cost(
                    f"pipeline stage registers ({self.pipeline_depth} stages)",
                    (self.pipeline_depth - 1) * boundary_bits,
                )
            )
        if self.issue_width > 1:
            # Each extra issue slot buffers a full RoCC command (two 64-bit
            # operands + funct7/rd/rs1/rs2 + flags) and a pending response
            # (64-bit data + rd tag), plus the select/arbiter logic.
            command_bits = 2 * 64 + 7 + 3 * 5 + 3
            response_bits = 64 + 5
            extra = self.issue_width - 1
            report.add(
                register_cost(
                    f"issue/retire queues (width {self.issue_width})",
                    extra * (command_bits + response_bits),
                )
            )
            report.add(
                GateCost(
                    "issue arbiter + retire select",
                    60.0 * extra,
                    3,
                )
            )
        return report


class DecimalAccelerator(Accelerator):
    """Executes the Table II decimal instructions behind the RoCC interface."""

    name = "decimal-accelerator"

    def __init__(self, config: DecimalAcceleratorConfig = None) -> None:
        super().__init__()
        self.config = config if config is not None else DecimalAcceleratorConfig()
        self.regfile = AcceleratorRegisterFile(
            num_registers=self.config.num_registers,
            width_bits=4 * self.config.register_width_digits,
        )
        # One functional adder wide enough for the accumulator; the *hardware*
        # adder is adder_width_digits wide and wider additions take multiple
        # passes (reflected in busy cycles, not in values).
        self.adder = BcdCarryLookaheadAdder(
            width_digits=self.config.accumulator_digits,
            latency_cycles=self.config.adder_latency_cycles,
        )
        self.multiplier = (
            BcdMultiplier(operand_digits=self.config.digits)
            if self.config.include_multiplier
            else None
        )
        self.converter = (
            BinaryToBcdConverter(input_bits=64, output_digits=self.config.register_width_digits)
            if self.config.include_converter
            else None
        )
        self.fsm = InterfaceFsm()
        if self.config.pipelined:
            self.pipeline = AcceleratorPipeline(
                depth=self.config.pipeline_depth,
                width=self.config.issue_width,
            )
        self.accumulator = 0
        self.status = 0
        self.function_counts = Counter()
        self._acc_mask = (1 << (4 * self.config.accumulator_digits)) - 1
        self._reg_mask = (1 << (4 * self.config.register_width_digits)) - 1
        # Per-config constants of the command handlers.  Operands reach the
        # BCD checks from a core register (64 bits) or the register file.
        config = self.config
        self._bcd_eights = repeat_nibble(8, max(16, config.register_width_digits))
        self._nines = repeat_nibble(9, config.register_width_digits)
        passes = self._adder_passes
        # DEC_ADD: register-file operands, or at least one 16-digit core word.
        self._add_passes = (
            passes(config.register_width_digits),
            passes(max(config.register_width_digits, 16)),
        )
        self._sub_passes = 2 * passes(config.register_width_digits)  # complement + add
        self._acc_passes = passes(config.accumulator_digits)
        self._word_passes = passes(16)
        # funct7 -> (mnemonic, handler), from the Table II mnemonics: each
        # command is decoded with one lookup.
        self._handlers = {
            funct: (name, getattr(self, f"_cmd_{name.lower()}"))
            for name, funct in DecimalFunct.BY_NAME.items()
        }

    # ------------------------------------------------------------------ helpers
    def _adder_passes(self, digits_needed: int) -> int:
        """Datapath passes of the (narrower) hardware adder for a wide add."""
        width = self.config.adder_width_digits
        return max(1, -(-digits_needed // width))  # ceil division

    def _operand(self, use_core_value: bool, value: int, field: int) -> int:
        if use_core_value:
            return value
        return self.regfile.read(field)

    def _require_bcd(self, value: int, what: str) -> None:
        # The adder's nibble test: bit 3 set together with bit 2 or bit 1.
        if value & (value << 1 | value << 2) & self._bcd_eights:
            raise AcceleratorError(f"{what} is not valid packed BCD")

    def _done(self, state: str, respond, busy_cycles: int, value: int = 0) -> RoccResult:
        """Walk the interface FSM; a response carries the low word of ``value``."""
        respond = bool(respond)
        busy = self.fsm.run_command(state, respond, busy_cycles)
        return RoccResult(respond, value & _MASK64 if respond else 0, busy)

    # ----------------------------------------------------------------- commands
    def execute_command(self, command: RoccCommand, memory) -> RoccResult:
        entry = self._handlers.get(command.funct7)
        if entry is None:
            self.function_counts[command.function_name] += 1
            raise AcceleratorError(
                f"unknown accelerator function funct7={command.funct7:#04x}"
            )
        name, handler = entry
        self.function_counts[name] += 1
        return handler(command, memory)

    # WR: move a core register value into the accelerator register set.
    # The rd field selects the destination *word lane* for registers wider
    # than one machine word: lane 0 (the decimal64 kernels' encoding)
    # replaces the whole register, lane k > 0 merges bits [64k, 64k+64).
    def _cmd_wr(self, command: RoccCommand, memory) -> RoccResult:
        self.require(command.xs1, "WR needs the operand value from the core (xs1)")
        destination = int(command.rs2_value if command.xs2 else command.rs2)
        index = destination % self.config.num_registers
        if command.rd:
            self.regfile.write_word(index, command.rd, command.rs1_value)
        else:
            self.regfile.write(index, command.rs1_value)
        return self._done(FsmState.WRITE, False, 1)

    # RD: respond to the core with a value from the accelerator.
    def _cmd_rd(self, command: RoccCommand, memory) -> RoccResult:
        self.require(command.xd, "RD must write a core register (xd)")
        selector = command.rs2_value if command.xs2 else command.rs2
        selector = int(selector)
        if selector == STATUS_SELECTOR:
            value = self.status
        elif selector in ACC_WORD_SELECTORS:
            word = ACC_WORD_SELECTORS.index(selector)
            value = self.accumulator >> (64 * word)
        elif selector >= REGFILE_WORD_SELECTOR_BASE:
            offset = selector - REGFILE_WORD_SELECTOR_BASE
            index, word = divmod(offset, REGFILE_WORD_LANES)
            value = self.regfile.read_word(
                index % self.config.num_registers, word
            )
        else:
            value = self.regfile.read(selector % self.config.num_registers)
        return self._done(FsmState.READ, True, 1, value)

    # LD: fetch a 64-bit value from memory through the RoCC memory interface.
    def _cmd_ld(self, command: RoccCommand, memory) -> RoccResult:
        self.require(command.xs1, "LD needs the address from the core (xs1)")
        self.require(memory is not None, "LD needs a memory port")
        destination = (command.rs2_value if command.xs2 else command.rs2)
        value = memory.read(command.rs1_value, 8)
        self.regfile.write(int(destination) % self.config.num_registers, value)
        busy = self.fsm.run_command(FsmState.LOAD, False, 2)
        return RoccResult(False, 0, busy, memory_accesses=1)

    # ACCUM: binary accumulate into an accelerator register.
    def _cmd_accum(self, command: RoccCommand, memory) -> RoccResult:
        self.require(command.xs1, "ACCUM needs the operand value from the core (xs1)")
        index = command.rd % self.config.num_registers
        total = (self.regfile.read(index) + command.rs1_value) & self._reg_mask
        self.regfile.write(index, total)
        return self._done(FsmState.ACCUM, command.xd, 1, total)

    # DEC_ADD: BCD addition of two operands through the BCD-CLA.
    def _cmd_dec_add(self, command: RoccCommand, memory) -> RoccResult:
        op1 = self._operand(command.xs1, command.rs1_value, command.rs1)
        op2 = self._operand(command.xs2, command.rs2_value, command.rs2)
        self._require_bcd(op1, "DEC_ADD operand 1")
        self._require_bcd(op2, "DEC_ADD operand 2")
        result = self.adder.add(op1, op2)
        self.status = (self.status & ~1) | result.carry_out
        if not command.xd:
            self.regfile.write(command.rd % self.config.num_registers, result.value)
        passes = self._add_passes[bool(command.xs1 or command.xs2)]
        return self._done(FsmState.DEC_ADD, command.xd, passes, result.value)

    # CLR_ALL: clear the register set, accumulator and status.
    def _cmd_clr_all(self, command: RoccCommand, memory) -> RoccResult:
        self.regfile.clear_all()
        self.accumulator = 0
        self.status = 0
        return self._done(FsmState.CLR_ALL, False, 1)

    # DEC_CNV: binary-to-BCD conversion.
    def _cmd_dec_cnv(self, command: RoccCommand, memory) -> RoccResult:
        self.require(self.converter is not None, "this configuration has no converter")
        self.require(command.xs1, "DEC_CNV needs the binary value from the core (xs1)")
        conversion = self.converter.convert(command.rs1_value)
        if not command.xd:
            self.regfile.write(command.rd % self.config.num_registers, conversion.value)
        return self._done(FsmState.DEC_CNV, command.xd, conversion.cycles, conversion.value)

    # DEC_MUL: full BCD multiplication into the accumulator.
    def _cmd_dec_mul(self, command: RoccCommand, memory) -> RoccResult:
        self.require(
            self.multiplier is not None,
            "this configuration has no hardware multiplier (include_multiplier=False)",
        )
        op1 = self._operand(command.xs1, command.rs1_value, command.rs1) & _MASK64
        op2 = self._operand(command.xs2, command.rs2_value, command.rs2) & _MASK64
        result = self.multiplier.multiply(op1, op2)
        self.accumulator = result.value & self._acc_mask
        return self._done(FsmState.DEC_MUL, command.xd, result.cycles, self.accumulator)

    # DEC_ACCUM: accumulator = (accumulator << shift digits) + regfile[k].
    def _cmd_dec_accum(self, command: RoccCommand, memory) -> RoccResult:
        index = command.rs1_value if command.xs1 else command.rs1
        index = int(index) % self.config.num_registers
        shift_digits = int(command.rs2_value) if command.xs2 else 1
        if not 0 <= shift_digits <= self.config.accumulator_digits:
            raise AcceleratorError(f"DEC_ACCUM shift out of range: {shift_digits}")
        shifted = (self.accumulator << (4 * shift_digits)) & self._acc_mask
        if shifted >> (4 * shift_digits) != self.accumulator & (
            self._acc_mask >> (4 * shift_digits)
        ):
            self.status |= 0b10  # accumulator overflow (should not happen for decimal64)
        addend = self.regfile.read(index)
        result = self.adder.add(shifted, addend & self._acc_mask)
        self.accumulator = result.value
        self.status = (self.status & ~1) | result.carry_out
        return self._done(FsmState.DEC_ACCUM, command.xd, self._acc_passes, self.accumulator)

    # DEC_ADDSUB: BCD subtraction through the adder (nines-complement pass
    # followed by an add with carry-in, the classic two-pass use of one
    # BCD-CLA).  result = op1 - op2 mod 10^register_width; status bit 0 is
    # the borrow (1 when op1 < op2 and the result wrapped).
    def _cmd_dec_addsub(self, command: RoccCommand, memory) -> RoccResult:
        op1 = self._operand(command.xs1, command.rs1_value, command.rs1)
        op2 = self._operand(command.xs2, command.rs2_value, command.rs2)
        self._require_bcd(op1, "DEC_ADDSUB operand 1")
        self._require_bcd(op2, "DEC_ADDSUB operand 2")
        # Digit-wise 9 - d never borrows, so the complement is plain binary.
        complement = self._nines - (op2 & self._reg_mask)
        result = self.adder.add(op1 & self._reg_mask, complement, carry_in=1)
        value = result.value & self._reg_mask
        carry = 1 if result.value != value or result.carry_out else 0
        self.status = (self.status & ~1) | (1 - carry)
        if not command.xd:
            self.regfile.write(command.rd % self.config.num_registers, value)
        return self._done(FsmState.DEC_ADDSUB, command.xd, self._sub_passes, value)

    # DEC_FMA_ACC: accumulator += regfile[k] << shift digits.  The FMA
    # kernels use it to merge an aligned addend into the accumulated product
    # without reading the accumulator back first; unlike DEC_ACCUM the
    # accumulator itself stays in place and the *addend* is shifted.
    # Status bit 0 latches the carry out of the accumulator width.
    def _cmd_dec_fma_acc(self, command: RoccCommand, memory) -> RoccResult:
        index = command.rs1_value if command.xs1 else command.rs1
        index = int(index) % self.config.num_registers
        shift_digits = int(command.rs2_value) if command.xs2 else 0
        if not 0 <= shift_digits <= self.config.accumulator_digits:
            raise AcceleratorError(f"DEC_FMA_ACC shift out of range: {shift_digits}")
        addend = self.regfile.read(index)
        shifted = addend << (4 * shift_digits)
        if shifted & ~self._acc_mask:
            self.status |= 0b10  # addend digits shifted past the accumulator
        result = self.adder.add(self.accumulator, shifted & self._acc_mask)
        self.accumulator = result.value & self._acc_mask
        self.status = (self.status & ~1) | result.carry_out
        return self._done(FsmState.DEC_FMA_ACC, command.xd, self._acc_passes, self.accumulator)

    # DEC_ADDC / DEC_SUBB: the chunked multi-word interface.  The core
    # streams a long BCD number through the adder one 16-digit machine word
    # per command; the carry/borrow between words lives in status bit 0
    # (consumed as carry-in, latched as carry-out) and the result word comes
    # back on the response channel.  One command per word replaces the
    # DEC_ADD / carry add / RD / RD sequence the chunked kernels needed with
    # carry chaining done on the core side.
    def _cmd_dec_addc(self, command: RoccCommand, memory) -> RoccResult:
        self.require(
            command.xs1 and command.xs2,
            "DEC_ADDC needs both operand words from the core (xs1, xs2)",
        )
        self.require(
            command.xd, "DEC_ADDC returns the result word on the response channel (xd)"
        )
        op1 = command.rs1_value & _MASK64
        op2 = command.rs2_value & _MASK64
        self._require_bcd(op1, "DEC_ADDC operand 1")
        self._require_bcd(op2, "DEC_ADDC operand 2")
        result = self.adder.add(op1, op2, carry_in=self.status & 1)
        carry = 1 if result.value >> 64 else 0
        self.status = (self.status & ~1) | carry
        return self._done(FsmState.DEC_ADDC, True, self._word_passes, result.value)

    def _cmd_dec_subb(self, command: RoccCommand, memory) -> RoccResult:
        self.require(
            command.xs1 and command.xs2,
            "DEC_SUBB needs both operand words from the core (xs1, xs2)",
        )
        self.require(
            command.xd, "DEC_SUBB returns the result word on the response channel (xd)"
        )
        op1 = command.rs1_value & _MASK64
        op2 = command.rs2_value & _MASK64
        self._require_bcd(op1, "DEC_SUBB operand 1")
        self._require_bcd(op2, "DEC_SUBB operand 2")
        borrow_in = self.status & 1
        # Digit-wise 9 - d never borrows, so the complement is plain binary;
        # a carry out of digit 16 means the word did *not* borrow.
        nines = 0x9999999999999999
        complement = nines - op2
        result = self.adder.add(op1, complement, carry_in=1 - borrow_in)
        carry = 1 if result.value >> 64 else 0
        self.status = (self.status & ~1) | (1 - carry)
        passes = 2 * self._word_passes  # complement pass + add pass
        return self._done(FsmState.DEC_SUBB, True, passes, result.value)

    # ------------------------------------------------------------------- state
    def reset(self) -> None:
        super().reset()  # statistics + pipeline occupancy
        self.regfile.clear_all()
        self.regfile.reset_statistics()
        self.accumulator = 0
        self.status = 0
        self.fsm.reset()
        self.function_counts.clear()

    # -------------------------------------------------------------------- cost
    def area_report(self) -> AreaReport:
        """Hardware overhead of this accelerator configuration.

        Pure function of the configuration — see
        :meth:`DecimalAcceleratorConfig.area_report`.
        """
        return self.config.area_report()

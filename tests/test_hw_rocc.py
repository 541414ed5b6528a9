"""Tests for the hardware component models and the RoCC decimal accelerator."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.decnumber.bcd import bcd_to_int, int_to_bcd
from repro.errors import AcceleratorError
from repro.hw.bcd_adder import BcdCarryLookaheadAdder
from repro.hw.bcd_multiplier import BcdMultiplier
from repro.hw.binary_to_bcd import BinaryToBcdConverter
from repro.hw.cost import AreaReport, GateCost, register_cost
from repro.isa.rocc import DecimalFunct
from repro.rocc.decimal_accel import (
    ACC_HI_SELECTOR,
    ACC_LO_SELECTOR,
    STATUS_SELECTOR,
    DecimalAccelerator,
    DecimalAcceleratorConfig,
)
from repro.rocc.fsm import FsmState, InterfaceFsm
from repro.rocc.interface import RoccCommand
from repro.rocc.regfile import AcceleratorRegisterFile
from repro.rocket.core import RocketEmulator
from repro.testgen.config import SolutionKind, TestProgramConfig
from repro.testgen.generator import build_test_program, draw_vectors


# ---------------------------------------------------------------------------
# BCD adder / multiplier / converter
# ---------------------------------------------------------------------------
def _reference_add(a, b, carry_in, width):
    """The digit-serial BCD adder the SWAR model replaced: one digit at a
    time, carry rippling upward, the first invalid digit reported."""
    mask = (1 << (4 * width)) - 1
    if a & ~mask or b & ~mask:
        raise AcceleratorError(f"operand wider than the {width}-digit adder")
    carry = 1 if carry_in else 0
    result = 0
    for digit_index in range(width):
        da = (a >> (4 * digit_index)) & 0xF
        db = (b >> (4 * digit_index)) & 0xF
        if da > 9 or db > 9:
            raise AcceleratorError(
                f"invalid BCD nibble in operand at digit {digit_index}"
            )
        total = da + db + carry
        if total > 9:
            total -= 10
            carry = 1
        else:
            carry = 0
        result |= total << (4 * digit_index)
    return result, carry


def _outcome(add):
    """``(value, carry_out)`` returned by ``add()``, or the error it raised."""
    try:
        value, carry_out = add()[:2]
    except AcceleratorError as error:
        return str(error)
    return value, carry_out


def _random_bcd(rng, width):
    """A packed-BCD operand biased toward 0 and 9 digits (carry chains)."""
    value = 0
    for _ in range(width):
        value = value << 4 | rng.choice((0, 9, rng.randrange(10)))
    return value


class TestBcdAdder:
    @given(st.integers(0, 10 ** 16 - 1), st.integers(0, 10 ** 16 - 1))
    @settings(max_examples=200, deadline=None)
    def test_addition_matches_integer_reference(self, a, b):
        adder = BcdCarryLookaheadAdder(width_digits=16)
        result = adder.add(int_to_bcd(a), int_to_bcd(b))
        expected = a + b
        assert bcd_to_int(result.value) == expected % 10 ** 16
        assert result.carry_out == (1 if expected >= 10 ** 16 else 0)

    def test_carry_in(self):
        adder = BcdCarryLookaheadAdder(width_digits=4)
        result = adder.add(int_to_bcd(9999), int_to_bcd(0), carry_in=1)
        assert bcd_to_int(result.value) == 0 and result.carry_out == 1

    def test_rejects_invalid_bcd_and_wide_operands(self):
        adder = BcdCarryLookaheadAdder(width_digits=4)
        with pytest.raises(AcceleratorError):
            adder.add(0xA, 0)
        with pytest.raises(AcceleratorError):
            adder.add(int_to_bcd(12345), 0)

    @pytest.mark.parametrize("width", [1, 16, 20, 32, 38, 68])
    def test_swar_add_matches_digit_loop(self, width):
        rng = random.Random(2018 + width)
        adder = BcdCarryLookaheadAdder(width_digits=width)
        cases = [(_random_bcd(rng, width), _random_bcd(rng, width), carry_in)
                 for _ in range(300) for carry_in in (0, 1)]
        # All-nines operands ripple a carry through every digit.
        nines = int("9" * width, 16)
        cases += [(nines, 0, 1), (nines, nines, 1), (0, 0, 0), (nines, 1, 0)]
        for a, b, carry_in in cases:
            assert _outcome(lambda: adder.add(a, b, carry_in)) == _outcome(
                lambda: _reference_add(a, b, carry_in, width)
            ), (hex(a), hex(b), carry_in)
        assert adder.operations == len(cases)

    @pytest.mark.parametrize("width", [1, 16, 20, 32, 38, 68])
    def test_invalid_and_wide_operands_raise_like_digit_loop(self, width):
        rng = random.Random(7 * width)
        adder = BcdCarryLookaheadAdder(width_digits=width)
        for _ in range(200):
            a, b = _random_bcd(rng, width), _random_bcd(rng, width)
            # Poison one or two random digits of either or both operands.
            for _poison in range(rng.randint(1, 2)):
                digit = rng.randrange(width)
                bad = rng.randrange(10, 16) << (4 * digit)
                if rng.random() < 0.5:
                    a = a & ~(0xF << (4 * digit)) | bad
                else:
                    b = b & ~(0xF << (4 * digit)) | bad
            expected = _outcome(lambda: _reference_add(a, b, 0, width))
            assert isinstance(expected, str) and "at digit" in expected
            assert _outcome(lambda: adder.add(a, b, rng.randrange(2))) == expected
        wide = 1 << (4 * width)
        for a, b in ((wide, 0), (0, wide | 0x5), (-1, 0), (0xA | wide, 0)):
            expected = _outcome(lambda: _reference_add(a, b, 0, width))
            assert expected == f"operand wider than the {width}-digit adder"
            assert _outcome(lambda: adder.add(a, b)) == expected
        assert adder.operations == 0

    def test_cost_scales_with_width(self):
        small = BcdCarryLookaheadAdder(width_digits=8).cost()
        large = BcdCarryLookaheadAdder(width_digits=32).cost()
        assert large.gate_equivalents > small.gate_equivalents
        assert large.logic_levels >= small.logic_levels


class TestBcdMultiplierAndConverter:
    @given(st.integers(0, 10 ** 16 - 1), st.integers(0, 10 ** 16 - 1))
    @settings(max_examples=50, deadline=None)
    def test_multiplier_matches_reference(self, a, b):
        multiplier = BcdMultiplier(operand_digits=16)
        result = multiplier.multiply(int_to_bcd(a), int_to_bcd(b))
        assert bcd_to_int(result.value) == a * b
        assert result.cycles > 16

    def test_multiplier_rejects_wide_operand(self):
        with pytest.raises(AcceleratorError):
            BcdMultiplier(operand_digits=4).multiply(int_to_bcd(123456), 0)

    @given(st.integers(0, 10 ** 19))
    @settings(max_examples=100, deadline=None)
    def test_converter_matches_reference(self, value):
        converter = BinaryToBcdConverter(input_bits=64, output_digits=20)
        result = converter.convert(value)
        assert bcd_to_int(result.value) == value
        assert result.cycles == 64

    def test_converter_range_checks(self):
        converter = BinaryToBcdConverter(input_bits=8, output_digits=2)
        with pytest.raises(AcceleratorError):
            converter.convert(256)
        with pytest.raises(AcceleratorError):
            converter.convert(130)  # needs 3 digits

    def test_cost_reports(self):
        report = BcdMultiplier().cost()
        assert report.total_gate_equivalents > 0
        assert "TOTAL" in report.render()


class TestCostModel:
    def test_gatecost_addition_and_scaling(self):
        a = GateCost("a", 100.0, 3, flip_flops=10)
        b = GateCost("b", 50.0, 5, flip_flops=2)
        combined = a + b
        assert combined.gate_equivalents == 150.0
        assert combined.logic_levels == 5
        assert a.scaled(3).flip_flops == 30

    def test_area_report_totals(self):
        report = AreaReport()
        report.add(register_cost("regs", 64))
        report.add(GateCost("logic", 123.0, 7))
        assert report.total_flip_flops == 64
        assert report.critical_path_levels == 7
        assert report.as_rows()[-1]["component"] == "TOTAL"


# ---------------------------------------------------------------------------
# Interface FSM and register file
# ---------------------------------------------------------------------------
class TestInterfaceFsm:
    def test_command_with_response_visits_resp_state(self):
        fsm = InterfaceFsm()
        cycles = fsm.run_command(FsmState.READ, respond=True, busy_cycles=1)
        assert cycles >= 3
        assert FsmState.READ_RESP in fsm.visited_states
        assert fsm.state == FsmState.IDLE

    def test_command_without_response(self):
        fsm = InterfaceFsm()
        fsm.run_command(FsmState.DEC_ADD, respond=False, busy_cycles=2)
        assert FsmState.DEC_ADD in fsm.visited_states
        assert FsmState.WRITE_RESP not in fsm.visited_states

    def test_illegal_transition_rejected(self):
        fsm = InterfaceFsm()
        fsm.state = FsmState.READ_RESP
        with pytest.raises(AcceleratorError):
            fsm._go(FsmState.DEC_ADD)

    def test_figure5_states_all_reachable(self):
        fsm = InterfaceFsm()
        for state in (FsmState.READ, FsmState.WRITE, FsmState.CLR_ALL,
                      FsmState.DEC_ADD, FsmState.ACCUM):
            fsm.run_command(state, respond=(state == FsmState.READ))
        assert {FsmState.IDLE, FsmState.READ, FsmState.WRITE, FsmState.CLR_ALL,
                FsmState.DEC_ADD, FsmState.ACCUM,
                FsmState.READ_RESP} <= fsm.visited_states

    EXECUTE_STATES = sorted(
        set(FsmState.ALL)
        - {FsmState.IDLE, FsmState.READ_RESP, FsmState.WRITE_RESP}
    )

    @staticmethod
    def _walk(fsm, state, respond, busy_cycles):
        """The step-by-step Fig. 5 walk the closed-form table replaces."""
        start = fsm.cycles
        fsm._go(state)
        fsm.cycles += max(busy_cycles - 1, 0)
        if respond:
            fsm._go(FsmState.READ_RESP if state == FsmState.READ
                    else FsmState.WRITE_RESP)
        fsm._go(FsmState.IDLE)
        return fsm.cycles - start

    def test_hop_table_matches_go_walk(self):
        assert len(self.EXECUTE_STATES) == 13
        table_total, walk_total = InterfaceFsm(), InterfaceFsm()
        for state in self.EXECUTE_STATES:
            for respond in (False, True):
                for busy in range(1, 141):
                    table, walk = InterfaceFsm(), InterfaceFsm()
                    assert table.run_command(state, respond, busy) == \
                        self._walk(walk, state, respond, busy)
                    assert table.cycles == walk.cycles
                    assert table.transition_counts == walk.transition_counts
                    assert table.visited_states == walk.visited_states
                    assert table.state == walk.state == FsmState.IDLE
                    table_total.run_command(state, respond, busy)
                    self._walk(walk_total, state, respond, busy)
        # Accumulated over every command, too.
        assert table_total.cycles == walk_total.cycles
        assert table_total.transition_counts == walk_total.transition_counts
        assert table_total.visited_states == walk_total.visited_states
        table_total.reset()
        assert table_total.cycles == 0 and not table_total.transition_counts
        assert table_total.visited_states == {FsmState.IDLE}

    @pytest.mark.parametrize("state", [FsmState.IDLE, FsmState.READ_RESP, "BOGUS"])
    def test_non_execute_state_is_an_illegal_transition(self, state):
        fsm = InterfaceFsm()
        with pytest.raises(AcceleratorError,
                           match=f"illegal FSM transition 'Idle' -> {state!r}"):
            fsm.run_command(state, respond=False)
        assert fsm.cycles == 0 and not fsm.transition_counts
        assert fsm.state == FsmState.IDLE


class TestRegisterFile:
    def test_read_write_clear(self):
        regfile = AcceleratorRegisterFile(num_registers=4, width_bits=16)
        regfile.write(2, 0x12345)
        assert regfile.read(2) == 0x2345  # masked to width
        regfile.clear_all()
        assert regfile.snapshot() == (0, 0, 0, 0)

    def test_bounds(self):
        regfile = AcceleratorRegisterFile(num_registers=4)
        with pytest.raises(AcceleratorError):
            regfile.read(4)
        with pytest.raises(AcceleratorError):
            AcceleratorRegisterFile(num_registers=0)


# ---------------------------------------------------------------------------
# Decimal accelerator
# ---------------------------------------------------------------------------
def _command(funct7, rd=0, rs1=0, rs2=0, rs1_value=0, rs2_value=0,
             xd=False, xs1=False, xs2=False):
    return RoccCommand(funct7=funct7, rd=rd, rs1=rs1, rs2=rs2,
                       rs1_value=rs1_value, rs2_value=rs2_value,
                       xd=xd, xs1=xs1, xs2=xs2)


class TestDecimalAccelerator:
    def test_write_then_read(self, accelerator):
        accelerator.execute_command(
            _command(DecimalFunct.WR, rs1_value=0x1234, rs2=3, xs1=True), None
        )
        result = accelerator.execute_command(
            _command(DecimalFunct.RD, rs2=3, xd=True), None
        )
        assert result.has_response and result.value == 0x1234

    def test_dec_add_core_operands(self, accelerator):
        result = accelerator.execute_command(
            _command(DecimalFunct.DEC_ADD, rs1_value=int_to_bcd(999),
                     rs2_value=int_to_bcd(1), xd=True, xs1=True, xs2=True), None
        )
        assert bcd_to_int(result.value) == 1000

    def test_dec_add_rejects_non_bcd(self, accelerator):
        with pytest.raises(AcceleratorError):
            accelerator.execute_command(
                _command(DecimalFunct.DEC_ADD, rs1_value=0xAB, rs2_value=0,
                         xd=True, xs1=True, xs2=True), None
            )

    def test_method1_sequence_computes_product(self, accelerator):
        """CLR_ALL + WR + 8x DEC_ADD + 16x DEC_ACCUM + 2x RD == X * Y."""
        x, y = 9876543210987654, 8765432109876543
        accelerator.execute_command(_command(DecimalFunct.CLR_ALL), None)
        accelerator.execute_command(
            _command(DecimalFunct.WR, rs1_value=int_to_bcd(x), rs2=1, xs1=True), None
        )
        for index in range(1, 9):
            accelerator.execute_command(
                _command(DecimalFunct.DEC_ADD, rd=index + 1, rs1=index, rs2=1), None
            )
        for position in reversed(range(16)):
            digit = (y // 10 ** position) % 10
            accelerator.execute_command(
                _command(DecimalFunct.DEC_ACCUM, rs1_value=digit, xs1=True), None
            )
        low = accelerator.execute_command(
            _command(DecimalFunct.RD, rs2=ACC_LO_SELECTOR, xd=True), None
        ).value
        high = accelerator.execute_command(
            _command(DecimalFunct.RD, rs2=ACC_HI_SELECTOR, xd=True), None
        ).value
        product = bcd_to_int((high << 64) | low)
        assert product == x * y

    def test_load_from_memory(self, accelerator):
        class FakeMemory:
            def read(self, address, size):
                assert (address, size) == (0x100, 8)
                return 0x55

        accelerator.execute_command(
            _command(DecimalFunct.LD, rs1_value=0x100, rs2=2, xs1=True), FakeMemory()
        )
        assert accelerator.regfile.read(2) == 0x55

    def test_binary_accumulate(self, accelerator):
        accelerator.execute_command(
            _command(DecimalFunct.ACCUM, rd=5, rs1_value=40, xs1=True), None
        )
        result = accelerator.execute_command(
            _command(DecimalFunct.ACCUM, rd=5, rs1_value=2, xs1=True, xd=True), None
        )
        assert result.value == 42

    def test_dec_cnv(self, accelerator):
        result = accelerator.execute_command(
            _command(DecimalFunct.DEC_CNV, rs1_value=987654, xd=True, xs1=True), None
        )
        assert bcd_to_int(result.value) == 987654
        assert result.busy_cycles >= 64

    def test_dec_mul_requires_multiplier_option(self):
        plain = DecimalAccelerator()
        with pytest.raises(AcceleratorError):
            plain.execute_command(
                _command(DecimalFunct.DEC_MUL, rs1_value=0x2, rs2_value=0x3,
                         xs1=True, xs2=True), None
            )
        wide = DecimalAccelerator(DecimalAcceleratorConfig(include_multiplier=True))
        wide.execute_command(
            _command(DecimalFunct.DEC_MUL, rs1_value=int_to_bcd(25),
                     rs2_value=int_to_bcd(4), xs1=True, xs2=True), None
        )
        assert bcd_to_int(wide.accumulator) == 100

    def test_status_register_carry(self, accelerator):
        accelerator.execute_command(
            _command(DecimalFunct.DEC_ADD,
                     rs1_value=int_to_bcd(10 ** 16 - 1) | (0x9999 << 64),
                     rs2_value=1, xd=True, xs1=True, xs2=True), None
        )
        status = accelerator.execute_command(
            _command(DecimalFunct.RD, rs2=STATUS_SELECTOR, xd=True), None
        )
        assert status.value & 1 == 0  # 20-digit operand did not overflow 32 digits

    def test_clear_resets_everything(self, accelerator):
        accelerator.execute_command(
            _command(DecimalFunct.WR, rs1_value=5, rs2=1, xs1=True), None
        )
        accelerator.accumulator = 123
        accelerator.execute_command(_command(DecimalFunct.CLR_ALL), None)
        assert accelerator.accumulator == 0
        assert accelerator.regfile.read(1) == 0

    def test_unknown_function_rejected(self, accelerator):
        with pytest.raises(AcceleratorError, match="funct7=0x7f"):
            accelerator.execute_command(_command(0x7F), None)
        assert accelerator.function_counts == {"FUNCT_127": 1}

    def test_statistics_and_area(self, accelerator):
        accelerator.execute_command(_command(DecimalFunct.CLR_ALL), None)
        assert accelerator.commands_executed >= 0  # adapter not used here
        report = accelerator.area_report()
        assert report.total_gate_equivalents > 1000
        names = [c.name for c in report.components]
        assert any("BCD-CLA" in name for name in names)

    def test_config_validation(self):
        with pytest.raises(AcceleratorError):
            DecimalAcceleratorConfig(register_width_digits=16)
        with pytest.raises(AcceleratorError):
            DecimalAcceleratorConfig(accumulator_digits=20)

    def test_reset(self, accelerator):
        accelerator.execute(
            funct7=DecimalFunct.CLR_ALL, rd=0, rs1=0, rs2=0, rs1_value=0,
            rs2_value=0, xd=False, xs1=False, xs2=False, memory=None,
        )
        assert accelerator.commands_executed == 1
        accelerator.reset()
        assert accelerator.commands_executed == 0
        assert accelerator.fsm.state == FsmState.IDLE


# ---------------------------------------------------------------------------
# Accelerator counters after seeded Method-1 kernel runs
# ---------------------------------------------------------------------------
def _method1_run(fmt, op, num_samples, **overrides):
    precision = {"decimal64": "double", "decimal128": "quad"}[fmt]
    config = TestProgramConfig(
        solution=SolutionKind.METHOD1, precision=precision, operation=op,
        num_samples=num_samples, seed=2018,
    )
    program = build_test_program(
        config, vectors=draw_vectors(num_samples, 2018, fmt=fmt, operation=op)
    )
    accelerator = DecimalAccelerator(
        DecimalAcceleratorConfig.for_format(fmt, **overrides)
    )
    result = RocketEmulator(program.image, accelerator=accelerator).run()
    return accelerator, result


def _counters(accelerator, result):
    pipeline = accelerator.pipeline
    return {
        "cycles": result.cycles,
        "stats": (accelerator.stats.commands_executed,
                  accelerator.stats.busy_cycles_total,
                  accelerator.stats.responses_sent),
        "functions": dict(accelerator.function_counts),
        "fsm_cycles": accelerator.fsm.cycles,
        "regfile": (accelerator.regfile.reads, accelerator.regfile.writes),
        "adder_operations": accelerator.adder.operations,
        "pipeline": (pipeline.stall_cycles, pipeline.overlap_cycles,
                     pipeline.peak_in_flight, pipeline.retired,
                     pipeline.transactions),
        "pipeline_functions": dict(pipeline.function_counts),
    }


_MUL64 = {"CLR_ALL": 40, "DEC_ACCUM": 640, "DEC_ADD": 337, "RD": 80, "WR": 40}
_FMA64 = {"CLR_ALL": 72, "DEC_ACCUM": 422, "DEC_ADD": 320, "DEC_ADDC": 65,
          "DEC_SUBB": 95, "RD": 80, "WR": 40}
_MUL128 = {"CLR_ALL": 8, "DEC_ACCUM": 272, "DEC_ADD": 68, "RD": 52, "WR": 40}
_FMA128 = {"CLR_ALL": 15, "DEC_ACCUM": 182, "DEC_ADD": 64, "DEC_ADDC": 32,
           "DEC_SUBB": 24, "RD": 40, "WR": 24}


class TestAcceleratorCounters:
    """Every counter of the accelerator model, pinned after seeded runs.

    The values were recorded with the digit-loop adder, the step-by-step
    FSM walk and the if-chain dispatch; a faster model must reproduce them
    exactly.
    """

    @pytest.mark.parametrize("fmt,op,num_samples,expected", [
        ("decimal64", "multiply", 40, {
            "cycles": 31774, "stats": (1137, 3011, 97), "functions": _MUL64,
            "fsm_cycles": 3011, "regfile": (1280, 1000),
            "adder_operations": 977, "pipeline": (0, 0, 1, 1136, 1137),
            "pipeline_functions": _MUL64,
        }),
        ("decimal64", "fma", 40, {
            "cycles": 76871, "stats": (1094, 2945, 240), "functions": _FMA64,
            "fsm_cycles": 2945, "regfile": (1062, 1512),
            "adder_operations": 902, "pipeline": (0, 0, 1, 1093, 1094),
            "pipeline_functions": _FMA64,
        }),
        ("decimal128", "multiply", 8, {
            "cycles": 20142, "stats": (440, 1204, 52), "functions": _MUL128,
            "fsm_cycles": 1204, "regfile": (420, 236),
            "adder_operations": 340, "pipeline": (0, 0, 1, 439, 440),
            "pipeline_functions": _MUL128,
        }),
        ("decimal128", "fma", 8, {
            "cycles": 22590, "stats": (381, 1064, 96), "functions": _FMA128,
            "fsm_cycles": 1064, "regfile": (310, 328),
            "adder_operations": 302, "pipeline": (0, 0, 1, 380, 381),
            "pipeline_functions": _FMA128,
        }),
    ])
    def test_method1_counters_are_pinned(self, fmt, op, num_samples, expected):
        assert _counters(*_method1_run(fmt, op, num_samples)) == expected

    @pytest.mark.parametrize("depth,width,cycles,overlap", [
        (2, 1, 30734, 1040),
        (4, 2, 30094, 1680),
    ])
    def test_staged_pipeline_counters_are_pinned(self, depth, width, cycles,
                                                 overlap):
        accelerator, result = _method1_run(
            "decimal64", "multiply", 40, pipeline_depth=depth, issue_width=width
        )
        counters = _counters(accelerator, result)
        assert counters["cycles"] == cycles
        assert counters["fsm_cycles"] == 3011
        assert counters["pipeline"] == (0, overlap, 1, 1136, 1137)
        assert counters["pipeline_functions"] == _MUL64

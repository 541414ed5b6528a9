"""Staged-pipeline accelerator tests (docs/pipeline.md).

Three layers of guarantees:

* unit/property tests of :mod:`repro.rocc.pipeline` (segment splitting,
  issue-slot occupancy, transaction event times, statistics);
* lockstep equivalence — the ``pipeline_depth=1, issue_width=1`` staged
  model must be *bit-identical* (results, per-run cycle counters and the
  accelerator's busy-cycle totals) to the legacy blocking-FSM timing path
  (``pipelined=False``), across every Table II funct code and both
  interchange formats; deeper/wider configurations must keep values
  identical while cycle counts shrink monotonically;
* Pareto-frontier properties and the sweep plumbing behind
  ``python -m repro.campaign --pipeline-sweep``.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.asm.builder import AsmBuilder
from repro.asm.program import TOHOST_ADDRESS
from repro.core.campaign import Axes, run_campaign
from repro.core.pareto import ParetoPoint, frontier_of, points_from_campaign
from repro.core.solution import microarchitecture_variants
from repro.decnumber.bcd import int_to_bcd
from repro.errors import AcceleratorError, ConfigurationError
from repro.isa.rocc import DecimalFunct, PIPELINE_STAGES, stage_plan
from repro.rocc.decimal_accel import (
    ACC_WORD_SELECTORS,
    STATUS_SELECTOR,
    DecimalAccelerator,
    DecimalAcceleratorConfig,
    acc_word_selector,
    regfile_word_selector,
)
from repro.rocc.fsm import FsmState, InterfaceFsm
from repro.rocc.interface import RoccCommand, RoccStatistics
from repro.rocc.pipeline import AcceleratorPipeline, split_busy_cycles
from repro.rocket.core import RocketEmulator
from repro.testgen.config import SolutionKind, TestProgramConfig
from repro.testgen.generator import build_test_program, draw_vectors

_PRECISION = {"decimal64": "double", "decimal128": "quad"}


def _command(funct7, rd=0, rs1=0, rs2=0, rs1_value=0, rs2_value=0,
             xd=False, xs1=False, xs2=False):
    return RoccCommand(funct7=funct7, rd=rd, rs1=rs1, rs2=rs2,
                       rs1_value=rs1_value, rs2_value=rs2_value,
                       xd=xd, xs1=xs1, xs2=xs2)


def _accelerator(fmt="decimal64", pipelined=True, depth=1, width=1,
                 **overrides):
    config = DecimalAcceleratorConfig.for_format(
        fmt, pipelined=pipelined, pipeline_depth=depth, issue_width=width,
        **overrides,
    )
    return DecimalAccelerator(config)


# ---------------------------------------------------------------------------
# split_busy_cycles
# ---------------------------------------------------------------------------
class TestSplitBusyCycles:
    @given(busy=st.integers(1, 500), depth=st.integers(1, 12))
    @settings(max_examples=200, deadline=None)
    def test_segments_conserve_the_datapath_work(self, busy, depth):
        segments = split_busy_cycles(busy, depth)
        assert sum(segments) == busy
        assert len(segments) == min(depth, busy)
        assert all(segment >= 1 for segment in segments)
        # Longest first: segment 0 is the initiation interval, ceil(busy/n).
        assert segments[0] == -(-busy // len(segments))
        assert list(segments) == sorted(segments, reverse=True)
        # Balanced: no stage more than one cycle longer than another.
        assert segments[0] - segments[-1] <= 1

    @given(busy=st.integers(1, 300), depth=st.integers(1, 8))
    @settings(max_examples=100, deadline=None)
    def test_initiation_interval_never_grows_with_depth(self, busy, depth):
        assert (split_busy_cycles(busy, depth + 1)[0]
                <= split_busy_cycles(busy, depth)[0])

    def test_depth_one_is_the_blocking_datapath(self):
        assert split_busy_cycles(7, 1) == (7,)
        assert split_busy_cycles(1, 8) == (1,)

    def test_rejects_nonpositive_inputs(self):
        for busy, depth in ((0, 1), (-3, 2), (1, 0), (4, -1)):
            with pytest.raises(AcceleratorError):
                split_busy_cycles(busy, depth)


# ---------------------------------------------------------------------------
# AcceleratorPipeline occupancy model
# ---------------------------------------------------------------------------
class TestAcceleratorPipeline:
    def test_validates_shape(self):
        with pytest.raises(AcceleratorError):
            AcceleratorPipeline(depth=0)
        with pytest.raises(AcceleratorError):
            AcceleratorPipeline(width=0)

    def test_depth_one_blocks_back_to_back_commands(self):
        pipe = AcceleratorPipeline(depth=1, width=1)
        first = pipe.issue(10, 5, False, DecimalFunct.DEC_ADD)
        assert (first.accept, first.complete, first.next_issue) == (10, 15, 15)
        assert first.release == first.next_issue == first.complete
        assert first.stall_cycles == 0
        # Arrives while the slot is busy: stalls until the first frees it.
        second = pipe.issue(12, 3, False, DecimalFunct.DEC_ADD)
        assert second.accept == 15 and second.stall_cycles == 3
        assert pipe.stall_cycles == 3 and pipe.transactions == 2

    def test_deeper_pipeline_overlaps_after_the_initiation_interval(self):
        pipe = AcceleratorPipeline(depth=4, width=1)
        first = pipe.issue(0, 8, False, DecimalFunct.DEC_ACCUM)
        assert first.segments == (2, 2, 2, 2)
        assert first.next_issue == 2 and first.complete == 8
        second = pipe.issue(1, 8, False, DecimalFunct.DEC_ACCUM)
        assert second.accept == 2 and second.stall_cycles == 1
        # Both were still in the stages when the second was accepted.
        assert pipe.peak_in_flight == 2
        # Non-responding commands release the core at the initiation interval.
        assert pipe.overlap_cycles == (first.complete - first.next_issue) + (
            second.complete - second.next_issue
        )

    def test_wider_issue_accepts_simultaneous_arrivals(self):
        pipe = AcceleratorPipeline(depth=1, width=2)
        a = pipe.issue(5, 4, False, DecimalFunct.WR)
        b = pipe.issue(5, 4, False, DecimalFunct.WR)
        assert a.accept == b.accept == 5
        assert pipe.stall_cycles == 0
        c = pipe.issue(6, 4, False, DecimalFunct.WR)
        assert c.accept == 9  # both slots busy until cycle 9

    def test_responding_commands_hold_the_core_to_completion(self):
        pipe = AcceleratorPipeline(depth=4, width=1)
        txn = pipe.issue(0, 8, True, DecimalFunct.RD)
        assert txn.release == txn.complete == 8
        assert pipe.overlap_cycles == 0

    def test_stage_names_follow_the_function_plan(self):
        pipe = AcceleratorPipeline(depth=3, width=1)
        mul = pipe.issue(0, 9, False, DecimalFunct.DEC_MUL)
        assert mul.stage_names == ("multiplicand-gen", "pp-accumulate", "round")
        add = pipe.issue(0, 6, True, DecimalFunct.DEC_ADDSUB)
        assert add.stage_names == ("align", "effective-op", "round")
        # Interface-only commands have a single logical stage.
        wr = AcceleratorPipeline(depth=1).issue(0, 1, False, DecimalFunct.WR)
        assert wr.stage_names == ("interface",)
        # More physical segments than logical stages: extras are numbered.
        deep = AcceleratorPipeline(depth=5).issue(0, 10, False, DecimalFunct.DEC_MUL)
        assert deep.stage_names == (
            "multiplicand-gen", "pp-accumulate", "round", "round+1", "round+2",
        )

    def test_stage_plan_covers_the_datapath_functions(self):
        for name in ("DEC_MUL", "DEC_ACCUM"):
            assert PIPELINE_STAGES[name][0] == "multiplicand-gen"
        for name in ("DEC_ADDSUB", "DEC_FMA_ACC", "DEC_ADDC", "DEC_SUBB"):
            assert PIPELINE_STAGES[name][0] == "align"
        assert stage_plan(DecimalFunct.RD) == ("interface",)
        assert stage_plan("DEC_MUL") == PIPELINE_STAGES["DEC_MUL"]

    def test_statistics_and_reset(self):
        pipe = AcceleratorPipeline(depth=2, width=2)
        pipe.issue(0, 6, False, DecimalFunct.DEC_MUL)
        pipe.issue(1, 6, True, DecimalFunct.DEC_ACCUM)
        assert pipe.transactions == 2
        assert pipe.function_counts["DEC_MUL"] == 1
        assert pipe.in_flight == 2 and pipe.peak_in_flight == 2
        pipe.reset()
        assert pipe.transactions == pipe.retired == 0
        assert pipe.stall_cycles == pipe.overlap_cycles == 0
        assert pipe.in_flight == 0 and pipe.peak_in_flight == 0
        assert not pipe.function_counts
        # A fresh command is accepted at its arrival again.
        assert pipe.issue(0, 4, False, DecimalFunct.WR).accept == 0

    @given(
        depth=st.integers(1, 6),
        width=st.integers(1, 3),
        commands=st.lists(
            st.tuples(st.integers(0, 4), st.integers(1, 20), st.booleans()),
            min_size=1, max_size=20,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_event_time_invariants(self, depth, width, commands):
        pipe = AcceleratorPipeline(depth=depth, width=width)
        arrival = 0
        for gap, busy, responds in commands:
            arrival += gap
            txn = pipe.issue(arrival, busy, responds, DecimalFunct.DEC_ADD)
            assert txn.accept >= txn.arrival == arrival
            assert txn.complete == txn.accept + busy
            assert txn.next_issue == txn.accept + txn.segments[0]
            assert txn.next_issue <= txn.complete
            assert txn.release in (txn.complete, txn.next_issue)
            arrival = txn.arrival
        assert pipe.retired + pipe.in_flight == pipe.transactions


# ---------------------------------------------------------------------------
# Interface FSM error path (regression: previously untested)
# ---------------------------------------------------------------------------
class TestFsmBusyCollision:
    def test_command_while_busy_raises_and_preserves_state(self):
        fsm = InterfaceFsm()
        fsm._go(FsmState.DEC_MUL)  # freeze the FSM mid-command
        cycles_before = fsm.cycles
        with pytest.raises(AcceleratorError, match="while the FSM was busy"):
            fsm.run_command(FsmState.DEC_ADD, respond=False)
        # The rejected command must not have advanced the machine.
        assert fsm.state == FsmState.DEC_MUL
        assert fsm.cycles == cycles_before

    def test_illegal_transition_is_rejected(self):
        fsm = InterfaceFsm()
        with pytest.raises(AcceleratorError, match="illegal FSM transition"):
            fsm._go(FsmState.READ_RESP)  # no Idle -> Read Resp edge in Fig. 5


# ---------------------------------------------------------------------------
# Statistics reset (regression: counters survived accelerator.reset())
# ---------------------------------------------------------------------------
class TestStatisticsReset:
    def test_rocc_statistics_value_object(self):
        stats = RoccStatistics(commands_executed=3, busy_cycles_total=9,
                               responses_sent=1)
        stats.reset()
        assert stats == RoccStatistics()

    def test_reset_clears_every_counter(self, accelerator):
        accelerator.execute(
            funct7=DecimalFunct.WR, rd=0, rs1=0, rs2=1,
            rs1_value=int_to_bcd(42), rs2_value=0,
            xd=False, xs1=True, xs2=False, memory=None,
        )
        accelerator.execute(
            funct7=DecimalFunct.RD, rd=0, rs1=0, rs2=1, rs1_value=0,
            rs2_value=0, xd=True, xs1=False, xs2=False, memory=None,
        )
        accelerator.pipeline.issue(0, 3, True, DecimalFunct.RD)
        assert accelerator.commands_executed == 2
        assert accelerator.responses_sent == 1
        assert accelerator.busy_cycles_total > 0
        assert accelerator.regfile.reads > 0 and accelerator.regfile.writes > 0
        assert accelerator.pipeline.transactions == 1

        accelerator.reset()

        assert accelerator.stats == RoccStatistics()
        assert accelerator.commands_executed == 0
        assert accelerator.busy_cycles_total == 0
        assert accelerator.responses_sent == 0
        # clear_all() models the CLR_ALL instruction and counts its writes;
        # a simulator reset must forget the access history too.
        assert accelerator.regfile.reads == 0
        assert accelerator.regfile.writes == 0
        assert accelerator.pipeline.transactions == 0
        assert accelerator.pipeline.in_flight == 0
        assert accelerator.fsm.state == FsmState.IDLE

    def test_counters_are_read_only_views_of_stats(self, accelerator):
        with pytest.raises(AttributeError):
            accelerator.commands_executed = 5

    def test_warm_reuse_reproduces_counters(self):
        """A reset accelerator replays a program with identical statistics
        (the warm BatchRunner reuse path)."""
        program = _generated_program("decimal64", "multiply", 8)
        accel = _accelerator("decimal64")
        first = RocketEmulator(program.image, accelerator=accel).run()
        snapshot = (accel.stats.commands_executed, accel.stats.busy_cycles_total,
                    accel.stats.responses_sent, accel.regfile.writes,
                    accel.pipeline.transactions)
        accel.reset()
        second = RocketEmulator(program.image, accelerator=accel).run()
        assert (accel.stats.commands_executed, accel.stats.busy_cycles_total,
                accel.stats.responses_sent, accel.regfile.writes,
                accel.pipeline.transactions) == snapshot
        assert second.cycles == first.cycles
        assert program.read_results(second) == program.read_results(first)


# ---------------------------------------------------------------------------
# Register-file word-lane selectors at format boundaries
# ---------------------------------------------------------------------------
class TestWordLaneSelectors:
    def _write_lane(self, accel, register, lane, value):
        accel.execute_command(
            _command(DecimalFunct.WR, rd=lane, rs1_value=value, rs2=register,
                     xs1=True), None,
        )

    def _read_selector(self, accel, selector):
        return accel.execute_command(
            _command(DecimalFunct.RD, rs2_value=selector, xd=True, xs2=True),
            None,
        ).value

    def test_decimal128_operand_reads_back_through_every_lane(self):
        """A 3-word decimal128 operand written lane by lane reads back
        through every word-lane selector, including the partial top lane."""
        accel = _accelerator("decimal128")
        assert accel.config.register_words == 3
        lanes = (0x0123456789012345, 0x6789012345678901, 0x2345678901234567)
        for lane, value in enumerate(lanes):
            self._write_lane(accel, 3, lane, value)
        width_bits = 4 * accel.config.register_width_digits
        top_bits = width_bits - 128  # decimal128: 152-bit registers
        assert 0 < top_bits < 64
        for lane, value in enumerate(lanes):
            expected = value if lane < 2 else value & ((1 << top_bits) - 1)
            selector = regfile_word_selector(3, lane)
            assert self._read_selector(accel, selector) == expected

    def test_top_lane_merge_preserves_lower_lanes(self):
        accel = _accelerator("decimal128")
        self._write_lane(accel, 7, 0, 0x1111111111111111)
        self._write_lane(accel, 7, 1, 0x2222222222222222)
        self._write_lane(accel, 7, 2, 0x3333333333333333)
        # Rewriting the top lane must not disturb words 0 and 1.
        self._write_lane(accel, 7, 2, 0x444444)
        assert self._read_selector(accel, regfile_word_selector(7, 0)) == 0x1111111111111111
        assert self._read_selector(accel, regfile_word_selector(7, 1)) == 0x2222222222222222
        assert self._read_selector(accel, regfile_word_selector(7, 2)) == 0x444444

    def test_lane_past_the_register_width_raises(self):
        accel = _accelerator("decimal128")
        # Lane 3 has a selector encoding but no storage behind it (152 bits).
        with pytest.raises(AcceleratorError, match="word lane 3 out of range"):
            self._read_selector(accel, regfile_word_selector(0, 3))
        with pytest.raises(AcceleratorError):
            regfile_word_selector(0, 4)  # beyond the selector space itself
        # decimal64 registers are 80 bits: lane 2 has no storage either.
        with pytest.raises(AcceleratorError, match="word lane 2 out of range"):
            self._read_selector(_accelerator("decimal64"),
                                regfile_word_selector(0, 2))

    def test_decimal128_accumulator_words_read_through_selectors_19_to_21(self):
        """DEC_FMA_ACC-built accumulator content reads back word by word
        through the extended selectors (Table II read surface)."""
        accel = _accelerator("decimal128")
        assert accel.config.accumulator_words == 5
        value = int_to_bcd(9_876_543_210_987_654)
        self._write_lane(accel, 1, 0, value)
        # accumulator = value + (value << 48 digits): populates high words.
        for shift in (0, 48):
            accel.execute_command(
                _command(DecimalFunct.DEC_FMA_ACC, rs1=1, rs2_value=shift,
                         xs2=True), None,
            )
        expected = (value + (value << (4 * 48))) & (
            (1 << (4 * accel.config.accumulator_digits)) - 1
        )
        read_back = 0
        for word in range(accel.config.accumulator_words):
            selector = acc_word_selector(word)
            read_back |= self._read_selector(accel, selector) << (64 * word)
        assert read_back == expected
        assert [acc_word_selector(w) for w in (2, 3, 4)] == [19, 20, 21]
        # Top-word edge: decimal128's 272-bit accumulator leaves selector 22
        # (word 5) past the storage — it reads as zero, not garbage.
        assert self._read_selector(accel, ACC_WORD_SELECTORS[5]) == 0
        with pytest.raises(AcceleratorError, match="no RD selector"):
            acc_word_selector(len(ACC_WORD_SELECTORS))

    def test_status_selector_still_reads_status(self):
        accel = _accelerator("decimal64")
        accel.status = 0b11
        assert self._read_selector(accel, STATUS_SELECTOR) == 0b11


# ---------------------------------------------------------------------------
# Lockstep: d1w1 staged pipeline == legacy blocking FSM, bit for bit
# ---------------------------------------------------------------------------
_PROGRAM_CACHE = {}


def _generated_program(fmt, op, num_samples, seed=2018):
    key = (fmt, op, num_samples, seed)
    if key not in _PROGRAM_CACHE:
        config = TestProgramConfig(
            solution=SolutionKind.METHOD1,
            precision=_PRECISION[fmt],
            operation=op,
            num_samples=num_samples,
            seed=seed,
        )
        vectors = draw_vectors(num_samples, seed, fmt=fmt, operation=op)
        _PROGRAM_CACHE[key] = build_test_program(config, vectors=vectors)
    return _PROGRAM_CACHE[key]


def _run(image, fmt, pipelined=True, depth=1, width=1, **overrides):
    accel = _accelerator(fmt, pipelined=pipelined, depth=depth, width=width,
                         **overrides)
    result = RocketEmulator(image, accelerator=accel).run()
    return accel, result


def _assert_lockstep(image, fmt, **overrides):
    """d1w1 pipelined run must be bit-identical to the legacy timing path."""
    legacy_accel, legacy = _run(image, fmt, pipelined=False, **overrides)
    piped_accel, piped = _run(image, fmt, pipelined=True, depth=1, width=1,
                              **overrides)
    assert legacy_accel.pipeline is None
    assert piped_accel.pipeline.transactions == piped.rocc_commands
    # Timing: every counter, not just the total.
    assert piped.cycles == legacy.cycles
    assert piped.sw_cycles == legacy.sw_cycles
    assert piped.hw_cycles == legacy.hw_cycles
    assert piped.rocc_commands == legacy.rocc_commands
    assert piped.instructions_retired == legacy.instructions_retired
    # Datapath work and architectural state.
    assert piped_accel.busy_cycles_total == legacy_accel.busy_cycles_total
    assert piped_accel.commands_executed == legacy_accel.commands_executed
    assert piped_accel.responses_sent == legacy_accel.responses_sent
    assert piped_accel.accumulator == legacy_accel.accumulator
    assert piped_accel.status == legacy_accel.status
    assert piped_accel.regfile.snapshot() == legacy_accel.regfile.snapshot()
    return legacy, piped


_ALL_FUNCT_RESULT_DWORDS = 20


def _all_funct_program():
    """A hand-built program touching every Table II funct code.

    Every responding command's value is stored into the ``out`` buffer so
    two runs can be compared word for word; the carry-chained
    DEC_ADDC/DEC_SUBB pairs exercise the status-bit carry path.
    """
    builder = AsmBuilder()
    builder.data()
    builder.label("out")
    builder.dword(*([0] * _ALL_FUNCT_RESULT_DWORDS))
    builder.label("ldsrc")
    builder.dword(int_to_bcd(4_242_424_242_424_242))
    builder.text()
    builder.label("_start")
    builder.la("a5", "out")

    slot = [0]

    def store(reg="a0"):
        builder.emit("sd", reg, "a5", 8 * slot[0])
        slot[0] += 1

    builder.rocc("CLR_ALL")

    # Chunked carry chain: (9...9, 1) + (1, 0) carries between the words.
    builder.li("a0", int_to_bcd(9_999_999_999_999_999))
    builder.li("a1", int_to_bcd(1))
    builder.rocc("DEC_ADDC", rd="a2", rs1="a0", rs2="a1",
                 xd=True, xs1=True, xs2=True)
    store("a2")
    builder.li("a0", int_to_bcd(1))
    builder.li("a1", 0)
    builder.rocc("DEC_ADDC", rd="a2", rs1="a0", rs2="a1",
                 xd=True, xs1=True, xs2=True)
    store("a2")
    # Borrow chain: (0, 5) - (1, 2) borrows out of the low word.
    builder.li("a0", 0)
    builder.li("a1", int_to_bcd(1))
    builder.rocc("DEC_SUBB", rd="a2", rs1="a0", rs2="a1",
                 xd=True, xs1=True, xs2=True)
    store("a2")
    builder.li("a0", int_to_bcd(5))
    builder.li("a1", int_to_bcd(2))
    builder.rocc("DEC_SUBB", rd="a2", rs1="a0", rs2="a1",
                 xd=True, xs1=True, xs2=True)
    store("a2")

    # Register-set writes, including a word-lane merge (WR rd = lane).
    builder.li("a0", int_to_bcd(9_876_543_210_987_654))
    builder.rocc("WR", rs1="a0", rs2=1, xs1=True)
    builder.li("a0", int_to_bcd(8_765_432_109_876_543))
    builder.rocc("WR", rs1="a0", rs2=2, xs1=True)
    builder.li("a0", int_to_bcd(1_111_111_111_111_111))
    builder.rocc("WR", rs1="a0", rs2=3, xs1=True)
    builder.li("a0", int_to_bcd(77))
    builder.rocc("WR", rd=1, rs1="a0", rs2=3, xs1=True)  # lane 1 merge

    # DEC_ADD: register operands into reg4, then a responding variant.
    builder.rocc("DEC_ADD", rd=4, rs1=1, rs2=2)
    builder.rocc("DEC_ADD", rd="a0", rs1=1, rs2=2, xd=True)
    store()

    # DEC_CNV: binary-to-BCD, both response modes.
    builder.li("a0", 1234567)
    builder.rocc("DEC_CNV", rd=5, rs1="a0", xs1=True)
    builder.rocc("DEC_CNV", rd="a1", rs1="a0", xd=True, xs1=True)
    store("a1")

    # ACCUM: binary accumulate, non-responding then responding.
    builder.li("a0", 1000)
    builder.rocc("ACCUM", rd=6, rs1="a0", xs1=True)
    builder.rocc("ACCUM", rd="a2", rs1="a0", xd=True, xs1=True)
    store("a2")

    # LD through the RoCC memory channel, read back through the regfile.
    builder.la("a0", "ldsrc")
    builder.rocc("LD", rs1="a0", rs2=7, xs1=True)
    builder.rocc("RD", rd="a0", rs2=7, xd=True)
    store()

    # DEC_MUL into the accumulator (needs include_multiplier=True).
    builder.rocc("DEC_MUL", rd="a3", rs1=1, rs2=2, xd=True)
    store("a3")
    builder.rocc("DEC_MUL", rs1=1, rs2=3)

    # DEC_ACCUM: default one-digit shift, then an explicit shift + response.
    builder.rocc("DEC_ACCUM", rs1=4)
    builder.li("a1", 2)
    builder.rocc("DEC_ACCUM", rd="a0", rs1=4, rs2="a1", xs2=True, xd=True)
    store()

    # DEC_ADDSUB: subtraction, both response modes.
    builder.rocc("DEC_ADDSUB", rd=8, rs1=1, rs2=2)
    builder.rocc("DEC_ADDSUB", rd="a0", rs1=2, rs2=1, xd=True)
    store()

    # DEC_FMA_ACC: shifted addend merge into the accumulator.
    builder.li("a1", 3)
    builder.rocc("DEC_FMA_ACC", rd="a0", rs1=4, rs2="a1", xs2=True, xd=True)
    store()

    # RD surface: status, the low accumulator words, a regfile word lane.
    for selector in (STATUS_SELECTOR, ACC_WORD_SELECTORS[0],
                     ACC_WORD_SELECTORS[1]):
        builder.rocc("RD", rd="a0", rs2=selector, xd=True)
        store()
    for lane in (0, 1):
        builder.li("a1", regfile_word_selector(3, lane))
        builder.rocc("RD", rd="a0", rs2="a1", xd=True, xs2=True)
        store()

    builder.li("t5", TOHOST_ADDRESS)
    builder.li("t6", 1)
    builder.emit("sd", "t6", "t5", 0)
    builder.label("spin")
    builder.j("spin")
    return builder.link()


class TestLockstepAllFunctCodes:
    @pytest.fixture(scope="class")
    def image(self):
        return _all_funct_program()

    @pytest.mark.parametrize("fmt", ["decimal64", "decimal128"])
    def test_every_funct_code_is_bit_identical(self, image, fmt):
        legacy, piped = _assert_lockstep(image, fmt, include_multiplier=True)
        legacy_words = legacy.read_dwords("out", _ALL_FUNCT_RESULT_DWORDS)
        piped_words = piped.read_dwords("out", _ALL_FUNCT_RESULT_DWORDS)
        assert piped_words == legacy_words
        # The buffer is really exercised: every stored slot is nonzero
        # except the carried-to-zero DEC_ADDC low word and the status read.
        stored = legacy_words[:17]
        assert all(word for i, word in enumerate(stored) if i not in (0, 12))

    def test_program_covers_every_funct_code(self, image):
        accel = _accelerator("decimal64", include_multiplier=True)
        RocketEmulator(image, accelerator=accel).run()
        executed = set(accel.function_counts)
        assert executed == set(DecimalFunct.BY_NAME)

    @pytest.mark.parametrize("fmt", ["decimal64", "decimal128"])
    def test_deeper_configs_keep_values_and_never_slow_down(self, image, fmt):
        _, reference = _run(image, fmt, pipelined=False,
                            include_multiplier=True)
        expected = reference.read_dwords("out", _ALL_FUNCT_RESULT_DWORDS)
        previous_cycles = None
        for depth in (1, 2, 4, 8):
            accel, result = _run(image, fmt, depth=depth,
                                 include_multiplier=True)
            assert result.read_dwords("out", _ALL_FUNCT_RESULT_DWORDS) == expected
            assert accel.busy_cycles_total > 0
            if previous_cycles is not None:
                assert result.cycles <= previous_cycles
            previous_cycles = result.cycles


class TestLockstepGeneratedKernels:
    """Seeded operand sweeps through the real Method-1 kernels."""

    CASES = [
        ("decimal64", "multiply", 200),   # the paper's Table IV axis
        ("decimal64", "add", 50),
        ("decimal64", "subtract", 50),
        ("decimal64", "fma", 50),
        ("decimal128", "multiply", 12),
        ("decimal128", "fma", 10),
    ]

    @pytest.mark.parametrize("fmt,op,num_samples", CASES)
    def test_kernel_sweep_is_bit_identical_at_d1w1(self, fmt, op, num_samples):
        program = _generated_program(fmt, op, num_samples)
        legacy, piped = _assert_lockstep(program.image, fmt)
        assert program.read_results(piped) == program.read_results(legacy)

    def test_deeper_and_wider_configs_keep_kernel_values(self):
        program = _generated_program("decimal64", "multiply", 40)
        _, reference = _run(program.image, "decimal64", pipelined=False)
        expected = program.read_results(reference)
        baseline_accel, baseline = _run(program.image, "decimal64")
        cycles_by_depth = []
        for depth in (1, 2, 4, 8):
            for width in (1, 2):
                accel, result = _run(program.image, "decimal64",
                                     depth=depth, width=width)
                assert program.read_results(result) == expected
                # The datapath work is conserved at every design point.
                assert accel.busy_cycles_total == baseline_accel.busy_cycles_total
                # Wider issue never slows a design point down.
                if width == 1:
                    cycles_by_depth.append(result.cycles)
                else:
                    assert result.cycles <= cycles_by_depth[-1]
        assert cycles_by_depth == sorted(cycles_by_depth, reverse=True)
        assert cycles_by_depth[-1] < cycles_by_depth[0]  # depth actually pays
        assert baseline.cycles == reference.cycles


# ---------------------------------------------------------------------------
# Pareto frontier properties
# ---------------------------------------------------------------------------
def _point(name, cycles, gates):
    return ParetoPoint(name=name, avg_cycles=cycles, gate_equivalents=gates)


class TestParetoFrontier:
    def test_dominates(self):
        a = _point("a", 1.0, 10.0)
        b = _point("b", 2.0, 10.0)
        c = _point("c", 1.0, 10.0)
        assert a.dominates(b) and not b.dominates(a)
        assert not a.dominates(c) and not c.dominates(a)  # coincident

    def test_hand_built_fixture(self):
        frontier_points = [
            _point("fast", 1.0, 10.0),
            _point("balanced", 2.0, 5.0),
            _point("small", 3.0, 3.0),
        ]
        dominated = [
            _point("worse-balanced", 2.0, 6.0),   # dominated by balanced
            _point("strictly-worse", 4.0, 11.0),  # dominated by everything
        ]
        frontier = frontier_of(frontier_points + dominated)
        assert frontier == frontier_points  # already in frontier order
        assert all(point not in frontier for point in dominated)

    def test_coincident_points_all_survive(self):
        twin_a = _point("twin-a", 2.0, 5.0)
        twin_b = _point("twin-b", 2.0, 5.0)
        frontier = frontier_of([twin_a, twin_b, _point("worse", 2.0, 6.0)])
        assert frontier == [twin_a, twin_b]

    def test_random_cloud_properties(self):
        rng = random.Random(2018)
        points = [
            _point(f"p{i}", round(rng.uniform(1, 100), 2),
                   round(rng.uniform(1, 100), 2))
            for i in range(80)
        ]
        frontier = frontier_of(points)
        assert frontier
        # No returned point is dominated by any candidate.
        for point in frontier:
            assert not any(other.dominates(point) for other in points)
        # Every excluded candidate is dominated by some frontier point.
        for point in points:
            if point not in frontier:
                assert any(other.dominates(point) for other in frontier)

    def test_order_is_deterministic_under_shuffle(self):
        rng = random.Random(7)
        points = [
            _point(f"p{i}", float(rng.randint(1, 10)), float(rng.randint(1, 10)))
            for i in range(40)
        ]
        expected = frontier_of(points)
        for _ in range(5):
            rng.shuffle(points)
            assert frontier_of(points) == expected
        keys = [(p.avg_cycles, p.gate_equivalents, p.name) for p in expected]
        assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# Sweep plumbing: variants, cells, campaign, analyzer, CLI
# ---------------------------------------------------------------------------
class TestSweepPlumbing:
    def test_microarchitecture_variants_pin_the_knobs(self):
        variants = microarchitecture_variants(depths=(1, 2), widths=(1, 2))
        suffixes = [v.name.split()[-1] for v in variants]
        assert suffixes == ["d1w1", "d1w2", "d2w1", "d2w2"]
        assert len({v.name for v in variants}) == len(variants)
        for variant in variants:
            config = variant.accelerator_config
            assert config.pipelined
        assert variants[0].accelerator_config.pipeline_depth == 1
        assert variants[-1].accelerator_config.pipeline_depth == 2
        assert variants[-1].accelerator_config.issue_width == 2
        with pytest.raises(ConfigurationError):
            microarchitecture_variants(depths=(), widths=(1,))

    def test_pipeline_sweep_cells_labels_are_unique(self):
        cells = Axes(depths=(1, 2), widths=(1,), num_samples=4).cells()
        labels = [cell.label for cell in cells]
        assert len(labels) == len(set(labels))
        assert len(cells) == 3  # software baseline + two variants
        assert any("Software" in label for label in labels)

    def test_small_campaign_produces_a_consistent_frontier(self):
        result = run_campaign(
            Axes(depths=(1, 4), widths=(1,), num_samples=6).cells()
        )
        groups = points_from_campaign(result)
        assert set(groups) == {("multiply", "decimal64")}
        points = groups[("multiply", "decimal64")]
        assert len(points) == 3
        baseline = [p for p in points if p.gate_equivalents == 0.0]
        assert len(baseline) == 1  # the software reference point
        frontier = frontier_of(points)
        assert frontier and set(frontier) <= set(points)
        for point in frontier:
            assert not any(other.dominates(point) for other in points)
        # The deeper design point trades area for cycles against d1w1.
        by_suffix = {p.name.split()[-1]: p for p in points}
        assert by_suffix["d4w1"].avg_cycles <= by_suffix["d1w1"].avg_cycles
        assert by_suffix["d4w1"].gate_equivalents > by_suffix["d1w1"].gate_equivalents

    def test_analyzer_sweep_microarchitecture(self):
        from repro.core.evaluation import EvaluationFramework
        from repro.core.pareto import ParetoAnalyzer

        analyzer = ParetoAnalyzer(
            framework=EvaluationFramework(num_samples=3, seed=11)
        )
        points = analyzer.sweep_microarchitecture(depths=(1, 2), widths=(1,))
        assert len(points) == 3  # baseline + d1w1 + d2w1
        assert analyzer.points == points
        frontier = analyzer.frontier()
        assert frontier == frontier_of(points)

    def test_cli_pipeline_sweep(self, tmp_path, capsys):
        from repro.campaign import main

        json_path = tmp_path / "sweep.json"
        rc = main([
            "--pipeline-sweep", "--depths", "1,2", "--widths", "1",
            "--samples", "4", "--json", str(json_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Pipeline microarchitecture sweep" in out
        import json

        summary = json.loads(json_path.read_text())
        frontier = summary["pipeline_frontier"]["multiply/decimal64"]
        assert len(frontier) == 3
        assert any(entry["pareto"] for entry in frontier)

    def test_cli_rejects_conflicting_axes(self):
        from repro.campaign import main

        with pytest.raises(SystemExit):
            main(["--pipeline-sweep", "--workload", "paper-uniform"])
        with pytest.raises(SystemExit):
            main(["--pipeline-sweep", "--kinds", "method1"])


# ---------------------------------------------------------------------------
# Area model: pipeline knobs cost hardware, the d1w1 point costs nothing
# ---------------------------------------------------------------------------
class TestPipelineAreaModel:
    def test_d1w1_area_matches_the_blocking_design(self):
        blocking = DecimalAcceleratorConfig().area_report()
        d1w1 = DecimalAcceleratorConfig.for_format("decimal64").area_report()
        assert d1w1.total_gate_equivalents == blocking.total_gate_equivalents
        assert d1w1.total_flip_flops == blocking.total_flip_flops
        names = [c.name for c in d1w1.components]
        assert not any("pipeline stage" in name for name in names)
        assert not any("issue" in name for name in names)

    @pytest.mark.parametrize("fmt", ["decimal64", "decimal128"])
    def test_depth_and_width_cost_monotonically(self, fmt):
        def totals(depth, width):
            report = DecimalAcceleratorConfig.for_format(
                fmt, pipeline_depth=depth, issue_width=width
            ).area_report()
            return report.total_gate_equivalents, report.total_flip_flops

        base = totals(1, 1)
        deeper = totals(2, 1)
        deepest = totals(4, 1)
        wider = totals(1, 2)
        assert base < deeper < deepest
        assert base < wider
        names = [
            c.name
            for c in DecimalAcceleratorConfig.for_format(
                fmt, pipeline_depth=4, issue_width=2
            ).area_report().components
        ]
        assert any("pipeline stage registers (4 stages)" in n for n in names)
        assert any("issue/retire queues (width 2)" in n for n in names)

    def test_config_rejects_nonpositive_knobs(self):
        with pytest.raises(AcceleratorError):
            DecimalAcceleratorConfig(pipeline_depth=0)
        with pytest.raises(AcceleratorError):
            DecimalAcceleratorConfig(issue_width=0)

"""Tier-2 compiled-superblock engine and batch-vector execution tests.

Locks down the contract of the exec-compiled tier (see docs/simulator.md):

* tier-2 execution is bit-identical to the tier-1 threaded-code engine on
  RV64IM edge semantics (lockstep runs over the same programs),
* speculation (exact entry values, the MMIO hook set) deoptimizes
  safely — entry-guard failure falls back to tier 1, pruning lets the head
  re-promote against the live values, and results never change,
* self-modifying code de-promotes compiled superblocks,
* ``run``/``step`` and cold/warm (batch-mode) execution agree exactly,
* :class:`~repro.sim.batch.BatchRunner` and the campaign engine's warm
  workers reproduce the cold path sample for sample.
"""

from __future__ import annotations

import pytest

from repro.errors import TrapError
from repro.isa.encoder import encode_instruction
from repro.sim.batch import BatchRunner
from repro.sim.executor import Executor
from repro.sim.hart import Hart
from repro.sim.memory import SparseMemory
from repro.sim.spike import SpikeSimulator

MASK64 = 0xFFFFFFFFFFFFFFFF
BASE = 0x1000
DATA = 0x8000
INT64_MIN = 1 << 63


def make_executor(words, regs=None, threshold=64, **kwargs):
    """Encoded words at ``BASE``; returns (executor, hart, memory)."""
    memory = SparseMemory()
    for index, word in enumerate(words):
        memory.write(BASE + 4 * index, 4, word)
    hart = Hart(pc=BASE)
    for reg, value in (regs or {}).items():
        hart.regs[reg] = value & MASK64
    return Executor(hart, memory, promote_threshold=threshold, **kwargs), hart, memory


def run_to_trap(executor, budget=1_000_000):
    """Run until the final ``ebreak`` traps; returns instructions retired."""
    with pytest.raises(TrapError):
        executor.run(budget)
    return executor.retired


def final_state(words, regs, threshold, data=None, data_words=16, **kwargs):
    """Run to the trap and return (regs, retired, data words) for comparison."""
    executor, hart, memory = make_executor(
        words, regs=regs, threshold=threshold, **kwargs
    )
    for offset, value in (data or {}).items():
        memory.write(DATA + offset, 8, value)
    run_to_trap(executor)
    return (
        list(hart.regs),
        executor.retired,
        [memory.read(DATA + 8 * i, 8) for i in range(data_words)],
        executor,
    )


def assert_lockstep(words, regs, data=None):
    """Tier-1-only and tier-2-forced runs must agree bit for bit."""
    r1, n1, m1, ex1 = final_state(words, regs, threshold=0, data=data)
    r2, n2, m2, ex2 = final_state(words, regs, threshold=32, data=data)
    assert ex1.tier2_blocks == 0
    assert ex2.tier2_blocks > 0, "tier 2 never engaged — test is vacuous"
    assert r1 == r2
    assert n1 == n2
    assert m1 == m2


class TestTierLockstep:
    def test_rv64im_edge_alu_loop(self):
        # A hot loop over RV64IM edge semantics: shift-amount masking,
        # signed-overflow division, remainder by zero, 32-bit op sign
        # extension — accumulated so any divergence sticks.
        words = [
            encode_instruction("sll", 6, 20, 21),    # shamt 0x43 -> 3
            encode_instruction("sra", 7, 22, 21),    # arithmetic on INT64_MIN
            encode_instruction("div", 8, 22, 23),    # INT64_MIN / -1 overflow
            encode_instruction("rem", 9, 20, 0),     # remainder by zero -> rs1
            encode_instruction("mulw", 10, 22, 24),  # 32-bit product, sext
            encode_instruction("sraw", 11, 24, 21),  # 32-bit shift, masked
            encode_instruction("add", 28, 28, 6),
            encode_instruction("add", 28, 28, 7),
            encode_instruction("add", 28, 28, 8),
            encode_instruction("add", 28, 28, 9),
            encode_instruction("add", 28, 28, 10),
            encode_instruction("add", 28, 28, 11),
            encode_instruction("addi", 5, 5, -1),
            encode_instruction("bne", 5, 0, -52),
            encode_instruction("ebreak"),
        ]
        regs = {5: 300, 20: 0xABCD, 21: 0x43, 22: INT64_MIN,
                23: MASK64, 24: 0x80000001}
        assert_lockstep(words, regs)

    def test_mask_elision_bounds(self):
        # Values hovering at the 2^63 / 2^64 wrap: the compiled trace elides
        # 64-bit masks only where a bound proof holds, so accumulate sums
        # that cross both boundaries every iteration.
        words = [
            encode_instruction("add", 6, 20, 21),     # wraps past 2^64
            encode_instruction("addi", 7, 6, 2047),
            encode_instruction("sub", 8, 0, 7),       # negation wrap
            encode_instruction("add", 28, 28, 8),
            encode_instruction("addi", 5, 5, -1),
            encode_instruction("bne", 5, 0, -16),
            encode_instruction("ebreak"),
        ]
        regs = {5: 300, 20: MASK64 - 3, 21: (1 << 63) + 5}
        assert_lockstep(words, regs)

    def test_memory_lanes_all_widths(self):
        # Loads/stores of every width through a loop-invariant base: the
        # base is pinned by exact-value speculation, so the compiled
        # constant-address page-view lanes (8/4/2/1 bytes, signed and
        # unsigned loads) must match the scalar memory path exactly.
        words = [
            encode_instruction("ld", 6, 21, 0),
            encode_instruction("lw", 7, 21, 8),      # sign-extends
            encode_instruction("lwu", 8, 21, 8),
            encode_instruction("lh", 9, 21, 16),
            encode_instruction("lhu", 10, 21, 16),
            encode_instruction("lb", 11, 21, 24),
            encode_instruction("lbu", 12, 21, 24),
            encode_instruction("add", 13, 6, 7),
            encode_instruction("add", 13, 13, 9),
            encode_instruction("add", 13, 13, 11),
            encode_instruction("sd", 13, 21, 32),
            encode_instruction("sw", 13, 21, 40),
            encode_instruction("sh", 13, 21, 48),
            encode_instruction("sb", 13, 21, 56),
            encode_instruction("add", 28, 28, 13),
            encode_instruction("add", 28, 28, 8),
            encode_instruction("add", 28, 28, 10),
            encode_instruction("add", 28, 28, 12),
            encode_instruction("addi", 5, 5, -1),
            encode_instruction("bne", 5, 0, -76),
            encode_instruction("ebreak"),
        ]
        regs = {5: 300, 21: DATA}
        data = {0: 0x8000_0000_0000_0001, 8: 0xFFFF_FFFF_8000_0001,
                16: 0x8001, 24: 0x81}
        assert_lockstep(words, regs, data=data)

    def test_page_crossing_base_walk(self):
        # The base register walks across several pages, so compiled loads
        # and stores through it must stay coherent with the scalar path on
        # every page.
        words = [
            encode_instruction("ld", 6, 21, 0),
            encode_instruction("add", 28, 28, 6),
            encode_instruction("sd", 28, 21, 8),
            encode_instruction("addi", 21, 21, 64),
            encode_instruction("addi", 5, 5, -1),
            encode_instruction("bne", 5, 0, -20),
            encode_instruction("ebreak"),
        ]
        # 300 iterations x 64 bytes ~ 19 KiB: crosses several 4 KiB pages.
        regs = {5: 300, 21: DATA}
        assert_lockstep(words, regs, data={0: 12345})

    def test_jalr_target_changes_between_iterations(self):
        # jalr alternates between two targets each iteration (held in x30
        # and x31 — addi immediates cannot encode absolute addresses);
        # tier-2 jalr target speculation must check the live value.
        words = [
            encode_instruction("jalr", 1, 20, 0),       # 0x00 computed jump
            encode_instruction("ebreak"),               # 0x04
            encode_instruction("addi", 28, 28, 1),      # 0x08 target A
            encode_instruction("addi", 20, 31, 0),      # 0x0c next -> B
            encode_instruction("addi", 5, 5, -1),       # 0x10
            encode_instruction("bne", 5, 0, -20),       # 0x14 -> 0x00
            encode_instruction("ebreak"),               # 0x18
            encode_instruction("addi", 28, 28, 100),    # 0x1c target B
            encode_instruction("addi", 20, 30, 0),      # 0x20 next -> A
            encode_instruction("addi", 5, 5, -1),       # 0x24
            encode_instruction("bne", 5, 0, -40),       # 0x28 -> 0x00
            encode_instruction("ebreak"),               # 0x2c
        ]
        regs = {5: 400, 20: BASE + 0x08, 30: BASE + 0x08, 31: BASE + 0x1C}
        assert_lockstep(words, regs)

    def test_counter_csr_inlined_brackets(self):
        # rdcycle-style brackets (csrrs rd, 0xC00, x0) inside a hot loop:
        # with the counter-CSR contract the tier-2 trace inlines them as
        # retire-count arithmetic; deltas must equal the tier-1 engine's.
        words = [
            encode_instruction("csrrs", 6, 0xC02, 0),   # instret, pure read
            encode_instruction("add", 8, 20, 21),
            encode_instruction("add", 8, 8, 8),
            encode_instruction("csrrs", 7, 0xC02, 0),
            encode_instruction("sub", 9, 7, 6),          # bracket delta
            encode_instruction("add", 28, 28, 9),
            encode_instruction("addi", 5, 5, -1),
            encode_instruction("bne", 5, 0, -24),
            encode_instruction("ebreak"),
        ]
        regs = {5: 300, 20: 7, 21: 9}
        results = []
        for threshold in (0, 32):
            memory = SparseMemory()
            for index, word in enumerate(words):
                memory.write(BASE + 4 * index, 4, word)
            hart = Hart(pc=BASE)
            for reg, value in regs.items():
                hart.regs[reg] = value
            executor = Executor(
                hart, memory, promote_threshold=threshold,
                counter_csrs=(0xC00, 0xC02),
            )
            executor.csr_provider = lambda addr, e=executor: e.retired
            run_to_trap(executor)
            results.append((list(hart.regs), executor.retired))
            if threshold:
                assert executor.tier2_blocks > 0
        assert results[0] == results[1]


class TestDeopt:
    #: countdown loop whose body folds x20 (never written) and loads
    #: through x21 — promotion speculates on both.
    WORDS = [
        encode_instruction("addi", 6, 20, 1),
        encode_instruction("ld", 7, 21, 0),
        encode_instruction("add", 8, 6, 7),
        encode_instruction("sd", 8, 21, 8),
        encode_instruction("addi", 5, 5, -1),
        encode_instruction("bne", 5, 0, -20),
        encode_instruction("ebreak"),
    ]

    def _promoted(self):
        executor, hart, memory = make_executor(
            self.WORDS, regs={5: 400, 20: 0x123, 21: DATA}, threshold=64
        )
        memory.write(DATA, 8, 777)
        run_to_trap(executor)
        assert executor.tier2_blocks > 0
        assert executor._t2_spec, "promotion did not speculate — vacuous"
        return executor, hart, memory

    def test_exact_value_deopt_prunes_and_stays_correct(self):
        executor, hart, memory = self._promoted()
        deopts_before = executor.tier2_deopts
        hart.pc = BASE
        hart.regs[5] = 400
        hart.regs[20] = 0x999          # violates the pinned exact value
        run_to_trap(executor)
        assert executor.tier2_deopts > deopts_before
        assert 20 in executor._t2_nospec.get(BASE, set())
        assert hart.regs[8] == 0x999 + 1 + 777
        assert memory.read(DATA + 8, 8) == 0x999 + 1 + 777

    def test_repromotion_after_pruning_converges(self):
        executor, hart, memory = self._promoted()
        # Alternate the speculated value; after pruning, re-promotion must
        # stop guarding on x20 and the deopt count must stop growing.
        for value in (0x999, 0x123, 0x999, 0x123, 0x999, 0x123):
            hart.pc = BASE
            hart.regs[5] = 400
            hart.regs[20] = value
            run_to_trap(executor)
            assert hart.regs[8] == value + 1 + 777
        settled = executor.tier2_deopts
        for value in (0x123, 0x999, 0x123):
            hart.pc = BASE
            hart.regs[5] = 400
            hart.regs[20] = value
            run_to_trap(executor)
        assert executor.tier2_deopts == settled, \
            "deopts kept firing: pruning did not converge"

    def test_hook_registration_deopts_compiled_lanes(self):
        executor, hart, memory = self._promoted()
        deopts_before = executor.tier2_deopts
        # A new MMIO hook anywhere invalidates the compile-time "no hook at
        # this address" proof; the hook-generation entry guard must fire.
        seen = []
        memory.add_read_hook(0x4000_1000, lambda size: seen.append(size) or 0)
        hart.pc = BASE
        hart.regs[5] = 400
        run_to_trap(executor)
        assert executor.tier2_deopts > deopts_before
        assert hart.regs[8] == 0x123 + 1 + 777

    def test_tier1_fallback_result_is_exact_on_guard_failure(self):
        # The deopt must happen *before* any state change: a run entered
        # with violating values retires exactly as many instructions as a
        # fresh executor would.
        executor, hart, memory = self._promoted()
        hart.pc = BASE
        hart.regs[5] = 400
        hart.regs[20] = 0x999
        base_retired = executor.retired
        run_to_trap(executor)
        warm_retired = executor.retired - base_retired

        fresh, fresh_hart, fresh_memory = make_executor(
            self.WORDS, regs={5: 400, 20: 0x999, 21: DATA}, threshold=64
        )
        fresh_memory.write(DATA, 8, 777)
        run_to_trap(fresh)
        assert warm_retired == fresh.retired
        assert list(hart.regs) == list(fresh_hart.regs)


class TestSelfModifyingCode:
    def test_store_into_promoted_block_depromotes(self):
        # Loop stores a new opcode into its own body mid-run: the compiled
        # superblock must be dropped and the new semantics take effect.
        addi_x28_1 = encode_instruction("addi", 28, 28, 1)
        addi_x28_7 = encode_instruction("addi", 28, 28, 7)
        words = [
            addi_x28_1,                                # patched mid-run
            encode_instruction("addi", 5, 5, -1),
            encode_instruction("bne", 5, 0, -8),
            encode_instruction("ebreak"),
        ]
        executor, hart, memory = make_executor(
            words, regs={5: 300, 20: addi_x28_7, 21: BASE}, threshold=64
        )
        run_to_trap(executor)
        assert executor.tier2_blocks > 0
        assert hart.regs[28] == 300
        # Second phase: a store rewrites the loop body, then reruns it.
        patch = [
            encode_instruction("sw", 20, 21, 0),       # code store
            encode_instruction("jalr", 0, 22, 0),      # jump back to loop
        ]
        for index, word in enumerate(patch):
            memory.write(BASE + 0x100 + 4 * index, 4, word)
        hart.pc = BASE + 0x100
        hart.regs[5] = 10
        hart.regs[22] = BASE
        hart.regs[28] = 0
        run_to_trap(executor)
        assert not executor._tier2, "stale compiled superblock survived SMC"
        assert hart.regs[28] == 70  # 10 iterations of the *new* body

    def test_smc_then_reheat_repromotes_new_code(self):
        words = [
            encode_instruction("addi", 28, 28, 1),
            encode_instruction("addi", 5, 5, -1),
            encode_instruction("bne", 5, 0, -8),
            encode_instruction("ebreak"),
        ]
        executor, hart, memory = make_executor(
            words, regs={5: 300}, threshold=64
        )
        run_to_trap(executor)
        assert executor.tier2_blocks > 0
        blocks_before = executor.tier2_blocks
        patch = [
            encode_instruction("sw", 20, 21, 0),
            encode_instruction("jalr", 0, 22, 0),
        ]
        for index, word in enumerate(patch):
            memory.write(BASE + 0x100 + 4 * index, 4, word)
        hart.pc = BASE + 0x100
        hart.regs[5] = 300
        hart.regs[20] = encode_instruction("addi", 28, 28, 2)
        hart.regs[21] = BASE
        hart.regs[22] = BASE
        hart.regs[28] = 0
        run_to_trap(executor)
        assert hart.regs[28] == 600
        assert executor.tier2_blocks > blocks_before, \
            "rewritten loop never re-promoted"


class TestColdPromotion:
    """A cold (never-reset) run promotes by tier-1 volume only: neither a
    slow-instruction resume point nor a tier-2 side exit earns a compile
    just by being reached again."""

    #: Inner countdown loop (hot, promoted) nested in an outer loop whose
    #: re-entry block is a tier-2 side exit reached once per outer trip but
    #: retiring only 4 instructions per arrival.
    WORDS = [
        encode_instruction("addi", 6, 0, 8),       # outer trips
        encode_instruction("addi", 5, 0, 50),      # outer: inner trips
        encode_instruction("addi", 28, 28, 1),     # inner loop head
        encode_instruction("addi", 5, 5, -1),
        encode_instruction("bne", 5, 0, -8),
        encode_instruction("addi", 6, 6, -1),
        encode_instruction("bne", 6, 0, -20),      # side exit to BASE + 4
        encode_instruction("ebreak"),
    ]

    def test_resume_points_earn_no_compile(self):
        from repro.core.solution import standard_solutions
        from repro.testgen.config import SolutionKind

        config, program = _build(SolutionKind.METHOD1, 40, 2018)
        solution = standard_solutions()[SolutionKind.METHOD1]
        simulator = SpikeSimulator(
            program.image, accelerator=solution.make_accelerator(config.fmt)
        )
        simulator.executor.promote_threshold = 10 ** 12
        result = simulator.run()
        assert result.exit_code == 0
        assert simulator.accelerator.commands_executed > 0, \
            "no RoCC resume points — test is vacuous"
        assert simulator.executor.tier2_blocks == 0

    def _run(self, rerunning):
        executor, hart, _ = make_executor(self.WORDS, threshold=64)
        executor.rerunning = rerunning
        profile = executor.enable_profiling()
        run_to_trap(executor)
        assert hart.regs[28] == 8 * 50
        return executor, profile

    def test_cold_side_exit_promotes_by_volume_only(self):
        executor, profile = self._run(rerunning=False)
        assert executor.tier2_blocks == 1 and BASE + 8 in executor._tier2
        # The exit is still counted (observability) every time it fires.
        assert profile.side_exits[(BASE + 8, BASE + 4)] == 7
        assert profile.tier1_instrs[BASE + 4] < 64
        assert BASE + 4 not in executor._tier2

    def test_rerun_side_exit_links_trace_tree(self):
        executor, profile = self._run(rerunning=True)
        assert BASE + 4 in executor._tier2
        assert profile.side_exits[(BASE + 8, BASE + 4)] == 2


class TestRunStepEquivalence:
    def test_run_matches_step_with_tier2(self):
        words = [
            encode_instruction("add", 6, 20, 21),
            encode_instruction("sll", 7, 6, 22),
            encode_instruction("sd", 7, 23, 0),
            encode_instruction("ld", 8, 23, 0),
            encode_instruction("add", 28, 28, 8),
            encode_instruction("addi", 5, 5, -1),
            encode_instruction("bne", 5, 0, -24),
            encode_instruction("ebreak"),
        ]
        regs = {5: 200, 20: 5, 21: 9, 22: 3, 23: DATA}

        run_ex, run_hart, _ = make_executor(words, regs=regs, threshold=32)
        run_to_trap(run_ex)
        assert run_ex.tier2_blocks > 0

        step_ex, step_hart, _ = make_executor(words, regs=regs, threshold=32)
        with pytest.raises(TrapError):
            while True:
                step_ex.step()
        assert list(run_hart.regs) == list(step_hart.regs)
        assert run_ex.retired == step_ex.retired


def _build(kind, num_samples, seed, vectors=None):
    from repro.testgen.config import TestProgramConfig
    from repro.testgen.generator import build_test_program

    config = TestProgramConfig(solution=kind, num_samples=num_samples, seed=seed)
    return config, build_test_program(config, vectors=vectors)


class TestBatchRunner:
    def test_batch_200_sample_bit_identity(self):
        # The acceptance case: 200 software-kernel samples through a warm
        # runner (second acquire = warm hit) must match a cold build+run
        # sample for sample, including retire counts and cycle samples.
        from repro.core.solution import standard_solutions
        from repro.testgen.config import SolutionKind
        from repro.testgen.generator import draw_vectors

        solution = standard_solutions()[SolutionKind.SOFTWARE]
        runner = BatchRunner()
        for seed in (2018, 31337):
            vectors = draw_vectors(200, seed)
            config, cold_program = _build(
                SolutionKind.SOFTWARE, 200, seed, vectors=vectors
            )
            cold_sim = SpikeSimulator(cold_program.image)
            cold = cold_sim.run()
            program, warm = runner.run_functional(solution, config, vectors)
            assert cold_program.read_results(cold) == program.read_results(warm)
            assert (cold_program.read_cycle_samples(cold)
                    == program.read_cycle_samples(warm))
            assert cold.instructions_retired == warm.instructions_retired
            assert cold.exit_code == warm.exit_code
        assert runner.hits == 1 and runner.misses == 1

    def test_warm_acquire_image_matches_fresh_build(self):
        from repro.core.solution import standard_solutions
        from repro.testgen.config import SolutionKind
        from repro.testgen.generator import draw_vectors

        solution = standard_solutions()[SolutionKind.METHOD1]
        runner = BatchRunner()
        for seed in (1, 2):
            vectors = draw_vectors(25, seed)
            config, fresh = _build(SolutionKind.METHOD1, 25, seed, vectors=vectors)
            program, _ = runner.acquire(solution, config, vectors)
            assert fresh.image.symbols == program.image.symbols
            for name, (base, data) in fresh.image.segments.items():
                warm_base, warm_data = program.image.segments[name]
                assert warm_base == base
                assert bytes(warm_data) == bytes(data), f"{name} segment differs"
            assert fresh.operand_words == program.operand_words

    def test_rebind_rejects_wrong_shape(self):
        from repro.errors import ConfigurationError
        from repro.testgen.config import SolutionKind
        from repro.testgen.generator import draw_vectors

        _, program = _build(SolutionKind.SOFTWARE, 10, 2018)
        with pytest.raises(ConfigurationError):
            program.rebind(draw_vectors(11, 2018))

    def test_scratch_span_covers_result_buffers(self):
        from repro.testgen.config import SolutionKind

        _, program = _build(SolutionKind.SOFTWARE, 10, 2018)
        start, size = program.scratch_span()
        symbols = program.image.symbols
        assert start == symbols["results"]
        assert start + size == symbols["total_cycles"] + 8
        assert symbols["cycle_samples"] in range(start, start + size)
        assert symbols["num_samples"] >= start + size

    def test_spike_reset_rerun_is_identical(self):
        from repro.testgen.config import SolutionKind

        _, program = _build(SolutionKind.SOFTWARE, 30, 2018)
        simulator = SpikeSimulator(program.image)
        first = simulator.run()
        first_words = program.read_results(first)
        first_retired = first.instructions_retired
        for _ in range(2):
            simulator.reset()
            again = simulator.run()
            assert program.read_results(again) == first_words
            assert again.instructions_retired == first_retired
            assert again.exit_code == first.exit_code

    def test_eviction_caps_live_simulators(self):
        from repro.core.solution import standard_solutions
        from repro.testgen.config import SolutionKind
        from repro.testgen.generator import draw_vectors

        solution = standard_solutions()[SolutionKind.SOFTWARE]
        runner = BatchRunner(max_entries=2)
        for samples in (3, 4, 5, 6):
            vectors = draw_vectors(samples, 2018)
            config, _ = _build(SolutionKind.SOFTWARE, samples, 2018,
                               vectors=vectors)
            runner.run_functional(solution, config, vectors)
        assert len(runner._entries) == 2
        assert runner.misses == 4

    def test_max_entries_below_one_rejected(self):
        from repro.errors import ConfigurationError

        for bad in (0, -1):
            with pytest.raises(ConfigurationError):
                BatchRunner(max_entries=bad)
        assert BatchRunner(max_entries=1).max_entries == 1

    def test_clear_resets_stats(self):
        from repro.core.solution import standard_solutions
        from repro.testgen.config import SolutionKind
        from repro.testgen.generator import draw_vectors

        solution = standard_solutions()[SolutionKind.SOFTWARE]
        runner = BatchRunner()
        vectors = draw_vectors(5, 2018)
        config, _ = _build(SolutionKind.SOFTWARE, 5, 2018, vectors=vectors)
        runner.run_functional(solution, config, vectors)
        runner.run_functional(solution, config, vectors)
        assert runner.hits == 1 and runner.misses == 1
        runner.clear()
        assert runner.hits == 0 and runner.misses == 0
        assert not runner._entries
        runner.run_functional(solution, config, vectors)
        runner.reset_stats()
        assert runner.hits == 0 and runner.misses == 0
        assert runner._entries  # reset_stats keeps the warm simulators

    def test_key_omits_vector_provenance_safely(self):
        # ``BatchRunner._key`` deliberately omits ``workload``,
        # ``operand_classes`` and ``seed``: those fields only select the
        # operand *vectors*, which every warm hit rebinds anyway.  Pin the
        # safety argument: two configs differing only in vector provenance
        # share a key, and the warm-hit image after rebinding is
        # byte-identical to a cold build over the same vectors.
        from repro.core.solution import standard_solutions
        from repro.testgen.config import SolutionKind, TestProgramConfig
        from repro.testgen.generator import build_test_program, generate_vectors

        solution = standard_solutions()[SolutionKind.SOFTWARE]
        mix_config = TestProgramConfig(
            solution=SolutionKind.SOFTWARE, num_samples=12, seed=2018
        )
        workload_config = TestProgramConfig(
            solution=SolutionKind.SOFTWARE, num_samples=12, seed=99,
            workload="telco-billing",
        )
        assert (BatchRunner._key(solution, mix_config)
                == BatchRunner._key(solution, workload_config))

        runner = BatchRunner()
        mix_vectors = generate_vectors(mix_config)
        runner.run_functional(solution, mix_config, mix_vectors)
        workload_vectors = generate_vectors(workload_config)
        program, _ = runner.run_functional(
            solution, workload_config, workload_vectors
        )
        assert runner.hits == 1 and runner.misses == 1
        cold = build_test_program(workload_config, vectors=workload_vectors)
        for name, (base, data) in cold.image.segments.items():
            warm_base, warm_data = program.image.segments[name]
            assert warm_base == base
            assert bytes(warm_data) == bytes(data), f"{name} segment differs"

        # Fields that change the generated text DO key: a different sample
        # count or solution kind must miss.
        other = TestProgramConfig(
            solution=SolutionKind.SOFTWARE, num_samples=13, seed=2018
        )
        assert (BatchRunner._key(solution, mix_config)
                != BatchRunner._key(solution, other))


class TestCampaignWarmWorkers:
    def test_workers_with_warm_runners_match_cold_serial(self):
        # The campaign engine hands every worker a per-process BatchRunner;
        # the merged report must still equal the cold serial path exactly.
        from repro.core.campaign import Axes, run_campaign
        from repro.core.evaluation import run_solution_shard
        from repro.core.results import merge_shard_reports

        cells = Axes(num_samples=12).cells()
        cold = []
        for cell in cells:
            outcome = run_solution_shard(
                cell.solution,
                cell.generate_vectors(),
                operand_classes=cell.operand_classes,
                seed=cell.seed,
                rocket_config=cell.rocket_config,
                workload=cell.workload,
                fmt=cell.fmt,
            )
            cold.append(merge_shard_reports(
                solution_name=cell.solution.name,
                solution_kind=cell.solution.kind,
                shards=[outcome.shard_report],
                repetitions=cell.repetitions,
            ))
        result = run_campaign(Axes(num_samples=12).cells(), workers=2)
        for cold_report, warm_report in zip(cold, result.reports):
            assert cold_report.per_sample_cycles == warm_report.per_sample_cycles
            assert (cold_report.instructions_retired
                    == warm_report.instructions_retired)
            assert cold_report.avg_total_cycles == warm_report.avg_total_cycles
            assert cold_report.rocc_commands == warm_report.rocc_commands

    def test_sharded_cell_reuses_runner_within_worker(self):
        # Serial in-process campaign: every shard goes through the same
        # module-level runner, so same-shape shards hit the warm cache.
        import repro.core.campaign as campaign_mod
        from repro.core.campaign import Axes, run_campaign

        campaign_mod._SHARD_RUNNER = None
        try:
            run_campaign(Axes(num_samples=8, kinds=("software",)).cells(),
                         workers=1, shards_per_cell=2)
            runner = campaign_mod._SHARD_RUNNER
            assert runner is not None
            assert runner.hits + runner.misses == 2
            assert runner.hits >= 1, "same-shape shards did not reuse the cache"
        finally:
            campaign_mod._SHARD_RUNNER = None


# --------------------------------------------------------------------------
# RoCC lockstep: the compiled tier must stay bit-identical when the
# instruction stream interleaves accelerator commands with different funct
# codes.  ``rocc`` is a tier-2 trace stopper, so every superblock ends at
# the next accelerator command and re-enters tier 1 for the command itself;
# these tests pin down that the hand-off preserves response values, the
# status carry/borrow chain and the accelerator's architectural state.

BCD_A = 0x0123456789012345
BCD_B = 0x0864197532086419


def _run_rocc_image(image, threshold):
    """Run ``image`` with a fresh accelerator; return (observable state, executor)."""
    from repro.rocc.decimal_accel import DecimalAccelerator

    accelerator = DecimalAccelerator()
    simulator = SpikeSimulator(image, accelerator=accelerator)
    simulator.executor.promote_threshold = threshold
    result = simulator.run()
    state = (
        result.read_dwords("out", 8),
        result.instructions_retired,
        accelerator.accumulator,
        accelerator.status,
        [accelerator.regfile.read(i)
         for i in range(accelerator.config.num_registers)],
    )
    return state, simulator.executor


def _assert_rocc_lockstep(image):
    """Tier-1-only vs tier-2-forced runs of a RoCC program agree exactly."""
    state1, ex1 = _run_rocc_image(image, threshold=0)
    state2, ex2 = _run_rocc_image(image, threshold=16)
    assert ex1.tier2_blocks == 0
    assert ex2.tier2_blocks > 0, "tier 2 never engaged — test is vacuous"
    assert state1 == state2
    return state1


class TestRoccLockstep:
    def _finish(self, b):
        from repro.asm.program import TOHOST_ADDRESS

        b.li("t5", TOHOST_ADDRESS)
        b.li("t6", 1)
        b.emit("sd", "t6", "t5", 0)
        b.label("spin")
        b.j("spin")
        return b.link()

    def test_interleaved_funct_codes(self):
        # One hot loop cycling through seven funct codes — value-mode
        # chunked add/sub (status-chained carry), register-file writes, a
        # register-mode wide add, the fused accumulate (DEC_FMA_ACC, which
        # no kernel emits), the shift-accumulate and status readback.
        from repro.asm.builder import AsmBuilder
        from repro.rocc.decimal_accel import (
            ACC_HI_SELECTOR,
            ACC_LO_SELECTOR,
            STATUS_SELECTOR,
        )

        b = AsmBuilder()
        b.data()
        b.label("out")
        b.dword(*([0] * 8))
        b.text()
        b.label("_start")
        b.la("a5", "out")
        b.li("s0", BCD_A)
        b.li("s1", BCD_B)
        b.li("s2", 3)  # DEC_FMA_ACC shift in digits, passed by value
        b.li("s3", 0)  # checksum over every response word
        b.li("t0", 60)
        b.label("loop")
        b.rocc("DEC_ADDC", rd="a0", rs1="s0", rs2="s1",
               xd=True, xs1=True, xs2=True)
        b.emit("add", "s3", "s3", "a0")
        b.rocc("DEC_SUBB", rd="a1", rs1="s1", rs2="s0",
               xd=True, xs1=True, xs2=True)
        b.emit("xor", "s3", "s3", "a1")
        b.rocc("WR", rd=0, rs1="s0", rs2=1, xs1=True)
        b.rocc("WR", rd=0, rs1="a0", rs2=2, xs1=True)
        b.rocc("DEC_ADD", rd=3, rs1=1, rs2=2)
        b.rocc("DEC_FMA_ACC", rd="a2", rs1=3, rs2="s2", xd=True, xs2=True)
        b.emit("add", "s3", "s3", "a2")
        b.rocc("DEC_ACCUM", rd=0, rs1=1, rs2=0)
        b.rocc("RD", rd="a3", rs2=STATUS_SELECTOR, xd=True)
        b.emit("add", "s3", "s3", "a3")
        b.emit("addi", "t0", "t0", -1)
        b.bnez("t0", "loop")
        b.emit("sd", "s3", "a5", 0)
        b.rocc("RD", rd="a0", rs2=ACC_LO_SELECTOR, xd=True)
        b.emit("sd", "a0", "a5", 8)
        b.rocc("RD", rd="a1", rs2=ACC_HI_SELECTOR, xd=True)
        b.emit("sd", "a1", "a5", 16)
        b.rocc("RD", rd="a2", rs2=STATUS_SELECTOR, xd=True)
        b.emit("sd", "a2", "a5", 24)
        b.rocc("RD", rd="a3", rs2=3, xd=True)
        b.emit("sd", "a3", "a5", 32)
        image = self._finish(b)
        _assert_rocc_lockstep(image)

    def test_chunked_carry_chain_matches_bigint(self):
        # The kernels' wadd/wsub shape: stream a 4-word BCD number through
        # DEC_ADDC word by word with the carry living in status bit 0, in a
        # hot loop so the surrounding load/store blocks compile to tier 2.
        # Besides lockstep, check the chained result against a big-integer
        # decimal model of the same words.
        from repro.asm.builder import AsmBuilder

        x_words = [0x9999999999999999, 0x0000000000000001,
                   BCD_A, 0x0000000000000042]
        y_words = [0x0000000000000001, 0x9999999999999998,
                   BCD_B, 0x0000000000000007]

        b = AsmBuilder()
        b.data()
        b.label("out")
        b.dword(*([0] * 8))
        b.label("x")
        b.dword(*x_words)
        b.label("y")
        b.dword(*y_words)
        b.text()
        b.label("_start")
        b.la("a5", "out")
        b.la("a3", "x")
        b.la("a4", "y")
        b.li("t0", 40)
        b.label("loop")
        b.rocc("CLR_ALL")  # carry chain starts clean every pass
        for w in range(4):
            b.emit("ld", "t1", "a3", 8 * w)
            b.emit("ld", "t2", "a4", 8 * w)
            b.rocc("DEC_ADDC", rd="t3", rs1="t1", rs2="t2",
                   xd=True, xs1=True, xs2=True)
            b.emit("sd", "t3", "a5", 8 * w)
        b.emit("addi", "t0", "t0", -1)
        b.bnez("t0", "loop")
        image = self._finish(b)
        state = _assert_rocc_lockstep(image)

        def to_int(words):
            return int("".join(f"{w:016x}" for w in reversed(words)))

        total = to_int(x_words) + to_int(y_words)
        expected = [int(f"{(total // 10 ** (16 * w)) % 10 ** 16:016d}", 16)
                    for w in range(4)]
        assert state[0][:4] == expected

"""Spec-level oracle for the RV64IM integer instructions, on every engine tier.

Every expected value below is computed from the RISC-V unprivileged spec in
plain Python — signed integers, explicit truncation toward zero, explicit
sign extension of 32-bit results — and never from the simulator's own
semantics table.  Each ALU, branch and load mnemonic runs on edge operands
(0, 1, -1, INT64_MIN, INT64_MAX, 0x7FFFFFFF, 0x80000000 and shift amounts
0, 31, 32, 63 and >= 64) through:

* tier 1: one :meth:`Executor.step` per case;
* tier 2: a hot loop promoted at once (operands loaded from memory, plus
  copies narrowed by ``srli`` so the bound-driven mask and signed-view
  elisions fire), and a loop over entry-pinned registers so exact-value
  folding evaluates the instruction at compile time;
* the Rocket compiled timing tier, checked against both the spec and a
  ``timing_tier=False`` run of the same image (cycles included).

The lockstep suites compare tiers with each other; once all tiers render
from one description they cannot catch a wrong entry in it.  This file can.
"""

from __future__ import annotations

import pytest

from repro.asm.builder import AsmBuilder
from repro.asm.program import TOHOST_ADDRESS
from repro.errors import TrapError
from repro.isa.encoder import encode_instruction
from repro.rocket.core import RocketEmulator
from repro.sim.executor import Executor
from repro.sim.hart import Hart
from repro.sim.memory import SparseMemory
from repro.sim.spike import SpikeSimulator

MASK64 = (1 << 64) - 1
INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1
EDGES = [0, 1, -1, INT64_MIN, INT64_MAX, 0x7FFFFFFF, 0x80000000]
#: Second operands: the edges plus shift amounts (>= 64 must be masked).
SECONDS = EDGES + [31, 32, 63, 64, 127]
IMMS = [0, 1, -1, 2047, -2048]
SHAMTS64 = [0, 1, 31, 32, 63]
SHAMTS32 = [0, 1, 31]
UIMMS = [0, 1, 0x7FFFF, 0x80000, 0xFFFFF]
#: ``srli`` amounts applied to loaded operands: 0 keeps them raw; 1 and 33
#: prove them below 2**63 and 2**31 so bounded code paths run too.
NARROW = [0, 1, 33]


# ---------------------------------------------------------- spec semantics
def _s(value, bits=64):
    """Two's-complement signed view of the low ``bits`` bits."""
    value &= (1 << bits) - 1
    return value - (1 << bits) if value >> (bits - 1) else value


def _u(value, bits=64):
    return value & ((1 << bits) - 1)


def _tdiv(a, b):
    """Integer division truncating toward zero (C / RISC-V semantics)."""
    quotient = abs(a) // abs(b)
    return -quotient if (a < 0) != (b < 0) else quotient


def _div(a, b, bits):
    a, b = _s(a, bits), _s(b, bits)
    if b == 0:
        return -1
    if a == -(1 << (bits - 1)) and b == -1:
        return a
    return _tdiv(a, b)


def _rem(a, b, bits):
    a, b = _s(a, bits), _s(b, bits)
    if b == 0:
        return a
    if a == -(1 << (bits - 1)) and b == -1:
        return 0
    return a - b * _tdiv(a, b)


def _divu(a, b, bits):
    a, b = _u(a, bits), _u(b, bits)
    return (1 << bits) - 1 if b == 0 else a // b


def _remu(a, b, bits):
    a, b = _u(a, bits), _u(b, bits)
    return a if b == 0 else a % b


#: rd = f(rs1, rs2); the result is truncated to 64 bits by the caller.
R_SPEC = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "sll": lambda a, b: a << (_u(b) & 63),
    "srl": lambda a, b: _u(a) >> (_u(b) & 63),
    "sra": lambda a, b: _s(a) >> (_u(b) & 63),
    "slt": lambda a, b: int(_s(a) < _s(b)),
    "sltu": lambda a, b: int(_u(a) < _u(b)),
    "xor": lambda a, b: a ^ b,
    "or": lambda a, b: a | b,
    "and": lambda a, b: a & b,
    "mul": lambda a, b: a * b,
    "mulh": lambda a, b: (_s(a) * _s(b)) >> 64,
    "mulhsu": lambda a, b: (_s(a) * _u(b)) >> 64,
    "mulhu": lambda a, b: (_u(a) * _u(b)) >> 64,
    "div": lambda a, b: _div(a, b, 64),
    "divu": lambda a, b: _divu(a, b, 64),
    "rem": lambda a, b: _rem(a, b, 64),
    "remu": lambda a, b: _remu(a, b, 64),
    "addw": lambda a, b: _s(a + b, 32),
    "subw": lambda a, b: _s(a - b, 32),
    "sllw": lambda a, b: _s(a << (_u(b) & 31), 32),
    "srlw": lambda a, b: _s(_u(a, 32) >> (_u(b) & 31), 32),
    "sraw": lambda a, b: _s(a, 32) >> (_u(b) & 31),
    "mulw": lambda a, b: _s(a * b, 32),
    "divw": lambda a, b: _s(_div(a, b, 32), 32),
    "divuw": lambda a, b: _s(_divu(a, b, 32), 32),
    "remw": lambda a, b: _s(_rem(a, b, 32), 32),
    "remuw": lambda a, b: _s(_remu(a, b, 32), 32),
}

#: rd = f(rs1, sign-extended immediate) and the immediates to try.
I_SPEC = {
    "addi": (lambda a, i: a + i, IMMS),
    "slti": (lambda a, i: int(_s(a) < i), IMMS),
    "sltiu": (lambda a, i: int(_u(a) < _u(i)), IMMS),
    "xori": (lambda a, i: a ^ i, IMMS),
    "ori": (lambda a, i: a | i, IMMS),
    "andi": (lambda a, i: a & i, IMMS),
    "addiw": (lambda a, i: _s(a + i, 32), IMMS),
    "slli": (lambda a, i: a << i, SHAMTS64),
    "srli": (lambda a, i: _u(a) >> i, SHAMTS64),
    "srai": (lambda a, i: _s(a) >> i, SHAMTS64),
    "slliw": (lambda a, i: _s(a << i, 32), SHAMTS32),
    "srliw": (lambda a, i: _s(_u(a, 32) >> i, 32), SHAMTS32),
    "sraiw": (lambda a, i: _s(a, 32) >> i, SHAMTS32),
}

#: rd = f(pc, 20-bit immediate).
U_SPEC = {
    "lui": lambda pc, imm20: _s(imm20 << 12, 32),
    "auipc": lambda pc, imm20: pc + _s(imm20 << 12, 32),
}

B_SPEC = {
    "beq": lambda a, b: _u(a) == _u(b),
    "bne": lambda a, b: _u(a) != _u(b),
    "blt": lambda a, b: _s(a) < _s(b),
    "bge": lambda a, b: _s(a) >= _s(b),
    "bltu": lambda a, b: _u(a) < _u(b),
    "bgeu": lambda a, b: _u(a) >= _u(b),
}

#: Load width in bytes and whether the value is sign-extended.
L_SPEC = {
    "lb": (1, True), "lh": (2, True), "lw": (4, True), "ld": (8, True),
    "lbu": (1, False), "lhu": (2, False), "lwu": (4, False),
}
#: Load source bytes: every width sees both sign-bit polarities.
LOAD_DATA = [0x8000000000000000, 0x7FFFFFFFFFFFFFFF,
             0x00000000FFFF807F, 0xFFFFFFFF7FFF0080]

ALU = list(R_SPEC) + list(I_SPEC) + list(U_SPEC)


def _load_spec(mnemonic, offset):
    size, signed = L_SPEC[mnemonic]
    blob = b"".join(word.to_bytes(8, "little") for word in LOAD_DATA)
    value = int.from_bytes(blob[offset:offset + size], "little")
    return _s(value, 8 * size) if signed else value


def _load_offsets(mnemonic):
    size = L_SPEC[mnemonic][0]
    return range(0, 8 * len(LOAD_DATA), size)


def test_oracle_covers_every_instruction_class():
    # 43 ALU mnemonics (RV64I + M + word ops + lui/auipc), 6 branches, 7 loads.
    assert len(ALU) == 43
    assert len(B_SPEC) == 6
    assert len(L_SPEC) == 7


# ------------------------------------------------------------------ cases
def _cases(mnemonic):
    """``((rs1 value, rs2 value or immediate), expected rd)`` per case."""
    if mnemonic in R_SPEC:
        spec = R_SPEC[mnemonic]
        return [((a, b), _u(spec(a, b))) for a in EDGES for b in SECONDS]
    spec, imms = I_SPEC[mnemonic]
    return [((a, i), _u(spec(a, i))) for a in EDGES for i in imms]


# ----------------------------------------------------------------- tier 1
BASE = 0x1000
DATA = 0x8000


def _executor(words, threshold=0):
    memory = SparseMemory()
    for index, word in enumerate(words):
        memory.write(BASE + 4 * index, 4, word)
    hart = Hart(pc=BASE)
    return Executor(hart, memory, promote_threshold=threshold), hart, memory


@pytest.mark.parametrize("mnemonic", ALU + list(B_SPEC) + list(L_SPEC))
def test_tier1_step(mnemonic):
    if mnemonic in U_SPEC:
        words = [encode_instruction(mnemonic, 7, imm) for imm in UIMMS]
        executor, hart, _ = _executor(words)
        for index, imm in enumerate(UIMMS):
            pc = BASE + 4 * index
            hart.pc = pc
            executor.step()
            assert hart.regs[7] == _u(U_SPEC[mnemonic](pc, imm)), imm
        return
    if mnemonic in L_SPEC:
        offsets = list(_load_offsets(mnemonic))
        words = [encode_instruction(mnemonic, 7, 5, off) for off in offsets]
        executor, hart, memory = _executor(words)
        for index, word in enumerate(LOAD_DATA):
            memory.write(DATA + 8 * index, 8, word)
        hart.regs[5] = DATA
        for index, offset in enumerate(offsets):
            hart.pc = BASE + 4 * index
            executor.step()
            assert hart.regs[7] == _u(_load_spec(mnemonic, offset)), offset
        return
    if mnemonic in B_SPEC:
        executor, hart, _ = _executor([encode_instruction(mnemonic, 5, 6, 64)])
        for a in EDGES:
            for b in EDGES:
                hart.regs[5], hart.regs[6] = _u(a), _u(b)
                hart.pc = BASE
                info = executor.step()
                taken = B_SPEC[mnemonic](a, b)
                assert info.branch_taken == taken, (a, b)
                assert hart.pc == (BASE + 64 if taken else BASE + 4), (a, b)
        return
    if mnemonic in R_SPEC:
        executor, hart, _ = _executor([encode_instruction(mnemonic, 7, 5, 6)])
        for (a, b), expected in _cases(mnemonic):
            hart.regs[5], hart.regs[6] = _u(a), _u(b)
            hart.pc = BASE
            executor.step()
            assert hart.regs[7] == expected, (a, b)
        return
    imms = I_SPEC[mnemonic][1]
    words = [encode_instruction(mnemonic, 7, 5, imm) for imm in imms]
    executor, hart, _ = _executor(words)
    for (a, imm), expected in _cases(mnemonic):
        hart.regs[5] = _u(a)
        hart.pc = BASE + 4 * imms.index(imm)
        executor.step()
        assert hart.regs[7] == expected, (a, imm)


# ------------------------------------------------- tier 2: pinned registers
def _pinned_run(op_words, regs, out_reg):
    """Loop ``op_words`` three times with ``regs`` pinned at entry; tier 2
    promotes the head after the first iteration and folds the pinned
    operands.  Returns the last value stored from ``out_reg``."""
    loop = op_words + [
        encode_instruction("sd", out_reg, 9, 0),
        encode_instruction("addi", 8, 8, -1),
    ]
    words = loop + [
        encode_instruction("bne", 8, 0, -4 * len(loop)),
        encode_instruction("ebreak"),
    ]
    executor, hart, memory = _executor(words, threshold=1)
    for reg, value in regs.items():
        hart.regs[reg] = _u(value)
    hart.regs[8] = 3
    hart.regs[9] = DATA
    with pytest.raises(TrapError):
        executor.run(10_000)
    assert executor.tier2_blocks > 0, "tier 2 never engaged — test is vacuous"
    return memory.read(DATA, 8)


@pytest.mark.parametrize("mnemonic", ALU + list(B_SPEC))
def test_tier2_pinned_operands(mnemonic):
    if mnemonic in U_SPEC:
        for imm in UIMMS:
            got = _pinned_run([encode_instruction(mnemonic, 7, imm)], {}, 7)
            assert got == _u(U_SPEC[mnemonic](BASE, imm)), imm
        return
    if mnemonic in B_SPEC:
        for a in EDGES:
            for b in EDGES:
                words = [
                    encode_instruction("addi", 7, 0, 1),
                    encode_instruction(mnemonic, 5, 6, 8),
                    encode_instruction("addi", 7, 0, 0),
                ]
                got = _pinned_run(words, {5: a, 6: b}, 7)
                assert got == int(B_SPEC[mnemonic](a, b)), (a, b)
        return
    for (a, b), expected in _cases(mnemonic):
        if mnemonic in R_SPEC:
            word = encode_instruction(mnemonic, 7, 5, 6)
            regs = {5: a, 6: b}
        else:
            word = encode_instruction(mnemonic, 7, 5, b)
            regs = {5: a}
        assert _pinned_run([word], regs, 7) == expected, (a, b)


# ------------------------------------ tier 2 and timing spans: hot loops
def _exit(builder):
    builder.li("t5", TOHOST_ADDRESS)
    builder.li("t6", 1)
    builder.emit("sd", "t6", "t5", 0)
    builder.label("spin")
    builder.j("spin")


def _loop_program(mnemonic):
    """A two-pass hot loop over every case; returns ``(image, expected)``.

    Each iteration loads one case's operands, then runs the instruction on
    them and on ``srli``-narrowed copies (see :data:`NARROW`), storing every
    result; ``expected`` lists the stored words in order.
    """
    b = AsmBuilder()
    b.data()
    b.label("cases")
    expected = []
    if mnemonic in L_SPEC:
        b.dword(*LOAD_DATA)
        b.label("zero")
        b.dword(0)
        offsets = list(_load_offsets(mnemonic))
        passes = 40
        for _ in range(passes):
            for offset in offsets:
                value = _u(_load_spec(mnemonic, offset))
                expected += [value, value]
    elif mnemonic in U_SPEC:
        passes = 40
    else:
        pairs = (
            [(a, b_) for a in EDGES for b_ in EDGES] if mnemonic in B_SPEC
            else [ops for ops, _ in _cases(mnemonic)]
        )
        if mnemonic in I_SPEC:
            pairs = sorted({(a, 0) for a, _ in pairs})
        # Enough passes that the timing tier's 16-arrival promotion leaves
        # at least one full pass over the cases to the compiled span.
        reps = max(2, -(-40 // len(pairs)))
        for _ in range(reps):
            for a, b_ in pairs:
                b.dword(_u(a), _u(b_))
        passes = reps * len(pairs)
    b.label("out")
    b.space(8 * 4096)
    b.text()
    b.label("_start")
    b.la("s0", "cases")
    b.la("s2", "out")
    b.li("s1", passes)
    b.label("loop")
    slot = 0
    if mnemonic in L_SPEC:
        # Constant base (folded address lane) and a loaded-zero offset
        # (dynamic lane) for every aligned offset.
        b.emit("ld", "s4", "s0", 8 * len(LOAD_DATA))
        b.emit("add", "s5", "s0", "s4")
        for offset in offsets:
            for base in ("s0", "s5"):
                b.emit(mnemonic, "a2", base, offset)
                b.emit("sd", "a2", "s2", 8 * slot)
                slot += 1
    elif mnemonic in U_SPEC:
        for index, imm in enumerate(UIMMS):
            b.label(f"u{index}")
            b.emit(mnemonic, "a2", imm)
            b.emit("sd", "a2", "s2", 8 * slot)
            slot += 1
    else:
        b.emit("ld", "a0", "s0", 0)
        b.emit("ld", "a1", "s0", 8)
        for shift in NARROW:
            b.emit("srli", "a3", "a0", shift)
            b.emit("srli", "a4", "a1", shift)
            if mnemonic in B_SPEC:
                b.li("a2", 1)
                b.branch(mnemonic, "a3", "a4", f"skip{shift}")
                b.li("a2", 0)
                b.label(f"skip{shift}")
                b.emit("sd", "a2", "s2", 8 * slot)
                slot += 1
            elif mnemonic in R_SPEC:
                b.emit(mnemonic, "a2", "a3", "a4")
                b.emit("sd", "a2", "s2", 8 * slot)
                slot += 1
            else:
                for imm in I_SPEC[mnemonic][1]:
                    b.emit(mnemonic, "a2", "a3", imm)
                    b.emit("sd", "a2", "s2", 8 * slot)
                    slot += 1
        b.emit("addi", "s0", "s0", 16)
    b.emit("addi", "s2", "s2", 8 * slot)
    b.emit("addi", "s1", "s1", -1)
    b.bnez("s1", "loop")
    _exit(b)
    image = b.link()
    if mnemonic in U_SPEC:
        for _ in range(passes):
            for index, imm in enumerate(UIMMS):
                pc = image.symbol(f"u{index}")
                expected.append(_u(U_SPEC[mnemonic](pc, imm)))
    elif mnemonic not in L_SPEC:
        for _ in range(reps):
            for a, b_ in pairs:
                for shift in NARROW:
                    x, y = _u(a) >> shift, _u(b_) >> shift
                    if mnemonic in B_SPEC:
                        expected.append(int(B_SPEC[mnemonic](x, y)))
                    elif mnemonic in R_SPEC:
                        expected.append(_u(R_SPEC[mnemonic](x, y)))
                    else:
                        spec, imms = I_SPEC[mnemonic]
                        expected += [_u(spec(x, imm)) for imm in imms]
    assert slot * passes == len(expected)
    return image, expected


def _stored(result_memory, image, count):
    base = image.symbol("out")
    return [result_memory.read(base + 8 * i, 8) for i in range(count)]


@pytest.mark.parametrize("mnemonic", ALU + list(B_SPEC) + list(L_SPEC))
def test_tier2_hot_loop(mnemonic):
    image, expected = _loop_program(mnemonic)
    simulator = SpikeSimulator(image)
    simulator.executor.promote_threshold = 1
    profile = simulator.executor.enable_profiling()
    result = simulator.run()
    assert _stored(simulator.memory, image, len(expected)) == expected
    # Everything after the first iteration runs compiled (the exiting
    # call ends in the HTIF stop, so count what tier 1 ran instead).
    assert simulator.executor.tier2_blocks > 0
    assert profile.tier1_instructions < result.instructions_retired // 4


@pytest.mark.parametrize("mnemonic", ALU + list(B_SPEC) + list(L_SPEC))
def test_timing_span_matches_spec_and_interpreter(mnemonic):
    image, expected = _loop_program(mnemonic)
    fast = RocketEmulator(image)
    fast.run()
    slow = RocketEmulator(image, timing_tier=False)
    slow.run()
    assert _stored(fast.memory, image, len(expected)) == expected
    assert _stored(slow.memory, image, len(expected)) == expected
    assert fast.hart.regs == slow.hart.regs
    assert fast.cycle == slow.cycle
    assert fast.instructions_retired == slow.instructions_retired
    assert fast.timing_spans > 0
    assert fast.timing_compiled_instructions > fast.instructions_retired // 3

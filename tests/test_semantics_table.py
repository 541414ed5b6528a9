"""The RV64IM semantics table (``repro.isa.semantics``) and what it drives.

* Coverage: every mnemonic the decoder knows is either a table entry or in
  the one explicit set of instructions the engines write by hand.
* Extension: a toy instruction added as a single :data:`ALU` entry runs on
  tier 1, tier 2 and the Rocket timing spans with no other engine edit.
"""

from __future__ import annotations

import pytest

from repro.asm.builder import AsmBuilder
from repro.errors import TrapError
from repro.isa.encoder import encode_instruction
from repro.isa.instructions import CSR_OPS, Decoded, all_mnemonics
from repro.isa.semantics import ALU, BRANCHES, LOADS, STORE_SIZES, Alu
from repro.rocket.core import RocketEmulator
from repro.sim.spike import SpikeSimulator
from tests.test_rv64im_semantics import BASE, DATA, EDGES, _executor, _exit, _u

#: Instructions every engine implements by hand: control transfer with a
#: link register, CSR and system instructions, fences and RoCC commands.
HAND_WRITTEN = (
    {"jal", "jalr", "ecall", "ebreak", "fence", "fence.i", "rocc"} | set(CSR_OPS)
)

TABLES = {"ALU": ALU, "BRANCHES": BRANCHES, "LOADS": LOADS,
          "STORE_SIZES": STORE_SIZES}


def test_every_decoded_mnemonic_is_tabled_or_hand_written():
    decoded = set(all_mnemonics()) | {"rocc"}
    tabled = set().union(*TABLES.values())
    assert decoded - tabled - HAND_WRITTEN == set()
    assert tabled & HAND_WRITTEN == set()
    # Every table entry is an instruction the decoder can produce.
    assert tabled - decoded == set()
    # The tables partition the tabled mnemonics.
    assert sum(len(table) for table in TABLES.values()) == len(tabled)
    assert len(ALU) == 43 and len(BRANCHES) == 6 and len(LOADS) == 7


def test_constant_templates_read_no_register():
    # lui and auipc are the only entries every tier folds at compile time.
    assert sorted(m for m, entry in ALU.items() if not entry.reads) == [
        "auipc", "lui",
    ]


# ------------------------------------------------------------- toy mnemonic
#: ``andn`` (Zbb): rd = rs1 & ~rs2 — not an RV64IM instruction, so nothing
#: in the engines knows it.  The word in memory is an ``and``; the test
#: plants the decoded ``andn`` in the executor's decode table, standing in
#: for the encoding-table edit a real instruction would also need.
TOY = Alu("{A} & ({B} ^ {M})")


def _spec(a, b):
    return _u(a) & ~_u(b) & ((1 << 64) - 1)


def _plant(executor, pc, rd, rs1, rs2):
    word = encode_instruction("and", rd, rs1, rs2)
    executor._decoded_at[pc] = Decoded(word, "andn", "R", rd, rs1, rs2)


@pytest.fixture
def toy(monkeypatch):
    monkeypatch.setitem(ALU, "andn", TOY)  # the only edit an instruction needs


def test_toy_mnemonic_tier1(toy):
    executor, hart, _ = _executor([encode_instruction("and", 7, 5, 6)])
    _plant(executor, BASE, 7, 5, 6)
    for a in EDGES:
        for b in EDGES:
            hart.regs[5], hart.regs[6] = _u(a), _u(b)
            hart.pc = BASE
            executor.step()
            assert hart.regs[7] == _spec(a, b)


def test_toy_mnemonic_tier2_pinned_and_loaded(toy):
    # Operands x5/x6 pinned at entry (folded), plus x10/x11 loaded from
    # memory each iteration (dynamic): both results stored every time.
    words = [
        encode_instruction("ld", 10, 9, 16),
        encode_instruction("ld", 11, 9, 24),
        encode_instruction("and", 7, 5, 6),
        encode_instruction("and", 12, 10, 11),
        encode_instruction("sd", 7, 9, 0),
        encode_instruction("sd", 12, 9, 8),
        encode_instruction("addi", 8, 8, -1),
        encode_instruction("bne", 8, 0, -28),
        encode_instruction("ebreak"),
    ]
    for a in EDGES:
        for b in EDGES:
            executor, hart, memory = _executor(words, threshold=1)
            _plant(executor, BASE + 8, 7, 5, 6)
            _plant(executor, BASE + 12, 12, 10, 11)
            hart.regs[5], hart.regs[6] = _u(a), _u(b)
            hart.regs[8], hart.regs[9] = 3, DATA
            memory.write(DATA + 16, 8, _u(b))
            memory.write(DATA + 24, 8, _u(a))
            with pytest.raises(TrapError):
                executor.run(10_000)
            assert executor.tier2_blocks > 0
            assert memory.read(DATA, 8) == _spec(a, b)
            assert memory.read(DATA + 8, 8) == _spec(b, a)


def test_toy_mnemonic_timing_span(toy):
    b = AsmBuilder()
    b.data()
    b.label("cases")
    pairs = [(x, y) for x in EDGES for y in EDGES]
    for x, y in pairs:
        b.dword(_u(x), _u(y))
    b.label("out")
    b.space(8 * len(pairs))
    b.text()
    b.label("_start")
    b.la("s0", "cases")
    b.la("s2", "out")
    b.li("s1", len(pairs))
    b.label("loop")
    b.emit("ld", "a0", "s0", 0)
    b.emit("ld", "a1", "s0", 8)
    b.label("toy")
    b.emit("and", "a2", "a0", "a1")
    b.emit("sd", "a2", "s2", 0)
    b.emit("addi", "s0", "s0", 16)
    b.emit("addi", "s2", "s2", 8)
    b.emit("addi", "s1", "s1", -1)
    b.bnez("s1", "loop")
    _exit(b)
    image = b.link()
    expected = [_spec(x, y) for x, y in pairs]
    runs = []
    for front in (RocketEmulator(image),
                  RocketEmulator(image, timing_tier=False),
                  SpikeSimulator(image)):
        _plant(front.executor, image.symbol("toy"), 12, 10, 11)
        front.run()
        out = image.symbol("out")
        assert [front.memory.read(out + 8 * i, 8)
                for i in range(len(pairs))] == expected
        runs.append(front)
    fast, slow, _ = runs
    assert fast.timing_spans > 0
    assert fast.cycle == slow.cycle

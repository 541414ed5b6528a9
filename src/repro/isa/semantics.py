"""The RV64IM integer semantics, written once for every engine tier.

Each ALU mnemonic maps to a Python expression *template* — ``str.format``
placeholders over its operands — plus its timing class.  Loads get a
width/sign-extension table and branches a condition table.  Three renderers
turn the same entries into code:

* tier 1 (:mod:`repro.sim.executor`) execs one closure factory per entry;
* tier 2 (the executor's superblock compiler) substitutes register locals,
  folds exact values by evaluating the entry, and drops wraps that value
  bounds prove idle;
* the Rocket timing spans (:mod:`repro.rocket.timing`) substitute
  ``R[...]`` register-file subscripts.

Template placeholders:

``{A}`` / ``{B}``
    ``rs1`` / ``rs2`` as unsigned 64-bit register values.
``{SA}`` / ``{SB}``
    the same registers viewed as signed (two's-complement) integers; a
    renderer may substitute the plain value when it proves the register is
    below ``2**63``.
``{imm}`` / ``{uimm}``
    the sign-extended immediate, and the same masked to 64 bits.
``{M}``
    the 64-bit mask.
``{pc}``
    the instruction's address (``auipc``).

A template that reads no register is a constant: every tier evaluates it
once at compile time.  ``d64``/``r64``/``d32``/``r32`` are the divide and
remainder helpers below; each renderer binds them under those names.

Adding an instruction is one :data:`ALU` (or :data:`LOADS`/:data:`BRANCHES`)
entry plus its encoding in :mod:`repro.isa.instructions`.
"""

from __future__ import annotations

from functools import lru_cache
from string import Formatter

MASK64 = 0xFFFFFFFFFFFFFFFF
SIGN64 = 1 << 63
_INT64_MIN = -(1 << 63)
_INT32_MIN = -(1 << 31)

#: Static timing classes, assigned to ``ExecInfo.timing_class`` at compile
#: time so the cycle-accurate models never need to classify mnemonics per step.
TC_OTHER = 0
TC_MEM = 1
TC_MUL = 2
TC_DIV = 3
TC_ROCC = 4
TC_JUMP = 5
TC_BRANCH = 6


# ------------------------------------------------------------------ helpers
def _signed32(value: int) -> int:
    value &= 0xFFFFFFFF
    return (value ^ 0x80000000) - 0x80000000


def div64(a: int, b: int) -> int:
    """RV64 ``div``: C-style truncation, -1 on /0, INT_MIN on overflow."""
    sa = (a ^ SIGN64) - SIGN64
    sb = (b ^ SIGN64) - SIGN64
    if sb == 0:
        return MASK64
    if sa == _INT64_MIN and sb == -1:
        return a
    quotient = abs(sa) // abs(sb)
    if (sa < 0) != (sb < 0):
        quotient = -quotient
    return quotient & MASK64


def rem64(a: int, b: int) -> int:
    sa = (a ^ SIGN64) - SIGN64
    sb = (b ^ SIGN64) - SIGN64
    if sb == 0:
        return sa & MASK64
    if sa == _INT64_MIN and sb == -1:
        return 0
    quotient = abs(sa) // abs(sb)
    if (sa < 0) != (sb < 0):
        quotient = -quotient
    return (sa - sb * quotient) & MASK64


def div32(a: int, b: int) -> int:
    sa = _signed32(a)
    sb = _signed32(b)
    if sb == 0:
        return MASK64
    if sa == _INT32_MIN and sb == -1:
        return _INT32_MIN & MASK64
    quotient = abs(sa) // abs(sb)
    if (sa < 0) != (sb < 0):
        quotient = -quotient
    return _signed32(quotient) & MASK64


def rem32(a: int, b: int) -> int:
    sa = _signed32(a)
    sb = _signed32(b)
    if sb == 0:
        return _signed32(sa) & MASK64
    if sa == _INT32_MIN and sb == -1:
        return 0
    quotient = abs(sa) // abs(sb)
    if (sa < 0) != (sb < 0):
        quotient = -quotient
    return _signed32(sa - sb * quotient) & MASK64


#: Names every renderer binds for the helpers templates call.
HELPERS = {"d64": div64, "r64": rem64, "d32": div32, "r32": rem32}

#: Placeholder values that render a template as a Python function of plain
#: integers ``A``, ``B``, ``imm`` and ``pc``.
_VALUE_FIELDS = {
    "A": "A", "B": "B",
    "SA": "((A ^ 0x8000000000000000) - 0x8000000000000000)",
    "SB": "((B ^ 0x8000000000000000) - 0x8000000000000000)",
    "imm": "imm", "uimm": "(imm & 0xFFFFFFFFFFFFFFFF)",
    "M": "0xFFFFFFFFFFFFFFFF", "pc": "pc",
}


@lru_cache(maxsize=None)
def fields(template: str) -> tuple:
    """The placeholder names ``template`` uses, in order of appearance."""
    names = []
    for _, name, _, _ in Formatter().parse(template):
        if name is not None and name not in names:
            names.append(name)
    return tuple(names)


@lru_cache(maxsize=None)
def _function(template: str):
    """Compile ``template`` into ``f(A, B, imm, pc) -> int`` (on first use,
    so importing the table compiles nothing)."""
    source = "lambda A, B, imm, pc: " + template.format(**_VALUE_FIELDS)
    return eval(source, dict(HELPERS))  # noqa: S307 - module-owned templates


def _w32(inner: str) -> str:
    """Template text sign-extending the low 32 bits of ``inner`` to 64."""
    return f"(((({inner}) & 0xFFFFFFFF) ^ 0x80000000) - 0x80000000) & {{M}}"


# --------------------------------------------------------------------- ALU
#: ``Alu.fold`` values: when tier 2 may fold the instruction to a constant.
KREG = "kreg"    # operands statically known, pinning entry values if needed
CONST = "const"  # operands already known; never pins an entry value


class Alu:
    """One register-writing instruction: ``rd = template(operands)``.

    ``inner``/``limit`` describe an outer wrap (the 64-bit mask, or the
    32-bit sign extension of word ops) around ``inner``: tier 2 emits just
    ``inner`` when value bounds prove it lies in ``[0, limit]``.

    ``ub`` holds upper-bound rules for tier 2's range analysis: functions
    whose parameter names (``A``, ``B``, ``imm``) say what they consume —
    the operands' proven bounds and the immediate.  Each returns a bound on
    the unwrapped value, or ``None`` when it proves nothing; with several
    rules the smallest bound wins.  A rule that reads ``A`` or ``B`` must
    be non-decreasing in it, so that ``inner`` at zero operands is the
    value's least possible value.

    ``imm0_copy`` marks immediate forms that copy ``rs1`` when ``imm`` is 0
    (once the wrap is proven idle).
    """

    __slots__ = (
        "expr", "timing_class", "fold", "ub", "imm0_copy", "inner", "limit",
        "reads",
    )

    def __init__(self, expr, timing_class=TC_OTHER, fold=None, ub=(),
                 imm0_copy=False, inner=None, limit=None):
        self.expr = expr
        self.timing_class = timing_class
        self.fold = fold
        self.ub = tuple(
            (rule, rule.__code__.co_varnames[:rule.__code__.co_argcount])
            for rule in (ub if isinstance(ub, tuple) else (ub,))
        )
        self.imm0_copy = imm0_copy
        self.inner = inner
        self.limit = limit
        #: Which of ``rs1``/``rs2`` the template reads (empty: a constant).
        self.reads = tuple(
            reg for reg, names in (("rs1", ("A", "SA")), ("rs2", ("B", "SB")))
            if any(name in fields(expr) for name in names)
        )

    def value(self, a: int, b: int, imm: int, pc: int) -> int:
        """The result for operand values ``a``/``b`` (rs1/rs2)."""
        return _function(self.expr)(a, b, imm, pc)

    def inner_value(self, a: int, b: int, imm: int, pc: int) -> int:
        """``inner`` (the value under the wrap) for the same operands."""
        return _function(self.inner)(a, b, imm, pc)


def _masked(inner, *args, **kwargs):
    return Alu(f"({inner}) & {{M}}", *args, inner=inner, limit=MASK64, **kwargs)


def _word(inner, *args, **kwargs):
    return Alu(_w32(inner), *args, inner=inner, limit=0x7FFFFFFF, **kwargs)


def _bits_or(x, y):
    """Bound of ``x | y`` and ``x ^ y``: no bit above either's top bit."""
    return (1 << max(x.bit_length(), y.bit_length())) - 1


_S32A = "((({A} & 0xFFFFFFFF) ^ 0x80000000) - 0x80000000)"

ALU = {
    # --- RV64I register-register / register-immediate
    "add": _masked("{A} + {B}", fold=KREG, ub=lambda A, B: A + B),
    "addi": _masked("{A} + {imm}", fold=KREG, ub=lambda A, imm: A + imm,
                    imm0_copy=True),
    "sub": _masked("{A} - {B}", fold=KREG),
    "and": Alu("{A} & {B}", fold=KREG, ub=(lambda A: A, lambda B: B)),
    "andi": Alu("{A} & {uimm}", ub=lambda imm: imm & MASK64),
    "or": Alu("{A} | {B}", fold=KREG, ub=lambda A, B: _bits_or(A, B)),
    "ori": Alu("{A} | {uimm}", imm0_copy=True,
               ub=lambda A, imm: _bits_or(A, imm) if imm > 0 else None),
    "xor": Alu("{A} ^ {B}", fold=KREG, ub=lambda A, B: _bits_or(A, B)),
    "xori": Alu("{A} ^ {uimm}", imm0_copy=True,
                ub=lambda A, imm: _bits_or(A, imm) if imm > 0 else None),
    "sll": _masked("{A} << ({B} & 0x3F)"),
    "slli": _masked("{A} << {imm}", fold=KREG, ub=lambda A, imm: A << imm,
                    imm0_copy=True),
    "srl": Alu("{A} >> ({B} & 0x3F)", ub=lambda A: A),
    "srli": Alu("{A} >> {imm}", imm0_copy=True,
                ub=lambda imm: MASK64 >> imm),
    "sra": _masked("{SA} >> ({B} & 0x3F)", ub=lambda A: A),
    "srai": _masked("{SA} >> {imm}", ub=lambda A, imm: A >> imm),
    "slt": Alu("1 if {SA} < {SB} else 0", ub=lambda: 1),
    "slti": Alu("1 if {SA} < {imm} else 0", ub=lambda: 1),
    "sltu": Alu("1 if {A} < {B} else 0", ub=lambda: 1),
    "sltiu": Alu("1 if {A} < {uimm} else 0", ub=lambda: 1),
    "lui": Alu("{uimm}"),
    "auipc": Alu("({pc} + {imm}) & {M}"),
    # --- RV64 word ops
    "addw": _word("{A} + {B}"),
    "addiw": _word("{A} + {imm}", fold=CONST, ub=lambda A, imm: A + imm,
                   imm0_copy=True),
    "subw": _word("{A} - {B}"),
    "sllw": _word("{A} << ({B} & 0x1F)"),
    "slliw": _word("{A} << {imm}"),
    "srlw": _word("({A} & 0xFFFFFFFF) >> ({B} & 0x1F)"),
    "srliw": _word("({A} & 0xFFFFFFFF) >> {imm}"),
    "sraw": _masked(_S32A + " >> ({B} & 0x1F)"),
    "sraiw": _masked(_S32A + " >> {imm}"),
    # --- M extension
    "mul": _masked("{A} * {B}", TC_MUL, fold=KREG, ub=lambda A, B: A * B),
    "mulh": _masked("({SA} * {SB}) >> 64", TC_MUL),
    "mulhu": Alu("({A} * {B}) >> 64", TC_MUL),
    "mulhsu": _masked("({SA} * {B}) >> 64", TC_MUL),
    "mulw": _word("{A} * {B}", TC_MUL),
    "div": Alu("d64({A}, {B})", TC_DIV),
    "divu": Alu("{M} if {B} == 0 else {A} // {B}", TC_DIV),
    "rem": Alu("r64({A}, {B})", TC_DIV),
    "remu": Alu("{A} if {B} == 0 else {A} % {B}", TC_DIV, ub=lambda A: A),
    "divw": Alu("d32({A}, {B})", TC_DIV),
    "divuw": Alu(
        "{M} if ({B} & 0xFFFFFFFF) == 0 else "
        + _w32("({A} & 0xFFFFFFFF) // ({B} & 0xFFFFFFFF)"),
        TC_DIV,
    ),
    "remw": Alu("r32({A}, {B})", TC_DIV),
    "remuw": Alu(
        _w32("{A} & 0xFFFFFFFF") + " if ({B} & 0xFFFFFFFF) == 0 else "
        + _w32("({A} & 0xFFFFFFFF) % ({B} & 0xFFFFFFFF)"),
        TC_DIV,
    ),
}


# -------------------------------------------------------- loads / branches
#: Load width in bytes and the sign bit to extend from (0: zero-extend, or
#: already 64 bits wide).
LOADS = {
    "ld": (8, 0),
    "lw": (4, 0x80000000), "lh": (2, 0x8000), "lb": (1, 0x80),
    "lwu": (4, 0), "lhu": (2, 0), "lbu": (1, 0),
}

STORE_SIZES = {"sd": 8, "sw": 4, "sh": 2, "sb": 1}


class Branch:
    """A conditional branch: taken when ``cond`` (a template) holds."""

    __slots__ = ("cond",)

    def __init__(self, cond):
        self.cond = cond

    def taken(self, a: int, b: int) -> bool:
        return _function(self.cond)(a, b, 0, 0)


BRANCHES = {
    "beq": Branch("{A} == {B}"),
    "bne": Branch("{A} != {B}"),
    "blt": Branch("{SA} < {SB}"),
    "bge": Branch("{SA} >= {SB}"),
    "bltu": Branch("{A} < {B}"),
    "bgeu": Branch("{A} >= {B}"),
}


def render(template: str, values) -> str:
    """Format ``template``, asking ``values(name)`` only for used fields.

    Renderers with side effects per operand (tier 2 marks registers live
    and records bound proofs) see each field once, in template order.
    """
    return template.format(**{name: values(name) for name in fields(template)})

"""BCD carry-lookahead adder model (the accelerator's main execution unit).

Method-1 of the paper needs exactly one BCD-CLA "to generate multiplicand
multiples and accumulate partial products".  This class models it:

* *functionally* — a branch-free SWAR BCD add over the whole width (D. W.
  Jones, "BCD Arithmetic, a tutorial": bias every digit by 6, add, then take
  the 6 back out of each digit that produced no carry).  The carry network
  only changes delay, not values, so one big-integer add stands in for the
  per-digit lookahead logic;
* *for timing* — a combinational latency in clock cycles (1 by default, the
  adder fits in a pipeline stage at Rocket-class frequencies);
* *for cost* — gate-equivalent area and logic depth estimates of a
  carry-lookahead implementation, which feed the hardware-overhead report.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from repro.errors import AcceleratorError
from repro.hw.cost import GE_PER_AND_OR, GE_PER_XOR, GateCost

#: Gate-equivalents of one BCD digit adder cell (4-bit binary adder, the
#: +6 correction stage and the digit generate/propagate logic).
_DIGIT_CELL_GE = 42.0
#: Gate-equivalents per digit of the lookahead carry network.
_LOOKAHEAD_GE_PER_DIGIT = 9.0


def repeat_nibble(nibble: int, digits: int) -> int:
    """``nibble`` in each of the low ``digits`` digit positions."""
    return nibble * ((1 << (4 * digits)) - 1) // 0xF


class BcdAddResult(NamedTuple):
    """Outcome of one BCD addition."""

    value: int       # packed BCD sum, truncated to the adder width
    carry_out: int   # 1 if the sum exceeded the adder width
    digits: int      # adder width in digits


class BcdCarryLookaheadAdder:
    """A ``width_digits``-digit BCD carry-lookahead adder."""

    def __init__(self, width_digits: int = 16, latency_cycles: int = 1) -> None:
        if width_digits < 1:
            raise AcceleratorError("adder width must be at least one digit")
        self.width_digits = width_digits
        self.latency_cycles = latency_cycles
        self.operations = 0
        self._bits = 4 * width_digits
        self._mask = (1 << self._bits) - 1
        self._sixes = repeat_nibble(6, width_digits)
        self._eights = repeat_nibble(8, width_digits)
        # Bit 0 of digits 1..n: where the carry out of each digit lands.
        self._digit_carries = repeat_nibble(1, width_digits) << 4

    # ------------------------------------------------------------------ value
    def add(self, a: int, b: int, carry_in: int = 0) -> BcdAddResult:
        """Add two packed-BCD operands (must fit the adder width)."""
        if (a | b) >> self._bits:
            raise AcceleratorError(
                f"operand wider than the {self.width_digits}-digit adder"
            )
        # A nibble is above 9 iff bit 3 is set and bit 2 or bit 1 is.
        bad = (a & (a << 1 | a << 2) | b & (b << 1 | b << 2)) & self._eights
        if bad:
            digit = ((bad & -bad).bit_length() - 1) >> 2
            raise AcceleratorError(f"invalid BCD nibble in operand at digit {digit}")
        biased = a + self._sixes
        total = biased + b + (1 if carry_in else 0)
        # sum ^ a ^ b holds the carry into every bit.  A digit with no carry
        # out still holds its +6 bias: take the 6 back out of exactly those digits.
        no_carry = ~(total ^ biased ^ b) & self._digit_carries
        total -= (no_carry >> 2) | (no_carry >> 3)
        self.operations += 1
        return BcdAddResult(total & self._mask, total >> self._bits, self.width_digits)

    # ------------------------------------------------------------------- cost
    def cost(self) -> GateCost:
        """Gate-equivalent area and depth of a CLA implementation."""
        digit_cells = _DIGIT_CELL_GE * self.width_digits
        lookahead = _LOOKAHEAD_GE_PER_DIGIT * self.width_digits
        # Two-level lookahead tree: depth grows with log4(width).
        levels = 4 + 2 * max(1, math.ceil(math.log(max(self.width_digits, 2), 4)))
        extra = (GE_PER_XOR + GE_PER_AND_OR) * self.width_digits  # sum correction
        return GateCost(
            name=f"BCD-CLA ({self.width_digits} digits)",
            gate_equivalents=digit_cells + lookahead + extra,
            logic_levels=levels,
        )

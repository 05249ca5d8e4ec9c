"""Fixed-width integers with explicit overflow policy.

``IntFormat(bits=k, signed=...)`` covers ``[0, 2^k - 1]`` unsigned or
``[-2^(k-1), 2^(k-1) - 1]`` signed.  Overflow behaviour is part of the
format: ``wraparound`` reduces results mod ``2^k`` back into range,
``saturating`` clamps to the nearest end of the range.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

__all__ = ["IntFormat", "KInt", "add_int"]

OVERFLOW_POLICIES = ("wraparound", "saturating")


@dataclass(frozen=True)
class IntFormat:
    bits: int
    signed: bool
    overflow: str

    def __post_init__(self):
        if self.bits < 1:
            raise ValueError("bits must be >= 1")
        if self.overflow not in OVERFLOW_POLICIES:
            raise ValueError(f"overflow must be one of {OVERFLOW_POLICIES}")

    @cached_property
    def min_value(self) -> int:
        return -(1 << (self.bits - 1)) if self.signed else 0

    @cached_property
    def max_value(self) -> int:
        return (1 << (self.bits - 1)) - 1 if self.signed else (1 << self.bits) - 1

    @property
    def modulus(self) -> int:
        return 1 << self.bits

    def wrap(self, value: int) -> int:
        """Reduce an arbitrary integer into range mod ``2^bits``."""
        r = value & (self.modulus - 1)
        if self.signed and r > self.max_value:
            r -= self.modulus
        return r

    def clamp(self, value: int) -> int:
        return min(max(value, self.min_value), self.max_value)

    def settle(self, value: int) -> int:
        """An exact result brought into range by the overflow policy."""
        if self.overflow == "wraparound":
            return self.wrap(value)
        return self.clamp(value)


class KInt:
    """One in-range value of an :class:`IntFormat`."""

    __slots__ = ("fmt", "value")

    def __init__(self, fmt: IntFormat, value: int):
        if not fmt.min_value <= value <= fmt.max_value:
            raise ValueError(f"{value} out of range for {fmt}")
        self.fmt = fmt
        self.value = value

    def __int__(self) -> int:
        return self.value

    def __neg__(self) -> "KInt":
        return KInt(self.fmt, self.fmt.settle(-self.value))

    def __eq__(self, other) -> bool:
        if not isinstance(other, KInt):
            return NotImplemented
        return self.value == other.value and (self.fmt is other.fmt
                                              or self.fmt == other.fmt)

    def __hash__(self) -> int:
        return hash((self.fmt, self.value))

    def __repr__(self) -> str:
        return f"KInt({self.fmt!r}, {self.value})"

    def __str__(self) -> str:
        return str(self.value)


def add_int(x: KInt, y: KInt) -> KInt:
    """Add under the format's overflow policy."""
    if x.fmt != y.fmt:
        raise ValueError("operands have different formats")
    return KInt(x.fmt, x.fmt.settle(x.value + y.value))

"""Exact dyadic rationals, as values to parse and to report.

Every finite value of an emulated binary float is a dyadic rational
``m * 2**e`` with integer ``m`` and ``e``.  This type carries such a
value where one is read (``m*2^e`` literals, dyadic fractions), written
(``str`` is the ``m*2^e`` notation of the reports) or released by the
``exact`` algorithm.  It does no arithmetic: sums and comparisons of
float values run on integer counts of a format's finest spacing
(:meth:`~boundedsum.floats.SimFloat.to_grid`), and callers that need a
ratio or a difference convert with :meth:`Dyadic.to_fraction`.  Values
are kept normalized: the mantissa is odd, or zero with exponent zero,
which makes equality structural.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["Dyadic", "floor_log2_fraction"]


def floor_log2_fraction(fr: Fraction) -> int:
    """Largest ``b`` with ``2**b <= fr``; requires ``fr > 0``."""
    p, q = fr.numerator, fr.denominator
    if p <= 0:
        raise ValueError("positive value required")
    e = p.bit_length() - q.bit_length()
    # 2^e <= p/q < 2^(e+1) after at most one downward adjustment
    if e >= 0:
        if p < (q << e):
            e -= 1
    else:
        if (p << -e) < q:
            e -= 1
    return e


class Dyadic:
    """An exact value ``mantissa * 2**exponent`` in lowest form.

    It is a type of its own, not a ``Fraction``, for its spelling: a
    report writes a dyadic value as ``m*2^e`` (the ``exact`` release of
    36 golden reports under ``tests/golden`` and one ``upper`` bound),
    while a dyadic ``Fraction`` such as ``19/8`` is written ``19/8``.
    Reports that kept those bytes without this type would need a second
    writer.
    """

    __slots__ = ("m", "e")

    def __init__(self, mantissa: int, exponent: int = 0):
        if mantissa == 0:
            self.m = 0
            self.e = 0
            return
        # strip factors of two into the exponent
        shift = (mantissa & -mantissa).bit_length() - 1
        self.m = mantissa >> shift
        self.e = exponent + shift

    @classmethod
    def from_fraction(cls, f: Fraction) -> "Dyadic":
        den = f.denominator
        if den & (den - 1):
            raise ValueError(f"{f} is not a dyadic rational")
        return cls(f.numerator, -(den.bit_length() - 1))

    def to_fraction(self) -> Fraction:
        if self.e >= 0:
            return Fraction(self.m << self.e)
        return Fraction(self.m, 1 << -self.e)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dyadic):
            return NotImplemented
        return self.m == other.m and self.e == other.e

    def __hash__(self) -> int:
        return hash((self.m, self.e))

    def __repr__(self) -> str:
        return f"Dyadic({self.m}, {self.e})"

    def __str__(self) -> str:
        return f"{self.m}*2^{self.e}"

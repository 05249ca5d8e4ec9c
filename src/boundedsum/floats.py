"""Emulated binary floating point with explicit rounding control.

A format is a pair ``(mantissa_bits, exponent_bits)`` written ``(k, l)``.
Finite values are

* normal:     ``(-1)^s * (1 + M/2^k) * 2^E``  with ``M`` in ``[0, 2^k)`` and
  ``E`` in ``[emin, emax]`` where ``emin = -(2^(l-1) - 2)`` and
  ``emax = 2^(l-1) - 1``;
* subnormal:  ``(-1)^s * (M/2^k) * 2^emin`` with ``M`` in ``[0, 2^k)``;
  ``M = 0`` is zero.

``(k, l) = (23, 8)`` reproduces IEEE binary32 and ``(52, 11)`` binary64,
minus NaNs: the all-ones exponent field encodes only the two infinities,
and any NaN bit pattern is rejected on input.

Infinity is given the working value ``2^(emax+1)`` — one unit past the
largest finite value ``n_max`` — for every arithmetic and rounding
purpose.  Two consequences drive everything downstream:

* any exact result with magnitude ``>= 2^(emax+1)`` rounds to infinity in
  every rounding mode (the format saturates; there is no wraparound);
* an infinity absorbs further addends: ``inf + z = inf`` for any
  ``z != -inf``, while ``inf + (-inf)`` raises :class:`InvalidOperation`.

Addition runs on plain integers (Higham, *Accuracy and Stability of
Numerical Algorithms*, §2.1).  Each operand's bit pattern unpacks into a
sign, a significand and an exponent; the two significands are aligned to
the smaller exponent and added exactly, and the exact sum is rounded once
by :func:`_round_bits`, which packs the rounded significand straight back
into a bit pattern.  Every rounding mode is therefore bit-exact by
construction rather than by emulation tricks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .dyadic import Dyadic

__all__ = [
    "FloatFormat",
    "SimFloat",
    "InvalidOperation",
    "FLOAT32",
    "FLOAT64",
    "ROUNDING_MODES",
    "ulp",
    "is_representable",
    "round_dyadic",
    "add_bits",
    "add_float",
    "parse_value",
    "values_in_range",
]


class InvalidOperation(ArithmeticError):
    """Raised for ``inf + (-inf)`` and other undefined float operations."""


@dataclass(frozen=True)
class FloatFormat:
    """A ``(k, l)`` emulated binary float format."""

    mantissa_bits: int
    exponent_bits: int

    def __post_init__(self):
        if self.mantissa_bits < 1:
            raise ValueError("mantissa_bits must be >= 1")
        if self.exponent_bits < 2:
            raise ValueError("exponent_bits must be >= 2")

    @property
    def k(self) -> int:
        return self.mantissa_bits

    @property
    def bias(self) -> int:
        return (1 << (self.exponent_bits - 1)) - 1

    @property
    def emin(self) -> int:
        return -((1 << (self.exponent_bits - 1)) - 2)

    @property
    def emax(self) -> int:
        return (1 << (self.exponent_bits - 1)) - 1

    @property
    def total_bits(self) -> int:
        return 1 + self.exponent_bits + self.mantissa_bits

    @property
    def max_finite(self) -> Dyadic:
        """``n_max = (2 - 2^-k) * 2^emax``."""
        return Dyadic((1 << (self.k + 1)) - 1, self.emax - self.k)

    @property
    def inf_value(self) -> Dyadic:
        """Working value of infinity: ``n_max + ulp(n_max) = 2^(emax+1)``."""
        return Dyadic(1, self.emax + 1)

    @property
    def min_normal(self) -> Dyadic:
        return Dyadic(1, self.emin)

    @property
    def min_subnormal(self) -> Dyadic:
        return Dyadic(1, self.emin - self.k)

    @cached_property
    def _kernel(self) -> tuple:
        """``(k, emin, emax, sign bit, infinity's magnitude pattern)``."""
        k = self.mantissa_bits
        return (k, self.emin, self.emax, 1 << (self.total_bits - 1),
                ((1 << self.exponent_bits) - 1) << k)

    def grid_fraction(self, units: int) -> Fraction:
        """Exact value of ``units`` steps of the finest spacing ``2^(emin-k)``."""
        return Fraction(units, 1 << (self.k - self.emin))

    def __repr__(self) -> str:
        return f"FloatFormat({self.mantissa_bits}, {self.exponent_bits})"


FLOAT32 = FloatFormat(23, 8)
FLOAT64 = FloatFormat(52, 11)

ROUNDING_MODES = ("banker", "toward_zero", "toward_pos", "toward_neg")


class SimFloat:
    """One value of a :class:`FloatFormat`, stored as its bit pattern.

    The pattern packs ``sign | biased exponent | mantissa`` exactly as IEEE
    interchange formats do; ``-0`` is normalized to ``+0`` on construction
    so equality of values is equality of patterns.
    """

    __slots__ = ("fmt", "bits")

    def __init__(self, fmt: FloatFormat, bits: int):
        sign, inf = fmt._kernel[3:]
        if not 0 <= bits < sign << 1:
            raise ValueError(f"bit pattern {bits:#x} out of range for {fmt}")
        mag = bits & (sign - 1)
        if mag > inf:  # the all-ones exponent with a nonzero mantissa
            raise ValueError("NaN patterns are not part of the value set")
        self.fmt = fmt
        self.bits = bits if mag else 0  # fold -0 into +0

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, fmt: FloatFormat) -> "SimFloat":
        return cls(fmt, 0)

    @classmethod
    def inf(cls, fmt: FloatFormat, sign: int = 1) -> "SimFloat":
        bits = ((1 << fmt.exponent_bits) - 1) << fmt.mantissa_bits
        if sign < 0:
            bits |= 1 << (fmt.total_bits - 1)
        return cls(fmt, bits)

    @classmethod
    def from_parts(cls, fmt: FloatFormat, sign: int, exponent: int, mantissa: int,
                   subnormal: bool = False) -> "SimFloat":
        """Build a finite value from unbiased exponent and mantissa field."""
        k = fmt.mantissa_bits
        if not 0 <= mantissa < (1 << k):
            raise ValueError("mantissa field out of range")
        if subnormal:
            if exponent != fmt.emin:
                raise ValueError("subnormal exponent must be emin")
            field = 0
        else:
            if not fmt.emin <= exponent <= fmt.emax:
                raise ValueError("exponent out of range")
            field = exponent + fmt.bias
        bits = (field << k) | mantissa
        if sign < 0:
            bits |= 1 << (fmt.total_bits - 1)
        return cls(fmt, bits)

    @classmethod
    def from_grid(cls, fmt: FloatFormat, g: int) -> "SimFloat":
        """The value of ``g`` units of the finest spacing: the inverse of
        :meth:`to_grid`, infinities included.  Raises ``ValueError`` when
        ``g`` is not a value of ``fmt``."""
        bits = _grid_bits(fmt._kernel, g)
        if bits is None:
            raise ValueError(f"{g} grid units are not a value of {fmt}")
        return _from_bits(fmt, bits)

    # -- field access ----------------------------------------------------

    @property
    def sign(self) -> int:
        return -1 if self.bits >> (self.fmt.total_bits - 1) else 1

    @property
    def _exp_field(self) -> int:
        return (self.bits >> self.fmt.mantissa_bits) & ((1 << self.fmt.exponent_bits) - 1)

    @property
    def mantissa(self) -> int:
        return self.bits & ((1 << self.fmt.mantissa_bits) - 1)

    @property
    def kind(self) -> str:
        f = self._exp_field
        if f == (1 << self.fmt.exponent_bits) - 1:
            return "inf"
        if f == 0:
            return "zero" if self.mantissa == 0 else "subnormal"
        return "normal"

    @property
    def exponent(self) -> int:
        """Unbiased exponent; subnormals and zero report ``emin``."""
        f = self._exp_field
        if f == (1 << self.fmt.exponent_bits) - 1:
            raise ValueError("infinity has no exponent")
        return self.fmt.emin if f == 0 else f - self.fmt.bias

    def is_finite(self) -> bool:
        _, _, _, sign, inf = self.fmt._kernel
        return self.bits & (sign - 1) != inf

    def is_zero(self) -> bool:
        return self.bits == 0

    # -- value views -----------------------------------------------------

    def to_grid(self) -> int:
        """Exact value in units of the finest spacing ``2^(emin-k)``.

        Every finite value is an integer multiple of that spacing, so sums
        and gaps of values are integer arithmetic on these counts.
        Infinities read as ``±2^(emax+1)`` by convention.
        """
        return _bits_grid(self.fmt._kernel, self.bits)

    def to_dyadic(self) -> Dyadic:
        """Exact value; infinities map to ``±2^(emax+1)`` by convention."""
        return Dyadic(self.to_grid(), self.fmt.emin - self.fmt.k)

    def to_fraction(self) -> Fraction:
        if not self.is_finite():
            raise ValueError("infinity has no rational value")
        return self.fmt.grid_fraction(self.to_grid())

    def to_hex(self) -> str:
        width = -(-self.fmt.total_bits // 4)
        return f"0x{self.bits:0{width}x}"

    def __neg__(self) -> "SimFloat":
        if self.bits == 0:
            return self  # -0 is not a pattern of the value set
        return _from_bits(self.fmt, self.bits ^ self.fmt._kernel[3])

    def __abs__(self) -> "SimFloat":
        return _from_bits(self.fmt, self.bits & (self.fmt._kernel[3] - 1))

    # -- identity ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimFloat):
            return NotImplemented
        return self.bits == other.bits and (self.fmt is other.fmt
                                            or self.fmt == other.fmt)

    def __hash__(self) -> int:
        return hash(self.bits)  # equal values share a pattern, whatever the format

    def __repr__(self) -> str:
        return f"SimFloat({self.fmt!r}, {self.to_hex()})"

    def __str__(self) -> str:
        if self.kind == "inf":
            return "inf" if self.sign > 0 else "-inf"
        if self.bits == 0:
            return "0"
        return str(self.to_dyadic())


def _from_bits(fmt: FloatFormat, bits: int) -> SimFloat:
    """A SimFloat from a pattern that is valid by construction: no checks."""
    x = object.__new__(SimFloat)
    x.fmt = fmt
    x.bits = bits
    return x


def _bits_grid(kernel: tuple, bits: int) -> int:
    """Grid count of the pattern ``bits`` (see :meth:`SimFloat.to_grid`):
    the inverse of :func:`_grid_bits`.  A ``-0`` pattern reads as 0."""
    k, emin, emax, sign, inf = kernel
    mag = bits & (sign - 1)
    if mag == inf:
        mag = 1 << (emax + 1 - emin + k)
    else:
        f = mag >> k  # biased exponent field; 0 for subnormals and zero
        if f > 1:
            mag = (mag - ((f - 1) << k)) << (f - 1)
    return -mag if bits & sign else mag


def _grid_bits(kernel: tuple, g: int):
    """Bit pattern of ``g`` grid units (see :meth:`SimFloat.to_grid`), or
    None when no value of the format has that grid count.

    Below ``2^k`` units the count is the subnormal pattern itself.  Above,
    ``g`` has ``k + f`` bits for the biased exponent field ``f`` and must
    be a multiple of its spacing ``2^(f-1)``; the infinity point
    ``2^(emax+1)`` lands on infinity's pattern, and anything past it on a
    pattern above it.
    """
    k, _, _, sign, inf = kernel
    a = -g if g < 0 else g
    if a >= 1 << k:
        f = a.bit_length() - k
        if a & ((1 << (f - 1)) - 1):
            return None
        a = ((f - 1) << k) + (a >> (f - 1))
        if a > inf:
            return None
    return a | sign if g < 0 else a


def ulp(x: SimFloat) -> Dyadic:
    """Unit in the last place at ``x``: ``2^(floor(log2 |x|) - k)``.

    Zero and subnormals report the subnormal spacing ``2^(emin - k)``.
    """
    fmt = x.fmt
    kind = x.kind
    if kind == "inf":
        raise ValueError("ulp of infinity")
    if kind in ("zero", "subnormal"):
        return Dyadic(1, fmt.emin - fmt.mantissa_bits)
    return Dyadic(1, x.exponent - fmt.mantissa_bits)


def is_representable(value, fmt: FloatFormat) -> bool:
    """True when ``value`` (Dyadic, Fraction or int) is a finite float of
    ``fmt``: a whole number of grid units that :func:`_grid_bits` packs
    into a finite pattern."""
    q = value.to_fraction() if isinstance(value, Dyadic) else Fraction(value)
    g = q * (1 << (fmt.k - fmt.emin))
    if g.denominator != 1:
        return False
    kernel = fmt._kernel
    _, _, _, sign, inf = kernel
    bits = _grid_bits(kernel, g.numerator)
    return bits is not None and bits & (sign - 1) != inf


# ---------------------------------------------------------------------------
# Rounding
# ---------------------------------------------------------------------------

def _check_mode(mode: str) -> None:
    if mode not in ROUNDING_MODES:
        raise ValueError(f"unknown rounding mode {mode!r}")


def _round_bits(kernel: tuple, neg: bool, mag: int, e: int, mode: str) -> int:
    """Bit pattern of ``(-1)^neg * mag * 2^e`` (``mag > 0``) rounded to ``fmt``.

    The value's binade ``top = floor(log2 |value|)``, raised to ``emin``
    for subnormals, fixes the grid ``2^(top-k)``; ``t`` is the magnitude
    in grid steps, rounded once.  Packing ``((top + bias - 1) << k) + t``
    turns the three ways ``t`` can reach ``2^(k+1)`` (or ``2^k`` below
    ``emin``) into carries into the exponent field: a subnormal promoted
    to the smallest normal, a carry into the next binade, and a carry out
    of the top binade into the infinity pattern.  ``kernel`` is the
    format's :attr:`FloatFormat._kernel`.
    """
    k, emin, emax, sign, inf = kernel
    top = mag.bit_length() - 1 + e
    if top > emax:
        return inf | sign if neg else inf
    if top < emin:
        top = emin
    shift = top - k - e
    if shift <= 0:
        t = mag << -shift
    else:
        t = mag >> shift
        rem = mag - (t << shift)
        if rem:
            if mode == "banker":
                half = 1 << (shift - 1)
                if rem > half or (rem == half and t & 1):
                    t += 1
            elif mode != "toward_zero" and neg == (mode == "toward_neg"):
                t += 1  # away from zero: toward_pos above 0, toward_neg below
    bits = ((top + emax - 1) << k) + t  # emax is the bias
    if neg and bits:
        bits |= sign
    return bits


def round_dyadic(q: Dyadic, fmt: FloatFormat, mode: str) -> SimFloat:
    """Round an exact value to ``fmt`` under ``mode``.

    Modes: ``banker`` (nearest, ties to even mantissa), ``toward_zero``,
    ``toward_pos``, ``toward_neg``.  Any magnitude at or past
    ``2^(emax+1)`` becomes infinity in every mode.  Magnitudes strictly
    between ``n_max`` and that point need no case of their own: rounding
    up from ``n_max`` is the carry out of the top binade, whose packed
    pattern is infinity's, so they choose between ``n_max`` and infinity
    as if infinity were the next grid value (its mantissa counts as even,
    so the halfway case under ``banker`` goes to infinity).
    """
    _check_mode(mode)
    if q.m == 0:
        return _from_bits(fmt, 0)
    return _from_bits(fmt, _round_bits(fmt._kernel, q.m < 0, abs(q.m), q.e,
                                       mode))


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------

def add_bits(kernel: tuple, xb: int, yb: int, mode: str) -> int:
    """One rounded addition on bit patterns: the pattern of the exact sum,
    rounded once.

    ``kernel`` is the format's :attr:`FloatFormat._kernel`.  Nothing is
    checked: the patterns must be of that format (a ``-0`` pattern reads
    as zero, so a sign flip ``b ^ sign`` is a negation even at zero) and
    ``mode`` one of ``ROUNDING_MODES``.  Infinities saturate: ``inf + z =
    inf`` unless ``z`` is the opposite infinity, which raises
    :class:`InvalidOperation`.  Zero results are ``+0``.
    """
    k, emin, _, sign, inf = kernel
    xm, ym = xb & (sign - 1), yb & (sign - 1)
    if xm == inf or ym == inf:
        if xm == ym and xb != yb:
            raise InvalidOperation("inf + (-inf) is undefined")
        return xb if xm == inf else yb
    # value = significand * 2^(exponent + emin - k); subnormals and zero
    # share the smallest normal's exponent, with no hidden bit
    xe, ye = xm >> k, ym >> k
    xe = xe - 1 if xe else 0
    ye = ye - 1 if ye else 0
    xs, ys = xm - (xe << k), ym - (ye << k)
    if xb & sign:
        xs = -xs
    if yb & sign:
        ys = -ys
    if xe > ye:
        total, e = (xs << (xe - ye)) + ys, ye
    else:
        total, e = xs + (ys << (ye - xe)), xe
    if total == 0:
        return 0
    neg = total < 0
    return _round_bits(kernel, neg, -total if neg else total, e + emin - k,
                       mode)


def add_float(x: SimFloat, y: SimFloat, mode: str = "banker") -> SimFloat:
    """One rounded addition: exact sum of the operands, rounded once.

    The checked form of :func:`add_bits`: the operands must share a
    format and ``mode`` must be one of ``ROUNDING_MODES``.
    """
    fmt = x.fmt
    if y.fmt is not fmt and y.fmt != fmt:
        raise ValueError("operands have different formats")
    _check_mode(mode)
    return _from_bits(fmt, add_bits(fmt._kernel, x.bits, y.bits, mode))


# ---------------------------------------------------------------------------
# Enumeration and parsing helpers
# ---------------------------------------------------------------------------

def _pattern_ranges(fmt: FloatFormat, lo: SimFloat, hi: SimFloat,
                    include_subnormals: bool = False) -> list:
    """Bit patterns of the finite values in ``[lo, hi]``, as ``range``s.

    Within one sign the finite patterns are ordered by magnitude, so the
    negative values are one descending run of patterns and the
    nonnegative ones (zero first) an ascending run; the nonzero subnormal
    magnitudes ``1 .. 2^k - 1`` are cut out unless asked for.  Read in
    order, the ranges list the values ascending, and their lengths count
    them without building any.
    """
    k = fmt.mantissa_bits
    sign = 1 << (fmt.total_bits - 1)
    top = (((1 << fmt.exponent_bits) - 1) << k) - 1  # largest finite magnitude
    low = 1 if include_subnormals else 1 << k  # smallest eligible nonzero

    def mag(x: SimFloat) -> int:
        return x.bits & (sign - 1)

    out = []
    if lo.sign < 0:
        a = max(mag(hi) if hi.sign < 0 else 1, low)
        out.append(range(sign | min(mag(lo), top), (sign | a) - 1, -1))
    if hi.sign > 0:
        a = mag(lo) if lo.sign > 0 else 0
        if a == 0:
            out.append(range(1))
        out.append(range(max(a, low), min(mag(hi), top) + 1))
    return out


def values_in_range(fmt: FloatFormat, lo: SimFloat, hi: SimFloat,
                    include_subnormals: bool = False) -> list:
    """All finite values of ``fmt`` in ``[lo, hi]``, ascending.

    Zero is always eligible; nonzero subnormals only when asked for.  The
    exhaustive checks downstream default to the normal range, where the
    sensitivity statements are exact; subnormal inputs remain available
    behind the flag.  Only the patterns inside the bounds are visited.
    """
    return [SimFloat(fmt, bits)
            for r in _pattern_ranges(fmt, lo, hi, include_subnormals)
            for bits in r]


_DYADIC_RE = re.compile(r"^(-?\d+)\*2\^(-?\d+)$")
# a bit pattern's one spelling
_PATTERN_RE = re.compile(r"0[xX][0-9a-fA-F]+")


def parse_value(fmt: FloatFormat, text: str) -> SimFloat:
    """Parse ``0x..`` bit patterns, ``m*2^e`` literals, ``inf``, or decimals.

    A bit pattern is ``0x`` and hex digits, nothing else.  Non-pattern
    inputs must be exactly representable in ``fmt``.
    """
    if _PATTERN_RE.fullmatch(text):
        return SimFloat(fmt, int(text, 16))
    text = text.strip()
    if text.lower() in ("inf", "+inf"):
        return SimFloat.inf(fmt, 1)
    if text.lower() == "-inf":
        return SimFloat.inf(fmt, -1)
    if text.lower().startswith("-0x"):
        raise ValueError("sign belongs inside the bit pattern")
    m = _DYADIC_RE.match(text)
    if m:
        q = Dyadic(int(m.group(1)), int(m.group(2)))
    else:
        q = Fraction(text)
        den = q.denominator
        if den & (den - 1):
            raise ValueError(f"{text} is not a dyadic rational")
        q = Dyadic.from_fraction(q)
    if not is_representable(q, fmt):
        raise ValueError(f"{text} is not representable in {fmt}")
    return round_dyadic(q, fmt, "toward_zero")

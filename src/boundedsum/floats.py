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

All arithmetic is performed exactly on :class:`~boundedsum.dyadic.Dyadic`
values and then rounded once, so every rounding mode is bit-exact by
construction rather than by emulation tricks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
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
    "add_float",
    "to_exact",
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
        k, l = fmt.mantissa_bits, fmt.exponent_bits
        if not 0 <= bits < (1 << fmt.total_bits):
            raise ValueError(f"bit pattern {bits:#x} out of range for {fmt}")
        exp_field = (bits >> k) & ((1 << l) - 1)
        if exp_field == (1 << l) - 1 and bits & ((1 << k) - 1):
            raise ValueError("NaN patterns are not part of the value set")
        if exp_field == 0 and bits & ((1 << k) - 1) == 0:
            bits = 0  # fold -0 into +0
        self.fmt = fmt
        self.bits = bits

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
    def from_hex(cls, fmt: FloatFormat, text: str) -> "SimFloat":
        return cls(fmt, int(text, 16))

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
        return self.kind != "inf"

    def is_zero(self) -> bool:
        return self.bits == 0

    # -- value views -----------------------------------------------------

    def to_dyadic(self) -> Dyadic:
        """Exact value; infinities map to ``±2^(emax+1)`` by convention."""
        fmt = self.fmt
        k = fmt.mantissa_bits
        f = self._exp_field
        s = self.sign
        if f == (1 << fmt.exponent_bits) - 1:
            return Dyadic(s, fmt.emax + 1)
        if f == 0:
            return Dyadic(s * self.mantissa, fmt.emin - k)
        return Dyadic(s * ((1 << k) | self.mantissa), f - fmt.bias - k)

    def to_fraction(self) -> Fraction:
        if not self.is_finite():
            raise ValueError("infinity has no rational value")
        return self.to_dyadic().to_fraction()

    def __float__(self) -> float:
        if self.kind == "inf":
            return float("inf") * self.sign
        return self.to_dyadic().to_float()

    def to_hex(self) -> str:
        width = -(-self.fmt.total_bits // 4)
        return f"0x{self.bits:0{width}x}"

    def __neg__(self) -> "SimFloat":
        if self.bits == 0:
            return self
        return SimFloat(self.fmt, self.bits ^ (1 << (self.fmt.total_bits - 1)))

    def __abs__(self) -> "SimFloat":
        return SimFloat(self.fmt, self.bits & ~(1 << (self.fmt.total_bits - 1)))

    # -- identity ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimFloat):
            return NotImplemented
        return self.fmt == other.fmt and self.bits == other.bits

    def __hash__(self) -> int:
        return hash((self.fmt, self.bits))

    def __repr__(self) -> str:
        return f"SimFloat({self.fmt!r}, {self.to_hex()})"

    def __str__(self) -> str:
        if self.kind == "inf":
            return "inf" if self.sign > 0 else "-inf"
        if self.bits == 0:
            return "0"
        return str(self.to_dyadic())


def to_exact(x: SimFloat) -> Dyadic:
    """Exact dyadic value of ``x`` (infinity maps to ``±2^(emax+1)``)."""
    return x.to_dyadic()


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
    """True when ``value`` (Dyadic, Fraction or int) is a finite float of ``fmt``."""
    if isinstance(value, int):
        value = Dyadic(value)
    elif isinstance(value, Fraction):
        den = value.denominator
        if den & (den - 1):
            return False
        value = Dyadic.from_fraction(value)
    if value.is_zero():
        return True
    a = abs(value)
    if a > fmt.max_finite:
        return False
    b = a.floor_log2()
    grid = (max(b, fmt.emin)) - fmt.mantissa_bits
    return a.divides_grid(grid)


# ---------------------------------------------------------------------------
# Rounding
# ---------------------------------------------------------------------------

def round_dyadic(q: Dyadic, fmt: FloatFormat, mode: str) -> SimFloat:
    """Round an exact value to ``fmt`` under ``mode``.

    Modes: ``banker`` (nearest, ties to even mantissa), ``toward_zero``,
    ``toward_pos``, ``toward_neg``.  Any magnitude at or past
    ``2^(emax+1)`` becomes infinity in every mode; magnitudes strictly
    between ``n_max`` and that point choose between ``n_max`` and infinity
    as if infinity were the next grid value (its mantissa counts as even,
    so the halfway case under ``banker`` goes to infinity).
    """
    if q.is_zero():
        return SimFloat.zero(fmt)
    s = 1 if q.m > 0 else -1
    a = abs(q)
    k = fmt.mantissa_bits

    if a >= fmt.inf_value:
        return SimFloat.inf(fmt, s)

    # magnitude rounding direction for the signed modes
    if mode == "banker":
        mag = "nearest"
    elif mode == "toward_zero":
        mag = "down"
    elif mode == "toward_pos":
        mag = "up" if s > 0 else "down"
    elif mode == "toward_neg":
        mag = "up" if s < 0 else "down"
    else:
        raise ValueError(f"unknown rounding mode {mode!r}")

    if a > fmt.max_finite:
        # between n_max and the infinity point
        if mag == "down":
            return SimFloat(fmt, _nmax_bits(fmt, s))
        if mag == "up":
            return SimFloat.inf(fmt, s)
        midpoint = fmt.max_finite + Dyadic(1, fmt.emax - k - 1)
        if a > midpoint:
            return SimFloat.inf(fmt, s)
        if a < midpoint:
            return SimFloat(fmt, _nmax_bits(fmt, s))
        return SimFloat.inf(fmt, s)  # tie: infinity's mantissa (0) is even

    if a < fmt.min_normal:
        grid_e = fmt.emin - k
        lo, hi = 0, 1 << k
    else:
        b = a.floor_log2()
        grid_e = b - k
        lo, hi = 1 << k, 1 << (k + 1)

    # a / 2^grid_e = t_floor + rem / 2^shift  with 0 <= rem < 2^shift
    shift = a.e - grid_e
    if shift >= 0:
        t = a.m << shift
        rem, half = 0, 1
    else:
        t = a.m >> -shift
        rem = a.m - (t << -shift)
        half = 1 << (-shift - 1)

    if mag == "down":
        pass
    elif mag == "up":
        if rem:
            t += 1
    else:  # nearest, ties to even
        if rem > half or (rem == half and t & 1):
            t += 1

    if a < fmt.min_normal:
        if t == 0:
            return SimFloat.zero(fmt)
        if t == hi:  # promoted to the smallest normal
            return SimFloat.from_parts(fmt, s, fmt.emin, 0)
        return SimFloat.from_parts(fmt, s, fmt.emin, t, subnormal=True)

    if t == hi:
        b += 1
        if b > fmt.emax:
            return SimFloat.inf(fmt, s)
        return SimFloat.from_parts(fmt, s, b, 0)
    return SimFloat.from_parts(fmt, s, b, t - lo)


def _nmax_bits(fmt: FloatFormat, sign: int) -> int:
    k, l = fmt.mantissa_bits, fmt.exponent_bits
    bits = (((1 << l) - 2) << k) | ((1 << k) - 1)
    if sign < 0:
        bits |= 1 << (fmt.total_bits - 1)
    return bits


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------

def add_float(x: SimFloat, y: SimFloat, mode: str = "banker") -> SimFloat:
    """One rounded addition: exact sum of the operands, rounded once.

    Infinities saturate: ``inf + z = inf`` unless ``z`` is the opposite
    infinity, which raises :class:`InvalidOperation`.
    """
    if x.fmt != y.fmt:
        raise ValueError("operands have different formats")
    xk, yk = x.kind, y.kind
    if xk == "inf" or yk == "inf":
        if xk == "inf" and yk == "inf" and x.sign != y.sign:
            raise InvalidOperation("inf + (-inf) is undefined")
        return x if xk == "inf" else y
    return round_dyadic(x.to_dyadic() + y.to_dyadic(), x.fmt, mode)


# ---------------------------------------------------------------------------
# Enumeration and parsing helpers
# ---------------------------------------------------------------------------

def values_in_range(fmt: FloatFormat, lo: SimFloat, hi: SimFloat,
                    include_subnormals: bool = False) -> list:
    """All finite values of ``fmt`` in ``[lo, hi]``, ascending.

    Zero is always eligible; nonzero subnormals only when asked for.  The
    exhaustive checks downstream default to the normal range, where the
    sensitivity statements are exact; subnormal inputs remain available
    behind the flag.
    """
    lo_d, hi_d = lo.to_dyadic(), hi.to_dyadic()
    out = []
    k, l = fmt.mantissa_bits, fmt.exponent_bits
    for sign_bit in (1, 0):
        for field in range(0, (1 << l) - 1):
            for m in range(1 << k):
                bits = (sign_bit << (l + k)) | (field << k) | m
                x = SimFloat(fmt, bits)
                if x.kind == "subnormal" and not include_subnormals:
                    continue
                if sign_bit and x.is_zero():
                    continue
                v = x.to_dyadic()
                if lo_d <= v <= hi_d:
                    out.append(x)
    out.sort(key=lambda f: f.to_dyadic().to_fraction())
    return out


_DYADIC_RE = re.compile(r"^(-?\d+)\*2\^(-?\d+)$")


def parse_value(fmt: FloatFormat, text: str) -> SimFloat:
    """Parse ``0x..`` bit patterns, ``m*2^e`` literals, ``inf``, or decimals.

    Non-pattern inputs must be exactly representable in ``fmt``.
    """
    text = text.strip()
    if text.lower() in ("inf", "+inf"):
        return SimFloat.inf(fmt, 1)
    if text.lower() == "-inf":
        return SimFloat.inf(fmt, -1)
    if text.lower().startswith(("0x", "-0x")):
        if text.startswith("-"):
            raise ValueError("sign belongs inside the bit pattern")
        return SimFloat.from_hex(fmt, text)
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

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

import math
import operator
import re
import sys
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from . import ROUNDING_MODES
from .dyadic import Dyadic

__all__ = [
    "FloatFormat",
    "SimFloat",
    "InvalidOperation",
    "FLOAT32",
    "FLOAT64",
    "ROUNDING_MODES",
    "is_representable",
    "round_dyadic",
    "add_bits",
    "add_float",
    "parse_number",
    "number_text",
    "power_sum_text",
    "parse_value",
]


class InvalidOperation(ArithmeticError):
    """Raised for ``inf + (-inf)`` and other undefined float operations."""


@dataclass(frozen=True)
class FloatFormat:
    """A ``(k, l)`` emulated binary float format."""

    mantissa_bits: int
    exponent_bits: int

    # The widest fields a format may have: those of IEEE 754's binary256,
    # the widest format that standard defines
    MAX_MANTISSA_BITS = 236
    MAX_EXPONENT_BITS = 19

    def __post_init__(self):
        if not 1 <= self.mantissa_bits <= self.MAX_MANTISSA_BITS:
            raise ValueError(
                f"mantissa_bits must be in [1, {self.MAX_MANTISSA_BITS}]")
        if not 2 <= self.exponent_bits <= self.MAX_EXPONENT_BITS:
            raise ValueError(
                f"exponent_bits must be in [2, {self.MAX_EXPONENT_BITS}]")

    @property
    def k(self) -> int:
        return self.mantissa_bits

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

    def is_finite(self) -> bool:
        _, _, _, sign, inf = self.fmt._kernel
        return self.bits & (sign - 1) != inf

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
    format and ``mode`` must be one of ``ROUNDING_MODES``.  No command
    calls it, since the folds add through :func:`add_bits` and the
    machine's own adds.  It stays for two readers: the tests, as their
    reference adder of values, and the benchmark's tracer
    (``perfbench/tracer.py``), which wraps it by name.
    """
    fmt = x.fmt
    if y.fmt is not fmt and y.fmt != fmt:
        raise ValueError("operands have different formats")
    _check_mode(mode)
    return _from_bits(fmt, add_bits(fmt._kernel, x.bits, y.bits, mode))


# ---------------------------------------------------------------------------
# The machine's own floats
# ---------------------------------------------------------------------------

# (float, pattern) array typecodes of the formats the machine has: IEEE
# binary32 and binary64, whose patterns are this module's patterns
_MACHINE = {(23, 8): ("f", "I"), (52, 11): ("d", "Q")}
# float32's smallest subnormal, a normal double; float64's
_TINY32 = float.fromhex("0x1p-149")
_TINY64 = float.fromhex("0x1p-1074")


def _keeps_subnormals() -> bool:
    """True when this process's floats keep subnormals: the smallest
    subnormals of float64, and of float32 through a float32 array, add
    to a nonzero sum.  A library built with fast-math can set
    flush-to-zero for the whole process, at any point, so each selection
    asks again."""
    return (_TINY64 + _TINY64 != 0
            and array("f", [_TINY32 + _TINY32])[0] != 0)


def _native(fmt: FloatFormat):
    """The array typecodes ``(float, pattern)`` of the machine's own float
    for ``fmt``, or None.

    float32 ``('f', 'I')`` and float64 ``('d', 'Q')`` have one, in every
    rounding mode, on a machine that keeps subnormals: IEEE
    round-to-nearest-even is the model's ``banker``, overflow included (a
    tie at ``n_max + ulp/2`` goes to infinity in both), and
    :func:`_machine_add` derives the directed modes from it.  Every other
    format, or a process that flushes subnormals, has only
    :func:`add_bits`.
    """
    codes = _MACHINE.get((fmt.mantissa_bits, fmt.exponent_bits))
    return codes if codes is not None and _keeps_subnormals() else None


def _to_floats(native: tuple, patterns) -> array:
    """The ints ``patterns`` as the machine's floats of the typecodes
    ``native`` (see :func:`_native`), cast in bulk."""
    ftype, itype = native
    return array(ftype, array(itype, patterns).tobytes())


def _to_patterns(native: tuple, floats) -> tuple:
    """The inverse of :func:`_to_floats`: the patterns of ``floats``."""
    ftype, itype = native
    return tuple(array(itype, array(ftype, floats).tobytes()))


# a directed mode's bound: the mode steps a nearest sum below its bound up
# when the exact sum lies above it, and one above its bound down when the
# exact sum lies below it
_STEP_BOUND = {"toward_pos": math.inf, "toward_zero": 0.0,
               "toward_neg": -math.inf}


def _machine_add(ftype: str, mode: str):
    """The machine's add of two floats of the array typecode ``ftype``,
    rounded by ``mode`` as :func:`add_bits` rounds: float64's ``+``, or
    float32's, which is the double sum rounded once more to float32
    through a one-slot array.  That double rounding is harmless: a
    double's 53 bits are at least ``2*24 + 2`` (Figueroa 1995), and both
    operands are float32 values.

    A directed mode is the nearest sum ``f`` plus one correction.  The
    sign of ``exact - f`` is read off the TwoSum error: on float64 it is
    the error ``e`` of ``f`` itself; on float32, with ``d`` the double sum
    and ``e`` its error, it is ``(d - f) or e``, since ``d - f`` is exact
    and, when nonzero, a multiple of ``d``'s last place, more than
    ``|e|``.  When ``f`` lies on the wrong side of the exact sum for the
    mode (toward zero: past it in magnitude), ``f`` steps by one value
    toward it: ``math.nextafter`` on float64, one pattern on float32.  A
    nearest sum of 0 is exact, so zero results are ``+0``, as in the
    model, whose ``x + (-x)`` is ``+0`` under ``toward_neg`` too.

    A result that is not finite makes a fold on these adds fold again on
    patterns (see :func:`boundedsum.summation._fold`).  An infinite
    nearest sum is never stepped: any magnitude at or past ``2^(emax+1)``
    is infinite in the model in every mode, and a sum between ``n_max``
    and that point whose nearest value is infinity is left to
    :func:`add_bits`.  On float64, TwoSum's ``s - a`` can overflow where
    ``s`` does not (``|b|`` near ``n_max``); the error is then NaN, and so
    is the add.
    """
    if ftype == "d":
        if mode == "banker":
            return operator.add
        bound, nextafter, inf = _STEP_BOUND[mode], math.nextafter, math.inf

        def add64(a: float, b: float) -> float:
            s = a + b
            z = s - a
            e = (a - (s - z)) + (b - z)
            if e == 0:
                return s
            if e > 0:
                return nextafter(s, inf) if s < bound else s
            if e < 0:
                return nextafter(s, -inf) if s > bound else s
            return e  # NaN: s or s - a overflowed
        return add64
    slot = array("f", [0.0])
    if mode == "banker":
        def add(a: float, b: float) -> float:
            slot[0] = a + b
            return slot[0]
        return add
    pattern = memoryview(slot).cast("B").cast("I")
    bound, inf = _STEP_BOUND[mode], math.inf

    def add32(a: float, b: float) -> float:
        d = a + b
        z = d - a
        slot[0] = d
        f = slot[0]
        t = (d - f) or (a - (d - z)) + (b - z)
        # one more on a pattern moves a positive value up, a negative down
        if t > 0 and -inf < f < bound:
            pattern[0] += 1 if f > 0 else -1
            return slot[0]
        if t < 0 and bound < f < inf:
            pattern[0] += -1 if f > 0 else 1
            return slot[0]
        return f
    return add32


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


# a bit pattern's one spelling
_PATTERN_RE = re.compile(r"0[xX][0-9a-fA-F]+")
# the number grammar (written out in boundedsum.data): an integer, then a
# decimal tail, a denominator or a power of two
_NUMBER_RE = re.compile(r"(-?[0-9]+)(?:(?:\.([0-9]+))?(?:[eE]([-+]?[0-9]+))?"
                        r"|/([0-9]+)|\*2\^(-?[0-9]+))")
# the largest exponent a number text may carry, in either base: past the
# range of every format, so no power larger than any format needs is built
_MAX_TEXT_EXPONENT = 1 << FloatFormat.MAX_EXPONENT_BITS


# Past this many bits an int is written by halves through ``decimal``, whose
# multiply is subquadratic; ``str()`` is quadratic in CPython and faster only
# below it (the two cross between 32,000 and 36,000 bits, best of 7 on a
# 2-vCPU x86-64 VM, Python 3.11).
_DECIMAL_BITS = 1 << 15
# Leaves of that split are converted by ``Decimal(int)`` directly.
_DECIMAL_LEAF_BITS = 2048


@contextmanager
def _exact_decimals():
    """``decimal.Decimal``, in a context of exact integers for the block: no
    rounding, no exponent limit, and a rounding raises.  ``decimal`` is
    loaded here, when a number first needs it."""
    import decimal
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax = decimal.MAX_PREC, decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        yield decimal.Decimal


def _decimal_digits(n: int) -> str:
    """``str(n)`` for ``n >= 0``: the halves ``n = hi * 2^h + lo`` are
    written recursively as Decimals and joined with a cached ``2^h``, the
    split of CPython 3.12's ``_pylong.int_to_decimal_string``."""
    import decimal
    two = decimal.Decimal(2)
    powers = {}

    def power(w: int):
        if w not in powers:
            powers[w] = (two ** w if w <= _DECIMAL_LEAF_BITS
                         else power(w >> 1) * power(w - (w >> 1)))
        return powers[w]

    def halves(n: int, w: int):
        if w <= _DECIMAL_LEAF_BITS:
            return decimal.Decimal(n)
        h = w >> 1
        hi = n >> h
        return halves(n - (hi << h), h) + halves(hi, w - h) * power(h)

    with _exact_decimals():
        return str(halves(n, n.bit_length()))


def _shared_powers(x, exponents) -> dict:
    """``{e: x ** e}`` for each of ``exponents``, with ``x`` an int or a
    Decimal: each power is built once, and one whose exponent is the sum of
    two smaller ones asked for is their product, a multiply in place of a
    power."""
    powers = {}
    for e in sorted(set(exponents)):
        f = next((f for f in powers if e - f in powers), None)
        powers[e] = x ** e if f is None else powers[f] * powers[e - f]
    return powers


# an int of at most this many bits has at most 603 digits, which str()
# writes under every setting of sys.int_max_str_digits (its least is 640)
_STR_BITS = 2000


def _int_str(n: int) -> str:
    """``str(n)`` of any int, past the int-to-str digit guard."""
    if n.bit_length() <= _STR_BITS:
        return str(n)
    if n < 0:
        return "-" + _int_str(-n)
    if n.bit_length() > _DECIMAL_BITS:
        return _decimal_digits(n)
    limit = sys.get_int_max_str_digits()
    need = n.bit_length() // 3 + 3
    if limit and need > limit:
        sys.set_int_max_str_digits(need)
        try:
            return str(n)
        finally:
            sys.set_int_max_str_digits(limit)
    return str(n)


def number_text(q) -> str:
    """The text of an exact number, an int, a Fraction or a Dyadic: ``str()``
    digit for digit, at any size; the one writer of every exact number a
    report holds, each in the number grammar that :func:`parse_number`
    reads, except the exact DP check's worst ratio, which is held only as
    sums of powers and written by :func:`power_sum_text` in the same text.

    A float sum of a wide format carries a numerator of hundreds of
    thousands of bits.  ``str()`` refuses it past CPython's int-to-str
    digit guard (``sys.int_max_str_digits``) and is quadratic below it, so
    long numerators and denominators are written by halves
    (:func:`_decimal_digits`) and short ones by ``str()`` with the guard
    raised just for that call.  The halves are still a binary-to-decimal
    conversion: built as Fractions, the 5-million-bit exact ratios of the
    16-bit overflow pair's DP checks would take 0.8 to 1.3 s each to write
    this way, against 0.17 to 0.26 s by :func:`power_sum_text` from their
    factors (in process, a 2-vCPU x86-64 VM, Python 3.11).
    """
    if isinstance(q, Dyadic):
        return f"{_int_str(q.m)}*2^{q.e}"
    num = _int_str(q.numerator)
    return num if q.denominator == 1 else f"{num}/{_int_str(q.denominator)}"


def power_sum_text(p: int, top, bottom) -> str:
    """The text ``"T/B"`` of the sums ``T`` and ``B`` of the terms ``(a,
    b)`` of ``top`` and ``bottom``, each term ``2^a * p^b``, or ``"T"`` when
    ``B`` is 1: for a coprime pair, :func:`number_text` of ``T/B`` digit
    for digit.

    No binary number is converted to decimal.  The terms are evaluated in
    exact ``decimal`` (libmpdec, whose long multiply is a number-theoretic
    transform), with one power per base and exponent over both sums
    (:func:`_shared_powers`), and a Decimal integer's ``str()`` is linear.
    Against :func:`number_text` of the prebuilt Fraction, best of 15 in
    process on a 2-vCPU x86-64 VM, Python 3.11: it loses on ratios under
    about 10,000 bits (numerator and denominator), by at most 0.02 ms,
    and on the modular check's distances from about ``m/8`` to ``3m/8``
    in 7- to 10-bit formats, by at most 4 ms (9 bits at ``m/4``: 5.4
    against 3.7 ms; 10 bits at ``3m/16``: 14.1 against 10.0 ms).  Elsewhere
    it wins: on clamped ratios past 10,000 bits (600,000 bits: 9 against
    30 ms), at the modular distances measured in 11- and 12-bit formats,
    and on the benchmark's own pairs (8-bit clamped, 40,200 bits: 0.69
    against 1.12 ms; 9-bit modular, 80,897 bits: 1.56 against 3.70 ms).
    """
    terms = (*top, *bottom)
    with _exact_decimals() as Decimal:
        twos = _shared_powers(Decimal(2), [a for a, _ in terms])
        ps = _shared_powers(Decimal(p), [b for _, b in terms])

        def total(side):
            return sum(twos[a] * ps[b] for a, b in side)

        num, den = total(top), total(bottom)
        return str(num) if den == 1 else f"{num}/{den}"


# a digit text of at most this many characters is read by int() under
# every setting of sys.int_max_str_digits, whose least value is 640
_INT_LEAF_DIGITS = 640


def _digits_int(digits: str) -> int:
    """``int(digits)`` for ASCII digits after an optional sign, at any
    length, whatever ``sys.int_max_str_digits`` says: a longer text by
    halves, each half's value joined with a cached power of ten
    (quadratic ``int()`` takes 6 s for a million digits, the halves
    0.6 s)."""
    if len(digits) <= _INT_LEAF_DIGITS:
        return int(digits)
    if digits[0] in "-+":
        value = _digits_int(digits[1:])
        return -value if digits[0] == "-" else value
    powers = {}

    def halves(digits: str) -> int:
        if len(digits) <= _INT_LEAF_DIGITS:
            return int(digits)
        h = len(digits) >> 1
        if h not in powers:
            powers[h] = 10 ** h
        return halves(digits[:-h]) * powers[h] + halves(digits[-h:])
    return halves(digits)


def parse_number(text: str) -> Fraction:
    """The exact value of a number text: the one reader of every fraction
    and float literal the program takes (the grammar is written in
    :mod:`boundedsum.data`).

    As ``Fraction(text)`` does, it raises ``ZeroDivisionError`` for a
    ratio over 0 and ``ValueError`` for any other text outside the
    grammar, an exponent past ``2^19`` among them.  No power is built for
    such an exponent, nor for a zero.  The grammar sets no digit limit,
    nor does the reader: digits past ``sys.int_max_str_digits`` are read
    by :func:`_digits_int`.
    """
    if (m := _NUMBER_RE.fullmatch(text)) is None:
        raise ValueError(f"{text!r} is not a number")
    whole, point, e10, den, e2 = m.groups("")
    if den:
        return Fraction(_digits_int(whole), _digits_int(den))
    # a decimal's digits after the point lower its exponent
    base, e = ((2, _digits_int(e2)) if e2
               else (10, _digits_int(e10 or "0") - len(point)))
    if abs(e) > _MAX_TEXT_EXPONENT:
        raise ValueError(f"{text!r} has an exponent past {_MAX_TEXT_EXPONENT}")
    mant = _digits_int(whole + point)
    # a zero builds no power
    return mant * Fraction(base) ** e if mant else Fraction(0)


def parse_value(fmt: FloatFormat, text: str) -> SimFloat:
    """The value of ``fmt`` a float text names: a ``0x..`` bit pattern,
    ``inf``, ``-inf``, or a number text (:func:`parse_number`) that is a
    value of ``fmt`` exactly.

    A bit pattern is ``0x`` and hex digits, nothing else, and a minus sign
    before one is refused by its own message.  Every other text is refused
    as no float literal, a ratio over 0 as a zero denominator.
    """
    if _PATTERN_RE.fullmatch(text):
        return SimFloat(fmt, int(text, 16))
    if text in ("inf", "-inf"):
        return SimFloat.inf(fmt, -1 if text[0] == "-" else 1)
    if text[:1] == "-" and _PATTERN_RE.fullmatch(text[1:]):
        raise ValueError("sign belongs inside the bit pattern")
    try:
        q = parse_number(text)
    except ZeroDivisionError:
        raise ValueError(f"value {text!r} has a zero denominator") from None
    except ValueError:
        raise ValueError(f"{text!r} is not a float literal") from None
    if q.denominator & (q.denominator - 1):
        raise ValueError(f"{text} is not a dyadic rational")
    if not is_representable(q, fmt):
        raise ValueError(f"{text} is not representable in {fmt}")
    return round_dyadic(Dyadic.from_fraction(q), fmt, "toward_zero")

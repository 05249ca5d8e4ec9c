"""Reference values the benchmark checks CLI reports against.

Two kinds of reference live here:

* independent sums for the seeded dense files of ``sum-dense``, computed
  with hardware IEEE arithmetic (numpy float32, Python float) and exact
  fractions, so no ``boundedsum`` code is involved;
* the codecs that turn a report field into a seed-independent string,
  which is what ``expected.json`` stores.  Binary floating point is
  scale-invariant away from the subnormal and overflow edges, so a float
  attack shifted by ``2^offset`` releases exactly ``2^offset`` times the
  values it releases at offset 0; the codecs divide that factor out.
"""

from __future__ import annotations

import hashlib
import math
import random
import struct
from fractions import Fraction

import numpy as np

INT32_MIN, INT32_MAX = -(1 << 31), (1 << 31) - 1


# ---------------------------------------------------------------------------
# Report-field codecs
# ---------------------------------------------------------------------------

def float_bits_value(bits: int, k: int, l: int) -> Fraction:
    """Value of a finite ``(k, l)`` float from its bit pattern."""
    sign = -1 if (bits >> (k + l)) & 1 else 1
    field = (bits >> k) & ((1 << l) - 1)
    mant = bits & ((1 << k) - 1)
    bias = (1 << (l - 1)) - 1
    if field == (1 << l) - 1:
        raise ValueError(f"{bits:#x} is not finite")
    if field == 0:
        return sign * Fraction(mant, 1 << k) * Fraction(2) ** (1 - bias)
    return sign * (1 + Fraction(mant, 1 << k)) * Fraction(2) ** (field - bias)


def dyadic_value(text: str) -> Fraction:
    """Value of an ``m*2^e`` string (or ``0``)."""
    if text == "0":
        return Fraction(0)
    m, _, e = text.partition("*2^")
    return Fraction(int(m)) * Fraction(2) ** int(e)


def dyadic_str(fr: Fraction) -> str:
    """``m*2^e`` with ``m`` odd, the form the CLI prints exact floats in."""
    if fr == 0:
        return "0"
    m, e = fr.numerator, -(fr.denominator.bit_length() - 1)
    if e == 0:
        shift = (m & -m).bit_length() - 1
        m, e = m >> shift, shift
    return f"{m}*2^{e}"


def normalize(codec: str, value, scale: Fraction) -> str:
    """Report field -> the seed-independent string ``expected.json`` holds.

    ``rat``/``dyadic``/``hex:K,L`` are numbers divided by ``scale``;
    ``sha256`` shortens huge exact strings; ``raw`` compares as is.
    """
    if codec == "raw":
        return json_str(value)
    if codec == "sha256":
        return hashlib.sha256(value.encode()).hexdigest()[:32]
    if codec == "rat":
        fr = Fraction(value)
    elif codec == "dyadic":
        fr = dyadic_value(value)
    elif codec.startswith("hex:"):
        k, l = (int(p) for p in codec[4:].split(","))
        fr = float_bits_value(int(value, 16), k, l)
    else:
        raise ValueError(f"unknown codec {codec!r}")
    return str(fr / scale)


def json_str(value) -> str:
    if isinstance(value, bool) or value is None:
        return {True: "true", False: "false", None: "null"}[value]
    return str(value)


# ---------------------------------------------------------------------------
# Seeded dense inputs
# ---------------------------------------------------------------------------

def dense_float_values(rng: random.Random, n: int, grid_bits: int) -> list:
    """``n`` distinct multiples of ``2^-grid_bits`` in ``[-1, 1]``.

    On that grid every element and every shifted element ``v + 1`` is
    exact in both float32 (``grid_bits <= 20``) and float64
    (``grid_bits <= 50``), and float32 partial sums of a few thousand
    elements stay exact in a double, which the oracle below relies on.
    """
    top = 1 << grid_bits
    picks = rng.sample(range(-top, top + 1), n)
    return [Fraction(p, top) for p in picks]


def dense_int_values(rng: random.Random, n: int) -> list:
    """``n`` distinct int32 values in ``[-2^30, 2^30 - 1]``: sums overflow."""
    return rng.sample(range(-(1 << 30), 1 << 30), n)


# ---------------------------------------------------------------------------
# Reference summation
# ---------------------------------------------------------------------------

def permuted(values: list, seed: int) -> list:
    """The documented permutation: sort, then Fisher-Yates on MT19937."""
    out = sorted(values)
    rng = random.Random(seed)
    for i in range(len(out) - 1, 0, -1):
        j = rng.randrange(i + 1)
        out[i], out[j] = out[j], out[i]
    return out


class _Arith:
    """One float format's round-to-nearest add plus a round-toward-zero
    add, both from hardware or exact arithmetic."""

    def __init__(self, bits: int):
        self.bits = bits
        self.dtype = np.float32 if bits == 32 else np.float64

    def of(self, fr: Fraction):
        x = self.dtype(float(fr))
        assert Fraction(float(x)) == fr, "oracle inputs must be exact"
        return x

    def add(self, a, b):
        return self.dtype(a + b) if self.bits == 32 else a + b

    def add_rtz(self, a, b):
        exact = Fraction(float(a)) + Fraction(float(b))
        d = float(exact)
        if self.bits == 32:
            # a float32 partial sum on the dense grid is exact in a double
            assert Fraction(d) == exact
            r = np.float32(d)
            if abs(Fraction(float(r))) > abs(exact):
                r = np.nextafter(r, np.float32(0))
            return r
        if abs(Fraction(d)) > abs(exact):
            d = math.nextafter(d, 0.0)
        return d

    def hex(self, x) -> str:
        if self.bits == 32:
            return f"0x{int(np.float32(x).view(np.uint32)):08x}"
        return f"0x{struct.unpack('<Q', struct.pack('<d', x))[0]:016x}"


def _pairwise(values, add):
    def rec(lo, hi):
        n = hi - lo
        if n == 1:
            return values[lo]
        m = 1 << ((n - 1).bit_length() - 1)
        return add(rec(lo, lo + m), rec(lo + m, hi))
    return rec(0, len(values))


def float_sum(values: list, bits: int, algorithm: str) -> dict:
    """Expected ``value``/``exact`` of ``sum`` over exact float inputs."""
    ar = _Arith(bits)
    xs = [ar.of(v) for v in values]
    zero = ar.dtype(0)
    if algorithm == "iterative":
        acc = zero
        for x in xs:
            acc = ar.add(acc, x)
    elif algorithm == "pairwise":
        acc = _pairwise(xs, ar.add) if xs else zero
    elif algorithm == "kahan":
        acc, comp = zero, zero
        for x in xs:
            y = ar.add(x, -comp)
            t = ar.add(acc, y)
            comp = ar.add(ar.add(t, -acc), -y)
            acc = t
    elif algorithm == "split":
        ordered = sorted(xs)
        pos = zero
        for x in ordered:
            if x >= 0:
                pos = ar.add_rtz(pos, x)
        neg = zero
        for x in reversed(ordered):
            if x < 0:
                neg = ar.add_rtz(neg, x)
        acc = ar.add(pos, neg)
    else:
        raise ValueError(algorithm)
    return {"value": ar.hex(acc), "exact": dyadic_str(Fraction(float(acc)))}


def int_sum(values: list, overflow: str, algorithm: str) -> dict:
    """Expected ``value``/``exact`` of ``sum`` over int32 inputs."""
    if overflow == "wraparound":
        def add(a, b):
            return (a + b - INT32_MIN) % (1 << 32) + INT32_MIN
    else:
        def add(a, b):
            return min(max(a + b, INT32_MIN), INT32_MAX)
    if algorithm == "iterative":
        acc = 0
        for v in values:
            acc = add(acc, v)
    elif algorithm == "pairwise":
        acc = _pairwise(values, add) if values else 0
    elif algorithm == "split":
        ordered = sorted(values)
        pos = 0
        for v in ordered:
            if v >= 0:
                pos = add(pos, v)
        neg = 0
        for v in reversed(ordered):
            if v < 0:
                neg = add(neg, v)
        acc = add(pos, neg)
    else:
        raise ValueError(algorithm)
    return {"value": str(acc), "exact": str(acc)}

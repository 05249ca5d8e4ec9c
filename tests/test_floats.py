"""Emulated floats checked two independent ways.

The 32- and 64-bit configurations are compared bit-for-bit against the
hardware adds of numpy and of the host's doubles (which round to
nearest, ties to even, and overflow to infinity as the model does).  The tiny
configurations are checked exhaustively against a from-scratch rounding
oracle that knows nothing about the implementation: it enumerates every
finite value of the format and picks the right neighbour by definition.
"""

import random
import struct
import time
from fractions import Fraction

import numpy as np
from pytest import mark, raises
from hypothesis import given, settings
from hypothesis.strategies import floats, fractions, integers, sampled_from

from boundedsum import (
    FLOAT32,
    FLOAT64,
    ROUNDING_MODES,
    Dyadic,
    FloatFormat,
    InvalidOperation,
    SimFloat,
    add_float,
    is_representable,
    parse_value,
    round_dyadic,
)
from boundedsum.dyadic import floor_log2_fraction
from boundedsum.floats import (_pattern_ranges, add_bits, number_text,
                              parse_number)
from reference import negated, values_in_range

F23 = FloatFormat(2, 3)
F34 = FloatFormat(3, 4)


# ---------------------------------------------------------------------------
# Reference machinery
# ---------------------------------------------------------------------------

def finite_values(fmt):
    """Every distinct finite value of ``fmt`` (``-0`` folded away)."""
    out = {}
    for bits in range(1 << fmt.total_bits):
        try:
            x = SimFloat(fmt, bits)
        except ValueError:
            continue  # NaN patterns
        if x.kind == "inf":
            continue
        out[x.bits] = x
    return sorted(out.values(), key=lambda x: x.to_fraction())


def inf_value(fmt):
    """Infinity's working value: ``n_max`` plus one spacing of its binade,
    ``2^(emax+1)``."""
    return fmt.max_finite.to_fraction() + Fraction(2) ** (fmt.emax - fmt.k)


def oracle_round(q: Fraction, fmt: FloatFormat, mode: str, table) -> SimFloat:
    """Independent rounding: choose among the format's values by definition.

    The infinity working value ``2^(emax+1)`` participates as an ordinary
    grid point with an even mantissa; whatever lands on or beyond it is
    infinite.
    """
    values, parity = table
    inf_v = inf_value(fmt)
    if abs(q) >= inf_v:
        return SimFloat.inf(fmt, 1 if q > 0 else -1)
    grid = values + [inf_v, -inf_v]
    if mode == "banker":
        best = min(abs(q - v) for v in grid)
        near = [v for v in grid if abs(q - v) == best]
        pick = near[0] if len(near) == 1 else \
            next(v for v in near if parity[v] == 0)
    elif mode == "toward_zero":
        pick = max((v for v in grid if 0 <= v <= q or q <= v <= 0),
                   key=abs, default=Fraction(0))
    elif mode == "toward_pos":
        pick = min(v for v in grid if v >= q)
    else:  # toward_neg
        pick = max(v for v in grid if v <= q)
    if abs(pick) == inf_v:
        return SimFloat.inf(fmt, 1 if pick > 0 else -1)
    return round_dyadic(Dyadic.from_fraction(pick), fmt, "toward_zero")


def rounding_table(fmt):
    vals = finite_values(fmt)
    fractions = [x.to_fraction() for x in vals]
    parity = {x.to_fraction(): x.mantissa & 1 for x in vals}
    parity[inf_value(fmt)] = 0
    parity[-inf_value(fmt)] = 0
    return fractions, parity


TABLE23 = rounding_table(F23)


# ---------------------------------------------------------------------------
# 64-bit configuration vs the host's doubles
# ---------------------------------------------------------------------------

def from_double(x: float) -> SimFloat:
    return SimFloat(FLOAT64, struct.unpack("<Q", struct.pack("<d", x))[0])


reasonable_doubles = floats(allow_nan=False, allow_infinity=False)


@given(reasonable_doubles)
def test_float64_bit_pattern_roundtrip(x):
    assert float(from_double(x).to_fraction()) == x


@given(reasonable_doubles, reasonable_doubles)
@settings(max_examples=300)
def test_float64_addition_matches_hardware(x, y):
    got = add_float(from_double(x), from_double(y), "banker")
    want = from_double(x + y)
    assert got == want


# operand pairs of three kinds, by bit pattern: anything, the overflow
# threshold, and the subnormal range
def _random_pattern(fmt, rng):
    sign, inf = 1 << (fmt.total_bits - 1), SimFloat.inf(fmt).bits
    while True:
        bits = rng.getrandbits(fmt.total_bits)
        if bits & (sign - 1) <= inf:  # NaNs are not part of the model
            return bits


def _near_overflow_pair(fmt, rng):
    # n_max (or a few ulps below it) plus between a quarter and one ulp of
    # n_max, both of one sign: the exact sum lands below, on (a tie that
    # goes to infinity) or above the overflow threshold
    x = SimFloat.inf(fmt).bits - 1 - rng.randrange(4)
    # the biased exponent field of 2^(emax-k-1) or of half that (the
    # bias is emax)
    field = fmt.emax - fmt.k - 1 - rng.getrandbits(1) + fmt.emax
    y = field << fmt.k | rng.randrange(1 << fmt.k)
    s = 1 << (fmt.total_bits - 1) if rng.getrandbits(1) else 0
    return x | s, y | s


def _subnormal_pair(fmt, rng):
    k, sign = fmt.k, 1 << (fmt.total_bits - 1)
    x = rng.randrange(1 << k)
    y = rng.randrange(3 << k)  # subnormal, or in the smallest normal binade
    return x | (sign if rng.getrandbits(1) else 0), \
        y | (sign if rng.getrandbits(1) else 0)


@mark.parametrize("fmt, dtype, udtype",
                  [(FLOAT32, np.float32, np.uint32),
                   (FLOAT64, np.float64, np.uint64)], ids=["float32", "float64"])
def test_addition_matches_numpy_bit_for_bit(fmt, dtype, udtype):
    rng = random.Random(20220721)
    pairs = [(_random_pattern(fmt, rng), _random_pattern(fmt, rng))
             for _ in range(2000)]
    pairs += [_near_overflow_pair(fmt, rng) for _ in range(1000)]
    pairs += [_subnormal_pair(fmt, rng) for _ in range(1000)]
    n_max = SimFloat.inf(fmt).bits - 1
    half_ulp = round_dyadic(Dyadic(1, fmt.emax - fmt.k - 1), fmt, "banker")
    pairs.append((n_max, half_ulp.bits))  # the exact tie at the threshold
    xs = np.array([x for x, _ in pairs], dtype=udtype).view(dtype)
    ys = np.array([y for _, y in pairs], dtype=udtype).view(dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        hardware = (xs + ys).view(udtype).tolist()
    sign = 1 << (fmt.total_bits - 1)
    checked = 0
    for (x, y), want in zip(pairs, hardware):
        a, b = SimFloat(fmt, x), SimFloat(fmt, y)
        if not a.is_finite() and not b.is_finite() and a != b:
            with raises(InvalidOperation):  # hardware gives NaN here
                add_float(a, b, "banker")
            continue
        want = 0 if want == sign else want  # fold -0 into +0
        assert add_float(a, b, "banker").bits == want, (hex(x), hex(y))
        checked += 1
    assert checked > 3900
    assert add_float(SimFloat(fmt, n_max), half_ulp) == SimFloat.inf(fmt)


@given(reasonable_doubles)
def test_float64_exact_value(x):
    f = from_double(x)
    if f.kind == "zero":
        assert x == 0.0
    else:
        assert f.to_fraction() == Fraction(x)


def test_float64_format_constants():
    assert FLOAT64.k == 52
    assert parse_value(FLOAT64, "1").bits >> 52 == 1023      # the bias
    assert (FLOAT64.emin, FLOAT64.emax) == (-1022, 1023)
    assert FLOAT64.total_bits == 64
    assert SimFloat(FLOAT64, 1 << 52).to_fraction() == Fraction(2) ** -1022
    assert SimFloat(FLOAT64, 1).to_fraction() == Fraction(2) ** -1074
    assert FLOAT64.max_finite.to_fraction() == \
        (2 - Fraction(2) ** -52) * Fraction(2) ** 1023
    assert FLOAT32.k == 23 and FLOAT32.emax == 127


def test_format_validation():
    with raises(ValueError):
        FloatFormat(0, 3)
    with raises(ValueError):
        FloatFormat(2, 1)


# ---------------------------------------------------------------------------
# Exhaustive tiny-format checks
# ---------------------------------------------------------------------------

def test_tiny_format_constants():
    # l = 3: fields 1..6 are normal, so emax = 3 and emin = -2
    assert (F23.emin, F23.emax) == (-2, 3)
    assert inf_value(F23) == 16
    assert F23.max_finite.to_fraction() == Fraction(14)
    assert SimFloat(F23, 1 << F23.k).to_fraction() == Fraction(1, 4)
    assert SimFloat(F23, 1).to_fraction() == Fraction(1, 16)


@mark.parametrize("mode", ROUNDING_MODES)
def test_addition_exhaustive_against_oracle(mode):
    vals = finite_values(F23)
    for x in vals:
        for y in vals:
            got = add_float(x, y, mode)
            want = oracle_round(x.to_fraction() + y.to_fraction(),
                                F23, mode, TABLE23)
            assert got == want, (str(x), str(y), mode)


@mark.parametrize("mode", ROUNDING_MODES)
def test_round_dyadic_off_grid_sweep(mode):
    # thirty-seconds sweep across the whole range, including the overflow
    # band between max_finite (14) and the infinity working value (16)
    for i in range(-520, 521):
        q = Fraction(i, 32)
        got = round_dyadic(Dyadic.from_fraction(q), F23, mode)
        assert got == oracle_round(q, F23, mode, TABLE23), (q, mode)


def test_overflow_band_choices():
    inf = SimFloat.inf(F23)
    top = parse_value(F23, "14")
    # the midpoint 15 ties; infinity's mantissa counts as even
    assert round_dyadic(Dyadic.from_fraction(Fraction(15)), F23, "banker") == inf
    assert round_dyadic(Dyadic.from_fraction(Fraction(119, 8)), F23,
                        "banker") == top
    assert round_dyadic(Dyadic.from_fraction(Fraction(121, 8)), F23,
                        "toward_zero") == top
    assert round_dyadic(Dyadic.from_fraction(Fraction(121, 8)), F23,
                        "toward_pos") == inf
    # at or past the working value every mode saturates, in both directions
    assert round_dyadic(Dyadic.from_fraction(Fraction(16)), F23,
                        "toward_zero") == inf
    assert round_dyadic(Dyadic.from_fraction(Fraction(-33, 2)), F23,
                        "toward_pos") == SimFloat.inf(F23, -1)


def test_infinity_saturates_addition():
    inf = SimFloat.inf(F23)
    one = parse_value(F23, "1")
    assert add_float(inf, one) == inf
    assert add_float(one, negated(inf)) == negated(inf)
    assert add_float(inf, inf) == inf
    with raises(InvalidOperation):
        add_float(inf, negated(inf))


_ONE = parse_value(F23, "1")
_TOP = parse_value(F23, "14")
_INF = SimFloat.inf(F23)


@mark.parametrize("add, rounded", [
    ((_ONE, negated(_ONE)), Dyadic(0)),                          # exact zero
    ((_TOP, _TOP), Dyadic(1, 5)),                         # overflows
    ((_INF, _ONE), Dyadic(1, F23.emax + 1)),             # infinite operand
], ids=["exact-zero", "overflow", "infinite-operand"])
def test_unknown_rounding_mode_is_refused_even_without_a_rounding_step(
        add, rounded):
    with raises(ValueError, match="unknown rounding mode"):
        add_float(*add, "bogus")
    with raises(ValueError, match="unknown rounding mode"):
        round_dyadic(rounded, F23, "nope")


def test_ulp_exhaustive():
    # the ulp of each finite value, the gap up to the next pattern of its
    # sign, is 2^(emin-k) on zero and subnormals and 2^(e-k) on a normal
    # value of binade e; past n_max the next pattern is infinity, read as
    # 2^(emax+1)
    for fmt in (F23, F34):
        for x in finite_values(fmt):
            if x.sign < 0:
                continue
            up = SimFloat(fmt, x.bits + 1)
            spacing = fmt.grid_fraction(up.to_grid() - x.to_grid())
            if x.kind in ("zero", "subnormal"):
                assert spacing == Fraction(2) ** (fmt.emin - fmt.k), x
            else:
                e = floor_log2_fraction(x.to_fraction())
                assert spacing == Fraction(2) ** (e - fmt.k), x


# ---------------------------------------------------------------------------
# Representability and enumeration
# ---------------------------------------------------------------------------

def test_is_representable_cases():
    assert is_representable(Fraction(1, 4), F23)
    assert is_representable(Fraction(1, 16), F23)   # subnormal
    assert is_representable(14, F23)
    assert not is_representable(Fraction(1, 32), F23)
    assert not is_representable(15, F23)            # off the top grid
    assert not is_representable(16, F23)
    assert not is_representable(Fraction(1, 3), F23)
    assert is_representable(Dyadic(0), F23)


def test_is_representable_agrees_with_enumeration():
    reachable = {x.to_fraction() for x in finite_values(F23)}
    for i in range(-600, 601):
        q = Fraction(i, 32)
        assert is_representable(q, F23) == (q in reachable), q


def representable_in_binade(value, fmt):
    """Reference: the binade rule ``is_representable`` used before it
    asked ``_grid_bits``, on Fractions.  A nonzero dyadic value is a float
    when its magnitude is at most ``n_max`` and a multiple of its binade's
    spacing ``2^(max(floor(log2 |value|), emin) - k)``."""
    q = value.to_fraction() if isinstance(value, Dyadic) else Fraction(value)
    if q.denominator & (q.denominator - 1):
        return False
    if q == 0:
        return True
    a = abs(q)
    if a > fmt.max_finite.to_fraction():
        return False
    grid = max(floor_log2_fraction(a), fmt.emin) - fmt.k
    return (a / Fraction(2) ** grid).denominator == 1


@mark.parametrize("fmt", [F23, F34], ids=["F23", "F34"])
def test_is_representable_matches_the_binade_rule_at_every_edge(fmt):
    # every grid count within 40 units of each power of two up to the
    # infinity point, both signs: subnormals, binade edges, n_max and past
    top = fmt.emax + 1 - fmt.emin + fmt.k
    counts = {g for j in range(top + 1)
              for g in range((1 << j) - 40, (1 << j) + 41)}
    for g in counts | {-g for g in counts}:
        q = fmt.grid_fraction(g)
        assert is_representable(q, fmt) == representable_in_binade(q, fmt), g


@mark.parametrize("fmt", [FLOAT32, FLOAT64], ids=["f32", "f64"])
def test_is_representable_matches_the_binade_rule_at_native_edges(fmt):
    n_max = fmt.max_finite.to_fraction()
    tiny = SimFloat(fmt, 1).to_fraction()
    half_ulp = Fraction(2) ** (fmt.emax - fmt.k - 1)
    edges = [n_max, n_max + half_ulp, inf_value(fmt), tiny, tiny / 2,
             SimFloat(fmt, 1 << fmt.k).to_fraction(), n_max - 2 * half_ulp]
    for q in edges + [-q for q in edges]:
        assert is_representable(q, fmt) == representable_in_binade(q, fmt), q
        assert is_representable(Dyadic.from_fraction(q), fmt) == \
            representable_in_binade(q, fmt), q
    assert [is_representable(q, fmt) for q in edges] == [
        True, False, False, True, False, True, True]


def test_is_representable_matches_the_binade_rule_off_the_dyadics():
    values = [Fraction(1, 3), Fraction(-5, 6), Fraction(1, 48),
              Fraction(7, 10), 0, 1, -3, 14, 15, 16, 17, -14, 1 << 200,
              Dyadic(3, -2), Dyadic(-7, -4), Dyadic(1, -5), Dyadic(0),
              Dyadic(7, 1), Dyadic(1, 4), Dyadic(-1, 300)]
    for fmt in (F23, F34, FLOAT32):
        for q in values:
            assert is_representable(q, fmt) == \
                representable_in_binade(q, fmt), (q, fmt)


def test_values_in_range_normal_only():
    lo, hi = parse_value(F23, "-2"), parse_value(F23, "2")
    got = values_in_range(F23, lo, hi)
    fracs = [x.to_fraction() for x in got]
    assert fracs == sorted(fracs)
    assert all(-2 <= f <= 2 for f in fracs)
    assert Fraction(0) in fracs
    # no subnormals unless requested, but zero stays eligible
    assert Fraction(1, 16) not in fracs
    with_sub = values_in_range(F23, lo, hi, include_subnormals=True)
    assert Fraction(1, 16) in [x.to_fraction() for x in with_sub]
    want = [x.to_fraction() for x in finite_values(F23)
            if -2 <= x.to_fraction() <= 2 and x.kind != "subnormal"]
    assert fracs == want


def walk_values_in_range(fmt, lo, hi, include_subnormals):
    """Reference: visit every finite bit pattern, keep those in range.
    The bounds may be infinite, so values compare as grid counts."""
    lo_g, hi_g = lo.to_grid(), hi.to_grid()
    out = []
    k, l = fmt.mantissa_bits, fmt.exponent_bits
    for sign_bit in (1, 0):
        for field in range(0, (1 << l) - 1):
            for m in range(1 << k):
                bits = (sign_bit << (l + k)) | (field << k) | m
                x = SimFloat(fmt, bits)
                if x.kind == "subnormal" and not include_subnormals:
                    continue
                if sign_bit and x.kind == "zero":
                    continue
                if lo_g <= x.to_grid() <= hi_g:
                    out.append(x)
    out.sort(key=lambda f: f.to_grid())
    return out


@mark.parametrize("include_subnormals", [False, True])
@mark.parametrize("fmt", [F23, F34], ids=["F23", "F34"])
def test_values_in_range_matches_full_pattern_walk(fmt, include_subnormals):
    # bounds drawn from every value, infinities included, so zero,
    # subnormal bounds and empty ranges (lo > hi) all come up
    every = finite_values(fmt) + [SimFloat.inf(fmt, 1), SimFloat.inf(fmt, -1)]
    rng = random.Random(20240607)
    for _ in range(300):
        lo, hi = rng.choice(every), rng.choice(every)
        want = walk_values_in_range(fmt, lo, hi, include_subnormals)
        assert values_in_range(fmt, lo, hi, include_subnormals) == want
        ranges = _pattern_ranges(fmt, lo, hi, include_subnormals)
        assert sum(map(len, ranges)) == len(want)


# ---------------------------------------------------------------------------
# Construction, parsing, printing
# ---------------------------------------------------------------------------

def test_nan_patterns_rejected():
    # exponent field all ones + nonzero mantissa
    with raises(ValueError):
        SimFloat(F23, 0b0_111_01)
    with raises(ValueError):
        SimFloat(F23, 1 << 6)


def test_negative_zero_folds():
    minus_zero = 1 << (F23.total_bits - 1)
    assert SimFloat(F23, minus_zero).bits == 0
    assert SimFloat(F23, minus_zero) == SimFloat.zero(F23)


@mark.parametrize("fmt", [F23, F34], ids=str)
def test_from_grid_inverts_to_grid(fmt):
    # every pattern, subnormals and both infinities included, comes back
    # from its grid count; every other count up to past the infinity
    # points is not a value
    grid = set()
    for bits in range(1 << fmt.total_bits):
        try:
            x = SimFloat(fmt, bits)
        except ValueError:
            continue  # NaN patterns
        g = x.to_grid()
        grid.add(g)
        assert SimFloat.from_grid(fmt, g).bits == x.bits
    inf_g = SimFloat.inf(fmt).to_grid()
    assert -inf_g in grid and inf_g in grid
    refused = 0
    for g in range(-inf_g - 64, inf_g + 65):
        try:
            SimFloat.from_grid(fmt, g)
        except ValueError:
            refused += 1
        else:
            assert g in grid
    assert refused == 2 * inf_g + 129 - len(grid)
    for g in (inf_g + 1, 2 * inf_g, 3 * inf_g, 1 << 40):
        for signed in (g, -g):
            with raises(ValueError, match="not a value"):
                SimFloat.from_grid(fmt, signed)


def test_add_bits_reads_a_minus_zero_pattern_as_zero():
    kernel = F23._kernel
    sign = kernel[3]
    for bits in range(1 << F23.total_bits):
        if bits & (sign - 1) > kernel[4]:
            continue  # NaN
        for mode in ROUNDING_MODES:
            assert add_bits(kernel, bits, sign, mode) == add_bits(
                kernel, bits, 0, mode) == add_float(
                    SimFloat(F23, bits), SimFloat.zero(F23), mode).bits


def test_from_parts_validation():
    # a pattern packed by hand from sign, biased exponent field (the bias
    # is emax) and mantissa field, as _near_overflow_pair packs its pairs
    x = SimFloat(F23, 1 << 5 | (1 + F23.emax) << F23.k | 2)
    assert x.to_fraction() == -(1 + Fraction(2, 4)) * 2
    # the overflow pairs: x is n_max or up to three ulps below it, y is a
    # normal value in [2^(emax-k-2), 2^(emax-k)), both of one sign
    rng = random.Random(7)
    for fmt in (F23, F34, FLOAT32):
        top = fmt.max_finite.to_fraction()
        for _ in range(200):
            a, b = (SimFloat(fmt, p) for p in _near_overflow_pair(fmt, rng))
            assert a.sign == b.sign and b.kind == "normal"
            ulp_top = Fraction(2) ** (fmt.emax - fmt.k)
            assert top - 3 * ulp_top <= abs(a.to_fraction()) <= top
            assert ulp_top / 4 <= abs(b.to_fraction()) < ulp_top


@given(integers(min_value=0, max_value=(1 << 6) - 1))
def test_hex_roundtrip(bits):
    try:
        x = SimFloat(F23, bits)
    except ValueError:
        return
    assert parse_value(F23, x.to_hex()) == x


@mark.parametrize("text want".split(),
                  [("0", Fraction(0)),
                   ("0.75", Fraction(3, 4)),
                   ("-2", Fraction(-2)),
                   ("3*2^-2", Fraction(3, 4)),
                   ("-5*2^0", Fraction(-5)),
                   ("14", Fraction(14))])
def test_parse_value_exact_inputs(text, want):
    assert parse_value(F23, text).to_fraction() == want


def test_parse_value_special_and_hex():
    assert parse_value(F23, "inf") == SimFloat.inf(F23)
    assert parse_value(F23, "-inf") == SimFloat.inf(F23, -1)
    x = parse_value(F23, "1.5")
    assert parse_value(F23, x.to_hex()) == x


# second spellings of values the format holds, which Fraction() and \d
# would read: underscores, other scripts' digits, surrounding whitespace
# and a leading "+"
@mark.parametrize("text", ["1_0", "0.2_5", "٣", "٣*2^-1",
                           "3*2^-١", " 0.5 ", " 0.5", "0.5\n", "\t1",
                           "+0.5", "+3*2^-1", "+inf", " inf", "-inf "])
def test_parse_value_refuses_second_spellings(text):
    fmt = FloatFormat(10, 5)
    with raises(ValueError, match="is not a float literal"):
        parse_value(fmt, text)


def test_parse_value_keeps_the_one_spelling():
    fmt = FloatFormat(10, 5)
    assert parse_value(fmt, "10").bits == 0x4900
    assert parse_value(fmt, "3").bits == 0x4200
    assert parse_value(fmt, "3*2^-1").bits == 0x3e00
    assert parse_value(fmt, "0.5").bits == parse_value(fmt, "1*2^-1").bits
    assert parse_value(fmt, "-0.5").bits == 0xb800
    assert parse_value(fmt, "1e1").bits == 0x4900
    assert parse_value(fmt, "inf") == SimFloat.inf(fmt)
    assert parse_value(fmt, "-inf") == SimFloat.inf(fmt, -1)


# ---------------------------------------------------------------------------
# The number grammar: one spelling per notation, and the program's own texts
# ---------------------------------------------------------------------------

@mark.parametrize("text, want", [
    ("0", 0), ("-0", 0), ("007", 7), ("-12", -12), ("1.75", Fraction(7, 4)),
    ("-0.5", Fraction(-1, 2)), ("5e-1", Fraction(1, 2)),
    ("0.5E0", Fraction(1, 2)), ("1e+2", 100), ("1e400", 10 ** 400),
    ("1.25e-3", Fraction(1, 800)), ("5/2", Fraction(5, 2)),
    ("-254/2", -127), ("1*2^-11", Fraction(1, 2048)), ("3*2^2", 12),
    ("-3*2^-2", Fraction(-3, 4)), ("0e524288", 0), ("0*2^-524288", 0)])
def test_parse_number_reads_each_form_exactly(text, want):
    assert parse_number(text) == want


def test_parse_number_reads_past_the_digit_guard():
    # int() refuses more than sys.int_max_str_digits (4,300 by default)
    assert parse_number("1" * 5000) == (10 ** 5000 - 1) // 9
    assert parse_number("-" + "7" * 9000 + "/" + "3" * 7000) == Fraction(
        -(7 * (10 ** 9000 - 1) // 9), 3 * (10 ** 7000 - 1) // 9)
    assert parse_number("1." + "0" * 5000 + "1") == 1 + Fraction(
        1, 10 ** 5001)
    assert parse_number("1*2^" + "0" * 5000 + "3") == 8


@given(integers(0, 60_000), integers(0, 40_000), integers(-600, 600),
       integers(0, 2 ** 64))
@settings(max_examples=30, deadline=None)
def test_number_text_is_read_back_exactly(num_bits, den_bits, e, seed):
    # the writer of report numbers, read back by the one reader, at sizes
    # past the digit guard of str() and int()
    rng = random.Random(seed)
    num = rng.getrandbits(num_bits) * rng.choice((-1, 1))
    den = rng.getrandbits(den_bits) + 1
    for exact in (num, Fraction(num, den), Dyadic(num, e)):
        text = number_text(exact)
        want = exact.to_fraction() if isinstance(exact, Dyadic) else exact
        assert parse_number(text) == want
        if not isinstance(exact, Dyadic) and max(num_bits, den_bits) < 1000:
            assert text == str(exact)


def test_parse_number_reads_an_exponent_up_to_its_bound():
    assert parse_number("1*2^524288") == 1 << 524288
    assert parse_number("-1*2^-524288") == Fraction(-1, 1 << 524288)
    assert parse_number("1.5e524288") == 15 * 10 ** 524287


# other spellings of one value, other scripts' digits, forms Fraction()
# reads and texts that are no number
@mark.parametrize("text", [
    " 1 ", "1 ", "1\n", "1_0", "+4", "+4/2", "4/+2", "1/-2", "٣", "1*2^-١",
    "Inf", "inf", "nan", ".5", "1.", "-.5", "1e", "e5", "1e5.5", "1.5/2",
    "1/2/3", "1.5*2^3", "1*2^+3", "2^3", "1*3^2", "--1", "0x10", "1 /2",
    "", "-", "/"])
def test_parse_number_refuses_every_other_spelling(text):
    with raises(ValueError):
        parse_number(text)


def test_parse_number_refuses_a_ratio_over_zero():
    with raises(ZeroDivisionError):
        parse_number("1/00")


@mark.parametrize("text", ["1e10000000", "-1e-10000000", "0e10000000",
                           "1*2^100000000000", "1*2^-100000000000",
                           "1*2^524289", "0*2^-524289", "1.5e524290",
                           "0.5e-524288"])
def test_parse_number_refuses_an_exponent_past_every_format(text):
    # refused before any power is built: each would take seconds or more
    start = time.perf_counter()
    with raises(ValueError):
        parse_number(text)
    assert time.perf_counter() - start < 0.1


def test_a_zero_builds_no_power():
    # 10^524288 takes tens of milliseconds to build; a zero needs none
    times = {}
    for text in ("1e524288", "0e524288"):
        start = time.perf_counter()
        parse_number(text)
        times[text] = time.perf_counter() - start
    assert times["0e524288"] * 10 < times["1e524288"]


def _reads_back(x: SimFloat) -> None:
    """``x`` is read back from each text the program writes for it: its
    value (``m*2^e``, ``0``, ``inf`` or ``-inf``) and its bit pattern."""
    for text in (str(x), x.to_hex()):
        assert parse_value(x.fmt, text) == x, text


@mark.parametrize("k, l", [(k, l) for k in (2, 3, 4) for l in (2, 3, 4)])
def test_every_pattern_of_a_small_format_reads_back(k, l):
    fmt = FloatFormat(k, l)
    for bits in range(1 << fmt.total_bits):
        try:
            x = SimFloat(fmt, bits)
        except ValueError:
            continue  # NaN patterns
        _reads_back(x)


@given(integers(0, (1 << 32) - 1), integers(0, (1 << 64) - 1))
def test_random_float32_and_float64_patterns_read_back(b32, b64):
    for fmt, bits in ((FLOAT32, b32), (FLOAT64, b64)):
        try:
            x = SimFloat(fmt, bits)
        except ValueError:
            continue  # NaN patterns
        _reads_back(x)


def test_the_extremes_of_the_widest_format_read_back():
    fmt = FloatFormat(FloatFormat.MAX_MANTISSA_BITS,
                      FloatFormat.MAX_EXPONENT_BITS)
    inf = SimFloat.inf(fmt).bits
    sign = 1 << (fmt.total_bits - 1)
    # the smallest subnormal and normal, the largest subnormal and finite
    # value, of both signs; zero and the infinities
    for bits in (1, 1 << fmt.k, (1 << fmt.k) - 1, inf - 1):
        _reads_back(SimFloat(fmt, bits))
        _reads_back(SimFloat(fmt, bits | sign))
    for bits in (0, inf, inf | sign):
        _reads_back(SimFloat(fmt, bits))
    assert str(SimFloat(fmt, 1)) == "1*2^-262378"


@given(fractions())
def test_a_fraction_reads_back_from_its_text(q):
    assert parse_number(str(q)) == q


@mark.parametrize("text", ["0.1", "15", "1/3", "0.03125"])
def test_parse_value_rejects_unrepresentable(text):
    with raises(ValueError):
        parse_value(F23, text)


def test_str_forms():
    assert str(SimFloat.zero(F23)) == "0"
    assert str(SimFloat.inf(F23, -1)) == "-inf"
    assert str(parse_value(F23, "0.75")) == "3*2^-2"


@given(sampled_from(finite_values(F34)), sampled_from(finite_values(F34)))
def test_addition_is_commutative(x, y):
    for mode in ROUNDING_MODES:
        assert add_float(x, y, mode) == add_float(y, x, mode)

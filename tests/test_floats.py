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
from fractions import Fraction

import numpy as np
from pytest import mark, raises
from hypothesis import given, settings
from hypothesis.strategies import floats, integers, sampled_from

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
    ulp,
    values_in_range,
)
from boundedsum.dyadic import floor_log2_fraction
from boundedsum.floats import _pattern_ranges, add_bits

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


def oracle_round(q: Fraction, fmt: FloatFormat, mode: str, table) -> SimFloat:
    """Independent rounding: choose among the format's values by definition.

    The infinity working value ``2^(emax+1)`` participates as an ordinary
    grid point with an even mantissa; whatever lands on or beyond it is
    infinite.
    """
    values, parity = table
    inf_v = fmt.inf_value.to_fraction()
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
    parity[fmt.inf_value.to_fraction()] = 0
    parity[-fmt.inf_value.to_fraction()] = 0
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
    y = SimFloat.from_parts(fmt, 1, fmt.emax - fmt.k - 1 - rng.getrandbits(1),
                            rng.randrange(1 << fmt.k)).bits
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
    if f.is_zero():
        assert x == 0.0
    else:
        assert f.to_fraction() == Fraction(x)


def test_float64_format_constants():
    assert FLOAT64.k == 52
    assert FLOAT64.bias == 1023
    assert (FLOAT64.emin, FLOAT64.emax) == (-1022, 1023)
    assert FLOAT64.total_bits == 64
    assert FLOAT64.min_normal.to_fraction() == Fraction(2) ** -1022
    assert FLOAT64.min_subnormal.to_fraction() == Fraction(2) ** -1074
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
    assert F23.inf_value.to_fraction() == 16
    assert F23.max_finite.to_fraction() == Fraction(14)
    assert F23.min_normal.to_fraction() == Fraction(1, 4)
    assert F23.min_subnormal.to_fraction() == Fraction(1, 16)


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
    assert add_float(one, -inf) == -inf
    assert add_float(inf, inf) == inf
    with raises(InvalidOperation):
        add_float(inf, -inf)


_ONE = parse_value(F23, "1")
_TOP = parse_value(F23, "14")
_INF = SimFloat.inf(F23)


@mark.parametrize("add, rounded", [
    ((_ONE, -_ONE), Dyadic(0)),                          # exact zero
    ((_TOP, _TOP), Dyadic(1, 5)),                         # overflows
    ((_INF, _ONE), F23.inf_value),                       # infinite operand
], ids=["exact-zero", "overflow", "infinite-operand"])
def test_unknown_rounding_mode_is_refused_even_without_a_rounding_step(
        add, rounded):
    with raises(ValueError, match="unknown rounding mode"):
        add_float(*add, "bogus")
    with raises(ValueError, match="unknown rounding mode"):
        round_dyadic(rounded, F23, "nope")


def test_ulp_exhaustive():
    for x in finite_values(F23):
        spacing = ulp(x).to_fraction()
        if x.kind in ("zero", "subnormal"):
            assert spacing == Fraction(2) ** (F23.emin - F23.k)
        else:
            assert spacing == Fraction(2) ** (x.exponent - F23.k)
    with raises(ValueError):
        ulp(SimFloat.inf(F23))


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
    tiny = fmt.min_subnormal.to_fraction()
    half_ulp = Fraction(2) ** (fmt.emax - fmt.k - 1)
    edges = [n_max, n_max + half_ulp, fmt.inf_value.to_fraction(), tiny,
             tiny / 2, fmt.min_normal.to_fraction(), n_max - 2 * half_ulp]
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
                if sign_bit and x.is_zero():
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
    with raises(ValueError):
        SimFloat.from_parts(F23, 1, 9, 0)        # exponent out of range
    with raises(ValueError):
        SimFloat.from_parts(F23, 1, 0, 4)        # mantissa field too wide
    with raises(ValueError):
        SimFloat.from_parts(F23, 1, 0, 1, subnormal=True)
    x = SimFloat.from_parts(F23, -1, 1, 2)
    assert x.to_fraction() == -(1 + Fraction(2, 4)) * 2


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

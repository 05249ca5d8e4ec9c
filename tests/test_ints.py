"""Fixed-width integers: both overflow policies, exhaustively."""

from itertools import product

from pytest import mark, raises

from boundedsum import IntFormat, KInt, add_int


def wrap_oracle(fmt, total):
    r = total % fmt.modulus
    if fmt.signed and r > fmt.max_value:
        r -= fmt.modulus
    return r


def clamp_oracle(fmt, total):
    return min(max(total, fmt.min_value), fmt.max_value)


@mark.parametrize("bits", [1, 2, 3, 4, 8])
@mark.parametrize("signed", [False, True])
def test_format_range(bits, signed):
    fmt = IntFormat(bits, signed, "wraparound")
    if signed:
        assert fmt.min_value == -(1 << (bits - 1))
        assert fmt.max_value == (1 << (bits - 1)) - 1
    else:
        assert fmt.min_value == 0
        assert fmt.max_value == (1 << bits) - 1
    assert fmt.modulus == 1 << bits


def test_format_validation():
    with raises(ValueError):
        IntFormat(0, True, "wraparound")
    with raises(ValueError):
        IntFormat(8, True, "checked")


@mark.parametrize("signed", [False, True])
def test_add_exhaustive_both_policies(signed):
    wrapped = IntFormat(4, signed, "wraparound")
    clamped = IntFormat(4, signed, "saturating")
    domain = range(wrapped.min_value, wrapped.max_value + 1)
    for x, y in product(domain, repeat=2):
        got_w = add_int(KInt(wrapped, x), KInt(wrapped, y))
        assert got_w.value == wrap_oracle(wrapped, x + y), (x, y)
        got_c = add_int(KInt(clamped, x), KInt(clamped, y))
        assert got_c.value == clamp_oracle(clamped, x + y), (x, y)


def test_wrap_and_clamp_far_from_range():
    fmt = IntFormat(8, False, "wraparound")
    assert fmt.wrap(256) == 0
    assert fmt.wrap(257 + 512) == 1
    assert fmt.wrap(-1) == 255
    sat = IntFormat(8, True, "saturating")
    assert sat.clamp(10 ** 9) == 127
    assert sat.clamp(-(10 ** 9)) == -128
    assert sat.clamp(5) == 5


def test_kint_validates_range():
    fmt = IntFormat(3, True, "wraparound")
    KInt(fmt, -4)
    KInt(fmt, 3)
    with raises(ValueError):
        KInt(fmt, 4)
    with raises(ValueError):
        KInt(fmt, -5)


def test_kint_identity():
    fmt = IntFormat(8, False, "wraparound")
    assert KInt(fmt, 7) == KInt(fmt, 7)
    assert KInt(fmt, 7) != KInt(fmt, 8)
    assert KInt(fmt, 7) != KInt(IntFormat(8, False, "saturating"), 7)
    assert KInt(fmt, 7).value == 7
    assert hash(KInt(fmt, 7)) == hash(KInt(fmt, 7))
    assert str(KInt(fmt, 7)) == "7"


def test_negation_respects_policy():
    wrap = IntFormat(8, True, "wraparound")
    # a negation is settled by the format's overflow policy
    assert KInt(wrap, wrap.settle(-5)).value == -5
    # -(-128) does not exist in the type; wraparound folds it back
    assert KInt(wrap, wrap.settle(128)).value == -128
    sat = IntFormat(8, True, "saturating")
    assert KInt(sat, sat.settle(128)).value == 127


def test_add_rejects_mismatched_formats():
    a = KInt(IntFormat(8, False, "wraparound"), 1)
    b = KInt(IntFormat(8, False, "saturating"), 1)
    with raises(ValueError):
        add_int(a, b)

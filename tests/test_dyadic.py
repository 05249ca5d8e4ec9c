"""Dyadic values: normal form, conversions and notation, against the
Fraction oracle."""

from fractions import Fraction

from pytest import raises
from hypothesis import given
from hypothesis.strategies import fractions, integers

from boundedsum import Dyadic, floor_log2_fraction

mantissas = integers(min_value=-(1 << 70), max_value=1 << 70)
exponents = integers(min_value=-80, max_value=80)


def dy(m, e):
    return Dyadic(m, e)


# ---------------------------------------------------------------------------
# Construction and normal form
# ---------------------------------------------------------------------------

def test_normal_form_mantissa_is_odd_or_zero():
    assert Dyadic(4, 0) == Dyadic(1, 2)
    assert Dyadic(12, -2) == Dyadic(3, 0)
    assert Dyadic(0, 37) == Dyadic(0)
    assert (Dyadic(0, 37).m, Dyadic(0, 37).e) == (0, 0)
    x = Dyadic(96, -5)
    assert x.m % 2 == 1


@given(mantissas, exponents)
def test_value_preserved_by_normalization(m, e):
    assert dy(m, e).to_fraction() == Fraction(m) * Fraction(2) ** e


def test_from_int():
    # an int is the mantissa with the default exponent 0
    assert Dyadic(10).to_fraction() == 10
    assert Dyadic(-7) == Dyadic(-7, 0)
    assert (Dyadic(-7).m, Dyadic(-7).e) == (-7, 0)
    assert (Dyadic(0).m, Dyadic(0).e) == (0, 0)


@given(fractions(max_denominator=1 << 20))
def test_from_fraction_accepts_exactly_the_dyadics(f):
    den = f.denominator
    if den & (den - 1) == 0:
        assert Dyadic.from_fraction(f).to_fraction() == f
    else:
        with raises(ValueError):
            Dyadic.from_fraction(f)


def test_from_fraction_rejects_third():
    with raises(ValueError):
        Dyadic.from_fraction(Fraction(1, 3))


@given(mantissas, exponents, mantissas, exponents)
def test_equality_and_hash_follow_the_value(ma, ea, mb, eb):
    a, b = dy(ma, ea), dy(mb, eb)
    assert (a == b) == (a.to_fraction() == b.to_fraction())
    assert a == dy(ma << 3, ea - 3) and hash(a) == hash(dy(ma << 3, ea - 3))


@given(mantissas, exponents, mantissas, exponents)
def test_comparisons_match_fractions(ma, ea, mb, eb):
    # equality follows the value; a Dyadic has no order of its own, so an
    # ordering must go through to_fraction()
    a, b = dy(ma, ea), dy(mb, eb)
    fa, fb = a.to_fraction(), b.to_fraction()
    assert (a == b) == (fa == fb)
    assert (a != b) == (fa != fb)
    for compare in (lambda: a < b, lambda: a <= b, lambda: a > b,
                    lambda: a >= b):
        with raises(TypeError):
            compare()


# ---------------------------------------------------------------------------
# Structure queries
# ---------------------------------------------------------------------------

@given(mantissas, exponents)
def test_floor_log2(m, e):
    # the binade of a dyadic value, as the sensitivity bounds read it
    a = dy(m, e)
    mag = abs(a.to_fraction())
    if mag == 0:
        with raises(ValueError):
            floor_log2_fraction(mag)
        return
    b = floor_log2_fraction(mag)
    assert Fraction(2) ** b <= mag < Fraction(2) ** (b + 1)
    assert b == a.e + abs(a.m).bit_length() - 1


@given(fractions(max_denominator=10 ** 9, min_value=Fraction(1, 10 ** 9)))
def test_floor_log2_fraction(f):
    b = floor_log2_fraction(f)
    assert Fraction(2) ** b <= f < Fraction(2) ** (b + 1)


@given(mantissas, exponents, integers(min_value=-90, max_value=90))
def test_scaled(m, e, grid):
    a = dy(m, e)
    fr = a.to_fraction() / Fraction(2) ** grid
    if fr.denominator == 1:
        got = a.scaled(grid)
        assert isinstance(got, int)
        assert got == fr
    else:
        with raises(ValueError, match="not a multiple"):
            a.scaled(grid)


def test_str_uses_power_notation():
    assert str(Dyadic(3, -2)) == "3*2^-2"
    assert str(Dyadic(-5, 4)) == "-5*2^4"

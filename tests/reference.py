"""Independent references the tests check the program against; no
command runs them.  The couplings are the construction behind the
shuffled sensitivity rules: one shared random permutation turns unordered
adjacency into ordered adjacency, so an ordered-metric bound serves the
add/remove world.  The exact DP check's worst ratio is built here as a
binary Fraction from its factors, and decided against ``e^x`` on that
Fraction."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Tuple

from boundedsum.data import Dataset, check_materialize, code_key
from boundedsum.floats import FloatFormat, SimFloat, _pattern_ranges
from boundedsum.ints import KInt
from boundedsum.metrics import histogram
from boundedsum.sensitivity import PreconditionFailed
from boundedsum.summation import _arranged, _shuffle


def values_in_range(fmt: FloatFormat, lo: SimFloat, hi: SimFloat,
                    include_subnormals: bool = False) -> list:
    """All finite values of ``fmt`` in ``[lo, hi]``, ascending.

    Zero is always eligible; nonzero subnormals only when asked for.  Only
    the patterns inside the bounds are visited.
    """
    return [SimFloat(fmt, bits)
            for r in _pattern_ranges(fmt, lo, hi, include_subnormals)
            for bits in r]


def negated(v: SimFloat) -> SimFloat:
    """``-v``: the sign bit flipped (a zero stays ``+0``)."""
    return SimFloat(v.fmt, v.bits ^ v.fmt._kernel[3])


def magnitude(v: SimFloat) -> SimFloat:
    """``|v|``: the sign bit cleared."""
    return SimFloat(v.fmt, v.bits & (v.fmt._kernel[3] - 1))


def d_mod(x, y, modulus: int | None = None) -> int:
    """Shorter way around the residue circle between ``x`` and ``y``."""
    if isinstance(x, KInt):
        if modulus is None:
            modulus = x.fmt.modulus
        x = x.value
    if isinstance(y, KInt):
        y = y.value
    if modulus is None or modulus < 1:
        raise ValueError("a positive modulus is required")
    d = (x - y) % modulus
    return min(d, modulus - d)


def _check_same_frame(u: Dataset, v: Dataset) -> None:
    if u.fmt != v.fmt or u.lower != v.lower or u.upper != v.upper:
        raise ValueError("coupled datasets must share format and bounds")


def couple_sym(u: Dataset, v: Dataset, seed: int) -> Tuple[Dataset, Dataset]:
    """Couple the shuffles of two add/remove-adjacent datasets.

    Returns ``(u', v')`` where ``u'`` is a uniform shuffle of ``u``,
    ``v'`` is a uniform shuffle of ``v``, and the two differ by one
    insertion or deletion: the shorter side is shuffled, and the leftover
    element is inserted at a uniform position.  Hence ``d_id(u', v') <=
    1`` always — unordered adjacency became ordered adjacency, so any
    ordered-metric bound applies to the shuffled release.

    The multisets are read off the runs, and a pair past
    ``MATERIALIZE_LIMIT`` elements is refused before any list is built.
    """
    _check_same_frame(u, v)
    hu, hv = histogram(u), histogram(v)
    extra_u = hu - hv
    extra_v = hv - hu
    d = sum(extra_u.values()) + sum(extra_v.values())
    if d > 1:
        raise PreconditionFailed(f"datasets are not sym-adjacent (distance {d})")
    check_materialize(max(u.n, v.n))
    rng = random.Random(seed)
    if d == 0:
        order = u.codes()
        _shuffle(order, rng)
        return _arranged(u, order), _arranged(v, order)
    extra = next(iter(extra_u or extra_v))
    base = (v if extra_u else u).codes()
    _shuffle(base, rng)
    inserted = list(base)
    inserted.insert(rng.randrange(len(base) + 1), extra)
    if extra_u:
        return _arranged(u, inserted), _arranged(v, base)
    return _arranged(u, base), _arranged(v, inserted)


def couple_co(u: Dataset, v: Dataset, seed: int) -> Tuple[Dataset, Dataset]:
    """Couple the shuffles of two replace-one-adjacent datasets.

    Aligns the shared multiset position by position, parks the differing
    elements in the same slot, and applies one shared shuffle to both
    sides.  Each output is a uniform shuffle of its input and they differ
    in at most one position: ``d_ham(u', v') <= 1``.

    As in :func:`couple_sym`, the multisets come from the runs and a pair
    past ``MATERIALIZE_LIMIT`` elements is refused before any list.
    """
    _check_same_frame(u, v)
    if u.n != v.n:
        raise PreconditionFailed("co-adjacent datasets must share a length")
    hu, hv = histogram(u), histogram(v)
    extra_u = hu - hv
    extra_v = hv - hu
    if sum(extra_u.values()) > 1:
        raise PreconditionFailed("datasets are not co-adjacent")
    check_materialize(u.n)
    common = hu & hv
    a = [x for x in sorted(common, key=lambda x: code_key(u.fmt, x))
         for _ in range(common[x])]
    b = list(a)
    if extra_u:
        a.append(next(iter(extra_u)))
        b.append(next(iter(extra_v)))
    perm = list(range(len(a)))
    _shuffle(perm, random.Random(seed))
    return (_arranged(u, [a[i] for i in perm]),
            _arranged(v, [b[i] for i in perm]))


def power_sum(p: int, terms) -> int:
    """The sum of the terms ``(a, b)``, each ``2^a * p^b``."""
    return sum(p ** b << a for a, b in terms)


def power_ratio(p: int, top, bottom) -> Fraction:
    """The ratio an :class:`ExactDPReport`'s ``factors`` stand for:
    ``top``'s :func:`power_sum` over ``bottom``'s."""
    return Fraction(power_sum(p, top), power_sum(p, bottom))


def leq_exp(ratio: Fraction, exponent: Fraction) -> bool:
    """``ratio <= e^exponent`` on the Fraction ``ratio``: its interval and
    ``e^exponent``'s, at 64 bits and twice as many until they part, with
    the exact answers at ``exponent == 0``, at ``ratio == 1`` and past the
    ratio's bit length."""
    import mpmath
    ratio, exponent = Fraction(ratio), Fraction(exponent)
    if exponent == 0:
        return ratio <= 1
    if ratio == 1:
        return exponent > 0
    # e^x > 2^x for x > 0, and ratio < 2^(its bit lengths' difference + 1)
    if exponent >= max(ratio.numerator.bit_length()
                       - ratio.denominator.bit_length() + 1, 0):
        return True
    iv = mpmath.iv
    saved, prec = iv.prec, 64
    try:
        while True:
            iv.prec = prec
            e = iv.exp(iv.mpf(exponent.numerator) / exponent.denominator)
            q = iv.mpf(ratio.numerator) / iv.mpf(ratio.denominator)
            if q.b < e.a:
                return True
            if q.a > e.b:
                return False
            prec *= 2
    finally:
        iv.prec = saved

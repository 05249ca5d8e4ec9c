"""The machine-float fast paths against the model, class by class.

On float32 and float64 the folds add on the machine's floats
(:func:`~boundedsum.floats._machine_add`) and the shift subtracts on them
(:func:`~boundedsum.summation._machine_shift`); each must give the
model's pattern wherever it gives one.  The classes cross operands of
either sign, each exponent field of one set with each of the edge
mantissas: 0 to 3, the three around the half-way point and the top two.

* An add must equal :func:`~boundedsum.floats.add_bits` in every rounding
  mode wherever its sum is finite; a fold refolds a stretch whose machine
  state is not finite on patterns.
* A shift ``x - lower`` on the machine must be exact or refused exactly
  where :func:`~boundedsum.summation._grid_shift`'s is, with the same
  pattern.
* Two Kahan steps of one addend from a running sum, on the machine
  (:func:`~boundedsum.summation._kahan_floats`), must give the state of
  two :func:`~boundedsum.summation._kahan_bits` steps wherever that state
  is finite; the second step starts from the first one's compensation,
  most often not 0.

Each has one disagreement, a ``-0`` result that the model gives as
``+0``: ``-0 + -0``, ``-0 - 0``, and the Kahan steps of ``-0`` from
``-0``.  No ``-0`` reaches a fold or a shift, since no code is ``-0``.

Tier-1 crosses the edge exponents with themselves, for the Kahan steps
each pair in one rounding mode.  Run as a script, ``python
tests/test_machine_classes.py`` checks the full classes: every finite
exponent field crossed with the edge exponents, both ways for the shift,
and the Kahan steps of every edge pair in every mode; it exits 1 on a
disagreement.
"""

import math
import sys
import time
from functools import partial

from pytest import mark

from boundedsum import FLOAT32, FLOAT64, ROUNDING_MODES, Dataset, SimFloat
from boundedsum.floats import (_machine_add, _native, _to_floats,
                               _to_patterns, add_bits)
from boundedsum.summation import (_grid_shift, _kahan_bits, _kahan_floats,
                                  _machine_shift)

# the exponent fields at the subnormal edge, one binade past the
# mantissa's width, near 1, in the middle and at the top
EDGE_EXPONENTS = {
    FLOAT32: (0, 1, 2, 3, 25, 64, 126, 127, 128, 190, 253, 254),
    FLOAT64: (0, 1, 2, 3, 54, 512, 1022, 1023, 1024, 1535, 2044, 2045,
              2046),
}


def patterns(fmt, exponents) -> list:
    """Every pattern of either sign with an exponent field of
    ``exponents`` and an edge mantissa."""
    k = fmt.mantissa_bits
    half, top = 1 << (k - 1), (1 << k) - 1
    mantissas = (0, 1, 2, 3, half - 1, half, half + 1, top - 1, top)
    sign = fmt._kernel[3]
    return [s | e << k | m for s in (0, sign) for e in exponents
            for m in mantissas]


def add_disagreements(fmt, mode: str, left: list, right: list) -> list:
    """The pairs ``(a, b)``, ``a`` of ``left`` and ``b`` of ``right``, whose
    machine sum is finite and not the pattern ``add_bits`` gives."""
    native = _native(fmt)
    add = _machine_add(native[0], mode)
    kernel = fmt._kernel
    ys = _to_floats(native, right)
    out = []
    for a, x in zip(left, _to_floats(native, left)):
        sums = [add(x, y) for y in ys]
        out += [(a, b) for b, got, s, want in zip(
            right, _to_patterns(native, sums), sums,
            [add_bits(kernel, a, b, mode) for b in right])
            if got != want and math.isfinite(s)]
    return out


def shift_disagreements(fmt, lowers: list, xs: list) -> list:
    """The pairs ``(lower, x)`` whose shift ``x - lower`` on the machine's
    floats is not what the grid gives: a pattern where the grid refuses,
    no pattern where it gives one, or another pattern."""
    native = _native(fmt)
    out = []
    for lower in lowers:
        frame = SimFloat(fmt, lower)
        ds = Dataset.unchecked(fmt, frame, frame, ())
        for x in xs:
            try:
                want = _grid_shift(ds, [x])
            except ValueError:
                want = None
            if _machine_shift(native, lower, [x]) != want:
                out.append((lower, x))
    return out


def kahan_disagreements(fmt, mode: str, totals: list, addends: list) -> list:
    """The pairs ``(a, b)``, ``a`` of ``totals`` and ``b`` of ``addends``,
    whose two Kahan steps adding ``b`` to the state ``(a, 0)`` end in a
    finite machine state that is not the two steps' on patterns."""
    native = _native(fmt)
    add = _machine_add(native[0], mode)
    kernel = fmt._kernel
    ys = _to_floats(native, addends)
    out = []
    for a in totals:
        for b, y in zip(addends, ys):
            got = _kahan_floats(native, add, (a, 0), (y, y))
            if got is None:
                continue
            first = _kahan_bits(kernel, a, 0, b, mode)[:2]
            if tuple(got) != _kahan_bits(kernel, *first, b, mode)[:2]:
                out.append((a, b))
    return out


def minus_zero(fmt) -> tuple:
    """The one disagreement of the adds, ``-0 + -0``, and of the shifts,
    ``-0 - 0``, as :func:`add_disagreements` and
    :func:`shift_disagreements` list them."""
    sign = fmt._kernel[3]
    return [(sign, sign)], [(0, sign)]


@mark.parametrize("mode", ROUNDING_MODES)
@mark.parametrize("fmt", [FLOAT32, FLOAT64])
def test_machine_adds_are_add_bits_on_the_edge_classes(fmt, mode):
    edges = patterns(fmt, EDGE_EXPONENTS[fmt])
    assert add_disagreements(fmt, mode, edges, edges) == minus_zero(fmt)[0]


@mark.parametrize("mode", ROUNDING_MODES)
@mark.parametrize("fmt", [FLOAT32, FLOAT64])
def test_machine_kahan_steps_are_kahan_bits_on_the_edge_classes(fmt, mode):
    # a quarter of the running sums in each mode: each pair in one mode
    edges = patterns(fmt, EDGE_EXPONENTS[fmt])
    totals = edges[ROUNDING_MODES.index(mode)::len(ROUNDING_MODES)]
    known = [(a, b) for a, b in minus_zero(fmt)[0] if a in totals]
    assert kahan_disagreements(fmt, mode, totals, edges) == known


@mark.parametrize("fmt", [FLOAT32, FLOAT64])
def test_machine_shift_is_the_grid_shift_on_the_edge_classes(fmt):
    edges = patterns(fmt, EDGE_EXPONENTS[fmt])
    assert shift_disagreements(fmt, edges, edges) == minus_zero(fmt)[1]


def main() -> int:
    """The full classes of both formats; 1 if one disagrees."""
    failed = 0
    for fmt in (FLOAT32, FLOAT64):
        every = patterns(fmt, range((1 << fmt.exponent_bits) - 1))
        edges = patterns(fmt, EDGE_EXPONENTS[fmt])
        adds, shifts = minus_zero(fmt)
        full, edge = len(every) * len(edges), len(edges) ** 2
        checks = [(f"{mode} adds", full, partial(
            add_disagreements, fmt, mode, every, edges), adds)
                  for mode in ROUNDING_MODES]
        checks += [(f"{mode} Kahan steps", edge, partial(
            kahan_disagreements, fmt, mode, edges, edges), adds)
                   for mode in ROUNDING_MODES]
        checks += [("shifts from every lower", full, partial(
            shift_disagreements, fmt, every, edges), shifts),
                   ("shifts of every element", full, partial(
                       shift_disagreements, fmt, edges, every), shifts)]
        for what, cases, disagreements, known in checks:
            start = time.perf_counter()
            got = disagreements()
            failed += got != known
            print(f"{fmt} {what}: {cases} cases, "
                  f"{'ok' if got == known else got[:10]} "
                  f"({time.perf_counter() - start:.1f} s)", flush=True)
    return int(failed > 0)


if __name__ == "__main__":
    sys.exit(main())

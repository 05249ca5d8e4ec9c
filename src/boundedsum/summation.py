"""Bounded-sum implementations over emulated arithmetic.

Four summation algorithms, each a faithful model of the corresponding
real-world routine:

* ``iterative`` — a single left fold ``acc = acc (+) v_i``;
* ``pairwise``  — recursive splitting at the largest power of two below
  ``n`` (the classic cascade shape: a ``2^j + 1``-element sum ends with
  one scalar add on top of a perfectly balanced block);
* ``kahan``     — compensated summation, returning the running sum
  without folding the compensation term back in;
* ``split``     — separate accumulators for negative and nonnegative
  elements.  The float variant accumulates partials with round-toward-
  zero, clamps an infinite partial back to the finite extreme, and
  combines with one round-to-nearest add; the integer variant just adds
  under the format's policy.

A fifth pseudo-algorithm, ``exact``, releases the unrounded sum itself
and serves as the idealized reference every attack is measured against.

Overflow: the float model has no NaN, so an add of opposite infinities
is undefined (``add_float`` raises).  Kahan and pairwise could reach one
on in-range data — Kahan's compensation step subtracts an overflowed
running sum, and pairwise can overflow its two halves in opposite
directions — where IEEE hardware would produce NaN.  Both instead
release the first infinite partial sum the computation reaches: Kahan
returns the running sum as soon as it is infinite, and pairwise returns
a left operand that is already infinite without adding its sibling.
This is the iterative fold's rule too (finite addends cannot leave
infinity).  Kahan's compensation is not a partial sum: it estimates the
rounding error of the running sum, which is finite, and overflows only
when the intermediate ``t - total`` rounds past the largest finite
value.  An infinite compensation is therefore dropped and the fold
continues, so no release takes a sign that no running sum had.  These rules change no result that does not overflow.

All of them consume run-length encoded datasets and never build the
element list, so attack datasets with billions of repeats sum in
milliseconds without a single approximation:

* ``iterative``, ``split`` and ``kahan`` fold a float run with one
  engine, ``_fold_run``: it steps literally and jumps whole periods of up
  to four steps once the state and every add of a step provably move
  linearly (an absorbed addend ends the run at once).  Iterative and
  split steps make one add (``_add_run``), a Kahan step four
  (``_kahan_run``); a run with no such period steps literally, up to
  ``MATERIALIZE_LIMIT`` steps.  Integer runs have closed forms;
* ``pairwise`` sums a subtree that lies inside one run as a memoized
  block of ``(code, count)``, and recurses on positions only where a
  subtree straddles a run boundary: O(runs * log n) adds;
* ``exact`` multiplies each value by its count.

Every fold runs on the dataset's own code runs (see
:mod:`boundedsum.data`): a float's bit pattern, an integer's value.  The
float state of every algorithm is a bit pattern, a run of one is one
:func:`~boundedsum.floats.add_bits` (a Kahan step four of them, with
negation a flip of the sign bit), and ``_fold_run`` watches exact values
as integer counts of the finest spacing (:meth:`SimFloat.to_grid`).  A
value object is built only for the release.
Integer releases are plain-int closed forms: wraparound addition is
associative, so every algorithm releases the wrapped exact sum, and
saturating folds clamp plain ints.  The transforms map code runs to code
runs too, and build their datasets unchecked.

The module also houses the dataset transforms (truncation, seeded random
permutation, bound shifting) and the two overflow precondition checks.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from operator import sub
from typing import List, Optional, Tuple, Union

from .data import (Dataset, MATERIALIZE_LIMIT, code_key, code_value,
                   exact_value)
from .dyadic import Dyadic
from .floats import (ROUNDING_MODES, FloatFormat, SimFloat, _bits_grid,
                     _check_mode, _from_bits, _grid_bits, add_bits,
                     round_dyadic)
from .ints import IntFormat, KInt

__all__ = [
    "SumMethod", "SumOutcome", "Truncate", "RandomPermutation", "ShiftBounds",
    "bs_exact", "bs_iterative", "bs_pairwise", "bs_kahan", "bs_split",
    "run_sum", "truncate", "random_permutation",
    "check_multiplication", "float_overflow_check",
    "PERMUTATION_ALGORITHM", "ALGORITHMS",
]

ALGORITHMS = ("iterative", "pairwise", "kahan", "split", "exact")

PERMUTATION_ALGORITHM = "sorted+fisher-yates/mt19937-randrange"


# ---------------------------------------------------------------------------
# Method descriptions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Truncate:
    n_max: int

    def to_json(self):
        return {"kind": "truncate", "n_max": self.n_max}


@dataclass(frozen=True)
class RandomPermutation:
    seed: int

    def to_json(self):
        return {"kind": "random_permutation", "seed": self.seed}


@dataclass(frozen=True)
class ShiftBounds:
    def to_json(self):
        return {"kind": "shift_bounds"}


Transform = Union[Truncate, RandomPermutation, ShiftBounds]


def transform_from_json(d: dict) -> Transform:
    kind = d["kind"]
    if kind == "truncate":
        return Truncate(int(d["n_max"]))
    if kind == "random_permutation":
        return RandomPermutation(int(d["seed"]))
    if kind == "shift_bounds":
        return ShiftBounds()
    raise ValueError(f"unknown transform kind {kind!r}")


@dataclass(frozen=True)
class SumMethod:
    """A summation recipe: transforms applied in order, then an algorithm.

    ``rounding`` selects the mode used by iterative/pairwise/kahan float
    adds and must be one of ``ROUNDING_MODES``.  The split algorithm
    ignores it: its partials always accumulate toward zero and the final
    combine rounds to nearest.  The ``exact`` algorithm ignores it too —
    it never rounds at all.
    """

    algorithm: str = "iterative"
    rounding: str = "banker"
    transforms: Tuple[Transform, ...] = ()

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}")
        if self.rounding not in ROUNDING_MODES:
            raise ValueError(f"rounding must be one of {ROUNDING_MODES}")

    def to_json(self):
        return {"algorithm": self.algorithm, "rounding": self.rounding,
                "transforms": [t.to_json() for t in self.transforms]}

    @classmethod
    def from_json(cls, d: dict) -> "SumMethod":
        return cls(d.get("algorithm", "iterative"),
                   d.get("rounding", "banker"),
                   tuple(transform_from_json(t) for t in d.get("transforms", ())))


@dataclass
class SumOutcome:
    """Result of :func:`run_sum` plus everything the caller must know.

    ``value`` is a SimFloat or KInt for the emulated algorithms; the
    ``exact`` algorithm releases the unrounded value itself (a Dyadic for
    float datasets, a plain int for integer ones).
    """

    value: Union[SimFloat, KInt, Dyadic, int]
    clamp_events: Tuple[str, ...] = ()
    offset: Optional[Tuple[Union[SimFloat, KInt], int]] = None
    permutation: Optional[str] = None


# ---------------------------------------------------------------------------
# Exact reference sum
# ---------------------------------------------------------------------------

def bs_exact(dataset: Dataset):
    """Infinite-precision sum: a Dyadic for floats, an int for integers."""
    fmt = dataset.fmt
    if isinstance(fmt, FloatFormat):
        return Dyadic(sum(_bits_grid(fmt._kernel, x) * c
                          for x, c in dataset.runs), fmt.emin - fmt.k)
    return sum(x * c for x, c in dataset.runs)


# ---------------------------------------------------------------------------
# Float run folds
# ---------------------------------------------------------------------------

def _region_of_exact(q: int, k: int) -> Tuple[int, int]:
    """The rounding region of the exact sum ``q`` (in grid units, see
    :meth:`SimFloat.to_grid`) in a format of ``k`` mantissa bits: its
    signed binade, or the subnormal band."""
    a = abs(q)
    if a < 1 << k:  # below 2^emin
        return (-(1 << k), 1 << k)
    lo = 1 << (a.bit_length() - 1)
    return (lo, 2 * lo) if q > 0 else (-2 * lo, -lo)


def _add_run(fmt: FloatFormat, s: int, c: int, count: int, mode: str) -> int:
    """Fold ``count`` copies of the pattern ``c`` into the pattern ``s``
    with per-add rounding.

    Semantically identical to ``for _ in range(count): s = s (+) c``, and
    a run of one is exactly one :func:`~boundedsum.floats.add_bits`.  A
    longer run is a :func:`_fold_run` of one add per step, whose exact sum
    is ``s + c``: an absorbed addend leaves ``s`` unchanged and ends the
    run, and a steady drift is a period that moves ``s`` by the same exact
    delta each step.
    """
    kernel = fmt._kernel
    if count == 1:
        return add_bits(kernel, s, c, mode)
    step = partial(_watched_add, kernel, c, _bits_grid(kernel, c), mode)
    return _fold_run(fmt, "summation", step, (s,), c, count, mode)[0]


def _watched_add(kernel: tuple, c: int, c_g: int, mode: str, state: tuple,
                 grid: Optional[tuple]):
    """The step of :func:`_add_run`, watched for :func:`_fold_run`: the
    pattern ``c`` (``c_g`` grid units) added to the state ``(s,)``."""
    t = add_bits(kernel, state[0], c, mode)
    if grid is None:
        return (t,), None, None
    t_g = _bits_grid(kernel, t)
    return (t,), (t_g,), ((grid[0] + c_g, t_g),)


def _kahan_bits(kernel: tuple, total: int, comp: int, v: int,
                mode: str) -> Tuple[int, int, Optional[int], Optional[int]]:
    """One element of compensated summation on bit patterns: the next
    ``(total, comp)``, then the step's first and third results ``y = v -
    comp`` and ``d = t - total``.  Negation flips the sign bit.

    An infinite running sum is final: it is kept, with its compensation,
    whatever ``v`` is.  A result past one (``y`` and ``d`` of a step from
    one, ``d`` of a step to one) is None.  See :func:`bs_kahan` for the
    overflow rules.
    """
    _, _, _, sign, inf = kernel
    if total & (sign - 1) == inf:
        return total, comp, None, None
    y = add_bits(kernel, v, comp ^ sign, mode)
    t = add_bits(kernel, total, y, mode)
    if t & (sign - 1) == inf:
        return t, comp, y, None
    d = add_bits(kernel, t, total ^ sign, mode)
    c = add_bits(kernel, d, y ^ sign, mode)
    if c & (sign - 1) == inf:
        c = 0
    return t, c, y, d


def _kahan_run(fmt: FloatFormat, total: int, comp: int, v: int, count: int,
               mode: str) -> Tuple[int, int]:
    """Fold ``count`` copies of the pattern ``v`` into the Kahan state
    ``(total, comp)`` of patterns.

    Semantically identical to ``count`` calls of :func:`_kahan_bits`, and
    a run of one is exactly one call.  A longer run is a :func:`_fold_run`
    of one Kahan step each.  A step from ``(T, C)`` makes four adds, whose
    exact sums are ``q1 = v - C``, ``q2 = T + y``, ``q3 = t - T`` and ``q4
    = d - y``, where ``y, t, d, c`` are the rounded results and ``(t, c)``
    is the next state.  The errors may drift: the compensation absorbs the
    part of ``v`` that ``T`` cannot hold, a little more each step, so
    ``q1``'s error and ``q2``'s offset against its grid change linearly
    until a rounding flips.  A step whose compensation overflowed (and was
    dropped) is not watched.
    """
    kernel = fmt._kernel
    if count == 1:
        return _kahan_bits(kernel, total, comp, v, mode)[:2]
    step = partial(_watched_kahan, kernel, v, _bits_grid(kernel, v), mode)
    return _fold_run(fmt, "compensated summation", step, (total, comp), v,
                     count, mode)


def _watched_kahan(kernel: tuple, v: int, v_g: int, mode: str,
                   state: tuple, grid: Optional[tuple]):
    """The :func:`_kahan_bits` step of :func:`_kahan_run`, watched for
    :func:`_fold_run`: the pattern ``v`` (``v_g`` grid units) folded into
    the state ``(total, comp)``."""
    t, c, y, d = _kahan_bits(kernel, *state, v, mode)
    if grid is None or d is None:  # d is None past an infinite sum
        return (t, c), None, None
    T, C = grid
    y_g, t_g, d_g, c_g = [_bits_grid(kernel, x) for x in (y, t, d, c)]
    if c_g == 0 and d_g != y_g:  # the compensation overflowed
        return (t, c), (t_g, c_g), None
    return (t, c), (t_g, c_g), ((v_g - C, y_g), (T + y_g, t_g),
                                (t_g - T, d_g), (d_g - y_g, c_g))


# the longest period, in steps, that a run fold looks for
_MAX_PERIOD = 4


def _fold_run(fmt: FloatFormat, name: str, step, state: tuple, v: int,
              count: int, mode: str) -> tuple:
    """``count`` steps of a fold over one run of the pattern ``v``, from
    ``state``.

    The state is a tuple of patterns, the running sum first.  ``step(state,
    grid)`` takes it with its grid counts (see :meth:`SimFloat.to_grid`)
    and returns the next state, its grid counts and the step's watched
    adds as ``(exact sum, result)`` pairs in grid units, as many each
    step, or None for a step that must not be watched.  Each exact sum
    must be affine in the state and the earlier results of its step, and
    the next state must be made of results.  Given None for the grid
    counts, a step returns only the next state (the rest is None).

    The fold steps literally and jumps across whole periods of at most
    ``_MAX_PERIOD`` steps once one is established: when the last ``2p``
    steps moved the state by the same ``D`` over any ``p`` of them
    (``S[i+p] - S[i]`` is constant for ``i = 0 .. p``).  Then in the next
    period each add's exact sum moves by the same ``a`` as in the last
    one, and if its rounding behaves the same way its result moves by the
    same ``b``: by induction over the later steps the state keeps moving
    by ``D`` per period.  :func:`_linear_room` bounds how long each add's
    rounding provably does; the jump takes the fewest whole periods any
    add allows, and the fold continues literally.  With ``D = 0`` the
    state repeats, and every remaining whole period is skipped.  A period
    is looked for only while at least two of it remain, since a jump over
    one period costs more than its steps; so no jump follows the last two
    steps of a run, and they are not watched.  An unwatched step starts
    the watch over.

    A step is a function of the state, so a state that one step keeps
    (an absorbed addend, say) is the fold's result, and so is an infinite
    running sum, which the steps keep as it is.  Past
    ``MATERIALIZE_LIMIT`` literal steps in one run the fold gives up with
    ``ValueError`` rather than hang.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    kernel = fmt._kernel
    _, _, _, sign, inf = kernel
    if count > 2:
        grid = tuple([_bits_grid(kernel, x) for x in state])
    # since the last jump: each step's state move, and all their adds
    moves, adds = [], []
    literal = 0
    while count > 2:
        if state[0] & (sign - 1) == inf:
            return state  # the steps keep an infinite running sum
        if literal == MATERIALIZE_LIMIT:
            raise ValueError(
                f"{name} found no period of at most {_MAX_PERIOD} steps in "
                f"{literal} copies of {_from_bits(fmt, v)}")
        literal += 1
        state, new, watched = step(state, grid)
        count -= 1
        if new == grid:
            return state  # a state that a step keeps, every later one keeps
        if watched is None:
            grid, moves, adds = new, [], []
            continue
        moves.append(tuple(map(sub, new, grid)))
        adds += watched
        grid = new
        w, n = len(watched), len(moves)
        # the first period of p steps that the last 2p steps establish
        periods = 0
        for p in range(1, min(_MAX_PERIOD, n // 2, count // 2) + 1):
            if moves[-p:] == moves[-2 * p:-p]:
                periods = count // p
                for then, now in zip(adds[-2 * p * w:-p * w], adds[-p * w:]):
                    periods = min(periods,
                                  _linear_room(then, now, kernel, mode))
                break
        if periods > 0:
            count -= periods * p
            grid = tuple([g + periods * sum(d)
                          for g, d in zip(grid, zip(*moves[-p:]))])
            state = tuple([_grid_bits(kernel, g) for g in grid])
            if None in state:
                raise ValueError(f"a run fold jumped off the values of {fmt}")
            moves, adds = [], []
        elif n > 2 * _MAX_PERIOD:
            del moves[0], adds[:w]
    # no jump can follow the last two steps: they go unwatched
    for _ in range(count):
        state = step(state, None)[0]
    return state


def _linear_room(then: Tuple[int, int], now: Tuple[int, int],
                 kernel: tuple, mode: str):
    """How many more periods one add of a :func:`_fold_run` step can keep
    moving linearly.

    The add's exact sum moved from ``q0`` to ``q`` over the last period
    and its result from ``r0`` to ``r`` (grid units); the next ``j``
    periods would give ``q + j*a`` and ``r + j*b``.  These are the true
    rounded results for as long as:

    * the result stays strictly below the infinity point, so no overflow
      rule fires (inside a binade below the top one, every rounded value
      does);
    * an exact add (``r = q`` both times) keeps an exact sum that is
      representable: ``q`` and ``a`` are multiples of ``2^s``, and every
      multiple of ``2^s`` below ``2^(k+1+s)`` grid units and the infinity
      point is a float;
    * otherwise the exact sum stays strictly inside the rounding region
      (signed binade, or subnormal band) it had both times, where
      rounding is ``q -> u*rnd(q/u)`` for the region's spacing ``u``.  The
      two results, both on that grid, show that ``b`` is a multiple of
      ``u``, so every later result is on the grid too, and it is the
      rounded value while the error ``r - q`` stays in the errors the
      mode makes there: ``[0, u)`` rounding up, ``(-u, 0]`` rounding down
      (toward zero is down above zero and up below it), ``(-u/2, u/2)``
      to nearest.  When ``a = b`` the error never changes and needs no
      check, ties included: two equal banker's errors at a tie ``b``
      apart make ``b/u`` even, so the grid index keeps its parity.  In
      the subnormal band ``u`` is one grid unit and every add is exact.

    Each condition is linear in ``j``, so the answer is a closed form.
    """
    (q0, r0), (q, r) = then, now
    a, b = q - q0, r - r0
    k, emin, emax, _, _ = kernel
    inf_g = 1 << (emax + 1 - emin + k)
    if r == q and r0 == q0:
        if not a:
            return math.inf
        s = ((q | a) & -(q | a)).bit_length() - 1
        top = min(1 << (k + 1 + s), inf_g)
        return _room(q, a, 1 - top, top - 1)
    region = _region_of_exact(q, k)
    if region != _region_of_exact(q0, k):
        return 0
    lo, hi = region
    room = _room(q, a, lo + 1, hi - 1)
    if hi >= inf_g or lo <= -inf_g:  # a result may round to infinity
        room = min(room, _room(r, b, 1 - inf_g, inf_g - 1))
    if a != b:
        u = min(abs(lo), abs(hi)) >> k
        if mode == "banker":
            half = u // 2 - 1 if u > 1 else 0
            errors = (-half, half)
        elif mode == "toward_pos" or (mode == "toward_zero" and q < 0):
            errors = (0, u - 1)
        else:
            errors = (1 - u, 0)
        room = min(room, _room(r - q, b - a, *errors))
    return room


def _room(x: int, step: int, lo: int, hi: int):
    """The most steps ``x + j*step`` can take and stay in ``[lo, hi]``."""
    if step > 0:
        return (hi - x) // step
    if step < 0:
        return (x - lo) // -step
    return math.inf


def _int_fold(fmt: IntFormat, runs) -> int:
    """The left fold from 0 of int runs ``(x, count)`` under ``fmt``'s
    overflow policy, as a plain int.

    Wraparound addition is associative, so every fold order (and every
    tree shape) gives the wrapped exact sum.  A saturating fold of a
    constant addend moves monotonically toward one rail and stays there,
    so each run clamps the true partial sum once.
    """
    if fmt.overflow == "wraparound":
        return fmt.wrap(sum(x * c for x, c in runs))
    acc = 0
    for x, c in runs:
        acc = fmt.clamp(acc + x * c)
    return acc


# ---------------------------------------------------------------------------
# The four algorithms
# ---------------------------------------------------------------------------

def bs_iterative(dataset: Dataset, rounding: str = "banker"):
    """Left fold with one rounded add per element."""
    fmt = dataset.fmt
    if not isinstance(fmt, FloatFormat):
        return KInt(fmt, _int_fold(fmt, dataset.runs))
    _check_mode(rounding)
    acc = 0
    for x, count in dataset.runs:
        acc = _add_run(fmt, acc, x, count, rounding)
    return _from_bits(fmt, acc)


def bs_pairwise(dataset: Dataset, rounding: str = "banker"):
    """Cascade summation: split at the largest power of two below ``n``.

    Float overflow releases the first infinity reached: a left operand
    that is already infinite is returned without adding its sibling, so
    two halves that overflow in opposite directions never meet in an
    ``inf + (-inf)`` add (IEEE would give NaN there).

    The tree is walked on the runs, never on a list.  A subtree that lies
    inside one run sums ``c`` copies of one value ``v``, so its release
    depends only on ``(v, c)``: it is ``block(v, c) = block(v, m) (+)
    block(v, c - m)`` by the same split, memoized, which is O(log c) adds
    for a whole run.  Only subtrees that straddle a run boundary recurse on
    positions, O(log n) of them per boundary.  The run holding the next
    position is a cursor carried down the left-to-right walk, so dense
    data (runs of one) costs one comparison per node on top of its add.

    Floats are added as bit patterns.  Wraparound integers release the
    wrapped exact sum, which every tree shape gives; saturating integers
    walk the tree on plain ints.
    """
    fmt = dataset.fmt
    if isinstance(fmt, FloatFormat):
        _check_mode(rounding)
        kernel = fmt._kernel
        _, _, _, sign, inf = kernel
        return _from_bits(fmt, _cascade(
            dataset.runs, lambda a, b: add_bits(kernel, a, b, rounding),
            lambda x: x & (sign - 1) == inf))
    if fmt.overflow == "wraparound":
        return KInt(fmt, _int_fold(fmt, dataset.runs))
    clamp = fmt.clamp
    return KInt(fmt, _cascade(dataset.runs, lambda a, b: clamp(a + b),
                              lambda x: False))


def _cascade(runs: tuple, add, final) -> int:
    """The cascade of :func:`bs_pairwise` over runs ``(x, count)`` of
    ints, under ``add``; a left operand that is ``final`` is returned
    without its sibling.  No runs sum to 0."""
    if not runs:
        return 0
    ends = list(itertools.accumulate(c for _, c in runs))
    memo = {}

    def block(v, c: int):
        """``c >= 2`` copies of ``v`` summed by the cascade.  Both operands
        of each add have ``v``'s sign, so an infinite left operand absorbs
        its sibling: no overflow check is needed here."""
        key = (v, c)
        got = memo.get(key)
        if got is None:
            m = 1 << ((c - 1).bit_length() - 1)
            got = add(block(v, m) if m > 1 else v,
                      block(v, c - m) if c - m > 1 else v)
            memo[key] = got
        return got

    r = 0  # cursor: the run holding position ``lo`` of the next call

    def rec(lo: int, hi: int):
        nonlocal r
        end = ends[r]
        if hi <= end:  # inside run r
            v = runs[r][0]
            if hi == end:
                r += 1
            return v if hi - lo == 1 else block(v, hi - lo)
        m = 1 << ((hi - lo - 1).bit_length() - 1)
        left = rec(lo, lo + m)
        if final(left):
            return left  # the cursor is not read again
        return add(left, rec(lo + m, hi))

    return rec(0, ends[-1])


def bs_kahan(dataset: Dataset, rounding: str = "banker"):
    """Compensated summation; returns the running sum only.

    Float overflow releases the first infinite running sum: as soon as
    ``t = total (+) y`` is infinite it is returned, before the
    compensation step would subtract it from the finite ``total`` and
    later add opposite infinities (IEEE would give NaN there).  A
    compensation that overflows (``t - total`` rounded past the largest
    finite value) is dropped, so that step goes uncompensated; kept, it
    would drive the next running sum to an infinity of the opposite
    sign.

    The state is a pair of bit patterns, and each run is folded by
    :func:`_kahan_run`: a run of one is one :func:`_kahan_bits` step, and
    a longer run jumps across the periodic stretches a constant addend
    produces.
    """
    fmt = dataset.fmt
    if not isinstance(fmt, FloatFormat):
        raise TypeError("compensated summation is defined for float formats")
    _check_mode(rounding)
    _, _, _, sign, inf = fmt._kernel
    total = comp = 0
    for x, count in dataset.runs:
        total, comp = _kahan_run(fmt, total, comp, x, count, rounding)
        if total & (sign - 1) == inf:
            break  # the step keeps an infinite total as it is
    return _from_bits(fmt, total)


def bs_split(dataset: Dataset, events: Optional[List[str]] = None):
    """Sign-partitioned summation over a fixed accumulation schedule.

    Elements are added in a pre-defined order rather than the order they
    happen to arrive in: each sign class accumulates magnitude-ascending
    (equal values commute exactly, so ties need no tiebreak).  The result
    is therefore a function of the element multiset alone, which is what
    lets this method shut down reordering attacks by construction.

    Floats: both partials accumulate with round-toward-zero; a partial
    that saturates to infinity is clamped back to the largest finite
    value of its sign (recorded in ``events``); the two partials combine
    with a single round-to-nearest add.  Integers: partials and combine
    all use the format's own overflow policy.  The schedule is irrelevant
    to the value there: same-sign integer adds give the wrapped or
    clamped exact sum of their class in any order, so each partial is
    that closed form.
    """
    fmt = dataset.fmt
    if not isinstance(fmt, FloatFormat):
        pos = sum(x * c for x, c in dataset.runs if x >= 0)
        neg = sum(x * c for x, c in dataset.runs if x < 0)
        return KInt(fmt, fmt.settle(fmt.settle(pos) + fmt.settle(neg)))
    kernel = fmt._kernel
    _, _, _, sign, inf = kernel
    # within one sign the patterns ascend with the magnitude
    pos = neg = 0
    for x, count in sorted(dataset.runs):
        if x & sign:
            neg = _add_run(fmt, neg, x, count, "toward_zero")
        else:
            pos = _add_run(fmt, pos, x, count, "toward_zero")
    if pos == inf:
        pos = inf - 1  # the largest finite value
        if events is not None:
            events.append("positive_partial_clamped")
    if neg == inf | sign:
        neg = (inf - 1) | sign
        if events is not None:
            events.append("negative_partial_clamped")
    return _from_bits(fmt, add_bits(kernel, pos, neg, "banker"))


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------

def truncate(dataset: Dataset, n_max: int) -> Dataset:
    """Keep the first ``n_max`` elements."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    out = []
    left = n_max
    for x, c in dataset.runs:
        if left == 0:
            break
        take = min(c, left)
        out.append((x, take))
        left -= take
    return Dataset.unchecked(dataset.fmt, dataset.lower, dataset.upper, out)


def random_permutation(dataset: Dataset, seed: int) -> Dataset:
    """Uniformly shuffle element order (Fisher-Yates over a seeded MT).

    The values are brought into their canonical sorted order before the
    shuffle, so the output depends only on the element multiset and the
    seed.  Shuffling the given order instead would leak that order right
    through a shared seed: two arrangements of the same elements would
    land in different final orders and an order-sensitive fold downstream
    would still tell them apart.  Uniformity is unaffected — Fisher-Yates
    is uniform from any fixed starting arrangement.
    """
    if len(dataset) > MATERIALIZE_LIMIT:
        raise ValueError("dataset too large to materialize for permutation")
    runs = sorted(dataset.runs, key=lambda run: code_key(dataset.fmt, run[0]))
    codes = [x for x, c in runs for _ in range(c)]
    return _arranged(dataset, _fisher_yates(codes, random.Random(seed)))


def _arranged(frame: Dataset, codes: List[int]) -> Dataset:
    """The dataset of ``codes``, in order, over the frame of ``frame``,
    whose runs they were drawn from: nothing is checked."""
    return Dataset.unchecked(frame.fmt, frame.lower, frame.upper,
                             [(x, 1) for x in codes])


def _fisher_yates(items: list, rng: random.Random) -> list:
    """Shuffle ``items`` in place and return it: one ``randrange(i + 1)``
    per position ``i`` from the last down to 1."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.randrange(i + 1)
        items[i], items[j] = items[j], items[i]
    return items


def _shift_dataset(dataset: Dataset) -> Dataset:
    """The dataset ``v_i - lower`` over bounds ``[0, U - L]``.

    Every shifted element, and the shifted upper bound, must be exactly
    representable; anything else raises, because an inexact shift
    silently changes the function being privatized.  ``run_sum`` records
    ``(lower, n)`` as the offset the caller adds back after the noise.

    Floats are shifted on the format's finest grid (see
    :meth:`SimFloat.to_grid`), and each difference is packed by
    :meth:`SimFloat.from_grid`'s rule.  The shift is one-to-one and keeps
    the order, so the shifted runs need no checks.
    """
    fmt = dataset.fmt
    if not isinstance(fmt, FloatFormat):
        lo = dataset.lower.value
        span = dataset.upper.value - lo
        if span > fmt.max_value:
            raise ValueError("shifted upper bound U - L exceeds the type range")
        return Dataset.unchecked(fmt, KInt(fmt, 0), KInt(fmt, span),
                                 [(x - lo, c) for x, c in dataset.runs])
    kernel = fmt._kernel
    _, _, _, sign, inf = kernel
    lo = dataset.lower.to_grid()

    def shifted(x: int):
        """The pattern of ``x - lower``, or None if it is not finite."""
        bits = _grid_bits(kernel, _bits_grid(kernel, x) - lo)
        return None if bits is None or bits & (sign - 1) == inf else bits

    upper = shifted(dataset.upper.bits)
    if upper is None:
        raise ValueError("shifted upper bound U - L is not representable")
    runs = []
    for x, c in dataset.runs:
        bits = shifted(x)
        if bits is None:
            raise ValueError(f"shifted element {code_value(fmt, x)} - "
                             f"{dataset.lower} is not representable")
        runs.append((bits, c))
    return Dataset.unchecked(fmt, _from_bits(fmt, 0), _from_bits(fmt, upper),
                             runs)


# ---------------------------------------------------------------------------
# Composite runner
# ---------------------------------------------------------------------------

def run_sum(dataset: Dataset, method: SumMethod) -> SumOutcome:
    """Apply the method's transforms in order, then its algorithm."""
    ds = dataset
    offset = None
    permutation = None
    for tr in method.transforms:
        if isinstance(tr, RandomPermutation):
            ds = random_permutation(ds, tr.seed)
            permutation = PERMUTATION_ALGORITHM
        elif isinstance(tr, Truncate):
            ds = truncate(ds, tr.n_max)
        elif isinstance(tr, ShiftBounds):
            offset = (ds.lower, len(ds))
            ds = _shift_dataset(ds)
        else:
            raise TypeError(f"unknown transform {tr!r}")
    events: List[str] = []
    if method.algorithm == "iterative":
        value = bs_iterative(ds, method.rounding)
    elif method.algorithm == "pairwise":
        value = bs_pairwise(ds, method.rounding)
    elif method.algorithm == "kahan":
        value = bs_kahan(ds, method.rounding)
    elif method.algorithm == "exact":
        value = bs_exact(ds)
    else:
        value = bs_split(ds, events)
    return SumOutcome(value=value, clamp_events=tuple(events),
                      offset=offset, permutation=permutation)


# ---------------------------------------------------------------------------
# Overflow preconditions
# ---------------------------------------------------------------------------

def check_multiplication(lower, upper, n: int, fmt: IntFormat) -> bool:
    """True when ``n`` elements can never overflow: ``n*U <= max`` and
    ``n*L >= min`` evaluated in unbounded integer arithmetic."""
    lo = lower.value if isinstance(lower, KInt) else int(lower)
    hi = upper.value if isinstance(upper, KInt) else int(upper)
    return n * hi <= fmt.max_value and n * lo >= fmt.min_value


def float_overflow_check(lower: Union[SimFloat, Fraction],
                         upper: Union[SimFloat, Fraction], n: int,
                         accuracy: Fraction, fmt: FloatFormat) -> bool:
    """Certify that ``n`` in-range elements cannot reach ``±inf``.

    The bounds are exact values: SimFloats or Fractions, read through
    :func:`~boundedsum.data.exact_value`.  Rounds ``L*n`` down and ``U*n``
    up to ``fmt`` (the only two roundings, both outward), widens each by
    the summation method's worst-case accuracy, and rejects if either
    widened end lies beyond ``±n_max`` in exact arithmetic.  A ``True``
    answer is a guarantee, never a hope.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    lo_prod = round_dyadic(Dyadic.from_fraction(exact_value(lower) * n), fmt,
                           "toward_neg")
    hi_prod = round_dyadic(Dyadic.from_fraction(exact_value(upper) * n), fmt,
                           "toward_pos")
    if lo_prod.kind == "inf" or hi_prod.kind == "inf":
        return False
    acc = Fraction(accuracy)
    if acc < 0:
        raise ValueError("accuracy must be nonnegative")
    n_max = fmt.max_finite.to_fraction()
    return (lo_prod.to_fraction() - acc >= -n_max
            and hi_prod.to_fraction() + acc <= n_max)

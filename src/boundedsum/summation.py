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
  ``MATERIALIZE_LIMIT`` steps.  Iterative and Kahan fold a stretch of
  runs that repeats a short block of them (the alternating tail of
  ``repeated_rounding_2``, say) with the same engine, one step per copy
  of the block (``_segments``, ``_fold_block``): a block's step is its
  elements' steps in order, and each of its adds is still affine in the
  state and the step's earlier results, which is all the period argument
  needs.  A run is the block of one code.  Integer runs have closed forms;
* ``pairwise`` sums a subtree that lies inside one run as a memoized
  block of ``(code, count)``, and recurses on positions only where a
  subtree straddles a run boundary: O(runs * log n) adds;
* ``exact`` multiplies each value by its count.

Every fold runs on the dataset's own code runs (see
:mod:`boundedsum.data`): a float's bit pattern, an integer's value.  The
float state of every algorithm is a bit pattern, a run of fewer than
``_MIN_BLOCK_COPIES`` is one :func:`~boundedsum.floats.add_bits` per
copy (a Kahan step four of them, with negation a flip of the sign bit),
and ``_fold_run`` watches exact values as integer counts of the finest
spacing (:meth:`SimFloat.to_grid`).  A value object is built only for
the release.

The machine's own floats: on float32 and float64 under ``banker`` (see
:func:`~boundedsum.floats._native`), iterative and Kahan fold each
stretch of runs of at most ``_NATIVE_RUN`` copies on Python floats, and
pairwise walks its whole tree on them (``_fold_plain``, ``_cascade``).
This is exact:

* the model's ``banker`` is IEEE round-to-nearest-even, overflow to
  infinity included (a tie at ``n_max + ulp/2`` goes to infinity in
  both), and a float32 add is the double sum rounded once more, which
  is correct because 53 >= 2*24 + 2 (Figueroa 1995);
* no native value is ``-0``: every state starts at ``+0``, no element
  is ``-0``, and an exact cancellation gives ``+0``, as in the model;
* in IEEE arithmetic an infinity never becomes finite again, so a
  finite state after a stretch means no add of it overflowed, and none
  of the model's overflow rules applied (Kahan's final infinite sum and
  its dropped infinite compensation).  A stretch is therefore taken only
  when every component of its state is finite, and otherwise folded
  again on patterns from the state before it.  Pairwise's walk returns
  an infinite left operand as the model does, so it never adds two
  infinities and is taken as it is.

Every other format and mode, longer runs and repeating blocks keep the
bit kernel, which is also the reference the tests compare against.
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
from functools import partial, reduce
from operator import eq, itemgetter, sub
from typing import List, Optional, Tuple, Union

from .data import (Dataset, MATERIALIZE_LIMIT, code_key, code_value,
                   exact_value, merge_runs)
from .dyadic import Dyadic
from .floats import (ROUNDING_MODES, FloatFormat, SimFloat, _bits_grid,
                     _check_mode, _from_bits, _grid_bits, _machine_add,
                     _native, _to_floats, _to_patterns, add_bits,
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
    so is a run of fewer than ``_MIN_BLOCK_COPIES``, which no period jump
    can shorten: one :func:`~boundedsum.floats.add_bits` per copy.  A
    longer run is a :func:`_fold_block` of the block ``(c,)``: one add per
    step, whose exact sum is ``s + c``.  An absorbed addend leaves ``s``
    unchanged and ends the run, and a steady drift is a period that moves
    ``s`` by the same exact delta each step.
    """
    if count == 1:
        return add_bits(fmt._kernel, s, c, mode)
    if 0 <= count < _MIN_BLOCK_COPIES:
        kernel = fmt._kernel
        for _ in range(count):
            s = add_bits(kernel, s, c, mode)
        return s
    return _fold_block(fmt, "summation", _watched_add, (s,), (c,), count,
                       mode)[0]


def _watched_add(kernel: tuple, c: int, c_g: int, mode: str, state: tuple,
                 grid: Optional[tuple]):
    """The iterative fold's step of one element, watched for
    :func:`_fold_run` (see :func:`_fold_block`): the pattern ``c`` (``c_g``
    grid units) added to the state ``(s,)``."""
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
    so is a run of fewer than ``_MIN_BLOCK_COPIES``, which no period jump
    can shorten.  A longer run is a :func:`_fold_block` of the block
    ``(v,)``: one Kahan step each.  A step from ``(T, C)``
    makes four adds, whose exact sums are ``q1 = v - C``, ``q2 = T + y``,
    ``q3 = t - T`` and ``q4 = d - y``, where ``y, t, d, c`` are the rounded
    results and ``(t, c)`` is the next state.  The errors may drift: the
    compensation absorbs the part of ``v`` that ``T`` cannot hold, a little
    more each step, so ``q1``'s error and ``q2``'s offset against its grid
    change linearly until a rounding flips.  A step whose compensation
    overflowed (and was dropped) is not watched.
    """
    if count == 1:
        return _kahan_bits(fmt._kernel, total, comp, v, mode)[:2]
    if 0 <= count < _MIN_BLOCK_COPIES:
        kernel = fmt._kernel
        for _ in range(count):
            total, comp = _kahan_bits(kernel, total, comp, v, mode)[:2]
        return total, comp
    return _fold_block(fmt, "compensated summation", _watched_kahan,
                       (total, comp), (v,), count, mode)


def _watched_kahan(kernel: tuple, v: int, v_g: int, mode: str,
                   state: tuple, grid: Optional[tuple]):
    """The :func:`_kahan_bits` step of one element, watched for
    :func:`_fold_run` (see :func:`_fold_block`): the pattern ``v`` (``v_g``
    grid units) folded into the state ``(total, comp)``."""
    t, c, y, d = _kahan_bits(kernel, *state, v, mode)
    if grid is None or d is None:  # d is None past an infinite sum
        return (t, c), None, None
    T, C = grid
    y_g, t_g, d_g, c_g = [_bits_grid(kernel, x) for x in (y, t, d, c)]
    if c_g == 0 and d_g != y_g:  # the compensation overflowed
        return (t, c), (t_g, c_g), None
    return (t, c), (t_g, c_g), ((v_g - C, y_g), (T + y_g, t_g),
                                (t_g - T, d_g), (d_g - y_g, c_g))


# a block is at most this many runs, of at most this many elements in all,
# and a stretch at least this many copies of it: _fold_run watches two
# steps before it can jump, so three copies never jump, and four jump only
# over the last two, where the watch and the jump cost more than the steps
_MAX_BLOCK_RUNS = 4
_MAX_BLOCK_SIZE = 12
_MIN_BLOCK_COPIES = 5


def _segments(runs: tuple) -> list:
    """``runs`` cut into pieces ``(plain, block, reps)``: the runs
    ``plain``, then ``reps`` copies of the tuple of patterns ``block``.
    The last piece has no block, and ``reps`` 0: its fold is no step.

    A block is a stretch of at least ``_MIN_BLOCK_COPIES`` copies in a row
    of the same ``b <= _MAX_BLOCK_RUNS`` runs, of at most
    ``_MAX_BLOCK_SIZE`` elements in all, such as the alternating tail of
    ``repeated_rounding_2``.  Runs are merged, so ``b >= 2``.  A stretch
    is a run of ``(_MIN_BLOCK_COPIES - 1) * b`` or more ``True`` in ``run
    i == run i + b``, found by C-level scans; among overlapping stretches
    the earliest wins, then the shortest block, and the later one keeps
    the whole blocks past it (any ``b`` runs in a row of a stretch are a
    block of it).  A block's size is summed from its counts before its
    elements are listed.  A run list with no run twice (dense data, say)
    is one plain piece after one C-level check.
    """
    if len(set(runs)) == len(runs):
        return [(runs, (), 0)]
    found = []
    for b in range(2, _MAX_BLOCK_RUNS + 1):
        same = bytes(map(eq, runs, runs[b:])) + b"\0"
        least = b"\1" * ((_MIN_BLOCK_COPIES - 1) * b)
        i = same.find(least)
        while i >= 0:
            j = same.find(0, i)
            found.append((i, b, j + b))  # runs[i:j+b] repeat runs[i:i+b]
            i = same.find(least, j)
    pieces, end = [], 0
    for start, b, stop in sorted(found):
        start = max(start, end)
        reps = (stop - start) // b
        copy = runs[start:start + b]
        # the size first: a count may be far past any list
        if (reps >= _MIN_BLOCK_COPIES
                and sum(map(itemgetter(1), copy)) <= _MAX_BLOCK_SIZE):
            block = tuple([x for x, c in copy for _ in range(c)])
            pieces.append((runs[end:start], block, reps))
            end = start + b * reps
    pieces.append((runs[end:], (), 0))
    return pieces


def _fold_block(fmt: FloatFormat, name: str, watched, state: tuple,
                block: tuple, count: int, mode: str) -> tuple:
    """``count`` copies of the tuple of patterns ``block`` folded into
    ``state`` by :func:`_fold_run`, one step per copy.

    ``watched(kernel, x, x_g, mode, state, grid)`` is the fold's step of
    one element, the pattern ``x`` of ``x_g`` grid units (:func:`_watched_add`
    or :func:`_watched_kahan`).  A block's step runs it over the elements
    in order, chaining the grid counts, and its watched adds are theirs,
    in order.  Each add's exact sum is affine in its element's state and
    the earlier results of that element, and that state is made of the
    results of the elements before; so it is affine in the block step's
    state and earlier results, as :func:`_fold_run` asks, and the next
    state is made of results.  A block with an unwatched element is not
    watched.
    """
    kernel = fmt._kernel
    steps = [partial(watched, kernel, x, _bits_grid(kernel, x), mode)
             for x in block]
    step = steps[0] if len(steps) == 1 else partial(_block_step, steps)
    return _fold_run(fmt, name, step, state, block, count, mode)


def _block_step(steps: list, state: tuple, grid: Optional[tuple]):
    """One pass of the element ``steps`` of :func:`_fold_block`."""
    adds = ()
    for step in steps:
        state, grid, watched = step(state, grid)
        adds = None if adds is None or watched is None else adds + watched
    return state, grid, adds


# the longest period, in steps, that a run fold looks for
_MAX_PERIOD = 4


def _fold_run(fmt: FloatFormat, name: str, step, state: tuple,
              block: tuple, count: int, mode: str) -> tuple:
    """``count`` steps of a fold from ``state``, one per copy of the tuple
    of patterns ``block``: a run's one pattern, or a block of
    :func:`_fold_block`.

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
    ``MATERIALIZE_LIMIT`` literal steps in one fold it gives up with
    ``ValueError``, naming the block's values, rather than hang.
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
            values = ", ".join([str(_from_bits(fmt, x)) for x in block])
            raise ValueError(
                f"{name} found no period of at most {_MAX_PERIOD} steps in "
                f"{literal} copies of "
                f"{values if len(block) == 1 else f'the block ({values})'}")
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


# a run of at most this many copies is expanded into a stretch folded on
# the machine's floats: 64 native float32 adds take about 8 us, while a
# _fold_run of 64 copies takes about 70 us whatever the count, so a longer
# run gains nothing by expanding and keeps its period jumps
_NATIVE_RUN = 64


def _fold_plain(fmt: FloatFormat, runs: tuple, state: tuple, run_fold,
                machine_fold, mode: str) -> tuple:
    """The runs ``runs`` folded into ``state``, a tuple of patterns, one
    ``run_fold(fmt, *state, x, count, mode)`` per run.

    Where the format and mode have the machine's own floats (see
    :func:`~boundedsum.floats._native`), each maximal stretch of runs of
    at most ``_NATIVE_RUN`` copies is instead one ``machine_fold(add,
    state, xs)`` on floats: ``xs`` iterates over the stretch's elements,
    each run's float repeated, and ``add`` is the machine's rounded add.
    It is taken only when every component of its state is finite.  An
    infinity never becomes finite again in IEEE arithmetic, so then no
    add of the stretch overflowed, and no overflow rule of the model
    applied.  Otherwise the stretch is folded again run by run from the
    state before it, which gives the model's result.
    """
    native = _native(fmt, mode)
    if native is None:
        cuts = b"\1" * len(runs)  # every run folds alone
    else:
        cuts = bytes(map(_NATIVE_RUN.__lt__, map(itemgetter(1), runs)))
        add = _machine_add(native[0])
    cuts += b"\1"
    start = 0
    while start < len(runs):
        stop = cuts.find(1, start)
        bits = runs[stop:stop + 1]  # the run past the stretch, if any
        if stop > start:
            stretch = runs[start:stop]
            xs = itertools.chain.from_iterable(itertools.starmap(
                itertools.repeat,
                zip(_to_floats(native, map(itemgetter(0), stretch)),
                    map(itemgetter(1), stretch))))
            got = machine_fold(add, _to_floats(native, state), xs)
            if all(map(math.isfinite, got)):
                state = _to_patterns(native, got)
            else:
                bits = runs[start:stop + 1]
        for x, count in bits:
            state = run_fold(fmt, *state, x, count, mode)
        start = stop + 1
    return state


def _iterate(add, state, xs) -> tuple:
    """The iterative fold of the floats ``xs`` into the state ``(s,)``."""
    return (reduce(add, xs, state[0]),)


def _kahan_floats(add, state, xs) -> tuple:
    """The Kahan fold of the floats ``xs`` into the state ``(total,
    comp)``: :func:`_kahan_bits`'s four adds per element, on floats with
    no overflow rule (see :func:`_fold_plain`)."""
    total, comp = state
    for v in xs:
        y = add(v, -comp)
        t = add(total, y)
        comp = add(add(t, -total), -y)
        total = t
    return total, comp


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
    """Left fold with one rounded add per element.

    Floats are added as bit patterns.  Each run is folded by
    :func:`_add_run`, and each stretch of runs that repeats a short block
    (see :func:`_segments`) by one :func:`_fold_block` over copies of the
    block, so that both jump whole periods of a steady drift.  On float32
    and float64 under ``banker``, a stretch of runs of at most
    ``_NATIVE_RUN`` copies is added on the machine's floats instead, and
    refolded on patterns if its sum is not finite (see
    :func:`_fold_plain`).
    """
    fmt = dataset.fmt
    if not isinstance(fmt, FloatFormat):
        return KInt(fmt, _int_fold(fmt, dataset.runs))
    _check_mode(rounding)
    acc = (0,)
    for plain, block, reps in _segments(dataset.runs):
        acc = _fold_plain(fmt, plain, acc, _add_run_state, _iterate, rounding)
        acc = _fold_block(fmt, "summation", _watched_add, acc, block, reps,
                          rounding)
    return _from_bits(fmt, acc[0])


def _add_run_state(fmt: FloatFormat, s: int, x: int, count: int,
                   mode: str) -> tuple:
    """:func:`_add_run` with its result as the state ``(s,)``."""
    return (_add_run(fmt, s, x, count, mode),)


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

    Floats are added as bit patterns, or on float32 and float64 under
    ``banker`` as the machine's floats with its rounded add (see
    :func:`~boundedsum.floats._native`).  That walk is the model's even
    when it overflows: it returns an infinite left operand the same way,
    so it never adds two infinities, and a finite operand added to an
    infinite one gives that infinity in both.  Wraparound integers
    release the wrapped exact sum, which every tree shape gives;
    saturating integers walk the tree on plain ints.
    """
    fmt = dataset.fmt
    if isinstance(fmt, FloatFormat):
        _check_mode(rounding)
        native = _native(fmt, rounding)
        if native is not None:
            xs = _to_floats(native, map(itemgetter(0), dataset.runs))
            got = _cascade(list(zip(xs, map(itemgetter(1), dataset.runs))),
                           _machine_add(native[0]), math.isinf)
            return _from_bits(fmt, _to_patterns(native, (got,))[0])
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
    produces.  A stretch of runs that repeats a short block (see
    :func:`_segments`) is one :func:`_fold_block` over copies of the
    block, one Kahan step per element, and jumps the same way.  On float32
    and float64 under ``banker``, a stretch of runs of at most
    ``_NATIVE_RUN`` copies is folded on the machine's floats instead, and
    refolded on patterns unless its total and compensation are both
    finite (see :func:`_fold_plain`): then neither the final infinite sum
    nor the dropped infinite compensation can have applied.
    """
    fmt = dataset.fmt
    if not isinstance(fmt, FloatFormat):
        raise TypeError("compensated summation is defined for float formats")
    _check_mode(rounding)
    # every later step keeps an infinite total, after one check of it
    state = (0, 0)
    for plain, block, reps in _segments(dataset.runs):
        state = _fold_plain(fmt, plain, state, _kahan_run, _kahan_floats,
                            rounding)
        state = _fold_block(fmt, "compensated summation", _watched_kahan,
                            state, block, reps, rounding)
    return _from_bits(fmt, state[0])


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
    # sorting brings equal codes together; merged, a run of them is one
    # _add_run, not one per element
    for x, count in merge_runs(sorted(dataset.runs, key=itemgetter(0))):
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
    if dataset.n > MATERIALIZE_LIMIT:
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
            offset = (ds.lower, ds.n)
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

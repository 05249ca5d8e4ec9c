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
is undefined (``add_float`` raises), and Kahan and pairwise, which could
reach one on in-range data, release the first infinite partial sum
instead.  Every rule of this kind, with each algorithm's state and
release, is stated once, in the rule table :func:`_rules`, which the
folds here and brute force (:mod:`boundedsum.bruteforce`) read.  These
rules change no result that does not overflow.

All of them consume run-length encoded datasets and never build the
element list, so attack datasets with billions of repeats sum in
milliseconds without a single approximation.  A dataset's entries are
runs and blocks, and blocks are found once, when the dataset is built
(see :mod:`boundedsum.data`); every reader takes a block as it is held,
never as its elements, and looks for none among the runs:

* ``iterative``, ``split`` and ``kahan`` fold floats by one fold over
  entries, :func:`_fold`, by the algorithm's rules (split's partials by
  the iterative rules toward zero, over the multiset, where a block is
  its codes each with its count).  Runs too short to jump step the
  rules' ``op`` literally; each block, and each longer run as the block
  of its one code, goes to one engine, ``_fold_run``, one step per copy
  (``_fold_block``).  It steps literally and jumps whole periods of up to
  four steps once the state and every add of a step provably move
  linearly (an absorbed addend ends the run at once), and with no such
  period steps literally up to ``MATERIALIZE_LIMIT`` steps.  A block's
  step is its elements' steps in order, and each of its adds is still
  affine in the state and the step's earlier results, which is all the
  period argument needs.  Integer runs have closed forms, and a
  saturating block jumps the copies that clamp no add;
* ``pairwise`` sums a subtree that lies inside one entry as a memoized
  ``(block, phase, length)``, a run being the block of its one code, and
  recurses on positions only where a subtree straddles an entry boundary:
  O(entries * log n) adds;
* ``exact`` multiplies each value by its count.

Every fold runs on the dataset's own codes (see :mod:`boundedsum.data`):
a float's bit pattern, an integer's value.  The float state of every
algorithm is made of bit patterns, a run of fewer than
``_MIN_BLOCK_COPIES`` is one :func:`~boundedsum.floats.add_bits` per copy
(a Kahan step four of them, with negation a flip of the sign bit), and
``_fold_run`` watches exact values as integer counts of the finest
spacing (:meth:`SimFloat.to_grid`).  A value object is built only for
the release.

The machine's own floats: on float32 and float64, in every rounding
mode (see :func:`~boundedsum.floats._native`), iterative, Kahan and
split's partials fold each stretch of runs of at most ``_NATIVE_RUN``
copies on Python floats, and pairwise walks the whole tree of a dataset
without blocks on them (``_fold``, ``_cascade``).  This is exact:

* the model's ``banker`` is IEEE round-to-nearest-even, overflow to
  infinity included (a tie at ``n_max + ulp/2`` goes to infinity in
  both), and a float32 add is the double sum rounded once more, which
  is correct because 53 >= 2*24 + 2 (Figueroa 1995); a directed add is
  that sum corrected by one step, read off its exact TwoSum error (see
  :func:`~boundedsum.floats._machine_add`);
* no native value is ``-0``: every state starts at ``+0``, no element
  is ``-0``, and an exact cancellation gives ``+0``, as in the model;
* in IEEE arithmetic an infinity never becomes finite again, and no
  correction steps one, so a finite state after a stretch means no add
  of it overflowed, and none of the model's overflow rules applied.  A
  stretch, or pairwise's whole walk, is therefore taken only when every
  component of its state is finite, and otherwise folded again on
  patterns, by the rules, from the state before it.

Every other format and mode, longer runs and blocks keep the bit
kernel, which is also the reference the tests compare against.
Integer releases are plain-int closed forms: wraparound addition is
associative, so every algorithm releases the wrapped exact sum, and
saturating folds clamp plain ints.  The transforms map code entries to
code entries too (a truncation keeps a block's whole copies and the first
elements of the copy it cuts), and build their datasets unchecked.

The module also houses the dataset transforms (truncation, seeded random
permutation, bound shifting) and the two overflow precondition checks.
"""

from __future__ import annotations

import itertools
import math
import random
from array import array
from bisect import bisect_left
from collections import namedtuple
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import partial, reduce
from operator import itemgetter, ne, sub
from typing import List, Optional, Tuple, Union

from . import ALGORITHMS
from .data import (Dataset, ElementFormat, MATERIALIZE_LIMIT,
                   _MIN_BLOCK_COPIES, _field, check_materialize,
                   code_value, entry_size, exact_value, merge_runs)
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

# random.Random.shuffle makes, per position i from the last down to 1, the
# draw randrange(i + 1) makes: the Fisher-Yates this name records, which
# _shuffle makes draw for draw
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


_TRANSFORMS = {"truncate": Truncate, "random_permutation": RandomPermutation,
               "shift_bounds": ShiftBounds}


def transform_from_json(d: dict) -> Transform:
    """A transform from its JSON object: its ``kind`` names the class, and
    each of the class's fields (``n_max``, ``seed``) must be an int, not a
    boolean, float or string."""
    cls = _TRANSFORMS[_field(d, "kind", tuple(_TRANSFORMS), "transform")]
    return cls(*[_field(d, f.name, int, "transform") for f in fields(cls)])


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
        """A method from its JSON object; a field left out is ``iterative``,
        ``banker`` or no transform."""
        return cls(_field(d, "algorithm", ALGORITHMS, "method", "iterative"),
                   _field(d, "rounding", ROUNDING_MODES, "method", "banker"),
                   tuple(map(transform_from_json,
                             _field(d, "transforms", [dict], "method", []))))


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
    """Infinite-precision sum: a Dyadic for floats, an int for integers.
    It is a sum over the element multiset (see :meth:`Dataset.multiset`)."""
    fmt = dataset.fmt
    if isinstance(fmt, FloatFormat):
        return Dyadic(sum(_bits_grid(fmt._kernel, x) * c
                          for x, c in dataset.multiset()), fmt.emin - fmt.k)
    return sum(x * c for x, c in dataset.multiset())


# ---------------------------------------------------------------------------
# The rule table
# ---------------------------------------------------------------------------

# One summation algorithm's rules on one format and rounding mode (see
# _rules).  A fold joins states: ``start`` is the state of no elements,
# ``leaf(code)`` the state of one element, and ``op(a, b)`` the state of a
# part ``a`` followed by a part ``b`` (one element for a left fold, a
# subtree for pairwise's cascade); ``release(state)`` is the released code.
# ``fast`` holds, for the float iterative and Kahan folds, the pieces of
# their fast paths: the fold's name for its errors, its watched step for
# _fold_run (_watched_add, _watched_kahan) and its fold on the machine's
# floats for _fold (_iterate, _kahan_floats).
_Rules = namedtuple("_Rules", "start leaf op release fast", defaults=(None,))


def _rules(fmt: ElementFormat, algorithm: str, mode: str = "banker"
           ) -> _Rules:
    """The rules of ``algorithm`` (not ``exact``) on ``fmt`` under ``mode``:
    the one statement of each, read by this module's folds and by brute
    force's step tables.

    Float states are bit patterns: a pattern for the iterative and
    pairwise folds, a ``(total, comp)`` pair for Kahan's, a ``(positive,
    negative)`` pair of partials for split's.  Integer states are plain
    ints.  Where a state is a code, ``leaf`` and ``release`` are ``int``,
    which gives the code back.  The rules on overflow:

    * iterative: none is needed, as a finite addend keeps an infinite sum;
    * pairwise: an infinite left operand is final, returned without its
      sibling, so two halves that overflow in opposite directions never
      meet in an ``inf + (-inf)`` add (IEEE would give NaN there);
    * kahan: a step is :func:`_kahan_bits`, which keeps the first
      infinite running sum, with its compensation, before the next step
      would subtract it from a finite one, and drops an infinite
      compensation (``t - total`` rounded past the largest finite value:
      kept, it would drive the next running sum to an infinity of the
      opposite sign, which no running sum had);
    * split: each partial adds toward zero and the release clamps a
      partial that saturated to the largest finite value of its sign,
      then joins the two with one banker's add;
    * integers: every add, and split's join, is clamped or wrapped by the
      format's policy.

    ``mode`` is the rounding of the iterative, pairwise and Kahan float
    adds; split ignores it.  Compensated summation is float-only.
    """
    if isinstance(fmt, IntFormat):
        if algorithm == "kahan":
            raise TypeError(
                "compensated summation is defined for float formats")
        settle = fmt.wrap if fmt.overflow == "wraparound" else fmt.clamp
        add = lambda a, b: settle(a + b)
        if algorithm == "split":
            return _split_rules(add, (0).__gt__, add)
        return _Rules(0, int, add, int)
    _check_mode(mode)
    kernel = fmt._kernel
    _, _, _, sign, inf = kernel
    if algorithm == "iterative":
        return _Rules(0, int, lambda a, b: add_bits(kernel, a, b, mode), int,
                      ("summation", _watched_add, _iterate))
    if algorithm == "pairwise":
        return _Rules(0, int, lambda a, b: (
            a if a & (sign - 1) == inf else add_bits(kernel, a, b, mode)),
            int)
    if algorithm == "kahan":
        return _Rules((0, 0), lambda x: (x, 0),
                      lambda s, x: _kahan_bits(kernel, *s, x[0], mode)[:2],
                      itemgetter(0), ("compensated summation",
                                      _watched_kahan, _kahan_floats))
    if algorithm == "split":
        return _split_rules(
            lambda a, b: add_bits(kernel, a, b, "toward_zero"), sign.__and__,
            lambda p, n: add_bits(kernel, min(p, inf - 1),
                                  min(n, inf - 1 | sign), "banker"))
    raise ValueError(f"no fold rules for {algorithm!r}")


def _split_rules(add, negative, join) -> _Rules:
    """Split's rules from its partials' ``add``, the ``negative`` codes and
    the ``join`` of the two partials.  A part adds each nonzero partial of
    the part after it; a zero one, the partial of no element, leaves it
    as it is, so one element's step makes one add."""
    return _Rules((0, 0), lambda x: (0, x) if negative(x) else (x, 0),
                  lambda a, b: (add(a[0], b[0]) if b[0] else a[0],
                                add(a[1], b[1]) if b[1] else a[1]),
                  lambda s: join(*s))


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


def _watched_add(kernel: tuple, c: int, c_g: int, mode: str, state: tuple,
                 grid: Optional[tuple]):
    """The iterative fold's step of one element, watched for
    :func:`_fold_run` (see :func:`_fold_block`): the pattern ``c`` (``c_g``
    grid units) added to the running sum ``s``, which the run fold holds
    as the state ``(s,)``."""
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
    one, ``d`` of a step to one) is None.  See :func:`_rules` for the
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


def _watched_kahan(kernel: tuple, v: int, v_g: int, mode: str,
                   state: tuple, grid: Optional[tuple]):
    """The :func:`_kahan_bits` step of one element, watched for
    :func:`_fold_run` (see :func:`_fold_block`): the pattern ``v`` (``v_g``
    grid units) folded into the state ``(total, comp)``.

    A step from ``(T, C)`` makes four adds, whose exact sums are ``q1 = v
    - C``, ``q2 = T + y``, ``q3 = t - T`` and ``q4 = d - y``, where ``y, t,
    d, c`` are the rounded results and ``(t, c)`` is the next state.  The
    errors may drift: the compensation absorbs the part of ``v`` that
    ``T`` cannot hold, a little more each step, so ``q1``'s error and
    ``q2``'s offset against its grid change linearly until a rounding
    flips.  A step whose compensation overflowed (and was dropped) is not
    watched.
    """
    t, c, y, d = _kahan_bits(kernel, *state, v, mode)
    if grid is None or d is None:  # d is None past an infinite sum
        return (t, c), None, None
    T, C = grid
    y_g, t_g, d_g, c_g = [_bits_grid(kernel, x) for x in (y, t, d, c)]
    if c_g == 0 and d_g != y_g:  # the compensation overflowed
        return (t, c), (t_g, c_g), None
    return (t, c), (t_g, c_g), ((v_g - C, y_g), (T + y_g, t_g),
                                (t_g - T, d_g), (d_g - y_g, c_g))


def _fold_block(fmt: FloatFormat, rules: _Rules, state, block: tuple,
                count: int, mode: str):
    """``count`` copies of the tuple of patterns ``block`` folded into
    ``state`` by :func:`_fold_run`, one step per copy.

    The watched step of the float iterative or Kahan ``rules`` (see
    :func:`_rules`), ``watched(kernel, x, x_g, mode, state, grid)``, is
    the fold's step of one element, the pattern ``x`` of ``x_g`` grid
    units.  A block's step runs it over the elements in order, chaining
    the grid counts, and its watched adds are theirs, in order.  Each
    add's exact sum is affine in its element's state and the earlier
    results of that element, and that state is made of the results of
    the elements before; so it is affine in the block step's state and
    earlier results, as :func:`_fold_run` asks, and the next state is
    made of results.  A block with an unwatched element is not watched.
    """
    name, watched, _ = rules.fast
    kernel = fmt._kernel
    steps = [partial(watched, kernel, x, _bits_grid(kernel, x), mode)
             for x in block]
    step = steps[0] if len(steps) == 1 else partial(_block_step, steps)
    if isinstance(state, tuple):
        return _fold_run(fmt, name, step, state, block, count, mode)
    # the iterative fold's pattern, which _fold_run holds as a 1-tuple
    return _fold_run(fmt, name, step, (state,), block, count, mode)[0]


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


def _fold(fmt: FloatFormat, rules: _Rules, runs: tuple, state, mode: str):
    """The entries ``runs`` folded into ``state`` by the float iterative or
    Kahan ``rules`` (see :func:`_rules`): the one float fold.

    Semantically identical to ``state = op(state, leaf(x))`` for each
    element ``x`` in order.  Each maximal stretch of runs of fewer than
    ``_MIN_BLOCK_COPIES`` copies, which no period jump can shorten, is one
    :func:`_literal` fold.  Each block entry, and each longer run as the
    block ``(x,)``, is one :func:`_fold_block`: an absorbed addend leaves
    the state unchanged and ends it, and a steady drift is a period that
    moves it by the same exact deltas each step.  The entries are taken as
    the dataset holds them: blocks are found when it is built.

    Where the format has the machine's own floats (see
    :func:`~boundedsum.floats._native`), a stretch holds the runs of at
    most ``_NATIVE_RUN`` copies, and is first the rules' fold on the
    machine's floats, ``machine_fold(native, add, state, xs)``: ``xs``
    iterates over the stretch's elements, each run's float repeated, and
    ``add`` is the machine's add rounded by ``mode``.  It is taken only
    when every component of its state is finite (the machine fold gives
    None otherwise).  An infinity never becomes finite again in IEEE
    arithmetic, so then no add of the stretch overflowed, and no overflow
    rule of the model applied.  Otherwise the stretch is folded again
    literally from the state before it, which gives the model's result.
    """
    native = _native(fmt)
    longest = _MIN_BLOCK_COPIES - 1 if native is None else _NATIVE_RUN
    add = native and _machine_add(native[0], mode)
    cuts = bytearray([x.__class__ is tuple or c > longest for x, c in runs])
    cuts.append(1)
    start = 0
    while start < len(runs):
        stop = cuts.find(1, start)
        if stop > start:
            stretch = runs[start:stop]
            got = native and rules.fast[2](native, add, state, _expand(
                _to_floats(native, map(itemgetter(0), stretch)), stretch))
            state = _literal(rules, stretch, state) if got is None else got
        for x, count in runs[stop:stop + 1]:  # the entry past the stretch
            state = _fold_block(fmt, rules, state, x if x.__class__ is tuple
                                else (x,), count, mode)
        start = stop + 1
    return state


def _literal(rules: _Rules, runs, state):
    """The runs ``runs`` folded into ``state`` literally: one ``op`` of the
    ``rules`` per element, driven by :func:`functools.reduce`."""
    return reduce(rules.op, _expand(map(rules.leaf, map(itemgetter(0), runs)),
                                    runs), state)


def _expand(values, runs):
    """One value per run of ``runs``, each repeated by its run's count: a
    lazy iterator over the elements, by C-level ``chain``/``starmap``, or
    the values themselves when every run is one element (dense data)."""
    if max(map(itemgetter(1), runs), default=1) == 1:
        return values
    return itertools.chain.from_iterable(itertools.starmap(
        itertools.repeat, zip(values, map(itemgetter(1), runs))))


def _iterate(native: tuple, add, s: int, xs):
    """The iterative fold of the floats ``xs`` into the pattern ``s`` on the
    machine's floats of the typecodes ``native``, or None if its sum is not
    finite (see :func:`_fold`)."""
    got = reduce(add, xs, _to_floats(native, (s,))[0])
    return _to_patterns(native, (got,))[0] if math.isfinite(got) else None


def _kahan_floats(native: tuple, add, state: tuple, xs):
    """The Kahan fold of the floats ``xs`` into the state ``(total, comp)``
    of patterns on the machine's floats of the typecodes ``native``:
    :func:`_kahan_bits`'s four adds per element, with no overflow rule, or
    None unless the total and the compensation are finite (see
    :func:`_fold`)."""
    total, comp = _to_floats(native, state)
    for v in xs:
        y = add(v, -comp)
        t = add(total, y)
        comp = add(add(t, -total), -y)
        total = t
    if math.isfinite(total) and math.isfinite(comp):
        return _to_patterns(native, (total, comp))
    return None


def _int_fold(dataset: Dataset) -> int:
    """The left fold from 0 of an int dataset under its format's overflow
    policy, as a plain int.

    Wraparound addition is associative, so every fold order (and every
    tree shape) gives the wrapped exact sum, read off the multiset.  A
    saturating fold of a constant addend moves monotonically toward one
    rail and stays there, so each run clamps the true partial sum once;
    a block folds by :func:`_saturating_block`.
    """
    fmt = dataset.fmt
    if fmt.overflow == "wraparound":
        return fmt.wrap(sum(x * c for x, c in dataset.multiset()))
    acc = 0
    for x, c in dataset.runs:
        acc = (_saturating_block(fmt, acc, x, c) if x.__class__ is tuple
               else fmt.clamp(acc + x * c))
    return acc


def _saturating_block(fmt: IntFormat, s: int, block: tuple,
                      count: int) -> int:
    """``count`` copies of the int ``block`` folded into ``s`` by
    saturating adds.

    A copy is a nondecreasing map of the state (each clamped add is), so
    the states copy after copy move one way.  A copy that clamps no add
    moves the state by the block's sum, and the copies in a row from
    which no add clamps are read off the block's prefix sums at once.  A
    copy that clamps is made literally.  Once the states rise, a copy
    whose first clamp is at the top rail is followed by copies whose
    first clamp is there too, at the same position or an earlier one, and
    one at the same position gives the same state, where the fold stays;
    a first clamp at the bottom rail can only move later or stop.  So a
    fold makes at most about twice the block's length of literal copies
    (falling states are the mirror image).
    """
    prefix = list(itertools.accumulate(block))
    net, low, high = prefix[-1], min(prefix), max(prefix)
    lo, hi = fmt.min_value - low, fmt.max_value - high
    while count:
        if lo <= s <= hi:  # no add of this copy clamps
            if not net:
                return s
            clean = min(count, 1 + ((hi - s) // net if net > 0
                                    else (s - lo) // -net))
            s += clean * net
            count -= clean
            continue
        t = s
        for x in block:
            t = fmt.clamp(t + x)
        count -= 1
        if t == s:
            return s
        s = t
    return s


# ---------------------------------------------------------------------------
# The four algorithms
# ---------------------------------------------------------------------------

def bs_iterative(dataset: Dataset, rounding: str = "banker"):
    """Left fold with one rounded add per element.

    Floats are folded by their rules (see :func:`_rules`) in :func:`_fold`,
    which jumps whole periods of a steady drift in long runs and blocks,
    and adds short runs on the machine's floats where it can.  Integers
    are a closed form.
    """
    fmt = dataset.fmt
    if not isinstance(fmt, FloatFormat):
        return KInt(fmt, _int_fold(dataset))
    rules = _rules(fmt, "iterative", rounding)
    return _from_bits(fmt, _fold(fmt, rules, dataset.runs, rules.start,
                                 rounding))


def bs_pairwise(dataset: Dataset, rounding: str = "banker"):
    """Cascade summation: split at the largest power of two below ``n``.

    The tree is walked on the entries, never on a list.  A subtree that
    lies inside one entry sums ``c`` elements of a periodic sequence from
    a phase, so its release depends only on ``(block, phase, c)``, where a
    run is the block of its one code at phase 0: it is the subtree of the
    first ``m`` of them joined with the subtree of the rest from phase
    ``phase + m``, by the same split, memoized, which is O(log c) adds for
    a whole run and O(len(block) * log c) for a whole block.  Only
    subtrees that straddle an entry boundary recurse on positions, O(log
    n) of them per boundary.  The entry holding the next position is a
    cursor carried down the left-to-right walk, so dense data (runs of
    one) costs one comparison per node on top of its add.

    Each add is the rules' ``op`` (see :func:`_rules`; a float overflow
    releases the first infinity reached).  On float32 and float64 the walk
    of a dataset without blocks is first made on the machine's floats with
    their add rounded by ``rounding`` (see
    :func:`~boundedsum.floats._native`), and taken if its sum is finite:
    then no add overflowed.  Wraparound integers release the wrapped exact
    sum, which every tree shape gives.
    """
    fmt = dataset.fmt
    if isinstance(fmt, IntFormat) and fmt.overflow == "wraparound":
        return KInt(fmt, _int_fold(dataset))
    rules = _rules(fmt, "pairwise", rounding)
    runs = dataset.runs
    if isinstance(fmt, IntFormat):
        return KInt(fmt, _cascade(runs, rules.op))
    native = None if dataset.blocks else _native(fmt)
    if native is not None:
        xs = _to_floats(native, map(itemgetter(0), runs))
        got = _cascade(list(zip(xs, map(itemgetter(1), runs))),
                       _machine_add(native[0], rounding))
        if math.isfinite(got):
            return _from_bits(fmt, _to_patterns(native, (got,))[0])
    return _from_bits(fmt, _cascade(runs, rules.op))


def _left_size(n: int) -> int:
    """The elements of the left subtree of the cascade over ``n >= 2``
    elements: the largest power of two below ``n``.  The one statement of
    the tree's shape, read by :func:`_cascade` and by brute force."""
    return 1 << ((n - 1).bit_length() - 1)


def _cascade(runs: tuple, op):
    """The cascade of :func:`bs_pairwise` over entries of states, each
    state a code: runs ``(x, count)`` and blocks ``(xs, count)``, joined
    by ``op``.  No entries sum to 0."""
    if not runs:
        return 0
    ends = list(itertools.accumulate(entry_size(x) * c for x, c in runs))
    memo = {}

    def block(xs: tuple, phase: int, c: int):
        """``c >= 2`` elements of the block ``xs`` repeated, from its
        element ``phase`` on, summed by the cascade."""
        key = (xs, phase, c)
        got = memo.get(key)
        if got is None:
            m = _left_size(c)
            rest = (phase + m) % len(xs)
            got = op(block(xs, phase, m) if m > 1 else xs[phase],
                     block(xs, rest, c - m) if c - m > 1 else xs[rest])
            memo[key] = got
        return got

    r = 0  # cursor: the entry holding position ``lo`` of the next call

    def rec(lo: int, hi: int):
        nonlocal r
        end = ends[r]
        if hi <= end:  # inside entry r
            x = runs[r][0]
            if hi == end:
                r += 1
            if x.__class__ is not tuple:
                return x if hi - lo == 1 else block((x,), 0, hi - lo)
            # the entry ends at a whole copy, so lo's phase is read off end
            phase = (lo - end) % len(x)
            return x[phase] if hi - lo == 1 else block(x, phase, hi - lo)
        m = _left_size(hi - lo)
        left = rec(lo, lo + m)
        return op(left, rec(lo + m, hi))

    return rec(0, ends[-1])


def bs_kahan(dataset: Dataset, rounding: str = "banker"):
    """Compensated summation; returns the running sum only.

    The state is a ``(total, comp)`` pair of bit patterns, and a step is
    :func:`_kahan_bits`, with its overflow rules (see :func:`_rules`).
    The fold is :func:`_fold`, as for :func:`bs_iterative`: a run jumps
    across the periodic stretches a constant addend produces, and so does
    a block.
    """
    fmt = dataset.fmt
    rules = _rules(fmt, "kahan", rounding)
    return _from_bits(fmt, rules.release(_fold(fmt, rules, dataset.runs,
                                               rules.start, rounding)))


def bs_split(dataset: Dataset, events: Optional[List[str]] = None):
    """Sign-partitioned summation over a fixed accumulation schedule.

    Elements are added in a pre-defined order rather than the order they
    happen to arrive in: each sign class accumulates magnitude-ascending
    (equal values commute exactly, so ties need no tiebreak).  The result
    is therefore a function of the element multiset alone, which is what
    lets this method shut down reordering attacks by construction.

    Floats: both partials accumulate with round-toward-zero, each sign's
    runs of the multiset (see :meth:`Dataset.multiset`, a block's codes
    each with its count) by :func:`_fold` and the iterative rules, on
    float32 and float64 in stretches of the machine's floats, corrected
    toward zero (see :func:`~boundedsum.floats._machine_add`).  The
    release is the split rules' join (see :func:`_rules`), which clamps a
    partial that saturated to infinity (recorded here in ``events``) and
    combines the two with a single round-to-nearest add.
    Integers: partials and combine all use the format's own overflow
    policy.  The schedule is irrelevant to the value there: same-sign
    integer adds give the wrapped or clamped exact sum of their class in
    any order, so each partial is that closed form.
    """
    fmt = dataset.fmt
    join = _rules(fmt, "split").release
    if not isinstance(fmt, FloatFormat):
        pos = sum(x * c for x, c in dataset.multiset() if x >= 0)
        neg = sum(x * c for x, c in dataset.multiset() if x < 0)
        return KInt(fmt, join((fmt.settle(pos), fmt.settle(neg))))
    _, _, _, sign, inf = fmt._kernel
    part = _rules(fmt, "iterative", "toward_zero")
    # sorted, the positive patterns come first, and within one sign the
    # patterns ascend with the magnitude; merged, a run of equal codes can
    # jump its periods
    runs = merge_runs(sorted(dataset.multiset(), key=itemgetter(0)))
    cut = bisect_left(runs, sign, key=itemgetter(0))
    pos, neg = (part.release(_fold(fmt, part, side, part.start,
                                   "toward_zero"))
                for side in (runs[:cut], runs[cut:]))
    if events is not None:
        if pos == inf:
            events.append("positive_partial_clamped")
        if neg == inf | sign:
            events.append("negative_partial_clamped")
    return _from_bits(fmt, join((pos, neg)))


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------

def truncate(dataset: Dataset, n_max: int) -> Dataset:
    """Keep the first ``n_max`` elements: whole entries, then of the entry
    the cut falls in the whole copies before it and the first elements of
    the copy it cuts."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    out = []
    left = n_max
    for x, c in dataset.runs:
        if left == 0:
            break
        size = entry_size(x)
        take = min(c, left // size)
        if take:
            out.append((x, take))
        left -= take * size
        if take < c and left:  # the cut falls inside a block's copy
            out += zip(x[:left], itertools.repeat(1))
            left = 0
    return Dataset.unchecked(dataset.fmt, dataset.lower, dataset.upper, out)


def random_permutation(dataset: Dataset, seed: int) -> Dataset:
    """Uniformly shuffle element order: :func:`_shuffle` with
    ``random.Random(seed)``, the permutation ``random.Random(seed).shuffle``
    makes, a Fisher-Yates over the seeded Mersenne Twister.

    The values are brought into their canonical sorted order before the
    shuffle, so the output depends only on the element multiset and the
    seed.  Shuffling the given order instead would leak that order right
    through a shared seed: two arrangements of the same elements would
    land in different final orders and an order-sensitive fold downstream
    would still tell them apart.  Uniformity is unaffected — Fisher-Yates
    is uniform from any fixed starting arrangement.  The sorted order is
    expanded from the multiset (see :meth:`Dataset.multiset`), the same
    list however the entries chunk the elements.  Codes are sorted as
    ints: an int's is its value, and a float's pattern orders the values
    of one sign, the negative patterns last by their magnitude, so those
    are reversed to the front (no code is ``-0``).  A dataset past
    ``MATERIALIZE_LIMIT`` elements is refused by
    :func:`~boundedsum.data.check_materialize`.

    The draws are those of ``Random.shuffle``: every permutation is the
    one it makes, which ``PERMUTATION_ALGORITHM`` names in each report.
    """
    check_materialize(dataset.n)
    runs = sorted(dataset.multiset(), key=itemgetter(0))
    if isinstance(dataset.fmt, FloatFormat):
        cut = bisect_left(runs, dataset.fmt._kernel[3], key=itemgetter(0))
        runs = runs[cut:][::-1] + runs[:cut]
    codes = list(_expand(map(itemgetter(0), runs), runs))
    _shuffle(codes, random.Random(seed))
    return _arranged(dataset, codes)


def _shuffle(xs: list, rng: random.Random) -> None:
    """Shuffle ``xs`` in place as ``Random.shuffle`` does with ``rng``, by
    the same ``getrandbits`` calls in the same order, so the permutation
    and the state ``rng`` is left in are the same.

    CPython's ``Random.shuffle`` swaps, for ``i`` from the last position
    down to 1, ``xs[i]`` with ``xs[r]``, where ``r = randrange(i + 1)``
    draws ``getrandbits((i + 1).bit_length())`` until the draw is at most
    ``i``.  Written inline, with the bit length taken once for each
    stretch of positions that share it, it makes no method call per
    position but the draw itself.
    """
    getrandbits = rng.getrandbits
    top = len(xs) - 1
    while top > 0:
        bits = (top + 1).bit_length()
        low = (1 << (bits - 1)) - 1  # the least i with those bits
        for i in range(top, low - 1, -1):
            r = getrandbits(bits)
            while r > i:
                r = getrandbits(bits)
            xs[i], xs[r] = xs[r], xs[i]
        top = low - 1


def _arranged(frame: Dataset, codes: List[int]) -> Dataset:
    """The dataset of ``codes``, in order, over the frame of ``frame``,
    whose runs they were drawn from: nothing is checked.  Its runs are
    read off the list by C-level iterators, with no tuple per element: a
    run starts at each code that differs from the one before it, and
    holds the codes up to the next start."""
    starts = list(itertools.compress(range(len(codes)), map(
        ne, codes, itertools.chain((None,), codes))))
    ends = [*itertools.islice(starts, 1, None), len(codes)]
    return Dataset.unchecked(frame.fmt, frame.lower, frame.upper,
                             zip(map(codes.__getitem__, starts),
                                 map(sub, ends, starts)))


def _shift_dataset(dataset: Dataset) -> Dataset:
    """The dataset ``v_i - lower`` over bounds ``[0, U - L]``.

    Every shifted element, and the shifted upper bound, must be exactly
    representable; anything else raises, because an inexact shift
    silently changes the function being privatized.  ``run_sum`` records
    the offset the caller adds back after the noise.

    On float32 and float64 the codes are first shifted in one pass on the
    machine's floats (see :func:`_machine_shift`).  If one difference is
    not exact there, or the machine has no floats for the format, floats
    are shifted on the format's finest grid (see :meth:`SimFloat.to_grid`),
    and each difference is packed by :meth:`SimFloat.from_grid`'s rule,
    which names the upper bound, or else the first element, that cannot
    be shifted.  The shift is one-to-one and keeps the order, so the
    shifted entries need no checks, and a block stays a block.
    """
    fmt = dataset.fmt
    if not isinstance(fmt, FloatFormat):
        lo = dataset.lower.value
        span = dataset.upper.value - lo
        if span > fmt.max_value:
            raise ValueError("shifted upper bound U - L exceeds the type range")
        return Dataset.unchecked(fmt, KInt(fmt, 0), KInt(fmt, span), [
            (tuple([y - lo for y in x]) if x.__class__ is tuple else x - lo,
             c) for x, c in dataset.runs])
    runs = dataset.runs
    codes = (list(itertools.chain.from_iterable(
        x if x.__class__ is tuple else (x,) for x, _ in runs))
        if dataset.blocks else list(map(itemgetter(0), runs)))
    codes.append(dataset.upper.bits)
    native = _native(fmt)
    moved = native and _machine_shift(native, dataset.lower.bits, codes)
    if moved is None:
        moved = _grid_shift(dataset, codes)
    upper = moved.pop()
    if dataset.blocks:
        it = iter(moved)
        runs = [(tuple(itertools.islice(it, len(x))) if x.__class__ is tuple
                 else next(it), c) for x, c in runs]
    else:
        runs = list(zip(moved, map(itemgetter(1), runs)))
    return Dataset.unchecked(fmt, _from_bits(fmt, 0), _from_bits(fmt, upper),
                             runs)


def _machine_shift(native: tuple, lower: int, codes: list):
    """The patterns ``codes`` less the pattern ``lower``, as a list, on the
    machine's floats of the typecodes ``native``, or None unless every
    difference is exact and finite there.

    Each difference ``d = x - lower`` is one double subtraction, exact
    when its TwoSum error (see :func:`~boundedsum.floats._machine_add`) is
    0; an overflow makes the error NaN.  A float32 difference must also
    be a float32 value, kept by the round trip through a float32 array
    (which takes a double past its range to infinity).
    """
    xs = _to_floats(native, codes)
    lo = -_to_floats(native, (lower,))[0]
    ds = [x + lo for x in xs]
    if any([(x - (d - (z := d - x))) + (lo - z) for x, d in zip(xs, ds)]):
        return None
    moved = array(native[0], ds)
    if native[0] == "f" and moved.tolist() != ds:
        return None
    return list(_to_patterns(native, moved))


def _grid_shift(dataset: Dataset, codes: list) -> list:
    """:func:`_shift_dataset`'s patterns of ``codes`` (the elements', then
    the upper bound's) on the format's finest grid, refusing the upper
    bound first, then the first element that cannot be shifted."""
    fmt = dataset.fmt
    kernel = fmt._kernel
    _, _, _, sign, inf = kernel
    lo = dataset.lower.to_grid()

    def shifted(x: int):
        """The pattern of ``x - lower``, or None if it is not finite."""
        bits = _grid_bits(kernel, _bits_grid(kernel, x) - lo)
        return None if bits is None or bits & (sign - 1) == inf else bits

    upper = shifted(codes[-1])
    if upper is None:
        raise ValueError("shifted upper bound U - L is not representable")

    def checked(x: int) -> int:
        bits = shifted(x)
        if bits is None:
            raise ValueError(f"shifted element {code_value(fmt, x)} - "
                             f"{dataset.lower} is not representable")
        return bits

    return [*map(checked, codes[:-1]), upper]


# ---------------------------------------------------------------------------
# Composite runner
# ---------------------------------------------------------------------------

def run_sum(dataset: Dataset, method: SumMethod) -> SumOutcome:
    """Apply the method's transforms in order, then its algorithm.

    With a shift, the offset is ``(lower, n)``: the lower bound that the
    first shift subtracts (a later one subtracts 0) and the count of the
    dataset the algorithm sums, so that the release plus ``lower * n`` is
    the sum of the elements summed, whatever the transforms' order.
    """
    ds = dataset
    lower = None
    permutation = None
    for tr in method.transforms:
        if isinstance(tr, RandomPermutation):
            ds = random_permutation(ds, tr.seed)
            permutation = PERMUTATION_ALGORITHM
        elif isinstance(tr, Truncate):
            ds = truncate(ds, tr.n_max)
        elif isinstance(tr, ShiftBounds):
            if lower is None:
                lower = ds.lower
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
                      offset=None if lower is None else (lower, ds.n),
                      permutation=permutation)


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

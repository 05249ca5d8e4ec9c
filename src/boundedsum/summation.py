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

* ``iterative`` and ``split`` fold each run at once: integer runs have
  closed forms, and float runs jump once the fold enters a provably
  periodic regime (``_add_run_float``: absorption, or equal consecutive
  displacements inside one rounding region);
* ``pairwise`` sums a subtree that lies inside one run as a memoized
  block of ``(value, count)``, and recurses on positions only where a
  subtree straddles a run boundary: O(runs * log n) adds;
* ``kahan`` folds each run with ``_kahan_run``, which jumps whole periods
  of up to four steps once the ``(total, comp)`` state and all four adds
  of a step provably move linearly; a run with no such period steps
  literally, up to ``MATERIALIZE_LIMIT`` steps;
* ``exact`` multiplies each value by its count.

The module also houses the dataset transforms (truncation, seeded random
permutation, bound shifting) and the two overflow precondition checks.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple, Union

from .data import Dataset, MATERIALIZE_LIMIT, exact_value, order_key
from .dyadic import Dyadic
from .floats import (ROUNDING_MODES, FloatFormat, SimFloat, add_float,
                     round_dyadic, is_representable)
from .ints import IntFormat, KInt, add_int

__all__ = [
    "SumMethod", "SumOutcome", "Truncate", "RandomPermutation", "ShiftBounds",
    "bs_exact", "bs_iterative", "bs_pairwise", "bs_kahan", "bs_split",
    "kahan_step", "run_sum", "truncate", "random_permutation",
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
        return Dyadic(sum(v.to_grid() * c for v, c in dataset.runs),
                      fmt.emin - fmt.k)
    return sum(v.value * c for v, c in dataset.runs)


# ---------------------------------------------------------------------------
# Float run fast-forward
# ---------------------------------------------------------------------------

def _region_of_exact(q: int, fmt: FloatFormat) -> Tuple[int, int]:
    """The rounding region of the exact sum ``q`` (in grid units, see
    :meth:`SimFloat.to_grid`): its signed binade, or the subnormal band."""
    a = abs(q)
    if a < 1 << fmt.k:  # below 2^emin
        return (-(1 << fmt.k), 1 << fmt.k)
    lo = 1 << (a.bit_length() - 1)
    return (lo, 2 * lo) if q > 0 else (-2 * lo, -lo)


def _add_run_float(s: SimFloat, c: SimFloat, count: int, mode: str) -> SimFloat:
    """Fold ``count`` copies of ``c`` into ``s`` with per-add rounding.

    Semantically identical to ``for _ in range(count): s = s (+) c`` but
    detects the two stationary regimes a constant addend produces and
    jumps across them:

    * absorption — one add leaves ``s`` unchanged, so all remaining adds
      do too;
    * periodic drift — two consecutive adds move ``s`` by the same exact
      ``delta``.  Equal consecutive displacements force the addend's
      offset against the rounding grid to repeat, so the motion stays
      linear while the fold remains inside the region where both the
      accumulator's and the exact sum's grids are constant.  The number
      of in-region steps has a closed form; they are applied at once.

    Values are compared as integer counts of the format's finest spacing,
    and a run's last add (a run of one included) only adds.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if count == 0 or not s.is_finite():
        return s  # saturated: finite addends cannot leave infinity
    fmt = s.fmt
    prev = None  # (delta, exact-sum region) observed on the last step
    while True:
        t = add_float(s, c, mode)
        count -= 1
        if count == 0 or t == s or not t.is_finite():
            return t
        s_g, t_g, c_g = s.to_grid(), t.to_grid(), c.to_grid()
        delta = t_g - s_g
        region = _region_of_exact(s_g + c_g, fmt)
        s = t
        if prev == (delta, region):
            # Two consecutive adds moved by the same delta while the exact
            # sums shared one rounding region: equal displacements force
            # equal grid offsets, so the motion is linear until the exact
            # sum leaves the region.  Staying strictly below the infinity
            # point keeps saturation out of the batch.
            inf_g = SimFloat.inf(fmt).to_grid()
            lo = max(region[0] - c_g, -inf_g)
            hi = min(region[1] - c_g, inf_g)
            if lo < t_g < hi:
                # the most whole steps that stay strictly inside (lo, hi)
                room = hi - t_g if delta > 0 else t_g - lo
                j = min((room - 1) // abs(delta), count)
                if j > 0:
                    landed = Dyadic(t_g + delta * j, fmt.emin - fmt.k)
                    s = round_dyadic(landed, fmt, "toward_zero")  # on-grid
                    count -= j
                    if count == 0:
                        return s
                    prev = None
                    continue
        prev = (delta, region)


def _add_run_int(s: KInt, c: KInt, count: int) -> KInt:
    fmt = s.fmt
    total = s.value + c.value * count
    if fmt.overflow == "wraparound":
        return KInt(fmt, fmt.wrap(total))
    # Saturating folds of a constant addend clamp the true partial sum:
    # the accumulator moves monotonically toward one rail and stays there.
    return KInt(fmt, fmt.clamp(total))


# ---------------------------------------------------------------------------
# The four algorithms
# ---------------------------------------------------------------------------

def _zero_of(dataset: Dataset):
    if isinstance(dataset.fmt, FloatFormat):
        return SimFloat.zero(dataset.fmt)
    return KInt(dataset.fmt, 0)


def bs_iterative(dataset: Dataset, rounding: str = "banker"):
    """Left fold with one rounded add per element."""
    acc = _zero_of(dataset)
    if isinstance(dataset.fmt, FloatFormat):
        for v, count in dataset.runs:
            acc = _add_run_float(acc, v, count, rounding)
    else:
        for v, count in dataset.runs:
            acc = _add_run_int(acc, v, count)
    return acc


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
    """
    runs = dataset.runs
    if not runs:
        return _zero_of(dataset)
    is_float = isinstance(dataset.fmt, FloatFormat)
    if is_float:
        add = lambda a, b: add_float(a, b, rounding)
    else:
        add = add_int
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
        if is_float and not left.is_finite():
            return left  # final: the cursor is not read again
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

    Each run is folded by :func:`_kahan_run`, which jumps across the
    periodic stretches a constant addend produces.
    """
    if not isinstance(dataset.fmt, FloatFormat):
        raise TypeError("compensated summation is defined for float formats")
    total = comp = SimFloat.zero(dataset.fmt)
    for v, count in dataset.runs:
        total, comp = _kahan_run(total, comp, v, count, rounding)
        if not total.is_finite():
            break  # the step keeps an infinite total as it is
    return total


def kahan_step(total: SimFloat, comp: SimFloat, v: SimFloat,
               rounding: str) -> Tuple[SimFloat, SimFloat]:
    """One element of compensated summation: the next ``(total, comp)``.

    An infinite running sum is final: it is kept, with its compensation,
    whatever ``v`` is.  See :func:`bs_kahan` for the overflow rules.
    """
    if not total.is_finite():
        return total, comp
    y = add_float(v, -comp, rounding)
    t = add_float(total, y, rounding)
    if not t.is_finite():
        return t, comp
    comp = add_float(add_float(t, -total, rounding), -y, rounding)
    if not comp.is_finite():
        comp = SimFloat.zero(t.fmt)
    return t, comp


# the longest period, in steps, that the Kahan run fold looks for
_KAHAN_MAX_PERIOD = 4


def _kahan_run(total: SimFloat, comp: SimFloat, v: SimFloat, count: int,
               mode: str) -> Tuple[SimFloat, SimFloat]:
    """Fold ``count`` copies of ``v`` into the Kahan state ``(total, comp)``.

    Semantically identical to ``count`` calls of :func:`kahan_step`, and
    a run of one is exactly one call.  Longer runs step literally while
    watching the state ``S = (T, C)`` and the step's four adds in grid
    units (see :meth:`SimFloat.to_grid`), and jump across whole periods
    of at most ``_KAHAN_MAX_PERIOD`` steps once one is established.

    A step from ``(T, C)`` makes four adds.  Their exact sums are
    ``q1 = v - C``, ``q2 = T + y``, ``q3 = t - T`` and ``q4 = d - y``,
    where ``y, t, d, c`` are the rounded results and ``(t, c)`` is the
    next state.  A period of ``p`` steps is established when the last
    ``2p`` steps moved the state by the same ``(dT, dC)`` over any ``p``
    of them (``S[i+p] - S[i]`` is constant for ``i = 0 .. p``).  Every
    exact sum is affine in the state and the earlier results of its step,
    so in the next period each add's exact sum moves by the same ``a`` as
    in the last one, and if its rounding behaves the same way its result
    moves by the same ``b``: by induction over the later steps the state
    then keeps moving by ``(dT, dC)`` per period.  See
    :func:`_linear_room` for how long each add's rounding provably does;
    the jump takes the fewest whole periods any add allows, and the fold
    continues literally.  With ``dT = dC = 0`` the state itself repeats,
    and every remaining whole period is skipped.

    This is :func:`_add_run_float`'s argument, for four adds instead of
    one, a period of ``p`` steps instead of one, and rounding errors that
    may drift: the compensation absorbs the part of ``v`` that ``T``
    cannot hold, a little more each step, so ``q1``'s error and ``q2``'s
    offset against its grid change linearly until a rounding flips.
    A step whose compensation overflowed (and was dropped) is not
    watched at all.

    Runs with no period this short step literally; past
    ``MATERIALIZE_LIMIT`` literal steps in one run the fold gives up
    with ``ValueError`` rather than hang.
    """
    if count == 1:
        return kahan_step(total, comp, v, mode)
    fmt = v.fmt
    v_g = v.to_grid()
    states = [(total.to_grid(), comp.to_grid())]  # since the last jump
    steps = []  # each step's four (exact sum, result) pairs
    literal = 0
    while count and total.is_finite():
        if literal == MATERIALIZE_LIMIT:
            raise ValueError(
                f"compensated summation found no period of at most "
                f"{_KAHAN_MAX_PERIOD} steps in {literal} copies of {v}")
        literal += 1
        y = add_float(v, -comp, mode)  # the step's first add, watched
        t, c = kahan_step(total, comp, v, mode)
        count -= 1
        if count == 0 or not t.is_finite():
            return t, c
        d_g = add_float(t, -total, mode).to_grid()  # and its third
        T, C = states[-1]
        y_g, t_g, c_g = y.to_grid(), t.to_grid(), c.to_grid()
        total, comp = t, c
        states.append((t_g, c_g))
        if c_g == 0 and d_g != y_g:  # the compensation overflowed
            del states[:-1]
            steps.clear()
            continue
        steps.append(((v_g - C, y_g), (T + y_g, t_g), (t_g - T, d_g),
                      (d_g - y_g, c_g)))
        jump = _kahan_period(states, steps, fmt, mode, count)
        if jump is None:
            del states[:-2 * _KAHAN_MAX_PERIOD - 1]
            del steps[:-2 * _KAHAN_MAX_PERIOD]
            continue
        periods, p, (d_t, d_c) = jump
        count -= periods * p
        state = (t_g + periods * d_t, c_g + periods * d_c)
        total, comp = (round_dyadic(Dyadic(g, fmt.emin - fmt.k), fmt,
                                    "toward_zero") for g in state)  # on-grid
        states = [state]
        steps = []
    return total, comp


def _kahan_period(states: list, steps: list, fmt: FloatFormat, mode: str,
                  count: int):
    """``(periods, p, (dT, dC))`` for the jump :func:`_kahan_run` may
    take now, or None.

    ``states`` ends with the current state, ``steps`` holds the watched
    adds of each step between them, and ``count`` steps are left.  Tries
    ``p = 1 .. _KAHAN_MAX_PERIOD`` and takes the first period that the
    last ``2p`` steps establish.
    """
    n = len(steps)
    for p in range(1, min(_KAHAN_MAX_PERIOD, n // 2, count) + 1):
        d_t = states[n][0] - states[n - p][0]
        d_c = states[n][1] - states[n - p][1]
        if any(states[n - i][0] - states[n - p - i][0] != d_t
               or states[n - i][1] - states[n - p - i][1] != d_c
               for i in range(1, p + 1)):
            continue
        periods = min(_linear_room(then, now, fmt, mode)
                      for i in range(n - p, n)
                      for then, now in zip(steps[i - p], steps[i]))
        periods = min(periods, count // p)
        return (periods, p, (d_t, d_c)) if periods > 0 else None
    return None


def _linear_room(then: Tuple[int, int], now: Tuple[int, int],
                 fmt: FloatFormat, mode: str):
    """How many more periods one add can keep moving linearly.

    The add's exact sum moved from ``q0`` to ``q`` over the last period
    and its result from ``r0`` to ``r`` (grid units); the next ``j``
    periods would give ``q + j*a`` and ``r + j*b``.  These are the true
    rounded results for as long as:

    * the result stays strictly below the infinity point, so no overflow
      rule fires;
    * an exact add (``r = q`` both times) keeps an exact sum that is
      representable: ``q`` and ``a`` are multiples of ``2^s``, and every
      multiple of ``2^s`` below ``2^(k+1+s)`` grid units is a float;
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
    inf_g = 1 << (fmt.emax + 1 - fmt.emin + fmt.k)
    room = _room(r, b, 1 - inf_g, inf_g - 1)
    if r == q and r0 == q0:
        if a:
            s = ((q | a) & -(q | a)).bit_length() - 1
            top = 1 << (fmt.k + 1 + s)
            room = min(room, _room(q, a, 1 - top, top - 1))
        return room
    region = _region_of_exact(q, fmt)
    if region != _region_of_exact(q0, fmt):
        return 0
    lo, hi = region
    room = min(room, _room(q, a, lo + 1, hi - 1))
    if a != b:
        u = min(abs(lo), abs(hi)) >> fmt.k
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
    all use the format's own overflow policy (the schedule is irrelevant
    to the value there — same-sign integer adds commute even under
    saturation — but keeping one schedule keeps the method one thing).
    """
    fmt = dataset.fmt
    ordered = sorted(dataset.runs, key=lambda run: order_key(run[0]))
    if isinstance(fmt, FloatFormat):
        pos = SimFloat.zero(fmt)
        for v, count in ordered:
            if not (v.sign < 0 and not v.is_zero()):
                pos = _add_run_float(pos, v, count, "toward_zero")
        neg = SimFloat.zero(fmt)
        for v, count in reversed(ordered):
            if v.sign < 0 and not v.is_zero():
                neg = _add_run_float(neg, v, count, "toward_zero")
        if pos.kind == "inf":
            pos = round_dyadic(fmt.max_finite, fmt, "toward_zero")
            if events is not None:
                events.append("positive_partial_clamped")
        if neg.kind == "inf":
            neg = -round_dyadic(fmt.max_finite, fmt, "toward_zero")
            if events is not None:
                events.append("negative_partial_clamped")
        return add_float(pos, neg, "banker")
    pos = KInt(fmt, 0)
    for v, count in ordered:
        if v.value >= 0:
            pos = _add_run_int(pos, v, count)
    neg = KInt(fmt, 0)
    for v, count in reversed(ordered):
        if v.value < 0:
            neg = _add_run_int(neg, v, count)
    return add_int(pos, neg)


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------

def truncate(dataset: Dataset, n_max: int) -> Dataset:
    """Keep the first ``n_max`` elements."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    out = []
    left = n_max
    for v, c in dataset.runs:
        if left == 0:
            break
        take = min(c, left)
        out.append((v, take))
        left -= take
    return dataset.replace_runs(out)


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
    values = sorted(dataset.to_list(), key=order_key)
    return dataset.replace_elements(_fisher_yates(values, random.Random(seed)))


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
    """
    fmt = dataset.fmt
    if isinstance(fmt, FloatFormat):
        lo_d = dataset.lower.to_dyadic()
        span = dataset.upper.to_dyadic() - lo_d
        if not is_representable(span, fmt):
            raise ValueError("shifted upper bound U - L is not representable")
        new_upper = round_dyadic(span, fmt, "toward_zero")
        runs = []
        for v, c in dataset.runs:
            moved = v.to_dyadic() - lo_d
            if not is_representable(moved, fmt):
                raise ValueError(f"shifted element {v} - {dataset.lower} "
                                 "is not representable")
            runs.append((round_dyadic(moved, fmt, "toward_zero"), c))
        return Dataset(fmt, SimFloat.zero(fmt), new_upper, runs)
    span = dataset.upper.value - dataset.lower.value
    if span > fmt.max_value:
        raise ValueError("shifted upper bound U - L exceeds the type range")
    lo = dataset.lower.value
    runs = [(KInt(fmt, v.value - lo), c) for v, c in dataset.runs]
    return Dataset(fmt, KInt(fmt, 0), KInt(fmt, span), runs)


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

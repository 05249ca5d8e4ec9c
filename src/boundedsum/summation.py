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

All of them consume run-length encoded datasets.  Long runs of one value
are fast-forwarded: integer runs have closed forms, and float runs are
batched once the fold enters a provably periodic regime (see
``_add_run_float``), so attack datasets with millions of repeats sum in
microseconds without a single approximation.

The module also houses the dataset transforms (truncation, seeded random
permutation, bound shifting) and the two overflow precondition checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple, Union

from .data import Dataset, MATERIALIZE_LIMIT, exact_value
from .dyadic import Dyadic, floor_log2_fraction
from .floats import (ROUNDING_MODES, FloatFormat, SimFloat, add_float,
                     round_dyadic, is_representable)
from .ints import IntFormat, KInt, add_int

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
    if isinstance(dataset.fmt, FloatFormat):
        total = Dyadic(0)
        for v, c in dataset.runs:
            total = total + v.to_dyadic() * c
        return total
    return sum(v.value * c for v, c in dataset.runs)


# ---------------------------------------------------------------------------
# Float run fast-forward
# ---------------------------------------------------------------------------

def _region_of_exact(q: Fraction, fmt: FloatFormat) -> Tuple[Fraction, Fraction]:
    a = abs(q)
    if a < Fraction(2) ** fmt.emin:
        edge = Fraction(2) ** fmt.emin
        return (-edge, edge)
    b = floor_log2_fraction(a)
    lo = Fraction(2) ** b
    hi = lo * 2
    return (lo, hi) if q > 0 else (-hi, -lo)


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
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    fmt = s.fmt
    c_fr = c.to_dyadic().to_fraction()
    inf_fr = fmt.inf_value.to_fraction()
    prev = None  # (delta, exact-sum region) observed on the last step
    while count > 0:
        if s.kind == "inf":
            return s  # saturated: finite addends cannot leave infinity
        q_fr = s.to_dyadic().to_fraction() + c_fr
        t = add_float(s, c, mode)
        count -= 1
        if t == s:
            return s
        delta = t.to_dyadic() - s.to_dyadic()
        s = t
        if count == 0 or t.kind == "inf":
            prev = None
            continue
        region = _region_of_exact(q_fr, fmt)
        if prev == (delta, region):
            # Two consecutive adds moved by the same delta while the exact
            # sums shared one rounding region: equal displacements force
            # equal grid offsets, so the motion is linear until the exact
            # sum leaves the region.  Staying strictly below the infinity
            # point keeps saturation out of the batch.
            t_fr = t.to_dyadic().to_fraction()
            d_fr = delta.to_fraction()
            lo = max(region[0] - c_fr, -inf_fr)
            hi = min(region[1] - c_fr, inf_fr)
            if lo < t_fr < hi:
                room = (hi - t_fr) / d_fr if d_fr > 0 else (t_fr - lo) / (-d_fr)
                j = int(room)
                if room == j:
                    j -= 1
                j = min(j, count)
                if j > 0:
                    landed = t.to_dyadic() + delta * j
                    s = round_dyadic(landed, fmt, "toward_zero")  # on-grid
                    count -= j
                    prev = None
                    continue
        prev = (delta, region)
    return s


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
    """
    values = dataset.to_list()
    if not values:
        return _zero_of(dataset)
    is_float = isinstance(dataset.fmt, FloatFormat)
    if is_float:
        add = lambda a, b: add_float(a, b, rounding)
    else:
        add = add_int

    def rec(lo: int, hi: int):
        n = hi - lo
        if n == 1:
            return values[lo]
        m = 1 << ((n - 1).bit_length() - 1)
        left = rec(lo, lo + m)
        if is_float and left.kind == "inf":
            return left
        return add(left, rec(lo + m, hi))

    return rec(0, len(values))


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
    """
    if not isinstance(dataset.fmt, FloatFormat):
        raise TypeError("compensated summation is defined for float formats")
    zero = SimFloat.zero(dataset.fmt)
    total = comp = zero
    for v in dataset.iter_values():
        y = add_float(v, -comp, rounding)
        t = add_float(total, y, rounding)
        if t.kind == "inf":
            return t
        comp = add_float(add_float(t, -total, rounding), -y, rounding)
        if comp.kind == "inf":
            comp = zero
        total = t
    return total


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
    ordered = sorted(dataset.runs, key=lambda run: exact_value(run[0]))
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
    values = sorted(dataset.to_list(), key=exact_value)
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


def _dyadic_at_most(fr: Fraction, bits: int) -> Dyadic:
    num = (fr.numerator << bits) // fr.denominator
    return Dyadic(num, -bits)


def _dyadic_at_least(fr: Fraction, bits: int) -> Dyadic:
    num = -((-fr.numerator << bits) // fr.denominator)
    return Dyadic(num, -bits)


def float_overflow_check(lower: SimFloat, upper: SimFloat, n: int,
                         accuracy: Fraction, fmt: FloatFormat) -> bool:
    """Certify that ``n`` in-range elements cannot reach ``±inf``.

    Rounds ``L*n`` down and ``U*n`` up, widens each by the summation
    method's worst-case accuracy, and rejects if either widened end rounds
    to an infinity.  All rounding here is directed outward, so a ``True``
    answer is a guarantee, never a hope.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    guard_bits = 4 * (fmt.mantissa_bits + fmt.exponent_bits) + 64
    lo_prod = round_dyadic(lower.to_dyadic() * n, fmt, "toward_neg")
    hi_prod = round_dyadic(upper.to_dyadic() * n, fmt, "toward_pos")
    if lo_prod.kind == "inf" or hi_prod.kind == "inf":
        return False
    acc = Fraction(accuracy)
    if acc < 0:
        raise ValueError("accuracy must be nonnegative")
    low_end = _dyadic_at_most(lo_prod.to_dyadic().to_fraction() - acc, guard_bits)
    high_end = _dyadic_at_least(hi_prod.to_dyadic().to_fraction() + acc, guard_bits)
    if round_dyadic(low_end, fmt, "toward_neg").kind == "inf":
        return False
    if round_dyadic(high_end, fmt, "toward_pos").kind == "inf":
        return False
    return True

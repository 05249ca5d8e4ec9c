"""Sensitivity bounds for bounded sums, and the oracles that check them.

Three layers live here:

1. :func:`idealized_sensitivity` — what the textbook analysis over the
   reals gives: ``max(|L|, U)`` for the add/remove metrics, ``U - L`` for
   the replace-one metrics.  Finite arithmetic can exceed these, which is
   the whole story this package tells.

2. :func:`implemented_sensitivity_bound` — certified upper bounds on the
   sensitivity of an actual summation method over the emulated type,
   dispatching on (format, overflow policy, algorithm, transforms,
   metric).  Each supported combination maps to one named rule; anything
   outside the proven territory raises :class:`UnsupportedCombination`
   rather than guessing, and a combination whose premise fails (overflow
   not excluded, size unknown, missing permutation) raises
   :class:`PreconditionFailed`.

3. :func:`brute_force_sensitivity` — the ground truth: enumerate every
   dataset over the representable values inside the bounds, release each
   one once, and maximize the release gap over adjacent pairs.  Only
   feasible for tiny formats, which is exactly where it is used to
   sandwich the analytic bounds between attack lower bounds and the
   certified upper bounds.  The scan runs on numpy arrays: the releases
   of one length are an int array over the tuples in product order, read
   off step tables of the summation's own adds, and adjacent datasets
   meet in groups that are reductions of that array — ``ham`` one axis,
   ``co`` and ``sym`` sorted multiset codes, ``id`` the tuples
   themselves, probed by their deletions.

The coupling constructions near the bottom turn unordered adjacency into
ordered adjacency after a random permutation; they are what lets the
ordered-metric bounds serve the add/remove world.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import List, Optional, Tuple, Union

import numpy as np

from .data import (Dataset, ElementFormat, Value, check_materialize,
                   exact_value, order_key)
from .dyadic import Dyadic, floor_log2_fraction
from .floats import (FloatFormat, SimFloat, _bits_grid, _pattern_ranges,
                     add_bits, is_representable)
from .ints import IntFormat, KInt
from .metrics import histogram
from .summation import (RandomPermutation, ShiftBounds, SumMethod, Truncate,
                        _fisher_yates, _kahan_bits, _shift_dataset,
                        check_multiplication, float_overflow_check, run_sum)

__all__ = [
    "METRICS", "SensSpec", "SensitivityBound", "BruteForceResult",
    "Recommendation", "PreconditionFailed", "UnsupportedCombination",
    "idealized_sensitivity", "modular_sensitivity_bound", "accuracy_bound",
    "implemented_sensitivity_bound", "brute_force_sensitivity",
    "couple_sym", "couple_co", "recommend", "KAHAN_ACCURACY_CONSTANT",
]

METRICS = ("sym", "co", "ham", "id")
UNORDERED_METRICS = ("sym", "co")
KNOWN_N_METRICS = ("co", "ham")

# Largest dataset count times length that brute force will enumerate.
WORK_GUARD = 10_000_000

# Constant in the compensated-summation error bound (2t + C*n*t^2)*n*max.
# The classical analysis leaves the constant unnamed and no test pins it:
# at sizes small enough to brute force even C = 0 stays above the true
# sensitivity (float (2,3), bounds [-1, 1], n = 2: the bound with C = 0 is
# 3, brute force gives 17/8).  8 is a conservative choice, not a measured
# one.
KAHAN_ACCURACY_CONSTANT = 8


class PreconditionFailed(ValueError):
    """A stated precondition of the requested operation does not hold."""


class UnsupportedCombination(ValueError):
    """No certified bound exists for this method/metric combination."""


@dataclass(frozen=True)
class SensSpec:
    """What sensitivity question is being asked.

    ``n`` is the exact dataset size for the known-size metrics (``co``,
    ``ham``) and the size cap for brute force under ``sym``/``id``.
    ``checked`` asserts the caller verifies the no-overflow product
    condition before running the mechanism.
    """

    fmt: ElementFormat
    lower: Value
    upper: Value
    metric: str
    method: SumMethod = SumMethod()
    n: Optional[int] = None
    checked: bool = False

    def __post_init__(self):
        if self.metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}")
        if (Dataset._check_value(self.fmt, self.lower, "lower bound")
                > Dataset._check_value(self.fmt, self.upper, "upper bound")):
            raise ValueError("lower bound exceeds upper bound")
        if self.n is not None and self.n < 0:
            raise ValueError("n must be nonnegative")


@dataclass(frozen=True)
class SensitivityBound:
    """An upper bound plus where it came from.

    ``output_metric`` says how distances between *releases* are measured:
    ``abs`` for ordinary absolute difference, ``mod`` when the bound only
    holds for the wraparound distance on residues (and the noise must be
    folded onto the same residue circle).  ``details`` carries
    rule-specific extras, e.g. the coarse constant-factor form of the
    split bounds or the accuracy term that was doubled in.
    """

    value: Fraction
    rule: str
    output_metric: str = "abs"
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        def enc(v):
            return str(v) if isinstance(v, (Fraction, Dyadic)) else v
        return {"value": str(self.value), "rule": self.rule,
                "output_metric": self.output_metric,
                "details": {k: enc(v) for k, v in sorted(self.details.items())}}


def _pow2(e: int) -> Fraction:
    return Fraction(2) ** e


# ---------------------------------------------------------------------------
# Idealized and modular bounds
# ---------------------------------------------------------------------------

def idealized_sensitivity(spec: SensSpec) -> SensitivityBound:
    """Real-arithmetic sensitivity of the bounded sum.

    ``sym``/``id``: adding or removing one element moves the sum by at
    most ``max(|L|, U)``, and that is achieved.  ``co``/``ham``:
    replacing one element moves it by at most ``U - L``, also achieved.
    """
    lo, hi = exact_value(spec.lower), exact_value(spec.upper)
    if spec.metric in ("sym", "id"):
        value = max(abs(lo), abs(hi))
    else:
        value = hi - lo
    return SensitivityBound(value=value, rule=f"idealized-{spec.metric}")


def modular_sensitivity_bound(spec: SensSpec) -> SensitivityBound:
    """Sensitivity of the wraparound sum in wrap distance on residues.

    Any addition order computes the exact sum modulo ``2^bits``, one
    changed or added element moves that residue by at most its idealized
    amount, and no two residues are further than half the modulus apart —
    so the wrap distance is bounded by ``min(floor(m/2), idealized)``.
    The bound is about residues: the noise must live on the same circle.
    """
    if not isinstance(spec.fmt, IntFormat):
        raise UnsupportedCombination("modular sensitivity needs an integer format")
    if spec.fmt.overflow != "wraparound":
        raise UnsupportedCombination("modular sensitivity is a wraparound story")
    m = spec.fmt.modulus
    ideal = idealized_sensitivity(spec).value
    return SensitivityBound(value=min(Fraction(m // 2), ideal),
                            rule=f"modular-{spec.metric}",
                            output_metric="mod", details={"modulus": m})


# ---------------------------------------------------------------------------
# Accuracy bounds for float summation
# ---------------------------------------------------------------------------

def accuracy_bound(algorithm: str, n: int, fmt: FloatFormat,
                   lower: Value, upper: Value) -> Fraction:
    """Worst-case ``|computed - exact|`` for ``n`` in-range normal floats.

    iterative: ``n^2 * t * max(|L|, U)``
    pairwise:  ``(c*t) / (1 - c*t) * n * max(|L|, U)``,
               ``c = ceil(log2 n)`` — needs ``c*t < 1/2``
    kahan:     ``(2t + C*n*t^2) * n * max(|L|, U)``

    with ``t = 2^-(k+1)`` the unit roundoff of a ``k``-bit mantissa.  The
    bounds may be SimFloats or their exact Fractions.
    """
    if n < 0:
        raise PreconditionFailed("n must be nonnegative")
    max_mag = max(abs(exact_value(lower)), abs(exact_value(upper)))
    t = Fraction(1, 2 ** (fmt.mantissa_bits + 1))
    if algorithm == "iterative":
        return n * n * t * max_mag
    if algorithm == "pairwise":
        if n <= 1:
            return Fraction(0)
        c = (n - 1).bit_length()  # ceil(log2 n) for n >= 2
        if c * t >= Fraction(1, 2):
            raise PreconditionFailed(
                "cascade accuracy bound needs ceil(log2 n) * 2^-(k+1) < 1/2")
        return (c * t) / (1 - c * t) * n * max_mag
    if algorithm == "kahan":
        return (2 * t + KAHAN_ACCURACY_CONSTANT * n * t * t) * n * max_mag
    raise UnsupportedCombination(f"no accuracy bound for {algorithm!r}")


# ---------------------------------------------------------------------------
# Implemented sensitivity dispatch
# ---------------------------------------------------------------------------

def _has(method: SumMethod, kind) -> bool:
    return any(isinstance(t, kind) for t in method.transforms)


def _get(method: SumMethod, kind):
    return next((t for t in method.transforms if isinstance(t, kind)), None)


def _only_transforms(method: SumMethod, *allowed) -> bool:
    return all(isinstance(t, allowed) for t in method.transforms)


def implemented_sensitivity_bound(spec: SensSpec) -> SensitivityBound:
    """Certified sensitivity upper bound for the actual implementation.

    Every supported (format, policy, algorithm, transforms, metric)
    combination maps to one named rule; see the module docstring for the
    failure taxonomy.
    """
    if isinstance(spec.fmt, IntFormat):
        return _int_bound(spec)
    return _float_bound(spec)


def _int_bound(spec: SensSpec) -> SensitivityBound:
    fmt: IntFormat = spec.fmt
    method = spec.method
    if method.algorithm == "kahan":
        raise UnsupportedCombination("compensated summation is float-only")

    if spec.checked:
        if spec.n is None:
            raise PreconditionFailed("the checked regime needs a known size")
        if not _only_transforms(method, RandomPermutation):
            raise UnsupportedCombination(
                "the checked regime covers plain (optionally shuffled) sums")
        if not check_multiplication(spec.lower, spec.upper, spec.n, fmt):
            raise PreconditionFailed(
                "n*U or n*L escapes the type range; the checked regime "
                "does not apply to these parameters")
        return SensitivityBound(value=idealized_sensitivity(spec).value,
                                rule="int-checked-idealized",
                                details={"n": spec.n})

    if fmt.overflow == "wraparound":
        # Without the product check, a wraparound sum is only safe in the
        # modular world: residue outputs, modular noise.  Truncation and
        # bound shifting change the function in ways the residue argument
        # does not cover; a permutation does not change the residue at all.
        if not _only_transforms(method, RandomPermutation):
            raise UnsupportedCombination(
                "modular bounds cover plain (optionally shuffled) sums")
        return modular_sensitivity_bound(spec)

    # Saturating overflow from here on.
    if method.algorithm == "split" and _only_transforms(method, RandomPermutation):
        # Each partial is a saturating fold of same-signed values, which is
        # order-independent, so the release is a function of the multiset:
        # every metric gets its idealized value.
        return SensitivityBound(value=idealized_sensitivity(spec).value,
                                rule="int-saturating-split")
    if method.algorithm == "iterative" and not method.transforms \
            and spec.metric in ("id", "ham"):
        return SensitivityBound(value=idealized_sensitivity(spec).value,
                                rule="int-saturating-ordered")
    if method.algorithm == "iterative" and spec.metric in UNORDERED_METRICS \
            and _has(method, RandomPermutation) \
            and _only_transforms(method, RandomPermutation):
        # Unordered adjacency couples into ordered adjacency once the
        # order is freshly randomized, so the ordered bound transfers.
        return SensitivityBound(value=idealized_sensitivity(spec).value,
                                rule="int-saturating-shuffled")
    raise UnsupportedCombination(
        f"no certified bound for saturating ints with "
        f"algorithm={method.algorithm!r}, metric={spec.metric!r}, "
        f"transforms={method.transforms!r}")


def _float_bound(spec: SensSpec) -> SensitivityBound:
    method = spec.method
    if spec.checked:
        raise UnsupportedCombination(
            "the checked-multiplication regime is an integer story; float "
            "overflow is excluded via the accuracy routes instead")
    if method.algorithm == "split":
        return _split_rtz_bound(spec)
    if method.rounding != "banker":
        raise UnsupportedCombination(
            "certified float bounds assume round-to-nearest element adds")
    if method.algorithm not in ("iterative", "pairwise", "kahan"):
        raise UnsupportedCombination(f"unknown algorithm {method.algorithm!r}")
    if spec.metric in KNOWN_N_METRICS:
        return _float_accuracy_bound(spec)
    return _float_truncated_bound(spec)


def _effective_float_bounds(spec: SensSpec) -> Tuple[Fraction, Fraction, str]:
    """Bounds seen by the summation core, after an exact bound shift."""
    lo, hi = exact_value(spec.lower), exact_value(spec.upper)
    if _has(spec.method, ShiftBounds):
        span = hi - lo
        if not is_representable(span, spec.fmt):
            raise PreconditionFailed(
                "U - L is not exactly representable, so the shifted sum "
                "would compute a different function")
        return Fraction(0), span, "+shift"
    return lo, hi, ""


def _float_accuracy_bound(spec: SensSpec) -> SensitivityBound:
    """``co``/``ham`` for iterative, cascade, or compensated float sums.

    Replace-one adjacency leaves the exact sum within ``U - L``; the
    accuracy theorem bounds each computed sum's distance to its exact sum
    in any element order; the triangle inequality does the rest —
    provided no intermediate result can saturate to infinity, which the
    directed-rounding overflow certificate establishes first.
    """
    method = spec.method
    if not _only_transforms(method, RandomPermutation, ShiftBounds):
        raise UnsupportedCombination(
            "the replace-one accuracy route covers plain, shuffled, or "
            "shifted sums; truncation changes which elements are summed")
    if spec.n is None:
        raise PreconditionFailed("co/ham accuracy bounds need a known size")
    lo, hi, suffix = _effective_float_bounds(spec)
    acc = accuracy_bound(method.algorithm, spec.n, spec.fmt, lo, hi)
    if not float_overflow_check(lo, hi, spec.n, acc, spec.fmt):
        raise PreconditionFailed(
            "these parameters admit overflow to infinity; the accuracy "
            "route requires the overflow certificate to pass")
    return SensitivityBound(
        value=(hi - lo) + 2 * acc,
        rule=f"float-{method.algorithm}-accuracy{suffix}",
        details={"accuracy": acc, "n": spec.n})


def _float_truncated_bound(spec: SensSpec) -> SensitivityBound:
    """``sym``/``id`` for plain float algorithms, via a truncation cap.

    Without a size cap the accumulated rounding error is unbounded, so
    these metrics require a ``Truncate(n_max)`` transform.  Inserting one
    element before the cap evicts at most one other, so the exact sums of
    the truncated prefixes differ by at most ``max(|L|, U, U - L)``; the
    accuracy theorem at ``n_max`` covers the rest.  ``sym`` adjacency
    says nothing about positions, so it additionally needs a random
    permutation ahead of the truncation (the shuffle couples unordered
    adjacency into insert/delete adjacency).
    """
    method = spec.method
    trunc = _get(method, Truncate)
    if trunc is None:
        raise UnsupportedCombination(
            "sym/id bounds for iterative/pairwise/kahan float sums need a "
            "truncation transform (or use the split algorithm)")
    if not _only_transforms(method, RandomPermutation, ShiftBounds, Truncate):
        raise UnsupportedCombination("unrecognized transform combination")
    if spec.metric == "sym":
        idx_rp = next((i for i, t in enumerate(method.transforms)
                       if isinstance(t, RandomPermutation)), None)
        idx_tr = next(i for i, t in enumerate(method.transforms)
                      if isinstance(t, Truncate))
        if idx_rp is None or idx_rp > idx_tr:
            raise PreconditionFailed(
                "the sym bound for truncated summation needs a random "
                "permutation applied before the truncation")
    n_max = trunc.n_max
    lo, hi, suffix = _effective_float_bounds(spec)
    acc = accuracy_bound(method.algorithm, n_max, spec.fmt, lo, hi)
    if not float_overflow_check(lo, hi, n_max, acc, spec.fmt):
        raise PreconditionFailed(
            "these parameters admit overflow to infinity at the truncation "
            "cap; the accuracy route requires the overflow certificate")
    value = max(abs(lo), abs(hi), hi - lo) + 2 * acc
    return SensitivityBound(
        value=value, rule=f"float-{method.algorithm}-truncated{suffix}",
        details={"accuracy": acc, "n_max": n_max})


def _split_rtz_bound(spec: SensSpec) -> SensitivityBound:
    """Sign-partitioned summation with toward-zero partials.

    Toward-zero accumulation of same-signed values is monotone and can
    only lose ground to the exact partial, which caps how far one
    inserted or replaced element moves the release regardless of the
    dataset size.  The bounds depend only on the magnitudes of the bounds
    (plus ``n`` in the known-size form) and hold for elements in the
    normal range.

    Unknown size (``id``; ``sym`` after a shuffle), with
    ``b = floor(log2 mag)`` per nonzero side::

        max over sides of (2^b + mag)  +  max over sides of 2^b    <= 3*max

    Known size (``ham``; ``co`` after a shuffle), with
    ``c = floor(log2 mag)`` and ``b = min(c, floor(log2(n*mag)) - k)``::

        sum over sides of (2^b + mag)
          + max over sides of min(2^b, 2^(c+1))                    <= 5*max
    """
    fmt: FloatFormat = spec.fmt
    method = spec.method
    metric = spec.metric
    if not _only_transforms(method, RandomPermutation, ShiftBounds):
        raise UnsupportedCombination(
            "split bounds cover plain, shuffled, or shifted sums")
    if metric in UNORDERED_METRICS and not _has(method, RandomPermutation):
        raise PreconditionFailed(
            "unordered metrics for split summation need a random "
            "permutation: the bound is proven for the shuffled release")
    lo, hi, suffix = _effective_float_bounds(spec)
    k = fmt.mantissa_bits
    u_mag = max(hi, Fraction(0))
    l_mag = max(-lo, Fraction(0))
    mags = [m for m in (u_mag, l_mag) if m > 0]
    assumes = "elements in the normal range"

    if metric in ("sym", "id"):
        if not mags:
            return SensitivityBound(Fraction(0),
                                    rule=f"float-split-unknown-n{suffix}")
        side = max(_pow2(floor_log2_fraction(m)) + m for m in mags)
        value = side + max(_pow2(floor_log2_fraction(m)) for m in mags)
        return SensitivityBound(
            value=value, rule=f"float-split-unknown-n{suffix}",
            details={"coarse": 3 * max(mags), "assumes": assumes})

    if spec.n is None:
        raise PreconditionFailed("co/ham split bounds need a known size")
    if spec.n < 1:
        raise PreconditionFailed("co/ham need at least one element")
    if not mags:
        return SensitivityBound(Fraction(0),
                                rule=f"float-split-known-n{suffix}")
    total = Fraction(0)
    third = []
    for mag in mags:
        c = floor_log2_fraction(mag)
        b = min(c, floor_log2_fraction(spec.n * mag) - k)
        total += _pow2(b) + mag
        third.append(min(_pow2(b), _pow2(c + 1)))
    return SensitivityBound(
        value=total + max(third), rule=f"float-split-known-n{suffix}",
        details={"coarse": 5 * max(mags), "assumes": assumes, "n": spec.n})


# ---------------------------------------------------------------------------
# Brute force ground truth
# ---------------------------------------------------------------------------

@dataclass
class BruteForceResult:
    """Exact maximum release gap over adjacent dataset pairs."""

    value: Union[Fraction, int]
    witness: Optional[Tuple[Tuple[Value, ...], Tuple[Value, ...]]]
    datasets: int
    output_metric: str


def _domain(spec: SensSpec, include_subnormals: bool):
    """Ranges of element codes inside the bounds, and the code's decoder."""
    fmt, lo, hi = spec.fmt, spec.lower, spec.upper
    if isinstance(fmt, FloatFormat):
        return (_pattern_ranges(fmt, lo, hi, include_subnormals),
                lambda bits: SimFloat(fmt, bits))
    return [range(lo.value, hi.value + 1)], lambda v: KInt(fmt, v)


def brute_force_sensitivity(spec: SensSpec, include_subnormals: bool = False
                            ) -> BruteForceResult:
    """Exact sensitivity of a deterministic method by full enumeration.

    Every dataset over the representable values inside the bounds (normal
    floats plus zero unless ``include_subnormals``) is released exactly
    once, size by size.  ``spec.n`` is the exact length for ``co``/``ham``
    and the length cap (sizes ``0..n``) for ``sym``/``id``.  The domain's
    size is known before it is built, and a dataset count times length
    above ``WORK_GUARD`` is refused.

    The scan runs on numpy arrays.  A tuple is its index in
    ``itertools.product`` order over the domain, ascending, and the
    releases of one length are an int array over those indices (see
    :class:`_Releases`): a float release in units of the finest spacing
    (:meth:`SimFloat.to_grid`; an infinity enters at its working value
    ``±2^(emax+1)``, so a method that can saturate shows gaps the size of
    the type range), a wraparound integer release as its residue.  The
    releases are read off step tables, not summed tuple by tuple.
    Adjacent pairs meet in groups, and each grouping is a reduction of
    that array:

    - ``ham``: the tuples that differ only at position ``p``, one axis of
      the array; a tuple joins its ``n`` groups ranked by ``p``;
    - ``co``: each tuple's distinct sorted remove-one multisets, ranked in
      order of first deletion, grouped by their sorted code;
    - ``sym``: each tuple's own sorted multiset, whose groups the next
      length probes by its distinct sorted remove-one multisets;
    - ``id``: each tuple is its own group, which the next length probes
      by its raw deletions, ranked by position.

    Wraparound integer releases are compared in wrap distance, matching
    the modular bounds, everything else in absolute value; see
    :class:`_Race` and :class:`_Ring` for what a group keeps and when it
    offers a gap.  The witness is the first offer, in scan order, of the
    largest gap: the least event key, which orders offers by length, then
    tuple, then a tuple's joins before its probes, then group rank, then a
    group's low before its high.  A group offers nothing when it is
    created, and an absolute group whose releases are all equal offers 0
    when its second member joins.  Only the largest gap becomes a
    Fraction.

    Each length is scanned in chunks of at most ``_CHUNK`` consecutive
    tuples, along the leading axis (``ham`` in chunks of whole groups).
    Groups that span chunks are merged in parts, two parts of about one
    size at a time, and the race keeps a single offer: the first of the
    largest gap so far.  A refusal is the method's own: the first tuple is
    summed by :func:`run_sum` and refuses what every tuple refuses, and a
    shift refuses the first element it cannot map once any tuple has an
    element to map.
    """
    if spec.n is None:
        raise PreconditionFailed("brute force needs a size (or size cap)")
    if _has(spec.method, RandomPermutation):
        raise PreconditionFailed(
            "brute force maximizes over a deterministic release; strip the "
            "permutation (its couplings are checked separately)")
    (codes, decode), n = _domain(spec, include_subnormals), spec.n
    size = sum(map(len, codes))
    sizes = [n] if spec.metric in KNOWN_N_METRICS else list(range(n + 1))
    work = sum(max(s, 1) * size ** s for s in sizes)
    if work > WORK_GUARD:
        raise PreconditionFailed(
            f"estimated {work} release/grouping steps exceed the "
            f"brute-force work guard ({WORK_GUARD})")
    # n == 0 enumerates only the empty dataset, whatever the domain
    domain = [decode(c) for r in codes for c in r] if n else []
    frame = Dataset.from_elements(spec.fmt, spec.lower, spec.upper, domain)
    if domain or not sizes[0]:  # every tuple refuses what the first does
        run_sum(frame.replace_elements_unchecked(domain[:1] * sizes[0]),
                spec.method)
    releases = _Releases(spec, frame, n, work)
    # a length with no tuple (an empty domain) has no groups
    race = _scan(spec.metric, releases, [s for s in sizes if len(domain) ** s])
    if race.pair is None and not releases.modulus and n and len(domain) > 1 \
            and spec.metric in KNOWN_N_METRICS:
        # every group's releases are equal, so the first offer is tuple 1
        # joining tuple 0's group: 0 between tuple 0 and itself
        race.pair = ((n, 0), (n, 0))
    witness = race.pair and tuple(tuple(domain[d] for d in np.unravel_index(
        key >> race.shift, (len(domain),) * k)) for k, key in race.pair)
    value = max(int(race.event[0]), 0)
    if isinstance(spec.fmt, FloatFormat):
        value = spec.fmt.grid_fraction(value)
    return BruteForceResult(value=value, witness=witness,
                            datasets=sum(len(domain) ** s for s in sizes),
                            output_metric="mod" if releases.modulus else "abs")


# Most tuples (for ham: groups times domain size) one chunk of the scan
# holds; it bounds the arrays of a length's releases and groupings.
_CHUNK = 1 << 16


def _chunks(count: int, step: int):
    """``range(count)`` as arrays of at most ``step`` consecutive ints."""
    for a in range(0, count, step):
        yield np.arange(a, min(a + step, count))


def _digits(idx, length: int, size: int):
    """The domain positions of the tuples at ``idx``, one row each."""
    return idx[:, None] // size ** np.arange(length - 1, -1, -1) % size


def _code(rows, size: int):
    """Each row of domain positions read as one base-``size`` int."""
    return rows @ size ** np.arange(rows.shape[1] - 1, -1, -1)


def _deletions(dig, size: int, distinct: bool):
    """Each tuple's remove-one deletions, position by position: which
    tuples make a new one there, its rank among theirs, and its code.

    ``distinct``: sorted multisets, each once, ranked in order of first
    deletion; otherwise the shorter tuples, ranked by position."""
    rank = np.zeros(len(dig), np.int64)
    for p in range(dig.shape[1]):
        rest = np.delete(dig, p, 1)
        new = (dig[:, :p] != dig[:, p:p + 1]).all(1) | (not distinct)
        yield new, rank, _code(np.sort(rest, 1) if distinct else rest, size)
        rank = rank + new


class _Releases:
    """The releases of the tuples of one length at any array of their
    indices, read as ints (see :func:`brute_force_sensitivity`).

    A fold is a tree over the positions whose left part is the ``k - 1``
    first elements, or for ``pairwise`` the largest power of two below
    ``k``.  A part's states are ids into its distinct states, kept whole
    for every part length, and a parent's step table takes every pair of
    part states once: by :func:`~boundedsum.floats.add_bits` (an infinite
    left operand is final), by ``summation._kahan_bits`` on a ``(total,
    comp)`` pair of patterns, or by ``IntFormat.clamp``.  ``exact`` and
    every wraparound sum add grid ints (mod ``m``).  ``split`` folds a
    pair of sign partials, toward zero for floats and clamped for
    integers, over the tuple sorted by bit pattern, which takes each sign
    class from its smallest magnitude up as ``bs_split`` does; each
    distinct pair is joined by one add (banker's for floats) when its
    release is read.

    ``truncate:t`` reads the releases at length ``min(t, k)``, and
    ``shift`` maps the domain before the fold.  Releases are int64 when
    every release, group key and gap fits, Python ints otherwise.
    """

    def __init__(self, spec: SensSpec, frame: Dataset, longest: int,
                 work: int):
        fmt, method = spec.fmt, spec.method
        wrap = isinstance(fmt, IntFormat) and fmt.overflow == "wraparound"
        m = self.modulus = fmt.modulus if wrap else None
        self.size, self.cut = len(frame), longest
        for tr in method.transforms:
            if isinstance(tr, Truncate):
                self.cut = min(self.cut, tr.n_max)
            elif self.cut > 0 and self.size:  # a shift that sees an element
                frame = _shift_dataset(frame)  # (a second one maps nothing)
        alg, mode, start = method.algorithm, method.rounding, 0
        self.tree, self.read, self.rank = alg == "pairwise", int, None
        if isinstance(fmt, FloatFormat):
            kernel, grid = fmt._kernel, partial(_bits_grid, fmt._kernel)
            sign, inf = kernel[3:]
            leaves = [v.bits for v in frame.iter_values()]
            top, exact, self.read = grid(inf), [grid(c) for c in leaves], grid
            step = partial(add_bits, kernel, mode="toward_zero")
            neg = lambda c: c & sign
            # split clamps a saturated partial to the largest finite value
            join = lambda a, b: add_bits(kernel, min(a, inf - 1),
                                         min(b, inf - 1 | sign), "banker")
            op = lambda a, b: (a if a & (sign - 1) == inf else
                               add_bits(kernel, a, b, mode))
        else:
            leaves = exact = [v.value % m if m else v.value
                              for v in frame.iter_values()]
            top, neg = max(-fmt.min_value, fmt.max_value), lambda c: c < 0
            op = step = join = lambda a, b: fmt.clamp(a + b)
        if alg == "exact" or m:  # the exact sum, or its residue
            leaves, self.read = exact, int
            op = lambda a, b: (a + b) % m if m else a + b
        elif alg == "kahan":
            leaves, start = [(c, 0) for c in leaves], (0, 0)
            op = lambda st, one: _kahan_bits(kernel, *st, one[0], mode)[:2]
            self.read = lambda st: grid(st[0])
        elif alg == "split":  # a pair of sign partials, smallest first
            read, self.rank = self.read, np.argsort(np.argsort(leaves))
            leaves = [(0, c) if neg(c) else (c, 0) for c in sorted(leaves)]
            start, self.read = (0, 0), lambda st: read(join(*st))
            op = lambda a, b: (step(a[0], b[0]), step(a[1], b[1]))
        # a release's bound, and so a group key's: ``code * width + offset
        # + release``; int64 holds every one, and every gap, or Python ints do
        self.op, top = op, top * max(longest, 1)
        self.width, self.offset = (m, 0) if m else (2 * top + 1, top)
        self.dt = object if (self.width * (work + 1)) >> 62 else np.int64
        self._nodes = {k: (0, None, x, self._reads(x))
                       for k, x in ((0, [start]), (1, leaves))}
        self._wholes = {}

    def _reads(self, states) -> np.ndarray:
        return np.array([self.read(x) for x in states], self.dt)

    def __call__(self, length: int, idx):
        k = min(length, self.cut)
        idx = idx // self.size ** (length - k)
        if self.rank is not None:
            idx = _code(np.sort(self.rank[_digits(idx, k, self.size)], 1),
                        self.size)
        return self._node(k)[3][self._ids(k, idx)]

    def _node(self, k: int):
        """The fold of length ``k``: its left part's length, the table of
        its state ids by left and right part state, its states and their
        releases.  Every pair of part states is reached, and steps once."""
        if k not in self._nodes:
            left = 1 << ((k - 1).bit_length() - 1) if self.tree else k - 1
            a, b = self._node(left)[2], self._node(k - left)[2]
            index = {}
            table = np.array([index.setdefault(self.op(x, y), len(index))
                              for x in a for y in b], np.int64)
            self._nodes[k] = (left, table.reshape(len(a), len(b)),
                              list(index), self._reads(index))
        return self._nodes[k]

    def _ids(self, k: int, idx=None):
        """The state ids of the length-``k`` fold at the tuple indices
        ``idx``, or at all of them, kept."""
        if idx is None:
            if k not in self._wholes:
                self._wholes[k] = self._ids(k, np.arange(self.size ** k))
            return self._wholes[k]
        left, table = self._node(k)[:2]
        if table is None:
            return idx  # the start, or one element
        w = self.size ** (k - left)
        return table[self._ids(left)[idx // w], self._ids(k - left)[idx % w]]


def _scan(metric: str, releases: _Releases, sizes: List[int]) -> "_Race":
    """Every offer of a gap between adjacent tuples, size by size.

    An event key is ``tuple << shift`` plus a probe bit, the group's rank
    and the side (low 0, high 1), so keys order one length's offers as
    the scan makes them.  ``id`` groups are the tuples themselves.  The
    parts of groups that span chunks are merged two of a size at a time.
    """
    size, shift = releases.size, max(sizes, default=0).bit_length() + 2
    race, prev = (_Ring if releases.modulus else _Race)(releases, shift), None
    for length in sizes:
        count, parts = size ** length, []
        if metric == "ham":  # the groups of one axis, whole, a chunk at once
            for p in range(length):
                w = size ** (length - 1 - p)
                for c in _chunks(count // size, max(_CHUNK // size, 1)):
                    idx = (((c // w * size)[:, None] + np.arange(size)) * w
                           + (c % w)[:, None]).ravel()
                    race.joins(race.merge(race.part(
                        np.repeat(c, size), (idx << shift) + (p << 1),
                        releases(length, idx))), length)
            continue

        def join(*part):
            parts.append(race.part(*part))
            while parts[1:] and len(parts[-2][0]) <= 2 * len(parts[-1][0]):
                parts[-2:] = [race.merge(*parts[-2:])]
        for idx in _chunks(count, _CHUNK):
            s, key = releases(length, idx), idx << shift
            dig = _digits(idx, length, size)
            # (no length probes the longest's id groups)
            if metric == "sym" or metric == "id" and length < sizes[-1]:
                join(idx if metric == "id" else _code(np.sort(dig, 1), size),
                     key, s)
            for new, rank, code in _deletions(dig, size, metric != "id"):
                k = key[new] + (rank[new] << 1)
                if metric == "co":
                    join(code[new], k, s[new])
                elif prev is not None:
                    race.probes(prev, length, code[new], k + (1 << shift - 1),
                                s[new])
        if parts:
            prev = race.merge(*parts)
            race.joins(prev, length)
    return race


class _Race:
    """Groups of absolute releases, and the first offer, in scan order, of
    the largest gap so far: the largest ``(gap, -length, -event key)``.

    A group keeps its releases as sorted keys ``code * width + offset +
    release``, each with the event key of the member that first brought
    it; an absolute group keeps only its two ends, its lowest release and
    its highest.  It offers its running range, ``(lo member, hi member)``,
    on every join after its first, so the range first reaches its final
    value when the later of its first final low and first final high
    joins.  (A group whose releases are all equal offers 0 at its second
    join; see :func:`brute_force_sensitivity`.)  A probe races its release
    against a group's low, then its high.
    """

    def __init__(self, releases: _Releases, shift: int):
        self.m, self.dt, self.width, self.offset = (
            releases.modulus, releases.dt, releases.width, releases.offset)
        self.shift, self.event, self.pair = shift, (-1,), None

    def offer(self, length: int, gap, key, u, v, v_length: int) -> None:
        """Offers of ``gap`` with event ``key`` between the tuples whose
        keys are ``u``, of ``length``, and ``v``, of ``v_length``."""
        if len(gap):
            at = np.flatnonzero(gap == gap.max())
            j = at[np.argmin(key[at])]
            if (gap[j], -length, -key[j]) > self.event:
                self.event = (gap[j], -length, -key[j])
                self.pair = ((length, u[j]), (v_length, v[j]))

    def part(self, code, key, s):
        """Members ``(code, key, s)``, not yet merged."""
        return code.astype(self.dt) * self.width + s + self.offset, key

    def merge(self, *parts):
        keys, key = (np.concatenate(x) for x in zip(*parts))
        order = np.lexsort((key, keys))
        keys, key = keys[order], key[order]
        new = np.diff(keys, prepend=-1) != 0  # keys are never negative
        keys, key = keys[new], key[new]
        if not self.m:  # an absolute group is read at its two ends only
            end = np.diff(keys // self.width, prepend=-1, append=-1) != 0
            keys, key = keys[end[:-1] | end[1:]], key[end[:-1] | end[1:]]
        return keys, key

    def _bounds(self, keys, code):
        """Each group's base key and where its keys start and end."""
        base = code.astype(self.dt) * self.width
        return (base, np.searchsorted(keys, base),
                np.searchsorted(keys, base + self.width))

    def joins(self, groups, length: int) -> None:
        """A group kept as its two ends offers its range; one kept as one
        release offers nothing."""
        keys, key = groups
        lo = np.flatnonzero(keys[1:] // self.width == keys[:-1] // self.width)
        self.offer(length, np.diff(keys)[lo], np.maximum(key[lo], key[lo + 1]),
                   key[lo], key[lo + 1], length)

    def probes(self, groups, length: int, code, key, s) -> None:
        """``(code, key, s)`` probed against the previous length's group
        ``code``."""
        keys, first = groups
        base, lo, hi = self._bounds(keys, code)
        for side, j in enumerate((lo, hi - 1)):
            self.offer(length, abs(base + s + self.offset - keys[j]),
                       key + side, key, first[j], length - 1)


class _Ring(_Race):
    """Groups of residues mod ``m``, compared in wrap distance.

    A new residue offers against the group's earlier residues when it
    arrives, and a probe against all of them.  The residues farthest from
    ``s`` are the ones nearest its antipode: of the antipode's two
    neighbours in the sorted group, found by ``searchsorted``, the nearer,
    or on a tie the earlier inserted.
    """

    def _far(self, groups, code, s):
        """The gap from each ``s`` to the farthest residues of its group
        ``code``, and their least event key."""
        (keys, key), m = groups, self.m
        base, lo, hi = self._bounds(keys, code)
        anti = base + (s + m // 2) % m
        i = np.searchsorted(keys, anti)
        left, right = np.where(i > lo, i, hi) - 1, np.where(i < hi, i, lo)
        d_left, d_right = (anti - keys[left]) % m, (keys[right] - anti) % m
        return m // 2 - np.minimum(d_left, d_right), np.minimum(
            np.where(d_left <= d_right, key[left], key[right]),
            np.where(d_right <= d_left, key[right], key[left]))

    def joins(self, groups, length: int) -> None:
        """A residue's arrival offers its farthest residue if that came
        earlier; one that comes later offers it in turn."""
        keys, key = groups
        gap, far = self._far(groups, keys // self.m, keys % self.m)
        ok = far < key
        self.offer(length, gap[ok], key[ok], key[ok], far[ok], length)

    def probes(self, groups, length: int, code, key, s) -> None:
        gap, far = self._far(groups, code, s)
        self.offer(length, gap, key, key, far, length - 1)


# ---------------------------------------------------------------------------
# Couplings: unordered adjacency -> ordered adjacency under a shuffle
# ---------------------------------------------------------------------------

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
    check_materialize(max(len(u), len(v)))
    rng = random.Random(seed)
    if d == 0:
        order = _fisher_yates(u.to_list(), rng)
        return (u.replace_elements_unchecked(order),
                v.replace_elements_unchecked(order))
    extra = next(iter(extra_u or extra_v))
    shorter = v if extra_u else u
    base = _fisher_yates(shorter.to_list(), rng)
    inserted = list(base)
    inserted.insert(rng.randrange(len(base) + 1), extra)
    if extra_u:
        return (u.replace_elements_unchecked(inserted),
                v.replace_elements_unchecked(base))
    return (u.replace_elements_unchecked(base),
            v.replace_elements_unchecked(inserted))


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
    if len(u) != len(v):
        raise PreconditionFailed("co-adjacent datasets must share a length")
    hu, hv = histogram(u), histogram(v)
    extra_u = hu - hv
    extra_v = hv - hu
    if sum(extra_u.values()) > 1:
        raise PreconditionFailed("datasets are not co-adjacent")
    check_materialize(len(u))
    common = hu & hv
    a = [x for x in sorted(common, key=order_key) for _ in range(common[x])]
    b = list(a)
    if extra_u:
        a.append(next(iter(extra_u)))
        b.append(next(iter(extra_v)))
    rng = random.Random(seed)
    perm = _fisher_yates(list(range(len(a))), rng)
    return (u.replace_elements_unchecked(a[i] for i in perm),
            v.replace_elements_unchecked(b[i] for i in perm))


# ---------------------------------------------------------------------------
# Guidance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Recommendation:
    method: SumMethod
    bound: SensitivityBound
    notes: Tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {"method": self.method.to_json(),
                "bound": self.bound.to_json(),
                "notes": list(self.notes)}


_FRESH_SEED_NOTE = ("replace the placeholder permutation seed with a fresh "
                    "secret draw for every release")


def recommend(fmt: ElementFormat, lower: Value, upper: Value, metric: str,
              n: Optional[int] = None,
              n_max: Optional[int] = None) -> List[Recommendation]:
    """Rank the certifiable ways to sum under these parameters.

    Returns every method this library can put a certified bound on, in
    preference order; each entry carries the bound it would ship with and
    any operational caveats (modular noise, fresh permutation seeds,
    truncation caps).  An empty list means nothing here is certifiable —
    which is itself the advice.
    """
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}")
    out: List[Recommendation] = []
    if isinstance(fmt, IntFormat):
        _recommend_int(fmt, lower, upper, metric, n, out)
    else:
        _recommend_float(fmt, lower, upper, metric, n, n_max, out)
    return out


def _try(out: List[Recommendation], spec: SensSpec, *notes: str) -> None:
    try:
        bound = implemented_sensitivity_bound(spec)
    except (PreconditionFailed, UnsupportedCombination):
        return
    if bound.output_metric == "mod":
        notes += ("noise must be folded onto the same residue circle and "
                  "the release read as a residue",)
    out.append(Recommendation(spec.method, bound, notes))


def _recommend_int(fmt, lower, upper, metric, n, out):
    if n is not None:
        _try(out, SensSpec(fmt, lower, upper, metric, SumMethod(), n=n,
                           checked=True),
             "verify the dataset size before every release; overflow is "
             "then impossible and the idealized bound is exact")
    if fmt.overflow == "wraparound":
        _try(out, SensSpec(fmt, lower, upper, metric, SumMethod(), n=n))
        return
    _try(out, SensSpec(fmt, lower, upper, metric, SumMethod("split"), n=n))
    if metric in UNORDERED_METRICS:
        _try(out, SensSpec(fmt, lower, upper, metric,
                           SumMethod(transforms=(RandomPermutation(0),)), n=n),
             _FRESH_SEED_NOTE)
    else:
        _try(out, SensSpec(fmt, lower, upper, metric, SumMethod(), n=n))


def _recommend_float(fmt, lower, upper, metric, n, n_max, out):
    span_ok = is_representable(exact_value(upper) - exact_value(lower), fmt)
    if metric in KNOWN_N_METRICS:
        if n is not None:
            ranked: List[Recommendation] = []
            for alg in ("kahan", "pairwise", "iterative"):
                _try(ranked, SensSpec(fmt, lower, upper, metric,
                                      SumMethod(alg), n=n))
                if span_ok:
                    _try(ranked,
                         SensSpec(fmt, lower, upper, metric,
                                  SumMethod(alg, transforms=(ShiftBounds(),)),
                                  n=n),
                         "elements are shifted by -L before summing; add "
                         "L*n back onto the noisy release")
            ranked.sort(key=lambda r: r.bound.value)
            out.extend(ranked)
        split_tr = () if metric == "ham" else (RandomPermutation(0),)
        _try(out, SensSpec(fmt, lower, upper, metric,
                           SumMethod("split", transforms=split_tr), n=n),
             *((_FRESH_SEED_NOTE,) if split_tr else ()))
        return
    # sym / id: no fixed size to lean on
    if n_max is not None:
        transforms = (Truncate(n_max),) if metric == "id" else \
            (RandomPermutation(0), Truncate(n_max))
        for alg in ("kahan", "pairwise", "iterative"):
            _try(out, SensSpec(fmt, lower, upper, metric,
                               SumMethod(alg, transforms=transforms)),
                 f"datasets longer than {n_max} are cut off; pick the cap "
                 "above any plausible size",
                 *((_FRESH_SEED_NOTE,) if metric == "sym" else ()))
    split_tr = () if metric == "id" else (RandomPermutation(0),)
    _try(out, SensSpec(fmt, lower, upper, metric,
                       SumMethod("split", transforms=split_tr)),
         *((_FRESH_SEED_NOTE,) if split_tr else ()))

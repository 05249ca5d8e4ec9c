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
   :class:`PreconditionFailed`.  The iterative, cascade and compensated
   float sums share one accuracy route (see :func:`_float_bound`):
   ``co``/``ham`` at the known size, ``sym``/``id`` at a truncation cap.

3. :func:`brute_force_sensitivity` — the ground truth: enumerate every
   dataset over the representable values inside the bounds, release each
   one once, and maximize the release gap over adjacent pairs.  Only
   feasible for tiny formats, which is exactly where it is used to
   sandwich the analytic bounds between attack lower bounds and the
   certified upper bounds.  The scan runs on numpy arrays, in
   :mod:`boundedsum.bruteforce`: the releases of one length are an int
   array over the tuples in product order, read off step tables of the
   summation's own adds, and adjacent datasets meet in groups that are
   reductions of that array — ``ham`` one axis, ``co`` and ``sym`` sorted
   multiset codes, ``id`` the tuples themselves, probed by their
   deletions.  That module, and numpy with it, is imported on the first
   scan, so the rest of this module loads without numpy.

The coupling constructions near the bottom turn unordered adjacency into
ordered adjacency after a random permutation; they are what lets the
ordered-metric bounds serve the add/remove world.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Tuple, Union

from .data import (Dataset, ElementFormat, Value, check_materialize,
                   check_runs, code_key, code_value, exact_value)
from .dyadic import floor_log2_fraction
from .floats import FloatFormat, _pattern_ranges, is_representable
from .ints import IntFormat
from .metrics import histogram
from .summation import (RandomPermutation, ShiftBounds, SumMethod, Truncate,
                        _arranged, check_multiplication,
                        float_overflow_check, run_sum)

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
        check_runs(self.fmt, self.lower, self.upper, (), ())
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
            return str(v) if isinstance(v, Fraction) else v
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
    """Float bounds: the split algorithm's own, or the accuracy route.

    The iterative, cascade and compensated sums share one route.  The
    exact sums of two adjacent datasets differ by at most a first term;
    the accuracy theorem bounds each computed sum's distance to its exact
    sum, in any element order, at a size; the triangle inequality does the
    rest, provided no intermediate result can saturate to infinity, which
    the directed-rounding overflow certificate establishes first.

    - ``co``/``ham`` (rule ``accuracy``): replace-one adjacency moves the
      exact sum by at most ``U - L``, at the known size ``n``.
    - ``sym``/``id`` (rule ``truncated``): without a size cap the
      accumulated rounding error is unbounded, so these need a
      ``Truncate(n_max)``.  Inserting one element before the cap evicts
      at most one other, so the exact sums of the truncated prefixes
      differ by at most ``max(|L|, U, U - L)``, at ``n_max``.  ``sym``
      adjacency says nothing about positions, so it also needs a random
      permutation ahead of the truncation (the shuffle couples unordered
      adjacency into insert/delete adjacency).
    """
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
        if not _only_transforms(method, RandomPermutation, ShiftBounds):
            raise UnsupportedCombination(
                "the replace-one accuracy route covers plain, shuffled, or "
                "shifted sums; truncation changes which elements are summed")
        if spec.n is None:
            raise PreconditionFailed("co/ham accuracy bounds need a known size")
        size, route, key = spec.n, "accuracy", "n"
        overflow = ("these parameters admit overflow to infinity; the "
                    "accuracy route requires the overflow certificate to pass")
    else:
        kinds = [type(t) for t in method.transforms]
        if Truncate not in kinds:
            raise UnsupportedCombination(
                "sym/id bounds for iterative/pairwise/kahan float sums need a "
                "truncation transform (or use the split algorithm)")
        if not _only_transforms(method, RandomPermutation, ShiftBounds,
                                Truncate):
            raise UnsupportedCombination("unrecognized transform combination")
        cut = kinds.index(Truncate)
        if spec.metric == "sym" and RandomPermutation not in kinds[:cut]:
            raise PreconditionFailed(
                "the sym bound for truncated summation needs a random "
                "permutation applied before the truncation")
        size, route, key = method.transforms[cut].n_max, "truncated", "n_max"
        overflow = ("these parameters admit overflow to infinity at the "
                    "truncation cap; the accuracy route requires the overflow "
                    "certificate")
    lo, hi, suffix = _effective_float_bounds(spec)
    acc = accuracy_bound(method.algorithm, size, spec.fmt, lo, hi)
    if not float_overflow_check(lo, hi, size, acc, spec.fmt):
        raise PreconditionFailed(overflow)
    first = (hi - lo if spec.metric in KNOWN_N_METRICS
             else max(abs(lo), abs(hi), hi - lo))
    return SensitivityBound(
        value=first + 2 * acc,
        rule=f"float-{method.algorithm}-{route}{suffix}",
        details={"accuracy": acc, key: size})


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


def brute_force_sensitivity(spec: SensSpec, include_subnormals: bool = False
                            ) -> BruteForceResult:
    """Exact sensitivity of a deterministic method by full enumeration.

    Every dataset over the representable values inside the bounds (normal
    floats plus zero unless ``include_subnormals``) is released exactly
    once, size by size.  ``spec.n`` is the exact length for ``co``/``ham``
    and the length cap (sizes ``0..n``) for ``sym``/``id``.  The domain's
    size is known before it is built, and a dataset count times length
    above ``WORK_GUARD`` is refused.

    The scan runs on numpy arrays, in :mod:`boundedsum.bruteforce`.  A
    tuple is its index in ``itertools.product`` order over the domain,
    ascending, and the releases of one length are an int array over those
    indices (see :class:`~boundedsum.bruteforce._Releases`): a float
    release in units of the finest spacing (:meth:`SimFloat.to_grid`; an
    infinity enters at its working value ``±2^(emax+1)``, so a method that
    can saturate shows gaps the size of the type range), a wraparound
    integer release as its residue.  The releases are read off step
    tables, not summed tuple by tuple.
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
    :class:`~boundedsum.bruteforce._Race` and
    :class:`~boundedsum.bruteforce._Ring` for what a group keeps and when
    it offers a gap.  The witness is the first offer, in scan order, of the
    largest gap: the least event key, which orders offers by length, then
    tuple, then a tuple's joins before its probes, then group rank, then a
    group's low before its high.  A group offers nothing when it is
    created, and an absolute group whose releases are all equal offers 0
    when its second member joins.  Only the largest gap becomes a
    Fraction.

    Each length is scanned in chunks of at most ``bruteforce._CHUNK``
    consecutive tuples, along the leading axis (``ham`` in chunks of whole
    groups).  Groups that span chunks are merged in parts, two parts of
    about one size at a time, and the race keeps a single offer: the first
    of the largest gap so far.  A refusal is the method's own: the first
    tuple is summed by :func:`run_sum` and refuses what every tuple
    refuses, and a shift refuses the first element it cannot map once any
    tuple has an element to map.
    """
    if spec.n is None:
        raise PreconditionFailed("brute force needs a size (or size cap)")
    if _has(spec.method, RandomPermutation):
        raise PreconditionFailed(
            "brute force maximizes over a deterministic release; strip the "
            "permutation (its couplings are checked separately)")
    fmt, lo, hi, n = spec.fmt, spec.lower, spec.upper, spec.n
    # the codes inside the bounds, as ranges of ascending values
    codes = ([range(lo.value, hi.value + 1)] if isinstance(fmt, IntFormat)
             else _pattern_ranges(fmt, lo, hi, include_subnormals))
    size = sum(map(len, codes))
    sizes = [n] if spec.metric in KNOWN_N_METRICS else list(range(n + 1))
    work = sum(max(s, 1) * size ** s for s in sizes)
    if work > WORK_GUARD:
        raise PreconditionFailed(
            f"estimated {work} release/grouping steps exceed the "
            f"brute-force work guard ({WORK_GUARD})")
    # n == 0 enumerates only the empty dataset, whatever the domain
    domain = [c for r in codes for c in r] if n else []
    frame = Dataset.unchecked(fmt, lo, hi, [(c, 1) for c in domain])
    if domain or not sizes[0]:  # every tuple refuses what the first does
        run_sum(_arranged(frame, domain[:1] * sizes[0]), spec.method)
    from .bruteforce import _Releases, _scan
    releases = _Releases(spec, frame, n, work)
    # a length with no tuple (an empty domain) has no groups
    race = _scan(spec.metric, releases, [s for s in sizes if len(domain) ** s])
    if race.pair is None and not releases.modulus and n and len(domain) > 1 \
            and spec.metric in KNOWN_N_METRICS:
        # every group's releases are equal, so the first offer is tuple 1
        # joining tuple 0's group: 0 between tuple 0 and itself
        race.pair = ((n, 0), (n, 0))
    # a tuple's key is its index, shifted; its digits are domain positions
    witness = race.pair and tuple(tuple(code_value(fmt, domain[
        (int(key) >> race.shift) // len(domain) ** p % len(domain)])
        for p in reversed(range(k))) for k, key in race.pair)
    value = max(int(race.event[0]), 0)
    if isinstance(fmt, FloatFormat):
        value = fmt.grid_fraction(value)
    return BruteForceResult(value=value, witness=witness,
                            datasets=sum(len(domain) ** s for s in sizes),
                            output_metric="mod" if releases.modulus else "abs")


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
    check_materialize(max(u.n, v.n))
    rng = random.Random(seed)
    if d == 0:
        order = u.codes()
        rng.shuffle(order)
        return _arranged(u, order), _arranged(v, order)
    extra = next(iter(extra_u or extra_v))
    base = (v if extra_u else u).codes()
    rng.shuffle(base)
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
    random.Random(seed).shuffle(perm)
    return (_arranged(u, [a[i] for i in perm]),
            _arranged(v, [b[i] for i in perm]))


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


def recommend(fmt: ElementFormat, lower: Value, upper: Value, metric: str,
              n: Optional[int] = None,
              n_max: Optional[int] = None) -> List[Recommendation]:
    """Rank the certifiable ways to sum under these parameters.

    Returns every method this library can put a certified bound on, in
    preference order; each entry carries the bound it would ship with and
    the operational caveats its method and bound bring (see :func:`_try`).
    An empty list means nothing here is certifiable — which is itself the
    advice.
    """
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}")

    def certified(methods, size=n, checked=False):
        specs = (SensSpec(fmt, lower, upper, metric, m, n=size,
                          checked=checked) for m in methods)
        return [r for r in map(_try, specs) if r is not None]

    # the split, saturating and truncated bounds of an unordered metric are
    # proven for a freshly shuffled release
    order = (RandomPermutation(0),) if metric in UNORDERED_METRICS else ()
    split = SumMethod("split", transforms=order)
    algorithms = ("kahan", "pairwise", "iterative")
    if isinstance(fmt, IntFormat):
        out = certified([SumMethod()], checked=True) if n is not None else []
        if fmt.overflow == "wraparound":
            return out + certified([SumMethod()])
        return out + certified([SumMethod("split"),
                                SumMethod(transforms=order)])
    if metric in KNOWN_N_METRICS:
        ranked = [] if n is None else certified(
            SumMethod(alg, transforms=shift) for alg in algorithms
            for shift in ((), (ShiftBounds(),)))
        return sorted(ranked, key=lambda r: r.bound.value) + certified([split])
    # sym / id: no fixed size to lean on
    capped = [] if n_max is None else certified(
        (SumMethod(alg, transforms=order + (Truncate(n_max),))
         for alg in algorithms), size=None)
    return capped + certified([split], size=None)


def _try(spec: SensSpec) -> Optional[Recommendation]:
    """The recommendation of ``spec``'s method, or None when it has no
    certified bound.  Its notes come from the method and the bound, in
    this order: a checked size, each truncation cap, a permutation's seed,
    a shift, and residue outputs."""
    try:
        bound = implemented_sensitivity_bound(spec)
    except (PreconditionFailed, UnsupportedCombination):
        return None
    method = spec.method
    notes = []
    if spec.checked:
        notes.append("verify the dataset size before every release; "
                     "overflow is then impossible and the idealized bound "
                     "is exact")
    notes += [f"datasets longer than {t.n_max} are cut off; pick the cap "
              "above any plausible size"
              for t in method.transforms if isinstance(t, Truncate)]
    if _has(method, RandomPermutation):
        notes.append("replace the placeholder permutation seed with a fresh "
                     "secret draw for every release")
    if _has(method, ShiftBounds):
        notes.append("elements are shifted by -L before summing; add L*n "
                     "back onto the noisy release")
    if bound.output_metric == "mod":
        notes.append("noise must be folded onto the same residue circle and "
                     "the release read as a residue")
    return Recommendation(method, bound, tuple(notes))

"""Constructions that make finite-arithmetic sums leak.

Each generator builds a pair of adjacent datasets ``(u, v)`` whose
released sums, under a specific summation method, differ by far more
than the idealized sensitivity — the noise calibrated to the idealized
value then fails to hide the change.  The six families:

``overflow_attack``
    Wraparound integers: one extra ``1`` pushes the exact sum past the
    type maximum, so the release jumps across the whole range.

``saturation_reorder_attack``
    Saturating signed integers: the *same multiset* summed in two orders
    pins the accumulator to opposite rails.

``float_reorder_attack``
    Floats: the same multiset in two orders; one order accumulates a
    block exactly, the other absorbs it into a large accumulator one
    half-ulp at a time.

``rounding_attack``
    Floats, same length, one element replaced by its neighbour one ulp
    up: the final add rounds up on one side and ties down on the other,
    amplifying the one-ulp replacement by a factor of ``2^j``.

``repeated_rounding_attack_1``
    Floats, one deleted element that controls the accumulator's binade:
    every later add rounds a full grid step higher, doubling the gap at
    each stage.

``repeated_rounding_attack_2``
    Floats, one deleted element; the tail alternates a push just above a
    rounding midpoint with a pull just below it, so one side ratchets up
    while the other treads water.

Every instance carries its closed-form predicted releases and gap;
:func:`verify_attack` replays the pair under any method and reports the
realized gap.  Datasets are built as runs and blocks, so the integer
attacks with ``2^17`` repeated elements and the alternating tail of
``2^50`` pairs stay tiny in memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import ATTACK_NAMES, METRICS
from .data import Dataset, _field, exact_value
from .dyadic import Dyadic
from .floats import (FloatFormat, SimFloat, is_representable, number_text,
                     round_dyadic)
from .ints import IntFormat, KInt
from .metrics import d_co, d_ham, d_id, d_sym
from .sensitivity import PreconditionFailed, _pow2
from .summation import SumMethod, run_sum

__all__ = [
    "AttackInstance", "VerificationReport", "ATTACK_NAMES",
    "overflow_attack", "saturation_reorder_attack", "float_reorder_attack",
    "rounding_attack", "repeated_rounding_attack_1",
    "repeated_rounding_attack_2", "verify_attack",
]

# Beyond this many elements the verifier stops recomputing the
# insert/delete distance (quadratic) and trusts the construction.
_ID_RECHECK_LIMIT = 4096


@dataclass(frozen=True)
class AttackInstance:
    """An adjacent pair with closed-form predictions attached.

    ``predicted_u``/``predicted_v`` are the exact releases the attack's
    native method produces; ``predicted_gap`` their absolute difference
    (releases are compared as numbers — for wraparound integers that is
    precisely the point).  ``idealized`` is the idealized sensitivity for
    ``metric``, and ``blowup`` the ratio the attack achieves over it.
    """

    name: str
    metric: str
    adjacency_distance: int
    u: Dataset
    v: Dataset
    method: SumMethod
    predicted_u: Fraction
    predicted_v: Fraction
    predicted_gap: Fraction
    idealized: Fraction
    blowup: Fraction

    def to_json(self) -> dict:
        """The JSON form, with ``u`` and ``v`` left as Datasets:
        :func:`~boundedsum.data.json_text` writes each as its
        ``to_json_dict()``."""
        return {
            "name": self.name, "metric": self.metric,
            "adjacency_distance": self.adjacency_distance,
            "method": self.method.to_json(),
            "predicted_u": number_text(self.predicted_u),
            "predicted_v": number_text(self.predicted_v),
            "predicted_gap": number_text(self.predicted_gap),
            "idealized": number_text(self.idealized),
            "blowup": number_text(self.blowup),
            "u": self.u, "v": self.v,
        }

    @classmethod
    def from_json(cls, d: dict) -> "AttackInstance":
        """An instance from its JSON object: ``name`` must be a string,
        ``metric`` one of ``METRICS``, ``adjacency_distance`` an int (not a
        boolean, float or string), ``u``, ``v`` and ``method`` objects, and
        each fraction a string holding one.  Nothing is converted."""
        def field(name, kind):
            return _field(d, name, kind, "instance")
        return cls(
            name=field("name", str), metric=field("metric", METRICS),
            adjacency_distance=field("adjacency_distance", int),
            u=Dataset.from_json_dict(field("u", dict)),
            v=Dataset.from_json_dict(field("v", dict)),
            method=SumMethod.from_json(field("method", dict)),
            predicted_u=field("predicted_u", Fraction),
            predicted_v=field("predicted_v", Fraction),
            predicted_gap=field("predicted_gap", Fraction),
            idealized=field("idealized", Fraction),
            blowup=field("blowup", Fraction),
        )


@dataclass(frozen=True)
class VerificationReport:
    realized_u: Fraction
    realized_v: Fraction
    realized_gap: Fraction
    predicted_gap: Fraction
    matches_prediction: bool
    adjacency_distance: Optional[int]

    def to_json(self) -> dict:
        return {"realized_u": number_text(self.realized_u),
                "realized_v": number_text(self.realized_v),
                "realized_gap": number_text(self.realized_gap),
                "predicted_gap": number_text(self.predicted_gap),
                "matches_prediction": self.matches_prediction,
                "adjacency_distance": self.adjacency_distance}


def _mk_instance(name, metric, dist, u, v, method, su, sv, ideal) -> AttackInstance:
    su, sv = Fraction(su), Fraction(sv)
    gap = abs(su - sv)
    return AttackInstance(name=name, metric=metric, adjacency_distance=dist,
                          u=u, v=v, method=method,
                          predicted_u=su, predicted_v=sv, predicted_gap=gap,
                          idealized=Fraction(ideal),
                          blowup=gap / Fraction(ideal))


def _float_of(fmt: FloatFormat, fr: Fraction) -> SimFloat:
    if not is_representable(fr, fmt):
        raise PreconditionFailed(f"{fr} is not representable in {fmt}")
    return round_dyadic(Dyadic.from_fraction(fr), fmt, "toward_zero")


# ---------------------------------------------------------------------------
# Integer attacks
# ---------------------------------------------------------------------------

def overflow_attack(fmt: IntFormat, upper: int,
                    metric: str = "sym") -> AttackInstance:
    """One extra element wraps the sum from the maximum to the minimum.

    Bounds ``[0, U]``; ``u`` holds ``ceil(max/U) - 1`` copies of ``U``
    plus one remainder element, summing exactly to the type maximum.
    ``v`` appends a single ``1`` — the exact sum overflows by one and the
    wraparound release lands at the type minimum.  For ``metric="ham"``
    (or ``"co"``), ``u`` is padded with a ``0`` so the lengths agree and
    the pair differs in one position instead.
    """
    if fmt.overflow != "wraparound":
        raise PreconditionFailed("the overflow attack needs wraparound ints")
    if not 1 <= upper <= fmt.max_value:
        raise PreconditionFailed("need 1 <= U <= type maximum")
    if metric not in ("sym", "id", "ham", "co"):
        raise ValueError(f"unknown metric {metric!r}")
    top = fmt.max_value
    reps = -(-top // upper) - 1            # ceil(top/U) - 1 copies of U
    rem = top - reps * upper               # in (0, U]
    lo, hi = KInt(fmt, 0), KInt(fmt, upper)
    runs = ([(KInt(fmt, upper), reps)] if reps else []) + [(KInt(fmt, rem), 1)]
    pad = [(KInt(fmt, 0), 1)] if metric in ("ham", "co") else []
    u = Dataset(fmt, lo, hi, runs + pad)
    v = Dataset(fmt, lo, hi, runs + [(KInt(fmt, 1), 1)])
    # with L = 0 the idealized value is U under every metric here
    return _mk_instance("overflow", metric, 1, u, v, SumMethod(),
                        top, fmt.min_value, upper)


def saturation_reorder_attack(fmt: IntFormat, lower: int,
                              upper: int) -> AttackInstance:
    """The same multiset, two orders, opposite saturation rails.

    Negative-first pins the accumulator to the minimum and the positive
    block then drags it exactly to the maximum; positive-first does the
    mirror image.  Adjacency distance is zero — the released sums differ
    by the full type range between datasets no metric can tell apart.
    """
    if fmt.overflow != "saturating" or not fmt.signed:
        raise PreconditionFailed(
            "the reorder attack needs signed saturating ints")
    if not (lower < 0 < upper):
        raise PreconditionFailed("need L < 0 < U")
    span = fmt.max_value - fmt.min_value
    b = -(-span // abs(lower))
    c = -(-span // upper)
    lo, hi = KInt(fmt, lower), KInt(fmt, upper)
    neg = (KInt(fmt, lower), b)
    pos = (KInt(fmt, upper), c)
    u = Dataset(fmt, lo, hi, [neg, pos])
    v = Dataset(fmt, lo, hi, [pos, neg])
    return _mk_instance("saturation_reorder", "co", 0, u, v, SumMethod(),
                        fmt.max_value, fmt.min_value, upper - lower)


# ---------------------------------------------------------------------------
# Float attacks
# ---------------------------------------------------------------------------

def float_reorder_attack(fmt: FloatFormat, j: int, a: int, d: int,
                         drop_last: bool = False) -> AttackInstance:
    """A block summed exactly in one order is absorbed in the other.

    Elements ``L = 2^j`` (``b = 2^(k+1-a)`` copies) and ``U = 2^(j+d)``
    (``c = 2^(k+1-d)`` copies).  Small-first, every add lands on the
    current grid and the sum ``b*L + c*U`` is exact.  Large-first, the
    accumulator reaches ``c*U = 2^(k+1+j)`` whose grid step is ``2^(j+1)``:
    each ``L`` sits exactly on the half-grid tie, banker's rounding keeps
    the even ``c*U``, and the whole ``b*L = 2^(k+1-a+j)`` block vanishes.
    With ``drop_last`` the second dataset also loses one ``L``, turning
    the distance-0 reorder pair into a distance-1 add/remove pair (the
    absorbed release does not move).
    """
    k = fmt.mantissa_bits
    if a < 0 or d < 1 or a + d > k + 1:
        raise PreconditionFailed("need a >= 0, d >= 1, a + d <= k + 1")
    if j < fmt.emin:
        raise PreconditionFailed("2^j must be a normal value")
    b = 2 ** (k + 1 - a)
    c = 2 ** (k + 1 - d)
    lo_fr, hi_fr = _pow2(j), _pow2(j + d)
    exact = b * lo_fr + c * hi_fr
    if not is_representable(exact, fmt):
        raise PreconditionFailed(
            "b*L + c*U must be exactly representable (raise the format's "
            "exponent range or lower j)")
    L, U = _float_of(fmt, lo_fr), _float_of(fmt, hi_fr)
    u = Dataset(fmt, L, U, [(L, b), (U, c)])
    v = Dataset(fmt, L, U, [(U, c), (L, b - 1 if drop_last else b)])
    metric = "sym" if drop_last else "co"
    dist = 1 if drop_last else 0
    ideal = max(lo_fr, hi_fr) if drop_last else hi_fr - lo_fr
    return _mk_instance("float_reorder", metric, dist, u, v, SumMethod(),
                        exact, c * hi_fr, ideal)


def rounding_attack(fmt: FloatFormat, j: int, m: int) -> AttackInstance:
    """One ulp of difference in one element becomes ``2^j`` ulps of gap.

    ``L = (1 + 2^(j-k-1)) * 2^m`` and ``U`` is its successor, one ulp up.
    Both datasets start with ``2^j`` copies of ``L``, summed exactly.
    ``u`` finishes with one ``U``: the exact total sits just above a
    rounding midpoint and rounds up.  ``v`` finishes with one more ``L``:
    its total sits exactly on the midpoint and banker's rounding takes it
    down to the even neighbour.  The releases split by ``2^j`` times the
    one-ulp idealized sensitivity.
    """
    k = fmt.mantissa_bits
    if not 1 < j < (k + 1) / 2:
        raise PreconditionFailed("need an integer j with 1 < j < (k+1)/2")
    if m < fmt.emin:
        raise PreconditionFailed("the elements must be normal values")
    lo_fr = (1 + _pow2(j - k - 1)) * _pow2(m)
    hi_fr = lo_fr + _pow2(m - k)
    n = 2 ** j
    grid = _pow2(m + j - k)          # one ulp at the final sum's binade
    sum_v = n * lo_fr + _pow2(m)     # the tie at prefix + L went down (even)
    sum_u = sum_v + grid             # prefix + U cleared the midpoint: up
    if not is_representable(sum_u, fmt):
        raise PreconditionFailed("the final sums must stay representable")
    L, U = _float_of(fmt, lo_fr), _float_of(fmt, hi_fr)
    u = Dataset(fmt, L, U, [(L, n), (U, 1)])
    v = Dataset(fmt, L, U, [(L, n + 1)])
    return _mk_instance("rounding", "ham", 1, u, v, SumMethod(),
                        sum_u, sum_v, hi_fr - lo_fr)


def repeated_rounding_attack_1(fmt: FloatFormat, j: int,
                               m: int) -> AttackInstance:
    """Deleting one element halves the release, ``j`` stages deep.

    Both datasets walk a ladder ``f(i) = (2^i + 2^(i-k)) * 2^m`` of
    ``2^k`` copies per stage.  With two leading ``U = 2^(k+m)`` the
    accumulator starts one binade higher, every ladder add rounds a full
    grid step up, and each stage doubles the sum; with one leading ``U``
    each add rounds down yet still doubles per stage — one binade behind.
    After ``j`` stages the single deleted ``U`` has become a gap of
    ``2^j`` times the idealized sensitivity.
    """
    k = fmt.mantissa_bits
    if not 0 < j <= k:
        raise PreconditionFailed("need 0 < j <= k")
    hi_fr = _pow2(k + m)
    final = _pow2(k + m + j + 1)
    if m < fmt.emin:
        raise PreconditionFailed("the ladder floor 2^m must be normal")
    if not is_representable(final, fmt):
        raise PreconditionFailed("the doubled release must stay representable")
    U = _float_of(fmt, hi_fr)
    lo = SimFloat.zero(fmt)
    ladder = [(_float_of(fmt, (_pow2(i) + _pow2(i - k)) * _pow2(m)), 2 ** k)
              for i in range(j)]
    u = Dataset(fmt, lo, U, [(U, 2)] + ladder)
    v = Dataset(fmt, lo, U, [(U, 1)] + ladder)
    return _mk_instance("repeated_rounding_1", "id", 1, u, v, SumMethod(),
                        final, _pow2(k + m + j), hi_fr)


def repeated_rounding_attack_2(fmt: FloatFormat, j: int,
                               a: int) -> AttackInstance:
    """An alternating tail that only climbs above a rounding midpoint.

    From ``half = 2^(j-1)`` copies of ``U = 2^a``, the accumulator sits
    at ``half*U``; the tail alternates ``x`` (just above the midpoint of
    the grid there — rounds up a full step) with ``L`` (just below —
    rounds up again), gaining one grid step per pair.  Delete one leading
    ``U`` and the accumulator sits one binade lower, where ``x`` is just
    above a whole step and ``L`` pulls straight back: the tail nets zero.
    The gap is ``U * (1 + n^2 / 2^(k+3))`` for ``n = 2^j`` elements.
    """
    k = fmt.mantissa_bits
    if not 2 <= j < k:
        raise PreconditionFailed("need 2 <= j < k")
    half = 2 ** (j - 1)
    u_fr = _pow2(a)
    x_fr = u_fr * half / _pow2(k) * (Fraction(1, 2) + _pow2(-k))
    l_fr = -u_fr * half / _pow2(k) * (Fraction(1, 2) - _pow2(-k))
    for fr in (x_fr, l_fr, half * u_fr * 2):
        if not is_representable(fr, fmt):
            raise PreconditionFailed(f"{fr} must be representable")
    U = _float_of(fmt, u_fr)
    X = _float_of(fmt, x_fr)
    L = _float_of(fmt, l_fr)
    tail = ((X, L), half // 2)  # one block, however long the tail
    u = Dataset(fmt, L, U, [(U, half), tail])
    v = Dataset(fmt, L, U, [(U, half - 1), tail])
    sum_u = half * u_fr + Fraction(half * half) * u_fr / _pow2(k + 1)
    sum_v = (half - 1) * u_fr
    return _mk_instance("repeated_rounding_2", "id", 1, u, v, SumMethod(),
                        sum_u, sum_v, u_fr)


# ---------------------------------------------------------------------------
# Dispatch and verification
# ---------------------------------------------------------------------------

# the generator of each family, by its name in ATTACK_NAMES
_GENERATORS = dict(zip(ATTACK_NAMES, (
    overflow_attack, saturation_reorder_attack, float_reorder_attack,
    rounding_attack, repeated_rounding_attack_1, repeated_rounding_attack_2)))


def _distance(metric: str, u: Dataset, v: Dataset) -> Optional[int]:
    if metric == "sym":
        return d_sym(u, v)
    if metric == "co":
        d = d_co(u, v)
    elif metric == "ham":
        d = d_ham(u, v)
    else:
        if u.n + v.n > _ID_RECHECK_LIMIT:
            return None
        d = d_id(u, v)
    return None if not isinstance(d, int) else d


def verify_attack(instance: AttackInstance,
                  method: Optional[SumMethod] = None) -> VerificationReport:
    """Replay the pair and measure what the releases actually did.

    With no ``method`` the attack's native method is used and
    ``matches_prediction`` states whether the realized gap is exactly the
    predicted one; under a different method the prediction is just a
    reference point (defenses are judged by how far *below* it they
    land).  The adjacency distance is recomputed from the datasets where
    that is feasible.
    """
    native = method is None
    method = instance.method if method is None else method
    ru = exact_value(run_sum(instance.u, method).value)
    rv = exact_value(run_sum(instance.v, method).value)
    gap = abs(ru - rv)
    dist = _distance(instance.metric, instance.u, instance.v)
    return VerificationReport(
        realized_u=ru, realized_v=rv, realized_gap=gap,
        predicted_gap=instance.predicted_gap,
        matches_prediction=(gap == instance.predicted_gap) if native
        else gap >= instance.predicted_gap,
        adjacency_distance=dist)

"""Noise mechanisms and DP verification for bounded sums.

Three layers, in increasing order of rigor:

1. The sampler and :func:`run_mechanism` — draw Laplace-family noise and
   add it to a bounded-sum release the way a real library would (float
   add, clamp into the integer type, or modular reduction).  One sampler,
   built once per release, serves both a single run and every trial of an
   experiment.  Its discrete draws are exact: each is a sequence of
   Bernoulli decisions on the bits of a sha256 stream, and every decision
   compares those bits with the exact binary expansion of its rational
   probability, so the sampled distribution is the one the checker
   analyses, not an approximation of it through doubles.

2. :func:`distinguishing_experiment` and :func:`dp_violation_log2_bound`
   — the hypothesis-testing harness.  Run a mechanism many times on an
   adjacent pair, threshold the outputs, and compute how (im)probable the
   resulting 2x2 table would be if the mechanism actually satisfied
   epsilon-DP.  The bound maximizes the exact binomial tail likelihood
   over all outcome probabilities consistent with epsilon-DP, so it is a
   certificate against the *claim*, not against a particular alternative.

3. :func:`exact_dp_check` — for finite-support discrete mechanisms, fold
   the noise PMF in exact rational arithmetic and return the worst
   pointwise probability ratio, found among a handful of breakpoints of
   the ratio rather than by enumerating the support.  No sampling is
   involved; the verdict compares an exact rational against
   ``e^epsilon`` through interval arithmetic that widens its precision
   until the two separate.

The discrete noise distribution is pinned down by a *rational* decay
parameter ``alpha`` chosen just above ``exp(-1/scale)`` (more noise than
requested, never less).  The sampler draws from exactly that distribution,
``Pr[Z = z] = (1-alpha)/(1+alpha) * alpha^|z|``, and the checker folds the
same PMF, so a verdict of :func:`exact_dp_check` is a verdict on the draws
of :func:`run_mechanism` and :func:`distinguishing_experiment`.  Sampling
through doubles, as inverse CDF does, would break that link: the flaw
class of Mironov (CCS 2012).  Continuous ``laplace`` noise keeps inverse
CDF on purpose; it is the vulnerable reference path, and nothing exact
analyses it.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import struct
import sys
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, List, Optional, Tuple, Union

from .data import Dataset, exact_value
from .floats import SimFloat, _bits_grid, _round_bits, add_bits
from .ints import IntFormat, KInt
from .sensitivity import (PreconditionFailed, UnsupportedCombination,
                          SensitivityBound)
from .summation import SumMethod, run_sum

__all__ = [
    "NOISE_KINDS", "MechanismSpec", "ExperimentReport", "ExactDPReport",
    "rational_alpha", "calibrate", "run_mechanism",
    "distinguishing_experiment", "dp_violation_log2_bound",
    "exact_dp_check", "certified_leq_exp",
    "VERDICT_CUTOFF_LOG2", "SUPPORT_LIMIT",
]

NOISE_KINDS = ("laplace", "discrete_laplace", "discrete_laplace_mod")

# An experiment verdict flips to "violation" when the observed table would
# have probability below 1% under the claimed epsilon.
VERDICT_CUTOFF_LOG2 = math.log2(0.01)

# exact_dp_check evaluates at most six outputs, but its weights are powers
# of alpha (80 bits each) with exponents up to the support size: at this
# support the exact ratio runs to about 1.6 million decimal digits, and
# beyond it the report stops being a reasonable desk computation.
SUPPORT_LIMIT = 1 << 16

_ALPHA_GRID_BITS = 80


# ---------------------------------------------------------------------------
# The discrete-Laplace decay parameter
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _rational_alpha_cached(num: int, den: int) -> Fraction:
    import mpmath
    scale = Fraction(num, den)
    with mpmath.workprec(_ALPHA_GRID_BITS + 48):
        a = mpmath.exp(-mpmath.mpf(scale.denominator) / mpmath.mpf(
            scale.numerator))
        grid = 1 << _ALPHA_GRID_BITS
        upper = int(mpmath.floor(a * grid)) + 2
    if upper >= grid:
        raise PreconditionFailed(
            "scale too large: exp(-1/scale) rounds to 1 on the decay grid")
    return Fraction(upper, grid)


def rational_alpha(scale: Union[Fraction, int]) -> Fraction:
    """Rational decay parameter ``alpha >= exp(-1/scale)``.

    The discrete Laplace distribution ``Pr[Z = z] ~ alpha^|z|`` needs an
    exactly-representable ``alpha`` so the verifier can fold PMFs in
    rational arithmetic.  Rounding happens on a ``2^-80`` grid and always
    *upward*: a larger alpha means heavier noise, so the realized
    mechanism is never less private than the requested scale implies.
    """
    scale = Fraction(scale)
    if scale <= 0:
        raise PreconditionFailed("scale must be positive")
    return _rational_alpha_cached(scale.numerator, scale.denominator)


# ---------------------------------------------------------------------------
# Mechanism description
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MechanismSpec:
    """A bounded-sum mechanism: base summation plus calibrated noise.

    ``noise`` selects how the draw joins the release:

    * ``laplace`` — continuous Laplace added with a float add in the
      dataset's format.  The deliberately-vulnerable reference path.
    * ``discrete_laplace`` — integer noise; on an integer release the
      noisy value is clamped into the k-bit type (a finite type has
      nowhere else to put it — this is the clamp-after-the-fact pattern
      that breaks DP on wrapped sums), on a float release it is rounded
      in and added.
    * ``discrete_laplace_mod`` — integer noise folded back modularly;
      the repaired mechanism for wraparound sums.

    ``epsilon`` and ``calibration`` record the claim being made; when
    both are present the spec insists ``scale >= bound / epsilon``, i.e.
    you cannot construct a spec that under-noises its own claim.  (You
    can, of course, calibrate to a bound that is itself too small — that
    is what the attacks demonstrate.)
    """

    method: SumMethod = field(default_factory=SumMethod)
    noise: str = "discrete_laplace"
    scale: Fraction = Fraction(1)
    epsilon: Optional[Fraction] = None
    calibration: Optional[SensitivityBound] = None

    def __post_init__(self):
        if self.noise not in NOISE_KINDS:
            raise PreconditionFailed(f"noise must be one of {NOISE_KINDS}")
        object.__setattr__(self, "scale", Fraction(self.scale))
        if self.scale <= 0:
            raise PreconditionFailed("scale must be positive")
        if self.epsilon is not None:
            object.__setattr__(self, "epsilon", Fraction(self.epsilon))
            if self.epsilon <= 0:
                raise PreconditionFailed("epsilon must be positive")
        if self.calibration is not None and self.epsilon is not None:
            if self.scale < self.calibration.value / self.epsilon:
                raise PreconditionFailed(
                    "scale below calibration.value/epsilon contradicts the "
                    "spec's own DP claim")

    @property
    def alpha(self) -> Fraction:
        """The exact decay parameter of the discrete noise."""
        return rational_alpha(self.scale)

    def to_json(self) -> dict:
        out = {
            "method": self.method.to_json(),
            "noise": self.noise,
            "scale": str(self.scale),
        }
        if self.noise != "laplace":
            out["alpha"] = str(self.alpha)
        if self.epsilon is not None:
            out["epsilon"] = str(self.epsilon)
        if self.calibration is not None:
            out["calibration"] = self.calibration.to_json()
        return out


def calibrate(noise: str, bound: SensitivityBound, epsilon: Fraction,
              method: Optional[SumMethod] = None) -> MechanismSpec:
    """Spec with ``scale = bound / epsilon`` — the textbook calibration."""
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise PreconditionFailed("epsilon must be positive")
    return MechanismSpec(method=method if method is not None else SumMethod(),
                         noise=noise, scale=Fraction(bound.value) / epsilon,
                         epsilon=epsilon, calibration=bound)


def _refuse_exact(spec: MechanismSpec) -> None:
    if spec.method.algorithm == "exact":
        raise UnsupportedCombination(
            "mechanisms release values of the element type; the exact "
            "pseudo-algorithm is an analysis oracle, not a release path")


def run_mechanism(spec: MechanismSpec, dataset: Dataset, seed: int):
    """One mechanism run: ``BS*(dataset)`` plus one noise draw, whose bits
    are the stream named ``b"%d" % seed`` (see :func:`_stream`)."""
    _refuse_exact(spec)
    base = run_sum(dataset, spec.method).value
    units = _sampler(spec, base)[0](_stream(hashlib.sha256(), b"%d" % seed))
    if isinstance(base, KInt):
        return KInt(base.fmt, units)
    return SimFloat.from_grid(base.fmt, units)


# ---------------------------------------------------------------------------
# The exact sampler
# ---------------------------------------------------------------------------

# The stream is read in chunks of _W bits, each digest as eight big-endian
# 32-bit words, and a Bernoulli decision compares whole chunks
_W = 32
_BLOCK_CHUNKS = struct.Struct(">8L").unpack
# A probability (alpha, i, odds) as :func:`_scaled_floor` reads it: the
# fair sign's is 1/2
_FAIR = (Fraction(1, 2), 0, False)


def _stream(prefix, label: bytes):
    """The ``_W``-bit chunks of the stream named ``label`` under the hashed
    ``prefix``, first to last: block 0 is ``sha256(prefix || label)`` and
    block ``c >= 1`` is ``sha256(prefix || label || b":%d" % c)``, each
    digest read as eight big-endian chunks."""
    h = prefix.copy()
    h.update(label)
    yield from _BLOCK_CHUNKS(h.digest())
    for block in itertools.count(1):
        h = prefix.copy()
        h.update(b"%s:%d" % (label, block))
        yield from _BLOCK_CHUNKS(h.digest())


@lru_cache(maxsize=1024)
def _scaled_floor(alpha: Fraction, i: int, odds: bool, bits: int) -> int:
    """``floor(x * 2^bits)`` for ``x = a`` or, with ``odds``, ``x = a / (1 +
    a)``, where ``a = alpha^(2^i)``.

    ``a`` is never built: ``alpha^(2^61)`` runs to ``80 * 2^61`` bits.  It
    is enclosed by repeated squaring on ``bits + guard``-bit fixed point,
    the lower end rounded down and the upper end up at every step, which
    widens the enclosure to at most ``2^(i+1)`` units; both ends of ``x``
    are increasing in ``a``.  When the two floors differ the guard doubles,
    so the result is exact: for ``odds`` the value ``x * 2^bits`` is never
    an integer (its denominator is odd), and for a power it is one only at
    ``bits >= s * 2^i`` (``alpha = P / 2^s``), where the enclosure is the
    value itself.
    """
    p, s = alpha.numerator, alpha.denominator.bit_length() - 1
    guard = i + 16
    while True:
        prec = bits + guard
        if prec >= s:
            lo = hi = p << (prec - s)
        else:                       # p is odd: the scaled alpha is inexact
            lo = p >> (s - prec)
            hi = lo + 1
        for _ in range(i):
            lo = lo * lo >> prec
            hi = -(-hi * hi >> prec)
        if odds:
            one = 1 << prec
            low, high = (lo << bits) // (one + lo), (hi << bits) // (one + hi)
        else:
            low, high = lo >> guard, hi >> guard
        if low == high:
            return low
        guard *= 2


def _tie(chunks, x: Tuple[Fraction, int, bool], u: int) -> bool:
    """Finish a Bernoulli decision whose first chunk ``u`` equals ``floor(x
    * 2^_W)``: read chunks until the stream's number ``U`` parts from ``x``.

    ``U < x`` exactly when the first chunk that differs from ``x``'s
    expansion is below it; if ``x``'s expansion ends first, ``U >= x``.
    """
    alpha, i, odds = x
    bits, exact = _W, (alpha.denominator.bit_length() - 1) << i
    while odds or bits < exact:    # x * 2^bits is not an integer
        bits += _W
        u = u << _W | next(chunks)
        t = _scaled_floor(alpha, i, odds, bits)
        if u != t:
            return u < t
    return False


def _bernoulli(chunks, t: int, x: Tuple[Fraction, int, bool]) -> bool:
    """True with probability exactly ``x = (alpha, i, odds)``, read as in
    :func:`_scaled_floor`, with ``t = floor(x * 2^_W)``: the stream's next
    chunks are the binary digits of a uniform ``U``, and the result is
    ``U < x``.  The first chunk decides unless it equals ``t``."""
    c = next(chunks)
    return c < t or c == t and _tie(chunks, x, c)


def _discrete_noise(alpha: Fraction, k: Optional[int], modular: bool):
    """``draw(chunks)``: one discrete Laplace draw ``Z`` with ``Pr[Z = z] =
    (1-alpha)/(1+alpha) * alpha^|z|``, exactly.

    ``Z = +G`` or ``-G`` on a fair sign, with ``G ~ Geom(alpha)``, and the
    pair ``(-, 0)`` is drawn again, which leaves ``Pr[Z = 0] = (1-alpha) /
    (1+alpha)`` and halves the rest.  ``G = 2^j T + R`` with ``j`` the
    smallest ``j`` with ``alpha^(2^j) <= 1/2``: ``R``'s ``j`` binary
    digits are independent, digit ``i`` is 1 with probability
    ``alpha^(2^i) / (1 + alpha^(2^i))``, and ``T ~ Geom(alpha^(2^j))`` is
    a loop of Bernoulli draws, at most two on average.

    With ``k``, the loop stops once ``G >= 2^k``: a clamped release is then
    on a rail, and the draw returns ``Z`` with that ``G``.  A ``modular``
    draw needs only ``G mod 2^k`` once ``G`` is known to be nonzero: past
    the stop ``T - 2^(k-j)`` is again ``Geom(alpha^(2^j))``, so its
    residue is read off ``G``'s digits ``j..k-1``, and the draw returns
    ``Z`` modulo ``2^k``.  Each decision is one :func:`_bernoulli` call.
    """
    def threshold(i: int, odds: bool):
        return _scaled_floor(alpha, i, odds, _W), (alpha, i, odds)

    j = 0
    if alpha > Fraction(1, 2):
        # alpha^(2^j) is not 1/2 for j >= 1, so floor(2 alpha^(2^j)) decides
        j = 1
        while _scaled_floor(alpha, j, False, 1):
            j += 1
    half = _scaled_floor(*_FAIR, _W)
    low = [(*threshold(i, True), 1 << i) for i in range(j)]
    beta, beta_x = threshold(j, False)
    step = 1 << j
    limit = math.inf if k is None else 1 << k
    high = ([(*threshold(i, True), 1 << i) for i in range(j, k)]
            if modular else [])

    def draw(chunks) -> int:
        while True:
            positive = _bernoulli(chunks, half, _FAIR)
            g = 0
            for t, x, bit in low:
                if _bernoulli(chunks, t, x):
                    g += bit
            while g < limit and _bernoulli(chunks, beta, beta_x):
                g += step
            if g >= limit:
                if modular:
                    g &= limit - 1
                    for t, x, bit in high:
                        if _bernoulli(chunks, t, x):
                            g += bit
            elif not (g or positive):
                continue
            return g if positive else -g
    return draw


def _laplace_noise(scale: float):
    """``draw(chunks)``: continuous Laplace noise by inverse CDF on a
    53-bit uniform read from the stream, through doubles.  This is the
    deliberately vulnerable reference path: the checker never analyses it.
    """
    log1p, copysign = math.log1p, math.copysign

    def draw(chunks) -> float:
        while True:
            # a 32-bit chunk and the top 21 bits of the next
            u = next(chunks) << 21 | next(chunks) >> 11
            w = u * 2.0 ** -53 - 0.5
            if abs(w) < 0.5:
                return -scale * copysign(log1p(-2.0 * abs(w)), w)
    return draw


def _sampler(spec: MechanismSpec, base) -> Tuple[Callable[[object], int],
                                                   int]:
    """``(draw, grid)``: ``draw(chunks)`` is the noisy release of the
    noiseless release ``base``, as its exact value times ``grid``, with the
    noise's bits read from the chunk stream ``chunks`` (:func:`_stream`).

    An integer release counts ones (``grid`` is 1) and a float release
    counts its format's finest spacing, so either compares with a
    threshold as an int.  Everything that does not depend on the stream is
    settled here, once: the refusals, ``alpha`` and every Bernoulli
    threshold of :func:`_discrete_noise`, the Laplace scale and the
    format's rails.  Discrete noise is exact, so the releases are
    distributed as :func:`exact_dp_check` analyses them: clamped into the
    integer format, wrapped modulo its ``2^bits``, or rounded to a float
    pattern and added with one rounded add.
    """
    fmt, noise, integer = base.fmt, spec.noise, isinstance(base, KInt)
    if integer and noise == "laplace":
        raise UnsupportedCombination(
            "continuous noise on an integer release; use a discrete kind")
    if noise == "discrete_laplace_mod" and not integer:
        raise UnsupportedCombination("modular noise needs an integer format")
    if noise == "discrete_laplace_mod" and fmt.overflow != "wraparound":
        raise PreconditionFailed("modular noise addition needs a wraparound "
                                 "format")
    if noise == "laplace":
        draw_noise = _laplace_noise(float(spec.scale))
    else:
        draw_noise = _discrete_noise(
            spec.alpha, fmt.bits if integer else None,
            noise == "discrete_laplace_mod")
    if not integer:
        kernel, bits = fmt._kernel, base.bits

        def draw(chunks) -> int:
            z = draw_noise(chunks)
            zb = 0
            if z:
                m, d = z.as_integer_ratio()
                zb = _round_bits(kernel, m < 0, abs(m), 1 - d.bit_length(),
                                 "banker")
            return _bits_grid(kernel, add_bits(kernel, bits, zb, "banker"))
        return draw, 1 << (fmt.k - fmt.emin)
    lo, hi, value = fmt.min_value, fmt.max_value, base.value
    if noise == "discrete_laplace_mod":
        # (value + z) mod 2^bits, read into [lo, lo + 2^bits)
        mask, offset = fmt.modulus - 1, value - lo

        def draw(chunks) -> int:
            return ((offset + draw_noise(chunks)) & mask) + lo
    else:
        def draw(chunks) -> int:
            return min(max(value + draw_noise(chunks), lo), hi)
    return draw, 1


# ---------------------------------------------------------------------------
# Distinguishing experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentReport:
    """Outcome table of a threshold test on an adjacent pair."""

    trials: int
    counts: Tuple[Tuple[int, int], Tuple[int, int]]  # (u,v) x (zeros, ones)
    threshold: Fraction
    epsilon_claimed: Fraction
    log2_probability_bound: float
    verdict: str
    master_seed: int

    def to_json(self) -> dict:
        (u0, u1), (v0, v1) = self.counts
        return {
            "trials": self.trials,
            "counts": {"u": {"0": u0, "1": u1}, "v": {"0": v0, "1": v1}},
            "threshold": str(self.threshold),
            "epsilon_claimed": str(self.epsilon_claimed),
            "log2_probability_bound": self.log2_probability_bound,
            "verdict": self.verdict,
            "master_seed": self.master_seed,
        }


def _midpoint(base_u, base_v) -> Fraction:
    return Fraction(exact_value(base_u) + exact_value(base_v), 2)


def distinguishing_experiment(instance, spec: MechanismSpec, trials: int,
                              master_seed: int,
                              threshold: Optional[Fraction] = None
                              ) -> ExperimentReport:
    """Threshold ``trials`` runs of the mechanism on ``u`` and on ``v``.

    ``instance`` is an attack instance (anything with ``u``/``v`` dataset
    attributes).  The base sum is deterministic, so each dataset is summed
    once, and one sampler is built per side: every refusal, ``alpha`` and
    every Bernoulli threshold and the format's rails are settled before
    the first trial, so a refusal does not depend on ``trials``.  Trial
    ``i`` of side ``role`` reads its bits from its own stream
    (:func:`_stream`): block 0 is ``sha256(f"{master_seed}:{role}:{i}")``,
    hashed on from a copy of the hashed prefix, and block ``c`` is the
    hash of that text and ``f":{c}"``.  A trial is its noise draw from
    that stream, the add with its clamp, wrap or rounding, and one int
    comparison against the threshold on the release's grid.  Trials are
    reproducible and order-independent, and since each discrete draw is
    exact, the table's cells are binomial with exactly the probabilities
    of the PMF :func:`exact_dp_check` folds.  The report's bound is
    :func:`dp_violation_log2_bound` of the table under ``spec.epsilon``,
    and the verdict flips to ``"epsilon-violation"`` below
    ``VERDICT_CUTOFF_LOG2``.
    """
    if trials < 0:
        raise PreconditionFailed("trials must be nonnegative")
    if spec.epsilon is None:
        raise PreconditionFailed("the spec must carry the claimed epsilon")
    _refuse_exact(spec)
    base_u = run_sum(instance.u, spec.method).value
    base_v = run_sum(instance.v, spec.method).value
    if threshold is None:
        threshold = _midpoint(base_u, base_v)
    else:
        threshold = Fraction(threshold)
    table = []
    for role, base in (("u", base_u), ("v", base_v)):
        draw, grid = _sampler(spec, base)
        # a release of ``units / grid`` is above the threshold exactly when
        # the int ``units`` is above this floor
        cut = math.floor(threshold * grid)
        prefix = hashlib.sha256(f"{master_seed}:{role}:".encode())
        ones = 0
        for i in range(trials):
            ones += draw(_stream(prefix, b"%d" % i)) > cut
        table.append((trials - ones, ones))
    counts = (table[0], table[1])
    bound = dp_violation_log2_bound(counts, spec.epsilon)
    verdict = ("epsilon-violation" if bound < VERDICT_CUTOFF_LOG2
               else "consistent-with-epsilon")
    return ExperimentReport(trials=trials, counts=counts, threshold=threshold,
                            epsilon_claimed=spec.epsilon,
                            log2_probability_bound=bound, verdict=verdict,
                            master_seed=master_seed)


# ---------------------------------------------------------------------------
# Likelihood bound for the 2x2 table
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4)
def _log_factorials(n: int):
    """``log j!`` for ``j`` in ``0..n``, read-only: a bound asks four
    times for the same table (two tails, each on two grids)."""
    import numpy as np
    table = np.array([math.lgamma(j + 1) for j in range(n + 1)])
    table.flags.writeable = False
    return table


def _log_upper_tail(k: int, n: int, p: np.ndarray) -> np.ndarray:
    """``log P[Binomial(n, p) >= k]`` held in log space the whole way.

    Library survival functions compute the probability first and then
    take its log, which bottoms out at ``-inf`` around ``1e-308`` — far
    too early for tables whose honest log-probability is minus tens of
    thousands.  The terms ``logC(n,i) + i log p + (n-i) log(1-p)`` are
    summed by a log-sum-exp shifted by each row's largest term, which
    keeps every magnitude representable.
    """
    import numpy as np
    p = np.asarray(p, dtype=float)
    if k <= 0:
        return np.zeros_like(p)
    if k > n:
        return np.full_like(p, -np.inf)
    i = np.arange(k, n + 1)
    log_fact = _log_factorials(n)
    log_comb = log_fact[n] - log_fact[i] - log_fact[n - i]
    out = np.full_like(p, -np.inf)
    interior = (p > 0.0) & (p < 1.0)
    if interior.any():
        pi = p[interior]
        acc = np.empty_like(pi)
        # block the broadcast so the term matrix stays modest
        block = max(1, 2_000_000 // len(i))
        for start in range(0, len(pi), block):
            chunk = pi[start:start + block, None]
            terms = (log_comb[None, :] + i[None, :] * np.log(chunk)
                     + (n - i)[None, :] * np.log1p(-chunk))
            top = terms.max(axis=1, keepdims=True)
            acc[start:start + block] = (
                top[:, 0] + np.log(np.exp(terms - top).sum(axis=1)))
        out[interior] = np.minimum(acc, 0.0)
    out[p >= 1.0] = 0.0
    return out


def dp_violation_log2_bound(counts, epsilon) -> float:
    """log2 of the best probability an epsilon-DP mechanism gives the table.

    Writing ``p_u = Pr[f(M(u)) = 1]`` and ``p_v`` likewise, epsilon-DP
    forces all four inequalities ``p_u <= e^eps p_v``, ``p_v <= e^eps
    p_u``, ``1-p_u <= e^eps (1-p_v)``, ``1-p_v <= e^eps (1-p_u)``.  The
    statistic is the one-sided evidence actually observed: with ``u`` the
    1-heavier side, ``Pr[X_u >= ones_u] * Pr[X_v <= ones_v]`` for
    independent binomials — exactly the tail products of the worked
    analyses this reproduces.  The return value is the maximum of that
    product over the constraint region, found by a coarse/fine grid with
    step below 1e-6.

    A value near 0 means the table is unremarkable; a large negative
    value is a certificate that the DP claim fails (no parameter choice
    consistent with epsilon-DP explains the data).
    """
    (u0, u1), (v0, v1) = counts
    for c in (u0, u1, v0, v1):
        if c < 0 or c != int(c):
            raise PreconditionFailed("counts must be nonnegative integers")
    nu, nv = u0 + u1, v0 + v1
    if nu == 0 or nv == 0:
        return 0.0
    # orient so that u is the side observed 1-heavy
    if u1 * nv < v1 * nu:
        (u0, u1), (v0, v1) = (v0, v1), (u0, u1)
        nu, nv = nv, nu
    try:
        eps = float(epsilon)
        e_pos, e_neg = math.exp(eps), math.exp(-eps)
    except OverflowError:
        # past eps = 709.78, e^eps is beyond the largest double.  The
        # constraints have all but vanished by then (at eps = 700 the
        # bound on ((3, 0), (0, 3)) is -2.2e-6), so the bound is 0.0, the
        # log of a probability of 1, which no table exceeds
        return 0.0
    log2e = 1.0 / math.log(2.0)
    import numpy as np

    def evaluate(pu: np.ndarray) -> np.ndarray:
        pv = np.maximum(pu * e_neg, 1.0 - e_pos * (1.0 - pu))
        pv = np.clip(pv, 0.0, 1.0)
        a = _log_upper_tail(u1, nu, pu)
        # P[X_v <= v1] is the upper tail of the flipped coin
        b = _log_upper_tail(nv - v1, nv, 1.0 - pv)
        return (a + b) * log2e

    grid = np.linspace(0.0, 1.0, 2001)
    values = evaluate(grid)
    best = int(np.argmax(values))
    step = grid[1] - grid[0]
    lo = max(0.0, grid[best] - step)
    hi = min(1.0, grid[best] + step)
    fine = np.linspace(lo, hi, 2001)  # step < 1e-6
    values = evaluate(fine)
    return float(np.max(values))


# ---------------------------------------------------------------------------
# Exact verification over finite supports
# ---------------------------------------------------------------------------

# Past this many bits an int is written by halves through ``decimal``, whose
# multiply is subquadratic; ``str()`` is quadratic in CPython and faster only
# below it (the two cross between 32,000 and 36,000 bits, best of 7 on a
# 2-vCPU x86-64 VM, Python 3.11).
_DECIMAL_BITS = 1 << 15
# Leaves of that split are converted by ``Decimal(int)`` directly.
_DECIMAL_LEAF_BITS = 2048


def _decimal_digits(n: int) -> str:
    """``str(n)`` for ``n >= 0``: the halves ``n = hi * 2^h + lo`` are
    written recursively as Decimals and joined with a cached ``2^h``, the
    split of CPython 3.12's ``_pylong.int_to_decimal_string``."""
    import decimal
    two = decimal.Decimal(2)
    powers = {}

    def power(w: int):
        if w not in powers:
            powers[w] = (two ** w if w <= _DECIMAL_LEAF_BITS
                         else power(w >> 1) * power(w - (w >> 1)))
        return powers[w]

    def halves(n: int, w: int):
        if w <= _DECIMAL_LEAF_BITS:
            return decimal.Decimal(n)
        h = w >> 1
        hi = n >> h
        return halves(n - (hi << h), h) + halves(hi, w - h) * power(h)

    with decimal.localcontext() as ctx:
        # exact integers: no rounding, no exponent limit
        ctx.prec, ctx.Emax = decimal.MAX_PREC, decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        return str(halves(n, n.bit_length()))


def _int_str(n: int) -> str:
    """``str(n)`` for ``n >= 0``, past the int-to-str digit guard."""
    if n.bit_length() > _DECIMAL_BITS:
        return _decimal_digits(n)
    need = n.bit_length() // 3 + 3
    if (hasattr(sys, "get_int_max_str_digits")
            and need > sys.get_int_max_str_digits()):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(need)
        try:
            return str(n)
        finally:
            sys.set_int_max_str_digits(saved)
    return str(n)


def _exact_str(fr: Fraction) -> str:
    """``str()`` of a nonnegative fraction, digit for digit, at any size.

    The exact PMF ratios carry numerators of millions of bits (``alpha``
    lives on a ``2^-80`` grid and gets raised to the modulus).  ``str()``
    refuses them past CPython's int-to-str digit guard and is quadratic
    below it, so long numerators and denominators are written by halves
    (:func:`_decimal_digits`) and short ones by ``str()`` with the guard
    raised just for that call.
    """
    num = _int_str(fr.numerator)
    return num if fr.denominator == 1 else f"{num}/{_int_str(fr.denominator)}"


@dataclass(frozen=True)
class ExactDPReport:
    """Worst pointwise PMF ratio of a finite-support mechanism pair."""

    max_ratio: Fraction
    witness: int
    epsilon: Fraction
    satisfied: bool
    support: int

    def to_json(self) -> dict:
        try:
            approx = float(self.max_ratio)
        except OverflowError:   # past the largest double
            approx = None
        return {"max_ratio": _exact_str(self.max_ratio),
                "max_ratio_approx": approx,
                "witness": self.witness,
                "epsilon": str(self.epsilon), "satisfied": self.satisfied,
                "support": self.support}


def certified_leq_exp(ratio: Fraction, exponent: Fraction) -> bool:
    """Decide ``ratio <= e^exponent`` by certified interval arithmetic.

    Precision doubles until the enclosing intervals separate; a rational
    never equals ``e^x`` for rational ``x != 0``, so this terminates.
    """
    ratio, exponent = Fraction(ratio), Fraction(exponent)
    if exponent == 0:
        return ratio <= 1
    import mpmath
    iv = mpmath.iv
    saved = iv.prec
    try:
        for prec in (64, 128, 256, 512, 1024, 2048):
            iv.prec = prec
            e = iv.exp(iv.mpf(exponent.numerator) / exponent.denominator)
            q = iv.mpf(ratio.numerator) / iv.mpf(ratio.denominator)
            if q.b < e.a:
                return True
            if q.a > e.b:
                return False
    finally:
        iv.prec = saved
    raise ArithmeticError("could not separate the ratio from e^exponent")


# Modular breakpoints are ranked by a double estimate of the log2 of their
# ratio, and only those within this margin of the largest estimate are
# compared exactly.  The margin's derivation: alpha = P/Q with Q = 2^s <=
# 2^80 and alpha >= 2^-79, so log2 Q is exact and the double l = log2 P - s
# is within 2^-44 of log2 alpha (P rounded to a double, then an ulp of
# log2 P < 2^7), with |l| < 2^7.  A weight's estimate a*l + log2(1 +
# 2^(n*l)) has a <= m/2 <= 2^15 and n <= m <= 2^16 (SUPPORT_LIMIT): a*l is
# off by at most 2^15 * 2^-44 plus a rounding of 2^-31, and the second
# term, whose slope in n*l is below 1, by at most 2^16 * 2^-44 plus 2^-30
# and a few ulps of 1.  That is under 2^-27 per weight and 2^-26 per
# ratio, so an estimate more than 2^-25 (3e-8) below another belongs to
# the smaller exact ratio; the margin is thirty times that.
_LOG2_MARGIN = 1e-6


if hasattr(Fraction, "_from_coprime_ints"):       # Python 3.12 and later
    _coprime_fraction = Fraction._from_coprime_ints
else:
    def _coprime_fraction(numerator: int, denominator: int) -> Fraction:
        """``Fraction(numerator, denominator)`` for a coprime pair with a
        positive denominator, without the gcd the public constructor runs
        (at 16 bits the numbers run to millions of bits)."""
        return Fraction(numerator, denominator, _normalize=False)


def _folded_greater(alpha: Fraction, m: int, first: Tuple[int, int],
                    second: Tuple[int, int]) -> bool:
    """``W(a)/W(b) > W(c)/W(d)`` exactly, for ``first = (a, b)``,
    ``second = (c, d)`` and the folded weight ``W(a) = alpha^a +
    alpha^(m-a)``.

    The two cross products ``W(a) W(d)`` and ``W(c) W(b)`` are sums of four
    powers of alpha each.  The powers they share cancel; the rest are
    scaled by ``Q^e`` to ints, with ``e`` the spread of their exponents.
    The near ties the estimate leaves, such as ``W(0)/W(1)`` against
    ``W(1)/W(2)``, cancel down to exponents a few apart, where the full
    cross products would run to millions of bits.
    """
    def exponents(a: int, b: int) -> Counter:     # of W(a) * W(b)
        return Counter(x + y for x in (a, m - a) for y in (b, m - b))

    (a, b), (c, d) = first, second
    left, right = exponents(a, d), exponents(c, b)
    left, right = left - right, right - left
    if not left:
        return False
    low = min(left | right)
    spread = max(left | right) - low
    p, q = alpha.numerator, alpha.denominator

    def scaled(terms: Counter) -> int:
        return sum(count * p ** (e - low) * q ** (spread - e + low)
                   for e, count in terms.items())

    return scaled(left) > scaled(right)


def _folded_ratio(alpha: Fraction, m: int, a: int, b: int) -> Fraction:
    """``W(a) / W(b)`` in lowest terms, ``W(a) = alpha^a + alpha^(m-a)``,
    for ``0 <= a, b <= m/2`` and ``alpha = P/2^s`` in lowest terms.

    With ``Q = 2^s`` and ``G(n) = Q^n + P^n``, ``Q^m W(a) = (PQ)^a
    G(m-2a)``.  For ``n >= 1``, ``G(n)`` is odd and prime to ``P``, so prime
    to ``PQ``; for ``n1, n2 >= 1`` and ``g = gcd(n1, n2)``, ``gcd(G(n1),
    G(n2))`` is ``G(g)`` when ``n1/g`` and ``n2/g`` are both odd and 1
    otherwise.  ``G(0) = 2`` belongs to ``a = m/2``, the largest ``a``, so
    it sits on the side that also takes the power of ``PQ``, where the other
    side is odd.  The pair below is therefore coprime, and no gcd of the
    million-bit numbers is ever taken.
    """
    if a == b:
        return Fraction(1)
    p, s = alpha.numerator, alpha.denominator.bit_length() - 1
    n1, n2 = m - 2 * a, m - 2 * b
    num, den = (1 << s * n1) + p ** n1, (1 << s * n2) + p ** n2
    g = math.gcd(n1, n2)
    if n1 and n2 and (n1 // g) % 2 and (n2 // g) % 2:
        common = (1 << s * g) + p ** g
        num, den = num // common, den // common
    if a > b:
        num = p ** (a - b) * num << s * (a - b)
    else:
        den = p ** (b - a) * den << s * (b - a)
    return _coprime_fraction(num, den)


def _folded_max(alpha: Fraction, m: int, cu: int, cv: int,
                outputs: List[int]) -> Tuple[Fraction, int]:
    """Largest ratio of the folded weights centred at ``cu`` and ``cv``
    over ``outputs`` (ascending), and the first output that attains it."""
    log2_alpha = math.log2(alpha.numerator) - math.log2(alpha.denominator)

    def log2_weight(a: int) -> float:
        return a * log2_alpha + math.log2(1 + 2 ** ((m - 2 * a) * log2_alpha))

    # an output's weights depend only on its folded distances to the centres
    pairs = [(min((z - cu) % m, (cu - z) % m), min((z - cv) % m, (cv - z) % m))
             for z in outputs]
    estimates = [log2_weight(a) - log2_weight(b) for a, b in pairs]
    top = max(estimates)
    # An estimate more than the margin below the top has a strictly smaller
    # ratio than the top's.  The rest are compared exactly, where an equal
    # ratio is not greater, so a tie keeps the earlier (smaller) output.
    best, witness = None, 0
    for z, pair, estimate in zip(outputs, pairs, estimates):
        if estimate >= top - _LOG2_MARGIN and (
                best is None or _folded_greater(alpha, m, pair, best)):
            best, witness = pair, z
    assert best is not None
    return _folded_ratio(alpha, m, *best), witness


def exact_dp_check(spec: MechanismSpec, u: Dataset, v: Dataset,
                   epsilon: Fraction) -> ExactDPReport:
    """Worst-case PMF ratio of ``M(u)`` against ``M(v)``, exactly.

    Only finite-support discrete mechanisms qualify: modular noise (the
    support is the residue ring) or clamped integer noise (the support is
    the type's range).  Every output weight is an exact rational built
    from the spec's rational ``alpha``; the returned ratio is their exact
    maximum over the support, in lowest terms, with the first (smallest)
    output that attains it as the witness, and ``satisfied`` settles
    ``max_ratio <= e^epsilon`` by certified interval comparison.

    The ratio is evaluated only at the ends of the pieces on which it is
    monotone in the output ``z``, in ascending order, keeping the first
    strict maximum.  On a monotone or constant piece the first maximum is
    one of its ends, so this gives the same maximum and witness as
    enumerating the whole support.  With centres ``su``, ``sv``:

    * clamped, support ``[lo, hi]``: a rail at distance ``d`` from a centre
      inside the range weighs ``alpha^d`` (``(1+alpha) - alpha = 1`` at
      ``d = 0``) and an inner output ``(1-alpha) alpha^|z-c|``, so at every
      output the ratio is ``alpha^(|z-su| - |z-sv|)``.  The exponent is
      constant below ``min(su, sv)``, linear between the centres and
      constant above, so the pieces are ``{lo}``, ``[lo+1, min]``,
      ``[min, max]``, ``[max, hi-1]`` and ``{hi}``, and the largest ratio
      is the smallest exponent, compared as an integer;
    * modular, support ``[0, m)``: ``alpha^r + alpha^(m-r)`` is
      ``2 alpha^(m/2) cosh((r - m/2) ln alpha)`` for every residue ``r``,
      so between the wraps at ``su mod m`` and ``sv mod m`` the ratio is
      ``cosh(A)/cosh(B) = cosh(A-B) + sinh(A-B) tanh(B)`` with ``A - B``
      constant and ``B`` linear in ``z``; ``tanh`` is increasing, so each
      of ``[0, c-1]``, ``[c, c'-1]``, ``[c', m-1]`` (``c <= c'`` the
      centres' residues) is monotone.  The weight depends only on the
      folded distance ``min(r, m-r)``; the ends are ranked by a double
      estimate of their log2 ratio, compared exactly only within
      ``_LOG2_MARGIN`` of the best (:func:`_folded_greater`), and the
      winner is reduced in closed form (:func:`_folded_ratio`).
    """
    epsilon = Fraction(epsilon)
    if not isinstance(u.fmt, IntFormat) or u.fmt != v.fmt:
        raise PreconditionFailed("need two datasets over one integer format")
    if spec.noise == "laplace":
        raise UnsupportedCombination("continuous noise has no finite support")
    _refuse_exact(spec)
    fmt = u.fmt
    alpha = spec.alpha
    su = run_sum(u, spec.method).value.value
    sv = run_sum(v, spec.method).value.value
    modular = spec.noise == "discrete_laplace_mod"
    if modular and fmt.overflow != "wraparound":
        raise PreconditionFailed("modular noise needs a wraparound format")
    size = fmt.modulus
    if size > SUPPORT_LIMIT:
        raise PreconditionFailed(f"support {size} exceeds {SUPPORT_LIMIT}")
    if modular:
        cu, cv = su % size, sv % size
        lo, hi = 0, size - 1
        breaks = (cu - 1, cu, cv - 1, cv)
    else:
        lo, hi = fmt.min_value, fmt.max_value
        breaks = (lo + 1, su, sv, hi - 1)
    outputs = sorted({lo, hi, *(z for z in breaks if lo <= z <= hi)})
    if modular:
        ratio, witness = _folded_max(alpha, size, cu, cv, outputs)
    else:
        exponent, witness = min((abs(z - su) - abs(z - sv), z)
                                for z in outputs)
        ratio = alpha ** exponent
    return ExactDPReport(max_ratio=ratio, witness=witness, epsilon=epsilon,
                         satisfied=certified_leq_exp(ratio, epsilon),
                         support=size)

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
   analyses, not an approximation of it through doubles.  The per-trial
   draw is the one definition; an experiment makes the same decisions of
   many trials at once on numpy arrays, hashing on into a trial's stream
   as far as its draw reads, and hands back to it only the trials whose
   draw ties (a chunk equal to its threshold, which needs the threshold's
   exact expansion past one chunk) or whose ``G`` reaches ``2^k`` (a
   clamp's rail or a modular residue, read by decisions the arrays do not
   make).

2. :func:`distinguishing_experiment` and :func:`dp_violation_log2_bound`
   — the hypothesis-testing harness.  Run a mechanism many times on an
   adjacent pair, threshold the outputs, and compute how (im)probable the
   resulting 2x2 table would be if the mechanism actually satisfied
   epsilon-DP.  The bound maximizes the exact binomial tail likelihood
   over all outcome probabilities consistent with epsilon-DP, so it is a
   certificate against the *claim*, not against a particular alternative.

3. :func:`exact_dp_check` — for finite-support discrete mechanisms, fold
   the noise PMF in exact rational arithmetic and return the worst
   pointwise probability ratio.  It depends on the two releases only
   through their distance, and is read off that distance in closed form
   rather than by enumerating the support, as a quotient of two sums of
   powers.  No sampling is involved; the verdict encloses both sums in
   intervals, and widens their precision until the ratio's enclosure
   parts from ``e^epsilon``'s.

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
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Tuple, Union

from . import NOISE_KINDS
from .data import Dataset, exact_value
from .floats import (SimFloat, _bits_grid, _round_bits, add_bits,
                     number_text, power_sum_text)
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

# An experiment verdict flips to "violation" when the observed table would
# have probability below 1% under the claimed epsilon.
VERDICT_CUTOFF_LOG2 = math.log2(0.01)

# ExactDPReport.to_json writes the exact worst ratio in decimal, from powers
# of alpha's numerator (up to 80 bits) and of 2 whose exponents run to the
# support size: at this support the text runs to about 1.6 million digits
# on each side of its bar.  A 16-bit check takes under 1 ms in process on a
# 2-vCPU VM, and 0.17 to 0.25 s with its report.  Every doubling of the
# support doubles the digits and more than doubles the time, so past it the
# report is refused; exact_dp_check itself takes any support.
SUPPORT_LIMIT = 1 << 16

_ALPHA_GRID_BITS = 80


# ---------------------------------------------------------------------------
# The discrete-Laplace decay parameter
# ---------------------------------------------------------------------------

def rational_alpha(scale: Union[Fraction, int]) -> Fraction:
    """Rational decay parameter ``alpha >= exp(-1/scale)``.

    The discrete Laplace distribution ``Pr[Z = z] ~ alpha^|z|`` needs an
    exactly-representable ``alpha`` so the verifier can fold PMFs in
    rational arithmetic.  Rounding happens on a ``2^-80`` grid and always
    *upward*: a larger alpha means heavier noise, so the realized
    mechanism is never less private than the requested scale implies.
    """
    # one cache entry per value: lru_cache keys a lone int apart from the
    # equal Fraction
    return _grid_alpha(Fraction(scale))


@lru_cache(maxsize=None)
def _grid_alpha(scale: Fraction) -> Fraction:
    if scale <= 0:
        raise PreconditionFailed("scale must be positive")
    if scale.denominator >= 64 * scale.numerator:
        # exp(-64) < 2^-80 puts alpha two steps up the grid, as below, with
        # no exp(-1/scale) of a huge 1/scale (ln 2 to as many bits)
        return Fraction(2, 1 << _ALPHA_GRID_BITS)
    import mpmath
    with mpmath.workprec(_ALPHA_GRID_BITS + 48):
        a = mpmath.exp(-mpmath.mpf(scale.denominator) / mpmath.mpf(
            scale.numerator))
        grid = 1 << _ALPHA_GRID_BITS
        upper = int(mpmath.floor(a * grid)) + 2
    if upper >= grid:
        raise PreconditionFailed(
            "scale too large: exp(-1/scale) rounds to 1 on the decay grid")
    return Fraction(upper, grid)


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
            "scale": number_text(self.scale),
        }
        if self.noise != "laplace":
            out["alpha"] = number_text(self.alpha)
        if self.epsilon is not None:
            out["epsilon"] = number_text(self.epsilon)
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
    are the stream named ``b"%d" % seed`` (see :func:`_stream`).

    No command calls it, since :func:`distinguishing_experiment` draws
    its trials in bulk.  It stays for two readers: the tests, which check
    one draw against their reference sampler, and the benchmark's tracer
    (``perfbench/tracer.py``), which wraps it by name.
    """
    _refuse_exact(spec)
    base = run_sum(dataset, spec.method).value
    units = _sampler(spec, base)(_stream(hashlib.sha256(), b"%d" % seed))
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


class _DiscreteNoise:
    """One discrete Laplace draw ``Z`` with ``Pr[Z = z] = (1-alpha)/(1+alpha)
    * alpha^|z|``, exactly: call it on a chunk stream for one draw, or
    :meth:`decide` the draws of many streams at once.

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

    def __init__(self, alpha: Fraction, k: Optional[int], modular: bool):
        def threshold(i: int, odds: bool):
            return _scaled_floor(alpha, i, odds, _W), (alpha, i, odds)

        j = 0
        if alpha > Fraction(1, 2):
            # alpha^(2^j) is not 1/2 for j >= 1, so floor(2 alpha^(2^j))
            # decides
            j = 1
            while _scaled_floor(alpha, j, False, 1):
                j += 1
        self.j = j
        self.half = _scaled_floor(*_FAIR, _W)
        self.low = [(*threshold(i, True), 1 << i) for i in range(j)]
        self.beta, self.beta_x = threshold(j, False)
        self.limit = math.inf if k is None else 1 << k
        self.high = ([(*threshold(i, True), 1 << i) for i in range(j, k)]
                     if modular else [])
        self.modular = modular

    def __call__(self, chunks) -> int:
        half, low, beta, beta_x = self.half, self.low, self.beta, self.beta_x
        step, limit = 1 << self.j, self.limit
        while True:
            positive = _bernoulli(chunks, half, _FAIR)
            g = 0
            for t, x, bit in low:
                if _bernoulli(chunks, t, x):
                    g += bit
            while g < limit and _bernoulli(chunks, beta, beta_x):
                g += step
            if g >= limit:
                if self.modular:
                    g &= limit - 1
                    for t, x, bit in self.high:
                        if _bernoulli(chunks, t, x):
                            g += bit
            elif not (g or positive):
                continue
            return g if positive else -g

    def decide(self, chunks, more):
        """``(rows, z)``: the rows of ``chunks``, a ``(streams, width)``
        array of each stream's first ``width / 8`` blocks, whose draw the
        arrays decide, and those draws.  ``more(rows, blocks)`` is the
        ``(len(rows), 8)`` array of block ``blocks[i]`` of the stream of
        row ``rows[i]``.  A row is left to :meth:`__call__` only when a
        decision ties, since the tie is settled by the threshold's exact
        expansion past one chunk (:func:`_tie`), or when ``G`` reaches
        ``2^k``, since the clamp's rail and modular noise's residue digits
        are decisions the arrays do not make.

        Every decision reads one chunk unless it ties, so a row is read
        round by round from a cursor: the sign, the ``j`` digits, then
        ``T``'s loop up to its first chunk that is not below ``beta``.  A
        round is decided when that chunk is above ``beta`` and no chunk it
        read equals its threshold.  Each round's window holds a row's
        chunks from its cursor on, then zeros, and 0 is never above
        ``beta``, so a round that runs past the chunks a row holds is not
        decided.  The rows left for the next round are read on in the same
        arrays.  A ``(-, 0)`` round moves its row's cursor past it and past
        every ``(-, 0)`` round that follows it in the window, each read as
        chunks all above their thresholds.  A round that ran past its
        chunks with no tie among them is read again, with its stream's
        next block (:func:`_stream`) hashed onto the window, as is a
        ``(-, 0)`` row's when the chunks left in its window fall short of
        the sign, the digits and two of ``T``'s decisions; the round's
        blocks are hashed in one call of ``more``.  A decided row's ``z``
        is therefore the one :meth:`__call__` draws from the same stream.
        ``R`` is an int64 for ``j <= 63``; ``G`` is assembled on Python
        ints where it leaves int64.
        """
        import numpy as np
        n, width = chunks.shape
        j, half, beta = self.j, self.half, self.beta
        step = j + 2
        low = np.array([t for t, _, _ in self.low], dtype=np.uint32)
        # a (-, 0) round whose every decision reads one chunk: each chunk
        # above its threshold
        redraw = np.array([half, *low, beta], dtype=np.uint32)
        weights = np.left_shift(1, np.arange(j, dtype=np.int64))
        eight = np.arange(8)
        rows, window, done = np.arange(n), chunks, []
        # each row's chunks in the window, and its stream's blocks hashed:
        # the number of the next
        held, hashed = np.full(n, width), np.full(n, width // 8)
        while True:
            size = window.shape[1]
            sign, digits, tail = window[:, 0], window[:, 1:j + 1], window[
                :, j + 1:]
            t = (tail >= beta).argmax(axis=1)
            stop = tail[np.arange(rows.size), t]
            fair = (sign != half) & (digits != low).all(axis=1)
            decided = fair & (stop > beta)
            positive = sign < half
            r = (digits < low) @ weights
            again = decided & ~positive & (r == 0) & (t == 0)
            keep = decided & ~again
            done.append((rows[keep], positive[keep], r[keep], t[keep]))
            # no tie among the chunks it holds, but the round ran past them:
            # no chunk is at or above a positive beta, or at a beta of 0
            # (where every chunk is) the stop is past them
            short = fair & (stop < beta if beta else t > held - step)
            again, short = np.flatnonzero(again), np.flatnonzero(short)
            if not (again.size or short.size):
                break
            # a (-, 0) row skips the (-, 0) rounds that follow in its window
            shift = np.full(again.size, step)
            rounds = size // step
            if rounds > 1 and again.size:
                following = window[again, step:rounds * step].reshape(
                    again.size, rounds - 1, step)
                shift += (following > redraw).all(axis=2).cumprod(
                    axis=1).sum(axis=1) * step
            go = np.concatenate((again, short))
            shift = np.concatenate((shift, np.zeros(short.size, np.int64)))
            ends = held[go]
            left = ends - shift
            # a short row, or one left with fewer chunks than the sign, the
            # digits and two T decisions, reads its stream's next block
            add = left < step + 1
            add[again.size:] = True
            rows, hashed = rows[go], hashed[go]
            held = left + 8 * add
            columns = shift[:, None] + np.arange(max(width, int(held.max())))
            window = window[go[:, None], np.minimum(columns, size - 1)]
            window[columns >= ends[:, None]] = 0
            extend = np.flatnonzero(add)
            if extend.size:
                window[extend[:, None], left[extend, None] + eight] = more(
                    rows[extend], hashed[extend])
                hashed += add
        rows, positive, r, t = (np.concatenate(x) for x in zip(*done))
        # above every decided G
        wide = (int(t.max(initial=0)) + 1) << j
        if wide <= 1 << 63:
            g = (t << j) + r
        else:
            g = (t.astype(object) << j) + r.astype(object)
        if self.limit < wide:
            inside = g < self.limit
            rows, positive, g = rows[inside], positive[inside], g[inside]
        return rows, np.where(positive, g, -g)


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


def _sampler(spec: MechanismSpec, base) -> Callable[[object], int]:
    """``draw(chunks)``: the noisy release of the noiseless release
    ``base``, as its exact value times :func:`_release`'s ``grid``, with the
    noise's bits read from the chunk stream ``chunks`` (:func:`_stream`).

    A draw is two parts, which an experiment also uses apart:
    :func:`_noise` draws ``z`` from the stream, and :func:`_release` adds
    it to ``base``.  So the per-trial draw and the bulk one of
    :meth:`_DiscreteNoise.decide` share the clamp, the wrap and the float
    add.  An integer release counts ones (``grid`` is 1) and a float
    release counts its format's finest spacing, so either compares with a
    threshold as an int.  Everything that does not depend on the stream is
    settled when the parts are built, once: the refusals, ``alpha`` and
    every Bernoulli threshold, the Laplace scale and the format's rails.
    Discrete noise is exact, so the releases are distributed as
    :func:`exact_dp_check` analyses them: clamped into the integer format,
    wrapped modulo its ``2^bits``, or rounded to a float pattern and added
    with one rounded add.
    """
    noise = _noise(spec, base)
    release = _release(spec, base)[0]
    return lambda chunks: release(noise(chunks))


def _noise(spec: MechanismSpec, base):
    """The noise of ``spec`` on the release ``base``: a
    :class:`_DiscreteNoise`, or :func:`_laplace_noise`'s draw; or the
    refusal of a noise that the release cannot take."""
    kind, integer = spec.noise, isinstance(base, KInt)
    if integer and kind == "laplace":
        raise UnsupportedCombination(
            "continuous noise on an integer release; use a discrete kind")
    if kind == "discrete_laplace_mod" and not integer:
        raise UnsupportedCombination("modular noise needs an integer format")
    if kind == "discrete_laplace_mod" and base.fmt.overflow != "wraparound":
        raise PreconditionFailed("modular noise addition needs a wraparound "
                                 "format")
    if kind == "laplace":
        return _laplace_noise(float(spec.scale))
    return _DiscreteNoise(spec.alpha, base.fmt.bits if integer else None,
                          kind == "discrete_laplace_mod")


def _release(spec: MechanismSpec, base) -> Tuple[Callable[[object], int],
                                                   int]:
    """``(release, grid)``: ``release(z)`` is ``base`` plus the noise ``z``
    as :func:`_sampler` releases it, times ``grid``."""
    fmt = base.fmt
    if not isinstance(base, KInt):
        kernel, bits = fmt._kernel, base.bits

        def release(z) -> int:
            zb = 0
            if z:
                m, d = z.as_integer_ratio()
                zb = _round_bits(kernel, m < 0, abs(m), 1 - d.bit_length(),
                                 "banker")
            return _bits_grid(kernel, add_bits(kernel, bits, zb, "banker"))
        return release, 1 << (fmt.k - fmt.emin)
    lo, hi, value = fmt.min_value, fmt.max_value, base.value
    if spec.noise == "discrete_laplace_mod":
        # (value + z) mod 2^bits, read into [lo, lo + 2^bits)
        mask, offset = fmt.modulus - 1, value - lo

        def release(z: int) -> int:
            return ((offset + z) & mask) + lo
    else:
        def release(z: int) -> int:
            return min(max(value + z, lo), hi)
    return release, 1


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
            "threshold": number_text(self.threshold),
            "epsilon_claimed": number_text(self.epsilon_claimed),
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
    of the PMF :func:`exact_dp_check` folds.

    Discrete trials are decided in bulk (:func:`_ones`): each slab of
    trials has its streams' first blocks hashed in one loop, and
    :meth:`_DiscreteNoise.decide` makes every trial's decisions on those
    chunks at once, hashing the next block of each stream whose draw
    reads past them with the slab's others.  A trial goes to the per-trial
    draw on its own stream only when a chunk equals its threshold (a tie,
    which needs the threshold's expansion past one chunk) or when ``G``
    reaches ``2^k`` (the clamp's rail, or the residue digits of modular
    noise); continuous ``laplace`` trials are all drawn one by one.  Every
    decision the arrays make compares the same chunk with the same
    threshold as the per-trial draw, so each trial's release, and the
    table, are the ones the per-trial loop gives.  The report's bound is
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
        noise = _noise(spec, base)
        release, grid = _release(spec, base)
        # a release of ``units / grid`` is above the threshold exactly when
        # the int ``units`` is above this floor
        cut = math.floor(threshold * grid)
        prefix = hashlib.sha256(f"{master_seed}:{role}:".encode())
        ones = _ones(noise, release, cut, prefix, trials)
        table.append((trials - ones, ones))
    counts = (table[0], table[1])
    bound = dp_violation_log2_bound(counts, spec.epsilon)
    verdict = ("epsilon-violation" if bound < VERDICT_CUTOFF_LOG2
               else "consistent-with-epsilon")
    return ExperimentReport(trials=trials, counts=counts, threshold=threshold,
                            epsilon_claimed=spec.epsilon,
                            log2_probability_bound=bound, verdict=verdict,
                            master_seed=master_seed)


# Trials are hashed and decided in slabs of at most this many chunks, so
# that an experiment's memory does not grow with its trial count
_SLAB_CHUNKS = 1 << 17


def _blocks(j: int) -> int:
    """The blocks of each stream that a slab hashes first: enough for the
    sign, the ``j`` digits and three of ``T``'s decisions.  A draw that
    reads past them has its later blocks hashed as it reaches them
    (:meth:`_DiscreteNoise.decide`)."""
    return (j + 11) // 8


def _hash_slab(prefix, start: int, stop: int, blocks: int):
    """The first ``blocks`` blocks of the streams ``b"%d" % i`` under
    ``prefix``, for ``start <= i < stop``, hashed in one loop as
    :func:`_stream` hashes them: a ``(stop - start, 8 * blocks)`` array of
    their chunks."""
    digests = []
    append = digests.append
    more = range(1, blocks)
    for i in range(start, stop):
        h = prefix.copy()
        h.update(b"%d" % i)
        append(h.digest())
        for block in more:
            h = prefix.copy()
            h.update(b"%d:%d" % (i, block))
            append(h.digest())
    return _chunk_rows(digests, 8 * blocks)


def _hash_blocks(prefix, streams, blocks):
    """Block ``blocks[n] >= 1`` of the stream ``b"%d" % streams[n]`` under
    ``prefix``, for each ``n``, hashed in one loop as :func:`_stream`
    hashes it: a ``(len(streams), 8)`` array of their chunks."""
    digests = []
    append = digests.append
    for i, block in zip(streams, blocks):
        h = prefix.copy()
        h.update(b"%d:%d" % (i, block))
        append(h.digest())
    return _chunk_rows(digests, 8)


def _chunk_rows(digests, width: int):
    """The digests' chunks, ``width`` to a row."""
    import numpy as np
    chunks = np.frombuffer(b"".join(digests), ">u4").astype(np.uint32)
    return chunks.reshape(-1, width)


def _slab_draws(noise: _DiscreteNoise, prefix, start: int, stop: int):
    """:meth:`_DiscreteNoise.decide` of the streams ``b"%d" % i`` under
    ``prefix``, for ``start <= i < stop``: ``(rows, z)``, row ``n`` being
    stream ``start + n``.  Their first :func:`_blocks` are hashed in one
    loop (:func:`_hash_slab`), and each later block that a round reads is
    hashed with the slab's other such blocks (:func:`_hash_blocks`)."""
    def more(rows, blocks):
        return _hash_blocks(prefix, (rows + start).tolist(), blocks.tolist())
    return noise.decide(_hash_slab(prefix, start, stop, _blocks(noise.j)),
                        more)


def _ones(noise, release, cut: int, prefix, trials: int) -> int:
    """How many of the streams ``b"%d" % i`` under ``prefix``, for ``i <
    trials``, give a release above ``cut``.

    Discrete draws are made in bulk, a slab of trials at a time
    (:func:`_slab_draws`), and each distinct ``z`` is released once.  The
    trials the arrays leave, those with a tie or a ``G`` of ``2^k`` or
    more, and every continuous draw are drawn one by one on their own
    streams: a tie needs the exact expansion of its threshold past one
    chunk, and a rail or a residue the decisions past ``2^k``, which the
    arrays do not make.  Past ``j = 63`` the digits of ``R`` leave int64,
    and every trial is drawn one by one.
    """
    def above(i: int) -> bool:
        return release(noise(_stream(prefix, b"%d" % i))) > cut

    if not isinstance(noise, _DiscreteNoise) or noise.j > 63:
        return sum(map(above, range(trials)))
    import numpy as np
    slab = _SLAB_CHUNKS // (8 * _blocks(noise.j))
    ones = 0
    for start in range(0, trials, slab):
        stop = min(start + slab, trials)
        rows, z = _slab_draws(noise, prefix, start, stop)
        values, counts = np.unique(z, return_counts=True)
        ones += sum(count for value, count in zip(values.tolist(),
                                                  counts.tolist())
                    if release(value) > cut)
        rest = np.ones(stop - start, dtype=bool)
        rest[rows] = False
        ones += sum(map(above, (start + np.flatnonzero(rest)).tolist()))
    return ones


# ---------------------------------------------------------------------------
# Likelihood bound for the 2x2 table
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4)
def _log_factorials(n: int):
    """``log j!`` for ``j`` in ``0..n``, read-only: a bound asks four
    times for the same table (two tails, each on two grids)."""
    import numpy as np
    table = np.fromiter(map(math.lgamma, range(1, n + 2)), dtype=float,
                        count=n + 1)
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

@dataclass(frozen=True)
class ExactDPReport:
    """Worst pointwise PMF ratio of a finite-support mechanism pair.

    The ratio is held once, exactly, as ``factors = (p, top, bottom)``:
    with the noise's ``alpha = p / 2^s``, it is the sum of ``top``'s terms
    ``(a, b)``, each ``2^a * p^b``, over the sum of ``bottom``'s, a coprime
    pair (:func:`_folded_terms`) whose sums are never built in binary.
    ``max_ratio_approx`` is that ratio rounded to the nearest double, or
    None past the largest double (:func:`_nearest_double`).  Only
    :meth:`to_json` writes the ratio out, in exact decimal
    (:func:`power_sum_text`), and it refuses a support past
    ``SUPPORT_LIMIT``.
    """

    witness: int
    epsilon: Fraction
    satisfied: bool
    support: int
    factors: Tuple[int, tuple, tuple]
    max_ratio_approx: Optional[float]

    def to_json(self) -> dict:
        if self.support > SUPPORT_LIMIT:
            raise PreconditionFailed(
                f"support {self.support} exceeds {SUPPORT_LIMIT}")
        return {"max_ratio": power_sum_text(*self.factors),
                "max_ratio_approx": self.max_ratio_approx,
                "witness": self.witness,
                "epsilon": number_text(self.epsilon),
                "satisfied": self.satisfied,
                "support": self.support}


def _widened(p: int, top, bottom, decide):
    """``decide(q, prec)`` for a raw interval ``q`` of ``mpmath.libmp``
    (a pair of ``mpf`` ends) that encloses the ratio of the sums of
    ``top``'s and ``bottom``'s terms ``(a, b)``, each ``2^a * p^b``: at 64
    bits of precision ``prec``, then at twice as many each time, until
    ``decide`` returns something other than None.  The enclosure at each
    precision is made once (:func:`_enclosure`), so the verdict and the
    approximation of one ratio share it."""
    prec = 64
    while True:
        got = decide(_enclosure(p, top, bottom, prec), prec)
        if got is not None:
            return got
        prec *= 2


@lru_cache(maxsize=8)
def _enclosure(p: int, top, bottom, prec: int):
    """An interval that encloses the ratio of the sums of ``top``'s and
    ``bottom``'s terms ``(a, b)``, each ``2^a * p^b``, computed at
    ``prec`` bits by ``mpmath.libmp``'s interval functions, the ones the
    ``mpmath.iv`` context calls, with no conversion between them.

    ``p`` is rounded outward to ``prec`` bits, and ``mpi_pow_int`` raises
    it to the ``b``-th power by squaring, each bound rounded outward at
    every step; the scaling by ``2^a`` is exact, and ``mpi_add`` and
    ``mpi_div`` round outward, so each sum is enclosed, and so is their
    ratio.  Its relative width is about ``b * 2^-prec``: ``p`` has at most
    80 bits, so from 128 bits on only the rounding of the squarings is
    left."""
    from mpmath.libmp.libmpi import mpi_add, mpi_div, mpi_pow_int, mpi_shift

    base = _outward(p, prec)

    def total(terms):
        first, *rest = (mpi_shift(mpi_pow_int(base, b, prec), a)
                        for a, b in terms)
        for x in rest:
            first = mpi_add(first, x, prec)
        return first

    return mpi_div(total(top), total(bottom), prec)


def _outward(n: int, prec: int) -> tuple:
    """The int ``n`` as an interval of ``prec``-bit ends, rounded outward,
    as ``mpmath.iv`` converts it."""
    from mpmath.libmp import from_int, round_ceiling, round_floor
    return from_int(n, prec, round_floor), from_int(n, prec, round_ceiling)


def certified_leq_exp(p: int, top, bottom, exponent: Fraction) -> bool:
    """Decide ``T/B <= e^exponent`` by certified interval arithmetic, for
    ``T`` and ``B`` the sums of the terms ``(a, b)`` of ``top`` and
    ``bottom``, each ``2^a * p^b``: an :class:`ExactDPReport`'s
    ``factors``.

    Neither sum is built.  Both are enclosed in intervals whose precision
    doubles from 64 bits until the ratio's enclosure parts from
    ``e^exponent``'s (:func:`_widened`); a rational other than 1 never
    equals ``e^x`` for rational ``x``, so this terminates.  A ratio of 1
    is given as ``top == bottom``, and is decided exactly.  The precision
    it reaches grows with the leading bits that ``exponent`` shares with
    ``ln(T/B)``: 4096 for ``ln(T/B)`` rounded down to a multiple of
    ``2^-2100``, an exponent of 635 digits.
    """
    # equal releases: 1 <= e^x exactly when x >= 0, however small x is
    if top == bottom:
        return exponent >= 0
    # with L the bit length of p, a term is at most 2^(a + bL) and at least
    # 2^(a + b(L - 1)), and n terms sum to at most 2^(n - 1) times the
    # largest, so T/B <= 2^high; e^x > 2^x for x > 0, so a huge exponent
    # needs no interval, whose ln 2 would need its bits
    length = p.bit_length()
    high = (max(a + b * length for a, b in top) + len(top) - 1
            - max(a + b * (length - 1) for a, b in bottom))
    if exponent >= max(high, 0):
        return True
    from mpmath.libmp import mpf_gt, mpf_lt, mpi_div, mpi_exp

    def decide(q, prec):
        e = mpi_exp(mpi_div(_outward(exponent.numerator, prec),
                            _outward(exponent.denominator, prec), prec),
                    prec)
        below = mpf_lt(q[1], e[0])
        if below or mpf_gt(q[0], e[1]):      # parted: below or above
            return below

    return _widened(p, top, bottom, decide)


def _nearest_double(p: int, top, bottom) -> Optional[float]:
    """``float(T/B)`` of the ratio ``T/B >= 1`` that
    :func:`certified_leq_exp` reads: rounded to the nearest double, ties
    to even, or None where ``float()`` of the exact Fraction raises
    OverflowError (the rounded value reaches ``2^1024``, where
    ``to_float`` gives infinity).

    Rounding to nearest is monotone: ``lo <= r <= hi`` gives ``round(lo)
    <= round(r) <= round(hi)``.  So once both ends of an enclosure round
    to one double, so does the ratio, and :func:`_widened` narrows the
    enclosure until they do; a tie between two doubles is dyadic, and its
    enclosure becomes exact.  Each end is rounded by mpmath's
    ``to_float(end, rnd="n")``, since ``float()`` of an interval's end
    rounds toward zero, one ulp low on some ratios.
    """
    from mpmath.libmp import to_float

    def decide(q, prec):
        lo, hi = (to_float(end, rnd="n") for end in q)
        return lo if lo == hi else None

    got = _widened(p, top, bottom, decide)
    return None if got == math.inf else got


def _folded_terms(s: int, m: int, d: int):
    """``(top, bottom)``: ``W(0) / W(d)`` in lowest terms as the terms of
    :class:`ExactDPReport`'s ``factors``, for the folded weight ``W(r) =
    alpha^r + alpha^(m-r)``, a power of two ``m >= 2``, ``0 <= d <= m/2``
    and ``alpha = P/2^s`` in lowest terms.

    With ``Q = 2^s`` and ``G(n) = Q^n + P^n``, ``Q^m W(r) = (PQ)^r
    G(m-2r)``, so the ratio is ``G(m) / ((PQ)^d G(m-2d))``, which
    multiplied out is ``(Q^m + P^m) / (Q^(m-d) P^d + Q^d P^(m-d))``.  That
    pair is coprime for ``d >= 1``.  For ``n >= 1``, ``G(n)`` is odd and
    prime to ``P``, so ``G(m)`` is prime to ``PQ`` and to ``G(0) = 2``.
    For ``n1, n2 >= 1`` and ``g = gcd(n1, n2)``, ``gcd(G(n1), G(n2))`` is 1
    unless ``n1/g`` and ``n2/g`` are both odd; at ``n1 = m``, a power of
    two, ``m/g`` is odd only at ``g = m``, which ``n2 = m - 2d < m`` never
    gives.  So the terms are in lowest terms as they stand, with no gcd of
    numbers of ``s * m`` bits.  At ``d = 0`` the ratio is 1.
    """
    if not d:
        return ((0, 0),), ((0, 0),)
    return ((s * m, 0), (0, m)), ((s * (m - d), d), (s * d, m - d))


def exact_dp_check(spec: MechanismSpec, u: Dataset, v: Dataset,
                   epsilon: Fraction) -> ExactDPReport:
    """Worst-case PMF ratio of ``M(u)`` against ``M(v)``, exactly.

    Only finite-support discrete mechanisms qualify: modular noise (the
    support is the residue ring) or clamped integer noise (the support is
    the type's range).  Every output weight is an exact rational built
    from the spec's rational ``alpha``.  The report holds their exact
    maximum ratio over the support as ``factors``, a coprime pair of sums
    of powers of 2 and of ``alpha``'s numerator, with the first (smallest)
    output that attains it as the witness.  ``satisfied`` settles ``ratio
    <= e^epsilon`` (:func:`certified_leq_exp`) and ``max_ratio_approx`` is
    the ratio's nearest double (:func:`_nearest_double`), both from
    interval enclosures of the two sums, so no binary ratio is built: the
    int64 overflow pair is checked in 0.6 to 0.9 ms (in process, a 2-vCPU
    x86-64 VM, Python 3.11).  The support's size limits only the report's
    exact text (:meth:`ExactDPReport.to_json`).

    Both are read off the releases ``su``, ``sv`` in closed form, and the
    ratio depends on them only through their distance:

    * clamped, support ``[lo, hi]``: a rail at distance ``d`` from a centre
      inside the range weighs ``alpha^d`` (``(1+alpha) - alpha = 1`` at
      ``d = 0``) and an inner output ``(1-alpha) alpha^|z-c|``, so at every
      output the ratio is ``alpha^(|z-su| - |z-sv|)``.  By the triangle
      inequality the exponent is at least ``-|su - sv|``, with equality
      exactly where ``su`` lies between ``z`` and ``sv``, so the worst
      ratio is ``alpha^-|su - sv|``, first reached at ``lo`` when ``su <=
      sv`` and at ``su`` otherwise;
    * modular, support ``[0, m)``: an output at folded distance ``a`` from
      ``su mod m`` weighs ``W(a) = alpha^a + alpha^(m-a) = 2 alpha^(m/2)
      cosh(lambda (m/2 - a))`` under ``u``, with ``lambda = -ln alpha >
      0``, and ``W(b)`` at its folded distance ``b`` from ``sv mod m``
      under ``v``.  With ``d`` the folded distance between the two
      residues, ``b <= min(a + d, m/2)`` and ``W`` decreases on ``[0,
      m/2]``, so the log ratio is at most ``h(m/2 - a) - h(max(m/2 - a - d,
      0))`` for ``h(x) = ln cosh(lambda x)``.  As ``h`` is increasing and
      strictly convex on ``x >= 0``, that bound strictly decreases in ``a``
      when ``d >= 1``; it is met at ``a = 0``, where ``b = d``.  So the
      worst ratio is ``W(0)/W(d)`` (:func:`_folded_terms`), reached only at
      ``su mod m``; at ``d = 0`` the two PMFs are one, and every ratio is
      1, first at output 0.
    """
    epsilon = Fraction(epsilon)
    if not isinstance(u.fmt, IntFormat) or u.fmt != v.fmt:
        raise PreconditionFailed("need two datasets over one integer format")
    if spec.noise == "laplace":
        raise UnsupportedCombination("continuous noise has no finite support")
    _refuse_exact(spec)
    fmt = u.fmt
    alpha = spec.alpha
    p, s = alpha.numerator, alpha.denominator.bit_length() - 1
    su = run_sum(u, spec.method).value.value
    sv = run_sum(v, spec.method).value.value
    modular = spec.noise == "discrete_laplace_mod"
    if modular and fmt.overflow != "wraparound":
        raise PreconditionFailed("modular noise needs a wraparound format")
    size = fmt.modulus
    if modular:
        d = min((su - sv) % size, (sv - su) % size)
        top, bottom = _folded_terms(s, size, d)
        witness = su % size if d else 0
    else:
        # alpha^-D = 2^(sD) / p^D
        distance = abs(su - sv)
        top, bottom = ((s * distance, 0),), ((0, distance),)
        witness = fmt.min_value if su <= sv else su
    return ExactDPReport(witness=witness, epsilon=epsilon,
                         satisfied=certified_leq_exp(p, top, bottom, epsilon),
                         support=size, factors=(p, top, bottom),
                         max_ratio_approx=_nearest_double(p, top, bottom))

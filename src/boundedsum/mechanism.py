"""Noise mechanisms and DP verification for bounded sums.

Three layers, in increasing order of rigor:

1. The sampler and :func:`run_mechanism` — draw Laplace-family noise and
   add it to a bounded-sum release the way a real library would (float
   add, clamp into the integer type, or modular reduction).  One sampler,
   built once per release, serves both a single run and every trial of an
   experiment.  Its draws have *statistical* quality only; nothing
   security-critical consumes them.

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
requested, never less), which the exact checker analyses.  The sampler
does not draw from exactly that distribution: it draws each geometric by
inverse CDF through doubles, so its PMF is the checker's only up to
double rounding, the flaw class of Mironov (CCS 2012).  An exact sampler
is ROADMAP item 4.
"""

from __future__ import annotations

import hashlib
import math
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Tuple, Union

from .data import Dataset, exact_value
from .floats import SimFloat, add_float, round_dyadic
from .dyadic import Dyadic
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
    """One mechanism run: ``BS*(dataset)`` plus one noise draw."""
    _refuse_exact(spec)
    base = run_sum(dataset, spec.method).value
    units = _sampler(spec, base)[0](seed)
    if isinstance(base, KInt):
        return KInt(base.fmt, units)
    return SimFloat.from_grid(base.fmt, units)


def _sampler(spec: MechanismSpec, base) -> Tuple[Callable[[int], int], int]:
    """``(draw, grid)``: ``draw(seed)`` is the noisy release of the
    noiseless release ``base``, as its exact value times ``grid``.

    An integer release counts ones (``grid`` is 1) and a float release
    counts its format's finest spacing, so either compares with a
    threshold as an int.  Everything that does not depend on the seed is
    settled here, once: the refusals, ``alpha`` and its log, the Laplace
    scale and the format's rails.  A draw reseeds one generator, which
    gives the state of a fresh ``random.Random(seed)``, then draws its
    noise and adds it: clamped or wrapped into an integer format, rounded
    and added in a float format.  Discrete noise is the difference of two
    geometric draws by inverse CDF through doubles, which nothing exact
    consumes.
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
    rng = random.Random()
    reseed, uniform, log1p = rng.seed, rng.random, math.log1p
    if noise == "laplace":
        scale = float(spec.scale)

        def draw_noise():
            while True:
                w = uniform() - 0.5
                if abs(w) < 0.5:
                    return -scale * math.copysign(log1p(-2.0 * abs(w)), w)
    else:
        alpha = spec.alpha
        # from scale 2^53 on, float(alpha) is 1.0, whose log is 0.0.  Below
        # that the log of the double stays: the log1p form can differ from
        # it in the last bit, which could move a recorded count
        ln_alpha = math.log(float(alpha)) or log1p(-float(1 - alpha))

        def draw_noise():
            return (int(log1p(-uniform()) / ln_alpha)
                    - int(log1p(-uniform()) / ln_alpha))
    if not integer:
        def draw(seed: int) -> int:
            reseed(seed)
            z = Dyadic.from_fraction(Fraction(draw_noise()))
            return add_float(base, round_dyadic(z, fmt, "banker"),
                             "banker").to_grid()
        return draw, 1 << (fmt.k - fmt.emin)
    lo, hi, value = fmt.min_value, fmt.max_value, base.value
    if noise == "discrete_laplace_mod":
        # (value + z) mod 2^bits, read into [lo, lo + 2^bits)
        mask, offset = fmt.modulus - 1, value - lo

        def draw(seed: int) -> int:
            reseed(seed)
            return ((offset + draw_noise()) & mask) + lo
    else:
        def draw(seed: int) -> int:
            reseed(seed)
            return min(max(value + draw_noise(), lo), hi)
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
    once, and one sampler is built per side: every refusal, ``alpha``, its
    log and the format's rails are settled before the first trial, so a
    refusal does not depend on ``trials``.  A trial is then its seed (the
    first 8 bytes, big-endian, of ``sha256(f"{master_seed}:{role}:{i}")``,
    hashed on from a copy of the hashed prefix), one reseed, two uniforms
    for discrete noise, the add with its clamp, wrap or rounding, and one
    int comparison against the threshold on the release's grid.  Trials
    are reproducible and order-independent.  The report's bound is
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
            h = prefix.copy()
            h.update(b"%d" % i)
            ones += draw(int.from_bytes(h.digest()[:8], "big")) > cut
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

def _exact_str(fr: Fraction) -> str:
    """``str()`` for fractions that can exceed the int-to-str digit guard.

    The exact PMF ratios carry numerators of tens of thousands of bits
    (``alpha`` lives on a ``2^-80`` grid and gets raised to the modulus),
    which trips CPython's conversion limit.  The report still owes the
    auditable exact value, so the limit is raised just for this call.
    """
    need = max(fr.numerator.bit_length(), fr.denominator.bit_length()) // 3 + 3
    if (hasattr(sys, "get_int_max_str_digits")
            and need > sys.get_int_max_str_digits()):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(need)
        try:
            return str(fr)
        finally:
            sys.set_int_max_str_digits(saved)
    return str(fr)


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


def _folded_pmf(alpha: Fraction, center: int, modulus: int):
    """PMF of ``(center + Z) mod modulus`` as exact Fractions by residue.

    Folding the two-sided geometric over the wrap gives, for the residue
    ``r = (z - center) mod modulus`` in ``[0, m)``::

        W(r) = c * (alpha^r + alpha^(m-r)) / (1 - alpha^m)

    with ``c = (1-alpha)/(1+alpha)`` (at ``r = 0`` that is ``1 + alpha^m``).
    The common positive factor ``c / (1 - alpha^m)`` cancels in every
    ratio, so it is omitted.
    """

    def weight(z: int) -> Fraction:
        r = (z - center) % modulus
        return alpha ** r + alpha ** (modulus - r)

    return weight


def _saturated_pmf(alpha: Fraction, center: int, lo: int, hi: int):
    """PMF of ``clamp(center + Z, lo, hi)`` — rails absorb the tails.

    With ``Pr[Z = z] = c*alpha^|z|`` and ``c = (1-alpha)/(1+alpha)``, the
    upper rail receives ``Pr[Z >= hi-center] = alpha^d/(1+alpha)`` for
    ``d >= 1`` (and ``1/(1+alpha) + c`` worth of mass when the center sits
    on the rail).  All weights below are the true PMF times ``(1+alpha)``,
    another common factor that cancels in ratios.
    """
    one = Fraction(1)

    def tail(d: int) -> Fraction:
        # (1+alpha) * Pr[Z >= d]
        if d <= 0:
            return (one + alpha) - alpha ** (1 - d)
        return alpha ** d

    def weight(z: int) -> Fraction:
        if z == hi:
            return tail(hi - center)
        if z == lo:
            return tail(center - lo)  # symmetry: Pr[Z <= -d] = Pr[Z >= d]
        return (one - alpha) * alpha ** abs(z - center)

    return weight


def exact_dp_check(spec: MechanismSpec, u: Dataset, v: Dataset,
                   epsilon: Fraction) -> ExactDPReport:
    """Worst-case PMF ratio of ``M(u)`` against ``M(v)``, exactly.

    Only finite-support discrete mechanisms qualify: modular noise (the
    support is the residue ring) or clamped integer noise (the support is
    the type's range).  Every output weight is an exact rational built
    from the spec's rational ``alpha``; the returned ratio is their exact
    maximum over the support, with the first (smallest) output that
    attains it as the witness, and ``satisfied`` settles
    ``max_ratio <= e^epsilon`` by certified interval comparison.

    The ratio is evaluated only at the ends of the pieces on which it is
    monotone in the output ``z``, in ascending order, keeping the first
    strict maximum.  On a monotone or constant piece the first maximum is
    one of its ends, so this gives the same maximum and witness as
    enumerating the whole support.  With centres ``su``, ``sv``:

    * clamped, support ``[lo, hi]``: inside the rails the ratio is
      ``alpha^(|z-su| - |z-sv|)``, whose exponent is constant below
      ``min(su, sv)``, linear between the centres and constant above, so
      the pieces are ``{lo}``, ``[lo+1, min]``, ``[min, max]``,
      ``[max, hi-1]`` and ``{hi}``;
    * modular, support ``[0, m)``: ``alpha^r + alpha^(m-r)`` is
      ``2 alpha^(m/2) cosh((r - m/2) ln alpha)`` for every residue ``r``,
      so between the wraps at ``su mod m`` and ``sv mod m`` the ratio is
      ``cosh(A)/cosh(B) = cosh(A-B) + sinh(A-B) tanh(B)`` with ``A - B``
      constant and ``B`` linear in ``z``; ``tanh`` is increasing, so each
      of ``[0, c-1]``, ``[c, c'-1]``, ``[c', m-1]`` (``c <= c'`` the
      centres' residues) is monotone.
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
        wu = _folded_pmf(alpha, cu, size)
        wv = _folded_pmf(alpha, cv, size)
        lo, hi = 0, size - 1
        breaks = (cu - 1, cu, cv - 1, cv)
    else:
        lo, hi = fmt.min_value, fmt.max_value
        wu = _saturated_pmf(alpha, su, lo, hi)
        wv = _saturated_pmf(alpha, sv, lo, hi)
        breaks = (lo + 1, su, sv, hi - 1)
    # The weights' numerators run to a million bits at 14 bits, where a gcd
    # costs far more than a product.  Candidates are compared by
    # cross-multiplying the weights' numerators and denominators, and only
    # the winning ratio is divided out, which reduces it.
    best: Optional[Tuple[Fraction, Fraction]] = None
    witness = 0
    for z in sorted({lo, hi, *(z for z in breaks if lo <= z <= hi)}):
        a, b = wu(z), wv(z)
        if best is None or (a.numerator * b.denominator
                            * best[0].denominator * best[1].numerator
                            > best[0].numerator * best[1].denominator
                            * a.denominator * b.numerator):
            best, witness = (a, b), z
    assert best is not None
    ratio = best[0] / best[1]
    return ExactDPReport(max_ratio=ratio, witness=witness, epsilon=epsilon,
                         satisfied=certified_leq_exp(ratio, epsilon),
                         support=size)

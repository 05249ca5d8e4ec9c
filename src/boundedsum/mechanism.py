"""Noise mechanisms and DP verification for bounded sums.

Three layers, in increasing order of rigor:

1. Samplers and :func:`run_mechanism` — draw Laplace-family noise and add
   it to a bounded-sum release the way a real library would (float add,
   clamp into the integer type, or modular reduction).  The continuous
   sampler is reference plumbing with *statistical* quality only; nothing
   security-critical consumes its draws.

2. :func:`distinguishing_experiment` and :func:`dp_violation_log2_bound`
   — the hypothesis-testing harness.  Run a mechanism many times on an
   adjacent pair, threshold the outputs, and compute how (im)probable the
   resulting 2x2 table would be if the mechanism actually satisfied
   epsilon-DP.  The bound maximizes the exact binomial tail likelihood
   over all outcome probabilities consistent with epsilon-DP, so it is a
   certificate against the *claim*, not against a particular alternative.

3. :func:`exact_dp_check` — for finite-support discrete mechanisms, fold
   the noise PMF in exact rational arithmetic and return the worst
   pointwise probability ratio.  No sampling is involved; the verdict
   compares an exact rational against ``e^epsilon`` through interval
   arithmetic that widens its precision until the two separate.

The discrete noise distribution is pinned down by a *rational* decay
parameter ``alpha`` chosen just above ``exp(-1/scale)`` (more noise than
requested, never less), so the sampled mechanism and the exact checker
analyse literally the same distribution.
"""

from __future__ import annotations

import hashlib
import math
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Tuple, Union

import mpmath
import numpy as np

from .data import Dataset, exact_value
from .floats import add_float, round_dyadic
from .dyadic import Dyadic
from .ints import IntFormat, KInt
from .sensitivity import (PreconditionFailed, UnsupportedCombination,
                          SensitivityBound)
from .summation import SumMethod, run_sum

__all__ = [
    "NOISE_KINDS", "MechanismSpec", "ExperimentReport", "ExactDPReport",
    "rational_alpha", "sample_discrete_laplace", "modular_noise_add",
    "calibrate", "run_mechanism", "midpoint_threshold",
    "distinguishing_experiment", "dp_violation_log2_bound",
    "exact_dp_check", "certified_leq_exp",
    "VERDICT_CUTOFF_LOG2", "SUPPORT_LIMIT",
]

NOISE_KINDS = ("laplace", "discrete_laplace", "discrete_laplace_mod")

# An experiment verdict flips to "violation" when the observed table would
# have probability below 1% under the claimed epsilon.
VERDICT_CUTOFF_LOG2 = math.log2(0.01)

# exact_dp_check enumerates every output; beyond this support size the
# rational arithmetic stops being a reasonable desk computation.
SUPPORT_LIMIT = 1 << 16

_ALPHA_GRID_BITS = 80


# ---------------------------------------------------------------------------
# The discrete-Laplace decay parameter
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _rational_alpha_cached(num: int, den: int) -> Fraction:
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
# Samplers
# ---------------------------------------------------------------------------

def _sample_dlap(alpha: Fraction, rng: random.Random) -> int:
    # difference of two geometric draws; inverse CDF through doubles,
    # which is fine here because nothing exact ever consumes samples
    ln_alpha = math.log(float(alpha))

    def geometric() -> int:
        return int(math.log1p(-rng.random()) / ln_alpha)

    return geometric() - geometric()


def sample_discrete_laplace(scale: Union[Fraction, int],
                            seed: Optional[int] = None,
                            rng: Optional[random.Random] = None) -> int:
    """One draw of ``Z`` with ``Pr[Z = z] ~ alpha^|z|``, deterministic per seed.

    ``Z = G1 - G2`` for two independent geometric variables, which gives
    the two-sided geometric exactly.  Statistical quality only — the
    inverse-CDF step goes through doubles.
    """
    if rng is None:
        rng = random.Random(seed)
    return _sample_dlap(rational_alpha(scale), rng)


def _sample_laplace_float(scale: float, rng: random.Random) -> float:
    while True:
        w = rng.random() - 0.5
        if abs(w) < 0.5:
            return -scale * math.copysign(math.log1p(-2.0 * abs(w)), w)


def modular_noise_add(value: KInt, noise: int) -> KInt:
    """``(value + noise) mod 2^k`` back into the wraparound format."""
    if value.fmt.overflow != "wraparound":
        raise PreconditionFailed("modular noise addition needs a wraparound "
                                 "format")
    return KInt(value.fmt, value.fmt.wrap(value.value + noise))


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
    modulus: Optional[int] = None
    epsilon: Optional[Fraction] = None
    calibration: Optional[SensitivityBound] = None

    def __post_init__(self):
        if self.noise not in NOISE_KINDS:
            raise PreconditionFailed(f"noise must be one of {NOISE_KINDS}")
        object.__setattr__(self, "scale", Fraction(self.scale))
        if self.scale <= 0:
            raise PreconditionFailed("scale must be positive")
        if self.modulus is not None and self.noise != "discrete_laplace_mod":
            raise PreconditionFailed("modulus only applies to "
                                     "discrete_laplace_mod")
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
        if self.modulus is not None:
            out["modulus"] = self.modulus
        if self.epsilon is not None:
            out["epsilon"] = str(self.epsilon)
        if self.calibration is not None:
            out["calibration"] = self.calibration.to_json()
        return out


def _noise_modulus(spec: MechanismSpec, fmt: IntFormat) -> int:
    """Modulus of the modular noise: ``spec.modulus`` must be the format's."""
    if spec.modulus not in (None, fmt.modulus):
        raise UnsupportedCombination(
            "modulus must match the dataset format's modulus")
    return fmt.modulus


def calibrate(noise: str, bound: SensitivityBound, epsilon: Fraction,
              method: Optional[SumMethod] = None,
              modulus: Optional[int] = None) -> MechanismSpec:
    """Spec with ``scale = bound / epsilon`` — the textbook calibration."""
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise PreconditionFailed("epsilon must be positive")
    return MechanismSpec(method=method if method is not None else SumMethod(),
                         noise=noise, scale=Fraction(bound.value) / epsilon,
                         modulus=modulus, epsilon=epsilon, calibration=bound)


def run_mechanism(spec: MechanismSpec, dataset: Dataset, seed: int,
                  noise_override: Optional[int] = None):
    """One mechanism run: ``BS*(dataset)`` plus one noise draw.

    ``noise_override`` injects a fixed integer draw (zero gives the raw
    sum), bypassing the sampler; it exists so tests can separate the
    summation pathway from the noise pathway.
    """
    if spec.method.algorithm == "exact":
        raise UnsupportedCombination(
            "mechanisms release values of the element type; the exact "
            "pseudo-algorithm is an analysis oracle, not a release path")
    base = run_sum(dataset, spec.method).value
    rng = random.Random(seed)
    if isinstance(base, KInt):
        if spec.noise == "laplace":
            raise UnsupportedCombination(
                "continuous noise on an integer release; use a discrete kind")
        z = noise_override if noise_override is not None \
            else _sample_dlap(spec.alpha, rng)
        if spec.noise == "discrete_laplace_mod":
            _noise_modulus(spec, base.fmt)
            return modular_noise_add(base, z)
        return KInt(base.fmt, base.fmt.clamp(base.value + z))
    # float release
    fmt = dataset.fmt
    if spec.noise == "discrete_laplace_mod":
        raise UnsupportedCombination("modular noise needs an integer format")
    if spec.noise == "laplace":
        z = noise_override if noise_override is not None \
            else _sample_laplace_float(float(spec.scale), rng)
        z_fr = Fraction(z)
    else:
        z_fr = Fraction(noise_override if noise_override is not None
                        else _sample_dlap(spec.alpha, rng))
    if z_fr == 0:
        return base
    noise_f = round_dyadic(Dyadic.from_fraction(z_fr), fmt, "banker")
    return add_float(base, noise_f, "banker")


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


def _trial_seed(master_seed: int, role: str, index: int) -> int:
    digest = hashlib.sha256(f"{master_seed}:{role}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def midpoint_threshold(spec: MechanismSpec, u: Dataset, v: Dataset) -> Fraction:
    """Halfway between the two noiseless releases — the default test."""
    su = exact_value(run_sum(u, spec.method).value)
    sv = exact_value(run_sum(v, spec.method).value)
    return Fraction(su + sv, 2)


def distinguishing_experiment(instance, spec: MechanismSpec, trials: int,
                              master_seed: int,
                              threshold: Optional[Fraction] = None
                              ) -> ExperimentReport:
    """Threshold ``trials`` runs of the mechanism on ``u`` and on ``v``.

    ``instance`` is an attack instance (anything with ``u``/``v`` dataset
    attributes).  Per-trial seeds derive from ``master_seed`` through a
    hash counter, so trials are reproducible and order-independent.  The
    report's bound is :func:`dp_violation_log2_bound` of the table under
    ``spec.epsilon``, and the verdict flips to ``"epsilon-violation"``
    below ``VERDICT_CUTOFF_LOG2``.
    """
    if trials < 0:
        raise PreconditionFailed("trials must be nonnegative")
    if spec.epsilon is None:
        raise PreconditionFailed("the spec must carry the claimed epsilon")
    if threshold is None:
        threshold = midpoint_threshold(spec, instance.u, instance.v)
    else:
        threshold = Fraction(threshold)
    table = []
    for role, ds in (("u", instance.u), ("v", instance.v)):
        ones = 0
        for i in range(trials):
            released = run_mechanism(spec, ds, _trial_seed(master_seed,
                                                           role, i))
            if exact_value(released) > threshold:
                ones += 1
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

def _log_upper_tail(k: int, n: int, p: np.ndarray) -> np.ndarray:
    """``log P[Binomial(n, p) >= k]`` held in log space the whole way.

    Library survival functions compute the probability first and then
    take its log, which bottoms out at ``-inf`` around ``1e-308`` — far
    too early for tables whose honest log-probability is minus tens of
    thousands.  The terms ``logC(n,i) + i log p + (n-i) log(1-p)`` are
    summed by a log-sum-exp shifted by each row's largest term, which
    keeps every magnitude representable.
    """
    p = np.asarray(p, dtype=float)
    if k <= 0:
        return np.zeros_like(p)
    if k > n:
        return np.full_like(p, -np.inf)
    i = np.arange(k, n + 1)
    log_fact = np.array([math.lgamma(j + 1) for j in range(n + 1)])
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
    eps = float(epsilon)
    e_pos, e_neg = math.exp(eps), math.exp(-eps)
    log2e = 1.0 / math.log(2.0)

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
        return {"max_ratio": _exact_str(self.max_ratio),
                "max_ratio_approx": float(self.max_ratio),
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
    ``r = (z - center) mod modulus``::

        W(r) = c * (alpha^r + alpha^(m-r)) / (1 - alpha^m),   r > 0
        W(0) = c * (1 + alpha^m) / (1 - alpha^m)

    with ``c = (1-alpha)/(1+alpha)``.  The common positive factor
    ``c / (1 - alpha^m)`` cancels in every ratio, so it is omitted.
    """
    powers = [Fraction(1)]
    for _ in range(modulus):
        powers.append(powers[-1] * alpha)

    def weight(z: int) -> Fraction:
        r = (z - center) % modulus
        if r == 0:
            return 1 + powers[modulus]
        return powers[r] + powers[modulus - r]

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
    maximum, and ``satisfied`` settles ``max_ratio <= e^epsilon`` by
    certified interval comparison.
    """
    epsilon = Fraction(epsilon)
    if not isinstance(u.fmt, IntFormat) or u.fmt != v.fmt:
        raise PreconditionFailed("need two datasets over one integer format")
    if spec.noise == "laplace":
        raise UnsupportedCombination("continuous noise has no finite support")
    if spec.method.algorithm == "exact":
        raise UnsupportedCombination(
            "mechanisms release values of the element type; the exact "
            "pseudo-algorithm is an analysis oracle, not a release path")
    fmt = u.fmt
    alpha = spec.alpha
    su = run_sum(u, spec.method).value.value
    sv = run_sum(v, spec.method).value.value
    if spec.noise == "discrete_laplace_mod":
        if fmt.overflow != "wraparound":
            raise PreconditionFailed("modular noise needs a wraparound format")
        modulus = _noise_modulus(spec, fmt)
        if modulus > SUPPORT_LIMIT:
            raise PreconditionFailed(f"support {modulus} exceeds "
                                     f"{SUPPORT_LIMIT}")
        wu = _folded_pmf(alpha, su % modulus, modulus)
        wv = _folded_pmf(alpha, sv % modulus, modulus)
        support = range(modulus)
        size = modulus
    else:
        size = fmt.modulus
        if size > SUPPORT_LIMIT:
            raise PreconditionFailed(f"support {size} exceeds {SUPPORT_LIMIT}")
        wu = _saturated_pmf(alpha, su, fmt.min_value, fmt.max_value)
        wv = _saturated_pmf(alpha, sv, fmt.min_value, fmt.max_value)
        support = range(fmt.min_value, fmt.max_value + 1)
    best: Optional[Fraction] = None
    witness = 0
    for z in support:
        ratio = wu(z) / wv(z)
        if best is None or ratio > best:
            best, witness = ratio, z
    assert best is not None
    return ExactDPReport(max_ratio=best, witness=witness, epsilon=epsilon,
                         satisfied=certified_leq_exp(best, epsilon),
                         support=size)

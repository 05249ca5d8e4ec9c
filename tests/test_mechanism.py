"""Mechanism layer: the log-space binomial tail, the violation bound, the
modulus of modular noise, the sampler against a slow exact reference on the
same stream and against the exact PMFs by exhaustive enumeration, and the
exact checker's closed forms against full enumeration."""

import functools
import hashlib
import itertools
import json
import math
import random
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import mpmath
import numpy as np
from hypothesis import example, given, settings
from hypothesis.strategies import (booleans, composite, integers, lists,
                                   one_of, sampled_from, tuples)
from pytest import mark, raises

from boundedsum import (VERDICT_CUTOFF_LOG2, MechanismSpec, SumMethod,
                        calibrate, distinguishing_experiment,
                        dp_violation_log2_bound, exact_dp_check, exact_value,
                        overflow_attack, run_mechanism, run_sum)
from boundedsum.cli import main
from boundedsum.data import Dataset, load_dataset
from boundedsum.dyadic import Dyadic
from boundedsum.floats import (_DECIMAL_BITS, FloatFormat, _decimal_digits,
                              _int_str, add_float, number_text, parse_number,
                              power_sum_text, round_dyadic)
from boundedsum.ints import IntFormat, KInt
from boundedsum.sensitivity import (PreconditionFailed, SensSpec,
                                    idealized_sensitivity,
                                    modular_sensitivity_bound)
from boundedsum import mechanism
from boundedsum.mechanism import (_folded_terms, _log_factorials,
                                  _log_upper_tail, certified_leq_exp,
                                  rational_alpha)
from reference import leq_exp, negated, power_ratio, power_sum

TAIL_PS = (1e-3, 0.1, 1 / 3, 0.5, 2 / 3, 0.9, 0.999)


def exact_log_tail(k, n, p):
    """``log P[Binomial(n, p) >= k]`` from the exact rational tail."""
    q = Fraction(p)                      # the double the code sees, exactly
    tail = sum(math.comb(n, i) * q ** i * (1 - q) ** (n - i)
               for i in range(k, n + 1))
    rest = 1 - tail
    with mpmath.workdps(60):
        if rest < Fraction(1, 2):        # a tail near 1: log1p keeps digits
            return float(mpmath.log1p(-mpmath.mpf(rest.numerator)
                                      / rest.denominator))
        return float(mpmath.log(mpmath.mpf(tail.numerator) / tail.denominator))


@mark.parametrize("n", [1, 2, 3, 7, 16, 25, 40])
def test_log_upper_tail_matches_exact_binomial(n):
    for k in range(1, n + 1):
        got = _log_upper_tail(k, n, np.array(TAIL_PS))
        for p, g in zip(TAIL_PS, got):
            want = exact_log_tail(k, n, p)
            # The terms are summed in log space, so the error is absolute,
            # about 2e-14 at n = 40.  It is within 1e-12 relative wherever
            # |log P| > 0.025; nearer 0 (a tail close to 1) the absolute
            # bound is the one that holds.
            assert math.isclose(g, want, rel_tol=1e-12, abs_tol=1e-13), \
                (k, n, p, g, want)


def test_log_upper_tail_edges():
    p = np.array([0.0, 0.25, 1.0])
    assert list(_log_upper_tail(0, 5, p)) == [0.0, 0.0, 0.0]
    assert list(_log_upper_tail(6, 5, p)) == [-np.inf] * 3
    got = _log_upper_tail(2, 5, p)
    assert got[0] == -np.inf and got[2] == 0.0
    # far below the smallest double: still finite in log space
    deep = _log_upper_tail(5000, 5000, np.array([1e-3]))[0]
    assert math.isclose(deep, 5000 * math.log(1e-3), rel_tol=1e-12)


# (counts, epsilon) -> log2 bound recorded with the scipy-based tail
RECORDED_BOUNDS = [
    (((0, 5000), (5000, 0)), 1, -4519.411321264543),
    (((0, 5), (5, 0)), 2, -1.8311846730051187),
    (((10, 90), (60, 40)), 1, -10.09149000307361),
]


@mark.parametrize("counts,epsilon,recorded", RECORDED_BOUNDS)
def test_violation_bound_matches_recorded_values(counts, epsilon, recorded):
    got = dp_violation_log2_bound(counts, epsilon)
    assert math.isclose(got, recorded, rel_tol=1e-12)


def test_violation_bound_verdicts_of_the_benchmark_tables():
    # 5000 trials fully separated at epsilon 1: a certain violation
    assert dp_violation_log2_bound(((0, 5000), (5000, 0)), 1) \
        < VERDICT_CUTOFF_LOG2
    # 5 trials fully separated at epsilon 2: consistent with the claim
    assert dp_violation_log2_bound(((0, 5), (5, 0)), 2) > VERDICT_CUTOFF_LOG2
    assert dp_violation_log2_bound(((5, 0), (0, 5)), 2) > VERDICT_CUTOFF_LOG2


def test_violation_bound_past_the_double_range_is_zero():
    # e^eps is past the largest double from eps = 709.78 on, and 1e400
    # is past it before the exponential
    counts = ((3, 0), (0, 3))
    at_700 = dp_violation_log2_bound(counts, 700)
    for epsilon in (710, Fraction(10) ** 400):
        assert dp_violation_log2_bound(counts, epsilon) == 0.0 >= at_700


# ---------------------------------------------------------------------------
# The exact PMFs: the reference the checker is enumerated against
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# A slow reference sampler: the same stream, one exact Bernoulli at a time
# ---------------------------------------------------------------------------

HALF = Fraction(1, 2)


def reference_chunks(name: bytes):
    """The 32-bit chunks of the stream ``name``: block 0 is
    ``sha256(name)``, block ``c`` is ``sha256(name + b":c")``, and each
    digest is read as one big-endian number, eight chunks from the top."""
    for block in itertools.count():
        digest = hashlib.sha256(name + b":%d" % block if block else name)
        word = int.from_bytes(digest.digest(), "big")
        for shift in range(224, -32, -32):
            yield word >> shift & 0xFFFFFFFF


@functools.lru_cache(maxsize=None)
def reference_floor(alpha, i, odds, bits):
    """``floor(x * 2^bits)`` for ``x = a`` or ``a / (1 + a)``, ``a =
    alpha^(2^i)``: on exact Fractions while ``a`` has at most 2^14 bits,
    and past that by squaring ``alpha`` on mpmath's outward-rounded
    intervals, at a precision that doubles until the floor is decided."""
    s = alpha.denominator.bit_length() - 1
    if s << i <= 1 << 14:
        a = alpha ** (1 << i)
        return math.floor((a / (1 + a) if odds else a) * (1 << bits))
    iv, saved = mpmath.iv, mpmath.iv.prec
    try:
        iv.prec = 2 * bits + 2 * i + 80
        while True:
            a = iv.mpf(alpha.numerator) / iv.mpf(alpha.denominator)
            for _ in range(i):
                a = a * a
            x = (a / (1 + a) if odds else a) * iv.mpf(2) ** bits
            low, high = int(mpmath.floor(x.a)), int(mpmath.floor(x.b))
            if low == high:
                return low
            iv.prec *= 2
    finally:
        iv.prec = saved


def reference_bernoulli(chunks, alpha, i, odds):
    """``U < x`` for the uniform ``U`` whose binary digits are the next
    chunks, ``x`` as in :func:`reference_floor`: the chunks are read until
    they part from ``x``'s expansion, or it ends (a power of ``alpha``
    has ``s * 2^i`` bits) and ``U >= x``."""
    u = bits = 0
    end = None if odds else (alpha.denominator.bit_length() - 1) << i
    while True:
        u = u << 32 | next(chunks)
        bits += 32
        t = reference_floor(alpha, i, odds, bits)
        if u != t:
            return u < t
        if end is not None and bits >= end:
            return False


def reference_noise(alpha, chunks, k=None, modular=False):
    """One discrete Laplace draw as the sampler makes it, decision by
    decision: a fair sign, the ``j`` digits of ``R``, the loop of ``T``
    (stopped at ``2^k``), the residue digits past the stop for modular
    noise, and a fresh draw on ``(-, 0)``."""
    j = 0
    while not (alpha ** (1 << j) <= HALF if j < 8
               else reference_floor(alpha, j, False, 1) == 0):
        j += 1
    limit = math.inf if k is None else 1 << k
    while True:
        positive = reference_bernoulli(chunks, HALF, 0, False)
        g = sum(1 << i for i in range(j)
                if reference_bernoulli(chunks, alpha, i, True))
        while g < limit and reference_bernoulli(chunks, alpha, j, False):
            g += 1 << j
        if g >= limit and modular:
            g = g % limit + sum(1 << i for i in range(j, k)
                                if reference_bernoulli(chunks, alpha, i,
                                                       True))
        elif not (g or positive):
            continue
        return g if positive else -g


def reference_laplace(scale, chunks):
    """Continuous Laplace noise by inverse CDF on the stream's next 53
    bits, through doubles."""
    while True:
        w = (next(chunks) << 21 | next(chunks) >> 11) * 2.0 ** -53 - 0.5
        if abs(w) < 0.5:
            return -scale * math.copysign(math.log1p(-2.0 * abs(w)), w)


def oracle_release(spec, base, name):
    """One noisy release from the stream ``name``, rebuilding every
    constant per draw: clamp or wrap an integer release, round the noise
    into a float release and add it with the checked adder."""
    chunks = reference_chunks(name)
    if isinstance(base, KInt):
        fmt, modular = base.fmt, spec.noise == "discrete_laplace_mod"
        z = reference_noise(spec.alpha, chunks, fmt.bits, modular)
        return KInt(fmt, fmt.wrap(base.value + z) if modular
                    else fmt.clamp(base.value + z))
    if spec.noise == "laplace":
        z = Fraction(reference_laplace(float(spec.scale), chunks))
    else:
        z = Fraction(reference_noise(spec.alpha, chunks))
    if z == 0:
        return base
    noise = round_dyadic(Dyadic.from_fraction(z), base.fmt, "banker")
    return add_float(base, noise, "banker")


def oracle_releases(instance, spec, trials, master_seed):
    """The exact values of the experiment's releases, by side, one oracle
    release per trial stream ``f"{master_seed}:{role}:{i}"``."""
    return [[exact_value(oracle_release(
        spec, run_sum(dataset, spec.method).value,
        f"{master_seed}:{role}:{i}".encode())) for i in range(trials)]
        for role, dataset in (("u", instance.u), ("v", instance.v))]


def oracle_counts(releases, threshold):
    """The experiment's table of the releases, each compared with the
    threshold as a Fraction."""
    table = []
    for side in releases:
        ones = sum(value > threshold for value in side)
        table.append((len(side) - ones, ones))
    return tuple(table)


# ---------------------------------------------------------------------------
# Modular noise on the format's own ring
# ---------------------------------------------------------------------------

def overflow_pair():
    inst = overflow_attack(IntFormat(8, False, "wraparound"), upper=1)
    return inst.u, inst.v


def test_matching_modulus_is_the_default():
    # sampler and checker both reduce modulo the format's 2^8
    u, v = overflow_pair()
    spec = MechanismSpec(noise="discrete_laplace_mod", scale=40)
    su = run_sum(u, spec.method).value.value
    sv = run_sum(v, spec.method).value.value
    wrapped = 0
    for seed in range(40):
        z = reference_noise(spec.alpha, reference_chunks(b"%d" % seed), 8,
                            True)
        assert run_mechanism(spec, u, seed).value == (su + z) % 256
        wrapped += not 0 <= su + z < 256
    assert wrapped  # some draws leave [0, 256), so the reduction shows
    got = exact_dp_check(spec, u, v, 1)
    wu, wv = _folded_pmf(spec.alpha, su, 256), _folded_pmf(spec.alpha, sv, 256)
    best = max(wu(z) / wv(z) for z in range(256))
    assert power_ratio(*got.factors) == best
    assert wu(got.witness) / wv(got.witness) == best


# ---------------------------------------------------------------------------
# The sampler against the reference, trial by trial
# ---------------------------------------------------------------------------

def one_element(fmt, value):
    lo, hi = KInt(fmt, fmt.min_value), KInt(fmt, fmt.max_value)
    return Dataset(fmt, lo, hi, [(KInt(fmt, value), 1)])


def int_pair(fmt, su, sv):
    return SimpleNamespace(u=one_element(fmt, su), v=one_element(fmt, sv))


def float_pair(fmt, su, sv):
    top = round_dyadic(fmt.max_finite, fmt, "banker")
    return SimpleNamespace(**{
        side: Dataset(fmt, negated(top), top, [(round_dyadic(
            Dyadic.from_fraction(Fraction(x)), fmt, "banker"), 1)])
        for side, x in (("u", su), ("v", sv))})


SEVEN_THIRDS = Fraction(7, 3)

# (pair, noise, scale, thresholds): None is the midpoint of the two sums.
# Every pair has its centres at or near the rails, so draws clamp, wrap or
# round to infinity, and each list holds integers, halves, 7/3 and values
# outside the format's range (a float infinity reads as 2^(emax+1), which
# is 16 at (4, 3)).
ORACLE_CASES = {
    "u8-clamped": (int_pair(IntFormat(8, False, "wraparound"), 255, 0),
                   "discrete_laplace", Fraction(40),
                   [None, 0, 255, 128, 255 - HALF, HALF, SEVEN_THIRDS, -1,
                    256, 1000]),
    "u8-modular": (int_pair(IntFormat(8, False, "wraparound"), 255, 0),
                   "discrete_laplace_mod", Fraction(40),
                   [None, 0, 254, HALF, -HALF, SEVEN_THIRDS, -SEVEN_THIRDS,
                    256]),
    "s6-modular": (int_pair(IntFormat(6, True, "wraparound"), 31, -32),
                   "discrete_laplace_mod", Fraction(5, 2),
                   [None, 0, -1, 31, -32, HALF, -HALF, SEVEN_THIRDS, -33,
                    32]),
    "s6-saturating": (int_pair(IntFormat(6, True, "saturating"), 30, -3),
                      "discrete_laplace", Fraction(7),
                      [None, 30, 31, -32, 30 + HALF, -HALF, SEVEN_THIRDS,
                       -40, 31 + HALF]),
    "f4_3-laplace": (float_pair(FloatFormat(4, 3), 12, -Fraction(3, 4)),
                     "laplace", Fraction(3),
                     [None, 0, 12, HALF, -HALF, SEVEN_THIRDS, 16, -16, 100,
                      -100]),
    "f4_3-discrete": (float_pair(FloatFormat(4, 3), 12, -Fraction(3, 4)),
                      "discrete_laplace", Fraction(5, 2),
                      [None, 0, 12, HALF, -HALF, SEVEN_THIRDS, 16, -16,
                       100]),
    "f10_5-laplace": (float_pair(FloatFormat(10, 5), Fraction(21, 64),
                                 -Fraction(1, 1024)),
                      "laplace", Fraction(1, 3),
                      [None, 0, HALF, -HALF, SEVEN_THIRDS, 1 << 16,
                       -(1 << 17)]),
}


@mark.parametrize("name", sorted(ORACLE_CASES))
@settings(max_examples=15, deadline=None)
@given(master_seed=integers(0, (1 << 64) - 1))
def test_experiment_counts_match_the_per_trial_oracle(name, master_seed):
    pair, noise, scale, thresholds = ORACLE_CASES[name]
    spec = MechanismSpec(noise=noise, scale=scale, epsilon=1)
    releases = oracle_releases(pair, spec, 12, master_seed)
    for threshold in thresholds:
        got = distinguishing_experiment(pair, spec, 12, master_seed,
                                        threshold=threshold)
        if threshold is None:
            threshold = got.threshold
        assert got.counts == oracle_counts(releases, threshold), \
            (name, threshold)


@mark.parametrize("name", sorted(ORACLE_CASES))
def test_run_mechanism_is_one_oracle_draw(name):
    # on the float cases the oracle adds the noise with add_float of its
    # round_dyadic, the checked reference of the sampler's pattern add
    pair, noise, scale, _ = ORACLE_CASES[name]
    spec = MechanismSpec(noise=noise, scale=scale)
    base = run_sum(pair.u, spec.method).value
    for seed in range(60):
        got = run_mechanism(spec, pair.u, seed)
        assert type(got) is type(base) and got.fmt == base.fmt
        assert got == oracle_release(spec, base, b"%d" % seed), (name, seed)


def test_scales_past_2_to_the_53_draw_on_certified_thresholds():
    # float(alpha) rounds to 1.0 and alpha^(2^j) has 80 * 2^j bits, so the
    # thresholds of j = 54 and 62 digits come from enclosures; the
    # reference decides them on mpmath intervals instead
    pair = int_pair(IntFormat(64, False, "wraparound"), (1 << 64) - 1, 0)
    for scale in (Fraction(1 << 54), Fraction(1 << 62)):
        spec = MechanismSpec(noise="discrete_laplace", scale=scale,
                             epsilon=1)
        assert math.log(float(spec.alpha)) == 0.0
        got = distinguishing_experiment(pair, spec, 50, 9)
        assert got.counts == oracle_counts(
            oracle_releases(pair, spec, 50, 9), got.threshold)
    # at 2^62 the noise is as wide as the type, so the draws do move
    assert 0 < got.counts[0][1] < 50


class CountingChunks:
    """An iterator over ``chunks`` that counts what it hands out."""

    def __init__(self, chunks):
        self.chunks, self.read = chunks, 0

    def __iter__(self):
        return self

    def __next__(self):
        self.read += 1
        return next(self.chunks)


def test_a_draw_reads_on_into_the_next_block():
    # one digest holds eight chunks; at scale 1/3 a draw that redraws
    # (-, 0) four times reads past them, and at 2^62 every draw does
    cases = [(IntFormat(8, False, "saturating"), Fraction(1, 3), 128),
             (IntFormat(64, False, "wraparound"), Fraction(1 << 62), 0)]
    for fmt, scale, value in cases:
        spec = MechanismSpec(scale=scale)
        dataset = one_element(fmt, value)
        crossed = 0
        for seed in range(120):
            chunks = CountingChunks(reference_chunks(b"%d" % seed))
            z = reference_noise(spec.alpha, chunks, fmt.bits)
            if chunks.read > 8:
                crossed += 1
                assert run_mechanism(spec, dataset, seed).value \
                    == fmt.clamp(value + z), (scale, seed)
        assert crossed, scale


# ---------------------------------------------------------------------------
# Bulk decisions against the per-trial draw, trial by trial
# ---------------------------------------------------------------------------

def per_trial_releases(spec, base, prefix, trials):
    """Each trial's release from the per-trial draw on its own stream."""
    draw = mechanism._sampler(spec, base)
    return [draw(mechanism._stream(prefix, b"%d" % i)) for i in range(trials)]


def bulk_releases(noise, release, prefix, trials):
    """``{trial: release}`` of the trials that the bulk draw decides, from
    one slab of their hashed blocks and each later block a round reads."""
    rows, z = mechanism._slab_draws(noise, prefix, 0, trials)
    return {row: release(value)
            for row, value in zip(rows.tolist(), z.tolist())}


def one_by_one(noise, prefix, trials):
    """The trials whose per-trial draw a bulk draw must leave to it: those
    where a decision ties (:func:`mechanism._tie` is called), and those
    whose ``G`` reaches ``2^k``, where the same stream's draw with no
    ``k``, which makes the same decisions up to that point, has ``|z| >=
    2^k``."""
    free = mechanism._DiscreteNoise(noise.beta_x[0], None, False)
    left = set()
    with mock.patch.object(mechanism, "_tie", wraps=mechanism._tie) as tie:
        for i in range(trials):
            ties = tie.call_count
            noise(mechanism._stream(prefix, b"%d" % i))
            if tie.call_count > ties or abs(free(mechanism._stream(
                    prefix, b"%d" % i))) >= noise.limit:
                left.add(i)
    return left


def assert_bulk_is_per_trial(spec, base, trials, master_seed, slab_rows):
    """Every release the bulk draw decides is the per-trial draw's, it
    leaves to the per-trial draw only ties and a ``G`` of ``2^k`` or more,
    and the experiment's count of releases above a cut, in slabs of
    ``slab_rows`` trials, is the per-trial count at every cut the releases
    give."""
    noise = mechanism._noise(spec, base)
    release = mechanism._release(spec, base)[0]
    prefix = hashlib.sha256(b"%d:u:" % master_seed)
    want = per_trial_releases(spec, base, prefix, trials)
    got = bulk_releases(noise, release, prefix, trials)
    assert all(want[row] == units for row, units in got.items())
    if isinstance(noise, mechanism._DiscreteNoise):
        assert set(range(trials)) - set(got) \
            == one_by_one(noise, prefix, trials)
    slab = 8 * mechanism._blocks(noise.j) * slab_rows
    with mock.patch.object(mechanism, "_SLAB_CHUNKS", slab):
        for cut in {min(want, default=0) - 1, *want}:
            assert mechanism._ones(noise, release, cut, prefix, trials) \
                == sum(units > cut for units in want), cut


@composite
def int_releases(draw):
    """A spec and an integer release: 2 to 64 bits, signed or not,
    wrapped or saturated, clamped or modular noise, at a scale from 1/3 to
    2^62 (a power of two times 2/3, 1 or 4/3), centred anywhere, most often
    on a rail."""
    fmt = IntFormat(draw(integers(2, 64)), draw(booleans()),
                    draw(sampled_from(["wraparound", "saturating"])))
    noise = draw(sampled_from(
        ["discrete_laplace", "discrete_laplace_mod"]
        if fmt.overflow == "wraparound" else ["discrete_laplace"]))
    e = draw(integers(-1, 61))
    scale = (Fraction(2) ** e) * Fraction(draw(integers(2, 4)), 3)
    value = draw(one_of(
        sampled_from([fmt.min_value, fmt.max_value]),
        integers(fmt.min_value, fmt.max_value)))
    return MechanismSpec(noise=noise, scale=scale), KInt(fmt, value)


U8 = IntFormat(8, False, "wraparound")
S64 = IntFormat(64, True, "saturating")


@settings(max_examples=60, deadline=None)
@given(case=int_releases(), trials=integers(0, 40),
       slab_rows=integers(1, 16), master_seed=integers(0, 1 << 64))
@example(case=(MechanismSpec(scale=4), KInt(U8, 255)), trials=0,
         slab_rows=1, master_seed=1)
@example(case=(MechanismSpec(scale=4), KInt(U8, 0)), trials=1,
         slab_rows=1, master_seed=1)
@example(case=(MechanismSpec(noise="discrete_laplace_mod",
                             scale=Fraction(1 << 62)), KInt(U8, 255)),
         trials=20, slab_rows=7, master_seed=3)
@example(case=(MechanismSpec(scale=Fraction(1 << 62)),
               KInt(S64, S64.max_value)),
         trials=20, slab_rows=7, master_seed=3)
@example(case=(MechanismSpec(scale=Fraction(1, 3)),
               KInt(IntFormat(2, True, "saturating"), -2)),
         trials=30, slab_rows=4, master_seed=5)
# modular noise whose G passes 2^k before T's loop stops: the per-trial
# draw stops at 2^k and reads G's residue off fresh digits
@example(case=(MechanismSpec(noise="discrete_laplace_mod",
                             scale=Fraction(4, 3)),
               KInt(IntFormat(2, False, "wraparound"), 0)),
         trials=40, slab_rows=16, master_seed=2)
def test_bulk_draws_are_the_per_trial_draws(case, trials, slab_rows,
                                            master_seed):
    assert_bulk_is_per_trial(*case, trials, master_seed, slab_rows)


U16 = IntFormat(16, False, "wraparound")

# (spec, base, trials, master seed, slab rows, least share of stragglers):
# int16 releases whose draws read past the first hashed blocks (stragglers)
# on at least that share of trials, in more than one slab: at scale 16 (j =
# 4), 4 (j = 2) and 1 (j = 0, where (-, 0) rounds repeat), and at scale
# 5000 (j = 12), whose slabs hash two blocks a stream first
STRAGGLER_CASES = {
    "j4": (MechanismSpec(scale=16), KInt(U16, U16.max_value), 400, 1, 37,
           0.05),
    "j2": (MechanismSpec(scale=4), KInt(U16, 0), 400, 2, 29, 0.05),
    "j0": (MechanismSpec(scale=1), KInt(U16, U16.max_value), 400, 3, 23,
           0.02),
    "j12": (MechanismSpec(noise="discrete_laplace_mod", scale=5000),
            KInt(U16, 7), 300, 4, 31, 0.05),
}


def stragglers(noise, prefix, trials):
    """The trials whose next blocks the bulk draw hashes as it reads on,
    with each one's count of blocks so hashed."""
    read = Counter()
    blocks = mechanism._hash_blocks

    def counted(prefix, streams, numbers):
        read.update(streams)
        return blocks(prefix, streams, numbers)

    with mock.patch.object(mechanism, "_hash_blocks", counted):
        mechanism._slab_draws(noise, prefix, 0, trials)
    return read


def draw_rounds(noise, prefix, i):
    """The rounds of trial ``i``'s per-trial draw: its sign decisions."""
    rounds = 0
    bernoulli = mechanism._bernoulli

    def counted(chunks, t, x):
        nonlocal rounds
        rounds += x is mechanism._FAIR
        return bernoulli(chunks, t, x)

    with mock.patch.object(mechanism, "_bernoulli", counted):
        noise(mechanism._stream(prefix, b"%d" % i))
    return rounds


@mark.parametrize("name", sorted(STRAGGLER_CASES))
def test_bulk_draws_past_the_first_blocks_are_the_per_trial_draws(name):
    spec, base, trials, master_seed, slab_rows, share = \
        STRAGGLER_CASES[name]
    noise = mechanism._noise(spec, base)
    prefix = hashlib.sha256(b"%d:u:" % master_seed)
    read = stragglers(noise, prefix, trials)
    assert len(read) >= share * trials
    assert len({i // slab_rows for i in read}) > 1
    first = 8 * mechanism._blocks(noise.j)
    assert first == (16 if name == "j12" else 8)
    if name == "j0":
        # a draw that redraws (-, 0) until it crosses into its next block
        assert any(draw_rounds(noise, prefix, i) > first // 2 for i in read)
    assert_bulk_is_per_trial(spec, base, trials, master_seed, slab_rows)


def test_only_ties_reach_the_per_trial_draw_at_scale_16():
    # the int16 overflow pair of the benchmark's experiment, 5,000 trials a
    # side: every trial that reads past its first block is decided in the
    # arrays, so the per-trial draw sees only the trials that tie (none at
    # this seed)
    instance = Path(__file__).with_name("golden") / "instances" / "ov16"
    pair = SimpleNamespace(u=load_dataset(instance / "u.json"),
                           v=load_dataset(instance / "v.json"))
    spec = MechanismSpec(scale=16, epsilon=1)
    draw = mechanism._DiscreteNoise.__call__
    with mock.patch.object(mechanism._DiscreteNoise, "__call__",
                           autospec=True, side_effect=draw) as call:
        got = distinguishing_experiment(pair, spec, 5000, 11)
    assert got.counts == ((0, 5000), (5000, 0))
    ties = 0
    for role in ("u", "v"):
        base = run_sum(getattr(pair, role), spec.method).value
        noise = mechanism._noise(spec, base)
        prefix = hashlib.sha256(b"11:%s:" % role.encode())
        assert len(stragglers(noise, prefix, 5000)) > 0.05 * 5000
        ties += len(one_by_one(noise, prefix, 5000))
    assert call.call_count == ties == 0


@settings(max_examples=15, deadline=None)
@given(trials=integers(0, 40), slab_rows=integers(1, 16),
       master_seed=integers(0, 1 << 64))
def test_bulk_float_draws_are_the_per_trial_draws(trials, slab_rows,
                                                  master_seed):
    # the rr2 pair's discrete release at scale 1/2, as its golden runs it
    spec = MechanismSpec(scale=Fraction(1, 2))
    instance = Path(__file__).with_name("golden") / "instances" / "rr2"
    for side in ("u", "v"):
        base = run_sum(load_dataset(instance / f"{side}.json"),
                       spec.method).value
        assert_bulk_is_per_trial(spec, base, trials, master_seed, slab_rows)


def test_bulk_counts_cross_the_slab_boundary():
    # one trial past a full slab of one-block streams, at the slab size
    # the experiments use; and past 2^63, where the digits of R leave
    # int64 and every trial is drawn on its own
    base = KInt(U8, 255)
    slab = mechanism._SLAB_CHUNKS // 8
    for spec, trials in ((MechanismSpec(scale=4), slab + 1),
                         (MechanismSpec(scale=Fraction(1 << 66)), 5)):
        noise = mechanism._noise(spec, base)
        release = mechanism._release(spec, base)[0]
        prefix = hashlib.sha256(b"9:v:")
        want = per_trial_releases(spec, base, prefix, trials)
        for cut in (0, 128, 254):
            assert mechanism._ones(noise, release, cut, prefix, trials) \
                == sum(units > cut for units in want)


@mark.parametrize("decision", ["sign", "digit", "stop", "redraw"])
def test_a_tie_goes_to_the_per_trial_draw(decision):
    # one threshold set to the chunk that a trial decided in the arrays
    # compares with it: the fair sign's, the first digit's of R or the one
    # of the chunk that stops T; or, at j = 0, the sign of the round that
    # follows a (-, 0) round in the first block, which the arrays skip to.
    # That trial ties, so the arrays leave it to the per-trial draw, which
    # reads on past the tie.
    spec, base = MechanismSpec(scale=1 if decision == "redraw" else 16), \
        KInt(S64, 0)
    noise = mechanism._noise(spec, base)
    release = mechanism._release(spec, base)[0]
    prefix = hashlib.sha256(b"5:u:")
    chunks = mechanism._hash_slab(prefix, 0, 60, 1)
    j = noise.j
    if decision == "redraw":
        # the first round stays (-, 0) under the new fair threshold, and the
        # second would be (-, 0) but for its tied sign
        tied = next(row for row in range(60)
                    if chunks[row, 0] > chunks[row, 2]
                    and min(chunks[row, 1], chunks[row, 3]) > noise.beta)
        noise.half = int(chunks[tied, 2])
    else:
        # a positive sign: the trial's draw ends in its first round
        tied = next(row for row in mechanism._slab_draws(
            noise, prefix, 0, 60)[0].tolist()
                    if chunks[row, 0] < noise.half)
    if decision == "sign":
        noise.half = int(chunks[tied, 0])
    elif decision == "digit":
        noise.low[0] = (int(chunks[tied, 1]), *noise.low[0][1:])
    elif decision == "stop":
        stop = next(c for c in range(j + 1, 8)
                    if chunks[tied, c] >= noise.beta)
        noise.beta = int(chunks[tied, stop])
    got = bulk_releases(noise, release, prefix, 60)
    assert tied not in got and len(got) > 30
    want = [release(noise(mechanism._stream(prefix, b"%d" % i)))
            for i in range(60)]
    assert all(want[row] == units for row, units in got.items())
    assert mechanism._ones(noise, release, 0, prefix, 60) \
        == sum(units > 0 for units in want)


# ---------------------------------------------------------------------------
# The sampler's exact distribution, every chunk value enumerated
# ---------------------------------------------------------------------------

class _PathEnds(Exception):
    """The draw asks for a choice past the end of its path."""

    def __init__(self, key):
        super().__init__(key)
        self.key = key


class PathSource:
    """A chunk source that replays one path of choices: chunk values for
    ``next``, Bernoulli outcomes for ``choose``."""

    def __init__(self, path):
        self.path, self.used = path, 0

    def __iter__(self):
        return self

    def __next__(self):
        return self.choose(None)

    def choose(self, key):
        if self.used == len(self.path):
            raise _PathEnds(key)
        self.used += 1
        return self.path[self.used - 1]


def push_forward(run, options, depth):
    """``({result: mass}, residual)``: ``run(source)`` over every path of
    choices, each extended by ``options(key) = (branches, lost)`` where it
    ends, with ``lost`` and every path cut at ``depth`` choices counted as
    residual mass."""
    masses, residual = Counter(), Fraction(0)
    stack = [((), Fraction(1))]
    while stack:
        path, mass = stack.pop()
        source = PathSource(path)
        try:
            result = run(source)
        except _PathEnds as end:
            if len(path) == depth:
                residual += mass
                continue
            branches, lost = options(end.key)
            residual += mass * lost
            stack.extend((path + (choice, ), mass * weight)
                         for choice, weight in branches)
            continue
        assert source.used == len(path)
        masses[result] += mass
    return masses, residual


def exhaustive_pmf(monkeypatch, spec, base, width):
    """The release's PMF under the sampler, with ``width``-bit chunks.

    Each Bernoulli decision of the sampler is pushed forward on its own,
    reading every value of every chunk, its ties refined until a path has
    mass 2^-40; the draw is then pushed forward over the decisions'
    outcomes with those masses (and over every value of a chunk it reads
    itself), up to 80 choices.  A decision's only effect on the rest of
    the draw is its outcome (the chunks it reads are fresh), so this is
    the draw's pushforward, without one path per combination of chunk
    values, which ties in independent decisions multiply past what a test
    can walk to a residual of 2^-30.
    """
    monkeypatch.setattr(mechanism, "_W", width)
    bernoulli = mechanism._bernoulli
    values = [(c, Fraction(1, 1 << width)) for c in range(1 << width)]

    @functools.lru_cache(maxsize=None)
    def decision(t, x):
        masses, lost = push_forward(
            lambda chunks: bernoulli(chunks, t, x), lambda _: (values, 0),
            -(-40 // width))
        return list(masses.items()), lost

    monkeypatch.setattr(mechanism, "_bernoulli",
                        lambda chunks, t, x: chunks.choose((t, x)))
    draw = mechanism._sampler(spec, base)
    return push_forward(
        draw, lambda key: (values, 0) if key is None else decision(*key), 80)


def exact_pmf(spec, fmt, center):
    """The release's PMF from the tests' weights, normalised."""
    outputs = range(fmt.min_value, fmt.max_value + 1)
    if spec.noise == "discrete_laplace_mod":
        weight = _folded_pmf(spec.alpha, center, fmt.modulus)
    else:
        weight = _saturated_pmf(spec.alpha, center, fmt.min_value,
                                fmt.max_value)
    total = sum(map(weight, outputs))
    return {z: weight(z) / total for z in outputs}


EXHAUSTIVE_FORMATS = [IntFormat(2, False, "wraparound"),
                      IntFormat(3, True, "wraparound"),
                      IntFormat(4, False, "wraparound")]


@mark.parametrize("width", [2, 3])
@mark.parametrize("noise", ["discrete_laplace", "discrete_laplace_mod"])
@mark.parametrize("scale", [Fraction(1, 3), Fraction(1), Fraction(5, 2),
                            Fraction(40)])
def test_sampler_pushes_forward_to_the_exact_pmf(scale, noise, width,
                                                 monkeypatch):
    for fmt in EXHAUSTIVE_FORMATS:
        spec = MechanismSpec(noise=noise, scale=scale)
        for center in (fmt.min_value, fmt.max_value - 1):
            masses, residual = exhaustive_pmf(
                monkeypatch, spec, KInt(fmt, center), width)
            monkeypatch.undo()
            assert residual < Fraction(1, 1 << 30), (fmt, center)
            want = exact_pmf(spec, fmt, center)
            assert set(masses) <= set(want)
            for z, p in want.items():
                assert masses[z] <= p <= masses[z] + residual, \
                    (fmt, center, z)


@mark.parametrize("trials", [0, 3])
@mark.parametrize("tag,noise,message", [
    ("sat8", "discrete_laplace_mod", "needs a wraparound format"),
    ("ov8", "laplace", "continuous noise on an integer release"),
])
def test_experiment_refusal_does_not_depend_on_the_trials(
        tag, noise, message, trials, capsys):
    instance = Path(__file__).with_name("golden") / "instances" / tag
    assert main(["experiment", "run", "--instance", str(instance),
                 "--trials", str(trials), "--seed", "1", "--epsilon", "1",
                 "--noise", noise, "--scale", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_log_factorials_are_built_once_and_read_only():
    table = _log_factorials(40)
    assert _log_factorials(40) is table
    assert list(table) == [math.lgamma(j + 1) for j in range(41)]
    with raises(ValueError):
        table[3] = 0.0


def test_cli_dpcheck_exits_2_on_a_mismatched_modulus(tmp_path, capsys):
    # the modulus is the format's 2^bits; there is no option to set another
    pair = tmp_path / "ov8"
    assert main(["attack", "gen", "--theorem", "overflow", "--bits", "8",
                 "--upper", "1", "--out", str(pair)]) == 0
    argv = ["dpcheck", "exact", "--u", str(pair / "u.json"),
            "--v", str(pair / "v.json"), "--epsilon", "1",
            "--noise", "discrete_laplace_mod", "--calibrate", "modular"]
    capsys.readouterr()
    with raises(SystemExit) as refused:
        main(argv + ["--m", "16"])
    assert refused.value.code == 2
    assert "--m" in capsys.readouterr().err
    assert main(argv) == 0


def test_cli_manifest_records_the_calibration_flags(tmp_path, capsys):
    # --metric and --n choose the bound the noise is calibrated to, so the
    # manifest must record them
    pair = tmp_path / "ov8"
    assert main(["attack", "gen", "--theorem", "overflow", "--bits", "8",
                 "--upper", "1", "--out", str(pair)]) == 0
    for argv in (["experiment", "run", "--instance", str(pair), "--trials",
                  "10", "--seed", "1"],
                 ["dpcheck", "exact", "--u", str(pair / "u.json"), "--v",
                  str(pair / "v.json")]):
        capsys.readouterr()
        assert main(argv + ["--epsilon", "1", "--calibrate", "idealized",
                            "--metric", "co", "--n", "3"]) in (0, 3)
        report = json.loads(capsys.readouterr().out)
        assert report["calibration_rule"] == "idealized-co"
        parameters = report["manifest"]["parameters"]
        assert (parameters["metric"], parameters["n"]) == ("co", 3), argv


# ---------------------------------------------------------------------------
# The exact checker's closed forms against full enumeration
# ---------------------------------------------------------------------------

def enumerated_max_ratio(spec, fmt, su, sv):
    """Worst ratio and its first witness, from every output of the support:
    the reference the closed forms of ``exact_dp_check`` must agree with.
    """
    alpha = spec.alpha
    if spec.noise == "discrete_laplace_mod":
        m = fmt.modulus
        wu = _folded_pmf(alpha, su % m, m)
        wv = _folded_pmf(alpha, sv % m, m)
        support = range(m)
    else:
        wu = _saturated_pmf(alpha, su, fmt.min_value, fmt.max_value)
        wv = _saturated_pmf(alpha, sv, fmt.min_value, fmt.max_value)
        support = range(fmt.min_value, fmt.max_value + 1)
    best, witness = None, 0
    for z in support:
        ratio = wu(z) / wv(z)
        if best is None or ratio > best:
            best, witness = ratio, z
    return best, witness


def assert_factored_text(got, case):
    """The report's factors write its ratio as ``number_text`` does, and so
    does the report."""
    want = number_text(power_ratio(*got.factors))
    assert power_sum_text(*got.factors) == want, case
    assert got.to_json()["max_ratio"] == want, case


def assert_matches_enumeration(fmt, noise, scale, su, sv, epsilon):
    spec = MechanismSpec(noise=noise, scale=scale)
    got = exact_dp_check(spec, one_element(fmt, su), one_element(fmt, sv),
                         epsilon)
    best, witness = enumerated_max_ratio(spec, fmt, su, sv)
    case = (fmt, noise, scale, su, sv)
    assert (power_ratio(*got.factors), got.witness) == (best, witness), case
    assert got.satisfied == leq_exp(best, epsilon), case
    assert_factored_text(got, case)
    return best


def noises(fmt):
    if fmt.overflow == "wraparound":
        return ("discrete_laplace", "discrete_laplace_mod")
    return ("discrete_laplace",)


# alpha near 0 at the first scale and near 1 at the last
CHECK_SCALES = (Fraction(1, 1000), Fraction(1, 3), Fraction(1), Fraction(5, 2),
                Fraction(40), Fraction(10 ** 6))


@mark.parametrize("bits", [2, 3])
def test_breakpoints_match_enumeration_on_every_pair(bits):
    for signed in (False, True):
        for overflow in ("wraparound", "saturating"):
            fmt = IntFormat(bits, signed, overflow)
            values = range(fmt.min_value, fmt.max_value + 1)
            for noise in noises(fmt):
                for scale in CHECK_SCALES:
                    # the enumerated worst ratio depends on the pair only
                    # through its distance
                    by_distance = {}
                    for su in values:
                        for sv in values:
                            best = assert_matches_enumeration(
                                fmt, noise, scale, su, sv, 1)
                            distance = (
                                min((su - sv) % fmt.modulus,
                                    (sv - su) % fmt.modulus)
                                if noise == "discrete_laplace_mod"
                                else abs(su - sv))
                            assert by_distance.setdefault(
                                distance, best) == best, (
                                    fmt, noise, scale, su, sv)


@mark.parametrize("bits", [2, 3])
def test_the_worst_ratio_is_reached_where_the_proofs_say(bits):
    # clamped: exactly the outputs z with su between z and sv; modular:
    # su mod m alone at a nonzero distance, every output at distance 0
    for signed in (False, True):
        for overflow in ("wraparound", "saturating"):
            fmt = IntFormat(bits, signed, overflow)
            values = range(fmt.min_value, fmt.max_value + 1)
            for noise in noises(fmt):
                for scale in CHECK_SCALES:
                    alpha = MechanismSpec(noise=noise, scale=scale).alpha
                    for su in values:
                        for sv in values:
                            if noise == "discrete_laplace_mod":
                                m = fmt.modulus
                                wu = _folded_pmf(alpha, su % m, m)
                                wv = _folded_pmf(alpha, sv % m, m)
                                support = range(m)
                                want = (set(support) if su % m == sv % m
                                        else {su % m})
                            else:
                                lo, hi = fmt.min_value, fmt.max_value
                                wu = _saturated_pmf(alpha, su, lo, hi)
                                wv = _saturated_pmf(alpha, sv, lo, hi)
                                support = values
                                want = {z for z in support
                                        if min(z, sv) <= su <= max(z, sv)}
                            ratios = {z: wu(z) / wv(z) for z in support}
                            best = max(ratios.values())
                            assert {z for z in support
                                    if ratios[z] == best} == want, (
                                        fmt, noise, scale, su, sv)


def test_equal_releases_have_ratio_one_first_at_the_supports_start():
    # past enumeration's reach: equal sums give one PMF, so every ratio is 1
    for signed in (False, True):
        for overflow in ("wraparound", "saturating"):
            fmt = IntFormat(16, signed, overflow)
            for noise in noises(fmt):
                first = 0 if noise == "discrete_laplace_mod" else fmt.min_value
                for s in (fmt.min_value, -1 if signed else 1, fmt.max_value):
                    for scale in (Fraction(1, 1000), Fraction(10 ** 6)):
                        got = exact_dp_check(
                            MechanismSpec(noise=noise, scale=scale),
                            one_element(fmt, s), one_element(fmt, s), 1)
                        assert (power_ratio(*got.factors), got.witness,
                                got.satisfied, got.support) == (1, first, True,
                                                 fmt.modulus), (
                                    fmt, noise, s, scale)


def test_breakpoints_match_enumeration_at_8_bits():
    rng = random.Random(8)
    for signed in (False, True):
        for overflow in ("wraparound", "saturating"):
            fmt = IntFormat(8, signed, overflow)
            for noise in noises(fmt):
                su = rng.randint(fmt.min_value, fmt.max_value)
                sv = rng.randint(fmt.min_value, fmt.max_value)
                assert_matches_enumeration(fmt, noise, rng.choice(
                    CHECK_SCALES), su, sv, Fraction(rng.randint(1, 30), 10))


def cross_multiplied_max_ratio(spec, fmt, su, sv):
    """Worst ratio and its first witness among the ends of the pieces on
    which the ratio is monotone in the output, at sizes where enumerating
    the support is too slow: the reference PMFs' weights at those ends,
    compared by cross-multiplying, the winner divided out."""
    alpha = spec.alpha
    if spec.noise == "discrete_laplace_mod":
        m = fmt.modulus
        cu, cv = su % m, sv % m
        wu, wv = _folded_pmf(alpha, cu, m), _folded_pmf(alpha, cv, m)
        lo, hi = 0, m - 1
        breaks = (cu - 1, cu, cv - 1, cv)
    else:
        lo, hi = fmt.min_value, fmt.max_value
        wu = _saturated_pmf(alpha, su, lo, hi)
        wv = _saturated_pmf(alpha, sv, lo, hi)
        breaks = (lo + 1, su, sv, hi - 1)
    best, witness = None, 0
    for z in sorted({lo, hi, *(z for z in breaks if lo <= z <= hi)}):
        a, b = wu(z), wv(z)
        if best is None or (a.numerator * b.denominator
                            * best[0].denominator * best[1].numerator
                            > best[0].numerator * best[1].denominator
                            * a.denominator * b.numerator):
            best, witness = (a, b), z
    return best[0] / best[1], witness


@mark.parametrize("bits", [10, 12])
def test_breakpoints_match_the_cross_multiplied_loop(bits):
    rng = random.Random(bits)
    fmt = IntFormat(bits, False, "wraparound")
    # the overflow pair's centres on the two rails, whose modular ends
    # W(0)/W(1) and W(1)/W(2) differ by a factor of about 1 + alpha^m; one
    # centre twice, where every ratio is 1; and a random pair
    pairs = ((fmt.max_value, 0), (fmt.max_value, fmt.max_value),
             (rng.randint(0, fmt.max_value), rng.randint(0, fmt.max_value)))
    for noise in ("discrete_laplace", "discrete_laplace_mod"):
        for su, sv in pairs:
            spec = MechanismSpec(noise=noise, scale=rng.choice(CHECK_SCALES))
            got = exact_dp_check(spec, one_element(fmt, su),
                                 one_element(fmt, sv), 1)
            case = (noise, su, sv, spec.scale)
            assert (power_ratio(*got.factors),
                    got.witness) == cross_multiplied_max_ratio(
                        spec, fmt, su, sv), case
            assert_factored_text(got, case)


def test_factored_text_is_number_text_on_random_pairs():
    rng = random.Random(812)
    for bits in range(8, 13):
        for _ in range(3):
            fmt = IntFormat(bits, rng.choice((False, True)),
                            rng.choice(("wraparound", "saturating")))
            su = rng.randint(fmt.min_value, fmt.max_value)
            sv = rng.randint(fmt.min_value, fmt.max_value)
            for noise in noises(fmt):
                spec = MechanismSpec(noise=noise,
                                     scale=rng.choice(CHECK_SCALES))
                got = exact_dp_check(spec, one_element(fmt, su),
                                     one_element(fmt, sv), 1)
                assert_factored_text(got, (fmt, noise, spec.scale, su, sv))


def test_factored_text_of_ratio_one_and_of_p_one():
    fmt = IntFormat(8, True, "wraparound")
    for noise in noises(fmt):
        # equal releases: d = 0 (modular) and D = 0 (clamped) write "1"
        got = exact_dp_check(MechanismSpec(noise=noise, scale=Fraction(5, 2)),
                             one_element(fmt, 3), one_element(fmt, 3), 1)
        assert power_sum_text(*got.factors) == "1" == got.to_json()[
            "max_ratio"], noise
    # from 1/scale = 64 on, alpha = 2^-79: P = 1, and the clamped ratio
    # 2^(79 D) has denominator 1, which is not written
    spec = MechanismSpec(scale=Fraction(1, 1000))
    assert spec.alpha == Fraction(1, 1 << 79)
    got = exact_dp_check(spec, one_element(fmt, fmt.max_value),
                         one_element(fmt, fmt.min_value), 1)
    want = unlimited_str(1 << 79 * 255)
    assert power_ratio(*got.factors) == 1 << 79 * 255
    assert power_sum_text(*got.factors) == want == got.to_json()["max_ratio"]


def nearest_double(factors):
    """``float()`` of the exact ratio, None past the largest double."""
    try:
        return float(power_ratio(*factors))
    except OverflowError:
        return None


def test_the_approximation_is_the_ratios_nearest_double():
    def check(fmt, noise, scale, su, sv):
        got = exact_dp_check(MechanismSpec(noise=noise, scale=scale),
                             one_element(fmt, su), one_element(fmt, sv), 1)
        assert got.max_ratio_approx == nearest_double(got.factors), (
            fmt, noise, scale, su, sv)
        assert got.to_json()["max_ratio_approx"] == got.max_ratio_approx
        return got.max_ratio_approx

    for bits in (2, 3):
        for signed in (False, True):
            for overflow in ("wraparound", "saturating"):
                fmt = IntFormat(bits, signed, overflow)
                values = range(fmt.min_value, fmt.max_value + 1)
                for noise in noises(fmt):
                    for scale in CHECK_SCALES:
                        for su in values:
                            for sv in values:
                                check(fmt, noise, scale, su, sv)
    rng = random.Random(1024)
    for bits in range(8, 13):
        for _ in range(4):
            fmt = IntFormat(bits, rng.choice((False, True)),
                            rng.choice(("wraparound", "saturating")))
            for noise in noises(fmt):
                check(fmt, noise, rng.choice(CHECK_SCALES),
                      rng.randint(fmt.min_value, fmt.max_value),
                      rng.randint(fmt.min_value, fmt.max_value))
    # the clamped distance at which alpha^-D first passes the largest
    # double, and the one below it
    fmt = IntFormat(12, False, "saturating")
    alpha = rational_alpha(1)
    p, s = alpha.numerator, alpha.denominator.bit_length() - 1
    first = next(d for d in itertools.count(1)
                 if nearest_double((p, ((s * d, 0),), ((0, d),))) is None)
    assert check(fmt, "discrete_laplace", 1, 0, first - 1) > 1e307
    assert check(fmt, "discrete_laplace", 1, 0, first) is None
    # P = 1: alpha = 2^-79 and the clamped ratio 2^(79 D) is a double up
    # to D = 12
    fmt = IntFormat(8, False, "saturating")
    for d in range(14):
        want = float(1 << 79 * d) if d <= 12 else None
        assert check(fmt, "discrete_laplace", Fraction(1, 1000), 0,
                     d) == want, d


# alpha = P/2^s for s = 1..12, then three alphas of the 2^-80 grid
FOLD_ALPHAS = ([Fraction(random.Random(s).randrange(1, 1 << s, 2), 1 << s)
                for s in range(1, 13)]
               + [rational_alpha(x) for x in (Fraction(1, 4), 4, 40)])


@mark.parametrize("alpha", FOLD_ALPHAS, ids=str)
def test_folded_ratio_is_the_reduced_quotient_of_the_weights(alpha):
    for m in (2, 4, 8, 16, 32, 64, 128, 256):
        w = _folded_pmf(alpha, 0, m)
        weights = [w(r) for r in range(m)]
        # a residue weighs as its folded distance, so the distances below
        # cover every residue
        assert all(weights[r] == weights[m - r] for r in range(1, m))
        for d in range(m // 2 + 1):
            top, bottom = _folded_terms(alpha.denominator.bit_length() - 1,
                                        m, d)
            want = weights[0] / weights[d]
            # want is in lowest terms, so equal sums make the terms coprime
            assert (power_sum(alpha.numerator, top),
                    power_sum(alpha.numerator, bottom)) == (
                want.numerator, want.denominator), (m, d)


def unlimited_str(x):
    """``str(x)`` with the int-to-str digit limit lifted just for it, so
    that ``str()`` is the reference at every size."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(x)
    finally:
        sys.set_int_max_str_digits(saved)


def assert_written_as_str(n):
    want = unlimited_str(n)
    assert _decimal_digits(n) == want
    assert _int_str(n) == want
    assert number_text(Fraction(n)) == want     # denominator 1: no "/"


def test_decimal_writer_is_str_at_the_edges():
    ks = (_DECIMAL_BITS - 1, _DECIMAL_BITS, _DECIMAL_BITS + 1, 100_000)
    for n in (0, 1, 9, 10,
              *(2 ** k + e for k in ks for e in (-1, 0, 1)),
              *(10 ** int(k * math.log10(2)) + e for k in ks for e in (-1, 1)),
              2 ** 1_000_000 - 1, 10 ** 301_030 + 1):
        assert_written_as_str(n)


@composite
def power_sums(draw):
    """``(p, top, bottom)`` for :func:`power_sum_text`, each exponent drawn
    from ``{0, x, y, x + y}``, so that some powers are products of two
    others."""
    x, y = draw(integers(0, 1000)), draw(integers(0, 1000))
    exponent = sampled_from((0, x, y, x + y))
    side = lists(tuples(exponent, exponent), min_size=1, max_size=2)
    return draw(integers(1, 1 << 80)), draw(side), draw(side)


@settings(max_examples=60, deadline=None)
@given(power_sums())
@example((3, [(0, 0)], [(0, 0)]))
@example((1, [(5, 0), (0, 7)], [(0, 0)]))
def test_power_sum_text_is_str_of_its_value(case):
    p, top, bottom = case
    num = sum(p ** b << a for a, b in top)
    den = sum(p ** b << a for a, b in bottom)
    want = unlimited_str(num) if den == 1 else (
        f"{unlimited_str(num)}/{unlimited_str(den)}")
    assert power_sum_text(p, top, bottom) == want


@settings(max_examples=25, deadline=None)
@given(integers(1, 150_000), integers(0, 2 ** 64))
def test_decimal_writer_is_str_on_drawn_sizes(bits, seed):
    rng = random.Random(seed)
    assert_written_as_str(rng.getrandbits(bits))
    ratio = Fraction(rng.getrandbits(bits), rng.getrandbits(bits) + 1)
    assert number_text(ratio) == unlimited_str(ratio)


def test_cli_dpcheck_reports_a_ratio_past_the_double_range(tmp_path,
                                                          capsys):
    pair = tmp_path / "ov8"
    assert main(["attack", "gen", "--theorem", "overflow", "--bits", "8",
                 "--upper", "4", "--out", str(pair)]) == 0
    capsys.readouterr()
    assert main(["dpcheck", "exact", "--u", str(pair / "u.json"),
                 "--v", str(pair / "v.json"), "--epsilon", "1",
                 "--scale", "1/4"]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["max_ratio_approx"] is None
    assert report["satisfied"] is False and report["witness"] == 255
    # the exact ratio is still reported: about alpha^-255 with alpha near
    # e^-4, some 10^443, past the largest double (about 1.8e308)
    num, den = report["max_ratio"].split("/")
    assert len(num) - len(den) > 309


def test_cli_dpcheck_reports_an_epsilon_past_the_digit_guard(tmp_path,
                                                            capsys):
    # 2^50000 has 15,052 digits: the manifest, the report and the scale's
    # denominator write them all, and each reads back
    pair = tmp_path / "ov8"
    assert main(["attack", "gen", "--theorem", "overflow", "--bits", "8",
                 "--upper", "4", "--out", str(pair)]) == 0
    capsys.readouterr()
    assert main(["dpcheck", "exact", "--u", str(pair / "u.json"),
                 "--v", str(pair / "v.json"), "--epsilon", "1*2^50000",
                 "--calibrate", "idealized"]) == 0
    report = json.loads(capsys.readouterr().out)
    epsilon = Fraction(2) ** 50000
    assert parse_number(report["epsilon"]) == epsilon
    assert parse_number(report["manifest"]["parameters"]["epsilon"]) == epsilon
    mechanism = report["mechanism"]
    assert parse_number(mechanism["scale"]) * epsilon == parse_number(
        mechanism["calibration"]["value"])
    assert report["satisfied"] is True


# ---------------------------------------------------------------------------
# A huge epsilon: decided without ln 2 to its bits
# ---------------------------------------------------------------------------

# 1, 255/4, 3/2, (2^100 + 1)/3, 3^40/2^63 and 8 = 4 + 4, as factors (p,
# top, bottom)
@mark.parametrize("factors", [(7, ((0, 0),), ((0, 0),)),
                              (255, ((0, 1),), ((2, 0),)),
                              (3, ((0, 1),), ((1, 0),)),
                              (3, ((100, 0), (0, 0)), ((0, 1),)),
                              (3, ((0, 40),), ((63, 0),)),
                              (3, ((2, 0), (2, 0)), ((0, 0),))], ids=str)
def test_an_exponent_near_the_ratios_bit_length_is_decided_exactly(factors):
    # e^x > 2^x decides the exponents from a bound on the ratio's bit
    # length up; the intervals of 1000 bits decide them all, below and above
    ratio = power_ratio(*factors)
    gap = ratio.numerator.bit_length() - ratio.denominator.bit_length()
    for x in (Fraction(gap - 1), Fraction(2 * gap - 1, 2), Fraction(gap),
              Fraction(gap + 1), Fraction(gap + 2), Fraction(gap + 3)):
        if x <= 0:
            continue
        with mpmath.workprec(1000):
            want = mpmath.mpf(ratio.numerator) / ratio.denominator \
                <= mpmath.exp(mpmath.mpf(x.numerator) / x.denominator)
        assert certified_leq_exp(*factors, x) == want, x


def test_a_huge_epsilon_or_a_tiny_scale_needs_no_digits_of_its_power():
    # each took seconds of ln 2 to half a million bits in mpmath
    start = time.perf_counter()
    # 255/4 as factors
    assert certified_leq_exp(255, ((0, 1),), ((2, 0),), Fraction(1 << 524288))
    assert rational_alpha(Fraction(1, 1 << 524288)) == Fraction(2, 1 << 80)
    assert time.perf_counter() - start < 1
    # from 1/scale = 64 on, alpha is the 2-step of the grid mpmath gives
    for scale in (Fraction(1, 64), Fraction(3, 192), Fraction(1, 65)):
        with mpmath.workprec(128):
            a = mpmath.exp(-mpmath.mpf(scale.denominator) / scale.numerator)
            assert int(mpmath.floor(a * (1 << 80))) == 0
        assert rational_alpha(scale) == Fraction(2, 1 << 80)


def test_equal_releases_decide_a_tiny_epsilon_with_no_interval():
    # ratio 1 <= e^x exactly when x > 0: intervals would need half a
    # million bits to part 1 from e^(2^-524288)
    fmt = IntFormat(8, True, "wraparound")
    tiny = Fraction(1, 1 << 524288)
    start = time.perf_counter()
    for noise in noises(fmt):
        spec = MechanismSpec(noise=noise, scale=Fraction(5, 2))
        for epsilon in (tiny, -tiny):
            got = exact_dp_check(spec, one_element(fmt, 3),
                                 one_element(fmt, 3), epsilon)
            assert power_ratio(*got.factors) == 1
            assert got.satisfied is (epsilon > 0), (noise, epsilon > 0)
    one = (3, ((0, 0),), ((0, 0),))
    assert certified_leq_exp(*one, tiny) and certified_leq_exp(*one, 0)
    assert not certified_leq_exp(*one, -tiny)
    assert time.perf_counter() - start < 1


def test_rational_alpha_refuses_a_nonpositive_scale():
    for scale in (0, Fraction(-1, 3)):
        with raises(PreconditionFailed, match="scale must be positive"):
            rational_alpha(scale)


def test_rational_alpha_keeps_one_entry_per_scale():
    assert rational_alpha(5) is rational_alpha(Fraction(5))


def test_cli_dpcheck_decides_an_epsilon_within_2_to_the_minus_2100(
        tmp_path, capsys):
    # m / 2^2100 is ln ratio rounded down, (m + 1) / 2^2100 rounded up: the
    # intervals part only past 2048 bits
    pair = tmp_path / "ovx"
    assert main(["attack", "gen", "--theorem", "overflow", "--bits", "8",
                 "--upper", "1", "--out", str(pair)]) == 0
    u, v = load_dataset(pair / "u.json"), load_dataset(pair / "v.json")
    ratio = power_ratio(*exact_dp_check(MechanismSpec(scale=1), u, v,
                                        1).factors)
    with mpmath.workprec(2400):
        m = int(mpmath.floor(mpmath.log(mpmath.mpf(ratio.numerator)
                                        / ratio.denominator) * 2 ** 2100))
    assert len(str(m)) == 635
    argv = ["dpcheck", "exact", "--u", str(pair / "u.json"), "--v",
            str(pair / "v.json"), "--scale", "1"]
    for k, code in ((m, 3), (m + 1, 0)):
        capsys.readouterr()
        assert main(argv + ["--epsilon", f"{k}*2^-2100"]) == code
        report = json.loads(capsys.readouterr().out)
        assert report["satisfied"] is (code == 0)
        assert parse_number(report["epsilon"]) == Fraction(k, 1 << 2100)


# ---------------------------------------------------------------------------
# The paper's int32 and int64 overflow pairs, checked exactly
# ---------------------------------------------------------------------------

def test_int32_and_int64_repairs_are_decided_exactly_in_under_a_second():
    # the pair of attack gen --theorem overflow --bits 32 --upper 2^30,
    # and the committed int64 one; the checks need no binary ratio, only
    # the report's exact text is refused
    ov32 = overflow_attack(IntFormat(32, False, "wraparound"), upper=1 << 30)
    ov64 = Path(__file__).with_name("golden") / "instances" / "ov64"
    for u, v in ((ov32.u, ov32.v), (load_dataset(ov64 / "u.json"),
                                    load_dataset(ov64 / "v.json"))):
        sens = SensSpec(u.fmt, u.lower, u.upper, "sym", SumMethod())
        for noise, rule, want in (
                ("discrete_laplace", idealized_sensitivity, False),
                ("discrete_laplace_mod", modular_sensitivity_bound, True)):
            spec = calibrate(noise, rule(sens), 1)
            start = time.perf_counter()
            got = exact_dp_check(spec, u, v, 1)
            assert time.perf_counter() - start < 1, (u.fmt, noise)
            assert (got.satisfied, got.support) == (want, u.fmt.modulus)
            with raises(PreconditionFailed,
                        match=f"^support {u.fmt.modulus} exceeds 65536$"):
                got.to_json()


def test_cli_dpcheck_refuses_a_report_past_the_support_limit(tmp_path,
                                                             capsys):
    pair = tmp_path / "ov17"
    assert main(["attack", "gen", "--theorem", "overflow", "--bits", "17",
                 "--upper", "4", "--out", str(pair)]) == 0
    capsys.readouterr()
    assert main(["dpcheck", "exact", "--u", str(pair / "u.json"), "--v",
                 str(pair / "v.json"), "--epsilon", "1", "--calibrate",
                 "idealized"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: support 131072 exceeds 65536\n")

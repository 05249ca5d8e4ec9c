"""Mechanism layer: the log-space binomial tail, the violation bound, the
modulus of modular noise, the sampler against a slow exact reference on the
same stream and against the exact PMFs by exhaustive enumeration, and the
exact checker's breakpoint search against full enumeration."""

import functools
import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import mpmath
import numpy as np
from hypothesis import given, settings
from hypothesis.strategies import integers
from pytest import mark, raises

from boundedsum import (VERDICT_CUTOFF_LOG2, MechanismSpec,
                        distinguishing_experiment, dp_violation_log2_bound,
                        exact_dp_check, exact_value, generate_attack,
                        run_mechanism, run_sum)
from boundedsum.cli import main
from boundedsum.data import Dataset
from boundedsum.dyadic import Dyadic
from boundedsum.floats import FloatFormat, SimFloat, add_float, round_dyadic
from boundedsum.ints import IntFormat, KInt
from boundedsum import mechanism
from boundedsum.mechanism import (_DECIMAL_BITS, _coprime_fraction,
                                  _decimal_digits, _exact_str, _folded_ratio,
                                  _int_str, _log_factorials, _log_upper_tail,
                                  certified_leq_exp, rational_alpha)

SRC = Path(__file__).resolve().parents[1] / "src"

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
    inst = generate_attack("overflow", IntFormat(8, False, "wraparound"),
                           upper=1)
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
    assert got.max_ratio == best
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
        side: Dataset(fmt, -top, top, [(round_dyadic(Dyadic.from_fraction(
            Fraction(x)), fmt, "banker"), 1)])
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
    draw = mechanism._sampler(spec, base)[0]
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
# Breakpoint search against full enumeration
# ---------------------------------------------------------------------------

def enumerated_max_ratio(spec, fmt, su, sv):
    """Worst ratio and its first witness, from every output of the support.

    This is the scan ``exact_dp_check`` ran before it evaluated only the
    ends of the ratio's monotone pieces: the reference it must agree with.
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


def assert_matches_enumeration(fmt, noise, scale, su, sv, epsilon):
    spec = MechanismSpec(noise=noise, scale=scale)
    got = exact_dp_check(spec, one_element(fmt, su), one_element(fmt, sv),
                         epsilon)
    best, witness = enumerated_max_ratio(spec, fmt, su, sv)
    case = (fmt, noise, scale, su, sv)
    assert (got.max_ratio, got.witness) == (best, witness), case
    assert got.satisfied == certified_leq_exp(best, epsilon), case


def noises(fmt):
    if fmt.overflow == "wraparound":
        return ("discrete_laplace", "discrete_laplace_mod")
    return ("discrete_laplace",)


CHECK_SCALES = (Fraction(1, 3), Fraction(1), Fraction(5, 2), Fraction(40))


@mark.parametrize("bits", [2, 3])
def test_breakpoints_match_enumeration_on_every_pair(bits):
    for signed in (False, True):
        for overflow in ("wraparound", "saturating"):
            fmt = IntFormat(bits, signed, overflow)
            values = range(fmt.min_value, fmt.max_value + 1)
            for noise in noises(fmt):
                for scale in CHECK_SCALES:
                    for su in values:
                        for sv in values:
                            assert_matches_enumeration(fmt, noise, scale,
                                                       su, sv, 1)


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


@mark.parametrize("bits", [2, 3])
def test_exact_comparisons_alone_match_enumeration_on_every_pair(
        bits, monkeypatch):
    # a margin this wide sends every modular end to the exact comparison
    monkeypatch.setattr(mechanism, "_LOG2_MARGIN", math.inf)
    test_breakpoints_match_enumeration_on_every_pair(bits)


def cross_multiplied_max_ratio(spec, fmt, su, sv):
    """Worst ratio and witness by the breakpoint loop ``exact_dp_check`` ran
    before it ranked the ends by estimate: the reference PMFs' weights at
    the same ends, compared by cross-multiplying, the winner divided out."""
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
            assert (got.max_ratio, got.witness) == cross_multiplied_max_ratio(
                spec, fmt, su, sv), (noise, su, sv, spec.scale)


# alpha = P/2^s for s = 1..12, then three alphas of the 2^-80 grid
FOLD_ALPHAS = ([Fraction(random.Random(s).randrange(1, 1 << s, 2), 1 << s)
                for s in range(1, 13)]
               + [rational_alpha(x) for x in (Fraction(1, 4), 4, 40)])


@mark.parametrize("alpha", FOLD_ALPHAS, ids=str)
def test_folded_ratio_is_the_reduced_quotient_of_the_weights(alpha):
    for m in (*range(1, 41), 64, 128, 256):
        w = _folded_pmf(alpha, 0, m)
        weights = [w(r) for r in range(m)]
        # a residue weighs as its folded distance, so the folded pairs
        # below cover every pair of residues
        assert all(weights[r] == weights[m - r] for r in range(1, m))
        distances = range(m // 2 + 1)
        if m > 64:
            # the reference divisions of 20,000-bit weights take a
            # millisecond each: pair every distance with the wraps and the
            # rails, where G(0) = 2 and the small G(n) sit
            edges = {0, 1, 2, m // 2 - 2, m // 2 - 1, m // 2}
            pairs = {(a, b) for a in distances for b in edges}
            pairs |= {(b, a) for a, b in pairs}
        else:
            pairs = [(a, b) for a in distances for b in distances]
        for a, b in pairs:
            got, want = _folded_ratio(alpha, m, a, b), weights[a] / weights[b]
            # want is in lowest terms, so equal parts make got coprime
            assert (got.numerator, got.denominator) == (
                want.numerator, want.denominator), (m, a, b)


@given(integers(0, 1 << 200), integers(1, 1 << 200))
def test_coprime_fraction_is_the_normalised_fraction(n, d):
    g = math.gcd(n, d)
    n, d = n // g, d // g
    got = _coprime_fraction(n, d)
    assert type(got) is Fraction
    assert (got, got.numerator, got.denominator) == (Fraction(n, d), n, d)


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
    assert _exact_str(Fraction(n)) == want      # denominator 1: no "/"


def test_decimal_writer_is_str_at_the_edges():
    ks = (_DECIMAL_BITS - 1, _DECIMAL_BITS, _DECIMAL_BITS + 1, 100_000)
    for n in (0, 1, 9, 10,
              *(2 ** k + e for k in ks for e in (-1, 0, 1)),
              *(10 ** int(k * math.log10(2)) + e for k in ks for e in (-1, 1)),
              2 ** 1_000_000 - 1, 10 ** 301_030 + 1):
        assert_written_as_str(n)


@settings(max_examples=25, deadline=None)
@given(integers(1, 150_000), integers(0, 2 ** 64))
def test_decimal_writer_is_str_on_drawn_sizes(bits, seed):
    rng = random.Random(seed)
    assert_written_as_str(rng.getrandbits(bits))
    ratio = Fraction(rng.getrandbits(bits), rng.getrandbits(bits) + 1)
    assert _exact_str(ratio) == unlimited_str(ratio)


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


# ---------------------------------------------------------------------------
# Dependencies
# ---------------------------------------------------------------------------

def test_import_does_not_load_scipy():
    code = ("import sys, boundedsum, boundedsum.cli; "
            "sys.exit('scipy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr

"""Mechanism layer: the log-space binomial tail, the violation bound, the
modulus of modular noise, and the exact checker's breakpoint search
against full enumeration."""

import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
from pytest import mark, raises

from boundedsum import (VERDICT_CUTOFF_LOG2, MechanismSpec,
                        dp_violation_log2_bound, exact_dp_check,
                        generate_attack, run_mechanism, run_sum)
from boundedsum.cli import main
from boundedsum.data import Dataset
from boundedsum.ints import IntFormat, KInt
from boundedsum.mechanism import (_folded_pmf, _log_upper_tail,
                                  _sample_dlap, _saturated_pmf,
                                  certified_leq_exp)

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
        z = _sample_dlap(spec.alpha, random.Random(seed))
        assert run_mechanism(spec, u, seed).value == (su + z) % 256
        wrapped += not 0 <= su + z < 256
    assert wrapped  # some draws leave [0, 256), so the reduction shows
    got = exact_dp_check(spec, u, v, 1)
    wu, wv = _folded_pmf(spec.alpha, su, 256), _folded_pmf(spec.alpha, sv, 256)
    best = max(wu(z) / wv(z) for z in range(256))
    assert got.max_ratio == best
    assert wu(got.witness) / wv(got.witness) == best


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


def one_element(fmt, value):
    lo, hi = KInt(fmt, fmt.min_value), KInt(fmt, fmt.max_value)
    return Dataset(fmt, lo, hi, [(KInt(fmt, value), 1)])


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

"""Mechanism layer: the log-space binomial tail, the violation bound, and
the modulus rule shared by the sampler and the exact checker."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
from pytest import mark, raises

from boundedsum import (VERDICT_CUTOFF_LOG2, MechanismSpec,
                        UnsupportedCombination, dp_violation_log2_bound,
                        exact_dp_check, generate_attack, run_mechanism)
from boundedsum.cli import main
from boundedsum.ints import IntFormat
from boundedsum.mechanism import _log_upper_tail

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


# ---------------------------------------------------------------------------
# One modulus rule for sampling and exact checking
# ---------------------------------------------------------------------------

def overflow_pair():
    inst = generate_attack("overflow", IntFormat(8, False, "wraparound"),
                           upper=1)
    return inst.u, inst.v


def test_mismatched_modulus_is_refused_by_sampler_and_checker():
    u, v = overflow_pair()
    spec = MechanismSpec(noise="discrete_laplace_mod", modulus=16)
    with raises(UnsupportedCombination, match="modulus"):
        run_mechanism(spec, u, seed=0)
    with raises(UnsupportedCombination, match="modulus"):
        exact_dp_check(spec, u, v, epsilon=1)


def test_matching_modulus_is_the_default():
    u, v = overflow_pair()
    explicit = MechanismSpec(noise="discrete_laplace_mod", modulus=256)
    implicit = MechanismSpec(noise="discrete_laplace_mod")
    assert run_mechanism(explicit, u, seed=3) == run_mechanism(implicit, u,
                                                               seed=3)
    assert exact_dp_check(explicit, u, v, 1) == exact_dp_check(implicit, u,
                                                               v, 1)


def test_cli_dpcheck_exits_2_on_a_mismatched_modulus(tmp_path, capsys):
    pair = tmp_path / "ov8"
    assert main(["attack", "gen", "--theorem", "overflow", "--bits", "8",
                 "--upper", "1", "--out", str(pair)]) == 0
    argv = ["dpcheck", "exact", "--u", str(pair / "u.json"),
            "--v", str(pair / "v.json"), "--epsilon", "1",
            "--noise", "discrete_laplace_mod", "--calibrate", "modular"]
    capsys.readouterr()
    assert main(argv + ["--m", "16"]) == 2
    assert "modulus must match" in capsys.readouterr().err
    assert main(argv + ["--m", "256"]) == 0


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

"""Attack generation and replay, through the CLI and against the
certified bounds.

The replays run at the sizes the paper's attacks need: each side of the
float32 ``float_reorder`` pair holds 12,582,912 elements in two runs, and
each side of the float64 ``repeated_rounding_1`` pair 40 runs of 2^52
copies after its leading elements.  Every algorithm reads those runs
without expanding them, so each replay must finish well inside a second.
At those sizes every family's native replay must show its predicted gap,
and every method with a certified bound must stay within it.
"""

import contextlib
import io
import json
import time
from fractions import Fraction
from functools import cache

from pytest import mark, raises

import boundedsum.summation as summation
from boundedsum import (ATTACK_NAMES, FLOAT32, FLOAT64, IntFormat,
                        PreconditionFailed, RandomPermutation, SensSpec,
                        ShiftBounds, SumMethod, Truncate,
                        UnsupportedCombination, bs_exact, d_mod,
                        generate_attack, implemented_sensitivity_bound,
                        load_dataset, verify_attack)
from boundedsum.cli import main


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@mark.parametrize("argv message".split(), [
    (["--theorem", "rounding", "--k", "12", "--l", "6", "--j", "4"],
     "error: rounding: --m is required\n"),
    (["--theorem", "rounding", "--k", "12", "--l", "6"],
     "error: rounding: --j, --m are required\n"),
    (["--theorem", "overflow", "--bits", "8"],
     "error: overflow: --upper is required\n"),
    (["--theorem", "saturation_reorder", "--bits", "8", "--upper", "3",
      "--lower", "-3", "--j", "2"],
     "error: saturation_reorder: --j does not apply\n"),
])
def test_attack_gen_names_the_flag_of_a_bad_parameter(argv, message,
                                                      tmp_path):
    code, out, err = _cli(["attack", "gen", *argv, "--out", str(tmp_path)])
    assert (code, out, err) == (2, "", message)
    assert not any(tmp_path.iterdir())


# the benchmark's full-size native pairs (its offsets are drawn from
# [-8, 8]; these are two of them)
FULL_SIZE = {
    "fr32": ["--theorem", "float_reorder", "--k", "23", "--l", "8",
             "--a", "1", "--d", "2", "--j", "-3"],
    "r1-64": ["--theorem", "repeated_rounding_1", "--k", "52", "--l", "11",
              "--j", "40", "--m", "5"],
}


@mark.parametrize("tag", sorted(FULL_SIZE))
@mark.parametrize("method", ["pairwise", "kahan"])
def test_full_size_pairs_verify_in_under_a_second(tag, method, tmp_path):
    code, _, _ = _cli(["attack", "gen", *FULL_SIZE[tag],
                       "--out", str(tmp_path)])
    assert code == 0
    start = time.perf_counter()
    code, out, err = _cli(["attack", "verify", "--instance", str(tmp_path),
                           "--method", method])
    elapsed = time.perf_counter() - start
    assert code in (0, 3) and err == ""
    assert elapsed < 1.0, elapsed
    report = json.loads(out)
    # the float64 pair's releases are not exact sums: see
    # test_summation.test_repeated_rounding_pairs_match_the_literal_folds
    if tag == "fr32":
        # both orders sum exactly under both algorithms
        for side in ("u", "v"):
            exact = bs_exact(load_dataset(tmp_path / f"{side}.json"))
            assert Fraction(report[f"realized_{side}"]) == exact.to_fraction()


def test_kahan_step_limit_is_reported_as_a_refusal(monkeypatch, tmp_path):
    code, _, _ = _cli(["attack", "gen", *FULL_SIZE["fr32"],
                       "--out", str(tmp_path)])
    assert code == 0
    monkeypatch.setattr(summation, "MATERIALIZE_LIMIT", 1)
    code, out, err = _cli(["attack", "verify", "--instance", str(tmp_path),
                           "--method", "kahan"])
    assert code == 2 and out == ""
    assert err.startswith("error: compensated summation found no period")


# ---------------------------------------------------------------------------
# The paper's attacks at the paper's sizes against the certified bounds
# ---------------------------------------------------------------------------

# each family at two of the paper's formats: (name, bits) -> (format,
# generator parameters)
PAPER_SIZE = {
    ("overflow", 32): (IntFormat(32, True, "wraparound"), {"upper": 1 << 20}),
    ("overflow", 64): (IntFormat(64, True, "wraparound"), {"upper": 1 << 52}),
    ("saturation_reorder", 32): (IntFormat(32, True, "saturating"),
                                 {"lower": -(1 << 20), "upper": 1 << 20}),
    ("saturation_reorder", 64): (IntFormat(64, True, "saturating"),
                                 {"lower": -(1 << 52), "upper": 1 << 52}),
    ("float_reorder", 32): (FLOAT32, {"j": 0, "a": 1, "d": 2}),
    ("float_reorder", 64): (FLOAT64, {"j": 0, "a": 1, "d": 2}),
    ("rounding", 32): (FLOAT32, {"j": 5, "m": 0}),
    ("rounding", 64): (FLOAT64, {"j": 20, "m": 0}),
    ("repeated_rounding_1", 32): (FLOAT32, {"j": 20, "m": 0}),
    ("repeated_rounding_1", 64): (FLOAT64, {"j": 40, "m": 0}),
    ("repeated_rounding_2", 32): (FLOAT32, {"j": 12, "a": 0}),
    ("repeated_rounding_2", 64): (FLOAT64, {"j": 12, "a": 0}),
}


def _cases(algorithms, transforms):
    return {a + t for a in algorithms for t in transforms}


# the methods with a certified bound, as algorithm + transform, by family;
# every other method is refused, by PreconditionFailed where PRECONDITIONS
# names it and by UnsupportedCombination otherwise
RULED = {
    # the modular bound: any algorithm but Kahan, plain or shuffled
    "overflow": _cases(("iterative", "pairwise", "split", "exact"),
                       ("", "+permute")),
    # co on saturating ints: the shuffled fold, and split in any order
    "saturation_reorder": {"iterative+permute", "split", "split+permute"},
    # co and ham: the accuracy routes, and split's known-n bound (under
    # co only shuffled)
    "float_reorder": _cases(("iterative", "pairwise", "kahan"),
                            ("", "+permute", "+shift")) | {"split+permute"},
    "rounding": _cases(("iterative", "pairwise", "kahan", "split"),
                       ("", "+permute", "+shift")),
    # id: truncation for the rounded folds, split's unknown-n bound
    "repeated_rounding_1": _cases(("iterative", "pairwise", "kahan"),
                                  ("+truncate",))
    | {"split", "split+permute", "split+shift"},
    "repeated_rounding_2": _cases(("iterative", "pairwise", "kahan"),
                                  ("+truncate",))
    | {"split", "split+permute"},
}
PRECONDITIONS = {
    # split under co needs a shuffle
    ("float_reorder", "split"), ("float_reorder", "split+shift"),
    # U - L is not a float of the format
    ("repeated_rounding_2", "split+shift"),
}
# the longest side a shuffled method replays: the permutation is a Python
# loop over the elements
SHUFFLED_LIMIT = 1 << 14


@cache
def _paper_pair(name, bits):
    fmt, params = PAPER_SIZE[name, bits]
    return generate_attack(name, fmt, **params)


def test_every_family_has_paper_size_pairs():
    assert {name for name, _ in PAPER_SIZE} == set(ATTACK_NAMES)
    assert set(RULED) == set(ATTACK_NAMES)


@mark.parametrize("name bits".split(), sorted(PAPER_SIZE))
def test_the_native_replay_is_the_predicted_vulnerability(name, bits):
    instance = _paper_pair(name, bits)
    report = verify_attack(instance)
    assert report.realized_gap == instance.predicted_gap
    assert report.realized_gap > instance.idealized


@mark.parametrize("algorithm", ["iterative", "pairwise", "kahan", "split",
                                "exact"])
@mark.parametrize("name bits".split(), sorted(PAPER_SIZE))
def test_paper_size_replays_stay_within_the_certified_bounds(name, bits,
                                                             algorithm):
    instance = _paper_pair(name, bits)
    u = instance.u
    n = max(u.n, instance.v.n)
    for tag, transforms in (("", ()), ("+permute", (RandomPermutation(1),)),
                            ("+truncate", (Truncate(n),)),
                            ("+shift", (ShiftBounds(),))):
        method = SumMethod(algorithm, transforms=transforms)
        spec = SensSpec(u.fmt, u.lower, u.upper, instance.metric, method, n)
        case = algorithm + tag
        if case not in RULED[name]:
            with raises(PreconditionFailed if (name, case) in PRECONDITIONS
                        else UnsupportedCombination):
                implemented_sensitivity_bound(spec)
            continue
        bound = implemented_sensitivity_bound(spec)
        if tag == "+permute" and n > SHUFFLED_LIMIT:
            continue
        report = verify_attack(instance, method)
        gap = report.realized_gap
        if bound.output_metric == "mod":
            gap = d_mod(int(report.realized_u), int(report.realized_v),
                        u.fmt.modulus)
        assert gap <= bound.value, (case, gap, bound.value)

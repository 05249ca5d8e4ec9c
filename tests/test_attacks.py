"""Attack generation and replay through the CLI.

The replays run at the sizes the paper's attacks need: each side of the
float32 ``float_reorder`` pair holds 12,582,912 elements in two runs, and
each side of the float64 ``repeated_rounding_1`` pair 40 runs of 2^52
copies after its leading elements.  Every algorithm reads those runs
without expanding them, so each replay must finish well inside a second.
"""

import contextlib
import io
import json
import time
from fractions import Fraction

from pytest import mark

import boundedsum.summation as summation
from boundedsum import bs_exact, load_dataset
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

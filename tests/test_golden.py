"""CLI reports pinned byte for byte.

Each ``.json`` file under ``tests/golden/`` is the stdout of one command
below, and each ``.err`` file the stderr of one refused command.  They
cover the exhaustive sensitivity scan for every metric, the
certified float routes (accuracy, shift, truncation, split), the exact DP
check with both discrete noises and the distinguishing experiment, so any
change in a value, a witness, a dataset count, a bound, a verdict or a
message shows up as a changed byte.  When a report is meant to change,
rewrite the files with ``PYTHONPATH=src python tests/test_golden.py`` and
review the diff.

The mechanism, replay and sum commands read the dataset pairs under
``tests/golden/instances/`` and run from ``tests/golden/``, so the paths
their manifests record are relative.  Those pairs are inputs, not
outputs: ``ov6``, ``ov8``, ``ov8s``, ``ov64``, ``rr2`` and ``sat8`` were
written by ``attack gen``, ``mid8`` and ``same7`` by ``save_dataset``;
the three small files under ``instances/dense/`` (one run per element,
apart from one run of three and a ``-0`` pattern), the malformed files
under ``instances/refused/`` and the instances under
``instances/refused-method/`` (an ``instance.json`` each, whose method's
transforms are not a list, whose one transform is not an object, or whose
one transform has a field that is not an int) were written by hand, and the
float32 and float64 files under ``instances/dense/`` (``f32.json``,
``f64.json``: 256 elements, one run each) were drawn once from a seeded
generator.  The seven pairs
of ``GEN_CASES``, one per attack family and a second ``repeated_rounding_2``
pair whose tail is a block entry, are outputs too: ``attack gen`` must
write their ``instance.json``, ``u.json`` and ``v.json`` byte for byte.
"""

import contextlib
import io
import json
import math
import os
import re
import sys
from datetime import datetime, timezone
from pathlib import Path

from pytest import mark, raises

from boundedsum.cli import main
from boundedsum.sensitivity import METRICS

GOLDEN = Path(__file__).with_name("golden")

CASES = {}
for metric in METRICS:
    for alg in ("iterative", "pairwise", "kahan", "split"):
        CASES[f"bruteforce-float23-{metric}-{alg}"] = [
            "sens", "bruteforce", "--format", "float:2,3", "--lower", "-1",
            "--upper", "1", "--metric", metric, "--n", "2", "--method", alg]
    # three elements in a positive range: here the release depends on the
    # order, so a group that mixes non-adjacent orderings shows
    CASES[f"bruteforce-float23-n3-{metric}-iterative"] = [
        "sens", "bruteforce", "--format", "float:2,3", "--lower", "0.25",
        "--upper", "1.75", "--metric", metric, "--n", "3"]
    for overflow in ("wraparound", "saturating"):
        for alg in ("iterative", "pairwise", "split"):
            CASES[f"bruteforce-int4-{overflow}-{metric}-{alg}"] = [
                "sens", "bruteforce", "--format", f"int:4:signed:{overflow}",
                "--lower", "-4", "--upper", "3", "--metric", metric,
                "--n", "3", "--method", alg]

# many of these sums overflow to the same -inf, so a tuple's largest gaps
# tie across its remove-one groups and the witness shows the order in
# which those groups are offered
CASES["bruteforce-float23-overflow-co-iterative"] = [
    "sens", "bruteforce", "--format", "float:2,3", "--lower", "-14",
    "--upper", "-2", "--metric", "co", "--n", "2"]
# subnormal elements: releases off the normal grid and sums that round
# across the subnormal/normal boundary
for metric, alg in (("ham", "kahan"), ("sym", "pairwise"), ("co", "split"),
                    ("id", "exact")):
    CASES[f"bruteforce-float23-subnormal-{metric}-{alg}"] = [
        "sens", "bruteforce", "--format", "float:2,3", "--lower", "-1",
        "--upper", "1", "--metric", metric, "--n", "2", "--method", alg,
        "--include-subnormals"]

# the engine's other release paths: directed rounding through the step
# tables, a truncated prefix, a shifted domain, exact releases on the ring
_F23_N3 = ["sens", "bruteforce", "--format", "float:2,3", "--lower", "-1",
           "--upper", "1", "--n", "3"]
CASES["bruteforce-float23-toward_neg-ham-kahan"] = _F23_N3 + [
    "--metric", "ham", "--method", "kahan", "--rounding", "toward_neg"]
CASES["bruteforce-float23-toward_pos-sym-iterative"] = _F23_N3 + [
    "--metric", "sym", "--rounding", "toward_pos"]
CASES["bruteforce-float23-truncate-id-iterative"] = _F23_N3 + [
    "--metric", "id", "--transform", "truncate:2"]
CASES["bruteforce-float23-shift-co-pairwise"] = [
    "sens", "bruteforce", "--format", "float:2,3", "--lower", "0.25",
    "--upper", "1.75", "--metric", "co", "--n", "3", "--method", "pairwise",
    "--transform", "shift"]
CASES["bruteforce-int4-wraparound-sym-exact"] = [
    "sens", "bruteforce", "--format", "int:4:signed:wraparound", "--lower",
    "-4", "--upper", "3", "--metric", "sym", "--n", "3", "--method", "exact"]
# the one small case found where a group's high end, not its low end,
# gives the witness (u=[3, 3, -4, -3], v=[-3, 3, 3], gap 7)
CASES["bruteforce-int3-saturating-sym-n4-iterative"] = [
    "sens", "bruteforce", "--format", "int:3:signed:saturating", "--lower",
    "-4", "--upper", "3", "--metric", "sym", "--n", "4"]
# the ring of the bruteforce-exhaustive workload: 24 residues of 64, so a
# release's farthest residue is the one nearest its antipode
CASES["bruteforce-int6-wraparound-ham-n3-iterative"] = [
    "sens", "bruteforce", "--format", "int:6:signed:wraparound", "--lower",
    "-12", "--upper", "11", "--metric", "ham", "--n", "3"]

# name -> (argv, exit code) of a refused scan; the golden is its stderr
REFUSAL_CASES = {
    "bruteforce-int4-kahan-refused": ([
        "sens", "bruteforce", "--format", "int:4:signed:wraparound",
        "--lower", "-4", "--upper", "3", "--metric", "sym", "--n", "3",
        "--method", "kahan"], 2),
    # the first tuple that cannot be shifted names the element
    "bruteforce-float23-shift-refused": (_F23_N3 + [
        "--metric", "co", "--method", "pairwise", "--transform", "shift"], 2),
}
# every file under instances/refused/ is refused on load, apart from
# shift-inexact, which loads and is refused by its shift (as in CI); with
# the shift of rr2_4_6, run from tests/golden/ like the sums above
for _file in sorted((GOLDEN / "instances" / "refused").glob("*.json")):
    _argv = ["sum", "--in", f"instances/refused/{_file.name}"]
    if _file.stem == "shift-inexact":
        REFUSAL_CASES["sum-shift-inexact-refused"] = (
            _argv + ["--transform", "shift"], 2)
    else:
        REFUSAL_CASES[f"sum-refused-{_file.stem}"] = (_argv, 2)
REFUSAL_CASES["sum-rr2_4_6-shift-refused"] = (
    ["sum", "--in", "instances/rr2_4_6/u.json", "--transform", "shift"], 2)
# a transform's N or SEED is read as the files write ints: other spellings
# of a number are refused, not cast
for _tag, _spec in (("truncate-underscore", "truncate:1_0"),
                    ("truncate-arabic-indic", "truncate:\u0663"),
                    ("truncate-plus", "truncate:+3"),
                    ("permute-space", "permute: 7")):
    REFUSAL_CASES[f"sum-refused-{_tag}"] = (
        ["sum", "--in", "instances/dense/f10_5.json", "--transform", _spec], 2)
# an instance whose method's transforms are not a list, whose transform is
# not an object, or whose transform field is not an int: a float, a boolean
# or a string is refused, not cut or cast
for _dir in sorted((GOLDEN / "instances" / "refused-method").iterdir()):
    REFUSAL_CASES[f"verify-refused-{_dir.name}"] = (
        ["attack", "verify", "--instance",
         f"instances/refused-method/{_dir.name}"], 2)

_BOUND = ["sens", "bound", "--format", "float:2,3", "--lower", "-1",
          "--upper", "1"]
# n=7 certifies 57/4; at n=8 the widened ends reach infinity and the
# overflow certificate refuses.
CASES["bound-ham-iterative-n7"] = _BOUND + [
    "--metric", "ham", "--method", "iterative", "--n", "7"]
CASES["bound-ham-iterative-n8"] = _BOUND + [
    "--metric", "ham", "--method", "iterative", "--n", "8"]
CASES["bound-co-kahan-shift-n4"] = _BOUND + [
    "--metric", "co", "--method", "kahan", "--transform", "shift", "--n", "4"]
CASES["bound-co-pairwise-shift-n8"] = _BOUND + [
    "--metric", "co", "--method", "pairwise", "--transform", "shift",
    "--n", "8"]
CASES["bound-sym-iterative-permute-truncate"] = _BOUND + [
    "--metric", "sym", "--method", "iterative", "--transform", "permute:1",
    "--transform", "truncate:5"]
CASES["bound-id-kahan-shift-truncate"] = _BOUND + [
    "--metric", "id", "--method", "kahan", "--transform", "shift",
    "--transform", "truncate:3"]
CASES["bound-id-split"] = _BOUND + ["--metric", "id", "--method", "split"]
# a fresh shuffle lets a saturating fold take the ordered bound
CASES["bound-int4-saturating-sym-permute"] = [
    "sens", "bound", "--format", "int:4:signed:saturating", "--lower", "-4",
    "--upper", "3", "--metric", "sym", "--n", "3", "--transform", "permute:1"]
CASES["recommend-float10_5-ham-n1000"] = [
    "sens", "recommend", "--format", "float:10,5", "--lower", "-1",
    "--upper", "1", "--metric", "ham", "--n", "1000"]
# a span U - L that is not representable: the shift candidates drop, and
# the co split takes a permutation and its fresh-seed note
CASES["recommend-float10_5-co-n100"] = [
    "sens", "recommend", "--format", "float:10,5", "--lower", "-1",
    "--upper", "1*2^-11", "--metric", "co", "--n", "100"]
CASES["recommend-int16-wraparound-sym-n4096"] = [
    "sens", "recommend", "--format", "int:16:signed:wraparound", "--lower",
    "-16", "--upper", "16", "--metric", "sym", "--n", "4096"]
# saturating ints: shuffled for an unordered metric, ordered otherwise
CASES["recommend-int8-saturating-sym-n16"] = [
    "sens", "recommend", "--format", "int:8:signed:saturating", "--lower",
    "-4", "--upper", "3", "--metric", "sym", "--n", "16"]
CASES["recommend-int8-saturating-id"] = [
    "sens", "recommend", "--format", "int:8:signed:saturating", "--lower",
    "-4", "--upper", "3", "--metric", "id"]
# floats of unknown size: the truncated routes under a cap
for metric in ("sym", "id"):
    CASES[f"recommend-float10_5-{metric}-nmax64"] = [
        "sens", "recommend", "--format", "float:10,5", "--lower", "-1",
        "--upper", "1", "--metric", metric, "--n-max", "64"]

# one small instance of each attack family: name -> ``attack gen`` flags.
# The long one-value runs (up to 4,096 elements) exercise the run-aware
# folds of every algorithm.
GEN_CASES = {
    "ov16": ["--theorem", "overflow", "--bits", "16", "--upper", "16"],
    "sr16": ["--theorem", "saturation_reorder", "--bits", "16", "--lower",
             "-16", "--upper", "16"],
    "fr10_5": ["--theorem", "float_reorder", "--k", "10", "--l", "5", "--j",
               "-4", "--a", "1", "--d", "2"],
    "ro10_5": ["--theorem", "rounding", "--k", "10", "--l", "5", "--j", "5",
               "--m", "-4"],
    "rr1_10_5": ["--theorem", "repeated_rounding_1", "--k", "10", "--l", "5",
                 "--j", "4", "--m", "-4"],
    "rr2_4_6": ["--theorem", "repeated_rounding_2", "--k", "4", "--l", "6",
                "--j", "3", "--a", "0"],
    # a tail of 64 copies of its two-element block, which the files hold
    # as one block entry; its replays were recorded from files of runs
    "rr2_10_5": ["--theorem", "repeated_rounding_2", "--k", "10", "--l",
                 "5", "--j", "8", "--a", "0"],
}



def _dpcheck(tag, *flags):
    return ["dpcheck", "exact", "--u", f"instances/{tag}/u.json",
            "--v", f"instances/{tag}/v.json", *flags]


def _experiment(tag, *flags):
    return ["experiment", "run", "--instance", f"instances/{tag}", *flags]


# name -> (argv, exit code): a check that fails and a violation verdict
# both exit 3
MECHANISM_CASES = {
    # the overflow pairs: centres on opposite rails, 255 apart when
    # clamped and adjacent on the ring
    "dpcheck-ov8-clamped-idealized": (_dpcheck(
        "ov8", "--epsilon", "1", "--calibrate", "idealized"), 3),
    "dpcheck-ov8-mod-modular": (_dpcheck(
        "ov8", "--epsilon", "1", "--noise", "discrete_laplace_mod",
        "--calibrate", "modular"), 0),
    "dpcheck-ov8-mod-modular-underscaled": (_dpcheck(
        "ov8", "--epsilon", "1", "--noise", "discrete_laplace_mod",
        "--calibrate", "modular", "--scale-factor", "1/5"), 3),
    "dpcheck-ov8-clamped-scale40": (_dpcheck(
        "ov8", "--epsilon", "1/2", "--scale", "40"), 3),
    "dpcheck-ov8s-clamped-idealized": (_dpcheck(
        "ov8s", "--epsilon", "1", "--calibrate", "idealized",
        "--metric", "ham"), 3),
    "dpcheck-ov8s-mod-modular": (_dpcheck(
        "ov8s", "--epsilon", "1", "--noise", "discrete_laplace_mod",
        "--calibrate", "modular", "--metric", "ham"), 0),
    "dpcheck-ov6-clamped-scale1_3": (_dpcheck(
        "ov6", "--epsilon", "2", "--scale", "1/3"), 3),
    "dpcheck-ov6-mod-scale5_2": (_dpcheck(
        "ov6", "--epsilon", "1", "--noise", "discrete_laplace_mod",
        "--scale", "5/2"), 0),
    "dpcheck-sat8-clamped-idealized": (_dpcheck(
        "sat8", "--epsilon", "1", "--calibrate", "idealized"), 3),
    "dpcheck-sat8-clamped-scale100": (_dpcheck(
        "sat8", "--epsilon", "3", "--scale", "100"), 0),
    # centres 64 apart inside the range (70 and 6), away from the rails
    # and the wrap
    "dpcheck-mid8-clamped-scale40": (_dpcheck(
        "mid8", "--epsilon", "2", "--scale", "40"), 0),
    "dpcheck-mid8-clamped-scale1": (_dpcheck(
        "mid8", "--epsilon", "1", "--scale", "1"), 3),
    "dpcheck-mid8-mod-scale40": (_dpcheck(
        "mid8", "--epsilon", "2", "--noise", "discrete_laplace_mod",
        "--scale", "40"), 0),
    "dpcheck-mid8-mod-scale5_2": (_dpcheck(
        "mid8", "--epsilon", "1", "--noise", "discrete_laplace_mod",
        "--scale", "5/2"), 3),
    # equal sums: every ratio is 1 and the first point is the witness
    "dpcheck-same7-clamped-scale1_3": (_dpcheck(
        "same7", "--epsilon", "1/10", "--scale", "1/3"), 0),
    "experiment-ov8-clamped-idealized": (_experiment(
        "ov8", "--trials", "200", "--seed", "7", "--epsilon", "1",
        "--calibrate", "idealized"), 3),
    "experiment-ov8-mod-modular": (_experiment(
        "ov8", "--trials", "200", "--seed", "7", "--epsilon", "1",
        "--noise", "discrete_laplace_mod", "--calibrate", "modular"), 0),
    "experiment-ov8s-threshold0": (_experiment(
        "ov8s", "--trials", "100", "--seed", "11", "--epsilon", "1",
        "--calibrate", "idealized", "--threshold", "0"), 3),
    "experiment-sat8-idealized": (_experiment(
        "sat8", "--trials", "100", "--seed", "5", "--epsilon", "1",
        "--calibrate", "idealized"), 3),
    # the paper's int64 overflow pair at scale 2^62, where float(alpha)
    # rounds to 1.0 and the log of alpha must come from 1 - alpha
    "experiment-ov64-idealized": (_experiment(
        "ov64", "--trials", "1000", "--seed", "1", "--epsilon", "1",
        "--calibrate", "idealized"), 3),
    "experiment-rr2-laplace": (_experiment(
        "rr2", "--trials", "40", "--seed", "3", "--epsilon", "2",
        "--noise", "laplace", "--calibrate", "idealized"), 0),
    "experiment-rr2-discrete-scale1_2": (_experiment(
        "rr2", "--trials", "40", "--seed", "3", "--epsilon", "1",
        "--scale", "1/2"), 3),
}

# name -> (argv, exit code), run from tests/golden/ on the GEN_CASES pairs:
# every family replayed natively and under the other algorithms (a cross
# replay that stays below the predicted gap exits 3), and the u datasets
# summed by the algorithms that read runs
REPLAY_CASES = {}
for _tag in GEN_CASES:
    _is_float = not _tag.startswith(("ov", "sr"))
    for _alg in ("native", "pairwise", "kahan", "split", "exact"):
        if _alg == "kahan" and not _is_float:
            continue
        _argv = ["attack", "verify", "--instance", f"instances/{_tag}"]
        if _alg != "native":
            _argv += ["--method", _alg]
        REPLAY_CASES[f"verify-{_tag}-{_alg}"] = _argv
    for _alg in ("pairwise", "kahan") if _is_float else ("pairwise",):
        REPLAY_CASES[f"sum-{_tag}-{_alg}"] = [
            "sum", "--in", f"instances/{_tag}/u.json", "--method", _alg]
# ``sum`` on data with runs of one: the tail of the rr2_4_6 pair and three
# small dense files under every algorithm and transform, overflowing on
# both integer policies
_SUM_INPUTS = {"rr2_4_6": ("instances/rr2_4_6/u.json", 6, ("iterative",
                                                            "split")),
               "dense_f10_5": ("instances/dense/f10_5.json", 20, (
                   "iterative", "pairwise", "kahan", "split")),
               "dense_i16w": ("instances/dense/i16-wraparound.json", 20, (
                   "iterative", "pairwise", "split")),
               "dense_i16s": ("instances/dense/i16-saturating.json", 20, (
                   "iterative", "pairwise", "split"))}
for _tag, (_path, _half, _algs) in _SUM_INPUTS.items():
    for _alg in _algs:
        REPLAY_CASES[f"sum-{_tag}-{_alg}"] = [
            "sum", "--in", _path, "--method", _alg]
    REPLAY_CASES[f"sum-{_tag}-permute"] = [
        "sum", "--in", _path, "--transform", "permute:7"]
    REPLAY_CASES[f"sum-{_tag}-truncate"] = [
        "sum", "--in", _path, "--transform", f"truncate:{_half}"]
    if _tag != "rr2_4_6":
        REPLAY_CASES[f"sum-{_tag}-shift"] = [
            "sum", "--in", _path, "--transform", "shift"]
# float32 and float64 files of 256 elements, one run each: top-binade
# values whose pair overflows pairwise (f32) or the running sum (f64)
# and otherwise cancel to +0, subnormals of both signs, then values whose
# exponents lie up to 40 (f32) or 60 (f64) binades apart
for _tag in ("f32", "f64"):
    _path = f"instances/dense/{_tag}.json"
    for _alg in ("iterative", "pairwise", "kahan"):
        REPLAY_CASES[f"sum-dense_{_tag}-{_alg}"] = [
            "sum", "--in", _path, "--method", _alg]
    REPLAY_CASES[f"sum-dense_{_tag}-permute"] = [
        "sum", "--in", _path, "--transform", "permute:7"]
# the shift, then a cut: the offset adds back the count summed, 2
REPLAY_CASES["sum-dense_f10_5-shift-truncate"] = [
    "sum", "--in", "instances/dense/f10_5.json", "--transform", "shift",
    "--transform", "truncate:2"]
for _alg in ("iterative", "kahan"):
    REPLAY_CASES[f"sum-dense_f10_5-{_alg}-toward_neg"] = [
        "sum", "--in", "instances/dense/f10_5.json", "--method", _alg,
        "--rounding", "toward_neg"]
REPLAY_CASES["verify-rr1_10_5-kahan-toward_pos"] = [
    "attack", "verify", "--instance", "instances/rr1_10_5", "--method",
    "kahan", "--rounding", "toward_pos"]
REPLAY_EXIT = {name: 3 for name in (
    "verify-sr16-pairwise", "verify-sr16-split", "verify-fr10_5-pairwise",
    "verify-fr10_5-kahan", "verify-fr10_5-split", "verify-ro10_5-split",
    "verify-rr1_10_5-pairwise", "verify-rr1_10_5-kahan",
    "verify-rr1_10_5-split", "verify-rr1_10_5-kahan-toward_pos",
    "verify-rr2_4_6-pairwise", "verify-rr2_4_6-kahan",
    "verify-rr2_4_6-split", "verify-rr2_10_5-pairwise",
    "verify-rr2_10_5-kahan", "verify-rr2_10_5-split")}
# the exact sum releases the idealized sums, below every predicted gap
REPLAY_EXIT.update((f"verify-{_tag}-exact", 3) for _tag in GEN_CASES)

# numpy builds may differ in the last digits of the log-sum-exp
_LOG2_BOUND = re.compile(r'"log2_probability_bound": (\S+?),\n')


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def _refusal_stderr(name) -> str:
    argv, exit_code = REFUSAL_CASES[name]
    buf = io.StringIO()
    with _in_golden(), contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(buf):
        code = main(argv)
    assert code == exit_code
    assert out.getvalue() == ""
    return buf.getvalue()


def _stdout(argv) -> str:
    code, out = _run(argv)
    assert code == 0
    return out


@contextlib.contextmanager
def _in_golden():
    saved = os.getcwd()
    os.chdir(GOLDEN)
    try:
        yield
    finally:
        os.chdir(saved)


def _mechanism_stdout(name) -> str:
    argv, exit_code = MECHANISM_CASES[name]
    with _in_golden():
        code, out = _run(argv)
    assert code == exit_code
    return out


def _replay_stdout(name) -> str:
    with _in_golden():
        code, out = _run(REPLAY_CASES[name])
    assert code == REPLAY_EXIT.get(name, 0)
    return out


def _gen_outputs(name, out_dir: Path) -> dict:
    """``attack gen`` of one GEN_CASES pair into ``out_dir``: its report
    and the two datasets, by file name."""
    code, out = _run(["attack", "gen", *GEN_CASES[name],
                      "--out", str(out_dir)])
    assert code == 0
    return {"instance.json": out,
            **{f: (out_dir / f).read_text(encoding="utf-8")
               for f in ("u.json", "v.json")}}


@mark.parametrize("name", sorted(CASES))
def test_report_is_byte_identical(name):
    expected = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert _stdout(CASES[name]) == expected


@mark.parametrize("name", sorted(MECHANISM_CASES))
def test_mechanism_report_is_byte_identical(name):
    expected = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    got = _mechanism_stdout(name)
    want_bounds = [float(x) for x in _LOG2_BOUND.findall(expected)]
    got_bounds = [float(x) for x in _LOG2_BOUND.findall(got)]
    assert len(got_bounds) == len(want_bounds)
    for g, w in zip(got_bounds, want_bounds):
        assert math.isclose(g, w, rel_tol=1e-12), (g, w)
    blank = '"log2_probability_bound": _,\n'
    assert _LOG2_BOUND.sub(blank, got) == _LOG2_BOUND.sub(blank, expected)


@mark.parametrize("name", sorted(REPLAY_CASES))
def test_replay_report_is_byte_identical(name):
    expected = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert _replay_stdout(name) == expected


@mark.parametrize("name", sorted(GEN_CASES))
def test_attack_gen_is_byte_identical(name, tmp_path):
    for fname, text in _gen_outputs(name, tmp_path).items():
        expected = GOLDEN / "instances" / name / fname
        assert text == expected.read_text(encoding="utf-8"), fname


@mark.parametrize("name", sorted(REFUSAL_CASES))
def test_refusal_is_byte_identical(name):
    expected = (GOLDEN / f"{name}.err").read_text(encoding="utf-8")
    assert _refusal_stderr(name) == expected


# one command of each kind -> (argv, exit code, the file --out writes)
OUT_CASES = {
    "sum": (REPLAY_CASES["sum-dense_f10_5-kahan"], 0, "sum.json"),
    "sens bound": (CASES["bound-id-split"], 0, "bound.json"),
    "sens bruteforce": (CASES["bruteforce-float23-n3-sym-iterative"], 0,
                        "bruteforce.json"),
    "sens recommend": (CASES["recommend-float10_5-ham-n1000"], 0,
                       "recommend.json"),
    "attack gen": (["attack", "gen", *GEN_CASES["ov16"]], 0,
                   "instance.json"),
    "attack verify": (REPLAY_CASES["verify-ov16-native"], 0, "verify.json"),
    "experiment run": (*MECHANISM_CASES["experiment-rr2-laplace"],
                       "experiment.json"),
    "dpcheck exact": (*MECHANISM_CASES["dpcheck-ov8-clamped-idealized"],
                      "dpcheck.json"),
}


@mark.parametrize("name", sorted(OUT_CASES))
def test_out_copy_is_stdout_and_stamp_reads_the_clock(name, tmp_path):
    argv, exit_code, filename = OUT_CASES[name]
    before = datetime.now(timezone.utc).replace(microsecond=0)
    with _in_golden():
        code, out = _run([*argv, "--out", str(tmp_path), "--stamp"])
    after = datetime.now(timezone.utc)
    assert code == exit_code
    assert (tmp_path / filename).read_bytes() == out.encode("utf-8")
    stamp = json.loads(out)["manifest"]["timestamp"]
    when = datetime.strptime(stamp, "%Y-%m-%dT%H:%M:%SZ")
    assert before <= when.replace(tzinfo=timezone.utc) <= after
    assert stamp != "1970-01-01T00:00:00Z"


def test_an_abbreviated_option_is_refused(capsys):
    # a unique prefix of a long option is not that option: ``--m`` would
    # otherwise run as ``--method``
    with _in_golden(), raises(SystemExit) as refused:
        main(["sum", "--in", "instances/dense/f10_5.json", "--m", "kahan"])
    assert refused.value.code == 2
    assert "--m" in capsys.readouterr().err


def test_every_golden_file_has_a_command():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(
        [*CASES, *MECHANISM_CASES, *REPLAY_CASES])
    assert sorted(p.stem for p in GOLDEN.glob("*.err")) == sorted(
        REFUSAL_CASES)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in sorted(CASES.items()):
        (GOLDEN / f"{name}.json").write_text(_stdout(argv), encoding="utf-8")
    for name in sorted(MECHANISM_CASES):
        (GOLDEN / f"{name}.json").write_text(_mechanism_stdout(name),
                                             encoding="utf-8")
    for name in sorted(REFUSAL_CASES):
        (GOLDEN / f"{name}.err").write_text(_refusal_stderr(name),
                                            encoding="utf-8")
    for name in sorted(GEN_CASES):
        target = GOLDEN / "instances" / name
        target.mkdir(parents=True, exist_ok=True)
        # instance.json is the report itself
        _gen_outputs(name, target)
    for name in sorted(REPLAY_CASES):
        (GOLDEN / f"{name}.json").write_text(_replay_stdout(name),
                                             encoding="utf-8")
    sys.stdout.write(f"wrote {len(CASES) + len(MECHANISM_CASES)} reports, "
                     f"{len(GEN_CASES)} attack pairs, "
                     f"{len(REPLAY_CASES)} replays "
                     f"and {len(REFUSAL_CASES)} refusals to {GOLDEN}\n")

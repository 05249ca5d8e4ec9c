"""The command line across calls: which modules each command imports,
the package's lazy exports, one parser reused by every ``main`` call, and
flags the parser itself refuses."""

import contextlib
import copy
import importlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from hypothesis import given, settings
from hypothesis.strategies import (booleans, data, fractions, integers,
                                   just, sampled_from, tuples)
from pytest import mark, raises

import boundedsum
from boundedsum import (FLOAT32, Dataset, FloatFormat, IntFormat, KInt,
                        SimFloat, cli, parse_value, save_dataset)
from boundedsum.data import MATERIALIZE_LIMIT
from boundedsum.floats import parse_number
from boundedsum.cli import main
from test_golden import CASES, MECHANISM_CASES, REPLAY_CASES, _in_golden

SRC = Path(__file__).resolve().parents[1] / "src"
INSTANCES = Path(__file__).with_name("golden") / "instances"
DENSE = str(INSTANCES / "dense" / "f10_5.json")


def _run(argv):
    """``main(argv)`` in this process: (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# Imports: each command loads only the modules it runs
# ---------------------------------------------------------------------------

_PROBE = """\
import contextlib, io, sys
import boundedsum, boundedsum.cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()), \\
            contextlib.suppress(SystemExit):
        boundedsum.cli.main(sys.argv[1:])
print(*sorted(name for name in sys.modules
              if name.partition(".")[0] == "boundedsum"
              or name in ("numpy", "mpmath", "scipy")))
"""


def _package(*names):
    return {"boundedsum", "boundedsum.cli",
            *(f"boundedsum.{name}" for name in names)}


# the modules each kind of command loads; scipy is in none of them
_PARSER = _package()
_SUM = _package("data", "dyadic", "floats", "ints", "summation")
_SENS = _SUM | _package("sensitivity")
_ATTACK = _SENS | _package("attacks", "metrics")

# argv -> the modules a fresh interpreter holds after running it
IMPORT_CASES = [
    ([], _PARSER),
    (["--version"], _PARSER),
    (["sum", "--help"], _PARSER),
    # a refusal of the parser's own: --in is missing
    (["sum"], _PARSER),
    (["sum", "--in", DENSE], _SUM),
    (["sum", "--method", "pairwise", "--transform", "permute:1", "--in",
      DENSE], _SUM),
    (["attack", "gen", "--theorem", "overflow", "--bits", "8", "--upper",
      "1"], _ATTACK),
    (["attack", "verify", "--instance", str(INSTANCES / "ov16")], _ATTACK),
    (["sens", "bound", "--format", "int:8:signed:saturating", "--lower",
      "-4", "--upper", "3", "--metric", "sym"], _SENS),
    (["sens", "recommend", "--format", "float:10,5", "--lower", "-1",
      "--upper", "1", "--metric", "ham", "--n", "1000"], _SENS),
    (["dpcheck", "exact", "--u", str(INSTANCES / "ov8" / "u.json"),
      "--v", str(INSTANCES / "ov8" / "v.json"), "--epsilon", "1",
      "--noise", "discrete_laplace_mod", "--calibrate", "modular"],
     _SENS | _package("mechanism") | {"mpmath"}),
    (["sens", "bruteforce", "--format", "int:4:signed:wraparound",
      "--lower", "-4", "--upper", "3", "--metric", "ham", "--n", "2"],
     _SENS | _package("bruteforce") | {"numpy"}),
    (["experiment", "run", "--instance", str(INSTANCES / "ov8"), "--trials",
      "20", "--seed", "1", "--calibrate", "idealized", "--epsilon", "1"],
     _ATTACK | _package("mechanism") | {"numpy", "mpmath"}),
]


@mark.parametrize("argv,modules", IMPORT_CASES,
                  ids=[" ".join(a[:2]) or "import" for a, _ in IMPORT_CASES])
def test_a_command_loads_only_the_modules_it_uses(argv, modules, tmp_path):
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _PROBE, *argv],
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.split()) == modules


# the package's exports by owning module, in ``__all__``'s order
EXPORTS = {
    "data": [
        "Dataset", "ElementFormat", "Value", "encode_value", "decode_value",
        "exact_value", "format_to_json", "format_from_json", "load_dataset",
        "save_dataset"],
    "dyadic": ["Dyadic", "floor_log2_fraction"],
    "floats": [
        "FloatFormat", "SimFloat", "InvalidOperation", "FLOAT32", "FLOAT64",
        "ROUNDING_MODES", "is_representable", "round_dyadic", "add_float",
        "parse_value"],
    "ints": ["IntFormat", "KInt", "add_int"],
    "metrics": ["INFINITE", "histogram", "d_sym", "d_co", "d_ham", "d_id"],
    "summation": [
        "SumMethod", "SumOutcome", "Truncate", "RandomPermutation",
        "ShiftBounds", "bs_exact", "bs_iterative", "bs_pairwise", "bs_kahan",
        "bs_split", "run_sum", "truncate", "random_permutation",
        "check_multiplication", "float_overflow_check",
        "PERMUTATION_ALGORITHM", "ALGORITHMS"],
    "sensitivity": [
        "METRICS", "SensSpec", "SensitivityBound", "BruteForceResult",
        "Recommendation", "PreconditionFailed", "UnsupportedCombination",
        "idealized_sensitivity", "modular_sensitivity_bound",
        "accuracy_bound", "implemented_sensitivity_bound",
        "brute_force_sensitivity", "recommend", "KAHAN_ACCURACY_CONSTANT"],
    "attacks": [
        "AttackInstance", "VerificationReport", "ATTACK_NAMES",
        "overflow_attack", "saturation_reorder_attack",
        "float_reorder_attack", "rounding_attack",
        "repeated_rounding_attack_1", "repeated_rounding_attack_2",
        "verify_attack"],
    "mechanism": [
        "NOISE_KINDS", "MechanismSpec", "ExperimentReport", "ExactDPReport",
        "rational_alpha", "calibrate", "run_mechanism",
        "distinguishing_experiment", "dp_violation_log2_bound",
        "exact_dp_check", "certified_leq_exp", "VERDICT_CUTOFF_LOG2",
        "SUPPORT_LIMIT"],
}


def test_the_lazy_package_exports_each_name_of_its_module():
    assert boundedsum.__all__ == ["__version__",
                                  *(n for names in EXPORTS.values()
                                    for n in names)]
    namespace = {}
    exec("from boundedsum import *", namespace)
    assert set(boundedsum.__all__) <= namespace.keys()
    for module, names in EXPORTS.items():
        owner = importlib.import_module(f"boundedsum.{module}")
        for name in names:
            assert namespace[name] is getattr(owner, name), name
            assert getattr(boundedsum, name) is namespace[name], name
    with raises(AttributeError):
        boundedsum.no_such_name


# ---------------------------------------------------------------------------
# One parser per process
# ---------------------------------------------------------------------------

def test_the_reused_parser_gives_each_command_its_first_report(
        tmp_path, monkeypatch):
    # ``attack gen`` writes into ``--out``, default ``.``; every other
    # command's ``--out`` defaults to None, so a default that leaked from
    # one call to the next would write a second copy of a sum report
    monkeypatch.chdir(tmp_path)
    gen = ["attack", "gen", "--theorem", "overflow", "--bits", "8",
           "--upper", "1"]
    total = ["sum", "--in", DENSE, "--method", "kahan"]
    first = {}
    for argv in (gen, total):
        cli._parser.cache_clear()
        first[tuple(argv)] = _run(argv)
    cli._parser.cache_clear()
    for argv in (gen, total, gen):
        assert _run(argv) == first[tuple(argv)]
    assert cli._parser.cache_info().misses == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "instance.json", "u.json", "v.json"]


# ---------------------------------------------------------------------------
# Flags
# ---------------------------------------------------------------------------

_EXPERIMENT = ["experiment", "run", "--instance", str(INSTANCES / "ov8"),
               "--trials", "200", "--seed", "7", "--calibrate", "idealized"]


@mark.parametrize("flag", ["--epsilon", "--threshold"])
def test_a_zero_denominator_is_refused_by_the_parser(flag, capsys):
    with raises(SystemExit) as exc:
        main(_EXPERIMENT + ["--epsilon", "1", flag, "1/0"])
    assert exc.value.code == 2
    assert f"{flag}: invalid _fraction value: '1/0'" in capsys.readouterr().err


@mark.parametrize("factor", ["1", "1/5"])
def test_a_zero_epsilon_is_refused_by_name(factor, capsys):
    # a mis-scaled calibration divided by epsilon before the spec saw it
    code, out = _run(_EXPERIMENT + ["--epsilon", "0", "--scale-factor",
                                    factor])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "error: epsilon must be positive\n"


@mark.parametrize("seed", ["1_0", "+7", " 7", "\u0667"])
def test_a_seed_has_one_int_spelling(seed, capsys):
    # --seed reads ints as the dataset files and --transform permute:SEED do
    with raises(SystemExit) as exc:
        main(_EXPERIMENT + ["--epsilon", "1", "--seed", seed])
    assert exc.value.code == 2
    assert f"--seed: invalid _seed64 value: {seed!r}" in \
        capsys.readouterr().err


def _bound(fmt="float:10,5", n="4"):
    return ["sens", "bound", "--format", fmt, "--lower", "-1", "--upper", "1",
            "--metric", "ham", "--n", n]


def _gen(upper):
    return ["attack", "gen", "--theorem", "saturation_reorder", "--bits",
            "16", "--lower", "-16", "--upper", upper]


@mark.parametrize("plain, refused", [
    # epsilon 710 makes the table consistent, so the plain run exits 0
    (_EXPERIMENT + ["--epsilon", "710", "--trials", "1000"],
     _EXPERIMENT + ["--epsilon", "710", "--trials", "1_000"]),
    (_bound(n="4"), _bound(n="+4")),
    (_bound(fmt="float:10,5"), _bound(fmt="float:1_0,\u0665")),
    (_bound(fmt="int:8:signed:wraparound"),
     _bound(fmt="int: 8:signed:wraparound")),
    (_gen("16"), _gen("+16")),
])
def test_an_int_flag_has_one_spelling(plain, refused, tmp_path, capsys):
    # integer flags and format fields read ints as the dataset files,
    # --seed and truncate:N do: one ASCII decimal spelling, minus allowed
    def exit_code(argv):
        try:
            return _run(argv + ["--out", str(tmp_path)])[0]
        except SystemExit as exc:       # refused by the parser
            return exc.code

    assert exit_code(refused) == 2
    err = capsys.readouterr().err
    assert "invalid _decimal value" in err or "not a decimal integer" in err
    assert exit_code(plain) == 0


@mark.parametrize("epsilon", ["710", "1e400"])
def test_an_experiment_past_the_double_range_reports_its_verdict(epsilon):
    # at epsilon 1 this pair is a certain violation (see the golden
    # experiment-ov8-clamped-idealized); here e^epsilon is past the largest
    # double and the table is consistent with the claim
    code, out = _run(_EXPERIMENT + ["--epsilon", epsilon])
    report = json.loads(out)
    assert report["log2_probability_bound"] == 0.0
    assert report["verdict"] == "consistent-with-epsilon"
    assert code == 0


@mark.parametrize("flag, text", [("--lower", "+0.5"), ("--lower", " -1"),
                                 ("--upper", "1_0"), ("--upper", "+inf")])
def test_a_bound_flag_has_one_float_spelling(flag, text, capsys):
    argv = {"--lower": "-1", "--upper": "1", flag: text}
    code, out = _run(["sens", "bound", "--format", "float:10,5", "--lower",
                      argv["--lower"], "--upper", argv["--upper"],
                      "--metric", "ham", "--n", "4"])
    assert code == 2 and out == ""
    assert f"{text!r} is not a float literal" in capsys.readouterr().err
    code, _ = _run(["sens", "bound", "--format", "float:10,5", "--lower",
                    "-1", "--upper", "1", "--metric", "ham", "--n", "4"])
    assert code == 0


# number texts whose exponent is past every format's range
_HUGE_EXPONENTS = ["1e10000000", "-1e-10000000", "0e10000000",
                   "1*2^100000000000", "1*2^-100000000000"]
_OV8 = INSTANCES / "ov8"


def _number_argv(place, text, tmp_path):
    """A command that reads ``text`` at ``place``: a file's element, the
    --lower flag, the --epsilon flag or the instance's fraction field
    ``place``.  A flag's value follows ``=``, so that the parser reads
    ``-1e-5`` as one."""
    if place == "element":
        doc = json.loads(Path(DENSE).read_text())
        doc["elements"][0] = text
        path = tmp_path / "element.json"
        path.write_text(json.dumps(doc))
        return ["sum", "--in", str(path)]
    if place == "--lower":
        return ["sens", "bound", "--format", "float:10,5", f"--lower={text}",
                "--upper", "1", "--metric", "ham", "--n", "4"]
    if place == "--epsilon":
        return ["dpcheck", "exact", "--u", str(_OV8 / "u.json"), "--v",
                str(_OV8 / "v.json"), f"--epsilon={text}", "--calibrate",
                "idealized"]
    doc = json.loads((_OV8 / "instance.json").read_text())
    doc["instance"][place] = text
    (tmp_path / "instance.json").write_text(json.dumps(doc))
    return ["attack", "verify", "--instance", str(tmp_path)]


def _exit_code(argv):
    """``main(argv)``'s exit code, the parser's refusal included, with
    its stdout and stderr dropped."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


@mark.parametrize("place, text, code", [
    *((place, text, 2) for text in _HUGE_EXPONENTS
      for place in ("element", "--lower", "--epsilon", "predicted_u")),
    # the texts that read before still read, to the same value: an exit 2
    # here is the command's refusal of the value, not of its text (-inf is
    # no finite bound, and 10 is above --upper 1)
    ("--lower", "1e1", 2), ("--lower", "-1.75", 0), ("--lower", "-5/2", 0),
    ("--lower", "-1*2^-11", 0), ("--lower", "-inf", 2),
    ("--epsilon", "1e400", 0), ("--epsilon", "5/2", 3),
    ("--epsilon", "1.75", 3), ("predicted_gap", "255", 0),
    ("predicted_gap", "2.55e2", 0), ("predicted_gap", "511/2", 3),
    ("element", "0.75", 0), ("element", "-1*2^-11", 0)])
def test_a_number_text_is_read_or_refused_at_once(place, text, code,
                                                  tmp_path):
    # a text whose exponent is past every format's range is refused before
    # its power is built, wherever a number is read
    argv = _number_argv(place, text, tmp_path)
    start = time.perf_counter()
    assert _exit_code(argv) == code
    assert time.perf_counter() - start < 1


def test_a_sum_past_sys_maxsize_elements_reports_its_count(tmp_path):
    # ``len()`` of a dataset stops at sys.maxsize; the report's n does not
    fmt = IntFormat(8, True, "saturating")
    count = 1 << 70
    path = tmp_path / "huge.json"
    save_dataset(Dataset(fmt, KInt(fmt, -1), KInt(fmt, 1),
                         [(KInt(fmt, 1), count)]), path)
    code, out = _run(["sum", "--in", str(path)])
    report = json.loads(out)
    assert code == 0
    assert (report["n"], report["value"]) == (count, "127")


def test_a_permutation_past_the_limit_is_refused_at_once(tmp_path, capsys):
    # one run of MATERIALIZE_LIMIT + 1 copies: refused before a code is
    # listed, in the words of the couplings' refusal of the same limit
    one = parse_value(FLOAT32, "1")
    path = tmp_path / "long.json"
    save_dataset(Dataset(FLOAT32, one, one, [(one, MATERIALIZE_LIMIT + 1)]),
                 path)
    start = time.perf_counter()
    code = main(["sum", "--in", str(path), "--transform", "permute:1"])
    assert time.perf_counter() - start < 2
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: refusing to materialize {MATERIALIZE_LIMIT + 1} elements; "
        "use the run-aware paths\n")


def test_an_exact_sum_past_the_digit_guard_reports_its_value(tmp_path):
    # float(236, 19)'s largest value plus its smallest subnormal: the exact
    # sum's numerator has some 158,000 digits, past str()'s 4,300
    fmt = FloatFormat(236, 19)
    _, _, _, _, inf = fmt._kernel
    tiny, top = SimFloat(fmt, 1), SimFloat(fmt, inf - 1)
    path = tmp_path / "wide.json"
    save_dataset(Dataset(fmt, SimFloat(fmt, 0), top, [(tiny, 1), (top, 1)]),
                 path)
    code, out = _run(["sum", "--in", str(path), "--method", "exact"])
    report = json.loads(out)
    assert code == 0 and report["value"] == report["exact"]
    assert parse_number(report["exact"]) == (tiny.to_fraction()
                                             + top.to_fraction())


@mark.parametrize("instance", ["ov8", [1], 3])
def test_an_instance_file_whose_instance_is_no_object_is_refused(
        instance, tmp_path, capsys):
    doc = json.loads((INSTANCES / "ov8" / "instance.json").read_text())
    doc["instance"] = instance
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    code, out = _run(["attack", "verify", "--instance", str(path)])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == (
        f"error: instance file field 'instance' must be dict, "
        f"not {instance!r}\n")


# ---------------------------------------------------------------------------
# Mutated files: every input gets a report or a named refusal
# ---------------------------------------------------------------------------

# Python's own wording of a fault, which names no field of the file
_PYTHON_PHRASINGS = ("object is not subscriptable",
                     "cannot be interpreted as an integer",
                     "indices must be integers", "is not iterable",
                     "Invalid literal for", "has no attribute")

# what a mutated place becomes: other JSON types, edge values and texts,
# each a fresh copy, since a second mutation may change the first in place
_MUTANTS = sampled_from([
    None, True, False, 0, -1, 1, 3, 1 << 70, 2.0, 0.5, "", "x", "-", "/",
    "3", "1/0", "-0", "0x7c00", "inf", "sym", [], [1], ["x"], {},
    {"count": 1}, {"kind": "truncate"}]).map(copy.deepcopy)
_DELETE = object()

# command -> (golden files its mutant may come from, a drawn argv tail);
# each argv names its one mutated file through the placeholder FILE (an
# instance directory, or a dataset), and dpcheck's pair through U and V
_METHODS = sampled_from([[], ["--method", "pairwise"], ["--method", "kahan"],
                         ["--method", "split"], ["--method", "exact"],
                         ["--rounding", "toward_neg"]])
_MUTATED_COMMANDS = {
    "sum": (["dense/f10_5.json", "dense/f32.json",
             "dense/i16-wraparound.json", "ov8/u.json", "rr2_4_6/u.json",
             "sr16/v.json"],
            tuples(_METHODS, sampled_from(
                [[], ["--transform", "shift"], ["--transform", "truncate:2"],
                 ["--transform", "permute:7"]])).map(
                lambda mt: ["sum", "--in", "FILE", *mt[0], *mt[1]])),
    "attack verify": (["ov8/instance.json", "rr2_4_6/instance.json",
                       "fr10_5/instance.json", "sr16/instance.json"],
                      _METHODS.map(lambda m: ["attack", "verify",
                                              "--instance", "FILE", *m])),
    "dpcheck exact": (["ov8/u.json", "ov8/v.json", "mid8/u.json",
                       "mid8/v.json"],
                      sampled_from([
                          ["--calibrate", "idealized"],
                          ["--noise", "discrete_laplace_mod", "--calibrate",
                           "modular"],
                          ["--scale", "40", "--metric", "ham"]]).map(
                          lambda c: ["dpcheck", "exact", "--u", "U", "--v",
                                     "V", "--epsilon", "1", *c])),
    "experiment run": (["ov8/instance.json", "ov6/instance.json"],
                       sampled_from([
                           ["--calibrate", "idealized"],
                           ["--noise", "discrete_laplace_mod",
                            "--calibrate", "modular"]]).map(
                           lambda c: ["experiment", "run", "--instance",
                                      "FILE", "--trials", "20", "--seed",
                                      "1", "--epsilon", "1", *c])),
}


def _places(doc, path=()):
    """Every place in a JSON document: the root, each field of an object
    and each item of a list, as the keys that lead to it."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict)
                           else enumerate(doc)):
            yield from _places(value, path + (key,))


def _mutate(doc, path, value):
    """``doc`` with the place at ``path`` set to ``value``, or deleted for
    ``_DELETE``; a deleted root is the document wrapped in a list."""
    if not path:
        return [doc] if value is _DELETE else value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@given(command=sampled_from(sorted(_MUTATED_COMMANDS)), data=data())
@settings(max_examples=300, deadline=None)
def test_a_mutated_file_gets_a_report_or_one_named_refusal(command, data):
    """A committed file with one or two places replaced or deleted, run
    through a command that reads it: a report (exit 0 or 3) with nothing
    on stderr, or one ``error:`` line in the program's own words (exit
    2).  Anything else, a traceback included, is a fault.  The file is
    written compact or in save_dataset's spelling, the one a dense float
    file is read from in bulk."""
    sources, argvs = _MUTATED_COMMANDS[command]
    source = data.draw(sampled_from(sources), label="source")
    doc = json.loads((INSTANCES / source).read_text())
    for _ in range(data.draw(integers(1, 2), label="mutations")):
        path = data.draw(sampled_from(list(_places(doc))), label="place")
        doc = _mutate(doc, path, data.draw(_MUTANTS | just(_DELETE),
                                           label="value"))
    argv = data.draw(argvs, label="argv")
    with tempfile.TemporaryDirectory() as tmp:
        mutated = Path(tmp) / source
        mutated.parent.mkdir()
        if data.draw(booleans(), label="writer's spelling"):
            mutated.write_text(json.dumps(doc, indent=2, sort_keys=True)
                               + "\n")
        else:
            mutated.write_text(json.dumps(doc))
        # a pair's other side is its committed file
        side = (INSTANCES / source).with_name
        files = {"FILE": mutated.parent if source.endswith("instance.json")
                 else mutated,
                 "U": mutated if source.endswith("u.json") else side("u.json"),
                 "V": mutated if source.endswith("v.json") else side("v.json")}
        argv = [str(files.get(a, a)) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3), (code, err.getvalue())
    if code != 2:
        # a report, and nothing said beside it
        assert err.getvalue() == "" and out.getvalue().startswith("{")
        return
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert not any(p in lines[0] for p in _PYTHON_PHRASINGS), lines[0]
    assert out.getvalue() == ""


# ---------------------------------------------------------------------------
# Mutated flags: every number flag gets a report or a named refusal
# ---------------------------------------------------------------------------

# number texts: other spellings of a value, edge values, values past a
# format's range and exponents past every format's
_NUMBER_TEXTS = [
    "0", "-0", "1", "-1", "2", "0.5", "-0.5", "1.75", "14", "16", "-16",
    "255", "65504", "1e38", "1e400", "1e-400", "1/2", "5/2", "-1/3", "1/0",
    "0/1", "1*2^-11", "3*2^-2", "1*2^15", "1*2^16", "1*2^524288",
    "1*2^-524288", "1e10000000", "-1e-10000000", "0e10000000",
    "1*2^100000000000", "1*2^-100000000000", "inf", "-inf", "Inf", "nan",
    "0x3c00", "0x7c00", "0xff", "-0x3c00", ".5", "1.", "+1", " 1", "1 ",
    "1_0", "٣", "x", "", "-", "/", "0.1", "1.00048828125"]
# int texts: other spellings, and edge values up to 10^60
_INT_SPELLINGS = ["-1", "+3", "1_0", " 3", "3.0", "٣", "", "x"]
_INT_TEXTS = _INT_SPELLINGS + [
    "0", "1", "2", "3", "4", "7", "8", "65536", "4294967296",
    "12345678901234567890", str(10 ** 60)]
_FORMATS = [
    "float:2,3", "float:1,2", "float:10,5", "float:23,8", "float:52,11",
    "float:236,19", "float:237,19", "float:2,20", "float:0,3", "float:2,1",
    "float:10,1000000", "float:100000,5", "float:2", "float:+2,3",
    "float: 2,3", "float:2,3,4", "int:1:signed:wraparound",
    "int:3:signed:saturating", "int:4:signed:wraparound",
    "int:4:unsigned:saturating", "int:8:unsigned:wraparound",
    "int:256:signed:saturating", "int:257:signed:wraparound",
    "int:0:signed:wraparound", "int:100000:signed:wraparound",
    "int:4:signed", "int:4:signed:bogus", "int:4:both:wraparound", "x", ""]
_TRANSFORMS = [
    "shift", "shift:1", "truncate:0", "truncate:1", "truncate:3",
    f"truncate:{10 ** 60}", "truncate:-1", "truncate:+3", "truncate:1_0",
    "truncate:", "permute:0", "permute:7", f"permute:{(1 << 64) - 1}",
    f"permute:{1 << 64}", "permute:-1", "bogus", ""]
_FLAG_VALUES = {
    **dict.fromkeys(["--lower", "--upper", "--epsilon", "--scale",
                     "--scale-factor", "--threshold"],
                    sampled_from(_NUMBER_TEXTS) | integers(
                        -(10 ** 60), 10 ** 60).map(str)
                    | fractions().map(str)),
    **dict.fromkeys(["--n", "--n-max"], sampled_from(_INT_TEXTS)
                    | integers(0, 10 ** 60).map(str)),
    # a long experiment is work, not a fault
    "--trials": sampled_from(_INT_SPELLINGS) | integers(0, 300).map(str),
    "--format": sampled_from(_FORMATS),
    "--transform": sampled_from(_TRANSFORMS),
}
# the golden commands that carry a flag above, run from tests/golden/
_FLAGGED_COMMANDS = sorted({
    tuple(argv) for argv in (*CASES.values(), *REPLAY_CASES.values(),
                             *(a for a, _ in MECHANISM_CASES.values()))
    if set(argv) & set(_FLAG_VALUES)})


@given(argv=sampled_from(_FLAGGED_COMMANDS), data=data())
@settings(max_examples=200, deadline=None)
def test_a_mutated_flag_gets_a_report_or_one_named_refusal(argv, data):
    """A golden command with one or two number-flag values replaced:
    within 2 s, a report (exit 0 or 3) with nothing on stderr, or a
    refusal (exit 2), in the parser's usage form or as one ``error:`` line
    in the program's own words.  Anything else, a traceback included, is a
    fault."""
    argv = list(argv)
    flags = [i for i, a in enumerate(argv) if a in _FLAG_VALUES]
    for _ in range(data.draw(integers(1, 2), label="mutations")):
        i = data.draw(sampled_from(flags), label="flag")
        argv[i + 1] = data.draw(_FLAG_VALUES[argv[i]], label=argv[i])
    # "--flag=value", so that a value that starts with "-" is read as one
    argv = [f"{a}={argv[i + 1]}" if i in flags else a
            for i, a in enumerate(argv) if i - 1 not in flags]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with _in_golden(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:   # the parser's refusal
            code = None if exc.code != 2 else "usage"
    assert time.perf_counter() - start < 2, " ".join(argv)
    if code == "usage":
        assert ": error: " in err.getvalue().splitlines()[-1], err.getvalue()
        return
    assert code in (0, 2, 3), (code, err.getvalue())
    if code != 2:
        assert err.getvalue() == "" and out.getvalue().startswith("{")
        return
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert not any(p in lines[0] for p in _PYTHON_PHRASINGS), lines[0]
    assert out.getvalue() == ""

"""The command line across calls: which commands import numpy and
mpmath, one parser reused by every ``main`` call, and flags the parser
itself refuses."""

import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis.strategies import data, integers, just, sampled_from, tuples
from pytest import mark, raises

from boundedsum import Dataset, IntFormat, KInt, cli, save_dataset
from boundedsum.cli import main

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
# Imports: numpy and mpmath load only in the commands that use them
# ---------------------------------------------------------------------------

_PROBE = """\
import contextlib, io, sys
import boundedsum, boundedsum.cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        boundedsum.cli.main(sys.argv[1:])
print(*sorted({"numpy", "mpmath"} & set(sys.modules)))
"""

# argv -> the heavy modules a fresh interpreter holds after running it
IMPORT_CASES = [
    ([], set()),
    (["sum", "--in", DENSE], set()),
    (["attack", "gen", "--theorem", "overflow", "--bits", "8", "--upper",
      "1"], set()),
    (["attack", "verify", "--instance", str(INSTANCES / "ov16")], set()),
    (["sens", "bound", "--format", "int:8:signed:saturating", "--lower",
      "-4", "--upper", "3", "--metric", "sym"], set()),
    (["sens", "recommend", "--format", "float:10,5", "--lower", "-1",
      "--upper", "1", "--metric", "ham", "--n", "1000"], set()),
    (["dpcheck", "exact", "--u", str(INSTANCES / "ov8" / "u.json"),
      "--v", str(INSTANCES / "ov8" / "v.json"), "--epsilon", "1",
      "--noise", "discrete_laplace_mod", "--calibrate", "modular"],
     {"mpmath"}),
    # the one command that needs numpy shows that the probe sees an import
    (["sens", "bruteforce", "--format", "int:4:signed:wraparound",
      "--lower", "-4", "--upper", "3", "--metric", "ham", "--n", "2"],
     {"numpy"}),
]


@mark.parametrize("argv,heavy", IMPORT_CASES,
                  ids=[" ".join(a[:2]) or "import" for a, _ in IMPORT_CASES])
def test_a_command_loads_only_the_modules_it_uses(argv, heavy, tmp_path):
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _PROBE, *argv],
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.split()) == heavy


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
    "sum": (["dense/f10_5.json", "dense/i16-wraparound.json", "ov8/u.json",
             "rr2_4_6/u.json", "sr16/v.json"],
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
    2).  Anything else, a traceback included, is a fault."""
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

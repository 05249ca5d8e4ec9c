"""The command line across calls: which commands import numpy and
mpmath, one parser reused by every ``main`` call, and flags the parser
itself refuses."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

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

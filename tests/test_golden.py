"""CLI reports pinned byte for byte.

Each file under ``tests/golden/`` is the stdout of one command below.
They cover the exhaustive sensitivity scan for every metric and the
certified float routes (accuracy, shift, truncation, split), so any change
in a value, a witness, a dataset count, a bound or a message shows up as
a changed byte.  When a report is meant to change, rewrite the files with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import contextlib
import io
import sys
from pathlib import Path

from pytest import mark

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


def _stdout(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return buf.getvalue()


@mark.parametrize("name", sorted(CASES))
def test_report_is_byte_identical(name):
    expected = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert _stdout(CASES[name]) == expected


def test_every_golden_file_has_a_command():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CASES)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in sorted(CASES.items()):
        (GOLDEN / f"{name}.json").write_text(_stdout(argv), encoding="utf-8")
    sys.stdout.write(f"wrote {len(CASES)} reports to {GOLDEN}\n")

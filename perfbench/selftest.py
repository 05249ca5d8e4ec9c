"""The benchmark's own tests: a smoke run of each workload at a tiny size.

Run from the root of a checkout (pytest does not collect this file by
default, so the package's test suite stays as it is)::

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import copy
import json
import signal
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run          # noqa: E402
import tracer       # noqa: E402
import workloads    # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
NAMES = [w["name"] for w in SPEC["workloads"]]


def smoke(name, trace=False, expected=None):
    return run.run(name, seed=7, seconds=0, trace=trace, smoke=True,
                   expected=expected)[0]


def test_spec_matches_the_code():
    assert sorted(NAMES) == sorted(workloads.BUILDERS)
    assert END_TO_END == run.END_TO_END_UNITS
    assert PER_LAYER == tracer.PER_LAYER_UNITS


@pytest.mark.parametrize("name", NAMES)
def test_every_end_to_end_metric_is_emitted(name):
    result = smoke(name)
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_wrong_expected_value_raises_the_error_rate(name):
    expected = copy.deepcopy(workloads.load_expected())
    expected["probe/bruteforce"]["value"] = "999"
    result = smoke(name, expected=expected)
    assert not result["correct"] and result["failed"] >= 1
    assert result["metrics"]["pass_rate"]["value"] < 1


def test_oracle_checks_catch_a_wrong_sum():
    workload = workloads.build("sum-dense", Path("unused"), 7, smoke=True)
    op = workload.ops[0]
    report = json.dumps({"value": op.expect["value"],
                         "exact": op.expect["exact"]})
    assert workloads.check(op, 0, report, {}) is None
    wrong = json.dumps({"value": "0x00000000", "exact": op.expect["exact"]})
    assert workloads.check(op, 0, wrong, {}) is not None
    assert workloads.check(op, 2, report, {}) is not None


def test_speed_clock_scales_a_call_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    clock = run.SpeedClock()
    result, scaled, seconds = clock.time(
        run.interpreter_loop, lambda: [run.interpreter_loop()
                                       for _ in range(300)])
    assert len(result) == 300
    assert scaled > 0 and seconds > 0 and len(clock.refs) >= 2
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def _package_namespaces():
    import boundedsum.data
    spaces = {n: dict(vars(m)) for n, m in sys.modules.items()
              if n == "boundedsum" or n.startswith("boundedsum.")}
    spaces["Dataset"] = dict(vars(boundedsum.data.Dataset))
    return spaces


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_emits_per_layer_metrics_and_restores(name):
    before = _package_namespaces()
    result = smoke(name, trace=True)
    after = _package_namespaces()
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == PER_LAYER
    assert before.keys() == after.keys()
    for space, names in before.items():
        for attr, value in names.items():
            assert after[space][attr] is value, f"{space}.{attr} not restored"

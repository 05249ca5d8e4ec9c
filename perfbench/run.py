"""Benchmark of the ``boundedsum`` CLI, end to end and layer by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sum-dense --seed 1 --seconds 20 --trace 0

Every op is one ``boundedsum.cli.main(argv)`` call in this process, with
stdout captured, so a timed op covers argument parsing, dataset file
I/O, the analysis and the JSON report.  Set-up starts the CLI in a fresh
interpreter and writes the workload's input files; it is repeated and
its median reported as ``setup_s``.  Repeated ops then fill
``--seconds`` (see ``run``), timed by a ``SpeedClock`` that scales out
the shared host's changing speed.  ``--trace 1`` runs every op once
untraced, then a traced build and pass, and reports the per-layer
metrics.

The last line of stdout is the result object; the line before it
records the seed, versions, ``nproc``, the run's mean speed factor and
whether the run was traced.  Ops that fail their check are listed on
stderr.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))      # the checkout's own package, not an install

import boundedsum                 # noqa: E402  (fails fast without src/)
import boundedsum.cli as cli      # noqa: E402
import workloads                  # noqa: E402
from tracer import Tracer         # noqa: E402

SETUP_REPEATS = 5
MAX_SAMPLES = 20
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s",
                    **{m: "s" for m in workloads.KINDS.values()},
                    "pass_rate": "ratio", "peak_rss_mb": "MB"}


def interpreter_loop() -> int:
    """Small rational and integer arithmetic and dict stores.

    Bytecode-bound work like that of the summation kernels, brute force
    and experiments.  Neither reference loop touches ``boundedsum``, so
    no change to the program can speed them up or slow them down.
    """
    acc, x, seen = Fraction(0), 1, {}
    for i in range(1, 80):
        acc += Fraction(x & 0xFFFF, (i << 3) | 1)
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        seen[x & 1023] = i
    return acc.denominator.bit_length() + len(seen)


_BIG_M, _BIG_X = 1 << 3000, 3 ** 1900


def bigint_loop() -> int:
    """Products, remainders and gcds of 3,000-bit integers.

    The work of exact rational PMF folding (``dpcheck``), which runs in
    C and is slowed about half as much as bytecode by a contended host.
    """
    a, g = _BIG_M + 12345, 0
    for _ in range(6):
        a = a * _BIG_X % _BIG_M
        g = math.gcd(a, _BIG_X)
    return g


# Each loop's nominal time: scaled times are seconds at that host speed.
REFERENCES = {interpreter_loop: 0.00025, bigint_loop: 0.00035}


def reference_for(kind: str):
    return bigint_loop if kind == "dpcheck" else interpreter_loop


class SpeedClock:
    """Times a call in seconds at a fixed host speed.

    Other tenants of a shared VM slow everything this process runs, by
    up to a half, in phases from a second to many minutes long, so the
    same call measures slower in one run than in the next.  While a
    call runs, an interval timer interrupts it every ``PERIOD`` seconds
    to time a reference loop.  The call's own time (minus those
    interruptions) is scaled by the loop's nominal time times the mean
    reciprocal of its measured times, taken before, during and after
    the call.  A phase in which the host runs everything 30% slower
    thus leaves the scaled time as it was, while a change to the
    program moves the call and not the loop.  The loop is the one whose
    work resembles the call's: contention slows bytecode and big-integer
    arithmetic by different amounts.
    """

    PERIOD = 0.02

    def __init__(self):
        self.loop = interpreter_loop
        self.refs = []
        self.inside = 0.0

    def _reference(self, *_) -> None:
        t0 = time.perf_counter()
        self.loop()
        dt = time.perf_counter() - t0
        self.refs.append(dt)
        self.inside += dt

    def time(self, loop, fn, *args):
        """``(fn(*args), scaled seconds, measured seconds)``."""
        self.loop, self.refs = loop, []
        self._reference()
        previous = signal.signal(signal.SIGALRM, self._reference)
        self.inside = 0.0
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            seconds = time.perf_counter() - t0 - self.inside
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self._reference()
        speed = statistics.fmean(REFERENCES[loop] / r for r in self.refs)
        return result, seconds * speed, seconds


def run_cli(argv):
    """One CLI call: (exit code, stdout, stderr).

    An op that crashes or exits is recorded as a failed op, not allowed
    to end the benchmark: its exit code is the ``SystemExit`` code, or
    -1 for an exception, whose traceback goes to the captured stderr.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            rc = -1
            traceback.print_exc()
    return rc, out.getvalue(), err.getvalue()


def cold_start() -> None:
    """A fresh interpreter importing the package and printing --version."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "boundedsum.cli", "--version"],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    if proc.returncode != 0 or not proc.stdout.startswith("boundedsum "):
        raise RuntimeError(f"cold start failed: {proc.stderr.strip()}")


def build_inputs(workload, inputs: Path) -> None:
    """Write every input file of the workload into a fresh directory."""
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    for argv in workload.gens:
        rc, _, err = run_cli(argv)
        if rc != 0:
            raise RuntimeError(f"{' '.join(argv)} failed: {err.strip()}")
    for write in workload.writers:
        write()


def run(name: str, seed: int, seconds: float, trace: bool,
        smoke: bool = False, expected=None):
    """Measure one workload; return the result object and host speed.

    Every op runs once.  Then, until the ``seconds`` deadline, an op of
    the command kind with the least time spent on it so far runs again:
    the op of that kind with the least time of its own, among those with
    fewer than ``MAX_SAMPLES`` samples whose median still fits.  Each
    kind's metric thus gets about the same share of the run, however
    many ops it sums; a kind measured by one short probe op gets many
    samples of it.  Samples of an op are spread over the whole run.
    Times are taken by the ``SpeedClock``; an op's time is the median
    of its samples, and ``wall_s`` sums those over the op list.
    """
    if expected is None:
        expected = workloads.load_expected()
    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    clock = SpeedClock()
    measured = []             # (scaled, measured) seconds of every op run

    def setup(workload, inputs):
        def steps():
            cold_start()
            build_inputs(workload, inputs)
        return clock.time(interpreter_loop, steps)[1]

    def run_op(op, failures):
        gc.collect()          # each op starts from the same collector state
        (rc, out, err), scaled, seconds_taken = clock.time(
            reference_for(op.kind), run_cli, op.argv)
        measured.append((scaled, seconds_taken))
        problem = workloads.check(op, rc, out, expected)
        if problem:
            last = err.strip().splitlines()[-1:]
            failures.append(f"{op.key}: {problem} {last}")
        return scaled

    try:
        workload = workloads.build(name, work / "inputs", seed, smoke)
        setups = [setup(workload, work / "inputs")
                  for _ in range(1 if smoke else SETUP_REPEATS)]
        # first calls of each command pay one-off costs: warm up untimed
        for op in workload.probe:
            run_cli(op.argv)

        ops = workload.ops + workload.probe
        failures = []
        deadline = time.perf_counter() + seconds
        samples = [[run_op(op, failures)] for op in ops]
        spent = collections.Counter()     # kind -> seconds spent on it
        for op, s in zip(ops, samples):
            spent[op.kind] += s[0]
        while not trace:
            now = time.perf_counter()
            fits = [i for i, s in enumerate(samples)
                    if len(s) < MAX_SAMPLES
                    and now + statistics.median(s) <= deadline]
            if not fits:
                break
            i = min(fits, key=lambda i: (spent[ops[i].kind],
                                         sum(samples[i])))
            samples[i].append(run_op(ops[i], failures))
            spent[ops[i].kind] += samples[i][-1]
        attempted = len(measured)
        op_times = [statistics.median(s) for s in samples]

        if trace:
            traced_workload = workloads.build(name, work / "traced-inputs",
                                              seed, smoke)
            traced_ops = traced_workload.ops + traced_workload.probe
            tracer = Tracer()
            tracer.install()
            try:
                build_inputs(traced_workload, work / "traced-inputs")
                traced_s = sum(run_op(op, failures) for op in traced_ops)
            finally:
                tracer.uninstall()
            attempted += len(traced_ops)
            metrics = tracer.metrics(traced_s / sum(op_times) - 1)
            write_trace(name, seed, tracer)
        else:
            metrics = end_to_end(ops, op_times, setups, attempted,
                                 len(failures))
        for failure in failures:
            print(f"FAILED {failure}", file=sys.stderr)
        speed = {"speed_factor": sum(m[0] for m in measured)
                 / sum(m[1] for m in measured)}
        return {"correct": not failures, "attempted": attempted,
                "failed": len(failures), "metrics": metrics}, speed
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.exists() and not any(work.parent.iterdir()):
            work.parent.rmdir()


def end_to_end(ops, op_times, setups, attempted, failed) -> dict:
    values = dict.fromkeys(workloads.KINDS.values(), 0.0)
    for op, seconds in zip(ops, op_times):
        values[workloads.KINDS[op.kind]] += seconds
    values.update({
        "setup_s": statistics.median(setups),
        "wall_s": sum(op_times),
        "pass_rate": (attempted - failed) / attempted,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


def write_trace(name: str, seed: int, tracer: Tracer) -> None:
    """Keep the aggregated span tree of a traced run next to the results."""
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    with open(out / f"trace-{name}-seed{seed}.json", "w",
              encoding="utf-8") as fh:
        json.dump(tracer.span_tree(), fh, indent=1)


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return None


def versions() -> dict:
    import mpmath
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "boundedsum": boundedsum.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, speed = run(args.workload, args.seed, args.seconds,
                        bool(args.trace))
    meta = {"workload": args.workload, "seed": args.seed,
            "traced": bool(args.trace), "commit": git_commit(),
            "versions": versions(), "nproc": len(os.sched_getaffinity(0)),
            **speed}
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps(result, sort_keys=True, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())

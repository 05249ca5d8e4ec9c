"""The four workloads: their input files, their op lists and the checks.

An op is one ``boundedsum`` CLI command.  Each workload is a fixed op list
(one *pass*) over input files that set-up writes through ``attack gen``
and ``save_dataset``.  The workload seed changes only what leaves the
amount of work the same: attack exponent offsets, the dense files'
values, permutation seeds and experiment master seeds.

Every workload also runs the same small *probe* ops, one or two of each
command kind, so that every end-to-end metric is measured on every
workload; the workload's own ops set what it stresses.

Ops are checked in one of two ways.  Ops with a closed form or an
independent oracle carry their expected fields in ``Op.expect``; all
other ops are compared with ``expected.json``, recorded at the commit
that added the benchmark (``record.py`` rewrites it).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional

import oracle
from boundedsum import (Dataset, Dyadic, FloatFormat, IntFormat, KInt,
                        round_dyadic, save_dataset)

KINDS = {"sum": "sum_s", "verify": "verify_s", "bruteforce": "bruteforce_s",
         "experiment": "experiment_s", "dpcheck": "dpcheck_s"}

EXPECTED_FILE = Path(__file__).resolve().parent / "expected.json"

F32, F64, F_HALF = (23, 8), (52, 11), (10, 5)


@dataclass
class Op:
    kind: str
    key: str                      # entry in expected.json
    argv: List[str]
    fields: Dict[str, str] = field(default_factory=dict)   # field -> codec
    scale: Fraction = Fraction(1)
    expect: Optional[Dict[str, str]] = None   # oracle values, "rc" included


@dataclass
class Workload:
    name: str
    gens: List[List[str]]                     # attack gen argv lists
    writers: List[Callable[[], None]]         # dense files via save_dataset
    ops: List[Op]                             # the workload's own ops
    probe: List[Op] = field(default_factory=list)


def load_expected() -> dict:
    with open(EXPECTED_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def check(op: Op, rc: int, out: str, expected: dict) -> Optional[str]:
    """None when the op's exit code and report match, else the reason."""
    want = op.expect if op.expect is not None else expected.get(op.key)
    if want is None:
        return f"no expected values for {op.key}"
    if str(rc) != want["rc"]:
        return f"exit code {rc}, expected {want['rc']}"
    try:
        report = json.loads(out)
        if op.kind == "experiment":
            counts, trials = report["counts"], report["trials"]
            if any(sum(counts[s].values()) != trials for s in ("u", "v")):
                return "experiment counts do not add up to the trials"
        for name, codec in op.fields.items():
            got = oracle.normalize(codec, report[name], op.scale)
            if got != want[name]:
                return f"{name}: got {got}, expected {want[name]}"
    except (ValueError, TypeError, KeyError, AttributeError) as exc:
        return f"malformed report: {exc!r}"
    return None


# ---------------------------------------------------------------------------
# Attack inputs
# ---------------------------------------------------------------------------

def _closed_form_gap(theorem: str, kl, p: dict) -> Fraction:
    """The attack's predicted gap, derived here from the construction."""
    two = Fraction(2)
    if theorem in ("overflow", "saturation_reorder"):
        return Fraction(2 ** p["bits"] - 1)
    k = kl[0]
    if theorem == "float_reorder":
        return two ** (k + 1 - p["a"] + p["j"])
    if theorem == "rounding":
        return two ** (p["j"] + p["m"] - k)
    if theorem == "repeated_rounding_1":
        return two ** (k + p["j"] + p["m"])
    n = 2 ** p["j"]
    return two ** p["a"] + Fraction(n * n) * two ** p["a"] / two ** (k + 3)


@dataclass
class Attack:
    """One attack pair: where it lives and how its values scale."""
    tag: str
    theorem: str
    kl: Optional[tuple]           # float (k, l); None for ints
    params: dict
    offset_name: Optional[str] = None
    offset: int = 0

    @property
    def all_params(self) -> dict:
        p = dict(self.params)
        if self.offset_name:
            p[self.offset_name] = self.offset
        return p

    @property
    def scale(self) -> Fraction:
        return Fraction(2) ** self.offset

    def gen(self, root: Path) -> List[str]:
        """``attack gen`` argv writing this pair under ``root``."""
        argv = ["attack", "gen", "--theorem", self.theorem,
                "--out", str(root / self.tag)]
        if self.kl:
            argv += ["--k", str(self.kl[0]), "--l", str(self.kl[1])]
        for name, value in self.all_params.items():
            argv += [f"--{name}", str(value)]
        return argv

    def native_verify(self, root: Path, prefix: str) -> Op:
        gap = str(_closed_form_gap(self.theorem, self.kl, self.all_params))
        return Op("verify", f"{prefix}/verify/{self.tag}",
                  ["attack", "verify", "--instance", str(root / self.tag)],
                  fields={"realized_gap": "rat", "predicted_gap": "rat",
                          "matches_prediction": "raw"},
                  expect={"rc": "0", "realized_gap": gap,
                          "predicted_gap": gap, "matches_prediction": "true"})

    def cross_verify(self, root: Path, prefix: str, method: str) -> Op:
        return Op("verify", f"{prefix}/verify/{self.tag}/{method}",
                  ["attack", "verify", "--instance", str(root / self.tag),
                   "--method", method],
                  fields={"realized_u": "rat", "realized_v": "rat",
                          "realized_gap": "rat", "matches_prediction": "raw"},
                  scale=self.scale)

    def sum_u(self, root: Path, prefix: str) -> Op:
        if self.kl:
            fields = {"value": "hex:%d,%d" % self.kl, "exact": "dyadic"}
        else:
            fields = {"value": "raw", "exact": "raw"}
        return Op("sum", f"{prefix}/sum/{self.tag}",
                  ["sum", "--in", str(root / self.tag / "u.json")],
                  fields=fields, scale=self.scale)


# ---------------------------------------------------------------------------
# Probe ops, shared by every workload
# ---------------------------------------------------------------------------

PROBE_PERMUTATION_SEED = 20220721
PROBE_EXPERIMENT_SEED = 1


def _probe(root: Path):
    rr2 = Attack("probe-rr2", "repeated_rounding_2", F32, {"j": 12, "a": 0})
    ov8 = Attack("probe-ov8", "overflow", None, {"bits": 8, "upper": 1})
    ops = [
        Op("sum", "probe/sum/permute",
           ["sum", "--in", str(root / rr2.tag / "u.json"),
            "--transform", f"permute:{PROBE_PERMUTATION_SEED}"],
           fields={"value": "hex:23,8", "exact": "dyadic"}),
        rr2.native_verify(root, "probe"),
        ov8.native_verify(root, "probe"),
        Op("bruteforce", "probe/bruteforce",
           ["sens", "bruteforce", "--format", "int:6:signed:saturating",
            "--lower", "-8", "--upper", "7", "--metric", "sym", "--n", "3"],
           fields={"value": "raw", "datasets": "raw"}),
        # U = 1 puts the releases 255 apart while a double-based
        # geometric draw never exceeds 37: the verdict cannot flip
        Op("experiment", "probe/experiment",
           ["experiment", "run", "--instance", str(root / ov8.tag),
            "--trials", "2000", "--seed", str(PROBE_EXPERIMENT_SEED),
            "--epsilon", "1", "--calibrate", "idealized"],
           fields={"verdict": "raw", "trials": "raw"}),
        Op("dpcheck", "probe/dpcheck",
           ["dpcheck", "exact", "--u", str(root / ov8.tag / "u.json"),
            "--v", str(root / ov8.tag / "v.json"), "--epsilon", "1",
            "--calibrate", "idealized"],
           fields={"max_ratio": "sha256", "satisfied": "raw"}),
    ]
    return [rr2.gen(root), ov8.gen(root)], ops


# ---------------------------------------------------------------------------
# attack-replay
# ---------------------------------------------------------------------------

def attack_replay(root: Path, seed: int, smoke: bool = False) -> Workload:
    rng = random.Random(f"attack-replay:{seed}")
    native = [
        Attack("ov32", "overflow", None, {"bits": 32, "upper": 1 << 20}),
        Attack("sr32", "saturation_reorder", None,
               {"bits": 32, "lower": -(1 << 20), "upper": 1 << 20}),
        Attack("fr32", "float_reorder", F32, {"a": 1, "d": 2}, "j"),
        Attack("fr64", "float_reorder", F64, {"a": 26, "d": 27}, "j"),
        Attack("ro32", "rounding", F32, {"j": 10}, "m"),
        Attack("ro64", "rounding", F64, {"j": 20}, "m"),
        Attack("r1-32", "repeated_rounding_1", F32, {"j": 20}, "m"),
        Attack("r1-64", "repeated_rounding_1", F64, {"j": 40}, "m"),
        Attack("r2-32", "repeated_rounding_2", F32, {"j": 12}, "a"),
        Attack("r2-64", "repeated_rounding_2", F64, {"j": 12}, "a"),
    ]
    # pairs of 4,096-8,192 elements replayed under the other algorithms
    cross = [
        (Attack("ro64x", "rounding", F64, {"j": 12}, "m"),
         ("pairwise", "kahan", "split")),
        (Attack("fr32x", "float_reorder", F32, {"a": 12, "d": 12}, "j"),
         ("pairwise", "kahan", "split")),
        (Attack("r1-half", "repeated_rounding_1", F_HALF, {"j": 4}, "m"),
         ("pairwise", "kahan", "split")),
        (Attack("ov16", "overflow", None, {"bits": 16, "upper": 16}),
         ("pairwise", "split")),
        (Attack("sr16", "saturation_reorder", None,
                {"bits": 16, "lower": -16, "upper": 16}),
         ("pairwise", "split")),
    ]
    for attack in native + [a for a, _ in cross]:
        if attack.offset_name:
            # float:10,5 tops out at 2^16: its ladder may only shift down
            hi = 0 if attack.kl == F_HALF else 8
            attack.offset = rng.randint(-8, hi)
    if smoke:
        native, cross = native[:1], cross[-1:]
    ops = [a.native_verify(root, "attack-replay") for a in native]
    for attack, methods in cross:
        ops += [attack.cross_verify(root, "attack-replay", m) for m in methods]
    everything = native + [a for a, _ in cross]
    ops += [a.sum_u(root, "attack-replay") for a in everything]
    return Workload("attack-replay", [a.gen(root) for a in everything], [],
                    ops)


# ---------------------------------------------------------------------------
# sum-dense
# ---------------------------------------------------------------------------

def _write_dataset(path: Path, fmt, lower, upper, values) -> None:
    save_dataset(Dataset.from_elements(fmt, lower, upper, values), path)


def _float_writer(path: Path, kl, values):
    def write():
        fmt = FloatFormat(*kl)

        def sim(fr):
            return round_dyadic(Dyadic.from_fraction(fr), fmt, "toward_zero")
        _write_dataset(path, fmt, sim(Fraction(-1)), sim(Fraction(1)),
                       [sim(v) for v in values])
    return write


def _int_writer(path: Path, overflow: str, values):
    def write():
        fmt = IntFormat(32, True, overflow)
        _write_dataset(path, fmt, KInt(fmt, -(1 << 30)),
                       KInt(fmt, (1 << 30) - 1), [KInt(fmt, v) for v in values])
    return write


DENSE_N = 2048


def sum_dense(root: Path, seed: int, smoke: bool = False) -> Workload:
    rng = random.Random(f"sum-dense:{seed}")
    n = 64 if smoke else DENSE_N
    perm_seed = rng.randrange(1 << 63)
    writers, ops = [], []

    def op(path, argv_tail, expect):
        key = f"sum-dense/{path.stem}/{' '.join(argv_tail)}"
        ops.append(Op("sum", key, ["sum", "--in", str(path), *argv_tail],
                      fields={"value": "raw", "exact": "raw"},
                      expect={"rc": "0", **expect}))

    for bits, kl, grid in ((32, F32, 20), (64, F64, 50)):
        values = oracle.dense_float_values(rng, n, grid)
        path = root / f"dense-f{bits}.json"
        writers.append(_float_writer(path, kl, values))
        for algorithm in ("iterative", "pairwise", "kahan", "split"):
            op(path, ["--method", algorithm],
               oracle.float_sum(values, bits, algorithm))
        op(path, ["--transform", f"permute:{perm_seed}"],
           oracle.float_sum(oracle.permuted(values, perm_seed), bits,
                            "iterative"))
        op(path, ["--transform", f"truncate:{n // 2}", "--method", "kahan"],
           oracle.float_sum(values[:n // 2], bits, "kahan"))
        op(path, ["--transform", "shift"],
           oracle.float_sum([v + 1 for v in values], bits, "iterative"))
    for overflow in ("wraparound", "saturating"):
        values = oracle.dense_int_values(rng, n)
        path = root / f"dense-i32-{overflow}.json"
        writers.append(_int_writer(path, overflow, values))
        for algorithm in ("iterative", "pairwise", "split"):
            op(path, ["--method", algorithm],
               oracle.int_sum(values, overflow, algorithm))
        if overflow == "wraparound":
            op(path, ["--transform", f"permute:{perm_seed}"],
               oracle.int_sum(oracle.permuted(values, perm_seed), overflow,
                              "iterative"))
            op(path, ["--transform", "shift"],
               oracle.int_sum([v + (1 << 30) for v in values], overflow,
                              "iterative"))
    return Workload("sum-dense", [], writers, ops)


# ---------------------------------------------------------------------------
# bruteforce-exhaustive
# ---------------------------------------------------------------------------

def bruteforce_exhaustive(root: Path, seed: int,
                          smoke: bool = False) -> Workload:
    # exhaustive enumeration has no free input: the seed changes nothing
    ops = []

    def op(fmt, lower, upper, metric, method):
        argv = ["sens", "bruteforce", "--format", fmt, "--lower", lower,
                "--upper", upper, "--metric", metric, "--n", "3",
                "--method", method]
        ops.append(Op("bruteforce", f"bruteforce/{fmt}/{metric}/{method}",
                      argv, fields={"value": "raw", "datasets": "raw"}))

    # A Latin square: every metric and every algorithm once.  All sixteen
    # pairs would make one pass longer than a run.
    for metric, method in (("ham", "iterative"), ("co", "pairwise"),
                           ("sym", "kahan"), ("id", "split")):
        op("float:2,3", "-1", "1", metric, method)
    # the probe ops add the saturating 6-bit policy
    op("int:6:signed:wraparound", "-12", "11", "ham", "iterative")
    if smoke:
        ops = ops[-1:]
    return Workload("bruteforce-exhaustive", [], [], ops)


# ---------------------------------------------------------------------------
# dp-audit
# ---------------------------------------------------------------------------

def dp_audit(root: Path, seed: int, smoke: bool = False) -> Workload:
    rng = random.Random(f"dp-audit:{seed}")
    ov8 = Attack("ov8", "overflow", None, {"bits": 8, "upper": 4})
    ov9 = Attack("ov9", "overflow", None, {"bits": 9, "upper": 4})
    ov16 = Attack("ov16", "overflow", None, {"bits": 16, "upper": 16})
    rr2 = Attack("r2-32", "repeated_rounding_2", F32, {"j": 12}, "a",
                 rng.randint(-8, 8))
    ops = []
    for attack in (ov8, ov9):
        for noise, rule in (("discrete_laplace", "idealized"),
                            ("discrete_laplace_mod", "modular")):
            ops.append(Op(
                "dpcheck", f"dp-audit/dpcheck/{attack.tag}/{noise}",
                ["dpcheck", "exact",
                 "--u", str(root / attack.tag / "u.json"),
                 "--v", str(root / attack.tag / "v.json"),
                 "--epsilon", "1", "--noise", noise, "--calibrate", rule],
                fields={"max_ratio": "sha256", "satisfied": "raw"}))
    # The int16 releases sit 65,535 apart and a double-based geometric
    # draw at scale 16 stays below 600, so every trial separates: the
    # verdict is a violation on every seed.
    ops.append(Op("experiment", "dp-audit/experiment/ov16",
                  ["experiment", "run", "--instance", str(root / ov16.tag),
                   "--trials", "5000", "--seed", str(rng.randrange(1 << 63)),
                   "--epsilon", "1", "--calibrate", "idealized"],
                  fields={"verdict": "raw", "trials": "raw"}))
    # At epsilon 2 even a perfectly separated 5-trial table has a log2
    # bound of -1.8, above the -6.6 cut-off: consistent on every seed.
    ops.append(Op("experiment", "dp-audit/experiment/r2-32",
                  ["experiment", "run", "--instance", str(root / rr2.tag),
                   "--trials", "5", "--seed", str(rng.randrange(1 << 63)),
                   "--epsilon", "2", "--noise", "laplace",
                   "--calibrate", "idealized"],
                  fields={"verdict": "raw", "trials": "raw"}))
    attacks = (ov8, ov9, ov16, rr2)
    if smoke:
        ops, attacks = ops[:1], (ov8,)
    return Workload("dp-audit", [a.gen(root) for a in attacks], [], ops)


BUILDERS = {
    "attack-replay": attack_replay,
    "sum-dense": sum_dense,
    "bruteforce-exhaustive": bruteforce_exhaustive,
    "dp-audit": dp_audit,
}


def build(name: str, root: Path, seed: int, smoke: bool = False) -> Workload:
    """The named workload with the probe ops added."""
    workload = BUILDERS[name](root, seed, smoke)
    gens, workload.probe = _probe(root)
    workload.gens += gens
    return workload

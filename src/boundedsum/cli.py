"""Command-line front end: sums, bounds, attacks, experiments, DP checks.

Subcommands
-----------
sum                 release one bounded sum from a dataset file
sens bound          idealized and certified-implemented sensitivity
sens bruteforce     exact sensitivity by exhaustive enumeration
sens recommend      rank certifiable summation configurations
attack gen          write an adjacent attack pair + instance file
attack verify       replay an instance and compare gaps
experiment run      distinguishing-attack trials against a mechanism
dpcheck exact       exact worst-case PMF ratio on finite supports

Exit codes: 0 success; 2 precondition or malformed input (diagnostic on
stderr names the offending field); 3 verification failure — a realized
gap off its prediction, a DP check that does not hold, or an experiment
whose verdict is an epsilon violation.

Every report is JSON with sorted keys; numbers that must stay exact
travel as strings (bit patterns, decimal integers, ``m*2^e`` dyadics,
fractions).  Subcommands only compute: one function, ``_report``, writes
every report.  It adds the schema version and a manifest recording the
command, every flag that can change the numbers (the calibration bound's
``--metric`` and ``--n`` included), the seeds consumed, module versions,
and the bound rules the numbers rest on, so outputs are auditable and
byte-identical across reruns.  ``--out DIR`` writes the same bytes as
stdout into a file in DIR.  Timestamps are fixed to the epoch unless
``--stamp`` is given — wall-clock stamps are the one thing that would
break reproducibility.

Dataset files are accepted unchanged between subcommands: the pair
written by ``attack gen`` feeds ``sum``, ``dpcheck exact``, and so on.

numpy and mpmath are imported where they are first used, not when the
package loads: ``sens bruteforce`` loads numpy, ``dpcheck exact`` loads
mpmath, ``experiment run`` loads both, and ``sum``, ``sens bound``,
``sens recommend``, ``attack gen`` and ``attack verify`` load neither.
The argument parser is built once per process, on the first
:func:`main` call.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from datetime import datetime, timezone
from fractions import Fraction
from functools import cache
from pathlib import Path
from typing import List, Optional

from . import __version__
from .attacks import _GENERATORS, ATTACK_NAMES, AttackInstance, verify_attack
from .data import (SCHEMA_VERSION, _decimal, decode_value, encode_value,
                   format_to_json, json_text, load_dataset, save_dataset)
from .floats import ROUNDING_MODES, FloatFormat, SimFloat
from .ints import IntFormat
from .mechanism import (NOISE_KINDS, MechanismSpec, calibrate,
                        distinguishing_experiment, exact_dp_check)
from .sensitivity import (METRICS, PreconditionFailed, SensSpec,
                          UnsupportedCombination, brute_force_sensitivity,
                          idealized_sensitivity,
                          implemented_sensitivity_bound,
                          modular_sensitivity_bound, recommend)
from .summation import (ALGORITHMS, RandomPermutation, ShiftBounds, SumMethod,
                        Truncate, run_sum)

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_VERIFICATION = 3

# Reports embed this unless --stamp asks for wall-clock time; a real
# timestamp is the only nondeterminism the CLI would otherwise have.
FIXED_TIMESTAMP = "1970-01-01T00:00:00Z"

_CALIBRATION_RULES = {
    "idealized": idealized_sensitivity,
    "modular": modular_sensitivity_bound,
    "implemented": implemented_sensitivity_bound,
}


# ---------------------------------------------------------------------------
# Argument parsing helpers
# ---------------------------------------------------------------------------

def parse_format(text: str):
    """``float:K,L`` or ``int:BITS:signed|unsigned:wraparound|saturating``;
    ``K``, ``L`` and ``BITS`` are decimal integers as the dataset files
    write them."""
    head, _, rest = text.partition(":")
    if head == "float":
        parts = rest.split(",")
        if len(parts) != 2:
            raise ValueError(f"bad format {text!r}: expected float:K,L")
        return FloatFormat(_decimal(parts[0]), _decimal(parts[1]))
    if head == "int":
        parts = rest.split(":")
        if len(parts) != 3:
            raise ValueError(f"bad format {text!r}: expected "
                             "int:BITS:signed|unsigned:wraparound|saturating")
        bits, signedness, overflow = parts
        if signedness not in ("signed", "unsigned"):
            raise ValueError(f"bad format {text!r}: signedness must be "
                             "'signed' or 'unsigned'")
        return IntFormat(_decimal(bits), signedness == "signed", overflow)
    raise ValueError(f"bad format {text!r}: must start with float: or int:")


def parse_transform(text: str):
    """``truncate:N``, ``permute:SEED``, or ``shift``; ``N`` and ``SEED``
    are decimal integers as the dataset files write them."""
    head, _, rest = text.partition(":")
    if head == "truncate":
        return Truncate(_decimal(rest))
    if head == "permute":
        return RandomPermutation(_seed64(rest))
    if head == "shift":
        if rest:
            raise ValueError("shift takes no parameter")
        return ShiftBounds()
    raise ValueError(f"unknown transform {text!r}; use truncate:N, "
                     "permute:SEED, or shift")


def _seed64(text) -> int:
    seed = _decimal(text)
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed {seed} outside [0, 2^64)")
    return seed


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:  # argparse reports only a ValueError as such
        raise ValueError(f"zero denominator in {text!r}") from None


def _method_from_args(args, default: Optional[SumMethod] = None) -> SumMethod:
    """Build a SumMethod from --method/--rounding/--transform.

    When none of the three is present and a ``default`` exists (e.g. an
    instance's native method), the default is returned unchanged.
    """
    touched = (args.method is not None or args.rounding is not None
               or args.transform)
    if not touched and default is not None:
        return default
    return SumMethod(
        algorithm=args.method or "iterative",
        rounding=args.rounding or "banker",
        transforms=tuple(parse_transform(t) for t in args.transform or ()),
    )


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------

def _report(args, command: str, filename: str, body: dict, flags=(),
            computed: Optional[dict] = None,
            method: Optional[SumMethod] = None, seeds: Optional[dict] = None,
            citations=(), code: int = EXIT_OK) -> int:
    """Write one subcommand's report and return its exit code.

    The report is ``body`` plus ``schema`` and a manifest.  The manifest's
    parameters are the values of the named ``flags``, the ``computed``
    entries and, given a ``method``, its JSON (whose permutation seeds
    join ``seeds``); Fractions are recorded as strings.  Citations that
    are None are dropped.  The same bytes go to stdout and, with
    ``--out``, to ``filename`` in that directory.
    """
    parameters = {name: getattr(args, name) for name in flags}
    parameters.update(computed or {})
    seeds = dict(seeds or {})
    if method is not None:
        parameters["method"] = method.to_json()
        seeds["permutation"] = [t.seed for t in method.transforms
                                if isinstance(t, RandomPermutation)]
    report = {
        **body,
        "schema": SCHEMA_VERSION,
        "manifest": {
            "command": command,
            "parameters": {k: str(v) if isinstance(v, Fraction) else v
                           for k, v in parameters.items()},
            "seeds": seeds,
            "versions": {"boundedsum": __version__},
            "citations": sorted({c for c in citations if c is not None}),
            "timestamp": (datetime.now(timezone.utc).strftime(
                "%Y-%m-%dT%H:%M:%SZ") if args.stamp else FIXED_TIMESTAMP),
        },
    }
    text = json_text(report) + "\n"
    sys.stdout.write(text)
    if args.out is not None:
        path = Path(args.out)
        path.mkdir(parents=True, exist_ok=True)
        (path / filename).write_text(text, encoding="utf-8")
    return code


def _load_instance(path) -> AttackInstance:
    p = Path(path)
    if p.is_dir():
        p = p / "instance.json"
    doc = json.loads(p.read_text(encoding="utf-8"))
    return AttackInstance.from_json(doc["instance"])


def _sens_spec_from_args(args) -> SensSpec:
    fmt = parse_format(args.format)
    return SensSpec(
        fmt=fmt,
        lower=decode_value(fmt, args.lower),
        upper=decode_value(fmt, args.upper),
        metric=args.metric,
        method=_method_from_args(args),
        n=args.n,
        checked=getattr(args, "checked", False),
    )


def _calibrated_spec(args, dataset, method, base_metric: str):
    """Mechanism spec from --calibrate/--scale flags for the format and
    bounds of ``dataset``; returns (spec, rule)."""
    if args.scale is not None:
        spec = MechanismSpec(method=method, noise=args.noise,
                             scale=args.scale, epsilon=args.epsilon)
        return spec, None
    sens_spec = SensSpec(fmt=dataset.fmt, lower=dataset.lower,
                         upper=dataset.upper, metric=args.metric or base_metric,
                         method=method, n=args.n)
    bound = _CALIBRATION_RULES[args.calibrate](sens_spec)
    factor = args.scale_factor
    if factor == 1:
        spec = calibrate(args.noise, bound, args.epsilon, method=method)
    else:
        # deliberate mis-scaling (e.g. 0.9x to exercise the converse):
        # the spec's own sanity check would reject scale < bound/epsilon,
        # so the claim fields are left off and epsilon rides separately
        scale = Fraction(bound.value) / args.epsilon * factor
        spec = MechanismSpec(method=method, noise=args.noise, scale=scale,
                             epsilon=args.epsilon)
    return spec, bound.rule


# ---------------------------------------------------------------------------
# Subcommand bodies
# ---------------------------------------------------------------------------

def _cmd_sum(args) -> int:
    dataset = load_dataset(args.infile)
    method = _method_from_args(args)
    outcome = run_sum(dataset, method)
    value = outcome.value
    return _report(args, "sum", "sum.json", {
        # a float release shows its bit pattern, and its exact value apart
        "value": value.to_hex() if isinstance(value, SimFloat) else str(value),
        "exact": str(value),
        "n": dataset.n,
        "method": method.to_json(),
        "clamp_events": list(outcome.clamp_events),
        "permutation": outcome.permutation,
        "offset": None if outcome.offset is None else {
            "lower": encode_value(outcome.offset[0]),
            "count": outcome.offset[1],
        },
    }, computed={"in": args.infile}, method=method)


def _cmd_sens_bound(args) -> int:
    spec = _sens_spec_from_args(args)
    ideal = idealized_sensitivity(spec)
    citations = [ideal.rule]
    implemented = None
    reason = None
    try:
        implemented = implemented_sensitivity_bound(spec)
        citations.append(implemented.rule)
    except (PreconditionFailed, UnsupportedCombination) as exc:
        reason = str(exc)
    return _report(args, "sens bound", "bound.json", {
        "idealized": ideal.to_json(),
        "implemented": None if implemented is None else implemented.to_json(),
        "implemented_error": reason,
    }, ("format", "lower", "upper", "metric", "n", "checked"),
        method=spec.method, citations=citations)


def _cmd_sens_bruteforce(args) -> int:
    spec = _sens_spec_from_args(args)
    result = brute_force_sensitivity(
        spec, include_subnormals=args.include_subnormals)
    witness = None
    if result.witness is not None:
        witness = {"u": [encode_value(v) for v in result.witness[0]],
                   "v": [encode_value(v) for v in result.witness[1]]}
    return _report(args, "sens bruteforce", "bruteforce.json", {
        "value": str(result.value),
        "output_metric": result.output_metric,
        "datasets": result.datasets,
        "witness": witness,
    }, ("format", "lower", "upper", "metric", "n", "include_subnormals"),
        method=spec.method, citations=[f"brute-force-{args.metric}"])


def _cmd_sens_recommend(args) -> int:
    fmt = parse_format(args.format)
    lower = decode_value(fmt, args.lower)
    upper = decode_value(fmt, args.upper)
    recs = recommend(fmt, lower, upper, args.metric, n=args.n,
                     n_max=args.n_max)
    return _report(args, "sens recommend", "recommend.json",
                   {"recommendations": [r.to_json() for r in recs]},
                   ("format", "lower", "upper", "metric", "n", "n_max"),
                   citations=[r.bound.rule for r in recs])


_ATTACK_PARAM_NAMES = ("j", "a", "d", "m", "upper", "lower", "metric")


def _attack_format(args):
    float_given = args.k is not None or args.l is not None
    int_given = args.bits is not None
    if float_given and int_given:
        raise ValueError("give either --k/--l or --bits, not both")
    if float_given:
        if args.k is None or args.l is None:
            raise ValueError("float formats need both --k and --l")
        return FloatFormat(args.k, args.l)
    if not int_given:
        raise ValueError("choose a format: --k/--l for floats, --bits for ints")
    if args.theorem == "saturation_reorder":
        return IntFormat(args.bits, True, "saturating")
    return IntFormat(args.bits, args.signed, "wraparound")


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _cmd_attack_gen(args) -> int:
    fmt = _attack_format(args)
    params = {name: getattr(args, name) for name in _ATTACK_PARAM_NAMES
              if getattr(args, name) is not None}
    if args.drop_last:
        params["drop_last"] = True
    generator = _GENERATORS[args.theorem]
    # name missing or misdirected parameters by their flags, read off the
    # generator's signature (its first parameter is the format)
    wanted = list(inspect.signature(generator).parameters.values())[1:]
    missing = [_flag(q.name) for q in wanted
               if q.default is q.empty and q.name not in params]
    if missing:
        verb = "is" if len(missing) == 1 else "are"
        raise ValueError(f"{args.theorem}: {', '.join(missing)} {verb} "
                         "required")
    stray = [_flag(name) for name in params
             if name not in {q.name for q in wanted}]
    if stray:
        verb = "does" if len(stray) == 1 else "do"
        raise ValueError(f"{args.theorem}: {', '.join(stray)} {verb} not "
                         "apply")
    instance = generator(fmt, **params)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_dataset(instance.u, out / "u.json")
    save_dataset(instance.v, out / "v.json")
    return _report(args, "attack gen", "instance.json",
                   {"instance": instance.to_json()}, ("theorem",),
                   computed={"format": format_to_json(fmt), **params})


def _cmd_attack_verify(args) -> int:
    instance = _load_instance(args.instance)
    method = _method_from_args(args, default=instance.method)
    native = method is instance.method
    result = verify_attack(instance, method=None if native else method)
    return _report(args, "attack verify", "verify.json", {
        "name": instance.name,
        "native_method": native,
        "method": method.to_json(),
        **result.to_json(),
    }, ("instance",), computed={"native": native}, method=method,
        code=EXIT_OK if result.matches_prediction else EXIT_VERIFICATION)


def _cmd_experiment_run(args) -> int:
    instance = _load_instance(args.instance)
    method = _method_from_args(args, default=instance.method)
    spec, rule = _calibrated_spec(args, instance.u, method,
                                  base_metric=instance.metric)
    result = distinguishing_experiment(instance, spec, args.trials,
                                       master_seed=args.seed,
                                       threshold=args.threshold)
    return _report(args, "experiment run", "experiment.json", {
        **result.to_json(),
        "mechanism": spec.to_json(),
        "calibration_rule": rule,
    }, ("instance", "epsilon", "trials", "noise", "calibrate", "scale",
        "scale_factor", "threshold", "metric", "n"),
        method=method, seeds={"master": args.seed}, citations=[rule],
        code=(EXIT_VERIFICATION if result.verdict == "epsilon-violation"
              else EXIT_OK))


def _cmd_dpcheck_exact(args) -> int:
    u = load_dataset(args.u)
    v = load_dataset(args.v)
    method = _method_from_args(args)
    spec, rule = _calibrated_spec(args, u, method, base_metric=args.metric)
    result = exact_dp_check(spec, u, v, args.epsilon)
    return _report(args, "dpcheck exact", "dpcheck.json", {
        **result.to_json(),
        "mechanism": spec.to_json(),
        "calibration_rule": rule,
    }, ("u", "v", "epsilon", "noise", "calibrate", "scale", "scale_factor",
        "metric", "n"),
        method=method, citations=[rule],
        code=EXIT_OK if result.satisfied else EXIT_VERIFICATION)


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser, out=None) -> None:
    parser.add_argument("--out", default=out, metavar="DIR",
                        help="also write the report into this directory")
    parser.add_argument("--stamp", action="store_true",
                        help="embed the wall-clock time instead of the fixed "
                             "epoch timestamp (breaks byte-identical reruns)")


def _add_method_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--method", choices=ALGORITHMS, default=None,
                        help="summation algorithm (default: iterative)")
    parser.add_argument("--rounding", choices=ROUNDING_MODES, default=None,
                        help="rounding mode for per-add float rounding "
                             "(default: banker)")
    parser.add_argument("--transform", action="append", metavar="SPEC",
                        help="pre-summation transform, in order: truncate:N, "
                             "permute:SEED, or shift (repeatable)")


def _add_sens_spec_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", required=True,
                        help="float:K,L or int:BITS:signed|unsigned:"
                             "wraparound|saturating")
    parser.add_argument("--lower", required=True,
                        help="lower bound (decimal, m*2^e, or 0x bit pattern)")
    parser.add_argument("--upper", required=True, help="upper bound")
    parser.add_argument("--metric", required=True, choices=METRICS,
                        help="adjacency metric")
    parser.add_argument("--n", type=_decimal, default=None,
                        help="dataset size (exact for co/ham, cap otherwise)")


def _add_calibration_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--epsilon", type=_fraction, required=True,
                        help="privacy parameter, as an exact fraction")
    parser.add_argument("--noise", choices=NOISE_KINDS,
                        default="discrete_laplace")
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--calibrate", choices=sorted(_CALIBRATION_RULES),
                       help="derive the noise scale from this bound rule")
    group.add_argument("--scale", type=_fraction, default=None,
                       help="set the noise scale directly instead")
    parser.add_argument("--scale-factor", type=_fraction,
                        default=Fraction(1), metavar="F",
                        help="multiply the calibrated scale by F "
                             "(F<1 deliberately under-noises)")


class _Parser(argparse.ArgumentParser):
    """A parser that takes long options only as spelled in full, and so
    does every subparser it adds (``add_subparsers`` builds them from the
    parser's own class)."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="boundedsum",
        description="Bounded sums over finite arithmetic: sensitivity "
                    "bounds, attacks, and repaired mechanisms.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    top = parser.add_subparsers(dest="command", required=True)

    p = top.add_parser("sum", help="release one bounded sum")
    p.add_argument("--in", dest="infile", required=True, metavar="FILE",
                   help="dataset JSON file")
    _add_method_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_sum)

    sens = top.add_parser("sens", help="sensitivity bounds and advice")
    sens_sub = sens.add_subparsers(dest="sens_command", required=True)

    p = sens_sub.add_parser("bound", help="idealized + implemented bounds")
    _add_sens_spec_flags(p)
    _add_method_flags(p)
    p.add_argument("--checked", action="store_true",
                   help="assert the caller enforces the no-overflow product "
                        "check before summing")
    _add_common(p)
    p.set_defaults(func=_cmd_sens_bound)

    p = sens_sub.add_parser("bruteforce",
                            help="exact sensitivity by enumeration")
    _add_sens_spec_flags(p)
    _add_method_flags(p)
    p.add_argument("--include-subnormals", action="store_true",
                   help="enumerate subnormal float values too")
    _add_common(p)
    p.set_defaults(func=_cmd_sens_bruteforce)

    p = sens_sub.add_parser("recommend",
                            help="rank certifiable configurations")
    _add_sens_spec_flags(p)
    p.add_argument("--n-max", type=_decimal, default=None,
                   help="truncation cap for size-unknown float datasets")
    _add_common(p)
    p.set_defaults(func=_cmd_sens_recommend)

    attack = top.add_parser("attack", help="generate and verify attacks")
    attack_sub = attack.add_subparsers(dest="attack_command", required=True)

    p = attack_sub.add_parser(
        "gen", help="write an adjacent attack pair (u.json, v.json) and "
                    "its report (instance.json) into --out")
    p.add_argument("--theorem", required=True, choices=ATTACK_NAMES)
    p.add_argument("--k", type=_decimal, default=None,
                   help="mantissa bits (float formats)")
    p.add_argument("--l", type=_decimal, default=None,
                   help="exponent bits (float formats)")
    p.add_argument("--bits", type=_decimal, default=None,
                   help="width (integer formats)")
    p.add_argument("--signed", action="store_true",
                   help="signed integer format (overflow theorem only; "
                        "saturation_reorder is always signed)")
    p.add_argument("--j", type=_decimal, default=None)
    p.add_argument("--a", type=_decimal, default=None)
    p.add_argument("--d", type=_decimal, default=None)
    p.add_argument("--m", type=_decimal, default=None)
    p.add_argument("--upper", type=_decimal, default=None,
                   help="element upper bound U (integer theorems)")
    p.add_argument("--lower", type=_decimal, default=None,
                   help="element lower bound L (saturation_reorder)")
    p.add_argument("--metric", choices=METRICS, default=None,
                   help="adjacency flavour for the overflow pair")
    p.add_argument("--drop-last", action="store_true",
                   help="float_reorder: drop one element instead of only "
                        "reordering")
    _add_common(p, out=".")
    p.set_defaults(func=_cmd_attack_gen)

    p = attack_sub.add_parser("verify", help="replay an instance")
    p.add_argument("--instance", required=True, metavar="PATH",
                   help="instance.json file, or the directory holding it")
    _add_method_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_attack_verify)

    experiment = top.add_parser("experiment",
                                help="distinguishing experiments")
    exp_sub = experiment.add_subparsers(dest="experiment_command",
                                        required=True)

    p = exp_sub.add_parser("run", help="threshold trials on an attack pair")
    p.add_argument("--instance", required=True, metavar="PATH")
    p.add_argument("--trials", type=_decimal, required=True)
    p.add_argument("--seed", type=_seed64, required=True,
                   help="master seed; per-trial seeds derive from it")
    p.add_argument("--threshold", type=_fraction, default=None,
                   help="decision threshold (default: midpoint of the "
                        "noiseless releases)")
    _add_calibration_flags(p)
    p.add_argument("--metric", choices=METRICS, default=None,
                   help="metric for the calibration bound "
                        "(default: the instance's)")
    p.add_argument("--n", type=_decimal, default=None,
                   help="dataset size for the calibration bound")
    _add_method_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_experiment_run)

    dpcheck = top.add_parser("dpcheck", help="exact DP verification")
    dp_sub = dpcheck.add_subparsers(dest="dpcheck_command", required=True)

    p = dp_sub.add_parser("exact",
                          help="worst-case PMF ratio over a finite support")
    p.add_argument("--u", required=True, metavar="FILE",
                   help="first dataset JSON file")
    p.add_argument("--v", required=True, metavar="FILE",
                   help="second dataset JSON file")
    _add_calibration_flags(p)
    p.add_argument("--metric", choices=METRICS, default="sym",
                   help="metric for the calibration bound (default: sym)")
    p.add_argument("--n", type=_decimal, default=None,
                   help="dataset size for the calibration bound")
    _add_method_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_dpcheck_exact)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except KeyError as exc:
        print(f"error: missing field {exc.args[0]!r}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (ValueError, TypeError, OSError) as exc:
        # PreconditionFailed and UnsupportedCombination are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())

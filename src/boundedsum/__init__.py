"""Bounded sums over finite arithmetic: sensitivity, attacks, repairs.

The package models small floating-point and fixed-width integer types
exactly, computes how much a single record can move each concrete
summation algorithm (iterative, pairwise, Kahan, sign-split), builds
adjacent dataset pairs that blow that movement far past the idealized
``max(|L|, U)`` / ``U - L`` bounds, and checks noise mechanisms against
the corrected bounds — by brute force on small domains and by exact
distribution comparison where the support is enumerable.

Importing the package loads none of its modules.  It holds the version,
the five vocabularies the command line offers as choices (each module
that owns one re-exports it), and the table below of the names each
module exports.  A name, or a submodule, is loaded from its module on
first use (PEP 562), and ``__all__`` is read off the same table: so
``boundedsum --version`` and the argument parser load no analysis
module, and each command loads only the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

ROUNDING_MODES = ("banker", "toward_zero", "toward_pos", "toward_neg")
ALGORITHMS = ("iterative", "pairwise", "kahan", "split", "exact")
METRICS = ("sym", "co", "ham", "id")
NOISE_KINDS = ("laplace", "discrete_laplace", "discrete_laplace_mod")
ATTACK_NAMES = ("overflow", "saturation_reorder", "float_reorder", "rounding",
                "repeated_rounding_1", "repeated_rounding_2")

# module -> the names the package exports from it, in ``__all__``'s order
_EXPORTS = {
    "data": (
        "Dataset", "ElementFormat", "Value", "encode_value", "decode_value",
        "exact_value", "format_to_json", "format_from_json", "load_dataset",
        "save_dataset"),
    "dyadic": ("Dyadic", "floor_log2_fraction"),
    "floats": (
        "FloatFormat", "SimFloat", "InvalidOperation", "FLOAT32", "FLOAT64",
        "ROUNDING_MODES", "is_representable", "round_dyadic", "add_float",
        "parse_value"),
    "ints": ("IntFormat", "KInt", "add_int"),
    "metrics": ("INFINITE", "histogram", "d_sym", "d_co", "d_ham", "d_id"),
    "summation": (
        "SumMethod", "SumOutcome", "Truncate", "RandomPermutation",
        "ShiftBounds", "bs_exact", "bs_iterative", "bs_pairwise", "bs_kahan",
        "bs_split", "run_sum", "truncate", "random_permutation",
        "check_multiplication", "float_overflow_check",
        "PERMUTATION_ALGORITHM", "ALGORITHMS"),
    "sensitivity": (
        "METRICS", "SensSpec", "SensitivityBound", "BruteForceResult",
        "Recommendation", "PreconditionFailed", "UnsupportedCombination",
        "idealized_sensitivity", "modular_sensitivity_bound",
        "accuracy_bound", "implemented_sensitivity_bound",
        "brute_force_sensitivity", "recommend", "KAHAN_ACCURACY_CONSTANT"),
    "attacks": (
        "AttackInstance", "VerificationReport", "ATTACK_NAMES",
        "overflow_attack", "saturation_reorder_attack",
        "float_reorder_attack", "rounding_attack",
        "repeated_rounding_attack_1", "repeated_rounding_attack_2",
        "verify_attack"),
    "mechanism": (
        "NOISE_KINDS", "MechanismSpec", "ExperimentReport", "ExactDPReport",
        "rational_alpha", "calibrate", "run_mechanism",
        "distinguishing_experiment", "dp_violation_log2_bound",
        "exact_dp_check", "certified_leq_exp", "VERDICT_CUTOFF_LOG2",
        "SUPPORT_LIMIT"),
}

_OWNERS = {name: module for module, names in _EXPORTS.items()
           for name in names}
_SUBMODULES = {*_EXPORTS, "bruteforce", "cli"}

__all__ = ["__version__", *_OWNERS]


def __getattr__(name: str):
    """A submodule, or an exported name read off its module, loading the
    module on first use.  Nothing is cached here: a submodule is bound by
    its import, and a name is looked up in its module each time."""
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name in _OWNERS:
        return getattr(import_module(f"{__name__}.{_OWNERS[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""Bounded sums over finite arithmetic: sensitivity, attacks, repairs.

The package models small floating-point and fixed-width integer types
exactly, computes how much a single record can move each concrete
summation algorithm (iterative, pairwise, Kahan, sign-split), builds
adjacent dataset pairs that blow that movement far past the idealized
``max(|L|, U)`` / ``U - L`` bounds, and checks noise mechanisms against
the corrected bounds — by brute force on small domains and by exact
distribution comparison where the support is enumerable.
"""

from .data import (Dataset, ElementFormat, Value, decode_value, encode_value,
                   exact_value, format_from_json, format_to_json,
                   load_dataset, save_dataset)
from .dyadic import Dyadic, floor_log2_fraction
from .floats import (FLOAT32, FLOAT64, ROUNDING_MODES, FloatFormat,
                     InvalidOperation, SimFloat, add_float, is_representable,
                     parse_value, round_dyadic, ulp,
                     values_in_range)
from .ints import IntFormat, KInt, add_int
from .metrics import INFINITE, d_co, d_ham, d_id, d_mod, d_sym, histogram
from .summation import (ALGORITHMS, PERMUTATION_ALGORITHM, RandomPermutation,
                        ShiftBounds, SumMethod, SumOutcome, Truncate,
                        bs_exact, bs_iterative, bs_kahan, bs_pairwise,
                        bs_split, check_multiplication, float_overflow_check,
                        random_permutation, run_sum, truncate)
from .sensitivity import (KAHAN_ACCURACY_CONSTANT, METRICS, BruteForceResult,
                          PreconditionFailed, Recommendation, SensSpec,
                          SensitivityBound, UnsupportedCombination,
                          accuracy_bound, brute_force_sensitivity, couple_co,
                          couple_sym, idealized_sensitivity,
                          implemented_sensitivity_bound,
                          modular_sensitivity_bound, recommend)
from .attacks import (ATTACK_NAMES, AttackInstance, VerificationReport,
                      float_reorder_attack, generate_attack, overflow_attack,
                      repeated_rounding_attack_1, repeated_rounding_attack_2,
                      rounding_attack, saturation_reorder_attack,
                      verify_attack)
from .mechanism import (NOISE_KINDS, SUPPORT_LIMIT, VERDICT_CUTOFF_LOG2,
                        ExactDPReport, ExperimentReport, MechanismSpec,
                        calibrate, certified_leq_exp,
                        distinguishing_experiment, dp_violation_log2_bound,
                        exact_dp_check, rational_alpha, run_mechanism)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # data
    "Dataset", "ElementFormat", "Value", "encode_value", "decode_value",
    "exact_value", "format_to_json", "format_from_json", "load_dataset",
    "save_dataset",
    # numerics
    "Dyadic", "floor_log2_fraction",
    "FloatFormat", "SimFloat", "InvalidOperation", "FLOAT32", "FLOAT64",
    "ROUNDING_MODES", "ulp", "is_representable", "round_dyadic", "add_float",
    "parse_value", "values_in_range",
    "IntFormat", "KInt", "add_int",
    # metrics
    "INFINITE", "histogram", "d_sym", "d_co", "d_ham", "d_id", "d_mod",
    # summation
    "SumMethod", "SumOutcome", "Truncate", "RandomPermutation", "ShiftBounds",
    "bs_exact", "bs_iterative", "bs_pairwise", "bs_kahan", "bs_split",
    "run_sum", "truncate", "random_permutation",
    "check_multiplication", "float_overflow_check",
    "PERMUTATION_ALGORITHM", "ALGORITHMS",
    # sensitivity
    "METRICS", "SensSpec", "SensitivityBound", "BruteForceResult",
    "Recommendation", "PreconditionFailed", "UnsupportedCombination",
    "idealized_sensitivity", "modular_sensitivity_bound", "accuracy_bound",
    "implemented_sensitivity_bound", "brute_force_sensitivity",
    "couple_sym", "couple_co", "recommend", "KAHAN_ACCURACY_CONSTANT",
    # attacks
    "AttackInstance", "VerificationReport", "ATTACK_NAMES",
    "overflow_attack", "saturation_reorder_attack", "float_reorder_attack",
    "rounding_attack", "repeated_rounding_attack_1",
    "repeated_rounding_attack_2", "generate_attack", "verify_attack",
    # mechanism
    "NOISE_KINDS", "MechanismSpec", "ExperimentReport", "ExactDPReport",
    "rational_alpha", "calibrate", "run_mechanism",
    "distinguishing_experiment", "dp_violation_log2_bound", "exact_dp_check",
    "certified_leq_exp", "VERDICT_CUTOFF_LOG2", "SUPPORT_LIMIT",
]

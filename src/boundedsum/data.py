"""Datasets: ordered sequences of bounded values, run-length encoded.

A dataset carries its element format and the inclusive bounds ``[lower,
upper]`` that every element is checked against.  Elements are stored as
runs ``(value, count)`` so that the attack constructions with billions of
repeated elements stay materialization-free; the summation routines know
how to consume runs directly.

The JSON form keeps every value exact: floats travel as their bit
patterns (hex strings), integers as decimal strings.  Counts are plain
JSON integers.

Validation happens once, when a dataset is built, and always the same
way: each element and both bounds must be values of the dataset's own
format (its type and format checked, a float also finite), each count
an integer of at least one, and each element inside the bounds.
Elements are compared as their integer order keys (:func:`order_key`),
read off the bit pattern or the integer, so no exact value is built;
equal keys are equal values, so adjacent runs merge on the key.  A
``0x..`` pattern is decoded with one ``int(text, 16)``, and the pattern
itself is checked: in range, not a NaN, ``-0`` folded into ``+0``.
Datasets derived from a checked one (shuffles, shifts, brute-force
tuples over its frame) skip the checks.
"""

from __future__ import annotations

import itertools
import json
from operator import index
from fractions import Fraction
from typing import Iterable, Iterator, Tuple, Union

from .dyadic import Dyadic
from .floats import FloatFormat, SimFloat, parse_value
from .ints import IntFormat, KInt

__all__ = ["Dataset", "ElementFormat", "Value", "encode_value", "decode_value",
           "exact_value", "order_key", "format_to_json", "format_from_json",
           "load_dataset", "save_dataset"]

ElementFormat = Union[FloatFormat, IntFormat]
Value = Union[SimFloat, KInt]

SCHEMA_VERSION = 1

# Materializing more elements than this is almost certainly a mistake —
# the run-aware code paths exist precisely to avoid it.  Every summation
# algorithm reads runs; the callers that still build the element list are
# ``summation.random_permutation`` and the couplings ``couple_sym`` and
# ``couple_co`` in ``sensitivity``.  The float run fold
# (``summation._fold_run``, which iterative, split and Kahan runs share)
# also gives up past this many literal steps in one run.
MATERIALIZE_LIMIT = 1 << 22


def check_materialize(n: int) -> None:
    """Refuse to build a list of ``n`` elements past ``MATERIALIZE_LIMIT``."""
    if n > MATERIALIZE_LIMIT:
        raise ValueError(
            f"refusing to materialize {n} elements; use the run-aware paths")


def exact_value(value) -> Union[int, Fraction]:
    """Exact value of an element or a release: an int or a Fraction.

    Takes a SimFloat, a KInt, or what the ``exact`` algorithm releases (a
    Dyadic or an int).  Integers stay Python ints, which subtract far
    faster than Fractions.  An infinite SimFloat reads as its working
    value ``±2^(emax+1)``, so a saturated release still has a size to
    compare.  To order elements, use :func:`order_key`, which builds no
    Fraction.
    """
    if isinstance(value, SimFloat):
        return value.fmt.grid_fraction(value.to_grid())
    if isinstance(value, KInt):
        return value.value
    if isinstance(value, Dyadic):
        return value.to_fraction()
    return value


def order_key(value: Value) -> int:
    """An int that orders elements exactly as their values do.

    For a SimFloat it is read off the bit pattern: minus the magnitude
    bits for negatives, the pattern itself otherwise.  Within one sign the
    patterns are ordered by magnitude, and ``-0`` is folded into ``+0``,
    so equal keys mean equal values; infinities sort at the ends.  For a
    KInt it is the value.
    """
    if isinstance(value, KInt):
        return value.value
    bits = value.bits
    sign = value.fmt._kernel[3]
    return -(bits ^ sign) if bits & sign else bits


class Dataset:
    """An ordered sequence of in-range values plus its bounds.

    Runs are kept maximal — adjacent runs of the same value merge on
    construction — so two datasets are ``==`` exactly when they hold the
    same element sequence, however their encodings chose to chunk it.
    The element count is taken when the dataset is built.
    """

    __slots__ = ("fmt", "lower", "upper", "runs", "_n")

    def __init__(self, fmt: ElementFormat, lower: Value, upper: Value,
                 runs: Iterable[Tuple[Value, int]]):
        check = self._check_value
        lo_key = check(fmt, lower, "lower bound")
        hi_key = check(fmt, upper, "upper bound")
        if lo_key > hi_key:
            raise ValueError("lower bound exceeds upper bound")
        merged = []
        last = None  # the order key of the last run
        n = 0
        for v, c in runs:
            c = index(c)  # an integer: a float count is refused, not cut
            key = check(fmt, v, "element")
            if c < 1:
                raise ValueError("run counts must be positive")
            if not lo_key <= key <= hi_key:
                raise ValueError(f"element {v} outside bounds [{lower}, {upper}]")
            n += c
            if key == last:
                merged[-1] = (v, merged[-1][1] + c)
            else:
                merged.append((v, c))
                last = key
        self.fmt = fmt
        self.lower = lower
        self.upper = upper
        self.runs = tuple(merged)
        self._n = n

    @staticmethod
    def _check_value(fmt: ElementFormat, v, what: str) -> int:
        """The :func:`order_key` of ``v``, once it is checked to be a
        finite value of ``fmt``: the one check of elements and bounds."""
        if isinstance(fmt, FloatFormat):
            if not isinstance(v, SimFloat) or (v.fmt is not fmt
                                               and v.fmt != fmt):
                raise TypeError(f"{what} must be a SimFloat of {fmt}")
            key = order_key(v)
            if abs(key) == fmt._kernel[4]:  # infinity's magnitude pattern
                raise ValueError(f"{what} must be finite")
            return key
        if not isinstance(v, KInt) or (v.fmt is not fmt and v.fmt != fmt):
            raise TypeError(f"{what} must be a KInt of {fmt}")
        return v.value

    @classmethod
    def _trusted(cls, fmt: ElementFormat, lower: Value, upper: Value,
                 runs: tuple) -> "Dataset":
        """A dataset whose maximal runs are known to be valid: no checks."""
        out = object.__new__(cls)
        out.fmt, out.lower, out.upper, out.runs = fmt, lower, upper, runs
        out._n = sum(c for _, c in runs)
        return out

    @classmethod
    def from_elements(cls, fmt: ElementFormat, lower: Value, upper: Value,
                      elements: Iterable[Value]) -> "Dataset":
        return cls(fmt, lower, upper, ((v, 1) for v in elements))

    def __len__(self) -> int:
        return self._n

    def iter_values(self) -> Iterator[Value]:
        for v, c in self.runs:
            for _ in range(c):
                yield v

    def to_list(self) -> list:
        check_materialize(len(self))
        return list(self.iter_values())

    def replace_elements(self, elements: Iterable[Value]) -> "Dataset":
        return Dataset.from_elements(self.fmt, self.lower, self.upper, elements)

    def replace_elements_unchecked(self, elements: Iterable[Value]
                                   ) -> "Dataset":
        """:meth:`replace_elements` for elements drawn from a dataset over
        this one's frame, which were checked there: the runs are merged,
        and nothing is checked again."""
        return Dataset._trusted(self.fmt, self.lower, self.upper, tuple(
            (v, len(list(run))) for v, run in itertools.groupby(elements)))

    def replace_runs(self, runs: Iterable[Tuple[Value, int]]) -> "Dataset":
        return Dataset(self.fmt, self.lower, self.upper, runs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (self.fmt == other.fmt and self.lower == other.lower
                and self.upper == other.upper and self.runs == other.runs)

    def __repr__(self) -> str:
        return (f"Dataset({self.fmt!r}, lower={self.lower}, upper={self.upper}, "
                f"n={len(self)}, runs={len(self.runs)})")

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "format": format_to_json(self.fmt),
            "bounds": {"lower": encode_value(self.lower),
                       "upper": encode_value(self.upper)},
            "elements": [{"value": encode_value(v), "count": c}
                         for v, c in self.runs],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "Dataset":
        if d.get("schema") != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema {d.get('schema')!r}")
        fmt = format_from_json(d["format"])
        lower = decode_value(fmt, d["bounds"]["lower"])
        upper = decode_value(fmt, d["bounds"]["upper"])
        runs = [(decode_value(fmt, entry), 1) if isinstance(entry, str)
                else (decode_value(fmt, entry["value"]), entry["count"])
                for entry in d["elements"]]
        return cls(fmt, lower, upper, runs)


def encode_value(v: Value) -> str:
    return v.to_hex() if isinstance(v, SimFloat) else str(v.value)


def decode_value(fmt: ElementFormat, text: str) -> Value:
    """A value from its JSON text: a ``0x..`` bit pattern or any literal
    :func:`~boundedsum.floats.parse_value` reads for floats, a decimal
    integer for ints."""
    if not isinstance(text, str):
        raise TypeError(f"value {text!r} is not a string")
    if isinstance(fmt, FloatFormat):
        if text.startswith(("0x", "0X")):
            return SimFloat(fmt, int(text, 16))
        return parse_value(fmt, text)
    return KInt(fmt, int(text))


def format_to_json(fmt: ElementFormat) -> dict:
    if isinstance(fmt, FloatFormat):
        return {"kind": "float", "mantissa_bits": fmt.mantissa_bits,
                "exponent_bits": fmt.exponent_bits}
    return {"kind": "int", "bits": fmt.bits, "signed": fmt.signed,
            "overflow": fmt.overflow}


def format_from_json(d: dict) -> ElementFormat:
    if d["kind"] == "float":
        return FloatFormat(int(d["mantissa_bits"]), int(d["exponent_bits"]))
    if d["kind"] == "int":
        return IntFormat(int(d["bits"]), bool(d["signed"]), d["overflow"])
    raise ValueError(f"unknown format kind {d['kind']!r}")


def load_dataset(path) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        return Dataset.from_json_dict(json.load(fh))


def save_dataset(dataset: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dataset.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")

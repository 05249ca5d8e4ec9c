"""Datasets: ordered sequences of bounded values, run-length encoded.

A dataset carries its element format and the inclusive bounds ``[lower,
upper]`` that every element is checked against.  Elements are stored as
runs ``(value, count)`` so that the attack constructions with billions of
repeated elements stay materialization-free; the summation routines know
how to consume runs directly.

The JSON form keeps every value exact: floats travel as their bit
patterns (hex strings), integers as decimal strings.  Counts are plain
JSON integers.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from typing import Iterable, Iterator, Tuple, Union

from .dyadic import Dyadic
from .floats import FloatFormat, SimFloat
from .ints import IntFormat, KInt

__all__ = ["Dataset", "ElementFormat", "Value", "encode_value", "decode_value",
           "exact_value", "order_key", "format_to_json", "format_from_json",
           "load_dataset", "save_dataset"]

ElementFormat = Union[FloatFormat, IntFormat]
Value = Union[SimFloat, KInt]

SCHEMA_VERSION = 1

# Materializing more elements than this is almost certainly a mistake —
# the run-aware code paths exist precisely to avoid it.
MATERIALIZE_LIMIT = 1 << 22


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
    """

    __slots__ = ("fmt", "lower", "upper", "runs")

    def __init__(self, fmt: ElementFormat, lower: Value, upper: Value,
                 runs: Iterable[Tuple[Value, int]]):
        self._check_value(fmt, lower, "lower bound")
        self._check_value(fmt, upper, "upper bound")
        lo_key, hi_key = order_key(lower), order_key(upper)
        if lo_key > hi_key:
            raise ValueError("lower bound exceeds upper bound")
        merged = []
        for v, c in runs:
            c = int(c)
            self._check_value(fmt, v, "element")
            if c < 1:
                raise ValueError("run counts must be positive")
            if not lo_key <= order_key(v) <= hi_key:
                raise ValueError(f"element {v} outside bounds [{lower}, {upper}]")
            if merged and merged[-1][0] == v:
                merged[-1] = (v, merged[-1][1] + c)
            else:
                merged.append((v, c))
        self.fmt = fmt
        self.lower = lower
        self.upper = upper
        self.runs = tuple(merged)

    @staticmethod
    def _check_value(fmt, v, what):
        if isinstance(fmt, FloatFormat):
            if not isinstance(v, SimFloat) or v.fmt != fmt:
                raise TypeError(f"{what} must be a SimFloat of {fmt}")
            if not v.is_finite():
                raise ValueError(f"{what} must be finite")
        else:
            if not isinstance(v, KInt) or v.fmt != fmt:
                raise TypeError(f"{what} must be a KInt of {fmt}")

    @classmethod
    def from_elements(cls, fmt: ElementFormat, lower: Value, upper: Value,
                      elements: Iterable[Value]) -> "Dataset":
        return cls(fmt, lower, upper, ((v, 1) for v in elements))

    def __len__(self) -> int:
        return sum(c for _, c in self.runs)

    def iter_values(self) -> Iterator[Value]:
        for v, c in self.runs:
            for _ in range(c):
                yield v

    def to_list(self) -> list:
        n = len(self)
        if n > MATERIALIZE_LIMIT:
            raise ValueError(
                f"refusing to materialize {n} elements; use the run-aware paths")
        return list(self.iter_values())

    def replace_elements(self, elements: Iterable[Value]) -> "Dataset":
        return Dataset.from_elements(self.fmt, self.lower, self.upper, elements)

    def replace_elements_unchecked(self, elements: Iterable[Value]
                                   ) -> "Dataset":
        """:meth:`replace_elements` for elements drawn from a dataset over
        this one's frame, which were checked there: the runs are merged,
        and nothing is checked again."""
        out = object.__new__(Dataset)
        out.fmt, out.lower, out.upper = self.fmt, self.lower, self.upper
        out.runs = tuple((v, len(list(run)))
                         for v, run in itertools.groupby(elements))
        return out

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
        runs = []
        for entry in d["elements"]:
            if isinstance(entry, str):
                runs.append((decode_value(fmt, entry), 1))
            else:
                runs.append((decode_value(fmt, entry["value"]),
                             int(entry["count"])))
        return cls(fmt, lower, upper, runs)


def encode_value(v: Value) -> str:
    return v.to_hex() if isinstance(v, SimFloat) else str(v.value)


def decode_value(fmt: ElementFormat, text: str) -> Value:
    if isinstance(fmt, FloatFormat):
        from .floats import parse_value
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

"""Datasets: ordered sequences of bounded values, run-length encoded.

A dataset carries its element format and the inclusive bounds ``[lower,
upper]`` that every element is checked against.  Elements are stored as
runs ``(code, count)`` of ints, so that the attack constructions with
billions of repeated elements stay materialization-free and the
summation routines fold the runs directly.  An element's code is what the
arithmetic works on: a float's bit pattern, with ``-0`` folded into
``+0``, and an integer's value.  Equal codes are equal values.

The JSON form keeps every value exact: floats travel as their bit
patterns (hex strings), integers as decimal strings.  Counts are plain
JSON integers.  Each text has one spelling: ``0x`` and hex digits for a
pattern, ASCII ``-?[0-9]+`` for an integer; other float literals are read
by :func:`~boundedsum.floats.parse_value`.

Validation happens once, on codes, by :func:`check_runs`: each code must
be a finite value of the format (a pattern in range, not a NaN, not an
infinity; an integer in range), each count an integer of at least one,
and each element inside the bounds.  Elements are compared by their
integer order keys (:func:`code_key`), so no exact value is built, and
adjacent runs of equal codes merge.  A file is decoded straight to codes;
value objects enter through ``Dataset(...)`` and :meth:`from_elements`,
and leave through :meth:`iter_values` and :meth:`to_list`.  Datasets
whose codes are valid by construction (cut, shifted or shuffled from a
checked dataset, or brute force's domain and tuples) are built from code
runs by :meth:`Dataset.unchecked`.
"""

from __future__ import annotations

import itertools
import json
import re
from operator import index
from fractions import Fraction
from typing import Iterable, Iterator, List, Tuple, Union

from .dyadic import Dyadic
from .floats import _PATTERN_RE, FloatFormat, SimFloat, parse_value
from .ints import IntFormat, KInt

__all__ = ["Dataset", "ElementFormat", "Value", "encode_value", "decode_value",
           "exact_value", "order_key", "format_to_json", "format_from_json",
           "load_dataset", "save_dataset"]

ElementFormat = Union[FloatFormat, IntFormat]
Value = Union[SimFloat, KInt]

SCHEMA_VERSION = 1

# Materializing more elements than this is almost certainly a mistake —
# the run-aware code paths exist precisely to avoid it.  Every summation
# algorithm reads code runs.  The lists still built are the element codes
# of ``summation.random_permutation`` and of the couplings ``couple_sym``
# and ``couple_co`` in ``sensitivity`` (``Dataset.codes``), and the values
# of ``Dataset.to_list``.  The float run fold (``summation._fold_run``,
# which iterative, split and Kahan runs share) also gives up past this
# many literal steps in one run.
MATERIALIZE_LIMIT = 1 << 22

_INT_RE = re.compile(r"-?[0-9]+")


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
    compare.  To order elements, use :func:`code_key`, which builds no
    Fraction.
    """
    if isinstance(value, SimFloat):
        return value.fmt.grid_fraction(value.to_grid())
    if isinstance(value, KInt):
        return value.value
    if isinstance(value, Dyadic):
        return value.to_fraction()
    return value


def code_key(fmt: ElementFormat, code: int) -> int:
    """An int that orders codes of ``fmt`` exactly as their values.

    For a float it is read off the bit pattern: minus the magnitude bits
    for negatives, the pattern itself otherwise.  Within one sign the
    patterns are ordered by magnitude, and ``-0`` keys as ``+0``, so equal
    keys mean equal values; infinities sort at the ends.  For an integer
    it is the value.
    """
    sign = fmt._kernel[3] if isinstance(fmt, FloatFormat) else 0
    return -(code ^ sign) if code & sign else code


def order_key(value: Value) -> int:
    """The :func:`code_key` of a value."""
    return code_key(value.fmt, value_code(value.fmt, value))


def value_code(fmt: ElementFormat, v, what: str = "element") -> int:
    """The code of a value of ``fmt``: a SimFloat's pattern, a KInt's
    value.  Anything else is a ``TypeError``; the code is not checked."""
    kind = SimFloat if isinstance(fmt, FloatFormat) else KInt
    if not isinstance(v, kind) or (v.fmt is not fmt and v.fmt != fmt):
        raise TypeError(f"{what} must be a {kind.__name__} of {fmt}")
    return v.bits if kind is SimFloat else v.value


def code_value(fmt: ElementFormat, code: int) -> Value:
    """The value of a code of ``fmt``; its constructor checks the code."""
    return (SimFloat if isinstance(fmt, FloatFormat) else KInt)(fmt, code)


def check_runs(fmt: ElementFormat, lower: Value, upper: Value,
               runs: Iterable[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """The one check of a dataset: its runs ``(code, count)``, each float
    ``-0`` folded into ``+0``, once the bounds are finite values of ``fmt``
    in order and each run has an integer count of at least one (a float or
    a boolean count is refused, not cut) and a code inside the bounds.

    A code is compared by its :func:`code_key` alone: a key between two
    finite keys is a finite value's (a pattern out of range, a NaN or an
    infinity keys past every finite one), so only a code outside the
    bounds is decoded, to say what is wrong with it.
    """
    for what, v in (("lower bound", lower), ("upper bound", upper)):
        value_code(fmt, v, what)
        if isinstance(v, SimFloat) and not v.is_finite():
            raise ValueError(f"{what} must be finite")
    lo, hi = order_key(lower), order_key(upper)
    if lo > hi:
        raise ValueError("lower bound exceeds upper bound")
    sign = fmt._kernel[3] if isinstance(fmt, FloatFormat) else 0
    out = []
    for x, c in runs:
        if isinstance(c, bool):
            raise TypeError(f"run count {c!r} is not an integer")
        c = index(c)
        k = -(x ^ sign) if x & sign else x
        if not lo <= k <= hi:
            v = code_value(fmt, x)
            if isinstance(v, SimFloat) and not v.is_finite():
                raise ValueError("element must be finite")
            raise ValueError(f"element {v} outside bounds [{lower}, {upper}]")
        if c < 1:
            raise ValueError("run counts must be positive")
        out.append((x if k else 0, c))
    return out


def merge_runs(runs: Iterable[tuple]) -> tuple:
    """Runs ``(element, count)`` with adjacent equal elements merged."""
    merged = []
    for x, c in runs:
        if merged and merged[-1][0] == x:
            merged[-1] = (x, merged[-1][1] + c)
        else:
            merged.append((x, c))
    return tuple(merged)


class Dataset:
    """An ordered sequence of in-range values plus its bounds.

    ``runs`` holds ``(code, count)`` int pairs (see the module docstring),
    kept maximal — adjacent runs of the same code merge on construction —
    so two datasets are ``==`` exactly when they hold the same element
    sequence, however their encodings chose to chunk it.  The bounds are
    values.  The element count is taken when the dataset is built.
    """

    __slots__ = ("fmt", "lower", "upper", "runs", "_n")

    def __init__(self, fmt: ElementFormat, lower: Value, upper: Value,
                 runs: Iterable[Tuple[Value, int]]):
        self._fill(fmt, lower, upper, check_runs(fmt, lower, upper, [
            (value_code(fmt, v), c) for v, c in runs]))

    def _fill(self, fmt, lower, upper, runs) -> "Dataset":
        self.fmt, self.lower, self.upper = fmt, lower, upper
        self.runs = merge_runs(runs)
        self._n = sum(c for _, c in self.runs)
        return self

    @classmethod
    def unchecked(cls, fmt: ElementFormat, lower: Value, upper: Value,
                  runs: Iterable[Tuple[int, int]]) -> "Dataset":
        """A dataset of code runs known to be valid inside its bounds
        (checked by :func:`check_runs`, or cut, shifted or reordered from
        a checked dataset): adjacent equal codes merge, and nothing is
        checked."""
        return object.__new__(cls)._fill(fmt, lower, upper, runs)

    @classmethod
    def from_elements(cls, fmt: ElementFormat, lower: Value, upper: Value,
                      elements: Iterable[Value]) -> "Dataset":
        return cls(fmt, lower, upper, ((v, 1) for v in elements))

    def __len__(self) -> int:
        return self._n

    def iter_values(self) -> Iterator[Value]:
        return itertools.chain.from_iterable(itertools.repeat(
            code_value(self.fmt, x), c) for x, c in self.runs)

    def codes(self) -> List[int]:
        """The element codes, in order, as one list."""
        check_materialize(len(self))
        return [x for x, c in self.runs for _ in range(c)]

    def to_list(self) -> list:
        check_materialize(len(self))
        return list(self.iter_values())

    def replace_elements(self, elements: Iterable[Value]) -> "Dataset":
        return Dataset.from_elements(self.fmt, self.lower, self.upper, elements)

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
        # a code's text is its value's (see encode_value), built from the int
        text = str if isinstance(self.fmt, IntFormat) else (
            f"0x{{:0{-(-self.fmt.total_bits // 4)}x}}".format)
        return {
            "schema": SCHEMA_VERSION,
            "format": format_to_json(self.fmt),
            "bounds": {"lower": encode_value(self.lower),
                       "upper": encode_value(self.upper)},
            "elements": [{"value": text(x), "count": c} for x, c in self.runs],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "Dataset":
        if d.get("schema") != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema {d.get('schema')!r}")
        fmt = format_from_json(d["format"])
        lower = decode_value(fmt, d["bounds"]["lower"])
        upper = decode_value(fmt, d["bounds"]["upper"])
        runs = [(decode_code(fmt, entry), 1) if isinstance(entry, str)
                else (decode_code(fmt, entry["value"]), entry["count"])
                for entry in d["elements"]]
        return cls.unchecked(fmt, lower, upper,
                             check_runs(fmt, lower, upper, runs))


def encode_value(v: Value) -> str:
    return v.to_hex() if isinstance(v, SimFloat) else str(v.value)


def decode_code(fmt: ElementFormat, text: str) -> int:
    """The code of an element's JSON text, not yet checked: a ``0x..``
    bit pattern, or any other literal
    :func:`~boundedsum.floats.parse_value` reads, for floats; an ASCII
    decimal integer for ints."""
    if not isinstance(text, str):
        raise TypeError(f"value {text!r} is not a string")
    if isinstance(fmt, FloatFormat):
        return (int(text, 16) if _PATTERN_RE.fullmatch(text)
                else parse_value(fmt, text).bits)
    if _INT_RE.fullmatch(text):
        return int(text)
    raise ValueError(f"{text!r} is not a decimal integer")


def decode_value(fmt: ElementFormat, text: str) -> Value:
    """A value from its JSON text (see :func:`decode_code`)."""
    return code_value(fmt, decode_code(fmt, text))


def format_to_json(fmt: ElementFormat) -> dict:
    if isinstance(fmt, FloatFormat):
        return {"kind": "float", "mantissa_bits": fmt.mantissa_bits,
                "exponent_bits": fmt.exponent_bits}
    return {"kind": "int", "bits": fmt.bits, "signed": fmt.signed,
            "overflow": fmt.overflow}


def format_from_json(d: dict) -> ElementFormat:
    if d["kind"] == "float":
        return FloatFormat(_field(d, "mantissa_bits", int),
                           _field(d, "exponent_bits", int))
    if d["kind"] == "int":
        return IntFormat(_field(d, "bits", int), _field(d, "signed", bool),
                         d["overflow"])
    raise ValueError(f"unknown format kind {d['kind']!r}")


def _field(d: dict, name: str, kind: type):
    """A format field of exactly the type ``kind``: an int that is not a
    boolean, or a boolean.  Nothing is converted."""
    if d[name].__class__ is not kind:
        raise TypeError(f"format field {name!r} must be {kind.__name__}, "
                        f"not {d[name]!r}")
    return d[name]


def load_dataset(path) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        return Dataset.from_json_dict(json.load(fh))


def save_dataset(dataset: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dataset.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")

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

Validation happens once per file or constructor call, on codes, by
:func:`check_runs`: each code must be a finite value of the format (a
pattern in range, not a NaN, not an infinity; an integer in range), each
count an integer of at least one, and each element inside the bounds.
Elements are compared by their integer order keys (:func:`code_key`), so
no exact value is built, and adjacent runs of equal codes merge.  The
checks are made in bulk, by C-level builtins over whole lists: a file's
texts are matched by one regular expression and read by ``map(int,
...)``; the count types are one set and the counts have one minimum; the
codes are bounded by their extremes on each side of the sign bit; the
``-0`` fold and the merge run only when a ``-0`` or two adjacent equal
codes are there.  The per-run loop (:func:`_check_each`) only words
refusals: runs that fail the bulk check (or whose counts are of another
integer type) go through it, and it names the first bad run.  Texts outside the regular expression go one by one
through :func:`decode_code`, which reads other float literals and names
the first text it refuses.  A file is
decoded straight to codes; value objects enter through ``Dataset(...)``
and :meth:`from_elements`, and leave through :meth:`iter_values` and
:meth:`to_list`.  Datasets whose codes are valid by construction (cut,
shifted or shuffled from a checked dataset, or brute force's domain and
tuples) are built from code runs by :meth:`Dataset.unchecked`.

Files are written by :func:`json_text`, which gives exactly the text of
``json.dumps(..., indent=2, sort_keys=True)`` but formats each element
list straight from the code runs, one ``%`` format per run.
"""

from __future__ import annotations

import itertools
import json
import re
from operator import eq, index, itemgetter
from fractions import Fraction
from typing import Iterable, Iterator, List, Tuple, Union

from .dyadic import Dyadic
from .floats import _PATTERN_RE, FloatFormat, SimFloat, parse_value
from .ints import IntFormat, KInt

__all__ = ["Dataset", "ElementFormat", "Value", "encode_value", "decode_value",
           "exact_value", "order_key", "format_to_json", "format_from_json",
           "json_text", "load_dataset", "save_dataset"]

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
# every text of a file at once, joined by newlines (see _decode_codes)
_INTS_RE, _PATTERNS_RE = (re.compile(f"{r.pattern}(?:\n{r.pattern})*")
                          for r in (_INT_RE, _PATTERN_RE))
# what json_text has the stdlib write in place of an element list; only a
# string equal to it writes as its JSON text, whose quotes are unescaped
_ELEMENTS = "\0elements\0"
_ELEMENTS_TEXT = json.dumps(_ELEMENTS)


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
               codes: List[int], counts: list) -> Tuple[Tuple[int, int], ...]:
    """The one check of a dataset, given as the codes and counts of its
    runs: once the bounds are finite values of ``fmt`` in order, each run
    must have an integer count of at least one (a float or a boolean count
    is refused, not cut) and a code inside the bounds.  Returns the
    maximal runs ``(code, count)``, each float ``-0`` folded into ``+0``.

    The check is made in bulk: the count types as one set, the smallest
    count, and the extreme codes on each side of the sign bit.  A code is
    compared by its :func:`code_key` alone: a key between two finite keys
    is a finite value's (a pattern out of range, a NaN or an infinity keys
    past every finite one).  The ``-0`` fold runs only when a ``-0`` is
    there, the merge only when two adjacent codes are equal.  Runs that
    fail the bulk check (or have counts of another integer type) go
    through :func:`_check_each`, which names the first bad run.
    """
    for what, v in (("lower bound", lower), ("upper bound", upper)):
        value_code(fmt, v, what)
        if isinstance(v, SimFloat) and not v.is_finite():
            raise ValueError(f"{what} must be finite")
    lo, hi = order_key(lower), order_key(upper)
    if lo > hi:
        raise ValueError("lower bound exceeds upper bound")
    sign = fmt._kernel[3] if isinstance(fmt, FloatFormat) else 0
    if not (set(map(type, counts)) <= {int} and _inside(codes, sign, lo, hi)
            and (not counts or min(counts) >= 1)):
        return merge_runs(_check_each(fmt, lower, upper, codes, counts))
    if sign and sign in codes:
        codes = [0 if x == sign else x for x in codes]
    return merge_runs(zip(codes, counts))


def _inside(codes: List[int], sign: int, lo: int, hi: int) -> bool:
    """Whether every code's :func:`code_key` lies in ``[lo, hi]``, read
    off the extreme codes: below the sign bit the key is the code, at or
    above it ``sign - code``.  A negative code, or one of ``2 * sign`` or
    more (a pattern out of range), is never inside."""
    if not codes:
        return True
    low, high = min(codes), max(codes)
    if not sign:
        return lo <= low and high <= hi
    if low < 0 or high >= 2 * sign:
        return False
    if low < sign:
        top = high if high < sign else max(filter(sign.__gt__, codes))
        if not lo <= low <= top <= hi:
            return False
    if high >= sign:
        bottom = low if low >= sign else min(filter(sign.__le__, codes))
        if not lo <= sign - high <= sign - bottom <= hi:
            return False
    return True


def _check_each(fmt: ElementFormat, lower: Value, upper: Value,
                codes: List[int], counts: list) -> List[Tuple[int, int]]:
    """:func:`check_runs` run by run, for runs its bulk check doubts: the
    first bad run is refused, or every run passes with its count read
    through ``operator.index`` and its ``-0`` folded."""
    lo, hi = order_key(lower), order_key(upper)
    sign = fmt._kernel[3] if isinstance(fmt, FloatFormat) else 0
    out = []
    for x, c in zip(codes, counts):
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


def _codes(fmt: ElementFormat, values: list) -> List[int]:
    """The codes of a list of values of ``fmt``, in one pass that keeps
    the values of ``fmt``'s kind and of ``fmt`` itself.  If it drops one,
    the values go one by one through :func:`value_code`, which also takes
    an equal format object and names the first stray value."""
    if isinstance(fmt, FloatFormat):
        codes = [v.bits for v in values
                 if v.__class__ is SimFloat and v.fmt is fmt]
    else:
        codes = [v.value for v in values
                 if v.__class__ is KInt and v.fmt is fmt]
    if len(codes) == len(values):
        return codes
    return [value_code(fmt, v) for v in values]


def merge_runs(runs: Iterable[tuple]) -> tuple:
    """Runs ``(element, count)`` with adjacent equal elements merged.  The
    runs are grouped only if two adjacent elements are equal."""
    runs = tuple(runs)
    xs = list(map(itemgetter(0), runs))
    if not any(map(eq, xs, itertools.islice(xs, 1, None))):
        return runs
    return tuple((x, sum(map(itemgetter(1), group)))
                 for x, group in itertools.groupby(runs, itemgetter(0)))


class Dataset:
    """An ordered sequence of in-range values plus its bounds.

    ``runs`` holds ``(code, count)`` int pairs (see the module docstring),
    kept maximal — adjacent runs of the same code merge on construction —
    so two datasets are ``==`` exactly when they hold the same element
    sequence, however their encodings chose to chunk it.  The bounds are
    values.  The element count ``n`` is taken when the dataset is built,
    and the package reads it there; ``len()`` gives it too, but only up
    to ``sys.maxsize``, and is kept for ``perfbench/tracer.py``.
    """

    __slots__ = ("fmt", "lower", "upper", "runs", "n")

    def __init__(self, fmt: ElementFormat, lower: Value, upper: Value,
                 runs: Iterable[Tuple[Value, int]]):
        runs = list(runs)
        self._checked(fmt, lower, upper, [v for v, _ in runs],
                      [c for _, c in runs])

    def _checked(self, fmt, lower, upper, values: list,
                 counts: list) -> "Dataset":
        """Set the fields from runs of values once :func:`check_runs`
        passes them."""
        return self._fill(fmt, lower, upper, check_runs(
            fmt, lower, upper, _codes(fmt, values), counts))

    def _fill(self, fmt, lower, upper, runs: tuple) -> "Dataset":
        """Set the fields from maximal runs."""
        self.fmt, self.lower, self.upper = fmt, lower, upper
        self.runs = runs
        self.n = sum(map(itemgetter(1), runs))
        return self

    @classmethod
    def unchecked(cls, fmt: ElementFormat, lower: Value, upper: Value,
                  runs: Iterable[Tuple[int, int]]) -> "Dataset":
        """A dataset of code runs known to be valid inside its bounds
        (checked by :func:`check_runs`, or cut, shifted or reordered from
        a checked dataset): adjacent equal codes merge, and nothing is
        checked."""
        return object.__new__(cls)._fill(fmt, lower, upper, merge_runs(runs))

    @classmethod
    def from_elements(cls, fmt: ElementFormat, lower: Value, upper: Value,
                      elements: Iterable[Value]) -> "Dataset":
        values = list(elements)
        return object.__new__(cls)._checked(fmt, lower, upper, values,
                                            [1] * len(values))

    def __len__(self) -> int:
        return self.n

    def iter_values(self) -> Iterator[Value]:
        return itertools.chain.from_iterable(itertools.repeat(
            code_value(self.fmt, x), c) for x, c in self.runs)

    def codes(self) -> List[int]:
        """The element codes, in order, as one list."""
        check_materialize(self.n)
        return [x for x, c in self.runs for _ in range(c)]

    def to_list(self) -> list:
        check_materialize(self.n)
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
                f"n={self.n}, runs={len(self.runs)})")

    # -- serialization -----------------------------------------------------

    def _json_head(self, elements) -> dict:
        """The JSON form with ``elements`` as its element list."""
        return {
            "schema": SCHEMA_VERSION,
            "format": format_to_json(self.fmt),
            "bounds": {"lower": encode_value(self.lower),
                       "upper": encode_value(self.upper)},
            "elements": elements,
        }

    def _code_field(self) -> str:
        """A ``%`` field that writes a code as its value's text (see
        :func:`encode_value`)."""
        if isinstance(self.fmt, IntFormat):
            return "%d"
        return f"0x%0{-(-self.fmt.total_bits // 4)}x"

    def to_json_dict(self) -> dict:
        text = self._code_field().__mod__
        return self._json_head([{"value": text(x), "count": c}
                                for x, c in self.runs])

    def _elements_text(self, indent: int) -> str:
        """The text ``json.dumps(..., indent=2)`` writes for the element
        list of :meth:`to_json_dict` when its key is indented by
        ``indent`` spaces: one ``%`` format per run."""
        if not self.runs:
            return "[]"
        end, item, field = ("\n" + " " * n for n in (indent, indent + 2,
                                                      indent + 4))
        run = (f'{item}{{{field}"count": %d,{field}"value": '
               f'"{self._code_field()}"{item}}}')
        counts_codes = zip(map(itemgetter(1), self.runs),
                           map(itemgetter(0), self.runs))
        return "[" + ",".join(map(run.__mod__, counts_codes)) + end + "]"

    @classmethod
    def from_json_dict(cls, d: dict) -> "Dataset":
        if d.get("schema") != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema {d.get('schema')!r}")
        fmt = format_from_json(d["format"])
        lower = decode_value(fmt, d["bounds"]["lower"])
        upper = decode_value(fmt, d["bounds"]["upper"])
        elements = d["elements"]
        try:
            texts = list(map(itemgetter("value"), elements))
            counts = list(map(itemgetter("count"), elements))
        except (TypeError, KeyError):
            # bare strings, or entries that are not objects: one by one
            runs = [(decode_code(fmt, entry), 1) if isinstance(entry, str)
                    else (decode_code(fmt, entry["value"]), entry["count"])
                    for entry in elements]
            codes, counts = [x for x, _ in runs], [c for _, c in runs]
        else:
            codes = _decode_codes(fmt, texts)
        return object.__new__(cls)._fill(
            fmt, lower, upper, check_runs(fmt, lower, upper, codes, counts))


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


def _decode_codes(fmt: ElementFormat, texts: list) -> List[int]:
    """:func:`decode_code` of each text, in bulk: the texts joined by
    newlines are matched once against the grammar of every text being a
    bit pattern (floats) or an ASCII decimal integer (ints), then read by
    ``map(int, ...)``.  Texts outside it go one by one through
    :func:`decode_code`, which reads other float literals and names the
    first text it refuses."""
    is_float = isinstance(fmt, FloatFormat)
    try:
        joined = "\n".join(texts)
    except TypeError:  # a text that is not a string
        joined = ""
    if (joined.count("\n") == len(texts) - 1
            and (_PATTERNS_RE if is_float else _INTS_RE).fullmatch(joined)):
        return list(map(int, texts, itertools.repeat(16)) if is_float
                    else map(int, texts))
    return [decode_code(fmt, t) for t in texts]


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


def json_text(obj) -> str:
    """Exactly the text of ``json.dumps(obj, indent=2, sort_keys=True)``,
    where each Dataset in ``obj`` stands for its :meth:`~Dataset.to_json_dict`.

    An indented ``json.dumps`` runs the stdlib's pure-Python encoder, one
    call per value, so a dataset's element list is not given to it: the
    stdlib writes ``obj`` with a placeholder string for each element
    list, and each list's text is then formatted from the dataset's runs
    (:meth:`Dataset._elements_text`) at the placeholder's depth.  With no
    Dataset in ``obj`` this is that ``json.dumps`` call alone.
    """
    datasets = []

    def head(o):
        datasets.append(_dataset(o))
        return o._json_head(_ELEMENTS)

    text = json.dumps(obj, indent=2, sort_keys=True, default=head)
    if not datasets:
        return text
    parts = text.split(_ELEMENTS_TEXT)
    if len(parts) != len(datasets) + 1:
        # a string of obj's own is the placeholder's
        return json.dumps(obj, indent=2, sort_keys=True,
                          default=lambda o: _dataset(o).to_json_dict())
    out = [parts[0]]
    for ds, part in zip(datasets, parts[1:]):
        line = out[-1][out[-1].rfind("\n") + 1:]
        out += [ds._elements_text(len(line) - len(line.lstrip(" "))), part]
    return "".join(out)


def _dataset(o) -> Dataset:
    """``o`` if it is a Dataset; otherwise the stdlib's refusal."""
    if not isinstance(o, Dataset):
        raise TypeError(f"Object of type {o.__class__.__name__} "
                        "is not JSON serializable")
    return o


def save_dataset(dataset: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json_text(dataset))
        fh.write("\n")

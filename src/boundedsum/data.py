"""Datasets: ordered sequences of bounded values, run-length encoded.

A dataset carries its element format and the inclusive bounds ``[lower,
upper]`` that every element is checked against.  Elements are stored as
entries of ints, so that the attack constructions with billions of
repeated elements stay materialization-free and the summation routines
fold the entries directly.  An entry is a run ``(code, count)``, ``count``
copies of one element, or a block ``(codes, count)``: ``count`` copies in a
row of the tuple ``codes`` of 1 to ``_MAX_BLOCK_SIZE`` elements, such as
the alternating tail of a repeated-rounding attack.  An element's code is
what the arithmetic works on: a float's bit pattern, with ``-0`` folded
into ``+0``, and an integer's value.  Equal codes are equal values.

Blocks are found in one place, :func:`_settle`, the normaliser every
constructor calls: a block entry of fewer than ``_MIN_BLOCK_COPIES``
copies is held as its runs, and one of a single code as one run; adjacent
equal entries merge; and a stretch of runs that repeats a block of at most
``_MAX_BLOCK_RUNS`` runs and ``_MAX_BLOCK_SIZE`` elements
``_MIN_BLOCK_COPIES`` times or more is held as one block entry.  So a file
of runs written before blocks, or a dataset built run by run, holds its
blocks as a generated one does, and every reader takes one kind of entry.
Datasets are ``==`` when they hold the same element sequence, however
their entries chunk it.

The JSON form keeps every value exact: floats travel as their bit
patterns (hex strings), integers as decimal strings.  Counts are plain
JSON integers.  Each text has one spelling: ``0x`` and hex digits for a
pattern, ASCII ``-?[0-9]+`` for an integer; other float literals are read
by :func:`~boundedsum.floats.parse_value`.  An element entry is a bare
text (one element), a run ``{"count": c, "value": text}``, or a block
``{"block": [text, ...], "count": c}``, whose list holds 1 to
``_MAX_BLOCK_SIZE`` texts; an entry with both ``value`` and ``block`` is
refused.  Blocks are an additive form of schema 1: files of runs read as
before, and a dataset is written with a block entry wherever it holds
one, found among its runs or not.

Validation happens once per file or constructor call, on codes, by
:func:`check_runs`: each code must be a finite value of the format (a
pattern in range, not a NaN, not an infinity; an integer in range), each
count an integer of at least one, each block of 1 to ``_MAX_BLOCK_SIZE``
codes, and each element inside the bounds.  A block's codes are checked
once, not once a copy.  Elements are compared by their integer order
keys (:func:`code_key`), so no exact value is built, and adjacent runs of
equal codes merge.  The checks are made in bulk, by C-level builtins
over whole lists: a file's texts are matched by one regular expression
and read by ``map(int, ...)``; the count types are one set and the counts
have one minimum; the codes are bounded by their extremes on each side
of the sign bit; the ``-0`` fold runs only when a ``-0`` is there, and
the merge and the block scan only when a code is there twice.  A file of
runs alone takes this path, with one more C-level pass that sees each
entry holds only its two keys; a file with a block, or an entry of
another shape, is read entry by entry.  The per-entry loop
(:func:`_check_each`) only words refusals: entries that fail the bulk
check (or whose counts are of another integer type) go through it, and
it names the first bad one.  Texts outside the
regular expression go one by one through :func:`decode_code`, which
reads other float literals and names the first text it refuses.  A file
is decoded straight to codes; value objects enter through
``Dataset(...)`` (a block as a tuple of values) and :meth:`from_elements`,
and leave through :meth:`iter_values` and :meth:`to_list`.  Datasets
whose codes are valid by construction (cut, shifted or shuffled from a
checked dataset, or brute force's domain and tuples) are built from code
entries by :meth:`Dataset.unchecked`.

Files are written by :func:`json_text`, which gives exactly the text of
``json.dumps(..., indent=2, sort_keys=True)`` but formats each element
list straight from the entries, one ``%`` format per run.
"""

from __future__ import annotations

import itertools
import json
import math
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
# algorithm, the histograms and the Hamming distance read entries, and
# each block as the one entry _settle made of it, whether it came as a
# block or as runs.  The lists still built are the element codes of
# ``summation.random_permutation`` and of the couplings ``couple_sym`` and
# ``couple_co`` in ``sensitivity`` (``Dataset.codes``), and the values of
# ``Dataset.to_list``; ``metrics.d_id`` builds both sequences under its own
# table limit.  The float run fold (``summation._fold_run``, which
# iterative, split and Kahan runs and blocks share) also gives up past
# this many literal steps in one run or block.
MATERIALIZE_LIMIT = 1 << 22

# a block is a tuple of at most this many codes, held at this many copies
# or more (see the module docstring): summation._fold_run watches two steps
# before it can jump, so three copies never jump, and four jump only over
# the last two, where the watch and the jump cost more than the steps
_MAX_BLOCK_SIZE = 12
_MIN_BLOCK_COPIES = 5
# and a stretch of runs is found as a block when one copy is at most this
# many runs; _settle scans once for each length, up to this one
_MAX_BLOCK_RUNS = 4

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
               codes: List, counts: list) -> tuple:
    """The one check of a dataset, given as the codes and counts of its
    entries: once the bounds are finite values of ``fmt`` in order, each
    entry must have an integer count of at least one (a float or a
    boolean count is refused, not cut) and codes inside the bounds.  An
    entry's code may be a tuple of 1 to ``_MAX_BLOCK_SIZE`` codes, a
    block, whose codes are checked once.  Returns the entries, each float
    ``-0`` folded into ``+0``, for :func:`_settle` to hold.

    The check is made in bulk: the count types as one set, the smallest
    count, and the extreme codes on each side of the sign bit.  A code is
    compared by its :func:`code_key` alone: a key between two finite keys
    is a finite value's (a pattern out of range, a NaN or an infinity keys
    past every finite one).  The ``-0`` fold runs only when a ``-0`` is
    there.  Entries that fail the bulk check (or have counts of another
    integer type) go through :func:`_check_each`, which names the first
    bad one.
    """
    for what, v in (("lower bound", lower), ("upper bound", upper)):
        value_code(fmt, v, what)
        if isinstance(v, SimFloat) and not v.is_finite():
            raise ValueError(f"{what} must be finite")
    lo, hi = order_key(lower), order_key(upper)
    if lo > hi:
        raise ValueError("lower bound exceeds upper bound")
    sign = fmt._kernel[3] if isinstance(fmt, FloatFormat) else 0
    flat = codes
    blocks = tuple in set(map(type, codes))
    if blocks:
        flat = list(itertools.chain.from_iterable(
            x if x.__class__ is tuple else (x,) for x in codes))
    if not (set(map(type, counts)) <= {int} and _inside(flat, sign, lo, hi)
            and (not counts or min(counts) >= 1)
            and (not blocks or all(1 <= len(x) <= _MAX_BLOCK_SIZE
                                   for x in codes if x.__class__ is tuple))):
        return _check_each(fmt, lower, upper, codes, counts)
    if sign and sign in flat:
        codes = [tuple([0 if y == sign else y for y in x])
                 if x.__class__ is tuple else 0 if x == sign else x
                 for x in codes]
    return tuple(zip(codes, counts))


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
                codes: list, counts: list) -> List[tuple]:
    """:func:`check_runs` entry by entry, for entries its bulk check
    doubts: the first bad entry is refused, or every entry passes with its
    count read through ``operator.index`` and its ``-0`` folded."""
    lo, hi = order_key(lower), order_key(upper)
    sign = fmt._kernel[3] if isinstance(fmt, FloatFormat) else 0

    def checked(x: int) -> int:
        k = -(x ^ sign) if x & sign else x
        if not lo <= k <= hi:
            v = code_value(fmt, x)
            if isinstance(v, SimFloat) and not v.is_finite():
                raise ValueError("element must be finite")
            raise ValueError(f"element {v} outside bounds [{lower}, {upper}]")
        return x if k else 0

    out = []
    for x, c in zip(codes, counts):
        what = "block" if x.__class__ is tuple else "run"
        if isinstance(c, bool) or what == "block" and not isinstance(c, int):
            raise TypeError(f"{what} count {c!r} is not an integer")
        c = index(c)
        if what == "run":
            x = checked(x)
        elif not 1 <= len(x) <= _MAX_BLOCK_SIZE:
            raise ValueError(f"a block holds 1 to {_MAX_BLOCK_SIZE} "
                             f"elements, not {len(x)}")
        else:
            x = tuple(map(checked, x))
        if c < 1:
            raise ValueError(f"{what} counts must be positive")
        out.append((x, c))
    return out


def _settle(entries: Iterable[tuple]) -> Tuple[tuple, bool]:
    """Entries of runs and blocks as a dataset holds them, and whether one
    is a block: the one place where blocks are found.  A block entry of
    fewer than ``_MIN_BLOCK_COPIES`` copies is its runs, a block of one
    code is one run, adjacent equal entries merge (see
    :func:`merge_runs`), and each stretch of runs that repeats a block is
    one block entry (see :func:`_found`).  Runs with no code twice (dense
    data) are held as they are after C-level checks alone."""
    runs = tuple(entries)
    xs = list(map(itemgetter(0), runs))
    if tuple in set(map(type, xs)):
        out = []
        for x, c in runs:
            if x.__class__ is not tuple:
                out.append((x, c))
            elif len(set(x)) == 1:
                out.append((x[0], len(x) * c))
            elif c < _MIN_BLOCK_COPIES:
                out += zip(x * c, itertools.repeat(1))
            else:
                out.append((x, c))
        runs = out
    elif len(set(xs)) == len(xs):  # nothing merges, no block is there
        return runs, False
    runs = _found(merge_runs(runs))
    return runs, tuple in set(map(type, map(itemgetter(0), runs)))


def _found(runs: tuple) -> tuple:
    """The merged entries ``runs`` with each stretch of runs that repeats
    a block held as one block entry.

    A block is a stretch of at least ``_MIN_BLOCK_COPIES`` copies in a row
    of the same ``b <= _MAX_BLOCK_RUNS`` runs, of at most
    ``_MAX_BLOCK_SIZE`` elements in all, such as the alternating tail of
    ``repeated_rounding_2`` written as runs.  Runs are merged, so ``b >=
    2``.  A stretch is a run of ``(_MIN_BLOCK_COPIES - 1) * b`` or more
    ``True`` in ``entry i == entry i + b``, found by C-level scans; among
    overlapping stretches the earliest wins, then the shortest block, and
    the later one keeps the whole blocks past it (any ``b`` entries in a
    row of a stretch are a copy of it).  Every copy of a stretch through a
    block entry holds that entry, so it is passed over: blocks are found
    only among the runs between block entries.  A block's size is summed
    from its counts before its elements are listed.  Entries with fewer
    than ``2 * (_MIN_BLOCK_COPIES - 1)`` equal to earlier ones are returned
    after one C-level check: ``c`` copies of ``b >= 2`` entries hold ``(c -
    1) * b`` of them.
    """
    if len(runs) - len(set(runs)) < 2 * (_MIN_BLOCK_COPIES - 1):
        return runs
    found = []
    for b in range(2, _MAX_BLOCK_RUNS + 1):
        same = bytes(map(eq, runs, runs[b:])) + b"\0"
        least = b"\1" * ((_MIN_BLOCK_COPIES - 1) * b)
        i = same.find(least)
        while i >= 0:
            j = same.find(0, i)
            found.append((i, b, j + b))  # runs[i:j+b] repeat runs[i:i+b]
            i = same.find(least, j)
    out, end = [], 0
    for start, b, stop in sorted(found):
        start = max(start, end)
        reps = (stop - start) // b
        copy = runs[start:start + b]
        # the size first: a count may be far past any list
        if (reps >= _MIN_BLOCK_COPIES
                and tuple not in map(type, map(itemgetter(0), copy))
                and sum(map(itemgetter(1), copy)) <= _MAX_BLOCK_SIZE):
            out += runs[end:start]
            out.append((tuple([x for x, c in copy for _ in range(c)]), reps))
            end = start + b * reps
    # a block found next to a block entry of the same codes merges with it
    return merge_runs(out + list(runs[end:]))


def _codes(fmt: ElementFormat, values: list) -> list:
    """The codes of a list of values of ``fmt``, in one pass that keeps
    the values of ``fmt``'s kind and of ``fmt`` itself.  If it drops one,
    the values go one by one through :func:`value_code`, which also takes
    an equal format object and names the first stray value; a tuple of
    values is a block, whose codes are a tuple."""
    if isinstance(fmt, FloatFormat):
        codes = [v.bits for v in values
                 if v.__class__ is SimFloat and v.fmt is fmt]
    else:
        codes = [v.value for v in values
                 if v.__class__ is KInt and v.fmt is fmt]
    if len(codes) == len(values):
        return codes
    return [tuple([value_code(fmt, y) for y in v]) if v.__class__ is tuple
            else value_code(fmt, v) for v in values]


def merge_runs(runs: Iterable[tuple]) -> tuple:
    """Entries ``(element, count)`` with adjacent equal elements merged
    (two copies of one block in a row are one block).  The entries are
    grouped only if two adjacent elements are equal."""
    runs = tuple(runs)
    xs = list(map(itemgetter(0), runs))
    if not any(map(eq, xs, itertools.islice(xs, 1, None))):
        return runs
    return tuple((x, sum(map(itemgetter(1), group)))
                 for x, group in itertools.groupby(runs, itemgetter(0)))


def entry_size(x) -> int:
    """The elements of one copy of an entry's code: a block's length, or 1
    for a run's one code."""
    return len(x) if x.__class__ is tuple else 1


def element_codes(runs: Iterable[tuple]) -> Iterator:
    """The elements of entries, in order, as a lazy iterator."""
    return itertools.chain.from_iterable(
        itertools.repeat(x, c) if x.__class__ is not tuple
        else itertools.chain.from_iterable(itertools.repeat(x, c))
        for x, c in runs)


def aligned(a: Iterable[tuple], b: Iterable[tuple]) -> Iterator[tuple]:
    """The positions of two element sequences, given as entries, side by
    side while both last: triples ``(x, y, count)``, ``count`` positions
    where ``a`` holds ``x`` and ``b`` holds ``y``.

    Each entry is read as a periodic stretch: a run of period one, a block
    of its length.  Where both sides are inside stretches for ``m`` more
    positions, one common period (their lengths' least common multiple,
    at most 132 elements) is walked: each of its positions stands for
    itself in every whole period in ``m``, and once more if it lies in
    the part period past them.  So two runs side by side are one triple,
    and the triples come in order only up to the periods they fold.
    """
    a, b = iter(a), iter(b)
    xa = xb = ()
    left_a = left_b = phase_a = phase_b = 0
    while True:
        if not left_a:
            x, c = next(a, ((), 0))
            if not c:
                return
            xa = x if x.__class__ is tuple else (x,)
            left_a, phase_a = len(xa) * c, 0
        if not left_b:
            x, c = next(b, ((), 0))
            if not c:
                return
            xb = x if x.__class__ is tuple else (x,)
            left_b, phase_b = len(xb) * c, 0
        m = min(left_a, left_b)
        la, lb = len(xa), len(xb)
        if la == lb == 1:
            yield xa[0], xb[0], m
        else:
            period = math.lcm(la, lb)
            whole, rest = divmod(m, period)
            for t in range(min(m, period)):
                yield (xa[(phase_a + t) % la], xb[(phase_b + t) % lb],
                       whole + (t < rest))
        phase_a, phase_b = (phase_a + m) % la, (phase_b + m) % lb
        left_a -= m
        left_b -= m


class Dataset:
    """An ordered sequence of in-range values plus its bounds.

    ``runs`` holds the entries (see the module docstring): runs ``(code,
    count)`` and blocks ``(codes, count)`` of ints, as every constructor
    settles them (:func:`_settle`, where blocks are found).  ``blocks``
    says whether one entry is a block, as read off the entries there; the
    readers that only take runs take a dataset without one as before.  Two
    datasets are ``==`` exactly when they hold the same element sequence,
    however their entries chunk it.  The bounds are values.  The
    element count ``n`` is taken when the dataset is built, and the
    package reads it there; ``len()`` gives it too, but only up to
    ``sys.maxsize``, and is kept for ``perfbench/tracer.py``.
    """

    __slots__ = ("fmt", "lower", "upper", "runs", "n", "blocks")

    def __init__(self, fmt: ElementFormat, lower: Value, upper: Value,
                 runs: Iterable[Tuple[Value, int]]):
        runs = list(runs)
        self._checked(fmt, lower, upper, [v for v, _ in runs],
                      [c for _, c in runs])

    def _checked(self, fmt, lower, upper, values: list,
                 counts: list) -> "Dataset":
        """Set the fields from entries of values (a block's a tuple of
        them) once :func:`check_runs` passes them."""
        return self._fill(fmt, lower, upper, check_runs(
            fmt, lower, upper, _codes(fmt, values), counts))

    def _fill(self, fmt, lower, upper, entries: Iterable[tuple]
              ) -> "Dataset":
        """Set the fields from valid code entries, held as :func:`_settle`
        holds them."""
        self.fmt, self.lower, self.upper = fmt, lower, upper
        self.runs, self.blocks = runs, blocks = _settle(entries)
        self.n = (sum(len(x) * c if x.__class__ is tuple else c
                      for x, c in runs) if blocks
                  else sum(map(itemgetter(1), runs)))
        return self

    @classmethod
    def unchecked(cls, fmt: ElementFormat, lower: Value, upper: Value,
                  runs: Iterable[tuple]) -> "Dataset":
        """A dataset of code entries known to be valid inside its bounds
        (checked by :func:`check_runs`, or cut, shifted or reordered from
        a checked dataset), settled by :func:`_settle`; nothing is
        checked."""
        return object.__new__(cls)._fill(fmt, lower, upper, runs)

    @classmethod
    def from_elements(cls, fmt: ElementFormat, lower: Value, upper: Value,
                      elements: Iterable[Value]) -> "Dataset":
        values = list(elements)
        return object.__new__(cls)._checked(fmt, lower, upper, values,
                                            [1] * len(values))

    def __len__(self) -> int:
        return self.n

    def multiset(self) -> tuple:
        """The element multiset as runs ``(code, count)``: the runs, and
        each code of a block with the block's count.  A code may be in
        more than one run, and the runs are in no useful order."""
        if not self.blocks:
            return self.runs
        return tuple((y, c) for x, c in self.runs
                     for y in (x if x.__class__ is tuple else (x,)))

    def iter_values(self) -> Iterator[Value]:
        fmt = self.fmt
        return element_codes(
            (tuple([code_value(fmt, y) for y in x])
             if x.__class__ is tuple else code_value(fmt, x), c)
            for x, c in self.runs)

    def codes(self) -> List[int]:
        """The element codes, in order, as one list."""
        check_materialize(self.n)
        return list(element_codes(self.runs))

    def to_list(self) -> list:
        check_materialize(self.n)
        return list(self.iter_values())

    def replace_elements(self, elements: Iterable[Value]) -> "Dataset":
        return Dataset.from_elements(self.fmt, self.lower, self.upper, elements)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        if (self.fmt != other.fmt or self.lower != other.lower
                or self.upper != other.upper or self.n != other.n):
            return False
        if self.runs == other.runs:
            return True
        # maximal runs chunk a sequence one way; with a block, in others
        return (self.blocks or other.blocks) and all(
            x == y for x, y, _ in aligned(self.runs, other.runs))

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
        return self._json_head([
            {"block": list(map(text, x)), "count": c}
            if x.__class__ is tuple else {"value": text(x), "count": c}
            for x, c in self.runs])

    def _elements_text(self, indent: int) -> str:
        """The text ``json.dumps(..., indent=2)`` writes for the element
        list of :meth:`to_json_dict` when its key is indented by
        ``indent`` spaces: one ``%`` format per run, and a block's text
        written from its codes."""
        if not self.runs:
            return "[]"
        end, item, field, inner = ("\n" + " " * n for n in (
            indent, indent + 2, indent + 4, indent + 6))
        code = f'"{self._code_field()}"'
        run = f'{item}{{{field}"count": %d,{field}"value": {code}{item}}}'
        if not self.blocks:
            counts_codes = zip(map(itemgetter(1), self.runs),
                               map(itemgetter(0), self.runs))
            return "[" + ",".join(map(run.__mod__, counts_codes)) + end + "]"
        code = (inner + code).__mod__
        return "[" + ",".join([
            f'{item}{{{field}"block": [{",".join(map(code, x))}{field}],'
            f'{field}"count": {c}{item}}}' if x.__class__ is tuple
            else run % (c, x) for x, c in self.runs]) + end + "]"

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
            # a run entry holds these two keys and no other
            bulk = max(map(len, elements), default=2) == 2
        except (TypeError, KeyError):
            bulk = False
        if bulk:
            codes = _decode_codes(fmt, texts)
        else:
            # bare strings, blocks, entries that are not objects or that
            # hold other keys: one by one
            entries = [_entry(fmt, entry) for entry in elements]
            codes, counts = [x for x, _ in entries], [c for _, c in entries]
        return object.__new__(cls)._fill(fmt, lower, upper, check_runs(
            fmt, lower, upper, codes, counts))


def _entry(fmt: ElementFormat, entry) -> tuple:
    """One entry of a file's element list as ``(code, count)``, or
    ``(codes, count)`` for a block, decoded but not yet checked."""
    if isinstance(entry, str):
        return decode_code(fmt, entry), 1
    if isinstance(entry, dict) and "block" in entry:
        if "value" in entry:
            raise ValueError("an element entry holds both a 'value' and a "
                             "'block'")
        block = entry["block"]
        if block.__class__ is not list:
            raise TypeError(f"block {block!r} is not a list")
        return tuple([decode_code(fmt, t) for t in block]), entry["count"]
    return decode_code(fmt, entry["value"]), entry["count"]


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
    return _decimal(text)


def _decimal(text: str) -> int:
    """The int of an ASCII decimal text with an optional minus sign; no
    plus sign, underscore, space or other digits."""
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


def _field(d: dict, name: str, kind: type, what: str = "format"):
    """The field ``name`` of a ``what``'s JSON object ``d``, of exactly the
    type ``kind``: an int that is not a boolean, a boolean, or a list.
    Nothing is converted."""
    if d[name].__class__ is not kind:
        raise TypeError(f"{what} field {name!r} must be {kind.__name__}, "
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

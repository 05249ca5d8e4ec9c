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

The entries are a function of the element sequence alone.  They are made
in one place, :func:`_settle`, the normaliser every constructor calls: the
elements are read as maximal runs of one code, and each stretch of runs
that repeats a block of at most ``_MAX_BLOCK_SIZE`` elements
``_MIN_BLOCK_COPIES`` times or more is held as one block entry, by the
rule of :func:`_found`.  A block entry that comes in is read as its runs,
without listing billions of copies.  So a dataset given as blocks, built
run by run or read from a file holds one entry list for one element
sequence: datasets are ``==`` exactly when their formats, bounds and
entries are, and :func:`json_text` writes equal datasets as one text.

The JSON form keeps every value exact: floats travel as their bit
patterns (hex strings), integers as decimal strings.  Counts are plain
JSON integers.  Blocks are an additive form of schema 1: files of runs
read as before, and a dataset is written with a block entry wherever it
holds one, found among its runs or not.

The number grammar, for every text of a file and every number flag of
the command line.  A value has one spelling in each notation: ASCII
digits, and a leading minus the only sign (``+1``, ``1_0``, ``.5``,
``Inf`` and a text with a space are refused).

- integer: ``-?[0-9]+``.  An element or bound of an int format, and the
  int flags, such as ``--n``, ``--trials`` and a format's sizes.
- number: an integer with an optional ``.`` and digits, then an optional
  exponent ``[eE][-+]?[0-9]+`` (``-1.25``, ``5e-1``); a ratio
  ``-?[0-9]+/[0-9]+`` (``255/64``); or a dyadic ``-?[0-9]+*2^-?[0-9]+``
  (``3*2^-2``).  Its exponent, of ten or of two, less a decimal's digits
  after the point, is at most ``2^19`` in size, past the range of every
  format.  :func:`~boundedsum.floats.parse_number` reads it, exactly, into
  a ``Fraction``; an instance's fractions and the flags ``--epsilon``,
  ``--scale``, ``--scale-factor`` and ``--threshold`` are numbers.
- float text: ``0x`` and hex digits, a bit pattern; ``inf`` or ``-inf``;
  or a number that is a value of the format exactly.  An element or bound
  of a float format, and ``--lower`` and ``--upper`` of one, read by
  :func:`~boundedsum.floats.parse_value`.

The file grammar, for dataset files and for the ``instance.json`` that
``attack gen`` writes and ``attack verify``, ``experiment run`` read.
Each object and its fields, with their JSON types:

- instance file: ``instance``, an instance.
- instance: ``name``, a string; ``metric``, one of ``sym``, ``co``,
  ``ham`` and ``id``; ``adjacency_distance``, an int; ``u`` and ``v``,
  datasets; ``method``, a method; ``predicted_u``, ``predicted_v``,
  ``predicted_gap``, ``idealized`` and ``blowup``, fractions (a string
  holding a number, such as ``"255/64"``).
- method: ``algorithm``, one of ``summation.ALGORITHMS`` (default
  ``iterative``); ``rounding``, one of ``floats.ROUNDING_MODES`` (default
  ``banker``); ``transforms``, a list of transforms (default empty).
- transform: ``kind``, ``truncate`` with ``n_max``, an int;
  ``random_permutation`` with ``seed``, an int; or ``shift_bounds``.
- dataset: ``schema``, 1; ``format``, a format; ``bounds``, bounds;
  ``elements``, a list of element entries.
- format: ``kind``, ``float`` with ``mantissa_bits`` and ``exponent_bits``,
  ints; or ``int`` with ``bits``, an int, ``signed``, a boolean, and
  ``overflow``, ``wraparound`` or ``saturating``.
- bounds: ``lower`` and ``upper``, texts: float texts of a float format,
  integers of an int format.
- element entry: a bare text (one element), of the same grammar as the
  bounds; a run ``{"count": c, "value": text}``; or a block ``{"block":
  [text, ...], "count": c}``, whose list holds 1 to ``_MAX_BLOCK_SIZE``
  texts.  An entry with both ``value`` and ``block`` is refused.

Every field is read by one reader, :func:`_field`, which matches a type
exactly (an int is not a boolean, and nothing is converted) and refuses
by the object's and the field's names: ``a dataset must be an object, not
list``, or ``{object} field '{name}'`` followed by ``is missing``, ``must
be int, not 2.5``, ``must be one of (...)``, ``must hold objects``, ``is
not a fraction`` or ``has a zero denominator``.  Below the reader, a text
that is not a string is refused as ``value 5 is not a string``, a text
outside its grammar by its own text (``'x' is not a float literal``), and
a count that is not an integer of at least one by :func:`check_runs`
(``run count '3' is not an integer``), which checks the counts with the
codes.  The bulk path below reads a file of runs without a reader call
per entry.

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
the merge only when a code is there twice, and the block scan only when
eight runs in a row have codes that are there twice.  A JSON object of
runs alone takes this path, with one more C-level pass that sees each
entry holds only its two keys; one with a block, or an entry of another
shape, is read entry by entry.  The per-entry loop
(:func:`_check_each`) only words refusals: entries that fail the bulk
check (or whose counts are of another integer type) go through it, and
it names the first bad one.  Texts outside the
regular expression go one by one through :func:`decode_code`, which
reads other float literals and names the first text it refuses.  A file
is decoded straight to codes; value objects enter through
``Dataset(...)`` (a block as a tuple of values) and :meth:`from_elements`,
and leave through :meth:`iter_values`.  Datasets
whose codes are valid by construction (cut, shifted or shuffled from a
checked dataset, or brute force's domain and tuples) are built from code
entries by :meth:`Dataset.unchecked`.

Files are written by :func:`json_text`, which gives exactly the text of
``json.dumps(..., indent=2, sort_keys=True)`` but formats each element
list straight from the entries, one ``%`` format per run.

Files are read by :func:`load_dataset`.  Every text :func:`save_dataset`
writes, of floats or ints, of runs of any count and of blocks, is read
in bulk by :func:`_read_text`, with no JSON tree and no dict or string
per entry.  The head and the tail are matched against the writer's text.
A float dataset of runs of one element each (dense data) is records of
one width, and :func:`_read_dense` compares each fixed character of a
record across all records by one strided slice and decodes the code
digits by ``binascii.a2b_hex``.  Other records vary in width, and
:func:`_read_entries` reads them by one exact rule: the text's maximal
runs of the code alphabet are its tokens, the writer's own record
formats are filled with them, and the result must equal the text byte
for byte.  A text either reader takes is valid JSON that ``json.load``
reads to the same format, bounds, codes and counts, so both ways end in
the same checks (:func:`check_runs`' scans, through
:meth:`Dataset._loaded`, which skips the ones the reader has made) on
equal fields.  Every other text goes through ``json.load`` and
:meth:`Dataset.from_json_dict`: hand-written files and text in any other
spelling, such as a count with a leading zero.
"""

from __future__ import annotations

import binascii
import bisect
import gc
import io
import itertools
import json
import re
import sys
from array import array
from contextlib import contextmanager
from operator import eq, index, itemgetter
from fractions import Fraction
from typing import Iterable, Iterator, List, Optional, Tuple, Union

from .dyadic import Dyadic
from .floats import (_PATTERN_RE, FloatFormat, SimFloat, parse_number,
                     parse_value)
from .ints import OVERFLOW_POLICIES, IntFormat, KInt

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
# ``summation.random_permutation`` and of brute force's frame
# (``Dataset.codes``); ``metrics.d_id`` builds both sequences under its own
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
# _settle scans a block entry of more copies as this many, and adds the
# rest to the entry found over their middle copy (see _settle for why
# this many are enough)
_SCAN_COPIES = 16
# a bytes.translate table that flags the zero bytes: 0 to 1, the rest to 0
_ZERO_BYTES = bytes([1]) + bytes(255)

_INT_RE = re.compile(r"-?[0-9]+")
# the text save_dataset writes (see _read_text): the head up to the
# element list, whose bounds are JSON strings of no escape and no control
# character, and the tail from the list's end, the writer's text of a
# float or an int format, whose sizes are JSON integers of 1 to 20 digits
_HEAD_RE = re.compile(rb'\{\n  "bounds": \{\n    "lower": "([ !#-\[\]-~]*)",'
                      rb'\n    "upper": "([ !#-\[\]-~]*)"\n  \},\n'
                      rb'  "elements": \[')
_TAIL = b'],\n  "format": {'
_SIZE = rb'(-?(?:0|[1-9][0-9]{0,19}))'
_TAIL_RE = re.compile(
    re.escape(_TAIL) + rb'\n    (?:"exponent_bits": ' + _SIZE
    + rb',\n    "kind": "float",\n    "mantissa_bits": ' + _SIZE
    + rb'|"bits": ' + _SIZE + rb',\n    "kind": "int",\n    "overflow": '
    rb'"(saturating|wraparound)",\n    "signed": (false|true))'
    rb'\n  \},\n  "schema": 1\n\}\n')
# a record of a float run of one element (see _read_dense)
_RECORD_RE = re.compile(rb'\n    \{\n      "count": 1,\n'
                        rb'      "value": "0x([0-9a-fA-F]+)"\n    \}')
# the array typecode of an unsigned word of each size in bytes
_WORDS = {array(t).itemsize: t for t in "QLIHB"}
# bytes.translate tables that keep the bytes of an int's codes and counts
# (a minus and the digits) or a float's (the hex digits) and blank the
# rest; a float record's keys and each code's 0x are taken out first,
# since a to f are code digits too (see _read_entries)
_KEEP = {floats: bytes(c if chr(c) in keep else 32 for c in range(256))
         for floats, keep in ((False, "-0123456789"),
                              (True, "0123456789abcdef"))}
_FLOAT_KEYS = (b'"count"', b'"value"', b'"block"', b'"0x')
# a count's JSON text, positive, in the grammar json reads; counts are
# matched joined by spaces
_COUNTS_RE = re.compile(rb"[1-9][0-9]*(?: [1-9][0-9]*)*")
# the end of an entry's record, and the text of records of runs that the
# reader cuts at the first record end past this many bytes, so that no
# list of a whole file's tokens is made
_RECORD_END = b"\n    }"
_PIECE = 1 << 18
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
    ``-0`` folded into ``+0``, and whether one is a block, for
    :func:`_settle` to hold.

    The check is made in bulk: the count types as one set, the smallest
    count, and the codes by :func:`_folded`.  Entries that fail the bulk
    check (or have counts of another integer type) go through
    :func:`_check_each`, which names the first bad one.
    """
    sign, lo, hi = _bound_keys(fmt, lower, upper)
    blocks = tuple in set(map(type, codes))
    flat = codes
    if blocks:
        flat = list(itertools.chain.from_iterable(
            x if x.__class__ is tuple else (x,) for x in codes))
    folded = None
    if (set(map(type, counts)) <= {int}
            and (not counts or min(counts) >= 1)
            and (not blocks or all(1 <= len(x) <= _MAX_BLOCK_SIZE
                                   for x in codes if x.__class__ is tuple))):
        folded = _folded(codes, flat, sign, lo, hi)
    if folded is None:
        return _check_each(fmt, lower, upper, codes, counts), blocks
    return tuple(zip(folded, counts)), blocks


def _bound_keys(fmt: ElementFormat, lower: Value,
                upper: Value) -> Tuple[int, int, int]:
    """The sign bit of ``fmt``'s codes (0 for an int format) and the
    :func:`code_key` of each bound, once the bounds are finite values of
    ``fmt`` in order."""
    for what, v in (("lower bound", lower), ("upper bound", upper)):
        value_code(fmt, v, what)
        if isinstance(v, SimFloat) and not v.is_finite():
            raise ValueError(f"{what} must be finite")
    lo, hi = order_key(lower), order_key(upper)
    if lo > hi:
        raise ValueError("lower bound exceeds upper bound")
    return (fmt._kernel[3] if isinstance(fmt, FloatFormat) else 0), lo, hi


def _folded(codes: list, flat: list, sign: int, lo: int,
            hi: int) -> Optional[list]:
    """``codes`` with each float ``-0`` folded into ``+0``, or None unless
    every code of ``flat`` (the codes with each block's listed in place)
    keys inside ``[lo, hi]``.  A code is compared by its :func:`code_key`
    alone, read off the extreme codes (:func:`_inside`): a key between two
    finite keys is a finite value's (a pattern out of range, a NaN or an
    infinity keys past every finite one).  The fold runs only when a
    ``-0`` is there."""
    if not _inside(flat, sign, lo, hi):
        return None
    if sign and sign in flat:
        return [tuple([0 if y == sign else y for y in x])
                if x.__class__ is tuple else 0 if x == sign else x
                for x in codes]
    return codes


def _inside(codes: List[int], sign: int, lo: int, hi: int) -> bool:
    """Whether every code's :func:`code_key` lies in ``[lo, hi]``, read
    off the extreme codes: below the sign bit the key is the code, at or
    above it ``sign - code``.  A negative code, or one of ``2 * sign`` or
    more (a pattern out of range), is never inside.  At or above the
    sign bit the keys run from ``sign - high`` up to ``sign - bottom <=
    0``, ``bottom`` the least code there.  That top key is checked only
    when no code is below the sign bit, where ``bottom`` is ``low``: a
    code below it that passed shows ``hi >= 0``."""
    if not codes:
        return True
    low, high = min(codes), max(codes)
    if not sign:
        return lo <= low and high <= hi
    if low < 0 or high >= 2 * sign:
        return False
    if low < sign:
        top = high if high < sign else max([x for x in codes if x < sign])
        if not lo <= low <= top <= hi:
            return False
    return (high < sign or lo <= sign - high
            and (low < sign or sign - low <= hi))


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
        if isinstance(c, bool) or not hasattr(c, "__index__"):
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


def _settle(entries: Iterable[tuple], blocks: bool) -> Tuple[tuple, bool]:
    """Entries of runs and blocks as a dataset holds them, and whether one
    is a block: :func:`_found` over the maximal runs of the element
    sequence, so that one sequence is held one way.  ``blocks`` says
    whether ``entries`` holds a block entry.  Runs with no code twice
    (dense data) are held as they are after one C-level check.  Runs of
    over 256 codes with fewer than eight in a row whose codes are there
    twice (chance repeats) are only merged: each run of a block's stretch
    equals a run ``b`` later, so its code, and every run merged into it,
    is there twice, and a stretch holds ``(_MIN_BLOCK_COPIES - 1) * b >=
    8`` of them in a row.  With fewer codes :func:`_found` compares run
    ids by big-int XOR, faster than that check.

    A block entry is read as the runs of its copies, and past
    ``_SCAN_COPIES`` copies as that many, the rest being added to the
    entry found over the middle one.  That count is exact.  Let the copies
    repeat with a shortest period of ``q`` runs.  In the scan, a stretch
    of ``b`` runs that meets the copies in ``q + b`` runs or more has the
    period ``gcd(q, b)`` there (Fine and Wilf), so ``q`` divides ``b``,
    and the stretch of ``q`` runs over the copies starts no later.  So
    each entry held before that stretch ends within ``q + 11`` runs of the
    copies' start.  Sixteen copies of a block of two or more codes hold at
    least ``6 * q + 12`` runs, so the stretch is held as a block from
    there over the middle copy to the copies' end, and a further copy in
    the middle adds to its count and leaves every other entry as it was.
    Sixteen copies of one code are a run longer than any block, which
    takes the rest.
    """
    runs = tuple(entries)
    flat, rest, at = runs, [], 0
    if blocks:
        # the runs between two blocks are kept as they are, found and
        # measured by C-level scans
        kinds = bytes(map(isinstance, map(itemgetter(0), runs),
                          itertools.repeat(tuple)))
        flat, i = [], 0
        while i < len(runs):
            j = kinds.find(1, i)
            j = len(runs) if j < 0 else j
            flat += runs[i:j]
            at += sum(map(itemgetter(1), runs[i:j]))
            if j < len(runs):
                x, c = runs[j]
                if c > _SCAN_COPIES:
                    rest.append((at + _SCAN_COPIES // 2 * len(x),
                                 (c - _SCAN_COPIES) * len(x)))
                    c = _SCAN_COPIES
                flat += zip(x * c, itertools.repeat(1))
                at += len(x) * c
            i = j + 1
    else:
        distinct = len(set(map(itemgetter(0), runs)))
        if distinct == len(runs):
            return runs, False  # nothing merges, no block is there
        if distinct > 256:
            # the codes there twice, and whether eight runs in a row hold
            # them; past 256 kinds _found scans run by run
            seen = set()
            repeats = {x for x, _ in runs if x in seen or seen.add(x)}
            if bytes(map(repeats.__contains__, map(itemgetter(0), runs))
                     ).find(b"\1" * (2 * (_MIN_BLOCK_COPIES - 1))) < 0:
                return merge_runs(runs), False
    runs, found = _found(merge_runs(flat))
    if rest:
        ends = list(itertools.accumulate(entry_size(x) * c for x, c in runs))
        more = [0] * len(runs)
        for at, size in rest:
            more[bisect.bisect_right(ends, at)] += size
        runs = tuple((x, c + m // entry_size(x))
                     for (x, c), m in zip(runs, more))
    return runs, found


def _found(runs: tuple) -> Tuple[tuple, bool]:
    """The merged runs ``runs`` with each stretch that repeats a block held
    as one block entry, and whether one is.

    A block is a stretch of at least ``_MIN_BLOCK_COPIES`` copies in a row
    of the same ``b`` runs, of at most ``_MAX_BLOCK_SIZE`` elements in all,
    such as the alternating tail of ``repeated_rounding_2`` written as
    runs.  Runs are merged, so ``2 <= b <= _MAX_BLOCK_SIZE``.  A stretch
    is a run of ``(_MIN_BLOCK_COPIES - 1) * b`` or more ``True`` in ``entry
    i == entry i + b``, found by C-level scans, one for each ``b`` whose
    copies fit in ``runs``: over one-byte run ids, by one XOR of two big
    ints, when ``runs`` has at most 256 kinds, else run by run.  Among
    overlapping stretches the earliest wins, then the shortest block, and
    the later one keeps the whole blocks past it (any ``b`` entries in a
    row of a stretch are a copy of it).  A
    block's size is summed from its counts before its elements are
    listed.  Runs with fewer than ``2 * (_MIN_BLOCK_COPIES - 1)`` equal to
    earlier ones are returned after one C-level check: ``c`` copies of ``b
    >= 2`` runs hold ``(c - 1) * b`` of them.
    """
    kinds = set(runs)
    if len(runs) - len(kinds) < 2 * (_MIN_BLOCK_COPIES - 1):
        return runs, False
    if len(kinds) <= 256:
        # each run as a one-byte id: runs b apart are equal where the ids
        # shifted by b bytes XOR to a zero byte
        ids = bytes(map(dict(zip(kinds, range(256))).__getitem__, runs))
        equal = lambda b: (int.from_bytes(ids[b:], "big") ^ int.from_bytes(
            ids[:-b], "big")).to_bytes(len(ids) - b, "big").translate(
                _ZERO_BYTES)
    else:
        equal = lambda b: bytes(map(eq, runs, runs[b:]))
    found = []
    for b in range(2, min(_MAX_BLOCK_SIZE, len(runs) // _MIN_BLOCK_COPIES)
                   + 1):
        same = equal(b) + b"\0"
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
                and sum(map(itemgetter(1), copy)) <= _MAX_BLOCK_SIZE):
            out += runs[end:start]
            out.append((tuple([x for x, c in copy for _ in range(c)]), reps))
            end = start + b * reps
    if not end:
        return runs, False
    return (*out, *itertools.islice(runs, end, None)), True


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


# merge_runs reads whether few runs merge off this many adjacent pairs first
_MERGE_SAMPLE = 4096


def merge_runs(runs: Iterable[tuple]) -> tuple:
    """Runs ``(element, count)`` with adjacent equal elements merged.  The
    runs are grouped only if two adjacent elements are equal, and where
    few are (the ends of blocks read as runs, among millions of runs),
    only those are, the runs between them kept as they are.  The first
    ``_MERGE_SAMPLE`` pairs are compared first: where more than one in 16
    of them merge (runs sorted by code, say), the runs are grouped with
    no scan of the rest."""
    runs = tuple(runs)
    same = _same(runs, 0, _MERGE_SAMPLE)
    if same.count(1) > len(same) // 16:
        return _grouped(runs)
    same += _same(runs, _MERGE_SAMPLE, None)
    merges = same.count(1)
    if not merges:
        return runs
    if merges > len(runs) // 16:
        return _grouped(runs)
    out, start, i = [], 0, same.find(1)
    while i >= 0:
        # runs[i:j + 1] hold one element
        j = same.find(0, i)
        j = len(runs) - 1 if j < 0 else j
        out += runs[start:i]
        out.append((runs[i][0], sum(map(itemgetter(1), runs[i:j + 1]))))
        start = j + 1
        i = same.find(1, start)
    return (*out, *itertools.islice(runs, start, None))


def _grouped(runs: tuple) -> tuple:
    """``runs`` with each stretch of one element grouped into one run."""
    return tuple((x, sum(map(itemgetter(1), group)))
                 for x, group in itertools.groupby(runs, itemgetter(0)))


def _same(runs: tuple, start: int, stop: Optional[int]) -> bytes:
    """A byte for each run of ``runs[start:stop]`` but the last run of
    ``runs``: 1 where its element equals the next run's, else 0."""
    return bytes(map(eq, map(itemgetter(0), itertools.islice(
        runs, start, stop)), map(itemgetter(0), itertools.islice(
            runs, start + 1, None))))


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


class Dataset:
    """An ordered sequence of in-range values plus its bounds.

    ``runs`` holds the entries (see the module docstring): runs ``(code,
    count)`` and blocks ``(codes, count)`` of ints, as every constructor
    settles them (:func:`_settle`, where blocks are found), one entry list
    for one element sequence.  ``blocks`` says whether one entry is a
    block; the readers that only take runs take a dataset without one as
    before.  Two datasets are ``==`` exactly when their formats, bounds
    and entries are, which is when they hold the same element sequence
    between the same bounds.  The bounds are values.  The
    element count ``n`` is taken when the dataset is built, and the
    package reads it there; ``len()`` gives it too, but only up to
    ``sys.maxsize``, and is kept for ``perfbench/tracer.py``.
    """

    __slots__ = ("fmt", "lower", "upper", "runs", "n", "blocks")

    def __init__(self, fmt: ElementFormat, lower: Value, upper: Value,
                 runs: Iterable[Tuple[Value, int]]):
        runs = list(runs)
        self._checked(fmt, lower, upper, _codes(fmt, [v for v, _ in runs]),
                      [c for _, c in runs])

    def _checked(self, fmt, lower, upper, codes: list,
                 counts: list) -> "Dataset":
        """Set the fields from entries of codes (a block's a tuple of
        them) once :func:`check_runs` passes them."""
        return self._fill(fmt, lower, upper, *check_runs(
            fmt, lower, upper, codes, counts))

    def _fill(self, fmt, lower, upper, entries: Iterable[tuple],
              blocks: bool) -> "Dataset":
        """Set the fields from valid code entries, held as :func:`_settle`
        holds them; ``blocks`` says whether one entry is a block."""
        self.fmt, self.lower, self.upper = fmt, lower, upper
        self.runs, self.blocks = runs, blocks = _settle(entries, blocks)
        self.n = (sum(entry_size(x) * c for x, c in runs) if blocks
                  else sum(map(itemgetter(1), runs)))
        return self

    def _loaded(self, fields: list) -> "Dataset":
        """Set the fields from a file read in bulk: ``fields`` is the list
        of :func:`_read_text`'s format, bounds, codes and counts, whose
        counts are ints of at least one and whose blocks are tuples of 1
        to ``_MAX_BLOCK_SIZE`` codes, all listed in place in ``flat``
        (``codes`` itself when there is no block).  So only the bounds and
        the codes are checked, by the scans :func:`check_runs` makes of
        them; runs whose codes are distinct are held as they are, as
        :func:`_settle` would hold them, with no further scan.  ``fields``
        is emptied, and the lists go once the runs are built, before they
        are settled."""
        fmt, lower, upper, codes, counts, flat = fields
        fields.clear()
        sign, lo, hi = _bound_keys(fmt, lower, upper)
        folded = _folded(codes, flat, sign, lo, hi)
        blocks = flat is not codes
        if folded is None:   # a code is refused there, and named
            return self._fill(fmt, lower, upper, _check_each(
                fmt, lower, upper, codes, counts), blocks)
        del codes, flat
        runs = tuple(zip(folded, counts))
        if blocks or len(set(folded)) < len(folded):
            del folded, counts
            return self._fill(fmt, lower, upper, runs, blocks)
        self.fmt, self.lower, self.upper = fmt, lower, upper
        self.runs, self.blocks, self.n = runs, False, sum(counts)
        return self

    @classmethod
    def unchecked(cls, fmt: ElementFormat, lower: Value, upper: Value,
                  runs: Iterable[tuple]) -> "Dataset":
        """A dataset of code entries known to be valid inside its bounds
        (checked by :func:`check_runs`, or cut, shifted or reordered from
        a checked dataset), settled by :func:`_settle`; nothing is
        checked.  The entries are read and settled with the collector
        paused (see :func:`_collector_paused`)."""
        with _collector_paused():
            runs = tuple(runs)
            blocks = tuple in set(map(type, map(itemgetter(0), runs)))
            return object.__new__(cls)._fill(fmt, lower, upper, runs,
                                             blocks)

    @classmethod
    def from_elements(cls, fmt: ElementFormat, lower: Value, upper: Value,
                      elements: Iterable[Value]) -> "Dataset":
        """A dataset of ``elements`` in order, checked as ``Dataset(...)``
        checks runs.  No command builds one this way (files are decoded
        straight to codes, and the attacks build runs), so this is the
        package's way in for its callers' lists of values, the tests'
        among them."""
        values = list(elements)
        return object.__new__(cls)._checked(fmt, lower, upper,
                                            _codes(fmt, values),
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
        """The elements, in order, as value objects.  Every command reads
        codes, so this is the package's way out for its callers, the
        tests among them."""
        fmt = self.fmt
        return element_codes(
            (tuple([code_value(fmt, y) for y in x])
             if x.__class__ is tuple else code_value(fmt, x), c)
            for x, c in self.runs)

    def codes(self) -> List[int]:
        """The element codes, in order, as one list."""
        check_materialize(self.n)
        return list(element_codes(self.runs))

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
        return self._json_head([
            {"block": list(map(text, x)), "count": c}
            if x.__class__ is tuple else {"value": text(x), "count": c}
            for x, c in self.runs])

    def _elements_text(self, indent: int) -> str:
        """The text ``json.dumps(..., indent=2)`` writes for the element
        list of :meth:`to_json_dict` when its key is indented by
        ``indent`` spaces: one ``%`` format per run, and a block's text
        written from its codes (:func:`_entry_formats`)."""
        if not self.runs:
            return "[]"
        run, head, element, tail = _entry_formats(
            indent, "%d", f'"{self._code_field()}"')
        element = element.__mod__
        return "[" + ",".join([
            head + ",".join(map(element, x)) + tail % c
            if x.__class__ is tuple else run % (c, x)
            for x, c in self.runs]) + "\n" + " " * indent + "]"

    @classmethod
    def from_json_dict(cls, d: dict) -> "Dataset":
        """A dataset from its JSON object (see the module docstring)."""
        fmt, lower, upper = _head(d)
        elements = _field(d, "elements", list, "dataset")
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
        return object.__new__(cls)._checked(fmt, lower, upper, codes, counts)


def _head(d: dict) -> tuple:
    """The format and the bounds of a dataset's JSON object, once its
    schema is checked: the fields :meth:`Dataset.from_json_dict` reads
    before the element list, which :func:`_read_runs` reads through the
    same calls."""
    _field(d, "schema", (SCHEMA_VERSION,), "dataset")
    fmt = format_from_json(_field(d, "format", dict, "dataset"))
    bounds = _field(d, "bounds", dict, "dataset")
    return (fmt, decode_value(fmt, _field(bounds, "lower", str, "bounds")),
            decode_value(fmt, _field(bounds, "upper", str, "bounds")))


def _entry(fmt: ElementFormat, entry) -> tuple:
    """One entry of a file's element list as ``(code, count)``, or
    ``(codes, count)`` for a block, decoded but not yet checked: the codes
    and the count are :func:`check_runs`' to check."""
    if entry.__class__ is str:
        return decode_code(fmt, entry), 1
    count = _field(entry, "count", object, "element entry")
    if "block" not in entry:
        return decode_code(fmt, _field(entry, "value", object,
                                       "element entry")), count
    if "value" in entry:
        raise ValueError("an element entry holds both a 'value' and a "
                         "'block'")
    block = _field(entry, "block", list, "element entry")
    return tuple([decode_code(fmt, t) for t in block]), count


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
    if _field(d, "kind", ("float", "int")) == "float":
        return FloatFormat(_field(d, "mantissa_bits", int),
                           _field(d, "exponent_bits", int))
    return IntFormat(_field(d, "bits", int), _field(d, "signed", bool),
                     _field(d, "overflow", OVERFLOW_POLICIES))


def _field(d: dict, name: str, kind, what: str = "format", default=None):
    """The field ``name`` of a ``what``'s JSON object ``d``: the one reader
    of the file grammar (see the module docstring).  ``d`` must be an
    object, and the field there unless a ``default`` is given in its
    place.  ``kind`` is the field's type, matched exactly (an int is not a
    boolean, and nothing is converted): ``int``, ``bool``, ``str``,
    ``list``, ``dict`` or ``object`` (any); ``[dict]``, a list of objects;
    ``Fraction``, a string holding a number, read exactly by
    :func:`~boundedsum.floats.parse_number`; or a tuple of the values of
    one type the field may take."""
    if d.__class__ is not dict:
        raise TypeError(f"{'an' if what[0] in 'aeiou' else 'a'} {what} must "
                        f"be an object, not {d.__class__.__name__}")
    if name not in d and default is None:
        raise ValueError(f"{what} field {name!r} is missing")
    v = d.get(name, default)
    if kind.__class__ is tuple:
        if v.__class__ is not kind[0].__class__ or v not in kind:
            raise ValueError(f"{what} field {name!r} must be one of {kind}, "
                             f"not {v!r}")
        return v
    # a fraction is read from a string, and a list of objects is a list
    plain = str if kind is Fraction else list if kind == [dict] else kind
    if v.__class__ is not plain and plain is not object:
        raise TypeError(f"{what} field {name!r} must be {plain.__name__}, "
                        f"not {v!r}")
    if kind is Fraction:
        try:
            return parse_number(v)
        except (ValueError, ZeroDivisionError) as exc:
            fault = ("has a zero denominator" if exc.__class__ is
                     ZeroDivisionError else "is not a fraction")
            raise ValueError(f"{what} field {name!r} {fault}: {v!r}") from None
    for x in v if kind == [dict] else ():
        if x.__class__ is not dict:
            raise TypeError(f"{what} field {name!r} must hold objects, "
                            f"not {x!r}")
    return v


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector, if it runs, for the block.

    A file load or a transform may make millions of new objects (a
    permutation of ``MATERIALIZE_LIMIT`` elements of two codes makes 2.6
    million run tuples, and its file as many entry dicts), and so many
    would set the collector off again and again to walk them all, though
    dicts of strings and tuples of ints make no cycle: at that size, a
    fifth of the permutation's time and a sixth of its file's load.  The
    pause is process-wide; the package starts no thread."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _entry_formats(indent: int, count: str, code: str) -> Tuple[str, ...]:
    """The ``%`` formats :func:`json_text` writes a dataset's entries with,
    its element list's key indented by ``indent`` spaces, given the field
    ``count`` of a count and ``code`` of a code's JSON text: a run's
    record; and a block's head, each of its codes and its tail."""
    item, field, inner = ("\n" + " " * n
                          for n in (indent + 2, indent + 4, indent + 6))
    return (f'{item}{{{field}"count": {count},{field}"value": {code}{item}}}',
            f'{item}{{{field}"block": [', inner + code,
            f'{field}],{field}"count": {count}{item}}}')


# the formats save_dataset writes an int's (False) and a float's (True)
# entries with, each field a byte string, for _read_entries
_READ_FORMATS = {floats: tuple(f.encode() for f in _entry_formats(
    2, "%s", '"0x%s"' if floats else '"%s"')) for floats in (False, True)}


def _read_text(text: bytes):
    """The format, bounds, codes and counts of the dataset whose text
    :func:`save_dataset` wrote, read in bulk, with the codes listed in
    place (:meth:`Dataset._loaded`); or None for any other text.

    That text is a head up to the element list, the entries' records
    joined by commas, and a tail from the list's end.  The head and the
    tail are matched against the writer's own text: bounds that are JSON
    strings with no escape and no control character, so that their bytes
    are their value, and a float or an int format whose sizes are JSON
    integers.  The records are read by :func:`_read_dense` if they are
    the runs of one element each of a float dataset, which are all of one
    width, and by :func:`_read_entries` otherwise.  No JSON tree is made,
    and no dict or string per entry.

    A text this takes is valid JSON, and ``json.loads`` of it gives
    exactly the format, bounds, codes and counts given here: the head and
    the tail hold only what their patterns spell out, and each record is
    one the writer writes, whose code and count texts ``json.loads`` and
    :meth:`Dataset.from_json_dict` read to the same ints.  The head's
    fields go through :func:`_head`, as in :meth:`Dataset.from_json_dict`,
    and only once the whole text is known to be valid, so that a refusal
    there is the JSON path's too."""
    head = _HEAD_RE.match(text)
    end = text.rfind(_TAIL)
    tail = head and end >= 0 and _TAIL_RE.fullmatch(text, end)
    if not tail:
        return None
    floats = tail[1] is not None
    start, stop = head.end(), end - 3
    if start == end:                         # "elements": []
        codes = []
        got = codes, [], codes
    elif text[stop:end] != b"\n  ":
        return None
    else:
        got = (floats and _read_dense(text, start, stop)
               or _read_entries(text, start, stop, floats))
        if got is None:
            return None
    if floats:
        sizes = {"exponent_bits": int(tail[1]), "kind": "float",
                 "mantissa_bits": int(tail[2])}
    else:
        sizes = {"bits": int(tail[3]), "kind": "int",
                 "overflow": tail[4].decode(), "signed": tail[5] == b"true"}
    fmt, lower, upper = _head({
        "schema": SCHEMA_VERSION, "format": sizes,
        "bounds": dict(zip(("lower", "upper"),
                           map(bytes.decode, head.groups())))})
    return (fmt, lower, upper, *got)


def _read_dense(text: bytes, start: int, stop: int):
    """The codes, counts and listed codes (the codes) of a float dataset
    whose records ``text[start:stop]`` are runs of one element each, read
    in bulk; or None if they are not.

    A record is ``{"count": 1, "value": "0x..."}`` indented as the writer
    indents it, its hex digits as many as in the first record, so the
    records are all of one width.  The section must be a whole number of
    records, and each fixed character of the record, commas between
    records included, is compared across all records by one strided
    slice.  The code digits are gathered by one strided slice per digit,
    right-aligned in words of 1, 2, 4 or 8 bytes, and read by
    ``binascii.a2b_hex``, which refuses any byte that is not a hex digit,
    and an ``array`` of big-endian words; :func:`decode_code` reads such
    a value, ``0x`` and hex digits of either case, by ``int(t, 16)`` too.
    Records of one width are read this way because it is the faster: 0.17
    ms for a 2,048-entry float32 file, where :func:`_read_entries` takes
    1.1 ms (in process, a 2-vCPU x86-64 VM, Python 3.11).  Codes of over
    16 digits are declined."""
    record = _RECORD_RE.match(text, start)
    if not record:
        return None
    size = record.end() - start
    # a comma follows each record but the last
    step = size + 1
    n, extra = divmod(stop - start + 1, step)
    code = range(*(p - start for p in record.span(1)))
    width = next((w for w in (1, 2, 4, 8) if 2 * w >= len(code)), 0)
    if extra or not width:
        return None
    record = text[start:record.end()]
    row = {c: bytes([c]) * n for c in set(record)}
    if text[start + size:stop:step] != b"," * (n - 1) or any(
            text[start + p:stop:step] != row[record[p]]
            for p in range(size) if p not in code):
        return None
    # each code's digits right-aligned in 2 * width zeros
    hexes = bytearray(b"0" * (2 * width * n))
    for j, p in enumerate(code, 2 * width - len(code)):
        hexes[j::2 * width] = text[start + p:stop:step]
    try:
        words = array(_WORDS[width], binascii.a2b_hex(hexes))
    except binascii.Error:
        return None
    if sys.byteorder == "little":
        words.byteswap()
    codes = words.tolist()
    return codes, [1] * n, codes


def _read_entries(text: bytes, start: int, stop: int, floats: bool):
    """The codes, counts and listed codes (each block's codes in place) of
    the records ``text[start:stop]`` of an int (or a float) dataset, read
    in bulk; or None unless they are the records the writer writes.

    The records are read in pieces: a block's record, or the records of
    runs up to the next block or to the first record end past ``_PIECE``
    bytes.  A piece's tokens are its maximal runs of the code alphabet: a
    minus and the digits for ints, the hex digits for floats, whose
    record keys and ``0x`` are taken out first.  The writer's own formats
    (:func:`_entry_formats`) are filled with the tokens, a run's count
    and code in turn or a block's codes and count, and the result must
    equal the piece byte for byte.  So the piece is the writer's text of
    those entries, whose fields are the tokens: ``json.loads`` reads each
    code text as that string and each count as that JSON number.  A
    count must be a positive JSON integer, an int code an ASCII integer
    that ``int`` reads as :func:`decode_code` does, and a block 1 to
    ``_MAX_BLOCK_SIZE`` codes long; any other piece is declined, and the
    JSON path words its refusal.  Each comma between pieces is checked."""
    run, head, element, tail = _READ_FORMATS[floats]
    keep, keys = _KEEP[floats], _FLOAT_KEYS if floats else ()
    base = 16 if floats else 10
    # a "k" is in a record only in a block's key: one memchr finds it, and
    # the comma before that record is ``back`` bytes before it
    back = head.index(b"k") + 1
    codes, counts, at = [], [], start
    flat = [] if text.find(b"k", start, stop) >= 0 else codes
    while True:
        # a block's record is a piece of its own; the records of runs are
        # cut at the next block's comma or past _PIECE bytes
        block = text.startswith(head, at, stop)
        limit = -1 if block else text.find(b"k", at, stop)
        limit = stop if limit < 0 else limit - back
        cut = text.find(_RECORD_END, at if block else at + _PIECE, limit)
        cut = limit if cut < 0 else cut + len(_RECORD_END)
        piece = guess = text[at:cut]
        for key in keys:
            guess = guess.replace(key, b"")
        tokens = guess.translate(keep).split()
        if block:
            texts, count = tokens[:-1], tokens[-1:]
            form = head + b",".join([element] * len(texts)) + tail
        else:
            texts, count = tokens[1::2], tokens[0::2]
            form = b",".join([run] * len(texts))
        if (not texts or len(count) != (1 if block else len(texts))
                or block and len(texts) > _MAX_BLOCK_SIZE
                or form % tuple(tokens) != piece):
            return None
        try:
            got = list(map(int, texts, itertools.repeat(base, len(texts))))
        except ValueError:
            return None
        if count.count(b"1") == len(count):
            counts += itertools.repeat(1, len(count))
        elif _COUNTS_RE.fullmatch(b" ".join(count)):
            counts += map(int, count)
        else:
            return None
        if flat is not codes:
            flat += got
        if block:
            codes.append(tuple(got))
        else:
            codes += got
        if cut == stop:
            return codes, counts, flat
        if text[cut] != 44:                  # a comma
            return None
        at = cut + 1


def load_dataset(path) -> Dataset:
    """The dataset a file holds, read and checked with the collector
    paused.  Every text :func:`save_dataset` writes is read in bulk by
    :func:`_read_text`, with no JSON tree, and checked by
    :meth:`Dataset._loaded`; any other text as ``json.load`` reads the
    file opened as UTF-8 text, through :meth:`Dataset.from_json_dict`.
    Both ways give one dataset or one refusal: a text the bulk reader
    takes is valid JSON that ``json.load`` reads to the same format,
    bounds, codes and counts, and both check them by the same scans
    (:func:`check_runs`) and hold them by the same rule (:func:`_settle`).
    The bulk reader fills the writer's own record formats with the
    text's tokens and compares the result with the text byte for byte
    (:func:`_read_entries`), so it takes a text exactly when it is the
    writer's text of its fields; it declines every other text after a
    few C-level scans."""
    with open(path, "rb") as fh:
        text = fh.read()
    # each form of the file is let go once the next is made, as json.load
    # lets its text go before the tree is read
    with _collector_paused():
        fields = _read_text(text)
        if fields is not None:
            del text
            # a list, which _loaded empties
            fields = list(fields)
            return object.__new__(Dataset)._loaded(fields)
        doc = io.TextIOWrapper(io.BytesIO(text), encoding="utf-8").read()
        del text
        doc = json.loads(doc)
        return Dataset.from_json_dict(doc)


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

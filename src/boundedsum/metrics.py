"""Distances between datasets.

Four neighbouring relations, two order-insensitive and two ordered:

* ``d_sym`` — histogram distance: total elements added plus removed.
* ``d_co``  — change-one: substitutions needed between equal-length
  multisets; infinite when lengths differ.
* ``d_ham`` — positions that differ; infinite when lengths differ.
* ``d_id``  — insert/delete edit distance, i.e. ``len(u) + len(v)`` minus
  twice the longest common subsequence.

Each takes two datasets of one format, compared on their entries (runs
and blocks, see :mod:`boundedsum.data`), or two sequences of values; a
dataset with a sequence is refused.  Length
mismatches for ``d_co``/``d_ham`` return :data:`INFINITE`, which is
``math.inf``: greater than every finite distance.
"""

from __future__ import annotations

import math
from collections import Counter

from .data import Dataset, element_codes, entry_size, merge_runs

__all__ = ["INFINITE", "histogram", "d_sym", "d_co", "d_ham", "d_id"]

INFINITE = math.inf


def _runs(*xs) -> list:
    """Each of ``xs`` as entries: datasets of one format as their code
    entries, sequences as runs of their values.  A dataset with a
    sequence, or datasets of two formats, are refused: their elements do
    not compare."""
    if len({x.fmt if isinstance(x, Dataset) else None for x in xs}) > 1:
        raise TypeError("a distance is between two datasets of one format "
                        "or two sequences of values")
    return [x.runs if isinstance(x, Dataset)
            else merge_runs((v, 1) for v in x) for x in xs]


def _length(runs) -> int:
    return sum(entry_size(x) * c for x, c in runs)


def _counter(runs) -> Counter:
    """The multiset of entries: each code of a block counts the block's
    copies."""
    h = Counter()
    for x, c in runs:
        for v in x if x.__class__ is tuple else (x,):
            h[v] += c
    return h


def histogram(x) -> Counter:
    """Multiset view: element -> multiplicity.  A dataset's elements are
    its codes, a sequence's its values.  The distances count their own
    multisets, so no command calls this; it is exported for the
    package's callers, the tests among them."""
    return _counter(*_runs(x))


def d_sym(u, v):
    """Total multiplicity of the symmetric difference of the histograms."""
    hu, hv = map(_counter, _runs(u, v))
    return sum(abs(hu[z] - hv[z]) for z in hu.keys() | hv.keys())


def d_co(u, v):
    """Substitution count between equal-length multisets; INFINITE otherwise."""
    hu, hv = map(_counter, _runs(u, v))
    if sum(hu.values()) != sum(hv.values()):
        return INFINITE
    return sum((hu - hv).values())


def d_ham(u, v):
    """Positions where the ordered sequences differ; INFINITE if lengths do.

    A dataset holds one entry list for one element sequence (see
    :mod:`boundedsum.data`), but the entries of two different sequences
    need not line up, so they are walked side by side, each read as a
    periodic stretch: a run of period one, a block of its length.  Where
    both sides are inside stretches for ``m`` more positions, one common
    period (their lengths' least common multiple, at most 132 elements)
    is compared: each of its positions stands for itself in every whole
    period in ``m``, and once more if it lies in the part period past
    them.
    """
    ru, rv = ([(x if x.__class__ is tuple else (x,), c) for x, c in runs]
              for runs in _runs(u, v))
    if _length(ru) != _length(rv):
        return INFINITE
    rv = iter(rv)
    left_b = phase_b = differ = 0
    for xa, c in ru:
        left_a, phase_a, la = len(xa) * c, 0, len(xa)
        while left_a:
            if not left_b:
                xb, c = next(rv)
                left_b, phase_b, lb = len(xb) * c, 0, len(xb)
            m = min(left_a, left_b)
            period = math.lcm(la, lb)
            whole, rest = divmod(m, period)
            differ += sum(whole + (t < rest) for t in range(min(m, period))
                          if xa[(phase_a + t) % la] != xb[(phase_b + t) % lb])
            phase_a, phase_b = (phase_a + m) % la, (phase_b + m) % lb
            left_a -= m
            left_b -= m
    return differ

# d_id materializes both sequences: LCS is inherently quadratic, so cap the
# table size rather than trying to be clever about runs.
_ID_TABLE_LIMIT = 16_000_000


def d_id(u, v) -> int:
    """Insertions plus deletions to turn ``u`` into ``v`` (order matters)."""
    ru, rv = _runs(u, v)
    if _length(ru) * _length(rv) > _ID_TABLE_LIMIT:
        raise ValueError("sequences too long for the edit-distance table")
    a, b = list(element_codes(ru)), list(element_codes(rv))
    if len(a) < len(b):
        a, b = b, a
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0] * (len(b) + 1)
        for j, y in enumerate(b, start=1):
            cur[j] = prev[j - 1] + 1 if x == y else (
                cur[j - 1] if cur[j - 1] >= prev[j] else prev[j])
        prev = cur
    return len(a) + len(b) - 2 * prev[-1]


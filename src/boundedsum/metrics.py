"""Distances between datasets.

Four neighbouring relations, two order-insensitive and two ordered:

* ``d_sym`` — histogram distance: total elements added plus removed.
* ``d_co``  — change-one: substitutions needed between equal-length
  multisets; infinite when lengths differ.
* ``d_ham`` — positions that differ; infinite when lengths differ.
* ``d_id``  — insert/delete edit distance, i.e. ``len(u) + len(v)`` minus
  twice the longest common subsequence.

Each takes two datasets of one format, compared on their code runs, or
two sequences of values; a dataset with a sequence is refused.  Length
mismatches for ``d_co``/``d_ham`` return :data:`INFINITE`, which is
``math.inf``: greater than every finite distance.  ``d_mod`` is the wrap
distance between residues used by modular mechanisms.
"""

from __future__ import annotations

import math
from collections import Counter

from .data import Dataset, merge_runs
from .ints import KInt

__all__ = ["INFINITE", "histogram", "d_sym", "d_co", "d_ham", "d_id", "d_mod"]

INFINITE = math.inf


def _runs(*xs) -> list:
    """Each of ``xs`` as runs: datasets of one format as their code runs,
    sequences as runs of their values.  A dataset with a sequence, or
    datasets of two formats, are refused: their elements do not compare."""
    if len({x.fmt if isinstance(x, Dataset) else None for x in xs}) > 1:
        raise TypeError("a distance is between two datasets of one format "
                        "or two sequences of values")
    return [x.runs if isinstance(x, Dataset)
            else merge_runs((v, 1) for v in x) for x in xs]


def _counter(runs) -> Counter:
    h = Counter()
    for v, c in runs:
        h[v] += c
    return h


def histogram(x) -> Counter:
    """Multiset view: element -> multiplicity.  A dataset's elements are
    its codes, a sequence's its values."""
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
    """Positions where the ordered sequences differ; INFINITE if lengths do."""
    ru, rv = _runs(u, v)
    if sum(c for _, c in ru) != sum(c for _, c in rv):
        return INFINITE
    # lockstep walk over both run lists
    diff = 0
    i = j = 0
    left_i, left_j = (ru[0][1], rv[0][1]) if ru else (0, 0)
    while i < len(ru):
        step = min(left_i, left_j)
        if ru[i][0] != rv[j][0]:
            diff += step
        left_i -= step
        left_j -= step
        if left_i == 0:
            i += 1
            left_i = ru[i][1] if i < len(ru) else 0
        if left_j == 0:
            j += 1
            left_j = rv[j][1] if j < len(rv) else 0
    return diff

# d_id materializes both sequences: LCS is inherently quadratic, so cap the
# table size rather than trying to be clever about runs.
_ID_TABLE_LIMIT = 16_000_000


def d_id(u, v) -> int:
    """Insertions plus deletions to turn ``u`` into ``v`` (order matters)."""
    a, b = ([x for x, c in r for _ in range(c)] for r in _runs(u, v))
    if len(a) * len(b) > _ID_TABLE_LIMIT:
        raise ValueError("sequences too long for the edit-distance table")
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0] * (len(b) + 1)
        for j, y in enumerate(b, start=1):
            if x == y:
                cur[j] = prev[j - 1] + 1
            else:
                cur[j] = cur[j - 1] if cur[j - 1] >= prev[j] else prev[j]
        prev = cur
    lcs = prev[len(b)]
    return len(a) + len(b) - 2 * lcs


def d_mod(x, y, modulus: int | None = None) -> int:
    """Shorter way around the residue circle between ``x`` and ``y``."""
    if isinstance(x, KInt):
        if modulus is None:
            modulus = x.fmt.modulus
        x = x.value
    if isinstance(y, KInt):
        y = y.value
    if modulus is None or modulus < 1:
        raise ValueError("a positive modulus is required")
    d = (x - y) % modulus
    return min(d, modulus - d)

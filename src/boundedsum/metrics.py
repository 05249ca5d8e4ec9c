"""Distances between datasets.

Four neighbouring relations, two order-insensitive and two ordered:

* ``d_sym`` — histogram distance: total elements added plus removed.
* ``d_co``  — change-one: substitutions needed between equal-length
  multisets; infinite when lengths differ.
* ``d_ham`` — positions that differ; infinite when lengths differ.
* ``d_id``  — insert/delete edit distance, i.e. ``len(u) + len(v)`` minus
  twice the longest common subsequence.

Length mismatches for ``d_co``/``d_ham`` return :data:`INFINITE`, which
is ``math.inf``: greater than every finite distance.  ``d_mod`` is the
wrap distance between residues used by modular mechanisms.
"""

from __future__ import annotations

import math
from collections import Counter

from .data import Dataset
from .ints import KInt

__all__ = ["INFINITE", "histogram", "d_sym", "d_co", "d_ham", "d_id", "d_mod"]

INFINITE = math.inf


def _runs(x):
    if isinstance(x, Dataset):
        return x.runs
    out = []
    for v in x:
        if out and out[-1][0] == v:
            out[-1] = (v, out[-1][1] + 1)
        else:
            out.append((v, 1))
    return tuple(out)


def _length(runs):
    return sum(c for _, c in runs)


def histogram(x) -> Counter:
    """Multiset view: value -> multiplicity."""
    h = Counter()
    for v, c in _runs(x):
        h[v] += c
    return h


def d_sym(u, v):
    """Total multiplicity of the symmetric difference of the histograms."""
    hu, hv = histogram(u), histogram(v)
    return sum(abs(hu[z] - hv[z]) for z in hu.keys() | hv.keys())


def d_co(u, v):
    """Substitution count between equal-length multisets; INFINITE otherwise."""
    hu, hv = histogram(u), histogram(v)
    if sum(hu.values()) != sum(hv.values()):
        return INFINITE
    return sum((hu - hv).values())


def d_ham(u, v):
    """Positions where the ordered sequences differ; INFINITE if lengths do."""
    ru, rv = _runs(u), _runs(v)
    if _length(ru) != _length(rv):
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
    a = [val for val, c in _runs(u) for _ in range(c)]
    b = [val for val, c in _runs(v) for _ in range(c)]
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

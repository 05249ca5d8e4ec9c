"""The array engine of exhaustive sensitivity, behind
:func:`~boundedsum.sensitivity.brute_force_sensitivity`.

The releases of one length are an int array over the tuples in
``itertools.product`` order, read off step tables of the summation's own
rules (:func:`boundedsum.summation._rules`, in :class:`_Releases`), and
adjacent datasets meet in groups that are reductions of that array
(:func:`_scan`), raced for the largest gap (:class:`_Race`,
:class:`_Ring`).  This is the one module that imports numpy at its top;
brute force imports it when it first runs, so the commands that never
enumerate do not load numpy.
"""

from __future__ import annotations

from functools import partial
from typing import List

import numpy as np

from .data import Dataset
from .floats import FloatFormat, _bits_grid
from .ints import IntFormat
from .sensitivity import SensSpec
from .summation import Truncate, _left_size, _rules, _shift_dataset

# Most tuples (for ham: groups times domain size) one chunk of the scan
# holds; it bounds the arrays of a length's releases and groupings.
_CHUNK = 1 << 16


def _chunks(count: int, step: int):
    """``range(count)`` as arrays of at most ``step`` consecutive ints."""
    for a in range(0, count, step):
        yield np.arange(a, min(a + step, count))


def _digits(idx, length: int, size: int):
    """The domain positions of the tuples at ``idx``, one row each."""
    return idx[:, None] // size ** np.arange(length - 1, -1, -1) % size


def _code(rows, size: int):
    """Each row of domain positions read as one base-``size`` int."""
    return rows @ size ** np.arange(rows.shape[1] - 1, -1, -1)


def _deletions(dig, size: int, distinct: bool):
    """Each tuple's remove-one deletions, position by position: which
    tuples make a new one there, its rank among theirs, and its code.

    ``distinct``: sorted multisets, each once, ranked in order of first
    deletion; otherwise the shorter tuples, ranked by position."""
    rank = np.zeros(len(dig), np.int64)
    for p in range(dig.shape[1]):
        rest = np.delete(dig, p, 1)
        new = (dig[:, :p] != dig[:, p:p + 1]).all(1) | (not distinct)
        yield new, rank, _code(np.sort(rest, 1) if distinct else rest, size)
        rank = rank + new


class _Releases:
    """The releases of the tuples of one length at any array of their
    indices, read as ints (see :func:`brute_force_sensitivity`).

    A fold is a tree over the positions whose left part is the ``k - 1``
    first elements, or for ``pairwise`` the cascade's left subtree
    (:func:`boundedsum.summation._left_size`).  A part's states are ids into
    its distinct states, kept whole for every part length, and a parent's
    step table takes every pair of part states once.  Every state, step and
    release is the method's own, from the rule table
    (:func:`boundedsum.summation._rules`); a float release is read in grid
    units.  ``split`` folds over the tuple sorted by bit pattern, which
    takes each sign class from its smallest magnitude up as ``bs_split``
    does.  ``exact`` and every wraparound sum add grid ints (mod ``m``), a
    shortcut that needs no table.

    ``truncate:t`` reads the releases at length ``min(t, k)``, and
    ``shift`` maps the domain before the fold.  Releases are int64 when
    every release, group key and gap fits, Python ints otherwise.
    """

    def __init__(self, spec: SensSpec, frame: Dataset, longest: int,
                 work: int):
        fmt, method = spec.fmt, spec.method
        wrap = isinstance(fmt, IntFormat) and fmt.overflow == "wraparound"
        m = self.modulus = fmt.modulus if wrap else None
        self.size, self.cut = frame.n, longest
        for tr in method.transforms:
            if isinstance(tr, Truncate):
                self.cut = min(self.cut, tr.n_max)
            elif self.cut > 0 and self.size:  # a shift that sees an element
                frame = _shift_dataset(frame)  # (a second one maps nothing)
        alg, codes = method.algorithm, frame.codes()
        self.tree, self.rank = alg == "pairwise", None
        if isinstance(fmt, FloatFormat):
            grid = partial(_bits_grid, fmt._kernel)
            top = grid(fmt._kernel[4])
        else:
            grid, top = int, max(-fmt.min_value, fmt.max_value)
        if alg == "exact" or m:  # the exact sum, or its residue
            leaves = [grid(c) % m if m else grid(c) for c in codes]
            start, self.read = 0, int
            op = lambda a, b: (a + b) % m if m else a + b
        else:
            rules = _rules(fmt, alg, method.rounding)
            if alg == "split":  # a pair of sign partials, smallest first
                self.rank = np.argsort(np.argsort(codes))
                codes = sorted(codes)
            start, op = rules.start, rules.op
            leaves = [*map(rules.leaf, codes)]
            self.read = lambda state: grid(rules.release(state))
        # a release's bound, and so a group key's: ``code * width + offset
        # + release``; int64 holds every one, and every gap, or Python ints do
        self.op, top = op, top * max(longest, 1)
        self.width, self.offset = (m, 0) if m else (2 * top + 1, top)
        self.dt = object if (self.width * (work + 1)) >> 62 else np.int64
        self._nodes = {k: (0, None, x, self._reads(x))
                       for k, x in ((0, [start]), (1, leaves))}
        self._wholes = {}

    def _reads(self, states) -> np.ndarray:
        return np.array([self.read(x) for x in states], self.dt)

    def __call__(self, length: int, idx):
        k = min(length, self.cut)
        idx = idx // self.size ** (length - k)
        if self.rank is not None:
            idx = _code(np.sort(self.rank[_digits(idx, k, self.size)], 1),
                        self.size)
        if k not in self._nodes and not self.tree:
            for j in range(2, k):  # a k-step fold nests k deep: bottom-up
                self._ids(j)
        return self._node(k)[3][self._ids(k, idx)]

    def _node(self, k: int):
        """The fold of length ``k``: its left part's length, the table of
        its state ids by left and right part state, its states and their
        releases.  Every pair of part states is reached, and steps once."""
        if k not in self._nodes:
            left = _left_size(k) if self.tree else k - 1
            a, b = self._node(left)[2], self._node(k - left)[2]
            index = {}
            table = np.array([index.setdefault(self.op(x, y), len(index))
                              for x in a for y in b], np.int64)
            self._nodes[k] = (left, table.reshape(len(a), len(b)),
                              list(index), self._reads(index))
        return self._nodes[k]

    def _ids(self, k: int, idx=None):
        """The state ids of the length-``k`` fold at the tuple indices
        ``idx``, or at all of them, kept."""
        if idx is None:
            if k not in self._wholes:
                self._wholes[k] = self._ids(k, np.arange(self.size ** k))
            return self._wholes[k]
        left, table = self._node(k)[:2]
        if table is None:
            return idx  # the start, or one element
        w = self.size ** (k - left)
        return table[self._ids(left)[idx // w], self._ids(k - left)[idx % w]]


def _scan(metric: str, releases: _Releases, sizes: List[int]) -> "_Race":
    """Every offer of a gap between adjacent tuples, size by size.

    An event key is ``tuple << shift`` plus a probe bit, the group's rank
    and the side (low 0, high 1), so keys order one length's offers as
    the scan makes them.  ``id`` groups are the tuples themselves.  The
    parts of groups that span chunks are merged two of a size at a time.
    """
    size, shift = releases.size, max(sizes, default=0).bit_length() + 2
    race, prev = (_Ring if releases.modulus else _Race)(releases, shift), None
    for length in sizes:
        count, parts = size ** length, []
        if metric == "ham":  # the groups of one axis, whole, a chunk at once
            for p in range(length):
                w = size ** (length - 1 - p)
                for c in _chunks(count // size, max(_CHUNK // size, 1)):
                    idx = (((c // w * size)[:, None] + np.arange(size)) * w
                           + (c % w)[:, None]).ravel()
                    race.joins(race.merge(race.part(
                        np.repeat(c, size), (idx << shift) + (p << 1),
                        releases(length, idx))), length)
            continue

        def join(*part):
            parts.append(race.part(*part))
            while parts[1:] and len(parts[-2][0]) <= 2 * len(parts[-1][0]):
                parts[-2:] = [race.merge(*parts[-2:])]
        for idx in _chunks(count, _CHUNK):
            s, key = releases(length, idx), idx << shift
            dig = _digits(idx, length, size)
            # (no length probes the longest's id groups)
            if metric == "sym" or metric == "id" and length < sizes[-1]:
                join(idx if metric == "id" else _code(np.sort(dig, 1), size),
                     key, s)
            for new, rank, code in _deletions(dig, size, metric != "id"):
                k = key[new] + (rank[new] << 1)
                if metric == "co":
                    join(code[new], k, s[new])
                elif prev is not None:
                    race.probes(prev, length, code[new], k + (1 << shift - 1),
                                s[new])
        if parts:
            prev = race.merge(*parts)
            race.joins(prev, length)
    return race


class _Race:
    """Groups of absolute releases, and the first offer, in scan order, of
    the largest gap so far: the largest ``(gap, -length, -event key)``.

    A group keeps its releases as sorted keys ``code * width + offset +
    release``, each with the event key of the member that first brought
    it; an absolute group keeps only its two ends, its lowest release and
    its highest.  It offers its running range, ``(lo member, hi member)``,
    on every join after its first, so the range first reaches its final
    value when the later of its first final low and first final high
    joins.  (A group whose releases are all equal offers 0 at its second
    join; see :func:`brute_force_sensitivity`.)  A probe races its release
    against a group's low, then its high.
    """

    def __init__(self, releases: _Releases, shift: int):
        self.m, self.dt, self.width, self.offset = (
            releases.modulus, releases.dt, releases.width, releases.offset)
        self.shift, self.event, self.pair = shift, (-1,), None

    def offer(self, length: int, gap, key, u, v, v_length: int) -> None:
        """Offers of ``gap`` with event ``key`` between the tuples whose
        keys are ``u``, of ``length``, and ``v``, of ``v_length``."""
        if len(gap):
            at = np.flatnonzero(gap == gap.max())
            j = at[np.argmin(key[at])]
            if (gap[j], -length, -key[j]) > self.event:
                self.event = (gap[j], -length, -key[j])
                self.pair = ((length, u[j]), (v_length, v[j]))

    def part(self, code, key, s):
        """Members ``(code, key, s)``, not yet merged."""
        return code.astype(self.dt) * self.width + s + self.offset, key

    def merge(self, *parts):
        keys, key = (np.concatenate(x) for x in zip(*parts))
        order = np.lexsort((key, keys))
        keys, key = keys[order], key[order]
        new = np.diff(keys, prepend=-1) != 0  # keys are never negative
        keys, key = keys[new], key[new]
        if not self.m:  # an absolute group is read at its two ends only
            end = np.diff(keys // self.width, prepend=-1, append=-1) != 0
            keys, key = keys[end[:-1] | end[1:]], key[end[:-1] | end[1:]]
        return keys, key

    def _bounds(self, keys, code):
        """Each group's base key and where its keys start and end."""
        base = code.astype(self.dt) * self.width
        return (base, np.searchsorted(keys, base),
                np.searchsorted(keys, base + self.width))

    def joins(self, groups, length: int) -> None:
        """A group kept as its two ends offers its range; one kept as one
        release offers nothing."""
        keys, key = groups
        lo = np.flatnonzero(keys[1:] // self.width == keys[:-1] // self.width)
        self.offer(length, np.diff(keys)[lo], np.maximum(key[lo], key[lo + 1]),
                   key[lo], key[lo + 1], length)

    def probes(self, groups, length: int, code, key, s) -> None:
        """``(code, key, s)`` probed against the previous length's group
        ``code``."""
        keys, first = groups
        base, lo, hi = self._bounds(keys, code)
        for side, j in enumerate((lo, hi - 1)):
            self.offer(length, abs(base + s + self.offset - keys[j]),
                       key + side, key, first[j], length - 1)


class _Ring(_Race):
    """Groups of residues mod ``m``, compared in wrap distance.

    A new residue offers against the group's earlier residues when it
    arrives, and a probe against all of them.  The residues farthest from
    ``s`` are the ones nearest its antipode: of the antipode's two
    neighbours in the sorted group, found by ``searchsorted``, the nearer,
    or on a tie the earlier inserted.
    """

    def _far(self, groups, code, s):
        """The gap from each ``s`` to the farthest residues of its group
        ``code``, and their least event key."""
        (keys, key), m = groups, self.m
        base, lo, hi = self._bounds(keys, code)
        anti = base + (s + m // 2) % m
        i = np.searchsorted(keys, anti)
        left, right = np.where(i > lo, i, hi) - 1, np.where(i < hi, i, lo)
        d_left, d_right = (anti - keys[left]) % m, (keys[right] - anti) % m
        return m // 2 - np.minimum(d_left, d_right), np.minimum(
            np.where(d_left <= d_right, key[left], key[right]),
            np.where(d_right <= d_left, key[right], key[left]))

    def joins(self, groups, length: int) -> None:
        """A residue's arrival offers its farthest residue if that came
        earlier; one that comes later offers it in turn."""
        keys, key = groups
        gap, far = self._far(groups, keys // self.m, keys % self.m)
        ok = far < key
        self.offer(length, gap[ok], key[ok], key[ok], far[ok], length)

    def probes(self, groups, length: int, code, key, s) -> None:
        gap, far = self._far(groups, code, s)
        self.offer(length, gap, key, key, far, length - 1)

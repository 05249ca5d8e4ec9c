"""Blocks held in a dataset against its elements read with no entries.

A dataset holds ``count`` copies of a tuple of up to 12 codes as one block
entry, whether it was given as a block or as runs: blocks are found when a
dataset is built (see :mod:`boundedsum.data`).  Every reader takes the
block as it is held, so each must give what the element sequence gives
read with no entry at all: the equality against the element codes, the
element count, every sum under every algorithm, rounding mode and
transform against literal transforms and folds over ``codes()``, the four
distances against lists of values, and the file text.
"""

import json
import random

from hypothesis import given, settings
from hypothesis.strategies import (booleans, composite, data, integers, just,
                                   lists, one_of, sampled_from, tuples)

from boundedsum import (ALGORITHMS, FLOAT32, PERMUTATION_ALGORITHM, Dataset,
                        Dyadic, FloatFormat, IntFormat, KInt,
                        RandomPermutation, ROUNDING_MODES, ShiftBounds,
                        SimFloat, SumMethod, Truncate, add_int, d_co, d_ham,
                        d_id, d_sym, exact_value, is_representable,
                        round_dyadic, run_sum, truncate)
from boundedsum.data import code_key, json_text
from boundedsum.floats import add_bits

FORMATS = [FloatFormat(2, 3), FloatFormat(4, 6), FLOAT32,
           IntFormat(8, True, "wraparound"), IntFormat(8, True, "saturating"),
           IntFormat(16, True, "wraparound"),
           IntFormat(16, True, "saturating")]


def _codes(fmt):
    """Codes of ``fmt``: for floats any finite pattern, or one of a few
    binades above a drawn one, where the shift is mostly exact; for ints
    any value, or one near zero."""
    if isinstance(fmt, IntFormat):
        return one_of(integers(fmt.min_value, fmt.max_value),
                      integers(-40, 40))
    k = fmt.mantissa_bits
    _, _, _, sign, inf = fmt._kernel
    near = integers(0, (inf >> k) - 1).flatmap(
        lambda e: integers(e << k, min((e + 3) << k, inf - 1)))
    return one_of(integers(0, inf - 1), near).flatmap(
        lambda m: booleans().map(lambda neg: m | sign if neg and m else m))


def _value(fmt, code):
    return (SimFloat if isinstance(fmt, FloatFormat) else KInt)(fmt, code)


@composite
def held_pairs(draw):
    """A pair of datasets of one frame, each built by ``Dataset(...)`` from
    1-4 entries over a few codes: runs of 1-5 copies and blocks of 1-12
    codes repeated 1-200 times.  The second is the first with one code of
    one entry changed (same length) or another such dataset."""
    fmt = draw(sampled_from(FORMATS))
    pool = draw(lists(_codes(fmt), min_size=2, max_size=4, unique=True))
    key = lambda x: code_key(fmt, x)
    lo, hi = (_value(fmt, x) for x in (min(pool, key=key),
                                       max(pool, key=key)))
    entry = one_of(
        tuples(sampled_from(pool), integers(1, 5)),
        tuples(lists(sampled_from(pool), min_size=1, max_size=12).map(tuple),
               integers(1, 200)))
    entries = draw(lists(entry, min_size=1, max_size=4))
    if draw(booleans()):
        i = draw(integers(0, len(entries) - 1))
        x, c = entries[i]
        new = draw(sampled_from(pool))
        if isinstance(x, tuple):
            at = draw(integers(0, len(x) - 1))
            x = x[:at] + (new,) + x[at + 1:]
        else:
            x = new
        others = entries[:i] + [(x, c)] + entries[i + 1:]
    else:
        others = draw(lists(entry, min_size=1, max_size=4))

    def build(entries):
        return Dataset(fmt, lo, hi, [
            (tuple(_value(fmt, y) for y in x) if isinstance(x, tuple)
             else _value(fmt, x), c) for x, c in entries])
    return build(entries), build(others)


def by_runs(ds):
    """``ds``'s elements built again as one run each."""
    return Dataset.unchecked(ds.fmt, ds.lower, ds.upper,
                             [(x, 1) for x in ds.codes()])


def outcome(f, *args):
    try:
        return f(*args)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


def released(out):
    """A :func:`run_sum` outcome as ``(value, events, offset, permutation)``,
    the value a code (a pattern, a plain int) or an exact value."""
    value = out.value
    value = (value.bits if isinstance(value, SimFloat) else
             value.value if isinstance(value, KInt) else exact_value(value))
    return value, out.clamp_events, out.offset, out.permutation


def literal_shift(ds, codes):
    """``codes`` less ``ds.lower``, one element at a time, refused as the
    shift refuses them."""
    fmt, lower = ds.fmt, ds.lower
    if isinstance(fmt, IntFormat):
        if ds.upper.value - lower.value > fmt.max_value:
            raise ValueError("shifted upper bound U - L exceeds the type "
                             "range")
        return [x - lower.value for x in codes]

    def less(v):
        moved = v.to_fraction() - lower.to_fraction()
        if not is_representable(moved, fmt):
            return None
        return round_dyadic(Dyadic.from_fraction(moved), fmt, "banker").bits

    if less(ds.upper) is None:
        raise ValueError("shifted upper bound U - L is not representable")
    out = []
    for x in codes:
        moved = less(SimFloat(fmt, x))
        if moved is None:
            raise ValueError(f"shifted element {SimFloat(fmt, x)} - {lower} "
                             f"is not representable")
        out.append(moved)
    return out


def literal_fold(fmt, codes, algorithm, mode):
    """What ``algorithm`` releases on the element ``codes`` in order, one
    add per element, as a code, with split's clamp events."""
    if algorithm == "exact":
        if isinstance(fmt, IntFormat):
            return sum(codes), ()
        return sum(SimFloat(fmt, x).to_fraction() for x in codes), ()
    if isinstance(fmt, IntFormat):
        if algorithm == "kahan":
            raise TypeError("compensated summation is defined for float "
                            "formats")
        add = lambda a, b: add_int(KInt(fmt, a), KInt(fmt, b)).value
        final = lambda a: False
    else:
        kernel = fmt._kernel
        _, _, _, sign, inf = kernel
        add = lambda a, b: add_bits(kernel, a, b, mode)
        final = lambda a: a & (sign - 1) == inf
    if algorithm == "iterative":
        acc = 0
        for x in codes:
            acc = add(acc, x)
        return acc, ()
    if algorithm == "pairwise":
        def tree(xs):
            if len(xs) == 1:
                return xs[0]
            m = 1 << ((len(xs) - 1).bit_length() - 1)
            left = tree(xs[:m])
            return left if final(left) else add(left, tree(xs[m:]))
        return tree(codes) if codes else 0, ()
    if algorithm == "kahan":
        total = comp = 0
        for v in codes:
            y = add(v, comp ^ sign)
            t = add(total, y)
            if final(t):
                return t, ()
            comp = add(add(t, total ^ sign), y ^ sign)
            if final(comp):
                comp = 0
            total = t
        return total, ()
    # split: each sign's elements from the least magnitude up
    if isinstance(fmt, IntFormat):
        pos = neg = 0
        for x in sorted(x for x in codes if x >= 0):
            pos = add(pos, x)
        for x in sorted((x for x in codes if x < 0), reverse=True):
            neg = add(neg, x)
        return add(pos, neg), ()
    events, pos, neg = [], 0, 0
    for x in sorted(x for x in codes if not x & sign):
        pos = add_bits(kernel, pos, x, "toward_zero")
    for x in sorted(x for x in codes if x & sign):
        neg = add_bits(kernel, neg, x, "toward_zero")
    if pos == inf:
        pos = inf - 1
        events.append("positive_partial_clamped")
    if neg == inf | sign:
        neg = (inf - 1) | sign
        events.append("negative_partial_clamped")
    return add_bits(kernel, pos, neg, "banker"), tuple(events)


def literal_sum(ds, method):
    """:func:`released` of ``run_sum(ds, method)``, or its refusal, by
    literal transforms and folds over ``ds.codes()``."""
    fmt, codes = ds.fmt, ds.codes()
    offset = permutation = None
    for tr in method.transforms:
        if isinstance(tr, Truncate):
            codes = codes[:tr.n_max]
        elif isinstance(tr, RandomPermutation):
            codes.sort(key=lambda x: code_key(fmt, x))
            random.Random(tr.seed).shuffle(codes)
            permutation = PERMUTATION_ALGORITHM
        else:
            try:
                codes = literal_shift(ds, codes)
            except ValueError as exc:
                return ValueError, str(exc)
            offset = ds.lower
    try:
        value, events = literal_fold(fmt, codes, method.algorithm,
                                     method.rounding)
    except TypeError as exc:
        return TypeError, str(exc)
    return (value, events, None if offset is None else (offset, len(codes)),
            permutation)


@given(held_pairs())
@settings(max_examples=150, deadline=None)
def test_a_held_block_is_its_runs(pair):
    u, v = pair
    for held in (u, v):
        codes = held.codes()
        runs = by_runs(held)
        assert held == runs and runs == held
        assert held.n == runs.n == len(codes)
        text = json_text(held)
        assert text == json.dumps(held.to_json_dict(), indent=2,
                                  sort_keys=True)
        again = Dataset.from_json_dict(json.loads(text))
        assert again.runs == held.runs and again.n == held.n
        assert again == held and again.codes() == codes
    ru, rv = by_runs(u), by_runs(v)
    assert (u == v) == (ru == rv) == (u == rv) == (u.codes() == v.codes())
    # the metrics read a list of values as runs of one value each
    lu, lv = u.to_list(), v.to_list()
    for distance in (d_sym, d_co, d_ham):
        want = distance(lu, lv)
        assert distance(u, v) == distance(u, rv) == distance(ru, v) == want
    # the edit distance is a quadratic table over the elements
    if u.n * v.n <= 40_000:
        assert d_id(u, v) == d_id(ru, v) == d_id(lu, lv)


@given(held_pairs(), sampled_from(ROUNDING_MODES), data())
@settings(max_examples=150, deadline=None)
def test_a_held_block_sums_as_its_elements(pair, mode, data):
    held = pair[0]
    transforms = data.draw(one_of(
        just(()), just((ShiftBounds(),)),
        integers(0, held.n).map(lambda t: (Truncate(t),)),
        integers(0, 1 << 32).map(lambda s: (RandomPermutation(s),))))
    if transforms and isinstance(transforms[0], Truncate):
        cut = truncate(held, transforms[0].n_max)
        assert cut.codes() == held.codes()[:transforms[0].n_max]
        assert cut.n == transforms[0].n_max
    for algorithm in ALGORITHMS:
        method = SumMethod(algorithm, mode, transforms)
        got = outcome(run_sum, held, method)
        if not isinstance(got, tuple):
            got = released(got)
        assert got == literal_sum(held, method)

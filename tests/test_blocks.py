"""Blocks held in a dataset against its elements read with no entries.

A dataset holds ``count`` copies of a tuple of up to 12 codes as one block
entry, whether it was given as a block, as runs or in a file: its entries
are a function of its element sequence (see :mod:`boundedsum.data`).
Every reader takes the block as it is held, so each must give what the
element sequence gives read with no entry at all: the entries and the
file text of the dataset built run by run, the element count, every sum
under every algorithm, rounding mode and transform against literal
transforms and folds over ``codes()``, the four distances against lists
of values, and the file text.
"""

import itertools
import json
import random
import time
from unittest import mock

from hypothesis import given, settings
from hypothesis.strategies import (booleans, composite, data, integers, just,
                                   lists, one_of, sampled_from, tuples)
from pytest import mark

from boundedsum import (ALGORITHMS, FLOAT32, FLOAT64, PERMUTATION_ALGORITHM,
                        Dataset, Dyadic, FloatFormat, IntFormat, KInt,
                        RandomPermutation, ROUNDING_MODES, ShiftBounds,
                        SimFloat, SumMethod, Truncate, add_int, d_co, d_ham,
                        d_id, d_sym, exact_value, is_representable,
                        round_dyadic, run_sum, truncate)
from boundedsum import data as data_module
from boundedsum.data import (_SCAN_COPIES, _found, _settle, code_key,
                             encode_value, json_text, merge_runs)
from boundedsum.floats import _native, add_bits, parse_value
from boundedsum.summation import _machine_shift, _shift_dataset

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
        assert held.runs == runs.runs and json_text(held) == json_text(runs)
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
    lu, lv = list(u.iter_values()), list(v.iter_values())
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


@given(sampled_from([FLOAT32, FLOAT64]), data())
@settings(max_examples=300, deadline=None)
def test_the_machine_shift_is_the_literal_shift(fmt, data):
    # float32 and float64 are shifted in one pass on the machine's floats,
    # and every element whose difference is not exact there sends the
    # whole list to the grid, which names the first one
    codes = data.draw(lists(_codes(fmt), min_size=1, max_size=40))
    key = lambda x: code_key(fmt, x)
    bounds = sorted([*data.draw(lists(_codes(fmt), max_size=2)),
                     min(codes, key=key), max(codes, key=key)], key=key)
    lo, hi = SimFloat(fmt, bounds[0]), SimFloat(fmt, bounds[-1])
    entries = [(x, 1) for x in codes]
    if len(codes) > 2 and data.draw(booleans()):
        entries = [(tuple(codes[:2]), 5)] + entries[2:]
    ds = Dataset.unchecked(fmt, lo, hi, entries)
    want = outcome(literal_shift, ds, ds.codes())
    got = outcome(_shift_dataset, ds)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert got.codes() == want and got.runs == Dataset.unchecked(
            fmt, got.lower, got.upper, [(x, 1) for x in want]).runs
        assert got.upper.bits == literal_shift(ds, [hi.bits])[0]
    native = _native(fmt)
    exact = _machine_shift(native, lo.bits, [*ds.codes(), hi.bits])
    assert (exact is None) == isinstance(want, tuple)


# ---------------------------------------------------------------------------
# One element sequence, one entry list
# ---------------------------------------------------------------------------

def _expanded(entries):
    """Code ``entries`` as runs of one element each."""
    return [(y, 1) for x, c in entries
            for y in (x * c if isinstance(x, tuple) else (x,) * c)]


@composite
def spelled_pairs(draw):
    """A frame and two lists of code entries over 2-4 of its codes.  Each
    holds a block of 1-12 codes at 1 to ``_SCAN_COPIES + 25`` copies,
    between two sides that are runs, or copies of a window of the block's
    repetition with maybe one code changed (a stretch that may reach into
    the block's copies), and maybe one more block.  The second list is
    the first, the first with one code changed, or another such list."""
    fmt = draw(sampled_from(FORMATS))
    pool = draw(lists(_codes(fmt), min_size=2, max_size=4, unique=True))
    key = lambda x: code_key(fmt, x)
    lo, hi = (_value(fmt, x) for x in (min(pool, key=key),
                                       max(pool, key=key)))
    some = lists(sampled_from(pool), min_size=1, max_size=12).map(tuple)

    def spelling():
        block = draw(some)
        copies = draw(one_of(integers(1, _SCAN_COPIES),
                             integers(_SCAN_COPIES + 1, _SCAN_COPIES + 25)))

        def side():
            if draw(booleans()):
                return draw(lists(tuples(sampled_from(pool), integers(1, 3)),
                                  max_size=6))
            start = draw(integers(0, len(block) - 1))
            window = list((block * 24)[start:start + draw(integers(1, 12))])
            if draw(booleans()):
                window[draw(integers(0, len(window) - 1))] = draw(
                    sampled_from(pool))
            cut = draw(integers(0, len(window)))
            return [(x, 1) for x in window * draw(integers(3, 7))
                    + window[:cut]]

        entries = side() + [(block, copies)] + side()
        if draw(booleans()):
            entries.insert(draw(integers(0, len(entries))),
                           (draw(some), draw(integers(1, 40))))
        return entries

    first = spelling()
    how = draw(sampled_from(["same", "changed", "other"]))
    if how == "same":
        second = first
    elif how == "other":
        second = spelling()
    else:
        i = draw(integers(0, len(first) - 1))
        x, c = first[i]
        new = draw(sampled_from(pool))
        if isinstance(x, tuple):
            at = draw(integers(0, len(x) - 1))
            x = x[:at] + (new,) + x[at + 1:]
        else:
            x = new
        second = first[:i] + [(x, c)] + first[i + 1:]
    return fmt, lo, hi, first, second


def built(fmt, lo, hi, entries):
    """The dataset of code ``entries`` built three ways: from the entries
    as values, element by element, and from a file of the entries."""
    value = lambda x: _value(fmt, x)
    given_ = Dataset(fmt, lo, hi, [
        (tuple(map(value, x)) if isinstance(x, tuple) else value(x), c)
        for x, c in entries])
    by_element = Dataset.from_elements(fmt, lo, hi, [
        value(x) for x, _ in _expanded(entries)])
    text = lambda x: encode_value(value(x))
    doc = given_.to_json_dict()
    doc["elements"] = [
        {"block": list(map(text, x)), "count": c} if isinstance(x, tuple)
        else {"value": text(x), "count": c} for x, c in entries]
    return given_, by_element, Dataset.from_json_dict(json.loads(
        json.dumps(doc)))


@given(spelled_pairs())
@settings(max_examples=150, deadline=None)
def test_one_element_sequence_is_one_entry_list(spec):
    fmt, lo, hi, first, second = spec
    for entries in (first, second):
        assert _settle(entries, True) == _settle(_expanded(entries), False)
    datasets = built(fmt, lo, hi, first) + built(fmt, lo, hi, second)
    for a in datasets:
        for b in datasets:
            assert ((a == b) == (a.runs == b.runs)
                    == (json_text(a) == json_text(b))
                    == (a.codes() == b.codes()))


_F46 = FloatFormat(4, 6)
_A, _B, _C = (parse_value(_F46, t).bits for t in ("1", "0.5", "0.25"))
_SIX = tuple(parse_value(_F46, t).bits for t in "123456")
# each list of code entries, and the entries it is held as, whether given
# so or run by run
SHAPES = {
    "a-block-then-a-copy-in-runs": (
        [((_A, _B), 5), (_A, 1), (_B, 1)], (((_A, _B), 6),)),
    "a-copy-in-runs-then-a-block": (
        [(_B, 1), ((_A, _B), 5)], (((_B, _A), 5), (_B, 1))),
    "a-block-of-a-shorter-block": (
        [((_A, _B, _A, _B), 5)], (((_A, _B), 10),)),
    "six-codes-held-five-times": ([(_SIX, 5)], ((_SIX, 5),)),
    # a stretch of five elements a copy takes the block's first copy and
    # two elements of the next, so a scan of six copies would leave four of
    # the rest, which stay runs
    "a-stretch-into-the-copies": (
        [(x, 1) for x in (_A, _B, _C, _A, _B)] * 4 + [((_A, _B, _C), 40)],
        (((_A, _B, _C, _A, _B), 5), ((_C, _A, _B), 38), (_C, 1))),
    # a stretch of eleven elements a copy takes five of the block's copies,
    # so a scan of ten copies would leave too few
    "a-long-stretch-into-the-copies": (
        [(x, 1) for x in (_A, _B) * 5 + (_A,)] * 5
        + [((_A, _B), 26), (_B, 6), (_C, 1)],
        (((_A, _B), 5), (((_A,) + (_A, _B) * 5), 5), ((_A, _B), 20),
         (_A, 1), (_B, 7), (_C, 1))),
}


@mark.parametrize("entries, held", SHAPES.values(), ids=SHAPES)
def test_a_shape_is_held_as_its_elements(entries, held):
    lo, hi = parse_value(_F46, "-8"), parse_value(_F46, "8")
    given_ = Dataset.unchecked(_F46, lo, hi, entries)
    by_runs = Dataset.unchecked(_F46, lo, hi, _expanded(entries))
    assert given_.runs == by_runs.runs == held
    assert json_text(given_) == json_text(by_runs)


def test_a_block_of_2_49_copies_settles_without_expanding():
    # the length of the repeated_rounding_2 tail at float64: a listed copy
    # would never finish
    lo, hi = parse_value(_F46, "-8"), parse_value(_F46, "8")
    start = time.perf_counter()
    held = Dataset.unchecked(_F46, lo, hi,
                             [(_A, 3), ((_A, _B), 1 << 49), (_B, 2)])
    text = json_text(held)
    again = Dataset.from_json_dict(json.loads(text))
    assert time.perf_counter() - start < 1.0
    assert held.runs == ((_A, 4), ((_B, _A), (1 << 49) - 1), (_B, 3))
    assert held.n == 5 + (1 << 50)
    assert again.runs == held.runs and json_text(again) == text


@mark.parametrize("kinds", [100, 300])
def test_a_block_is_found_among_any_number_of_kinds_of_runs(kinds):
    # up to 256 kinds of runs the scans compare one-byte run ids, past
    # that the runs themselves
    fmt = IntFormat(16, True, "wraparound")
    head = [(x, 1) for x in range(1000, 1000 + kinds // 2)]
    tail = [(x, 1) for x in range(-1000, -1000 + kinds // 2)]
    block = [(1, 2), (2, 1), (3, 1)]
    held = Dataset.unchecked(fmt, KInt(fmt, fmt.min_value),
                             KInt(fmt, fmt.max_value),
                             head + block * 6 + [(1, 1)] + tail)
    assert held.runs == (*head, ((1, 1, 2, 3), 6), (1, 1), *tail)


@given(integers(257, 400), data())
@settings(max_examples=200, deadline=None)
def test_runs_with_chance_repeats_settle_as_the_full_scan_holds_them(
        n, data):
    # over 256 distinct codes with a few drawn again, apart or up to ten
    # in a row, and maybe a pattern of them repeated 3 to 6 times, near
    # the eight runs of repeated codes in a row that a block's stretch
    # needs: the settled runs are the full scan's over the merged runs
    codes = list(range(n))
    for _ in range(data.draw(integers(0, 6), label="repeats")):
        codes.insert(data.draw(integers(0, n), label="at"),
                      data.draw(integers(0, n - 1), label="code"))
    at = data.draw(integers(0, n), label="row at")
    codes[at:at] = data.draw(lists(integers(0, n - 1), max_size=10),
                             label="row")
    if data.draw(booleans(), label="pattern"):
        at = data.draw(integers(0, n), label="pattern at")
        pattern = data.draw(lists(integers(0, n - 1), min_size=2,
                                  max_size=3), label="of")
        codes[at:at] = pattern * data.draw(integers(3, 6), label="times")
    runs = tuple((x, 1 + i % 2) for i, x in enumerate(codes))
    assert _settle(runs, False) == _found(merge_runs(runs))


@given(integers(0, 300), integers(0, 30), data())
@settings(max_examples=200, deadline=None)
def test_merged_runs_are_the_runs_grouped(n, repeats, data):
    # distinct codes with some repeated in place: few merges among many
    # runs are made one by one, many by one grouping
    codes = list(range(n))
    for _ in range(repeats if codes else 0):
        at = data.draw(integers(0, len(codes) - 1), label="at")
        codes.insert(at, codes[at])
    runs = [(x, 1 + i % 3) for i, x in enumerate(codes)]
    assert merge_runs(runs) == tuple(
        (x, sum(c for _, c in group))
        for x, group in itertools.groupby(runs, key=lambda r: r[0]))


@given(integers(0, 120), integers(1, 400), integers(0, 40), data())
@settings(max_examples=200, deadline=None)
def test_merged_runs_are_the_runs_grouped_past_the_sample(n, kinds, sample,
                                                         data):
    # codes of one to 400 kinds, so that the pairs compared first and the
    # rest each merge densely, sparsely or not at all, with as many pairs
    # compared first as the runs hold, or fewer
    runs = data.draw(lists(tuples(integers(0, kinds - 1), integers(1, 3)),
                           min_size=n, max_size=n), label="runs")
    with mock.patch.object(data_module, "_MERGE_SAMPLE", sample):
        got = merge_runs(runs)
    assert got == tuple(
        (x, sum(c for _, c in group))
        for x, group in itertools.groupby(runs, key=lambda r: r[0]))

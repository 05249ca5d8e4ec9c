"""Blocks held in a dataset against their expansion as runs.

A dataset holds ``count`` copies of a tuple of up to 12 codes as one block
entry (see :mod:`boundedsum.data`).  Every reader takes the block as it is
held, so each must give what it gives on the same elements spelled out as
runs: the equality, the element count, every sum under every algorithm,
rounding mode and transform, the four distances, and the file text.
"""

import json

from hypothesis import given, settings
from hypothesis.strategies import (booleans, composite, data, integers, just,
                                   lists, one_of, sampled_from, tuples)

from boundedsum import (ALGORITHMS, FLOAT32, Dataset, FloatFormat, IntFormat,
                        KInt, RandomPermutation, ROUNDING_MODES, ShiftBounds,
                        SimFloat, SumMethod, Truncate, d_co, d_ham, d_id,
                        d_sym, run_sum, truncate)
from boundedsum.data import code_key, json_text

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


def spelled(ds):
    """``ds`` with its blocks spelled out: one run per element, merged."""
    return Dataset.unchecked(ds.fmt, ds.lower, ds.upper,
                             [(x, 1) for x in ds.codes()])


def outcome(f, *args):
    try:
        return f(*args)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


@given(held_pairs())
@settings(max_examples=150, deadline=None)
def test_a_held_block_is_its_runs(pair):
    u, v = pair
    for held in (u, v):
        runs = spelled(held)
        assert not runs.blocks
        assert held == runs and runs == held
        assert held.n == runs.n == len(held.codes())
        text = json_text(held)
        assert text == json.dumps(held.to_json_dict(), indent=2,
                                  sort_keys=True)
        again = Dataset.from_json_dict(json.loads(text))
        assert again.runs == held.runs and again.n == held.n
        assert again == held
    su, sv = spelled(u), spelled(v)
    assert (u == v) == (su == sv) == (u == sv)
    for distance in (d_sym, d_co, d_ham):
        want = distance(su, sv)
        assert distance(u, v) == distance(u, sv) == distance(su, v) == want
    # the edit distance is a quadratic table over the elements
    if u.n * v.n <= 40_000:
        assert d_id(u, v) == d_id(su, v) == d_id(su, sv)


@given(held_pairs(), sampled_from(ROUNDING_MODES), data())
@settings(max_examples=150, deadline=None)
def test_a_held_block_sums_as_its_runs(pair, mode, data):
    held = pair[0]
    runs = spelled(held)
    transforms = data.draw(one_of(
        just(()), just((ShiftBounds(),)),
        integers(0, held.n).map(lambda t: (Truncate(t),)),
        integers(0, 1 << 32).map(lambda s: (RandomPermutation(s),))))
    if transforms and isinstance(transforms[0], Truncate):
        cut = truncate(held, transforms[0].n_max)
        assert cut == truncate(runs, transforms[0].n_max)
        assert cut.n == transforms[0].n_max
    for algorithm in ALGORITHMS:
        method = SumMethod(algorithm, mode, transforms)
        assert outcome(run_sum, held, method) == outcome(run_sum, runs,
                                                         method)

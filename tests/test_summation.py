"""Summation algorithms against per-element reference folds.

The library executes run-length datasets without expanding them, jumping
across absorption and periodic-drift stretches.  Everything here checks
that shortcut against the one definition that matters: the literal
element-by-element fold.
"""

import itertools
import json
import math
import random
import re
from fractions import Fraction
from pathlib import Path

from pytest import mark, raises
from hypothesis import example, given, settings
from hypothesis.strategies import (booleans, composite, data, integers,
                                   lists, one_of, sampled_from, tuples)

from boundedsum import (
    ALGORITHMS,
    FLOAT32,
    PERMUTATION_ALGORITHM,
    Dataset,
    Dyadic,
    FloatFormat,
    IntFormat,
    KInt,
    RandomPermutation,
    ROUNDING_MODES,
    ShiftBounds,
    SimFloat,
    SumMethod,
    Truncate,
    add_float,
    add_int,
    bs_exact,
    bs_iterative,
    bs_kahan,
    bs_pairwise,
    bs_split,
    check_multiplication,
    float_overflow_check,
    is_representable,
    load_dataset,
    parse_value,
    random_permutation,
    round_dyadic,
    run_sum,
    truncate,
)
from boundedsum.attacks import (repeated_rounding_attack_1,
                                repeated_rounding_attack_2)
from boundedsum.floats import add_bits
from boundedsum.summation import (_fold, _kahan_bits, _rules, _shift_dataset,
                                  _shuffle)
from reference import magnitude, negated, values_in_range

F23 = FloatFormat(2, 3)
F34 = FloatFormat(3, 4)
F46 = FloatFormat(4, 6)
F105 = FloatFormat(10, 5)

GOLDEN_INSTANCES = Path(__file__).with_name("golden") / "instances"


# ---------------------------------------------------------------------------
# Reference folds (always element by element)
# ---------------------------------------------------------------------------

def ref_iterative(ds, mode="banker"):
    if isinstance(ds.fmt, FloatFormat):
        acc = SimFloat.zero(ds.fmt)
        for v in ds.iter_values():
            acc = add_float(acc, v, mode)
    else:
        acc = KInt(ds.fmt, 0)
        for v in ds.iter_values():
            acc = add_int(acc, v)
    return acc


def ref_kahan(ds, mode="banker"):
    # overflow releases the first infinite running sum, before the
    # compensation step would feed it into inf + (-inf); an overflowed
    # compensation is dropped
    total = SimFloat.zero(ds.fmt)
    comp = SimFloat.zero(ds.fmt)
    for v in ds.iter_values():
        y = add_float(v, negated(comp), mode)
        t = add_float(total, y, mode)
        if t.kind == "inf":
            return t
        comp = add_float(add_float(t, negated(total), mode), negated(y),
                         mode)
        if comp.kind == "inf":
            comp = SimFloat.zero(ds.fmt)
        total = t
    return total


def ref_pairwise(ds, mode="banker"):
    values = list(ds.iter_values())
    if not values:
        return ref_iterative(ds, mode)
    if isinstance(ds.fmt, FloatFormat):
        add = lambda a, b: add_float(a, b, mode)
    else:
        add = add_int

    def rec(chunk):
        if len(chunk) == 1:
            return chunk[0]
        m = 1
        while m * 2 < len(chunk):
            m *= 2
        left = rec(chunk[:m])
        # overflow releases an infinite left operand without its sibling,
        # so opposite overflowed halves never meet in inf + (-inf)
        if isinstance(left, SimFloat) and left.kind == "inf":
            return left
        return add(left, rec(chunk[m:]))

    return rec(values)


def ref_split(ds):
    """Sign partition, magnitude-ascending, RTZ partials, banker combine."""
    fmt = ds.fmt
    values = list(ds.iter_values())
    if isinstance(fmt, FloatFormat):
        neg = sorted((v for v in values if v.sign < 0 and v.kind != "zero"),
                     key=lambda v: magnitude(v).to_fraction())
        pos = sorted((v for v in values
                      if not (v.sign < 0 and v.kind != "zero")),
                     key=lambda v: v.to_fraction())
        p = SimFloat.zero(fmt)
        for v in pos:
            p = add_float(p, v, "toward_zero")
        n = SimFloat.zero(fmt)
        for v in neg:
            n = add_float(n, v, "toward_zero")
        from boundedsum import round_dyadic
        if p.kind == "inf":
            p = round_dyadic(fmt.max_finite, fmt, "toward_zero")
        if n.kind == "inf":
            n = negated(round_dyadic(fmt.max_finite, fmt, "toward_zero"))
        return add_float(p, n, "banker")
    pos = KInt(fmt, 0)
    for v in sorted((v for v in values if v.value >= 0), key=lambda v: v.value):
        pos = add_int(pos, v)
    neg = KInt(fmt, 0)
    for v in sorted((v for v in values if v.value < 0), key=lambda v: -v.value):
        neg = add_int(neg, v)
    return add_int(pos, neg)


def fold_copies(fmt, rules, state, x, count, mode):
    """``count`` copies of the pattern ``x`` folded into ``state`` by the
    run fold of the program, as one run."""
    return _fold(fmt, rules, ((x, count),), state, mode)


def float_ds(fmt, runs, lo="-8", hi="8"):
    lo, hi = parse_value(fmt, lo), parse_value(fmt, hi)
    return Dataset(fmt, lo, hi, [(parse_value(fmt, v), c) for v, c in runs])


# ---------------------------------------------------------------------------
# Run fast-forward vs the literal fold
# ---------------------------------------------------------------------------

@composite
def small_float_datasets(draw):
    fmt = draw(sampled_from([F23, F34]))
    lo = parse_value(fmt, "-1")
    hi = parse_value(fmt, "1")
    domain = values_in_range(fmt, lo, hi, include_subnormals=True)
    n_runs = draw(integers(min_value=0, max_value=6))
    runs = [(draw(sampled_from(domain)), draw(integers(min_value=1, max_value=30)))
            for _ in range(n_runs)]
    return Dataset(fmt, lo, hi, runs)


@given(small_float_datasets(), sampled_from(ROUNDING_MODES))
@settings(max_examples=200, deadline=None)
def test_iterative_runs_equal_elementwise_fold(ds, mode):
    assert bs_iterative(ds, mode) == ref_iterative(ds, mode)


@given(small_float_datasets())
@settings(max_examples=150, deadline=None)
def test_split_runs_equal_elementwise_fold(ds):
    assert bs_split(ds) == ref_split(ds)


def unmerged_split(ds, events=None):
    """bs_split folding its sorted runs one by one, equal codes unmerged:
    the reference for the merged fold."""
    fmt = ds.fmt
    _, _, _, sign, inf = fmt._kernel
    rules = _rules(fmt, "iterative", "toward_zero")
    partials = [0, 0]
    for x, count in sorted(ds.runs):
        side = 1 if x & sign else 0
        partials[side] = fold_copies(fmt, rules, partials[side], x, count,
                                     "toward_zero")
    pos, neg = partials
    if pos == inf:
        pos = inf - 1
        if events is not None:
            events.append("positive_partial_clamped")
    if neg == inf | sign:
        neg = (inf - 1) | sign
        if events is not None:
            events.append("negative_partial_clamped")
    return SimFloat(fmt, add_bits(fmt._kernel, pos, neg, "banker"))


@composite
def repeating_float_datasets(draw):
    # many runs over few values, so sorting puts equal codes side by side;
    # the full finite range lets either partial saturate
    fmt = draw(sampled_from([F23, F34]))
    hi = round_dyadic(fmt.max_finite, fmt, "toward_zero")
    domain = values_in_range(fmt, negated(hi), hi, include_subnormals=True)
    values = draw(lists(sampled_from(domain), min_size=1, max_size=4))
    runs = draw(lists(sampled_from(values).flatmap(
        lambda v: integers(1, 40).map(lambda c: (v, c))), max_size=24))
    return Dataset(fmt, negated(hi), hi, runs)


@given(repeating_float_datasets())
@settings(max_examples=200, deadline=None)
def test_split_merging_equal_codes_keeps_the_unmerged_release(ds):
    events, want_events = [], []
    assert bs_split(ds, events) == unmerged_split(ds, want_events)
    assert events == want_events


def test_split_adds_a_run_of_equal_codes_as_one_run(monkeypatch):
    # the two codes of the repeated_rounding_2 tail alternate in runs of 1
    # to 7 copies, fourteen runs and 56 elements a period, which is no block
    # (a block is at most 12 elements), so its sorted runs are two long
    # stretches of equal codes: merged, the fold jumps each one, unmerged
    # it made one add per copy
    import boundedsum.summation as summation
    instance = repeated_rounding_attack_2(FloatFormat(23, 8), 12, 0)
    calls = []

    def counted(*args):
        calls.append(args)
        return add_bits(*args)

    monkeypatch.setattr(summation, "add_bits", counted)
    for held in (instance.u, instance.v):
        (block, copies), = held.runs[-1:]
        tail = [(block[i % 2], 1 + i // 2 % 7) for i in range(2 * copies)]
        ds = Dataset.unchecked(held.fmt, held.lower, held.upper,
                               held.runs[:-1] + tuple(tail))
        calls.clear()
        assert len(ds.runs) > 2000 and not ds.blocks
        got = bs_split(ds)
        assert len(calls) < 100
        monkeypatch.setattr(summation, "add_bits", add_bits)
        assert got == unmerged_split(ds)
        monkeypatch.setattr(summation, "add_bits", counted)


# the running sum overflows, and the next compensation step would add
# opposite infinities
KAHAN_OVERFLOW = float_ds(F23, [("1", 16)], lo="-1", hi="1")
# the two halves overflow in opposite directions
PAIRWISE_OVERFLOW = float_ds(F23, [("1", 16), ("-1", 15)], lo="-1", hi="1")
# rounding toward +inf, 14 - (-0.5) overflows the compensation while every
# running sum stays finite; the exact sum is 27.5
KAHAN_COMP_OVERFLOW = float_ds(F23, [("-0.5", 1), ("14", 1), ("0", 1), ("14", 1)],
                               lo="-14", hi="14")


@given(small_float_datasets(), sampled_from(ROUNDING_MODES))
@example(KAHAN_OVERFLOW, "banker")
@example(KAHAN_COMP_OVERFLOW, "toward_pos")
@settings(max_examples=100, deadline=None)
def test_kahan_matches_textbook_recurrence(ds, mode):
    assert bs_kahan(ds, mode) == ref_kahan(ds, mode)


@given(small_float_datasets(), sampled_from(ROUNDING_MODES))
@example(PAIRWISE_OVERFLOW, "banker")
@settings(max_examples=100, deadline=None)
def test_pairwise_matches_reference_tree(ds, mode):
    assert bs_pairwise(ds, mode) == ref_pairwise(ds, mode)


def test_pairwise_split_point():
    # n = 6 must split 4 | 2, not 3 | 3: check against a case where the
    # two trees disagree (4 | 2 gives 12, 3 | 3 gives 14)
    fmt = F23
    lo, hi = parse_value(fmt, "0"), parse_value(fmt, "8")
    vals = [parse_value(fmt, t) for t in ("4", "3", "2.5", "3.5", "0.875", "0.25")]
    ds = Dataset.from_elements(fmt, lo, hi, vals)
    assert bs_pairwise(ds) == ref_pairwise(ds)

    balanced = add_float(
        add_float(add_float(vals[0], vals[1]), vals[2]),
        add_float(add_float(vals[3], vals[4]), vals[5]))
    assert bs_pairwise(ds) != balanced  # the 3|3 tree rounds differently


# ---------------------------------------------------------------------------
# Run-aware pairwise and Kahan vs the literal folds
# ---------------------------------------------------------------------------

@composite
def long_run_datasets(draw):
    """Up to four runs, about 3,000 elements in all, over (4,6) or (10,5).

    Values come from a window of a few binades below a drawn top exponent,
    of either sign, and reach into the subnormals when the window does, so
    a run's fold changes regime partway: exact climbs, absorption, drift
    with a growing compensation, binades crossed, overflow."""
    fmt = draw(sampled_from([F46, F105]))
    k = fmt.k
    top = draw(integers(min_value=fmt.emin - 2, max_value=fmt.emax))

    def value():
        e = draw(integers(min_value=top - k - 3, max_value=top))
        m = draw(integers(min_value=-(2 << k) + 1, max_value=(2 << k) - 1))
        return round_dyadic(Dyadic(m, e - k), fmt, "toward_zero")

    n_runs = draw(integers(min_value=1, max_value=4))
    runs = [(value(), draw(integers(min_value=1, max_value=3000 // n_runs)))
            for _ in range(n_runs)]
    bound = round_dyadic(fmt.max_finite, fmt, "toward_zero")
    return Dataset(fmt, negated(bound), bound, runs)


# the float_reorder shapes of the benchmark's fr32x pair, at j = 0 and 6
FR32X_U = float_ds(FLOAT32, [("1", 4096), ("4096", 4096)], lo="1",
                   hi="4096")
FR32X_V = float_ds(FLOAT32, [("262144", 4096), ("64", 4096)], lo="64",
                   hi="262144")
# repeated_rounding_1 at (10,5): 1025*2^-14 after two 2^6
R1_HALF = float_ds(F105, [("64", 2), ("1025*2^-14", 1024)], lo="0", hi="64")
# the overflow pins, stretched to long runs
KAHAN_OVERFLOW_LONG = float_ds(F23, [("1", 3000)], lo="-1", hi="1")
PAIRWISE_OVERFLOW_LONG = float_ds(F23, [("1", 2048), ("-1", 2047)],
                                  lo="-1", hi="1")
KAHAN_COMP_OVERFLOW_LONG = float_ds(
    F23, [("-0.5", 1), ("14", 1), ("0", 1500), ("14", 1500)],
    lo="-14", hi="14")
# the compensation overflows inside a run
KAHAN_COMP_OVERFLOW_IN_RUN = float_ds(F23, [("-1", 1), ("14", 275)],
                                      lo="-14", hi="14")


@given(long_run_datasets(), sampled_from(ROUNDING_MODES))
@example(FR32X_U, "banker")        # period 1
@example(R1_HALF, "banker")        # period 2
@example(FR32X_V, "banker")        # period 4
@example(FR32X_V, "toward_zero")   # period 2 after 1
# the rounding error drifts: the jump must stop before a rounding flips
@example(float_ds(F46, [("0.5", 2710)], lo="0", hi="1"), "toward_pos")
# a banker's tie that only a period of even grid steps keeps
@example(float_ds(F46, [("19*2^-11", 6)], lo="0", hi="1"), "banker")
# an exact add stays exact only while its sums are representable
@example(float_ds(F23, [("-1.5", 10), ("0.75", 1704), ("0.3125", 1524)],
                  lo="-14", hi="14"), "toward_neg")
@example(KAHAN_OVERFLOW_LONG, "banker")
@example(KAHAN_COMP_OVERFLOW_LONG, "toward_pos")
@example(KAHAN_COMP_OVERFLOW_IN_RUN, "toward_pos")
@settings(max_examples=60, deadline=None)
def test_kahan_runs_match_the_literal_fold(ds, mode):
    assert bs_kahan(ds, mode) == ref_kahan(ds, mode)


@given(long_run_datasets(), sampled_from(ROUNDING_MODES))
@example(FR32X_U, "banker")
@example(FR32X_V, "toward_pos")
@example(R1_HALF, "toward_neg")
@example(PAIRWISE_OVERFLOW_LONG, "banker")
@settings(max_examples=60, deadline=None)
def test_pairwise_runs_match_the_literal_tree(ds, mode):
    assert bs_pairwise(ds, mode) == ref_pairwise(ds, mode)


@composite
def long_int_datasets(draw):
    fmt = draw(sampled_from([IntFormat(8, True, "wraparound"),
                             IntFormat(8, True, "saturating"),
                             IntFormat(16, False, "wraparound"),
                             IntFormat(16, False, "saturating")]))
    n_runs = draw(integers(min_value=1, max_value=5))
    runs = [(KInt(fmt, draw(integers(min_value=fmt.min_value,
                                     max_value=fmt.max_value))),
             draw(integers(min_value=1, max_value=3000 // n_runs)))
            for _ in range(n_runs)]
    return Dataset(fmt, KInt(fmt, fmt.min_value), KInt(fmt, fmt.max_value),
                   runs)


@given(long_int_datasets())
@settings(max_examples=60, deadline=None)
def test_int_pairwise_runs_match_the_literal_tree(ds):
    assert bs_pairwise(ds) == ref_pairwise(ds)


@mark.parametrize("algorithm", ["pairwise", "kahan"])
def test_repeated_rounding_pairs_match_the_literal_folds(algorithm):
    # the family whose full-size float64 pair releases no exact sum, at a
    # size the element-by-element folds reach: 5 stages of 4,096 copies
    inst = repeated_rounding_attack_1(FloatFormat(12, 8), j=5, m=-3)
    reference = ref_pairwise if algorithm == "pairwise" else ref_kahan
    for ds in (inst.u, inst.v):
        assert run_sum(ds, SumMethod(algorithm)).value == reference(ds)


def count_adds(monkeypatch) -> list:
    """A list that grows on each add of the folds: by ``"bits"`` on an
    ``add_bits`` call, by ``"machine"`` on an add of the machine's floats."""
    import boundedsum.summation as summation
    calls = []
    machine_add = summation._machine_add

    def counting(kernel, x, y, mode):
        calls.append("bits")
        return add_bits(kernel, x, y, mode)

    def counting_machine(ftype, mode):
        add = machine_add(ftype, mode)

        def counted(a, b):
            calls.append("machine")
            return add(a, b)
        return counted

    monkeypatch.setattr(summation, "add_bits", counting)
    monkeypatch.setattr(summation, "_machine_add", counting_machine)
    return calls


def test_pairwise_adds_once_per_block_size(monkeypatch):
    # two runs of 4,096: one memoized block chain per run and the root add
    calls = count_adds(monkeypatch)
    for ds in (FR32X_U, FR32X_V):
        calls.clear()
        bs_pairwise(ds)
        assert 0 < len(calls) <= 32  # the literal tree adds 8,191 times


def test_kahan_steps_make_four_adds(monkeypatch):
    # 4,098 elements in 5 runs, folded in 42 literal steps: each makes the
    # four adds of one Kahan step and none more to watch them
    ds = load_dataset(GOLDEN_INSTANCES / "rr1_10_5" / "u.json")
    calls = count_adds(monkeypatch)
    bs_kahan(ds)
    assert len(calls) == 42 * 4


def test_kahan_runs_jump_whole_periods(monkeypatch):
    # runs of 4,096 with periods of one step and of four: a few literal
    # steps each, then whole periods at once
    calls = count_adds(monkeypatch)
    for ds in (FR32X_U, FR32X_V):
        calls.clear()
        bs_kahan(ds)
        assert 0 < len(calls) <= 64


@mark.parametrize("algorithm", ["iterative", "split"])
def test_one_add_runs_jump_across_binades(monkeypatch, algorithm):
    # 2^62 copies of float64's 1.0 add exactly up to 2^53, and of its
    # smallest subnormal up to 2^-1021; there the spacing is twice the
    # addend, so banker's and toward-zero rounding both absorb it.  The
    # exact adds jump across every binade in one period.
    f64 = FloatFormat(52, 11)
    zero = SimFloat.zero(f64)
    calls = count_adds(monkeypatch)
    for v, want in ((parse_value(f64, "1"), Fraction(2 ** 53)),
                    (SimFloat(f64, 1), Fraction(1, 2 ** 1021))):
        ds = Dataset(f64, zero, v, [(v, 1 << 62)])
        calls.clear()
        assert run_sum(ds, SumMethod(algorithm)).value.to_fraction() == want
        assert len(calls) <= 32


def test_kahan_gives_up_past_the_literal_step_limit(monkeypatch):
    import boundedsum.summation as summation
    monkeypatch.setattr(summation, "MATERIALIZE_LIMIT", 1)
    # a run needs two literal steps before any period can show
    with raises(ValueError, match="no period"):
        bs_kahan(float_ds(F46, [("0.5", 100)], lo="0", hi="1"))
    # runs of one never count: one literal step each
    dense = float_ds(F46, [(v, 1) for v in ("0.5", "0.25", "0.75", "1")],
                     lo="0", hi="1")
    assert bs_kahan(dense) == ref_kahan(dense)


@mark.parametrize("runs mode".split(), [
    # a constant climb that crosses several binades and finally absorbs
    ([("1", 600)], "banker"),
    ([("1", 600)], "toward_zero"),
    ([("1", 600)], "toward_pos"),
    ([("-1", 600)], "banker"),
    # start high, then a long run of small adds that absorb immediately
    ([("128", 1), ("0.0625", 300)], "banker"),
    # drift region entered partway through a run
    ([("7", 3), ("0.5", 500)], "banker"),
    ([("7", 3), ("0.5", 500)], "toward_pos"),
    # climb out of the subnormal range
    ([("0.001953125", 900)], "banker"),      # 2^-9, subnormal at (4,6)
    # alternating-direction runs
    ([("5", 40), ("-3", 60), ("1.25", 80)], "toward_neg"),
])
def test_fast_forward_stationary_regimes(runs, mode):
    ds = float_ds(F46, runs, lo="-256", hi="256")
    assert bs_iterative(ds, mode) == ref_iterative(ds, mode)


def test_fast_forward_through_saturation():
    # the accumulator reaches infinity mid-run and must stay there
    fmt = F23
    lo, hi = parse_value(fmt, "0"), parse_value(fmt, "14")
    ds = Dataset(fmt, lo, hi, [(parse_value(fmt, "14"), 2000)])
    assert bs_iterative(ds) == ref_iterative(ds)
    assert bs_iterative(ds).kind == "inf"
    # Kahan and pairwise release the first infinity they reach
    assert bs_kahan(KAHAN_OVERFLOW) == SimFloat.inf(F23)
    assert bs_pairwise(PAIRWISE_OVERFLOW) == SimFloat.inf(F23)
    # mixed signs: the running sum first overflows at the last element, so
    # the release is the infinity with the exact sum's sign
    assert bs_exact(KAHAN_COMP_OVERFLOW).to_fraction() > 0
    assert bs_kahan(KAHAN_COMP_OVERFLOW, "toward_pos") == SimFloat.inf(F23)


def test_int_runs_equal_elementwise_fold():
    rng = random.Random(20240811)
    for fmt in (IntFormat(6, True, "wraparound"), IntFormat(6, True, "saturating")):
        lo, hi = KInt(fmt, fmt.min_value), KInt(fmt, fmt.max_value)
        for _ in range(40):
            runs = [(KInt(fmt, rng.randrange(fmt.min_value, fmt.max_value + 1)),
                     rng.randrange(1, 300))
                    for _ in range(rng.randrange(0, 5))]
            ds = Dataset(fmt, lo, hi, runs)
            assert bs_iterative(ds) == ref_iterative(ds)
            assert bs_split(ds) == ref_split(ds)


def test_saturating_run_pins_to_rail():
    fmt = IntFormat(8, True, "saturating")
    ds = Dataset(fmt, KInt(fmt, -128), KInt(fmt, 127), [(KInt(fmt, 100), 50)])
    assert bs_iterative(ds).value == 127
    ds2 = Dataset(fmt, KInt(fmt, -128), KInt(fmt, 127),
                  [(KInt(fmt, -100), 50), (KInt(fmt, 1), 3)])
    assert bs_iterative(ds2).value == -125
    assert bs_iterative(ds2) == ref_iterative(ds2)


def _patterns(fmt, finite):
    """Every pattern of ``fmt`` that is not a NaN (``+0`` but no ``-0``),
    or every finite one."""
    _, _, _, sign, inf = fmt._kernel
    top = inf - 1 if finite else inf
    return [0] + [m | s for m in range(1, top + 1) for s in (0, sign)]


@mark.parametrize("mode", ROUNDING_MODES)
def test_iterative_copies_fold_matches_stepwise_add_bits(mode):
    # every start (infinities too), every finite addend of (2,3)
    kernel = F23._kernel
    rules = _rules(F23, "iterative", mode)
    counts = (0, 1, 2, 3, 40)
    for s in _patterns(F23, finite=False):
        for c in _patterns(F23, finite=True):
            want = s
            for count in range(counts[-1] + 1):
                if count in counts:
                    assert fold_copies(F23, rules, s, c, count,
                                       mode) == want, (s, c, count)
                want = add_bits(kernel, want, c, mode)


@mark.parametrize("mode", ROUNDING_MODES)
def test_kahan_copies_fold_matches_stepwise_kahan_bits(mode):
    # every total and element of (2,3); no compensation, the smallest
    # negative subnormal and a normal value; runs long enough for a jump
    # across whole periods of the longest length looked for
    kernel = F23._kernel
    rules = _rules(F23, "kahan", mode)
    comps = (0, 1 | kernel[3], 9)
    counts = (0, 1, 2, 3, 16)
    for total in _patterns(F23, finite=False):
        for comp in comps:
            for v in _patterns(F23, finite=True):
                want = (total, comp)
                for count in range(counts[-1] + 1):
                    if count in counts:
                        assert fold_copies(F23, rules, (total, comp), v,
                                           count, mode) == want, (
                            total, comp, v, count)
                    want = _kahan_bits(kernel, *want, v, mode)[:2]


# ---------------------------------------------------------------------------
# The rule table, folded literally, vs the reference folds
# ---------------------------------------------------------------------------

I4S = IntFormat(4, True, "saturating")
I4W = IntFormat(4, True, "wraparound")


def table_fold(rules, codes, tree):
    """The release of ``codes`` folded literally by ``rules``: a left fold
    of their leaves from ``start``, or for ``tree`` the cascade, split at
    the largest power of two below the length."""
    def cascade(states):
        if len(states) == 1:
            return states[0]
        m = 1 << ((len(states) - 1).bit_length() - 1)
        return rules.op(cascade(states[:m]), cascade(states[m:]))

    states = [rules.leaf(x) for x in codes]
    if tree and states:
        return rules.release(cascade(states))
    state = rules.start
    for one in states:
        state = rules.op(state, one)
    return rules.release(state)


def _whole_range(fmt, values):
    """A dataset of ``values`` over the whole finite range of ``fmt``."""
    if isinstance(fmt, FloatFormat):
        return _dense(fmt, values)
    return Dataset.from_elements(fmt, KInt(fmt, fmt.min_value),
                                 KInt(fmt, fmt.max_value),
                                 [KInt(fmt, v) for v in values])


@composite
def rule_cases(draw):
    """A format, an algorithm, a mode and up to ten codes.  Float codes
    are subnormal, top-binade or any, so sums overflow, partials saturate
    and pairwise's halves meet infinities; int codes span a 4-bit range."""
    fmt = draw(sampled_from([F23, F34, I4S, I4W]))
    if isinstance(fmt, FloatFormat):
        algorithm = draw(sampled_from(["iterative", "pairwise", "kahan",
                                       "split"]))
        codes = draw(lists(_finite_patterns(fmt), max_size=10))
    else:
        algorithm = draw(sampled_from(["iterative", "pairwise", "split"]))
        codes = draw(lists(integers(fmt.min_value, fmt.max_value),
                           max_size=10))
    return fmt, algorithm, draw(sampled_from(ROUNDING_MODES)), codes


_F23_14 = parse_value(F23, "14").bits
_F23_SIGN = F23._kernel[3]


@given(rule_cases())
# the running sum overflows
@example((F23, "iterative", "banker", [_F23_14, _F23_14, 3]))
# the halves overflow in opposite directions
@example((F23, "pairwise", "banker",
          [_F23_14] * 2 + [_F23_14 | _F23_SIGN] * 2))
# the first infinite running sum, and a compensation past the range
@example((F23, "kahan", "banker", [_F23_14, _F23_14, _F23_14 | _F23_SIGN]))
@example((F23, "kahan", "toward_pos",
          [parse_value(F23, t).bits for t in ("-0.5", "14", "0", "14")]))
# both partials saturate and are clamped
@example((F23, "split", "banker", [_F23_14] * 3 + [_F23_14 | _F23_SIGN] * 3))
@example((I4S, "iterative", "banker", [7, 7, -8, -8, -8]))
@example((I4S, "split", "banker", [7, 7, -8, -8]))
@example((I4W, "pairwise", "banker", [7, 7, 7, -8]))
@settings(max_examples=400, deadline=None)
def test_the_rule_table_folds_as_the_reference_folds(case):
    fmt, algorithm, mode, values = case
    ds = _whole_range(fmt, values)
    codes = ds.codes()
    if algorithm == "split":  # each sign class from its smallest magnitude
        codes, want = sorted(codes), ref_split(ds)
    else:
        reference = {"iterative": ref_iterative, "pairwise": ref_pairwise,
                     "kahan": ref_kahan}[algorithm]
        want = reference(ds, mode)
    got = table_fold(_rules(fmt, algorithm, mode), codes,
                     algorithm == "pairwise")
    assert got == (want.bits if isinstance(fmt, FloatFormat)
                   else want.value)


# ---------------------------------------------------------------------------
# bs_exact
# ---------------------------------------------------------------------------

@given(small_float_datasets())
@settings(max_examples=60, deadline=None)
def test_exact_float_sum_is_exact(ds):
    want = sum((SimFloat(ds.fmt, x).to_fraction() * c for x, c in ds.runs),
               Fraction(0))
    assert bs_exact(ds).to_fraction() == want


def test_exact_int_sum_is_unbounded():
    fmt = IntFormat(8, False, "wraparound")
    ds = Dataset(fmt, KInt(fmt, 0), KInt(fmt, 255), [(KInt(fmt, 255), 1000)])
    assert bs_exact(ds) == 255_000  # plain int, no wraparound


def test_exact_never_rounds_where_iterative_does():
    ds = float_ds(F23, [("8", 1), ("0.25", 1)], lo="0", hi="8")
    assert bs_iterative(ds).to_fraction() == 8       # 8.25 is off-grid
    assert bs_exact(ds).to_fraction() == Fraction(33, 4)


# ---------------------------------------------------------------------------
# Split: canonical schedule and clamping
# ---------------------------------------------------------------------------

def test_split_is_order_blind():
    base = [("2", 3), ("-0.5", 5), ("4", 1), ("-2", 2)]
    rng = random.Random(7)
    reference = bs_split(float_ds(F46, base))
    for _ in range(10):
        shuffled = base[:]
        rng.shuffle(shuffled)
        assert bs_split(float_ds(F46, shuffled)) == reference


@composite
def small_tuples(draw):
    """A short tuple over a whole tiny format: floats with subnormals up to
    the largest finite value, or every int of a 4-bit format."""
    fmt = draw(sampled_from([F23, F34, IntFormat(4, True, "wraparound"),
                             IntFormat(4, True, "saturating")]))
    if isinstance(fmt, FloatFormat):
        top = round_dyadic(fmt.max_finite, fmt, "toward_zero")
        lo, hi = negated(top), top
        domain = values_in_range(fmt, lo, hi, include_subnormals=True)
    else:
        lo, hi = KInt(fmt, fmt.min_value), KInt(fmt, fmt.max_value)
        domain = [KInt(fmt, v) for v in range(fmt.min_value, fmt.max_value + 1)]
    values = draw(lists(sampled_from(domain), max_size=4))
    return Dataset.from_elements(fmt, lo, hi, values)


@given(small_tuples())
@settings(max_examples=150, deadline=None)
def test_split_and_exact_depend_only_on_the_multiset(ds):
    # the premise of brute force's one release per sorted multiset
    values = list(ds.iter_values())
    for order in itertools.permutations(values):
        other = Dataset.from_elements(ds.fmt, ds.lower, ds.upper, order)
        assert bs_split(other) == bs_split(ds)
        assert bs_exact(other) == bs_exact(ds)


def test_split_iterative_disagree_on_order():
    # same multiset, two orders: iterative feels it, split does not
    a = float_ds(F23, [("0.25", 8), ("8", 1)], lo="0", hi="8")
    b = float_ds(F23, [("8", 1), ("0.25", 8)], lo="0", hi="8")
    assert bs_iterative(a) != bs_iterative(b)
    assert bs_split(a) == bs_split(b)


def test_split_clamp_events():
    fmt = F23
    lo, hi = parse_value(fmt, "-14"), parse_value(fmt, "14")
    ds = Dataset(fmt, lo, hi, [(parse_value(fmt, "14"), 500)])
    events = []
    out = bs_split(ds, events)
    assert events == ["positive_partial_clamped"]
    assert out.to_fraction() == 14
    ds2 = Dataset(fmt, lo, hi, [(parse_value(fmt, "-14"), 500),
                                (parse_value(fmt, "14"), 500)])
    events2 = []
    out2 = bs_split(ds2, events2)
    assert sorted(events2) == ["negative_partial_clamped",
                               "positive_partial_clamped"]
    assert out2.to_fraction() == 0  # the two clamped rails cancel


def test_run_sum_surfaces_clamp_events():
    fmt = F23
    lo, hi = parse_value(fmt, "0"), parse_value(fmt, "14")
    ds = Dataset(fmt, lo, hi, [(parse_value(fmt, "14"), 500)])
    outcome = run_sum(ds, SumMethod("split"))
    assert outcome.clamp_events == ("positive_partial_clamped",)


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------

def test_truncate_keeps_prefix_and_splits_runs():
    fmt = IntFormat(8, False, "wraparound")
    ds = Dataset(fmt, KInt(fmt, 0), KInt(fmt, 9),
                 [(KInt(fmt, 3), 4), (KInt(fmt, 5), 2)])
    cut = truncate(ds, 5)
    assert cut.runs == ((3, 4), (5, 1))
    assert truncate(ds, 0).runs == ()
    assert truncate(ds, 99) == ds
    with raises(ValueError):
        truncate(ds, -1)


def test_permutation_depends_only_on_multiset_and_seed():
    fmt = IntFormat(8, False, "wraparound")
    lo, hi = KInt(fmt, 0), KInt(fmt, 99)

    def ds(elems):
        return Dataset.from_elements(fmt, lo, hi, [KInt(fmt, e) for e in elems])

    a = random_permutation(ds([3, 1, 4, 1, 5]), seed=99)
    b = random_permutation(ds([5, 4, 3, 1, 1]), seed=99)
    assert a == b
    assert random_permutation(ds([3, 1, 4, 1, 5]), seed=100) != a


@mark.parametrize("seed", [0, 1, 99, 20220721])
def test_shuffle_is_random_shuffle(seed):
    # the same getrandbits draws in the same order: the same permutation,
    # and the generator left in the same state, at every length up to 300
    # (bit lengths 1 to 9, and each power of two's edge)
    for n in range(301):
        ours, theirs = random.Random(seed), random.Random(seed)
        xs, want = list(range(n)), list(range(n))
        _shuffle(xs, ours)
        theirs.shuffle(want)
        assert xs == want, n
        assert ours.getstate() == theirs.getstate(), n


def test_shuffle_is_random_shuffle_on_a_long_list():
    ours, theirs = random.Random(7), random.Random(7)
    xs, want = list(range(10 ** 5)), list(range(10 ** 5))
    _shuffle(xs, ours)
    theirs.shuffle(want)
    assert xs == want
    assert ours.getstate() == theirs.getstate()


def test_permutation_is_roughly_uniform():
    fmt = IntFormat(8, False, "wraparound")
    ds = Dataset.from_elements(fmt, KInt(fmt, 0), KInt(fmt, 9),
                               [KInt(fmt, v) for v in (1, 2, 3)])
    counts = {}
    trials = 1200
    for seed in range(trials):
        order = tuple(v.value for v in random_permutation(ds, seed).iter_values())
        counts[order] = counts.get(order, 0) + 1
    assert len(counts) == 6
    expected = trials / 6
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < 20.5  # df=5, far beyond any plausible p-value


def test_run_sum_transform_pipeline():
    fmt = IntFormat(8, False, "wraparound")
    ds = Dataset.from_elements(fmt, KInt(fmt, 0), KInt(fmt, 9),
                               [KInt(fmt, v) for v in (9, 9, 9, 1)])
    plain = run_sum(ds, SumMethod())
    assert plain.value.value == 28
    assert plain.permutation is None and plain.offset is None

    shuffled = run_sum(ds, SumMethod(transforms=(RandomPermutation(5),)))
    assert shuffled.permutation == PERMUTATION_ALGORITHM
    assert shuffled.value.value == 28  # ints: order cannot matter

    cut = run_sum(ds, SumMethod(transforms=(Truncate(2),)))
    assert cut.value.value == 18

    # permute-then-truncate differs from truncate-then-permute in general
    cut_then_perm = run_sum(ds, SumMethod(transforms=(Truncate(1),
                                                      RandomPermutation(0))))
    assert cut_then_perm.value.value == 9


def test_run_sum_shift_bounds():
    fmt = IntFormat(8, False, "wraparound")
    ds = Dataset.from_elements(fmt, KInt(fmt, 10), KInt(fmt, 20),
                               [KInt(fmt, v) for v in (10, 15, 20)])
    out = run_sum(ds, SumMethod(transforms=(ShiftBounds(),)))
    lower, count = out.offset
    assert (lower.value, count) == (10, 3)
    assert out.value.value == (10 - 10) + (15 - 10) + (20 - 10)
    # the caller reconstructs the true sum in post-processing
    assert out.value.value + lower.value * count == 45
    # the offset is the lower bound the first shift subtracts and the
    # count summed, whatever the order: the release plus lower * count is
    # the sum of the elements summed
    ds = float_ds(F105, [("-1.5", 1), ("-1.25", 1), ("-1", 1)], lo="-2",
                  hi="-1")
    for transforms, summed in (
            ((ShiftBounds(), Truncate(2)), ("-1.5", "-1.25")),
            ((Truncate(2), ShiftBounds()), ("-1.5", "-1.25")),
            ((ShiftBounds(), ShiftBounds()), ("-1.5", "-1.25", "-1"))):
        out = run_sum(ds, SumMethod(transforms=transforms))
        lower, count = out.offset
        assert (lower.to_fraction(), count) == (-2, len(summed))
        assert out.value.to_fraction() + lower.to_fraction() * count == sum(
            parse_value(F105, t).to_fraction() for t in summed)


def test_shift_bounds_demands_exactness():
    # span not representable: (2,3) with L = -14, U = 14 has U - L = 28 > 14
    fmt = F23
    ds = Dataset(fmt, parse_value(fmt, "-14"), parse_value(fmt, "14"), ())
    with raises(ValueError):
        run_sum(ds, SumMethod(transforms=(ShiftBounds(),)))


def test_float_shift_bounds_shifts_elements_exactly():
    ds = float_ds(F46, [("2", 2), ("3", 1)], lo="2", hi="4")
    out = run_sum(ds, SumMethod(transforms=(ShiftBounds(),)))
    assert out.value.to_fraction() == Fraction(1)  # (0 + 0 + 1)
    lower, count = out.offset
    assert lower.to_fraction() == 2 and count == 3


def _finite_patterns(fmt, near=None):
    """Finite bit patterns of ``fmt``: subnormal, top-binade or any
    magnitudes with either sign, or patterns close to ``near``."""
    k = fmt.mantissa_bits
    _, _, _, sign, inf = fmt._kernel
    mags = [integers(0, (1 << k) - 1), integers(inf - (2 << k), inf - 1),
            integers(0, inf - 1)]
    if near is not None:
        mags.append(integers(max(near - 64, 0), min(near + 64, inf - 1)))
    return one_of(*mags).flatmap(
        lambda m: booleans().map(lambda neg: m | sign if neg and m else m))


@composite
def dense_float_datasets(draw):
    """1-300 elements, no two neighbours equal, over bounds wide enough for
    the sums to overflow; elements reach the subnormals."""
    fmt = draw(sampled_from([F46, FloatFormat(23, 8), FloatFormat(52, 11)]))
    _, _, _, sign, inf = fmt._kernel
    patterns = draw(lists(_finite_patterns(fmt), min_size=1, max_size=300))
    values = [SimFloat(fmt, b) for i, b in enumerate(patterns)
              if i == 0 or b != patterns[i - 1]]
    return Dataset.from_elements(fmt, SimFloat(fmt, (inf - 1) | sign),
                                 SimFloat(fmt, inf - 1), values)


def _dense(fmt, patterns):
    _, _, _, sign, inf = fmt._kernel
    return Dataset.from_elements(fmt, SimFloat(fmt, (inf - 1) | sign),
                                 SimFloat(fmt, inf - 1),
                                 [SimFloat(fmt, b) for b in patterns])


_F46_TOP = (F46._kernel[4] - 1)
_F46_SIGN = F46._kernel[3]


@given(dense_float_datasets(), sampled_from(ROUNDING_MODES))
@example(_dense(F46, [_F46_TOP, _F46_TOP - 1, _F46_TOP | _F46_SIGN]),
         "banker")                                       # overflow
@example(_dense(F46, [_F46_TOP | _F46_SIGN, 3, _F46_TOP | _F46_SIGN,
                      _F46_TOP, _F46_TOP - 1]), "toward_pos")  # both ways
@example(_dense(F46, [1, 5 | _F46_SIGN, 15, 16, 3]), "toward_neg")  # subnormal
@settings(max_examples=150, deadline=None)
def test_dense_folds_match_the_literal_folds(ds, mode):
    assert all(c == 1 for _, c in ds.runs)
    assert bs_iterative(ds, mode) == ref_iterative(ds, mode)
    assert bs_kahan(ds, mode) == ref_kahan(ds, mode)
    assert bs_pairwise(ds, mode) == ref_pairwise(ds, mode)
    assert bs_split(ds) == ref_split(ds)


@composite
def dense_int_datasets(draw):
    fmt = draw(sampled_from([IntFormat(bits, signed, overflow)
                             for bits, signed in ((8, True), (16, False),
                                                  (32, True))
                             for overflow in ("wraparound", "saturating")]))
    values = draw(lists(integers(fmt.min_value, fmt.max_value),
                        min_size=1, max_size=300))
    return Dataset.from_elements(fmt, KInt(fmt, fmt.min_value),
                                 KInt(fmt, fmt.max_value),
                                 [KInt(fmt, v) for v in values])


@given(dense_int_datasets())
@settings(max_examples=150, deadline=None)
def test_dense_int_folds_match_the_literal_add_int_folds(ds):
    # the references fold element by element with add_int
    assert bs_iterative(ds) == ref_iterative(ds)
    assert bs_pairwise(ds) == ref_pairwise(ds)
    assert bs_split(ds) == ref_split(ds)


# ---------------------------------------------------------------------------
# Blocks found among runs vs the literal folds
# ---------------------------------------------------------------------------

def literal_bits(ds, mode):
    """The iterative and the Kahan running sum of ``ds`` as patterns, one
    ``add_bits`` and one ``_kahan_bits`` step per element."""
    kernel = ds.fmt._kernel
    acc, state = 0, (0, 0)
    for x in ds.codes():
        acc = add_bits(kernel, acc, x, mode)
        state = _kahan_bits(kernel, *state, x, mode)[:2]
    return acc, state[0]


def _blocks(fmt, runs):
    """The code ``runs`` over the whole finite range of ``fmt``."""
    _, _, _, sign, inf = fmt._kernel
    return Dataset.unchecked(fmt, SimFloat(fmt, (inf - 1) | sign),
                             SimFloat(fmt, inf - 1), runs)


@composite
def block_runs(draw):
    """A format and code runs over it: a block of 2-4 runs of distinct
    codes, 1-3 copies each, repeated 3-200 times and then cut partway
    through one more copy, between a few runs before and after, over
    formats of 2-4 mantissa bits.  The codes are subnormal, top-binade or
    any, so the folds drift across binades, stay in the subnormal band or
    overflow."""
    fmt = draw(sampled_from([F23, F34, F46]))
    codes = _finite_patterns(fmt)
    block = list(zip(draw(lists(codes, min_size=2, max_size=4, unique=True)),
                     draw(lists(integers(1, 3), min_size=4, max_size=4))))
    reps = draw(integers(3, 200))
    cut = draw(integers(0, len(block) - 1))
    prefix, suffix = (draw(lists(tuples(codes, integers(1, 5)), max_size=3))
                      for _ in range(2))
    return fmt, prefix + block * reps + block[:cut] + suffix


def assert_held(ds):
    """``ds``'s entries are as a dataset holds them: no two equal entries
    in a row, and each block of 2-12 codes, not all one, at 5 copies or
    more."""
    assert all(a != b for a, b in zip(ds.runs, ds.runs[1:]))
    for x, c in ds.runs:
        assert c >= 1
        if isinstance(x, tuple):
            assert 2 <= len(x) <= 12 and len(set(x)) > 1 and c >= 5


_F46_ONE = parse_value(F46, "1").bits


@given(block_runs(), sampled_from(ROUNDING_MODES))
# +1, -0.25, -0.25 climbs across binades until the adds round
@example((F46, [(_F46_ONE, 1), (parse_value(F46, "-0.25").bits, 2)] * 200),
         "banker")
# +3, -2 grid units: exact in the subnormal band, then out of it
@example((F46, [(3, 1), (2 | _F46_SIGN, 1)] * 12), "toward_zero")
@example((F46, [(3, 1), (2 | _F46_SIGN, 1)] * 200), "toward_pos")
# +14, -1 overflows at a +14, inside a block
@example((F23, [(parse_value(F23, "14").bits, 1),
                (parse_value(F23, "-1").bits, 1)] * 40), "banker")
# +1, -1 keeps the state: D = 0
@example((F46, [(7, 2), (_F46_ONE, 1), (_F46_ONE | _F46_SIGN, 1)] * 100),
         "toward_neg")
@settings(max_examples=150, deadline=None)
def test_block_folds_match_the_literal_folds(spec, mode):
    # the entries found among the runs spell the runs' elements
    fmt, runs = spec
    ds = _blocks(fmt, runs)
    assert ds.codes() == [x for x, c in runs for _ in range(c)]
    assert_held(ds)
    acc, total = literal_bits(ds, mode)
    assert bs_iterative(ds, mode).bits == acc
    assert bs_kahan(ds, mode).bits == total


def test_block_folds_add_a_few_times(monkeypatch):
    # the repeated_rounding_2 pair at float32 j=12: 2,048 copies of 1, then
    # 1,024 copies of a two-element block; a literal fold of u makes 4,096
    # adds, a literal Kahan fold 16,384 and a literal pairwise tree 4,095.
    # The generator holds the tail as one block, and the same elements
    # spelled out as runs hold the same block: it is found when the
    # dataset is built.
    inst = repeated_rounding_attack_2(FLOAT32, 12, 0)
    calls = count_adds(monkeypatch)
    for held in (inst.u, inst.v):
        assert held.blocks and len(held.runs[-1][0]) == 2
        assert held.runs[-1][1] == 1024
        spelled = Dataset.unchecked(held.fmt, held.lower, held.upper,
                                    [(x, 1) for x in held.codes()])
        assert spelled.runs == held.runs
        for fold in (bs_iterative, bs_kahan, bs_pairwise):
            calls.clear()
            fold(held)
            assert 0 < len(calls) <= 100
    # the committed rr2 pair, written before blocks as one run per tail
    # element, holds its 16-copy tail as one block when it is loaded
    for side in ("u", "v"):
        runs = load_dataset(GOLDEN_INSTANCES / "rr2" / f"{side}.json").runs
        assert isinstance(runs[-1][0], tuple) and runs[-1][1] == 16
    # no entry twice: one entry per run of the file, and one add per
    # element, in the per-run loop
    path = GOLDEN_INSTANCES / "dense" / "f10_5.json"
    dense = load_dataset(path)
    assert len(dense.runs) == len(json.loads(path.read_text())["elements"])
    assert not dense.blocks
    calls.clear()
    bs_iterative(dense)
    assert len(calls) == dense.n


def test_a_stretch_is_five_copies_of_its_block():
    # four copies can jump only over the last two: they stay runs
    block = [("1", 1), ("0.25", 2)]
    one, quarter = (parse_value(F46, t).bits for t in ("1", "0.25"))
    assert float_ds(F46, block * 4).runs == ((one, 1), (quarter, 2)) * 4
    assert float_ds(F46, block * 5).runs == (((one, quarter, quarter), 5),)


def test_a_block_past_the_size_cap_folds_run_by_run():
    # 2^60 + 1 elements a copy, far past any list: the stretch stays runs,
    # and each run folds in its own period jumps
    ds = float_ds(F46, [("0.5", 1 << 60), ("-0.25", 1)] * 6)
    assert len(ds.runs) == 12 and not ds.blocks
    for mode in ROUNDING_MODES:
        iterative, kahan = (_rules(F46, alg, mode)
                            for alg in ("iterative", "kahan"))
        acc, state = 0, (0, 0)
        for x, c in ds.runs:
            acc = fold_copies(F46, iterative, acc, x, c, mode)
            state = fold_copies(F46, kahan, state, x, c, mode)
        assert bs_iterative(ds, mode).bits == acc
        assert bs_kahan(ds, mode).bits == state[0]


@mark.parametrize("fold", [bs_iterative, bs_kahan])
def test_a_block_fold_names_its_values_when_it_gives_up(monkeypatch, fold):
    import boundedsum.summation as summation
    monkeypatch.setattr(summation, "MATERIALIZE_LIMIT", 1)
    ds = float_ds(F46, [("0.5", 1), ("0.25", 1)] * 50, lo="0", hi="1")
    half, quarter = (parse_value(F46, t) for t in ("0.5", "0.25"))
    with raises(ValueError, match=re.escape(
            f"no period of at most 4 steps in 1 copies of the block "
            f"({half}, {quarter})")):
        fold(ds)


# ---------------------------------------------------------------------------
# Stretches on the machine's floats vs the literal folds
# ---------------------------------------------------------------------------

F32, F64 = FLOAT32, FloatFormat(52, 11)


@composite
def machine_datasets(draw):
    """Runs of 1-70 copies, across the ``_NATIVE_RUN`` cut, over float32
    or float64.  Codes lie at most 60 binades below a drawn exponent 8
    binades or more under the top (subnormals included), where a double
    sum of two float32 values with exponents over 29 bits apart is
    inexact; in half the datasets they may also be subnormal, top-binade
    or any, so that more sums overflow.  A run may be followed by its
    negation, so sums cancel exactly."""
    fmt = draw(sampled_from([F32, F64]))
    k = fmt.mantissa_bits
    _, _, _, sign, inf = fmt._kernel
    top = draw(integers(1, (inf >> k) - 8))
    near = integers(max(top - 60, 0) << k, (top << k) - 1).flatmap(
        lambda m: booleans().map(lambda neg: m | sign if neg and m else m))
    if draw(booleans()):
        near = one_of(near, _finite_patterns(fmt))
    runs = []
    for x, count, cancel in draw(lists(
            tuples(near, integers(1, 70), booleans()), max_size=10)):
        runs.append((x, count))
        if cancel and x:
            runs.append((x ^ sign, count))
    return _blocks(fmt, runs)


def _f32(text):
    return parse_value(F32, text).bits


def _f64(text):
    return parse_value(F64, text).bits


@given(machine_datasets(), sampled_from(["banker", *ROUNDING_MODES]))
# n_max + ulp/2 is a tie, which goes to infinity; just below, to n_max
@example(_blocks(F32, [(_f32("16777215*2^104"), 1), (_f32("1*2^103"), 1)]),
         "banker")
@example(_blocks(F32, [(_f32("16777215*2^104"), 1),
                       (_f32("8388607*2^80"), 1)]), "banker")
@example(_blocks(F64, [(_f64("9007199254740991*2^971"), 1),
                       (_f64("1*2^970"), 1)]), "banker")
@example(_blocks(F64, [(_f64("9007199254740991*2^971"), 1),
                       (_f64("4503599627370495*2^918"), 1)]), "banker")
# 1 + 2^-24 + 2^-54: the double sum of the first two is exact, the next
# is not, and float32 rounds each to 1
@example(_blocks(F32, [(_f32("1"), 1), (_f32("1*2^-24"), 1),
                       (_f32("1*2^-54"), 1), (_f32("-1*2^-24"), 3)]), "banker")
# an exact cancellation gives +0, then the runs past the cut
@example(_blocks(F64, [(_f64("0.375"), 3), (_f64("-0.375"), 3), (1, 64),
                       (_f64("-0.75"), 65)]), "banker")
# overflow on both sides of a Kahan state
@example(_blocks(F32, [(_f32("16777215*2^104"), 2),
                       (_f32("-16777215*2^104"), 2), (_f32("3"), 70)]),
         "banker")
# a block of six copies, held as one entry, between runs of the machine's
# stretches: it ends a stretch though its count is below the cut
@example(_blocks(F64, [(_f64("0.375"), 3)] + [(_f64("1"), 1),
                                              (_f64("-0.5"), 2)] * 6
                 + [(_f64("0.75"), 1)]), "banker")
@settings(max_examples=150, deadline=None)
def test_machine_stretches_match_the_literal_folds(ds, mode):
    acc, total = literal_bits(ds, mode)
    assert bs_iterative(ds, mode).bits == acc
    assert bs_kahan(ds, mode).bits == total
    assert bs_pairwise(ds, mode) == ref_pairwise(ds, mode)
    assert bs_split(ds) == ref_split(ds)


@composite
def machine_operands(draw):
    """A float32 or float64 pair of patterns of either sign: subnormal,
    top-binade or any, the second at most three mantissa widths of
    binades from the first, or anywhere."""
    fmt = draw(sampled_from([F32, F64]))
    k = fmt.mantissa_bits
    _, _, _, sign, inf = fmt._kernel
    top = (inf >> k) - 1  # the top binade's exponent field

    def pattern(field):
        bits = field << k | draw(integers(0, (1 << k) - 1))
        return bits | sign if bits and draw(booleans()) else bits
    field = draw(one_of(integers(0, 0), integers(top, top),
                        integers(1, top)))
    near = integers(max(field - 3 * k, 0), min(field + 3 * k, top))
    return fmt, pattern(field), pattern(draw(one_of(
        near, integers(0, 0), integers(top, top), integers(0, top))))


@given(machine_operands(), sampled_from(ROUNDING_MODES))
# float64 toward zero: s = a + b is finite, but TwoSum's s - a overflows
@example((F64, 0x7fd0bf0a6ada168b, 0xffefffffffffffff), "toward_zero")
# n_max + ulp/2 under each directed mode: nearest is infinity, the model
# gives n_max toward zero and toward -inf
@example((F32, 0x7f7fffff, 0x73000000), "toward_zero")
@example((F64, 0x7fefffffffffffff, 0x7c90000000000000), "toward_neg")
# float32: the double sum 1 + 2^-70 rounds to 1, so the sign of the
# error is that of e, and toward +inf steps to 1 + 2^-23
@example((F32, 0x3f800000, 0x1c800000), "toward_pos")
@settings(max_examples=1000, deadline=None)
def test_machine_adds_are_add_bits_or_refold(operands, mode):
    import boundedsum.floats as floats
    import boundedsum.summation as summation
    fmt, a, b = operands
    native = floats._native(fmt)
    add = floats._machine_add(native[0], mode)
    xs = floats._to_floats(native, (a, b))
    got, want = add(*xs), add_bits(fmt._kernel, a, b, mode)
    if math.isfinite(got):
        assert floats._to_patterns(native, (got,))[0] == want
    else:
        # the stretch is refused, and the fold takes the pattern adds
        assert summation._iterate(native, add, 0, xs) is None
        assert bs_iterative(_blocks(fmt, [(a, 1), (b, 1)]), mode).bits == want


@mark.parametrize("fmt", [F32, F64])
def test_a_cancellation_is_plus_zero_in_every_mode(fmt):
    # the model's zero results are +0; IEEE's toward -inf would give -0
    import boundedsum.floats as floats
    native = floats._native(fmt)
    x = parse_value(fmt, "0.375").bits
    _, _, _, sign, _ = fmt._kernel
    for mode in ROUNDING_MODES:
        assert add_bits(fmt._kernel, x, x ^ sign, mode) == 0
        got = floats._machine_add(native[0], mode)(
            *floats._to_floats(native, (x, x ^ sign)))
        assert floats._to_patterns(native, (got,)) == (0,)
        ds = _blocks(fmt, [(x, 1), (x ^ sign, 1)])
        assert bs_iterative(ds, mode).bits == bs_pairwise(ds, mode).bits == 0


def test_only_float32_and_float64_have_machine_floats(monkeypatch):
    # in every rounding mode: the mode picks the machine add, not whether
    # there is one (see the dense file's folds below)
    import boundedsum.floats as floats
    assert floats._native(F32) == ("f", "I")
    assert floats._native(F64) == ("d", "Q")
    for fmt in (F105, FloatFormat(23, 9), FloatFormat(52, 10)):
        assert floats._native(fmt) is None
    monkeypatch.setattr(floats, "_keeps_subnormals", lambda: False)
    assert floats._native(F32) is floats._native(F64) is None


@mark.parametrize("mode", ROUNDING_MODES)
def test_a_dense_float32_file_adds_on_the_machine(monkeypatch, mode):
    # one float add per element in the iterative fold and four per Kahan
    # step, and no add_bits, in every mode; the split partials' one add
    # per element too, on a file whose partials stay finite
    ds = load_dataset(GOLDEN_INSTANCES / "dense" / "f32.json")
    calls = count_adds(monkeypatch)
    for fold, adds in ((bs_iterative, 1), (bs_kahan, 4)):
        calls.clear()
        fold(ds, mode)
        assert calls == ["machine"] * (adds * ds.n)
    small = Dataset.unchecked(ds.fmt, ds.lower, ds.upper, [
        (x, c) for x, c in ds.runs if x & 0x7fffffff < 0x7f000000])
    calls.clear()
    bs_split(small)
    # one add per element, from each side's +0, then the banker's join
    assert calls == ["machine"] * small.n + ["bits"]


def test_a_process_that_flushes_subnormals_folds_on_patterns(monkeypatch):
    import boundedsum.floats as floats
    folds = (bs_iterative, bs_kahan, bs_pairwise)
    for name in ("f32", "f64"):
        ds = load_dataset(GOLDEN_INSTANCES / "dense" / f"{name}.json")
        want = {mode: [fold(ds, mode) for fold in folds] + [bs_split(ds)]
                for mode in ROUNDING_MODES}
        with monkeypatch.context() as patched:
            patched.setattr(floats, "_keeps_subnormals", lambda: False)
            calls = count_adds(patched)
            for mode in ROUNDING_MODES:
                for fold, value in zip(folds, want[mode]):
                    calls.clear()
                    assert fold(ds, mode) == value
                    assert calls and "machine" not in calls
            calls.clear()
            assert bs_split(ds) == want["banker"][-1]
            assert calls and "machine" not in calls


def test_short_runs_step_literally(monkeypatch):
    # fewer than five copies cannot jump: one add_bits each (four per
    # Kahan step), and no _fold_run
    import boundedsum.summation as summation
    fold_run, jumps = summation._fold_run, []
    monkeypatch.setattr(summation, "_fold_run",
                        lambda *args: jumps.append(1) or fold_run(*args))
    calls = count_adds(monkeypatch)
    half = parse_value(F46, "0.5").bits
    iterative, kahan = (_rules(F46, alg) for alg in ("iterative", "kahan"))
    fold_copies(F46, iterative, 0, half, 4, "banker")
    assert calls == ["bits"] * 4
    calls.clear()
    fold_copies(F46, kahan, (0, 0), half, 4, "banker")
    assert calls == ["bits"] * 16 and not jumps
    fold_copies(F46, iterative, 0, half, 5, "banker")
    fold_copies(F46, kahan, (0, 0), half, 5, "banker")
    assert jumps == [1, 1]


@given(sampled_from([F23, F34, F46, FloatFormat(23, 8)]), data())
@settings(max_examples=200, deadline=None)
def test_shift_on_grid_ints_matches_is_representable(fmt, data):
    lower = SimFloat(fmt, data.draw(_finite_patterns(fmt)))
    near = lower.bits & (fmt._kernel[3] - 1)
    others = [SimFloat(fmt, b) for b in data.draw(
        lists(_finite_patterns(fmt, near), min_size=1, max_size=6))]
    key = lambda v: v.to_fraction()
    lower = min([lower, *others], key=key)
    upper = max(others, key=key)
    ds = Dataset.from_elements(fmt, lower, upper, others)

    def exact(v):
        moved = v.to_fraction() - lower.to_fraction()
        return moved if is_representable(moved, fmt) else None

    bad = next((v for v in others if exact(v) is None), None)
    if exact(upper) is None:
        with raises(ValueError, match="upper bound U - L is not"):
            run_sum(ds, SumMethod(transforms=(ShiftBounds(),)))
    elif bad is not None:
        with raises(ValueError,
                    match=re.escape(f"element {bad} - {lower} is not")):
            run_sum(ds, SumMethod(transforms=(ShiftBounds(),)))
    else:
        shifted = _shift_dataset(ds)
        assert shifted.upper.to_fraction() == exact(upper)
        assert shifted.lower == SimFloat.zero(fmt)
        assert [v.to_fraction() for v in shifted.iter_values()] == [
            exact(v) for v in ds.iter_values()]
        assert shifted == Dataset(fmt, shifted.lower, shifted.upper, [
            (SimFloat(fmt, x), c) for x, c in shifted.runs])


def test_unknown_transform_rejected():
    fmt = IntFormat(8, False, "wraparound")
    ds = Dataset(fmt, KInt(fmt, 0), KInt(fmt, 9), ())
    with raises(TypeError):
        run_sum(ds, SumMethod(transforms=("sort",)))


# ---------------------------------------------------------------------------
# Method descriptions
# ---------------------------------------------------------------------------

def test_algorithm_catalogue():
    assert ALGORITHMS == ("iterative", "pairwise", "kahan", "split", "exact")
    assert "fisher-yates" in PERMUTATION_ALGORITHM


def test_method_validation():
    with raises(ValueError):
        SumMethod("bogus")
    with raises(ValueError):
        SumMethod("iterative", rounding="to-nearest-odd")


def test_method_json_roundtrip():
    methods = [
        SumMethod(),
        SumMethod("split"),
        SumMethod("kahan", "toward_pos"),
        SumMethod("pairwise", transforms=(RandomPermutation(42), Truncate(10))),
        SumMethod("iterative", transforms=(ShiftBounds(),)),
    ]
    for m in methods:
        assert SumMethod.from_json(m.to_json()) == m


def test_kahan_is_float_only():
    fmt = IntFormat(8, False, "wraparound")
    ds = Dataset(fmt, KInt(fmt, 0), KInt(fmt, 9), ())
    with raises(TypeError):
        bs_kahan(ds)


# ---------------------------------------------------------------------------
# Overflow certificates
# ---------------------------------------------------------------------------

def test_check_multiplication():
    fmt = IntFormat(8, True, "saturating")
    assert check_multiplication(KInt(fmt, -2), KInt(fmt, 3), 40, fmt)
    assert not check_multiplication(KInt(fmt, -2), KInt(fmt, 3), 43, fmt)
    assert not check_multiplication(KInt(fmt, -100), KInt(fmt, 1), 2, fmt)
    assert check_multiplication(KInt(fmt, 0), KInt(fmt, 0), 10 ** 9, fmt)


def test_float_overflow_check():
    lo, hi = parse_value(F46, "-1"), parse_value(F46, "1")
    assert float_overflow_check(lo, hi, 100, Fraction(1), F46)
    # (4,6): inf boundary at 2^32; 2^31 elements of magnitude 1 still fit,
    # but the accuracy slack can push the certificate over
    assert not float_overflow_check(lo, hi, 2 ** 33, Fraction(0), F46)
    assert not float_overflow_check(lo, hi, 100, Fraction(2) ** 40, F46)

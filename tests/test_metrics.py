"""Dataset distances vs naive reference implementations."""

from collections import Counter
from functools import lru_cache

from pytest import raises
from hypothesis import given
from hypothesis.strategies import integers, lists

from boundedsum import (
    INFINITE,
    Dataset,
    FloatFormat,
    IntFormat,
    KInt,
    d_co,
    d_ham,
    d_id,
    d_mod,
    d_sym,
    histogram,
    parse_value,
)

small_lists = lists(integers(min_value=0, max_value=4), max_size=8)


def ref_sym(a, b):
    ha, hb = Counter(a), Counter(b)
    return sum(abs(ha[k] - hb[k]) for k in set(ha) | set(hb))


def ref_co(a, b):
    if len(a) != len(b):
        return INFINITE
    return sum((Counter(a) - Counter(b)).values())


def ref_ham(a, b):
    if len(a) != len(b):
        return INFINITE
    return sum(x != y for x, y in zip(a, b))


def ref_id(a, b):
    @lru_cache(maxsize=None)
    def lcs(i, j):
        if i == 0 or j == 0:
            return 0
        if a[i - 1] == b[j - 1]:
            return lcs(i - 1, j - 1) + 1
        return max(lcs(i - 1, j), lcs(i, j - 1))

    return len(a) + len(b) - 2 * lcs(len(a), len(b))


# ---------------------------------------------------------------------------
# Agreement with the references
# ---------------------------------------------------------------------------

@given(small_lists, small_lists)
def test_sym_matches_reference(a, b):
    assert d_sym(a, b) == ref_sym(a, b)


@given(small_lists, small_lists)
def test_co_matches_reference(a, b):
    assert d_co(a, b) == ref_co(a, b)


@given(small_lists, small_lists)
def test_ham_matches_reference(a, b):
    assert d_ham(a, b) == ref_ham(tuple(a), tuple(b))


@given(small_lists, small_lists)
def test_id_matches_reference(a, b):
    a, b = tuple(a), tuple(b)
    assert d_id(a, b) == ref_id(a, b)


def test_run_length_inputs_match_materialized():
    fmt = IntFormat(4, False, "wraparound")
    lo, hi = KInt(fmt, 0), KInt(fmt, 9)

    def ds(elems):
        return Dataset.from_elements(fmt, lo, hi, [KInt(fmt, e) for e in elems])

    pairs = [([1, 1, 1, 2, 2], [1, 1, 2, 2, 2]),
             ([5, 5, 5, 5], [5, 5, 5]),
             ([0, 1, 0, 1], [1, 0, 1, 0]),
             ([3] * 7, [3] * 7)]
    for a, b in pairs:
        ka = [KInt(fmt, e) for e in a]
        kb = [KInt(fmt, e) for e in b]
        assert d_sym(ds(a), ds(b)) == ref_sym(ka, kb)
        assert d_co(ds(a), ds(b)) == ref_co(ka, kb)
        assert d_ham(ds(a), ds(b)) == ref_ham(ka, kb)
        assert d_id(ds(a), ds(b)) == ref_id(tuple(ka), tuple(kb))


def test_histogram():
    h = histogram([3, 1, 3, 3])
    assert h == Counter({3: 3, 1: 1})


def test_a_dataset_is_compared_only_with_a_dataset_of_its_format():
    # a dataset holds codes, so its elements would not equal the values of
    # a plain list; a list of bare ints equal to its codes would pass as
    # equal.  Both mixes are refused, as are two formats whose codes meet.
    fmt = FloatFormat(4, 4)
    lo, hi = parse_value(fmt, "-2"), parse_value(fmt, "2")
    values = [parse_value(fmt, t) for t in ("0.5", "-1.25", "0.5")]
    ds = Dataset.from_elements(fmt, lo, hi, values)
    codes = [v.bits for v in values]
    assert ds.codes() == codes
    i8 = IntFormat(8, True, "wraparound")
    ints = Dataset.from_elements(i8, KInt(i8, 0), KInt(i8, 99),
                                 [KInt(i8, codes[0])])
    one = ds.replace_elements(values[:1])
    for d in (d_sym, d_co, d_ham, d_id):
        for u, v in ((ds, values), (values, ds), (ds, codes), (one, ints)):
            with raises(TypeError):
                d(u, v)
        assert d(ds, ds) == d(values, values) == 0
        assert d(ds, ds.replace_elements(values[::-1])) == d(values,
                                                               values[::-1])
    assert histogram(ds) == Counter({codes[0]: 2, codes[1]: 1})


# ---------------------------------------------------------------------------
# Pointwise relations between the metrics
# ---------------------------------------------------------------------------

@given(small_lists, small_lists)
def test_sym_never_exceeds_edit_distance(a, b):
    assert d_sym(a, b) <= d_id(a, b)


@given(small_lists, small_lists)
def test_equal_length_relations(a, b):
    if len(a) != len(b):
        assert d_co(a, b) == INFINITE and d_ham(a, b) == INFINITE
        return
    assert d_co(a, b) <= d_ham(a, b)
    assert d_sym(a, b) <= 2 * d_co(a, b)


def test_ordering_blindness():
    # the unordered metrics cannot see a permutation; the ordered ones can
    a, b = [1, 2, 3], [3, 2, 1]
    assert d_sym(a, b) == 0
    assert d_co(a, b) == 0
    assert d_ham(a, b) == 2
    assert d_id(a, b) == 4  # only one element survives in order


def test_infinite_marker_ordering():
    assert INFINITE > 10 ** 100
    assert not INFINITE < 10 ** 100
    assert INFINITE >= INFINITE
    assert INFINITE == INFINITE
    assert not INFINITE > INFINITE
    assert 5 < INFINITE


# ---------------------------------------------------------------------------
# Wrap distance
# ---------------------------------------------------------------------------

def test_mod_distance_hand_cases():
    assert d_mod(0, 255, 256) == 1
    assert d_mod(255, 0, 256) == 1
    assert d_mod(0, 128, 256) == 128
    assert d_mod(3, 3, 256) == 0
    assert d_mod(10, 250, 256) == 16


@given(integers(min_value=0, max_value=255), integers(min_value=0, max_value=255))
def test_mod_distance_properties(x, y):
    d = d_mod(x, y, 256)
    assert 0 <= d <= 128
    assert d == d_mod(y, x, 256)
    assert d <= abs(x - y)


def test_mod_distance_from_kints():
    fmt = IntFormat(8, False, "wraparound")
    assert d_mod(KInt(fmt, 255), KInt(fmt, 0)) == 1
    assert d_mod(KInt(fmt, 7), KInt(fmt, 250)) == 13


def test_mod_distance_needs_modulus():
    with raises(ValueError):
        d_mod(3, 4)
    with raises(ValueError):
        d_mod(3, 4, 0)

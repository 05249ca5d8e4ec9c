"""Dataset container, value codecs, and file round-trips."""

import json
from pathlib import Path

from pytest import raises
from hypothesis import given
from hypothesis.strategies import integers, lists

from boundedsum import (
    Dataset,
    FloatFormat,
    IntFormat,
    KInt,
    SimFloat,
    decode_value,
    encode_value,
    format_from_json,
    format_to_json,
    load_dataset,
    couple_co,
    couple_sym,
    parse_value,
    random_permutation,
    save_dataset,
    truncate,
)
from boundedsum.summation import _shift_dataset

F44 = FloatFormat(4, 4)
I8 = IntFormat(8, False, "wraparound")


def int_ds(elems, lo=0, hi=200):
    return Dataset.from_elements(I8, KInt(I8, lo), KInt(I8, hi),
                                 [KInt(I8, e) for e in elems])


# ---------------------------------------------------------------------------
# Container behaviour
# ---------------------------------------------------------------------------

def test_from_elements_merges_consecutive_runs():
    ds = int_ds([7, 7, 7, 3, 7, 7])
    assert [(v.value, c) for v, c in ds.runs] == [(7, 3), (3, 1), (7, 2)]
    assert len(ds) == 6
    assert [v.value for v in ds.iter_values()] == [7, 7, 7, 3, 7, 7]
    assert [v.value for v in ds.to_list()] == [7, 7, 7, 3, 7, 7]


def test_bounds_are_enforced():
    with raises(ValueError):
        int_ds([5], lo=10, hi=20)
    with raises(ValueError):
        int_ds([], lo=30, hi=10)   # inverted bounds
    with raises(ValueError):
        Dataset(I8, KInt(I8, 0), KInt(I8, 10), [(KInt(I8, 4), 0)])


def test_float_elements_must_be_in_range():
    lo, hi = parse_value(F44, "-1"), parse_value(F44, "1")
    Dataset.from_elements(F44, lo, hi, [parse_value(F44, "0.5")])
    with raises(ValueError):
        Dataset.from_elements(F44, lo, hi, [parse_value(F44, "2")])
    with raises(ValueError):
        Dataset.from_elements(F44, lo, hi, [SimFloat.inf(F44)])


def test_len_is_the_sum_of_run_counts_however_a_dataset_is_built():
    instances = Path(__file__).with_name("golden") / "instances"
    dense = load_dataset(instances / "dense" / "f10_5.json")
    long_runs = load_dataset(instances / "ov8" / "u.json")
    built = [dense, long_runs,
             dense.replace_elements_unchecked([v for v, _ in dense.runs] * 3),
             truncate(dense, 7), truncate(long_runs, 40),
             _shift_dataset(dense), _shift_dataset(long_runs),
             random_permutation(dense, 5)]
    built += couple_sym(int_ds([3, 3, 5]), int_ds([3, 5, 9, 3]), seed=1)
    built += couple_sym(int_ds([3, 3, 5]), int_ds([5, 3, 3]), seed=2)
    built += couple_co(int_ds([3, 3, 5, 7]), int_ds([7, 5, 5, 3]), seed=3)
    for ds in built:
        assert len(ds) == sum(c for _, c in ds.runs) > 0
    assert [len(ds) for ds in built[2:5]] == [3 * len(dense.runs), 7, 40]
    assert [len(ds) for ds in built[8:]] == [3, 4, 3, 3, 4, 4]


def test_replace_elements_keeps_the_frame():
    ds = int_ds([1, 2, 3])
    out = ds.replace_elements([KInt(I8, 9)])
    assert out.lower == ds.lower and out.upper == ds.upper
    assert [v.value for v in out.iter_values()] == [9]


def test_dataset_equality_is_by_order():
    assert int_ds([1, 2]) == int_ds([1, 2])
    assert int_ds([1, 2]) != int_ds([2, 1])


# ---------------------------------------------------------------------------
# Value and format codecs
# ---------------------------------------------------------------------------

def test_value_codec_floats_use_bit_patterns():
    x = parse_value(F44, "0.75")
    assert encode_value(x) == x.to_hex()
    assert decode_value(F44, encode_value(x)) == x


def test_value_codec_ints_use_decimal():
    assert encode_value(KInt(I8, 200)) == "200"
    assert decode_value(I8, "200") == KInt(I8, 200)


def test_format_codec_roundtrip():
    for fmt in (F44, I8, IntFormat(3, True, "saturating")):
        assert format_from_json(format_to_json(fmt)) == fmt


def test_format_codec_rejects_unknown_kind():
    with raises(ValueError):
        format_from_json({"kind": "decimal", "digits": 10})


# ---------------------------------------------------------------------------
# JSON round-trips
# ---------------------------------------------------------------------------

@given(lists(integers(min_value=0, max_value=200), max_size=30))
def test_json_roundtrip_int_datasets(elems):
    ds = int_ds(elems)
    again = Dataset.from_json_dict(ds.to_json_dict())
    assert again == ds


def test_json_roundtrip_float_dataset():
    lo, hi = parse_value(F44, "-2"), parse_value(F44, "2")
    ds = Dataset.from_elements(
        F44, lo, hi,
        [parse_value(F44, t) for t in ("0.5", "0.5", "-1.25", "0")])
    assert Dataset.from_json_dict(ds.to_json_dict()) == ds


def test_json_accepts_bare_strings_as_count_one():
    doc = int_ds([5, 5, 9]).to_json_dict()
    doc["elements"] = ["5", {"value": "5", "count": 1}, "9"]
    assert Dataset.from_json_dict(doc) == int_ds([5, 5, 9])


def test_json_run_length_entries():
    doc = int_ds([]).to_json_dict()
    doc["elements"] = [{"value": "7", "count": 1000}]
    ds = Dataset.from_json_dict(doc)
    assert len(ds) == 1000
    assert ds.runs[0][1] == 1000


def test_json_schema_field_is_checked():
    doc = int_ds([1]).to_json_dict()
    assert doc["schema"] == 1
    doc["schema"] = 2
    with raises(ValueError):
        Dataset.from_json_dict(doc)


def test_json_malformed_entries():
    base = int_ds([1]).to_json_dict()

    bad_count = json.loads(json.dumps(base))
    bad_count["elements"] = [{"value": "1", "count": 0}]
    with raises(ValueError):
        Dataset.from_json_dict(bad_count)

    missing_value = json.loads(json.dumps(base))
    missing_value["elements"] = [{"count": 3}]
    with raises((ValueError, KeyError)):
        Dataset.from_json_dict(missing_value)

    out_of_range = json.loads(json.dumps(base))
    out_of_range["elements"] = ["250"]
    with raises(ValueError):
        Dataset.from_json_dict(out_of_range)


def test_json_numbers_are_refused_not_truncated():
    # a JSON number where a string value or an integer count belongs
    base = int_ds([1]).to_json_dict()
    for entry in ({"value": 1.5, "count": 1}, {"value": 1, "count": 1},
                  {"value": "1", "count": 2.7}, 1):
        doc = dict(base, elements=[entry])
        with raises(TypeError):
            Dataset.from_json_dict(doc)
    doc = Dataset.from_elements(F44, SimFloat.zero(F44), SimFloat.zero(F44),
                                ()).to_json_dict()
    doc["elements"] = [{"value": 0.0, "count": 1}]
    with raises(TypeError):
        Dataset.from_json_dict(doc)


# ---------------------------------------------------------------------------
# Files
# ---------------------------------------------------------------------------

def test_file_roundtrip_and_layout(tmp_path):
    ds = int_ds([1, 1, 1, 9])
    path = tmp_path / "data.json"
    save_dataset(ds, path)
    raw = path.read_bytes()
    assert raw.endswith(b"\n")
    assert load_dataset(path) == ds
    # saving the same dataset twice produces identical bytes
    again = tmp_path / "again.json"
    save_dataset(ds, again)
    assert again.read_bytes() == raw


def test_file_roundtrip_float(tmp_path):
    lo, hi = parse_value(F44, "0"), parse_value(F44, "4")
    ds = Dataset(F44, lo, hi, [(parse_value(F44, "1.5"), 12)])
    save_dataset(ds, tmp_path / "f.json")
    assert load_dataset(tmp_path / "f.json") == ds

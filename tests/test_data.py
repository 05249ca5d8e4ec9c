"""Dataset container, value codecs, and file round-trips."""

import json
from pathlib import Path

from pytest import mark, raises
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
from boundedsum.data import check_runs, order_key
from boundedsum.summation import _shift_dataset

F44 = FloatFormat(4, 4)
I8 = IntFormat(8, False, "wraparound")
INSTANCES = Path(__file__).with_name("golden") / "instances"


def int_ds(elems, lo=0, hi=200):
    return Dataset.from_elements(I8, KInt(I8, lo), KInt(I8, hi),
                                 [KInt(I8, e) for e in elems])


# ---------------------------------------------------------------------------
# Container behaviour
# ---------------------------------------------------------------------------

def test_from_elements_merges_consecutive_runs():
    ds = int_ds([7, 7, 7, 3, 7, 7])
    assert ds.runs == ((7, 3), (3, 1), (7, 2))
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
    dense = load_dataset(INSTANCES / "dense" / "f10_5.json")
    long_runs = load_dataset(INSTANCES / "ov8" / "u.json")
    built = [dense, long_runs,
             Dataset.unchecked(dense.fmt, dense.lower, dense.upper,
                               [(x, 1) for x, _ in dense.runs] * 3),
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


@mark.parametrize("fmt", [F44, FloatFormat(2, 3), I8,
                         IntFormat(4, True, "saturating")])
def test_code_check_accepts_exactly_the_finite_codes_inside_the_bounds(fmt):
    # every int near the format's codes, including patterns out of range,
    # NaNs, infinities, -0 and negative ints, against every pair of bounds
    # of a few finite values: the check compares order keys only
    floats = isinstance(fmt, FloatFormat)
    span = 1 << (fmt.total_bits if floats else fmt.bits)
    kind = SimFloat if floats else KInt
    values = []
    for x in range(-span, span):
        try:
            values.append(kind(fmt, x))
        except ValueError:
            pass
    values = [v for v in values if not floats or v.is_finite()]
    values.sort(key=order_key)
    bounds = values[::max(len(values) // 5, 1)] + values[-1:]
    for lo in bounds:
        for hi in bounds:
            if order_key(lo) > order_key(hi):
                continue
            for x in range(-span - 3, 2 * span + 3):
                try:
                    v = kind(fmt, x)
                except ValueError:
                    ok = False
                else:
                    ok = (not floats or v.is_finite()) and (
                        order_key(lo) <= order_key(v) <= order_key(hi))
                try:
                    runs = check_runs(fmt, lo, hi, [(x, 2)])
                except ValueError:
                    assert not ok, (lo, hi, x)
                else:
                    assert ok, (lo, hi, x)
                    assert runs == [(v.bits if floats else v.value, 2)]


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


def test_format_fields_are_type_checked_not_converted():
    # "false" is not a boolean, 8.9 and True are not integers
    i8 = format_to_json(I8)
    f44 = format_to_json(F44)
    for bad in (dict(i8, signed="false"), dict(i8, signed=0),
                dict(i8, bits=8.9), dict(i8, bits=8.0), dict(i8, bits=True),
                dict(i8, bits="8"), dict(f44, mantissa_bits=3.7),
                dict(f44, exponent_bits=True)):
        with raises(TypeError):
            format_from_json(bad)


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
                  {"value": "1", "count": 2.7}, {"value": "1", "count": True},
                  1):
        doc = dict(base, elements=[entry])
        with raises(TypeError):
            Dataset.from_json_dict(doc)
    doc = Dataset.from_elements(F44, SimFloat.zero(F44), SimFloat.zero(F44),
                                ()).to_json_dict()
    doc["elements"] = [{"value": 0.0, "count": 1}]
    with raises(TypeError):
        Dataset.from_json_dict(doc)


def test_element_texts_have_one_spelling():
    # an int is ASCII -?[0-9]+ and a pattern 0x and hex digits; Python's
    # int() would also read underscores, padding and other scripts' digits
    doc = int_ds([1]).to_json_dict()
    for text in ("1_0", " 7 ", "7\n", "\u0663", "+7", "0x7", "7.0", ""):
        for spot in ("element", "lower", "upper"):
            bad = json.loads(json.dumps(doc))
            if spot == "element":
                bad["elements"] = [text]
            else:
                bad["bounds"][spot] = text
            with raises(ValueError):
                Dataset.from_json_dict(bad)
    assert Dataset.from_json_dict(dict(doc, elements=["-0", "007"])) == int_ds(
        [0, 7])
    lo, hi = parse_value(F44, "-2"), parse_value(F44, "2")
    doc = Dataset.from_elements(F44, lo, hi, ()).to_json_dict()
    for text in ("0x3_0", " 0x30", "0x30 ", "0x\u0663", "0x", "0x-30",
                 "-0x30"):
        with raises(ValueError):
            Dataset.from_json_dict(dict(doc, elements=[text]))
    one = Dataset.from_json_dict(dict(doc, elements=["0X30"]))
    assert one.runs == ((0x30, 1),)
    assert one == Dataset.from_json_dict(dict(doc, elements=["1*2^-4"]))


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


# every committed dataset file: the attack pairs and the dense files
DATASET_FILES = sorted(
    p for p in INSTANCES.rglob("*.json")
    if p.parent.name != "refused" and p.name != "instance.json")


@mark.parametrize("path", DATASET_FILES,
                  ids=lambda p: p.relative_to(INSTANCES).as_posix())
def test_committed_dataset_files_round_trip(path, tmp_path):
    ds = load_dataset(path)
    save_dataset(ds, tmp_path / "once.json")
    again = load_dataset(tmp_path / "once.json")
    assert again == ds
    save_dataset(again, tmp_path / "twice.json")
    once = (tmp_path / "once.json").read_bytes()
    assert (tmp_path / "twice.json").read_bytes() == once
    # the hand-written dense file has a -0 pattern and a bare string; every
    # other file was written by save_dataset and re-saves unchanged
    if path.relative_to(INSTANCES).as_posix() != "dense/f10_5.json":
        assert once == path.read_bytes()


def test_minus_zero_pattern_loads_as_code_zero():
    doc = json.loads((INSTANCES / "dense" / "f10_5.json").read_text())
    entries = [(e, 1) if isinstance(e, str) else (e["value"], e["count"])
               for e in doc["elements"]]
    at = [text for text, _ in entries].index("0x8000")
    position = sum(c for _, c in entries[:at])
    ds = Dataset.from_json_dict(doc)
    assert ds.codes()[position] == 0
    assert all(x != 0x8000 for x, _ in ds.runs)

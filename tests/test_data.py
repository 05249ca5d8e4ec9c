"""Dataset container, value codecs, and file round-trips."""

import gc
import json
import re
from pathlib import Path
from unittest.mock import patch

from pytest import mark, raises
from hypothesis import example, given, settings
from hypothesis.strategies import (booleans, composite, dictionaries,
                                   floats, integers, just, lists, none,
                                   permutations, recursive, sampled_from,
                                   text, tuples)
# boundedsum.data is this file's ``data``
from hypothesis.strategies import data as draws

from boundedsum import (
    FLOAT32,
    FLOAT64,
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
    parse_value,
    random_permutation,
    round_dyadic,
    save_dataset,
    truncate,
)
from boundedsum import data
from boundedsum.data import (_field, check_runs, code_key, decode_code,
                             json_text, order_key, value_code)
from boundedsum.summation import _arranged, _shift_dataset
from reference import couple_co, couple_sym, negated, values_in_range

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
    assert ds.n == 6
    assert [v.value for v in ds.iter_values()] == [7, 7, 7, 3, 7, 7]


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
        assert ds.n == sum(c for _, c in ds.runs) > 0
    assert [ds.n for ds in built[2:5]] == [3 * len(dense.runs), 7, 40]
    assert [ds.n for ds in built[8:]] == [3, 4, 3, 3, 4, 4]


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
                    runs, _ = check_runs(fmt, lo, hi, [x], [2])
                except ValueError:
                    assert not ok, (lo, hi, x)
                else:
                    assert ok, (lo, hi, x)
                    assert runs == ((v.bits if floats else v.value, 2),)


@mark.parametrize("fmt", [F44, FloatFormat(2, 3), I8,
                         IntFormat(4, True, "saturating")])
def test_in_bounds_codes_pass_the_bulk_check_alone(fmt, monkeypatch):
    # the per-run loop only words refusals: codes inside the bounds, up to
    # and including both bounds' own codes and -0, never reach it
    def per_run(*args):
        raise AssertionError("the bulk check sent valid runs run by run")

    monkeypatch.setattr(data, "_check_each", per_run)
    floats = isinstance(fmt, FloatFormat)
    if floats:
        top = round_dyadic(fmt.max_finite, fmt, "toward_zero")
        values = values_in_range(fmt, negated(top), top,
                                 include_subnormals=True)
    else:
        values = [KInt(fmt, x) for x in range(fmt.min_value,
                                              fmt.max_value + 1)]
    values.sort(key=order_key)
    bounds = values[::max(len(values) // 6, 1)] + values[-1:]
    for i, lo in enumerate(bounds):
        for hi in bounds[i:]:
            inside = [value_code(fmt, v) for v in values
                      if order_key(lo) <= order_key(v) <= order_key(hi)]
            if floats and order_key(lo) <= 0 <= order_key(hi):
                inside.append(fmt._kernel[3])                  # -0
            for codes in (inside, inside[::-1], inside[:1] + inside[-1:]):
                check_runs(fmt, lo, hi, codes, [1] * len(codes))


def test_replace_elements_keeps_the_frame():
    # new elements in an existing dataset's format and bounds
    ds = int_ds([1, 2, 3])
    out = Dataset.from_elements(ds.fmt, ds.lower, ds.upper, [KInt(I8, 9)])
    assert out.lower == ds.lower and out.upper == ds.upper
    assert [v.value for v in out.iter_values()] == [9]


def test_dataset_equality_is_by_order():
    assert int_ds([1, 2]) == int_ds([1, 2])
    assert int_ds([1, 2]) != int_ds([2, 1])


# ---------------------------------------------------------------------------
# Run merging
# ---------------------------------------------------------------------------

@composite
def code_lists(draw):
    """Lists of the codes 0 to 2: stretches drawn at random and stretches
    that repeat a pattern of up to four codes, so that some hold blocks."""
    codes = []
    for _ in range(draw(integers(0, 4))):
        if draw(booleans()):
            codes += draw(lists(integers(0, 2), max_size=12))
        else:
            codes += draw(lists(integers(0, 2), min_size=1,
                                max_size=4)) * draw(integers(1, 8))
    return codes


@given(code_lists())
@example([])
@example([1])
@example([0, 1] * 6 + [2, 2])
@settings(max_examples=300, deadline=None)
def test_arranged_is_the_dataset_of_one_run_per_code(codes):
    frame = int_ds([0, 1, 2])
    got = _arranged(frame, codes)
    want = Dataset.unchecked(frame.fmt, frame.lower, frame.upper,
                             [(x, 1) for x in codes])
    assert (got.runs, got.blocks, got.n) == (want.runs, want.blocks, want.n)


def test_unchecked_leaves_the_collector_as_it_found_it():
    # the collector is paused only while the entries are settled
    frame = int_ds([0, 1])
    enabled = gc.isenabled()
    try:
        for on in (True, False):
            (gc.enable if on else gc.disable)()
            Dataset.unchecked(frame.fmt, frame.lower, frame.upper,
                              [(0, 2), (1, 1)])
            assert gc.isenabled() is on
            with raises(TypeError):
                Dataset.unchecked(frame.fmt, frame.lower, frame.upper, 5)
            assert gc.isenabled() is on
    finally:
        (gc.enable if enabled else gc.disable)()


def test_load_dataset_reads_and_checks_with_the_collector_paused(tmp_path):
    # 4,000 entry dicts and run tuples would start the collector several
    # times over; paused, it starts at most once, when the pause ends.  A
    # refused file leaves it on as well
    path, bad = tmp_path / "runs.json", tmp_path / "bad.json"
    save_dataset(int_ds(range(200)), path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["elements"] *= 20
    path.write_text(json.dumps(doc), encoding="utf-8")
    doc["elements"][-1] = {"value": "300", "count": 1}
    bad.write_text(json.dumps(doc), encoding="utf-8")
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    enabled = gc.isenabled()
    gc.enable()
    gc.callbacks.append(count)
    try:
        assert load_dataset(path).n == 4000
        loaded = len(starts)
        with raises(ValueError):
            load_dataset(bad)
        assert gc.isenabled()
    finally:
        gc.callbacks.remove(count)
        (gc.enable if enabled else gc.disable)()
    assert loaded <= 1 and len(starts) <= 2


def _elements_doc(fmt, lo, hi, elements) -> dict:
    """The JSON object of a dataset of ``fmt`` over ``[lo, hi]`` with the
    element entries ``elements``, as a file holds them."""
    doc = Dataset.from_elements(fmt, lo, hi, ()).to_json_dict()
    doc["elements"] = elements
    return doc


@composite
def signed_zero_files(draw):
    """One of float(2, 3), float32 and float64, the bounds of a
    pool of codes that holds ``+0`` and ``-0``, and a list of codes drawn
    from it with ``-0`` among them."""
    fmt = draw(sampled_from([FloatFormat(2, 3), FLOAT32, FLOAT64]))
    _, _, _, sign, inf = fmt._kernel
    some = integers(1, inf - 1).flatmap(lambda m: sampled_from([m, m | sign]))
    pool = [0, sign, *draw(lists(some, min_size=1, max_size=3))]
    key = lambda x: code_key(fmt, x)
    lo, hi = (SimFloat(fmt, x) for x in (min(pool, key=key),
                                         max(pool, key=key)))
    codes = draw(permutations([sign, *draw(lists(sampled_from(pool),
                                                 max_size=20))]))
    return fmt, lo, hi, pool, codes


@given(signed_zero_files(), integers(0, 1 << 32), draws())
@settings(max_examples=100, deadline=None)
def test_no_code_is_minus_zero(file, seed, more):
    # summation's machine folds rest on it (see its module docstring): a
    # -0 given to any constructor, in a file's runs, bare texts or a block,
    # is held as +0, and no transform or coupling makes one
    fmt, lo, hi, pool, codes = file
    sign = fmt._kernel[3]
    texts = [f"0x{x:x}" for x in codes]

    def read(elements):
        return Dataset.from_json_dict(_elements_doc(fmt, lo, hi, elements))

    plain = read(["-0" if x == sign else t for x, t in zip(codes, texts)])
    values = [SimFloat(fmt, x) for x in codes]
    built = [plain, read([{"value": t, "count": 2} for t in texts]),
             read([{"block": texts[:12], "count": 6}, *texts[12:]]),
             Dataset(fmt, lo, hi, [(v, 1) for v in values]),
             Dataset.from_elements(fmt, lo, hi, values)]
    made = list(built)
    for ds in built:
        made += [random_permutation(ds, seed),
                 truncate(ds, more.draw(integers(0, ds.n)))]
        try:
            made.append(_shift_dataset(ds))
        except ValueError:
            pass
    longer = read([*texts, more.draw(sampled_from(texts))])
    other = read([*texts[:-1], f"0x{more.draw(sampled_from(pool)):x}"])
    made += [*couple_sym(plain, longer, seed), *couple_sym(longer, plain, seed),
             *couple_sym(plain, plain, seed), *couple_co(plain, other, seed)]
    for ds in made:
        held = {y for x, _ in ds.runs
                for y in (x if isinstance(x, tuple) else (x,))}
        assert sign not in held, ds


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
    assert ds.n == 1000
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
    with raises(ValueError, match="element entry field 'value' is missing"):
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
    # the hand-written dense file has a -0 pattern and a bare string, and
    # the rr2 pair was written before blocks, its tail as 32 runs, which
    # re-saves as one block entry of 16 copies; every other file was
    # written by save_dataset and re-saves unchanged
    name = path.relative_to(INSTANCES).as_posix()
    if name in ("rr2/u.json", "rr2/v.json"):
        tail = json.loads(once)["elements"][-1]
        assert len(tail["block"]) == 2 and tail["count"] == 16
        assert ds.codes() == [
            int(e["value"], 16) for e in json.loads(path.read_text())[
                "elements"] for _ in range(e["count"])]
    elif name != "dense/f10_5.json":
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


# ---------------------------------------------------------------------------
# The bulk writer against the stdlib
# ---------------------------------------------------------------------------

_WRITE_FORMATS = [F44, I8, IntFormat(16, True, "saturating"),
                  FloatFormat(23, 8)]


@composite
def datasets(draw):
    fmt = draw(sampled_from(_WRITE_FORMATS))
    if isinstance(fmt, FloatFormat):
        top = fmt._kernel[4] - 1  # the largest finite magnitude pattern
        value = tuples(integers(0, top), booleans()).map(
            lambda mb: SimFloat(fmt, mb[0] | fmt._kernel[3] * mb[1]))
        lo, hi = SimFloat(fmt, top | fmt._kernel[3]), SimFloat(fmt, top)
    else:
        value = integers(fmt.min_value, fmt.max_value).map(
            lambda x: KInt(fmt, x))
        lo, hi = KInt(fmt, fmt.min_value), KInt(fmt, fmt.max_value)
    runs = draw(lists(tuples(value, integers(1, 1 << 40)), max_size=8))
    return Dataset(fmt, lo, hi, runs)


_JSON = recursive(
    none() | booleans() | integers() | floats() | text(),
    lambda inner: lists(inner, max_size=4)
    | dictionaries(text(max_size=6), inner, max_size=4),
    max_leaves=12)


@composite
def nested(draw, inner, depth):
    """``inner`` under ``depth`` levels of dicts and lists that also hold
    other JSON."""
    x = draw(inner)
    for _ in range(depth):
        if draw(booleans()):
            x = {**draw(dictionaries(text(max_size=6), _JSON, max_size=3)),
                 draw(text(max_size=6)): x}
        else:
            at = draw(integers(0, 2))
            others = draw(lists(_JSON, max_size=2))
            x = others[:at] + [x] + others[at:]
    return x


def _stdlib_text(x) -> str:
    return json.dumps(x, indent=2, sort_keys=True,
                      default=lambda ds: ds.to_json_dict())


@given(integers(0, 3).flatmap(lambda d: nested(datasets(), d)))
@settings(max_examples=200, deadline=None)
def test_json_text_writes_datasets_as_the_stdlib_would(x):
    assert json_text(x) == _stdlib_text(x)


@given(_JSON)
@settings(max_examples=200, deadline=None)
def test_json_text_writes_plain_json_as_the_stdlib_would(x):
    assert json_text(x) == json.dumps(x, indent=2, sort_keys=True)


@given(lists(integers(0, 3).flatmap(lambda d: nested(datasets(), d)),
             max_size=3), _JSON)
@settings(max_examples=100, deadline=None)
def test_json_text_writes_several_datasets_among_other_json(xs, other):
    x = {"a": xs, "b": other, "c": xs[:1]}
    assert json_text(x) == _stdlib_text(x)


def test_json_text_edge_cases():
    empty = int_ds([])
    ds = int_ds([3, 3, 200, 0])
    # the placeholder json_text writes in place of an element list, as
    # a string of the document's own, and an empty list
    for x in (empty, [empty], {"u": ds, "v": empty},
              {"\0elements\0": ds}, ["\0elements\0", ds],
              {"x": {"y": [ds, {"z": "é\n\x01\"", "w": [None, 1.5, True]}]}}):
        assert json_text(x) == _stdlib_text(x)
    with raises(TypeError, match="not JSON serializable"):
        json_text({"x": object()})


def test_save_dataset_writes_the_stdlib_text(tmp_path):
    lo, hi = parse_value(F44, "-2"), parse_value(F44, "2")
    ds = Dataset(F44, lo, hi, [(parse_value(F44, "0.5"), 3),
                               (parse_value(F44, "-1.25"), 1)])
    save_dataset(ds, tmp_path / "f.json")
    assert (tmp_path / "f.json").read_text() == _stdlib_text(ds) + "\n"


# ---------------------------------------------------------------------------
# The bulk loader against the per-run path
# ---------------------------------------------------------------------------

def per_run_load(d: dict) -> Dataset:
    """Dataset.from_json_dict entry by entry, with one check per element
    of an entry and one merge per entry: the reference for the bulk
    loader.  A block of fewer than five copies is its runs, and a block of
    one code one run; the entries are then built unchecked, which finds
    the blocks among the runs.  Fields are read by the file grammar's one
    reader, ``data._field``, as the loader reads them."""
    _field(d, "schema", (1,), "dataset")
    fmt = format_from_json(_field(d, "format", dict, "dataset"))
    bounds = _field(d, "bounds", dict, "dataset")
    lower = decode_value(fmt, _field(bounds, "lower", str, "bounds"))
    upper = decode_value(fmt, _field(bounds, "upper", str, "bounds"))
    entries = []
    for entry in _field(d, "elements", list, "dataset"):
        if isinstance(entry, str):
            entries.append((decode_code(fmt, entry), 1))
            continue
        count = _field(entry, "count", object, "element entry")
        if "block" not in entry:
            entries.append((decode_code(fmt, _field(
                entry, "value", object, "element entry")), count))
            continue
        if "value" in entry:
            raise ValueError("an element entry holds both a 'value' "
                             "and a 'block'")
        entries.append(([decode_code(fmt, t) for t in _field(
            entry, "block", list, "element entry")], count))
    for what, v in (("lower bound", lower), ("upper bound", upper)):
        if isinstance(v, SimFloat) and not v.is_finite():
            raise ValueError(f"{what} must be finite")
    lo, hi = order_key(lower), order_key(upper)
    if lo > hi:
        raise ValueError("lower bound exceeds upper bound")
    sign = fmt._kernel[3] if isinstance(fmt, FloatFormat) else 0

    def checked(x):
        k = -(x ^ sign) if x & sign else x
        if not lo <= k <= hi:
            v = (SimFloat if sign else KInt)(fmt, x)
            if isinstance(v, SimFloat) and not v.is_finite():
                raise ValueError("element must be finite")
            raise ValueError(f"element {v} outside bounds [{lower}, {upper}]")
        return x if k else 0

    merged = []
    for x, c in entries:
        what = "block" if isinstance(x, list) else "run"
        if not isinstance(c, int) or isinstance(c, bool):
            raise TypeError(f"{what} count {c!r} is not an integer")
        if what == "run":
            pieces = [(checked(x), c)]
        else:
            if not 1 <= len(x) <= 12:
                raise ValueError(f"a block holds 1 to 12 elements, not "
                                 f"{len(x)}")
            x = tuple(checked(y) for y in x)
            if len(set(x)) == 1:
                pieces = [(x[0], len(x) * c)]
            elif c < 5:
                pieces = [(y, 1) for y in x * c]
            else:
                pieces = [(x, c)]
        if c < 1:
            raise ValueError(f"{what} counts must be positive")
        for x, c in pieces:
            if merged and merged[-1][0] == x:
                merged[-1] = (x, merged[-1][1] + c)
            else:
                merged.append((x, c))
    return Dataset.unchecked(fmt, lower, upper, merged)


def _outcome(load, doc):
    try:
        ds = load(doc)
    except Exception as e:
        return type(e), str(e)
    return ds.fmt, ds.lower, ds.upper, ds.runs, ds.n


_FLOAT_POINTS = ("-2", "-1.5", "-1", "-0.5", "-0.25", "0", "0.25", "0.5",
                 "1", "1.5", "2")


def _faulty_texts(fmt):
    """Element texts the loader refuses, or reads only as other literals."""
    if isinstance(fmt, FloatFormat):
        width = -(-fmt.total_bits // 4)
        sign, inf = fmt._kernel[3], fmt._kernel[4]
        patterns = integers(0, 2 * sign + 3).map(
            lambda x: f"0x{x:0{width}x}")
        return patterns | sampled_from([
            f"0x{inf:x}", f"0x{inf | sign:x}", f"0x{inf + 1:x}",   # inf, NaN
            "0X3800", "0x3_800", " 0x3800", "0x", "-0x3800", "0.5", "-0.25",
            "1*2^-1", "inf", "0.1", "0.2_5", "+0.5", "٣", "", "7"])
    return integers(fmt.min_value - 3, fmt.max_value + 3).map(
        str) | sampled_from(["-0", "007", "1_0", " 7", "+7", "٣", "7.0",
                             "0x7", "", "-", "9" * 5])


@composite
def documents(draw, fmt):
    """A dataset document of ``fmt``: mostly runs and blocks of a few
    in-bounds codes in their one spelling (a float ``-0`` among them), with
    repeats, then up to two entries of any kind, faults included."""
    if isinstance(fmt, FloatFormat):
        points = [parse_value(fmt, t) for t in _FLOAT_POINTS]
        spell = "0x{:0%dx}" % -(-fmt.total_bits // 4)
    else:
        points = [KInt(fmt, x) for x in (fmt.min_value, -5, 0, 7, 100,
                                         fmt.max_value)
                  if fmt.min_value <= x <= fmt.max_value]
        spell = "{}"
    points.sort(key=order_key)
    lo, hi = draw(sampled_from(points)), draw(sampled_from(points))
    inside = [spell.format(value_code(fmt, v)) for v in points
              if order_key(lo) <= order_key(v) <= order_key(hi)]
    if isinstance(fmt, FloatFormat) and order_key(lo) <= 0 <= order_key(hi):
        inside.append(spell.format(fmt._kernel[3]))          # -0
    good = sampled_from(inside) if inside else _faulty_texts(fmt)
    elements = draw(lists(tuples(good, integers(1, 5)).map(
        lambda tc: {"value": tc[0], "count": tc[1]})
        | tuples(lists(good, min_size=1, max_size=3),
                 integers(1, 7)).map(
        lambda bc: {"block": bc[0], "count": bc[1]}), max_size=10))
    if elements and draw(booleans()):
        elements.insert(draw(integers(0, len(elements))),
                        dict(draw(sampled_from(elements))))
    texts = good | _faulty_texts(fmt)
    counts = integers(1, 5) | sampled_from([0, -1, True, False, 2.0, "1",
                                            None, 1 << 70])
    some = inside[0] if inside else "0"
    entry = (tuples(texts, counts).map(
        lambda tc: {"value": tc[0], "count": tc[1]})
        | texts      # a bare string is one element
        | tuples(lists(texts, max_size=14), counts).map(
            lambda bc: {"block": bc[0], "count": bc[1]})
        | sampled_from([{"count": 1}, {"value": some},
                        5, None, {"value": 5, "count": 1},
                        {"block": [some], "value": some, "count": 5},
                        {"block": some, "count": 5},
                        {"value": some, "count": 1, "other": 0}]))
    for _ in range(draw(integers(0, 2)) if draw(booleans()) else 0):
        elements.insert(draw(integers(0, len(elements))), draw(entry))
    doc = Dataset.from_elements(fmt, lo, lo, ()).to_json_dict()
    doc["bounds"]["upper"] = encode_value(hi)
    doc["elements"] = elements
    return doc


@given(sampled_from([F44, FloatFormat(10, 5), I8,
                     IntFormat(8, True, "saturating")]).flatmap(documents))
@settings(max_examples=400, deadline=None)
def test_bulk_loader_matches_the_per_run_path(doc):
    assert _outcome(Dataset.from_json_dict, doc) == _outcome(per_run_load,
                                                             doc)


def test_bulk_loader_matches_the_per_run_path_on_every_committed_file():
    for path in sorted(INSTANCES.rglob("*.json")):
        doc = json.loads(path.read_text())
        if path.name == "instance.json":
            # refused-instance/file-list holds its instance file in a list
            instance = (doc if isinstance(doc, dict) else doc[0])["instance"]
            docs = [instance["u"], instance["v"]]
        else:
            docs = [doc]
        for d in docs:
            assert _outcome(Dataset.from_json_dict, d) == _outcome(
                per_run_load, d), path


# ---------------------------------------------------------------------------
# The bulk reader of the writer's text against json
# ---------------------------------------------------------------------------

# the committed files that load_dataset reads in bulk: every dataset file
# save_dataset wrote, of floats or ints, of runs of any count and of
# blocks.  Only dense/f10_5.json (hand-written, with a bare string and a
# -0) goes through json
BULK_FILES = {"dense/f32.json", "dense/f64.json", "dense/i16-saturating.json",
              "dense/i16-wraparound.json"} | {
    f"{pair}/{side}.json" for side in "uv" for pair in (
        "fr10_5", "mid8", "ov16", "ov6", "ov64", "ov8", "ov8s", "ro10_5",
        "rr1_10_5", "rr2", "rr2_10_5", "rr2_4_6", "same7", "sat8", "sr16")}


def _json_load(path):
    return Dataset.from_json_dict(json.loads(path.read_text()))


@mark.parametrize("path", DATASET_FILES,
                  ids=lambda p: p.relative_to(INSTANCES).as_posix())
def test_the_bulk_reader_takes_the_named_committed_files(path):
    fields = data._read_text(path.read_bytes())
    assert (fields is not None) == (
        path.relative_to(INSTANCES).as_posix() in BULK_FILES)
    if fields is not None:
        ds = _json_load(path)
        entries = [data._entry(ds.fmt, e)
                   for e in json.loads(path.read_text())["elements"]]
        codes = [x for x, _ in entries]
        flat = [y for x in codes
                for y in (x if isinstance(x, tuple) else (x,))]
        assert fields == (ds.fmt, ds.lower, ds.upper, codes,
                          [c for _, c in entries], flat)
        # the listed codes are the codes themselves when there is no block
        assert (fields[5] is fields[3]) == (flat == codes)
        assert _outcome(load_dataset, path) == _outcome(_json_load, path)


# one character of a writer's text in place of another, put in or taken
# out: the fields' grammar, the hex digits of either case, whitespace, the
# letter of a block's key and a character past ASCII
_MUTANT_CHARACTERS = '0123456789abcdefABCDEFxX \n\r\t",:{}[]\\-+.ekzé\x00'


def _sites(text):
    """The places of a writer's text where an edit tests the bulk reader
    most: each float code's ``x`` and digits, each int code's minus and
    digits, each count, each comma between records, each block's
    brackets, and the end."""
    sites = [len(text)]
    for m in re.finditer(r'"0(x[0-9a-f]+)"|"(-?[0-9]+)"|"count": ([0-9]+)'
                         r'|\}(,)\n|"block": (\[)|\n      (\]),', text):
        group = next(g for g in range(1, 7) if m.group(g))
        sites += range(*m.span(group))
    return sites


def _int_points(fmt):
    return sorted(x for x in {fmt.min_value, -5, 0, 7, 100,
                              1 << (fmt.bits - 2), fmt.max_value}
                  if fmt.min_value <= x <= fmt.max_value)


@composite
def writer_texts(draw):
    """The text save_dataset writes for a dataset: in-bounds values of a
    float format of an odd or even number of hex digits, or of an int
    format of 8 to 64 bits, signed or not, of either overflow policy; as
    runs of one element each, or as runs of counts of one to many digits
    and blocks."""
    if draw(booleans()):
        fmt = draw(sampled_from([F44, FloatFormat(10, 5), FLOAT32, FLOAT64]))
        points = [parse_value(fmt, t) for t in _FLOAT_POINTS]
    else:
        fmt = IntFormat(draw(integers(8, 64)), draw(booleans()),
                        draw(sampled_from(["wraparound", "saturating"])))
        points = [KInt(fmt, x) for x in _int_points(fmt)]
    if draw(booleans()):
        ds = Dataset.from_elements(fmt, points[0], points[-1], draw(lists(
            sampled_from(points), min_size=1, max_size=6, unique=True)))
    else:
        value = sampled_from(points)
        count = integers(1, 9) | integers(10, 10 ** 4) | integers(1, 1 << 64)
        ds = Dataset(fmt, points[0], points[-1], draw(lists(
            tuples(value, count)
            | tuples(lists(value, min_size=1, max_size=4).map(tuple),
                     integers(1, 7) | integers(5, 10 ** 6)),
            max_size=6)))
    text = json_text(ds) + "\n"
    assert data._read_text(text.encode()) is not None
    return text


def _loads_alike(text, path):
    """Whether ``load_dataset`` of a file of ``text`` gives what ``json``
    gives, a JSON error matched by its type (its position is json's)."""
    path.write_bytes(text.encode())
    got = _outcome(load_dataset, path)
    want = _outcome(lambda t: Dataset.from_json_dict(json.loads(t)), text)
    if want[0] is json.JSONDecodeError:
        got, want = got[0], want[0]
    return got == want


@given(text=writer_texts(), edit=draws())
@settings(max_examples=600, deadline=None)
def test_a_mutated_writer_file_loads_as_json_reads_it(text, edit,
                                                      tmp_path_factory):
    at = edit.draw(integers(0, len(text)) | sampled_from(_sites(text)),
                   label="at")
    cut = edit.draw(integers(0, 1) if at < len(text) else just(0),
                    label="cut")
    put = edit.draw(sampled_from(["", *_MUTANT_CHARACTERS]) if cut
                    else sampled_from(_MUTANT_CHARACTERS), label="put")
    mutated = text[:at] + put + text[at + cut:]
    # records of runs are read in pieces of this many bytes and more
    piece = edit.draw(sampled_from([data._PIECE, 1, 100]), label="piece")
    with patch.object(data, "_PIECE", piece):
        assert _loads_alike(mutated,
                            tmp_path_factory.getbasetemp() / "mutated.json")


def _named_texts():
    """A writer's text of three float runs of one element each, and of an
    int dataset of runs and a block."""
    fmt = FloatFormat(10, 5)
    points = [parse_value(fmt, t) for t in ("-2", "-0.25", "0.5", "1.5",
                                            "2")]
    floats = json_text(Dataset.from_elements(fmt, points[0], points[-1],
                                             points[1:4])) + "\n"
    fmt = IntFormat(8, True, "wraparound")
    k = [KInt(fmt, x) for x in (-128, -5, 7, 100, 127)]
    ints = json_text(Dataset(fmt, k[0], k[-1], [
        (k[1], 3), (k[2], 12), (k[3], 1), ((k[1], k[3]), 6)])) + "\n"
    return {"float": floats, "int": ints}


# edits of a writer's text: the name, the text's kind, the text replaced
# and its replacement, and whether the bulk reader takes the edited text
_NAMED_EDITS = [
    ("0X", "float", '"0x3800"', '"0X3800"', False),
    ("uppercase digit", "float", '"0xb400"', '"0xB400"', True),
    ("space at an even digit", "float", '"0x3800"', '"0x38 0"', False),
    ("space at an odd digit", "float", '"0x3800"', '"0x3 00"', False),
    ("count 0", "float", '"count": 1', '"count": 0', False),
    ("two-digit count", "float", '"count": 1', '"count": 10', True),
    ("leading zero", "float", '"count": 1', '"count": 01', False),
    ("minus count", "float", '"count": 1', '"count": -1', False),
    ("comma as a space", "float", "    },\n", "    } \n", False),
    ("trailing byte", "float", "1\n}\n", "1\n}\nx", False),
    ("no final newline", "float", "1\n}\n", "1\n}", False),
    ("CRLF", "float", "{\n", "{\r\n", False),
    ("escaped bound", "float", '"lower": "0x', '"lower": "\\u0030x', False),
    ("0X bound", "float", '"upper": "0x', '"upper": "0X', True),
    ("float size", "float", '"mantissa_bits": 10', '"mantissa_bits": 10.0',
     False),
    ("schema 2", "float", '"schema": 1', '"schema": 2', False),
    ("plus sign", "int", '"value": "7"', '"value": "+7"', False),
    ("leading zeros", "int", '"value": "7"', '"value": "007"', True),
    ("minus zero", "int", '"value": "7"', '"value": "-0"', True),
    ("minus inside", "int", '"value": "7"', '"value": "1-2"', False),
    ("empty value", "int", '"value": "7"', '"value": ""', False),
    ("int count 01", "int", '"count": 1,', '"count": 01,', False),
    ("int count -1", "int", '"count": 1,', '"count": -1,', False),
    ("count digit into the value", "int",
     '"count": 12,\n      "value": "7"', '"count": 1,\n      "value": "27"',
     True),
    ("block count 0", "int", '"count": 6', '"count": 0', False),
    ("block code out of range", "int", '"100",', '"1000",', True),
    ("empty block", "int", '"block": [\n        "100",\n        "-5"',
     '"block": [', False),
    ("no comma before a block", "int", '},\n    {\n      "block"',
     '} \n    {\n      "block"', False),
    ("no comma after a block", "int", '"count": 6\n    },',
     '"count": 6\n    } ', False),
    ("list end", "int", '\n  ],\n  "format"', '\n x],\n  "format"', False),
    ("unsigned bits", "int", '"signed": true', '"signed": false', True),
    ("overflow policy", "int", '"wraparound"', '"modular"', False),
]


@mark.parametrize("piece", [data._PIECE, 1], ids=["pieces", "records"])
@mark.parametrize("name,kind,old,new,bulk", _NAMED_EDITS,
                  ids=[e[0] for e in _NAMED_EDITS])
def test_a_named_edit_of_a_writer_file_loads_as_json_reads_it(
        name, kind, old, new, bulk, piece, tmp_path, monkeypatch):
    # records of runs are read in pieces of _PIECE bytes and more, or one
    # by one
    monkeypatch.setattr(data, "_PIECE", piece)
    text = _named_texts()[kind]
    assert old in text
    mutated = text.replace(old, new, 1)
    try:
        taken = data._read_text(mutated.encode()) is not None
    except ValueError:
        taken = True        # read, and refused at its head as by json
    assert taken == bulk
    assert _loads_alike(mutated, tmp_path / "mutated.json")

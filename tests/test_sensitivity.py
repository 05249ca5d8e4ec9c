"""Seeded couplings and brute-force values, pinned to recorded outputs.

The couplings and ``random_permutation`` draw with
``random.Random.shuffle``, and brute force reads every float release as an
integer count of the format's finest spacing; the values below were
recorded before either drew that way or the releases were read that way,
so any change in the draws or in how a release is read shows up here.  Brute force is also checked against the
certified bounds it sandwiches, and on a format too wide to enumerate.
"""

import itertools
import json
import random
import re
import time

import numpy as np

from pytest import mark, raises

from boundedsum import (ALGORITHMS, Dataset, FloatFormat, IntFormat, KInt,
                        SensSpec, ShiftBounds, SimFloat, SumMethod, Truncate,
                        brute_force_sensitivity, couple_co, couple_sym,
                        d_ham, d_id, d_mod, decode_value,
                        implemented_sensitivity_bound, parse_value,
                        random_permutation, run_sum, values_in_range)
from boundedsum.cli import main, parse_format
from boundedsum.data import exact_value, order_key
from boundedsum.dyadic import Dyadic
from boundedsum import bruteforce as engine
from boundedsum.bruteforce import _Ring
from boundedsum.sensitivity import METRICS

FMT = IntFormat(8, True, "saturating")


def ds(values):
    return Dataset.from_elements(FMT, KInt(FMT, -8), KInt(FMT, 8),
                                 [KInt(FMT, x) for x in values])


def values(dataset):
    return [v.value for v in dataset.iter_values()]


SHORT = [3, -1, 5, 5, 0, 2, 7]
LONG = SHORT + [4]

# seed -> (u', v') for couple_sym(SHORT, LONG) and couple_co(CO_U, CO_V)
SYM_DRAWS = {
    1: ([5, 7, 2, 5, 3, 0, -1], [5, 7, 2, 5, 3, 0, -1, 4]),
    20220721: ([2, 5, -1, 3, 7, 0, 5], [2, 5, -1, 3, 7, 0, 5, 4]),
}
CO_U, CO_V = [3, -1, 5, 5, 0, 2], [3, -1, 5, 6, 0, 2]
CO_DRAWS = {
    1: ([2, 3, 5, -1, 5, 0], [2, 3, 6, -1, 5, 0]),
    20220721: ([3, 0, -1, 5, 5, 2], [3, 0, -1, 6, 5, 2]),
}
SAME_DRAWS = {1: [4, 1, 3, 2], 20220721: [1, 2, 4, 3]}
PERMUTATION_DRAWS = {
    1: [4, 5, 5, 3, 2, -8, 7, -1, 0],
    20220721: [-1, 5, 4, 2, 5, 0, -8, 7, 3],
}


@mark.parametrize("seed", sorted(SYM_DRAWS))
def test_couple_sym_draws_are_pinned(seed):
    a, b = couple_sym(ds(SHORT), ds(LONG), seed)
    assert (values(a), values(b)) == SYM_DRAWS[seed]
    assert d_id(a, b) == 1
    # swapping the roles swaps the outputs: the shorter side is shuffled
    b2, a2 = couple_sym(ds(LONG), ds(SHORT), seed)
    assert (values(a2), values(b2)) == SYM_DRAWS[seed]
    # equal multisets share one shuffle of u's order
    same_u, same_v = couple_sym(ds([1, 2, 3, 4]), ds([4, 3, 2, 1]), seed)
    assert values(same_u) == values(same_v) == SAME_DRAWS[seed]


@mark.parametrize("seed", sorted(CO_DRAWS))
def test_couple_co_draws_are_pinned(seed):
    a, b = couple_co(ds(CO_U), ds(CO_V), seed)
    assert (values(a), values(b)) == CO_DRAWS[seed]
    assert d_ham(a, b) == 1
    same_u, same_v = couple_co(ds([1, 2, 3, 4]), ds([4, 3, 2, 1]), seed)
    assert values(same_u) == values(same_v) == SAME_DRAWS[seed]


def test_couplings_refuse_past_the_materialize_limit(monkeypatch):
    import boundedsum.data as data
    monkeypatch.setattr(data, "MATERIALIZE_LIMIT", 100)
    one, two, three = (KInt(FMT, x) for x in (1, 2, 3))

    def runs(*pairs):
        return Dataset(FMT, KInt(FMT, -8), KInt(FMT, 8), pairs)

    u = runs((one, 250), (two, 250))
    for couple, v in ((couple_co, runs((one, 250), (two, 249), (three, 1))),
                      (couple_sym, runs((one, 250), (two, 251)))):
        with raises(ValueError, match="refusing to materialize"):
            couple(u, v, 1)
    # paper-size runs are counted, not walked: refused at once
    big = 1 << 52
    u = runs((one, big))
    for couple, v in ((couple_co, runs((one, big - 1), (three, 1))),
                      (couple_sym, runs((one, big), (three, 1)))):
        started = time.perf_counter()
        with raises(ValueError, match="refusing to materialize"):
            couple(u, v, 1)
        assert time.perf_counter() - started < 1


@mark.parametrize("seed", sorted(PERMUTATION_DRAWS))
def test_random_permutation_draws_are_pinned(seed):
    shuffled = random_permutation(ds([3, -1, 5, 5, 0, 2, 7, 4, -8]), seed)
    assert values(shuffled) == PERMUTATION_DRAWS[seed]


def bruteforce(capsys, *argv):
    assert main(["sens", "bruteforce", *argv]) == 0
    return json.loads(capsys.readouterr().out)


def test_bruteforce_wraparound_ints_use_wrap_distance(capsys):
    report = bruteforce(capsys, "--format", "int:6:signed:wraparound",
                        "--lower", "-12", "--upper", "11", "--metric", "ham",
                        "--n", "3", "--method", "iterative")
    assert report["value"] == "23"
    assert report["output_metric"] == "mod"
    assert report["datasets"] == 13824
    assert report["witness"] == {"u": ["-12", "-12", "11"],
                                 "v": ["-12", "-12", "-12"]}


def test_bruteforce_reads_infinite_releases_at_their_working_value(capsys):
    # (2,3): infinity works as 2^4 = 16, so a pair released as -inf and
    # +inf is 32 apart.  Kahan sums [-14, -14, 14] to -inf, while in
    # [-14, 3, 14] the compensation pushes 14 to a tie that rounds to +inf.
    report = bruteforce(capsys, "--format", "float:2,3", "--lower", "-14",
                        "--upper", "14", "--metric", "ham", "--n", "3",
                        "--method", "kahan")
    assert report["value"] == "32"
    assert report["output_metric"] == "abs"
    assert report["datasets"] == 117649
    assert report["witness"] == {"u": ["0x3b", "0x3b", "0x1b"],
                                 "v": ["0x3b", "0x12", "0x1b"]}


@mark.parametrize("lower, upper, metric, n, datasets", [
    ("1", "1", "ham", "1", 1),
    ("-1", "1", "ham", "1", None),
    ("-1", "1", "sym", "0", 1),
], ids=["one-value", "guard", "empty-only"])
def test_bruteforce_on_float32_sizes_the_domain_without_walking_it(
        capsys, lower, upper, metric, n, datasets):
    # [1, 1] holds one float32 value; [-1, 1] about 2^31, which the work
    # guard refuses before any value is built, and which size 0 never needs
    argv = ["sens", "bruteforce", "--format", "float:23,8", "--lower", lower,
            "--upper", upper, "--metric", metric, "--n", n]
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    if datasets is None:
        assert code == 2
        assert "work guard" in captured.err
    else:
        assert code == 0
        assert json.loads(captured.out)["datasets"] == datasets
    assert elapsed < 2


F23 = FloatFormat(2, 3)


def _f23_case(metric, algorithm, rule, lower="-1", upper="1", n=2,
              transforms=()):
    return (F23, lower, upper, metric, algorithm, n, False, rule, transforms)


def _int4_case(overflow, metric, algorithm, rule, bits=4, checked=False):
    return (IntFormat(bits, True, overflow), -4, 3, metric, algorithm, 3,
            checked, rule, ())


# (2,3) [-2, -1] shifts to [0, 1], where every element maps exactly
def _shift_case(metric, algorithm, rule):
    return _f23_case(metric, algorithm, rule, "-2", "-1", 3, (ShiftBounds(),))


SANDWICH = (
    [_f23_case(metric, alg, f"float-{alg}-accuracy")
     for alg in ("iterative", "pairwise", "kahan") for metric in ("co", "ham")]
    + [_f23_case("ham", "split", "float-split-known-n"),
       _f23_case("id", "split", "float-split-unknown-n")]
    + [_int4_case("wraparound", metric, alg, f"modular-{metric}")
       for metric in ("sym", "co", "ham", "id")
       for alg in ("iterative", "pairwise")]
    + [_int4_case("saturating", metric, "split", "int-saturating-split")
       for metric in ("sym", "co", "ham", "id")]
    + [_int4_case("saturating", metric, "iterative", "int-saturating-ordered")
       for metric in ("ham", "id")]
    + [_int4_case("saturating", metric, "iterative", "int-checked-idealized",
                  bits=5, checked=True)
       for metric in ("sym", "co", "ham", "id")]
    + [_f23_case("id", alg, f"float-{alg}-truncated", n=3,
                 transforms=(Truncate(2),))
       for alg in ("iterative", "pairwise", "kahan")]
    + [_shift_case(metric, alg, f"float-{alg}-accuracy+shift")
       for alg in ("iterative", "pairwise", "kahan") for metric in ("co", "ham")]
    + [_shift_case("ham", "split", "float-split-known-n+shift"),
       _shift_case("id", "split", "float-split-unknown-n+shift")]
)

# rule -> (certified bound, brute force) of the cases with transforms; the
# accuracy+shift values hold for co and ham alike
SANDWICH_VALUES = {
    "float-iterative-truncated": ("3", "17/8"),
    "float-pairwise-truncated": ("18/7", "17/8"),
    "float-kahan-truncated": ("4", "17/8"),
    "float-iterative-accuracy+shift": ("13/4", "5/4"),
    "float-pairwise-accuracy+shift": ("3", "5/4"),
    "float-kahan-accuracy+shift": ("19/4", "5/4"),
    "float-split-known-n+shift": ("2", "1"),
    "float-split-unknown-n+shift": ("3", "1"),
}


@mark.parametrize(
    "fmt, lower, upper, metric, algorithm, n, checked, rule, transforms",
    SANDWICH, ids=[f"{c[7]}-{c[3]}-{c[4]}" for c in SANDWICH])
def test_bruteforce_stays_below_the_certified_bound(
        fmt, lower, upper, metric, algorithm, n, checked, rule, transforms):
    if isinstance(fmt, FloatFormat):
        lo, hi = parse_value(fmt, lower), parse_value(fmt, upper)
    else:
        lo, hi = KInt(fmt, lower), KInt(fmt, upper)
    spec = SensSpec(fmt, lo, hi, metric,
                    SumMethod(algorithm, transforms=transforms), n=n,
                    checked=checked)
    bound = implemented_sensitivity_bound(spec)
    assert bound.rule == rule
    result = brute_force_sensitivity(spec)
    assert result.output_metric == bound.output_metric
    assert result.value <= bound.value
    if transforms:
        assert (str(bound.value), str(result.value)) == SANDWICH_VALUES[rule]


# ---------------------------------------------------------------------------
# The array scan against the per-tuple scan
# ---------------------------------------------------------------------------

class _RefTracker:
    """Running maximum with the first strictly largest witness."""

    def __init__(self, modulus):
        self.best = self.pair = None
        self.modulus = modulus

    def offer(self, sa, ta, sb, tb):
        gap = d_mod(sa, sb, self.modulus) if self.modulus else abs(sa - sb)
        if self.best is None or gap > self.best:
            self.best, self.pair = gap, (ta, tb)


class _RefExtremes:
    def __init__(self, s, t):
        self.lo = self.hi = s
        self.lo_t = self.hi_t = t

    def add(self, s, t):
        if s < self.lo:
            self.lo, self.lo_t = s, t
        elif s > self.hi:
            self.hi, self.hi_t = s, t


def _ref_group_offer(groups, key, s, t, tracker, modulus):
    if modulus:
        seen = groups.get(key)
        if seen is None:
            groups[key] = {s: t}
        elif s not in seen:
            for sb, tb in seen.items():
                tracker.offer(s, t, sb, tb)
            seen[s] = t
    else:
        ext = groups.get(key)
        if ext is None:
            groups[key] = _RefExtremes(s, t)
        else:
            ext.add(s, t)
            tracker.offer(ext.lo, ext.lo_t, ext.hi, ext.hi_t)


def _ref_sorted_deletions(tup):
    return dict.fromkeys(tuple(sorted(tup[:p] + tup[p + 1:], key=order_key))
                         for p in range(len(tup)))


_REF_GROUPINGS = {
    "ham": (lambda t: [(p, t[:p], t[p + 1:]) for p in range(len(t))],
            lambda t: ()),
    "co": (_ref_sorted_deletions, lambda t: ()),
    "sym": (lambda t: (tuple(sorted(t, key=order_key)),),
            _ref_sorted_deletions),
    "id": (lambda t: (t,),
           lambda t: [t[:p] + t[p + 1:] for p in range(len(t))]),
}


def reference_brute_force(spec, include_subnormals=False):
    """Every tuple a validated Dataset released by run_sum; a modular
    group races each new residue against every residue it holds."""
    fmt, n = spec.fmt, spec.n
    if isinstance(fmt, FloatFormat):
        domain = values_in_range(fmt, spec.lower, spec.upper,
                                 include_subnormals) if n else []
    else:
        domain = [KInt(fmt, v)
                  for v in range(spec.lower.value, spec.upper.value + 1)]
    modulus = fmt.modulus if (isinstance(fmt, IntFormat)
                              and fmt.overflow == "wraparound") else None
    template = Dataset(fmt, spec.lower, spec.upper, ())

    def release(tup):
        out = run_sum(template.replace_elements(tup), spec.method).value
        if isinstance(out, SimFloat):
            return out.to_grid()
        if isinstance(out, Dyadic):
            return out.scaled(fmt.emin - fmt.k)
        out = exact_value(out)
        return out % modulus if modulus else out

    tracker = _RefTracker(modulus)
    joins, probes = _REF_GROUPINGS[spec.metric]
    sizes = [n] if spec.metric in ("co", "ham") else range(n + 1)
    count = 0
    prev = {}
    for length in sizes:
        curr = {}
        for tup in itertools.product(domain, repeat=length):
            count += 1
            s = release(tup)
            for key in joins(tup):
                _ref_group_offer(curr, key, s, tup, tracker, modulus)
            for key in probes(tup):
                hit = prev.get(key)
                if hit is None:
                    continue
                if modulus:
                    for sb, tb in hit.items():
                        tracker.offer(s, tup, sb, tb)
                else:
                    tracker.offer(s, tup, hit.lo, hit.lo_t)
                    tracker.offer(s, tup, hit.hi, hit.hi_t)
        prev = curr
    value = tracker.best if tracker.best is not None else 0
    if isinstance(fmt, FloatFormat):
        value = fmt.grid_fraction(value)
    return value, tracker.pair, count


def _spec(fmt_text, lower, upper, metric, n, algorithm, rounding="banker",
          transforms=()):
    fmt = parse_format(fmt_text)
    return SensSpec(fmt, decode_value(fmt, lower), decode_value(fmt, upper),
                    metric, SumMethod(algorithm, rounding, transforms), n=n)


# (format, lower, upper, n, rounding, subnormals): small domains, so the
# per-tuple reference stays quick; [4, 14] overflows under toward_pos.  At
# n <= 3 pairwise adds in the left fold's order; [0.5, 1.5] at n = 4 is
# where the two trees part (see below).  [0, 0] has one value, so every
# gap is 0 and only the order of offers picks the witness.
FRAMES = [
    ("float:2,3", "-0.5", "0.5", 3, "banker", False),
    ("float:2,3", "-0.5", "0.5", 2, "toward_pos", True),
    ("float:2,3", "4", "14", 3, "toward_pos", False),
    ("float:2,3", "-14", "14", 2, "banker", False),
    ("float:2,3", "0.5", "1.5", 4, "banker", False),
    ("int:4:signed:wraparound", "-4", "3", 3, "banker", False),
    ("int:4:signed:saturating", "-4", "3", 3, "banker", False),
    ("int:4:signed:saturating", "0", "0", 2, "banker", False),
]

ORACLE = [(*frame, metric, alg) for frame in FRAMES for metric in METRICS
          for alg in ALGORITHMS]


def _assert_same_as_reference(spec, subnormals=False):
    try:
        want = reference_brute_force(spec, subnormals)
    except (TypeError, ValueError) as exc:
        # a refusal must be the same refusal
        with raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            brute_force_sensitivity(spec, subnormals)
        return
    got = brute_force_sensitivity(spec, subnormals)
    assert (got.value, got.witness, got.datasets) == want


@mark.parametrize("fmt, lower, upper, n, rounding, subnormals, metric, alg",
                  ORACLE, ids=["-".join(map(str, c)) for c in ORACLE])
def test_bruteforce_matches_the_per_tuple_scan(
        fmt, lower, upper, n, rounding, subnormals, metric, alg):
    spec = _spec(fmt, lower, upper, metric, n, alg, rounding)
    _assert_same_as_reference(spec, subnormals)


def test_the_n4_frame_tells_pairwise_from_the_left_fold():
    spec = _spec("float:2,3", "0.5", "1.5", "ham", 4, "pairwise")
    frame = Dataset(spec.fmt, spec.lower, spec.upper, ())
    domain = values_in_range(spec.fmt, spec.lower, spec.upper)

    def release(tup, algorithm):
        return run_sum(frame.replace_elements(tup), SumMethod(algorithm)).value

    differ = sum(release(t, "pairwise") != release(t, "iterative")
                 for t in itertools.product(domain, repeat=4))
    assert (len(domain), differ) == (7, 558)


TRANSFORMED = [
    ("float:2,3", "-0.5", "0.5", (Truncate(2),)),
    ("float:2,3", "0.25", "1.75", (ShiftBounds(),)),
    ("float:2,3", "-0.5", "0.5", (ShiftBounds(),)),   # refused
    ("int:4:signed:saturating", "-4", "3", (ShiftBounds(), Truncate(2))),
]


@mark.parametrize("fmt, lower, upper, transforms", TRANSFORMED,
                  ids=["float-truncate", "float-shift", "float-shift-refused",
                       "int-shift-truncate"])
@mark.parametrize("metric, alg", [("ham", "iterative"), ("co", "kahan"),
                                  ("sym", "split"), ("id", "pairwise"),
                                  ("sym", "exact")])
def test_bruteforce_with_transforms_matches_the_per_tuple_scan(
        fmt, lower, upper, transforms, metric, alg):
    spec = _spec(fmt, lower, upper, metric, 2, alg, transforms=transforms)
    _assert_same_as_reference(spec)


def _outcome(spec, subnormals=False):
    """A scan's value, witness and dataset count, or its refusal."""
    try:
        got = brute_force_sensitivity(spec, subnormals)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return got.value, got.witness, got.datasets


SEAMS = ([(_spec(fmt, lower, upper, metric, n, alg, rounding), subnormals)
          for fmt, lower, upper, n, rounding, subnormals, metric, alg
          in ORACLE]
         + [(_spec(fmt, lower, upper, metric, 2, alg, transforms=transforms),
             False)
            for fmt, lower, upper, transforms in TRANSFORMED
            for metric, alg in (("ham", "iterative"), ("co", "kahan"),
                                ("sym", "split"), ("id", "pairwise"),
                                ("sym", "exact"))])


def test_chunk_seams_change_nothing(monkeypatch):
    # a budget of a few tuples cuts every length into many chunks, so
    # groups span chunks and merge part by part; every scan must come out
    # the same
    want = [_outcome(*case) for case in SEAMS]
    monkeypatch.setattr(engine, "_CHUNK", 5)
    assert [_outcome(*case) for case in SEAMS] == want


def test_kahan_on_ints_is_refused_like_the_per_tuple_scan():
    spec = _spec("int:4:signed:wraparound", "-4", "3", "ham", 2, "kahan")
    with raises(TypeError, match="defined for float formats"):
        reference_brute_force(spec)
    _assert_same_as_reference(spec)


class _Frame:
    """What a ring race reads off the releases: the modulus, the dtype and
    the layout of a group key."""

    def __init__(self, modulus):
        self.modulus, self.dt, self.width, self.offset = (modulus, np.int64,
                                                          modulus, 0)


@mark.parametrize("modulus", [8, 16, 64])
def test_ring_race_picks_the_residue_an_all_pairs_race_picks(modulus):
    # one group of random residues, ties planted: a residue's arrival
    # races it against every earlier residue, a probe against all of them,
    # each in insertion order, and the first strictly largest gap wins
    rng = random.Random(modulus)
    half = modulus // 2
    for trial in range(100):
        members = {}                   # residue -> first key, in order
        arrivals = []
        for key in range(rng.randint(1, modulus)):
            s = rng.randrange(modulus)
            if len(members) > 1 and rng.random() < 0.4:
                # plant a tie: s's antipode halfway between two members,
                # one way round the ring or the other
                a, b = rng.sample(list(members), 2)
                if (a - b) % 2 == 0:
                    s = ((a + b) // 2 + rng.choice((0, half)) + half) % modulus
            arrivals.append((s, key))
            members.setdefault(s, key)
        race, ref = _Ring(_Frame(modulus), 0), _RefTracker(modulus)
        codes = np.zeros(len(arrivals), np.int64)
        s, key = (np.array(x, np.int64) for x in zip(*arrivals))
        groups = race.merge(race.part(codes, key, s))
        race.joins(groups, 1)
        seen = {}
        for r, k in arrivals:
            if r not in seen:
                for sb, tb in seen.items():
                    ref.offer(r, k, sb, tb)
                seen[r] = k
        probes = [rng.randrange(modulus) for _ in range(rng.randint(1, 4))]
        race.probes(groups, 2, np.zeros(len(probes), np.int64),
                    np.arange(len(probes)) + modulus, np.array(probes))
        for k, r in enumerate(probes):
            for sb, tb in members.items():
                ref.offer(r, k + modulus, sb, tb)
        got = race.pair and (int(race.pair[0][1]), int(race.pair[1][1]))
        assert (got, max(race.event[0], 0)) == (ref.pair, ref.best or 0)

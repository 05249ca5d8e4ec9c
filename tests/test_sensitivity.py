"""Seeded couplings and brute-force values, pinned to recorded outputs.

The couplings and ``random_permutation`` share one Fisher-Yates, and brute
force reads every release through ``exact_value``; the values below were
recorded before either was shared, so any change in the draws or in how a
release is read shows up here.
"""

import json

from pytest import mark

from boundedsum import (Dataset, IntFormat, KInt, couple_co, couple_sym,
                        d_ham, d_id, random_permutation)
from boundedsum.cli import main

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

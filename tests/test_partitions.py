import itertools
import math

import pytest

from symsod import partitions
from symsod.expr import InternalInvariantError
from symsod.partitions import (
    multiplicity_vectors,
    partition_count,
    partitions_of,
    q_length,
)
from symsod.series import euler_product_power


def brute_force_partitions(n):
    """Independent oracle: ascending-parts recursion, re-sorted to compare."""

    def rec(remaining, min_part):
        if remaining == 0:
            yield ()
            return
        for part in range(min_part, remaining + 1):
            for rest in rec(remaining - part, part):
                yield (part,) + rest

    return {tuple(sorted(p, reverse=True)) for p in rec(n, 1)}


def test_partitions_of_trivial_cases():
    assert partitions_of(0) == [()]
    assert partitions_of(1) == [(1,)]


def test_partitions_of_4_matches_enumeration():
    got = partitions_of(4)
    assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert set(got) == brute_force_partitions(4)


@pytest.mark.parametrize("n", range(21))
def test_partitions_of_matches_brute_force(n):
    parts = partitions_of(n)
    assert set(parts) == brute_force_partitions(n)
    assert len(parts) == partition_count(n)


def test_partitions_sorted_decreasing_lex():
    for n in range(21):
        parts = partitions_of(n)
        assert parts == sorted(parts, reverse=True)


def test_partition_count_values():
    assert partition_count(0) == 1
    assert partition_count(5) == 7
    assert partition_count(10) == 42


def test_q_length_degenerate_cases():
    for n in range(10):
        assert q_length(n, 1) == partition_count(n)
    for l in range(1, 7):
        assert q_length(1, l) == l
    assert q_length(0, 4) == 1


def test_q_length_2_3_by_hand():
    # compositions of 2 into 3 slots: three with a lone 2 (p(2) = 2 each)
    # and three with two 1s (product 1 each)
    assert q_length(2, 3) == 3 * 2 + 3 * 1 == 9


def test_q_length_is_the_literal_composition_sum():
    for n in range(13):
        for l in range(1, 7):
            # stars and bars: l - 1 bars among n + l - 1 slots cut n into l parts
            ends = n + l - 1
            compositions = [
                [b - a - 1 for a, b in zip((-1, *bars), (*bars, ends))]
                for bars in itertools.combinations(range(ends), l - 1)
            ]
            assert len(compositions) == math.comb(ends, l - 1)
            literal = sum(math.prod(partition_count(i) for i in c) for c in compositions)
            assert q_length(n, l) == literal, (n, l)


@pytest.mark.parametrize("l", [1, 2, 7, 12])
def test_q_length_is_the_euler_product_coefficient(l):
    # far past the literal sum's reach: C(211, 11) compositions at n = 200, l = 12
    assert [q_length(n, l) for n in range(201)] == euler_product_power(l, 200)


def test_q_length_ignores_call_order_and_cache_contents(monkeypatch):
    monkeypatch.setattr(partitions, "_Q_CACHE", {})
    expected = {
        (n, l): coeff
        for l in range(1, 6)
        for n, coeff in enumerate(euler_product_power(l, 30))
    }
    orders = {
        "ascending": sorted(expected),
        "descending": sorted(expected, reverse=True),
        "interleaved l": sorted(expected, key=lambda key: (key[0], -key[1])),
    }
    for name, order in orders.items():
        partitions._Q_CACHE.clear()
        assert {key: q_length(*key) for key in order} == expected, name
    # a warm cache holding rows of another order answers the same
    assert {key: q_length(*key) for key in orders["ascending"]} == expected


def test_q_length_raises_when_a_division_leaves_a_remainder(monkeypatch):
    law_rows = partitions._law_rows

    def psi_2_off_by_one(rows, psi, top, label):
        # psi(2) = 2: b_2 = 2 psi(1) + psi(2) = 4, and 2 q(2; 1) = 1 + 4 is odd
        return law_rows(rows, lambda r: psi(r) + (r == 2), top, label)

    monkeypatch.setattr(partitions, "_Q_CACHE", {})
    monkeypatch.setattr(partitions, "_law_rows", psi_2_off_by_one)
    with pytest.raises(InternalInvariantError, match=r"q\(2;1\)"):
        q_length(2, 1)


@pytest.mark.parametrize("n, l", [(6, 3.0), (6.0, 3), (True, 3), (6, True)])
def test_q_length_refuses_non_integers_before_touching_the_cache(monkeypatch, n, l):
    # (6, 3.0) hashes as (6, 3): a float l would leave float rows for l = 3
    monkeypatch.setattr(partitions, "_Q_CACHE", {})
    with pytest.raises(ValueError, match="must be integers"):
        q_length(n, l)
    assert [q_length(k, 3) for k in range(7)] == [1, 3, 9, 22, 51, 108, 221]
    assert all(
        type(x) is int for key, value in partitions._Q_CACHE.items() for x in (*key, value)
    )


@pytest.mark.parametrize(
    "route, n",
    [
        (partition_count, 5.0),
        (partition_count, True),
        (partition_count, -1),
        (partitions_of, 3.0),
        (partitions_of, False),
        (multiplicity_vectors, 2.0),
    ],
)
def test_partition_routes_refuse_non_integers_and_negatives(route, n):
    # 5.0 and 3.0 leaked a TypeError from deep inside; True counted as p(1) = 1
    with pytest.raises(ValueError, match="must be an integer >= 0"):
        route(n)


def test_multiplicity_vectors_weight_2():
    got = multiplicity_vectors(2)
    assert got == [((2, 1),), ((1, 2),)]

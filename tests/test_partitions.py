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
    weak_compositions,
)
from symsod.series import eta_inverse_power


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


def test_weak_compositions_trivial():
    assert weak_compositions(0, 3) == [(0, 0, 0)]
    assert weak_compositions(5, 1) == [(5,)]


def test_weak_compositions_2_3():
    got = weak_compositions(2, 3)
    assert len(got) == 6  # C(4, 2)
    assert got == sorted(got)
    assert set(got) == {(0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0)}


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
            compositions = weak_compositions(n, l)
            literal = sum(math.prod(partition_count(i) for i in c) for c in compositions)
            assert q_length(n, l) == literal, (n, l)


@pytest.mark.parametrize("l", [1, 2, 7, 12])
def test_q_length_is_the_euler_product_coefficient(l):
    # far past the literal sum's reach: C(211, 11) compositions at n = 200, l = 12
    assert [q_length(n, l) for n in range(201)] == eta_inverse_power(l, 200)


def test_q_length_ignores_call_order_and_cache_contents(monkeypatch):
    monkeypatch.setattr(partitions, "_Q_CACHE", {})
    expected = {
        (n, l): coeff
        for l in range(1, 6)
        for n, coeff in enumerate(eta_inverse_power(l, 30))
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
    real = partitions._divisor_sums

    def sigma_2_off_by_one(n):
        sigma = real(n)
        sigma[1] += 1  # sigma(2) = 4: 2 q(2; 1) = 1 + 4 is odd
        return sigma

    monkeypatch.setattr(partitions, "_Q_CACHE", {})
    monkeypatch.setattr(partitions, "_divisor_sums", sigma_2_off_by_one)
    with pytest.raises(InternalInvariantError, match=r"q\(2;1\)"):
        q_length(2, 1)


def test_weak_compositions_in_lexicographic_order():
    for n in range(6):
        for l in range(1, 5):
            expected = [c for c in itertools.product(range(n + 1), repeat=l) if sum(c) == n]
            assert weak_compositions(n, l) == expected


def test_multiplicity_vectors_weight_2():
    got = multiplicity_vectors(2)
    assert got == [((2, 1),), ((1, 2),)]

"""Integer partitions and the length-weighted count q(n; l).

Everything here is exact integer arithmetic.  The quantities interlock:

* ``p(n)`` -- the number of partitions of ``n``,
* ``q(n; l)`` -- the sum, over the weak compositions ``(i_1, ..., i_l)`` of
  ``n`` (length-``l`` tuples of non-negative integers summing to ``n``), of
  the product ``p(i_1) * ... * p(i_l)``.

``q(n; l)`` is the length of the full exceptional collection carried by the
n-th symmetric product of a category with an exceptional collection of
length ``l``; the rewrite engine reproduces it structurally and the series
module's binomial kernel as a coefficient of ``prod_k (1 - t^k)^(-l)``.
:func:`q_length` reads that product from its Adams operations psi^r = l
(``series._law_rows``, which also values the invariant law), never by the
kernel, so it stays independent of both.  No code here enumerates a
composition: the literal composition sum is the test suite's reference.
"""

from __future__ import annotations

import threading

from .series import _law_rows


def partitions_of(n: int) -> list[tuple[int, ...]]:
    """All partitions of ``n`` as weakly decreasing tuples, in decreasing
    lexicographic order.

    The order starts with ``(n,)`` and ends with ``(1, 1, ..., 1)``, e.g. for
    n=4: (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1).
    """
    if type(n) is not int or n < 0:
        raise ValueError(f"n must be an integer >= 0, got {n!r}")
    # Zoghbi and Stojmenovic's ZS1: lower the last part above 1, refill greedily.
    # x[:m + 1] is the partition, x[h] its last part above 1, x[m + 1:] all 1
    x, m, h, result = [n] + [1] * (n - 1), 0, 0, [(n,) if n else ()]
    while x[0] > 1:
        if x[h] == 2:
            x[h], m, h = 1, m + 1, h - 1
        else:
            r, t = x[h] - 1, m - h + 1  # t: what x[h:m + 1] holds once x[h] is r
            x[h] = r
            while t >= r:
                h, t = h + 1, t - r
                x[h] = r
            m = h if t == 0 else h + 1
            if t > 1:
                h += 1
                x[h] = t
        result.append(tuple(x[: m + 1]))
    return result


# p(n) table built with the pentagonal-number recurrence.  Kept deliberately
# independent of partitions_of so the two can cross-check each other.
_P_TABLE: list[int] = [1]
_P_LOCK = threading.Lock()


def partition_count(n: int) -> int:
    """The partition number ``p(n)``; memoized in a process-wide table."""
    if type(n) is not int or n < 0:
        raise ValueError(f"n must be an integer >= 0, got {n!r}")
    if n < len(_P_TABLE):
        return _P_TABLE[n]
    with _P_LOCK:
        while len(_P_TABLE) <= n:
            m = len(_P_TABLE)
            total = 0
            k = 1
            while True:
                g1 = k * (3 * k - 1) // 2
                g2 = k * (3 * k + 1) // 2
                if g1 > m:
                    break
                sign = -1 if k % 2 == 0 else 1
                total += sign * _P_TABLE[m - g1]
                if g2 <= m:
                    total += sign * _P_TABLE[m - g2]
                k += 1
            _P_TABLE.append(total)
    return _P_TABLE[n]


_Q_CACHE: dict[tuple[int, int], int] = {}


def q_length(n: int, l: int) -> int:
    """``q(n; l)``: sum of ``p(i_1)*...*p(i_l)`` over weak compositions of n;
    ``n`` and ``l`` must be ``int`` (not ``bool``), else ValueError.

    It is the t^n coefficient of ``prod_k (1 - t^k)^(-l)``, read by Euler's
    logarithmic derivative: ``k q(k; l) = l * sum_{j=1..k} sigma(j) q(k-j; l)``
    (:func:`series._law_rows` with psi(r) = l, so b_j = l sigma(j)).  One call
    extends the cached rows of l to every k <= n, O(n^2) integer steps whatever
    l; a division by k that leaves a remainder raises InternalInvariantError.
    """
    if type(n) is not int or type(l) is not int:  # 3.0 would hash as 3 in the cache
        raise ValueError(f"n and l must be integers, got n={n!r}, l={l!r}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    if (n, l) in _Q_CACHE:
        return _Q_CACHE[n, l]
    q = [_Q_CACHE.setdefault((0, l), 1)]
    for k in range(1, n):
        row = _Q_CACHE.get((k, l))
        if row is None:
            break
        q.append(row)
    known = len(q)
    _law_rows(q, lambda r: l, n, f"q({{}};{l})")
    for k in range(known, n + 1):
        _Q_CACHE[k, l] = q[k]
    return q[n]


def multiplicity_vectors(n: int) -> list[tuple[tuple[int, int], ...]]:
    """All multiplicity vectors of weight ``n``, in bijection with partitions_of(n).

    A vector is the tuple of pairs ``(i, a_i)``, increasing in ``i``, with
    ``a_i >= 1`` parts equal to ``i`` and weight ``sum(i * a_i)``.
    """
    result = []
    for part in partitions_of(n):
        a: dict[int, int] = {}
        for i in part:
            a[i] = a.get(i, 0) + 1
        result.append(tuple(sorted(a.items())))
    return result

"""Exact generating functions, returned as plain rows.

The package's analytic oracles are products of binomial factors
``(1 + s z^a q^m)^e``, truncated at q^trunc.  Each is returned as its rows
0..trunc: a z-free product as a list of integers, a bivariate one as a list
of dense rows, ``row[e]`` the coefficient of z^e (zeros included, so row n of
Goettsche's series has 4n + 1 entries).  Two routes build them.

* The binomial kernel, ``_rows``, applies one factor at a time, in place, to
  packed rows: row n is a single integer, its z^e coefficient the digit e in
  base 2^W (Kronecker substitution), so one step of a factor is one
  big-integer shift-and-add (with no multiply for a unit factor, one step of
  coefficient 1).  :func:`euler_product_power` runs it at W = 0, one plain
  integer per row.  Goettsche's series is the one product that packs.  In
  u = z^2 q its b2 family is P(u)^b2, P the partition series (unit factors,
  at W = 0), packed and squared up to b2 as a seed, digit n at z^(2n), so
  only the b0, b1, b3 and b4 families are packed, as z^2 when b1 = b3 = 0.
  Its coefficients are Betti numbers, so every digit is unsigned, and each
  is at most q(n; total Betti), which sizes W; each row decodes with one
  ``memoryview`` cast (or, for digits over 8 bytes, one slice a digit).
  Its cost grows with the exponents.
* Euler's logarithmic derivative, ``_law_rows``, reads a z-free series F of
  symmetric powers from the Adams operations psi^r of its generator: t F'/F
  has b_N = sum_{r | N} (N/r) psi^r at t^N, and n f_n = sum_{k=1..n} b_k f_(n-k),
  O(n) integer steps per row whatever the exponents.  psi^r = l reads q(n; l)
  (:func:`partitions.q_length`); h+ - h- and h+ + (-1)^(r+1) h- read the Euler
  numbers and total Hochschild dimensions (:func:`sym_power_totals`).

So the checks against the law (``invariants:goettsche-two-path``) and
against q(n; l) (``series:eta-euler-product``, ``invariants:phantom-audit``)
each set the kernel against the recurrence; ``series:gottsche-euler`` sets
the packed kernel against the kernel at W = 0 with power chi, a run that
:func:`gottsche_series` never makes.  The functions:

* :func:`euler_product_power` -- the Euler product ``prod (1 - q^m)^(-c)``
  for any integer c; for c = l >= 1 its q^n coefficient is ``q(n; l)``,
* :func:`sym_power_totals` -- the Euler numbers and total Hochschild
  dimensions of the symmetric powers of a category, from its even and odd
  Hochschild dimensions,
* :func:`gottsche_series` -- Goettsche's formula for the Poincare
  polynomials of the Hilbert schemes of points of a surface (a classical
  result, quoted from the literature),
* :func:`macdonald_poincare` -- Macdonald's formula for the Poincare
  polynomial of a symmetric power of a curve (likewise classical).
"""

from __future__ import annotations

import math
import operator
import sys
from typing import Callable, Iterable

from ._record import InternalInvariantError, Record

_CASTS = {1: "B", 2: "H", 4: "I", 8: "Q"}  # memoryview formats by item size


def poly_eval(row: list[int], z: int) -> int:
    """Evaluate a dense row (``row[e]`` the z^e coefficient) at z = 1 or z = -1.

    At z = 1 it is the coefficient sum, and at z = -1 that sum less twice the
    odd-exponent coefficients: no powers are taken.
    """
    if z not in (1, -1):
        raise ValueError(f"poly_eval takes z = 1 or z = -1, got {z}")
    total = sum(row)
    return total if z == 1 else total - 2 * sum(row[1::2])


def poly_strs(rows: list[list[int]]) -> list[str]:
    """Render dense rows, each as e.g. ``1 + z^2 + 3*z^4`` (``0`` if it is zero).

    The names z, z^2, ... are built once per call, for the longest row.
    """
    names = ["", "z"] + [f"z^{e}" for e in range(2, max(map(len, rows), default=0))]
    texts = []
    for row in rows:
        pieces = [name if c == 1 else f"{c}*{name}" for c, name in zip(row, names) if c]
        if row and row[0]:
            pieces[0] = str(row[0])  # z^0 has no name
        texts.append(" + ".join(pieces) or "0")
    return texts


class BettiVector(Record):
    """Betti numbers (b0, b1, b2, b3, b4) of a surface; always Poincare-dual."""

    __slots__ = ("b0", "b1", "b2", "b3", "b4")

    def __init__(self, b0: int, b1: int, b2: int, b3: int, b4: int) -> None:
        betti = (b0, b1, b2, b3, b4)
        if not all(type(b) is int and b >= 0 for b in betti):
            raise ValueError(f"Betti numbers must be integers >= 0: {betti!r}")
        if b0 != b4 or b1 != b3:
            raise ValueError(f"Betti vector {betti} is not Poincare-dual (b0=b4, b1=b3 required)")
        Record.__init__(self, *betti)

    def as_tuple(self) -> tuple[int, int, int, int, int]:
        return (self.b0, self.b1, self.b2, self.b3, self.b4)

    def total(self) -> int:
        return sum(self.as_tuple())

    def euler(self) -> int:
        return self.b0 - self.b1 + self.b2 - self.b3 + self.b4


def _rows(
    trunc: int, factors: Iterable[tuple[int, ...]], width: int, rows: list[int] | None = None
) -> list[int]:
    """Rows 0..trunc of the product of ``(1 + s z^a q^m)^e``, each packed as the
    integer value of its z-polynomial at z = 2^width; ``rows``, if given, holds
    the packed rows of a series to multiply (Goettsche's b2 seed) and is
    multiplied in place.  :func:`euler_product_power` calls it at width 0 and
    :func:`gottsche_series` at the width of its digits.

    A factor with e >= 0 multiplies the rows in place from the top down, so
    that a row reads only rows not yet multiplied; one with e < 0 divides them
    by ``(1 + s z^a q^m)^-e`` from the bottom up, so that a row reads only rows
    already divided.  Packing is a ring map, so every step is exact whatever
    the width, even where a partial product has negative coefficients; the
    width only decides whether the finished product's digits can be read back.
    A unit factor, ``1 + z^a q^m`` or ``1 / (1 - z^a q^m)``, runs without a multiply.
    """
    if rows is None:
        rows = [1] + [0] * trunc
    for a, m, s, e in factors:
        order = range(m, trunc + 1) if e < 0 else range(trunc, m - 1, -1)
        if e == s and s in (1, -1):  # a unit factor
            shift = a * width
            for n in order:
                rows[n] += rows[n - m] << shift
            continue
        sign = -1 if e < 0 else 1
        steps = [
            (j * m, sign * s**j * math.comb(abs(e), j), j * a * width)
            for j in range(1, min(abs(e), trunc // m) + 1)
        ]
        for n in order:
            row = rows[n]
            for jm, c, shift in steps:
                if jm > n:
                    break
                row += c * rows[n - jm] << shift
            rows[n] = row
    return rows


def _law_rows(rows: list[int], psi: Callable[[int], int], top: int, label: str) -> list[int]:
    """Extend ``rows``, the known prefix f_0..f_m of a series F with f_0 = 1, in
    place to f_top, from the Adams operations ``psi(r)`` of F's generator.

    t F'/F has b_N = sum_{r | N} (N/r) psi(r) at t^N (the lambda-ring law), built
    once for N <= top with one ``psi`` call per r, and Euler's logarithmic
    derivative gives n f_n = sum_{k=1..n} b_k f_(n-k), one row in O(n) integer
    steps.  A division by n that leaves a remainder raises
    InternalInvariantError, its message ``label`` with n in place of ``{}``.
    """
    b = [psi(r) for r in range(1, top + 1)]  # r = N
    for r, p in enumerate(b[: top // 2], 1):  # r < N: N = q r, q >= 2
        for q, at in enumerate(range(2 * r - 1, top, r), 2):
            b[at] += q * p
    for n in range(len(rows), top + 1):
        f, rest = divmod(sum(map(operator.mul, b, reversed(rows))), n)
        if rest:
            raise InternalInvariantError(
                f"{label.format(n)}: the divisor sum leaves {rest} mod {n}"
            )
        rows.append(f)
    return rows


def _check_trunc(trunc: int) -> None:
    if type(trunc) is not int or trunc < 0:
        raise ValueError(f"truncation order must be an integer >= 0, got {trunc!r}")


def euler_product_power(c: int, trunc: int) -> list[int]:
    """Rows 0..trunc of ``prod_{m=1..trunc} (1 - q^m)^(-c)`` for any integer c."""
    if type(c) is not int:
        raise ValueError(f"the power must be an integer, got {c!r}")
    _check_trunc(trunc)
    return _rows(trunc, ((0, m, -1, -c) for m in range(1, trunc + 1)), 0)


def sym_power_totals(h_plus: int, h_minus: int, trunc: int) -> tuple[tuple[int, int], ...]:
    """(euler, hh) of sym^n D for n = 0..trunc, for a category D whose Hochschild
    homology has h_plus even and h_minus odd dimensions.

    The law reads them off two z-free products::

        sum_n euler(sym^n D) t^n = prod_k (1 - t^k)^(-(h_plus - h_minus))
        sum_n hh(sym^n D) t^n    = prod_k (1 + t^k)^h_minus (1 - t^k)^(-h_plus)

    both by :func:`_law_rows`, with psi(r) = h_plus - h_minus and
    h_plus + (-1)^(r+1) h_minus: O(trunc^2) integer steps whatever the exponents.
    For a surface with Betti vector b, h_plus = b0 + b2 + b4 and h_minus = b1 + b3,
    and these are :func:`gottsche_series` at z = -1 and z = 1; that series,
    built by the binomial kernel, stays the independent check of the law.
    """
    if type(h_plus) is not int or type(h_minus) is not int:
        raise ValueError(f"each of h+ and h- must be an integer, got ({h_plus!r}, {h_minus!r})")
    _check_trunc(trunc)
    where = f" of sym^{{}} of (h+, h-) = ({h_plus}, {h_minus})"
    eulers = _law_rows([1], lambda r: h_plus - h_minus, trunc, "euler" + where)
    hhs = _law_rows([1], lambda r: h_plus + (-1) ** (r + 1) * h_minus, trunc, "hh" + where)
    return tuple(zip(eulers, hhs))


def gottsche_series(b: BettiVector, trunc: int) -> list[list[int]]:
    """Goettsche's Betti-number generating function for Hilbert schemes.

    sum_n P(Hilb^n S, z) q^n =
        prod_{m>=1} (1 + z^(2m-1) q^m)^b1 (1 + z^(2m+1) q^m)^b3
                    / [(1 - z^(2m-2) q^m)^b0 (1 - z^2m q^m)^b2 (1 - z^(2m+2) q^m)^b4]

    Row n, for n = 0..trunc, is the Poincare polynomial of Hilb^n(S) for a
    surface S with Betti vector ``b``, as its 4n + 1 coefficients.  This
    formula is imported from the classical literature; nothing in this
    package rederives it.

    In u = z^2 q the b2 family is the z-free ``P(u)^b2``, P the partition
    series, and :func:`_rows` multiplies in the b0, b1, b3 and b4 families
    with nonzero power, packing z^2, not z, when b1 = b3 = 0.  Each
    coefficient is a Betti number, >= 0 and at most q(n; total Betti) (the
    z = 1 value, bounded coefficientwise by ``prod_m (1 - q^m)^(-total)``,
    read by :func:`_law_rows`), so W is the bit length of q(trunc; total) in
    whole bytes, rounded up to 1, 2, 4 or 8 up to 8 bytes: one
    ``int.to_bytes`` lays a row out and one ``memoryview`` cast, or one
    unsigned slice a digit, reads it.  The bound only sizes the digits; the
    kernel values them.  P^k has digits q(n; k) < 2^W for k <= b2, so P
    packed at W squares up to P^b2, each product masked to trunc + 1 digits,
    with no digit carried; its digit n seeds packed row n at z^(2n).
    """
    _check_trunc(trunc)
    step = 1 if b.b1 else 2  # the z-step: with b1 = b3 = 0 the rows pack z^2
    # b0, b1, b3, b4 come with z^(2m-2), z^(2m-1), z^(2m+1), z^(2m+2); b0 and b4
    # are in the denominator
    families = [(-2, -1, b.b0), (-1, 1, b.b1), (1, 1, b.b3), (2, -1, b.b4)]
    factors = [
        ((2 * m + da) // step, m, s, s * power)
        for m in range(1, trunc + 1)
        for da, s, power in families
        if power
    ]
    total = b.total()
    bound = _law_rows([1], lambda r: total, trunc, f"q({{}};{total})")[-1]
    size = (bound.bit_length() + 7) // 8 or 1  # W / 8
    if size <= 8:
        size = 1 << (size - 1).bit_length()
    width = 8 * size
    base = sum(p << width * n for n, p in enumerate(euler_product_power(1, trunc)))
    seed, power, mask = 1, b.b2, (1 << width * (trunc + 1)) - 1
    while power:  # P^b2; no power past b2 is formed
        if power & 1:
            seed = seed * base & mask
        power >>= 1
        if power:
            base = base * base & mask
    digit, shift = (1 << width) - 1, 2 // step * width
    rows = [(seed >> width * n & digit) << shift * n for n in range(trunc + 1)]
    _rows(trunc, factors, width, rows)
    cast, order, polys = _CASTS.get(size), sys.byteorder, []
    for n, row in enumerate(rows):
        length = (4 * n // step + 1) * size
        raw = row.to_bytes(length, order)
        if cast:
            digits = memoryview(raw).cast(cast).tolist()
        else:
            digits = [int.from_bytes(raw[at : at + size], order) for at in range(0, length, size)]
        if order == "big":
            digits.reverse()
        if step > 1:
            dense = [0] * (4 * n + 1)
            dense[::step] = digits
            digits = dense
        polys.append(digits)
    return polys


def macdonald_poincare(g: int, a: int) -> list[int]:
    """Poincare polynomial of Sym^a(C) for a curve C of genus g, as the dense
    row of its z^0..z^(2a) coefficients.

    Coefficient of t^a in Macdonald's generating function
    ``(1 + z t)^(2g) / ((1 - t)(1 - z^2 t))`` (classical; imported).
    """
    if type(g) is not int or g < 0:
        raise ValueError(f"the genus must be an integer >= 0, got {g!r}")
    _check_trunc(a)
    row = [0] * (2 * a + 1)
    for k in range(0, min(2 * g, a) + 1):
        c = math.comb(2 * g, k)
        for e in range(k, 2 * a - k + 1, 2):
            row[e] += c
    return row

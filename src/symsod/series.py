"""Truncated bivariate power series with exact integer coefficients.

A :class:`TruncatedSeries` is a polynomial in the weight variable ``q``
truncated at a fixed order ``N``, whose q-coefficients are Laurent
polynomials in a second variable ``z`` (stored as ``{z_exponent: int}``
dicts; negative z-exponents are allowed so the same carrier serves graded
invariants).

On top of the ring operations the module provides three generating
functions used as analytic oracles by the rest of the package:

* :func:`eta_inverse_power` -- the Euler product ``prod (1 - q^m)^(-l)``
  whose q^n coefficient is ``q(n; l)``,
* :func:`gottsche_series` -- Goettsche's formula for the Poincare
  polynomials of the Hilbert schemes of points of a surface (a classical
  result, quoted from the literature),
* :func:`macdonald_poincare` -- Macdonald's formula for the Poincare
  polynomial of a symmetric power of a curve (likewise classical).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

LaurentPoly = dict[int, int]


def poly_eval(poly: LaurentPoly, z: int) -> int:
    """Evaluate a Laurent polynomial at an integer z (z = +-1 in practice)."""
    if z == 0 and any(e < 0 for e in poly):
        raise ZeroDivisionError("Laurent polynomial with negative exponents at z=0")
    return sum(c * z**e for e, c in poly.items())


def poly_str(poly: LaurentPoly) -> str:
    """Render a Laurent polynomial as e.g. ``1 + 2*z^2 + z^4``."""
    if not poly:
        return "0"
    pieces = []
    for e in sorted(poly):
        c = poly[e]
        if e == 0:
            pieces.append(str(c))
        else:
            var = "z" if e == 1 else f"z^{e}"
            pieces.append(var if c == 1 else f"{c}*{var}")
    return " + ".join(pieces)


@dataclass(frozen=True)
class BettiVector:
    """Betti numbers (b0, b1, b2, b3, b4) of a surface; always Poincare-dual."""

    b0: int
    b1: int
    b2: int
    b3: int
    b4: int

    def __post_init__(self) -> None:
        if any(b < 0 for b in self.as_tuple()):
            raise ValueError(f"Betti numbers must be >= 0: {self.as_tuple()}")
        if self.b0 != self.b4 or self.b1 != self.b3:
            raise ValueError(
                f"Betti vector {self.as_tuple()} is not Poincare-dual (b0=b4, b1=b3 required)"
            )

    def as_tuple(self) -> tuple[int, int, int, int, int]:
        return (self.b0, self.b1, self.b2, self.b3, self.b4)

    def total(self) -> int:
        return sum(self.as_tuple())

    def euler(self) -> int:
        return self.b0 - self.b1 + self.b2 - self.b3 + self.b4

    def poincare_poly(self) -> LaurentPoly:
        return {i: b for i, b in enumerate(self.as_tuple()) if b != 0}


def _clean(coeffs: dict[int, LaurentPoly]) -> dict[int, LaurentPoly]:
    out: dict[int, LaurentPoly] = {}
    for n, poly in coeffs.items():
        nz = {e: c for e, c in poly.items() if c != 0}
        if nz:
            out[n] = nz
    return out


@dataclass(frozen=True)
class TruncatedSeries:
    """Integer series in q (truncated at order ``trunc``) and Laurent z."""

    trunc: int
    coeffs: dict[int, LaurentPoly]

    def __post_init__(self) -> None:
        if self.trunc < 0:
            raise ValueError("truncation order must be >= 0")
        if any(n < 0 or n > self.trunc for n in self.coeffs):
            raise ValueError("stored q-degrees must lie in [0, trunc]")
        object.__setattr__(self, "coeffs", _clean(self.coeffs))

    @classmethod
    def one(cls, trunc: int) -> "TruncatedSeries":
        return cls(trunc, {0: {0: 1}})

    def q_coefficient(self, n: int) -> LaurentPoly:
        """The coefficient of q^n, as a fresh Laurent-polynomial dict."""
        if n < 0 or n > self.trunc:
            raise ValueError(f"q-degree {n} outside truncation order {self.trunc}")
        return dict(self.coeffs.get(n, {}))

    def q_coefficient_at(self, n: int, z: int) -> int:
        return poly_eval(self.coeffs.get(n, {}), z)

    def _require_same_trunc(self, other: "TruncatedSeries") -> None:
        if self.trunc != other.trunc:
            raise ValueError(
                f"mismatched truncation orders: {self.trunc} vs {other.trunc}"
            )

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._require_same_trunc(other)
        coeffs = {n: dict(p) for n, p in self.coeffs.items()}
        for n, poly in other.coeffs.items():
            tgt = coeffs.setdefault(n, {})
            for e, c in poly.items():
                tgt[e] = tgt.get(e, 0) + c
        return TruncatedSeries(self.trunc, coeffs)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._require_same_trunc(other)
        coeffs: dict[int, LaurentPoly] = {}
        for n1, p1 in self.coeffs.items():
            for n2, p2 in other.coeffs.items():
                n = n1 + n2
                if n > self.trunc:
                    continue
                tgt = coeffs.setdefault(n, {})
                for e1, c1 in p1.items():
                    for e2, c2 in p2.items():
                        e = e1 + e2
                        tgt[e] = tgt.get(e, 0) + c1 * c2
        return TruncatedSeries(self.trunc, coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.trunc == other.trunc and self.coeffs == other.coeffs

    def __str__(self) -> str:
        rows = [f"q^{n}: {poly_str(self.coeffs.get(n, {}))}" for n in range(self.trunc + 1)]
        return "\n".join(rows)


def _binomial_plus_factor(trunc: int, z_exp: int, q_exp: int, power: int) -> TruncatedSeries:
    """(1 + z^a q^m)^b truncated at q^trunc; the finite binomial expansion."""
    coeffs: dict[int, LaurentPoly] = {}
    for j in range(0, min(power, trunc // q_exp) + 1):
        coeffs[j * q_exp] = {j * z_exp: math.comb(power, j)}
    return TruncatedSeries(trunc, coeffs)


def _binomial_inverse_factor(trunc: int, z_exp: int, q_exp: int, power: int) -> TruncatedSeries:
    """(1 - z^a q^m)^(-b) truncated at q^trunc, via C(j + b - 1, j) coefficients."""
    coeffs: dict[int, LaurentPoly] = {}
    for j in range(0, trunc // q_exp + 1):
        c = math.comb(j + power - 1, j) if power > 0 else (1 if j == 0 else 0)
        if c:
            coeffs[j * q_exp] = {j * z_exp: c}
    return TruncatedSeries(trunc, coeffs)


def euler_product_power(c: int, trunc: int) -> TruncatedSeries:
    """``prod_{m=1..trunc} (1 - q^m)^(-c)`` for any integer c (z-free)."""
    result = TruncatedSeries.one(trunc)
    for m in range(1, trunc + 1):
        if c >= 0:
            factor = _binomial_inverse_factor(trunc, 0, m, c)
        else:
            # positive power (1 - q^m)^(-c): finite alternating binomial
            coeffs: dict[int, LaurentPoly] = {}
            for j in range(0, min(-c, trunc // m) + 1):
                coeffs[j * m] = {0: (-1) ** j * math.comb(-c, j)}
            factor = TruncatedSeries(trunc, coeffs)
        result = result * factor
    return result


def eta_inverse_power(l: int, trunc: int) -> TruncatedSeries:
    """``prod_{m=1..trunc} (1 - q^m)^(-l)``; q^n coefficient equals q(n; l)."""
    if l < 0:
        raise ValueError(f"l must be >= 0, got {l}")
    if trunc < 1:
        raise ValueError(f"truncation order must be >= 1, got {trunc}")
    return euler_product_power(l, trunc)


def gottsche_series(b: BettiVector, trunc: int) -> TruncatedSeries:
    """Goettsche's Betti-number generating function for Hilbert schemes.

    sum_n P(Hilb^n S, z) q^n =
        prod_{m>=1} (1 + z^(2m-1) q^m)^b1 (1 + z^(2m+1) q^m)^b3
                    / [(1 - z^(2m-2) q^m)^b0 (1 - z^2m q^m)^b2 (1 - z^(2m+2) q^m)^b4]

    The q^n coefficient is the Poincare polynomial of Hilb^n(S) for a surface
    S with Betti vector ``b``.  This formula is imported from the classical
    literature; nothing in this package rederives it.
    """
    if trunc < 1:
        raise ValueError(f"truncation order must be >= 1, got {trunc}")
    result = TruncatedSeries.one(trunc)
    for m in range(1, trunc + 1):
        for z_exp, power in ((2 * m - 1, b.b1), (2 * m + 1, b.b3)):
            if power:
                result = result * _binomial_plus_factor(trunc, z_exp, m, power)
        for z_exp, power in ((2 * m - 2, b.b0), (2 * m, b.b2), (2 * m + 2, b.b4)):
            if power:
                result = result * _binomial_inverse_factor(trunc, z_exp, m, power)
    return result


def macdonald_poincare(g: int, a: int) -> LaurentPoly:
    """Poincare polynomial of Sym^a(C) for a curve C of genus g.

    Coefficient of t^a in Macdonald's generating function
    ``(1 + z t)^(2g) / ((1 - t)(1 - z^2 t))`` (classical; imported).
    """
    if g < 0 or a < 0:
        raise ValueError(f"need g >= 0 and a >= 0, got g={g}, a={a}")
    poly: LaurentPoly = {}
    for k in range(0, min(2 * g, a) + 1):
        c = math.comb(2 * g, k)
        for j in range(0, a - k + 1):
            e = k + 2 * j
            poly[e] = poly.get(e, 0) + c
    return {e: c for e, c in poly.items() if c != 0}

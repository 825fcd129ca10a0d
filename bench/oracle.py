"""Independent integer oracle for the benchmark's checks.

Plain integer code that imports nothing from ``symsod``.  Every product is
expanded with the logarithmic-derivative recurrence

    F = prod_m (1 - q^m)^(-c) * (1 + q^m)^a,    n * [q^n]F = sum_k h_k [q^(n-k)]F,

with ``h_k = c * sigma(k) + a * sum_{d | k} (-1)^(k/d + 1) d``.  The package
multiplies binomial factors instead, so the two routes share no code.

* ``[q^n] prod (1 - q^m)^(-c)`` gives p(n) (c = 1), q(n; l) (c = l) and
  Euler numbers (c = chi).
* Goettsche's series at z = -1 is ``prod (1 - q^m)^(-chi)``; at z = 1 it is
  ``prod (1 + q^m)^(b1 + b3) (1 - q^m)^(-(b0 + b2 + b4))``.
* The curve-power series ``prod_i M(t^i)`` at z = 1 is
  ``prod (1 + t^i)^(2g) (1 - t^i)^(-2)``; at z = -1 it is
  ``prod (1 - t^i)^(2g - 2)``.
"""

from __future__ import annotations

from functools import lru_cache


def _divisors(k: int) -> list[int]:
    return [d for d in range(1, k + 1) if k % d == 0]


@lru_cache(maxsize=None)
def product_coeffs(c: int, a: int, top: int) -> tuple[int, ...]:
    """Coefficients q^0..q^top of prod_m (1 - q^m)^(-c) (1 + q^m)^a."""
    h = [0] * (top + 1)
    for k in range(1, top + 1):
        for d in _divisors(k):
            h[k] += c * d + a * d * (1 if (k // d) % 2 == 1 else -1)
    out = [1]
    for n in range(1, top + 1):
        total = sum(h[k] * out[n - k] for k in range(1, n + 1))
        value, rest = divmod(total, n)
        if rest:
            raise ArithmeticError(f"non-integer coefficient at q^{n}")
        out.append(value)
    return tuple(out)


def euler_power(c: int, n: int) -> int:
    """[q^n] prod (1 - q^m)^(-c) for any integer c."""
    return product_coeffs(c, 0, n)[n]


def p(n: int) -> int:
    return euler_power(1, n)


def q(n: int, l: int) -> int:
    """q(n; l): length of the exceptional collection of sym^n of l points."""
    return euler_power(l, n)


def hilb_euler(betti: tuple[int, ...], n: int) -> int:
    b0, b1, b2, b3, b4 = betti
    return euler_power(b0 - b1 + b2 - b3 + b4, n)


def hilb_total_betti(betti: tuple[int, ...], n: int) -> int:
    b0, b1, b2, b3, b4 = betti
    return product_coeffs(b0 + b2 + b4, b1 + b3, n)[n]


def curve_power_euler(g: int, n: int) -> int:
    return euler_power(2 - 2 * g, n)


def curve_power_hh(g: int, n: int) -> int:
    return product_coeffs(2, 2 * g, n)[n]

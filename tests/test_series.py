import math
import random

import pytest

from symsod.series import (
    BettiVector,
    TruncatedSeries,
    _product,
    eta_inverse_power,
    euler_product_power,
    gottsche_series,
    macdonald_poincare,
    poly_eval,
    poly_str,
)


def test_mul_unit_and_simple_product():
    one = TruncatedSeries.one(2)
    a = TruncatedSeries(2, {0: {0: 1}, 1: {0: 1}})  # 1 + q
    b = TruncatedSeries(2, {0: {0: 1}, 1: {0: -1}})  # 1 - q
    assert a * one == a
    assert a * b == TruncatedSeries(2, {0: {0: 1}, 2: {0: -1}})  # 1 - q^2


def test_q_coefficients_outside_the_truncation_order_raise():
    s = gottsche_series(BettiVector(1, 0, 1, 0, 1), 3)
    for n in (s.trunc + 1, -1, 9):
        with pytest.raises(ValueError, match="outside truncation order 3"):
            s.q_coefficient(n)
        for z in (1, -1):
            with pytest.raises(ValueError, match="outside truncation order 3"):
                s.q_coefficient_at(n, z)


def test_mul_requires_equal_truncation():
    with pytest.raises(ValueError, match="mismatched truncation"):
        TruncatedSeries.one(2) * TruncatedSeries.one(3)


def test_negative_z_exponents_are_carried():
    a = TruncatedSeries(1, {0: {-2: 1}})
    sq = a * a
    assert sq.q_coefficient(0) == {-4: 1}


def test_truncation_bounds_enforced():
    with pytest.raises(ValueError):
        TruncatedSeries(2, {3: {0: 1}})


def test_euler_product_negative_power():
    # prod (1-q^m)^2 for chi = -2; inverse of the square of the l=1 product
    pos = euler_product_power(-2, 8)
    inv = eta_inverse_power(2, 8)
    assert pos * inv == TruncatedSeries.one(8)


def test_betti_vector_duality_validation():
    with pytest.raises(ValueError):
        BettiVector(1, 2, 3, 4, 5)
    assert BettiVector(1, 2, 3, 2, 1).total() == 9
    assert BettiVector(1, 0, 1, 0, 1).euler() == 3


def test_gottsche_low_coefficients():
    b = BettiVector(1, 0, 1, 0, 1)
    s = gottsche_series(b, 4)
    assert s.q_coefficient(0) == {0: 1}
    assert s.q_coefficient(1) == b.poincare_poly()  # Hilb^1 = the surface


def test_macdonald_trivial_and_known():
    assert macdonald_poincare(3, 0) == {0: 1}
    assert macdonald_poincare(1, 1) == {0: 1, 1: 2, 2: 1}
    assert macdonald_poincare(0, 3) == {0: 1, 2: 1, 4: 1, 6: 1}  # Sym^3 P^1 = P^3


def test_poly_helpers():
    assert poly_str({}) == "0"
    assert poly_str({0: 1, 2: 1, 4: 3}) == "1 + z^2 + 3*z^4"
    assert poly_eval({0: 2, 1: 3}, -1) == -1


def test_poly_eval_at_plus_minus_one_is_the_power_sum():
    # z = +-1 take the parity-sum path; negative exponents included
    rng = random.Random(0)
    for _ in range(200):
        poly = {rng.randint(-9, 9): rng.randint(-50, 50) for _ in range(rng.randint(0, 8))}
        for z in (1, -1):
            assert poly_eval(poly, z) == sum(c * z**e for e, c in poly.items())
    assert poly_eval({0: 1, 2: 5}, 2) == 21  # other z keep the general path


def test_gottsche_k3_hilbert_square_anchor():
    # frozen classical value: the Hilbert square of a K3 surface has total
    # cohomology dimension 324 (1 + 23 + 276 + 23 + 1), all even degree
    s = gottsche_series(BettiVector(1, 0, 22, 0, 1), 2)
    assert s.q_coefficient_at(2, 1) == 324
    assert s.q_coefficient_at(2, -1) == 324
    poly = s.q_coefficient(2)
    assert poly[0] == 1 and poly[2] == 23 and poly[4] == 276


def test_macdonald_euler_generating_identity():
    # sum over a of euler(Sym^a C) t^a = (1 - t)^(2g - 2); check coefficients
    import math as _math

    for g in range(4):
        power = 2 * g - 2
        for a in range(9):
            if power >= 0:
                expected = (-1) ** a * _math.comb(power, a)
            else:
                expected = _math.comb(a - power - 1, a)
            assert poly_eval(macdonald_poincare(g, a), -1) == expected


def _factor(trunc, z_exp, q_exp, coefficient):
    """sum_j coefficient(j) z^(j z_exp) q^(j q_exp), truncated at q^trunc."""
    terms = {j * q_exp: {j * z_exp: coefficient(j)} for j in range(trunc // q_exp + 1)}
    return TruncatedSeries(trunc, terms)


def _product_by_mul(trunc, factors):
    """The product of (1 + sign z^a q^m)^power over (a, m, sign, power), by __mul__."""
    result = TruncatedSeries.one(trunc)
    for a, m, sign, power in factors:
        if power >= 0:
            factor = _factor(trunc, a, m, lambda j: sign**j * math.comb(power, j))
        else:
            factor = _factor(trunc, a, m, lambda j: (-sign) ** j * math.comb(j - power - 1, j))
        result = result * factor
    return result


def test_product_kernel_equals_the_generic_product():
    rng = random.Random(0)
    vectors = [(0, 0, 0, 0, 0), (0, 3, 0, 3, 0), (2, 1, 5, 1, 2), (1, 0, 60, 0, 1)]
    vectors += [(1, b1, rng.randint(0, 60), b1, 1) for b1 in (0, 0, 1, 2, 3)]
    vectors += [(1, 0, 10**6, 0, 1), (1, 2, 10**6, 2, 1)]  # packed digits many bytes wide
    for b in vectors:
        for trunc in range(1, 13):
            factors = [
                (a, m, sign, sign * betti)
                for m in range(1, trunc + 1)
                for a, sign, betti in zip(range(2 * m - 2, 2 * m + 3), (-1, 1, -1, 1, -1), b)
            ]
            expected = _product_by_mul(trunc, factors)
            assert gottsche_series(BettiVector(*b), trunc) == expected, (b, trunc)
    for c in range(-4, 9):
        for trunc in range(1, 13):
            factors = [(0, m, -1, -c) for m in range(1, trunc + 1)]
            assert euler_product_power(c, trunc) == _product_by_mul(trunc, factors), (c, trunc)


def test_packed_kernel_decodes_signed_and_wide_coefficients():
    # random factor lists: s = +-1, e of both signs, 0 <= a <= z_slope m; the
    # results carry negative z-coefficients, and every fifth list has
    # exponents up to 10**6, so its packed digits are many bytes wide
    rng = random.Random(1)
    signed = 0
    for case in range(60):
        trunc = 30 if case % 6 == 0 else rng.randint(1, 14)
        z_slope = rng.randint(0, 4)
        largest = 10**6 if case % 5 == 0 else 4
        factors = [
            (rng.randint(0, z_slope * m), m, rng.choice((-1, 1)), e)
            for m, e in (
                (rng.randint(1, trunc), rng.choice((-1, 1)) * rng.randint(1, largest))
                for _ in range(rng.randint(1, 4))
            )
        ]
        product = _product(trunc, z_slope, factors)
        assert product == _product_by_mul(trunc, factors), (trunc, z_slope, factors)
        signed += any(c < 0 for poly in product.coeffs.values() for c in poly.values())
    assert signed >= 20

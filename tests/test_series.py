import math
import random
import sys

import pytest

from symsod import series
from symsod.expr import InternalInvariantError
from symsod.partitions import q_length
from symsod.series import (
    BettiVector,
    _rows,
    euler_product_power,
    gottsche_series,
    macdonald_poincare,
    poly_eval,
    poly_strs,
    sym_power_totals,
)


def test_euler_product_negative_power():
    # prod (1-q^m)^2 for chi = -2 is the inverse of the l = 2 product: their
    # convolution is 1 to order 8
    pos = euler_product_power(-2, 8)
    inv = euler_product_power(2, 8)
    assert [sum(pos[k] * inv[n - k] for k in range(n + 1)) for n in range(9)] == [1] + [0] * 8


def test_betti_vector_duality_validation():
    with pytest.raises(ValueError):
        BettiVector(1, 2, 3, 4, 5)
    assert BettiVector(1, 2, 3, 2, 1).total() == 9
    assert BettiVector(1, 0, 1, 0, 1).euler() == 3


@pytest.mark.parametrize(
    "b", [(1, 0, 1.5, 0, 1), (True, 0, 1, 0, True), (1, 0, 1, 0, 1.0), (1, 0, -1, 0, 1)]
)
def test_betti_vector_refuses_non_integers_and_negatives(b):
    with pytest.raises(ValueError, match="must be integers >= 0"):
        BettiVector(*b)


@pytest.mark.parametrize(
    "route, args",
    [
        pytest.param(euler_product_power, (2, -1), id="euler-order-minus-1"),
        pytest.param(euler_product_power, (2, 3.0), id="euler-float-order"),
        pytest.param(euler_product_power, (2.5, 3), id="euler-float-power"),
        pytest.param(euler_product_power, (True, 3), id="euler-bool-power"),
        pytest.param(euler_product_power, (2, True), id="euler-bool-order"),
        pytest.param(gottsche_series, (BettiVector(1, 0, 1, 0, 1), -1), id="gottsche-order-minus-1"),
        pytest.param(gottsche_series, (BettiVector(1, 0, 1, 0, 1), 2.0), id="gottsche-float-order"),
        pytest.param(gottsche_series, (BettiVector(1, 0, 1, 0, 1), True), id="gottsche-bool-order"),
        pytest.param(sym_power_totals, (3.0, 0, 2), id="totals-float-h-plus"),
        pytest.param(sym_power_totals, (3, True, 2), id="totals-bool-h-minus"),
        pytest.param(sym_power_totals, (3, 0, -1), id="totals-order-minus-1"),
        pytest.param(sym_power_totals, (3, 0, 2.0), id="totals-float-order"),
        pytest.param(macdonald_poincare, (1.5, 2), id="macdonald-float-genus"),
        pytest.param(macdonald_poincare, (True, 2), id="macdonald-bool-genus"),
        pytest.param(macdonald_poincare, (-1, 2), id="macdonald-genus-minus-1"),
        pytest.param(macdonald_poincare, (1, -1), id="macdonald-power-minus-1"),
        pytest.param(macdonald_poincare, (1, 2.0), id="macdonald-float-power"),
    ],
)
def test_series_entry_points_refuse_non_integer_or_short_orders(route, args):
    with pytest.raises(ValueError, match="must be an integer"):
        route(*args)


def test_euler_product_power_to_order_zero_is_the_unit():
    assert euler_product_power(5, 0) == [1]
    # like every other series entry point, Goettsche's series accepts order 0
    assert gottsche_series(BettiVector(1, 2, 3, 2, 1), 0) == [[1]]


def test_macdonald_trivial_and_known():
    assert macdonald_poincare(3, 0) == [1]
    assert macdonald_poincare(1, 1) == [1, 2, 1]
    assert macdonald_poincare(0, 3) == [1, 0, 1, 0, 1, 0, 1]  # Sym^3 P^1 = P^3
    with pytest.raises(ValueError, match="degree must be an integer >= 0, got -1"):
        macdonald_poincare(1, -1)
    # 2a + 1 entries whatever the genus: z^(2a) is the top class
    assert all(len(macdonald_poincare(g, a)) == 2 * a + 1 for g in range(5) for a in range(7))


def test_poly_helpers():
    assert poly_strs([]) == []
    assert poly_strs([[], [0, 0], [1, 0, 1, 0, 3]]) == ["0", "0", "1 + z^2 + 3*z^4"]
    assert poly_strs([[5, -1, 0, 2], [0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]]) == [
        "5 + -1*z + 2*z^3",
        "z + z^11",
    ]
    assert poly_eval([2, 3], -1) == -1


def _poly_str(row):
    """The rendering of one dense row, term by term."""
    terms = [
        str(c) if e == 0 else f"{'' if c == 1 else f'{c}*'}{'z' if e == 1 else f'z^{e}'}"
        for e, c in enumerate(row)
        if c
    ]
    return " + ".join(terms) or "0"


def test_poly_strs_renders_each_row_as_alone():
    # the names are built once for the longest row; every row reads as if
    # rendered by itself
    rng = random.Random(2)
    for _ in range(100):
        rows = [
            [rng.choice((0, 0, 1, -1, rng.randint(-99, 99))) for _ in range(rng.randint(0, 14))]
            for _ in range(rng.randint(0, 6))
        ]
        assert poly_strs(rows) == [_poly_str(row) for row in rows], rows
        assert [poly_strs([row])[0] for row in rows] == [_poly_str(row) for row in rows]


def test_poly_eval_at_plus_minus_one_is_the_power_sum():
    # z = +-1 take the parity-sum path
    rng = random.Random(0)
    for _ in range(200):
        row = [rng.randint(-50, 50) for _ in range(rng.randint(0, 12))]
        for z in (1, -1):
            assert poly_eval(row, z) == sum(c * z**e for e, c in enumerate(row))
    for z in (2, 0, -2):
        with pytest.raises(ValueError, match="z = 1 or z = -1"):
            poly_eval([1, 0, 5], z)


def test_gottsche_k3_hilbert_square_anchor():
    # frozen classical value: the Hilbert square of a K3 surface has total
    # cohomology dimension 324 (1 + 23 + 276 + 23 + 1), all even degree
    poly = gottsche_series(BettiVector(1, 0, 22, 0, 1), 2)[2]
    assert poly_eval(poly, 1) == 324
    assert poly_eval(poly, -1) == 324
    assert poly == [1, 0, 23, 0, 276, 0, 23, 0, 1]


def test_macdonald_euler_generating_identity():
    # sum over a of euler(Sym^a C) t^a = (1 - t)^(2g - 2); check coefficients
    for g in range(4):
        power = 2 * g - 2
        for a in range(9):
            if power >= 0:
                expected = (-1) ** a * math.comb(power, a)
            else:
                expected = math.comb(a - power - 1, a)
            assert poly_eval(macdonald_poincare(g, a), -1) == expected


def _mul(a, b):
    """The product of two row lists of Laurent polynomials, truncated where they are."""
    rows = [{} for _ in a]
    for n, p in enumerate(a):
        for q, row in zip(b, rows[n:]):
            for e1, c1 in p.items():
                for e2, c2 in q.items():
                    row[e1 + e2] = row.get(e1 + e2, 0) + c1 * c2
    return [{e: c for e, c in row.items() if c} for row in rows]


def _factor(trunc, z_exp, q_exp, coefficient):
    """Rows 0..trunc of sum_j coefficient(j) z^(j z_exp) q^(j q_exp)."""
    rows = [{} for _ in range(trunc + 1)]
    for j in range(trunc // q_exp + 1):
        rows[j * q_exp] = {j * z_exp: coefficient(j)}
    return rows


def _dense(rows, z_slope):
    """Dict rows as dense rows: row n lists its z^0..z^(z_slope n) coefficients."""
    assert all(0 <= e <= z_slope * n for n, row in enumerate(rows) for e in row)
    return [[row.get(e, 0) for e in range(z_slope * n + 1)] for n, row in enumerate(rows)]


def _product_by_mul(trunc, factors):
    """The product of (1 + sign z^a q^m)^power over (a, m, sign, power), by _mul."""
    result = [{0: 1}] + [{} for _ in range(trunc)]
    for a, m, sign, power in factors:
        if power >= 0:
            factor = _factor(trunc, a, m, lambda j: sign**j * math.comb(power, j))
        else:
            factor = _factor(trunc, a, m, lambda j: (-sign) ** j * math.comb(j - power - 1, j))
        result = _mul(result, factor)
    return result


def _spy_rows(monkeypatch):
    """Patch ``series._rows`` to log the width and the factor list of each call."""
    calls = []
    real = series._rows

    def spy(trunc, factors, width, rows=None):
        factors = list(factors)
        calls.append((width, factors))
        return real(trunc, factors, width, rows)

    monkeypatch.setattr(series, "_rows", spy)
    return calls


def test_product_kernel_equals_the_generic_product(monkeypatch):
    # Goettsche's series in one packed kernel pass, from trunc 0 and the all-zero
    # Betti vector up: row n is its 4n + 1 coefficients, row 1 the surface itself.
    # Unsigned digits of 1, 2, 4 or 8 bytes are read by one memoryview cast, wider
    # ones by one slice each; each width with z-step 1 (b1 > 0) and z-step 2 (b1 = 0)
    calls = _spy_rows(monkeypatch)
    seen = set()
    rng = random.Random(0)
    vectors = [(0, 0, 0, 0, 0), (0, 3, 0, 3, 0), (2, 1, 5, 1, 2), (1, 0, 60, 0, 1)]
    # only the z-free b2 family (no packed factor); z-step 2 with no seed; odd only
    vectors += [(0, 0, 7, 0, 0), (1, 0, 0, 0, 1), (3, 0, 0, 0, 3), (0, 2, 0, 2, 0)]
    vectors += [(1, b1, rng.randint(0, 60), b1, 1) for b1 in (0, 0, 1, 2, 3)]
    vectors += [(1, 0, 10**6, 0, 1), (1, 2, 10**6, 2, 1)]  # packed digits many bytes wide
    vectors += [(b0, b1, b2, b1, b0) for b2 in (0, 40, 10**4, 10**9) for b0, b1 in ((1, 0), (2, 2))]
    vectors += [(1, 0, 1, 0, 1), (1, 2, 0, 2, 1)]
    # Theta^b1 by Miller's recurrence at large b1, and with no b0, b2 or b4 family
    vectors += [(1, 17, rng.randint(0, 60), 17, 1), (2, 1000, 5, 1000, 2), (0, 5, 0, 5, 0)]
    for b in vectors:
        for trunc in range(13):
            factors = [
                (a, m, sign, sign * betti)
                for m in range(1, trunc + 1)
                for a, sign, betti in zip(range(2 * m - 2, 2 * m + 3), (-1, 1, -1, 1, -1), b)
            ]
            calls.clear()
            expected = _dense(_product_by_mul(trunc, factors), 4)
            assert gottsche_series(BettiVector(*b), trunc) == expected, (b, trunc)
            [width] = [width for width, _ in calls if width]
            seen.add((width, 1 if b[1] else 2))
    cast = {8, 16, 32, 64}
    assert {(width, step) for width in cast for step in (1, 2)} <= seen
    assert {width for width, _ in seen} - cast  # the slice path ran
    assert {step for width, step in seen if width > 64} == {1, 2}
    for c in range(-4, 9):
        for trunc in range(1, 13):
            factors = [(0, m, -1, -c) for m in range(1, trunc + 1)]
            expected = [row.get(0, 0) for row in _product_by_mul(trunc, factors)]
            assert euler_product_power(c, trunc) == expected, (c, trunc)


def test_the_digit_bound_only_sizes_the_digits(monkeypatch):
    # the counterpart of test_the_law_and_q_length_never_run_the_kernel: a
    # bound raised past 2^70 widens every digit past 8 bytes, so the rows
    # decode by slices, yet they do not change, since the kernel values them
    cases = [((1, 0, 1, 0, 1), 4), ((1, 2, 3, 2, 1), 5), ((0, 0, 0, 0, 0), 3), ((2, 1, 40, 1, 2), 0)]
    expected = [gottsche_series(BettiVector(*b), trunc) for b, trunc in cases]
    law_rows = series._law_rows

    def inflated(rows, psi, top, label):
        return [f + (1 << 70) for f in law_rows(rows, psi, top, label)]

    monkeypatch.setattr(series, "_law_rows", inflated)
    calls = _spy_rows(monkeypatch)
    for (b, trunc), rows in zip(cases, expected):
        calls.clear()
        assert gottsche_series(BettiVector(*b), trunc) == rows, (b, trunc)
        [width] = [width for width, _ in calls if width]
        assert width > 64, (b, trunc)


def test_cast_formats_have_the_item_sizes_they_are_keyed_by():
    # P(u)^b2 alone ends in its digit bound q(2; b2) = b2 (b2 + 3) / 2, which at
    # b2 = 2^k - 1 sets the top bit of a 2k-bit digit: only an unsigned cast of
    # the digit's own size reads it back
    for k in (4, 8, 16, 32):
        b2 = 2**k - 1
        assert gottsche_series(BettiVector(0, 0, b2, 0, 0), 2)[2][4] == b2 * (b2 + 3) // 2


def test_wide_digits_decode_in_either_byte_order(monkeypatch):
    # the slice branch reads whatever order the row was laid out in; on a
    # big-endian host the digits come out last first and are turned round
    b = BettiVector(1, 2, 10**6, 2, 1)
    expected = gottsche_series(b, 5)
    monkeypatch.setattr(sys, "byteorder", "big")
    assert gottsche_series(b, 5) == expected


def test_gottsche_packs_only_the_b0_b4_families(monkeypatch):
    # the b2 family is z-free in u = z^2 q, and the b1 and b3 families are
    # P(u)^b1 Theta^b1 (Jacobi's triple product): the seed is the partition
    # series, the one width-0 call, raised to b2 + b1 by squaring, and Theta^b1
    # comes from Miller's recurrence, so no kernel call carries b1, b3, b2 or
    # b2 + b1 as a power; with b1 = b3 = 0 the packed factors carry z^2, so
    # their exponents are halved
    calls = _spy_rows(monkeypatch)
    for b, step in (((2, 5, 7, 5, 2), 1), ((3, 0, 7, 0, 3), 2), ((0, 0, 7, 0, 0), 2),
                    ((0, 5, 7, 5, 0), 1)):
        calls.clear()
        gottsche_series(BettiVector(*b), 6)
        [packed] = [factors for width, factors in calls if width]
        assert all(s == -1 and e == -b[0] for _, _, s, e in packed), b
        pairs = {(a, m) for a, m, _, _ in packed}
        assert pairs == {
            ((2 * m + da) // step, m) for m in range(1, 7) for da in (-2, 2) if b[0]
        }, b
        assert (0, [(0, m, -1, -1) for m in range(1, 7)]) in calls, b
        powers = {abs(e) for _, factors in calls for _, _, _, e in factors}
        assert not powers & {b[1], b[2], b[1] + b[2]}, b


def test_jacobi_triple_product_is_the_partition_series_times_theta():
    # prod_m (1 + z^(2m-1) q^m)(1 + z^(2m+1) q^m) = P(z^2 q) Theta to q^30, with
    # Theta's row T_k = k (k + 1) / 2 the alternating z^(k^2) - ... + z^((k+1)^2 - 1)
    trunc = 30
    odd = [{0: 1}] + [{} for _ in range(trunc)]
    partitions = [{0: 1}] + [{} for _ in range(trunc)]
    for m in range(1, trunc + 1):
        for a in (2 * m - 1, 2 * m + 1):
            odd = _mul(odd, _factor(trunc, a, m, lambda j: math.comb(1, j)))
        partitions = _mul(partitions, _factor(trunc, 2 * m, m, lambda j: 1))
    theta = [{} for _ in range(trunc + 1)]
    for k in range(8):  # T_7 = 28, T_8 = 36
        theta[k * (k + 1) // 2] = {k * k + j: (-1) ** j for j in range(2 * k + 1)}
    assert _mul(partitions, theta) == odd
    assert all(odd)  # no row is trivially empty


@pytest.mark.parametrize("b2", [0, 1, 2, 7, 60, 10**6, 10**12])
def test_gottsche_b2_family_alone_is_the_euler_product_at_z_squared(b2):
    # the seed, squared up from the partition series, against the kernel run
    # at width 0 with the power b2: a_n sits at z^(2n) in every row, the last
    # one included
    a = euler_product_power(b2, 25)
    for trunc in range(26):
        rows = gottsche_series(BettiVector(0, 0, b2, 0, 0), trunc)
        assert rows == [[0] * 2 * n + [a[n]] + [0] * 2 * n for n in range(trunc + 1)], trunc


@pytest.mark.parametrize("width", [0, 64])
def test_unit_factors_equal_the_generic_product(width):
    # 1 + z^a q^m multiplies from the top down and 1 / (1 - z^a q^m) divides
    # from the bottom up, one shift-and-add a row; with powers 2 and -2 mixed
    # in, every coefficient is >= 0, so the rows read back at W = 64.  At W = 0,
    # z = 1, each row is its coefficient sum, and the sign of e is drawn apart
    # from s, so that 1 / (1 + z^a q^m)^k and (1 - z^a q^m)^k occur too
    rng = random.Random(width)
    for _ in range(60):
        trunc = rng.randint(0, 12)
        factors = []
        for s in rng.choices((1, -1), k=rng.randint(1, 8)):
            a, m, power = rng.randint(0, 3), rng.randint(1, 5), rng.choice((1, 1, 1, 2))
            factors.append((a, m, s, power * (rng.choice((1, -1)) if width == 0 else s)))
        expected = _product_by_mul(trunc, factors)
        rows = _rows(trunc, factors, width)
        if width:
            assert all(row >> width * (3 * n + 1) == 0 for n, row in enumerate(rows))
            digits = [[row >> width * e & (1 << width) - 1 for e in range(3 * n + 1)]
                      for n, row in enumerate(rows)]
            rows = [{e: c for e, c in enumerate(row) if c} for row in digits]
        else:
            expected = [sum(row.values()) for row in expected]
        assert rows == expected, (trunc, factors)


def _law_by_the_kernel(h_plus, h_minus, trunc):
    """The invariant law's two products, built by the binomial kernel at width 0."""
    ks = range(1, trunc + 1)
    hh_factors = ((0, k, s, e) for k in ks for s, e in ((1, h_minus), (-1, -h_plus)))
    return tuple(zip(euler_product_power(h_plus - h_minus, trunc), _rows(trunc, hh_factors, 0)))


def test_invariant_law_equals_the_kernel_route():
    rng = random.Random(0)
    cases = [(rng.randint(0, 300), rng.randint(0, 40), rng.randint(0, 40)) for _ in range(200)]
    cases += [(0, 0, 0), (0, 0, 20), (3, 0, 0), (2, 7, 0), (0, 40, 40), (5, 6, 33), (1, 0, 40)]
    assert sum(h_plus < h_minus for h_plus, h_minus, _ in cases) >= 10
    for case in cases:
        assert sym_power_totals(*case) == _law_by_the_kernel(*case), case


def test_invariant_law_raises_when_a_division_leaves_a_remainder(monkeypatch):
    # psi(2) reads 4: at (h+, h-) = (3, 0), b_2 = 2 * 3 + 4 and
    # 2 euler(sym^2) = 3 * 3 + 10 is odd
    assert sym_power_totals(3, 0, 2) == ((1, 1), (3, 3), (9, 9))
    law_rows = series._law_rows

    def corrupted(rows, psi, top, label):
        return law_rows(rows, lambda r: psi(r) + (r == 2), top, label)

    monkeypatch.setattr(series, "_law_rows", corrupted)
    assert sym_power_totals(3, 0, 1) == ((1, 1), (3, 3))  # no row reads psi(2)
    with pytest.raises(InternalInvariantError, match=r"^euler of sym\^2 of \(h\+, h-\) = \(3, 0\)"):
        sym_power_totals(3, 0, 2)


def test_theta_power_raises_when_a_division_leaves_a_remainder(monkeypatch):
    # a tap z^(k^2) + z^((k+1)^2 + 1) has no factor 1 + z: at q^1 the sum
    # b1 (2^W + 2^(5W)) leaves a remainder mod 1 + 2^W (W = 8 for q(1; 9) = 9)
    b = BettiVector(1, 2, 3, 2, 1)
    taps = series._theta_taps
    monkeypatch.setattr(
        series, "_theta_taps", lambda trunc: [(t, lo, hi + 1) for t, lo, hi in taps(trunc)]
    )
    assert gottsche_series(b, 0) == [[1]]  # no row divides
    message = r"^theta\^2 at q\^1: Miller's recurrence leaves \d+ mod 1 \(1 \+ 2\^8\)$"
    with pytest.raises(InternalInvariantError, match=message):
        gottsche_series(b, 1)


def test_the_law_and_q_length_never_run_the_kernel(cold_q_cache, monkeypatch):
    # euler_product_power and gottsche_series are the other side of the checks
    # that compare them with the law or with q(n; l), so each check compares
    # two routes, never the recurrence with itself
    def no_kernel(*args):
        raise AssertionError("the binomial kernel ran")

    monkeypatch.setattr(series, "_rows", no_kernel)
    hilb_p2 = [1, 3, 9, 22, 51]  # euler = total Betti of Hilb^n(P2), = q(n; 3)
    assert sym_power_totals(3, 0, 4) == tuple(zip(hilb_p2, hilb_p2))
    assert [q_length(n, 3) for n in range(5)] == hilb_p2
    for route in (
        lambda: euler_product_power(3, 4),
        lambda: gottsche_series(BettiVector(1, 0, 1, 0, 1), 4),
    ):
        with pytest.raises(AssertionError, match="kernel ran"):
            route()

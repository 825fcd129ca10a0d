"""How symmetric powers multiply exceptional collections.

A category assembled from l completely understood pieces (an exceptional
collection of length l) has symmetric powers that are again assembled from
points, and the count is governed by partitions: the n-th power carries
q(n; l) = sum over weak compositions of n of products of partition numbers.
This script walks the three independent roads to that number.
"""

from symsod import (
    POINT,
    Sod,
    Sym,
    euler_product_power,
    expand,
    parse_expr,
    partition_count,
    partitions_of,
    q_length,
)

print("=== partitions ===")
for n in (4, 5):
    print(f"p({n}) = {partition_count(n)}:", [list(p) for p in partitions_of(n)])

print()
print("=== road 1: structural expansion ===")
print("sym(3, P1) splits into blocks sym(3-i, pt) * sym(i, pt), each a pile of points:")
components = expand(parse_expr("sym(3, P1)"))
for idx, (comp, mult) in enumerate(components):
    print(f"  block i={idx}: {comp} x{mult}")
print("total:", components.total_multiplicity())

print()
print("=== road 2: the counting formula ===")
for l in (2, 3):
    row = [q_length(n, l) for n in range(7)]
    print(f"q(n;{l}) for n = 0..6: {row}")

print()
print("=== road 3: the Euler product ===")
print("coefficients of prod (1-q^m)^(-3):", euler_product_power(3, 6))

print()
print("All three agree; `symsod verify --suite rewrite` checks this up to n = 12.")

print()
print("=== three pieces, by hand ===")
p2 = Sod((POINT, POINT, POINT))
for n in range(1, 5):
    total = expand(Sym(n, p2)).total_multiplicity()
    print(f"sym({n}, P2) -> {total} point components (q({n};3) = {q_length(n, 3)})")

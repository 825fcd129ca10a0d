"""Hilbert schemes of points through the symmetric-product lens.

For a smooth projective surface S, the n-th symmetric power of its derived
category is the derived category of the Hilbert scheme of n points (the
derived McKay correspondence).  Decompositions of S therefore propagate to
every Hilb^n(S):

* a blow-up sod(S, pt) turns into p(i) copies of each Hilb^(n-i)(S),
* a ruled surface sod(C, C) turns into products of symmetric curve powers,
* an exceptional collection plus a quasi-phantom stays in step with the
  Betti numbers predicted by Goettsche's formula, which certifies that the
  phantom's symmetric powers are phantoms too.
"""

from symsod import (
    BettiVector,
    expand,
    gottsche_series,
    invariant_report,
    parse_expr,
    phantom_audit,
    q_length,
)

print("=== blow-ups ===")
print("hilb(4, blowup(S)) for an opaque surface S:")
for comp, mult in expand(parse_expr("hilb(4, blowup(S))")):
    print(f"  {comp}  x{mult}")

print()
print("=== the projective plane ===")
print("n, total Betti of Hilb^n(P2), q(n;3):")
for n, poincare in enumerate(gottsche_series(BettiVector(1, 0, 1, 0, 1), 6)):
    print(f"  {n}: {sum(poincare):6d}  {q_length(n, 3):6d}")

print()
print("=== ruled surfaces ===")
print("hilb(3, ruled(2)) components are products of symmetric powers of the curve:")
for comp, mult in expand(parse_expr("hilb(3, ruled(2))")):
    print(f"  {comp}  x{mult}")
# genus 0: the surface has a length-4 exceptional collection, so Hilb^3 has q(3;4)
report = invariant_report(parse_expr("hilb(3, ruled(0))"))
print("genus 0 invariants:", report.euler, "=", report.hh_total, "= q(3;4) =", q_length(3, 4))

print()
print("=== quasi-phantoms ===")
print("A fake plane has sod((l+2) points, phantom); the audit compares the")
print("Hilbert schemes' total Betti numbers with the point blocks alone:")
report = phantom_audit(1, 6)
for row in report.rows:
    mark = "==" if row.equal else "!="
    print(f"  n={row.n}: {row.hilb_total_betti} {mark} {row.q_value}")
print("phantom symmetric powers certified:", report.all_equal)

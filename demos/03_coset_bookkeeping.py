"""The group theory under the hood, decategorified.

Each block of the symmetric-power decomposition corresponds to C(n, i)
summands upstairs, indexed by cosets of a Young subgroup; and inducing a
module up from the subgroup preserves the dimension of its invariants
(Frobenius reciprocity).  Both facts are checkable by brute force at this
scale, so this script checks them.
"""

import random

from symsod import (
    YoungPair,
    induction_invariance_check,
    invariant_dimension,
    young_coset_reps,
    young_subgroup,
)
from symsod.symgroup import natural_module, random_orbit_module, regular_module

print("=== coset representatives for S_4 / (S_2 x S_2) ===")
pair = YoungPair(4, 2)
for rep in young_coset_reps(pair):
    image = sorted(rep(k) for k in (3, 4))
    print(f"  {rep.images} sends the top block to {image}")

print()
print("=== Burnside counting ===")
h = young_subgroup(pair)
print("invariants of the natural module over S_2 x S_2:",
      invariant_dimension(natural_module(h, 4)), "(the two blocks)")
print("invariants of the regular module:",
      invariant_dimension(regular_module(h)))

print()
print("=== induction preserves invariants ===")
rng = random.Random(0)
for n, i in ((3, 1), (4, 2), (5, 2)):
    pair = YoungPair(n, i)
    subgroup = young_subgroup(pair)
    module = random_orbit_module(subgroup, n, rng)
    report = induction_invariance_check(pair, module)
    print(
        f"  S_{n} / (S_{n - i} x S_{i}), random module on {len(module.basis)} points: "
        f"induced {report.induced_invariant_dim} = restricted {report.subgroup_invariant_dim}"
    )

print()
print("The full battery (all pairs with n <= 6, trivial/natural/regular plus")
print("20 random modules each) runs via:  symsod verify --suite frobenius")

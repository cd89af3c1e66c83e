"""5x5 and 6x6 constructions at 114 and 148 XOR.

Higher orders use F2[x]/(x^8+x^6+x^5+x^3+1) with a 2-XOR representation of
alpha; scalar powers are priced as chained applications (|e| * 2 gates).
Tree simplification finds the fewest positions that must carry non-identity
scalars before any value scan starts.
"""

from mdsforge import catalogs
from mdsforge.blockmat import branch_number, is_mds
from mdsforge.instantiate import simplify_tree
from mdsforge.slp import cost, depth

r56 = catalogs.higher_order_ring()
print("representation of alpha costs", r56.scalar_xor_count(2), "XOR;",
      "a^-3 is priced", r56.scalar_xor_count(r56.alpha_pow(-3)))

for name in ("construction_5x5", "construction_6x6"):
    e = catalogs.load_catalog(name)[0]
    print(f"\n{name}: k={e.slp.k_in}, cost {e.cost}, depth {e.depth}, "
          f"mds {e.mds}")

tree = catalogs.tree_5x5()
values = [1] + [r56.alpha_pow(e) for e in (1, -1, 2, -2, 3, -3, 4, -4)]
s, wits = simplify_tree(tree, r56, values, max_s=5, first_only=True)
print("\n5x5 tree: fewest non-identity positions =", s,
      "first witness:", wits[0])

"""Quadric generators, fiber graphs, and the first two Betti numbers.

The anticanonical ideal is toric: whenever two pairs of degree-s monomials
share a product, their difference is a quadric relation.  A spanning tree per
shared product gives beta_1 = C(g-2, 2) minimal quadrics.  Connectivity of
the analogous degree-3s fiber graphs shows the cubics are generated by the
quadrics, and a blockwise kernel computation counts the beta_2 linear
syzygies.  No minimal quartic syzygies exist: at every point m of weighted
degree 4s the complex of index sets F with m - sum_F u >= 0 has no
1-dimensional homology, which needs no syzygy at all.
"""

from gwpskit import (
    beta1,
    beta2,
    check_degree3_generation,
    check_no_quartic_syzygies,
    enumerate_gorenstein,
    invariants,
    linear_syzygies,
    quadric_generators,
    weighted_space,
)

sp = weighted_space(2, 3, 3, 4)
ideal = quadric_generators(sp)
print(f"{sp}: {len(ideal.generators)} quadric generators")
gen = ideal.generators[0]
print(f"example generator: y{gen.lhs} - y{gen.rhs} at multidegree {gen.multidegree}")

rep = check_degree3_generation(sp)
print(f"all {rep.fibers_checked} cubic fibers connected: {rep.connected}")

syz = linear_syzygies(ideal)
print(f"linear syzygies: {syz.total_count} (counting formula: {beta2(sp)})")

quartic = check_no_quartic_syzygies(ideal)
print(f"no minimal quartic syzygies at the {quartic.blocks_checked} degree-4s points: {quartic.ok}")
print(f"  points ranked exactly (GF(2) rank short of E - V + c): {quartic.fallbacks}")

print("\nBetti numbers of all fourteen spaces:")
print(f"{'weights':<16}{'g':>4}{'beta_1':>8}{'beta_2':>8}")
for sp in enumerate_gorenstein(50):
    g = invariants(sp).g
    print(f"{str(sp):<16}{g:>4}{beta1(sp):>8}{beta2(sp):>8}")

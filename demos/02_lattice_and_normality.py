"""Degree slices, Hilbert-function counting, projective normality, h-vectors.

The monomials of weighted degree d form the degree-d slice; its size is the
Hilbert function of the graded coordinate ring.  At the anticanonical degree
s the slice has g+2 members and embeds the space in projective (g+1)-space.
Projective normality means every higher slice is a sum of degree-s points,
and the resulting h-vector (1, g-2, g-2, 1) is the signature of canonical
curve sections.
"""

from gwpskit import (
    count_points,
    degree_slice,
    enumerate_gorenstein,
    h_vector,
    invariants,
    veronese_presentation,
    weighted_space,
)

sp = weighted_space(2, 3, 3, 4)
inv = invariants(sp)
print(f"space {sp}: s = {inv.s}, genus g = {inv.g}")

sl = degree_slice(sp, inv.s)
print(f"\nanticanonical slice has {len(sl)} = g+2 monomials; the first five:")
for p in sl.points[:5]:
    print("  ", p)

print("\nHilbert function at multiples of s:")
for d in range(5):
    print(f"  N({d}*s) = {count_points(sp, d * inv.s)}")

pres = veronese_presentation(sp, inv.s, 4)
assert pres.generator_degrees == (1,) * (inv.g + 2)
print("\nthe anticanonical ring, the s-th Veronese ring, through degree 4:")
print(f"  {len(pres.generator_degrees)} generators, all of degree 1: projectively normal")
print(f"  {len(pres.relation_degrees)} relations, of degrees {sorted(set(pres.relation_degrees))}")

print(f"h-vector: {h_vector(sp)}")

print("\nh-vectors of all fourteen spaces (always (1, g-2, g-2, 1)):")
for sp in enumerate_gorenstein(50):
    g = invariants(sp).g
    h = h_vector(sp)
    assert h == (1, g - 2, g - 2, 1)
    print(f"  {str(sp):<16} g={g:<3} h={h}")

"""The degree -1 tangent module of the affine cone and extendability.

A degree -1 deformation assigns to each quadric generator a degree-s element
of the coordinate ring, compatible with all linear syzygies.  The system
splits into tiny blocks indexed by exponent-vector shifts; the g+2 coordinate
derivations are trivial solutions, and whatever dimension is left over is
exactly the number of times the anticanonical model extends to a larger
variety that is not a cone.
"""

from gwpskit import (
    alpha_report,
    hom_dimension_minus1,
    linear_syzygies,
    quadric_generators,
    weighted_space,
)

sp = weighted_space(2, 3, 3, 4)
ideal = quadric_generators(sp)
syz = linear_syzygies(ideal)

hom = hom_dimension_minus1(ideal, syz)
busy = {s: d for s, d in hom.by_shift.items() if d}
print(f"{sp}: total solution dimension {hom.total} across {len(hom.by_shift)} shifts")
print(f"shifts with nonzero dimension: {len(busy)}")
print(f"shifts solved under two primes (GF(2) rank short of the upper bound): {hom.fallbacks}")

derivs = hom.derivations
print(f"coordinate derivations: {len(derivs)} nonzero solutions in distinct blocks")

rep = alpha_report(sp)
print(
    f"\nalpha(P) = {rep.alpha_P}  alpha(S) = {rep.alpha_S}  alpha(C) = {rep.alpha_C}"
)
print(f"=> the anticanonical model extends exactly {rep.extendability} times")

print("\nextendability of the other desk-scale spaces:")
for w in [(1, 2, 2, 5), (1, 3, 4, 4), (1, 4, 5, 10), (2, 3, 10, 15)]:
    rep = alpha_report(weighted_space(*w))
    print(f"  {str(rep.space):<16} alpha(S)={rep.alpha_S}  extends {rep.extendability}x")

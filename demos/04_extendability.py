"""The degree -1 tangent module of the affine cone and extendability.

The affine cone over P is a toric singularity, and Altmann's formula gives its
tangent space T^1 degree by degree from the points of the degree-s slice
alone.  In degree -1 the degrees are exponent-vector shifts; T^1 is nonzero at
only a handful of them, and its total dimension is exactly the number of times
the anticanonical model extends to a larger variety that is not a cone.
"""

from gwpskit import alpha_report, t1_by_shift, weighted_space

for w in [(2, 3, 3, 4), (1, 3, 4, 4), (2, 3, 10, 15), (1, 2, 2, 5), (1, 2, 3, 6)]:
    sp = weighted_space(*w)
    t1 = t1_by_shift(sp)
    busy = sorted(d for d, dim in t1.items() if dim)
    rep = alpha_report(sp)
    print(f"{sp}: T^1 nonzero at {len(busy)} of {len(t1)} shifts")
    for d in busy:
        print(f"  shift {d}: dim {t1[d]}")
    print(f"  alpha(P) = {rep.alpha_P}  alpha(S) = {rep.alpha_S}  alpha(C) = {rep.alpha_C}"
          f"  => extends {rep.extendability} times")

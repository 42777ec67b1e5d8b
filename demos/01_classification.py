"""Walk through the classification of Gorenstein weighted projective 3-spaces.

A weight system (a0, a1, a2, a3) is Gorenstein when the lcm of the weights
divides their sum s.  Then k_i = s / a_i are integers with
1/k0 + 1/k1 + 1/k2 + 1/k3 = 1, and that equation has exactly fourteen sorted
solutions, so the list below is complete: no bound on the weights is needed.
"""

from gwpskit import enumerate_gorenstein, invariants, restriction_invertible

spaces = enumerate_gorenstein()
print(f"Gorenstein weight systems: {len(spaces)}\n")

print(f"{'weights':<16}{'m':>4}{'s':>4}{'-K^3':>6}{'g':>4}{'i_S':>5}{'g_1':>5}")
for sp in spaces:
    inv = invariants(sp)
    print(
        f"{str(sp):<16}{inv.m:>4}{inv.s:>4}{int(inv.antiK_cubed):>6}"
        f"{inv.g:>4}{inv.i_S:>5}{inv.g1:>5}"
    )

# Each space is one solution k of 1/k0 + 1/k1 + 1/k2 + 1/k3 = 1.
print("\nk_i = s / a_i for each space, k0 <= k1 <= k2 <= k3:")
for sp in spaces:
    s = sum(sp.weights)
    print(f"  {str(sp):<16}{tuple(s // a for a in reversed(sp.weights))}")

# The divisibility index i_S = s / lcm(pairwise gcds) tells which twists
# restrict to line bundles on a general anticanonical surface.
sp = spaces[4]  # (1,1,4,6)
print(f"\non {sp}: twist k restricts to a line bundle iff e | k:")
for k in range(1, 5):
    print(f"  k={k}: {restriction_invertible(sp, k)}")

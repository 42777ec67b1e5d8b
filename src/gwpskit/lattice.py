"""Weighted degree slices: counting, enumeration, pair sums and h-vectors.

A lattice point is an exponent tuple (n0, n1, n2, n3); its weighted degree is
sum(a_i * n_i) for the ambient weight system.  The degree-d slice lists every
monomial of weighted degree d, sorted in the canonical order: descending
lexicographic on exponent tuples (largest first).  All downstream indices
depend on this order, so it is fixed once and for all.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .wps import WeightedSpace

Point = tuple[int, int, int, int]


def count_points(space: "WeightedSpace", d: int) -> int:
    """Number of exponent tuples of weighted degree exactly d.

    Coin-counting DP over the four weights; exact integer arithmetic.
    Negative degrees count zero.
    """
    if d < 0:
        return 0
    dp = [0] * (d + 1)
    dp[0] = 1
    for a in space.weights:
        for t in range(a, d + 1):
            dp[t] += dp[t - a]
    return dp[d]


@dataclass(frozen=True)
class DegreeSlice:
    """All lattice points of one weighted degree, in canonical order."""

    degree: int
    points: tuple[Point, ...]

    def __len__(self) -> int:
        return len(self.points)

    def index_map(self) -> dict[Point, int]:
        return {p: i for i, p in enumerate(self.points)}


def degree_slice(space: "WeightedSpace", d: int) -> DegreeSlice:
    """Enumerate the full degree-d slice, sorted descending-lex."""
    if d < 0:
        raise ValueError("slice degree must be non-negative")
    a0, a1, a2, a3 = space.weights
    pts = []
    for n3 in range(d // a3 + 1):
        r3 = d - a3 * n3
        for n2 in range(r3 // a2 + 1):
            r2 = r3 - a2 * n2
            for n1 in range(r2 // a1 + 1):
                r1 = r2 - a1 * n1
                if r1 % a0 == 0:
                    pts.append((r1 // a0, n1, n2, n3))
    pts.sort(reverse=True)
    return DegreeSlice(d, tuple(pts))


def h_vector(space: "WeightedSpace") -> tuple[int, int, int, int]:
    """The h-vector of the 4-dimensional graded cone: 4th finite-difference
    transform of d -> count_points(space, d*s), evaluated at d = 0..3."""
    from .wps import invariants

    inv = invariants(space)
    if not inv.gorenstein:
        raise ValueError("h-vector is defined here for Gorenstein spaces only")
    s = inv.s
    counts = [count_points(space, k * s) for k in range(4)]
    h = []
    for k in range(4):
        h.append(sum((-1) ** j * comb(4, j) * counts[k - j] for j in range(k + 1)))
    return tuple(h)


def pair_sums(slice_: DegreeSlice) -> dict[Point, list[tuple[int, int]]]:
    """Group unordered index pairs {i <= j} of a slice by the sum of their
    points.  Keys are iterated in canonical (descending-lex) order elsewhere."""
    sums: dict[Point, list[tuple[int, int]]] = {}
    pts = slice_.points
    n = len(pts)
    for i in range(n):
        pi = pts[i]
        for j in range(i, n):
            pj = pts[j]
            key = (pi[0] + pj[0], pi[1] + pj[1], pi[2] + pj[2], pi[3] + pj[3])
            sums.setdefault(key, []).append((i, j))
    return sums

"""Weighted projective 3-spaces: classification and numerical invariants.

A weight system is a tuple of four positive integers, canonicalized to
non-decreasing order, globally coprime and well formed (every three weights
coprime).  The Gorenstein members are exactly those whose weight lcm divides
the weight sum s, the 14 solutions of sum 1/k_i = 1 with k_i = s / a_i; their
numerical invariants (degree, genus, divisibility index) are computed here in
exact integer arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import lattice


class WeightValidationError(ValueError):
    """A weight tuple violates positivity, coprimality or well-formedness."""


@dataclass(frozen=True)
class WeightedSpace:
    """P(a0, a1, a2, a3) with a0 <= a1 <= a2 <= a3.

    The constructor sorts the weights, so permutations of the same weight
    system compare equal.
    """

    weights: tuple[int, int, int, int]

    def __post_init__(self):
        ws = tuple(sorted(self.weights))
        if len(ws) != 4:
            raise WeightValidationError("exactly four weights are required")
        for a in ws:
            if not isinstance(a, int) or a < 1:
                raise WeightValidationError(f"weights must be positive integers, got {a}")
        if math.gcd(*ws) != 1:
            raise WeightValidationError(
                f"weights {ws} are not coprime: gcd = {math.gcd(*ws)}"
            )
        for triple in combinations(ws, 3):
            g = math.gcd(*triple)
            if g != 1:
                raise WeightValidationError(
                    f"not well formed: weights {triple} share the factor {g}"
                )
        object.__setattr__(self, "weights", ws)

    def __str__(self) -> str:
        return "(" + ",".join(str(a) for a in self.weights) + ")"


def weighted_space(*weights: int) -> WeightedSpace:
    return WeightedSpace(tuple(weights))


@dataclass(frozen=True)
class WpsInvariants:
    """Derived numerical data of a weight system.

    g, i_S and g1 are populated only in the Gorenstein case; e (the lcm of
    pairwise weight gcds) is always defined.
    """

    m: int
    s: int
    gorenstein: bool
    antiK_cubed: Fraction
    e: int
    g: int | None = None
    i_S: int | None = None
    g1: int | None = None


def invariants(space: WeightedSpace) -> WpsInvariants:
    """Compute lcm, weight sum, Gorenstein flag, anticanonical degree, genus,
    divisibility index and primitive genus for a weight system."""
    ws = space.weights
    m = math.lcm(*ws)
    s = sum(ws)
    gorenstein = s % m == 0
    prod = ws[0] * ws[1] * ws[2] * ws[3]
    anti = Fraction(s**3, prod)
    e = math.lcm(*(math.gcd(a, b) for a, b in combinations(ws, 2)))
    if not gorenstein:
        return WpsInvariants(m=m, s=s, gorenstein=False, antiK_cubed=anti, e=e)
    if anti.denominator != 1 or anti.numerator % 2 != 0:
        raise ArithmeticError(f"Gorenstein space {space} has non-even degree {anti}")
    g = int(anti) // 2 + 1
    if s % e != 0:
        raise ArithmeticError(f"pairwise-gcd lcm {e} does not divide weight sum {s}")
    i_s = s // e
    if (g - 1) % (i_s * i_s) != 0:
        raise ArithmeticError(f"divisibility index {i_s} squared does not divide g-1")
    g1 = 1 + (g - 1) // (i_s * i_s)
    return WpsInvariants(
        m=m, s=s, gorenstein=True, antiK_cubed=anti, e=e, g=g, i_S=i_s, g1=g1
    )


def enumerate_gorenstein(max_weight: int | None = None) -> list[WeightedSpace]:
    """The Gorenstein weight systems, all 14 or those with largest weight <=
    max_weight, in lexicographic order.

    Each weight divides s = a0 + a1 + a2 + a3, so the k_i = s / a_i are
    integers with sum 1/k_i = 1.  Sorted ascending, each 1/k_i is at least the
    mean of those left: k0 <= 4, max(k0, 3) <= k1 <= 3 / (1 - 1/k0),
    k2 <= 2 / (1 - 1/k0 - 1/k1), and 1/k3 is the remainder.  As s / lcm(k)
    divides every a_i and the weights are coprime, s = lcm(k).
    """
    spaces = []
    for k0 in range(2, 5):
        for k1 in range(max(k0, 3), math.floor(3 / (1 - Fraction(1, k0))) + 1):
            rest = 1 - Fraction(1, k0) - Fraction(1, k1)
            for k2 in range(k1, math.floor(2 / rest) + 1):
                last = rest - Fraction(1, k2)
                if last.numerator == 1 and last.denominator >= k2:
                    ks = (k0, k1, k2, last.denominator)
                    spaces.append(WeightedSpace(tuple(math.lcm(*ks) // k for k in ks)))
    return sorted((sp for sp in spaces if max_weight is None or sp.weights[3] <= max_weight),
                  key=lambda sp: sp.weights)


def restriction_invertible(space: WeightedSpace, k: int) -> bool:
    """Whether the twist by k restricts to a locally free sheaf on a general
    anticanonical surface: true iff the lcm of pairwise weight gcds divides k."""
    inv = invariants(space)
    if not inv.gorenstein:
        raise ValueError("restriction test requires a Gorenstein space")
    return k % inv.e == 0


@dataclass(frozen=True)
class VeronesePresentation:
    """Generator and relation degrees of a d-th Veronese subring.

    Degrees are measured in the regraded ring (original degree divided by d).
    generator_degrees and relation_degrees hold one entry per minimal
    generator and per minimal relation of degree at most cutoff, ascending;
    both are exact up to cutoff.  `complete` reports whether no minimal
    generator lies above cutoff: every indecomposable has weighted degree at
    most max(sum_i (lcm(a_i, d) - a_i), max_i lcm(a_i, d)), so the list is
    complete once cutoff*d reaches that bound.
    """

    d: int
    generator_degrees: tuple[int, ...]
    relation_degrees: tuple[int, ...]
    cutoff: int
    complete: bool


def _indecomposable_bound(ws: tuple[int, int, int, int], d: int) -> int:
    lcms = [math.lcm(a, d) for a in ws]
    return max(sum(l - a for l, a in zip(lcms, ws)), max(lcms))


def _minimal_presentation(space: WeightedSpace, d: int, cutoff: int):
    """(generators, relations) of the d-th Veronese ring in degrees 1 to
    cutoff: generators[n - 1] lists its minimal generators of degree n in
    canonical order, and relations[n - 1] counts its minimal relations of
    degree n.

    Over the generators of lower degree, the squarefree divisor complex
    Delta_m of a point m of degree n (the gwpskit.toric docstring) is empty
    exactly when m is a new generator; otherwise it is the complex over all
    generators, since no other point of degree n lies below m, and m carries
    c(Delta_m) - 1 minimal relations."""
    from .toric import _divisor_complexes

    generators: list[list[lattice.Point]] = []
    relations: list[int] = []
    for n in range(1, cutoff + 1):
        lower = [u for degree in generators for u in degree]
        keys, components, _ = _divisor_complexes(space, lower, d, n)
        components = components.tolist()
        generators.append([m for m, c in zip(keys, components) if c == 0])
        relations.append(sum(c - 1 for c in components if c))
    return generators, relations


def veronese_presentation(space: WeightedSpace, d: int, cutoff: int) -> VeronesePresentation:
    """Minimal monomial generators of the d-th Veronese subring up to degree
    cutoff*d, and the degrees of its minimal relations up to degree cutoff,
    both read off `_minimal_presentation`."""
    if d < 1:
        raise ValueError("Veronese index d must be >= 1")
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    generators, relations = _minimal_presentation(space, d, cutoff)
    return VeronesePresentation(
        d=d,
        generator_degrees=tuple(n for n, gens in enumerate(generators, 1) for _ in gens),
        relation_degrees=tuple(n for n, count in enumerate(relations, 1) for _ in range(count)),
        cutoff=cutoff,
        complete=cutoff * d >= _indecomposable_bound(space.weights, d),
    )

"""Quadric binomial generators of the anticanonical ideal and the
fiber-graph test for generation in degree 2, with the array component count
that the test and the syzygy layers share.

The ideal of the anticanonically embedded space is toric: its degree-2 part
is spanned, fiberwise over exponent-sum multidegrees, by differences of
unordered pairs of degree-s lattice points with equal sum.  A star spanning
tree per fiber yields a canonical minimal generating set; connectivity of the
analogous degree-3 fiber graphs is equivalent to the cubic part being
generated by the quadrics.

A binomial relation between monomials is an edge between them, and a matrix
whose columns are such edges has the cycle space of the graph as its kernel,
over Z and over every field, of dimension E - V + c (Sturmfels, Groebner
Bases and Convex Polytopes, ch. 4-5).  Components are counted on integer
arrays by min-label propagation (`_component_roots`), for all fibers or
blocks of a space at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from . import lattice
from .lattice import DegreeSlice, Point
from .wps import WeightedSpace, invariants


class BettiConsistencyError(AssertionError):
    """The three independent computations of a Betti number disagree."""


@dataclass(frozen=True)
class BinomialGenerator:
    """The quadric y_lhs - y_rhs, both unordered index pairs of the degree-s
    slice with equal point sum; rhs is the fiber's root decomposition."""

    lhs: tuple[int, int]
    rhs: tuple[int, int]
    multidegree: Point


@dataclass
class ToricIdeal:
    space: WeightedSpace
    slice_s: DegreeSlice
    generators: tuple[BinomialGenerator, ...]
    fibers: dict[Point, tuple[tuple[int, int], ...]]


def quadric_generators(space: WeightedSpace, tree: str = "min") -> ToricIdeal:
    """Construct the quadric generators, one star tree per fiber.

    tree="min" roots each fiber at its lexicographically smallest index pair,
    tree="max" at the largest (used to verify tree-choice independence).
    The generator count must equal C(g+3, 2) - N(2s).
    """
    if tree not in ("min", "max"):
        raise ValueError("tree must be 'min' or 'max'")
    inv = invariants(space)
    if not inv.gorenstein:
        raise ValueError("quadric generators require a Gorenstein space")
    sl = lattice.degree_slice(space, inv.s)
    sums = lattice.pair_sums(sl)
    fibers = {key: tuple(sorted(pairs)) for key, pairs in sums.items()}
    gens = []
    for key in sorted(fibers, reverse=True):
        pairs = fibers[key]
        if len(pairs) < 2:
            continue
        root = pairs[0] if tree == "min" else pairs[-1]
        for pr in pairs:
            if pr != root:
                gens.append(BinomialGenerator(lhs=pr, rhs=root, multidegree=key))
    g = inv.g
    expected = comb(g + 3, 2) - lattice.count_points(space, 2 * inv.s)
    if len(gens) != expected:
        raise BettiConsistencyError(
            f"generator count {len(gens)} != C(g+3,2) - N(2s) = {expected}; "
            "degree-2 decomposability fails for this input"
        )
    return ToricIdeal(space=space, slice_s=sl, generators=tuple(gens), fibers=fibers)


def beta1(space: WeightedSpace, ideal: ToricIdeal | None = None) -> int:
    """Number of minimal quadric generators, cross-checked three ways:
    C(g+3,2) - N(2s), the closed form C(g-2,2), and the explicit count of
    `ideal` (built here when not supplied)."""
    inv = invariants(space)
    if not inv.gorenstein:
        raise ValueError("beta1 requires a Gorenstein space")
    g = inv.g
    by_count = comb(g + 3, 2) - lattice.count_points(space, 2 * inv.s)
    closed_form = comb(g - 2, 2)
    if ideal is None:
        ideal = quadric_generators(space)
    explicit = len(ideal.generators)
    if not (by_count == closed_form == explicit):
        raise BettiConsistencyError(
            f"beta1 mismatch for {space}: counting {by_count}, "
            f"closed form {closed_form}, explicit {explicit}"
        )
    return by_count


@dataclass(frozen=True)
class ConnectivityReport:
    connected: bool
    witness: Point | None
    fibers_checked: int
    components_at_witness: int | None = None


def check_degree3_generation(space: WeightedSpace) -> ConnectivityReport:
    """Connectivity of every degree-3s fiber graph.

    Vertices are unordered index triples of the degree-s slice grouped by
    point sum; two triples are adjacent iff they share an index (equivalently,
    differ by replacing a sub-pair with an equal-sum pair).  All fibers
    connected is equivalent to the cubic part of the ideal being generated by
    the quadrics.  All fibers are counted at once, as the shared-member
    graph of each triple's (fiber, index) nodes.  The witness is the first
    disconnected fiber in descending order.
    """
    inv = invariants(space)
    if not inv.gorenstein:
        raise ValueError("degree-3 generation check requires a Gorenstein space")
    pts = np.array(lattice.degree_slice(space, inv.s).points, dtype=np.int64)
    n = len(pts)
    ijk = np.indices((n, n, n)).reshape(3, -1)
    triples = ijk[:, (ijk[0] <= ijk[1]) & (ijk[1] <= ijk[2])]
    sums = pts[triples].sum(axis=0)
    _, fiber = np.unique(-_pack(sums, 3 * int(pts.max(initial=0)) + 1), return_inverse=True)
    sets, members = np.tile(np.arange(len(fiber)), 3), (fiber * n + triples).ravel()
    # Every fiber has a triple, and so a root: one count per fiber.
    components = np.bincount(fiber[shared_member_roots(sets, members, len(fiber))])
    bad = np.flatnonzero(components > 1)
    if bad.size:
        return ConnectivityReport(
            connected=False,
            witness=tuple(sums[np.argmax(fiber == bad[0])].tolist()),
            fibers_checked=len(components),
            components_at_witness=int(components[bad[0]]),
        )
    return ConnectivityReport(connected=True, witness=None, fibers_checked=len(components))


def shared_member_roots(sets, members, nsets: int):
    """A mask over nsets sets with one True per connected component of the
    graph in which two sets are adjacent iff they share a member, at the
    component's lowest set.  Set sets[e] holds the member with integer code
    members[e]; a set that holds none is a component of its own."""
    _, node = np.unique(members, return_inverse=True)
    return _component_roots(sets, nsets + node, nsets + int(node.max(initial=-1)) + 1)[:nsets]


def _component_roots(a, b, nv: int):
    """A mask with one True per connected component of the graph on nv
    vertices with edges (a[e], b[e]), at the component's lowest vertex.
    Min-label propagation: every round hooks the larger label of each edge
    whose ends disagree onto the smaller, then jumps every label to its root,
    until all edges agree."""
    label = np.arange(nv, dtype=a.dtype)
    while True:
        la, lb = label[a], label[b]
        differ = la != lb
        if not differ.any():
            return label == np.arange(nv)
        np.minimum.at(label, np.maximum(la, lb)[differ], np.minimum(la, lb)[differ])
        while not np.array_equal(jumped := label[label], label):
            label = jumped


def _pack(points, base: int):
    """Multidegrees along the last axis, each coordinate below base, as
    integers in the order of the tuples."""
    return ((points[..., 0] * base + points[..., 1]) * base + points[..., 2]) * base + points[..., 3]

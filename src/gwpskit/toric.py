"""Quadric binomial generators of the anticanonical ideal, the fiber-graph
test for generation in degree 2, and the spanning forests behind both and
behind the syzygy kernels.

The ideal of the anticanonically embedded space is toric: its degree-2 part
is spanned, fiberwise over exponent-sum multidegrees, by differences of
unordered pairs of degree-s lattice points with equal sum.  A star spanning
tree per fiber yields a canonical minimal generating set; connectivity of the
analogous degree-3 fiber graphs is equivalent to the cubic part being
generated by the quadrics.

A binomial relation between monomials is an edge between them, and a matrix
whose columns are such edges has the cycle space of the graph as its kernel,
over Z and over every field, of dimension E - V + c (Sturmfels, Groebner
Bases and Convex Polytopes, ch. 4-5).  `spanning_forest` grows one
deterministic forest and returns the fundamental cycles: an integral basis
with coefficients +-1, used for the linear syzygies and the quartic kernels.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from math import comb

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
    the quadrics.
    """
    inv = invariants(space)
    if not inv.gorenstein:
        raise ValueError("degree-3 generation check requires a Gorenstein space")
    pts = lattice.degree_slice(space, inv.s).points
    n = len(pts)
    fibers: dict[Point, list[tuple[int, int, int]]] = {}
    for i in range(n):
        pi = pts[i]
        for j in range(i, n):
            pj = pts[j]
            s01 = (pi[0] + pj[0], pi[1] + pj[1], pi[2] + pj[2], pi[3] + pj[3])
            for k in range(j, n):
                pk = pts[k]
                key = (s01[0] + pk[0], s01[1] + pk[1], s01[2] + pk[2], s01[3] + pk[3])
                fibers.setdefault(key, []).append((i, j, k))
    for key in sorted(fibers, reverse=True):
        triples = fibers[key]
        if len(triples) < 2:
            continue
        comps = shared_member_components([set(triple) for triple in triples])
        if comps > 1:
            return ConnectivityReport(
                connected=False,
                witness=key,
                fibers_checked=len(fibers),
                components_at_witness=comps,
            )
    return ConnectivityReport(connected=True, witness=None, fibers_checked=len(fibers))


def shared_member_components(member_sets) -> int:
    """Number of connected components of the graph on `member_sets` in which
    two sets are adjacent iff they share a member."""
    first_with: dict = {}
    edges = []
    for t, members in enumerate(member_sets):
        for member in members:
            if member in first_with:
                edges.append((first_with[member], t))
            else:
                first_with[member] = t
    covered, components, _, _ = spanning_forest(edges)
    # Sets met by no edge are components of their own.
    return components + len(member_sets) - covered


def spanning_forest(edges) -> tuple[int, int, list[int], Iterator[list[tuple[int, int]]]]:
    """Kruskal spanning forest of a graph given by its edge list, in order.

    Edge j joins edges[j] = (plus, minus), two hashable vertex labels, and
    stands for the column e_plus - e_minus of a signed incidence matrix.  An
    edge joins the forest iff it closes no cycle with the edges before it, so
    the tree edges are exactly the pivot columns that elimination with
    smallest-first pivots would choose.  Returns (V, c, non_tree, cycles): the
    number of vertices met by an edge, the number of connected components
    among them, the ascending list of the E - V + c non-tree edge indices, and
    an iterator over the fundamental cycles, one per non-tree edge in that
    order, computed only when iterated.  A cycle lists
    (edge index, +1 or -1) in ascending edge order, with +1 on its own
    non-tree edge, and its signed edge columns sum to zero over Z.  The cycles
    form a basis of the kernel, of dimension E - V + c, over Z and over every
    field.
    """
    index: dict = {}
    ends = []
    for plus, minus in edges:
        ends.append((index.setdefault(plus, len(index)), index.setdefault(minus, len(index))))
    nv = len(index)
    root = list(range(nv))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    adjacent: list[list[tuple[int, int]]] = [[] for _ in range(nv)]
    non_tree = []
    for j, (a, b) in enumerate(ends):
        ra, rb = find(a), find(b)
        if ra == rb:
            non_tree.append(j)
        else:
            root[rb] = ra
            adjacent[a].append((b, j))
            adjacent[b].append((a, j))

    def fundamental_cycles():
        # Hang every tree from its first vertex: parent, parent edge, depth.
        parent = [-1] * nv
        parent_edge = [-1] * nv
        depth = [-1] * nv
        for start in range(nv):
            if depth[start] >= 0:
                continue
            depth[start] = 0
            stack = [start]
            while stack:
                x = stack.pop()
                for y, j in adjacent[x]:
                    if depth[y] < 0:
                        depth[y] = depth[x] + 1
                        parent[y] = x
                        parent_edge[y] = j
                        stack.append(y)
        # The non-tree edge j contributes e_a - e_b; the tree path from a to
        # b contributes e_b - e_a, one step e_next - e_here per edge, so an
        # edge is taken with +1 when the path enters its plus end.
        for j in non_tree:
            a, b = ends[j]
            signs = {j: 1}
            while a != b:
                if depth[a] >= depth[b]:
                    e, a = parent_edge[a], parent[a]
                    signs[e] = 1 if ends[e][0] == a else -1
                else:
                    e = parent_edge[b]
                    signs[e] = 1 if ends[e][0] == b else -1
                    b = parent[b]
            yield sorted(signs.items())

    components = nv - (len(ends) - len(non_tree))
    return nv, components, non_tree, fundamental_cycles()

"""Quadric binomial generators of the anticanonical ideal, their number
beta_1 and the test that they generate it in degree 3, both read off the
squarefree divisor complexes, and the array component count that these, the
syzygy layers and the Veronese generators and relations share.

The ideal of the anticanonically embedded space is toric: its degree-2 part
is spanned, fiberwise over exponent-sum multidegrees, by differences of
unordered pairs of degree-s lattice points with equal sum.  A star spanning
tree per fiber yields a canonical minimal generating set.

Minimal relations are read off squarefree divisor complexes.  For the ring
A = K[S] of the semigroup S generated by points g_0, ..., g_N,
Tor_i^R(A, K)_m = H~_{i-1}(Delta_m; K), where Delta_m is the complex of the
sets F of generators with m - sum_F g in S (Bruns and Herzog, Semigroup
rings and simplicial complexes, J. Pure Appl. Algebra 122 (1997) 185-208;
Miller and Sturmfels, Combinatorial Commutative Algebra, ch. 9).  So the
minimal relations at m number c(Delta_m) - 1: beta_1 is their sum over the
points of degree 2s, and the quadrics generate the cubic part of the ideal
iff every Delta_m of degree 3s is connected.  Over
the generators of lower degree alone, c(Delta_m) = 0 marks m as a new
generator, which is how wps reads the minimal generators of a Veronese ring.
`_divisor_complexes` enumerates the faces of all Delta_m of one degree at
once and counts the components of each.

A binomial relation between monomials is an edge between them, and a matrix
whose columns are such edges has the cycle space of the graph as its kernel,
over Z and over every field, of dimension E - V + c (Sturmfels, Groebner
Bases and Convex Polytopes, ch. 4-5).  Components are counted on integer
arrays by min-label propagation (`_component_labels`), for all complexes or
blocks of a space at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
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


def quadric_generators(space: WeightedSpace) -> ToricIdeal:
    """Construct the quadric generators, one star tree per fiber, rooted at
    the fiber's lexicographically smallest index pair.

    The generator count must equal C(g+3, 2) - N(2s).
    """
    inv = invariants(space)
    if not inv.gorenstein:
        raise ValueError("quadric generators require a Gorenstein space")
    sl = lattice.degree_slice(space, inv.s)
    sums = lattice.pair_sums(sl)
    fibers = {key: tuple(sorted(pairs)) for key, pairs in sums.items()}
    gens = []
    for key in sorted(fibers, reverse=True):
        root, *rest = fibers[key]
        gens.extend(BinomialGenerator(lhs=pr, rhs=root, multidegree=key) for pr in rest)
    g = inv.g
    expected = comb(g + 3, 2) - lattice.count_points(space, 2 * inv.s)
    if len(gens) != expected:
        raise BettiConsistencyError(
            f"generator count {len(gens)} != C(g+3,2) - N(2s) = {expected} for {space}; "
            "degree-2 decomposability fails for this input"
        )
    return ToricIdeal(space=space, slice_s=sl, generators=tuple(gens), fibers=fibers)


def beta1(space: WeightedSpace) -> int:
    """Number of minimal quadric generators, sum_m (c(Delta_m) - 1) over the
    points m of degree 2s (_degree_2s_complexes), cross-checked against
    C(g+3,2) - N(2s) and the closed form C(g-2,2)."""
    _, keys, components, _ = _degree_2s_complexes(space)
    inv = invariants(space)
    g = inv.g
    by_count = comb(g + 3, 2) - lattice.count_points(space, 2 * inv.s)
    closed_form = comb(g - 2, 2)
    by_complexes = int(components.sum()) - len(keys)
    if not (by_count == closed_form == by_complexes):
        raise BettiConsistencyError(
            f"beta1 mismatch for {space}: counting {by_count}, "
            f"closed form {closed_form}, divisor complexes {by_complexes}"
        )
    return by_count


def _anticanonical_complexes(space: WeightedSpace, degree: int, size: int = 2):
    """(slice, keys, components, faces): the degree-s slice points of a
    Gorenstein space and _divisor_complexes of them, with unit s, at degree
    degree * s, faces through size `size`; the one reader of the complexes
    of the anticanonical ring."""
    inv = invariants(space)
    if not inv.gorenstein:
        raise ValueError("divisor complexes require a Gorenstein space")
    slice_s = lattice.degree_slice(space, inv.s).points
    return (slice_s, *_divisor_complexes(space, slice_s, inv.s, degree, size))


def _degree_2s_complexes(space: WeightedSpace):
    """_anticanonical_complexes at degree 2s, which beta1 and
    gwpskit.tangent read the quadrics off.  At 2s, Delta_m has the slice
    indices that pair to m as vertices and the pairs i < j as edges, a square
    2u_i = m being an isolated vertex, so c(Delta_m) is the size of the fiber
    of m in quadric_generators: m is the multidegree of c(Delta_m) - 1
    generators, and where c(Delta_m) >= 2 the vertices of Delta_m are the
    slice indices that occur in them.  An empty Delta_m, a point that is no
    sum of two slice points, fails projective normality and raises."""
    slice_s, keys, components, faces = _anticanonical_complexes(space, 2)
    empty = np.flatnonzero(components == 0)
    if empty.size:
        raise BettiConsistencyError(
            f"{keys[empty[0]]} of degree 2s is no sum of two degree-s points of {space}; "
            "the anticanonical ring is not normal in degree 2"
        )
    return slice_s, keys, components, faces


@dataclass(frozen=True)
class ConnectivityReport:
    connected: bool
    witness: Point | None
    fibers_checked: int
    components_at_witness: int | None = None


def check_degree3_generation(space: WeightedSpace) -> ConnectivityReport:
    """Degree-3 generation: c(Delta_m) = 1 at every point m of weighted
    degree 3s.

    The quadrics generate the cubic part of the ideal iff no minimal relation
    lies in degree 3s, that is iff H~_0(Delta_m) = c(Delta_m) - 1 vanishes at
    every such m (the module docstring).  An empty Delta_m, c = 0, is a point
    that is no sum of three slice points, which the counting formula of
    beta2 would count all the same, so it fails too.  fibers_checked counts
    the degree-3s points; the witness is the first m in descending order
    with c(Delta_m) != 1, and components_at_witness is its count.
    """
    _, keys, components, _ = _anticanonical_complexes(space, 3)
    bad = np.flatnonzero(components != 1)
    if bad.size:
        return ConnectivityReport(
            connected=False,
            witness=keys[bad[0]],
            fibers_checked=len(keys),
            components_at_witness=int(components[bad[0]]),
        )
    return ConnectivityReport(connected=True, witness=None, fibers_checked=len(keys))


def _divisor_complexes(space: WeightedSpace, generators, unit: int, degree: int, size: int = 2):
    """(keys, components, faces) for the squarefree divisor complexes Delta_m
    (the module docstring) of the semigroup S generated by the points
    `generators`, at every point m of weighted degree degree * unit: keys
    lists the m in descending order, components[b] is c(Delta_m) at
    m = keys[b], and faces[k - 1], for each face size k from 1 to `size` (at
    least 2), is a pair (block, members): the ascending generator indices
    members[f] are a face of the complex at keys[block[f]].

    Below degree * unit, S must be every point >= 0 of weighted degree
    divisible by unit, as it is for the degree-s slice with unit s, by
    projective normality (the gwpskit.tangent docstring), and for the
    minimal generators of the d-th Veronese ring below degree * d, with unit
    d.  Then a face F lies at m = sum_F g + r for every point r of the
    remaining degree, and the faces of all m are enumerated as arrays at
    once, one slice per degree sum of the member sets.

    Every such m has weighted degree D = degree * unit, which fixes its
    coordinate 0, so m is found by its coordinates 1 to 3 alone: a dense
    int32 index over them, with prod (D // w_i + 1) entries for i = 1 to 3,
    a few thousand through degree 4s on the 14 spaces, holds the position of
    each key."""
    keys = lattice.degree_slice(space, degree * unit).points
    gens = np.array(generators, dtype=np.int64).reshape(-1, 4)
    gen_degree = gens @ np.array(space.weights) // unit
    # m -> (m_1 * n_2 + m_2) * n_3 + m_3 is linear, so the offset of
    # sum_F g + r is the sum of their offsets.
    _, n1, n2, n3 = (degree * unit // w + 1 for w in space.weights)
    stride = np.array([0, n2 * n3, n3, 1])
    index = np.empty(n1 * n2 * n3, dtype=np.int32)
    index[np.array(keys, dtype=np.int64).reshape(-1, 4) @ stride] = np.arange(len(keys))
    gen_offset = gens @ stride
    faces = []
    for k in range(1, size + 1):
        members = combinations(range(len(gens)), k)
        members = np.fromiter(chain.from_iterable(members), np.int32).reshape(-1, k)
        total = gen_degree[members].sum(1)
        pieces = [(np.empty(0, dtype=np.int32), members[:0])]
        # A set, as in tangent._shifts: np.unique's integer sort would add
        # 0.6 MB to the peak RSS of `gwpskit alpha`.
        for t in sorted(set(total[total <= degree].tolist())):
            group = members.compress(total == t, axis=0)
            rest = lattice.degree_slice(space, (degree - t) * unit).points
            rest = np.array(rest, dtype=np.int64).reshape(-1, 4)
            offset = gen_offset[group].sum(1)[:, None] + rest @ stride
            pieces.append((index[offset.ravel()], np.repeat(group, len(rest), axis=0)))
            del offset
        # A single degree sum, as in the anticanonical ring, is not copied.
        faces.append(pieces[1] if len(pieces) == 2 else tuple(map(np.concatenate, zip(*pieces))))
    (vb, v), (eb, e) = faces[:2]
    # vertex[b * G + i] numbers the vertex i of Delta_m, m = keys[b], for G gens.
    vertex = np.empty(len(keys) * len(gens), dtype=np.int32)
    vertex[vb * len(gens) + v[:, 0]] = np.arange(len(vb))
    at = eb * len(gens)
    roots = _component_roots(vertex[at + e[:, 0]], vertex[at + e[:, 1]], len(vb))
    return keys, np.bincount(vb[roots], minlength=len(keys)), faces


def _component_roots(a, b, nv: int):
    """A mask with one True per connected component of the graph on nv
    vertices with edges (a[e], b[e]), at the component's lowest vertex."""
    return _component_labels(a, b, nv) == np.arange(nv)


def _component_labels(a, b, nv: int):
    """The lowest vertex of each vertex's component of the graph on nv
    vertices with edges (a[e], b[e]).  Min-label propagation: every round
    hooks the larger label of each edge whose ends disagree onto the smaller,
    then jumps every label to its root, until all edges agree."""
    label = np.arange(nv, dtype=a.dtype)
    while True:
        la, lb = label[a], label[b]
        differ = la != lb
        if not differ.any():
            return label
        np.minimum.at(label, np.maximum(la, lb)[differ], np.minimum(la, lb)[differ])
        while not np.array_equal(jumped := label[label], label):
            label = jumped


def _pack(points, base: int):
    """Multidegrees along the last axis, each coordinate below base, as
    integers in the order of the tuples."""
    return ((points[..., 0] * base + points[..., 1]) * base + points[..., 2]) * base + points[..., 3]

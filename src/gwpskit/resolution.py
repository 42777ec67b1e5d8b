"""Multigraded linear first syzygies and the quartic-syzygy vanishing check.

The first syzygies of the quadric generators decompose by exponent-sum
multidegree of weighted degree 3s.  In each local block the incident
(variable, generator) pair (i, k) sends y_i * q_k to the difference of two
cubic monomials, so it is an edge between those monomials and the block's
syzygies form the cycle space of that graph.  The basis is the set of
fundamental cycles of a spanning forest grown over the pairs in ascending
order: integral by construction, with coefficients +-1, and each element is
checked to cancel as a polynomial.  All blocks of a space are built at once
as integer arrays, by one Kruskal pass over the edges in block order (a
monomial has one multidegree, so no component leaves its block), and the
basis is one term table, which the tests' tangent shift blocks read.

The quartic check reads no syzygy.  A = K[S] is the ring of the semigroup S
generated by the degree-s slice u_0, ..., u_{g+1}, and for such a ring
Tor_i^R(A, K)_m = H~_{i-1}(Delta_m; K), where Delta_m is the complex of the
sets F of slice indices with m - sum_F u in S (Bruns and Herzog, Semigroup
rings and simplicial complexes, J. Pure Appl. Algebra 122 (1997) 185-208;
Miller and Sturmfels, Combinatorial Commutative Algebra, ch. 9).  By
projective normality (the gwpskit.tangent docstring) a point of degree
divisible by s lies in S iff it is >= 0, so Delta_m has at most g+2
vertices and each face is one comparison.  No minimal quartic syzygy means
H~_1(Delta_m) = 0 at every point m of degree 4s: the rank of the boundary
map from triangles to edges equals E - V + c, the cycle dimension of the
complex's 1-skeleton, over Q.  As the boundary of a boundary is zero, that
rank is at most E - V + c, and its GF(2) rank bounds it from below, since a
minor that is odd is not zero; where the two meet, m is proven.  At degree
3s the same complexes give the linear syzygies, H~_1(Delta_m) of them at m,
and H~_0(Delta_m) = 0 there is degree-3 generation.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, islice
from math import comb

import numpy as np

from . import exactla, lattice
from ._util import tadd
from .exactla import FieldSpec
from .lattice import Point
from .toric import (
    ConnectivityReport,
    ToricIdeal,
    _component_roots,
    _pack,
    check_degree3_generation,
)
from .wps import WeightedSpace, invariants


@dataclass(frozen=True)
class SyzygyElement:
    """A linear syzygy sum(c * y_i * q_k) = 0 at one multidegree.

    terms are (variable index i, generator index k, integer coefficient);
    every term satisfies u_i + c_k = multidegree.
    """

    multidegree: Point
    terms: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True, eq=False)
class SyzygyBasis:
    """Linear syzygies in basis order, multidegrees descending, as one term
    table: the distinct multidegrees as a (D, 4) array with the number of
    syzygies at each, the term count of each syzygy, and all terms as rows
    (j, k, c) of one int64 array; `by_multidegree` and `elements()` are
    SyzygyElement views."""

    multidegrees: np.ndarray
    counts: np.ndarray
    lengths: np.ndarray
    terms: np.ndarray

    @classmethod
    def from_elements(cls, by_multidegree: dict[Point, Sequence[SyzygyElement]]) -> SyzygyBasis:
        """The table of a basis given as elements grouped by multidegree, in
        any key order; an element's own multidegree is not read."""
        keys = sorted(by_multidegree, reverse=True)
        elems = [syz for key in keys for syz in by_multidegree[key]]
        lengths = np.fromiter((len(syz.terms) for syz in elems), np.int64, len(elems))
        flat = chain.from_iterable(chain.from_iterable(syz.terms for syz in elems))
        return cls(
            multidegrees=np.array(keys, dtype=np.int64).reshape(-1, 4),
            counts=np.array([len(by_multidegree[key]) for key in keys], dtype=np.int64),
            lengths=lengths,
            terms=np.fromiter(flat, np.int64, 3 * int(lengths.sum())).reshape(-1, 3),
        )

    @property
    def total_count(self) -> int:
        return len(self.lengths)

    @cached_property
    def by_multidegree(self) -> dict[Point, tuple[SyzygyElement, ...]]:
        terms = map(tuple, self.terms.tolist())
        lengths = iter(self.lengths.tolist())
        return {
            key: tuple(
                SyzygyElement(key, tuple(islice(terms, next(lengths)))) for _ in range(count)
            )
            for key, count in zip(map(tuple, self.multidegrees.tolist()), self.counts.tolist())
        }

    def elements(self):
        return chain.from_iterable(self.by_multidegree.values())


def beta2(space: WeightedSpace, generation: ConnectivityReport | None = None) -> int:
    """Number of minimal linear first syzygies, by the counting formula
    beta1*(g+2) - (C(g+4,3) - N(3s)).

    Valid only once degree-3 generation is established, so the connectivity
    check is run (or the supplied report validated) first.
    """
    inv = invariants(space)
    if not inv.gorenstein:
        raise ValueError("beta2 requires a Gorenstein space")
    if generation is None:
        generation = check_degree3_generation(space)
    if not generation.connected:
        raise ValueError(
            f"degree-3 generation check failed (witness {generation.witness}); "
            "beta2 counting formula is not applicable"
        )
    g = inv.g
    b1 = comb(g - 2, 2)
    dim_i3 = comb(g + 4, 3) - lattice.count_points(space, 3 * inv.s)
    return b1 * (g + 2) - dim_i3


def incident_pairs_degree3(ideal: ToricIdeal) -> dict[Point, list[tuple[int, int]]]:
    """(variable, generator) pairs grouped by multidegree u_i + c_k."""
    pts = ideal.slice_s.points
    grouped: dict[Point, list[tuple[int, int]]] = {}
    for k, gen in enumerate(ideal.generators):
        c = gen.multidegree
        for i, u in enumerate(pts):
            grouped.setdefault(tadd(u, c), []).append((i, k))
    for pairs in grouped.values():
        pairs.sort()
    return grouped


def linear_syzygies(
    ideal: ToricIdeal,
    fields: tuple[FieldSpec, FieldSpec] | None = None,
) -> SyzygyBasis:
    """Explicit bases of the local degree-3 syzygy kernels.

    Each local basis is the set of fundamental cycles of the spanning forest
    grown over the block's (i, k) pairs in ascending order, which is the
    basis that elimination with smallest-first pivots would give.  The pairs
    of all blocks are ordered by descending multidegree u_i + c_k, then by
    (i, k), and coded as edges between cubic monomials.  Every element is
    checked to vanish as a polynomial.  `fields` is accepted for
    compatibility and unused: no prime field is involved.
    """
    pts = np.array(ideal.slice_s.points, dtype=np.int64).reshape(-1, 4)
    gen_md = np.array([gen.multidegree for gen in ideal.generators], dtype=np.int64).reshape(-1, 4)
    n, ngens = len(pts), len(gen_md)
    base = 3 * int(pts.max(initial=0)) + 1
    key_code = -(_pack(pts, base)[:, None] + _pack(gen_md, base)).ravel()
    order = np.argsort(key_code, kind="stable")
    i, k = np.divmod(order, max(ngens, 1))
    gen = _generator_ends(ideal)[k]
    monomials = np.concatenate([
        _monomial_codes(n, i, gen[:, 0], gen[:, 1]),
        _monomial_codes(n, i, gen[:, 2], gen[:, 3]),
    ])
    vertices, ends = np.unique(monomials, return_inverse=True)
    plus, minus = ends[: len(i)], ends[len(i):]
    non_tree, lengths, edge, sign = _fundamental_cycles(plus, minus, len(vertices))
    _, first, counts = np.unique(key_code[order][non_tree], return_index=True, return_counts=True)
    at = non_tree[first]
    basis = SyzygyBasis(
        multidegrees=pts[i[at]] + gen_md[k[at]],
        counts=counts,
        lengths=lengths,
        terms=np.stack([i[edge], k[edge], sign], axis=1),
    )
    _check_cancels(ideal, basis)
    return basis


def _fundamental_cycles(plus, minus, nv: int):
    """(non_tree, lengths, edge, sign): the fundamental cycles of the Kruskal
    forest of the graph on nv vertices whose edge e, in order, is the column
    e_plus[e] - e_minus[e].  An edge joins the forest iff it closes no cycle
    with the edges before it: the pivots of smallest-first elimination.  One
    cycle per non-tree edge, ascending, as its term count and its terms
    (edge, +1 or -1) in ascending edge order, +1 on its own edge; the cycles
    are a basis of the kernel over Z and over every field."""
    root = list(range(nv))
    tree = []
    for x, y in zip(plus.tolist(), minus.tolist()):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        while root[y] != y:
            root[y] = root[root[y]]
            y = root[y]
        tree.append(x != y)
        root[y] = x
    tree = np.array(tree, dtype=bool)
    non_tree, te = np.flatnonzero(~tree), np.flatnonzero(tree)
    # Hang every tree from its lowest vertex, one level per round.
    src, dst = np.concatenate([plus[te], minus[te]]), np.concatenate([minus[te], plus[te]])
    via = np.tile(te, 2)
    depth = np.where(_component_roots(plus[te], minus[te], nv), 0, -1)
    parent, parent_edge = np.zeros((2, nv), dtype=np.int64)
    level = 0
    while (depth < 0).any():
        hang = (depth[src] == level) & (depth[dst] < 0)
        depth[dst[hang]] = level + 1
        parent[dst[hang]], parent_edge[dst[hang]] = src[hang], via[hang]
        level += 1
    # The non-tree edge contributes e_a - e_b; the tree path from a to b
    # contributes e_b - e_a, one step e_next - e_here per edge, so an edge is
    # taken with +1 when the path enters its plus end: the parent on a's side
    # of the path, the child on b's side.  The deeper end steps first.
    cycle = np.arange(len(non_tree))
    a, b = plus[non_tree], minus[non_tree]
    owners, edges, signs = [cycle], [non_tree], [np.ones(len(non_tree), dtype=np.int64)]
    while cycle.size:
        from_a = depth[a] >= depth[b]
        here = np.where(from_a, a, b)
        e, up = parent_edge[here], parent[here]
        owners.append(cycle)
        edges.append(e)
        signs.append(np.where(plus[e] == np.where(from_a, up, here), 1, -1))
        a, b = np.where(from_a, up, a), np.where(from_a, b, up)
        open_ = a != b
        cycle, a, b = cycle[open_], a[open_], b[open_]
    owner, edge, sign = (np.concatenate(parts) for parts in (owners, edges, signs))
    order = np.lexsort((edge, owner))
    lengths = np.bincount(owner, minlength=len(non_tree))
    return non_tree, lengths, edge[order], sign[order]


# Read by perfbench and the tests' span-route oracle; ROADMAP H and O remove it.
def incident_pairs_degree4(ideal: ToricIdeal) -> dict[Point, list[tuple[tuple[int, int], int]]]:
    """(quadratic monomial, generator) pairs grouped by multidegree."""
    pts = ideal.slice_s.points
    n = len(pts)
    grouped: dict[Point, list[tuple[tuple[int, int], int]]] = {}
    for k, gen in enumerate(ideal.generators):
        c = gen.multidegree
        for i in range(n):
            ci = tadd(c, pts[i])
            for j in range(i, n):
                grouped.setdefault(tadd(ci, pts[j]), []).append(((i, j), k))
    for pairs in grouped.values():
        pairs.sort()
    return grouped


def _monomial_codes(n: int, a, b, c):
    """The code (a*n + b)*n + c of each cubic monomial y_a y_b y_c, given as
    one index array per factor: a min/max network sorts the factors, so equal
    monomials get equal codes."""
    a, b = np.minimum(a, b), np.maximum(a, b)
    b, c = np.minimum(b, c), np.maximum(b, c)
    a, b = np.minimum(a, b), np.maximum(a, b)
    return (a * n + b) * n + c


def _generator_ends(ideal: ToricIdeal):
    """The lhs pair, then the rhs pair, of each generator as a (G, 4) int32
    array."""
    return np.array([gen.lhs + gen.rhs for gen in ideal.generators], dtype=np.int32).reshape(-1, 4)


def _check_cancels(ideal: ToricIdeal, syzygies: SyzygyBasis) -> None:
    """Every syzygy sum c * y_j * q_k vanishes as a polynomial: its cubic
    monomials, keyed by syzygy, sum to zero.  The first one that does not,
    in basis order, is an AssertionError, and so is one with a variable index
    outside the slice, whose monomials would have no code."""
    n = len(ideal.slice_s)
    j, k, c = syzygies.terms.T
    owner = np.repeat(np.arange(syzygies.total_count, dtype=np.int64), syzygies.lengths)
    outside = (j < 0) | (j >= n)
    j = np.where(outside, 0, j)
    gen = _generator_ends(ideal)[k]
    monomials, at = np.unique(np.concatenate([
        owner * n**3 + _monomial_codes(n, j, gen[:, 0], gen[:, 1]),
        owner * n**3 + _monomial_codes(n, j, gen[:, 2], gen[:, 3]),
    ]), return_inverse=True)
    sums = np.zeros(len(monomials), dtype=np.int64)
    np.add.at(sums, at, np.concatenate([c, -c]))
    broken = np.concatenate([monomials[sums != 0] // n**3, owner[outside]])
    if broken.size:
        key = np.repeat(syzygies.multidegrees, syzygies.counts, axis=0)[int(broken.min())]
        raise AssertionError(f"syzygy at multidegree {tuple(key.tolist())} does not cancel")


@dataclass(frozen=True)
class QuarticSyzygyReport:
    """The verdict of the quartic check: blocks_checked counts the
    degree-4s points, fallbacks the points whose GF(2) rank of the boundary
    map fell short of E - V + c and were ranked exactly."""

    ok: bool
    witness: Point | None
    blocks_checked: int
    fallbacks: int


def _complexes(ideal: ToricIdeal, degree: int) -> list[tuple[Point, int, int, np.ndarray]]:
    """(m, E, E - V + c, triangles) for every point m of weighted degree
    degree * s, in descending order: Delta_m, the complex of the sets F of
    slice indices with m - sum_F u >= 0, has E edges, V vertices and c
    components, and triangles is a (T, 3) int array that gives, for each
    triangle i < j < k, the positions of its edges ij, ik and jk.  The vertex
    in the most triangles (the lowest on ties) is the star vertex: the edges
    through it take the lowest positions and the triangles through it come
    first, so each of those owns the highest position among its edges.

    A face F of Delta_m lies at m = sum_F u + r with r in the slice of degree
    (degree - |F|) * s, so the faces of all m are enumerated as arrays at
    once; every such r is a sum of slice points, by projective normality."""
    space, pts = ideal.space, np.array(ideal.slice_s.points, dtype=np.int64)
    n, s = len(pts), ideal.slice_s.degree
    keys = lattice.degree_slice(space, degree * s).points
    base = degree * int(pts.max()) + 1
    codes = -_pack(np.array(keys, dtype=np.int64), base)
    faces = []
    for size in (1, 2, 3):
        members = np.array(list(combinations(range(n), size)), dtype=np.int32).reshape(-1, size)
        rest = np.array(lattice.degree_slice(space, (degree - size) * s).points, dtype=np.int64)
        # _pack is linear: the code of sum_F u + r is the sum of their codes.
        code = _pack(pts[members].sum(1), base)[:, None] + _pack(rest, base)
        block = np.searchsorted(codes, -code.ravel()).astype(np.int32)
        faces.append((block, np.repeat(members, len(rest), axis=0)))
    (vb, v), (eb, e), (tb, t) = faces
    del faces, code, block
    nb = len(keys)
    # slot[b, i, i] is the vertex i of block b in the whole-space graph,
    # slot[b, i, j] for i < j the position of the edge ij within block b.
    slot = np.empty((nb, n, n), dtype=np.int32)
    slot[vb, v[:, 0], v[:, 0]] = np.arange(len(vb))
    i, j = e.T
    roots = _component_roots(slot[eb, i, i], slot[eb, j, j], len(vb))
    edges = np.bincount(eb, minlength=nb)
    cycles = edges - np.bincount(vb, minlength=nb) + np.bincount(vb[roots], minlength=nb)
    star = np.bincount((tb[:, None] * n + t).ravel(), minlength=nb * n).reshape(nb, n).argmax(1)
    order = np.lexsort((j, i, (i != star[eb]) & (j != star[eb]), eb))
    slot[eb[order], i[order], j[order]] = np.arange(len(eb)) - (np.cumsum(edges) - edges)[eb[order]]
    order = np.lexsort(((t != star[tb, None]).all(1), tb))
    t, tb = t[order], tb[order]
    i, j, k = t.T
    triangles = np.stack([slot[tb, i, j], slot[tb, i, k], slot[tb, j, k]], axis=1)
    bounds = np.searchsorted(tb, np.arange(nb + 1)).tolist()
    return [
        (key, int(edges[b]), int(cycles[b]), triangles[bounds[b]:bounds[b + 1]])
        for b, key in enumerate(keys)
    ]


def _signed_boundary(triangles, edges: int) -> list[list[int]]:
    """The rows e_jk - e_ik + e_ij of the boundary map of a complex with
    `edges` edges, one per triangle of _complexes' triangles array."""
    rows = []
    for ij, ik, jk in triangles.tolist():
        row = [0] * edges
        row[ij], row[ik], row[jk] = 1, -1, 1
        rows.append(row)
    return rows


def check_no_quartic_syzygies(
    ideal: ToricIdeal,
    syzygies: SyzygyBasis | None = None,
    fields: tuple[FieldSpec, FieldSpec] | None = None,
) -> QuarticSyzygyReport:
    """Verification that there are no minimal quartic syzygies: H~_1(Delta_m)
    = 0 at every degree-4s point m (see the module docstring).

    The rank of the boundary map of Delta_m is at most E - V + c; its GF(2)
    rank, taken up to E - V + c + 1, is a lower bound.  Equal to E - V + c
    proves m; above it is an AssertionError naming m (a wrong E, V or c);
    below it the signed map is ranked exactly (exactla.echelon) and counted
    as a fallback, and an exact shortfall makes m a witness.  The first
    witness in descending order is reported.  `syzygies` and `fields` are
    accepted for compatibility and unused: the check reads no syzygy and no
    prime field.
    """
    witness = None
    checked = fallbacks = 0
    for m, edges, cycles, triangles in _complexes(ideal, 4):
        checked += 1
        rows = [(1 << a) | (1 << b) | (1 << c) for a, b, c in triangles.tolist()]
        rank = exactla.rank_gf2(rows, cycles + 1)
        if rank < cycles:
            fallbacks += 1
            rank = len(exactla.echelon(_signed_boundary(triangles, edges), cycles + 1))
        if rank > cycles:
            raise AssertionError(
                f"boundary rank {rank} above the cycle dimension {cycles} at multidegree {m}"
            )
        if rank < cycles and witness is None:
            witness = m
    return QuarticSyzygyReport(
        ok=witness is None, witness=witness, blocks_checked=checked, fallbacks=fallbacks
    )

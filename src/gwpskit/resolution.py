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

The quartic check reads the space alone.  A = K[S] is the ring of the
semigroup S generated by the degree-s slice u_0, ..., u_{g+1}, so
Tor_2^R(A, K)_m = H~_1(Delta_m; K) for the squarefree divisor complexes
Delta_m of the gwpskit.toric docstring.  By projective normality (the
gwpskit.tangent docstring) m - sum_F u lies in S iff it is >= 0, so Delta_m
has at most g+2 vertices, and toric._anticanonical_complexes enumerates the
faces of all Delta_m of one degree at once and counts the components c of
each.  No
minimal quartic syzygy means H~_1(Delta_m) = 0 at every point m of degree
4s: the rank of the boundary map from triangles to edges equals E - V + c,
the cycle dimension of the complex's 1-skeleton, over Q.  As the boundary
of a boundary is zero, that rank is at most E - V + c, and its GF(2) rank
bounds it from below, since a minor that is odd is not zero; where the two
meet, m is proven.  At degree 3s the same complexes give the linear
syzygies, H~_1(Delta_m) of them at m, and H~_0(Delta_m) = c - 1 = 0 there
is degree-3 generation (toric.check_degree3_generation).

Most of that GF(2) rank is counted, not eliminated: the star-cover
closure.  Let w be the star vertex of Delta_m; K starts as its closed star,
a cone, and each triangle wxy covers its edge xy.  A triangle without w
with two covered edges pq and pr joins K with its edge qr, now covered: an
elementary expansion, so H~_*(K) stays 0.  Repeated until no edge is added,
K has one triangle per covered edge, and by the long exact sequence of the
pair (Delta_m, K) (Munkres, Elements of Algebraic Topology, sections 23-24)
and a count of dimensions, the rank of the boundary map over any field is
that count plus the rank of the relative map, where an edge of K is zero.
No star edge lies in a triangle outside K, so each row left keeps its two
or three uncovered edges.  Over GF(2) the rows of two are the edges of a
graph on the uncovered edges, whose rank is its vertices less its
components; modulo them an edge equals the others of its component, its
class, so only the rows of three are eliminated, as sums of classes, where
equal ones cancel.  Read up to E - V + c + 1, the count and the two ranks
sum to the GF(2) rank that a full elimination of every row would read.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice
from math import comb

import numpy as np

from . import exactla, lattice
from ._util import tadd
from .exactla import FieldSpec
from .lattice import Point
from .toric import (
    BettiConsistencyError,
    ConnectivityReport,
    ToricIdeal,
    _anticanonical_complexes,
    _component_labels,
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


# Read by perfbench's census and the span-route tests; ROADMAP H and O remove it.
def incident_pairs_degree4(ideal: ToricIdeal) -> dict[Point, list[tuple[tuple[int, int], int]]]:
    """(quadratic monomial, generator) pairs ((i, j), k), i <= j, grouped by
    multidegree u_i + u_j + c_k, each group sorted, the multidegrees in the
    order that generator by generator, pair by pair, first reaches them."""
    if not ideal.generators:
        return {}
    pts = np.array(ideal.slice_s.points, dtype=np.int64)
    gen_md = np.array([gen.multidegree for gen in ideal.generators], dtype=np.int64)
    # A multidegree here sums four slice points: each coordinate is below base.
    base = 4 * int(pts.max()) + 1
    i, j = np.triu_indices(len(pts))
    code = (_pack(gen_md, base)[:, None] + _pack(pts[i] + pts[j], base)).ravel()
    # Entry f is the pair f % P, in (i, j) order, with the generator f // P.
    k, pair = np.divmod(np.arange(len(code)), len(i))
    order = np.lexsort((k, pair, code))
    starts = np.flatnonzero(np.diff(code[order], prepend=-1))
    first = np.minimum.reduceat(order, starts)
    at = pair[first]
    keys = list(map(tuple, (gen_md[k[first]] + pts[i[at]] + pts[j[at]]).tolist()))
    pairs = list(zip(i.tolist(), j.tolist()))
    entries = [(pairs[p], g) for p, g in zip(pair[order].tolist(), k[order].tolist())]
    bounds = [*starts.tolist(), len(entries)]
    groups = [entries[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    return {keys[b]: groups[b] for b in np.argsort(first).tolist()}


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


@dataclass(frozen=True, eq=False)
class _Complexes:
    """The complexes Delta_m at the points m of one degree, keys in
    descending order, after the star-cover closure (the module docstring).
    For the complex at keys[b]: cycles[b] is E - V + c, counted[b] the number
    of its covered edges, paired[b] the GF(2) rank of its rows left with two
    edges, and rows[b], for the b that have any, its rows left with three,
    as bitsets over classes.  The triangles of all complexes are the
    ascending slice index triples `triangles`, the one at row f in the
    complex at keys[block[f]]."""

    keys: list[Point]
    cycles: np.ndarray
    counted: np.ndarray
    paired: np.ndarray
    rows: dict[int, list[int]]
    block: np.ndarray
    triangles: np.ndarray

    def gf2_rank(self, b: int) -> int:
        """min(rank, E - V + c + 1) over GF(2) of the boundary map of the
        complex at keys[b], the number exactla.rank_gf2 reads off all its
        triangles' rows with the bound E - V + c + 1."""
        bound = max(int(self.cycles[b]) + 1, 0)
        known = min(int(self.counted[b] + self.paired[b]), bound)
        return known + exactla.rank_gf2(self.rows.get(b, ()), bound - known)

    def gf2_ranks(self) -> np.ndarray:
        """gf2_rank of every complex: rank_gf2 runs only on the complexes
        with rows; every other one reads min(counted + paired, E - V + c + 1)."""
        ranks = np.minimum(self.counted + self.paired, np.maximum(self.cycles + 1, 0))
        for b in self.rows:
            ranks[b] = self.gf2_rank(b)
        return ranks


def _complexes(space: WeightedSpace, degree: int) -> _Complexes:
    """The complexes Delta_m at every point m of weighted degree degree * s:
    Delta_m is the complex of the sets F of slice indices with
    m - sum_F u >= 0, its faces those of toric._anticanonical_complexes."""
    points, keys, components, faces = _anticanonical_complexes(space, degree, 3)
    return _star_cover(keys, components, faces, len(points))


def _star_cover(keys, components, faces, n: int) -> _Complexes:
    """The _Complexes of the faces (vertices, edges and triangles, as
    toric._divisor_complexes gives them) of complexes on the vertices
    0 .. n - 1, with components[b] components at keys[b].

    The star vertex w of a complex is its vertex in the most triangles (the
    lowest on ties).  The edge pq, p < q, of the complex at keys[b] has the
    int32 code (b*n + p)*n + q, below 3.1 million on the 14 spaces through
    degree 5s: the closure runs on all complexes at once, one round per
    array pass, a row sum of the covered codes counts each complex's covered
    edges, and _residual_rows ranks the rows left in the relative complex."""
    (vb, _), (eb, _), (tb, t) = faces
    nb = len(keys)
    cycles = np.bincount(eb, minlength=nb) - np.bincount(vb, minlength=nb) + components
    first = tb * n
    star = sum(np.bincount(first + v, minlength=nb * n) for v in t.T).reshape(nb, n).argmax(1)
    star = star.astype(np.int32)
    covered, rest = _closure(tb, t, star, nb, n)
    paired, rows = _residual_rows(covered, rest, nb, n)
    counted = covered.reshape(nb, n * n).sum(1)
    return _Complexes(keys, cycles, counted, paired, rows, block=tb, triangles=t)


def _closure(tb, t, star, nb: int, n: int):
    """(covered, rest) for the triangles t[f] of the complexes at tb[f] with
    the star vertices star[b]: covered marks, by code, the covered edges,
    and rest[:, f] holds the codes of the edges ij, ik and jk of the f-th
    triangle left with at most one covered edge."""
    nn = n * n
    i, j, k = t.T
    w = star[tb]
    through = (i == w) | (j == w) | (k == w)
    del w  # before the larger arrays below
    base, i_n = tb * nn, i * n
    edges = np.stack([base + i_n + j, base + i_n + k, base + j * n + k])
    del base, i_n
    # A triangle wxy covers its edge xy; no star edge wx is ever covered.
    # np.compress selects columns several times faster than a boolean index.
    covered = np.zeros(nb * nn, dtype=bool)
    covered[edges.compress(through, axis=1)] = True
    vertex, w = np.arange(n, dtype=star.dtype), star[:, None]
    star_edges = np.minimum(w, vertex) * n + np.maximum(w, vertex)
    covered[(np.arange(nb, dtype=star_edges.dtype) * nn)[:, None] + star_edges] = False
    # Of the other triangles, one with two covered edges covers the third,
    # and one with three adds nothing.
    rest = edges.compress(~through, axis=1)
    del edges
    as_int = covered.view(np.uint8)
    while True:
        hit = as_int[rest]
        count = hit[0] + hit[1] + hit[2]
        closing = count == 2
        covered[rest.compress(closing, axis=1)] = True
        rest = rest.compress(count < 2, axis=1)
        if not closing.any():
            return covered, rest


def _residual_rows(covered, rest, nb: int, n: int):
    """_Complexes' paired and rows for the relative rows of the triangles
    whose edge codes are the columns of rest: components by
    toric._component_labels, and a class as the bit p*n + q of its lowest
    edge pq, so that two equal classes cancel."""
    nn = n * n
    hit = covered[rest]
    one = hit.any(0)
    two, h = rest.compress(one, axis=1), hit.compress(one, axis=1)
    three = rest.compress(~one, axis=1)
    three = three.take(np.argsort(three[0], kind="stable"), axis=1)
    # With ij, ik or jk covered, the row joins ik and jk, ij and jk, or ij and ik.
    ends = [np.where(h[0], two[1], two[0]), np.where(h[2], two[1], two[2]), *three]
    codes, at = np.unique(np.concatenate(ends), return_inverse=True)
    label = _component_labels(*np.split(at[: 2 * len(h[0])], 2), len(codes))
    owner = codes // nn
    paired = np.bincount(owner, minlength=nb) - np.bincount(
        owner[label == np.arange(len(codes))], minlength=nb)
    x, y, z = (codes[label[at[2 * len(h[0]):]]] % nn).reshape(3, -1).tolist()
    bit = [1 << code for code in range(nn)]
    bits = [bit[p] ^ bit[q] ^ bit[r] for p, q, r in zip(x, y, z)]
    blocks, starts = np.unique(three[0] // nn, return_index=True)
    bounds = [*starts.tolist(), len(bits)]
    return paired, {b: bits[lo:hi] for b, lo, hi in zip(blocks.tolist(), bounds, bounds[1:])}


def _signed_boundary(triangles) -> list[list[int]]:
    """The rows e_jk - e_ik + e_ij of the boundary map, one per triangle
    i < j < k of `triangles`, over the edges of the triangles in ascending
    order."""
    triangles = triangles.tolist()
    edges = sorted({e for i, j, k in triangles for e in ((i, j), (i, k), (j, k))})
    column = {e: p for p, e in enumerate(edges)}
    rows = []
    for i, j, k in triangles:
        row = [0] * len(edges)
        row[column[i, j]], row[column[i, k]], row[column[j, k]] = 1, -1, 1
        rows.append(row)
    return rows


def quartic_check(space: WeightedSpace) -> QuarticSyzygyReport:
    """Verification that there are no minimal quartic syzygies: H~_1(Delta_m)
    = 0 at every degree-4s point m (see the module docstring).

    The rank of the boundary map of Delta_m is at most E - V + c; its GF(2)
    rank, taken up to E - V + c + 1, is a lower bound, read off the
    star-cover closure and its relative rows (the module docstring) as a
    full elimination would read it: exactla.rank_gf2 runs only where rows
    of three edges are left.
    Equal to E - V + c proves m, and only the other points are visited, in
    descending order: above it is an AssertionError naming the space and m
    (a wrong E, V or c); below it the signed map of all the triangles of
    Delta_m is ranked exactly (exactla.echelon) and counted as a fallback,
    and an exact shortfall makes m a witness.  The first witness in
    descending order is reported.  The h-vector must be (1, g-2, g-2, 1),
    which gives reg A = 3 and so Tor_2 in degrees 3s to 5s only (the
    gwpskit.tangent docstring); a BettiConsistencyError names another.
    """
    complexes = _complexes(space, 4)
    g = invariants(space).g
    h, want = lattice.h_vector(space), (1, g - 2, g - 2, 1)
    if h != want:
        raise BettiConsistencyError(
            f"h-vector {h} of {space} is not (1, g-2, g-2, 1) = {want}; reg A = 3 is not shown"
        )
    witness = None
    fallbacks = 0
    ranks = complexes.gf2_ranks()
    for b in np.flatnonzero(ranks != complexes.cycles).tolist():
        m, cycles, rank = complexes.keys[b], int(complexes.cycles[b]), int(ranks[b])
        if rank < cycles:
            fallbacks += 1
            triangles = complexes.triangles[complexes.block == b]
            rank = len(exactla.echelon(_signed_boundary(triangles), cycles + 1))
        if rank > cycles:
            raise AssertionError(
                f"boundary rank {rank} above the cycle dimension {cycles} at multidegree {m} "
                f"of {space}"
            )
        if rank < cycles and witness is None:
            witness = m
    return QuarticSyzygyReport(
        ok=witness is None, witness=witness, blocks_checked=len(complexes.keys),
        fallbacks=fallbacks,
    )


# perfbench/spans.py wraps this name and binds its `ideal` parameter; ROADMAP H
# deletes the adapter.  `syzygies` and `fields` are unused.
def check_no_quartic_syzygies(ideal: ToricIdeal, syzygies=None, fields=None):
    return quartic_check(ideal.space)

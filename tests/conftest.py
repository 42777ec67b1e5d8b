"""Shared fixtures and independent oracles for the test suite.

Oracles are deliberately written along different paths than the library code
they validate: counting by exhaustive loops instead of the coin DP, ranks by
fraction-exact Gaussian elimination instead of mod-p elimination, syzygy
bases by mod-p elimination instead of spanning forests, tangent shift blocks
as undeduplicated Python rows instead of deduplicated int64 arrays.  The
per-block tuple-graph forests, the per-fiber degree-3 check and the full
weight scan are the constructions the library replaced with whole-space
arrays and a bounded search, kept here as oracles, as are the loops that
grouped the quartic (pair, generator) columns and the face lookup by
np.searchsorted over packed multidegrees.  The span route of the
quartic check, the paper's own method, which the library replaced with the
homology of squarefree divisor complexes, is kept here as their oracle.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, repeat
from pathlib import Path

import numpy as np
import pytest

from gwpskit._util import tadd
from gwpskit.exactla import (
    SparseMatrix,
    default_fields,
    kernel_basis_mod_p,
    rank_gf2,
    solution_dim,
)
from gwpskit.resolution import (
    QuarticSyzygyReport,
    SyzygyBasis,
    SyzygyElement,
    _check_cancels,
    _generator_ends,
    incident_pairs_degree3,
    linear_syzygies,
)
from gwpskit.tangent import hom_dimension_minus1
from gwpskit.lattice import DegreeSlice, Point, degree_slice
from gwpskit.toric import (
    BinomialGenerator,
    ConnectivityReport,
    _component_roots,
    _pack,
    quadric_generators,
)
from gwpskit.wps import WeightedSpace, enumerate_gorenstein, invariants, weighted_space


REPO_ROOT = Path(__file__).resolve().parent.parent


def src_env() -> dict:
    """The environment with the checkout's src/ on PYTHONPATH, for running
    gwpskit in a subprocess from a checkout that is not installed."""
    path = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def brute_count(weights, d: int) -> int:
    """Exhaustive enumeration of solutions of sum(a_i n_i) = d."""
    if d < 0:
        return 0
    a0, a1, a2, a3 = weights
    total = 0
    for n0 in range(d // a0 + 1):
        r0 = d - a0 * n0
        for n1 in range(r0 // a1 + 1):
            r1 = r0 - a1 * n1
            for n2 in range(r1 // a2 + 1):
                if (r1 - a2 * n2) % a3 == 0:
                    total += 1
    return total


def rational_rank(rows) -> int:
    """Exact rank over the rationals by fraction Gaussian elimination."""
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(mat)):
            if mat[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def binomial_edges(ideal, cols):
    """(plus, minus) for each (monomial, k) in cols: the two monomials of
    monomial * q_k, as sorted tuples of variable indices."""
    out = []
    for mono, k in cols:
        gen = ideal.generators[k]
        out.append((tuple(sorted(mono + gen.lhs)), tuple(sorted(mono + gen.rhs))))
    return out


def max_rooted(ideal):
    """The ideal with each fiber's star tree rooted at its largest index pair
    instead of quadric_generators' smallest, in the same fiber order: another
    minimal generating set, for the tree-choice independence checks."""
    gens = tuple(
        BinomialGenerator(lhs=pr, rhs=ideal.fibers[key][-1], multidegree=key)
        for key in sorted(ideal.fibers, reverse=True) for pr in ideal.fibers[key][:-1]
    )
    return dataclasses.replace(ideal, generators=gens)


def cut_first_slice_point(monkeypatch, sp, degree: int):
    """Patch lattice.degree_slice so that the degree-s slice of sp lacks its
    first point x, and return x.  Only the slices that the complexes of
    degree degree * s read may be read: those of degree k * s, k <= degree."""
    import gwpskit.lattice as lattice

    s = invariants(sp).s
    full = {k * s: degree_slice(sp, k * s) for k in range(degree + 1)}
    cut = DegreeSlice(s, full[s].points[1:])

    def slice_without_x(space, d):
        assert space == sp and d in full
        return cut if d == s else full[d]

    monkeypatch.setattr(lattice, "degree_slice", slice_without_x)
    return full[s].points[0]


def projected_span_rows_gf2(ideal, syzygies, key, column_bit):
    """The rows y_i * sigma of a quartic block mod 2, in the order of
    span_matrix, as bitsets: the odd terms of a row XOR together
    column_bit[(pair, generator)], which must hold every column of the block.
    With the non-tree columns of a spanning forest as the bits and the tree
    columns as 0, this is the projection the quartic check used to eliminate."""
    for i, u in enumerate(ideal.slice_s.points):
        sub = tuple(a - b for a, b in zip(key, u))
        if min(sub) < 0:
            continue
        for syz in syzygies.by_multidegree.get(sub, ()):
            row = 0
            for (j, k, c) in syz.terms:
                if c & 1:
                    row ^= column_bit[((i, j) if i <= j else (j, i), k)]
            yield row


def incidence_matrix(edges) -> SparseMatrix:
    """Column j is e_plus - e_minus of edges[j], rows in first-seen order."""
    rows = {}
    entries = []
    for col, (plus, minus) in enumerate(edges):
        entries.append((rows.setdefault(plus, len(rows)), col, 1))
        entries.append((rows.setdefault(minus, len(rows)), col, -1))
    return SparseMatrix(len(rows), len(edges), tuple(entries))


def elimination_syzygies(ideal, reverse=False) -> SyzygyBasis:
    """The cubic syzygy basis by elimination: the mod-p kernel of each local
    block under the first default prime, lifted to the symmetric range and
    checked to cancel over Z.  reverse=True eliminates the (i, k) columns in
    descending order, which picks other pivots and so another basis."""
    field = default_fields()[0]
    p = field.prime
    by_multidegree = {}
    grouped = incident_pairs_degree3(ideal)
    for key in sorted(grouped, reverse=True):
        cols = grouped[key][::-1] if reverse else grouped[key]
        edges = binomial_edges(ideal, [((i,), k) for i, k in cols])
        elems = []
        for vec in kernel_basis_mod_p(incidence_matrix(edges), field):
            terms = []
            acc = {}
            for (i, k), (plus, minus), v in zip(cols, edges, vec):
                c = v - p if v > p // 2 else v
                if c:
                    terms.append((i, k, c))
                    acc[plus] = acc.get(plus, 0) + c
                    acc[minus] = acc.get(minus, 0) - c
            assert not any(acc.values()), f"lifted syzygy at {key} does not cancel"
            elems.append(SyzygyElement(multidegree=key, terms=tuple(terms)))
        if elems:
            by_multidegree[key] = tuple(elems)
    return SyzygyBasis.from_elements(by_multidegree)


def spanning_forest(edges):
    """Kruskal spanning forest of a graph given by its edge list, in order.

    Edge j joins edges[j] = (plus, minus), two hashable vertex labels, and
    stands for the column e_plus - e_minus of a signed incidence matrix.  An
    edge joins the forest iff it closes no cycle with the edges before it.
    Returns (V, c, non_tree, cycles): the number of vertices met by an edge,
    the number of connected components among them, the ascending list of the
    E - V + c non-tree edge indices, and an iterator over the fundamental
    cycles, one per non-tree edge in that order.  A cycle lists
    (edge index, +1 or -1) in ascending edge order, with +1 on its own
    non-tree edge, and its signed edge columns sum to zero over Z.
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


def forest_syzygies(ideal) -> SyzygyBasis:
    """The cubic syzygy basis block by block, in descending multidegree: the
    fundamental cycles of spanning_forest over the tuple graph of each
    block's (i, k) pairs in ascending order."""
    by_multidegree = {}
    grouped = incident_pairs_degree3(ideal)
    for key in sorted(grouped, reverse=True):
        cols = grouped[key]
        edges = binomial_edges(ideal, [((i,), k) for i, k in cols])
        elems = tuple(
            SyzygyElement(multidegree=key, terms=tuple(cols[j] + (c,) for j, c in cycle))
            for cycle in spanning_forest(edges)[3]
        )
        if elems:
            by_multidegree[key] = elems
    return SyzygyBasis.from_elements(by_multidegree)


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


def per_fiber_degree3_report(space) -> ConnectivityReport:
    """The degree-3 generation check fiber by fiber: the triples of each
    degree-3s fiber, in descending order, as a shared-member graph."""
    pts = degree_slice(space, invariants(space).s).points
    n = len(pts)
    fibers = {}
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                fibers.setdefault(tadd(tadd(pts[i], pts[j]), pts[k]), []).append({i, j, k})
    for key in sorted(fibers, reverse=True):
        comps = shared_member_components(fibers[key])
        if comps > 1:
            return ConnectivityReport(
                connected=False, witness=key, fibers_checked=len(fibers),
                components_at_witness=comps,
            )
    return ConnectivityReport(connected=True, witness=None, fibers_checked=len(fibers))


def reference_divisor_complexes(space, generators, unit: int, degree: int, size: int = 2):
    """toric._divisor_complexes with each face's point m found by
    np.searchsorted over the packed codes of all four coordinates of the
    keys, negated to ascend, where the library reads a dense index over
    coordinates 1 to 3."""
    keys = degree_slice(space, degree * unit).points
    gens = np.array(generators, dtype=np.int64).reshape(-1, 4)
    gen_degree = gens @ np.array(space.weights) // unit
    base = degree * unit // space.weights[0] + 1
    codes = -_pack(np.array(keys, dtype=np.int64).reshape(-1, 4), base)
    faces = []
    for k in range(1, size + 1):
        members = np.array(list(combinations(range(len(gens)), k)), dtype=np.int32).reshape(-1, k)
        total = gen_degree[members].sum(1)
        pieces = [(np.empty(0, dtype=np.int32), members[:0])]
        for t in sorted(set(total[total <= degree].tolist())):
            group = members[total == t]
            rest = degree_slice(space, (degree - t) * unit).points
            rest = np.array(rest, dtype=np.int64).reshape(-1, 4)
            # _pack is linear: the code of sum_F g + r is the sum of their codes.
            code = _pack(gens[group].sum(1), base)[:, None] + _pack(rest, base)
            pieces.append((np.searchsorted(codes, -code.ravel()).astype(np.int32),
                           np.repeat(group, len(rest), axis=0)))
        faces.append(pieces[1] if len(pieces) == 2 else tuple(map(np.concatenate, zip(*pieces))))
    (vb, v), (eb, e) = faces[:2]
    vertex = np.empty((len(keys), len(gens)), dtype=np.int32)
    vertex[vb, v[:, 0]] = np.arange(len(vb))
    roots = _component_roots(vertex[eb, e[:, 0]], vertex[eb, e[:, 1]], len(vb))
    return keys, np.bincount(vb[roots], minlength=len(keys)), faces


def reference_incident_pairs_degree4(ideal) -> dict[Point, list[tuple[tuple[int, int], int]]]:
    """resolution.incident_pairs_degree4 as loops over the generators and
    the pairs i <= j: the keys in the order first reached, each group
    sorted."""
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


def scan_gorenstein(max_weight: int) -> list[WeightedSpace]:
    """Every Gorenstein, well-formed weight system with largest weight at most
    max_weight, by trying every a3 in [a2, max_weight]."""
    out = []
    for a0 in range(1, max_weight + 1):
        for a1 in range(a0, max_weight + 1):
            for a2 in range(a1, max_weight + 1):
                for a3 in range(a2, max_weight + 1):
                    ws = (a0, a1, a2, a3)
                    if sum(ws) % math.lcm(*ws) == 0 and all(
                        math.gcd(*t) == 1 for t in combinations(ws, 3)
                    ):
                        out.append(WeightedSpace(ws))
    return out


def degree2_span_crosscheck(ideal) -> bool:
    """Whether the emitted binomials span the whole kernel of the
    pair-evaluation map, by exact rank (independent of the spanning-tree
    choice).  The kernel dimension is #pairs - #distinct pair sums; the
    binomial span has that dimension iff the rank of the coefficient matrix
    equals the generator count under both default primes."""
    n = len(ideal.slice_s)
    pair_index = {}
    for i in range(n):
        for j in range(i, n):
            pair_index[(i, j)] = len(pair_index)
    entries = []
    for col, gen in enumerate(ideal.generators):
        entries.append((pair_index[gen.lhs], col, 1))
        entries.append((pair_index[gen.rhs], col, -1))
    mat = SparseMatrix(len(pair_index), len(ideal.generators), tuple(entries))
    kernel_dim = len(pair_index) - len(ideal.fibers)
    span_dim = len(ideal.generators) - solution_dim(mat, *default_fields())
    return span_dim == kernel_dim == len(ideal.generators)


def monolithic_hom_dimension(ideal, syzygies) -> int:
    """The degree -1 hom dimension without the shift decomposition: one
    unknown per (generator, degree-s point) pair, one constraint row per
    syzygy and degree-2s target point, solved under both default primes."""
    pts = ideal.slice_s.points
    n = len(pts)
    at_row, at_col, values = [], [], []
    nrows = 0
    for syz in syzygies.elements():
        row_of = {}
        for (i, k, c) in syz.terms:
            for v in range(n):
                at_row.append(row_of.setdefault(tadd(pts[i], pts[v]), nrows + len(row_of)))
                at_col.append(k * n + v)
                values.append(c)
        nrows += len(row_of)
    mat = SparseMatrix.summed(nrows, len(ideal.generators) * n, at_row, at_col, values)
    return solution_dim(mat, *default_fields())


def raw_block_rows(ideal, syzygies, shift):
    """(unknowns, rows) of one shift block, built row by row: per unknown
    generator in ascending order, every syzygy involving it not seen yet,
    restricted to the unknowns; all-zero rows are skipped, repeats and
    non-primitive rows kept."""
    slice_index = ideal.slice_s.index_map()
    unknowns = [
        k for k, gen in enumerate(ideal.generators)
        if tadd(gen.multidegree, shift) in slice_index
    ]
    by_gen = {}
    for syz in syzygies.elements():
        for k in dict.fromkeys(k for _, k, _ in syz.terms):
            by_gen.setdefault(k, []).append(syz)
    pos = {k: idx for idx, k in enumerate(unknowns)}
    rows = []
    seen = set()
    for k in unknowns:
        for syz in by_gen.get(k, ()):
            if id(syz) in seen:
                continue
            seen.add(id(syz))
            row = [0] * len(unknowns)
            for (_, kk, c) in syz.terms:
                if kk in pos:
                    row[pos[kk]] += c
            if any(row):
                rows.append(tuple(row))
    return unknowns, rows


# -- the span route of the quartic check ------------------------------------

# How many terms plus packed row bytes span_rows gathers at once.  Gathering
# all rows of a space at once doubles the peak memory of the check.
_SPAN_CHUNK = 1 << 16


def span_matrix(ideal, syzygies, key, cols):
    """Rows are y_i * sigma for every cubic syzygy sigma with multidegree
    key - u_i, written in the (pair, generator) coordinates of the block;
    repeated positions are summed and zero sums dropped."""
    col_index = {pk: idx for idx, pk in enumerate(cols)}
    pts = ideal.slice_s.points
    at_row, at_col, values = [], [], []
    nrows = 0
    for i, u in enumerate(pts):
        sub = tuple(a - b for a, b in zip(key, u))
        if min(sub) < 0:
            continue
        for syz in syzygies.by_multidegree.get(sub, ()):
            for (j, k, c) in syz.terms:
                at_row.append(nrows)
                at_col.append(col_index[((i, j) if i <= j else (j, i), k)])
                values.append(c)
            nrows += 1
    return SparseMatrix.summed(nrows, len(cols), at_row, at_col, values)


@dataclass(frozen=True)
class QuarticBlocks:
    """Every weighted-degree-4s block of an ideal at once.  Column p*G + k is
    the pair p of (i, j), i <= j, in lexicographic order, times generator k;
    block b is the b-th multidegree in descending order."""

    keys: list[Point]
    codes: np.ndarray  # packed keys, negated, ascending
    base: int
    block: np.ndarray  # block of each column
    pos: np.ndarray  # position of each column within its block
    edges: np.ndarray  # E, V and c of each block's graph
    vertices: np.ndarray
    components: np.ndarray


def _quartic_codes(n: int, *indices):
    """The code ((a*n + b)*n + c)*n + d of each quartic monomial
    y_a y_b y_c y_d, given as one index array per factor, factors sorted."""
    a, b, c, d = np.sort(np.stack(indices), axis=0)
    return ((a * n + b) * n + c) * n + d


def quartic_blocks(ideal) -> QuarticBlocks:
    """The blocks, their columns and the E, V and c of their graphs: column
    (pair, k) joins the quartic monomials pair * lhs_k and pair * rhs_k, and
    both lie at the column's multidegree, so the components of the whole
    graph split by block."""
    pts = np.array(ideal.slice_s.points, dtype=np.int64)
    n, ngens = len(pts), len(ideal.generators)
    base = 4 * int(pts.max()) + 1
    pi, pj = np.triu_indices(n)
    gen_codes = _pack(np.array([gen.multidegree for gen in ideal.generators]), base)
    codes, block = np.unique(
        -(_pack(pts[pi] + pts[pj], base)[:, None] + gen_codes).ravel(), return_inverse=True
    )
    block = block.astype(np.int32)
    edges = np.bincount(block)
    pos = np.empty_like(block)
    pos[np.argsort(block, kind="stable")] = np.arange(len(block), dtype=np.int32) - np.repeat(
        (np.cumsum(edges) - edges).astype(np.int32), edges
    )
    index = np.int32 if n**4 < 2**31 else np.int64
    i = np.repeat(pi.astype(index), ngens)
    j = np.repeat(pj.astype(index), ngens)
    gen = _generator_ends(ideal)[np.tile(np.arange(ngens), len(pi))]
    ends = np.concatenate([
        _quartic_codes(n, i, j, gen[:, 0], gen[:, 1]),
        _quartic_codes(n, i, j, gen[:, 2], gen[:, 3]),
    ])
    del i, j, gen
    monomials, ends = np.unique(ends, return_inverse=True)
    nv = len(monomials)
    ends = ends.astype(np.int32)
    plus, minus = ends[: len(block)], ends[len(block):]
    vertex_block = np.empty(nv, dtype=np.int32)
    vertex_block[plus] = block
    vertex_block[minus] = block
    roots = _component_roots(plus, minus, nv)
    keys = -codes
    digits = np.stack([keys // base**3, keys // base**2 % base, keys // base % base, keys % base])
    return QuarticBlocks(
        keys=list(map(tuple, digits.T.tolist())),
        codes=codes,
        base=base,
        block=block,
        pos=pos,
        edges=edges,
        vertices=np.bincount(vertex_block, minlength=len(edges)),
        components=np.bincount(vertex_block[roots], minlength=len(edges)),
    )


def _ranges(starts, lengths):
    """The concatenated ranges [starts[t], starts[t] + lengths[t])."""
    ends = np.cumsum(lengths)
    return np.arange(int(ends[-1]) if len(ends) else 0) + np.repeat(starts - (ends - lengths), lengths)


def span_rows(ideal, blocks, syzygies):
    """(block, rows) for every block in order: its rows y_i * sigma, in the
    order of span_matrix, mod 2 as Python-int bitsets over all E columns of
    the block, bit = position.  A term whose column lies in another block is
    a KeyError naming the row's multidegree."""
    pts = np.array(ideal.slice_s.points, dtype=np.int64)
    n, ngens, nblocks = len(pts), len(ideal.generators), len(blocks.keys)
    multidegrees, counts = syzygies.multidegrees, syzygies.counts
    lengths, terms = syzygies.lengths, syzygies.terms
    # Row (i, sigma) lies in the block of u_i + multidegree(sigma), if any;
    # the rows are sorted by block, then i, then sigma.
    total = multidegrees[:, None, :] + pts
    code = -_pack(total, blocks.base)
    at = np.searchsorted(blocks.codes, code).clip(max=nblocks - 1)
    hit = (total >= 0).all(2) & (total < blocks.base).all(2) & (blocks.codes[at] == code)
    d, i = np.nonzero(hit)
    order = np.argsort(at[d, i] * n + i, kind="stable")
    d, i = d[order], i[order]
    row_block = np.repeat(at[d, i], counts[d])
    row_i = np.repeat(i, counts[d])
    row_syz = _ranges((np.cumsum(counts) - counts)[d], counts[d])
    term_start = np.cumsum(lengths) - lengths
    rows_of = np.bincount(row_block, minlength=nblocks)
    width = (blocks.edges + 7) >> 3
    first_row = np.cumsum(rows_of) - rows_of
    cost = np.bincount(row_block, weights=lengths[row_syz], minlength=nblocks) + rows_of * width
    chunk = (np.cumsum(cost) - cost) // _SPAN_CHUNK
    bounds = [0, *(np.flatnonzero(np.diff(chunk)) + 1).tolist(), nblocks]
    for b0, b1 in zip(bounds, bounds[1:]):
        r0 = int(first_row[b0])
        r1 = r0 + int(rows_of[b0:b1].sum())
        syz = row_syz[r0:r1]
        run = lengths[syz]
        j, k, c = terms[_ranges(term_start[syz], run)].T
        row = np.repeat(np.arange(r1 - r0), run)
        i = row_i[r0:r1][row]
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        col = (lo * (2 * n + 1 - lo) // 2 + hi - lo) * ngens + k
        in_block = row_block[r0:r1][row]
        outside = blocks.block[col] != in_block
        if outside.any():
            key = blocks.keys[in_block[np.argmax(outside)]]
            raise KeyError(f"span term outside its block at multidegree {key}")
        row_bytes = width[row_block[r0:r1]]
        offset = np.cumsum(row_bytes) - row_bytes
        odd = (c & 1).astype(bool)
        bit = blocks.pos[col[odd]]
        packed = np.zeros(int(row_bytes.sum()), dtype=np.uint8)
        np.bitwise_xor.at(packed, offset[row[odd]] + (bit >> 3), (1 << (bit & 7)).astype(np.uint8))
        for b in range(b0, b1):
            start = int(offset[first_row[b] - r0]) if rows_of[b] else 0
            rows = packed[start:start + int(rows_of[b] * width[b])].view((np.void, int(width[b])))
            yield b, list(map(int.from_bytes, rows.tolist(), repeat("little")))


def span_quartic_check(ideal, syzygies, fields=None) -> QuarticSyzygyReport:
    """The paper's quartic check, which resolution.quartic_check replaced:
    blockwise verification that there are no minimal quartic syzygies.

    For every weighted-degree-4s multidegree the span of variable multiples
    y_i * sigma of the cubic syzygies must have rank E - V + c, the dimension
    of the degree-4 kernel, the cycle space of the block's graph.  Every
    sigma is checked to cancel as a polynomial, so every y_i * sigma does and
    the span lies in the cycle space: its rational rank is at most E - V + c.
    The GF(2) rank of the span rows over all E columns of the block is a
    lower bound on it, taken up to E - V + c + 1.  Equal to E - V + c proves
    the block; above it is an AssertionError (a wrong E, V or c); below it
    the span matrix is solved under two primes and counted as a fallback.
    The vertices, components and span rows of all blocks are built as integer
    arrays over the whole space.
    """
    if fields is None:
        fields = default_fields()
    if not ideal.generators:
        return QuarticSyzygyReport(ok=True, witness=None, blocks_checked=0, fallbacks=0)
    _check_cancels(ideal, syzygies)
    blocks = quartic_blocks(ideal)
    kernel_dims = (blocks.edges - blocks.vertices + blocks.components).tolist()
    witness = None
    fallbacks = 0
    grouped = None
    for b, rows in span_rows(ideal, blocks, syzygies):
        key, kernel_dim = blocks.keys[b], kernel_dims[b]
        span_rank = rank_gf2(rows, kernel_dim + 1)
        if span_rank > kernel_dim:
            raise AssertionError(
                f"GF(2) span rank {span_rank} above the kernel dimension {kernel_dim} "
                f"at multidegree {key}"
            )
        if span_rank < kernel_dim:
            fallbacks += 1
            grouped = grouped or reference_incident_pairs_degree4(ideal)
            span = span_matrix(ideal, syzygies, key, grouped[key])
            span_rank = span.cols - solution_dim(span, *fields)
        if kernel_dim != span_rank and witness is None:
            witness = key
    return QuarticSyzygyReport(
        ok=witness is None, witness=witness, blocks_checked=len(blocks.keys), fallbacks=fallbacks
    )


@pytest.fixture(scope="session")
def gorenstein_spaces():
    return enumerate_gorenstein(21)


@pytest.fixture(scope="session")
def pipeline_2334():
    """Shared full pipeline for the smallest space (2,3,3,4)."""
    sp = weighted_space(2, 3, 3, 4)
    ideal = quadric_generators(sp)
    syzygies = linear_syzygies(ideal)
    hom = hom_dimension_minus1(ideal, syzygies)
    return {"space": sp, "ideal": ideal, "syzygies": syzygies, "hom": hom}


@pytest.fixture(scope="session")
def pipeline_231015():
    sp = weighted_space(2, 3, 10, 15)
    ideal = quadric_generators(sp)
    syzygies = linear_syzygies(ideal)
    hom = hom_dimension_minus1(ideal, syzygies)
    return {"space": sp, "ideal": ideal, "syzygies": syzygies, "hom": hom}

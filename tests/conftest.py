"""Shared fixtures and independent oracles for the test suite.

Oracles are deliberately written along different paths than the library code
they validate: counting by exhaustive loops instead of the coin DP, ranks by
fraction-exact Gaussian elimination instead of mod-p elimination, syzygy
bases by mod-p elimination instead of spanning forests, tangent shift blocks
as undeduplicated Python rows instead of deduplicated int64 arrays.  The
per-block tuple-graph forests, the per-fiber degree-3 check and the full
weight scan are the constructions the library replaced with whole-space
arrays and a bounded search, kept here as oracles.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from gwpskit._util import tadd
from gwpskit.exactla import SparseMatrix, default_fields, kernel_basis_mod_p, solution_dim
from gwpskit.resolution import (
    SyzygyBasis,
    SyzygyElement,
    incident_pairs_degree3,
    linear_syzygies,
)
from gwpskit.tangent import hom_dimension_minus1
from gwpskit.lattice import degree_slice
from gwpskit.toric import ConnectivityReport, quadric_generators
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


def projected_span_rows_gf2(ideal, syzygies, key, column_bit):
    """The rows y_i * sigma of a quartic block mod 2, in the order of
    resolution._span_matrix, as bitsets: the odd terms of a row XOR together
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


@pytest.fixture(scope="session")
def session_cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("gwpskit-cache"))

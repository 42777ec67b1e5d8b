"""Shared fixtures and independent oracles for the test suite.

Oracles are deliberately written along different paths than the library code
they validate: counting by exhaustive loops instead of the coin DP, ranks by
fraction-exact Gaussian elimination instead of mod-p elimination, syzygy
bases by mod-p elimination instead of spanning forests, tangent shift blocks
as undeduplicated Python rows instead of deduplicated int64 arrays.
"""

from __future__ import annotations

import os
from fractions import Fraction
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
from gwpskit.toric import quadric_generators
from gwpskit.wps import enumerate_gorenstein, weighted_space


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
    total = sum(len(v) for v in by_multidegree.values())
    return SyzygyBasis(by_multidegree=by_multidegree, total_count=total)


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

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
basis is one term table from the forest to the quartic check and the tangent
blocks.  The same holds in weighted degree 4s, where the kernel has dimension
E - V + c.  Quartic minimal syzygies vanish iff, blockwise, that dimension
equals the rank of the span of variable multiples of the cubic syzygies.  The
span lies in the kernel, so E - V + c bounds its rank from above, and the
GF(2) rank of the span rows over all E columns of the block bounds it from
below.  That rank is taken up to E - V + c + 1: equal to E - V + c proves the
block, above it is an error (a wrong E, V or c), and below it the rank is
taken under two primes, a counted fallback.  The check builds all blocks of a
space at once as integer arrays: monomials coded by their sorted index
tuples, components by min-label propagation, and span rows packed into
bitsets.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice, repeat
from math import comb

import numpy as np

from . import exactla, lattice
from ._util import tadd, tsub
from .exactla import FieldSpec, SparseMatrix
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


def _span_matrix(ideal: ToricIdeal, syzygies: SyzygyBasis, key: Point, cols):
    """Rows are y_i * sigma for every cubic syzygy sigma with multidegree
    key - u_i, written in the (pair, generator) coordinates of the block;
    repeated positions are summed and zero sums dropped."""
    col_index = {pk: idx for idx, pk in enumerate(cols)}
    pts = ideal.slice_s.points
    at_row, at_col, values = [], [], []
    nrows = 0
    for i, u in enumerate(pts):
        sub = tsub(key, u)
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
class QuarticSyzygyReport:
    """The verdict of the quartic check; fallbacks counts the blocks whose
    GF(2) rank fell short of E - V + c and were solved under two primes."""

    ok: bool
    witness: Point | None
    blocks_checked: int
    fallbacks: int


# Compare-exchange pairs that sort three or four values.
_SORTING_NETWORKS = {3: ((0, 1), (1, 2), (0, 1)), 4: ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2))}
# How many terms plus packed row bytes _span_rows gathers at once.  Gathering
# all rows of a space at once doubles the peak memory of a betti --verify pass.
_SPAN_CHUNK = 1 << 16


def _monomial_codes(n: int, *indices):
    """The code ((a*n + b)*n + c)... of each monomial y_a y_b y_c..., given as
    one index array per factor: a min/max network sorts the factors, so equal
    monomials get equal codes."""
    idx = list(indices)
    for a, b in _SORTING_NETWORKS[len(idx)]:
        idx[a], idx[b] = np.minimum(idx[a], idx[b]), np.maximum(idx[a], idx[b])
    code = idx[0]
    for x in idx[1:]:
        code = code * n + x
    return code


@dataclass(frozen=True)
class _QuarticBlocks:
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


def _generator_ends(ideal: ToricIdeal):
    """The lhs pair, then the rhs pair, of each generator as a (G, 4) int32
    array."""
    return np.array([gen.lhs + gen.rhs for gen in ideal.generators], dtype=np.int32).reshape(-1, 4)


def _quartic_blocks(ideal: ToricIdeal) -> _QuarticBlocks:
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
        _monomial_codes(n, i, j, gen[:, 0], gen[:, 1]),
        _monomial_codes(n, i, j, gen[:, 2], gen[:, 3]),
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
    return _QuarticBlocks(
        keys=list(map(tuple, digits.T.tolist())),
        codes=codes,
        base=base,
        block=block,
        pos=pos,
        edges=edges,
        vertices=np.bincount(vertex_block, minlength=len(edges)),
        components=np.bincount(vertex_block[roots], minlength=len(edges)),
    )


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


def _ranges(starts, lengths):
    """The concatenated ranges [starts[t], starts[t] + lengths[t])."""
    ends = np.cumsum(lengths)
    return np.arange(int(ends[-1]) if len(ends) else 0) + np.repeat(starts - (ends - lengths), lengths)


def _span_rows(ideal: ToricIdeal, blocks: _QuarticBlocks, syzygies: SyzygyBasis):
    """(block, rows) for every block in order: its rows y_i * sigma, in the
    order of _span_matrix, mod 2 as Python-int bitsets over all E columns of
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


def check_no_quartic_syzygies(
    ideal: ToricIdeal,
    syzygies: SyzygyBasis,
    fields: tuple[FieldSpec, FieldSpec] | None = None,
) -> QuarticSyzygyReport:
    """Blockwise verification that there are no minimal quartic syzygies.

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
        fields = exactla.default_fields()
    if not ideal.generators:
        return QuarticSyzygyReport(ok=True, witness=None, blocks_checked=0, fallbacks=0)
    _check_cancels(ideal, syzygies)
    blocks = _quartic_blocks(ideal)
    kernel_dims = (blocks.edges - blocks.vertices + blocks.components).tolist()
    witness = None
    fallbacks = 0
    grouped = None
    for b, rows in _span_rows(ideal, blocks, syzygies):
        key, kernel_dim = blocks.keys[b], kernel_dims[b]
        span_rank = exactla.rank_gf2(rows, kernel_dim + 1)
        if span_rank > kernel_dim:
            raise AssertionError(
                f"GF(2) span rank {span_rank} above the kernel dimension {kernel_dim} "
                f"at multidegree {key}"
            )
        if span_rank < kernel_dim:
            fallbacks += 1
            grouped = grouped or incident_pairs_degree4(ideal)
            span = _span_matrix(ideal, syzygies, key, grouped[key])
            span_rank = span.cols - exactla.solution_dim(span, *fields)
        if kernel_dim != span_rank and witness is None:
            witness = key
    return QuarticSyzygyReport(
        ok=witness is None, witness=witness, blocks_checked=len(blocks.keys), fallbacks=fallbacks
    )

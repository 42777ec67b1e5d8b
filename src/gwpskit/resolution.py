"""Multigraded linear first syzygies and the quartic-syzygy vanishing check.

The first syzygies of the quadric generators decompose by exponent-sum
multidegree of weighted degree 3s.  In each local block the incident
(variable, generator) pair (i, k) sends y_i * q_k to the difference of two
cubic monomials, so it is an edge between those monomials and the block's
syzygies form the cycle space of that graph.  The basis is the set of
fundamental cycles of a spanning forest grown over the pairs in ascending
order: integral by construction, with coefficients +-1, and each element is
checked to cancel as a polynomial.  The same holds in weighted degree 4s,
where the kernel has dimension E - V + c.  Quartic minimal syzygies vanish
iff, blockwise, that dimension equals the rank of the span of variable
multiples of the cubic syzygies.  The span lies in the kernel, so E - V + c
bounds its rank from above, and the GF(2) rank of the span rows over all E
columns of the block bounds it from below.  That rank is taken up to
E - V + c + 1: equal to E - V + c proves the block, above it is an error (a
wrong E, V or c), and below it the rank is taken under two primes, a counted
fallback.  The check builds all blocks of a space at once as integer arrays:
monomials coded by their sorted index tuples, components by min-label
propagation, and span rows packed into bitsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from math import comb

import numpy as np

from . import exactla, lattice
from ._util import tadd, tsub
from .exactla import FieldSpec, SparseMatrix
from .lattice import Point
from .toric import ConnectivityReport, ToricIdeal, check_degree3_generation, spanning_forest
from .wps import WeightedSpace, invariants


@dataclass(frozen=True)
class SyzygyElement:
    """A linear syzygy sum(c * y_i * q_k) = 0 at one multidegree.

    terms are (variable index i, generator index k, integer coefficient);
    every term satisfies u_i + c_k = multidegree.
    """

    multidegree: Point
    terms: tuple[tuple[int, int, int], ...]


@dataclass
class SyzygyBasis:
    by_multidegree: dict[Point, tuple[SyzygyElement, ...]]
    total_count: int

    def elements(self):
        for key in sorted(self.by_multidegree, reverse=True):
            yield from self.by_multidegree[key]


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


def _edges(ideal: ToricIdeal, cols):
    """The edge (plus, minus) of each column (monomial, k) of a block: the two
    monomials of monomial * q_k, as sorted index tuples."""
    out = []
    for mono, k in cols:
        gen = ideal.generators[k]
        out.append((tuple(sorted(mono + gen.lhs)), tuple(sorted(mono + gen.rhs))))
    return out


def linear_syzygies(
    ideal: ToricIdeal,
    fields: tuple[FieldSpec, FieldSpec] | None = None,
) -> SyzygyBasis:
    """Explicit bases of the local degree-3 syzygy kernels.

    Each local basis is the set of fundamental cycles of the spanning forest
    grown over the block's (i, k) pairs in ascending order, which is the
    basis that elimination with smallest-first pivots would give.  Every
    element is checked to vanish identically as a polynomial.  `fields` is
    accepted for compatibility and unused: no prime field is involved.
    """
    by_multidegree = {}
    grouped = incident_pairs_degree3(ideal)
    for key in sorted(grouped, reverse=True):
        cols = grouped[key]
        edges = _edges(ideal, [((i,), k) for i, k in cols])
        elems = tuple(
            SyzygyElement(multidegree=key, terms=tuple(cols[j] + (c,) for j, c in cycle))
            for cycle in spanning_forest(edges)[3]
        )
        if elems:
            by_multidegree[key] = elems
    total = sum(len(v) for v in by_multidegree.values())
    basis = SyzygyBasis(by_multidegree=by_multidegree, total_count=total)
    elements, _, _, lengths, terms = _syzygy_terms(basis)
    _check_cancels(ideal, elements, lengths, terms)
    return basis


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


def _pack(points, base: int):
    """Multidegrees along the last axis, each coordinate below base, as
    integers in the order of the tuples."""
    return ((points[..., 0] * base + points[..., 1]) * base + points[..., 2]) * base + points[..., 3]


def _component_roots(a, b, nv: int):
    """A mask with one True per connected component of the graph on nv
    vertices with edges (a[e], b[e]).  Min-label propagation: every round
    hooks the larger label of each edge whose ends disagree onto the smaller,
    then jumps every label to its root, until all edges agree."""
    label = np.arange(nv, dtype=a.dtype)
    while True:
        la, lb = label[a], label[b]
        differ = la != lb
        if not differ.any():
            return label == np.arange(nv)
        np.minimum.at(label, np.maximum(la, lb)[differ], np.minimum(la, lb)[differ])
        while not np.array_equal(jumped := label[label], label):
            label = jumped


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


def _syzygy_terms(syzygies: SyzygyBasis):
    """(elements, multidegrees, counts, lengths, terms): the syzygies in
    basis order, their distinct multidegrees in descending order as a (D, 4)
    array with the number of syzygies at each, the term count of each
    syzygy, and all terms as the rows (j, k, c) of one int64 array."""
    keys = sorted(syzygies.by_multidegree, reverse=True)
    elems = [syz for key in keys for syz in syzygies.by_multidegree[key]]
    counts = np.array([len(syzygies.by_multidegree[key]) for key in keys], dtype=np.int64)
    lengths = np.fromiter((len(syz.terms) for syz in elems), np.int64, len(elems))
    flat = chain.from_iterable(chain.from_iterable(syz.terms for syz in elems))
    terms = np.fromiter(flat, np.int64, 3 * int(lengths.sum())).reshape(-1, 3)
    return elems, np.array(keys, dtype=np.int64).reshape(-1, 4), counts, lengths, terms


def _check_cancels(ideal: ToricIdeal, elems, lengths, terms) -> None:
    """Every syzygy sum c * y_j * q_k vanishes as a polynomial: its cubic
    monomials, keyed by syzygy, sum to zero.  The first one that does not,
    in basis order, is an AssertionError, and so is one with a variable index
    outside the slice, whose monomials would have no code."""
    n = len(ideal.slice_s)
    j, k, c = terms.T
    owner = np.repeat(np.arange(len(elems), dtype=np.int64), lengths)
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
        syz = elems[int(broken.min())]
        raise AssertionError(f"syzygy at multidegree {syz.multidegree} does not cancel")


def _ranges(starts, lengths):
    """The concatenated ranges [starts[t], starts[t] + lengths[t])."""
    ends = np.cumsum(lengths)
    return np.arange(int(ends[-1]) if len(ends) else 0) + np.repeat(starts - (ends - lengths), lengths)


def _span_rows(ideal: ToricIdeal, blocks: _QuarticBlocks, syzygy_terms):
    """(block, rows) for every block in order: its rows y_i * sigma, in the
    order of _span_matrix, mod 2 as Python-int bitsets over all E columns of
    the block, bit = position.  A term whose column lies in another block is
    a KeyError naming the row's multidegree."""
    pts = np.array(ideal.slice_s.points, dtype=np.int64)
    n, ngens, nblocks = len(pts), len(ideal.generators), len(blocks.keys)
    _, multidegrees, counts, lengths, terms = syzygy_terms
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
    syzygy_terms = _syzygy_terms(syzygies)
    elems, _, _, lengths, terms = syzygy_terms
    _check_cancels(ideal, elems, lengths, terms)
    blocks = _quartic_blocks(ideal)
    kernel_dims = (blocks.edges - blocks.vertices + blocks.components).tolist()
    witness = None
    fallbacks = 0
    grouped = None
    for b, rows in _span_rows(ideal, blocks, syzygy_terms):
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

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
bounds its rank from above, and the GF(2) rank bounds it from below; where
they meet the block is proven, and elsewhere the rank is taken under two
primes, a counted fallback.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

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


def _cancels(edges, cycle) -> bool:
    """Whether sum c * (plus - minus) of edges[j] over the (j, c) in cycle
    vanishes: the syzygy cancels as a polynomial."""
    acc: dict[tuple[int, ...], int] = {}
    for j, c in cycle:
        plus, minus = edges[j]
        acc[plus] = acc.get(plus, 0) + c
        acc[minus] = acc.get(minus, 0) - c
    return not any(acc.values())


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
        elems = []
        for cycle in spanning_forest(edges)[3]:
            if not _cancels(edges, cycle):
                raise AssertionError(f"syzygy at multidegree {key} does not cancel")
            terms = tuple(cols[j] + (c,) for j, c in cycle)
            elems.append(SyzygyElement(multidegree=key, terms=terms))
        if elems:
            by_multidegree[key] = tuple(elems)
    total = sum(len(v) for v in by_multidegree.values())
    return SyzygyBasis(by_multidegree=by_multidegree, total_count=total)


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


def _span_rows_gf2(ideal: ToricIdeal, syzygies: SyzygyBasis, key: Point, column_bit):
    """The rows of _span_matrix mod 2, lazily and in the same order, as
    bitsets: the odd terms of a row XOR together column_bit[(pair, generator)],
    which must hold every column of the block."""
    for i, u in enumerate(ideal.slice_s.points):
        sub = tsub(key, u)
        if min(sub) < 0:
            continue
        for syz in syzygies.by_multidegree.get(sub, ()):
            row = 0
            for (j, k, c) in syz.terms:
                if c & 1:
                    row ^= column_bit[((i, j) if i <= j else (j, i), k)]
            yield row


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
    the span lies in the cycle space.  The fundamental cycles are the identity
    on the non-tree columns, so projecting onto them keeps the rank over Q and
    mod 2, and the projected span has E - V + c columns.  Its GF(2) rank,
    a lower bound on the rational rank, proves the block when it reaches
    E - V + c; above it is an AssertionError (an inconsistent forest), and
    below it the span matrix is solved under two primes and counted as a
    fallback.
    """
    if fields is None:
        fields = exactla.default_fields()
    if not ideal.generators:
        return QuarticSyzygyReport(ok=True, witness=None, blocks_checked=0, fallbacks=0)
    for syz in syzygies.elements():
        edges = _edges(ideal, [((i,), k) for i, k, _ in syz.terms])
        if not _cancels(edges, [(j, c) for j, (_, _, c) in enumerate(syz.terms)]):
            raise AssertionError(f"syzygy at multidegree {syz.multidegree} does not cancel")
    grouped = incident_pairs_degree4(ideal)
    keys = sorted(grouped, reverse=True)
    witness = None
    fallbacks = 0
    for key in keys:
        cols = grouped[key]
        vertices, components, non_tree, _ = spanning_forest(_edges(ideal, cols))
        kernel_dim = len(cols) - vertices + components
        column_bit = dict.fromkeys(cols, 0)
        column_bit.update((cols[j], 1 << b) for b, j in enumerate(non_tree))
        rows = _span_rows_gf2(ideal, syzygies, key, column_bit)
        span_rank = exactla.rank_gf2(rows, len(non_tree))
        if span_rank > kernel_dim:
            raise AssertionError(
                f"GF(2) span rank {span_rank} above the kernel dimension {kernel_dim} "
                f"at multidegree {key}"
            )
        if span_rank < kernel_dim:
            fallbacks += 1
            span = _span_matrix(ideal, syzygies, key, cols)
            span_rank = span.cols - exactla.solution_dim(span, *fields)
        if kernel_dim != span_rank and witness is None:
            witness = key
    return QuarticSyzygyReport(
        ok=witness is None, witness=witness, blocks_checked=len(keys), fallbacks=fallbacks
    )

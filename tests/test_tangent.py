import re
from itertools import combinations, islice, product
from math import gcd

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    cut_first_slice_point,
    elimination_syzygies,
    max_rooted,
    monolithic_hom_dimension,
    rational_rank,
    raw_block_rows,
)
from gwpskit import tangent
from gwpskit.exactla import SparseMatrix, default_fields, echelon, solution_dim
from gwpskit.lattice import degree_slice
from gwpskit.resolution import linear_syzygies
from gwpskit.tangent import (
    alpha_report,
    assemble_report,
    build_block,
    derivation_vectors,
    enumerate_shifts,
    hom_dimension_minus1,
    t1_by_shift,
    t1_dimensions,
)
from gwpskit.toric import BettiConsistencyError, quadric_generators
from gwpskit.wps import invariants, weighted_space


def test_hom_dimension_2334(pipeline_2334):
    hom = pipeline_2334["hom"]
    assert hom.total == 20
    assert sum(hom.by_shift.values()) == 20
    assert all(d >= 0 for d in hom.by_shift.values())


def test_hom_dimension_1236():
    sp = weighted_space(1, 2, 3, 6)
    rep = alpha_report(sp)
    assert rep.alpha_P + invariants(sp).g + 2 == 27
    assert rep.alpha_P == 0


def test_shift_with_no_unknowns_is_skipped(pipeline_2334):
    ideal = pipeline_2334["ideal"]
    syz = pipeline_2334["syzygies"]
    # a shift far outside the slice range yields no block
    assert build_block(ideal, syz, (99, 0, 0, -50)) is None


def test_blocks_match_raw_rows(pipeline_2334):
    """Every shift block of (2,3,3,4) against the rows built one by one: the
    same solution dimension, and the block rows are the raw rows made
    primitive with a positive leading entry, each once."""
    ideal, syz = pipeline_2334["ideal"], pipeline_2334["syzygies"]
    by_shift = pipeline_2334["hom"].by_shift
    fields = default_fields()
    raw_total = block_total = 0
    for shift in enumerate_shifts(ideal):
        unknowns, raw = raw_block_rows(ideal, syz, shift)
        block = build_block(ideal, syz, shift)
        if not unknowns:
            assert block is None and by_shift[shift] == 0
            continue
        mat = SparseMatrix.from_dense(raw) if raw else SparseMatrix(0, len(unknowns), ())
        assert solution_dim(mat, *fields) == by_shift[shift]
        assert block.unknowns == tuple(unknowns)
        assert block.constraints.dtype == np.int64
        assert block.constraints.shape[1] == len(unknowns)
        rows = [tuple(int(v) for v in row) for row in block.constraints]
        for row in rows:
            assert gcd(*row) == 1
            assert next(v for v in row if v) > 0
        assert len(set(rows)) == len(rows)
        normalised = set()
        for row in raw:
            unit = gcd(*row) * (1 if next(v for v in row if v) > 0 else -1)
            normalised.add(tuple(v // unit for v in row))
        assert set(rows) == normalised
        raw_total += len(raw)
        block_total += len(rows)
    assert block_total < raw_total


def test_fallback_counts_2334(pipeline_2334):
    """Measured: every quartic block of (2,3,3,4) is proven by its GF(2) rank,
    and 5 of its tangent blocks fall back to two primes."""
    from gwpskit.resolution import quartic_check

    ideal, syz = pipeline_2334["ideal"], pipeline_2334["syzygies"]
    assert quartic_check(pipeline_2334["space"]).fallbacks == 0
    assert pipeline_2334["hom"].fallbacks == 5
    assert hom_dimension_minus1(ideal, syz, known=pipeline_2334["hom"].by_shift).fallbacks == 0


def test_certified_table_equals_two_prime_solve(pipeline_2334, pipeline_231015):
    """Oracle: solution_dim on every block gives the certified table."""
    fields = default_fields()
    for pipe in (pipeline_2334, pipeline_231015):
        ideal, syz = pipe["ideal"], pipe["syzygies"]
        for shift, dim in pipe["hom"].by_shift.items():
            block = build_block(ideal, syz, shift)
            want = 0 if block is None else solution_dim(
                SparseMatrix.from_dense(block.constraints), *fields
            )
            assert dim == want, shift


def test_alpha_report_2334(pipeline_2334):
    """alpha_P is the sum of T^1, and with the g+2 coordinate derivations
    the Hom total of the elimination route."""
    sp = pipeline_2334["space"]
    rep = alpha_report(sp)
    assert (rep.alpha_S, rep.alpha_P, rep.extendability) == (6, 5, 5)
    assert rep.alpha_S == rep.alpha_P + 1
    assert rep.alpha_C == rep.alpha_P + 2
    assert rep.alpha_P == sum(t1_by_shift(sp).values())
    assert rep.alpha_P + invariants(sp).g + 2 == pipeline_2334["hom"].total


def test_a_negative_t1_total_is_named(monkeypatch):
    """alpha_report asserts that the sum of T^1, the Hom total less the g+2
    coordinate derivations, is not negative."""
    monkeypatch.setattr(tangent, "t1_dimensions",
                        lambda points, shifts: [-1] + [0] * (len(shifts) - 1))
    with pytest.raises(AssertionError, match=re.escape("hom dimension 14 below ambient 15")):
        alpha_report(weighted_space(2, 3, 3, 4))


def test_alpha_report_231015(pipeline_231015):
    rep = assemble_report(
        pipeline_231015["space"],
        pipeline_231015["ideal"],
        pipeline_231015["syzygies"],
        pipeline_231015["hom"],
    )
    assert (rep.alpha_S, rep.alpha_P) == (3, 2)


def test_alpha_requires_gorenstein():
    with pytest.raises(ValueError):
        alpha_report(weighted_space(1, 1, 1, 2))


def test_derivations(pipeline_2334):
    ideal = pipeline_2334["ideal"]
    derivs = derivation_vectors(ideal, pipeline_2334["syzygies"])
    g = invariants(ideal.space).g
    assert len(derivs) == g + 2
    shifts = {d.shift for d in derivs}
    assert len(shifts) == g + 2
    for d in derivs:
        assert any(c for _, c in d.components)
        u = ideal.slice_s.points[d.coordinate]
        assert d.shift == (-u[0], -u[1], -u[2], -u[3])


def test_derivation_zero_component_for_untouched_generator(pipeline_2334):
    ideal = pipeline_2334["ideal"]
    derivs = derivation_vectors(ideal, pipeline_2334["syzygies"])
    found = False
    for d in derivs:
        for k, coeff in d.components:
            gen = ideal.generators[k]
            if d.coordinate not in gen.lhs and d.coordinate not in gen.rhs:
                assert coeff == 0
                found = True
    assert found


def test_hom_at_least_ambient(pipeline_2334, pipeline_231015):
    for pipe in (pipeline_2334, pipeline_231015):
        g = invariants(pipe["space"]).g
        assert pipe["hom"].total >= g + 2


def test_block_sum_equals_monolithic(pipeline_2334, pipeline_231015):
    for pipe in (pipeline_2334, pipeline_231015):
        mono = monolithic_hom_dimension(pipe["ideal"], pipe["syzygies"])
        assert mono == pipe["hom"].total


def test_t1_invariant_under_tree_and_basis_choice():
    sp = weighted_space(2, 3, 3, 4)
    dims = set()
    for ideal in (quadric_generators(sp), max_rooted(quadric_generators(sp))):
        for syz in (linear_syzygies(ideal), elimination_syzygies(ideal, reverse=True)):
            hom = hom_dimension_minus1(ideal, syz)
            dims.add(hom.total)
    assert dims == {20}


def test_known_blocks_resume(pipeline_2334):
    hom = pipeline_2334["hom"]
    partial = dict(list(hom.by_shift.items())[: len(hom.by_shift) // 2])
    resumed = hom_dimension_minus1(
        pipeline_2334["ideal"], pipeline_2334["syzygies"], known=partial
    )
    assert resumed.by_shift == hom.by_shift


def test_shift_enumeration_is_sorted(pipeline_2334):
    shifts = enumerate_shifts(pipeline_2334["ideal"])
    assert shifts == sorted(shifts)
    s = invariants(pipeline_2334["space"]).s
    ws = pipeline_2334["space"].weights
    assert all(sum(w * x for w, x in zip(ws, sh)) == -s for sh in shifts)


def test_shift_enumeration_equals_the_set_loop(gorenstein_spaces):
    """Oracle: the broadcast enumeration is the sorted set of the tuples
    v - c over generator multidegrees c and slice points v."""
    for sp in gorenstein_spaces:
        ideal = quadric_generators(sp)
        shifts = {
            tuple(a - b for a, b in zip(v, gen.multidegree))
            for gen in ideal.generators for v in ideal.slice_s.points
        }
        assert enumerate_shifts(ideal) == sorted(shifts), sp



# Every nonzero T^1 dimension of the 14 spaces, taken from the elimination
# route: hom_dimension_minus1's per-shift table minus one at each coordinate
# shift.  They are the 17 blocks that route solves under two primes.
NONZERO_T1 = {
    (2, 3, 3, 4): {(-3, 0, 2, -3): 1, (-3, 1, 1, -3): 1, (-3, 2, 0, -3): 1,
                   (-2, 0, 0, -2): 1, (0, -2, -2, 0): 1},
    (1, 3, 4, 4): {(-4, -4, 0, 1): 1, (-4, -4, 1, 0): 1, (-3, -3, 0, 0): 1},
    (2, 3, 10, 15): {(-3, 2, -3, 0): 1, (3, -2, 0, -2): 1},
    (1, 4, 5, 10): {(-5, -5, 1, 0): 1, (-4, -4, 0, 0): 1},
    (1, 2, 2, 5): {(-2, 0, 1, -2): 1, (-2, 1, 0, -2): 1},
    (1, 6, 14, 21): {(-6, -6, 0, 0): 1},
    (1, 3, 8, 12): {(-3, 1, -3, 0): 1},
    (1, 2, 6, 9): {(-2, 1, 0, -2): 1},
}


def test_t1_is_nonzero_exactly_at_the_pinned_shifts(gorenstein_spaces):
    assert len(gorenstein_spaces) == 14
    for sp in gorenstein_spaces:
        table = t1_by_shift(sp)
        assert table.keys() == set(enumerate_shifts(quadric_generators(sp)))
        assert {d: t for d, t in table.items() if t} == NONZERO_T1.get(sp.weights, {}), sp


def test_hom_table_equals_the_elimination_route(pipeline_2334, pipeline_231015):
    ideal = quadric_generators(weighted_space(1, 3, 4, 4))
    pairs = [(pipe["ideal"], pipe["hom"]) for pipe in (pipeline_2334, pipeline_231015)]
    pairs.append((ideal, hom_dimension_minus1(ideal, linear_syzygies(ideal))))
    for ideal, hom in pairs:
        # T^1 plus one at each coordinate shift -u_m, whose d/dy_m is nonzero on I.
        coordinate = {tuple(-x for x in u) for u in ideal.slice_s.points}
        table = {d: t1 + (d in coordinate) for d, t1 in t1_by_shift(ideal.space).items()}
        assert table == hom.by_shift, ideal.space


def test_a_coordinate_in_no_generator_is_named(monkeypatch):
    """With slice index 7 dropped from the vertices of the degree-2s
    complexes, no generator would hold it and the derivation d/dy_7 would
    vanish on the ideal: t1_by_shift raises and names the space and the
    index."""
    read = tangent._degree_2s_complexes

    def without_7(space):
        points, keys, components, faces = read(space)
        block, vertex = faces[0]
        kept = vertex[:, 0] != 7
        return points, keys, components, [(block[kept], vertex[kept]), *faces[1:]]

    monkeypatch.setattr(tangent, "_degree_2s_complexes", without_7)
    with pytest.raises(AssertionError, match=re.escape(
            "slice coordinate 7 occurs in no quadric generator of (2,3,3,4)")):
        t1_by_shift(weighted_space(2, 3, 3, 4))


def test_alpha_names_a_point_of_no_two_slice_points(monkeypatch):
    """alpha reads the quadrics off the complexes that beta1 reads, and fails
    the same way: without the first point x of the degree-s slice, 2x is a
    sum of no two slice points."""
    sp = weighted_space(2, 3, 3, 4)
    x = cut_first_slice_point(monkeypatch, sp, 2)
    with pytest.raises(BettiConsistencyError) as failure:
        alpha_report(sp)
    assert str(failure.value).startswith(f"{tuple(2 * c for c in x)} of degree 2s ")
    assert "(2,3,3,4)" in str(failure.value)


def _box_outside_shifts(ideal):
    """The weight -s shifts in the box of radius three times the largest
    slice coordinate that enumerate_shifts leaves out, built one slab of
    first coordinate at a time."""
    a = np.array(ideal.space.weights)
    s = invariants(ideal.space).s
    r = 3 * max(max(u) for u in ideal.slice_s.points)
    shifts = set(enumerate_shifts(ideal))
    side = np.arange(-r, r + 1)
    grid = np.stack(np.meshgrid(side, side, indexing="ij"), -1).reshape(-1, 2)
    for first in side.tolist():
        rest = -s - first * a[0] - grid @ a[1:3]
        last = rest // a[3]
        keep = (rest % a[3] == 0) & (np.abs(last) <= r)
        slab = np.column_stack([np.full(keep.sum(), first), grid[keep], last[keep]])
        yield from (d for d in map(tuple, slab.tolist()) if d not in shifts)


@pytest.mark.parametrize(
    "weights, count",
    [((2, 3, 3, 4), 10460), ((2, 3, 10, 15), 50013), ((1, 3, 4, 4), 77822),
     ((1, 2, 2, 5), 44913), ((1, 6, 14, 21), 770868)],
    ids=["2,3,3,4", "2,3,10,15", "1,3,4,4", "1,2,2,5", "1,6,14,21"],
)
def test_t1_vanishes_off_the_shift_set(weights, count):
    """Every shift of the box outside enumerate_shifts has T^1 = 0; the
    shifts are ranked in chunks of 100,000."""
    ideal = quadric_generators(weighted_space(*weights))
    outside = _box_outside_shifts(ideal)
    seen = 0
    while chunk := list(islice(outside, 100_000)):
        seen += len(chunk)
        assert not any(t1_dimensions(ideal.slice_s.points, chunk))
    assert seen == count


def _c_rows(spanning):
    """The rows of C from spanning points of each E_j & E_k, j < k in pair
    order."""
    rows = []
    for (j, k), chosen in zip(combinations(range(4), 2), spanning):
        for u in chosen:
            row = [0] * 16
            row[4 * j:4 * j + 4] = u
            row[4 * k:4 * k + 4] = [-x for x in u]
            rows.append(row)
    return rows


def _altmann_undeduplicated(points, shift):
    """Altmann's formula at one shift, with no basis and no deduplication:
    C has one row per pair j < k and point of E_j & E_k, and every rank is
    rational_rank's."""
    sets = [[u for u in points if u[j] < -shift[j]] for j in range(4)]
    rows = _c_rows([u for u in sets[j] if u in sets[k]] for j, k in combinations(range(4), 2))
    free = sum(4 - rational_rank(e) for e in sets)
    union = [u for u in points if any(u in e for e in sets)]
    return 16 - rational_rank(rows) - free - rational_rank(union)


def test_t1_dimensions_equals_the_undeduplicated_formula(pipeline_2334, pipeline_231015):
    for pipe in (pipeline_2334, pipeline_231015):
        points = pipe["ideal"].slice_s.points
        shifts = enumerate_shifts(pipe["ideal"])
        want = [_altmann_undeduplicated(points, d) for d in shifts]
        assert t1_dimensions(points, shifts) == want


vectors = st.lists(st.tuples(*[st.integers(-3, 3)] * 4), max_size=5)


@settings(deadline=None)
@given(vectors, vectors)
def test_echelon_is_a_canonical_span_key(a, b):
    """Two row lists get the same basis exactly when they span the same
    space, and its length is the rank."""
    key_a, key_b = echelon(a, 4), echelon(b, 4)
    assert len(key_a) == rational_rank(a)
    same = rational_rank(a) == rational_rank(b) == rational_rank(a + b)
    assert (key_a == key_b) == same


def _set_points(points, member):
    return [[points[i] for i in np.flatnonzero(row).tolist()] for row in member]


def test_certified_spans_and_counted_ranks_equal_echelon(gorenstein_spaces):
    """Oracle on the point sets that t1_dimensions forms on all 14 spaces:
    each span that the certificate proves has the unit vectors of its support
    as its echelon basis, and each rank of C counted by coordinate is the
    echelon rank of C.  The certified branch is taken on every space, the
    echelon fallback on some."""
    fallback_spaces = 0
    for sp in gorenstein_spaces:
        points, shifts = tangent._quadrics(sp)
        pts = np.array(points, dtype=np.int64)
        member, ids, _ = tangent._point_sets(pts, shifts)
        support, proven = tangent._coordinate_spans(pts, member)
        bases = [echelon(f, 4) for f in _set_points(points, member)]
        keys = tangent._unit_bases(support)
        assert proven.any(), sp
        assert all(keys[f] == bases[f] for f in np.flatnonzero(proven).tolist()), sp
        counted = proven[ids[:, :6]].all(1)
        assert counted.any(), sp
        ranks = tangent._coordinate_rank_c(support[ids[:, :6]])
        for p in np.flatnonzero(counted).tolist():
            assert ranks[p] == len(echelon(_c_rows(bases[f] for f in ids[p, :6]), 16)), sp
        fallback_spaces += not proven.all()
    assert fallback_spaces >= 1


_UNITS4 = [tuple(4 * (i == j) for j in range(4)) for i in range(4)]
points4 = st.lists(st.tuples(*[st.integers(0, 4)] * 4), max_size=4)


@settings(deadline=None)
@given(st.sets(st.integers(0, 3)), points4)
def test_a_certified_span_is_the_coordinate_subspace(vertices, others):
    """On every subset of vertex points 4e_i and small points, the
    certificate claims the coordinate subspace on the support only where
    rational_rank confirms it."""
    points = [_UNITS4[i] for i in sorted(vertices)] + others
    pts = np.array(points, dtype=np.int64).reshape(-1, 4)
    member = np.array(list(product([False, True], repeat=len(points))), dtype=bool)
    support, proven = tangent._coordinate_spans(pts, member)
    for chosen, t, ok in zip(_set_points(points, member), support.sum(1), proven):
        assert not ok or rational_rank(chosen) == t


def test_parallel_projections_fall_back():
    """Beside the vertex (4,0,0,0), two points with parallel projections onto
    W = {1, 2} prove nothing; a third, not parallel to them, proves Q^{0,1,2}."""
    pts = np.array([(4, 0, 0, 0), (0, 1, 1, 0), (0, 2, 2, 0), (0, 1, 2, 0)], dtype=np.int64)
    member = np.array([[1, 1, 1, 0], [1, 1, 1, 1]], dtype=bool)
    support, proven = tangent._coordinate_spans(pts, member)
    assert support.tolist() == [[True, True, True, False]] * 2
    assert proven.tolist() == [False, True]


@settings(deadline=None)
@given(st.sets(st.integers(0, 3)), points4,
       st.lists(st.tuples(*[st.integers(-4, 1)] * 4), min_size=1, max_size=4))
@example(set(), [], [(-1, 0, 0, 0)])
def test_t1_dimensions_equals_the_formula_on_small_point_sets(vertices, others, shifts):
    """Off the slices too, where spans that are no coordinate subspace occur
    among the E_j and U as well as among the E_j & E_k, and on no points."""
    points = [_UNITS4[i] for i in sorted(vertices)] + others
    want = [_altmann_undeduplicated(points, d) for d in shifts]
    assert t1_dimensions(points, shifts) == want


@settings(deadline=None)
@given(st.lists(st.lists(st.booleans(), min_size=4, max_size=4), min_size=6, max_size=6))
def test_rank_c_by_coordinate_equals_echelon(support):
    """Where each E_j & E_k spans the coordinate subspace on its support, the
    rank of C counted per coordinate is the echelon rank of C."""
    support = np.array(support, dtype=bool)
    bases = tangent._unit_bases(support)
    assert tangent._coordinate_rank_c(support) == len(echelon(_c_rows(bases), 16))


def test_t1_dimensions_edge_cases(pipeline_2334):
    points = pipeline_2334["ideal"].slice_s.points
    assert t1_dimensions(points, []) == []
    # No point has a negative coordinate, so every member set is empty.
    assert t1_dimensions(points, [(0, 0, 0, 0)]) == [0]


def test_t1_vanishes_in_weight_minus_2s(gorenstein_spaces):
    """T^1(-R) = 0 at every R of the degree-2s slice: with the depth argument
    of the gwpskit.tangent docstring, H^0(N_P(-2)) = 0."""
    for sp in gorenstein_spaces:
        s = invariants(sp).s
        shifts = [tuple(-x for x in r) for r in degree_slice(sp, 2 * s).points]
        assert not any(t1_dimensions(degree_slice(sp, s).points, shifts)), sp

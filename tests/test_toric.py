import re
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    binomial_edges,
    cut_first_slice_point,
    degree2_span_crosscheck,
    max_rooted,
    per_fiber_degree3_report,
    rational_rank,
    reference_divisor_complexes,
    spanning_forest,
)
from gwpskit.exactla import SparseMatrix, default_fields, solution_dim
from gwpskit.lattice import DegreeSlice, count_points, degree_slice
from gwpskit import resolution, toric
from gwpskit.resolution import incident_pairs_degree3
from gwpskit.toric import (
    BettiConsistencyError,
    ConnectivityReport,
    beta1,
    check_degree3_generation,
    quadric_generators,
)
from gwpskit.wps import _minimal_presentation, enumerate_gorenstein, invariants, weighted_space


def test_generator_counts():
    assert len(quadric_generators(weighted_space(2, 3, 3, 4)).generators) == 55
    assert len(quadric_generators(weighted_space(1, 1, 4, 6)).generators) == 595


def test_single_decomposition_fiber_contributes_nothing():
    ideal = quadric_generators(weighted_space(2, 3, 3, 4))
    top = (12, 0, 0, 0)
    assert len(ideal.fibers[top]) == 1
    assert all(gen.multidegree != top for gen in ideal.generators)


def test_generator_invariants():
    ideal = quadric_generators(weighted_space(2, 3, 3, 4))
    pts = ideal.slice_s.points
    for gen in ideal.generators:
        a, b = gen.lhs
        g, d = gen.rhs
        assert gen.lhs != gen.rhs
        for pair in (gen.lhs, gen.rhs):
            i, j = pair
            total = tuple(pts[i][t] + pts[j][t] for t in range(4))
            assert total == gen.multidegree


def test_fiber_sum_identity(gorenstein_spaces):
    for sp in gorenstein_spaces:
        inv = invariants(sp)
        ideal = quadric_generators(sp)
        spanning = sum(len(prs) - 1 for prs in ideal.fibers.values())
        assert spanning == comb(inv.g + 3, 2) - count_points(sp, 2 * inv.s)
        assert spanning == len(ideal.generators)


def test_beta1_examples():
    assert beta1(weighted_space(1, 2, 2, 5)) == 276
    assert beta1(weighted_space(2, 3, 10, 15)) == 91
    assert beta1(weighted_space(1, 1, 1, 3)) == 595 == comb(35, 2)


def test_beta1_requires_gorenstein():
    with pytest.raises(ValueError):
        beta1(weighted_space(1, 1, 1, 2))


def test_beta1_is_the_fiber_count_at_2s(gorenstein_spaces):
    """At degree 2s, c(Delta_m) is the fiber of m: the sum of c - 1 is the
    explicit generator count and the reference beta_1 on all 14 spaces."""
    from gwpskit.cli import load_expected
    from gwpskit.toric import _divisor_complexes

    expected = load_expected()
    for sp in gorenstein_spaces:
        s = invariants(sp).s
        _, components, _ = _divisor_complexes(sp, degree_slice(sp, s).points, s, 2)
        assert components.min() >= 1
        by_complexes = int((components - 1).sum())
        assert by_complexes == len(quadric_generators(sp).generators)
        assert by_complexes == beta1(sp) == expected[sp.weights]["beta_1"]


def _assert_same_complexes(got, want):
    (keys, components, faces), (want_keys, want_components, want_faces) = got, want
    assert keys == want_keys
    assert np.array_equal(components, want_components)
    assert len(faces) == len(want_faces)
    for (block, members), (want_block, want_members) in zip(faces, want_faces):
        assert block.dtype == want_block.dtype and np.array_equal(block, want_block)
        assert members.dtype == want_members.dtype and np.array_equal(members, want_members)


def test_divisor_complexes_equal_the_searchsorted_reference(gorenstein_spaces):
    """The dense index over coordinates 1 to 3 finds each face's point where
    np.searchsorted over all four packed coordinates did: the same keys,
    components and face arrays at 2s and 3s (edges) and 4s (triangles) on
    all 14 spaces, and at a Veronese degree whose generators have several
    degrees, so that the faces of one size come in several pieces."""
    for sp in gorenstein_spaces:
        s = invariants(sp).s
        points = degree_slice(sp, s).points
        for degree, size in ((2, 2), (3, 2), (4, 3)):
            _assert_same_complexes(
                toric._divisor_complexes(sp, points, s, degree, size),
                reference_divisor_complexes(sp, points, s, degree, size),
            )
    sp, d, n = weighted_space(1, 1, 4, 6), 2, 3
    generators, _ = _minimal_presentation(sp, d, n - 1)
    lower = [u for degree in generators for u in degree]
    assert len({sum(w * a for w, a in zip(sp.weights, u)) for u in lower}) > 1
    _assert_same_complexes(toric._divisor_complexes(sp, lower, d, n),
                           reference_divisor_complexes(sp, lower, d, n))


def test_beta1_names_a_point_of_no_two_slice_points(monkeypatch):
    # A synthetic failure: without the first point x of the degree-s slice,
    # 2x, the first point of degree 2s, is a sum of no two slice points.
    sp = weighted_space(2, 3, 3, 4)
    x = cut_first_slice_point(monkeypatch, sp, 2)
    with pytest.raises(BettiConsistencyError) as failure:
        beta1(sp)
    assert str(failure.value).startswith(f"{tuple(2 * c for c in x)} of degree 2s ")
    assert "(2,3,3,4)" in str(failure.value)


def test_beta1_checks_the_divisor_complex_count(monkeypatch):
    """One component too many at one degree-2s point breaks only the
    divisor-complex leg of beta1's three-way check, which names its count."""
    read = toric._degree_2s_complexes

    def one_more(space):
        points, keys, components, faces = read(space)
        return points, keys, components + (np.arange(len(components)) == 0), faces

    monkeypatch.setattr(toric, "_degree_2s_complexes", one_more)
    with pytest.raises(BettiConsistencyError, match=re.escape(
            "beta1 mismatch for (2,3,3,4): counting 55, closed form 55, divisor complexes 56")):
        beta1(weighted_space(2, 3, 3, 4))


def test_connectivity_small_spaces():
    for w in [(2, 3, 3, 4), (1, 1, 1, 1)]:
        rep = check_degree3_generation(weighted_space(*w))
        assert rep.connected
        assert rep.witness is None


def test_trivial_fiber_connected():
    # the cube of the largest monomial decomposes uniquely: one-vertex fiber
    sp = weighted_space(2, 3, 3, 4)
    rep = check_degree3_generation(sp)
    assert rep.connected
    assert rep.fibers_checked == count_points(sp, 3 * invariants(sp).s)


def test_disconnected_cubic_fiber_names_its_witness(monkeypatch):
    # Without the point (4,0,0,1) of the degree-12 slice of (2,3,3,4), and
    # with the slices of degree 24 and 36 whole, Delta_m at m = (13,2,0,1)
    # has the vertices (6,0,0,0), (3,2,0,0) and (1,2,0,1) but only the edge
    # from (6,0,0,0) to (1,2,0,1): the edge from (6,0,0,0) to (3,2,0,0)
    # would need the rest (4,0,0,1), and (3,2,0,0) + (1,2,0,1) exceeds m.
    # It is the first of 17 such points, each with two components, among
    # the 175 points of degree 36.
    import gwpskit.toric as toric

    sp = weighted_space(2, 3, 3, 4)
    full = {d: degree_slice(sp, d) for d in (12, 24, 36)}
    cut = DegreeSlice(12, tuple(p for p in full[12].points if p != (4, 0, 0, 1)))

    def slice_without_point(space, d):
        assert space == sp and d in full
        return cut if d == 12 else full[d]

    monkeypatch.setattr(toric.lattice, "degree_slice", slice_without_point)
    assert check_degree3_generation(sp) == ConnectivityReport(
        connected=False, witness=(13, 2, 0, 1), fibers_checked=175, components_at_witness=2
    )


def test_empty_cubic_complex_names_its_witness(monkeypatch):
    # Without the first point x = (6,0,0,0) of the degree-12 slice of
    # (2,3,3,4), no slice point lies below 3x = (18,0,0,0), the first point
    # of degree 36: Delta_m there has no vertex, and 3x is no sum of three
    # slice points.
    sp = weighted_space(2, 3, 3, 4)
    x = cut_first_slice_point(monkeypatch, sp, 3)
    assert check_degree3_generation(sp) == ConnectivityReport(
        connected=False, witness=tuple(3 * c for c in x), fibers_checked=175,
        components_at_witness=0,
    )


def test_array_degree3_report_equals_per_fiber_oracle():
    for sp in enumerate_gorenstein(21):
        assert check_degree3_generation(sp) == per_fiber_degree3_report(sp), sp


def test_tree_choice_spans_equal_rank():
    sp = weighted_space(2, 3, 3, 4)
    fields = default_fields()
    for ideal in (quadric_generators(sp), max_rooted(quadric_generators(sp))):
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
        rank = len(ideal.generators) - solution_dim(mat, *fields)
        assert rank == 55


def test_degree2_span_crosscheck_two_smallest():
    assert degree2_span_crosscheck(quadric_generators(weighted_space(2, 3, 3, 4)))
    assert degree2_span_crosscheck(quadric_generators(weighted_space(2, 3, 10, 15)))


def test_connectivity_agrees_with_rank_test():
    for w in [(2, 3, 3, 4), (2, 3, 10, 15)]:
        sp = weighted_space(*w)
        inv = invariants(sp)
        assert check_degree3_generation(sp).connected
        expected_i3 = comb(inv.g + 4, 3) - count_points(sp, 3 * inv.s)
        # dim of the cubic part generated by the quadrics: per multidegree,
        # the rank of the products y_i * q_k in the cubic monomial basis
        ideal = quadric_generators(sp)
        image = 0
        for cols in incident_pairs_degree3(ideal).values():
            edges = binomial_edges(ideal, [((i,), k) for i, k in cols])
            monos = {m: r for r, m in enumerate({m for e in edges for m in e})}
            rows = []
            for plus, minus in edges:
                row = [0] * len(monos)
                row[monos[plus]], row[monos[minus]] = 1, -1
                rows.append(row)
            image += rational_rank(rows)
        assert image == expected_i3


def test_generators_deterministic():
    a = quadric_generators(weighted_space(2, 3, 3, 4))
    b = quadric_generators(weighted_space(2, 3, 3, 4))
    assert a.generators == b.generators


@st.composite
def multigraphs(draw):
    """Up to 9 vertices and 18 edges, without loops; parallel edges and
    several components occur."""
    n = draw(st.integers(2, 9))
    vertex = st.integers(0, n - 1)
    edge = st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1])
    return draw(st.lists(edge, max_size=18))


@settings(max_examples=300, deadline=None)
@given(multigraphs())
def test_spanning_forest_cycles_are_a_kernel_basis(edges):
    vertices, components, non_tree, cycles = spanning_forest(edges)
    cycles = list(cycles)
    labels = sorted({v for e in edges for v in e})
    assert vertices == len(labels)
    incidence = [[0] * len(edges) for _ in labels]
    for j, (plus, minus) in enumerate(edges):
        incidence[labels.index(plus)][j] += 1
        incidence[labels.index(minus)][j] -= 1
    own_edges = []
    for cycle in cycles:
        coeff = dict(cycle)
        assert [j for j, _ in cycle] == sorted(coeff)
        assert set(coeff.values()) <= {1, -1}
        for row in incidence:
            assert sum(row[j] * c for j, c in cycle) == 0
        # Kruskal closes a cycle with earlier edges only, so the cycle's own
        # non-tree edge is its last one.
        own = cycle[-1][0]
        assert coeff[own] == 1
        own_edges.append(own)
    # The cycles are the identity on the non-tree columns, so projecting onto
    # them keeps the rank of any set of cycle-space vectors, over Q and mod 2.
    for own in own_edges:
        assert sum(own in dict(other) for other in cycles) == 1
    assert own_edges == sorted(set(own_edges)) == non_tree
    assert len(cycles) == len(edges) - vertices + components
    assert len(cycles) == len(edges) - rational_rank(incidence)


@settings(max_examples=200, deadline=None)
@given(multigraphs())
def test_array_cycles_equal_the_tuple_forest(edges):
    """Oracle on small multigraphs: the array forest has the non-tree edges
    and the fundamental cycles, signs included, of spanning_forest."""
    labels = {v: idx for idx, v in enumerate(sorted({v for e in edges for v in e}))}
    plus = np.array([labels[a] for a, _ in edges], dtype=np.int64)
    minus = np.array([labels[b] for _, b in edges], dtype=np.int64)
    non_tree, lengths, edge, sign = resolution._fundamental_cycles(plus, minus, len(labels))
    _, _, oracle_non_tree, oracle_cycles = spanning_forest(edges)
    assert non_tree.tolist() == oracle_non_tree
    start = np.cumsum(lengths) - lengths
    cycles = [
        list(zip(edge[s:s + n].tolist(), sign[s:s + n].tolist()))
        for s, n in zip(start.tolist(), lengths.tolist())
    ]
    assert cycles == list(oracle_cycles)

from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    binomial_edges,
    degree2_span_crosscheck,
    per_fiber_degree3_report,
    rational_rank,
    spanning_forest,
)
from gwpskit.exactla import SparseMatrix, default_fields, solution_dim
from gwpskit.lattice import DegreeSlice, count_points, degree_slice
from gwpskit import resolution
from gwpskit.resolution import incident_pairs_degree3
from gwpskit.toric import (
    BettiConsistencyError,
    ConnectivityReport,
    beta1,
    check_degree3_generation,
    quadric_generators,
)
from gwpskit.wps import enumerate_gorenstein, invariants, weighted_space


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
    # Without the point (4,0,0,1) of the degree-12 slice of (2,3,3,4), the
    # triples summing to (7,2,0,4) fall into two components.
    import gwpskit.toric as toric

    sp = weighted_space(2, 3, 3, 4)
    full = degree_slice(sp, 12)
    cut = DegreeSlice(12, tuple(p for p in full.points if p != (4, 0, 0, 1)))

    def slice_without_point(space, d):
        assert (space, d) == (sp, 12)
        return cut

    monkeypatch.setattr(toric.lattice, "degree_slice", slice_without_point)
    assert check_degree3_generation(sp) == ConnectivityReport(
        connected=False, witness=(7, 2, 0, 4), fibers_checked=174, components_at_witness=2
    )


def test_array_degree3_report_equals_per_fiber_oracle():
    for sp in enumerate_gorenstein(21):
        assert check_degree3_generation(sp) == per_fiber_degree3_report(sp), sp


def test_tree_choice_spans_equal_rank():
    sp = weighted_space(2, 3, 3, 4)
    fields = default_fields()
    for tree in ("min", "max"):
        ideal = quadric_generators(sp, tree=tree)
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

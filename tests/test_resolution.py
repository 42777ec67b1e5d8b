import pytest

from conftest import binomial_edges, elimination_syzygies, incidence_matrix
from gwpskit.cache import syzygies_to_text
from gwpskit.exactla import default_fields, solution_dim
from gwpskit.lattice import degree_slice
from gwpskit.resolution import (
    beta2,
    check_no_quartic_syzygies,
    incident_pairs_degree3,
    incident_pairs_degree4,
    linear_syzygies,
    quartic_kernel_basis,
)
from gwpskit.toric import ConnectivityReport, ToricIdeal, spanning_forest
from gwpskit.wps import invariants, weighted_space


def test_beta2_examples():
    assert beta2(weighted_space(2, 3, 3, 4)) == 320
    assert beta2(weighted_space(1, 2, 2, 5)) == 4025
    assert beta2(weighted_space(1, 1, 4, 6)) == 13056


def test_beta2_refuses_failed_generation():
    failed = ConnectivityReport(connected=False, witness=(0, 0, 0, 0), fibers_checked=1)
    with pytest.raises(ValueError, match="not applicable"):
        beta2(weighted_space(2, 3, 3, 4), generation=failed)


def test_explicit_syzygy_totals(pipeline_2334, pipeline_231015):
    assert pipeline_2334["syzygies"].total_count == 320
    assert pipeline_231015["syzygies"].total_count == 715


def test_syzygies_vanish_as_polynomials(pipeline_2334):
    ideal = pipeline_2334["ideal"]
    for syz in pipeline_2334["syzygies"].elements():
        acc = {}
        for (i, k, c) in syz.terms:
            gen = ideal.generators[k]
            plus = tuple(sorted((i,) + gen.lhs))
            minus = tuple(sorted((i,) + gen.rhs))
            acc[plus] = acc.get(plus, 0) + c
            acc[minus] = acc.get(minus, 0) - c
        assert not any(acc.values())
        pts = ideal.slice_s.points
        for (i, k, c) in syz.terms:
            c_k = ideal.generators[k].multidegree
            u_i = pts[i]
            total = tuple(u_i[t] + c_k[t] for t in range(4))
            assert total == syz.multidegree


def test_local_counts_match_incidence(pipeline_2334):
    ideal = pipeline_2334["ideal"]
    syz = pipeline_2334["syzygies"]
    grouped = incident_pairs_degree3(ideal)
    for key, pairs in grouped.items():
        local = len(syz.by_multidegree.get(key, ()))
        assert 0 <= local <= len(pairs)
    # a multidegree with a single incident pair carries no syzygy
    singles = [key for key, pairs in grouped.items() if len(pairs) == 1]
    assert singles
    for key in singles:
        assert key not in syz.by_multidegree or not syz.by_multidegree[key]


def test_quartic_check_small_spaces(pipeline_2334, pipeline_231015):
    rep = check_no_quartic_syzygies(pipeline_2334["ideal"], pipeline_2334["syzygies"])
    assert rep.ok and rep.witness is None
    rep = check_no_quartic_syzygies(pipeline_231015["ideal"], pipeline_231015["syzygies"])
    assert rep.ok


def test_quartic_check_vacuous_for_empty_ideal():
    sp = weighted_space(2, 3, 3, 4)
    s = invariants(sp).s
    empty = ToricIdeal(
        space=sp, slice_s=degree_slice(sp, s), generators=(), fibers={}
    )
    from gwpskit.resolution import SyzygyBasis

    rep = check_no_quartic_syzygies(empty, SyzygyBasis(by_multidegree={}, total_count=0))
    assert rep.ok and rep.blocks_checked == 0


def test_forest_basis_equals_elimination_basis(pipeline_2334, pipeline_231015):
    for pipe in (pipeline_2334, pipeline_231015):
        sp, ideal = pipe["space"], pipe["ideal"]
        assert syzygies_to_text(sp, pipe["syzygies"], "asc") == syzygies_to_text(
            sp, elimination_syzygies(ideal), "asc"
        )


def test_pivot_order_changes_basis_not_count(pipeline_2334):
    ideal = pipeline_2334["ideal"]
    asc = pipeline_2334["syzygies"]
    desc = elimination_syzygies(ideal, reverse=True)
    assert desc.total_count == asc.total_count == 320
    assert list(desc.elements()) != list(asc.elements())
    assert {k: len(v) for k, v in desc.by_multidegree.items()} == {
        k: len(v) for k, v in asc.by_multidegree.items()
    }


def test_swapped_primes_agree(pipeline_2334):
    from gwpskit.exactla import default_fields

    f1, f2 = default_fields()
    ideal = pipeline_2334["ideal"]
    swapped = linear_syzygies(ideal, fields=(f2, f1))
    assert swapped.total_count == 320


def test_quartic_graph_dimension_matches_elimination(pipeline_2334):
    ideal = pipeline_2334["ideal"]
    fields = default_fields()
    blocks = incident_pairs_degree4(ideal)
    assert len(blocks) == 334
    for cols in blocks.values():
        edges = binomial_edges(ideal, cols)
        vertices, components, _ = spanning_forest(edges)
        assert len(cols) - vertices + components == solution_dim(
            incidence_matrix(edges), *fields
        )


def test_quartic_kernel_dimensions(pipeline_2334):
    # Summed quartic kernel dimensions are tree-independent data; spot-check
    # that every multidegree has at least the span of cubic multiples.
    table = quartic_kernel_basis(pipeline_2334["ideal"])
    assert sum(len(v) for v in table.values()) > 0

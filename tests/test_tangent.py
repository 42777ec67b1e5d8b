from math import gcd

import numpy as np
import pytest

from conftest import elimination_syzygies, raw_block_rows
from gwpskit.exactla import SparseMatrix, default_fields, solution_dim
from gwpskit.resolution import linear_syzygies
from gwpskit.tangent import (
    alpha_report,
    assemble_report,
    build_block,
    derivation_vectors,
    enumerate_shifts,
    hom_dimension_minus1,
    monolithic_hom_dimension,
    section_index_presets,
    t1_section_minus1,
)
from gwpskit.toric import quadric_generators
from gwpskit.wps import invariants, weighted_space


def test_hom_dimension_2334(pipeline_2334):
    hom = pipeline_2334["hom"]
    assert hom.total == 20
    assert sum(hom.by_shift.values()) == 20
    assert all(d >= 0 for d in hom.by_shift.values())


def test_hom_dimension_1236():
    sp = weighted_space(1, 2, 3, 6)
    rep = alpha_report(sp)
    assert rep.hom_dim == 27
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


def test_alpha_report_2334():
    rep = alpha_report(weighted_space(2, 3, 3, 4))
    assert (rep.alpha_S, rep.alpha_P, rep.extendability) == (6, 5, 5)
    assert rep.alpha_S == rep.alpha_P + 1
    assert rep.alpha_C == rep.alpha_P + 2
    assert rep.t1_dim == rep.hom_dim - rep.ambient_dim


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
    for tree in ("min", "max"):
        ideal = quadric_generators(sp, tree=tree)
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


def test_section_presets(pipeline_2334):
    p1, p2 = section_index_presets(pipeline_2334["space"])
    assert p1 == (7, 14)
    assert p2 == (3, 13)


def test_t1_sections_2334(pipeline_2334):
    ideal = pipeline_2334["ideal"]
    syz = pipeline_2334["syzygies"]
    p1, p2 = section_index_presets(pipeline_2334["space"])
    assert t1_section_minus1(ideal, [], syz) == 5
    assert t1_section_minus1(ideal, [p1], syz) == 6
    assert t1_section_minus1(ideal, [p1, p2], syz) == 7


def test_t1_section_rejects_degenerate(pipeline_2334):
    ideal = pipeline_2334["ideal"]
    syz = pipeline_2334["syzygies"]
    with pytest.raises(ValueError, match="degenerate"):
        t1_section_minus1(ideal, [(3, 3)], syz)
    with pytest.raises(ValueError, match="distinct"):
        t1_section_minus1(ideal, [(7, 14), (14, 3)], syz)
    with pytest.raises(ValueError, match="range"):
        t1_section_minus1(ideal, [(0, 99)], syz)

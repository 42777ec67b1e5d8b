import re
from itertools import combinations

import numpy as np
import pytest

import conftest
from conftest import (
    binomial_edges,
    elimination_syzygies,
    forest_syzygies,
    incidence_matrix,
    projected_span_rows_gf2,
    quartic_blocks,
    rational_rank,
    span_matrix,
    span_quartic_check,
    span_rows,
    spanning_forest,
)
from gwpskit.cache import syzygies_to_text
from gwpskit import resolution
from gwpskit.exactla import default_fields, rank_gf2, solution_dim
from gwpskit.lattice import degree_slice
from gwpskit.resolution import (
    QuarticSyzygyReport,
    SyzygyBasis,
    SyzygyElement,
    beta2,
    check_no_quartic_syzygies,
    incident_pairs_degree3,
    incident_pairs_degree4,
    linear_syzygies,
)
from gwpskit.toric import ConnectivityReport, ToricIdeal, quadric_generators
from gwpskit.wps import enumerate_gorenstein, invariants, weighted_space


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
    """One block per degree-4s point, each proven by its GF(2) rank."""
    rep = check_no_quartic_syzygies(pipeline_2334["ideal"])
    assert rep == QuarticSyzygyReport(ok=True, witness=None, blocks_checked=369, fallbacks=0)
    rep = check_no_quartic_syzygies(pipeline_231015["ideal"])
    assert rep == QuarticSyzygyReport(ok=True, witness=None, blocks_checked=459, fallbacks=0)


def test_quartic_check_vacuous_for_empty_ideal():
    """The span route has no block without a generator."""
    sp = weighted_space(2, 3, 3, 4)
    s = invariants(sp).s
    empty = ToricIdeal(
        space=sp, slice_s=degree_slice(sp, s), generators=(), fibers={}
    )
    rep = span_quartic_check(empty, SyzygyBasis.from_elements({}))
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
        vertices, components, _, _ = spanning_forest(edges)
        assert len(cols) - vertices + components == solution_dim(
            incidence_matrix(edges), *fields
        )


def test_certified_quartic_ranks_equal_two_prime_ranks(pipeline_2334, pipeline_231015):
    """Oracle: on every quartic block the GF(2) rank of the span projected
    onto the non-tree columns of a Kruskal forest, E - V + c and the two-prime
    rank of the full span matrix are one number."""
    fields = default_fields()
    for pipe in (pipeline_2334, pipeline_231015):
        ideal, syz = pipe["ideal"], pipe["syzygies"]
        for key, cols in incident_pairs_degree4(ideal).items():
            vertices, components, non_tree, _ = spanning_forest(binomial_edges(ideal, cols))
            column_bit = dict.fromkeys(cols, 0)
            column_bit.update((cols[j], 1 << b) for b, j in enumerate(non_tree))
            rows = projected_span_rows_gf2(ideal, syz, key, column_bit)
            certified = rank_gf2(rows, len(non_tree))
            span = span_matrix(ideal, syz, key, cols)
            assert certified == len(cols) - vertices + components, key
            assert certified == span.cols - solution_dim(span, *fields), key


@pytest.mark.parametrize("chunk", [None, 64])
def test_array_blocks_equal_forests_and_span_matrices(
    pipeline_2334, pipeline_231015, chunk, monkeypatch
):
    """Oracle for the whole-space arrays of the span route, block by block in
    descending order: (E, V, c) equals the Kruskal forest of the block's
    edges, the full-width rows are the span matrix mod 2 with bit = column
    position, and their GF(2) rank equals its two-prime rank.  A small chunk
    gathers the rows of one or a few blocks at a time."""
    if chunk:
        monkeypatch.setattr(conftest, "_SPAN_CHUNK", chunk)
    fields = default_fields()
    for pipe in (pipeline_2334, pipeline_231015):
        ideal, syz = pipe["ideal"], pipe["syzygies"]
        grouped = incident_pairs_degree4(ideal)
        blocks = quartic_blocks(ideal)
        assert blocks.keys == sorted(grouped, reverse=True)
        seen = []
        for b, rows in span_rows(ideal, blocks, syz):
            seen.append(b)
            key = blocks.keys[b]
            cols = grouped[key]
            vertices, components, _, _ = spanning_forest(binomial_edges(ideal, cols))
            graph = (blocks.edges[b], blocks.vertices[b], blocks.components[b])
            assert graph == (len(cols), vertices, components), key
            span = span_matrix(ideal, syz, key, cols)
            mod2 = [0] * span.rows
            for r, c, v in span.entries.tolist():
                mod2[r] |= (v & 1) << c
            assert rows == mod2, key
            assert rank_gf2(rows, len(cols)) == span.cols - solution_dim(span, *fields), key
        assert seen == list(range(len(blocks.keys)))


def test_span_term_outside_its_block_is_a_key_error(pipeline_2334):
    """A syzygy filed under another multidegree still cancels, but its terms
    lie outside the blocks of the rows it makes: the span route names the
    block."""
    ideal, syz = pipeline_2334["ideal"], pipeline_2334["syzygies"]
    key, other = list(syz.by_multidegree)[:2]
    first, *rest = syz.by_multidegree[key]
    misfiled = SyzygyElement(multidegree=other, terms=first.terms)
    by_multidegree = {**syz.by_multidegree, other: (*syz.by_multidegree[other], misfiled)}
    if rest:
        by_multidegree[key] = tuple(rest)
    else:
        del by_multidegree[key]
    with pytest.raises(KeyError, match=r"outside its block at multidegree \("):
        span_quartic_check(ideal, SyzygyBasis.from_elements(by_multidegree))


def test_non_cancelling_syzygy_is_rejected(pipeline_2334):
    """The span lies in the cycle space only if every cubic syzygy cancels;
    the span route verifies that before it bounds the span's rank by
    E - V + c."""
    syz = pipeline_2334["syzygies"]
    key = next(iter(syz.by_multidegree))
    first, *rest = syz.by_multidegree[key]
    (i, k, c), *terms = first.terms
    n = len(pipeline_2334["ideal"].slice_s)
    # A flipped sign, and a variable index beyond the slice.
    for first_term in ((i, k, -c), (i + n, k, c)):
        broken = SyzygyElement(multidegree=key, terms=(first_term, *terms))
        basis = SyzygyBasis.from_elements({**syz.by_multidegree, key: (broken, *rest)})
        with pytest.raises(AssertionError, match=re.escape(f"at multidegree {key} does not cancel")):
            span_quartic_check(pipeline_2334["ideal"], basis)


def test_linear_syzygies_rejects_a_non_cancelling_cycle(pipeline_2334, monkeypatch):
    """Cycles with one flipped sign, on the first term of the first syzygy
    at the third multidegree: linear_syzygies names that multidegree."""
    counts = pipeline_2334["syzygies"].counts
    cycles = resolution._fundamental_cycles

    def flipped_cycles(plus, minus, nv):
        non_tree, lengths, edge, sign = cycles(plus, minus, nv)
        sign[lengths[: counts[0] + counts[1]].sum()] *= -1
        return non_tree, lengths, edge, sign

    monkeypatch.setattr(resolution, "_fundamental_cycles", flipped_cycles)
    key = list(pipeline_2334["syzygies"].by_multidegree)[2]
    with pytest.raises(AssertionError, match=re.escape(f"syzygy at multidegree {key} does not cancel")):
        linear_syzygies(pipeline_2334["ideal"])


@pytest.mark.parametrize("weights", [(2, 3, 3, 4), (2, 3, 10, 15), (1, 2, 2, 5), (1, 6, 14, 21)])
def test_array_basis_equals_tuple_graph_forests(weights):
    """Oracle: the whole-space array basis is, element for element, the
    basis of one Kruskal forest per block over its tuple graph."""
    ideal = quadric_generators(weighted_space(*weights))
    basis, oracle = linear_syzygies(ideal), forest_syzygies(ideal)
    assert basis.by_multidegree == oracle.by_multidegree
    assert list(basis.by_multidegree) == list(oracle.by_multidegree)
    for name in ("multidegrees", "counts", "lengths", "terms"):
        assert np.array_equal(getattr(basis, name), getattr(oracle, name)), name


def test_basis_rebuilt_from_its_view_keeps_its_table(pipeline_231015):
    basis = pipeline_231015["syzygies"]
    rebuilt = SyzygyBasis.from_elements(basis.by_multidegree)
    for name in ("multidegrees", "counts", "lengths", "terms"):
        assert np.array_equal(getattr(rebuilt, name), getattr(basis, name)), name
    assert rebuilt.total_count == basis.total_count == 715


def _corrupted_2334(pipeline_2334, doubled: bool):
    """The (2,3,3,4) basis with its first syzygy doubled (even, so zero mod 2)
    or dropped."""
    syz = pipeline_2334["syzygies"]
    key = next(iter(syz.by_multidegree))
    first, *rest = syz.by_multidegree[key]
    if doubled:
        twice = SyzygyElement(key, tuple((i, k, 2 * c) for i, k, c in first.terms))
        return SyzygyBasis.from_elements({**syz.by_multidegree, key: (twice, *rest)})
    kept = {d: elems for d, elems in syz.by_multidegree.items() if d != key}
    if rest:
        kept[key] = tuple(rest)
    return SyzygyBasis.from_elements(kept)


def test_doubled_syzygy_falls_back_and_passes(pipeline_2334):
    """A doubled syzygy still spans over Q but vanishes mod 2: the blocks it
    reaches fall short of E - V + c over GF(2), go to two primes and pass."""
    rep = span_quartic_check(pipeline_2334["ideal"], _corrupted_2334(pipeline_2334, True))
    assert rep == QuarticSyzygyReport(ok=True, witness=None, blocks_checked=334, fallbacks=3)


def test_dropped_syzygy_is_a_witness(pipeline_2334):
    """Without one syzygy the span misses a kernel vector: the first block
    that needs it, in descending order, is the witness."""
    rep = span_quartic_check(pipeline_2334["ideal"], _corrupted_2334(pipeline_2334, False))
    assert rep == QuarticSyzygyReport(
        ok=False, witness=(17, 2, 0, 2), blocks_checked=334, fallbacks=3
    )


def _gf2_h1(complexes):
    """{m: E - V + c - GF(2) rank of the boundary map} over the complexes,
    where that is nonzero: an upper bound on dim H~_1(Delta_m; Q)."""
    out = {}
    for m, _, cycles, triangles in complexes:
        rows = [(1 << a) | (1 << b) | (1 << c) for a, b, c in triangles.tolist()]
        h1 = cycles - rank_gf2(rows, cycles + 1)
        if h1:
            out[m] = h1
    return out


def test_degree3_homology_counts_the_linear_syzygies():
    """Tor_2 in degree 3s: on every space, H~_1(Delta_m) from GF(2) ranks is,
    point by point, the number of cubic syzygies that linear_syzygies puts
    at m, and the total is beta_2.  As GF(2) ranks bound the rational ranks
    from below, the equal total also proves every GF(2) value exact."""
    for sp in enumerate_gorenstein(50):
        ideal = quadric_generators(sp)
        h1 = _gf2_h1(resolution._complexes(ideal, 3))
        counts = linear_syzygies(ideal).by_multidegree
        assert h1 == {m: len(elems) for m, elems in counts.items()}, sp
        assert sum(h1.values()) == beta2(sp), sp


@pytest.mark.parametrize(
    "weights", [(2, 3, 3, 4), (2, 3, 10, 15), (1, 3, 4, 4), (1, 4, 5, 10), (1, 6, 14, 21)]
)
def test_no_first_syzygy_of_degree_5s(weights):
    """Tor_2 in degree 5s, which the tangent docstring derives to be 0 from
    Gorenstein duality: at every degree-5s point m, the GF(2) rank of the
    boundary map of Delta_m equals E - V + c, so H~_1(Delta_m) = 0."""
    complexes = resolution._complexes(quadric_generators(weighted_space(*weights)), 5)
    assert complexes
    assert _gf2_h1(complexes) == {}


def _complex(edges, triangles):
    """_complexes' record of the complex with these triangles on the given
    edges of one component, at a dummy multidegree."""
    vertices = {v for e in edges for v in e}
    position = {e: p for p, e in enumerate(edges)}
    rows = [[position[i, j], position[i, k], position[j, k]] for i, j, k in triangles]
    cycles = len(edges) - len(vertices) + 1
    return (0, 0, 0, 0), len(edges), cycles, np.array(rows, dtype=np.int64).reshape(-1, 3)


# The six-vertex real projective plane: H_1 is Z/2, so H~_1 vanishes over Q
# but not over GF(2).
RP2 = [(0, 1, 3), (0, 1, 5), (0, 2, 4), (0, 2, 5), (0, 3, 4),
       (1, 2, 3), (1, 2, 4), (1, 4, 5), (2, 3, 5), (3, 4, 5)]


def test_two_torsion_falls_back_to_the_exact_rank(pipeline_2334, monkeypatch):
    record = _complex(list(combinations(range(6), 2)), RP2)
    _, edges, cycles, triangles = record
    signed = resolution._signed_boundary(triangles, edges)
    assert (cycles, rational_rank(signed)) == (10, 10)
    assert rank_gf2([sum(1 << p for p in t) for t in triangles.tolist()], 11) == 9
    monkeypatch.setattr(resolution, "_complexes", lambda ideal, degree: [record])
    rep = check_no_quartic_syzygies(pipeline_2334["ideal"])
    assert rep == QuarticSyzygyReport(ok=True, witness=None, blocks_checked=1, fallbacks=1)


def test_hollow_triangle_is_a_witness(pipeline_2334, monkeypatch):
    record = _complex([(0, 1), (0, 2), (1, 2)], [])
    monkeypatch.setattr(resolution, "_complexes", lambda ideal, degree: [record])
    rep = check_no_quartic_syzygies(pipeline_2334["ideal"])
    assert rep == QuarticSyzygyReport(
        ok=False, witness=(0, 0, 0, 0), blocks_checked=1, fallbacks=1
    )


def test_dropped_triangle_is_a_witness(pipeline_2334, monkeypatch):
    """A triangle with an edge in no other triangle is the only one whose
    boundary covers that edge: without it, its boundary is a cycle that
    bounds nothing, and its complex's point is the witness."""
    ideal = pipeline_2334["ideal"]
    complexes = list(resolution._complexes(ideal, 4))
    for b, (m, _, _, triangles) in enumerate(complexes):
        _, at, count = np.unique(triangles, return_inverse=True, return_counts=True)
        lone = np.flatnonzero((count[at.reshape(-1, 3)] == 1).any(1))
        if lone.size:
            break
    assert lone.size
    complexes[b] = complexes[b][:3] + (np.delete(triangles, lone[0], axis=0),)
    monkeypatch.setattr(resolution, "_complexes", lambda ideal, degree: complexes)
    rep = check_no_quartic_syzygies(ideal)
    assert rep == QuarticSyzygyReport(ok=False, witness=m, blocks_checked=369, fallbacks=1)


def test_understated_components_raise(pipeline_2334, monkeypatch):
    """A component step that misses a component puts E - V + c below the
    rank of the boundary map: the check raises and names the point, here
    the first, 4 u_0, whose complex is the vertex 0 alone."""
    roots = resolution._component_roots

    def understated(a, b, nv):
        mask = roots(a, b, nv)
        mask[np.argmax(mask)] = False
        return mask

    monkeypatch.setattr(resolution, "_component_roots", understated)
    sp = pipeline_2334["space"]
    first = degree_slice(sp, 4 * invariants(sp).s).points[0]
    with pytest.raises(AssertionError, match=re.escape(
            f"boundary rank 0 above the cycle dimension -1 at multidegree {first}")):
        check_no_quartic_syzygies(pipeline_2334["ideal"])


@pytest.mark.parametrize("weights", [(2, 3, 3, 4), (1, 2, 2, 5), (1, 6, 14, 21)])
def test_span_route_and_complexes_agree(weights):
    ideal = quadric_generators(weighted_space(*weights))
    old = span_quartic_check(ideal, linear_syzygies(ideal))
    new = check_no_quartic_syzygies(ideal)
    assert (old.ok, old.witness, old.fallbacks) == (new.ok, new.witness, new.fallbacks)
    assert new.ok

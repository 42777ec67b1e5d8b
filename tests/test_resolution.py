import dataclasses
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
    reference_incident_pairs_degree4,
    span_matrix,
    span_quartic_check,
    span_rows,
    spanning_forest,
)
from gwpskit.cache import syzygies_to_text
from gwpskit import resolution, toric
from gwpskit.exactla import default_fields, rank_gf2, solution_dim
from gwpskit.lattice import degree_slice
from gwpskit.resolution import (
    QuarticSyzygyReport,
    SyzygyBasis,
    SyzygyElement,
    beta2,
    incident_pairs_degree3,
    incident_pairs_degree4,
    linear_syzygies,
    quartic_check,
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
    rep = quartic_check(pipeline_2334["space"])
    assert rep == QuarticSyzygyReport(ok=True, witness=None, blocks_checked=369, fallbacks=0)
    rep = quartic_check(pipeline_231015["space"])
    assert rep == QuarticSyzygyReport(ok=True, witness=None, blocks_checked=459, fallbacks=0)


def test_quartic_check_requires_gorenstein():
    """The check reads the divisor complexes through the one guarded reader,
    which refuses a space that is not Gorenstein."""
    with pytest.raises(ValueError, match="^divisor complexes require a Gorenstein space$"):
        quartic_check(weighted_space(1, 1, 1, 2))


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


@pytest.mark.parametrize("weights", [(2, 3, 3, 4), (2, 3, 10, 15), (1, 2, 2, 5)])
def test_incident_pairs_degree4_equals_the_loops(weights):
    """The array grouping returns the loops' dict: the same lists, and the
    keys in the same first-reached order; no generators give no keys."""
    ideal = quadric_generators(weighted_space(*weights))
    grouped = incident_pairs_degree4(ideal)
    want = reference_incident_pairs_degree4(ideal)
    assert list(grouped) == list(want)
    assert grouped == want
    assert incident_pairs_degree4(dataclasses.replace(ideal, generators=())) == {}


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
    for b, m in enumerate(complexes.keys):
        h1 = complexes.cycles[b] - complexes.gf2_rank(b)
        if h1:
            out[m] = h1
    return out


def _full_gf2_ranks(complexes, n: int) -> list[int]:
    """At each point, rank_gf2 of the rows of all its triangles, with the
    edge pq as the bit p*n + q, read to E - V + c + 1: the elimination that
    the star-cover closure replaces."""
    order = np.argsort(complexes.block, kind="stable")
    bounds = np.searchsorted(complexes.block[order], np.arange(len(complexes.keys) + 1))
    triangles = complexes.triangles[order].tolist()
    return [
        rank_gf2([(1 << i * n + j) | (1 << i * n + k) | (1 << j * n + k)
                  for i, j, k in triangles[lo:hi]], cycles + 1)
        for lo, hi, cycles in zip(bounds.tolist(), bounds[1:].tolist(), complexes.cycles)
    ]


def test_degree3_homology_counts_the_linear_syzygies():
    """Tor_2 in degree 3s: on every space, H~_1(Delta_m) from GF(2) ranks is,
    point by point, the number of cubic syzygies that linear_syzygies puts
    at m, and the total is beta_2.  As GF(2) ranks bound the rational ranks
    from below, the equal total also proves every GF(2) value exact."""
    for sp in enumerate_gorenstein(50):
        h1 = _gf2_h1(resolution._complexes(sp, 3))
        counts = linear_syzygies(quadric_generators(sp)).by_multidegree
        assert h1 == {m: len(elems) for m, elems in counts.items()}, sp
        assert sum(h1.values()) == beta2(sp), sp


ALL_WEIGHTS = [sp.weights for sp in enumerate_gorenstein()]
# The spaces whose degree-5s complexes the oracle also eliminates in full;
# the other five cost several seconds that way.
DEGREE5_ORACLE = [(2, 3, 3, 4), (2, 3, 10, 15), (1, 3, 4, 4), (1, 4, 5, 10), (1, 6, 14, 21),
                  (1, 2, 2, 5), (1, 2, 3, 6), (1, 2, 6, 9), (1, 3, 8, 12)]


@pytest.mark.parametrize(
    "weights, degree",
    [(w, d) for d in (3, 4) for w in ALL_WEIGHTS] + [(w, 5) for w in DEGREE5_ORACLE],
    ids=lambda v: ",".join(map(str, v)) if isinstance(v, tuple) else f"degree{v}",
)
def test_star_cover_rank_equals_the_full_elimination(weights, degree):
    """Oracle: at every point, the GF(2) rank read off the counted rows and
    the residual rows equals rank_gf2 of the rows of all the triangles."""
    sp = weighted_space(*weights)
    complexes = resolution._complexes(sp, degree)
    read = [complexes.gf2_rank(b) for b in range(len(complexes.keys))]
    assert read == _full_gf2_ranks(complexes, invariants(sp).g + 2)


@pytest.mark.parametrize(
    "weights",
    DEGREE5_ORACLE + [(1, 1, 1, 1), (1, 1, 1, 3), (1, 1, 2, 2), (1, 1, 2, 4), (1, 1, 4, 6)],
)
def test_no_first_syzygy_of_degree_5s(weights):
    """Tor_2 in degree 5s, which the tangent docstring derives to be 0 from
    Gorenstein duality: at every degree-5s point m, the GF(2) rank of the
    boundary map of Delta_m equals E - V + c, so H~_1(Delta_m) = 0."""
    complexes = resolution._complexes(weighted_space(*weights), 5)
    assert complexes.keys
    assert _gf2_h1(complexes) == {}


def _complex(edges, triangles):
    """_complexes' value for the one complex with these edges, of one
    component, and these triangles, at a dummy multidegree."""
    vertices = sorted({v for e in edges for v in e})
    faces = [
        (np.zeros(len(f), dtype=np.int32), np.array(f, dtype=np.int32).reshape(len(f), size))
        for size, f in ((1, [(v,) for v in vertices]), (2, edges), (3, triangles))
    ]
    return resolution._star_cover([(0, 0, 0, 0)], np.array([1]), faces, max(vertices) + 1)


def test_closure_counts_each_covered_edge_once_and_substitutes_the_rest():
    """A complex whose star vertex 0 is in 9 triangles, which cover 12, 13,
    14, 15, 24, 34, 78, 89 and 9 10.  The closure then takes two rounds:
    123 and 234 both cover 23 and 145 covers 45, then 245 covers 25; 12
    rows are counted.  The cone from 6 over 123 is left, three rows with one
    covered edge each: replaced by their star edges, they sum to zero, so
    they add 2 and the rank is 14 = E - V + c.  Counting 23 twice, or
    ranking the cone's rows without the replacement, reads 15."""
    star = [(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 1, 5), (0, 2, 4), (0, 3, 4),
            (0, 7, 8), (0, 8, 9), (0, 9, 10)]
    closing = [(1, 2, 3), (2, 3, 4), (1, 4, 5), (2, 4, 5)]
    cone = [(1, 2, 6), (1, 3, 6), (2, 3, 6)]
    triangles = sorted(star + closing + cone)
    complexes = _complex(sorted({e for t in triangles for e in combinations(t, 2)}), triangles)
    assert (complexes.cycles, complexes.counted, len(complexes.rows[0])) == ([14], [12], 3)
    assert complexes.gf2_rank(0) == 14 == _full_gf2_ranks(complexes, 11)[0]


# The six-vertex real projective plane: H_1 is Z/2, so H~_1 vanishes over Q
# but not over GF(2).
RP2 = [(0, 1, 3), (0, 1, 5), (0, 2, 4), (0, 2, 5), (0, 3, 4),
       (1, 2, 3), (1, 2, 4), (1, 4, 5), (2, 3, 5), (3, 4, 5)]


def test_two_torsion_falls_back_to_the_exact_rank(pipeline_2334, monkeypatch):
    complexes = _complex(list(combinations(range(6), 2)), RP2)
    signed = resolution._signed_boundary(complexes.triangles)
    assert (complexes.cycles[0], rational_rank(signed)) == (10, 10)
    assert complexes.gf2_rank(0) == _full_gf2_ranks(complexes, 6)[0] == 9
    monkeypatch.setattr(resolution, "_complexes", lambda space, degree: complexes)
    rep = quartic_check(pipeline_2334["space"])
    assert rep == QuarticSyzygyReport(ok=True, witness=None, blocks_checked=1, fallbacks=1)


def test_hollow_triangle_is_a_witness(pipeline_2334, monkeypatch):
    complexes = _complex([(0, 1), (0, 2), (1, 2)], [])
    monkeypatch.setattr(resolution, "_complexes", lambda space, degree: complexes)
    rep = quartic_check(pipeline_2334["space"])
    assert rep == QuarticSyzygyReport(
        ok=False, witness=(0, 0, 0, 0), blocks_checked=1, fallbacks=1
    )


def test_dropped_triangle_is_a_witness(pipeline_2334, monkeypatch):
    """A triangle with an edge in no other triangle is the only one whose
    boundary covers that edge: without it, its boundary is a cycle that
    bounds nothing, and its complex's point is the witness."""
    sp = pipeline_2334["space"]
    points, keys, components, faces = toric._anticanonical_complexes(sp, 4, 3)
    n = len(points)
    tb, t = faces[2]
    edges = (tb[:, None] * n + t[:, [0, 0, 1]]) * n + t[:, [1, 2, 2]]
    _, at, count = np.unique(edges, return_inverse=True, return_counts=True)
    lone = np.flatnonzero((count[at.reshape(-1, 3)] == 1).any(1))
    assert lone.size
    drop = lone[np.argmin(tb[lone])]
    faces = [*faces[:2], (np.delete(tb, drop), np.delete(t, drop, axis=0))]
    monkeypatch.setattr(resolution, "_anticanonical_complexes",
                        lambda *args: (points, keys, components, faces))
    rep = quartic_check(sp)
    assert rep == QuarticSyzygyReport(
        ok=False, witness=keys[tb[drop]], blocks_checked=369, fallbacks=1
    )


def test_understated_components_raise(pipeline_2334, monkeypatch):
    """A component step that misses a component puts E - V + c below the
    rank of the boundary map: the check raises and names the space and the
    point, here the first, 4 u_0, whose complex is the vertex 0 alone."""
    roots = toric._component_roots

    def understated(a, b, nv):
        mask = roots(a, b, nv)
        mask[np.argmax(mask)] = False
        return mask

    monkeypatch.setattr(toric, "_component_roots", understated)
    sp = pipeline_2334["space"]
    first = degree_slice(sp, 4 * invariants(sp).s).points[0]
    with pytest.raises(AssertionError, match=re.escape(
            f"boundary rank 0 above the cycle dimension -1 at multidegree {first} of {sp}")):
        quartic_check(pipeline_2334["space"])


@pytest.mark.parametrize("weights", [(2, 3, 3, 4), (1, 2, 2, 5), (1, 6, 14, 21)])
def test_span_route_and_complexes_agree(weights):
    ideal = quadric_generators(weighted_space(*weights))
    old = span_quartic_check(ideal, linear_syzygies(ideal))
    new = quartic_check(ideal.space)
    assert (old.ok, old.witness, old.fallbacks) == (new.ok, new.witness, new.fallbacks)
    assert new.ok

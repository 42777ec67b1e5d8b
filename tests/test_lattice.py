from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_count
from gwpskit.lattice import (
    count_points,
    degree_slice,
    h_vector,
    pair_sums,
)
from gwpskit.wps import invariants, veronese_presentation, weighted_space

# all valid weight systems with entries <= 5, used as a hypothesis pool
_SMALL_VALID = []
for a0 in range(1, 6):
    for a1 in range(a0, 6):
        for a2 in range(a1, 6):
            for a3 in range(a2, 6):
                try:
                    _SMALL_VALID.append(weighted_space(a0, a1, a2, a3))
                except ValueError:
                    pass


def test_count_examples():
    assert count_points(weighted_space(1, 1, 1, 3), 6) == 39
    assert count_points(weighted_space(2, 3, 3, 4), 24) == 65
    assert count_points(weighted_space(1, 1, 1, 3), 0) == 1
    assert count_points(weighted_space(1, 1, 1, 3), -2) == 0


@settings(max_examples=40, deadline=None)
@given(sp=st.sampled_from(_SMALL_VALID), d=st.integers(min_value=0, max_value=25))
def test_count_matches_brute_force(sp, d):
    assert count_points(sp, d) == brute_count(sp.weights, d)


def test_slice_examples():
    pts = degree_slice(weighted_space(1, 1, 1, 3), 3).points
    assert len(pts) == 11
    pts = degree_slice(weighted_space(1, 1, 1, 1), 1).points
    assert len(pts) == 4
    pts = degree_slice(weighted_space(2, 3, 3, 4), 12).points
    assert len(pts) == 15


def test_slice_sorted_and_deterministic():
    sp = weighted_space(2, 3, 3, 4)
    a = degree_slice(sp, 24)
    b = degree_slice(sp, 24)
    assert a.points == b.points
    assert list(a.points) == sorted(a.points, reverse=True)
    assert len(set(a.points)) == len(a.points)
    assert all(sum(w * n for w, n in zip(sp.weights, p)) == 24 for p in a.points)


def test_slice_length_is_g_plus_2(gorenstein_spaces):
    for sp in gorenstein_spaces:
        inv = invariants(sp)
        assert len(degree_slice(sp, inv.s)) == inv.g + 2
        assert count_points(sp, inv.s) == inv.g + 2


def test_normality_all_spaces(gorenstein_spaces):
    """Degrees 2s and 3s decide projective normality (box-point argument in
    the gwpskit.tangent docstring).  Through degree 4s on all 14 spaces, the
    anticanonical ring, the s-th Veronese ring, is generated by its g+2
    points of degree 1 with beta_1 quadrics as its only minimal relations."""
    from math import comb

    assert len(gorenstein_spaces) == 14
    for sp in gorenstein_spaces:
        inv = invariants(sp)
        pres = veronese_presentation(sp, inv.s, 4)
        assert pres.generator_degrees == (1,) * (inv.g + 2)
        assert pres.relation_degrees == (2,) * comb(inv.g - 2, 2)


def test_h_vector_examples():
    assert h_vector(weighted_space(2, 3, 3, 4)) == (1, 11, 11, 1)
    assert h_vector(weighted_space(1, 1, 1, 1)) == (1, 31, 31, 1)


def test_h_vector_all_spaces_symmetric(gorenstein_spaces):
    for sp in gorenstein_spaces:
        g = invariants(sp).g
        h = h_vector(sp)
        assert h == (1, g - 2, g - 2, 1)
        assert h[0] == h[3] and h[1] == h[2]


def test_h_vector_against_finite_difference_oracle():
    # Independent recomputation from brute-force counts.
    for w in [(2, 3, 3, 4), (1, 2, 6, 9)]:
        sp = weighted_space(*w)
        s = invariants(sp).s
        counts = [brute_count(sp.weights, k * s) for k in range(4)]
        c = [1, -4, 6, -4, 1]
        h = tuple(
            sum(c[j] * counts[k - j] for j in range(k + 1)) for k in range(4)
        )
        assert h_vector(sp) == h


def test_pair_sum_count_equals_slice_when_normal():
    # Equality between distinct 2-fold sums and the 2s slice is exactly
    # projective normality in degree 2.
    for w in [(2, 3, 3, 4), (1, 2, 2, 5), (1, 1, 1, 3)]:
        sp = weighted_space(*w)
        s = invariants(sp).s
        sl = degree_slice(sp, s)
        sums = pair_sums(sl)
        assert len(sums) == count_points(sp, 2 * s)
        assert veronese_presentation(sp, s, 2).generator_degrees == (1,) * len(sl)

import pytest

from conftest import scan_gorenstein
from gwpskit.cli import load_expected
from gwpskit.wps import (
    WeightedSpace,
    WeightValidationError,
    enumerate_gorenstein,
    invariants,
    restriction_invertible,
    veronese_presentation,
    weighted_space,
)

TABLE_SET = {
    (1, 1, 1, 3), (1, 1, 4, 6), (1, 2, 2, 5), (1, 1, 1, 1), (1, 1, 2, 4),
    (1, 3, 4, 4), (1, 1, 2, 2), (1, 2, 6, 9), (2, 3, 3, 4), (1, 4, 5, 10),
    (1, 2, 3, 6), (1, 3, 8, 12), (2, 3, 10, 15), (1, 6, 14, 21),
}


def test_invariants_1146():
    inv = invariants(weighted_space(1, 1, 4, 6))
    assert (inv.m, inv.s, inv.gorenstein) == (12, 12, True)
    assert int(inv.antiK_cubed) == 72
    assert (inv.g, inv.i_S, inv.g1) == (37, 6, 2)


def test_invariants_2334():
    inv = invariants(weighted_space(2, 3, 3, 4))
    assert (inv.m, inv.s, inv.gorenstein) == (12, 12, True)
    assert int(inv.antiK_cubed) == 24
    assert (inv.g, inv.i_S, inv.g1) == (13, 2, 4)


def test_invariants_non_gorenstein():
    inv = invariants(weighted_space(1, 1, 1, 2))
    assert (inv.m, inv.s) == (2, 5)
    assert not inv.gorenstein
    assert inv.g is None and inv.i_S is None and inv.g1 is None


def test_weights_canonicalized():
    assert weighted_space(4, 3, 3, 2).weights == (2, 3, 3, 4)
    assert weighted_space(4, 3, 3, 2) == weighted_space(2, 3, 3, 4)


def test_validation_rejects_bad_tuples():
    with pytest.raises(WeightValidationError, match="coprime"):
        weighted_space(2, 4, 6, 8)
    with pytest.raises(WeightValidationError, match="well formed"):
        weighted_space(1, 2, 2, 2)
    with pytest.raises(WeightValidationError, match="positive"):
        weighted_space(0, 1, 1, 1)
    with pytest.raises(WeightValidationError):
        WeightedSpace((1, 1, 1))


def test_enumeration_equals_the_full_weight_scan():
    # The scan at a bound is the scan at 60 restricted to that largest
    # weight, in the same order.
    full = scan_gorenstein(60)
    for bound in range(61):
        assert enumerate_gorenstein(bound) == [sp for sp in full if sp.weights[3] <= bound]


def test_enumeration_is_the_reference_table():
    """With no bound, the enumeration is the reference table's 14 weight
    systems in lexicographic order, and each is a solution of
    1/k0 + ... + 1/k3 = 1: every k_i = s / a_i is an integer."""
    spaces = enumerate_gorenstein()
    assert [sp.weights for sp in spaces] == sorted(load_expected())
    for sp in spaces:
        assert all(sum(sp.weights) % a == 0 for a in sp.weights)


def test_enumerate_bounds():
    assert len(enumerate_gorenstein(21)) == 14
    assert {sp.weights for sp in enumerate_gorenstein(21)} == TABLE_SET
    small = {sp.weights for sp in enumerate_gorenstein(3)}
    assert small == {(1, 1, 1, 1), (1, 1, 1, 3), (1, 1, 2, 2)}
    assert enumerate_gorenstein(0) == []


def test_degree_genus_identity_exact(gorenstein_spaces):
    for sp in gorenstein_spaces:
        inv = invariants(sp)
        a0, a1, a2, a3 = sp.weights
        assert 2 * (inv.g - 1) * a0 * a1 * a2 * a3 == inv.s**3
        assert inv.g1 == 1 + (inv.g - 1) // (inv.i_S**2)


def test_restriction_invertible_examples():
    sp = weighted_space(1, 1, 4, 6)
    assert not restriction_invertible(sp, 1)
    assert restriction_invertible(sp, 2)
    sp = weighted_space(1, 1, 1, 1)
    assert all(restriction_invertible(sp, k) for k in range(-3, 4))
    sp = weighted_space(2, 3, 10, 15)
    assert not restriction_invertible(sp, 15)
    assert restriction_invertible(sp, 30)


def test_restriction_requires_gorenstein():
    with pytest.raises(ValueError):
        restriction_invertible(weighted_space(1, 1, 1, 2), 2)


@pytest.mark.parametrize(
    "weights,d,cutoff,gens,rels",
    [
        ((1, 1, 4, 6), 2, 4, (1, 1, 1, 2, 3), (2,)),
        ((1, 2, 2, 5), 2, 8, (1, 1, 1, 3, 5), (6,)),
        ((2, 3, 3, 4), 6, 4, (1, 1, 1, 1, 1, 2), (2, 3)),
        ((1, 1, 2, 4), 2, 2, (1, 1, 1, 1, 2), (2,)),
        ((1, 1, 1, 1), 1, 3, (1, 1, 1, 1), ()),
        ((1, 1, 1, 1), 2, 4, (1,) * 10, (2,) * 20),
        ((1, 1, 1, 1), 3, 4, (1,) * 20, (2,) * 126),
        ((1, 1, 1, 3), 2, 6, (1, 1, 1, 1, 1, 1, 2, 2, 2, 3), (2,) * 6 + (3,) * 8 + (4,) * 6),
        # Not Gorenstein, with generators in many degrees.
        ((1, 2, 3, 5), 2, 8, (1, 1, 2, 3, 3, 4, 5), (4, 5, 6, 6, 7, 8)),
        ((1, 2, 3, 5), 3, 6, (1, 1, 1, 2, 2, 3, 4, 5), (3, 4, 4, 5, 5, 6, 6, 6)),
        ((1, 1, 2, 3), 2, 6, (1, 1, 1, 1, 2, 2, 3), (2, 3, 3, 4, 4, 4)),
    ],
)
def test_veronese_presentations(weights, d, cutoff, gens, rels):
    pres = veronese_presentation(weighted_space(*weights), d, cutoff)
    assert pres.generator_degrees == gens
    assert tuple(sorted(pres.relation_degrees)) == rels
    assert pres.complete


def test_veronese_incomplete_flag():
    # w^2 sits in degree 10 = 5*d, beyond cutoff 2; the flag must say so.
    pres = veronese_presentation(weighted_space(1, 2, 2, 5), 2, 2)
    assert not pres.complete
    assert pres.generator_degrees == (1, 1, 1)
    # For (2,3,5,7) and d = 3 the bound on indecomposables is 28 > 6*3.
    pres = veronese_presentation(weighted_space(2, 3, 5, 7), 3, 6)
    assert not pres.complete
    assert pres.generator_degrees == (1, 2, 3, 3, 4, 4, 5)
    assert tuple(sorted(pres.relation_degrees)) == (6, 6)


def test_veronese_validates_arguments():
    sp = weighted_space(1, 1, 1, 1)
    with pytest.raises(ValueError):
        veronese_presentation(sp, 0, 4)
    with pytest.raises(ValueError):
        veronese_presentation(sp, 2, 0)

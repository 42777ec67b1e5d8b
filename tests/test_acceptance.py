"""Acceptance suite: every release criterion, exact values, one printed
pass/fail line per criterion (run with `pytest -s tests/test_acceptance.py`
to see the lines and timings)."""

import time
from math import comb

import pytest

from conftest import elimination_syzygies, monolithic_hom_dimension
from gwpskit import cache as cache_mod
from gwpskit.cli import RunConfig, cmd_alpha, cmd_betti, cmd_classify, cmd_veronese, load_expected
from gwpskit.lattice import count_points, degree_slice, h_vector
from gwpskit.tangent import derivation_vectors, hom_dimension_minus1
from gwpskit.toric import check_degree3_generation, quadric_generators
from gwpskit.wps import enumerate_gorenstein, invariants, weighted_space
from gwpskit.resolution import linear_syzygies

EXPECTED = load_expected()

# alpha_S of the eight genus <= 26 spaces, a second copy that cross-checks
# the shipped reference table.
ALPHA_EXPECTED = {
    (1, 2, 2, 5): 3, (1, 3, 4, 4): 4, (2, 3, 3, 4): 6, (1, 4, 5, 10): 3,
    (1, 2, 3, 6): 1, (1, 3, 8, 12): 2, (2, 3, 10, 15): 3, (1, 6, 14, 21): 2,
}


def _report(num: int, name: str, ok: bool, started: float):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {status} ({time.time() - started:.1f}s)")
    assert ok, f"criterion {num} ({name}) failed"


@pytest.fixture(scope="module")
def desk_pipelines():
    """Ideal + syzygies for the two smallest spaces."""
    out = {}
    for w in [(2, 3, 3, 4), (2, 3, 10, 15)]:
        sp = weighted_space(*w)
        ideal = quadric_generators(sp)
        out[w] = (sp, ideal, linear_syzygies(ideal))
    return out


def test_criterion_1_classification():
    t0 = time.time()
    text, code = cmd_classify(RunConfig(bound=50, check=True))
    rows = text.strip().split("\n")[1:]
    ok = code == 0 and len(rows) == 14
    for line in rows:
        idx, weights, k3, m, s, i_s, g1 = line.split("\t")
        exp = EXPECTED[tuple(int(x) for x in weights.strip("()").split(","))]
        ok = ok and [int(idx), int(k3), int(m), int(s), int(i_s), int(g1)] == [
            exp["row"], exp["K3"], exp["m"], exp["s"], exp["i_S"], exp["g_1"],
        ]
    _report(1, "classification-table", ok, t0)


def test_criterion_2_betti_numbers():
    t0 = time.time()
    from gwpskit.resolution import beta2
    from gwpskit.toric import beta1

    ok = True
    largest = []
    for sp in enumerate_gorenstein(50):
        exp = EXPECTED[sp.weights]
        g = invariants(sp).g
        b1 = beta1(sp)
        b2 = beta2(sp)
        ok = ok and b1 == exp["beta_1"] == comb(g - 2, 2) and b2 == exp["beta_2"]
        largest.append((sp.weights, b2))
    ok = ok and {w for w, b in largest if b == 13056} == {(1, 1, 1, 3), (1, 1, 4, 6)}
    _report(2, "betti-numbers", ok, t0)


def test_criterion_3_generation_by_quadrics():
    t0 = time.time()
    ok = True
    for sp in enumerate_gorenstein(50):
        rep = check_degree3_generation(sp)
        ok = ok and rep.connected
    _report(3, "generation-by-quadrics", ok, t0)


def _weights(cell: str) -> tuple:
    return tuple(int(x) for x in cell.strip("()").split(","))


def test_criterion_4_no_quartic_syzygies():
    t0 = time.time()
    text, code = cmd_betti(RunConfig(verify=True, check=True))
    rows = [line.split("\t") for line in text.strip().split("\n")[1:]]
    ok = code == 0 and {_weights(r[1]) for r in rows} == set(EXPECTED)
    ok = ok and all(r[7:] == ["pass", "pass"] for r in rows)
    _report(4, "quartic-syzygy-vanishing", ok, t0)


def test_criterion_5_alpha_values():
    t0 = time.time()
    text, code = cmd_alpha(RunConfig(check=True))
    rows = [line.split("\t") for line in text.strip().split("\n")[1:]]
    by_weights = {_weights(r[1]): r for r in rows}
    ok = code == 0 and len(rows) == 14 and by_weights.keys() == EXPECTED.keys()
    for w, exp in EXPECTED.items():
        row = by_weights.get(w, [None] * 7)
        ok = ok and row[4] == str(exp["alpha_S"])
        ok = ok and row[6] == str(exp["alpha_S"] - 1)  # extendability = alpha_S - 1
    ok = ok and all(EXPECTED[w]["alpha_S"] == a for w, a in ALPHA_EXPECTED.items())
    _report(5, "alpha-and-extendability", ok, t0)


def test_criterion_6_h_vectors():
    t0 = time.time()
    ok = True
    for sp in enumerate_gorenstein(50):
        g = invariants(sp).g
        ok = ok and h_vector(sp) == (1, g - 2, g - 2, 1)
    _report(6, "h-vectors", ok, t0)


def test_criterion_7_veronese_presentations():
    t0 = time.time()
    cases = [
        ((1, 1, 4, 6), 2, "(1,1,1,2,3); relations: [2]"),
        ((1, 2, 2, 5), 2, "(1,1,1,3,5); relations: [6]"),
        ((1, 1, 2, 4), 2, "(1,1,1,1,2); relations: [2]"),
        ((2, 3, 3, 4), 6, "(1,1,1,1,1,2); relations: [2,3]"),
    ]
    ok = True
    for weights, d, expected_line in cases:
        line, code = cmd_veronese(weighted_space(*weights), d, 8)
        ok = ok and code == 0 and line.strip() == expected_line
    _report(7, "veronese-presentations", ok, t0)


def test_criterion_8_property_suites(desk_pipelines):
    t0 = time.time()
    ok = True

    # derivation vectors: nonzero solutions in g+2 distinct blocks
    for w in [(2, 3, 3, 4), (2, 3, 10, 15)]:
        sp, ideal, syz = desk_pipelines[w]
        derivs = derivation_vectors(ideal, syz)
        g = invariants(sp).g
        ok = ok and len(derivs) == g + 2 and len({d.shift for d in derivs}) == g + 2
        ok = ok and all(any(c for _, c in d.components) for d in derivs)

    # block sum equals the monolithic solve for the g <= 16 spaces
    for w in [(2, 3, 3, 4), (2, 3, 10, 15)]:
        sp, ideal, syz = desk_pipelines[w]
        hom = hom_dimension_minus1(ideal, syz)
        ok = ok and monolithic_hom_dimension(ideal, syz) == hom.total

    # spanning-tree and kernel-basis choices leave the dimension unchanged
    sp = weighted_space(2, 3, 3, 4)
    dims = set()
    for tree in ("min", "max"):
        ideal = quadric_generators(sp, tree=tree)
        for syz in (linear_syzygies(ideal), elimination_syzygies(ideal, reverse=True)):
            dims.add(hom_dimension_minus1(ideal, syz).total)
    ok = ok and dims == {20}

    # two-prime agreement on every solved block: swapping the primes must
    # reproduce the identical per-shift table
    from gwpskit.exactla import default_fields

    f1, f2 = default_fields()
    sp, ideal, syz = desk_pipelines[(2, 3, 3, 4)]
    a = hom_dimension_minus1(ideal, syz, fields=(f1, f2))
    b = hom_dimension_minus1(ideal, syz, fields=(f2, f1))
    ok = ok and a.by_shift == b.by_shift

    # cache round-trip identity
    text = cache_mod.ideal_to_text(ideal)
    ok = ok and cache_mod.ideal_to_text(cache_mod.ideal_from_text(sp, text)) == text
    syz_text = cache_mod.syzygies_to_text(sp, syz, "asc")
    ok = ok and cache_mod.syzygies_to_text(
        sp, cache_mod.syzygies_from_text(sp, syz_text, "asc"), "asc"
    ) == syz_text

    _report(8, "property-suites", ok, t0)

"""Degree -1 tangent module of the affine cone, block-decomposed by
exponent-vector shift, and the resulting extendability report.

A degree -1 module map on the ideal assigns to each quadric generator an
element of the degree-s part of the coordinate ring, subject to one scalar
constraint per linear syzygy.  The system splits into independent blocks
indexed by the shift (a weight-(-s) exponent vector): a generator with
multidegree c contributes an unknown to the block of shift d exactly when
c + d is a degree-s lattice point.  The coordinate derivations are g+2
independent solutions, so the tangent dimension is the total solution
dimension minus g+2, which equals the extendability count of the space.

Why the minimal cubic syzygies give all the constraints.  Let A = R/I be the
anticanonical ring, R the polynomial ring on the g+2 points of the degree-s
slice, and c = g - 2 the codimension.  The minimal first syzygies of I lie
in degrees 3 and 4 only:

- When the slice generates every degree-ds slice (projective normality), A
  is the ring of a normal affine semigroup, hence Cohen-Macaulay (Hochster,
  Ann. Math. 96 (1972)).
- Its h-vector is (1, g-2, g-2, 1).  It is symmetric, so the
  Cohen-Macaulay domain A is Gorenstein (Stanley, Adv. Math. 28 (1978)),
  and it has degree 3, so reg A = 3 and Tor_2(A)_j = 0 for j >= 6.
- The Gorenstein resolution is self-dual and ends in R(-c-3), so
  Tor_i(A)_j = Tor_{c-i}(A)_{c+3-j}.  Hence Tor_2(A)_5 = Tor_{g-4}(A)_{g-4},
  which is 0 because I has no linear forms, so Tor_i(A) starts in degree
  i + 1.

Degree 4, Tor_2(A)_4 = 0, is the quartic check
(resolution.check_no_quartic_syzygies, run by `betti --verify`).

Why degrees 2s and 3s decide projective normality.  Each weight a_i divides
s, so the degree-ds points are the lattice points of d times the simplex
with vertices (s/a_i) e_i, and each vertex is a slice point.  Write a point
x of degree ds as x_i = q_i (s/a_i) + r_i with 0 <= r_i < s/a_i.  Then x is
the sum of q_0 + ... + q_3 vertices and the box point r, whose degree
sum a_i r_i is a multiple ks of s below sum a_i (s/a_i) = 4s, so k <= 3.  If
every point of degree 2s and 3s is a sum of 2 and 3 slice points, r is a
sum of k slice points, and so x is a sum of d.  See Bruns-Gubeladze,
Polytopes, Rings, and K-Theory (Springer, 2009), ch. 2.

The tests check the premises: acceptance criterion 6 the h-vectors of all
14 spaces, tests/test_lattice.py::test_normality_all_spaces projective
normality through degree 3s on all 14 spaces, and
tests/test_lattice.py::test_normality_small_spaces through degree 4s on three
of them.  See Bruns-Herzog, Cohen-Macaulay Rings, sections 3.3, 4.4 and 6.3;
Schenzel, J. Algebra 64 (1980).

Why the report's alpha_S and alpha_C are alpha_P + 1 and alpha_P + 2.  For X
in P^N, alpha(X) = h^0(N_X(-1)) - N - 1; for P in P^{g+1} it is the tangent
dimension above.  The surface S, the general anticanonical divisor, is a
general hyperplane section of P, and the curve C one of S.  General linear
forms h, h' are a regular sequence on the Cohen-Macaulay domain A, so A/hA
and A/(h, h')A are the Cohen-Macaulay coordinate rings of S and C, with the
h-vector (1, g-2, g-2, 1) of A.  For Y = X cut by a hyperplane H with
N_{Y/H} = N_X|_Y (true where X is a local complete intersection along Y),
restriction gives 0 -> N_X(-2) -> N_X(-1) -> N_{Y/H}(-1) -> 0.  So
h^0(N_Y(-1)) = h^0(N_X(-1)) if H^0(N_X(-2)) = 0 and H^1(N_X(-2)) ->
H^1(N_X(-1)) is injective, and then alpha(Y) = alpha(X) + 1, as N drops by
one.  For this step, with X = P and X = S, the report relies on the paper
(arXiv:2103.08210); it is not proved here, and neither the identification
at the singular points of P that S meets nor the two vanishings is checked.
Its other premises, the h-vector and projective normality, are checked by
the tests named above.  Acceptance criterion 5 compares alpha_P + 1 with the
reference alpha_S of data/expected_values.tsv on all 14 spaces.  A
linear-section solver, since deleted, cut P by y_a + y_b at the coordinate
pairs (7, g+1) and (3, g) and gave alpha_P, alpha_P + 1 and alpha_P + 2 on
all 14 spaces for none, one and both forms (ROADMAP K); its ranks rested on
two-prime agreement, and those sections are special, not general.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exactla
from ._util import tadd, tsub
from .exactla import FieldSpec
from .lattice import Point
from .resolution import SyzygyBasis, linear_syzygies
from .toric import ToricIdeal
from .wps import WeightedSpace, invariants

ASSUMPTION_NOTE = (
    "constraints use the minimal cubic syzygies; degree-4 redundancy is "
    "verified by the quartic check (betti --verify), higher degrees vanish "
    "by the Gorenstein duality argument in the gwpskit.tangent docstring"
)


@dataclass(frozen=True)
class ShiftBlock:
    """One shift's linear system: unknowns are generator indices whose
    multidegree plus the shift lands in the degree-s slice; the int64 array
    constraints holds the distinct syzygy constraints on those unknowns, one
    nonzero primitive row each with a positive leading entry."""

    shift: Point
    unknowns: tuple[int, ...]
    constraints: np.ndarray


@dataclass
class HomTable:
    """Total degree -1 Hom dimension and its per-shift breakdown, the checked
    coordinate derivations, and the number of solved blocks that fell back
    to two primes."""

    total: int
    by_shift: dict[Point, int]
    derivations: tuple[DerivationVector, ...]
    fallbacks: int


@dataclass(frozen=True)
class DerivationVector:
    """The coordinate derivation d/dy_j as a solution of its shift block:
    components pair each unknown generator index with an integer value."""

    coordinate: int
    shift: Point
    components: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class T1Report:
    space: WeightedSpace
    hom_dim: int
    ambient_dim: int
    t1_dim: int
    alpha_P: int
    alpha_S: int
    alpha_C: int
    extendability: int
    assumption_note: str = ASSUMPTION_NOTE


def _syzygies_by_generator(syzygies: SyzygyBasis) -> np.ndarray:
    """The terms of all syzygies in basis order as int64 rows (owner, gen,
    coef); perfbench/spans.py looks this index up by name.  Coefficients below
    2**31 in size keep the int64 products of derivation_vectors exact."""
    owner = np.repeat(np.arange(syzygies.total_count, dtype=np.int64), syzygies.lengths)
    table = np.stack([owner, syzygies.terms[:, 1], syzygies.terms[:, 2]])
    if np.abs(table[2]).max(initial=0) >> 31:
        raise ValueError("syzygy coefficient of size 2**31 or more")
    return table


def _primitive_distinct_rows(a: np.ndarray) -> np.ndarray:
    """The nonzero rows of a, each divided by its gcd and signed to a positive
    leading entry, without repeats, in first-seen order."""
    g = np.gcd.reduce(a, axis=1)
    a //= np.maximum(g, 1)[:, None]
    a *= np.sign(a[np.arange(len(a)), np.argmax(a != 0, axis=1)])[:, None]
    # Each row as one opaque bytes value, so that equal rows are equal bytes;
    # as int8 when every entry fits, which keeps np.unique's copies small.
    keys = a.astype(np.int8) if -128 <= a.min(initial=0) and a.max(initial=0) < 128 else a
    rows = keys.view(np.dtype((np.void, keys.itemsize * a.shape[1]))).ravel()
    _, first = np.unique(rows, return_index=True)
    return a[np.sort(first[g[first] > 0])]


def _generator_multidegree_groups(ideal: ToricIdeal) -> dict[Point, list[int]]:
    groups: dict[Point, list[int]] = {}
    for k, gen in enumerate(ideal.generators):
        groups.setdefault(gen.multidegree, []).append(k)
    return groups


def enumerate_shifts(ideal: ToricIdeal) -> list[Point]:
    """All shifts v - c over degree-s points v and generator multidegrees c,
    deduplicated and sorted."""
    shifts = set()
    for c in _generator_multidegree_groups(ideal):
        for v in ideal.slice_s.points:
            shifts.add(tsub(v, c))
    return sorted(shifts)


def build_block(
    ideal: ToricIdeal,
    syzygies: SyzygyBasis,
    shift: Point,
    syz_by_gen: np.ndarray | None = None,
) -> ShiftBlock | None:
    """Assemble the linear system of one shift; None when it has no unknowns.

    Every syzygy that involves an unknown gives one row, summed from its terms
    in the table of _syzygies_by_generator (built here when not supplied), so
    the rows that remain are in basis order.
    """
    slice_index = ideal.slice_s.index_map()
    if syz_by_gen is None:
        syz_by_gen = _syzygies_by_generator(syzygies)
    unknowns = [
        k
        for k, gen in enumerate(ideal.generators)
        if tadd(gen.multidegree, shift) in slice_index
    ]
    if not unknowns:
        return None
    owner, gen, coef = syz_by_gen
    col_of = np.full(len(ideal.generators), -1, dtype=np.int64)
    col_of[unknowns] = np.arange(len(unknowns))
    cols = col_of[gen]
    hit = cols >= 0
    owners, rows = np.unique(owner[hit], return_inverse=True)
    a = np.zeros((len(owners), len(unknowns)), dtype=np.int64)
    np.add.at(a, (rows, cols[hit]), coef[hit])
    return ShiftBlock(
        shift=shift, unknowns=tuple(unknowns), constraints=_primitive_distinct_rows(a)
    )


def hom_dimension_minus1(
    ideal: ToricIdeal,
    syzygies: SyzygyBasis,
    fields: tuple[FieldSpec, FieldSpec] | None = None,
    known: dict[Point, int] | None = None,
    progress=None,
) -> HomTable:
    """Dimension of the space of degree -1 module maps on the ideal, as the
    sum of per-shift block solution dimensions, each exact.

    A block's rank lies between its GF(2) rank and its column count, or one
    less where the shift holds a coordinate derivation, a nonzero integer
    solution checked exactly from the same block.  Where the two bounds meet,
    the dimension is proven; elsewhere it is solved under two primes and
    counted in `fallbacks` (exactla.certified_solution_dim).

    `known` supplies already-computed shift dimensions (cache resume);
    `progress(shift, dim)` is invoked per newly solved block.
    """
    if fields is None:
        fields = exactla.default_fields()
    syz_by_gen = _syzygies_by_generator(syzygies)
    coordinate = {(-u[0], -u[1], -u[2], -u[3]): m for m, u in enumerate(ideal.slice_s.points)}
    derived: dict[Point, DerivationVector] = {}
    shifts = enumerate_shifts(ideal)
    todo = [s for s in shifts if known is None or s not in known]

    by_shift: dict[Point, int] = dict(known) if known else {}
    fallbacks = 0
    for shift in todo:
        block = build_block(ideal, syzygies, shift, syz_by_gen)
        kernel = None
        if shift in coordinate:
            d = derived[shift] = _derivation(ideal, coordinate[shift], block)
            kernel = np.array([c for _, c in d.components], dtype=np.int64)
        dim = 0
        if block is not None:
            dim, fell_back = exactla.certified_solution_dim(
                block.constraints, *fields, kernel=kernel
            )
            fallbacks += fell_back
        by_shift[shift] = dim
        if progress is not None:
            progress(shift, dim)
    by_shift = {s: by_shift[s] for s in shifts}
    # The derivations of shifts resumed from `known` were not built above.
    derivations = tuple(
        derived.get(s) or _derivation(ideal, m, build_block(ideal, syzygies, s, syz_by_gen))
        for s, m in coordinate.items()
    )
    return HomTable(
        total=sum(by_shift.values()),
        by_shift=by_shift,
        derivations=derivations,
        fallbacks=fallbacks,
    )


def _derivation(ideal: ToricIdeal, m: int, block: ShiftBlock | None) -> DerivationVector:
    """d/dy_m as a solution of `block`, the block of its shift.

    Asserts that the block exists and that the vector is nonzero and
    satisfies all constraints of its block exactly over the integers (a failed
    constraint signals an incomplete syzygy basis).
    """
    if block is None:
        raise AssertionError(f"coordinate {m} has no incident generators; derivation vanishes")
    gens = [ideal.generators[k] for k in block.unknowns]
    vec = np.array([g.lhs.count(m) - g.rhs.count(m) for g in gens], dtype=np.int64)
    if not vec.any():
        raise AssertionError(f"derivation for coordinate {m} is the zero vector")
    # Syzygy coefficients below 2**31 and components of size at most 2:
    # the int64 product is exact.
    if (block.constraints @ vec).any():
        raise AssertionError(
            f"derivation for coordinate {m} violates a syzygy constraint; "
            "the syzygy basis is incomplete"
        )
    components = tuple(zip(block.unknowns, vec.tolist()))
    return DerivationVector(coordinate=m, shift=block.shift, components=components)


def derivation_vectors(
    ideal: ToricIdeal, syzygies: SyzygyBasis | None = None
) -> tuple[DerivationVector, ...]:
    """The g+2 coordinate derivations as explicit block solutions.

    Asserts that each is nonzero, that the g+2 shifts are pairwise distinct,
    and that every vector satisfies all constraints of its block exactly over
    the integers.
    """
    if syzygies is None:
        syzygies = linear_syzygies(ideal)
    syz_by_gen = _syzygies_by_generator(syzygies)
    out = []
    shifts_seen = set()
    for m, u in enumerate(ideal.slice_s.points):
        shift = (-u[0], -u[1], -u[2], -u[3])
        if shift in shifts_seen:
            raise AssertionError("derivation shifts are not pairwise distinct")
        shifts_seen.add(shift)
        out.append(_derivation(ideal, m, build_block(ideal, syzygies, shift, syz_by_gen)))
    return tuple(out)


def assemble_report(
    space: WeightedSpace, ideal: ToricIdeal, syzygies: SyzygyBasis, hom: HomTable
) -> T1Report:
    """Run the safety assertions and package the result.

    Checks that the explicit syzygy count matches the counting formula (which
    itself requires the degree-3 generation check to pass), that `hom`
    carries one checked coordinate derivation per coordinate, and that the
    solution total is at least the ambient dimension.
    """
    from .resolution import beta2

    inv = invariants(space)
    expected = beta2(space)
    if syzygies.total_count != expected:
        raise AssertionError(
            f"explicit syzygy count {syzygies.total_count} != formula {expected}"
        )
    ambient = inv.g + 2
    if len(hom.derivations) != ambient:
        raise AssertionError(
            f"{len(hom.derivations)} coordinate derivations, expected {ambient}"
        )
    if hom.total < ambient:
        raise AssertionError(f"hom dimension {hom.total} below ambient {ambient}")
    t1 = hom.total - ambient
    return T1Report(
        space=space,
        hom_dim=hom.total,
        ambient_dim=ambient,
        t1_dim=t1,
        alpha_P=t1,
        alpha_S=t1 + 1,
        alpha_C=t1 + 2,
        extendability=t1,
    )


def alpha_report(
    space: WeightedSpace,
    fields: tuple[FieldSpec, FieldSpec] | None = None,
) -> T1Report:
    """Full pipeline: ideal, degree-3 generation, syzygies, derivation
    assertions, block solve; then alpha and the extendability count."""
    from .toric import quadric_generators

    inv = invariants(space)
    if not inv.gorenstein:
        raise ValueError("alpha is computed for Gorenstein spaces only")
    ideal = quadric_generators(space)
    syzygies = linear_syzygies(ideal)
    hom = hom_dimension_minus1(ideal, syzygies, fields=fields)
    return assemble_report(space, ideal, syzygies, hom)

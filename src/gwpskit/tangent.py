"""Degree -1 tangent module T^1 of the affine cone over P, per exponent-vector
shift, and the extendability report read off it.

Notation.  R is the polynomial ring on the g+2 points u_0, ..., u_{g+1} of the
degree-s slice E, I the quadric ideal and A = R/I the anticanonical ring.  A
degree -1 module map on I sends a quadric generator of multidegree c into
A_{c+d} for one shift d, a weight -s exponent vector, and A_{c+d} is zero
unless c + d is a slice point.  So Hom(I, A) in degree -1 is the sum of its
pieces at the shifts d = v - c (enumerate_shifts), and is zero at every other
shift.

Altmann's formula (t1_by_shift; the route of alpha_report and `gwpskit
alpha`).  Where E generates every degree-ds slice (projective normality,
below), A is the ring of the semigroup of points x >= 0 of the lattice M of
exponent vectors of weight divisible by s.  That semigroup is saturated, its
cone is the positive orthant, with the facets x_j = 0, and E is its Hilbert
basis: every element is a sum of points of E, and a point of E, of the least
positive weight, is no sum of two.  A shift d is the M-degree -R, R = -d.  For
such a toric ring K. Altmann (Infinitesimal deformations and obstructions for
toric singularities, J. Pure Appl. Algebra 119 (1997) 211-235) gives

    T^1(-R) = (L(U) / (L(E_0) + ... + L(E_3)))^*,

where E_j = {u in E : u_j < R_j}, U is their union and L(F) is the space of
linear relations sum q_u u = 0 among the points of F.  Dually, a functional on
L(U) that kills every L(E_j) is a function f on U, modulo the restrictions of
linear forms, that agrees on each E_j with some linear form a_j on Q^4.  The
quadruples (a_0, ..., a_3) with a_j(u) = a_k(u) for j < k and u in E_j & E_k
are the kernel of a matrix C in 16 unknowns, one row per pair j < k and point
of a basis of E_j & E_k, so at most 24 rows.  Each quadruple gives such an f;
those that give f = 0 are the ones with every a_j zero on E_j, sum_j (4 - rank
E_j) dimensions; and the linear forms, restricted to U, make up rank U more.
So

    dim T^1(-R) = 16 - rank C - sum_j (4 - rank E_j) - rank U.

t1_dimensions evaluates this at many shifts at once and ranks nothing twice.
The dimension depends only on the spans of the 11 point sets E_j & E_k (j <
k), E_j and U: a linear form vanishes on a set exactly when it vanishes on a
basis of its span, so C needs only one basis of each E_j & E_k, and the other
terms are dimensions of spans.  One array comparison gives the four member
sets of every shift; one np.unique over the packed sets finds the distinct
member patterns, and another the distinct point sets among their 11 sets.
Each distinct set gets the reduced echelon basis of its span
(exactla.echelon): the reduced row echelon form with each row scaled to a
primitive integer vector, positive at its pivot.  That basis is unique to
the span, so it is also the span's canonical key, and C is ranked once per
distinct tuple of the six keys of the E_j & E_k.  Every rank is exact, by
fraction-free elimination on Python integers, with no prime and no float.
At a shift off enumerate_shifts T^1 is 0, as a quotient of a zero piece of
Hom(I, A).

Why the per-shift Hom dimension is T^1, plus one at the g+2 coordinate shifts
-u_m.  T^1 is Hom(I, A) modulo the image of Der(R, A), whose degree-d piece is
spanned by the d/dy_m with A_{d + u_m} != 0; in weight -s that is d = -u_m
only.  d/dy_m sends a quadric generator in which y_m occurs to a nonzero linear
form, nonzero in A as I has no linear forms, so its image in Hom(I, A) is not
zero (the derivations of A of weight -s vanish: P is not a cone);
hom_by_shift checks that every slice index occurs in some generator.  The
total minus g+2 is the extendability count alpha_P.

The elimination route (hom_dimension_minus1, kept as the tests' reference)
solves the same Hom(I, A) as one linear system per shift: one unknown per
quadric generator whose multidegree plus the shift lands in the slice, and one
scalar constraint per linear syzygy.  The coordinate derivations are g+2
independent solutions, checked as such (derivation_vectors).

Why the minimal cubic syzygies give all the constraints of that route.  Let
c = g - 2 be the codimension.  The minimal first syzygies of I lie in degrees
3 and 4 only:

- When the slice generates every degree-ds slice (projective normality), A
  is the ring of a normal affine semigroup, hence Cohen-Macaulay (Hochster,
  Ann. Math. 96 (1972)).
- Its h-vector is (1, g-2, g-2, 1).  It is symmetric, so the
  Cohen-Macaulay domain A is Gorenstein (Stanley, Adv. Math. 28 (1978)),
  and it has degree 3, so reg A = 3 and Tor_2(A)_j = 0 for j >= 6.
- The Gorenstein resolution is self-dual and ends in R(-c-3), so
  Tor_i(A)_j = Tor_{c-i}(A)_{c+3-j}.  Hence Tor_2(A)_5 = Tor_{g-4}(A)_{g-4},
  which is 0 because I has no linear forms, so Tor_i(A) starts in degree
  i + 1.  The tests confirm it on five spaces: H~_1 of the squarefree
  divisor complex of every degree-5s point vanishes.

Degree 4, Tor_2(A)_4 = 0, is the quartic check
(resolution.check_no_quartic_syzygies, run by `betti --verify`): H~_1 of the
squarefree divisor complex of every degree-4s point vanishes.  Its faces are
read off by the test x >= 0, which stands for membership in the semigroup by
the projective normality shown next.

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
one.  For X = P the vanishing H^0(N_P(-2)) = 0 is checked.  A is
Cohen-Macaulay of dimension 4, so Hom_A(I/I^2, A) has depth >= 2 and is the
module of twisted sections of N_P; its weight -2s part is H^0(N_P(-2)).  A map
of weight -2s sends a generator of multidegree c into A_{c+d} of weight 0,
which is zero unless d = -c, and Der(R, A) is zero there, so that part is the
sum of T^1(-R) over the generator multidegrees R, and
tests/test_tangent.py::test_t1_vanishes_in_weight_minus_2s finds T^1(-R) = 0
at every R of the degree-2s slice on all 14 spaces.  The injectivity for X = P,
both premises for X = S and the identification at the singular points of P
that S meets rest on the paper (arXiv:2103.08210); they are not checked here.
Its other premises, the h-vector and projective normality, are checked by the
tests named above.  Acceptance criterion 5 compares alpha_P + 1 with the
reference alpha_S of data/expected_values.tsv on all 14 spaces.  A
linear-section solver, since deleted, cut P by y_a + y_b at the coordinate
pairs (7, g+1) and (3, g) and gave alpha_P, alpha_P + 1 and alpha_P + 2 on
all 14 spaces for none, one and both forms (ROADMAP K); its ranks rested on
two-prime agreement, and those sections are special, not general.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import exactla
from ._util import tadd
from .exactla import FieldSpec, echelon
from .lattice import Point
from .resolution import SyzygyBasis, linear_syzygies
from .toric import ToricIdeal, _pack
from .wps import WeightedSpace, invariants

_PAIRS = tuple(combinations(range(4), 2))

ASSUMPTION_NOTE = (
    "T^1 from Altmann's toric formula on the Hilbert basis of the degree-s "
    "slice, exact at every shift; alpha_S = alpha_P + 1 rests on the "
    "hyperplane-section step in the gwpskit.tangent docstring"
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


def enumerate_shifts(ideal: ToricIdeal) -> list[Point]:
    """All shifts v - c over degree-s points v and generator multidegrees c,
    deduplicated and sorted."""
    pts = np.array(ideal.slice_s.points, dtype=np.int64)
    gen_md = np.array([gen.multidegree for gen in ideal.generators], dtype=np.int64).reshape(-1, 4)
    # v - c + top lies in [0, base) in every coordinate, so its packed code
    # sorts like the tuple; _pack is linear, so that code is a difference.
    # A set dedupes the codes: np.unique's integer sort touches numpy code
    # that no other step of alpha does, 0.7 MB of peak RSS.
    top = gen_md.max(0, initial=0)
    base = int(pts.max() + top.max()) + 1
    codes = (_pack(pts, base) - _pack(gen_md - top, base)[:, None]).ravel().tolist()
    codes = np.array(sorted(set(codes)), dtype=np.int64)
    digits = np.stack([codes // base**3, codes // base**2 % base, codes // base % base,
                       codes % base], axis=1) - top
    return list(map(tuple, digits.tolist()))


def _distinct_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first index of each distinct row of the uint8 array a, and each
    row's position among them, by one np.unique over the rows as bytes."""
    keys = np.ascontiguousarray(a).view(np.dtype((np.void, a.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return first, inverse


def t1_dimensions(points, shifts) -> list[int]:
    """dim T^1 at each shift d, by Altmann's formula at the degree R = -d (see
    the module docstring).  `points` is the degree-s slice, `shifts` any
    exponent vectors of weight divisible by s."""
    pts = np.array(points, dtype=np.int64)
    # sets[i, j]: the member set E_j of shift i, the points u with u_j < R_j,
    # packed into bits over the slice.
    sets = np.packbits(pts.T[None] < -np.array(shifts, dtype=np.int64).reshape(-1, 4, 1), axis=2)
    first, pattern_of = _distinct_rows(sets.reshape(-1, 4 * sets.shape[2]))
    e = sets[first]
    left, right = np.array(_PAIRS).T
    # The 11 point sets of each distinct pattern: E_j & E_k for j < k, E_j, U.
    masks = np.concatenate([e[:, left] & e[:, right], e, np.bitwise_or.reduce(e, 1)[:, None]], 1)
    masks = masks.reshape(-1, masks.shape[2])
    first, set_of = _distinct_rows(masks)
    spans = [
        echelon([points[i] for i in np.flatnonzero(np.unpackbits(m, count=len(pts))).tolist()], 4)
        for m in masks[first]
    ]
    rank_c: dict[tuple, int] = {}
    dims = []
    for ids in set_of.reshape(-1, 11).tolist():
        key = tuple(spans[i] for i in ids[:6])
        if key not in rank_c:
            rows = []
            for (j, k), basis in zip(_PAIRS, key):
                for u in basis:
                    row = [0] * 16
                    row[4 * j:4 * j + 4] = u
                    row[4 * k:4 * k + 4] = [-x for x in u]
                    rows.append(row)
            rank_c[key] = len(echelon(rows, 16))
        free = sum(4 - len(spans[i]) for i in ids[6:10])
        dims.append(16 - rank_c[key] - free - len(spans[ids[10]]))
    return [dims[p] for p in pattern_of.tolist()]


def t1_by_shift(ideal: ToricIdeal) -> dict[Point, int]:
    """dim T^1 at every shift of enumerate_shifts, the only shifts where it
    can be nonzero."""
    shifts = enumerate_shifts(ideal)
    return dict(zip(shifts, t1_dimensions(ideal.slice_s.points, shifts)))


def hom_by_shift(ideal: ToricIdeal) -> dict[Point, int]:
    """The per-shift Hom dimension of hom_dimension_minus1: T^1 plus one at
    each coordinate shift -u_m, whose derivation d/dy_m is nonzero on I.

    Asserts that every slice index occurs in some quadric generator, which is
    what makes each d/dy_m nonzero.
    """
    points = ideal.slice_s.points
    used = {m for gen in ideal.generators for m in gen.lhs + gen.rhs}
    if len(used) != len(points):
        raise AssertionError("a slice coordinate occurs in no quadric generator")
    coordinate = {(-u[0], -u[1], -u[2], -u[3]) for u in points}
    return {d: t1 + (d in coordinate) for d, t1 in t1_by_shift(ideal).items()}


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

    `known` supplies already-computed shift dimensions, which are not solved;
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
    """The report of the elimination route, after its safety assertions.

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
    return report_from_table(space, hom.by_shift)


def report_from_table(space: WeightedSpace, by_shift: dict[Point, int]) -> T1Report:
    """Package a per-shift Hom table as the report; asserts that its total is
    at least the ambient dimension g+2."""
    hom_dim = sum(by_shift.values())
    ambient = invariants(space).g + 2
    if hom_dim < ambient:
        raise AssertionError(f"hom dimension {hom_dim} below ambient {ambient}")
    t1 = hom_dim - ambient
    return T1Report(
        space=space,
        hom_dim=hom_dim,
        ambient_dim=ambient,
        t1_dim=t1,
        alpha_P=t1,
        alpha_S=t1 + 1,
        alpha_C=t1 + 2,
        extendability=t1,
    )


def alpha_report(space: WeightedSpace) -> T1Report:
    """alpha and the extendability count of a Gorenstein space, from its
    quadric ideal and Altmann's formula (hom_by_shift)."""
    from .toric import quadric_generators

    if not invariants(space).gorenstein:
        raise ValueError("alpha is computed for Gorenstein spaces only")
    return report_from_table(space, hom_by_shift(quadric_generators(space)))

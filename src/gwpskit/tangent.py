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

Linear sections cut by sums of two coordinates are handled by the same block
method under the multigrading coarsened by the difference of the two exponent
vectors; quotient relations enter as slack columns and per-generator gauge
rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exactla, lattice
from ._util import tadd, tsub
from .exactla import FieldSpec, SparseMatrix
from .lattice import Point
from .resolution import SyzygyBasis, linear_syzygies
from .toric import ToricIdeal
from .wps import WeightedSpace, invariants

ASSUMPTION_NOTE = (
    "constraints use the minimal cubic syzygies; degree-4 redundancy is "
    "verified by the quartic check (betti --verify), higher degrees rest on "
    "the quadratic-linear resolution shape"
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
    """Total degree -1 Hom dimension and its per-shift breakdown."""

    total: int
    by_shift: dict[Point, int]


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
    terms = [(j, k, c) for j, syz in enumerate(syzygies.elements()) for (_, k, c) in syz.terms]
    table = np.array(terms, dtype=np.int64).reshape(-1, 3).T
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
    sum of per-shift block solution dimensions (exact, two primes).

    `known` supplies already-computed shift dimensions (cache resume);
    `progress(shift, dim, done, total)` is invoked per newly solved block.
    """
    if fields is None:
        fields = exactla.default_fields()
    syz_by_gen = _syzygies_by_generator(syzygies)
    shifts = enumerate_shifts(ideal)
    todo = [s for s in shifts if known is None or s not in known]

    by_shift: dict[Point, int] = dict(known) if known else {}
    for done, shift in enumerate(todo, start=1):
        block = build_block(ideal, syzygies, shift, syz_by_gen)
        dim = 0 if block is None else exactla.array_solution_dim(block.constraints, *fields)
        by_shift[shift] = dim
        if progress is not None:
            progress(shift, dim, done, len(todo))
    by_shift = {s: by_shift[s] for s in shifts}
    return HomTable(total=sum(by_shift.values()), by_shift=by_shift)


def derivation_vectors(
    ideal: ToricIdeal, syzygies: SyzygyBasis | None = None
) -> tuple[DerivationVector, ...]:
    """The g+2 coordinate derivations as explicit block solutions.

    Asserts that each is nonzero, that the g+2 shifts are pairwise distinct,
    and that every vector satisfies all constraints of its block exactly over
    the integers (a failed constraint signals an incomplete syzygy basis).
    """
    if syzygies is None:
        syzygies = linear_syzygies(ideal)
    pts = ideal.slice_s.points
    syz_by_gen = _syzygies_by_generator(syzygies)
    out = []
    shifts_seen = set()
    for m, u in enumerate(pts):
        shift = (-u[0], -u[1], -u[2], -u[3])
        block = build_block(ideal, syzygies, shift, syz_by_gen)
        if block is None:
            raise AssertionError(
                f"coordinate {m} has no incident generators; derivation vanishes"
            )
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
        if shift in shifts_seen:
            raise AssertionError("derivation shifts are not pairwise distinct")
        shifts_seen.add(shift)
        components = tuple(zip(block.unknowns, vec.tolist()))
        out.append(DerivationVector(coordinate=m, shift=shift, components=components))
    return tuple(out)


def monolithic_hom_dimension(
    ideal: ToricIdeal,
    syzygies: SyzygyBasis,
    fields: tuple[FieldSpec, FieldSpec] | None = None,
) -> int:
    """Global solve without the shift decomposition: one unknown per
    (generator, degree-s point) pair, one constraint row per syzygy and
    degree-2s target point.  Used to validate that the block sum is exact."""
    if fields is None:
        fields = exactla.default_fields()
    pts = ideal.slice_s.points
    n = len(pts)
    ncols = len(ideal.generators) * n
    entries = []
    nrows = 0
    for syz in syzygies.elements():
        targets: dict[Point, dict[int, int]] = {}
        for (i, k, c) in syz.terms:
            ui = pts[i]
            for v in range(n):
                p = tadd(ui, pts[v])
                col = k * n + v
                row = targets.setdefault(p, {})
                row[col] = row.get(col, 0) + c
        for p in sorted(targets, reverse=True):
            row = targets[p]
            wrote = False
            for col, val in sorted(row.items()):
                if val:
                    entries.append((nrows, col, val))
                    wrote = True
            if wrote:
                nrows += 1
    mat = SparseMatrix(nrows, ncols, tuple(entries))
    return exactla.solution_dim(mat, *fields)


def assemble_report(
    space: WeightedSpace, ideal: ToricIdeal, syzygies: SyzygyBasis, hom: HomTable
) -> T1Report:
    """Run the safety assertions and package the result.

    Checks that the explicit syzygy count matches the counting formula (which
    itself requires the degree-3 generation check to pass), that every
    coordinate derivation is a nonzero block solution, and that the solution
    total is at least the ambient dimension.
    """
    from .resolution import beta2

    inv = invariants(space)
    expected = beta2(space)
    if syzygies.total_count != expected:
        raise AssertionError(
            f"explicit syzygy count {syzygies.total_count} != formula {expected}"
        )
    derivation_vectors(ideal, syzygies)
    ambient = inv.g + 2
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


# ---------------------------------------------------------------------------
# Linear sections under the coarsened multigrading.


def section_index_presets(space: WeightedSpace) -> tuple[tuple[int, int], tuple[int, int]]:
    """The documented coordinate-pair presets (7, g+1) and (3, g) for cutting
    toric hyperplane sections, interpreted under this artifact's canonical
    slice order."""
    inv = invariants(space)
    if not inv.gorenstein:
        raise ValueError("section presets require a Gorenstein space")
    g = inv.g
    return (7, g + 1), (3, g)


class _CosetReducer:
    """Canonical coset representatives of Z^4 modulo an integer row lattice."""

    def __init__(self, rows):
        self.basis = []
        work = [list(r) for r in rows if any(r)]
        for col in range(4):
            live = [r for r in work if r[col] != 0]
            while len(live) > 1:
                live.sort(key=lambda r: abs(r[col]))
                a, b = live[0], live[1]
                q = b[col] // a[col]
                for t in range(4):
                    b[t] -= q * a[t]
                live = [r for r in work if r[col] != 0]
            if live:
                piv = live[0]
                work.remove(piv)
                if piv[col] < 0:
                    piv = [-x for x in piv]
                self.basis.append((col, tuple(piv)))

    def reduce(self, v) -> Point:
        w = list(v)
        for col, row in self.basis:
            q = w[col] // row[col]
            if q:
                for t in range(4):
                    w[t] -= q * row[t]
        return tuple(w)


def t1_section_minus1(
    ideal: ToricIdeal,
    identifications,
    syzygies: SyzygyBasis | None = None,
    fields: tuple[FieldSpec, FieldSpec] | None = None,
) -> int:
    """Degree -1 tangent dimension for the cone over the linear section cut
    by the forms y_a + y_b, one per identification pair (a, b).

    Each pair substitutes y_b := -y_a; the block method runs under the
    multigrading coarsened by the lattice spanned by the exponent differences.
    With an empty identification list this reduces to the tangent dimension of
    the cone over the space itself.
    """
    if fields is None:
        fields = exactla.default_fields()
    if syzygies is None:
        syzygies = linear_syzygies(ideal)
    pts = ideal.slice_s.points
    n = len(pts)
    pairs = [tuple(p) for p in identifications]
    used = set()
    for a, b in pairs:
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"identification index out of range: ({a}, {b})")
        if pts[a] == pts[b]:
            raise ValueError(f"degenerate identification: points {a} and {b} coincide")
        for x in (a, b):
            if x in used:
                raise ValueError("identification pairs must use distinct coordinates")
            used.add(x)
    reducer = _CosetReducer([tsub(pts[a], pts[b]) for a, b in pairs])
    cls = reducer.reduce

    pts2 = lattice.degree_slice(ideal.space, 2 * ideal.slice_s.degree).points
    slice_class: dict[Point, list[int]] = {}
    for v, u in enumerate(pts):
        slice_class.setdefault(cls(u), []).append(v)

    # Quotient relations: degree s (the forms themselves) and degree 2s
    # (form times coordinate), grouped by coset class.
    rel1_by_class: dict[Point, list[dict[int, int]]] = {}
    rel2_by_class: dict[Point, list[dict[Point, int]]] = {}
    for a, b in pairs:
        rel1_by_class.setdefault(cls(pts[a]), []).append({a: 1, b: 1})
        for v in range(n):
            p = tadd(pts[a], pts[v])
            q = tadd(pts[b], pts[v])
            rel2_by_class.setdefault(cls(p), []).append({p: 1, q: 1})

    rel2_rank: dict[Point, int] = {}
    for key, vecs in rel2_by_class.items():
        cols = sorted({p for vec in vecs for p in vec})
        mat = SparseMatrix.from_dense([[vec.get(p, 0) for p in cols] for vec in vecs])
        rel2_rank[key] = mat.cols - exactla.solution_dim(mat, *fields)

    if pairs:
        total_rel2_rank = sum(rel2_rank.values())
        e = len(pairs)
        inv = invariants(ideal.space)
        expected = e * (inv.g + 2) - (1 if e == 2 else 0)
        if total_rel2_rank != expected:
            raise ValueError(
                "section forms are not a regular sequence in degree 2s: "
                f"relation rank {total_rel2_rank}, expected {expected}"
            )

    subst = {b: a for a, b in pairs}
    gen_groups = _generator_multidegree_groups(ideal)
    elements = tuple(syzygies.elements())
    owner, gen, _ = _syzygies_by_generator(syzygies)

    # Shift classes and the per-(multidegree, class) unknown targets.
    targets_by_c: dict[Point, dict[Point, list[int]]] = {}
    for c in gen_groups:
        table: dict[Point, list[int]] = {}
        for v in range(n):
            table.setdefault(cls(tsub(pts[v], c)), []).append(v)
        targets_by_c[c] = table
    shift_classes = sorted({gamma for table in targets_by_c.values() for gamma in table})

    def substituted_terms(syz):
        for (i, k, c) in syz.terms:
            if i in subst:
                yield subst[i], k, -c
            else:
                yield i, k, c

    def derivation_components(k: int, m: int) -> dict[int, int]:
        gen = ideal.generators[k]
        comps: dict[int, int] = {}
        for pair, outer_sign in ((gen.lhs, 1), (gen.rhs, -1)):
            sign = outer_sign
            mono = []
            for i in pair:
                if i in subst:
                    sign = -sign
                    mono.append(subst[i])
                else:
                    mono.append(i)
            x, y = mono
            if x == m:
                comps[y] = comps.get(y, 0) + sign
            if y == m:
                comps[x] = comps.get(x, 0) + sign
        return {v: c for v, c in comps.items() if c}

    total_hom = 0
    total_deriv_rank = 0
    deriv_by_class: dict[Point, list[int]] = {}
    remaining = [m for m in range(n) if m not in subst]
    for m in remaining:
        deriv_by_class.setdefault(cls((-pts[m][0], -pts[m][1], -pts[m][2], -pts[m][3])), []).append(m)

    for gamma in shift_classes:
        unknowns: list[tuple[int, int]] = []
        for c in sorted(gen_groups, reverse=True):
            vs = targets_by_c[c].get(gamma)
            if not vs:
                continue
            for k in gen_groups[c]:
                unknowns.extend((k, v) for v in vs)
        if not unknowns:
            continue
        unknowns.sort()
        pos = {kv: i for i, kv in enumerate(unknowns)}
        nt = len(unknowns)

        # Gauge rows: per generator, the degree-s quotient relations of its
        # target class.
        gauge_rows = []
        ks = sorted({k for k, _ in unknowns})
        for k in ks:
            chi = cls(tadd(ideal.generators[k].multidegree, gamma))
            for rel in rel1_by_class.get(chi, ()):
                row = [0] * nt
                for v, val in rel.items():
                    row[pos[(k, v)]] = val
                gauge_rows.append(row)
        gauge_rank = 0
        if gauge_rows:
            gm = SparseMatrix.from_dense(gauge_rows)
            gauge_rank = nt - exactla.solution_dim(gm, *fields)

        # Constraint system with per-syzygy slack columns for the degree-2s
        # quotient relations.
        sys_rows: list[dict[int, int]] = []
        slack_base = nt
        slack_nullity = 0
        for j in np.unique(owner[np.isin(gen, ks)]):
            point_rows: dict[Point, dict[int, int]] = {}
            hit = False
            for (i, kk, c) in substituted_terms(elements[j]):
                vs = targets_by_c[ideal.generators[kk].multidegree].get(gamma)
                if not vs:
                    continue
                hit = True
                ui = pts[i]
                for v in vs:
                    p = tadd(ui, pts[v])
                    row = point_rows.setdefault(p, {})
                    col = pos[(kk, v)]
                    row[col] = row.get(col, 0) + c
            if not hit:
                continue
            chi_s = cls(next(iter(point_rows)))
            rels = rel2_by_class.get(chi_s, ())
            for ridx, rel in enumerate(rels):
                for p, val in rel.items():
                    row = point_rows.setdefault(p, {})
                    row[slack_base + ridx] = val
            if rels:
                slack_nullity += len(rels) - rel2_rank[chi_s]
                slack_base += len(rels)
            for p in sorted(point_rows, reverse=True):
                sys_rows.append(point_rows[p])
        ncols = slack_base
        entries = []
        for r, row in enumerate(sys_rows):
            for cidx, val in sorted(row.items()):
                if val:
                    entries.append((r, cidx, val))
        mat = SparseMatrix(len(sys_rows), ncols, tuple(entries))
        nullity = exactla.solution_dim(mat, *fields)
        sol_dim_t = nullity - slack_nullity
        block_dim = sol_dim_t - gauge_rank
        if block_dim < 0:
            raise AssertionError(f"negative block dimension at shift class {gamma}")
        total_hom += block_dim

        # Derivations of this class, modulo the gauge.
        ms = deriv_by_class.get(gamma, ())
        if ms:
            deriv_rows = []
            for m in ms:
                row = [0] * nt
                nonzero = False
                for k in ks:
                    for v, val in derivation_components(k, m).items():
                        idx = pos.get((k, v))
                        if idx is None:
                            raise AssertionError(
                                "derivation component outside its shift block"
                            )
                        row[idx] += val
                        nonzero = True
                if nonzero:
                    deriv_rows.append(row)
            if deriv_rows:
                stacked = SparseMatrix.from_dense(deriv_rows + gauge_rows)
                stacked_rank = nt - exactla.solution_dim(stacked, *fields)
                total_deriv_rank += stacked_rank - gauge_rank

    t1 = total_hom - total_deriv_rank
    if t1 < 0:
        raise AssertionError("negative tangent dimension; solver inconsistency")
    return t1

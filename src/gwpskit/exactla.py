"""Exact linear algebra: certified ranks, exact integer echelon forms, and
prime fields as the reference route's fallback.

`rank_gf2` eliminates bitset rows over GF(2).  For an integer matrix M,
rank_2(M) <= rank_Q(M), since a minor that is odd is a nonzero integer, so
it is a proven lower bound on the rational rank.  Wherever it meets an exact
upper bound, the rank is proven: the quartic check takes the cycle dimension
E - V + c of a complex's 1-skeleton as that bound, and
`certified_solution_dim` (the tests' tangent shift blocks) the row or the
column count, the latter lowered by one for a verified integer kernel
vector.

`echelon` is the exact rank of every command: fraction-free elimination on
Python integers, with no prime.  It gives T^1 the spans, their canonical
keys and the ranks of C that the coordinate-subspace certificate of
gwpskit.tangent leaves, and the quartic check the rank of a boundary map
whose GF(2) rank fell short of E - V + c.

Where the bounds of a shift block do not meet, `certified_solution_dim`
falls back to `solution_dim`: a validated coordinate-form `SparseMatrix`
whose rank comes from Markowitz elimination under two independent primes,
which must agree.  Values are reduced modulo an odd prime p < 2**31 in one
vectorized step, a nonzero value that p divides is an error, and
elimination runs on Python integers.  No command reaches this route; the
tests and perfbench do.  Dense elimination (`_dense_rank`, `_dense_rref`)
and right-kernel bases remain as references for the tests.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from math import gcd

import numpy as np

MERSENNE_PRIME_31 = 2147483647
SECOND_PRIME = 1073741789
# Selects nothing; read by perfbench, and ROADMAP H removes it.
DENSE_COLUMN_LIMIT = 256

_MAX_PRIME = 1 << 31


class ExactLinearAlgebraError(RuntimeError):
    """Base class for failures of the exact elimination layer."""


class EntryVanishedError(ExactLinearAlgebraError):
    """A nonzero integer entry reduced to zero modulo the working prime.

    No caller retries: the error propagates, and the run must be repeated
    with other working primes.
    """

    def __init__(self, prime: int, row: int, col: int, value: int):
        super().__init__(
            f"entry {value} at ({row}, {col}) vanishes mod {prime}; choose another working prime"
        )
        self.prime = prime
        self.row = row
        self.col = col
        self.value = value


class ReproducibilityError(ExactLinearAlgebraError):
    """Results under the two primes disagree."""


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; bases 2,3,5,7 are exact for n < 3215031751."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7):
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """A prime field F_p with p an odd prime below 2**31."""

    prime: int

    def __post_init__(self):
        p = self.prime
        if not isinstance(p, int) or p < 3 or p >= _MAX_PRIME or p % 2 == 0:
            raise ValueError(f"field modulus must be an odd prime < 2**31, got {p}")
        if not _is_prime(p):
            raise ValueError(f"field modulus {p} is not prime")


def default_fields() -> tuple[FieldSpec, FieldSpec]:
    return FieldSpec(MERSENNE_PRIME_31), FieldSpec(SECOND_PRIME)


def _int64(data) -> np.ndarray:
    try:
        return np.asarray(data, dtype=np.int64)
    except OverflowError:
        raise ValueError("matrix value outside the int64 range") from None


@dataclass(frozen=True, eq=False)
class SparseMatrix:
    """An integer matrix in coordinate form.

    entries is one (nnz, 3) int64 array of (row, col, value) rows, with every
    value nonzero and no position twice; a sequence of triples is converted
    on construction, and a value outside int64 is a ValueError.  Reduction
    happens per field.  The array field makes instances neither comparable
    nor hashable.
    """

    rows: int
    cols: int
    entries: np.ndarray

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        e = _int64(self.entries)
        if e.size == 0:
            e = e.reshape(0, 3)
        if e.ndim != 2 or e.shape[1] != 3:
            raise ValueError("entries must be (row, col, value) triples")
        r, c, v = e.T
        bad = np.flatnonzero((r < 0) | (r >= self.rows) | (c < 0) | (c >= self.cols))
        if bad.size:
            raise ValueError(f"entry position ({r[bad[0]]}, {c[bad[0]]}) out of range")
        bad = np.flatnonzero(v == 0)
        if bad.size:
            raise ValueError(f"explicit zero entry at ({r[bad[0]]}, {c[bad[0]]})")
        order = np.lexsort((c, r))
        bad = order[1:][(r[order][1:] == r[order][:-1]) & (c[order][1:] == c[order][:-1])]
        if bad.size:
            raise ValueError(f"duplicate entry at ({r[bad[0]]}, {c[bad[0]]})")
        object.__setattr__(self, "entries", e)

    @classmethod
    def from_dense(cls, data) -> "SparseMatrix":
        """The nonzero entries of a list of rows or a 2-d array, row by row."""
        a = _int64(data)
        if a.ndim == 1 and a.size == 0:  # no rows
            a = a.reshape(0, 0)
        r, c = np.nonzero(a)
        return cls(a.shape[0], a.shape[1], np.stack([r, c, a[r, c]], axis=1))

    @classmethod
    def summed(cls, rows: int, cols: int, at_row, at_col, values) -> "SparseMatrix":
        """The matrix whose entry at each position is the sum of the values
        listed there, given as three coordinate columns; zero sums are left
        out, and the entries come row by row."""
        at = np.stack([_int64(at_row), _int64(at_col)], axis=1)
        pos, where = np.unique(at, axis=0, return_inverse=True)
        total = np.zeros(len(pos), dtype=np.int64)
        np.add.at(total, where.ravel(), _int64(values))
        keep = total != 0
        return cls(rows, cols, np.column_stack([pos[keep], total[keep]]))


def fingerprint(m: SparseMatrix) -> str:
    """Content hash used in reproducibility diagnostics."""
    e = m.entries[np.lexsort((m.entries[:, 1], m.entries[:, 0]))]
    h = hashlib.sha256(f"{m.rows} {m.cols}".encode())
    h.update("".join(f" {r},{c},{v}" for r, c, v in e.tolist()).encode())
    return h.hexdigest()[:16]


def _reduced_values(m: SparseMatrix, p: int) -> np.ndarray:
    """The values of m reduced mod p, in entry order; EntryVanishedError names
    the first nonzero value that p divides."""
    w = m.entries[:, 2] % p
    vanished = np.flatnonzero(w == 0)
    if vanished.size:
        r, c, v = m.entries[vanished[0]].tolist()
        raise EntryVanishedError(p, r, c, v)
    return w


def _dense_rank(a: np.ndarray, p: int) -> int:
    """In-place elimination mod p; a must already be reduced."""
    return _dense_rref(a, p)[0]


def _dense_rref(a: np.ndarray, p: int):
    """Full reduced row echelon form mod p; returns (rank, pivot column list)."""
    m, n = a.shape
    pivots = []
    rank = 0
    for col in range(n):
        if rank == m:
            break
        nz = np.nonzero(a[rank:, col])[0]
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            a[[rank, piv]] = a[[piv, rank]]
        inv = pow(int(a[rank, col]), p - 2, p)
        a[rank] = a[rank] * inv % p
        others = np.nonzero(a[:, col])[0]
        others = others[others != rank]
        if others.size:
            a[others] = (a[others] - np.outer(a[others, col], a[rank])) % p
        pivots.append(col)
        rank += 1
    return rank, pivots


def _sparse_rank(rows: int, cols: int, entries, p: int) -> int:
    """Markowitz-style elimination on dict-of-rows storage.

    Pivot choice: the shortest active row (lowest index on ties), and within
    it the column held by the fewest rows (lowest index on ties).  A lazy
    heap keyed by (row length, row index) keeps selection near O(log n) per
    step while staying fully deterministic.
    """
    import heapq

    rowdata: dict[int, dict[int, int]] = {}
    colrows: dict[int, set[int]] = {}
    for r, c, v in entries:
        rowdata.setdefault(r, {})[c] = v
        colrows.setdefault(c, set()).add(r)
    heap = [(len(cells), r) for r, cells in rowdata.items()]
    heapq.heapify(heap)
    rank = 0
    while heap:
        rn, pr = heapq.heappop(heap)
        cells = rowdata.get(pr)
        if cells is None or len(cells) != rn:
            continue  # stale heap entry
        pc = min(cells, key=lambda c: (len(colrows[c]), c))
        prow = rowdata.pop(pr)
        inv = pow(prow[pc], p - 2, p)
        prow = {c: v * inv % p for c, v in prow.items()}
        for c in prow:
            colrows[c].discard(pr)
        for r in list(colrows[pc]):
            target = rowdata[r]
            factor = target.pop(pc)
            colrows[pc].discard(r)
            for c, v in prow.items():
                if c == pc:
                    continue
                w = (target.get(c, 0) - factor * v) % p
                if w:
                    if c not in target:
                        colrows[c].add(r)
                    target[c] = w
                elif c in target:
                    del target[c]
                    colrows[c].discard(r)
            if not target:
                del rowdata[r]
            else:
                heapq.heappush(heap, (len(target), r))
        rank += 1
    return rank


def rank_mod_p(m: SparseMatrix, f: FieldSpec) -> int:
    """Exact rank of `m` over F_p by Markowitz elimination.

    Raises EntryVanishedError when a nonzero integer entry is divisible by p.
    """
    w = _reduced_values(m, f.prime)
    r, c = m.entries[:, 0].tolist(), m.entries[:, 1].tolist()
    return _sparse_rank(m.rows, m.cols, zip(r, c, w.tolist()), f.prime)


def kernel_basis_mod_p(m: SparseMatrix, f: FieldSpec) -> list[tuple[int, ...]]:
    """Basis of the right kernel of `m` over F_p, one tuple per free column.

    Pivot columns are chosen smallest-first, so the basis is deterministic;
    it is the reference for the spanning-forest kernels of `toric`.
    Every returned vector is re-checked to satisfy m @ v = 0 in the field.
    """
    p = f.prime
    rows, cols = m.entries[:, 0], m.entries[:, 1]
    w = _reduced_values(m, p)
    a = np.zeros((m.rows, m.cols), dtype=np.int64)
    a[rows, cols] = w
    rank, pivots = _dense_rref(a, p)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [0] * m.cols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-int(a[r, fc])) % p
        basis.append(tuple(v))
    for v in basis:
        acc = np.zeros(m.rows, dtype=np.int64)
        np.add.at(acc, rows, w * np.array(v, dtype=np.int64)[cols] % p)
        if (acc % p).any():
            raise ExactLinearAlgebraError(
                f"kernel self-check failed mod {p} (fingerprint {fingerprint(m)})"
            )
    assert len(basis) == m.cols - rank
    return basis


# Wrapped by perfbench (ROADMAP H removes that); the tests' references call it.
def solution_dim(m: SparseMatrix, f1: FieldSpec, f2: FieldSpec) -> int:
    """Dimension cols - rank of the solution space of m x = 0, from the ranks
    under two distinct primes, which must agree.  EntryVanishedError from
    either prime propagates: there is no fallback to the other prime alone."""
    if f1.prime == f2.prime:
        raise ValueError("solution_dim requires two distinct primes")
    r1 = rank_mod_p(m, f1)
    r2 = rank_mod_p(m, f2)
    if r1 != r2:
        raise ReproducibilityError(
            f"rank disagreement mod {f1.prime} ({r1}) vs mod {f2.prime} ({r2}); "
            f"matrix fingerprint {fingerprint(m)}"
        )
    return m.cols - r1


def rank_gf2(rows, bound: int) -> int:
    """min(rank, bound) over GF(2) of the rows, each a Python int whose bit j
    is the entry in column j mod 2.

    XOR elimination with pivot rows keyed by their highest set bit: a row is
    reduced by the pivot that owns its highest bit until it is zero or owns
    a new one.  `rows` may be a lazy iterable; no row is read once the rank
    reaches `bound`.
    """
    if bound <= 0:
        return 0
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            top = row.bit_length()
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = row
                if len(pivots) == bound:
                    return bound
                break
            row ^= pivot
    return len(pivots)


def echelon(rows, limit: int) -> tuple[tuple[int, ...], ...]:
    """The reduced echelon basis of the row space of the integer rows `rows`:
    each basis row primitive, positive at its pivot and zero at every other
    pivot, in pivot order.  It is the reduced row echelon form of the row
    space with each row scaled to a primitive integer vector, so equal row
    spaces give equal bases, and its length is the exact rank.  It stops once
    it holds `limit` rows, so its length is min(rank, limit).  Entries are
    Python ints, whose products do not wrap."""
    basis: list[list[int]] = []
    pivots: list[int] = []
    for r in rows:
        # One pass clears r at every pivot, as each basis row is zero at the
        # others' pivots.
        for p, b in zip(pivots, basis):
            y = r[p]
            if y:
                x = b[p]
                r = [x * u - y * v for u, v in zip(r, b)]
        if not any(r):
            continue
        p = next(c for c, x in enumerate(r) if x)
        g = gcd(*r) if r[p] > 0 else -gcd(*r)
        r = [x // g for x in r]
        for i, b in enumerate(basis):
            y = b[p]
            if y:
                x = r[p]
                b = [x * u - y * v for u, v in zip(b, r)]
                g = gcd(*b)
                basis[i] = [u // g for u in b]
        basis.append(r)
        pivots.append(p)
        if len(basis) == limit:
            break
    return tuple(tuple(b) for _, b in sorted(zip(pivots, basis)))


def certified_solution_dim(
    a: np.ndarray, f1: FieldSpec, f2: FieldSpec, kernel: np.ndarray | None = None
) -> tuple[int, bool]:
    """Dimension of the rational solutions of a x = 0, for an int64 array a,
    and whether it fell back to `solution_dim`.

    The upper bound on the rank is the row count or the column count, the
    latter one less when `kernel` is a nonzero integer vector with
    a @ kernel = 0, checked exactly (the caller keeps the products within
    int64).  If rank_2(a) meets it, the dimension is proven; otherwise it is
    the two-prime solution_dim.
    """
    rows, cols = a.shape
    upper = cols
    if kernel is not None and kernel.any() and not (a @ kernel).any():
        upper = cols - 1
    upper = min(rows, upper)
    packed = np.packbits(a & 1, axis=1, bitorder="little")
    if rank_gf2((int.from_bytes(row.tobytes(), "little") for row in packed), upper) == upper:
        return cols - upper, False
    return solution_dim(SparseMatrix.from_dense(a), f1, f2), True

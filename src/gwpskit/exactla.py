"""Exact linear algebra over prime fields.

Ranks and solution-space dimensions for the small dense blocks and moderate
sparse systems produced by the toric, syzygy and tangent pipelines, and
right-kernel bases as a reference for the graph-based syzygy kernels.  All
arithmetic is exact: entries are reduced modulo an odd prime p < 2**31, so
products of two reduced values stay below 2**62 and numpy int64 elimination
never overflows.  Solution dimensions are always computed under
two independent primes and must agree.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

MERSENNE_PRIME_31 = 2147483647
SECOND_PRIME = 1073741789
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


@dataclass(frozen=True)
class SparseMatrix:
    """An integer matrix in coordinate form.

    Entries are (row, col, value) with value != 0 and no duplicate positions.
    Values are arbitrary Python integers; reduction happens per field.
    """

    rows: int
    cols: int
    entries: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        seen = set()
        for r, c, v in self.entries:
            if not (0 <= r < self.rows and 0 <= c < self.cols):
                raise ValueError(f"entry position ({r}, {c}) out of range")
            if v == 0:
                raise ValueError(f"explicit zero entry at ({r}, {c})")
            if (r, c) in seen:
                raise ValueError(f"duplicate entry at ({r}, {c})")
            seen.add((r, c))

    @classmethod
    def from_dense(cls, data) -> "SparseMatrix":
        entries = []
        for r, row in enumerate(data):
            for c, v in enumerate(row):
                if v:
                    entries.append((r, c, int(v)))
        ncols = len(data[0]) if data else 0
        return cls(len(data), ncols, tuple(entries))

    @classmethod
    def from_rows(cls, rows, cols: int) -> "SparseMatrix":
        """Build from an iterable of dense coefficient rows of length `cols`."""
        entries = []
        nrows = 0
        for r, row in enumerate(rows):
            nrows += 1
            for c, v in enumerate(row):
                if v:
                    entries.append((r, c, int(v)))
        return cls(nrows, cols, tuple(entries))


def fingerprint(m: SparseMatrix) -> str:
    """Content hash used in reproducibility diagnostics."""
    h = hashlib.sha256()
    h.update(f"{m.rows} {m.cols}".encode())
    for r, c, v in sorted(m.entries):
        h.update(f" {r},{c},{v}".encode())
    return h.hexdigest()[:16]


def _reduced_entries(m: SparseMatrix, p: int):
    out = []
    for r, c, v in m.entries:
        w = v % p
        if w == 0:
            raise EntryVanishedError(p, r, c, v)
        out.append((r, c, w))
    return out


def _dense_array(rows: int, cols: int, entries, dtype=np.int64) -> np.ndarray:
    a = np.zeros((rows, cols), dtype=dtype)
    for r, c, v in entries:
        a[r, c] = v
    return a


def _dense_rank(a: np.ndarray, p: int) -> int:
    """In-place forward elimination mod p; a must already be reduced."""
    m, n = a.shape
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
        below = a[rank + 1 :, col]
        hit = np.nonzero(below)[0]
        if hit.size:
            rows = hit + rank + 1
            a[rows] = (a[rows] - np.outer(a[rows, col], a[rank])) % p
        rank += 1
    return rank


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
    """Exact rank of `m` over F_p.

    Dense elimination is used for narrow matrices (<= 256 columns), sparse
    Markowitz elimination otherwise.  Raises EntryVanishedError when a nonzero
    integer entry is divisible by p.
    """
    entries = _reduced_entries(m, f.prime)
    if m.rows == 0 or m.cols == 0:
        return 0
    if m.cols <= DENSE_COLUMN_LIMIT:
        a = _dense_array(m.rows, m.cols, entries)
        return _dense_rank(a, f.prime)
    return _sparse_rank(m.rows, m.cols, entries, f.prime)


def kernel_basis_mod_p(m: SparseMatrix, f: FieldSpec) -> list[tuple[int, ...]]:
    """Basis of the right kernel of `m` over F_p, one tuple per free column.

    Pivot columns are chosen smallest-first, so the basis is deterministic;
    it is the reference for the spanning-forest kernels of `toric`.
    Every returned vector is re-checked to satisfy m @ v = 0 in the field.
    """
    p = f.prime
    entries = _reduced_entries(m, p)
    a = _dense_array(m.rows, m.cols, entries)
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
        acc: dict[int, int] = {}
        for r, c, val in entries:
            acc[r] = (acc.get(r, 0) + val * v[c]) % p
        if any(acc.values()):
            raise ExactLinearAlgebraError(
                f"kernel self-check failed mod {p} (fingerprint {fingerprint(m)})"
            )
    assert len(basis) == m.cols - rank
    return basis


def solution_dim(m: SparseMatrix, f1: FieldSpec, f2: FieldSpec) -> int:
    """Dimension cols - rank of the solution space of m x = 0.

    Computed under both primes; the value is returned only when the two
    agree.  A nonzero entry that vanishes under either prime raises
    EntryVanishedError, which propagates: there is no fallback to the other
    prime alone.
    """
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

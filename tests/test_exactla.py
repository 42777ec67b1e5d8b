import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest
from conftest import rational_rank
from gwpskit.exactla import (
    DENSE_COLUMN_LIMIT,
    EntryVanishedError,
    FieldSpec,
    MERSENNE_PRIME_31,
    ReproducibilityError,
    SECOND_PRIME,
    SparseMatrix,
    _dense_rank,
    _sparse_rank,
    certified_solution_dim,
    default_fields,
    fingerprint,
    kernel_basis_mod_p,
    rank_gf2,
    rank_mod_p,
    solution_dim,
)

F1, F2 = default_fields()


def dense(rows):
    return SparseMatrix.from_dense(rows)


def test_field_spec_validation():
    FieldSpec(3)
    FieldSpec(MERSENNE_PRIME_31)
    FieldSpec(SECOND_PRIME)
    with pytest.raises(ValueError):
        FieldSpec(9)
    with pytest.raises(ValueError):
        FieldSpec(2)
    with pytest.raises(ValueError):
        FieldSpec(2**31 + 11)


def test_sparse_matrix_validation():
    with pytest.raises(ValueError, match="duplicate"):
        SparseMatrix(2, 2, ((0, 0, 1), (0, 0, 2)))
    with pytest.raises(ValueError, match="zero"):
        SparseMatrix(2, 2, ((0, 0, 0),))
    with pytest.raises(ValueError, match="range"):
        SparseMatrix(2, 2, ((2, 0, 1),))
    with pytest.raises(ValueError, match="range"):
        SparseMatrix(2, 2, ((0, -1, 1),))


def test_values_outside_int64_rejected():
    with pytest.raises(ValueError, match="int64"):
        SparseMatrix(1, 1, ((0, 0, 2**63),))
    with pytest.raises(ValueError, match="int64"):
        SparseMatrix.from_dense([[1, -(2**63) - 1]])
    edge = SparseMatrix(1, 2, ((0, 0, 2**63 - 1), (0, 1, -(2**63))))
    assert edge.entries.dtype == np.int64
    assert edge.entries.tolist() == [[0, 0, 2**63 - 1], [0, 1, -(2**63)]]


def test_from_dense_entries():
    rows = [[0, 2, 0], [0, 0, 0], [-1, 0, 5]]
    for data in (rows, np.array(rows)):
        m = SparseMatrix.from_dense(data)
        assert (m.rows, m.cols) == (3, 3)
        assert m.entries.dtype == np.int64
        assert m.entries.tolist() == [[0, 1, 2], [2, 0, -1], [2, 2, 5]]
    empty = SparseMatrix.from_dense([])
    assert (empty.rows, empty.cols, empty.entries.shape) == (0, 0, (0, 3))
    blank = SparseMatrix.from_dense(np.zeros((0, 5), dtype=np.int64))
    assert (blank.rows, blank.cols, blank.entries.shape) == (0, 5, (0, 3))


def test_rank_examples():
    eye = dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert rank_mod_p(eye, F1) == 3
    zero = SparseMatrix(3, 4, ())
    assert rank_mod_p(zero, F1) == 0
    ones = dense([[1, 1], [1, 1]])
    assert rank_mod_p(ones, F1) == 1


def test_kernel_examples():
    eye = dense([[1, 0], [0, 1]])
    assert kernel_basis_mod_p(eye, F1) == []
    m = dense([[1, -1]])
    assert kernel_basis_mod_p(m, F1) == [(1, 1)]
    ones = dense([[1, 1], [1, 1]])
    basis = kernel_basis_mod_p(ones, F1)
    assert len(basis) == 1
    v = basis[0]
    assert (v[0] + v[1]) % F1.prime == 0


def test_solution_dim_examples():
    empty = SparseMatrix(0, 5, ())
    assert solution_dim(empty, F1, F2) == 5
    eye = dense([[1, 0], [0, 1]])
    assert solution_dim(eye, F1, F2) == 0


def test_solution_dim_rejects_equal_primes():
    with pytest.raises(ValueError):
        solution_dim(dense([[1]]), F1, F1)


def test_entry_vanish_detection():
    m = dense([[3, 1], [0, 1]])
    with pytest.raises(EntryVanishedError):
        rank_mod_p(m, FieldSpec(3))
    assert rank_mod_p(m, F1) == 2


def test_solution_dim_propagates_vanished_entry():
    with pytest.raises(EntryVanishedError):
        solution_dim(dense([[SECOND_PRIME, 1]]), F1, F2)


def test_two_prime_disagreement_raises():
    p = F1.prime
    m = dense([[1, 1], [1, 1 + p]])
    with pytest.raises(ReproducibilityError, match="fingerprint"):
        solution_dim(m, F1, F2)


@settings(max_examples=60, deadline=None)
@given(
    triples=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=4),
            st.integers(min_value=-2, max_value=2),
        ),
        max_size=25,
    )
)
def test_summed_matches_dict_accumulation(triples):
    """SparseMatrix.summed against the row-dict builder it replaced: sums per
    position, zero sums dropped, entries row by row and column by column."""
    rows: dict[int, dict[int, int]] = {}
    for r, c, v in triples:
        rows.setdefault(r, {})[c] = rows.get(r, {}).get(c, 0) + v
    expected = [[r, c, v] for r in sorted(rows) for c, v in sorted(rows[r].items()) if v]
    m = SparseMatrix.summed(4, 5, *([t[i] for t in triples] for i in range(3)))
    assert m.entries.tolist() == expected
    assert (m.rows, m.cols) == (4, 5)


def test_summed_validates_positions():
    with pytest.raises(ValueError, match="range"):
        SparseMatrix.summed(2, 2, [0], [2], [1])


def test_solution_dim_from_dense_examples():
    assert solution_dim(dense(np.zeros((0, 5), dtype=np.int64)), F1, F2) == 5
    assert solution_dim(dense(np.eye(2, dtype=np.int64)), F1, F2) == 0
    assert solution_dim(dense(np.array([[2, -4], [-1, 2]])), F1, F2) == 1
    # wider than DENSE_COLUMN_LIMIT
    n = DENSE_COLUMN_LIMIT + 44
    wide = np.vstack([np.eye(n, dtype=np.int64)[1:], np.eye(n, dtype=np.int64)[:1] * 2])
    assert solution_dim(dense(wide), F1, F2) == 0
    assert solution_dim(dense(wide[1:]), F1, F2) == 1


def test_solution_dim_two_prime_protocol():
    with pytest.raises(ValueError):
        solution_dim(dense(np.eye(1, dtype=np.int64)), F1, F1)
    with pytest.raises(EntryVanishedError) as err:
        solution_dim(dense(np.array([[1, 0], [SECOND_PRIME, 1]])), F1, F2)
    assert (err.value.prime, err.value.row, err.value.col) == (SECOND_PRIME, 1, 0)
    rows = [[1, 1], [1, 1 + F1.prime]]
    with pytest.raises(ReproducibilityError, match=fingerprint(dense(rows))):
        solution_dim(dense(np.array(rows, dtype=np.int64)), F1, F2)
    # the fingerprint hashes the entries, not the order they are listed in
    reordered = SparseMatrix(2, 2, dense(rows).entries[::-1])
    with pytest.raises(ReproducibilityError, match=fingerprint(dense(rows))):
        solution_dim(reordered, F1, F2)


def test_sparse_path_used_for_wide_matrices():
    n = DENSE_COLUMN_LIMIT + 44
    eye = SparseMatrix(n, n, tuple((i, i, 1) for i in range(n)))
    assert rank_mod_p(eye, F1) == n
    # same wide shape with a dependent row appended
    entries = list((i, i, 1) for i in range(n)) + [(n, 0, 2), (n, 1, 3)]
    m = SparseMatrix(n + 1, n, tuple(entries))
    assert rank_mod_p(m, F1) == n


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(
        st.lists(st.integers(min_value=-1, max_value=1), min_size=5, max_size=5),
        min_size=1,
        max_size=7,
    )
)
def test_rank_matches_rational_oracle(rows):
    m = SparseMatrix.from_dense(rows)
    assert rank_mod_p(m, F1) == rational_rank(rows)
    assert solution_dim(m, F1, F2) == 5 - rational_rank(rows)


def _eliminations_agree(rows):
    """_sparse_rank and _dense_rank under both default primes, and the
    rational oracle, give one rank; returns it."""
    m = SparseMatrix.from_dense(rows)
    expected = rational_rank(rows)
    for p in (F1.prime, F2.prime):
        entries = ((r, c, v % p) for r, c, v in m.entries.tolist())
        assert _sparse_rank(m.rows, m.cols, entries, p) == expected
        assert _dense_rank(np.array(rows, dtype=np.int64) % p, p) == expected
    return expected


# Entries of size <= 3 in at most 8 columns: every minor is below 10**8 by
# Hadamard's bound, so no default prime divides one and the ranks mod p are
# the rational rank.
@settings(max_examples=80, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=8).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-3, max_value=3), min_size=n, max_size=n),
            min_size=1,
            max_size=8,
        )
    )
)
def test_sparse_and_dense_eliminations_match_rational_oracle(rows):
    _eliminations_agree(rows)


def test_eliminations_agree_on_a_wide_matrix():
    rng = np.random.default_rng(7)
    a = rng.integers(-2, 3, size=(12, DENSE_COLUMN_LIMIT + 44))
    a = np.vstack([a, a[0] - 2 * a[5], np.zeros_like(a[0])])
    assert _eliminations_agree(a.tolist()) == 12
    assert _eliminations_agree(a.T.tolist()) == 12


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=4, max_size=4),
        min_size=2,
        max_size=6,
    ),
    seed=st.randoms(use_true_random=False),
)
def test_rank_invariant_under_permutations(rows, seed):
    base = rank_mod_p(SparseMatrix.from_dense(rows), F1)
    perm_rows = rows[:]
    seed.shuffle(perm_rows)
    cols = list(range(4))
    seed.shuffle(cols)
    permuted = [[row[c] for c in cols] for row in perm_rows]
    assert rank_mod_p(SparseMatrix.from_dense(permuted), F1) == base


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(
        st.lists(st.integers(min_value=-2, max_value=2), min_size=6, max_size=6),
        min_size=1,
        max_size=6,
    )
)
def test_kernel_vectors_annihilate(rows):
    m = SparseMatrix.from_dense(rows)
    basis = kernel_basis_mod_p(m, F1)
    assert len(basis) == 6 - rank_mod_p(m, F1)
    for v in basis:
        for row in rows:
            assert sum(a * b for a, b in zip(row, v)) % F1.prime == 0


def gf2_rows(rows):
    """Each row mod 2 as a bitset, bit j for column j."""
    return [sum(1 << j for j, v in enumerate(row) if v % 2) for row in rows]


def gf2_rank(rows) -> int:
    """Rank mod 2 by Gauss-Jordan elimination on lists of 0/1 entries."""
    mat = [[v % 2 for v in row] for row in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                mat[r] = [a ^ b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


@settings(max_examples=80, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=7).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-3, max_value=3), min_size=n, max_size=n),
            min_size=1,
            max_size=8,
        )
    ),
    bound=st.integers(min_value=0, max_value=8),
)
def test_rank_gf2_is_a_lower_bound(rows, bound):
    rank = rank_gf2(gf2_rows(rows), len(rows[0]))
    assert rank == gf2_rank(rows)
    assert rank <= rational_rank(rows)
    assert rank_gf2(gf2_rows(rows), bound) == min(rank, bound)


def test_rank_gf2_reads_no_row_past_the_bound():
    rows = iter([0b01, 0b10, 0b11, 0b100])
    assert rank_gf2(rows, 2) == 2
    assert list(rows) == [0b11, 0b100]


def test_two_torsion_takes_the_fallback():
    a = np.array([[1, 1], [1, -1]], dtype=np.int64)
    assert rank_gf2(gf2_rows(a.tolist()), 2) == 1
    assert rational_rank(a.tolist()) == 2
    assert certified_solution_dim(a, F1, F2) == (0, True)
    assert certified_solution_dim(a, F1, F2, kernel=np.array([1, 1])) == (0, True)


def test_certified_solution_dim_bounds():
    assert certified_solution_dim(np.eye(3, dtype=np.int64), F1, F2) == (0, False)
    assert certified_solution_dim(np.zeros((0, 4), dtype=np.int64), F1, F2) == (4, False)
    a = np.array([[1, 1, 0], [2, 2, 0], [0, 0, 3]], dtype=np.int64)
    assert certified_solution_dim(a, F1, F2, kernel=np.array([1, -1, 0])) == (1, False)
    assert certified_solution_dim(a, F1, F2, kernel=np.array([1, 1, 0])) == (1, True)
    assert certified_solution_dim(a, F1, F2, kernel=np.array([0, 0, 0])) == (1, True)
    assert certified_solution_dim(a, F1, F2) == (1, True)


def test_flipped_derivation_component_is_rejected(pipeline_2334):
    """A derivation proves dimension 1 for a block whose GF(2) rank is one
    short of its columns; changing one component whose column meets a
    constraint makes it no kernel vector, so the block falls back to two
    primes, with the same dimension."""
    from gwpskit.tangent import build_block

    ideal, syz = pipeline_2334["ideal"], pipeline_2334["syzygies"]
    by_shift = pipeline_2334["hom"].by_shift
    flipped = 0
    for d in pipeline_2334["hom"].derivations:
        a = build_block(ideal, syz, d.shift).constraints
        vec = np.array([c for _, c in d.components], dtype=np.int64)
        dim, fell_back = certified_solution_dim(a, F1, F2, kernel=vec)
        assert dim == by_shift[d.shift]
        if fell_back:  # a second solution beside the derivation
            assert dim > 1
            continue
        assert dim == 1
        for j in np.flatnonzero(a.any(axis=0)):
            bad = vec.copy()
            bad[j] = -bad[j] if bad[j] else 1
            assert certified_solution_dim(a, F1, F2, kernel=bad) == (1, True)
            flipped += 1
    assert flipped > 0


def test_span_rank_above_kernel_dimension_raises(pipeline_2334, monkeypatch):
    """A component step that misses a component puts E - V + c of its block
    below the GF(2) rank of the block's span: the span route raises and
    names the block."""
    roots = conftest._component_roots

    def understated(a, b, nv):
        mask = roots(a, b, nv)
        mask[np.argmax(mask)] = False
        return mask

    monkeypatch.setattr(conftest, "_component_roots", understated)
    with pytest.raises(AssertionError, match=r"above the kernel dimension .* at multidegree \("):
        conftest.span_quartic_check(pipeline_2334["ideal"], pipeline_2334["syzygies"])

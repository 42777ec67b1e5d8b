import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rational_rank
from gwpskit.exactla import (
    DENSE_COLUMN_LIMIT,
    EntryVanishedError,
    FieldSpec,
    MERSENNE_PRIME_31,
    ReproducibilityError,
    SECOND_PRIME,
    SparseMatrix,
    array_solution_dim,
    default_fields,
    fingerprint,
    kernel_basis_mod_p,
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


def test_array_solution_dim_examples():
    assert array_solution_dim(np.zeros((0, 5), dtype=np.int64), F1, F2) == 5
    assert array_solution_dim(np.eye(2, dtype=np.int64), F1, F2) == 0
    assert array_solution_dim(np.array([[2, -4], [-1, 2]]), F1, F2) == 1
    # wider than DENSE_COLUMN_LIMIT, still solved densely
    n = DENSE_COLUMN_LIMIT + 44
    wide = np.vstack([np.eye(n, dtype=np.int64)[1:], np.eye(n, dtype=np.int64)[:1] * 2])
    assert array_solution_dim(wide, F1, F2) == 0
    assert array_solution_dim(wide[1:], F1, F2) == 1


def test_array_solution_dim_shares_the_two_prime_protocol():
    with pytest.raises(ValueError):
        array_solution_dim(np.eye(1, dtype=np.int64), F1, F1)
    with pytest.raises(EntryVanishedError) as err:
        array_solution_dim(np.array([[1, 0], [SECOND_PRIME, 1]]), F1, F2)
    assert (err.value.prime, err.value.row, err.value.col) == (SECOND_PRIME, 1, 0)
    rows = [[1, 1], [1, 1 + F1.prime]]
    with pytest.raises(ReproducibilityError, match=fingerprint(dense(rows))):
        array_solution_dim(np.array(rows, dtype=np.int64), F1, F2)
    with pytest.raises(ReproducibilityError, match=fingerprint(dense(rows))):
        solution_dim(dense(rows), F1, F2)


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
    assert array_solution_dim(np.array(rows, dtype=np.int64), F1, F2) == 5 - rational_rank(rows)


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

"""Walsh matrix construction and the Hadamard identity."""

import pytest

from minkgeom import is_hadamard, walsh_matrix
from minkgeom.errors import SizeLimitExceeded
from minkgeom.walsh import WALSH_MAX_K


def test_order_one():
    assert walsh_matrix(1) == ((1, 1), (1, -1))


def test_order_two():
    assert walsh_matrix(2) == (
        (1, 1, 1, 1),
        (1, -1, 1, -1),
        (1, 1, -1, -1),
        (1, -1, -1, 1),
    )


def test_block_doubling_structure():
    # M(k+1) = [[M, M], [M, -M]] in block form.
    for k in (1, 2, 3):
        m = walsh_matrix(k)
        big = walsh_matrix(k + 1)
        n = len(m)
        for i in range(n):
            for j in range(n):
                assert big[i][j] == m[i][j]
                assert big[i][j + n] == m[i][j]
                assert big[i + n][j] == m[i][j]
                assert big[i + n][j + n] == -m[i][j]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_hadamard_identity(k):
    m = walsh_matrix(k)
    n = len(m)
    prod = tuple(tuple(sum(a * b for a, b in zip(r, s)) for s in m) for r in m)
    expected = tuple(tuple(n if i == j else 0 for j in range(n)) for i in range(n))
    assert prod == expected
    assert is_hadamard(m)


def test_entries_are_signs():
    for row in walsh_matrix(3):
        assert all(x in (1, -1) for x in row)


def test_first_row_and_column_all_ones():
    m = walsh_matrix(3)
    assert all(x == 1 for x in m[0])
    assert all(row[0] == 1 for row in m)


def test_rows_pairwise_orthogonal():
    m = walsh_matrix(3)
    for i in range(len(m)):
        for j in range(i + 1, len(m)):
            assert sum(a * b for a, b in zip(m[i], m[j])) == 0


def test_k_zero_rejected():
    with pytest.raises(ValueError):
        walsh_matrix(0)


def test_size_gate():
    with pytest.raises(SizeLimitExceeded):
        walsh_matrix(WALSH_MAX_K + 1)


def test_is_hadamard_rejects_nonsquare():
    with pytest.raises(ValueError):
        is_hadamard(((1, 1),))


def test_is_hadamard_rejects_nonsign_entries():
    with pytest.raises(ValueError):
        is_hadamard(((1, 2), (2, 1)))


def test_is_hadamard_false_for_sign_matrix_without_identity():
    assert not is_hadamard(((1, 1), (1, 1)))

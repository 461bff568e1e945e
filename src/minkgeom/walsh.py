"""Walsh matrices of order 2^k and the Hadamard identity check."""

from __future__ import annotations

from .errors import SizeLimitExceeded
from .qlinalg import dot

WALSH_MAX_K = 10


def walsh_matrix(k: int):
    """The order-2^k Walsh matrix as a tuple of integer row tuples.

    Built by the block doubling rule: start from [[1, 1], [1, -1]] and map
    H to [[H, H], [H, -H]] k - 1 times.  Entries are +1/-1.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > WALSH_MAX_K:
        raise SizeLimitExceeded(f"k = {k} exceeds the limit {WALSH_MAX_K}")
    rows = [[1, 1], [1, -1]]
    for _ in range(k - 1):
        rows = [row + row for row in rows] + [row + [-x for x in row] for row in rows]
    return tuple(tuple(row) for row in rows)


def is_hadamard(mat) -> bool:
    """True iff mat is square with +-1 entries and mat * mat^T = n * I."""
    n = len(mat)
    if n == 0:
        raise ValueError("empty matrix")
    for row in mat:
        if len(row) != n:
            raise ValueError("matrix is not square")
        for x in row:
            if x != 1 and x != -1:
                raise ValueError(f"entry {x!r} is not +1 or -1")
    for i in range(n):
        for j in range(i, n):
            d = dot(mat[i], mat[j])
            if d != (n if i == j else 0):
                return False
    return True

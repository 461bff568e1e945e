"""Exact linear algebra over Fraction, kept apart from the library's own.

The checker recomputes answers with these routines so that a bug in
minkgeom's elimination or LP code cannot also hide in the reference.
"""

from fractions import Fraction


def rank(rows):
    """Rank of a matrix given as a list of rows."""
    m = [[Fraction(x) for x in row] for row in rows]
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            f = m[i][c] / m[r][c]
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def affine_rank(points):
    base = points[0]
    diffs = [[a - b for a, b in zip(p, base)] for p in points[1:]]
    return rank(diffs) if diffs else 0


def solve(mat, rhs):
    """Solution of the square system mat * x = rhs, or None if singular."""
    n = len(mat)
    m = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(mat, rhs)]
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c]), None)
        if piv is None:
            return None
        m[c], m[piv] = m[piv], m[c]
        lead = m[c][c]
        m[c] = [x / lead for x in m[c]]
        for i in range(n):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return [m[i][n] for i in range(n)]


def inverse(mat):
    """Inverse of a square matrix, or None if singular."""
    n = len(mat)
    cols = []
    for k in range(n):
        col = solve(mat, [1 if i == k else 0 for i in range(n)])
        if col is None:
            return None
        cols.append(col)
    return [[cols[k][i] for k in range(n)] for i in range(n)]


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def null_vector(rows, ncols):
    """One nonzero x with rows * x = 0, or None if the columns are independent."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        lead = m[r][c]
        m[r] = [x / lead for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    free = next((c for c in range(ncols) if c not in pivots), None)
    if free is None:
        return None
    x = [Fraction(0)] * ncols
    x[free] = Fraction(1)
    for i, c in enumerate(pivots):
        x[c] = -m[i][free]
    return x

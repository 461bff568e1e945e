"""Exact rational scalars, vectors and matrices.

Scalars are plain ints or fractions.Fraction; Python lets the two mix freely
in arithmetic, comparison and hashing, and Fraction keeps itself in lowest
terms with a positive denominator, so every value produced here is canonical
by construction.  Vectors are tuples of scalars, matrices tuples of row
tuples.  No floats are accepted anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DimensionMismatch


def parse_rat(value):
    """Convert int / Fraction / 'p' / 'p/q' to a canonical rational.

    Floats are rejected: silently accepting one would smuggle rounding error
    into an exact pipeline.
    """
    if isinstance(value, bool):
        raise ValueError("booleans are not rationals")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    if isinstance(value, float):
        raise ValueError(
            "floats are not accepted; pass an int or a 'p/q' string"
        )
    if isinstance(value, str):
        text = value.strip()
        try:
            if "/" in text:
                num, den = text.split("/")
                frac = Fraction(int(num), int(den))
            else:
                return int(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational: {value!r}") from exc
        return int(frac) if frac.denominator == 1 else frac
    raise ValueError(f"not a rational: {value!r}")


def fmt_rat(value) -> str:
    """Render a rational as 'p' or 'p/q' with q > 0."""
    return str(value)


def parse_vec(values):
    return tuple(parse_rat(v) for v in values)


def fmt_vec(vec):
    return tuple(fmt_rat(x) for x in vec)


def exact_div(a, b):
    """Exact division that never produces a float (int/int stays rational)."""
    if isinstance(a, int) and isinstance(b, int):
        f = Fraction(a, b)
        return int(f) if f.denominator == 1 else f
    return a / b


def dot(u, v):
    if len(u) != len(v):
        raise DimensionMismatch(f"dot of lengths {len(u)} and {len(v)}")
    return sum(a * b for a, b in zip(u, v))


def vsub(u, v):
    if len(u) != len(v):
        raise DimensionMismatch(f"sub of lengths {len(u)} and {len(v)}")
    return tuple(a - b for a, b in zip(u, v))


def vneg(u):
    return tuple(-a for a in u)


def vscale(t, u):
    return tuple(t * a for a in u)


def unit_vec(dim, index):
    if not 0 <= index < dim:
        raise DimensionMismatch(f"unit vector index {index} out of range for dim {dim}")
    return tuple(1 if i == index else 0 for i in range(dim))


def _forward_eliminate(rows):
    """Row-reduce in place (list of lists); returns list of pivot column indices."""
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        piv = rows[r][c]
        if piv != 1:
            rows[r] = [exact_div(x, piv) for x in rows[r]]
        lead = rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], lead)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def gauss_rank(mat) -> int:
    rows = [list(row) for row in mat]
    return len(_forward_eliminate(rows))


def affine_rank(points) -> int:
    """Dimension of the affine hull of the given points (0 for a single point)."""
    pts = list(points)
    if not pts:
        raise DimensionMismatch("affine rank of an empty point set")
    base = pts[0]
    diffs = [vsub(p, base) for p in pts[1:]]
    if not diffs:
        return 0
    return gauss_rank(diffs)


def solve_square(mat, rhs):
    """Solve the square system mat * x = rhs exactly; None if singular."""
    n = len(mat)
    if n == 0:
        return ()
    if any(len(row) != n for row in mat) or len(rhs) != n:
        raise DimensionMismatch("solve_square expects an n x n system")
    rows = [list(row) + [b] for row, b in zip(mat, rhs)]
    pivots = _forward_eliminate(rows)
    if pivots != list(range(n)):
        return None
    return tuple(rows[i][n] for i in range(n))


def kernel_vector(mat, ncols=None):
    """One nonzero vector in the kernel of mat, or None if the columns are independent.

    Deterministic: the free variable chosen is the lowest-index non-pivot column.
    """
    rows = [list(row) for row in mat]
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    if not rows:
        if ncols == 0:
            return None
        return unit_vec(ncols, 0)
    pivots = _forward_eliminate(rows)
    pivot_set = set(pivots)
    free = next((c for c in range(ncols) if c not in pivot_set), None)
    if free is None:
        return None
    out = [0] * ncols
    out[free] = 1
    for r, c in enumerate(pivots):
        out[c] = -rows[r][free]
    return tuple(out)


def primitive_normal(vec):
    """Scale a nonzero rational vector to coprime integers.

    Returns (integer_vector, scale) with scale > 0 rational and
    integer_vector == scale * vec.  The sign is preserved; orientation is the
    caller's concern.
    """
    if not any(vec):
        raise DimensionMismatch("cannot normalize the zero vector")
    denom_lcm = 1
    for x in vec:
        d = x.denominator if isinstance(x, Fraction) else 1
        denom_lcm = math.lcm(denom_lcm, d)
    ints = [int(x * denom_lcm) for x in vec]
    g = math.gcd(*ints)
    scale = Fraction(denom_lcm, g)
    result = tuple(v // g for v in ints)
    return result, (int(scale) if scale.denominator == 1 else scale)

"""Exact rational scalars, vectors and matrices.

Scalars are plain ints or fractions.Fraction; Python lets the two mix freely
in arithmetic, comparison and hashing, and Fraction keeps itself in lowest
terms with a positive denominator, so every value produced here is canonical
by construction.  Vectors are tuples of scalars, matrices tuples of row
tuples.  No floats are accepted anywhere.

All elimination runs on one fraction-free Gauss-Jordan kernel, _pivot_step:
integer rows over one common denominator, with exact integer division by the
previous pivot.  gauss_rank and solve_square scale each row to integers and
call it column by column through _forward_eliminate; the simplex tableau of lp
calls it once per pivot; polytope runs _forward_eliminate for the affine basis
of hull_facets and, on the rows (p, 1 | e_k), for the facets of a simplex.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

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


def check_rational_types(types, what):
    """Raise ValueError unless every type in the set is int or Fraction (bool is not)."""
    bad = sorted(t.__name__ for t in types - {int, Fraction} if not issubclass(t, Fraction))
    if bad:
        raise ValueError(
            f"{what} must be int or Fraction, not {', '.join(bad)}; floats are not accepted"
        )


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
    return sum(map(mul, u, v))


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


def _integer_row(row):
    """(ints, lcm): the row times the positive lcm of its denominators, in ints."""
    lcm = 1
    for x in row:
        if x.denominator != 1:
            lcm = math.lcm(lcm, x.denominator)
    return [x.numerator * (lcm // x.denominator) for x in row], lcm


def _pivot_step(rows, r, c, den):
    """One fraction-free Gauss-Jordan step in place; returns the new denominator.

    rows are integer rows over the common denominator den > 0.  Row r is
    negated if its entry in column c is negative, which leaves the reduced
    rows the same; with y = rows[r] and p = y[c] > 0, every other row becomes
    (x * p - f * y) // den, f being the row's entry in column c, so p is the
    new common denominator and column c is p times a unit vector.  The
    division is exact: every entry stays a minor of the starting integer
    matrix, up to sign (Edmonds 1967; Bareiss 1968).
    """
    lead = rows[r]
    p = lead[c]
    if p < 0:
        rows[r] = lead = [-y for y in lead]
        p = -p
    for i, row in enumerate(rows):
        if i != r:
            f = row[c]
            if f:
                rows[i] = [(x * p - f * y) // den for x, y in zip(row, lead)]
            elif p != den:
                rows[i] = [x * p // den for x in row]
    return p


def _forward_eliminate(mat):
    """Fraction-free Gauss-Jordan elimination of mat; returns (rows, pivot columns, den).

    Each row is first scaled to integers.  Afterwards rows / den is the
    reduced row echelon form, den > 0: row k has den in the k-th pivot column.
    """
    rows = [_integer_row(row)[0] for row in mat]
    pivots = []
    den = 1
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        r = len(pivots)
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        den = _pivot_step(rows, r, c, den)
        pivots.append(c)
        if len(pivots) == len(rows):
            break
    return rows, pivots, den


def gauss_rank(mat) -> int:
    return len(_forward_eliminate(mat)[1])


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
    rows, pivots, den = _forward_eliminate([list(row) + [b] for row, b in zip(mat, rhs)])
    if pivots != list(range(n)):
        return None
    return tuple(exact_div(rows[i][n], den) for i in range(n))


def primitive_normal(vec):
    """Scale a nonzero rational vector to coprime integers.

    Returns (integer_vector, scale) with scale > 0 rational and
    integer_vector == scale * vec.  The sign is preserved; orientation is the
    caller's concern.
    """
    if not any(vec):
        raise DimensionMismatch("cannot normalize the zero vector")
    ints, denom_lcm = _integer_row(vec)
    g = math.gcd(*ints)
    scale = Fraction(denom_lcm, g)
    result = tuple(v // g for v in ints)
    return result, (int(scale) if scale.denominator == 1 else scale)

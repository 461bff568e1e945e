"""Convex polytopes with exact rational coordinates.

Two representations: VPolytope (a list of points whose convex hull is the
body) and HPolytope (an intersection of halfspaces a . x <= b with primitive
integer normals).  Conversions are explicit and exact: simplex_hrep for
simplices, hull_facets as the gated small-dimension facet enumeration for
anything else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import (
    DegenerateBody,
    DimensionMismatch,
    EmptyIntersection,
    SizeLimitExceeded,
    UnboundedRegion,
)
from .lp import OPTIMAL, UNBOUNDED, LpProblem, lp_max, lp_max_assume_bounded
from .qlinalg import (
    affine_rank,
    dot,
    exact_div,
    fmt_rat,
    fmt_vec,
    kernel_vector,
    parse_rat,
    parse_vec,
    primitive_normal,
    vneg,
    vsub,
)

HULL_MAX_DIM = 8


@dataclass(frozen=True)
class VPolytope:
    dim: int
    vertices: tuple

    def __post_init__(self):
        if not isinstance(self.dim, int) or self.dim < 1:
            raise DimensionMismatch(f"dim must be a positive int, got {self.dim!r}")
        verts = tuple(tuple(v) for v in self.vertices)
        if not verts:
            raise DegenerateBody("a polytope needs at least one point")
        for v in verts:
            if len(v) != self.dim:
                raise DimensionMismatch(
                    f"point of length {len(v)} in dimension {self.dim}"
                )
        if len(set(verts)) != len(verts):
            raise DegenerateBody("duplicate points")
        object.__setattr__(self, "vertices", verts)


@dataclass(frozen=True)
class Halfspace:
    """The constraint normal . x <= rhs, normal in coprime integers."""

    normal: tuple
    rhs: object

    def __post_init__(self):
        normal = tuple(self.normal)
        for x in normal:
            if not isinstance(x, int) or isinstance(x, bool):
                raise DimensionMismatch("halfspace normals must have integer entries")
        if not any(normal):
            raise DimensionMismatch("halfspace normal must be nonzero")
        if math.gcd(*(abs(x) for x in normal)) != 1:
            raise DimensionMismatch("halfspace normal must be primitive (gcd 1)")
        if not isinstance(self.rhs, (int, Fraction)) or isinstance(self.rhs, bool):
            raise DimensionMismatch("halfspace rhs must be rational")
        object.__setattr__(self, "normal", normal)


def halfspace(normal, rhs) -> Halfspace:
    """Canonicalize a rational inequality normal . x <= rhs to primitive form."""
    ints, scale = primitive_normal(tuple(normal))
    return Halfspace(ints, rhs * scale)


@dataclass(frozen=True)
class HPolytope:
    dim: int
    facets: tuple

    def __post_init__(self):
        if not isinstance(self.dim, int) or self.dim < 1:
            raise DimensionMismatch(f"dim must be a positive int, got {self.dim!r}")
        facets = tuple(self.facets)
        for f in facets:
            if len(f.normal) != self.dim:
                raise DimensionMismatch(
                    f"facet normal of length {len(f.normal)} in dimension {self.dim}"
                )
        object.__setattr__(self, "facets", facets)


def support(P: VPolytope, u):
    """max over the points of u . v (the support function of the hull)."""
    if len(u) != P.dim:
        raise DimensionMismatch(f"direction of length {len(u)} in dimension {P.dim}")
    return max(dot(u, v) for v in P.vertices)


def is_simplex(P: VPolytope) -> bool:
    return len(P.vertices) == P.dim + 1 and affine_rank(P.vertices) == P.dim


def simplex_hrep(P: VPolytope) -> HPolytope:
    """Facets of a simplex; facet k is the one opposite vertex k."""
    d = P.dim
    if len(P.vertices) != d + 1:
        raise DegenerateBody(
            f"a simplex in dimension {d} has {d + 1} vertices, got {len(P.vertices)}"
        )
    if affine_rank(P.vertices) != d:
        raise DegenerateBody("vertices are affinely dependent")
    facets = []
    for k in range(d + 1):
        rows = [list(v) + [-1] for i, v in enumerate(P.vertices) if i != k]
        kv = kernel_vector(rows, d + 1)
        if kv is None:
            raise DegenerateBody("facet hyperplane is not unique")
        a, beta = kv[:d], kv[d]
        val = dot(a, P.vertices[k])
        if val == beta:
            raise DegenerateBody("opposite vertex lies on the facet hyperplane")
        if val > beta:
            a, beta = vneg(a), -beta
        ints, scale = primitive_normal(a)
        facets.append(Halfspace(ints, beta * scale))
    return HPolytope(d, tuple(facets))


def contains(H: HPolytope, x) -> bool:
    if len(x) != H.dim:
        raise DimensionMismatch(f"point of length {len(x)} in dimension {H.dim}")
    return all(dot(f.normal, x) <= f.rhs for f in H.facets)


def is_subset(P, Q: HPolytope) -> bool:
    """Decide P ⊆ Q exactly.

    V-representation P: check every point against every facet.
    H-representation P: one support LP per facet of Q; an unbounded P raises
    UnboundedRegion carrying the certified recession ray.  An empty P is a
    subset of anything.
    """
    if P.dim != Q.dim:
        raise DimensionMismatch(f"dimensions {P.dim} and {Q.dim}")
    if isinstance(P, VPolytope):
        return all(contains(Q, v) for v in P.vertices)
    cons = tuple((f.normal, f.rhs) for f in P.facets)
    for f in Q.facets:
        out = lp_max(LpProblem(f.normal, cons))
        if out.status == UNBOUNDED:
            raise UnboundedRegion("the H-polyhedron is unbounded", ray=out.ray)
        if out.status == OPTIMAL and out.optimum > f.rhs:
            return False
    return True


def cut_polytope(P: VPolytope, h: Halfspace) -> VPolytope:
    """Vertices of P ∩ {h}.

    Kept vertices stay in order, then the crossing point of each segment from
    a strictly cut vertex to a strictly kept one, in (cut index, kept index)
    order; vertices on the boundary hyperplane are kept as they are.  For a
    simplex these segments are edges and the points are exactly the vertices;
    otherwise they are filtered by extreme_points.  A cut that removes nothing
    returns P itself.
    """
    d = P.dim
    if len(h.normal) != d:
        raise DimensionMismatch(f"cut normal of length {len(h.normal)} in dimension {d}")
    vals = [dot(h.normal, v) - h.rhs for v in P.vertices]
    kept = [v for v, val in zip(P.vertices, vals) if val <= 0]
    if not kept:
        raise EmptyIntersection("the cut removes every vertex")
    if len(kept) == len(P.vertices):
        return P
    pts = dict.fromkeys(kept)
    for vi, a in zip(P.vertices, vals):
        if a > 0:
            for vj, b in zip(P.vertices, vals):
                if b < 0:
                    t = exact_div(a, a - b)
                    pts.setdefault(tuple(x + t * (y - x) for x, y in zip(vi, vj)))
    if is_simplex(P):
        return VPolytope(d, tuple(pts))
    return VPolytope(d, extreme_points(pts, d))


def difference_body(P: VPolytope) -> VPolytope:
    """Point set {v_i - v_j : i != j} plus the origin, duplicates removed."""
    pts = {}
    for i, vi in enumerate(P.vertices):
        for j, vj in enumerate(P.vertices):
            if i != j:
                pts.setdefault(vsub(vi, vj), None)
    pts.setdefault((0,) * P.dim, None)
    return VPolytope(P.dim, tuple(pts))


def _int_det(mat):
    """Determinant of a square integer matrix by Bareiss elimination (destructive)."""
    n = len(mat)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if mat[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if mat[i][k] != 0), None)
            if swap is None:
                return 0
            mat[k], mat[swap] = mat[swap], mat[k]
            sign = -sign
        pivot = mat[k][k]
        for i in range(k + 1, n):
            row_i, lead = mat[i], mat[k]
            factor = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - factor * lead[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * mat[n - 1][n - 1]


def _int_hyperplane(rows, dim):
    """(normal, rhs) of the hyperplane through dim integer points, all zero if dependent.

    rows are the points extended by a trailing 1; the coefficients come from
    cofactor expansion of det([[x, 1], rows]) along its first row, which stays
    in integer arithmetic throughout.
    """
    coefs = []
    sign = 1
    for j in range(dim + 1):
        minor = [[row[c] for c in range(dim + 1) if c != j] for row in rows]
        coefs.append(sign * _int_det(minor))
        sign = -sign
    return tuple(coefs[:dim]), -coefs[dim]


def hull_facets(points, dim=None, limit=HULL_MAX_DIM) -> HPolytope:
    """Irredundant facets of conv(points), by exact hyperplane enumeration.

    Every dim-subset of the deduplicated points that spans a hyperplane with
    all points on one side contributes a candidate; candidates whose tight
    point set fails to affinely span the hyperplane are supporting but not
    facets and are dropped.  Exponential in dim, hence the gate.

    Rational coordinates are cleared to integers once up front so the inner
    loop runs entirely on machine integers.
    """
    pts = tuple(dict.fromkeys(tuple(p) for p in points))
    if not pts:
        raise DegenerateBody("no points")
    if dim is None:
        dim = len(pts[0])
    if dim > limit:
        raise SizeLimitExceeded(f"facet enumeration gated to dim <= {limit}, got {dim}")
    rank = affine_rank(pts)
    if rank != dim:
        raise DegenerateBody(
            f"points span an affine subspace of dimension {rank} < {dim}"
        )
    scale = 1
    for p in pts:
        for x in p:
            if isinstance(x, Fraction):
                scale = math.lcm(scale, x.denominator)
    ipts = [tuple(int(x * scale) for x in p) for p in pts]
    rows_ext = [list(p) + [1] for p in ipts]
    found = {}
    seen = set()
    for combo in combinations(range(len(ipts)), dim):
        a, beta = _int_hyperplane([rows_ext[i] for i in combo], dim)
        if not any(a):
            continue
        g = math.gcd(*a)
        a = tuple(x // g for x in a)
        beta, rem = divmod(beta, g)
        if rem:
            # beta/g is not integral; key on the exact rational value.
            beta = Fraction(beta * g + rem, g)
        if (a, beta) in seen:
            continue
        seen.add((a, beta))
        seen.add((vneg(a), -beta))
        hi = lo = False
        for p in ipts:
            val = dot(a, p)
            if val > beta:
                hi = True
                if lo:
                    break
            elif val < beta:
                lo = True
                if hi:
                    break
        if hi and lo:
            continue
        if hi:
            a, beta = vneg(a), -beta
        tight = [pts[i] for i, p in enumerate(ipts) if dot(a, p) == beta]
        if affine_rank(tight) != dim - 1:
            continue
        found[(a, beta)] = Halfspace(a, exact_div(beta, scale))
    facets = tuple(found[k] for k in sorted(found, key=lambda k: (k[0], k[1])))
    return HPolytope(dim, facets)


def facets_of(P: VPolytope, limit=HULL_MAX_DIM) -> HPolytope:
    """H-representation of a V-polytope: direct for simplices, enumerated otherwise."""
    if is_simplex(P):
        return simplex_hrep(P)
    return hull_facets(P.vertices, P.dim, limit)


def extreme_points(points, dim) -> tuple:
    """Filter a point set down to the vertices of its convex hull.

    A point is extreme iff it can be strictly separated from the others; the
    separation LP is bounded by construction, so each test is one small LP.
    Input order is preserved.
    """
    pts = tuple(dict.fromkeys(tuple(p) for p in points))
    out = []
    for idx, p in enumerate(pts):
        others = [q for i, q in enumerate(pts) if i != idx]
        if not others:
            out.append(p)
            continue
        cons = [(tuple(q) + (-1,), 0) for q in others]
        cons.append((tuple(p) + (-1,), 1))
        res = lp_max_assume_bounded(LpProblem(tuple(p) + (-1,), tuple(cons)))
        if res.status != OPTIMAL:
            raise RuntimeError("separation LP must be optimal")
        if res.optimum > 0:
            out.append(p)
    return tuple(out)


# -- JSON forms ---------------------------------------------------------------

def halfspace_to_obj(h: Halfspace) -> dict:
    return {"a": fmt_vec(h.normal), "b": fmt_rat(h.rhs)}


def _array(value, what):
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{what} must be an array, got {value!r}")
    return value


def halfspace_from_obj(obj) -> Halfspace:
    if not isinstance(obj, dict) or "a" not in obj or "b" not in obj:
        raise ValueError("a halfspace needs fields 'a' and 'b'")
    return halfspace(parse_vec(_array(obj["a"], "'a'")), parse_rat(obj["b"]))


def body_to_obj(body) -> dict:
    if isinstance(body, VPolytope):
        return {"dim": body.dim, "vertices": [fmt_vec(v) for v in body.vertices]}
    if isinstance(body, HPolytope):
        return {"dim": body.dim, "facets": [halfspace_to_obj(f) for f in body.facets]}
    raise ValueError(f"not a polytope: {body!r}")


def body_from_obj(obj):
    if not isinstance(obj, dict) or "dim" not in obj:
        raise ValueError("a body needs a 'dim' field")
    dim = obj["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise ValueError("'dim' must be an integer")
    if "vertices" in obj:
        verts = _array(obj["vertices"], "'vertices'")
        return VPolytope(dim, tuple(parse_vec(_array(v, "a vertex")) for v in verts))
    if "facets" in obj:
        facets = _array(obj["facets"], "'facets'")
        return HPolytope(dim, tuple(halfspace_from_obj(f) for f in facets))
    raise ValueError("a body needs either 'vertices' or 'facets'")

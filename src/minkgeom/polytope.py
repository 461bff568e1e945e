"""Convex polytopes with exact rational coordinates.

Two representations: VPolytope (a list of points whose convex hull is the
body) and HPolytope (an intersection of halfspaces a . x <= b with primitive
integer normals).  Conversions are explicit and exact: simplex_hrep for
simplices, and for anything else hull_facets, an integer double description
whose every facet is checked before it is returned.  Its gate bounds the
dimension, not the number of facets or of intermediate rays.  Both take a
simplex's facets from _simplex_facets: one fraction-free elimination whose
inverse holds every barycentric coordinate at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from operator import mul

from .errors import (
    CertificateError,
    DegenerateBody,
    DimensionMismatch,
    EmptyIntersection,
    SizeLimitExceeded,
    UnboundedRegion,
)
from .lp import OPTIMAL, UNBOUNDED, LpProblem, lp_max
from .qlinalg import (
    _forward_eliminate,
    _integer_row,
    affine_rank,
    check_rational_types,
    dot,
    exact_div,
    fmt_rat,
    fmt_vec,
    gauss_rank,
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
        check_rational_types({type(x) for v in verts for x in v}, "coordinates")
        if len(set(verts)) != len(verts):
            raise DegenerateBody("duplicate points")
        object.__setattr__(self, "vertices", verts)

    @cached_property
    def _integer_vertices(self):
        """(rows, den): the vertices times den, the lcm of their denominators, in ints."""
        den = math.lcm(*(x.denominator for v in self.vertices for x in v))
        return [tuple(x.numerator * (den // x.denominator) for x in v) for v in self.vertices], den


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
    """max over the points of u . v (the support function of the hull).

    Evaluated in integers: u scaled by _integer_row, the points by their
    common denominator once per body, and one division at the end.
    """
    if len(u) != P.dim:
        raise DimensionMismatch(f"direction of length {len(u)} in dimension {P.dim}")
    rows, den = P._integer_vertices
    ints, scale = _integer_row(u)
    return exact_div(max(sum(map(mul, ints, row)) for row in rows), den * scale)


def simplex_hrep(P: VPolytope) -> HPolytope:
    """Facets of a simplex; facet k is the one opposite vertex k."""
    d = P.dim
    if len(P.vertices) != d + 1:
        raise DegenerateBody(
            f"a simplex in dimension {d} has {d + 1} vertices, got {len(P.vertices)}"
        )
    H = _simplex_hrep(P)
    if H is None:
        raise DegenerateBody("vertices are affinely dependent")
    return H


def _simplex_hrep(P):
    """simplex_hrep of d + 1 points, or None if they are affinely dependent."""
    pairs = _simplex_facets(P.vertices)
    if pairs is None:
        return None
    facets = []
    for a, beta in pairs:
        g = math.gcd(*a)
        facets.append(Halfspace(tuple(x // g for x in a), exact_div(beta, g)))
    return HPolytope(P.dim, tuple(facets))


def _simplex_facets(points):
    """Integer pairs (a, beta), the facet a . x <= beta opposite each of d + 1
    points in dimension d, in order; None if the points are affinely dependent.

    One fraction-free Gauss-Jordan elimination of the rows (p_k, 1 | e_k)
    leaves den times the inverse of the scaled left block on the right.  Its
    column k is a positive multiple of the barycentric coordinate lambda_k,
    the affine function that is 1 at p_k and 0 at the other points, so
    lambda_k >= 0 reads a . x <= beta with point k strictly inside.
    """
    n = len(points)
    rows, pivots, _ = _forward_eliminate(
        [list(p) + [1] + [int(i == k) for i in range(n)] for k, p in enumerate(points)]
    )
    if pivots != list(range(n)):
        return None
    return [(tuple(-row[n + k] for row in rows[:-1]), rows[-1][n + k]) for k in range(n)]


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
    """Vertices of P ∩ {h}, with no LP.

    P's kept vertices stay in order, then the points where edges from a
    strictly cut vertex to a strictly kept one cross the hyperplane, in (cut
    index, kept index) order.  The edges come from P's facets by
    _adjacent_pairs, so the cut inherits HULL_MAX_DIM unless P is a simplex,
    and needs P full-dimensional.  Points whose tight facet normals have rank
    below dim are not vertices and are dropped.  A cut that removes nothing
    returns P itself.
    """
    return _cut_polytope(P, h, None)


def _cut_polytope(P, h, facets, incidence=None):
    """cut_polytope with P's facets and their _incidence given, each None to compute it."""
    d = P.dim
    if len(h.normal) != d:
        raise DimensionMismatch(f"cut normal of length {len(h.normal)} in dimension {d}")
    vals = [dot(h.normal, v) - h.rhs for v in P.vertices]
    if all(val > 0 for val in vals):
        raise EmptyIntersection("the cut removes every vertex")
    if all(val <= 0 for val in vals):
        return P
    if incidence is None:
        incidence = _incidence(P, facets)
    verts = [(P.vertices[i], vals[i]) for i, _ in incidence]
    masks = [mask for _, mask in incidence]
    out = [v for v, val in verts if val <= 0]
    cut = [i for i, (_, a) in enumerate(verts) if a > 0]
    kept = [j for j, (_, b) in enumerate(verts) if b < 0]
    for i, j in _adjacent_pairs(masks, cut, kept, d - 1):
        (u, a), (v, b) = verts[i], verts[j]
        t = exact_div(a, a - b)
        out.append(tuple(x + t * (y - x) for x, y in zip(u, v)))
    return VPolytope(d, tuple(out))


def _incidence(P, facets):
    """Per vertex of P, (its index, the bitmask of the facets of P it lies on).

    facets are P's, or None to compute them, which raises on a flat P.  A
    point is a vertex when its facets' normals have rank dim.  On a simplex's
    facets _adjacent_pairs joins every vertex pair.
    """
    H = facets_of(P) if facets is None else facets
    out = []
    for i, v in enumerate(P.vertices):
        tight = [k for k, f in enumerate(H.facets) if dot(f.normal, v) == f.rhs]
        if gauss_rank([H.facets[k].normal for k in tight]) == P.dim:
            out.append((i, sum(1 << k for k in tight)))
    return out


def _adjacent_pairs(masks, left, right, rank):
    """The pairs (i, j) of left x right, in that order, whose members are adjacent.

    masks[k] is member k's tight set as a bitmask.  Two members are adjacent
    when their common tight set holds at least rank elements and lies in no
    third member's.  hull_facets pairs rays, cut_polytope vertices.
    """
    for i, j in product(left, right):
        za, zb = masks[i], masks[j]
        common = za & zb
        if common.bit_count() >= rank and not any(
            (z & common) == common and z != za and z != zb for z in masks
        ):
            yield i, j


def difference_body(P: VPolytope) -> VPolytope:
    """Point set {v_i - v_j : i != j} plus the origin, duplicates removed."""
    pts = {}
    for i, vi in enumerate(P.vertices):
        for j, vj in enumerate(P.vertices):
            if i != j:
                pts.setdefault(vsub(vi, vj), None)
    pts.setdefault((0,) * P.dim, None)
    return VPolytope(P.dim, tuple(pts))


def hull_facets(points) -> HPolytope:
    """Irredundant facets of conv(points), by exact double description.

    The facets a . x <= beta are the extreme rays (a, beta) of the cone of
    valid inequalities (Motzkin et al. 1953; Fukuda & Prodon 1996).  From a
    simplex's facets, each further point keeps the rays it satisfies and joins
    each adjacent pair it separates.  Rays are integer vectors reduced by their
    gcd; _adjacent_pairs finds the adjacent pairs from their tight point sets.
    The end check evaluates each point once per facet, in integers; those
    values give the tight set, the one-side test and the rank of the tight
    points, and a failure raises CertificateError.  The gate bounds only the
    dimension, which is that of the points.
    """
    pts = tuple(dict.fromkeys(tuple(p) for p in points))
    if not pts:
        raise DegenerateBody("no points")
    dim = len(pts[0])
    if dim > HULL_MAX_DIM:
        raise SizeLimitExceeded(f"facet enumeration gated to dim <= {HULL_MAX_DIM}, got {dim}")
    scale = math.lcm(*(x.denominator for p in pts for x in p))
    ipts = [tuple(int(x * scale) for x in p) for p in pts]
    # the pivot columns of the differences, taken as columns, are the first affine basis
    diffs = zip(*(vsub(p, ipts[0]) for p in ipts[1:]))
    basis = [0] + [c + 1 for c in _forward_eliminate([list(c) for c in diffs])[1]]
    if len(basis) != dim + 1:
        raise DegenerateBody(
            f"points span an affine subspace of dimension {len(basis) - 1} < {dim}"
        )
    rows = [vneg(p) + (1,) for p in ipts]  # a ray (a, beta) has slack ray . (-p, 1) at p
    rays = []  # (ray, bitmask of the points it is tight at)
    # the basis simplex's facets: each is tight at the other basis points and keeps point j
    for j, (a, beta) in zip(basis, _simplex_facets([ipts[i] for i in basis])):
        g = math.gcd(*a, beta)
        rays.append((tuple(x // g for x in a + (beta,)), sum(1 << i for i in basis if i != j)))
    for i, row in enumerate(rows):
        if i in basis:
            continue
        slacks = [(r, z, dot(r, row)) for r, z in rays]
        rays = [(r, z | 1 << i if s == 0 else z) for r, z, s in slacks if s >= 0]
        pos = [k for k, t in enumerate(slacks) if t[2] > 0]
        neg = [k for k, t in enumerate(slacks) if t[2] < 0]
        for kp, kn in _adjacent_pairs([z for _, z, _ in slacks], pos, neg, dim - 1):
            (rp, zp, sp), (rn, zn, sn) = slacks[kp], slacks[kn]
            r = tuple(sp * x - sn * y for x, y in zip(rn, rp))
            g = math.gcd(*r)
            rays.append((tuple(x // g for x in r), zp & zn | 1 << i))
    facets = []
    for r, _ in rays:
        a, beta = r[:dim], r[dim]
        vals = [dot(a, q) for q in ipts]
        tight = [q for q, v in zip(ipts, vals) if v == beta]
        if len(tight) < dim or max(vals) > beta or affine_rank(tight) != dim - 1:
            raise CertificateError(f"double description gave a non-facet {r}")
        facets.append(Halfspace(a, exact_div(beta, scale)))
    return HPolytope(dim, tuple(sorted(facets, key=lambda h: (h.normal, h.rhs))))


def facets_of(P: VPolytope) -> HPolytope:
    """H-representation of a V-polytope: direct for simplices, enumerated otherwise.

    d + 1 points are a simplex unless _simplex_facets finds them dependent;
    hull_facets then raises on them as on any flat point set.
    """
    H = _simplex_hrep(P) if len(P.vertices) == P.dim + 1 else None
    return hull_facets(P.vertices) if H is None else H


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

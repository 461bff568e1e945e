"""Polyhedral Minkowski norms.

A norm is carried as two support functions of its unit ball B: the norm is
h_{B°}, the support function of the polar ball, and the dual norm is h_B
(Rockafellar, Convex Analysis, sections 14-15).  The l1 and linf balls are
each other's polars, so both have closed forms; a custom ball evaluates them
over the vertex and facet lists it was given.  The lists of a built-in ball
are built on first use, and BALL_MAX_DIM gates its 2^dim sign vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from itertools import product
from typing import Callable

from .errors import DimensionMismatch, GeometryError, SizeLimitExceeded
from .polytope import Halfspace, HPolytope, VPolytope, hull_facets, support
from .qlinalg import dot, exact_div, unit_vec, vneg

BALL_MAX_DIM = 16


@dataclass(frozen=True, eq=False)
class PolytopalNorm:
    """h_B as ball_support and h_{B°} as polar_support; kind is a label only."""

    dim: int
    kind: str
    ball_support: Callable
    polar_support: Callable
    build_v: Callable
    build_h: Callable

    @cached_property
    def ball_v(self) -> VPolytope:
        return self.build_v()

    @cached_property
    def ball_h(self) -> HPolytope:
        return self.build_h()


def _max_abs(v):
    return max(abs(c) for c in v)


def _sum_abs(v):
    return sum(abs(c) for c in v)


def _axes(dim):
    """+e_0 ... +e_{dim-1}, then -e_0 ... -e_{dim-1}."""
    units = tuple(unit_vec(dim, i) for i in range(dim))
    return units + tuple(vneg(e) for e in units)


def _signs(dim):
    """The 2^dim sign vectors, in product((1, -1), repeat=dim) order."""
    if dim > BALL_MAX_DIM:
        raise SizeLimitExceeded(f"2^dim sign vectors gated to dim <= {BALL_MAX_DIM}, got {dim}")
    return tuple(product((1, -1), repeat=dim))


def _unit_ball(dim, kind, ball_support, polar_support, vertices, normals):
    """conv(vertices(dim)), whose facets are a . x <= 1 for a in normals(dim)."""
    if dim < 1:
        raise DimensionMismatch(f"dim must be >= 1, got {dim}")
    return PolytopalNorm(
        dim,
        kind,
        ball_support,
        polar_support,
        lambda: VPolytope(dim, vertices(dim)),
        lambda: HPolytope(dim, tuple(Halfspace(a, 1) for a in normals(dim))),
    )


def l1_ball(dim: int) -> PolytopalNorm:
    """Cross-polytope ball: vertices +-e_i, one facet per sign vector."""
    return _unit_ball(dim, "l1", _max_abs, _sum_abs, _axes, _signs)


def linf_ball(dim: int) -> PolytopalNorm:
    """Hypercube ball, the cross-polytope's polar: the same lists, swapped."""
    return _unit_ball(dim, "linf", _sum_abs, _max_abs, _signs, _axes)


def custom_ball(ball_v: VPolytope, ball_h: HPolytope) -> PolytopalNorm:
    """Build a norm from both ball representations, verifying consistency.

    Checks: matching dimensions, central symmetry of the vertices, the facet
    list being exactly the facet set of the vertices' hull (hull_facets, so
    the ball is gated to HULL_MAX_DIM and a flat one raises), and every
    vertex tight on at least dim facets.  Symmetry and full dimension put
    the origin strictly inside.
    """
    if ball_v.dim != ball_h.dim:
        raise DimensionMismatch("ball representations disagree on dimension")
    dim = ball_v.dim
    vset = set(ball_v.vertices)
    for v in ball_v.vertices:
        if vneg(v) not in vset:
            raise GeometryError(f"vertex set is not centrally symmetric at {v}")
    hull = hull_facets(ball_v.vertices)
    if {(f.normal, f.rhs) for f in hull.facets} != {(f.normal, f.rhs) for f in ball_h.facets}:
        raise GeometryError("the facets are not those of the vertices' hull")
    for v in ball_v.vertices:
        tight = sum(dot(f.normal, v) == f.rhs for f in hull.facets)
        if tight < dim:
            raise GeometryError(f"vertex {v} is tight on {tight} < {dim} facets")

    def polar_support(x):
        return max(exact_div(dot(f.normal, x), f.rhs) for f in ball_h.facets)

    return PolytopalNorm(
        dim, "custom", partial(support, ball_v), polar_support, lambda: ball_v, lambda: ball_h
    )


def norm(x, ball: PolytopalNorm):
    """Minkowski norm of x: the smallest t >= 0 with x inside t times the ball."""
    if len(x) != ball.dim:
        raise DimensionMismatch(f"vector of length {len(x)} in dimension {ball.dim}")
    return ball.polar_support(x)


def dual_support(u, ball: PolytopalNorm):
    """Support function of the ball at u (the dual norm of u)."""
    if len(u) != ball.dim:
        raise DimensionMismatch(f"direction of length {len(u)} in dimension {ball.dim}")
    return ball.ball_support(u)


def parallel_hyperplane_distance(a, c1, c2, ball: PolytopalNorm):
    """Minkowski distance between the hyperplanes a.x = c1 and a.x = c2."""
    if not any(a):
        raise DimensionMismatch("hyperplane normal must be nonzero")
    return exact_div(abs(c1 - c2), dual_support(a, ball))


def point_hyperplane_distance(v, a, c, ball: PolytopalNorm):
    """Minkowski distance from the point v to the hyperplane a.x = c."""
    if len(v) != ball.dim:
        raise DimensionMismatch(f"point of length {len(v)} in dimension {ball.dim}")
    return parallel_hyperplane_distance(a, dot(a, v), c, ball)

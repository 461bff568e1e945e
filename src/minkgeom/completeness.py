"""Diametric completeness and reducedness witnesses.

A body is (diametrically) complete when no strict superset keeps the same
diameter; equivalently, when the body already equals the intersection of all
balls of diameter radius centered in it (its ball hull).  A body is reduced
when no proper convex subset keeps the same thickness; a reduction witness
is a single halfspace cut that removes at least one vertex while leaving the
thickness unchanged, certifying non-reducedness.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegenerateBody, DimensionMismatch, EmptyIntersection
from .lp import OPTIMAL, LpProblem, lp_max_assume_bounded
from .metrics import diameter, inball_scale, thickness
from .norms import PolytopalNorm, dual_support, norm
from .polytope import (
    Halfspace,
    HPolytope,
    VPolytope,
    body_to_obj,
    contains,
    cut_polytope,
    facets_of,
    halfspace_to_obj,
    support,
)
from .qlinalg import affine_rank, dot, fmt_rat, fmt_vec, vneg, vsub


def ball_hull(P: VPolytope, r, ball: PolytopalNorm) -> HPolytope:
    """Intersection of all radius-r balls centered in P.

    One constraint per unit-ball facet (a, b): a . y <= r*b - support(P, -a).
    """
    if P.dim != ball.dim:
        raise DimensionMismatch(f"body dim {P.dim} vs ball dim {ball.dim}")
    if r <= 0:
        raise DimensionMismatch(f"ball hull radius must be positive, got {r}")
    facets = tuple(
        Halfspace(f.normal, r * f.rhs - support(P, vneg(f.normal)))
        for f in ball.ball_h.facets
    )
    return HPolytope(P.dim, facets)


@dataclass(frozen=True)
class CompletenessReport:
    diameter: object
    ball_hull_facets: HPolytope
    complete: bool
    violation: dict = None

    def to_obj(self) -> dict:
        violation = None
        if self.violation is not None:
            violation = {
                "facet": halfspace_to_obj(self.violation["facet"]),
                "optimum": fmt_rat(self.violation["optimum"]),
                "point": fmt_vec(self.violation["point"]),
            }
        return {
            "diameter": fmt_rat(self.diameter),
            "ball_hull_facets": body_to_obj(self.ball_hull_facets),
            "complete": self.complete,
            "violation": violation,
        }


def is_complete(P: VPolytope, ball: PolytopalNorm) -> CompletenessReport:
    """Decide completeness: is the ball hull at diameter radius inside P?

    P is always inside its ball hull at that radius (checked); completeness
    holds when the reverse inclusion holds too, decided by one support LP per
    facet of P.  The first violated facet is reported with the LP optimum and
    the point of the ball hull beyond it.
    """
    if P.dim != ball.dim:
        raise DimensionMismatch(f"body dim {P.dim} vs ball dim {ball.dim}")
    if affine_rank(P.vertices) != P.dim:
        raise DegenerateBody("completeness needs a full-dimensional body")
    diam, _ = diameter(P, ball)
    hull = ball_hull(P, diam, ball)
    for v in P.vertices:
        if not contains(hull, v):
            raise RuntimeError("body escapes its own ball hull")
    body_facets = facets_of(P)
    cons = tuple((f.normal, f.rhs) for f in hull.facets)
    violation = None
    for f in body_facets.facets:
        out = lp_max_assume_bounded(LpProblem(f.normal, cons))
        if out.status != OPTIMAL:
            raise RuntimeError("ball hull support LP must be optimal")
        if out.optimum > f.rhs:
            violation = {"facet": f, "optimum": out.optimum, "point": out.point}
            break
    return CompletenessReport(diam, hull, violation is None, violation)


def vertex_diameter_realization(P: VPolytope, ball: PolytopalNorm):
    """(every vertex realizes the diameter?, per-vertex witness indices).

    Necessary for completeness, not sufficient: a body can pass this test
    and still fall short of its ball hull.
    """
    diam, _ = diameter(P, ball)
    witnesses = []
    for i, v in enumerate(P.vertices):
        hit = None
        for j, w in enumerate(P.vertices):
            if i != j and norm(vsub(v, w), ball) == diam:
                hit = j
                break
        witnesses.append(hit)
    return all(w is not None for w in witnesses), tuple(witnesses)


@dataclass(frozen=True)
class ReductionWitness:
    cut: Halfspace
    removed_vertices: tuple
    thickness_before: object
    thickness_after: object
    valid: bool

    def to_obj(self) -> dict:
        return {
            "cut": halfspace_to_obj(self.cut),
            "removed_vertices": list(self.removed_vertices),
            "thickness_before": fmt_rat(self.thickness_before),
            "thickness_after": fmt_rat(self.thickness_after),
            "valid": self.valid,
        }


def verify_reduction_witness(P: VPolytope, h: Halfspace, ball: PolytopalNorm) -> ReductionWitness:
    """Check one halfspace cut: valid iff it removes a vertex and keeps the thickness.

    Thickness on both sides is computed in exact_lp mode.  A cut that empties
    the body raises EmptyIntersection; one that flattens it raises
    DegenerateBody.
    """
    if len(h.normal) != P.dim:
        raise DimensionMismatch(f"cut normal of length {len(h.normal)} in dimension {P.dim}")
    vals = [dot(h.normal, v) - h.rhs for v in P.vertices]
    removed = tuple(i for i, val in enumerate(vals) if val > 0)
    if len(removed) == len(P.vertices):
        raise EmptyIntersection("the cut removes every vertex")
    before, _ = thickness(P, ball, "exact_lp")
    if not removed:
        return ReductionWitness(h, removed, before, before, False)
    Q = cut_polytope(P, h)
    if affine_rank(Q.vertices) != P.dim:
        raise DegenerateBody("the cut body is lower-dimensional")
    after, _ = thickness(Q, ball, "exact_lp")
    return ReductionWitness(h, removed, before, after, after == before)


def search_reduction_witness(P: VPolytope, ball: PolytopalNorm):
    """Try the canonical cut family; first valid witness or None.

    For each facet of P with outward normal a, the candidate halfspace is
    {-a . x <= t * dual_support(-a)} with t the inscribed-ball scale: its
    boundary hyperplane supports the inscribed copy of the ball from the
    side opposite the facet, so the inscribed copy survives the cut.
    Requires the origin strictly inside P.
    """
    body_facets = facets_of(P)
    scale = inball_scale(body_facets, ball)
    for f in body_facets.facets:
        neg = vneg(f.normal)
        cut = Halfspace(neg, scale * dual_support(neg, ball))
        try:
            witness = verify_reduction_witness(P, cut, ball)
        except (DegenerateBody, EmptyIntersection):
            continue
        if witness.valid:
            return witness
    return None

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

from .errors import CertificateError, DegenerateBody, DimensionMismatch, EmptyIntersection
from .lp import OPTIMAL, LpProblem, lp_max
from .metrics import (
    _check_thickness_input,
    _piece_chord,
    _thickness,
    _thickness_exact_lp,
    diameter,
    inball_scale,
    thickness,
    width,
)
from .norms import PolytopalNorm, dual_support, norm
from .polytope import (
    _cut_polytope,
    _incidence,
    Halfspace,
    HPolytope,
    VPolytope,
    body_to_obj,
    contains,
    facets_of,
    halfspace_to_obj,
    support,
)
from .qlinalg import affine_rank, dot, exact_div, fmt_rat, fmt_vec, vneg, vsub


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
            raise CertificateError("body escapes its own ball hull")
    body_facets = facets_of(P)
    cons = tuple((f.normal, f.rhs) for f in hull.facets)
    violation = None
    for f in body_facets.facets:
        out = lp_max(LpProblem(f.normal, cons))
        if out.status != OPTIMAL:
            raise CertificateError("ball hull support LP must be optimal")
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

    Thickness on both sides is computed in exact_lp mode, every piece LP
    solved, so thickness_after is exact.  A cut that empties the body raises
    EmptyIntersection; one that flattens it raises DegenerateBody.
    """
    return _verify_cut(P, h, ball, None, None)


def _verify_cut(P, h, ball, before, facets, chords=None, incidence=None):
    """verify_reduction_witness given thickness(P) as before, facets_of(P) as
    facets and their _incidence, or None.

    The cut comes before thickness(P), so its size gate fires before any
    thickness LP; thickness(P)'s input errors still come first.  The cut body
    Q = P & h is lower-dimensional exactly when no point of P lies strictly
    inside h, P being full-dimensional.

    Q lies in P, so th(Q) <= before, and the cut is valid exactly when
    th(Q) >= before; then thickness_after is before.  Certified lower bounds
    settle that before any LP on Q:

    - with before and facets given and the origin strictly inside P and h,
      Q holds t * B, t the inscribed-ball scale of P's facets and h
      (_inball_settles).  B = -B gives Q - Q >= 2t * B, so th(Q) >= 2t, and
      2t >= before settles the cut: no LP, and no cut body either, since Q
      is then full-dimensional;
    - chords (the search's) hold (w, x, z) per piece of P's LP family, x and
      z in P with x - z = rho_w * w, rho_w >= before (_piece_chord).  When the
      cut keeps both x and z, Q - Q holds rho_w * w, so the piece of Q is at
      least before and its LP is skipped.

    Without chords the other pieces of Q are all solved, and thickness_after
    is exact.  With chords an invalid cut returns None, its thickness being
    only bounded from above, by one of two certificates:

    - the cut's own normal a: Q lies in P and below a . x <= r, so
      th(Q) <= width(Q, a) <= (r + h_P(-a)) / h_B(a) (_normal_bound), and a
      bound below before refutes the cut with no cut body and no LP;
    - otherwise the first piece of Q below before ends the check: its LP
      direction u has width(Q, u) <= its value < before, checked.
    """
    if len(h.normal) != P.dim:
        raise DimensionMismatch(f"cut normal of length {len(h.normal)} in dimension {P.dim}")
    vals = [dot(h.normal, v) - h.rhs for v in P.vertices]
    removed = tuple(i for i, val in enumerate(vals) if val > 0)
    if len(removed) == len(P.vertices):
        raise EmptyIntersection("the cut removes every vertex")
    if before is None:
        _check_thickness_input(P, ball)
    elif removed and facets is not None and _inball_settles(h, ball, before, facets):
        return ReductionWitness(h, removed, before, before, True)
    if removed and min(vals) >= 0:
        raise DegenerateBody("the cut body is lower-dimensional")
    if chords is not None and _normal_bound(P, h, ball) < before:
        return None
    Q = _cut_polytope(P, h, facets, incidence)  # P itself when the cut removes nothing
    if before is None:
        before, _ = thickness(P, ball, "exact_lp")
    if not removed:
        return ReductionWitness(h, removed, before, before, False)
    if chords is None:
        after, _ = thickness(Q, ball, "exact_lp")
        return ReductionWitness(h, removed, before, after, after == before)
    unsettled = [w for w, x, z in chords if dot(h.normal, x) > h.rhs or dot(h.normal, z) > h.rhs]
    if unsettled:
        low, u, _ = _thickness_exact_lp(Q, ball, unsettled, before)
        if low < before:
            if not width(Q, u, ball) <= low:
                raise CertificateError("the cut body's piece direction fails its width bound")
            return None
    return ReductionWitness(h, removed, before, before, True)


def _normal_bound(P, h, ball):
    """(r + h_P(-a)) / h_B(a) for h = {a . x <= r}: at least the width of P & h along a."""
    return exact_div(h.rhs + support(P, vneg(h.normal)), dual_support(h.normal, ball))


def _inball_settles(h, ball, before, facets):
    """Does P & h hold t * B with 2t >= before, P given by its facets?

    False unless the origin is strictly inside P and h, where
    inball_scale is the largest such t.
    """
    H = HPolytope(len(h.normal), facets.facets + (h,))
    if any(f.rhs <= 0 for f in H.facets):
        return False
    return 2 * inball_scale(H, ball) >= before


def _family_chords(P, ball):
    """(thickness(P), chords): P's exact_lp family solved once, each piece's chord
    read off its multipliers (_piece_chord), least rho_w first, since those
    pieces are the likeliest to fall below the thickness on a cut body."""
    before, _, solved = _thickness(P, ball, "exact_lp")
    solved = sorted(solved, key=lambda piece: -piece[1].optimum)
    return before, [(w, *_piece_chord(P, w, out)) for w, out in solved]


def search_reduction_witness(P: VPolytope, ball: PolytopalNorm):
    """Try the canonical cut family; first valid witness or None.

    For each facet of P with outward normal a, the candidate halfspace is
    {-a . x <= t * dual_support(-a)} with t the inscribed-ball scale: its
    boundary hyperplane supports the inscribed copy of the ball from the
    side opposite the facet, so the inscribed copy survives the cut.
    Requires the origin strictly inside P.

    P's thickness LP family is solved once, each piece's chord is read off
    its multipliers, and which facets of P each vertex lies on is found once.
    A candidate is then settled by the inscribed-ball bound, refuted by the
    width along its own normal, and otherwise settled by the chords it keeps
    and by LPs on the cut body for the other pieces only, stopping at the
    first piece that falls below (_verify_cut).  A witness found reads as
    verify_reduction_witness reports it.
    """
    body_facets = facets_of(P)
    scale = inball_scale(body_facets, ball)
    before, chords = _family_chords(P, ball)
    incidence = _incidence(P, body_facets)
    for f in body_facets.facets:
        neg = vneg(f.normal)
        cut = Halfspace(neg, scale * dual_support(neg, ball))
        try:
            witness = _verify_cut(P, cut, ball, before, body_facets, chords, incidence)
        except (DegenerateBody, EmptyIntersection):
            continue
        if witness is not None and witness.valid:
            return witness
    return None

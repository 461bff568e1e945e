"""Width, diameter, thickness and inscribed-ball scale of a polytope.

All metric quantities are taken with respect to a polyhedral Minkowski norm;
a width divides the Euclidean slab extent by the support of the unit ball in
the slab's normal direction, so the direction vector itself only carries the
hyperplane orientation.

The thickness (minimal width) is the inradius of the difference body P - P
in the norm: the largest t with t times the ball inside P - P.  Both thickness
modes compute that one quantity, exact_lp from the vertices of P and
difference_body from the facets of P - P, so each checks the other.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DegenerateBody,
    DimensionMismatch,
    OriginNotInterior,
    SizeLimitExceeded,
)
from .lp import OPTIMAL, LpProblem, lp_max_assume_bounded
from .norms import PolytopalNorm, dual_support, norm
from .polytope import (
    HPolytope,
    VPolytope,
    difference_body,
    facets_of,
    hull_facets,
    support,
)
from .qlinalg import affine_rank, exact_div, fmt_rat, fmt_vec, vneg, vsub

THICKNESS_MODES = ("exact_lp", "difference_body")


def width(P: VPolytope, u, ball: PolytopalNorm):
    """Distance between the two supporting hyperplanes of P with normal u."""
    if P.dim != ball.dim:
        raise DimensionMismatch(f"body dim {P.dim} vs ball dim {ball.dim}")
    if len(u) != P.dim:
        raise DimensionMismatch(f"direction of length {len(u)} in dimension {P.dim}")
    if not any(u):
        raise DimensionMismatch("width direction must be nonzero")
    extent = support(P, u) + support(P, vneg(u))
    return exact_div(extent, dual_support(u, ball))


def diameter(P: VPolytope, ball: PolytopalNorm):
    """(max pairwise vertex distance, first witnessing index pair).

    A single-point body is degenerate and reports diameter 0 with the pair
    (0, 0).
    """
    if P.dim != ball.dim:
        raise DimensionMismatch(f"body dim {P.dim} vs ball dim {ball.dim}")
    verts = P.vertices
    if len(verts) == 1:
        return 0, (0, 0)
    best = None
    pair = (0, 0)
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            d = norm(vsub(verts[i], verts[j]), ball)
            if best is None or d > best:
                best = d
                pair = (i, j)
    return best, pair


def inball_scale(H: HPolytope, ball: PolytopalNorm):
    """Largest t with t * ball inside the H-polytope, anchored at the origin.

    Requires the origin strictly inside (every facet rhs positive); this
    operation is origin-anchored by design and does not translate the body.
    """
    if H.dim != ball.dim:
        raise DimensionMismatch(f"body dim {H.dim} vs ball dim {ball.dim}")
    best = None
    for f in H.facets:
        if f.rhs <= 0:
            raise OriginNotInterior(
                f"facet {f.normal} has rhs {f.rhs} <= 0", facet=f
            )
        t = exact_div(f.rhs, dual_support(f.normal, ball))
        if best is None or t < best:
            best = t
    if best is None:
        raise DegenerateBody("an H-polytope with no facets has no inscribed scale")
    return best


def _thickness_exact_lp(P: VPolytope, ball: PolytopalNorm):
    """Inradius of P - P in the ball's norm, from the vertices of P.

    The width in direction u is h_{P-P}(u) / h_B(u), so the thickness is the
    minimum, over the ball vertices w, of min{h_{P-P}(u) : u . w = 1}: on that
    hyperplane h_B(u) >= 1, with equality at the minimizer of the best w.  One
    LP per vertex minimizes h_{P-P}(u) = max v.u - min v.u over the vertices v
    of P; h_{P-P} is even, so a vertex whose negative came earlier is skipped.
    Ties go to the lowest ball-vertex index, then to the LP's deterministic
    pivoting.
    """
    d = P.dim
    vertex_rows = []
    for v in P.vertices:
        vertex_rows.append((tuple(v) + (0, -1), 0))
        vertex_rows.append((vneg(v) + (1, 0), 0))
    objective = (0,) * d + (1, -1)
    best = None
    best_dir = None
    seen = set()
    for w in ball.ball_v.vertices:
        if vneg(w) in seen:
            continue
        seen.add(w)
        cons = vertex_rows + [(w + (0, 0), 1), (vneg(w) + (0, 0), -1)]
        out = lp_max_assume_bounded(LpProblem(objective, tuple(cons)))
        if out.status != OPTIMAL:
            raise RuntimeError("thickness LP must be optimal for a full-dim body")
        if best is None or -out.optimum < best:
            best = -out.optimum
            best_dir = out.point[:d]
    return best, best_dir


def _thickness_difference_body(P: VPolytope, ball: PolytopalNorm):
    """Inradius of P - P in the ball's norm, from the facets of P - P.

    t times the ball lies inside the facet a . x <= b exactly when
    t * h_B(a) <= b, so the inradius is the least b / h_B(a) over the facets;
    the witness direction is that facet's normal.  Facet enumeration makes
    this the slow mode, kept as the independent check of exact_lp.
    """
    D = difference_body(P)
    H = hull_facets(D.vertices, P.dim)
    best = None
    best_dir = None
    for f in H.facets:
        val = exact_div(f.rhs, dual_support(f.normal, ball))
        if best is None or val < best:
            best = val
            best_dir = f.normal
    return best, best_dir


def thickness(P: VPolytope, ball: PolytopalNorm, mode: str = "exact_lp"):
    """(minimal width, witness direction) of a full-dimensional polytope.

    mode is one of THICKNESS_MODES; the direction's width is checked to
    reproduce the value.
    """
    if P.dim != ball.dim:
        raise DimensionMismatch(f"body dim {P.dim} vs ball dim {ball.dim}")
    if affine_rank(P.vertices) != P.dim:
        raise DegenerateBody("thickness needs a full-dimensional body")
    if mode == "exact_lp":
        value, direction = _thickness_exact_lp(P, ball)
    elif mode == "difference_body":
        value, direction = _thickness_difference_body(P, ball)
    else:
        raise ValueError(f"unknown thickness mode {mode!r}")
    if width(P, direction, ball) != value:
        raise RuntimeError("thickness witness fails to reproduce the value")
    return value, direction


@dataclass(frozen=True)
class MetricsReport:
    diameter: object
    diameter_witness: tuple
    thickness: object
    thickness_direction: tuple
    thickness_mode: str
    inball_scale: object
    inball_note: str = None

    def to_obj(self) -> dict:
        return {
            "diameter": fmt_rat(self.diameter),
            "diameter_witness": list(self.diameter_witness),
            "thickness": fmt_rat(self.thickness),
            "thickness_direction": fmt_vec(self.thickness_direction),
            "thickness_mode": self.thickness_mode,
            "inball_scale": None if self.inball_scale is None else fmt_rat(self.inball_scale),
            "inball_note": self.inball_note,
        }


def metrics_report(P: VPolytope, ball: PolytopalNorm, mode: str = "exact_lp") -> MetricsReport:
    """Bundle diameter, thickness and inscribed scale for one body.

    inball_scale is origin-anchored; when the origin is not strictly inside
    the body (or facet enumeration is gated off), the field is null and the
    note says why.  The other metrics are translation-invariant.
    """
    diam, pair = diameter(P, ball)
    thick, direction = thickness(P, ball, mode)
    scale = None
    note = None
    try:
        scale = inball_scale(facets_of(P), ball)
    except (OriginNotInterior, SizeLimitExceeded) as exc:
        scale = None
        note = f"inball_scale unavailable: {exc}"
    return MetricsReport(diam, pair, thick, direction, mode, scale, note)

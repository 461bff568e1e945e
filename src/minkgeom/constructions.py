"""Walsh-matrix simplices and their verification reports.

The family: drop the first coordinate from every row of the order-2^n Walsh
matrix.  The resulting 2^n points are affinely independent in dimension
2^n - 1 and span a simplex that, under the l1 norm, has every vertex pair at
distance 2^n (so it is a body of constant "vertex spread"), is diametrically
complete, has thickness exactly 2, and admits a single-halfspace cut that
removes the all-ones vertex without changing the thickness, certifying that
the simplex is not reduced.  At n = 2 the construction is, up to a
coordinate reflection, the standard tetrahedron with vertices at four
alternating corners of the cube.

verify_claims_dim3 checks the dimension-3 story end to end;
verify_proposition checks the general-n statement, its route fixed by n: the
thickness LP family and the completeness decision for n <= 3, and for n = 4 a
certificate sandwich whose lower bound is twice the inscribed-ball scale and
whose upper bound is the width along one coordinate direction.  Each report
hands the thickness it has certified, and the simplex's facets, to the
reduction witness check, so no certified quantity is computed twice.  Each
report's cut keeps the unit ball, which the simplex holds, so the cut body's
thickness is at least 2, the thickness before: the inscribed-ball bound
settles the witness with no LP on the cut body.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .completeness import _verify_cut, is_complete
from .errors import CertificateError, DegenerateBody, SizeLimitExceeded
from .metrics import diameter, inball_scale, thickness, width
from .norms import l1_ball, norm, point_hyperplane_distance
from .polytope import Halfspace, VPolytope, is_subset, simplex_hrep
from .qlinalg import (
    affine_rank,
    dot,
    exact_div,
    fmt_rat,
    fmt_vec,
    unit_vec,
    vscale,
    vsub,
)
from .walsh import is_hadamard, walsh_matrix

WALSH_SIMPLEX_MAX_N = 4


def tetrahedron_k() -> VPolytope:
    """The dimension-3 member written with its classical vertex set."""
    return VPolytope(
        3,
        (
            (-1, -1, -1),
            (1, 1, -1),
            (1, -1, 1),
            (-1, 1, 1),
        ),
    )


def walsh_simplex(n: int) -> VPolytope:
    """Rows of the order-2^n Walsh matrix with the first coordinate dropped."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if n > WALSH_SIMPLEX_MAX_N:
        raise SizeLimitExceeded(f"walsh_simplex gated to n <= {WALSH_SIMPLEX_MAX_N}")
    mat = walsh_matrix(n)
    if not is_hadamard(mat):
        raise CertificateError("Walsh matrix lost the Hadamard identity")
    verts = tuple(row[1:] for row in mat)
    dim = 2**n - 1
    if affine_rank(verts) != dim:
        raise DegenerateBody("Walsh simplex vertices are affinely dependent")
    total = tuple(sum(col) for col in zip(*verts))
    if any(total):
        raise CertificateError("Walsh simplex vertices must sum to zero")
    return VPolytope(dim, verts)


@dataclass(frozen=True)
class ReportItem:
    name: str
    expected: str
    computed: str
    passed: bool

    def to_obj(self) -> dict:
        return {
            "name": self.name,
            "expected": self.expected,
            "computed": self.computed,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class ClaimsReport:
    items: tuple
    ok: bool

    def to_obj(self) -> dict:
        return {"items": [item.to_obj() for item in self.items], "ok": self.ok}


def _item(name, expected, computed, passed) -> ReportItem:
    return ReportItem(name, expected, computed, bool(passed))


def verify_claims_dim3() -> ClaimsReport:
    """Every dimension-3 assertion about the tetrahedron, checked exactly."""
    K = tetrahedron_k()
    ball = l1_ball(3)
    items = []

    diam, _ = diameter(K, ball)
    pair_values = {
        fmt_rat(norm(vsub(u, v), ball))
        for i, u in enumerate(K.vertices)
        for v in K.vertices[i + 1 :]
    }
    items.append(
        _item(
            "diameter",
            "4, attained by every vertex pair",
            f"diameter {fmt_rat(diam)}, pair distances {sorted(pair_values)}",
            diam == 4 and pair_values == {"4"},
        )
    )

    comp = is_complete(K, ball)
    items.append(
        _item(
            "complete",
            "true",
            str(comp.complete).lower(),
            comp.complete,
        )
    )

    t_lp, dir_lp = thickness(K, ball, "exact_lp")
    t_db, dir_db = thickness(K, ball, "difference_body")
    items.append(
        _item(
            "thickness",
            "2 in both modes",
            f"exact_lp {fmt_rat(t_lp)} along {fmt_vec(dir_lp)}, "
            f"difference_body {fmt_rat(t_db)} along {fmt_vec(dir_db)}",
            t_lp == 2 and t_db == 2,
        )
    )

    hrep = simplex_hrep(K)
    scale = inball_scale(hrep, ball)
    items.append(_item("inball_scale", "1", fmt_rat(scale), scale == 1))

    cut = Halfspace((-1, -1, -1), 1)
    witness = _verify_cut(K, cut, ball, t_lp, hrep)
    items.append(
        _item(
            "reduction_witness",
            "valid, removing exactly the first vertex",
            f"valid {str(witness.valid).lower()}, removed {list(witness.removed_vertices)}, "
            f"thickness {fmt_rat(witness.thickness_before)} -> {fmt_rat(witness.thickness_after)}",
            witness.valid and witness.removed_vertices == (0,),
        )
    )

    return ClaimsReport(tuple(items), all(i.passed for i in items))


@dataclass(frozen=True)
class PropositionReport:
    n: int
    dim: int
    mode: str
    items: tuple
    diameter: object
    thickness: object
    thickness_bounds: tuple
    ratio: object
    complete: object
    vertex_facet_distances: tuple
    witness: object
    ok: bool

    def to_obj(self) -> dict:
        return {
            "n": self.n,
            "dim": self.dim,
            "mode": self.mode,
            "items": [item.to_obj() for item in self.items],
            "diameter": fmt_rat(self.diameter),
            "thickness": fmt_rat(self.thickness),
            "thickness_bounds": None
            if self.thickness_bounds is None
            else [fmt_rat(x) for x in self.thickness_bounds],
            "ratio": fmt_rat(self.ratio),
            "complete": self.complete,
            "vertex_facet_distances": [fmt_rat(x) for x in self.vertex_facet_distances],
            "witness": None if self.witness is None else self.witness.to_obj(),
            "ok": self.ok,
        }


def verify_proposition(n: int) -> PropositionReport:
    """Check the full statement for the dimension 2^n - 1 simplex.

    n fixes the route.  Mode "exact" (n <= 3) computes the thickness by LP
    and runs the completeness decision; mode "certificate" (n = 4) replaces
    the thickness LP family's minimum with a sandwich of two cheap exact
    bounds and skips the completeness decision, whose ball hull has
    2^(2^n - 1) facets.  The reduction witness takes its thickness_before
    from the report: the LP value, or the sandwich value when its bounds
    meet; unmet bounds prove nothing, so the witness then solves the LP.
    """
    mode = "exact" if n <= 3 else "certificate"
    S = walsh_simplex(n)
    dim = 2**n - 1
    count = 2**n
    ball = l1_ball(dim)
    hrep = simplex_hrep(S)
    items = []

    diam, _ = diameter(S, ball)
    pairs_ok = all(
        norm(vsub(u, v), ball) == count
        for i, u in enumerate(S.vertices)
        for v in S.vertices[i + 1 :]
    )
    items.append(
        _item(
            "pairwise_distances",
            f"{count} for every vertex pair",
            f"diameter {fmt_rat(diam)}, all pairs equal: {pairs_ok}",
            diam == count and pairs_ok,
        )
    )

    # each vertex: distance to the centroid of the others and to the
    # opposite facet's hyperplane both equal the diameter
    plane_dists = []
    centroid_ok = True
    for i, v in enumerate(S.vertices):
        others = [w for j, w in enumerate(S.vertices) if j != i]
        centroid = vscale(
            Fraction(1, count - 1),
            tuple(sum(col) for col in zip(*others)),
        )
        if norm(vsub(v, centroid), ball) != count:
            centroid_ok = False
        facet = hrep.facets[i]
        plane_dists.append(
            point_hyperplane_distance(v, facet.normal, facet.rhs, ball)
        )
    plane_ok = all(d == count for d in plane_dists)
    items.append(
        _item(
            "vertex_facet_distances",
            f"{count} from every vertex to its opposite facet and to the "
            "centroid of the others",
            f"plane distances {sorted({fmt_rat(d) for d in plane_dists})}, "
            f"centroid distances all {count}: {centroid_ok}",
            plane_ok and centroid_ok,
        )
    )

    ball_inside = is_subset(ball.ball_v, hrep)
    touching_ok = True
    for i, v in enumerate(S.vertices):
        facet = hrep.facets[i]
        touch = vscale(Fraction(-1, count - 1), v)
        if dot(facet.normal, touch) != facet.rhs or norm(touch, ball) != 1:
            touching_ok = False
    items.append(
        _item(
            "unit_ball_inscribed",
            "unit ball inside the simplex, touching every facet",
            f"contained: {ball_inside}, every facet touched at a unit vector: {touching_ok}",
            ball_inside and touching_ok,
        )
    )

    if mode == "exact":
        thick, _ = thickness(S, ball, "exact_lp")
        bounds = None
        thick_ok = thick == 2
        computed = f"thickness {fmt_rat(thick)} (exact_lp)"
        if n == 2:
            cross, _ = thickness(S, ball, "difference_body")
            thick_ok = thick_ok and cross == thick
            computed += f", difference_body cross-check {fmt_rat(cross)}"
    else:
        lower = 2 * inball_scale(hrep, ball)
        upper = width(S, unit_vec(dim, 2 ** (n - 1) - 1), ball)
        bounds = (lower, upper)
        thick = lower
        thick_ok = lower == upper == 2
        computed = (
            f"lower bound 2*inball_scale = {fmt_rat(lower)}, "
            f"upper bound width = {fmt_rat(upper)}"
        )
    items.append(_item("thickness", "2", computed, thick_ok))

    certified = thick if bounds is None or bounds[0] == bounds[1] else None
    cut = Halfspace((1,) * dim, 1)
    witness = _verify_cut(S, cut, ball, certified, hrep)
    items.append(
        _item(
            "reduction_witness",
            "valid, removing exactly the all-ones vertex",
            f"valid {str(witness.valid).lower()}, removed {list(witness.removed_vertices)}, "
            f"thickness {fmt_rat(witness.thickness_before)} -> {fmt_rat(witness.thickness_after)}",
            witness.valid and witness.removed_vertices == (0,),
        )
    )

    if mode == "exact":
        comp_report = is_complete(S, ball)
        complete = comp_report.complete
        items.append(_item("complete", "true", str(complete).lower(), complete))
    else:
        complete = None
        items.append(
            _item(
                "complete",
                "true",
                "skipped (certificate mode: the ball hull has 2^dim facets)",
                True,
            )
        )

    ratio = exact_div(thick, diam)
    items.append(
        _item(
            "thickness_diameter_ratio",
            f"2^(1-n) = {Fraction(2, count)}",
            fmt_rat(ratio),
            ratio == Fraction(2, count),
        )
    )

    return PropositionReport(
        n=n,
        dim=dim,
        mode=mode,
        items=tuple(items),
        diameter=diam,
        thickness=thick,
        thickness_bounds=bounds,
        ratio=ratio,
        complete=complete,
        vertex_facet_distances=tuple(plane_dists),
        witness=witness,
        ok=all(i.passed for i in items),
    )

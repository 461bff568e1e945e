"""Widths, diameters, inscribed scales, and thickness in both modes."""

import random
from fractions import Fraction

import pytest

from minkgeom import metrics
from minkgeom.completeness import verify_reduction_witness
from minkgeom.errors import DegenerateBody, DimensionMismatch, OriginNotInterior, SizeLimitExceeded
from minkgeom.metrics import (
    THICKNESS_MAX_LPS,
    MetricsReport,
    diameter,
    inball_scale,
    metrics_report,
    thickness,
    width,
)
from minkgeom.norms import custom_ball, l1_ball, linf_ball, norm
from minkgeom.polytope import (
    HPolytope,
    VPolytope,
    cut_polytope,
    facets_of,
    halfspace,
    simplex_hrep,
)
from minkgeom.qlinalg import unit_vec, vsub

from conftest import random_body, random_simplex


class TestWidth:
    def test_tetrahedron_axis_width(self, K, ball3):
        assert width(K, (1, 0, 0), ball3) == 2

    def test_tetrahedron_facet_width(self, K, ball3):
        # Between the planes (1,1,1).x = 1 and (1,1,1).x = -3.
        assert width(K, (1, 1, 1), ball3) == 4

    def test_width_is_even_in_direction(self, K, ball3):
        assert width(K, (1, 1, 1), ball3) == width(K, (-1, -1, -1), ball3)

    def test_scaling_the_direction_changes_nothing(self, K, ball3):
        assert width(K, (2, 0, 0), ball3) == width(K, (1, 0, 0), ball3)

    def test_zero_direction_rejected(self, K, ball3):
        with pytest.raises(DimensionMismatch):
            width(K, (0, 0, 0), ball3)

    def test_cube_width_under_linf(self, cube3, box3):
        assert width(cube3, (1, 0, 0), box3) == 2
        assert width(cube3, (1, 1, 1), box3) == 2


class TestDiameter:
    def test_tetrahedron(self, K, ball3):
        d, pair = diameter(K, ball3)
        assert d == 4
        assert pair == (0, 1)
        assert norm(vsub(K.vertices[1], K.vertices[0]), ball3) == 4

    def test_tetrahedron_under_linf(self, K, box3):
        d, _ = diameter(K, box3)
        assert d == 2

    def test_single_point(self, ball3):
        P = VPolytope(3, ((1, 2, 3),))
        assert diameter(P, ball3) == (0, (0, 0))

    def test_segment(self):
        P = VPolytope(2, ((0, 0), (3, 4)))
        d, pair = diameter(P, l1_ball(2))
        assert d == 7
        assert pair == (0, 1)

    def test_witness_is_first_attaining_pair(self, cube3, ball3):
        d, (i, j) = diameter(cube3, ball3)
        assert d == 6
        assert norm(vsub(cube3.vertices[j], cube3.vertices[i]), ball3) == 6
        verts = cube3.vertices
        for a in range(len(verts)):
            done = False
            for b in range(a + 1, len(verts)):
                dist = norm(vsub(verts[b], verts[a]), ball3)
                if dist == d:
                    assert (i, j) == (a, b)
                    done = True
                    break
            if done:
                break


class TestInballScale:
    def test_tetrahedron(self, K, ball3):
        assert inball_scale(simplex_hrep(K), ball3) == 1

    def test_cube(self, cube3, ball3):
        assert inball_scale(facets_of(cube3), ball3) == 1

    def test_fractional_scale(self, ball3):
        P = VPolytope(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (Fraction(-1, 3),) * 3))
        H = simplex_hrep(P)
        s = inball_scale(H, ball3)
        assert 0 < s < 1

    def test_origin_on_boundary_rejected(self, ball3):
        P = VPolytope(3, ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)))
        with pytest.raises(OriginNotInterior) as exc:
            inball_scale(simplex_hrep(P), ball3)
        assert exc.value.facet is not None

    def test_origin_outside_rejected(self, ball3):
        P = VPolytope(3, ((5, 5, 5), (6, 5, 5), (5, 6, 5), (5, 5, 6)))
        with pytest.raises(OriginNotInterior):
            inball_scale(simplex_hrep(P), ball3)


class TestThickness:
    def test_tetrahedron_both_modes(self, K, ball3):
        t_lp, u_lp = thickness(K, ball3, "exact_lp")
        t_db, u_db = thickness(K, ball3, "difference_body")
        assert t_lp == t_db == 2
        assert width(K, u_lp, ball3) == 2
        assert width(K, u_db, ball3) == 2

    def test_cube_both_modes(self, cube3, ball3):
        t_lp, _ = thickness(cube3, ball3, "exact_lp")
        t_db, _ = thickness(cube3, ball3, "difference_body")
        assert t_lp == t_db == 2

    def test_halved_tetrahedron_is_thinner(self, K, ball3):
        # Cutting K at z <= 0 leaves a body of thickness 1: the slab between
        # z = -1 and z = 0 is the narrowest direction.
        Q = cut_polytope(K, halfspace((0, 0, 1), 0))
        t_lp, u_lp = thickness(Q, ball3, "exact_lp")
        t_db, _ = thickness(Q, ball3, "difference_body")
        assert t_lp == t_db == 1
        assert width(Q, u_lp, ball3) == 1

    def test_crosspolytope_under_linf(self, box3):
        # Along (1,1,1) the crosspolytope spans [-1, 1] in support value while
        # the l1 dual norm of the direction is 3, so the width there is 2/3,
        # beating the axis width 2.
        P = VPolytope(3, l1_ball(3).ball_v.vertices)
        t_lp, u_lp = thickness(P, box3, "exact_lp")
        t_db, _ = thickness(P, box3, "difference_body")
        assert t_lp == t_db == Fraction(2, 3)
        assert width(P, u_lp, box3) == Fraction(2, 3)

    def test_translation_invariance(self, K, ball3):
        shift = (3, -2, 5)
        Kt = VPolytope(3, tuple(tuple(a + b for a, b in zip(v, shift)) for v in K.vertices))
        assert thickness(Kt, ball3)[0] == thickness(K, ball3)[0]
        assert diameter(Kt, ball3)[0] == diameter(K, ball3)[0]

    def test_scaling_homogeneity(self, K, ball3):
        K2 = VPolytope(3, tuple(tuple(2 * x for x in v) for v in K.vertices))
        assert thickness(K2, ball3)[0] == 2 * thickness(K, ball3)[0]
        assert diameter(K2, ball3)[0] == 2 * diameter(K, ball3)[0]

    def test_modes_agree_on_random_simplices(self, ball3):
        rng = random.Random(7)
        cases = [(random_simplex(rng, 3), ball3) for _ in range(5)]
        # A hexagonal prism: a custom ball with facets of two shapes.
        hexagon = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))
        sides = ((1, 1), (-1, -1), (1, 0), (-1, 0), (0, 1), (0, -1))
        prism = custom_ball(
            VPolytope(3, tuple(p + (z,) for p in hexagon for z in (1, -1))),
            HPolytope(3, tuple(halfspace(a + (0,), 1) for a in sides)
                      + (halfspace((0, 0, 1), 1), halfspace((0, 0, -1), 1))),
        )
        bodies = [random_body(rng, d, d + 1 + extra) for d in (3, 4) for extra in (0, 1, 2)]
        cases += [(P, ball) for P in bodies[:3] for ball in (ball3, linf_ball(3), prism)]
        cases += [(P, ball) for P in bodies[3:] for ball in (l1_ball(4), linf_ball(4))]
        cases.append((random_body(rng, 5, 7), linf_ball(5)))
        for P, ball in cases:
            t_lp, u_lp = thickness(P, ball, "exact_lp")
            t_db, u_db = thickness(P, ball, "difference_body")
            assert t_lp == t_db
            assert width(P, u_lp, ball) == t_lp
            assert width(P, u_db, ball) == t_lp

    def test_flat_body_rejected(self, ball3):
        P = VPolytope(3, ((0, 0, 0), (1, 0, 0), (0, 1, 0)))
        with pytest.raises(DegenerateBody):
            thickness(P, ball3)

    def test_unknown_mode_rejected(self, K, ball3):
        with pytest.raises(ValueError):
            thickness(K, ball3, "fast")

    def test_thickness_at_most_any_width(self, K, ball3):
        t, _ = thickness(K, ball3)
        for u in ((1, 0, 0), (1, 1, 0), (1, 1, 1), (2, -1, 3)):
            assert t <= width(K, u, ball3)


class TestThicknessGate:
    """The exact_lp family is gated on its piece LPs, before the first one."""

    class LpReached(Exception):
        pass

    @pytest.fixture
    def no_lp(self, monkeypatch):
        def refuse(problem):
            raise self.LpReached

        monkeypatch.setattr(metrics, "lp_max", refuse)

    @staticmethod
    def corner_simplex(dim):
        return VPolytope(dim, ((0,) * dim,) + tuple(unit_vec(dim, i) for i in range(dim)))

    def test_linf_past_the_gate_solves_no_lp(self, no_lp):
        # linf in d = 16 passes BALL_MAX_DIM, but its 2^16 vertices mean
        # 32,768 piece LPs
        P = self.corner_simplex(16)
        with pytest.raises(SizeLimitExceeded, match="thickness needs 32768 piece LPs"):
            thickness(P, linf_ball(16))
        with pytest.raises(SizeLimitExceeded, match="32768 piece LPs"):
            verify_reduction_witness(P, halfspace((1,) * 16, Fraction(1, 2)), linf_ball(16))

    def test_gate_bounds_the_piece_count(self, no_lp):
        # linf in d = 11 is 2^10 = THICKNESS_MAX_LPS pieces, let through to
        # its first LP; d = 12 is twice that
        assert THICKNESS_MAX_LPS == 1024
        with pytest.raises(self.LpReached):
            thickness(self.corner_simplex(11), linf_ball(11))
        with pytest.raises(SizeLimitExceeded, match="2048 piece LPs, gated to <= 1024"):
            thickness(self.corner_simplex(12), linf_ball(12))


class TestMetricsReport:
    def test_tetrahedron_report(self, K, ball3):
        rep = metrics_report(K, ball3)
        assert rep.diameter == 4
        assert rep.thickness == 2
        assert rep.inball_scale == 1
        assert rep.inball_note is None
        assert rep.thickness_mode == "exact_lp"

    def test_report_obj_is_json_ready(self, K, ball3):
        import json

        obj = metrics_report(K, ball3).to_obj()
        text = json.dumps(obj)
        assert '"diameter": "4"' in text

    def test_origin_not_interior_becomes_note(self, ball3):
        P = VPolytope(3, ((5, 5, 5), (6, 5, 5), (5, 6, 5), (5, 5, 6)))
        rep = metrics_report(P, ball3)
        assert rep.inball_scale is None
        assert rep.inball_note is not None
        assert rep.thickness is not None

    def test_difference_body_mode_report(self, K, ball3):
        rep = metrics_report(K, ball3, "difference_body")
        assert rep.thickness == 2
        assert rep.thickness_mode == "difference_body"

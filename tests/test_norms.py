"""Polyhedral norms: ball construction, norm axioms, dual supports, distances."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minkgeom.errors import DimensionMismatch, GeometryError, SizeLimitExceeded
from minkgeom.norms import (
    BALL_MAX_DIM,
    custom_ball,
    dual_support,
    l1_ball,
    linf_ball,
    norm,
    parallel_hyperplane_distance,
    point_hyperplane_distance,
)
from minkgeom.polytope import HPolytope, VPolytope, contains, halfspace
from minkgeom.qlinalg import vscale

rational = st.fractions(
    min_value=Fraction(-30), max_value=Fraction(30), max_denominator=12
)


def vec_strategy(dim):
    return st.tuples(*([rational] * dim))


def hexagon_ball():
    """The planar norm max(|x|, |y|, |x + y|)."""
    V = VPolytope(2, ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)))
    H = HPolytope(
        2,
        tuple(
            halfspace(a, 1)
            for a in ((1, 1), (-1, -1), (1, 0), (-1, 0), (0, 1), (0, -1))
        ),
    )
    return custom_ball(V, H)


BALLS_2D = {
    "l1": l1_ball(2),
    "linf": linf_ball(2),
    "hexagon": hexagon_ball(),
}


class TestBallConstruction:
    def test_l1_structure(self):
        b = l1_ball(3)
        assert set(b.ball_v.vertices) == {
            (1, 0, 0), (0, 1, 0), (0, 0, 1),
            (-1, 0, 0), (0, -1, 0), (0, 0, -1),
        }
        assert len(b.ball_h.facets) == 8
        assert all(f.rhs == 1 for f in b.ball_h.facets)
        assert b.kind == "l1"

    def test_linf_structure(self):
        b = linf_ball(2)
        assert set(b.ball_v.vertices) == {(1, 1), (1, -1), (-1, 1), (-1, -1)}
        assert {(f.normal, f.rhs) for f in b.ball_h.facets} == {
            ((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1),
        }

    def test_dim_gate(self):
        with pytest.raises(SizeLimitExceeded):
            l1_ball(BALL_MAX_DIM + 1)
        with pytest.raises(DimensionMismatch):
            linf_ball(0)

    def test_custom_ball_accepts_consistent_pair(self):
        b = hexagon_ball()
        assert b.dim == 2
        assert b.kind == "custom"

    def test_custom_ball_rejects_asymmetric_vertices(self):
        V = VPolytope(2, ((1, 0), (0, 1), (-1, 0)))
        H = HPolytope(2, (halfspace((0, 1), 1), halfspace((0, -1), 1),
                          halfspace((1, 0), 1), halfspace((-1, 0), 1)))
        with pytest.raises(GeometryError):
            custom_ball(V, H)

    def test_custom_ball_rejects_origin_on_boundary(self):
        V = VPolytope(1, ((1,), (-1,)))
        H = HPolytope(1, (halfspace((1,), 1), halfspace((-1,), 0)))
        with pytest.raises(GeometryError):
            custom_ball(V, H)

    def test_custom_ball_rejects_vertex_outside_facets(self):
        V = VPolytope(2, ((2, 0), (-2, 0), (0, 1), (0, -1)))
        H = HPolytope(2, (halfspace((1, 0), 1), halfspace((-1, 0), 1),
                          halfspace((0, 1), 1), halfspace((0, -1), 1)))
        with pytest.raises(GeometryError):
            custom_ball(V, H)

    def test_custom_ball_rejects_flat_ball(self):
        V = VPolytope(2, ((1, 0), (-1, 0)))
        H = HPolytope(2, (halfspace((1, 0), 1), halfspace((-1, 0), 1)))
        with pytest.raises(GeometryError):
            custom_ball(V, H)


class TestNormValues:
    def test_l1_values(self):
        b = l1_ball(3)
        assert norm((1, -2, 3), b) == 6
        assert norm((0, 0, 0), b) == 0
        assert norm((Fraction(1, 2), 0, 0), b) == Fraction(1, 2)

    def test_linf_values(self):
        b = linf_ball(3)
        assert norm((1, -2, 3), b) == 3
        assert norm((Fraction(2, 3), Fraction(1, 3), 0), b) == Fraction(2, 3)

    def test_hexagon_values(self):
        b = hexagon_ball()
        assert norm((1, 0), b) == 1
        assert norm((1, 1), b) == 2
        assert norm((1, -1), b) == 1
        assert norm((-3, 1), b) == 3

    def test_l1_fast_path_matches_generic(self):
        fast = l1_ball(3)
        generic = custom_ball(fast.ball_v, fast.ball_h)
        assert generic.kind == "custom"
        for v in ((1, -2, 3), (0, 0, 0), (Fraction(5, 7), -1, Fraction(1, 2))):
            assert norm(v, fast) == norm(v, generic)

    def test_dimension_checked(self):
        with pytest.raises(DimensionMismatch):
            norm((1, 0), l1_ball(3))


@pytest.mark.parametrize("name", sorted(BALLS_2D))
class TestNormAxioms:
    @settings(max_examples=100)
    @given(x=vec_strategy(2))
    def test_positive_definite(self, name, x):
        b = BALLS_2D[name]
        n = norm(x, b)
        if any(x):
            assert n > 0
        else:
            assert n == 0

    @settings(max_examples=100)
    @given(x=vec_strategy(2), t=rational)
    def test_homogeneous(self, name, x, t):
        b = BALLS_2D[name]
        assert norm(vscale(t, x), b) == abs(t) * norm(x, b)

    @settings(max_examples=100)
    @given(x=vec_strategy(2), y=vec_strategy(2))
    def test_triangle_inequality(self, name, x, y):
        b = BALLS_2D[name]
        assert norm(tuple(a + c for a, c in zip(x, y)), b) <= norm(x, b) + norm(y, b)

    @settings(max_examples=100)
    @given(x=vec_strategy(2))
    def test_unit_ball_membership(self, name, x):
        # norm(x) <= 1 exactly when x satisfies every facet inequality.
        b = BALLS_2D[name]
        assert (norm(x, b) <= 1) == contains(b.ball_h, x)


class TestDualSupport:
    def test_l1_dual_is_max_abs(self):
        b = l1_ball(3)
        assert dual_support((3, -5, 2), b) == 5

    def test_linf_dual_is_sum_abs(self):
        b = linf_ball(3)
        assert dual_support((3, -5, 2), b) == 10

    def test_ball_vertices_have_unit_norm(self):
        for b in BALLS_2D.values():
            for v in b.ball_v.vertices:
                assert norm(v, b) == 1


class TestHyperplaneDistances:
    def test_parallel_planes(self):
        b = l1_ball(3)
        assert parallel_hyperplane_distance((1, 1, 1), 1, -3, b) == 4
        assert parallel_hyperplane_distance((1, 1, 1), 1, 1, b) == 0

    def test_point_to_plane(self):
        b = l1_ball(3)
        assert point_hyperplane_distance((-1, -1, -1), (1, 1, 1), 1, b) == 4
        assert point_hyperplane_distance((1, 1, -1), (1, 1, 1), 1, b) == 0

    def test_scaling_the_normal_does_not_change_distance(self):
        b = l1_ball(2)
        assert parallel_hyperplane_distance((2, 0), 4, 0, b) == (
            parallel_hyperplane_distance((1, 0), 2, 0, b)
        )

    def test_zero_normal_rejected(self):
        b = l1_ball(2)
        with pytest.raises(GeometryError):
            parallel_hyperplane_distance((0, 0), 1, 0, b)
        with pytest.raises(GeometryError):
            point_hyperplane_distance((1, 1), (0, 0), 1, b)

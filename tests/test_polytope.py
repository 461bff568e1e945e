"""Polytope representations: supports, facet enumeration, cuts, JSON forms."""

from fractions import Fraction

import pytest

from minkgeom.errors import (
    DegenerateBody,
    DimensionMismatch,
    EmptyIntersection,
    SizeLimitExceeded,
    UnboundedRegion,
)
from minkgeom.polytope import (
    Halfspace,
    HPolytope,
    VPolytope,
    body_from_obj,
    body_to_obj,
    contains,
    cut_polytope,
    difference_body,
    extreme_points,
    facets_of,
    halfspace,
    halfspace_from_obj,
    halfspace_to_obj,
    hull_facets,
    is_simplex,
    is_subset,
    simplex_hrep,
    support,
)
from minkgeom.qlinalg import dot

from conftest import random_simplex


class TestVPolytope:
    def test_valid(self, K):
        assert K.dim == 3
        assert len(K.vertices) == 4

    def test_duplicate_vertices_rejected(self):
        with pytest.raises(ValueError):
            VPolytope(2, ((0, 0), (1, 1), (0, 0)))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            VPolytope(2, ((0, 0), (1, 1, 1)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            VPolytope(2, ())


class TestHalfspace:
    def test_canonicalization(self):
        h = halfspace((2, 4), 6)
        assert h.normal == (1, 2)
        assert h.rhs == 3

    def test_fractional_input_cleared(self):
        h = halfspace((Fraction(1, 2), Fraction(1, 3)), 1)
        assert h.normal == (3, 2)
        assert h.rhs == 6

    def test_direct_construction_requires_primitive(self):
        with pytest.raises(ValueError):
            Halfspace((2, 4), 6)

    def test_zero_normal_rejected(self):
        with pytest.raises(Exception):
            halfspace((0, 0), 1)

    def test_sign_not_flipped(self):
        h = halfspace((-2, 0), 4)
        assert h.normal == (-1, 0)
        assert h.rhs == 2


class TestSupport:
    def test_support_values(self, K):
        assert support(K, (1, 0, 0)) == 1
        assert support(K, (1, 1, 1)) == 1
        assert support(K, (-1, -1, -1)) == 3

    def test_dimension_checked(self, K):
        with pytest.raises(DimensionMismatch):
            support(K, (1, 0))


class TestSimplexHrep:
    def test_tetrahedron_facets_frozen(self, K):
        got = {(f.normal, f.rhs) for f in simplex_hrep(K).facets}
        assert got == {
            ((1, 1, 1), 1),
            ((-1, -1, 1), 1),
            ((-1, 1, -1), 1),
            ((1, -1, -1), 1),
        }

    def test_facet_k_opposite_vertex_k(self, K):
        H = simplex_hrep(K)
        for k, f in enumerate(H.facets):
            for j, v in enumerate(K.vertices):
                val = dot(f.normal, v)
                if j == k:
                    assert val < f.rhs
                else:
                    assert val == f.rhs

    def test_random_simplices_roundtrip(self):
        import random

        rng = random.Random(42)
        for dim in (2, 3, 4):
            for _ in range(5):
                P = random_simplex(rng, dim)
                H = simplex_hrep(P)
                assert len(H.facets) == dim + 1
                for v in P.vertices:
                    assert contains(H, v)
                for k, f in enumerate(H.facets):
                    tight = [j for j, v in enumerate(P.vertices) if dot(f.normal, v) == f.rhs]
                    assert tight == [j for j in range(dim + 1) if j != k]

    def test_non_simplex_rejected(self, cube3):
        with pytest.raises(DegenerateBody):
            simplex_hrep(cube3)

    def test_is_simplex(self, K, cube3):
        assert is_simplex(K)
        assert not is_simplex(cube3)
        flat = VPolytope(3, ((0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0)))
        assert not is_simplex(flat)


class TestContainsAndSubset:
    def test_contains(self, K):
        H = simplex_hrep(K)
        assert contains(H, (0, 0, 0))
        for v in K.vertices:
            assert contains(H, v)
        assert not contains(H, (2, 0, 0))

    def test_vbody_subset(self, K, cube3):
        Hcube = hull_facets(cube3.vertices, 3)
        assert is_subset(K, Hcube)
        big = VPolytope(3, tuple(tuple(2 * x for x in v) for v in cube3.vertices))
        assert not is_subset(big, Hcube)

    def test_hbody_subset_via_lp(self, K):
        HK = simplex_hrep(K)
        shrunk = HPolytope(3, tuple(Halfspace(f.normal, Fraction(1, 2)) for f in HK.facets))
        assert is_subset(shrunk, HK)
        assert not is_subset(HK, shrunk)

    def test_unbounded_region_raises(self):
        H = HPolytope(2, (Halfspace((1, 0), 1),))
        target = HPolytope(2, (Halfspace((0, 1), 1),))
        with pytest.raises(UnboundedRegion) as exc:
            is_subset(H, target)
        ray = exc.value.ray
        assert ray is not None
        assert dot((1, 0), ray) <= 0
        assert dot((0, 1), ray) > 0

    def test_empty_hbody_is_vacuous_subset(self):
        empty = HPolytope(1, (Halfspace((1,), 0), Halfspace((-1,), -1)))
        target = HPolytope(1, (Halfspace((1,), -5), Halfspace((-1,), -6)))
        assert is_subset(empty, target)


class TestCutSimplex:
    def test_tetrahedron_cut_frozen(self, K):
        # Cutting off the vertex (-1,-1,-1) at its three edge midpoints.
        cut = Halfspace((-1, -1, -1), 1)
        Q = cut_polytope(K, cut)
        assert set(Q.vertices) == {
            (1, 1, -1),
            (1, -1, 1),
            (-1, 1, 1),
            (0, 0, -1),
            (0, -1, 0),
            (-1, 0, 0),
        }

    def test_no_cut_returns_same_body(self, K):
        Q = cut_polytope(K, Halfspace((1, 0, 0), 5))
        assert Q.vertices == K.vertices

    def test_touching_cut_keeps_all_vertices(self, K):
        # support of K in (1,1,1) is 1, attained by three vertices.
        Q = cut_polytope(K, Halfspace((1, 1, 1), 1))
        assert Q.vertices == K.vertices

    def test_everything_removed_raises(self, K):
        with pytest.raises(EmptyIntersection):
            cut_polytope(K, Halfspace((1, 0, 0), -2))

    def test_fractional_crossing(self):
        # Segment from (0,0) to (3,0) cut at x <= 2 crosses at t = 2/3.
        P = VPolytope(2, ((0, 0), (3, 0), (0, 3)))
        Q = cut_polytope(P, Halfspace((1, 0), 2))
        assert set(Q.vertices) == {(0, 0), (0, 3), (2, 0), (2, 1)}


CUBE = tuple((x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1))
HALF_CUBE = CUBE[:4] + ((0, -1, -1), (0, -1, 1), (0, 1, -1), (0, 1, 1))


class TestCutPolytope:
    @pytest.mark.parametrize(
        "points, cut, expected",
        [
            # Of the 16 crossing points (segment midpoints) only the four
            # midpoints of face edges are extreme.
            (CUBE, Halfspace((1, 0, 0), 0), HALF_CUBE),
            # Two non-extreme points: the origin, kept on the boundary, and
            # (1/2, 0, 0), cut; the filter drops the origin and the crossing
            # points of (1/2, 0, 0).
            (CUBE + ((0, 0, 0), (Fraction(1, 2), 0, 0)), Halfspace((1, 0, 0), 0), HALF_CUBE),
            # x + y + z <= 1 removes (1, 1, 1); every crossing point lies in
            # the triangle spanned by its three neighbours.
            (CUBE, Halfspace((1, 1, 1), 1), CUBE[:7]),
        ],
    )
    def test_cube_cuts(self, points, cut, expected):
        assert cut_polytope(VPolytope(3, points), cut).vertices == expected


class TestDifferenceBody:
    def test_tetrahedron_difference_is_cuboctahedron(self, K):
        D = difference_body(K)
        assert (0, 0, 0) in D.vertices
        assert len(D.vertices) == 13
        ext = extreme_points(D.vertices, 3)
        assert len(ext) == 12
        assert (0, 0, 0) not in ext
        # The twelve extreme points are the edge midpoint directions scaled by 2.
        expected = {
            (2, 2, 0), (-2, -2, 0), (2, 0, 2), (-2, 0, -2),
            (0, 2, 2), (0, -2, -2), (2, 0, -2), (-2, 0, 2),
            (0, 2, -2), (0, -2, 2), (2, -2, 0), (-2, 2, 0),
        }
        assert set(ext) == expected

    def test_difference_body_centrally_symmetric(self, K):
        D = difference_body(K)
        pts = set(D.vertices)
        for p in pts:
            assert tuple(-x for x in p) in pts


class TestHullFacets:
    def test_square_with_interior_point(self):
        pts = ((0, 0), (2, 0), (2, 2), (0, 2), (1, 1))
        H = hull_facets(pts, 2)
        got = {(f.normal, f.rhs) for f in H.facets}
        assert got == {((1, 0), 2), ((-1, 0), 0), ((0, 1), 2), ((0, -1), 0)}

    def test_cuboctahedron_facets(self, K):
        D = difference_body(K)
        H = hull_facets(D.vertices, 3)
        got = {(f.normal, f.rhs) for f in H.facets}
        axis = {(tuple(s * e for e in u), 2) for u in ((1, 0, 0), (0, 1, 0), (0, 0, 1)) for s in (1, -1)}
        corner = {((sx, sy, sz), 4) for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)}
        assert got == axis | corner
        assert len(H.facets) == 14

    def test_supporting_hyperplane_through_edge_dropped(self):
        # (1,1,0) lies inside the segment from the origin to (2,2,0); the
        # plane y = x supports the hull exactly along that edge, so it must
        # not be reported as a facet.
        pts = ((0, 0, 0), (1, 1, 0), (2, 2, 0), (3, 0, 0), (1, 0, 5))
        H = hull_facets(pts, 3)
        for f in H.facets:
            tight = [p for p in pts if dot(f.normal, p) == f.rhs]
            assert len(tight) >= 3
        assert ((-1, 1, 0), 0) not in {(f.normal, f.rhs) for f in H.facets}
        for p in pts:
            assert contains(H, p)

    def test_degenerate_points_rejected(self):
        with pytest.raises(DegenerateBody):
            hull_facets(((0, 0, 0), (1, 0, 0), (0, 1, 0)), 3)

    def test_dimension_gate(self):
        pts = tuple(tuple(1 if i == j else 0 for j in range(9)) for i in range(9))
        pts = pts + ((0,) * 9,)
        with pytest.raises(SizeLimitExceeded):
            hull_facets(pts, 9)

    def test_facets_of_dispatches(self, K, cube3):
        assert {(f.normal, f.rhs) for f in facets_of(K).facets} == {
            (f.normal, f.rhs) for f in simplex_hrep(K).facets
        }
        Hcube = facets_of(cube3)
        assert len(Hcube.facets) == 6


class TestExtremePoints:
    def test_interior_and_edge_points_dropped(self):
        pts = ((0, 0), (4, 0), (4, 4), (0, 4), (2, 2), (2, 0))
        assert extreme_points(pts, 2) == ((0, 0), (4, 0), (4, 4), (0, 4))

    def test_all_extreme_preserved_in_order(self, K):
        assert extreme_points(K.vertices, 3) == K.vertices

    def test_single_point(self):
        assert extreme_points(((5, 5),), 2) == ((5, 5),)


class TestJson:
    def test_halfspace_roundtrip(self):
        h = halfspace((3, -6), Fraction(1, 2))
        obj = halfspace_to_obj(h)
        assert obj == {"a": ("1", "-2"), "b": "1/6"}
        assert halfspace_from_obj({"a": ["1", "-2"], "b": "1/6"}) == h

    def test_vbody_roundtrip(self, K):
        obj = body_to_obj(K)
        back = body_from_obj(obj)
        assert back == K

    def test_hbody_roundtrip(self, K):
        H = simplex_hrep(K)
        back = body_from_obj(body_to_obj(H))
        assert back == H

    def test_floats_rejected(self):
        with pytest.raises(ValueError):
            body_from_obj({"dim": 2, "vertices": [[0.5, 0], [1, 0], [0, 1]]})

    def test_bad_dim_rejected(self):
        with pytest.raises(ValueError):
            body_from_obj({"dim": "3", "vertices": [["0", "0", "0"]]})
        with pytest.raises(ValueError):
            body_from_obj({"dim": True, "vertices": [["0"]]})

    def test_missing_fields_rejected(self):
        with pytest.raises(ValueError):
            body_from_obj({"dim": 2})
        with pytest.raises(ValueError):
            halfspace_from_obj({"a": ["1"]})

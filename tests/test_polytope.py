"""Polytope representations: supports, facet enumeration, cuts, JSON forms."""

import ast
import importlib.util
import random
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from minkgeom import polytope
from minkgeom.errors import (
    CertificateError,
    DegenerateBody,
    DimensionMismatch,
    EmptyIntersection,
    SizeLimitExceeded,
    UnboundedRegion,
)
from minkgeom.lp import OPTIMAL, LpProblem, lp_max
from minkgeom.polytope import (
    Halfspace,
    HPolytope,
    VPolytope,
    body_from_obj,
    body_to_obj,
    contains,
    cut_polytope,
    difference_body,
    facets_of,
    halfspace,
    halfspace_from_obj,
    halfspace_to_obj,
    hull_facets,
    is_subset,
    simplex_hrep,
    support,
)
from minkgeom.qlinalg import affine_rank, dot, vneg
from minkgeom.walsh import walsh_matrix

from conftest import random_body, random_simplex


def _load_reference_linalg():
    """bench/linalg.py: plain Fraction elimination, sharing no code with qlinalg."""
    path = Path(__file__).resolve().parents[1] / "bench" / "linalg.py"
    spec = importlib.util.spec_from_file_location("reference_linalg", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ref = _load_reference_linalg()


def brute_force_facets(points, dim):
    """Facets of conv(points) from every dim-subset of the points, sorted.

    Each subset spans a candidate hyperplane a . x = beta; it is a facet when
    every point lies on one side and the tight points span the hyperplane.
    The linear algebra is the reference's, so a fault in the library's
    elimination kernel cannot hide in the oracle too.
    """
    pts = list(dict.fromkeys(tuple(p) for p in points))
    found = set()
    for combo in combinations(pts, dim):
        kv = ref.null_vector([p + (1,) for p in combo], dim + 1)
        a, beta = kv[:dim], -kv[dim]
        vals = [ref.dot(a, p) for p in pts]
        if max(vals) > beta:
            if min(vals) < beta:
                continue
            a, beta = [-x for x in a], -beta
        tight = [p for p in pts if ref.dot(a, p) == beta]
        if ref.affine_rank(tight) == dim - 1:
            found.add(halfspace(a, beta))
    return tuple(sorted(found, key=lambda h: (h.normal, h.rhs)))


def extreme_points(points, dim) -> tuple:
    """Filter a point set down to the vertices of its convex hull, by LP.

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
        res = lp_max(LpProblem(tuple(p) + (-1,), tuple(cons)))
        assert res.status == OPTIMAL, "separation LP must be optimal"
        if res.optimum > 0:
            out.append(p)
    return tuple(out)


def lp_cut(P, h):
    """The points of P ∩ {h} by the LP route, or P when nothing is cut.

    Kept points, then the crossing point of every segment from a strictly cut
    point to a strictly kept one, filtered by extreme_points.
    """
    vals = [dot(h.normal, v) - h.rhs for v in P.vertices]
    kept = [v for v, val in zip(P.vertices, vals) if val <= 0]
    if not kept:
        raise EmptyIntersection("the cut removes every vertex")
    if len(kept) == len(P.vertices):
        return P
    pts = dict.fromkeys(kept)
    for vi, a in zip(P.vertices, vals):
        for vj, b in zip(P.vertices, vals):
            if a > 0 > b:
                t = Fraction(a, 1) / (a - b)
                pts.setdefault(tuple(x + t * (y - x) for x, y in zip(vi, vj)))
    return extreme_points(pts, P.dim)


def _oracle_cases():
    rng = random.Random(20)
    cases = []

    def add(name, dim, points):
        cases.append(pytest.param(dim, tuple(points), id=name))

    for d in (2, 3, 4):
        for k in range(3):
            P = random_body(rng, d, d + 1 + k)
            centroid = tuple(Fraction(sum(c), len(P.vertices)) for c in zip(*P.vertices))
            # duplicates and an interior point, then the same body in fractions
            add(f"int-d{d}-{k}", d, P.vertices + P.vertices[:2] + (centroid,))
            add(f"rational-d{d}-{k}", d, (
                tuple(Fraction(x, rng.randint(1, 6)) for x in p) for p in P.vertices
            ))
            if d + k <= 4:
                add(f"difference-d{d}-{k}", d, difference_body(P).vertices)
        add(f"cube-d{d}", d, tuple(product((-1, 1), repeat=d)) + ((0,) * d,))
        # a prism over a random simplex: its side facets are quadrilaterals
        base = random_simplex(rng, d - 1).vertices
        add(f"prism-d{d}", d, (p + (z,) for p in base for z in (-2, 3)))
    faces = (tuple(s if i == j else 0 for i in range(3)) for j in range(3) for s in (-1, 1))
    add("cube-d3-face-centres", 3, tuple(product((-1, 1), repeat=3)) + tuple(faces))
    K = VPolytope(3, ((-1, -1, -1), (1, 1, -1), (1, -1, 1), (-1, 1, 1)))
    add("cuboctahedron", 3, difference_body(K).vertices)
    # points of {0, 1, 2}^4 lie three to a line, so dim - 1 common tight points
    # need not span a ridge; on these samples a hull that skips the third-ray
    # adjacency test returns extra facets
    grid = list(product(range(3), repeat=4))
    for seed in (0, 1, 5, 20):
        add(f"grid-d4-{seed}", 4, random.Random(seed).sample(grid, 14))
    return cases


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

    @pytest.mark.parametrize(
        "vertices",
        [((0.5, 0), (0, 0), (0, 1)), ((True, 0), (0, 0), (0, 1))],
        ids=["float", "bool"],
    )
    def test_non_rational_coordinates_rejected(self, vertices):
        with pytest.raises(ValueError, match="floats are not accepted"):
            VPolytope(2, vertices)

    def test_mixed_int_and_fraction_accepted(self):
        P = VPolytope(2, ((Fraction(1, 2), 0), (0, 0), (0, Fraction(3))))
        assert P.vertices[0] == (Fraction(1, 2), 0)


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
        rng = random.Random(42)
        for dim in (1, 2, 3, 4, 5):
            for _ in range(5):
                while True:
                    verts = tuple(
                        tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(dim))
                        for _ in range(dim + 1)
                    )
                    if len(set(verts)) == dim + 1 and affine_rank(verts) == dim:
                        break
                P = VPolytope(dim, verts)
                H = simplex_hrep(P)
                assert len(H.facets) == dim + 1
                for v in P.vertices:
                    assert contains(H, v)
                for k, f in enumerate(H.facets):
                    tight = [j for j, v in enumerate(P.vertices) if dot(f.normal, v) == f.rhs]
                    assert tight == [j for j in range(dim + 1) if j != k]
                by_normal = sorted(H.facets, key=lambda h: (h.normal, h.rhs))
                assert tuple(by_normal) == brute_force_facets(verts, dim)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_walsh_facet_k_is_minus_vertex_k(self, n):
        # Hadamard orthogonality gives v_j . v_k = -1 for j != k, so the facet
        # opposite v_k is -v_k . x <= 1; walsh_simplex is gated below n = 5
        verts = tuple(row[1:] for row in walsh_matrix(n))
        H = simplex_hrep(VPolytope(2**n - 1, verts))
        assert H.facets == tuple(Halfspace(vneg(v), 1) for v in verts)

    def test_non_simplex_rejected(self, cube3):
        with pytest.raises(DegenerateBody):
            simplex_hrep(cube3)
        coplanar = VPolytope(3, ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)))
        with pytest.raises(DegenerateBody, match="affinely dependent"):
            simplex_hrep(coplanar)


class TestContainsAndSubset:
    def test_contains(self, K):
        H = simplex_hrep(K)
        assert contains(H, (0, 0, 0))
        for v in K.vertices:
            assert contains(H, v)
        assert not contains(H, (2, 0, 0))

    def test_vbody_subset(self, K, cube3):
        Hcube = hull_facets(cube3.vertices)
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


def _lp_entry_points_refused(monkeypatch):
    """Make every LP in the package raise: each solve builds a _Simplex."""
    import minkgeom.lp

    def refuse(*args, **kwargs):
        raise AssertionError("an LP was solved")

    monkeypatch.setattr(minkgeom.lp._Simplex, "__init__", refuse)
    for name in ("lp.lp_max", "polytope.lp_max"):
        monkeypatch.setattr(f"minkgeom.{name}", refuse)


PRISM = tuple(p + (z,) for p in ((0, 0), (3, 0), (0, 2)) for z in (-1, 2))
OCTAHEDRON = tuple(tuple(s if i == j else 0 for i in range(3)) for j in range(3) for s in (2, -2))


class TestCutByEdges:
    """cut_polytope against lp_cut, the LP route it replaced, as the oracle."""

    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), dim=st.integers(2, 4))
    def test_matches_the_lp_route(self, data, dim):
        point = st.tuples(*[st.integers(-4, 4)] * dim)
        points = data.draw(st.lists(point, min_size=dim + 1, max_size=dim + 4, unique=True))
        assume(affine_rank(points) == dim)
        if data.draw(st.booleans(), label="with non-vertex points"):
            pick = st.sampled_from(points)
            pairs = data.draw(st.lists(st.tuples(pick, pick), max_size=3))
            points += [tuple(Fraction(x + y, 2) for x, y in zip(p, q)) for p, q in pairs if p != q]
            points.append(tuple(Fraction(sum(c), len(points)) for c in zip(*points)))
        P = VPolytope(dim, tuple(dict.fromkeys(points)))
        normal = data.draw(st.tuples(*[st.integers(-3, 3)] * dim).filter(any), label="normal")
        through = data.draw(st.none() | st.sampled_from(P.vertices), label="through")
        rhs = data.draw(st.integers(-12, 12)) if through is None else dot(normal, through)
        h = halfspace(normal, rhs)
        try:
            expected = lp_cut(P, h)
        except EmptyIntersection:
            with pytest.raises(EmptyIntersection):
                cut_polytope(P, h)
            return
        got = cut_polytope(P, h)
        if expected is P:
            assert got is P
            return
        assert set(got.vertices) == set(expected)
        if extreme_points(P.vertices, dim) == P.vertices:
            assert got.vertices == expected

    @pytest.mark.parametrize(
        "points, cut",
        [
            (CUBE, Halfspace((1, 0, 0), 0)),
            (CUBE + ((0, 0, 0), (Fraction(1, 2), 0, 0)), Halfspace((1, 0, 0), 0)),
            (CUBE, Halfspace((1, 1, 1), 1)),
            (CUBE, Halfspace((1, 1, 0), 0)),  # through four vertices
            (PRISM, Halfspace((1, 1, 1), 2)),
            (OCTAHEDRON + ((0, 0, 0),), Halfspace((1, 1, 1), 1)),
        ],
        ids=[
            "cube-half", "cube-non-vertices", "cube-corner", "cube-diagonal", "prism", "octahedron"
        ],
    )
    def test_solves_no_lp(self, monkeypatch, points, cut):
        P = VPolytope(3, points)
        expected = lp_cut(P, cut)
        _lp_entry_points_refused(monkeypatch)
        with pytest.raises(AssertionError, match="an LP was solved"):
            lp_max(LpProblem((1,), (((1,), 1),)))
        assert set(cut_polytope(P, cut).vertices) == set(expected)

    def test_diagonal_of_a_square_face_is_no_edge(self):
        # In the square times a square pyramid (d = 5), the square at the apex
        # lies in four facets, so its diagonal corners share d - 1 facets;
        # only a third vertex (another corner) shows that they span no edge.
        # Up to d = 4, d - 1 common facets of two vertices always make an edge.
        pyramid = ((1, 1, 0), (1, -1, 0), (-1, 1, 0), (-1, -1, 0), (0, 0, 1))
        P = VPolytope(5, tuple(s + q for s in product((1, -1), repeat=2) for q in pyramid))
        cut = Halfspace((1, 1, 0, 0, 1), 2)  # removes only the corner (1, 1) at the apex
        Q = cut_polytope(P, cut)
        assert set(Q.vertices) == set(lp_cut(P, cut))
        assert (Fraction(1, 2), Fraction(1, 2), 0, 0, 1) not in Q.vertices

    def test_flat_body_is_degenerate(self):
        # a square in the plane z = 0: not a simplex, and it has no facets
        square = VPolytope(3, ((0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0)))
        with pytest.raises(DegenerateBody):
            cut_polytope(square, Halfspace((1, 0, 0), 1))


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


def _ray_in(info):
    """The ray (a, beta) named by a hull_facets CertificateError."""
    message = str(info.value)
    return ast.literal_eval(message[message.index("("):])


class TestHullFacets:
    def test_square_with_interior_point(self):
        pts = ((0, 0), (2, 0), (2, 2), (0, 2), (1, 1))
        H = hull_facets(pts)
        got = {(f.normal, f.rhs) for f in H.facets}
        assert got == {((1, 0), 2), ((-1, 0), 0), ((0, 1), 2), ((0, -1), 0)}

    def test_cuboctahedron_facets(self, K):
        D = difference_body(K)
        H = hull_facets(D.vertices)
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
        H = hull_facets(pts)
        for f in H.facets:
            tight = [p for p in pts if dot(f.normal, p) == f.rhs]
            assert len(tight) >= 3
        assert ((-1, 1, 0), 0) not in {(f.normal, f.rhs) for f in H.facets}
        for p in pts:
            assert contains(H, p)

    def test_degenerate_points_rejected(self):
        with pytest.raises(DegenerateBody):
            hull_facets(((0, 0, 0), (1, 0, 0), (0, 1, 0)))

    def test_dimension_gate(self):
        pts = tuple(tuple(1 if i == j else 0 for j in range(9)) for i in range(9))
        pts = pts + ((0,) * 9,)
        with pytest.raises(SizeLimitExceeded):
            hull_facets(pts)

    def test_eight_cube_at_the_gate(self):
        H = hull_facets(tuple(product((-1, 1), repeat=8)))
        units = [tuple(1 if i == j else 0 for j in range(8)) for i in range(8)]
        assert {(f.normal, f.rhs) for f in H.facets} == {
            (tuple(s * x for x in u), 1) for u in units for s in (1, -1)
        }
        assert len(H.facets) == 16

    @pytest.mark.parametrize("dim, points", _oracle_cases())
    def test_matches_brute_force_oracle(self, dim, points):
        assert hull_facets(points).facets == brute_force_facets(points, dim)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), dim=st.integers(2, 4))
    def test_scaling_translation_and_order(self, data, dim):
        # x -> k x + t maps a . x <= beta to a . x <= k beta + a . t, a unchanged
        coord = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
        point = st.tuples(*[coord] * dim)
        points = data.draw(st.lists(point, min_size=dim + 1, max_size=dim + 5, unique=True))
        assume(affine_rank(points) == dim)
        k = data.draw(st.builds(Fraction, st.integers(1, 6), st.integers(1, 6)), label="k")
        t = data.draw(st.tuples(*[st.integers(-5, 5)] * dim), label="t")
        image = [tuple(k * x + y for x, y in zip(p, t)) for p in points]
        image = data.draw(st.permutations(image), label="image")
        expected = sorted(
            (Halfspace(f.normal, k * f.rhs + dot(f.normal, t)) for f in hull_facets(points).facets),
            key=lambda h: (h.normal, h.rhs),
        )
        assert hull_facets(image).facets == tuple(expected)

    def test_non_facet_ray_fails_the_rank_check(self, monkeypatch):
        # joining every (+, -) pair, adjacent or not, leaves valid rays whose
        # tight points span less than a hyperplane; with an edge midpoint
        # added, the first such ray is tight at three collinear points, so
        # only the rank tells it from a facet
        points = tuple(product((0, 2), repeat=3)) + ((2, 2, 1),)
        monkeypatch.setattr(
            polytope, "_adjacent_pairs", lambda masks, left, right, rank: product(left, right)
        )
        with pytest.raises(CertificateError, match="non-facet") as info:
            hull_facets(points)
        *a, beta = _ray_in(info)
        assert all(dot(a, p) <= beta for p in points)
        tight = [p for p in points if dot(a, p) == beta]
        assert len(tight) == 3 and affine_rank(tight) == 1

    def test_ray_with_a_point_beyond_fails_the_one_side_check(self, monkeypatch, K):
        # K is its own basis simplex, so the flipped ray reaches the end check
        # as it is: still tight at three vertices, with the fourth beyond it
        simplex_facets = polytope._simplex_facets

        def flip_first(points):
            (a, beta), *rest = simplex_facets(points)
            return [(vneg(a), -beta)] + rest

        monkeypatch.setattr(polytope, "_simplex_facets", flip_first)
        with pytest.raises(CertificateError, match="non-facet") as info:
            hull_facets(K.vertices)
        *a, beta = _ray_in(info)
        assert any(dot(a, p) > beta for p in K.vertices)
        assert affine_rank([p for p in K.vertices if dot(a, p) == beta]) == 2

    def test_facets_of_dispatches(self, K, cube3):
        assert {(f.normal, f.rhs) for f in facets_of(K).facets} == {
            (f.normal, f.rhs) for f in simplex_hrep(K).facets
        }
        Hcube = facets_of(cube3)
        assert len(Hcube.facets) == 6
        # d + 1 flat points are no simplex: they fail as any flat point set does
        message = "^points span an affine subspace of dimension 2 < 3$"
        for flat in (((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)),
                     ((0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0))):
            with pytest.raises(DegenerateBody, match=message):
                facets_of(VPolytope(3, flat))


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

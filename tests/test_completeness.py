"""Ball hulls, completeness decisions, and reduction witnesses."""

import random

import pytest

from conftest import random_body
from minkgeom import completeness, metrics
from minkgeom.completeness import (
    _family_chords,
    _verify_cut,
    ball_hull,
    is_complete,
    search_reduction_witness,
    verify_reduction_witness,
    vertex_diameter_realization,
)
from minkgeom.errors import CertificateError, DegenerateBody, EmptyIntersection
from minkgeom.metrics import diameter, inball_scale, thickness
from minkgeom.norms import dual_support, l1_ball, linf_ball
from minkgeom.polytope import (
    VPolytope,
    contains,
    cut_polytope,
    facets_of,
    halfspace,
    is_subset,
    support,
)
from minkgeom.qlinalg import dot, exact_div, vneg


class TestBallHull:
    def test_tetrahedron_hull_facets_frozen(self, K, ball3):
        H = ball_hull(K, 4, ball3)
        got = {(f.normal, f.rhs) for f in H.facets}
        tight = {((1, 1, 1), 1), ((-1, -1, 1), 1), ((-1, 1, -1), 1), ((1, -1, -1), 1)}
        slack = {((-1, -1, -1), 3), ((1, 1, -1), 3), ((1, -1, 1), 3), ((-1, 1, 1), 3)}
        assert got == tight | slack

    def test_body_inside_its_hull_at_diameter(self, K, cube3, ball3):
        for P in (K, cube3):
            d, _ = diameter(P, ball3)
            assert is_subset(P, ball_hull(P, d, ball3))

    def test_hull_grows_with_radius(self, K, ball3):
        small = ball_hull(K, 4, ball3)
        large = ball_hull(K, 5, ball3)
        assert is_subset(small, large)
        assert not is_subset(large, small)

    def test_radius_must_be_positive(self, K, ball3):
        with pytest.raises(ValueError):
            ball_hull(K, 0, ball3)


class TestIsComplete:
    def test_tetrahedron_complete(self, K, ball3):
        rep = is_complete(K, ball3)
        assert rep.complete
        assert rep.diameter == 4
        assert rep.violation is None

    def test_cube_incomplete_with_violation(self, cube3, ball3):
        rep = is_complete(cube3, ball3)
        assert not rep.complete
        assert rep.diameter == 6
        v = rep.violation
        assert v is not None
        # The violating point lies in the ball hull but strictly outside the
        # reported facet of the body.
        assert dot(v["facet"].normal, v["point"]) == v["optimum"]
        assert v["optimum"] > v["facet"].rhs
        assert contains(rep.ball_hull_facets, v["point"])

    def test_cube_under_linf_is_complete(self, cube3, box3):
        rep = is_complete(cube3, box3)
        assert rep.diameter == 2
        assert rep.complete

    def test_crosspolytope_incomplete_under_linf(self, box3):
        from minkgeom.norms import l1_ball
        from minkgeom.polytope import VPolytope

        P = VPolytope(3, l1_ball(3).ball_v.vertices)
        rep = is_complete(P, box3)
        assert not rep.complete

    def test_report_obj(self, K, ball3):
        obj = is_complete(K, ball3).to_obj()
        assert obj["complete"] is True
        assert obj["diameter"] == "4"


class TestVertexDiameterRealization:
    def test_tetrahedron_all_realized(self, K, ball3):
        ok, witnesses = vertex_diameter_realization(K, ball3)
        assert ok
        assert len(witnesses) == 4
        assert all(w is not None for w in witnesses)

    def test_cube_realizes_everywhere_yet_incomplete(self, cube3, ball3):
        # Every cube vertex attains the diameter against its antipode, so the
        # vertex test passes even though the cube is not complete: the test is
        # necessary but not sufficient.
        ok, witnesses = vertex_diameter_realization(cube3, ball3)
        assert ok
        for i, j in enumerate(witnesses):
            assert cube3.vertices[j] == tuple(-x for x in cube3.vertices[i])
        assert not is_complete(cube3, ball3).complete

    def test_unrealized_vertex_reported(self, ball3):
        from minkgeom.polytope import VPolytope

        # An interior-ish extra vertex far from everything keeps its distance
        # small, so it realizes nothing.
        P = VPolytope(3, ((0, 0, 0), (4, 0, 0), (2, 1, 0), (2, 0, 1), (2, 0, 0)))
        ok, witnesses = vertex_diameter_realization(P, ball3)
        assert not ok
        assert witnesses[4] is None


class TestVerifyReductionWitness:
    def test_tetrahedron_witness_valid(self, K, ball3):
        w = verify_reduction_witness(K, halfspace((-1, -1, -1), 1), ball3)
        assert w.valid
        assert w.removed_vertices == (0,)
        assert w.thickness_before == 2
        assert w.thickness_after == 2

    def test_cut_removing_nothing_invalid(self, K, ball3):
        w = verify_reduction_witness(K, halfspace((1, 0, 0), 2), ball3)
        assert not w.valid
        assert w.removed_vertices == ()
        assert w.thickness_after == w.thickness_before

    def test_cut_lowering_thickness_invalid(self, K, ball3):
        w = verify_reduction_witness(K, halfspace((0, 0, 1), 0), ball3)
        assert not w.valid
        assert len(w.removed_vertices) == 2
        assert w.thickness_after == 1 < w.thickness_before

    def test_cut_removing_everything_raises(self, K, ball3):
        with pytest.raises(EmptyIntersection):
            verify_reduction_witness(K, halfspace((1, 0, 0), -5), ball3)

    def test_flat_body_refused_before_the_cut_gate(self):
        # a flat non-simplex in dimension 9: its cut would stop at the
        # HULL_MAX_DIM gate, but the flat body is refused first, as when
        # thickness(P) ran before the cut
        verts = [(0,) * 9] + [tuple(int(i == j) for j in range(9)) for i in range(8)] + [(1,) * 8 + (0,)]
        with pytest.raises(DegenerateBody, match="thickness needs a full-dimensional body"):
            verify_reduction_witness(VPolytope(9, tuple(verts)), halfspace((1,) + (0,) * 8, 0), l1_ball(9))

    def test_witness_obj(self, K, ball3):
        obj = verify_reduction_witness(K, halfspace((-1, -1, -1), 1), ball3).to_obj()
        assert obj["valid"] is True
        assert obj["removed_vertices"] == [0]
        assert obj["cut"] == {"a": ("-1", "-1", "-1"), "b": "1"}


class TestSearchReductionWitness:
    def test_tetrahedron_search_finds_witness(self, K, ball3):
        w = search_reduction_witness(K, ball3)
        assert w is not None
        assert w.valid
        assert w.thickness_after == thickness(K, ball3)[0]
        assert len(w.removed_vertices) >= 1

    def test_cube_search_finds_none(self, cube3, ball3):
        # The inscribed ball touches every cube facet, so each candidate cut
        # plane coincides with a facet and removes nothing.
        assert search_reduction_witness(cube3, ball3) is None

    def test_found_witness_reverifies(self, K, ball3):
        w = search_reduction_witness(K, ball3)
        again = verify_reduction_witness(K, w.cut, ball3)
        assert again.valid
        assert again.removed_vertices == w.removed_vertices
        assert again.thickness_after == w.thickness_after


def centred_body(rng, dim, npts):
    """A random body moved to integer coordinates with its vertex centroid at the origin."""
    P = random_body(rng, dim, npts)
    total = [sum(col) for col in zip(*P.vertices)]
    return VPolytope(dim, tuple(tuple(npts * x - s for x, s in zip(v, total)) for v in P.vertices))


def translated(P, shift):
    return VPolytope(P.dim, tuple(tuple(x + s for x, s in zip(v, shift)) for v in P.vertices))


def candidate_cuts(P, ball):
    """The search's canonical cuts, in its order."""
    facets = facets_of(P)
    scale = inball_scale(facets, ball)
    return [halfspace(vneg(f.normal), scale * dual_support(vneg(f.normal), ball)) for f in facets.facets]


def reference_search(P, ball):
    """The search with every candidate solved in full by verify_reduction_witness."""
    for cut in candidate_cuts(P, ball):
        try:
            witness = verify_reduction_witness(P, cut, ball)
        except (DegenerateBody, EmptyIntersection):
            continue
        if witness.valid:
            return witness
    return None


def outcome(check):
    """The witness a check returns, or the type of the error it raises."""
    try:
        return check()
    except (DegenerateBody, EmptyIntersection) as exc:
        return type(exc)


def verdict(witness):
    """A witness without its cut, which a translation moves."""
    return witness.removed_vertices, witness.thickness_before, witness.thickness_after, witness.valid


# (dim, point counts) of the seeded origin-centred bodies
EQUIVALENCE_BODIES = [(2, (3, 4, 5, 6)), (3, (4, 5, 6, 7)), (4, (5, 6))]


def equivalence_cases():
    for dim, counts in EQUIVALENCE_BODIES:
        for make_ball in (l1_ball, linf_ball):
            for npts in counts:
                for seed in range(2):
                    rng = random.Random(f"bounded-cut/{dim}/{npts}/{seed}")
                    yield centred_body(rng, dim, npts), make_ball(dim)


class TestBoundedCutCheck:
    """The certified lower bounds decide each cut as the full LP family does."""

    @pytest.mark.parametrize("P, ball", list(equivalence_cases()))
    def test_bounded_verdicts_match_the_full_family(self, P, ball):
        facets = facets_of(P)
        before, chords = _family_chords(P, ball)
        assert before == thickness(P, ball)[0]
        # shifted far enough that the origin lies outside the body, where the
        # inscribed-ball bound must stand aside rather than raise
        shift = tuple(10 * max(abs(x) for v in P.vertices for x in v) + 1 for _ in range(P.dim))
        moved = translated(P, shift)
        moved_facets = facets_of(moved)
        _, moved_chords = _family_chords(moved, ball)
        for cut in candidate_cuts(P, ball):
            full = outcome(lambda: verify_reduction_witness(P, cut, ball))
            reported = outcome(lambda: _verify_cut(P, cut, ball, before, facets))
            searched = outcome(lambda: _verify_cut(P, cut, ball, before, facets, chords))
            moved_cut = halfspace(cut.normal, cut.rhs + dot(cut.normal, shift))
            moved_reported = outcome(lambda: _verify_cut(moved, moved_cut, ball, before, moved_facets))
            moved_searched = outcome(
                lambda: _verify_cut(moved, moved_cut, ball, before, moved_facets, moved_chords)
            )
            if isinstance(full, type):
                assert reported is searched is moved_reported is moved_searched is full
                continue
            assert reported.to_obj() == full.to_obj()
            assert verdict(moved_reported) == verdict(full)
            for bounded in (searched, moved_searched):
                if full.valid:
                    assert verdict(bounded) == verdict(full)
                else:
                    assert bounded is None or not bounded.valid
            # the difference-body route shares no LP with either
            by_facets = bool(full.removed_vertices) and (
                thickness(cut_polytope(P, cut), ball, "difference_body")[0] == before
            )
            assert by_facets == full.valid

    @pytest.mark.parametrize("P, ball", list(equivalence_cases()))
    def test_search_matches_the_full_route(self, P, ball):
        found = search_reduction_witness(P, ball)
        reference = reference_search(P, ball)
        assert (found is None) == (reference is None)
        if found is not None:
            assert found.to_obj() == reference.to_obj()

    @pytest.mark.parametrize("P, ball", list(equivalence_cases()))
    def test_normal_bound_refutes_only_invalid_cuts(self, P, ball):
        # the search refutes a cut when the width along its own normal,
        # bounded by (r + h_P(-a)) / h_B(a), falls below th(P); the exact
        # thickness of the cut body must then lie at or below that bound
        facets = facets_of(P)
        before, chords = _family_chords(P, ball)
        for cut in candidate_cuts(P, ball):
            vals = [dot(cut.normal, v) - cut.rhs for v in P.vertices]
            if max(vals) <= 0 or min(vals) >= 0:
                continue  # removes nothing, everything, or flattens P
            bound = exact_div(cut.rhs + support(P, vneg(cut.normal)), dual_support(cut.normal, ball))
            if bound >= before:
                continue
            assert _verify_cut(P, cut, ball, before, facets, chords) is None
            full = verify_reduction_witness(P, cut, ball)
            assert full.thickness_after <= bound < full.thickness_before == before
            assert not full.valid

    def test_normal_bound_leaves_only_the_family_lps(self, monkeypatch, ball3):
        # every candidate cut of this simplex is refuted by the width along
        # its own normal, so the search solves P's three piece LPs and no LP
        # on any cut body; settling each cut by its pieces solved seven
        P = VPolytope(3, ((-5, -3, 2), (-1, 5, -2), (-9, -3, -6), (15, 1, 6)))
        calls = []
        solve = metrics.lp_max
        monkeypatch.setattr(metrics, "lp_max", lambda problem: calls.append(problem) or solve(problem))
        assert search_reduction_witness(P, ball3) is None
        assert len(calls) == 3

    def test_failed_early_exit_certificate_is_not_a_no(self, monkeypatch):
        # the search on this body reaches a cut that neither bound settles
        # and whose piece LP falls below th(P), certified by the width of the
        # piece direction; a width that fails the bound is a fault, and the
        # search must raise rather than skip the cut as invalid
        P, ball = centred_body(random.Random("bounded-cut/3/7/0"), 3, 7), linf_ball(3)
        assert search_reduction_witness(P, ball) is None
        before, _ = thickness(P, ball)
        monkeypatch.setattr(completeness, "width", lambda Q, u, ball: before)
        with pytest.raises(CertificateError, match="width bound"):
            search_reduction_witness(P, ball)

"""Acceptance suite: six criteria, each printing one pass/fail line.

Every comparison is exact equality on rationals; there are no tolerances
anywhere.  Timing bounds are asserted where a criterion carries one.  The
pass/fail lines are printed with capture suspended so they reach the real
stdout in any run mode.
"""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minkgeom import cli
from minkgeom.completeness import ball_hull, is_complete, vertex_diameter_realization
from minkgeom.constructions import verify_proposition, walsh_simplex
from minkgeom.lp import OPTIMAL, LpProblem, lp_max
from minkgeom.metrics import diameter, thickness, width
from minkgeom.norms import custom_ball, l1_ball, linf_ball, norm
from minkgeom.polytope import (
    HPolytope,
    VPolytope,
    cut_polytope,
    halfspace,
    is_subset,
)
from minkgeom.qlinalg import dot, vscale
from minkgeom.walsh import is_hadamard, walsh_matrix

from conftest import random_simplex

_reports = {}


@pytest.fixture
def announce(capfd):
    """One pass/fail line per criterion on the real stdout.

    pytest captures at the file-descriptor level by default, which swallows
    even sys.__stdout__, so the line is printed with capture suspended.
    """

    def _announce(num, name, passed, detail):
        line = f"acceptance criterion {num} ({name}): {'PASS' if passed else 'FAIL'} -- {detail}"
        with capfd.disabled():
            print(line, flush=True)
        assert passed, line

    return _announce


def _proposition(n, mode=None):
    key = (n, mode)
    if key not in _reports:
        t0 = time.monotonic()
        rep = verify_proposition(n, mode)
        _reports[key] = (rep, time.monotonic() - t0)
    return _reports[key]


def test_criterion_1_dim3_claims(announce):
    t0 = time.monotonic()
    code = cli.main(["verify", "--claims3", "-o", "/dev/null"])
    elapsed = time.monotonic() - t0
    passed = code == 0 and elapsed < 1.0
    announce(1, "dimension-3 tetrahedron claims", passed,
              f"exit code {code}, {elapsed:.3f} s (bound 1 s)")


def test_criterion_2_n3_exact(announce):
    rep, elapsed = _proposition(3)
    passed = (
        rep.ok
        and rep.mode == "exact"
        and rep.diameter == 8
        and rep.thickness == 2
        and rep.complete is True
        and elapsed < 60.0
    )
    announce(2, "n=3 simplex, exact mode", passed,
              f"ok={rep.ok}, diameter {rep.diameter}, thickness {rep.thickness}, "
              f"{elapsed:.3f} s (bound 60 s)")


def test_criterion_3_n4_certificate(announce):
    rep, elapsed = _proposition(4, "certificate")
    S = walsh_simplex(4)
    cut_body = cut_polytope(S, halfspace((1,) * 15, 1))
    passed = (
        rep.ok
        and rep.mode == "certificate"
        and rep.diameter == 16
        and rep.thickness == 2
        and rep.thickness_bounds == (2, 2)
        and rep.witness is not None
        and rep.witness.valid
        and rep.witness.removed_vertices == (0,)
        and len(cut_body.vertices) == 30
        and elapsed < 300.0
    )
    announce(3, "n=4 simplex, certificate mode", passed,
              f"ok={rep.ok}, bounds {rep.thickness_bounds}, cut body "
              f"{len(cut_body.vertices)} vertices, {elapsed:.3f} s (bound 300 s)")


def test_criterion_4_ratio_sequence(announce):
    ratios = {}
    for n, mode in ((2, None), (3, None), (4, "certificate")):
        rep, _ = _proposition(n, mode)
        ratios[n] = rep.ratio
    passed = ratios == {2: Fraction(1, 2), 3: Fraction(1, 4), 4: Fraction(1, 8)}
    announce(4, "thickness/diameter ratio 2^(1-n)", passed,
              "ratios " + ", ".join(f"n={n}: {ratios[n]}" for n in sorted(ratios)))


def test_criterion_5_thickness_mode_agreement(announce):
    ball3 = l1_ball(3)
    ball4 = l1_ball(4)
    cube = VPolytope(3, tuple((x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)))
    cross = VPolytope(3, l1_ball(3).ball_v.vertices)
    named = [
        ("tetrahedron", VPolytope(3, ((-1, -1, -1), (1, 1, -1), (1, -1, 1), (-1, 1, 1))), ball3),
        ("walsh simplex n=2", walsh_simplex(2), ball3),
        ("cube", cube, ball3),
        ("crosspolytope", cross, ball3),
    ]
    rng = random.Random(20260819)
    cases = list(named)
    cases += [(f"random dim-3 #{i}", random_simplex(rng, 3), ball3) for i in range(25)]
    cases += [(f"random dim-4 #{i}", random_simplex(rng, 4), ball4) for i in range(25)]
    t0 = time.monotonic()
    agreed = 0
    first_bad = None
    for name, P, ball in cases:
        t_lp, u_lp = thickness(P, ball, "exact_lp")
        t_db, u_db = thickness(P, ball, "difference_body")
        if t_lp == t_db and width(P, u_lp, ball) == t_lp and width(P, u_db, ball) == t_lp:
            agreed += 1
        elif first_bad is None:
            first_bad = f"{name}: exact_lp {t_lp} vs difference_body {t_db}"
    elapsed = time.monotonic() - t0
    passed = agreed == len(cases)
    announce(5, "thickness modes agree", passed,
              f"{agreed}/{len(cases)} bodies agree"
              + (f"; first mismatch {first_bad}" if first_bad else "")
              + f", {elapsed:.1f} s")


def test_criterion_6_property_suites(announce):
    rational = st.fractions(
        min_value=Fraction(-20), max_value=Fraction(20), max_denominator=10
    )
    vec3 = st.tuples(rational, rational, rational)
    hexagon = custom_ball(
        VPolytope(2, ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))),
        HPolytope(
            2,
            tuple(
                halfspace(a, 1)
                for a in ((1, 1), (-1, -1), (1, 0), (-1, 0), (0, 1), (0, -1))
            ),
        ),
    )
    balls3 = (l1_ball(3), linf_ball(3))
    counters = {"norm_axioms": 0, "lp_duality": 0, "ball_hull": 0, "thickness_width": 0}

    # Hadamard identity, exhaustive over the whole allowed parameter range.
    hadamard_cases = 0
    for k in range(1, 7):
        assert is_hadamard(walsh_matrix(k))
        hadamard_cases += 1

    @settings(max_examples=100, deadline=None)
    @given(x=vec3, y=vec3, t=rational, p2=st.tuples(rational, rational))
    def norm_axioms(x, y, t, p2):
        for b in balls3:
            assert norm(tuple(a + c for a, c in zip(x, y)), b) <= norm(x, b) + norm(y, b)
            assert norm(vscale(t, x), b) == abs(t) * norm(x, b)
            assert (norm(x, b) == 0) == (not any(x))
        assert norm(vscale(t, p2), hexagon) == abs(t) * norm(p2, hexagon)
        counters["norm_axioms"] += 1

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def lp_duality(data):
        dim = data.draw(st.integers(2, 3))
        cons = []
        for i in range(dim):
            e = tuple(1 if j == i else 0 for j in range(dim))
            cons.append((e, 5))
            cons.append((tuple(-x for x in e), 5))
        for _ in range(3):
            a = data.draw(st.tuples(*([st.integers(-3, 3)] * dim)))
            if any(a):
                cons.append((a, data.draw(st.integers(0, 4))))
        obj = data.draw(st.tuples(*([st.integers(-3, 3)] * dim)))
        out = lp_max(LpProblem(obj, tuple(cons)))
        assert out.status == OPTIMAL
        x, y = out.point, out.dual_multipliers
        assert all(dot(a, x) <= b for a, b in cons)
        assert all(m >= 0 for m in y)
        for j in range(dim):
            assert sum(y[i] * cons[i][0][j] for i in range(len(cons))) == obj[j]
        assert sum(y[i] * cons[i][1] for i in range(len(cons))) == out.optimum
        assert dot(obj, x) == out.optimum
        counters["lp_duality"] += 1

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**6), bump=st.integers(1, 5))
    def ball_hull_properties(seed, bump):
        P = random_simplex(random.Random(seed), 3)
        b = l1_ball(3)
        d, _ = diameter(P, b)
        if d == 0:
            return
        hull = ball_hull(P, d, b)
        assert is_subset(P, hull)
        assert is_subset(hull, ball_hull(P, d + bump, b))
        counters["ball_hull"] += 1

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        u=st.tuples(*([st.integers(-4, 4)] * 3)).filter(any),
    )
    def thickness_below_widths(seed, u):
        P = random_simplex(random.Random(seed), 3)
        b = l1_ball(3)
        t, direction = thickness(P, b)
        assert t <= width(P, u, b)
        assert width(P, direction, b) == t
        counters["thickness_width"] += 1

    norm_axioms()
    lp_duality()
    ball_hull_properties()
    thickness_below_widths()

    # The vertex realization test is necessary but not sufficient: the cube
    # passes it under l1 while failing completeness.
    cube = VPolytope(3, tuple((x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)))
    realized, _ = vertex_diameter_realization(cube, l1_ball(3))
    cube_complete = is_complete(cube, l1_ball(3)).complete
    cube_check = realized and not cube_complete

    passed = (
        hadamard_cases == 6
        and all(c >= 100 for c in counters.values())
        and cube_check
    )
    announce(6, "property suites", passed,
              f"hadamard k=1..6 exhaustive ({hadamard_cases}), "
              + ", ".join(f"{k}={v}" for k, v in sorted(counters.items()))
              + f", cube realizes-but-incomplete: {cube_check}")

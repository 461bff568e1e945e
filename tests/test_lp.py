"""Exact simplex solver: oracle comparisons, certificates, degenerate cases.

The oracle enumerates basic points by solving every dim-subset of constraint
rows and keeping the feasible ones.  On a bounded nonempty region this finds
the optimum exactly, so every comparison is equality, never tolerance.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from minkgeom.lp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LpOutcome,
    LpProblem,
    _certify_optimal,
    _check_dual,
    _integer_rows,
    _Simplex,
    lp_max,
)
from minkgeom.errors import CertificateError
from minkgeom.qlinalg import _integer_row, dot, solve_square


def brute_force_max(objective, constraints, dim):
    """Optimal value of a BOUNDED region via vertex enumeration; None if empty."""
    best = None
    for combo in combinations(range(len(constraints)), dim):
        mat = tuple(tuple(constraints[i][0]) for i in combo)
        rhs = tuple(constraints[i][1] for i in combo)
        x = solve_square(mat, rhs)
        if x is None:
            continue
        if all(dot(a, x) <= b for a, b in constraints):
            val = dot(objective, x)
            if best is None or val > best:
                best = val
    return best


def box_constraints(dim, bound):
    cons = []
    for i in range(dim):
        e = tuple(1 if j == i else 0 for j in range(dim))
        cons.append((e, bound))
        cons.append((tuple(-x for x in e), bound))
    return cons


def with_denominator(rng, a, b):
    """The row (a, b), each entry moved up by less than 1 over one denominator of up to 40 bits.

    Witness-search LPs carry such fractions; the solver scales each row to
    integers, which integer rows never exercise.
    """
    q = rng.randint(2, 2**40)
    return tuple(x + Fraction(rng.randrange(q), q) for x in a), b + Fraction(rng.randrange(q), q)


def check_optimal_certificate(problem, out):
    assert out.status == OPTIMAL
    x, y = out.point, out.dual_multipliers
    # Primal feasibility.
    for a, b in problem.constraints:
        assert dot(a, x) <= b
    # Dual feasibility and complementary identities.
    assert all(m >= 0 for m in y)
    for j in range(len(problem.objective)):
        assert sum(y[i] * problem.constraints[i][0][j] for i in range(len(y))) == (
            problem.objective[j]
        )
    assert sum(y[i] * problem.constraints[i][1] for i in range(len(y))) == out.optimum
    assert dot(problem.objective, x) == out.optimum


def check_farkas_certificate(problem, out):
    assert out.status == INFEASIBLE
    y, cons = out.farkas, problem.constraints
    assert len(y) == len(cons)
    assert all(m >= 0 for m in y)
    for j in range(len(problem.objective)):
        assert sum(y[i] * cons[i][0][j] for i in range(len(cons))) == 0
    assert sum(y[i] * cons[i][1] for i in range(len(cons))) < 0


def check_ray_certificate(problem, out):
    assert out.status == UNBOUNDED
    r = out.ray
    assert dot(problem.objective, r) > 0
    for a, _ in problem.constraints:
        assert dot(a, r) <= 0


class TestNamedProblems:
    def test_crosspolytope_support(self):
        # max x1 over the l1 unit ball given by its 8 facets: optimum 1.
        cons = []
        for sx in (1, -1):
            for sy in (1, -1):
                for sz in (1, -1):
                    cons.append(((sx, sy, sz), 1))
        out = lp_max(LpProblem((1, 0, 0), tuple(cons)))
        assert out.status == OPTIMAL
        assert out.optimum == 1
        assert out.point == (1, 0, 0)
        check_optimal_certificate(LpProblem((1, 0, 0), tuple(cons)), out)

    def test_fractional_optimum(self):
        # max x + y s.t. 2x + y <= 2, x + 3y <= 3, x,y >= 0: the constraint
        # lines meet at (3/5, 4/5), so the optimum is 7/5.
        cons = (((2, 1), 2), ((1, 3), 3), ((-1, 0), 0), ((0, -1), 0))
        out = lp_max(LpProblem((1, 1), cons))
        assert out.status == OPTIMAL
        assert out.optimum == Fraction(7, 5)
        assert out.point == (Fraction(3, 5), Fraction(4, 5))

    def test_beale_degenerate_cycling_case(self):
        # The classical degenerate problem that cycles under naive pivoting.
        # Stated as a maximization; the known optimum is 1/20 at (1/25, 0, 1, 0).
        c = (Fraction(3, 4), -150, Fraction(1, 50), -6)
        cons = (
            ((Fraction(1, 4), -60, Fraction(-1, 25), 9), 0),
            ((Fraction(1, 2), -90, Fraction(-1, 50), 3), 0),
            ((0, 0, 1, 0), 1),
            ((-1, 0, 0, 0), 0),
            ((0, -1, 0, 0), 0),
            ((0, 0, -1, 0), 0),
            ((0, 0, 0, -1), 0),
        )
        out = lp_max(LpProblem(c, cons))
        assert out.status == OPTIMAL
        assert out.optimum == Fraction(1, 20)
        assert out.point == (Fraction(1, 25), 0, 1, 0)

    def test_equality_via_paired_inequalities(self):
        # max x + y on the segment x = y, 0 <= x <= 2.
        cons = (((1, -1), 0), ((-1, 1), 0), ((1, 0), 2), ((-1, 0), 0))
        out = lp_max(LpProblem((1, 1), cons))
        assert out.status == OPTIMAL
        assert out.optimum == 4
        assert out.point == (2, 2)

    def test_unbounded_with_ray(self):
        cons = (((-1, 0), 0), ((0, -1), 0))
        out = lp_max(LpProblem((1, 1), cons))
        assert out.status == UNBOUNDED
        r = out.ray
        assert dot((1, 1), r) > 0
        for a, b in cons:
            assert dot(a, r) <= 0

    def test_infeasible_with_farkas(self):
        # x >= 2 and x <= 1 cannot both hold.
        cons = (((-1,), -2), ((1,), 1))
        out = lp_max(LpProblem((1,), cons))
        assert out.status == INFEASIBLE
        y = out.farkas
        assert all(m >= 0 for m in y)
        assert sum(y[i] * cons[i][0][0] for i in range(2)) == 0
        assert sum(y[i] * cons[i][1] for i in range(2)) < 0

    def test_no_constraints_is_unbounded(self):
        out = lp_max(LpProblem((1,), ()))
        assert out.status == UNBOUNDED

    def test_zero_objective_feasible(self):
        out = lp_max(LpProblem((0, 0), (((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0))))
        assert out.status == OPTIMAL
        assert out.optimum == 0

    def test_redundant_constraints(self):
        cons = (((1,), 1), ((1,), 2), ((1,), 3), ((-1,), 0))
        out = lp_max(LpProblem((1,), cons))
        assert out.status == OPTIMAL
        assert out.optimum == 1

    def test_primal_and_dual_both_infeasible(self):
        # max x s.t. y <= -1 and y >= 1: the region is empty, and so is the
        # dual, since no lam >= 0 has A^T lam = (1, 0).  Along (1, 0) x grows
        # and every row holds, so only the empty region makes the answer
        # infeasible rather than unbounded.
        problem = LpProblem((1, 0), (((0, 1), -1), ((0, -1), -1)))
        check_farkas_certificate(problem, lp_max(problem))


ORACLE_CASES = [
    ((2, False, False), "2"), ((3, False, False), "3"), ((2, True, False), "2-rational"),
    ((3, True, False), "3-rational"), ((2, True, True), "2-rational-objective"),
    ((3, True, True), "3-rational-objective"),
]

# One seeded draw of bounded problems: (seed base, box bound, problems, added
# rows, |a_ij| bound, range of b, objective bound, fewest feasible, fewest
# infeasible).  With b >= 0 the origin is feasible, so every problem is.
ROW_DRAWS = [
    ((20260819, 5, 60, 4, 3, (-3, 3), 3, 20, 3), ""),
    ((977, 6, 40, 3, 2, (0, 5), 4, 25, 0), "-seed977"),
]


def draw_objective(rng, dim, bound, rational_objective):
    """A random objective; a rational one has entries moved by fractions of up to 40-bit denominators."""
    obj = tuple(rng.randint(-bound, bound) for _ in range(dim))
    if rational_objective:
        q = rng.randint(2, 2**40)
        obj = tuple(x + Fraction(rng.randrange(q), q) for x in obj)
    return obj


class TestOracleComparison:
    @pytest.mark.parametrize(
        "dim, rational, rational_objective, draw",
        [
            pytest.param(*case, draw, id=case_id + draw_id)
            for draw, draw_id in ROW_DRAWS
            for case, case_id in ORACLE_CASES
        ],
    )
    def test_random_bounded_problems(self, dim, rational, rational_objective, draw):
        seed, bound, problems, rows, coef, (lo, hi), obj_bound, min_feasible, min_infeasible = draw
        rng = random.Random(seed + dim)
        box = box_constraints(dim, bound)
        feasible_seen = 0
        infeasible_seen = 0
        for _ in range(problems):
            cons = list(box)
            for _ in range(rows):
                a = tuple(rng.randint(-coef, coef) for _ in range(dim))
                if not any(a):
                    continue
                b = rng.randint(lo, hi)
                if rational and rng.random() < 0.5:
                    a, b = with_denominator(rng, a, b)
                cons.append((a, b))
            obj = draw_objective(rng, dim, obj_bound, rational_objective)
            problem = LpProblem(obj, tuple(cons))
            expected = brute_force_max(obj, cons, dim)
            out = lp_max(problem)
            if expected is None:
                infeasible_seen += 1
                check_farkas_certificate(problem, out)
            else:
                feasible_seen += 1
                assert out.status == OPTIMAL
                assert out.optimum == expected
                check_optimal_certificate(problem, out)
        assert feasible_seen >= min_feasible
        assert infeasible_seen >= min_infeasible

    @pytest.mark.parametrize("dim", [2, 3])
    def test_random_problems_without_a_box(self, dim):
        # Entries lie in [-3, 3], so every minor of [A | b] of size up to 3 is
        # under (3 * sqrt 3)^3 < 150 in absolute value (Hadamard).  A nonempty
        # region then has a point, and a bounded optimum a vertex, whose
        # coordinates are quotients of such minors, inside the box of size
        # 150: the problem is infeasible iff it is infeasible in the box, and
        # unbounded iff doubling the box raises the optimum.
        rng = random.Random(4409 + dim)
        seen = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
        for _ in range(80):
            cons = []
            for _ in range(rng.randint(0, 6)):
                a = tuple(rng.randint(-3, 3) for _ in range(dim))
                if any(a):
                    cons.append((a, rng.randint(-3, 3)))
            obj = tuple(rng.randint(-3, 3) for _ in range(dim))
            problem = LpProblem(obj, tuple(cons))
            out = lp_max(problem)
            near = brute_force_max(obj, cons + box_constraints(dim, 150), dim)
            far = brute_force_max(obj, cons + box_constraints(dim, 300), dim)
            if near is None:
                assert far is None
                check_farkas_certificate(problem, out)
            elif near == far:
                check_optimal_certificate(problem, out)
                assert out.optimum == near
            else:
                check_ray_certificate(problem, out)
            seen[out.status] += 1
        assert min(seen.values()) >= 5

    def test_failed_dual_certificate_raises(self, monkeypatch):
        # Corrupt the multipliers of the first solve only: a second solve
        # would hide the failure behind a correct answer.
        original = _Simplex.row_multipliers
        calls = []

        def corrupted(engine, costs):
            calls.append(costs)
            pi = original(engine, costs)
            return tuple(p + 1 for p in pi) if len(calls) == 1 else pi

        monkeypatch.setattr(_Simplex, "row_multipliers", corrupted)
        with pytest.raises(RuntimeError, match="mismatch|certificate"):
            lp_max(LpProblem((1, 2), tuple(box_constraints(2, 3))))
        assert len(calls) == 1

    def test_each_constraint_row_is_scaled_once(self, monkeypatch):
        # The scaled constraint rows are the tableau's columns as well as the
        # certificate's rows: no transposed row (one entry per constraint,
        # then c_k) is scaled on its own.
        lengths = []

        def recording(row):
            lengths.append(len(row))
            return _integer_row(row)

        monkeypatch.setattr("minkgeom.lp._integer_row", recording)
        extra = (((1, 1), Fraction(7, 2)), ((1, -2), 4), ((Fraction(-1, 3), 1), 2))
        out = lp_max(LpProblem((1, 2), tuple(box_constraints(2, 3)) + extra))
        assert out.status == OPTIMAL
        assert lengths.count(2 + 1) == 7
        assert 7 + 1 not in lengths


F = Fraction


class TestCertificateChecks:
    """Each certificate check, run in integers, still rejects its own corruption.

    Every row carries its own denominator (distinct lam_i), so a check that
    weighs the integer rows by the wrong factor fails on the valid certificate.
    """

    # max x/2 + 2y/3 over x + y <= 2, x <= 1, x >= -1, y <= 3/2, y >= -2, each
    # row scaled by its own fraction: optimum 5/4 at (1/2, 3/2), y = (3/2, 0, 0, 1/3, 0).
    OPTIMAL_PROBLEM = LpProblem(
        (F(1, 2), F(2, 3)),
        (
            ((F(1, 3), F(1, 3)), F(2, 3)),
            ((F(1, 5), 0), F(1, 5)),
            ((F(-1, 7), 0), F(1, 7)),
            ((0, F(1, 2)), F(3, 4)),
            ((0, F(-1, 11)), F(2, 11)),
        ),
    )
    # x <= -1 and x >= 1, with a box on the second coordinate.
    INFEASIBLE_PROBLEM = LpProblem(
        (1, F(1, 2)),
        (
            ((F(1, 3), 0), F(-1, 3)),
            ((F(-1, 5), 0), F(-1, 5)),
            ((0, F(1, 7)), F(1, 7)),
            ((0, F(-1, 2)), F(1, 2)),
        ),
    )

    POINT, MULTIPLIERS, VALUE = (F(1, 2), F(3, 2)), (F(3, 2), 0, 0, F(1, 3), 0), F(5, 4)
    FARKAS = (3, 5, 0, 0)  # 3 (x/3) + 5 (-x/5) = 0, and 3 (-1/3) + 5 (-1/5) = -2

    def certify(self, x=POINT, y=MULTIPLIERS, value=VALUE):
        problem = self.OPTIMAL_PROBLEM
        rows, cost = _integer_rows(problem.constraints), _integer_row(problem.objective)
        _certify_optimal(rows, cost, x, y, value)

    def check_farkas(self, y):
        _check_dual(_integer_rows(self.INFEASIBLE_PROBLEM.constraints), y, ([0, 0], 1), None)

    def test_solver_returns_the_certificates(self):
        out = lp_max(self.OPTIMAL_PROBLEM)
        assert (out.point, out.dual_multipliers, out.optimum) == (
            self.POINT, self.MULTIPLIERS, self.VALUE
        )
        assert lp_max(self.INFEASIBLE_PROBLEM).status == INFEASIBLE

    def test_valid_certificates_pass(self):
        self.certify()
        self.check_farkas(self.FARKAS)

    def test_infeasible_point(self):
        # moved along (4, -3), orthogonal to c: same value, past x + y <= 2
        with pytest.raises(CertificateError, match="primal feasibility"):
            self.certify(x=(F(9, 10), F(6, 5)))

    def test_wrong_value(self):
        with pytest.raises(CertificateError, match="objective value"):
            self.certify(value=self.VALUE + F(1, 30))

    def test_negative_multiplier(self):
        with pytest.raises(CertificateError, match="dual sign"):
            self.certify(y=(-self.MULTIPLIERS[0],) + self.MULTIPLIERS[1:])

    def test_multipliers_miss_the_objective(self):
        with pytest.raises(CertificateError, match=r"y\^T A = c"):
            self.certify(y=tuple(2 * v for v in self.MULTIPLIERS))

    def test_multipliers_miss_the_optimum(self):
        # 5 (x/5) + 7 (-x/7) = 0, so y^T A stays c while y^T b grows by 2
        with pytest.raises(CertificateError, match=r"y\^T b = optimum"):
            self.certify(y=(F(3, 2), 5, 7, F(1, 3), 0))

    def test_farkas_negative_multiplier(self):
        with pytest.raises(CertificateError, match="Farkas sign"):
            self.check_farkas((3, 5, -1, 0))

    def test_farkas_combination_not_zero(self):
        with pytest.raises(CertificateError, match=r"Farkas y\^T A = 0"):
            self.check_farkas((3, 4, 0, 0))

    def test_farkas_combination_not_negative(self):
        # 7 (y/7) + 2 (-y/2) = 0, while y^T b grows by 2 up to 0
        with pytest.raises(CertificateError, match=r"Farkas y\^T b < 0"):
            self.check_farkas((3, 5, 7, 2))


class TestProblemValidation:
    def test_empty_objective_rejected(self):
        with pytest.raises(Exception):
            LpProblem((), ())

    def test_mismatched_constraint_rejected(self):
        with pytest.raises(Exception):
            LpProblem((1, 2), (((1,), 0),))

    @pytest.mark.parametrize(
        "objective, constraints",
        [
            ((1.5,), (((1,), 2),)),
            ((1,), (((0.5,), 2),)),
            ((1,), (((1,), 2.0),)),
            ((True,), (((1,), 2),)),
            ((1,), (((1,), False),)),
            ((1,), (((1,), "2"),)),
        ],
        ids=["float-objective", "float-normal", "float-rhs", "bool-objective", "bool-rhs", "str-rhs"],
    )
    def test_non_rational_entry_rejected(self, objective, constraints):
        with pytest.raises(ValueError, match="floats are not accepted"):
            LpProblem(objective, constraints)

    def test_rational_entries_accepted(self):
        out = lp_max(LpProblem((F(1, 2),), (((F(2, 3),), F(4, 3)),)))
        assert out.optimum == 1

    def test_outcome_is_plain_data(self):
        out = LpOutcome(status=OPTIMAL, optimum=0)
        assert out.point is None and out.ray is None

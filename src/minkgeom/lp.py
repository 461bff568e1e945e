"""Exact linear programming over the rationals.

lp_max maximizes a linear objective over {x : a_i . x <= b_i} with free
variables.  It solves one formulation, the dual: min b . y subject to
A^T y = c, y >= 0, a tableau with one row per primal coordinate, which
is the smaller one whenever constraints outnumber variables.  The engine is
the two-phase simplex method (artificial columns where needed) with Bland's
anti-cycling rule and lowest-index tie-breaking, so every run terminates and
is deterministic.  The tableau is fraction-free: integer rows over one
common denominator, pivoted by the elimination kernel of qlinalg, with
ratios compared by cross-multiplication.

The data are scaled to integers once, on the way in: each constraint row as
(a_i | b_i) = (A_i | B_i) / lam_i, and the objective as c = C / g.  Those
rows are the tableau's columns as they are: in the variables
nu_i = g * y_i / lam_i the dual reads sum_i A_i nu_i = C, nu >= 0, with
the cost B . nu / g, and y_i = lam_i * nu_i / g maps a tableau value back.
The same rows give the equations of the primal point and the inequalities
every certificate is checked against.  The phase cost rows, the basic
values and the multipliers are computed in integers, and a Fraction is made
only for a value that is returned.

Each of the dual's three outcomes certifies a primal one (Farkas' lemma;
Schrijver, Theory of Linear and Integer Programming, 1986, ch. 7):

- dual optimal: y is the primal's dual multipliers, and the primal point
  x solves A_i . x = B_i over the rows of the final basis.  The outcome is
  OPTIMAL, with x feasible, y >= 0, y^T A = c and y^T b = c . x = optimum
  checked.
- dual unbounded: the dual's ray is a Farkas vector, y >= 0 with y^T A = 0
  and y^T b < 0, checked; the outcome is INFEASIBLE.
- dual infeasible: minus the phase-1 multipliers is a ray r with c . r > 0
  and A r <= 0, checked.  The primal is unbounded along r if it is
  feasible at all, which max 0 . x decides (its dual is feasible at
  y = 0): an optimal outcome there, with its point checked, gives
  UNBOUNDED with the ray r; an infeasible one is returned as it is.

The checks run in integers against the original data: the point x = X / q
against each scaled row as A_i . X <= B_i * q, and y^T [A | b] as one
integer combination of those rows (_check_dual).  A failed check raises
CertificateError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

from .errors import CertificateError, DimensionMismatch
from .qlinalg import _integer_row, _pivot_step, check_rational_types, exact_div, solve_square

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpProblem:
    """maximize objective . x  subject to  normal . x <= rhs per constraint.

    Every entry is an int or a Fraction; a float or a bool raises ValueError.
    """

    objective: tuple
    constraints: tuple

    def __post_init__(self):
        obj = tuple(self.objective)
        cons = tuple((tuple(a), b) for a, b in self.constraints)
        if not obj:
            raise DimensionMismatch("objective must have at least one entry")
        types = set(map(type, obj))
        for a, b in cons:
            if len(a) != len(obj):
                raise DimensionMismatch(
                    f"constraint normal of length {len(a)}, expected {len(obj)}"
                )
            types.update(map(type, a))
            types.add(type(b))
        check_rational_types(types, "LP entries")
        object.__setattr__(self, "objective", obj)
        object.__setattr__(self, "constraints", cons)


@dataclass(frozen=True)
class LpOutcome:
    status: str
    optimum: object = None
    point: tuple = None
    dual_multipliers: tuple = None
    farkas: tuple = None
    ray: tuple = None


class _Simplex:
    """Standard-form tableau: max (K / g) . z  s.t.  sum_j A_j z_j = rhs, z >= 0.

    The input is in integers.  Column j is (ints, lam) as _integer_rows gives
    a constraint row; its first len(rhs) entries are A_j, and lam is the
    row's scale.  rhs is an integer vector and the cost is (K, g); every
    objective below takes that form.  The tableau is fraction-free: tab
    holds integer rows over the common denominator den > 0, the reduced-cost
    row last.  A row whose right-hand side is negative is negated.  A column
    whose one nonzero entry, after that flip, equals its lam is a crash-basis
    column: its entry is set back to 1, so it stands for lam * z_j
    (scale[j] = lam).  Positive column scalings keep every sign and scale a
    ratio test's ratios alike, so Bland's pivots are those of the rational
    tableau.
    """

    def __init__(self, cols, rhs, cost):
        m = len(rhs)
        n_real = len(cols)
        self.m = m
        self.n_real = n_real
        self.cols = cols
        self.cost = cost
        self.flips = [1 if v >= 0 else -1 for v in rhs]

        # crash basis: reuse existing unit columns, artificials for the rest
        basis = [None] * m
        scale = [1] * n_real
        for j, (ints, lam) in enumerate(cols):
            nonzero = [i for i in range(m) if ints[i]]
            if len(nonzero) == 1:
                i = nonzero[0]
                if basis[i] is None and self.flips[i] * ints[i] == lam:
                    basis[i] = j
                    scale[j] = lam
        self.art_row = {}
        next_col = n_real
        for i in range(m):
            if basis[i] is None:
                self.art_row[next_col] = i
                basis[i] = next_col
                next_col += 1
        self.n_total = next_col
        self.basis = basis
        self.scale = scale + [1] * (next_col - n_real)

        tab = []
        for i, f in enumerate(self.flips):
            row = [f * ints[i] for ints, _ in cols] + [0] * (next_col - n_real) + [f * rhs[i]]
            row[basis[i]] = 1
            tab.append(row)
        tab.append([0] * (next_col + 1))
        self.tab = tab
        self.den = 1
        self.pivot_budget = 20000 + 200 * (m + self.n_total)

    def _pivot(self, r, c):
        self.den = _pivot_step(self.tab, r, c, self.den)
        self.basis[r] = c
        self.pivot_budget -= 1
        if self.pivot_budget < 0:
            raise CertificateError("simplex pivot budget exhausted (cycling?)")

    def run_phase(self, obj, barred):
        """Bland iterations for max (ints / g) . z from the current basis, obj = (ints, g).

        Returns (status, entering), entering being the unbounded column when
        status is "unbounded".  The reduced-cost row tab[m] is red_scale * den
        times the reduced costs of the scaled variables, so its last entry is
        minus red_scale * den times the objective value.  It is built in
        integers: with L the lcm of scale[j] over the j with ints[j] != 0, the
        cost of scaled column j is ints[j] * (L / scale[j]) and red_scale =
        g * L, a positive factor that keeps every sign.
        """
        tab, basis, m, scale = self.tab, self.basis, self.m, self.scale
        ints, g = obj
        lcm = math.lcm(*(s for c, s in zip(ints, scale) if c))
        cost = [c * (lcm // s) if c else 0 for c, s in zip(ints, scale)]
        self.red_scale = g * lcm
        red = [c * self.den for c in cost] + [0]
        for i in range(m):
            cb = cost[basis[i]]
            if cb:
                for j, x in enumerate(tab[i]):
                    if x:
                        red[j] -= cb * x
        tab[m] = red
        while True:
            red = tab[m]
            enter = next((j for j in range(self.n_total) if red[j] > 0 and j not in barred), -1)
            if enter < 0:
                return OPTIMAL, None
            leave = -1
            for i in range(m):
                a = tab[i][enter]
                if a > 0:
                    if leave < 0:
                        leave = i
                        continue
                    # the ratio tab[i][-1] / a against the best, cross-multiplied
                    cross = tab[i][-1] * tab[leave][enter] - tab[leave][-1] * a
                    if cross < 0 or (cross == 0 and basis[i] < basis[leave]):
                        leave = i
            if leave < 0:
                return UNBOUNDED, enter
            self._pivot(leave, enter)

    def phase1_objective(self):
        """Minus the sum of the artificials."""
        return [0] * self.n_real + [-1] * len(self.art_row)

    def solve(self):
        """Two-phase run; returns (status, value, z) in the unscaled variables.

        z holds one integer pair (numerator, denominator) per real column:
        its value at the optimum, or its coordinate along the ray when status
        is "unbounded".  z is None when phase 1 finds the problem infeasible.
        """
        barred = set(self.art_row)
        tab, basis, m, scale = self.tab, self.basis, self.m, self.scale
        if self.art_row:
            status, _ = self.run_phase((self.phase1_objective(), 1), frozenset())
            if status != OPTIMAL:
                raise CertificateError("phase 1 cannot be unbounded")
            if tab[m][-1]:
                return INFEASIBLE, None, None
            # drive zero-level artificials out where a real pivot exists;
            # rows with none are inert (all-zero on real columns) and stay
            for i in range(m):
                if basis[i] in self.art_row:
                    row = tab[i]
                    col = next((j for j in range(self.n_real) if row[j]), None)
                    if col is not None:
                        self._pivot(i, col)
        ints, g = self.cost
        status, enter = self.run_phase((ints + [0] * len(self.art_row), g), barred)
        den = self.den
        z = [(0, 1)] * self.n_total
        if status == UNBOUNDED:
            z[enter] = (1, 1)
            for i in range(m):
                x = tab[i][enter]
                if x:
                    z[basis[i]] = (-x * scale[enter], den * scale[basis[i]])
            return UNBOUNDED, None, z[:self.n_real]
        for i in range(m):
            z[basis[i]] = (tab[i][-1], den * scale[basis[i]])
        return OPTIMAL, exact_div(-tab[m][-1], den * self.red_scale), z[:self.n_real]

    def row_multipliers(self, costs):
        """Multipliers y of the rows of sum_j A_j z_j = rhs over the final basis.

        Solves A_j . y = costs[j] for each basic column j, with A_j the
        column as it was given; an artificial column, the unit vector of its
        row, gives flip * y_row = costs[j].
        """
        m, flips = self.m, self.flips
        mat = []
        for j in self.basis:
            if j < self.n_real:
                mat.append(self.cols[j][0][:m])
            else:
                r = self.art_row[j]
                mat.append([flips[r] if i == r else 0 for i in range(m)])
        y = solve_square(mat, [costs[j] for j in self.basis])
        if y is None:
            raise CertificateError("basis matrix is singular")
        return y


def _dot(ints, vec):
    """Integer dot product over the first len(vec) entries of ints."""
    return sum(map(mul, ints, vec))


def _integer_rows(constraints):
    """Each constraint (a, b) as (A | B, lam) with (a | b) = (A | B) / lam in integers."""
    return [_integer_row(a + (b,)) for a, b in constraints]


def _check_dual(rows, y, cost, value):
    """Check the dual certificate y in integers, raising CertificateError on a failure.

    rows are the constraint rows from _integer_rows and cost = (C, g) the
    objective C / g.  An optimal certificate has y >= 0, y^T A = C / g and
    y^T b = value; a Farkas certificate (value None, C zero) has y >= 0,
    y^T A = 0 and y^T b < 0.  With y = Y / s and L the lcm of the lam_i of the
    rows with Y_i != 0, y^T [A | b] is the integer sum of Y_i * (L / lam_i) *
    (A_i | B_i) over s * L, so both identities are compared as integers.
    """
    farkas = value is None
    Y, s = _integer_row(y)
    if len(Y) != len(rows) or any(v < 0 for v in Y):
        raise CertificateError(f"certificate check failed: {'Farkas' if farkas else 'dual'} sign")
    used = [(v, rows[i]) for i, v in enumerate(Y) if v]
    lcm = math.lcm(*(lam for _, (_, lam) in used))
    C, g = cost
    sums = [0] * (len(C) + 1)
    for v, (row, lam) in used:
        w = v * (lcm // lam)
        for k, a in enumerate(row):
            sums[k] += w * a
    t = s * lcm
    if any(S * g != c * t for S, c in zip(sums, C)):
        raise CertificateError(
            f"certificate check failed: {'Farkas y^T A = 0' if farkas else 'y^T A = c'}"
        )
    if farkas:
        if sums[-1] >= 0:
            raise CertificateError("certificate check failed: Farkas y^T b < 0")
    elif sums[-1] * value.denominator != value.numerator * t:
        raise CertificateError("certificate check failed: y^T b = optimum")


def _certify_optimal(rows, cost, x, y, value):
    """Check an optimal outcome against the original data, all in integers.

    rows and cost as _check_dual takes them.  With x = X / q: C . X = value * g * q,
    A_i . X <= B_i * q for every row, then the dual identities of _check_dual.
    """
    C, g = cost
    X, q = _integer_row(x)
    if len(X) != len(C) or _dot(C, X) * value.denominator != value.numerator * g * q:
        raise CertificateError("certificate check failed: objective value")
    if any(_dot(row, X) > row[-1] * q for row, _ in rows):
        raise CertificateError("certificate check failed: primal feasibility")
    _check_dual(rows, y, cost, value)


def lp_max(problem: LpProblem) -> LpOutcome:
    """Solve max c . x over {A x <= b} through its dual, with a certified outcome."""
    cons = problem.constraints
    d = len(problem.objective)
    int_rows = _integer_rows(cons)
    C, g = _integer_row(problem.objective)
    B = [ints[-1] for ints, _ in int_rows]

    # min b . y  s.t.  A^T y = c, y >= 0, as max (-B / g) . nu over
    # sum_i A_i nu_i = C, nu >= 0, with y_i = lam_i * nu_i / g
    engine = _Simplex(int_rows, C, ([-x for x in B], g))
    status, value, z = engine.solve()

    if status != INFEASIBLE:
        y = tuple(exact_div(lam * p, g * q) if p else 0 for (p, q), (_, lam) in zip(z, int_rows))
        if status == UNBOUNDED:
            # a ray of the dual: y >= 0, A^T y = 0, b . y < 0
            _check_dual(int_rows, y, ([0] * d, 1), None)
            return LpOutcome(status=INFEASIBLE, farkas=y)
        # x solves A_i . x = B_i over the basic rows: the dual's multipliers for the cost B
        x = engine.row_multipliers(B + [0] * len(engine.art_row))
        optimum = -value
        _certify_optimal(int_rows, (C, g), x, y, optimum)
        return LpOutcome(status=OPTIMAL, optimum=optimum, point=x, dual_multipliers=y)

    # the dual is infeasible: with y its phase-1 multipliers, r = -y has
    # c . r > 0 and A r <= 0
    r = tuple(-v for v in engine.row_multipliers(engine.phase1_objective()))
    R, _ = _integer_row(r)
    if _dot(C, R) <= 0:
        raise CertificateError("certificate check failed: ray improves")
    if any(_dot(row, R) > 0 for row, _ in int_rows):
        raise CertificateError("certificate check failed: ray recession")
    # r is unbounded only over a nonempty region; max 0 . x decides that,
    # its dual being feasible at y = 0
    feasibility = lp_max(LpProblem((0,) * d, cons))
    if feasibility.status == INFEASIBLE:
        return feasibility
    return LpOutcome(status=UNBOUNDED, ray=r)

"""Exact linear programming over the rationals.

lp_max maximizes a linear objective over {x : a_i . x <= b_i} with free
variables.  The engine is the simplex method on the standard equality form
(free variables split into positive parts, slack columns, artificial columns
where needed) with Bland's anti-cycling rule and lowest-index tie-breaking,
so every run terminates and is deterministic.  The tableau is fraction-free:
integer rows over one common denominator, pivoted by the elimination kernel
of qlinalg, with ratios compared by cross-multiplication.

Certificates are first-class: optimal outcomes carry dual multipliers
recomputed from the final basis against the original data and checked to
satisfy the strong duality identities exactly (y >= 0, y^T A = c,
y^T b = optimum); infeasible outcomes carry a Farkas vector and unbounded
outcomes an improving ray, checked the same way.

lp_max_assume_bounded solves the same problem through its dual (far fewer
tableau rows when constraints outnumber variables).  It is only a shortcut
for problems already known to be feasible and bounded: it falls back to
lp_max when the dual is not optimal, and verifies the full certificate set,
raising CertificateError when a check fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from .errors import CertificateError, DimensionMismatch
from .qlinalg import _integer_row, _pivot_step, dot, exact_div, solve_square

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpProblem:
    """maximize objective . x  subject to  normal . x <= rhs per constraint."""

    objective: tuple
    constraints: tuple

    def __post_init__(self):
        obj = tuple(self.objective)
        cons = tuple((tuple(a), b) for a, b in self.constraints)
        if not obj:
            raise DimensionMismatch("objective must have at least one entry")
        for a, _ in cons:
            if len(a) != len(obj):
                raise DimensionMismatch(
                    f"constraint normal of length {len(a)}, expected {len(obj)}"
                )
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
    """Standard-form tableau: max c . z  s.t.  rows * z = rhs, z >= 0.

    The tableau is fraction-free: tab holds integer rows over the common
    denominator den > 0, the reduced-cost row last.  Each constraint row is
    scaled to integers once; its crash-basis column, scaled by the same lam,
    is set back to 1 and so stands for lam * z_j (scale[j] = lam).  Positive
    column scalings keep every sign and scale a ratio test's ratios alike,
    so Bland's pivots are those of the rational tableau.
    """

    def __init__(self, rows, rhs, cvec):
        m = len(rows)
        n_real = len(cvec)
        self.m = m
        self.n_real = n_real
        self.flips = []
        frows, frhs = [], []
        for row, b in zip(rows, rhs):
            if b < 0:
                frows.append([-x for x in row])
                frhs.append(-b)
                self.flips.append(-1)
            else:
                frows.append(list(row))
                frhs.append(b)
                self.flips.append(1)
        self.frows = frows

        # crash basis: reuse existing unit columns, artificials for the rest
        basis = [None] * m
        for j in range(n_real):
            pivot_row = None
            ok = True
            for i in range(m):
                x = frows[i][j]
                if x:
                    if x != 1 or pivot_row is not None:
                        ok = False
                        break
                    pivot_row = i
            if ok and pivot_row is not None and basis[pivot_row] is None:
                basis[pivot_row] = j
        self.art_row = {}
        next_col = n_real
        for i in range(m):
            if basis[i] is None:
                self.art_row[next_col] = i
                basis[i] = next_col
                next_col += 1
        self.n_total = next_col
        self.basis = basis

        self.scale = [1] * next_col
        tab = []
        for i in range(m):
            row, lam = _integer_row(frows[i] + [0] * (next_col - n_real) + [frhs[i]])
            row[basis[i]] = 1
            self.scale[basis[i]] = lam
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
        """Bland iterations for max obj . z from the current basis.

        Returns (status, entering), entering being the unbounded column when
        status is "unbounded".  The reduced-cost row tab[m] is red_scale * den
        times the reduced costs of the scaled variables, so its last entry is
        minus red_scale * den times the objective value.
        """
        tab, basis, m = self.tab, self.basis, self.m
        cost, self.red_scale = _integer_row([exact_div(c, s) for c, s in zip(obj, self.scale)])
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

    def solve(self, cvec):
        """Two-phase run; returns (status, payload) in the unscaled variables."""
        barred = set(self.art_row)
        tab, basis, m, scale = self.tab, self.basis, self.m, self.scale
        if self.art_row:
            obj1 = [0] * self.n_real + [-1] * len(self.art_row)
            status, _ = self.run_phase(obj1, frozenset())
            if status != OPTIMAL:
                raise CertificateError("phase 1 cannot be unbounded")
            if tab[m][-1]:
                return INFEASIBLE, None
            # drive zero-level artificials out where a real pivot exists;
            # rows with none are inert (all-zero on real columns) and stay
            for i in range(m):
                if basis[i] in self.art_row:
                    row = tab[i]
                    col = next((j for j in range(self.n_real) if row[j]), None)
                    if col is not None:
                        self._pivot(i, col)
        obj2 = list(cvec) + [0] * len(self.art_row)
        status, enter = self.run_phase(obj2, barred)
        den = self.den
        if status == UNBOUNDED:
            ray = {enter: 1}
            for i in range(m):
                x = tab[i][enter]
                if x:
                    ray[basis[i]] = exact_div(-x * scale[enter], den * scale[basis[i]])
            return UNBOUNDED, {"ray": ray}
        zvals = {}
        for i in range(m):
            zvals[basis[i]] = exact_div(tab[i][-1], den * scale[basis[i]])
        value = exact_div(-tab[m][-1], den * self.red_scale)
        return OPTIMAL, {"value": value, "z": zvals, "phase2_obj": obj2}

    def row_multipliers(self, obj_ext):
        """Multipliers y for the original rows, from the final basis.

        Solves (A_B)^T pi = obj_B on the flipped system, then un-flips.
        """
        cols = []
        for j in self.basis:
            if j < self.n_real:
                cols.append([self.frows[i][j] for i in range(self.m)])
            else:
                r = self.art_row[j]
                cols.append([1 if i == r else 0 for i in range(self.m)])
        rhs = [obj_ext[j] for j in self.basis]
        pi = solve_square(cols, rhs)
        if pi is None:
            raise CertificateError("basis matrix is singular")
        return tuple(f * p for f, p in zip(self.flips, pi))


def _certify_optimal(problem, x, y, value):
    c = problem.objective
    cons = problem.constraints
    if dot(c, x) != value:
        raise CertificateError("certificate check failed: objective value")
    for a, b in cons:
        if dot(a, x) > b:
            raise CertificateError("certificate check failed: primal feasibility")
    if len(y) != len(cons) or any(v < 0 for v in y):
        raise CertificateError("certificate check failed: dual sign")
    for k in range(len(c)):
        if sum(y[i] * cons[i][0][k] for i in range(len(cons))) != c[k]:
            raise CertificateError("certificate check failed: y^T A = c")
    if sum(y[i] * cons[i][1] for i in range(len(cons))) != value:
        raise CertificateError("certificate check failed: y^T b = optimum")


def lp_max(problem: LpProblem) -> LpOutcome:
    """Solve max c . x over {A x <= b} with certified outcome."""
    c = problem.objective
    cons = problem.constraints
    d = len(c)
    m = len(cons)

    # columns: x+ (d), x- (d), slacks (m)
    rows = []
    rhs = []
    for i, (a, b) in enumerate(cons):
        row = list(a) + [-x for x in a] + [0] * m
        row[2 * d + i] = 1
        rows.append(row)
        rhs.append(b)
    cstd = list(c) + [-x for x in c] + [0] * m

    engine = _Simplex(rows, rhs, cstd)
    status, payload = engine.solve(cstd)

    if status == INFEASIBLE:
        obj1 = [0] * engine.n_real + [-1] * len(engine.art_row)
        y = engine.row_multipliers(obj1)
        if any(v < 0 for v in y):
            raise CertificateError("certificate check failed: Farkas sign")
        for k in range(d):
            if sum(y[i] * cons[i][0][k] for i in range(m)) != 0:
                raise CertificateError("certificate check failed: Farkas y^T A = 0")
        if sum(y[i] * cons[i][1] for i in range(m)) >= 0:
            raise CertificateError("certificate check failed: Farkas y^T b < 0")
        return LpOutcome(status=INFEASIBLE, farkas=y)

    if status == UNBOUNDED:
        zray = payload["ray"]
        r = tuple(zray.get(k, 0) - zray.get(d + k, 0) for k in range(d))
        if dot(c, r) <= 0:
            raise CertificateError("certificate check failed: ray improves")
        for a, _ in cons:
            if dot(a, r) > 0:
                raise CertificateError("certificate check failed: ray recession")
        return LpOutcome(status=UNBOUNDED, ray=r)

    z = payload["z"]
    x = tuple(z.get(k, 0) - z.get(d + k, 0) for k in range(d))
    y = engine.row_multipliers(payload["phase2_obj"])
    value = dot(c, x)
    if value != payload["value"]:
        raise CertificateError("certificate check failed: tableau value")
    _certify_optimal(problem, x, y, value)
    return LpOutcome(status=OPTIMAL, optimum=value, point=x, dual_multipliers=y)


def lp_max_assume_bounded(problem: LpProblem) -> LpOutcome:
    """lp_max for problems known feasible and bounded, via the dual.

    The dual has one row per primal dimension, which is much smaller when
    constraints are plentiful.  Falls back to lp_max when the assumption
    fails (the dual is not optimal); a failed certificate check raises
    CertificateError, as in lp_max.
    """
    c = problem.objective
    cons = problem.constraints
    d = len(c)
    m = len(cons)
    if m == 0:
        return lp_max(problem)

    rows = [[cons[i][0][k] for i in range(m)] for k in range(d)]
    rhs = list(c)
    cdual = [-cons[i][1] for i in range(m)]

    engine = _Simplex(rows, rhs, cdual)
    status, payload = engine.solve(cdual)
    if status != OPTIMAL:
        return lp_max(problem)

    z = payload["z"]
    lam = tuple(z.get(i, 0) for i in range(m))
    pi = engine.row_multipliers(payload["phase2_obj"])
    x = tuple(-p for p in pi)
    value = dot(c, x)
    if value != -payload["value"]:
        raise CertificateError("dual/primal value mismatch")
    _certify_optimal(problem, x, lam, value)
    return LpOutcome(status=OPTIMAL, optimum=value, point=x, dual_multipliers=lam)

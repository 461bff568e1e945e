"""Exact linear programming over the rationals.

lp_max maximizes a linear objective over {x : a_i . x <= b_i} with free
variables.  It solves one formulation, the dual: min b . lam subject to
A^T lam = c, lam >= 0, a tableau with one row per primal coordinate, which
is the smaller one whenever constraints outnumber variables.  The engine is
the two-phase simplex method (artificial columns where needed) with Bland's
anti-cycling rule and lowest-index tie-breaking, so every run terminates and
is deterministic.  The tableau is fraction-free: integer rows over one
common denominator, pivoted by the elimination kernel of qlinalg, with
ratios compared by cross-multiplication.  Each constraint row and the
objective are scaled to integers once, on the way in; the phase cost rows,
the basic values and the multipliers are computed in integers, and a
Fraction is made only for a value that is returned.

Each of the dual's three outcomes certifies a primal one (Farkas' lemma;
Schrijver, Theory of Linear and Integer Programming, 1986, ch. 7):

- dual optimal: lam is the primal's dual multipliers, and the primal point
  x solves A_B x = b_B over the final basis.  The outcome is OPTIMAL, with
  x feasible, y = lam >= 0, y^T A = c and y^T b = c . x = optimum checked.
- dual unbounded: the dual's ray is a Farkas vector, y >= 0 with y^T A = 0
  and y^T b < 0, checked; the outcome is INFEASIBLE.
- dual infeasible: minus the phase-1 multipliers is a ray r with c . r > 0
  and A r <= 0, checked.  The primal is unbounded along r if it is
  feasible at all, which max 0 . x decides (its dual is feasible at
  lam = 0): an optimal outcome there, with its point checked, gives
  UNBOUNDED with the ray r; an infeasible one is returned as it is.

The checks run in integers against the original data: the point x = X / q
against each row scaled to integers (A_i | B_i) / lam_i, as
A_i . X <= B_i * q, and y^T [A | b] as one integer combination of those
rows (_check_dual).  A failed check raises CertificateError.
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
    """Standard-form tableau: max c . z  s.t.  rows * z = rhs, z >= 0.

    The input is in integers, as _integer_row gives it: each row is
    (ints, lam), the row's coefficients then its right-hand side, all times
    its scale lam > 0, and the cost is (ints, g), c = ints / g; every
    objective below takes that form.  The tableau is fraction-free:
    tab holds integer rows over the common denominator den > 0, the
    reduced-cost row last.  A row whose right-hand side is negative is
    negated.  Its crash-basis column, lam in the integer row, is set back to
    1 and so stands for lam * z_j (scale[j] = lam).  Positive column scalings
    keep every sign and scale a ratio test's ratios alike, so Bland's pivots
    are those of the rational tableau.
    """

    def __init__(self, rows, cost):
        m = len(rows)
        n_real = len(cost[0])
        self.m = m
        self.n_real = n_real
        self.cost = cost
        self.flips = [1 if ints[-1] >= 0 else -1 for ints, _ in rows]
        self.rows = [ints if f > 0 else [-x for x in ints] for (ints, _), f in zip(rows, self.flips)]
        self.lams = [lam for _, lam in rows]

        # crash basis: reuse existing unit columns, artificials for the rest
        basis = [None] * m
        for j in range(n_real):
            pivot_row = None
            ok = True
            for i in range(m):
                x = self.rows[i][j]
                if x:
                    if x != self.lams[i] or pivot_row is not None:
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
            ints = self.rows[i]
            row = ints[:n_real] + [0] * (next_col - n_real) + ints[-1:]
            row[basis[i]] = 1
            self.scale[basis[i]] = self.lams[i]
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
        return [0] * self.n_real + [-1] * len(self.art_row), 1

    def solve(self):
        """Two-phase run; returns (status, payload) in the unscaled variables.

        Values come as integer pairs (numerator, denominator): z_j for each
        basic column, or the ray's coordinate for each column it moves.
        """
        barred = set(self.art_row)
        tab, basis, m, scale = self.tab, self.basis, self.m, self.scale
        if self.art_row:
            status, _ = self.run_phase(self.phase1_objective(), frozenset())
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
        ints, g = self.cost
        status, enter = self.run_phase((ints + [0] * len(self.art_row), g), barred)
        den = self.den
        if status == UNBOUNDED:
            ray = {enter: (1, 1)}
            for i in range(m):
                x = tab[i][enter]
                if x:
                    ray[basis[i]] = (-x * scale[enter], den * scale[basis[i]])
            return UNBOUNDED, {"ray": ray}
        zvals = {basis[i]: (tab[i][-1], den * scale[basis[i]]) for i in range(m)}
        value = exact_div(-tab[m][-1], den * self.red_scale)
        return OPTIMAL, {"value": value, "z": zvals}

    def row_multipliers(self, obj_ext):
        """Multipliers y for the original rows, from the final basis, for obj_ext = (ints, g).

        Solves A_B^T y = c_B, c = ints / g.  Basic column j gives the
        equation sum_i flip_i * F_ij / lam_i * y_i = ints[j] / g, F the
        flipped integer rows.  Each coefficient is reduced by a gcd and the
        equation multiplied by the lcm of the reduced denominators, so
        solve_square gets the least integer form of each equation.
        """
        m, rows, lams, flips = self.m, self.rows, self.lams, self.flips
        obj, g = obj_ext
        mat, rhs = [], []
        for j in self.basis:
            if j < self.n_real:
                nums, dens = [], []
                for f, row, lam in zip(flips, rows, lams):
                    h = math.gcd(row[j], lam)
                    nums.append(f * row[j] // h)
                    dens.append(lam // h)
            else:
                r = self.art_row[j]
                nums = [flips[r] if i == r else 0 for i in range(m)]
                dens = [1] * m
            h = math.gcd(obj[j], g)
            lcm = math.lcm(g // h, *dens)
            mat.append([x * (lcm // q) for x, q in zip(nums, dens)])
            rhs.append(obj[j] // h * (lcm // (g // h)))
        y = solve_square(mat, rhs)
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


def _values(z, m):
    """The first m columns' values from a solve payload, an absent column being 0."""
    return tuple(exact_div(*z[i]) if i in z else 0 for i in range(m))


def lp_max(problem: LpProblem) -> LpOutcome:
    """Solve max c . x over {A x <= b} through its dual, with a certified outcome."""
    c = problem.objective
    cons = problem.constraints
    d = len(c)
    m = len(cons)
    int_rows = _integer_rows(cons)
    C, g = _integer_row(c)

    # min b . lam  s.t.  A^T lam = c, lam >= 0, as max (-b) . lam
    rows = [_integer_row([a[k] for a, _ in cons] + [c[k]]) for k in range(d)]
    B, h = _integer_row([b for _, b in cons])
    engine = _Simplex(rows, ([-x for x in B], h))
    status, payload = engine.solve()

    if status == OPTIMAL:
        lam = _values(payload["z"], m)
        # x solves A_B x = b_B: the dual's multipliers for the objective b
        x = engine.row_multipliers((B + [0] * len(engine.art_row), h))
        value = -payload["value"]
        _certify_optimal(int_rows, (C, g), x, lam, value)
        return LpOutcome(status=OPTIMAL, optimum=value, point=x, dual_multipliers=lam)

    if status == UNBOUNDED:
        # a ray of the dual: lam >= 0, A^T lam = 0, b . lam < 0
        farkas = _values(payload["ray"], m)
        _check_dual(int_rows, farkas, ([0] * d, 1), None)
        return LpOutcome(status=INFEASIBLE, farkas=farkas)

    # the dual is infeasible: with y its phase-1 multipliers, r = -y has
    # c . r > 0 and A r <= 0
    r = tuple(-v for v in engine.row_multipliers(engine.phase1_objective()))
    R, _ = _integer_row(r)
    if _dot(C, R) <= 0:
        raise CertificateError("certificate check failed: ray improves")
    if any(_dot(row, R) > 0 for row, _ in int_rows):
        raise CertificateError("certificate check failed: ray recession")
    # r is unbounded only over a nonempty region; max 0 . x decides that,
    # its dual being feasible at lam = 0
    feasibility = lp_max(LpProblem((0,) * d, cons))
    if feasibility.status == INFEASIBLE:
        return feasibility
    return LpOutcome(status=UNBOUNDED, ray=r)

"""Checks every CLI answer of a run against references computed another way.

The references use the public API on a different route than the timed op
took, or this package's own exact arithmetic (linalg.py):

- simplex thickness in closed form: the difference body of a d-simplex has
  one facet pair per split of its vertices into two non-empty sets, with the
  normal of the affine function that is 1 on one side and 0 on the other,
  so thickness = 1 / max over splits of h_B(normal);
- facets and membership by brute force over d-subsets of the points;
- ball-hull vertices by brute force over d-subsets of its facets;
- a witness search's canonical candidate cuts from those facets and the
  inscribed scale, each re-verified when the search reports "not found".

References are computed after the timed phase.  Values that an image of a
shape shares with the shape (thickness, completeness, whether a witness
search finds a cut) are cached per shape,
so the checker's own arithmetic runs once per shape, not once per op.  Report items that read
"skipped" but carry pass: true are counted as unchecked, never as passes.
"""

import json
import re
from fractions import Fraction
from itertools import combinations, product

from linalg import affine_rank, dot, inverse, null_vector, solve

# The dimension-3 body of verify --claims3 and the cut its report verifies.
TETRAHEDRON = ((-1, -1, -1), (1, 1, -1), (1, -1, 1), (-1, 1, 1))
TETRAHEDRON_CUT = ((-1, -1, -1), 1)

EXPECTED_ITEMS = {
    "claims3": ["diameter", "complete", "thickness", "inball_scale", "reduction_witness"],
    "prop": [
        "pairwise_distances",
        "vertex_facet_distances",
        "unit_ball_inscribed",
        "thickness",
        "reduction_witness",
        "complete",
        "thickness_diameter_ratio",
    ],
}


class CheckFailed(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


RATIONAL = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")
QUOTED = re.compile(r"'([^']*)'")


def _q(text):
    """A rational from the CLI's 'p' or 'p/q' string; anything else fails the check."""
    _require(isinstance(text, str) and RATIONAL.fullmatch(text), f"not a rational string: {text!r}")
    return Fraction(text)


def norm(x, ball):
    return sum(abs(c) for c in x) if ball == "l1" else max(abs(c) for c in x)


def dual(u, ball):
    """Support function of the unit ball at u."""
    return max(abs(c) for c in u) if ball == "l1" else sum(abs(c) for c in u)


def width(verts, u, ball):
    """Width of conv(verts) along u, in the norm's units."""
    vals = [dot(u, v) for v in verts]
    return (max(vals) - min(vals)) / Fraction(dual(u, ball))


def ball_facets(ball, dim):
    if ball == "l1":
        return [tuple(s) for s in product((1, -1), repeat=dim)]
    return [tuple((sign if i == k else 0) for i in range(dim)) for k in range(dim) for sign in (1, -1)]


def diameter(verts, ball):
    return max(
        norm([a - b for a, b in zip(u, v)], ball)
        for i, u in enumerate(verts) for v in verts[i + 1:]
    )


def walsh_vertices(n):
    rows = [[1]]
    for _ in range(n):
        rows = [r + r for r in rows] + [r + [-x for x in r] for r in rows]
    return [tuple(r[1:]) for r in rows]


def simplex_affine(verts):
    """(g_k, c_k) with barycentric coordinate lambda_k(x) = g_k . x + c_k."""
    d = len(verts[0])
    inv = inverse([list(v) + [1] for v in verts])
    return [([inv[j][k] for j in range(d)], inv[d][k]) for k in range(d + 1)]


def simplex_thickness(verts, ball):
    lam = simplex_affine(verts)
    d = len(verts[0])
    worst = 0
    for mask in range(1, 2 ** d):  # splits I | complement; index d is never in I
        u = [sum(lam[k][0][i] for k in range(d) if mask >> k & 1) for i in range(d)]
        worst = max(worst, dual(u, ball))
    return 1 / Fraction(worst)


def facets(points):
    """Every facet (a, b), a . p <= b on all points, of a full-dimensional hull.

    A valid hyperplane through d affinely independent points is a facet; the
    normal is scaled so that its first nonzero entry is +1 or -1.
    """
    d = len(points[0])
    out = {}
    for combo in combinations(points, d):
        if affine_rank(combo) < d - 1:
            continue
        base = combo[0]
        a = null_vector([[x - y for x, y in zip(p, base)] for p in combo[1:]], d)
        if a is None:
            continue
        lead = abs(next(x for x in a if x))
        a = tuple(x / lead for x in a)
        b = dot(a, base)
        vals = [dot(a, p) for p in points]
        if all(v <= b for v in vals):
            out[a] = b
        elif all(v >= b for v in vals):
            out[tuple(-x for x in a)] = -b
    return out


def inball(points, ball):
    """Largest t with t * ball inside conv(points), or None if the origin is not interior."""
    ineq = facets(points)
    if any(b <= 0 for b in ineq.values()):
        return None
    return min(b / dual(a, ball) for a, b in ineq.items())


def candidate_cuts(verts, ball):
    """The witness search's cut family: for each facet with outward normal a,
    the halfspace -a . x <= t * h_B(-a), t the inscribed scale; normals scaled
    as in facets()."""
    scale = inball(verts, ball)
    return [
        (tuple(-x for x in a), scale * dual([-x for x in a], ball))
        for a in facets(verts)
    ]


def _scaled(a, b):
    lead = abs(next(x for x in a if x))
    return tuple(x / lead for x in a), b / lead


def ball_hull(verts, r, ball):
    """(normal, rhs) pairs of the intersection of radius-r balls centred in the body."""
    d = len(verts[0])
    return [(s, r - max(-dot(s, v) for v in verts)) for s in ball_facets(ball, d)]


def ball_hull_vertices(verts, r, ball):
    hull = ball_hull(verts, r, ball)
    d = len(verts[0])
    found = set()
    for combo in combinations(hull, d):
        y = solve([list(a) for a, _ in combo], [b for _, b in combo])
        if y is not None and all(dot(a, y) <= b for a, b in hull):
            found.add(tuple(y))
    return found


def _hull_inside(verts, r, ball):
    """Is every vertex of the radius-r ball hull inside conv(verts)?"""
    ineq = facets(verts)
    return all(
        all(dot(a, y) <= b for a, b in ineq.items())
        for y in ball_hull_vertices(verts, r, ball)
    )


class Checker:
    """Validates op outputs; public API routes come from the minkgeom package."""

    def __init__(self, mk):
        self.mk = mk
        self.unchecked_items = 0
        self.search_found = 0
        self.search_not_found = 0
        self._cache = {}

    def _cached(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    def _ball(self, ball, dim):
        return self._cached(("ball", ball, dim), lambda: (self.mk.l1_ball if ball == "l1" else self.mk.linf_ball)(dim))

    def _poly(self, verts):
        return self.mk.VPolytope(len(verts[0]), verts)

    def check(self, op, rc, text):
        """None when the answer is right, else the reason it is not."""
        try:
            obj = json.loads(text)
            _require(isinstance(obj, dict), "output is not a JSON object")
            _require("error" not in obj, f"error output: {obj.get('error')}")
            getattr(self, "_check_" + op.argv[0])(op, rc, obj)
        except CheckFailed as exc:
            return str(exc)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"malformed output: {type(exc).__name__}: {exc}"
        return None

    # -- verify reports -------------------------------------------------------

    def _items(self, obj, report):
        items = obj["items"]
        _require([i["name"] for i in items] == EXPECTED_ITEMS[report], "unexpected report items")
        for item in items:
            _require(isinstance(item["pass"], bool), f"item {item['name']}: pass is not a boolean")
            _require(obj["ok"] is False or item["pass"], f"ok: true next to failing item {item['name']}")
            _require(item["pass"], f"item {item['name']} failed")
            if item["computed"].startswith("skipped"):
                self.unchecked_items += 1
        _require(obj["ok"] is True, "report not ok")

    def _claims3_reference(self):
        verts, ball = TETRAHEDRON, "l1"
        a, b = TETRAHEDRON_CUT
        return {
            "diameter": diameter(verts, ball),
            "pairs": {norm([x - y for x, y in zip(u, v)], ball) for i, u in enumerate(verts) for v in verts[i + 1:]},
            "complete": _hull_inside(verts, diameter(verts, ball), ball),
            "thickness": simplex_thickness(verts, ball),
            "inball": inball(verts, ball),
            "removed": ", ".join(str(i) for i, v in enumerate(verts) if dot(a, v) > b),
        }

    def _check_claims3(self, obj):
        """Every number in the items' computed strings against the tetrahedron's, computed here."""
        ref = self._cached("claims3", self._claims3_reference)
        computed = {i["name"]: i["computed"] for i in obj["items"]}
        m = re.fullmatch(r"diameter (\S+), pair distances \[(.*)\]", computed["diameter"])
        _require(m and _q(m[1]) == ref["diameter"], f"claims3 diameter: {computed['diameter']}")
        _require({_q(x) for x in QUOTED.findall(m[2])} == ref["pairs"], "claims3 pair distances")
        _require(computed["complete"] == str(ref["complete"]).lower(), "claims3 complete")
        m = re.fullmatch(r"exact_lp (\S+) along \((.*)\), difference_body (\S+) along \((.*)\)", computed["thickness"])
        _require(m, f"claims3 thickness: {computed['thickness']}")
        for value, direction in ((m[1], m[2]), (m[3], m[4])):
            u = [_q(x) for x in QUOTED.findall(direction)]
            _require(_q(value) == ref["thickness"], f"claims3 thickness {value}, expected {ref['thickness']}")
            _require(len(u) == 3 and any(u) and width(TETRAHEDRON, u, "l1") == ref["thickness"],
                     f"claims3 thickness direction ({direction})")
        _require(_q(computed["inball_scale"]) == ref["inball"], "claims3 inball_scale")
        m = re.fullmatch(r"valid (\w+), removed \[(.*)\], thickness (\S+) -> (\S+)", computed["reduction_witness"])
        _require(m and m[1] == "true" and m[2] == ref["removed"], f"claims3 witness: {computed['reduction_witness']}")
        _require(_q(m[3]) == _q(m[4]) == ref["thickness"], "claims3 witness thickness")

    def _check_verify(self, op, rc, obj):
        report = op.ctx["report"]
        _require(rc == 0, f"exit code {rc}")
        self._items(obj, report)
        if report == "claims3":
            self._check_claims3(obj)
            return
        n = op.ctx["n"]
        dim = 2 ** n - 1
        _require(obj["n"] == n and obj["dim"] == dim, "wrong n or dim")
        _require(obj["mode"] == ("exact" if n <= 3 else "certificate"), "wrong mode")
        _require(_q(obj["thickness"]) == 2, f"thickness {obj['thickness']}, expected 2")
        _require(_q(obj["diameter"]) == 2 ** n, f"diameter {obj['diameter']}, expected {2 ** n}")
        _require(_q(obj["ratio"]) == Fraction(2, 2 ** n), f"ratio {obj['ratio']}, expected 2^(1-n)")
        if n <= 3:
            _require(obj["complete"] is True and obj["thickness_bounds"] is None, "exact mode fields")
        else:
            _require(obj["complete"] is None, "certificate mode cannot decide completeness")
            _require([_q(x) for x in obj["thickness_bounds"]] == [2, 2], "thickness bounds")
        w = obj["witness"]
        a = [_q(x) for x in w["cut"]["a"]]
        b = _q(w["cut"]["b"])
        removed = [i for i, v in enumerate(walsh_vertices(n)) if dot(a, v) > b]
        _require(removed == [0] and w["removed_vertices"] == [0], f"cut removes {removed}, expected [0]")
        _require(w["valid"] is True, "witness not valid")
        _require(_q(w["thickness_before"]) == _q(w["thickness_after"]) == 2, "witness thickness")

    # -- metrics --------------------------------------------------------------

    def _library_thickness(self, op, mode):
        verts, ball = op.ctx["verts"], op.ctx["ball"]
        return self._cached(
            (mode, op.ctx.get("shape", verts), ball),
            lambda: self.mk.thickness(self._poly(verts), self._ball(ball, len(verts[0])), mode)[0],
        )

    def _reference_thickness(self, op, mode):
        """Thickness in closed form for simplices, else by the library's given mode."""
        verts, ball = op.ctx["verts"], op.ctx["ball"]
        if len(verts) == len(verts[0]) + 1:
            return self._cached(("closed", op.ctx.get("shape", verts), ball), lambda: simplex_thickness(verts, ball))
        return self._library_thickness(op, mode)

    def _check_metrics(self, op, rc, obj):
        verts, ball, mode = op.ctx["verts"], op.ctx["ball"], op.ctx["mode"]
        d = len(verts[0])
        _require(rc == 0, f"exit code {rc}")
        _require(obj["thickness_mode"] == mode, "wrong thickness mode")
        diam = _q(obj["diameter"])
        _require(diam == diameter(verts, ball), "diameter")
        i, j = obj["diameter_witness"]
        _require(norm([x - y for x, y in zip(verts[i], verts[j])], ball) == diam, "diameter witness")
        thick = _q(obj["thickness"])
        direction = tuple(_q(x) for x in obj["thickness_direction"])
        _require(any(direction), "zero thickness direction")
        width = self.mk.width(self._poly(verts), direction, self._ball(ball, d))
        _require(width == thick, f"width {width} along the direction, thickness {thick}")
        other = "exact_lp" if mode == "difference_body" else "difference_body"
        _require(thick == self._reference_thickness(op, other), "thickness differs from the reference")
        if other == "difference_body" and d <= 4:
            # the library's other route, too slow at d = 5 (hull of 31 points)
            _require(thick == self._library_thickness(op, other), "thickness differs from the difference_body route")
        scale = inball(verts, ball)
        if scale is None:
            _require(obj["inball_scale"] is None and obj["inball_note"], "inball_scale for an off-centre body")
        else:
            _require(obj["inball_scale"] is not None and _q(obj["inball_scale"]) == scale, "inball_scale")

    # -- complete -------------------------------------------------------------

    def _check_complete(self, op, rc, obj):
        verts, ball = op.ctx["verts"], op.ctx["ball"]
        d = len(verts[0])
        diam = diameter(verts, ball)
        _require(_q(obj["diameter"]) == diam, "diameter")
        hull = ball_hull(verts, diam, ball)
        reported = {(tuple(_q(x) for x in f["a"]), _q(f["b"])) for f in obj["ball_hull_facets"]["facets"]}
        _require(reported == set(hull), "ball hull facets")
        _require(rc == (0 if obj["complete"] else 1), f"exit code {rc} for complete={obj['complete']}")
        if op.ctx.get("expect_complete"):
            _require(obj["complete"] is True, "a cube under linf must be complete")
        if obj["complete"]:
            _require(obj["violation"] is None, "violation on a complete body")
            inside = self._cached(("complete", op.ctx.get("shape", verts), ball), lambda: _hull_inside(verts, diam, ball))
            _require(inside, "a ball hull vertex lies outside the body")
            return
        v = obj["violation"]
        a = tuple(_q(x) for x in v["facet"]["a"])
        b = _q(v["facet"]["b"])
        point = tuple(_q(x) for x in v["point"])
        vals = [dot(a, p) for p in verts]
        _require(all(x <= b for x in vals), "violated facet is not valid for the body")
        tight = [p for p, x in zip(verts, vals) if x == b]
        _require(len(tight) >= d and affine_rank(tight) == d - 1, "violated facet is not a facet")
        _require(all(dot(n, point) <= rhs for n, rhs in hull), "violation point outside the ball hull")
        _require(dot(a, point) == _q(v["optimum"]) > b, "violation point not beyond its facet")

    # -- witness --------------------------------------------------------------

    def _check_witness(self, op, rc, obj):
        verts, ball = op.ctx["verts"], op.ctx["ball"]
        d = len(verts[0])
        if obj.get("witness", "absent") is None:
            # "no cut in the candidate family" is an answer, not a failure,
            # once every candidate is confirmed not to be a witness
            _require(rc == 1, f"exit code {rc} for a search without a witness")
            valid = self._cached(("valid-cuts", op.ctx["shape"], ball), lambda: self._valid_cuts(verts, ball))
            _require(not valid, f"search found no cut, but the candidate cut {valid[:1]} is a witness")
            self.search_not_found += 1
            return
        _require(rc == 0, f"exit code {rc}")
        a = tuple(_q(x) for x in obj["cut"]["a"])
        b = _q(obj["cut"]["b"])
        _require(_scaled(a, b) in candidate_cuts(verts, ball), "the cut is not in the candidate family")
        removed = [i for i, v in enumerate(verts) if dot(a, v) > b]
        _require(obj["removed_vertices"] == removed and 0 < len(removed) < len(verts), "removed vertices")
        _require(obj["valid"] is True, "witness not valid")
        before = _q(obj["thickness_before"])
        _require(before == _q(obj["thickness_after"]), "cut changed the thickness")
        # the difference-body route needs seconds at d = 4 with extra points
        ref = self._reference_thickness(op, "difference_body" if d == 3 else "exact_lp")
        _require(before == ref, "thickness before the cut differs from the reference")
        again = self.mk.verify_reduction_witness(self._poly(verts), self.mk.halfspace(a, b), self._ball(ball, d))
        _require(json.loads(json.dumps(again.to_obj())) == obj, "re-verifying the cut gives another answer")
        self.search_found += 1

    def _valid_cuts(self, verts, ball):
        """The candidate cuts that the library verifies as witnesses."""
        mk, poly, unit = self.mk, self._poly(verts), self._ball(ball, len(verts[0]))
        valid = []
        for a, b in candidate_cuts(verts, ball):
            try:
                if mk.verify_reduction_witness(poly, mk.halfspace(a, b), unit).valid:
                    valid.append((a, b))
            except (mk.DegenerateBody, mk.EmptyIntersection):
                pass  # the search skips these cuts too
        return valid

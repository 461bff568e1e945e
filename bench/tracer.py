"""Per-layer tracing by wrapping minkgeom's public functions from outside.

Each wrapped call is a span; spans nest on one stack (everything runs in
one thread), and a span's self time is its duration minus its children's.
minkgeom modules import functions by name (metrics.hull_facets,
completeness.thickness, lp.solve_square), so a wrapper is bound at every
module attribute that holds the original; verify_coverage() fails if any
binding still holds an unwrapped function, because a missed binding records
zero time for that layer without any error.

Layers are the modules below.  The scalar and vector helpers of qlinalg are
left unwrapped: they run millions of times per op, a wrapper would multiply
their cost, and their time lands in the caller's self time instead.
"""

import functools
import math
import sys
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

LAYERS = ("cli", "constructions", "completeness", "metrics", "norms", "polytope", "lp", "qlinalg")

LEAF_HELPERS = {
    "qlinalg": {
        "parse_rat", "fmt_rat", "parse_vec", "fmt_vec", "exact_div", "dot", "vadd", "vsub",
        "vneg", "vscale", "zero_vec", "unit_vec", "transpose", "mat_vec", "mat_mul", "identity",
    },
}

# Share of the time of ops whose kind starts with the prefix, spent in a layer.
SHARES = {
    "lp.share_prop4": ("prop4", "lp"),
    "polytope.hull_facets.share_difference_body": ("metrics-db-", "hull"),
}


def _bits(x):
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    return abs(x).bit_length() if isinstance(x, int) else 0


class Tracer:
    def __init__(self):
        self.stack = []  # one [name, child_seconds] frame per open span
        self.stats = defaultdict(lambda: [0, 0.0])  # span name -> calls, self seconds
        self.count = defaultdict(float)
        self.kind_s = defaultdict(float)  # (op kind, tag) -> inclusive seconds
        self.edges = defaultdict(int)  # (parent span, span) -> calls
        self.op_kind = None
        self._thickness_keys = set()
        self._originals = {}  # id(original) -> (original, wrapper)
        self.wrapped = []  # span names
        self._bindings = []  # (module, attribute, original, wrapper)

    # -- spans ----------------------------------------------------------------

    def begin_op(self, kind):
        self.op_kind = kind
        self._thickness_keys = set()

    def end_op(self, seconds):
        self.kind_s[(self.op_kind, "op")] += seconds

    def _wrap(self, name, fn):
        stack, stats, edges = self.stack, self.stats, self.edges
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                edges[(parent, name)] += 1
                st = stats[name]
                st[0] += 1
                st[1] += dur - frame[1]
            if hook is not None:
                hook(parent, args, kwargs, result, dur)
            return result

        return traced

    # -- install / coverage ---------------------------------------------------

    def install(self, package):
        """Wrap every public function of every layer at all of its bindings."""
        modules = _package_modules(package)
        for layer in LAYERS:
            mod = modules[f"{package.__name__}.{layer}"]
            skip = LEAF_HELPERS.get(layer, set())
            for attr, value in list(vars(mod).items()):
                if (
                    callable(value) and not isinstance(value, type) and not attr.startswith("_")
                    and getattr(value, "__module__", None) == mod.__name__ and attr not in skip
                ):
                    self._originals[id(value)] = (value, self._wrap(f"{layer}.{attr}", value))
                    self.wrapped.append(f"{layer}.{attr}")
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                entry = self._originals.get(id(value))
                if entry is not None and entry[0] is value:
                    self._bindings.append((mod, attr, value, entry[1]))
        self.activate()
        self.verify_coverage(package)

    def verify_coverage(self, package):
        """Raise if any module attribute still holds an unwrapped traced function."""
        missed = [
            f"{mod.__name__}.{attr}"
            for mod in _package_modules(package).values()
            for attr, value in vars(mod).items()
            if id(value) in self._originals and self._originals[id(value)][0] is value
        ]
        if missed:
            raise RuntimeError("unwrapped bindings: " + ", ".join(sorted(missed)))

    def activate(self):
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def deactivate(self):
        for mod, attr, original, _ in self._bindings:
            setattr(mod, attr, original)

    # -- counters at layer boundaries ------------------------------------------

    def _lp_outcome(self, args, kwargs, result, dur):
        problem = args[0] if args else kwargs["problem"]
        self.count["lp.calls"] += 1
        self.count["lp.rows"] += len(problem.constraints)
        self.kind_s[(self.op_kind, "lp")] += dur
        values = [result.optimum] + list(result.point or ()) + list(result.dual_multipliers or ())
        self.count["lp.max_bits"] = max([self.count["lp.max_bits"]] + [_bits(v) for v in values if v is not None])

    def _after_lp_lp_max(self, parent, args, kwargs, result, dur):
        if parent != "lp.lp_max_assume_bounded":  # else a fallback, counted from edges
            self._lp_outcome(args, kwargs, result, dur)

    def _after_lp_lp_max_assume_bounded(self, parent, args, kwargs, result, dur):
        self._lp_outcome(args, kwargs, result, dur)

    def _after_polytope_hull_facets(self, parent, args, kwargs, result, dur):
        points = args[0] if args else kwargs["points"]
        distinct = len(dict.fromkeys(tuple(p) for p in points))
        dim = args[1] if len(args) > 1 and args[1] is not None else kwargs.get("dim") or len(next(iter(points)))
        self.count["polytope.hull_facets.candidates"] += math.comb(distinct, dim)
        self.count["polytope.hull_facets.facets"] += len(result.facets)
        self.kind_s[(self.op_kind, "hull")] += dur

    def _after_polytope_extreme_points(self, parent, args, kwargs, result, dur):
        points = args[0] if args else kwargs["points"]
        self.count["polytope.extreme_points.points"] += len(dict.fromkeys(tuple(p) for p in points))
        self.count["polytope.extreme_points.kept"] += len(result)

    def _after_metrics_thickness(self, parent, args, kwargs, result, dur):
        body, ball = args[0], args[1] if len(args) > 1 else kwargs["ball"]
        mode = args[2] if len(args) > 2 else kwargs.get("mode", "exact_lp")
        key = (body.vertices, ball.kind, ball.ball_v.vertices, mode)
        if key in self._thickness_keys:
            self.count["metrics.thickness.repeats"] += 1
        self._thickness_keys.add(key)

    def _ball_built(self, result, dur):
        self.count["norms.ball_build_s"] += dur
        self.count["norms.ball_facets"] += len(result.ball_h.facets)

    def _after_norms_l1_ball(self, parent, args, kwargs, result, dur):
        self._ball_built(result, dur)

    def _after_norms_linf_ball(self, parent, args, kwargs, result, dur):
        self._ball_built(result, dur)

    def _after_norms_custom_ball(self, parent, args, kwargs, result, dur):
        self._ball_built(result, dur)

    def _after_completeness_ball_hull(self, parent, args, kwargs, result, dur):
        self.count["completeness.ball_hull.facets"] += len(result.facets)

    def _after_completeness_search_reduction_witness(self, parent, args, kwargs, result, dur):
        if result is not None:
            self.count["completeness.search.found"] += 1

    # -- report ---------------------------------------------------------------

    def metrics(self):
        """Every per-layer metric, 0 where the layer did no such work."""
        st, c = self.stats, self.count

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(v[1] for k, v in st.items() if k.startswith(layer + "."))
        out.update({
            "lp.calls": int(c["lp.calls"]),
            "lp.rows": int(c["lp.rows"]),
            "lp.fallbacks": self.edges[("lp.lp_max_assume_bounded", "lp.lp_max")],
            "lp.max_bits": int(c["lp.max_bits"]),
            "polytope.hull_facets.calls": st["polytope.hull_facets"][0],
            "polytope.hull_facets.self_s": st["polytope.hull_facets"][1],
            "polytope.hull_facets.candidates": int(c["polytope.hull_facets.candidates"]),
            "polytope.hull_facets.facets": int(c["polytope.hull_facets.facets"]),
            "polytope.hull_facets.yield": ratio(c["polytope.hull_facets.facets"], c["polytope.hull_facets.candidates"]),
            "polytope.extreme_points.calls": st["polytope.extreme_points"][0],
            "polytope.extreme_points.self_s": st["polytope.extreme_points"][1],
            "polytope.extreme_points.kept_ratio": ratio(c["polytope.extreme_points.kept"], c["polytope.extreme_points.points"]),
            "polytope.cut_simplex.self_s": st["polytope.cut_simplex"][1],
            "metrics.thickness.calls": st["metrics.thickness"][0],
            "metrics.thickness.self_s": st["metrics.thickness"][1],
            "metrics.thickness.repeat_ratio": ratio(c["metrics.thickness.repeats"], st["metrics.thickness"][0]),
            "metrics.diameter.self_s": st["metrics.diameter"][1],
            "metrics.width.calls": st["metrics.width"][0],
            "norms.ball_build_s": c["norms.ball_build_s"],
            "norms.ball_facets": int(c["norms.ball_facets"]),
            "norms.norm.calls": st["norms.norm"][0],
            "norms.norm.self_s": st["norms.norm"][1],
            "norms.dual_support.calls": st["norms.dual_support"][0],
            "completeness.is_complete.self_s": st["completeness.is_complete"][1],
            "completeness.ball_hull.facets": int(c["completeness.ball_hull.facets"]),
            "completeness.verify_reduction_witness.calls": st["completeness.verify_reduction_witness"][0],
            "completeness.verify_reduction_witness.self_s": st["completeness.verify_reduction_witness"][1],
            "completeness.search_reduction_witness.self_s": st["completeness.search_reduction_witness"][1],
            "completeness.search.yield": ratio(c["completeness.search.found"], self.edges[(
                "completeness.search_reduction_witness", "completeness.verify_reduction_witness")]),
            "qlinalg.affine_rank.calls": st["qlinalg.affine_rank"][0],
            "qlinalg.affine_rank.self_s": st["qlinalg.affine_rank"][1],
            "qlinalg.solve_square.calls": st["qlinalg.solve_square"][0],
            "qlinalg.solve_square.self_s": st["qlinalg.solve_square"][1],
            "constructions.walsh_simplex.self_s": st["constructions.walsh_simplex"][1],
        })
        for name, (prefix, tag) in SHARES.items():
            part = sum(v for (k, t), v in self.kind_s.items() if t == tag and k.startswith(prefix))
            whole = sum(v for (k, t), v in self.kind_s.items() if t == "op" and k.startswith(prefix))
            out[name] = ratio(part, whole)
        return out


def _package_modules(package):
    prefix = package.__name__ + "."
    return {
        name: mod for name, mod in sys.modules.items()
        if mod is not None and (name == package.__name__ or name.startswith(prefix))
    }

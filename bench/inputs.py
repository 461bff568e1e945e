"""Seeded inputs for the four workloads.

Each random workload draws a fixed population of shapes from a constant
seed; --seed then draws a fresh image of every shape for every round: a
signed permutation of the coordinates (an isometry of both l1 and linf),
an integer translation and a shuffled vertex order, wherever the op's answer
and work do not depend on them.  So each seed gives new input files and new
answers, while the work per round stays the same.  Fresh shapes per seed
were tried first: op time varies several-fold from body to body (a witness
search stops at the first valid cut), and a run's figures then moved by
20-50% from seed to seed.

A round holds every shape of the population once, so whole rounds always
measure the same mix.  The library only ever sees the JSON files written
here and the CLI arguments.
"""

import itertools
import json
import os
import random
from dataclasses import dataclass, field

from linalg import affine_rank

# Rounds generated per run.  A run that is faster than the pool wraps around
# and reuses input files.
POOL_ROUNDS = 8


@dataclass
class Op:
    kind: str  # stratum name; latencies are grouped by it
    argv: list
    ctx: dict = field(default_factory=dict)  # what the checker needs


@dataclass
class Plan:
    balls: list  # (kind, dim) pairs built during set-up
    rounds: list  # list of lists of Op
    files: dict  # path -> JSON text of each input body

    def write(self):
        for path, text in self.files.items():
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)


def _points(rng, dim, count, lo=-4, hi=4):
    """count distinct integer points in [lo, hi]^dim spanning dimension dim."""
    while True:
        pts = tuple(dict.fromkeys(
            tuple(rng.randint(lo, hi) for _ in range(dim)) for _ in range(count)
        ))
        if len(pts) == count and affine_rank(pts) == dim:
            return pts


def _centred(rng, dim, count):
    """Points whose centroid is the origin: p -> count * p - sum, still integer."""
    pts = _points(rng, dim, count)
    total = [sum(col) for col in zip(*pts)]
    return tuple(tuple(count * x - s for x, s in zip(p, total)) for p in pts)


def _cube(rng, dim):
    """An axis-parallel cube; complete under linf."""
    side = rng.randint(1, 3)
    return tuple(tuple(side * s for s in signs) for signs in itertools.product((-1, 1), repeat=dim))


def _image(rng, verts, isometry=True, shift=2, shuffle=True):
    """verts under a random signed coordinate permutation, translation and reordering."""
    dim = len(verts[0])
    perm = rng.sample(range(dim), dim) if isometry else list(range(dim))
    signs = [rng.choice((1, -1)) if isometry else 1 for _ in range(dim)]
    offset = [rng.randint(-shift, shift) for _ in range(dim)]
    pts = [tuple(s * p[j] + t for j, s, t in zip(perm, signs, offset)) for p in verts]
    if shuffle:
        rng.shuffle(pts)
    return tuple(pts)


class _Writer:
    """Names each body's file in workdir and keeps its JSON text for Plan.write."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.files = {}

    def body(self, verts):
        path = os.path.join(self.workdir, f"body{len(self.files):04d}.json")
        self.files[path] = json.dumps({"dim": len(verts[0]), "vertices": [[str(x) for x in v] for v in verts]})
        return path


def _walsh(shape_rng, rng, writer):
    # The paper's reports take no input, so the seed changes nothing here.
    # --prop 3 runs twice so that the median op is a --prop 3 report.
    ops = [Op("claims3", ["verify", "--claims3"], {"report": "claims3"})]
    for n in (2, 3, 3, 4):
        ops.append(Op(f"prop{n}", ["verify", "--prop", str(n)], {"report": "prop", "n": n}))
    return [("l1", 3), ("l1", 7), ("l1", 15)], [ops]


def _simplex_metrics(shape_rng, rng, writer):
    # 4, 4 and 3 shapes of d = 3, 4, 5: op time rises with d and from l1 to
    # linf, and these counts put the median op amid the d = 4 l1 ops
    shapes = [_points(shape_rng, dim, dim + 1) for dim, count in ((3, 4), (4, 4), (5, 3)) for _ in range(count)]
    rounds = []
    for _ in range(POOL_ROUNDS):
        ops = []
        for shape_id, shape in enumerate(shapes):
            verts = _image(rng, shape)
            path = writer.body(verts)
            for ball in ("l1", "linf"):
                ops.append(Op(
                    f"metrics-d{len(shape)-1}-{ball}",
                    ["metrics", "--body", path, "--ball", ball],
                    {"verts": verts, "shape": shape_id, "ball": ball, "mode": "exact_lp"},
                ))
        rounds.append(ops)
    balls = [(b, d) for d in (3, 4, 5) for b in ("l1", "linf")]
    return balls, rounds


def _hull_bodies(shape_rng, rng, writer):
    # Per round, by op time: 9 complete-d3 and the 3-cube, 6 difference-body
    # ops on 5 points, the 4-cube, 6 on 6 points (which hold the median op),
    # then 12 on d = 4 simplices and 6 on 7 points.
    bodies = [_points(shape_rng, 3, n) for n in (5, 6, 7) for _ in range(3)]
    simplices = [_points(shape_rng, 4, 5) for _ in range(6)]
    cubes = [_cube(shape_rng, 3), _cube(shape_rng, 4)]
    rounds = []
    for _ in range(POOL_ROUNDS):
        ops = []
        for shape_id, shape in enumerate(bodies + simplices + cubes):
            verts = _image(rng, shape)
            path = writer.body(verts)
            ctx = {"verts": verts, "shape": shape_id}
            if shape in cubes:
                ops.append(Op("complete-cube", ["complete", "--body", path, "--ball", "linf"],
                              dict(ctx, ball="linf", expect_complete=True)))
                continue
            kind = f"metrics-db-d{len(shape[0])}"
            for ball in ("l1", "linf"):
                ops.append(Op(kind, ["metrics", "--body", path, "--ball", ball, "--mode", "difference_body"],
                              dict(ctx, ball=ball, mode="difference_body")))
            if shape in bodies:
                ball = ("l1", "linf")[shape_id % 2]
                ops.append(Op("complete-d3", ["complete", "--body", path, "--ball", ball], dict(ctx, ball=ball)))
        rounds.append(ops)
    balls = [(b, d) for d in (3, 4) for b in ("l1", "linf")]
    return balls, rounds


# (dim, points beyond a simplex's dim + 1) of the witness-search shapes, two
# shapes each and a third d = 3 simplex, so that an odd count of shapes puts
# the median op inside the ops of one shape.  The search must start at the origin and tries the body's
# facets in order, so images keep the origin and the facet order: simplices
# (facets in vertex order) get only a signed coordinate permutation, other
# bodies (facets sorted by normal) only a new vertex order.
WITNESS_STRATA = ((3, 0), (3, 2), (3, 4), (4, 0), (4, 2))


def _witness_search(shape_rng, rng, writer):
    shapes = [_centred(shape_rng, dim, dim + 1 + extra) for dim, extra in WITNESS_STRATA for _ in range(2)]
    shapes.append(_centred(shape_rng, 3, 4))
    rounds = []
    for _ in range(POOL_ROUNDS):
        ops = []
        for shape_id, shape in enumerate(shapes):
            dim = len(shape[0])
            simplex = len(shape) == dim + 1
            verts = _image(rng, shape, isometry=simplex, shift=0, shuffle=not simplex)
            path = writer.body(verts)
            ops.append(Op(
                f"witness-d{dim}",
                ["witness", "--body", path, "--ball", "l1"],
                {"verts": verts, "shape": shape_id, "ball": "l1"},
            ))
        rounds.append(ops)
    return [("l1", 3), ("l1", 4)], rounds


WORKLOADS = {
    "walsh": _walsh,
    "simplex-metrics": _simplex_metrics,
    "hull-bodies": _hull_bodies,
    "witness-search": _witness_search,
}


def make_plan(workload, seed, workdir) -> Plan:
    """Generate the workload's bodies as JSON for files in workdir; same seed,
    same files.  Nothing is written until Plan.write."""
    shape_rng = random.Random(f"{workload}/shapes")
    rng = random.Random(f"{workload}/{seed}")
    writer = _Writer(workdir)
    balls, rounds = WORKLOADS[workload](shape_rng, rng, writer)
    return Plan(balls, rounds, writer.files)

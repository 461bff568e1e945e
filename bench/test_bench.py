"""Tests of the benchmark's own code: python3 -m pytest bench/test_bench.py"""

import json
import os
import random
import shutil
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import minkgeom  # noqa: E402
import minkgeom.cli  # noqa: E402
from checker import TETRAHEDRON, Checker, inball, simplex_thickness  # noqa: E402
from inputs import Op, _points  # noqa: E402
from run import WORK, run_op, tail_percentile  # noqa: E402
from speed import REF_S, Speedometer  # noqa: E402
from tracer import Tracer  # noqa: E402

PROP2 = Op("prop2", ["verify", "--prop", "2"], {"report": "prop", "n": 2})
PROP4 = Op("prop4", ["verify", "--prop", "4"], {"report": "prop", "n": 4})
CLAIMS3 = Op("claims3", ["verify", "--claims3"], {"report": "claims3"})


@pytest.fixture
def workdir():
    path = WORK / f"test-{os.getpid()}"
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path)
    if not any(WORK.iterdir()):
        WORK.rmdir()


@pytest.fixture(scope="module")
def prop2_output():
    rec = run_op(minkgeom.cli, PROP2)
    assert rec.rc == 0 and rec.error is None
    return json.loads(rec.text)


def test_checker_accepts_the_real_report(prop2_output):
    assert Checker(minkgeom).check(PROP2, 0, json.dumps(prop2_output)) is None


def test_checker_rejects_a_wrong_thickness(prop2_output):
    bad = dict(prop2_output, thickness="3")
    assert "thickness" in Checker(minkgeom).check(PROP2, 0, json.dumps(bad))


def test_checker_rejects_ok_next_to_a_failing_item(prop2_output):
    bad = json.loads(json.dumps(prop2_output))
    bad["items"][0]["pass"] = False
    assert bad["ok"] is True
    assert "ok: true next to failing item" in Checker(minkgeom).check(PROP2, 0, json.dumps(bad))


def test_checker_rejects_an_unparseable_number(prop2_output):
    bad = dict(prop2_output, diameter="4.0")
    assert Checker(minkgeom).check(PROP2, 0, json.dumps(bad)) is not None


def test_checker_rejects_a_wrong_claims3_number():
    checker = Checker(minkgeom)
    text = run_op(minkgeom.cli, CLAIMS3).text
    assert checker.check(CLAIMS3, 0, text) is None
    for name, old, new in (("inball_scale", "1", "2"), ("thickness", "exact_lp 2", "exact_lp 3"),
                           ("diameter", "diameter 4", "diameter 5")):
        bad = json.loads(text)
        item = next(i for i in bad["items"] if i["name"] == name)
        item["computed"] = item["computed"].replace(old, new, 1)
        assert bad["ok"] is True and item["pass"] is True
        assert "claims3" in checker.check(CLAIMS3, 0, json.dumps(bad))


def test_checker_rejects_not_found_when_a_candidate_cut_is_a_witness(workdir):
    path = workdir / "k.json"
    path.write_text(json.dumps({"dim": 3, "vertices": [[str(x) for x in v] for v in TETRAHEDRON]}))
    op = Op("witness-d3", ["witness", "--body", str(path), "--ball", "l1"],
            {"verts": TETRAHEDRON, "shape": 0, "ball": "l1"})
    checker = Checker(minkgeom)
    rec = run_op(minkgeom.cli, op)
    assert rec.rc == 0 and checker.check(op, rec.rc, rec.text) is None
    not_found = json.dumps({"witness": None, "note": "no valid cut in the candidate family"})
    assert "is a witness" in checker.check(op, 1, not_found)
    off_family = json.loads(rec.text)
    off_family["cut"]["b"] = "2"  # still removes vertex 0 only, but is no candidate
    assert "candidate family" in checker.check(op, 0, json.dumps(off_family))


def test_skipped_item_counts_as_unchecked_not_as_a_pass():
    # built from the prop2 shape so the test does not pay for a real --prop 4
    checker = Checker(minkgeom)
    obj = json.loads(run_op(minkgeom.cli, PROP2).text)
    obj.update(n=4, dim=15, mode="certificate", complete=None, thickness_bounds=["2", "2"],
               diameter="16", ratio="1/8")
    obj["witness"]["cut"]["a"] = ["1"] * 15
    item = next(i for i in obj["items"] if i["name"] == "complete")
    item["computed"] = "skipped (certificate mode)"
    assert checker.check(PROP4, 0, json.dumps(obj)) is None
    assert checker.unchecked_items == 1


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(list(range(99)), 0.9) is None  # rank 90, 9 beyond
    assert tail_percentile(list(range(100)), 0.9) == 89  # rank 90, 10 beyond
    assert tail_percentile([1.0] * 5, 0.5) is None


def test_speedometer_scales_to_the_nominal_speed():
    speedo = Speedometer()
    assert speedo.scale(1.0) is None  # no sample, no speed
    speedo.samples = [2 * REF_S, 2 * REF_S, REF_S, 3 * REF_S]  # half the nominal speed
    speedo.spent = 0.2
    assert speedo.scale(1.2) == pytest.approx(0.5)


def test_speedometer_samples_only_while_started():
    speedo = Speedometer()
    speedo.start()
    start = perf_counter()
    while perf_counter() - start < 0.2:
        pass
    speedo.stop()
    count = len(speedo.samples)
    assert count >= 5
    assert sum(speedo.samples) < speedo.spent < 0.2
    start = perf_counter()
    while perf_counter() - start < 0.05:
        pass
    assert len(speedo.samples) == count


def test_closed_form_thickness_matches_the_library():
    rng = random.Random(5)
    for dim in (2, 3, 4):
        verts = _points(rng, dim, dim + 1)
        body = minkgeom.VPolytope(dim, verts)
        for name, ball in (("l1", minkgeom.l1_ball(dim)), ("linf", minkgeom.linf_ball(dim))):
            assert simplex_thickness(verts, name) == minkgeom.thickness(body, ball)[0]


def test_brute_force_inball_matches_the_library():
    verts = ((-1, -1, -1), (1, 1, -1), (1, -1, 1), (-1, 1, 1))
    assert inball(verts, "l1") == 1
    assert inball(tuple((x + 5, y, z) for x, y, z in verts), "l1") is None


def test_tracer_rebinds_every_import_and_restores_them():
    tracer = Tracer()
    original = minkgeom.polytope.hull_facets
    tracer.install(minkgeom)
    try:
        assert minkgeom.metrics.hull_facets is minkgeom.polytope.hull_facets is not original
        assert minkgeom.hull_facets is minkgeom.polytope.hull_facets
        minkgeom.metrics.hull_facets = original  # a binding the tracer missed
        with pytest.raises(RuntimeError, match="minkgeom.metrics.hull_facets"):
            tracer.verify_coverage(minkgeom)
    finally:
        tracer.deactivate()
    assert minkgeom.metrics.hull_facets is original
    assert minkgeom.polytope.hull_facets is original


def test_traced_difference_body_op_records_hull_time(workdir):
    path = workdir / "body.json"
    verts = [[str(x) for x in v] for v in _points(random.Random(3), 3, 6)]
    path.write_text(json.dumps({"dim": 3, "vertices": verts}))
    op = Op("metrics-db-d3", ["metrics", "--body", str(path), "--ball", "l1", "--mode", "difference_body"])
    tracer = Tracer()
    tracer.install(minkgeom)
    try:
        rec = run_op(minkgeom.cli, op, tracer)
    finally:
        tracer.deactivate()
    assert rec.rc == 0
    m = tracer.metrics()
    assert m["polytope.hull_facets.calls"] >= 2  # difference body and inball facets
    assert 0 < m["polytope.hull_facets.share_difference_body"] <= 1
    assert m["polytope.hull_facets.facets"] <= m["polytope.hull_facets.candidates"]

"""End-to-end CLI behavior: JSON output, exit codes, error objects."""

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minkgeom import completeness
from minkgeom.cli import main
from minkgeom.norms import l1_ball, linf_ball
from minkgeom.polytope import body_to_obj

L1_BALL_3 = {
    "vertices": body_to_obj(l1_ball(3).ball_v)["vertices"],
    "facets": body_to_obj(l1_ball(3).ball_h)["facets"],
}


@pytest.fixture
def k_file(tmp_path, K):
    path = tmp_path / "k.json"
    path.write_text(json.dumps(body_to_obj(K)))
    return str(path)


@pytest.fixture
def cube_file(tmp_path, cube3):
    path = tmp_path / "cube.json"
    path.write_text(json.dumps(body_to_obj(cube3)))
    return str(path)


@pytest.fixture
def simplex17_file(tmp_path):
    """The corner simplex conv(0, e_1, ..., e_17): one dimension past BALL_MAX_DIM."""
    verts = [[0] * 17] + [[int(i == j) for j in range(17)] for i in range(17)]
    path = tmp_path / "simplex17.json"
    path.write_text(json.dumps({"dim": 17, "vertices": verts}))
    return str(path)


GOLDEN = Path(__file__).parent / "golden"


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestWalsh:
    def test_walsh_matrix(self, capsys):
        code, obj = run(capsys, ["walsh", "--k", "2"])
        assert code == 0
        assert obj["order"] == 4
        assert obj["rows"][0] == ["1", "1", "1", "1"]
        assert obj["rows"][3] == ["1", "-1", "-1", "1"]

    def test_gate_is_an_error_object(self, capsys):
        code, obj = run(capsys, ["walsh", "--k", "99"])
        assert code == 2
        assert obj["error"]["type"] == "SizeLimitExceeded"


class TestConstruct:
    def test_tetra(self, capsys):
        code, obj = run(capsys, ["construct", "tetra"])
        assert code == 0
        assert obj["dim"] == 3
        assert len(obj["vertices"]) == 4

    def test_simplex(self, capsys):
        code, obj = run(capsys, ["construct", "simplex", "--n", "3"])
        assert code == 0
        assert obj["dim"] == 7
        assert len(obj["vertices"]) == 8

    def test_simplex_needs_n(self, capsys):
        code, obj = run(capsys, ["construct", "simplex"])
        assert code == 2
        assert "error" in obj

    def test_output_file(self, capsys, tmp_path):
        out = tmp_path / "body.json"
        code = main(["construct", "tetra", "-o", str(out)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())["dim"] == 3


class TestMetrics:
    def test_builtin_ball(self, capsys, k_file):
        code, obj = run(capsys, ["metrics", "--body", k_file, "--ball", "l1"])
        assert code == 0
        assert obj["diameter"] == "4"
        assert obj["thickness"] == "2"
        assert obj["inball_scale"] == "1"

    def test_difference_body_mode(self, capsys, k_file):
        code, obj = run(
            capsys,
            ["metrics", "--body", k_file, "--ball", "l1", "--mode", "difference_body"],
        )
        assert code == 0
        assert obj["thickness"] == "2"
        assert obj["thickness_mode"] == "difference_body"

    def test_custom_ball_file(self, capsys, k_file, tmp_path):
        ball_file = tmp_path / "ball.json"
        ball_file.write_text(json.dumps({"dim": 3, **L1_BALL_3}))
        code, obj = run(capsys, ["metrics", "--body", k_file, "--ball", str(ball_file)])
        assert code == 0
        assert obj["diameter"] == "4"

    def test_linf_ball(self, capsys, k_file):
        code, obj = run(capsys, ["metrics", "--body", k_file, "--ball", "linf"])
        assert code == 0
        assert obj["diameter"] == "2"

    def test_l1_ball_past_the_sign_vector_gate(self, capsys, simplex17_file):
        # metrics reads only the 34 vertices of the l1 ball, never its 2^17 facets
        code, obj = run(capsys, ["metrics", "--body", simplex17_file, "--ball", "l1"])
        assert code == 0
        assert obj["diameter"] == "2"
        assert obj["thickness"] == "1"


class TestComplete:
    def test_complete_body_exits_zero(self, capsys, k_file):
        code, obj = run(capsys, ["complete", "--body", k_file, "--ball", "l1"])
        assert code == 0
        assert obj["complete"] is True

    def test_incomplete_body_exits_one(self, capsys, cube_file):
        code, obj = run(capsys, ["complete", "--body", cube_file, "--ball", "l1"])
        assert code == 1
        assert obj["complete"] is False
        assert obj["violation"] is not None

    def test_ball_hull_past_the_sign_vector_gate(self, capsys, simplex17_file):
        # the ball hull needs the 2^17 facets of the l1 ball
        code, obj = run(capsys, ["complete", "--body", simplex17_file, "--ball", "l1"])
        assert code == 2
        assert obj["error"]["type"] == "SizeLimitExceeded"


class TestWitness:
    def test_search_finds_cut(self, capsys, k_file):
        code, obj = run(capsys, ["witness", "--body", k_file, "--ball", "l1"])
        assert code == 0
        assert obj["valid"] is True
        assert obj["removed_vertices"] == [0]

    def test_search_failure_exits_one(self, capsys, cube_file):
        code, obj = run(capsys, ["witness", "--body", cube_file, "--ball", "l1"])
        assert code == 1
        assert obj["witness"] is None

    def test_explicit_valid_cut(self, capsys, k_file, tmp_path):
        cut = tmp_path / "cut.json"
        cut.write_text(json.dumps({"a": ["-1", "-1", "-1"], "b": "1"}))
        code, obj = run(
            capsys, ["witness", "--body", k_file, "--ball", "l1", "--cut", str(cut)]
        )
        assert code == 0
        assert obj["valid"] is True

    def test_explicit_invalid_cut(self, capsys, k_file, tmp_path):
        cut = tmp_path / "cut.json"
        cut.write_text(json.dumps({"a": ["0", "0", "1"], "b": "0"}))
        code, obj = run(
            capsys, ["witness", "--body", k_file, "--ball", "l1", "--cut", str(cut)]
        )
        assert code == 1
        assert obj["valid"] is False


    def test_cut_on_a_non_simplex_past_the_hull_gate(self, capsys, tmp_path, monkeypatch):
        # the cut of a non-simplex reads its edges off its facets, which
        # HULL_MAX_DIM gates: a 9-simplex with one more point.  The gate
        # fires before P's thickness LPs, the work it bounds.  A cut that
        # keeps no point strictly inside flattens the body, which the signs
        # decide before the gate.
        thickness_calls = []
        monkeypatch.setattr(completeness, "thickness", lambda *args: thickness_calls.append(args))
        verts = [[0] * 9] + [[int(i == j) for j in range(9)] for i in range(9)] + [[1] * 9]
        body = tmp_path / "body9.json"
        body.write_text(json.dumps({"dim": 9, "vertices": verts}))
        cut = tmp_path / "cut.json"
        for rhs, error in (("1/2", "SizeLimitExceeded"), ("0", "DegenerateBody")):
            cut.write_text(json.dumps({"a": ["1"] + ["0"] * 8, "b": rhs}))
            code, obj = run(capsys, ["witness", "--body", str(body), "--ball", "l1", "--cut", str(cut)])
            assert code == 2
            assert obj["error"]["type"] == error
        assert thickness_calls == []


class TestVerify:
    def test_claims3(self, capsys):
        code, obj = run(capsys, ["verify", "--claims3"])
        assert code == 0
        assert obj["ok"] is True

    def test_prop_2(self, capsys):
        code, obj = run(capsys, ["verify", "--prop", "2"])
        assert code == 0
        assert obj["mode"] == "exact"

    @pytest.mark.parametrize(
        "name, flags",
        [("claims3", ["--claims3"]), ("prop2", ["--prop", "2"]),
         ("prop3", ["--prop", "3"]), ("prop4", ["--prop", "4"])],
    )
    def test_report_is_byte_identical_to_golden(self, capsys, name, flags):
        # the committed JSON pins every number and every certificate string
        assert main(["verify", *flags]) == 0
        assert capsys.readouterr().out == (GOLDEN / f"verify_{name}.json").read_text(encoding="utf-8")

    def test_flags_are_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--claims3", "--prop", "2"])

    def test_certificate_with_claims3_is_an_error_object(self, capsys):
        # n alone picks the --prop route, so --certificate is an unknown flag
        # that argparse refuses with exit status 2, with or without --prop
        for flags in (["--claims3"], ["--prop", "4"]):
            with pytest.raises(SystemExit) as exc:
                main(["verify", *flags, "--certificate"])
            assert exc.value.code == 2
            assert "unrecognized arguments: --certificate" in capsys.readouterr().err


class TestErrors:
    def test_missing_file(self, capsys):
        code, obj = run(capsys, ["metrics", "--body", "/nonexistent.json", "--ball", "l1"])
        assert code == 2
        assert obj["error"]["type"] in ("FileNotFoundError", "OSError")

    def test_float_coordinates_rejected(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dim": 2, "vertices": [[0.5, 0], [1, 0], [0, 1]]}))
        code, obj = run(capsys, ["metrics", "--body", str(bad), "--ball", "l1"])
        assert code == 2
        assert "float" in obj["error"]["message"]

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, obj = run(capsys, ["metrics", "--body", str(bad), "--ball", "l1"])
        assert code == 2
        assert obj["error"]["type"] == "JSONDecodeError"

    @pytest.mark.parametrize("command", ["metrics", "complete", "ball", "cut"])
    def test_deeply_nested_json_is_an_error_object(self, capsys, tmp_path, k_file, command):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        argv = {
            "metrics": ["metrics", "--body", str(deep), "--ball", "l1"],
            "complete": ["complete", "--body", str(deep), "--ball", "l1"],
            "ball": ["metrics", "--body", k_file, "--ball", str(deep)],
            "cut": ["witness", "--body", k_file, "--ball", "l1", "--cut", str(deep)],
        }[command]
        code, obj = run(capsys, argv)
        assert code == 2
        assert obj["error"]["type"] == "ValueError"
        assert "nested too deeply" in obj["error"]["message"]

    def test_hrep_body_rejected_where_vertices_needed(self, capsys, tmp_path, K):
        from minkgeom.polytope import simplex_hrep

        hfile = tmp_path / "h.json"
        hfile.write_text(json.dumps(body_to_obj(simplex_hrep(K))))
        code, obj = run(capsys, ["metrics", "--body", str(hfile), "--ball", "l1"])
        assert code == 2
        assert "vertex form" in obj["error"]["message"]

    @pytest.mark.parametrize(
        "body, ball",
        [
            (None, L1_BALL_3),  # a custom ball without 'dim'
            ({"dim": 3, "vertices": 5}, "l1"),
            ({"dim": 3, "vertices": [1, 2, 3]}, "l1"),
        ],
    )
    def test_malformed_input_is_an_error_object(self, capsys, tmp_path, k_file, body, ball):
        body_file = k_file
        if body is not None:
            body_file = tmp_path / "body.json"
            body_file.write_text(json.dumps(body))
        if isinstance(ball, dict):
            ball_file = tmp_path / "ball.json"
            ball_file.write_text(json.dumps(ball))
            ball = str(ball_file)
        code, obj = run(capsys, ["metrics", "--body", str(body_file), "--ball", ball])
        assert code == 2
        assert obj["error"]["type"] == "ValueError"

    def test_failed_internal_check_exits_three(self, capsys, monkeypatch, k_file):
        # the facet check that ends hull_facets now sees every tight set as flat
        monkeypatch.setattr("minkgeom.polytope.affine_rank", lambda points: -1)
        argv = ["metrics", "--body", k_file, "--ball", "l1", "--mode", "difference_body"]
        code, obj = run(capsys, argv)
        assert code == 3
        assert obj["error"]["type"] == "CertificateError"
        assert "non-facet" in obj["error"]["message"]


# -- malformed input ----------------------------------------------------------

# the origin-centred tetrahedron K, which every command accepts with l1_ball(3)
GOOD_BODY = {"dim": 3, "vertices": [["-1", "-1", "-1"], ["1", "1", "-1"], ["1", "-1", "1"], ["-1", "1", "1"]]}
# values that no rational field accepts
BAD_SCALAR = st.sampled_from([0.5, True, None, {}, [], "", "abc", "1/0", "1.5", "1e3", "NaN", "1/2/3"])
BAD_DIM = st.sampled_from(["3", 3.0, True, None, [3], 0, -1, 2, 4])
NOT_A_LIST = st.sampled_from([None, 3, "abc", {"a": 1}])
NOT_AN_OBJECT = st.sampled_from([None, 3, "abc", [], [1, 2, 3]])


@st.composite
def bad_body(draw):
    """GOOD_BODY with one fault, as JSON-ready data."""
    obj = json.loads(json.dumps(GOOD_BODY))
    verts = obj["vertices"]
    i, j = draw(st.integers(0, 3)), draw(st.integers(0, 2))
    fault = draw(st.sampled_from([
        "not an object", "no dim", "no vertices", "dim", "vertices", "vertex",
        "vertex length", "scalar", "duplicate", "flat", "single point", "facets",
    ]))
    if fault == "not an object":
        return draw(NOT_AN_OBJECT)
    if fault in ("no dim", "no vertices"):
        del obj[fault[3:]]
    elif fault == "dim":
        obj["dim"] = draw(BAD_DIM)
    elif fault == "vertices":
        obj["vertices"] = draw(NOT_A_LIST)
    elif fault == "vertex":
        verts[i] = draw(NOT_A_LIST)
    elif fault == "vertex length":
        verts[i] = verts[i][:j] if draw(st.booleans()) else verts[i] + ["0"]
    elif fault == "scalar":
        verts[i][j] = draw(BAD_SCALAR)
    elif fault == "duplicate":
        verts.append(list(verts[i]))
    elif fault == "flat":
        for v in verts:
            v[j] = "2"
    elif fault == "single point":
        obj["vertices"] = [verts[i]]
    else:
        obj = {"dim": 3, "facets": [{"a": ["1", "0", "0"], "b": "1"}]}
    return obj


def ball_obj(ball):
    """A built-in ball as custom-ball JSON data, in lists."""
    obj = {"dim": ball.dim, "vertices": body_to_obj(ball.ball_v)["vertices"]}
    obj["facets"] = body_to_obj(ball.ball_h)["facets"]
    return json.loads(json.dumps(obj))


@st.composite
def bad_ball(draw):
    """The l1 or linf ball in dimension 3 with one fault."""
    obj = ball_obj(draw(st.sampled_from([l1_ball, linf_ball]))(3))
    verts, facets = obj["vertices"], obj["facets"]
    k = draw(st.integers(0, len(verts) - 1))
    f = draw(st.integers(0, len(facets) - 1))
    fault = draw(st.sampled_from([
        "not an object", "missing", "dim", "vertex", "scalar", "drop vertex", "drop pair",
        "drop facet", "stretch", "rhs", "normal", "flat", "other dim",
    ]))
    if fault == "not an object":
        return draw(NOT_AN_OBJECT)
    if fault == "missing":
        del obj[draw(st.sampled_from(["dim", "vertices", "facets"]))]
    elif fault == "dim":
        obj["dim"] = draw(BAD_DIM)
    elif fault == "vertex":
        verts[k] = draw(NOT_A_LIST)
    elif fault == "scalar":
        if draw(st.booleans()):
            verts[k][draw(st.integers(0, 2))] = draw(BAD_SCALAR)
        else:
            facets[f][draw(st.sampled_from(["a", "b"]))] = draw(BAD_SCALAR)
    elif fault == "drop vertex":
        del verts[k]
    elif fault == "drop pair":
        # still symmetric, but the facet list no longer bounds the vertices' hull
        # (linf), or the hull is flat (l1)
        obj["vertices"] = [v for v in verts if v != verts[k] and v != [str(-int(x)) for x in verts[k]]]
    elif fault == "drop facet":
        del facets[f]
    elif fault == "stretch":
        verts[k] = [str(2 * int(x)) for x in verts[k]]
    elif fault == "rhs":
        facets[f]["b"] = draw(st.sampled_from(["0", "-1", "2"]))
    elif fault == "normal":
        facets[f]["a"] = draw(st.sampled_from([["0", "0", "0"], ["1", "1"], []]))
    elif fault == "flat":
        obj["vertices"] = [list(v) for v in dict.fromkeys(tuple(v[:2]) + ("0",) for v in verts)]
    else:
        obj = ball_obj(l1_ball(2))
    return obj


class TestMalformedInput:
    """Every malformed body or custom ball is bad input: exit 2 and an error object."""

    @staticmethod
    def check(path, text, argv):
        path.write_text(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        assert code == 2, out.getvalue()
        assert set(json.loads(out.getvalue())) == {"error"}

    @settings(max_examples=150, deadline=None)
    @given(obj=bad_body(), command=st.sampled_from(["metrics", "complete", "witness"]))
    def test_bad_body(self, tmp_path_factory, obj, command):
        path = tmp_path_factory.getbasetemp() / "bad_body.json"
        self.check(path, json.dumps(obj), [command, "--body", str(path), "--ball", "l1"])

    @settings(max_examples=150, deadline=None)
    @given(obj=bad_ball(), command=st.sampled_from(["metrics", "complete", "witness"]))
    def test_bad_ball(self, tmp_path_factory, obj, command):
        base = tmp_path_factory.getbasetemp()
        body, path = base / "good_body.json", base / "bad_ball.json"
        body.write_text(json.dumps(GOOD_BODY))
        self.check(path, json.dumps(obj), [command, "--body", str(body), "--ball", str(path)])

    @settings(max_examples=60, deadline=None)
    @given(
        which=st.sampled_from(["body", "ball"]),
        form=st.sampled_from(["cut short", "junk after", "nested too deeply"]),
        cut=st.integers(0, 10**6),
        junk=st.sampled_from(["}", "\x00", "x", "[]"]),
    )
    def test_broken_json_text(self, tmp_path_factory, which, form, cut, junk):
        # text that is no JSON document
        base = tmp_path_factory.getbasetemp()
        body, path = base / "good_body.json", base / f"broken_{which}.json"
        body.write_text(json.dumps(GOOD_BODY))
        text = json.dumps(GOOD_BODY if which == "body" else ball_obj(l1_ball(3)))
        text = {
            "cut short": text[: cut % len(text)],
            "junk after": text + junk,
            "nested too deeply": "[" * 100000,
        }[form]
        if which == "body":
            self.check(path, text, ["metrics", "--body", str(path), "--ball", "l1"])
        else:
            self.check(path, text, ["metrics", "--body", str(body), "--ball", str(path)])

"""End-to-end CLI behavior: JSON output, exit codes, error objects."""

import json

import pytest

from minkgeom.cli import main
from minkgeom.norms import l1_ball
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


class TestVerify:
    def test_claims3(self, capsys):
        code, obj = run(capsys, ["verify", "--claims3"])
        assert code == 0
        assert obj["ok"] is True

    def test_prop_2(self, capsys):
        code, obj = run(capsys, ["verify", "--prop", "2"])
        assert code == 0
        assert obj["mode"] == "exact"

    def test_prop_2_certificate(self, capsys):
        code, obj = run(capsys, ["verify", "--prop", "2", "--certificate"])
        assert code == 0
        assert obj["mode"] == "certificate"

    def test_flags_are_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--claims3", "--prop", "2"])


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

"""Built-in bodies and their verification reports."""

import pytest

from minkgeom.constructions import (
    WALSH_SIMPLEX_MAX_N,
    tetrahedron_k,
    verify_claims_dim3,
    verify_proposition,
    walsh_simplex,
)
from minkgeom.errors import SizeLimitExceeded
from minkgeom.norms import l1_ball, norm
from minkgeom.qlinalg import affine_rank, vsub


class TestTetrahedron:
    def test_vertices_frozen(self):
        K = tetrahedron_k()
        assert K.vertices == ((-1, -1, -1), (1, 1, -1), (1, -1, 1), (-1, 1, 1))
        assert K.dim == 3


class TestWalshSimplex:
    def test_small_simplex_is_reflected_tetrahedron(self):
        S = walsh_simplex(2)
        K = tetrahedron_k()
        assert set(S.vertices) == {tuple(-x for x in v) for v in K.vertices}

    @pytest.mark.parametrize("n", [2, 3])
    def test_shape(self, n):
        S = walsh_simplex(n)
        assert S.dim == 2**n - 1
        assert len(S.vertices) == 2**n
        assert affine_rank(S.vertices) == S.dim

    @pytest.mark.parametrize("n", [2, 3])
    def test_vertices_sum_to_zero(self, n):
        S = walsh_simplex(n)
        total = (0,) * S.dim
        for v in S.vertices:
            total = tuple(a + b for a, b in zip(total, v))
        assert total == (0,) * S.dim

    @pytest.mark.parametrize("n", [2, 3])
    def test_equilateral_under_l1(self, n):
        S = walsh_simplex(n)
        ball = l1_ball(S.dim)
        dists = {
            norm(vsub(v, w), ball)
            for i, v in enumerate(S.vertices)
            for w in S.vertices[i + 1 :]
        }
        assert dists == {2**n}

    def test_n_below_two_rejected(self):
        with pytest.raises(ValueError):
            walsh_simplex(1)

    def test_size_gate(self):
        with pytest.raises(SizeLimitExceeded):
            walsh_simplex(WALSH_SIMPLEX_MAX_N + 1)


class TestClaimsReport:
    def test_all_items_pass(self):
        rep = verify_claims_dim3()
        assert rep.ok
        names = [item.name for item in rep.items]
        assert names == [
            "diameter",
            "complete",
            "thickness",
            "inball_scale",
            "reduction_witness",
        ]
        assert all(item.passed for item in rep.items)

    def test_obj_shape(self):
        obj = verify_claims_dim3().to_obj()
        assert obj["ok"] is True
        assert len(obj["items"]) == 5
        for item in obj["items"]:
            assert set(item) == {"name", "expected", "computed", "pass"}


class TestPropositionReport:
    def test_n2_exact(self):
        rep = verify_proposition(2)
        assert rep.ok
        assert rep.mode == "exact"
        assert rep.diameter == 4
        assert rep.thickness == 2
        assert rep.complete is True

    def test_n2_certificate_mode(self):
        rep = verify_proposition(2, "certificate")
        assert rep.ok
        assert rep.mode == "certificate"
        assert rep.thickness_bounds == (2, 2)

    def test_exact_mode_gated_above_n3(self):
        with pytest.raises(ValueError):
            verify_proposition(4, "exact")

    def test_n_below_two_rejected(self):
        with pytest.raises(ValueError):
            verify_proposition(1)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            verify_proposition(2, "quick")

    def test_obj_shape(self):
        obj = verify_proposition(2).to_obj()
        for key in ("n", "dim", "mode", "items", "diameter", "thickness", "ratio", "ok"):
            assert key in obj
        assert obj["ratio"] == "1/2"

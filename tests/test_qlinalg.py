"""Rational parsing, exact linear algebra, and the no-floats guarantee."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from minkgeom.errors import DimensionMismatch
from minkgeom.qlinalg import (
    affine_rank,
    dot,
    exact_div,
    fmt_rat,
    fmt_vec,
    gauss_rank,
    parse_rat,
    parse_vec,
    primitive_normal,
    solve_square,
    unit_vec,
    vneg,
    vscale,
    vsub,
)

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20
)


class TestParseRat:
    def test_int_passthrough(self):
        assert parse_rat(7) == 7
        assert isinstance(parse_rat(7), int)

    def test_fraction_stays_fraction(self):
        assert parse_rat(Fraction(3, 4)) == Fraction(3, 4)

    def test_integral_fraction_becomes_int(self):
        v = parse_rat(Fraction(6, 2))
        assert v == 3
        assert isinstance(v, int)

    def test_string_integer(self):
        assert parse_rat("-12") == -12

    def test_string_fraction(self):
        assert parse_rat("3/4") == Fraction(3, 4)
        assert parse_rat("-6/4") == Fraction(-3, 2)

    def test_string_fraction_reduces_to_int(self):
        v = parse_rat("8/2")
        assert v == 4
        assert isinstance(v, int)

    def test_float_rejected(self):
        with pytest.raises(ValueError, match="float"):
            parse_rat(0.5)

    def test_bool_rejected(self):
        with pytest.raises(ValueError):
            parse_rat(True)

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_rat("a/b")
        with pytest.raises(ValueError):
            parse_rat(None)

    def test_roundtrip_fmt(self):
        for text in ("0", "5", "-5", "1/3", "-7/2"):
            assert fmt_rat(parse_rat(text)) == text


class TestExactDiv:
    def test_int_int_exact(self):
        assert exact_div(1, 3) == Fraction(1, 3)

    def test_int_int_never_float(self):
        assert not isinstance(exact_div(1, 4), float)

    def test_divisible_gives_int(self):
        v = exact_div(6, 3)
        assert v == 2
        assert isinstance(v, int)

    def test_fraction_operands(self):
        assert exact_div(Fraction(1, 2), Fraction(1, 3)) == Fraction(3, 2)

    @given(rationals, rationals.filter(lambda x: x != 0))
    def test_inverse_of_multiplication(self, a, b):
        q = exact_div(a, b)
        assert q * b == a
        assert not isinstance(q, float)


class TestVectorOps:
    def test_dot(self):
        assert dot((1, 2, 3), (4, 5, 6)) == 32

    def test_dot_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            dot((1, 2), (1, 2, 3))

    def test_vadd_vsub_vneg(self):
        a, b = (1, 2), (3, -1)
        assert vsub(a, vneg(b)) == (4, 1)
        assert vsub(a, b) == (-2, 3)
        assert vneg(a) == (-1, -2)

    def test_vscale(self):
        assert vscale(Fraction(1, 2), (2, 4)) == (1, 2)

    def test_zero_and_unit(self):
        assert vscale(0, unit_vec(3, 1)) == (0, 0, 0)
        assert unit_vec(3, 1) == (0, 1, 0)
        with pytest.raises(DimensionMismatch):
            unit_vec(3, 3)

    def test_parse_fmt_vec_roundtrip(self):
        v = parse_vec(["1", "-2/3", "0"])
        assert v == (1, Fraction(-2, 3), 0)
        assert fmt_vec(v) == ("1", "-2/3", "0")


class TestRankAndSolve:
    def test_gauss_rank_full(self):
        assert gauss_rank(((1, 0), (0, 1))) == 2

    def test_gauss_rank_deficient(self):
        assert gauss_rank(((1, 2), (2, 4))) == 1

    def test_gauss_rank_needs_exact_arithmetic(self):
        # This matrix requires fractional pivoting partway through; a float
        # implementation would still get the rank right but would leak floats.
        rows = [list(r) for r in ((2, 1, 1), (4, 3, 3), (8, 7, 9))]
        assert gauss_rank(rows) == 3

    def test_affine_rank_single_point(self):
        assert affine_rank(((5, 5, 5),)) == 0

    def test_affine_rank_simplex(self, K):
        assert affine_rank(K.vertices) == 3

    def test_affine_rank_coplanar(self):
        pts = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0))
        assert affine_rank(pts) == 2

    def test_solve_square(self):
        x = solve_square(((2, 1), (1, 3)), (5, 10))
        assert x == (1, 3)

    def test_solve_square_exact_fractions(self):
        x = solve_square(((3,),), (1,))
        assert x == (Fraction(1, 3),)
        assert not any(isinstance(v, float) for v in x)

    def test_solve_square_singular(self):
        assert solve_square(((1, 2), (2, 4)), (1, 2)) is None

    @given(
        st.lists(
            st.lists(st.integers(-9, 9), min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        ),
        st.lists(st.integers(-9, 9), min_size=3, max_size=3),
        st.lists(st.integers(1, 12), min_size=3, max_size=3),
    )
    def test_solve_square_property(self, mat, rhs, dens):
        # row i of the matrix over the denominator dens[i]
        mat = tuple(tuple(Fraction(x, q) for x in r) for r, q in zip(mat, dens))
        x = solve_square(mat, tuple(rhs))
        if x is None:
            assert gauss_rank(mat) < 3
        else:
            assert tuple(dot(row, x) for row in mat) == tuple(rhs)
            assert not any(isinstance(v, float) for v in x)


class TestPrimitiveNormal:
    def test_integers_reduced(self):
        ints, scale = primitive_normal((2, 4, 6))
        assert ints == (1, 2, 3)
        assert scale == Fraction(1, 2)

    def test_fractions_cleared(self):
        ints, scale = primitive_normal((Fraction(1, 2), Fraction(1, 3)))
        assert ints == (3, 2)
        assert scale == 6

    def test_sign_preserved(self):
        ints, _ = primitive_normal((-2, 0, 4))
        assert ints == (-1, 0, 2)

    def test_zero_vector_rejected(self):
        with pytest.raises(DimensionMismatch):
            primitive_normal((0, 0))

    @given(st.lists(rationals, min_size=1, max_size=5).filter(lambda v: any(v)))
    def test_scaling_identity(self, vec):
        ints, scale = primitive_normal(tuple(vec))
        assert scale > 0
        assert tuple(scale * x for x in vec) == ints
        from math import gcd

        assert gcd(*[abs(i) for i in ints]) == 1

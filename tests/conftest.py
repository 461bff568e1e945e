"""Shared fixtures: canonical bodies, balls, and a seeded random-simplex source."""

import random

import pytest

from minkgeom import VPolytope, l1_ball, linf_ball, tetrahedron_k
from minkgeom.qlinalg import affine_rank


@pytest.fixture
def K():
    return tetrahedron_k()


@pytest.fixture
def ball3():
    return l1_ball(3)


@pytest.fixture
def cube3():
    pts = [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
    return VPolytope(3, tuple(pts))


@pytest.fixture
def box3():
    return linf_ball(3)


def random_body(rng: random.Random, dim: int, npts: int) -> VPolytope:
    """npts distinct integer points in [-4, 4]^dim spanning the space."""
    while True:
        verts = tuple(
            tuple(rng.randint(-4, 4) for _ in range(dim)) for _ in range(npts)
        )
        if len(set(verts)) == npts and affine_rank(verts) == dim:
            return VPolytope(dim, verts)


def random_simplex(rng: random.Random, dim: int) -> VPolytope:
    """A full-dimensional simplex with integer coordinates in [-4, 4]."""
    return random_body(rng, dim, dim + 1)

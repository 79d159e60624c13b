import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from lpl import LieAlgebra, Subspace, direct_sum
from lpl.cli import parse_model
from lpl.linalg import rref, unit_vector, vec

FIXTURES = Path(__file__).parent.parent / "src" / "lpl" / "fixtures"


def load_model(name: str) -> LieAlgebra:
    return parse_model((FIXTURES / name).read_text())


@pytest.fixture(scope="session")
def sl2() -> LieAlgebra:
    return load_model("sl2.json")


@pytest.fixture(scope="session")
def gl2() -> LieAlgebra:
    return load_model("gl2.json")


@pytest.fixture(scope="session")
def heisenberg() -> LieAlgebra:
    return load_model("heisenberg.json")


@pytest.fixture(scope="session")
def abelian2() -> LieAlgebra:
    return load_model("abelian_2.json")


@pytest.fixture(scope="session")
def abelian3() -> LieAlgebra:
    return load_model("abelian_3.json")


def bracket_table(algebra: LieAlgebra):
    """table[i][j] = coordinates of [e_i, e_j], one basis bracket per cell."""
    n = algebra.dim
    e = [unit_vector(n, i) for i in range(n)]
    return tuple(tuple(algebra.bracket(e[i], e[j]) for j in range(n)) for i in range(n))


def sl2_h(sl2: LieAlgebra) -> Subspace:
    return Subspace.span(3, [[1, 0, 0], [0, 1, -1]])


def random_fraction(rng: random.Random, bound: int = 20) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def random_vector(rng: random.Random, n: int, bound: int = 20):
    return tuple(random_fraction(rng, bound) for _ in range(n))


def random_subspace(rng: random.Random, n: int, max_dim=None) -> Subspace:
    k = rng.randint(0, n if max_dim is None else min(max_dim, n))
    return Subspace.span(n, [random_vector(rng, n) for _ in range(k)])


def coordinate_subspace(rng: random.Random, n: int) -> Subspace:
    """The span of a random set of unit vectors: often a subalgebra, unlike random_subspace."""
    return Subspace.span(n, [unit_vector(n, i) for i in range(n) if rng.random() < 0.5])


def contains_by_rref(u: Subspace, vectors) -> bool:
    """Membership by elimination: the vectors lie in u iff adding them keeps the rank."""
    return len(rref(list(u.basis) + [vec(v) for v in vectors], u.ambient_dim)) == u.dim


def algebra_catalog() -> list[LieAlgebra]:
    """Genuine Lie algebras of dim <= 6 for randomized theorem tests."""
    sl2 = load_model("sl2.json")
    gl2 = load_model("gl2.json")
    heis = load_model("heisenberg.json")
    ab2 = load_model("abelian_2.json")
    affine_line = LieAlgebra.from_brackets(2, {(0, 1): (0, 1)}, ("t", "x"))
    return [
        sl2,
        gl2,
        heis,
        ab2,
        affine_line,
        direct_sum(sl2, ab2),
        direct_sum(heis, heis),
        direct_sum(sl2, sl2),
        direct_sum(affine_line, gl2),
    ]


def subalgebra_catalog() -> list[tuple[LieAlgebra, Subspace]]:
    """Named subalgebras across the bundled models (all verified closed)."""
    sl2 = load_model("sl2.json")
    gl2 = load_model("gl2.json")
    heis = load_model("heisenberg.json")
    entries = [
        (sl2, Subspace.span(3, [[1, 0, 0], [0, 1, -1]])),
        (sl2, Subspace.span(3, [[0, 1, -1]])),
        (sl2, Subspace.span(3, [[1, 0, 0]])),
        (sl2, Subspace.span(3, [[0, 1, 0]])),
        (sl2, Subspace.full(3)),
        (sl2, Subspace.zero(3)),
        (gl2, Subspace.span(4, [[1, 0, 0, 0], [0, 0, 0, 1]])),  # diagonal
        (gl2, Subspace.span(4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]])),  # upper tri
        (gl2, Subspace.span(4, [[0, 1, 0, 0]])),  # strictly upper
        (gl2, Subspace.span(4, [[1, 0, 0, -1], [0, 1, 0, 0], [0, 0, 1, 0]])),  # traceless
        (gl2, Subspace.span(4, [[1, 0, 0, 1]])),  # center
        (gl2, Subspace.span(4, [[0, 1, 0, 0], [0, 0, 0, 1]])),
        (gl2, Subspace.full(4)),
        (heis, Subspace.span(3, [[0, 0, 1]])),  # center
        (heis, Subspace.span(3, [[1, 0, 0], [0, 0, 1]])),
        (heis, Subspace.full(3)),
    ]
    return entries

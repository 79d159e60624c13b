import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from lpl import LieAlgebra, Subspace, direct_sum
from lpl.cli import parse_model
from lpl.lie import NotASubalgebra
from lpl.linalg import mat, rref, solve, transpose, unit_vector, vec

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


def pencil_at(pencil, t):
    """The pencil's form at rational direction coordinates t, in Fractions, every entry filled in.

    The reference for the integer ranks: (D B0 + sum_i t_i D B_i) / D, with
    a skew pencil's lower triangle read off its upper one.
    """
    values = [Fraction(b) for b in pencil.base]
    for ti, terms in zip(t, pencil.directions):
        for k, b in terms:
            values[k] += ti * b
    c = pencil.ncols
    if pencil.skew:
        for a in range(c):
            for b in range(a + 1, c):
                values[b * c + a] = -values[a * c + b]
    return tuple(
        tuple(e / pencil.denominator for e in values[r * c : (r + 1) * c])
        for r in range(pencil.nrows)
    )


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


def in_basis(algebra: LieAlgebra, basis) -> LieAlgebra:
    """``algebra`` in the basis b_i = basis[i]: [b_i, b_j] in b-coordinates."""
    n = algebra.dim
    columns = transpose(mat(basis))
    brackets = {
        (i, j): solve(columns, n, algebra.bracket(basis[i], basis[j]))
        for i in range(n)
        for j in range(i + 1, n)
    }
    return LieAlgebra.from_brackets(n, brackets)


# Invertible rational bases of sl2 and gl2.
SL2_BASIS = ((Fraction(1, 2), Fraction(1, 3), 0), (0, 1, Fraction(1, 4)), (Fraction(2, 5), 0, 1))
GL2_BASIS = (
    (Fraction(1, 2), 0, 0, 1),
    (0, Fraction(2, 3), Fraction(1, 7), 0),
    (1, 0, Fraction(3, 4), 0),
    (0, 1, 0, Fraction(-1, 5)),
)


def rational_catalog() -> list[LieAlgebra]:
    """Algebras whose structure constants are not all integers."""
    sl2 = in_basis(load_model("sl2.json"), SL2_BASIS)
    gl2 = in_basis(load_model("gl2.json"), GL2_BASIS)
    return [sl2, gl2, direct_sum(sl2, sl2, sign=-1), direct_sum(gl2, load_model("heisenberg.json"))]


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


def restricted_algebra(algebra: LieAlgebra, h: Subspace) -> LieAlgebra:
    """h as a Lie algebra in its canonical basis; requires h a subalgebra."""
    m = h.dim
    brackets = {}
    for i in range(m):
        for j in range(i + 1, m):
            w = algebra.bracket(h.basis[i], h.basis[j])
            coords = h.coords_of(w)
            if coords is None:
                raise NotASubalgebra("subspace is not closed under the bracket")
            if any(x != 0 for x in coords):
                brackets[(i, j)] = coords
    return LieAlgebra.from_brackets(m, brackets)

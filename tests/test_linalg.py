import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from lpl.linalg import (
    DimensionMismatch,
    Subspace,
    choose_complement,
    dot,
    mat,
    nullspace,
    rank,
    rref,
    transpose,
    vec,
)

from conftest import random_subspace, random_vector


def sympy_rank(rows):
    if not rows:
        return 0
    return sympy.Matrix([[sympy.Rational(e) for e in r] for r in rows]).rank()


# ---------------------------------------------------------------------------
# rank / kernel / image


def rank_kernel_image(m):
    """Rank, kernel (in the column space) and column span of an exact matrix."""
    ncols = len(m[0])
    return rank(m, ncols), Subspace(ncols, nullspace(m, ncols)), Subspace.span(len(m), transpose(m))


def test_rank_identity():
    m = mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    r, kernel, image = rank_kernel_image(m)
    assert r == 3
    assert kernel == Subspace.zero(3)
    assert image == Subspace.full(3)


def test_rank_zero_matrix():
    m = mat([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    r, kernel, image = rank_kernel_image(m)
    assert r == 0
    assert kernel == Subspace.full(3)
    assert image == Subspace.zero(3)


def test_rank_sl2_bivector_at_0_1_1():
    # Bivector matrix assembled from the sl2 structure constants at (0, 1, 1);
    # oracle value computed by independent Gaussian elimination (sympy).
    m = mat([[0, -1, -1], [1, 0, 0], [1, 0, 0]])
    r, kernel, _ = rank_kernel_image(m)
    assert sympy_rank(m) == 2
    assert r == 2
    assert kernel == Subspace.span(3, [[0, 1, -1]])


def test_rank_nullity_against_sympy_on_random_matrices():
    rng = random.Random(7)
    for _ in range(60):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        m = mat([random_vector(rng, ncols, bound=6) for _ in range(nrows)])
        r, kernel, image = rank_kernel_image(m)
        assert r == sympy_rank(m)
        assert r + kernel.dim == ncols
        assert image.dim == r
        for v in kernel.basis:
            assert all(dot(row, v) == 0 for row in m)


def _rank_deficient_matrix(rng, nrows, ncols, bits):
    """Rows combined from a few random rows, with zero rows and a zeroed column mixed in."""

    def entry():
        if rng.random() < 0.3:
            return Fraction(0)
        return Fraction(rng.randint(-(2**bits), 2**bits), rng.randint(1, 2**bits))

    generators = [[entry() for _ in range(ncols)] for _ in range(rng.randint(0, min(nrows, ncols)))]
    rows = []
    for _ in range(nrows):
        coeffs = [entry() for _ in generators] if rng.random() > 0.2 else []
        rows.append([sum((c * g[j] for c, g in zip(coeffs, generators)), Fraction(0))
                     for j in range(ncols)])
    if rng.random() < 0.4:
        dead = rng.randrange(ncols)
        for row in rows:
            row[dead] = Fraction(0)
    return rows


def test_fraction_free_rank_against_sympy():
    rng = random.Random(17)
    assert rank([], 3) == 0
    assert rank([[0, 0], [0, 0]]) == 0
    with pytest.raises(DimensionMismatch):
        rank([[1, 2], [3]])
    full = deficient = 0
    for trial in range(300):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        rows = _rank_deficient_matrix(rng, nrows, ncols, bits=(3, 12, 100)[trial % 3])
        expected = sympy_rank(rows)
        assert rank(rows, ncols) == expected
        assert rank(rows, ncols) == len(rref(rows, ncols))
        full += expected == min(nrows, ncols)
        deficient += expected < min(nrows, ncols)
    assert full > 20 and deficient > 100


# ---------------------------------------------------------------------------
# lattice


def test_lattice_equal_subspaces():
    u = Subspace.span(3, [[1, 2, 3], [0, 1, 1]])
    assert u.sum(u) == u and u.intersect(u) == u and u.contains(u)


def test_lattice_axes():
    u = Subspace.span(2, [[1, 0]])
    v = Subspace.span(2, [[0, 1]])
    assert u.sum(v) == Subspace.full(2)
    assert u.intersect(v) == Subspace.zero(2)
    assert not u.contains(v)


def test_lattice_nested():
    u = Subspace.span(3, [[0, 1, 1]])
    v = Subspace.span(3, [[0, 1, 1], [1, 0, 0]])
    assert u.intersect(v) == u
    assert v.contains(u)
    assert not u.contains(v)


def test_lattice_ambient_mismatch():
    for op in (Subspace.sum, Subspace.intersect, Subspace.contains):
        with pytest.raises(DimensionMismatch):
            op(Subspace.full(2), Subspace.full(3))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_grassmann_identity(data):
    n = data.draw(st.integers(min_value=1, max_value=8))
    entries = st.integers(min_value=-9, max_value=9)
    rows_u = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), max_size=n))
    rows_v = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), max_size=n))
    u = Subspace.span(n, rows_u)
    v = Subspace.span(n, rows_v)
    assert u.sum(v).dim + u.intersect(v).dim == u.dim + v.dim


# ---------------------------------------------------------------------------
# annihilator


def test_annihilator_full_space():
    assert Subspace.full(4).annihilator() == Subspace.zero(4)


def test_annihilator_sl2_h_is_cone_line():
    h = Subspace.span(3, [[1, 0, 0], [0, 1, -1]])
    assert h.annihilator() == Subspace.span(3, [[0, 1, 1]])


def test_annihilator_gl2_h_is_a_axis():
    h = Subspace.span(4, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert h.annihilator() == Subspace.span(4, [[1, 0, 0, 0]])


def test_annihilator_involution_and_dims():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 6)
        u = random_subspace(rng, n)
        ann = u.annihilator()
        assert u.dim + ann.dim == n
        assert ann.annihilator() == u
        for a in u.basis:
            for b in ann.basis:
                assert dot(a, b) == 0


# ---------------------------------------------------------------------------
# complements


def test_complement_of_zero_is_whole_space():
    assert choose_complement(Subspace.zero(3), Subspace.full(3)) == Subspace.full(3)


def test_complement_gl2_d_axis():
    u = Subspace.span(4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    assert choose_complement(u, Subspace.full(4)) == Subspace.span(4, [[0, 0, 0, 1]])


def test_complement_greedy_rule():
    u = Subspace.span(2, [[1, 1]])
    # Enumerating standard vectors: e1 is independent from (1,1), so greedy
    # picks it; e1 + u is already everything.
    assert choose_complement(u, Subspace.full(2)) == Subspace.span(2, [[1, 0]])


def test_complement_requires_containment():
    with pytest.raises(ValueError):
        choose_complement(Subspace.span(2, [[1, 0]]), Subspace.span(2, [[0, 1]]))


def test_complement_is_direct():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 6)
        w = random_subspace(rng, n)
        u = random_subspace(rng, n)
        u = u.intersect(w)
        comp = choose_complement(u, w)
        assert comp.sum(u) == w
        assert comp.intersect(u) == Subspace.zero(n)


def _choose_complement_by_rref(u, w):
    # The greedy rule with an rref of the kept rows at every step.
    chosen, current = [], list(u.basis)
    for row in w.basis:
        if len(rref(current + [row], w.ambient_dim)) > len(rref(current, w.ambient_dim)):
            chosen.append(row)
            current.append(row)
    return chosen


def test_complement_matches_rref_greedy_rule():
    rng = random.Random(13)
    kept = skipped = 0
    for _ in range(60):
        n = rng.randint(1, 7)
        w = random_subspace(rng, n)
        u = random_subspace(rng, n, max_dim=n - 1).intersect(w)
        chosen = _choose_complement_by_rref(u, w)
        assert choose_complement(u, w) == Subspace.span(n, chosen)
        kept += len(chosen)
        skipped += len(w.basis) - len(chosen)
    assert kept > 20 and skipped > 20


# ---------------------------------------------------------------------------
# canonical form


def test_canonical_equality_of_generating_sets():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 6)
        u = random_subspace(rng, n)
        # Second generating set: random combinations of the basis plus noise
        # inside the span.
        gens = []
        for _ in range(2 * max(u.dim, 1)):
            v = vec([0] * n)
            for b in u.basis:
                c = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
                v = tuple(x + c * y for x, y in zip(v, b))
            gens.append(v)
        regenerated = Subspace.span(n, list(u.basis) + gens)
        assert regenerated == u
        shuffled = list(u.basis)
        rng.shuffle(shuffled)
        assert Subspace.span(n, shuffled) == u


def test_rref_is_idempotent_and_strict():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(1, 6)
        rows = [random_vector(rng, n) for _ in range(rng.randint(0, n))]
        e = rref(rows, n)
        assert rref(e, n) == e
        pivots = []
        for row in e:
            p = next(j for j, x in enumerate(row) if x != 0)
            assert row[p] == 1
            assert all(other[p] == 0 for other in e if other is not row)
            pivots.append(p)
        assert pivots == sorted(pivots)

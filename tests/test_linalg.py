import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from lpl import linalg
from lpl.algebroid import isotropy_algebra
from lpl.lie import LinearMap, is_subalgebra
from lpl.linalg import (
    DimensionMismatch,
    Subspace,
    _skew_eliminate_many,
    choose_complement,
    dot,
    integer_rank,
    integer_rows,
    mat,
    mat_vec,
    nullspace,
    pivot_columns,
    rref,
    solve,
    transpose,
    unit_vector,
    vec,
)
from lpl.submanifold import AffineSubspace

from conftest import (
    SMALL_FRACTIONS,
    algebra_catalog,
    contains_by_rref,
    coordinate_subspace,
    coords_of,
    fraction_bracket,
    fraction_rref,
    fraction_solve,
    random_subspace,
    random_vector,
    rational_catalog,
    rational_rank,
    scalar_skew_eliminate,
    zero_vector,
)


def sympy_rank(rows):
    if not rows:
        return 0
    return sympy.Matrix([[sympy.Rational(e) for e in r] for r in rows]).rank()


# ---------------------------------------------------------------------------
# rank / kernel / image


def rank_kernel_image(m):
    """Rank, kernel (in the column space) and column span of an exact matrix."""
    ncols = len(m[0])
    kernel = Subspace(ncols, nullspace(m, ncols))
    return rational_rank(m, ncols), kernel, Subspace.span(len(m), transpose(m))


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
    assert integer_rank(integer_rows([], 3), 3) == 0
    assert integer_rank(integer_rows([[0, 0], [0, 0]], 2), 2) == 0
    with pytest.raises(DimensionMismatch):
        integer_rows([[1, 2], [3]], 2)
    full = deficient = 0
    for trial in range(300):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        rows = _rank_deficient_matrix(rng, nrows, ncols, bits=(3, 12, 100)[trial % 3])
        expected = sympy_rank(rows)
        assert integer_rank(integer_rows(rows, ncols), ncols) == expected
        assert expected == len(rref(rows, ncols))
        full += expected == min(nrows, ncols)
        deficient += expected < min(nrows, ncols)
    assert full > 20 and deficient > 100


def sympy_rref(rows, ncols):
    if not rows or not ncols:
        return ()
    reduced = sympy.Matrix([[sympy.Rational(e) for e in r] for r in rows]).rref()[0]
    out = [tuple(Fraction(int(e.p), int(e.q)) for e in reduced.row(i)) for i in range(len(rows))]
    return tuple(r for r in out if any(r))


def test_rref_nullspace_and_solve_against_fraction_elimination_and_sympy():
    # Zero rows, all-zero columns, rank-deficient wide and tall matrices,
    # empty shapes, and entries of 3, 12 and 100 bits over mixed denominators.
    rng = random.Random(23)
    shapes = {"wide": 0, "tall": 0}
    inconsistent = set()
    cases = [([], 0), ([], 4), ([[], []], 0), ([[0, 0, 0], [0, 0, 0]], 3)]
    for trial in range(240):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        cases.append((_rank_deficient_matrix(rng, nrows, ncols, (3, 12, 100)[trial % 3]), ncols))
    for rows, ncols in cases:
        expected = fraction_rref(rows, ncols)
        assert rref(rows, ncols) == expected == sympy_rref(rows, ncols)
        if len(expected) < min(len(rows), ncols) and len(rows) != ncols:
            shapes["wide" if ncols > len(rows) else "tall"] += 1
        kernel = sympy.Matrix(len(rows), ncols, [sympy.Rational(e) for r in rows for e in r])
        basis = [[Fraction(int(e.p), int(e.q)) for e in v] for v in kernel.nullspace()]
        assert nullspace(mat(rows), ncols) == fraction_rref(basis, ncols)
        # The particular solution sets every free variable to 0, so it is unique.
        pivots = [next(j for j, e in enumerate(r) if e) for r in expected]
        b = random_vector(rng, len(rows), bound=6)
        if rng.random() < 0.5:  # a right-hand side in the image
            b = mat_vec(mat(rows), random_vector(rng, ncols, bound=6))
        x = _fractions(solve(mat(rows), ncols, b))
        augmented = len(fraction_rref([list(r) + [e] for r, e in zip(rows, b)], ncols + 1))
        inconsistent.add(augmented > len(expected))
        if augmented > len(expected):
            assert x is None
        else:
            assert len(x) == ncols
            assert mat_vec(mat(rows), x) == tuple(b)
            assert all(x[j] == 0 for j in range(ncols) if j not in pivots)
    assert shapes["wide"] > 10 and shapes["tall"] > 10 and inconsistent == {True, False}


def _fractions(answer):
    """solve's answer (d, X) as the Fractions X / d, or None."""
    if answer is None:
        return None
    d, x = answer
    assert type(d) is int and d > 0
    if x and isinstance(x[0], list):
        assert all(type(e) is int for row in x for e in row)
        return tuple(tuple(Fraction(e, d) for e in row) for row in x)
    assert all(type(e) is int for e in x)
    return tuple(Fraction(e, d) for e in x)


def test_solve_with_several_right_hand_sides():
    # solve(m, B) is one elimination of [m | B]; column j of its answer is
    # solve(m, column j of B), and one inconsistent column makes it None.
    rng = random.Random(19)
    outcomes = set()
    for trial in range(160):
        nrows, ncols, width = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 4)
        m = mat(_rank_deficient_matrix(rng, nrows, ncols, bits=3))
        if trial % 2:  # right-hand sides in the image of m
            y = [random_vector(rng, width, bound=6) for _ in range(ncols)]
            b = [tuple(dot(row, col) for col in transpose(mat(y))) for row in m]
        else:
            b = [random_vector(rng, width, bound=6) for _ in range(nrows)]
        x = _fractions(solve(m, ncols, b))
        columns = tuple(_fractions(solve(m, ncols, column)) for column in transpose(mat(b)))
        if None in columns:
            assert x is None
        else:
            assert transpose(x) == columns
            assert all(mat_vec(m, column) == bj for column, bj in zip(columns, transpose(mat(b))))
        outcomes.add(x is None)
    assert outcomes == {True, False}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_solve_reads_integer_rows_over_one_denominator(data):
    # solve gives (d, X), d > 0 and X integers, with X / d the solution read
    # off fraction_rref of [m | B].  Each system is drawn consistent, B = m Y;
    # a last row row_0 + row_1 of m, whose right-hand side misses theirs in
    # one column, makes it inconsistent.  Each column alone is solved too.
    nrows, ncols, width = (data.draw(st.integers(lo, 5)) for lo in (2, 1, 2))
    rows_of = {k: st.lists(SMALL_FRACTIONS, min_size=k, max_size=k) for k in (ncols, width)}
    m = [data.draw(rows_of[ncols]) for _ in range(nrows)]
    y = [data.draw(rows_of[width]) for _ in range(ncols)]
    b = [tuple(dot(row, col) for col in transpose(mat(y))) for row in m]
    missed = data.draw(st.integers(0, width - 1))
    broken_m = m + [[p + q for p, q in zip(m[0], m[1])]]
    broken_b = b + [tuple(p + q + (j == missed) for j, (p, q) in enumerate(zip(b[0], b[1])))]
    for rows, rhs in ((m, b), (broken_m, broken_b)):
        expected = fraction_solve(rows, ncols, rhs)
        assert (expected is None) == (rows is broken_m)
        assert _fractions(solve(mat(rows), ncols, rhs)) == expected
        for j, column in enumerate(zip(*rhs)):
            expected = fraction_solve(rows, ncols, column)
            assert (expected is None) == (rows is broken_m and j == missed)
            assert _fractions(solve(mat(rows), ncols, column)) == expected


# ---------------------------------------------------------------------------
# skew rank


def _skew_of_rank_at_most(x, r):
    """X J X^T for the m x 2r matrix X and J = diag of r blocks [[0, 1], [-1, 0]]."""
    m = len(x)
    return [
        [sum(x[a][2 * q] * x[b][2 * q + 1] - x[a][2 * q + 1] * x[b][2 * q] for q in range(r))
         for b in range(m)]
        for a in range(m)
    ]


def _batched(mats, m):
    """The strict upper triangles of m x m matrices as one, each cell the list of its values."""
    return [[[a[k][l] for a in mats] for l in range(k + 1, m)] for k in range(m)]


def _ints_where_constant(rows):
    """Batched rows with each cell that has one value at every point given as that int."""
    return [[cell[0] if cell and cell.count(cell[0]) == len(cell) else cell for cell in row]
            for row in rows]


def _skew_batch_matches_scalar(mats, m):
    """The scalar oracle's (pivots, last pivot) per matrix, checked against
    _skew_eliminate_many on each matrix alone at count 1, its cells lists of
    one value and plain ints, and on all as one batch, every cell a list and
    every cell with one value over the batch an int."""
    uppers = [[row[k + 1 :] for k, row in enumerate(a)] for a in mats]
    expected = [scalar_skew_eliminate(upper) for upper in uppers]
    assert [_skew_eliminate_many(_batched([a], m), 1)[0] for a in mats] == expected
    assert [_skew_eliminate_many(upper, 1)[0] for upper in uppers] == expected
    batch = _batched(mats, m)
    assert _skew_eliminate_many(batch, len(mats)) == expected
    assert _skew_eliminate_many(_ints_where_constant(batch), len(mats)) == expected
    return expected


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_skew_elimination_matches_sympy_and_bareiss(data):
    # X J X^T has rank 2r when X has full column rank, less otherwise: m from
    # 0 to 10 (odd m and m = 1 included), r = 0 gives the zero matrix, and
    # the entries of X mix small integers with ones of up to 10^12.  One to
    # three such matrices are eliminated each alone and as one batch.
    m = data.draw(st.integers(0, 10))
    entry = st.one_of(st.integers(-3, 3), st.integers(-(10**12), 10**12))
    mats, bounds = [], []
    for _ in range(data.draw(st.integers(1, 3))):
        r = data.draw(st.integers(0, m // 2))
        x = data.draw(
            st.lists(st.lists(entry, min_size=2 * r, max_size=2 * r), min_size=m, max_size=m)
        )
        mats.append(_skew_of_rank_at_most(x, r))
        bounds.append(2 * r)
    for a, bound, (pivots, last) in zip(mats, bounds, _skew_batch_matches_scalar(mats, m)):
        expected = sympy.Matrix(m, m, lambda i, j: a[i][j]).rank() if m else 0
        assert 2 * len(pivots) == integer_rank(a, m) == expected <= bound
        left = m  # each pivot is at positions among the rows left, and drops i + 2 of them
        for i, j in pivots:
            assert i < j < left
            left -= i + 2
        if m and 2 * len(pivots) == m:  # nonsingular: the last pivot is +-Pf, and Pf^2 = det
            assert last**2 == sympy.Matrix(a).det()


def test_skew_elimination_on_small_cases():
    # The empty, 1 x 1 and zero 3 x 3 matrices, and a 3 x 3 one of rank 2, at count 1.
    assert _skew_eliminate_many([], 1) == [([], 1)] == _skew_eliminate_many([[]], 1)
    assert _skew_eliminate_many([[[0], [0]], [[0]], []], 1) == [([], 1)]
    assert _skew_eliminate_many([[[0], [5]], [[0]], []], 1) == [([(0, 2)], 5)]
    # With the pivot at (0, 1) the 4 x 4 Pfaffian keeps its sign:
    # Pf = x01 x23 - x02 x13 + x03 x12, for each matrix alone, for all 50 in
    # one batch, and for the scalar oracle.
    rng = random.Random(3)
    uppers, expected = [], []
    for _ in range(50):
        x01, x02, x03, x12, x13, x23 = (rng.randint(-9, 9) for _ in range(6))
        x01 = x01 or 1
        pf = x01 * x23 - x02 * x13 + x03 * x12
        uppers.append([[x01, x02, x03], [x12, x13], [x23], []])
        expected.append(([(0, 1), (0, 1)], pf) if pf else ([(0, 1)], x01))
    batch = [[[u[k][l] for u in uppers] for l in range(3 - k)] for k in range(4)]
    assert _skew_eliminate_many(batch, len(uppers)) == expected
    assert [_skew_eliminate_many([[[e] for e in row] for row in u], 1)[0] for u in uppers] == expected
    assert list(map(scalar_skew_eliminate, uppers)) == expected


def _upper(m, entries):
    """The strict upper triangle of an m x m skew matrix from its nonzero {(k, l): x_kl}."""
    return [[entries.get((k, l), 0) for l in range(k + 1, m)] for k in range(m)]


def test_skew_elimination_mixes_int_and_list_cells(monkeypatch):
    # Batches of two or three points whose constant cells are ints, each
    # against the scalar oracle at every point and the same batch of lists.
    # Each case must reach the mix of (pivot p, previous pivot q, some list
    # among the other operands) it is named by in _update_cell.
    seen = set()
    update = linalg._update_cell

    def record(p, x, u, y, v, z, q):
        operands = (x, u, y, v, z)
        seen.add((type(p).__name__, type(q).__name__, any(type(e) is list for e in operands)))
        return update(p, x, u, y, v, z, q)

    monkeypatch.setattr(linalg, "_update_cell", record)
    cases = [
        # A list pivot x01 whose one cell left reads only ints (x23 = 0, so
        # no product has a list factor): no comprehension may read only ints.
        (("list", "int", False), 4, [{(0, 1): t, (0, 2): 1, (1, 3): 1} for t in (1, 2)]),
        # An int pivot with list operands.
        (("int", "int", True), 4,
         [{(0, 1): 3, (0, 2): t, (0, 3): 1, (1, 2): 2, (1, 3): t + 1, (2, 3): t * t}
          for t in (1, 2, -4)]),
        # A list pivot x01 that vanishes at t = 0 beside int cells: a split.
        (("list", "int", True), 4,
         [{(0, 1): t, (0, 2): 1, (1, 3): t + 2, (2, 3): 4} for t in (0, 1, 2)]),
        # The list pivot x01, then the int pivot x23 = -x02 x13 = -1: q a list, p an int.
        (("int", "list", True), 6,
         [{(0, 1): t, (0, 2): 1, (1, 3): 1, (2, 4): 1, (4, 5): 1} for t in (1, 2)]),
        # The int pivot x01, then the list pivot 2 x23: q an int, p a list.
        (("list", "int", True), 6,
         [{(0, 1): 2, (2, 3): t, (2, 4): 1, (3, 5): t - 1, (4, 5): 1} for t in (1, 3)]),
    ]
    for mix, m, points in cases:
        uppers = [_upper(m, entries) for entries in points]
        batch = [[[u[k][l] for u in uppers] for l in range(m - k - 1)] for k in range(m)]
        expected = [scalar_skew_eliminate(u) for u in uppers]
        assert _skew_eliminate_many(batch, len(uppers)) == expected
        seen.clear()
        assert _skew_eliminate_many(_ints_where_constant(batch), len(uppers)) == expected
        assert mix in seen
        # Only the split case's points take different pivots.
        assert (len({str(p) for p, _ in expected}) > 1) == (points[0][(0, 1)] == 0)


def _congruent(q, s):
    """Q S Q^T: every such matrix for one Q kills ker Q^T."""
    m, w = len(q), len(s)
    qs = [[sum(q[a][c] * s[c][d] for c in range(w)) for d in range(w)] for a in range(m)]
    return [[sum(qs[a][d] * q[b][d] for d in range(w)) for b in range(m)] for a in range(m)]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_batched_skew_elimination_matches_one_matrix_at_a_time(data):
    # m from 0 to 9 (1 and odd m included) at 0 to 7 points.  Either the
    # matrices share a kernel, Q S Q^T for one m x 2r matrix Q and a skew S
    # per point, or they are a pencil A0 + t A1 of two low-rank forms at
    # small integer t, where a cell a + b t can vanish at some points only:
    # there the pivots part and the batch splits.
    m, count = data.draw(st.integers(0, 9)), data.draw(st.integers(0, 7))
    small = st.integers(-2, 2)

    def rows(n, width):
        return data.draw(st.lists(st.lists(small, min_size=width, max_size=width),
                                  min_size=n, max_size=n))

    if data.draw(st.booleans()):
        r = data.draw(st.integers(0, m // 2))
        q = rows(m, 2 * r)
        mats = [_congruent(q, _skew_of_rank_at_most(rows(2 * r, 2 * r), r)) for _ in range(count)]
    else:
        r = 1 + (m > 5)
        a0, a1 = (_skew_of_rank_at_most(rows(m, 2 * r), r) for _ in range(2))
        ts = data.draw(st.lists(small, min_size=count, max_size=count))
        mats = [[[x + t * y for x, y in zip(r0, r1)] for r0, r1 in zip(a0, a1)] for t in ts]
    _skew_batch_matches_scalar(mats, m)


def test_batched_skew_elimination_splits_where_a_pivot_vanishes():
    # Pencils A0 + t A1 of low-rank forms at t in -2..2 and sizes 1 to 8:
    # the points part at their first pivot and after a common one, their
    # ranks differ, and kernels shared by all points leave cells zero.
    rng = random.Random(211)
    seen = Counter()
    for _ in range(400):
        m = rng.randint(1, 8)
        a0, a1 = (
            _skew_of_rank_at_most(
                [[rng.randint(-1, 1) for _ in range(4)] for _ in range(m)], rng.randint(0, 2)
            )
            for _ in range(2)
        )
        ts = [rng.randint(-2, 2) for _ in range(rng.randint(2, 6))]
        mats = [[[x + t * y for x, y in zip(r0, r1)] for r0, r1 in zip(a0, a1)] for t in ts]
        expected = _skew_batch_matches_scalar(mats, m)
        pivots = [p for p, _ in expected]
        seen["first pivots differ"] += len({p[0] for p in pivots if p}) > 1
        seen["part after a common pivot"] += any(
            p[0] == o[0] and p != o for p, o in combinations([p for p in pivots if p], 2)
        )
        seen["ranks differ"] += len(set(map(len, pivots))) > 1
        seen["singular everywhere"] += all(2 * len(p) < m for p in pivots)
    assert min(seen.values()) >= 10 and len(seen) == 4
    assert _skew_eliminate_many([], 0) == [] and _skew_eliminate_many([[]], 0) == []
    assert _skew_eliminate_many([], 2) == [([], 1), ([], 1)]
    assert _skew_eliminate_many([[[0, 3], [5, 0]], [[0, 2]], []], 2) == [
        ([(0, 2)], 5), ([(0, 1)], 3)
    ]


def test_a_points_elimination_does_not_depend_on_its_batch():
    # Pencils A0 + s A1 + t A2 of low-rank forms at small integer (s, t), sizes
    # 0 to 8: a cell can vanish at some points only, so the batch splits.  No
    # oracle: each point gets the same (pivots, last pivot) in one batch, in
    # the reversed batch and alone.
    rng = random.Random(241)
    seen = Counter()
    for _ in range(300):
        m = rng.randint(0, 8)
        forms = [
            _skew_of_rank_at_most(
                [[rng.randint(-1, 1) for _ in range(4)] for _ in range(m)], rng.randint(0, 2)
            )
            for _ in range(3)
        ]
        points = [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(rng.randint(1, 8))]
        mats = [
            [[x + s * y + t * z for x, y, z in zip(*rows)] for rows in zip(*forms)]
            for s, t in points
        ]
        together = _skew_eliminate_many(_batched(mats, m), len(mats))
        assert _skew_eliminate_many(_batched(mats[::-1], m), len(mats)) == together[::-1]
        assert [_skew_eliminate_many(_batched([a], m), 1)[0] for a in mats] == together
        pivots = [p for p, _ in together if p]
        seen["first pivots differ"] += len({p[0] for p in pivots}) > 1
        seen["part after a common pivot"] += any(
            p[0] == o[0] and p != o for p, o in combinations(pivots, 2)
        )
    assert len(seen) == 2 and min(seen.values()) >= 10


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


def _coords_by_solve(u, v):
    # The coefficients as one solution of transpose(basis) c = v; the zero
    # subspace has no basis matrix, and holds only the zero vector.
    if not u.basis:
        return () if not any(v) else None
    return _fractions(solve(transpose(u.basis), u.dim, v))


def _membership_cases(rng, u):
    """Vectors inside u, outside it, and inside but for one coordinate."""
    n = u.ambient_dim
    inside = zero_vector(n)
    for b in u.basis:
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        inside = tuple(x + c * y for x, y in zip(inside, b))
    j = rng.randrange(n)
    nudged = tuple(x + (j == i) for i, x in enumerate(inside))
    return [zero_vector(n), inside, nudged, random_vector(rng, n, bound=3)]


def test_membership_matches_rref_and_solve():
    # coords_of reads the pivots of the canonical basis; the oracles are the
    # elimination forms it replaced.
    rng = random.Random(17)
    outcomes = set()
    for _ in range(150):
        n = rng.randint(1, 6)
        u = rng.choice(
            [Subspace.zero(n), Subspace.full(n), coordinate_subspace(rng, n)]
            + [random_subspace(rng, n)] * 3
        )
        for v in _membership_cases(rng, u):
            coords = _coords_by_solve(u, v)
            assert coords_of(u, v) == coords
            assert u.contains_vector(v) == contains_by_rref(u, [v]) == (coords is not None)
            outcomes.add(coords is None)
        inner = Subspace.span(n, _membership_cases(rng, u)[1:2])
        for w in (inner, random_subspace(rng, n), coordinate_subspace(rng, n), Subspace.zero(n)):
            assert u.contains(w) == contains_by_rref(u, w.basis)
            outcomes.add(("contains", u.contains(w)))
    assert outcomes == {True, False, ("contains", True), ("contains", False)}


def test_membership_checks_the_vector_length():
    for u in (Subspace.zero(3), Subspace.full(3)):
        for method in (u.contains_vector, lambda v: coords_of(u, v)):
            with pytest.raises(DimensionMismatch):
                method(zero_vector(4))


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


def _fraction_annihilator(u):
    """e_f - sum_i b_i[f] e_pivot(i) per free column f, in Fractions, reduced by fraction_rref."""
    n = u.ambient_dim
    pivots = [next(j for j, e in enumerate(b) if e) for b in u.basis]
    kernel = []
    for f in sorted(set(range(n)) - set(pivots)):
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for b, p in zip(u.basis, pivots):
            v[p] = -b[f]
        kernel.append(v)
    return fraction_rref(kernel, n)


LATTICE_ALGEBRAS = algebra_catalog() + rational_catalog()


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_integer_lattice_matches_fraction_formulas(data):
    # The lattice runs on the integer echelon rows (d, R) of each Subspace;
    # the oracles are the Fraction formulas on the canonical basis.  Spans of
    # rows with denominators, coordinate spans (often subalgebras), the zero
    # and full spaces and greedy complements, the last two built directly.
    algebra = data.draw(st.sampled_from(LATTICE_ALGEBRAS))
    n = algebra.dim
    entry = st.one_of(st.just(0), st.fractions(min_value=-9, max_value=9, max_denominator=7))
    vectors = st.lists(st.lists(entry, min_size=n, max_size=n), max_size=n)

    def draw_subspace():
        rows = data.draw(vectors)
        kind = data.draw(st.sampled_from(["span", "units", "zero", "full", "complement"]))
        if kind == "span":
            u = Subspace.span(n, rows)
            assert u.basis == fraction_rref(rows, n)
            return u
        if kind == "units":
            units = data.draw(st.sets(st.integers(0, n - 1)))
            return Subspace.span(n, [unit_vector(n, j) for j in units])
        if kind == "complement":
            return choose_complement(Subspace.span(n, rows))
        return Subspace.zero(n) if kind == "zero" else Subspace.full(n)

    u, v = draw_subspace(), draw_subspace()
    for s in (u, v, u.sum(v), u.annihilator(), choose_complement(u)):
        # Content-free rows: d is the lcm of the basis denominators whatever
        # built s, so the integers do not grow with the input.
        d, rows = s.integer_echelon
        assert d > 0 and tuple(tuple(Fraction(x, d) for x in row) for row in rows) == s.basis
        assert d == lcm(*(e.denominator for row in s.basis for e in row))
        assert gcd(d, *(x for row in rows for x in row)) == 1
    assert u.sum(v).basis == fraction_rref(u.basis + v.basis, n)
    assert u.annihilator().basis == _fraction_annihilator(u)
    assert choose_complement(u).basis == tuple(_choose_complement_by_rref(u, Subspace.full(n)))
    assert u.contains(v) == all(coords_of(u, b) is not None for b in v.basis)
    coefficients = data.draw(st.lists(entry, min_size=u.dim, max_size=u.dim))
    inside = [sum((c * b[j] for c, b in zip(coefficients, u.basis)), Fraction(0)) for j in range(n)]
    nudged = list(inside)
    nudged[data.draw(st.integers(0, n - 1))] += Fraction(1, data.draw(st.integers(1, 5)))
    for w in [zero_vector(n), inside, nudged, *v.basis, *data.draw(vectors)]:
        assert u.contains_vector(w) == (coords_of(u, w) is not None)
    brackets = [fraction_bracket(algebra, a, b) for a, b in combinations(u.basis, 2)]
    assert is_subalgebra(algebra, u) == all(coords_of(u, w) is not None for w in brackets)


def test_integer_lattice_answers_both_ways(gl2):
    # The property test above compares answers; here both answers of each
    # membership and closure question occur on fixed inputs.
    u = Subspace.span(4, [[Fraction(1, 2), Fraction(1, 3), 0, 0], [0, 0, 0, 1]])
    assert u.integer_echelon == (3, [[3, 2, 0, 0], [0, 0, 0, 3]])
    assert u.contains_vector([3, 2, 0, 5]) and not u.contains_vector([3, 2, 1, 5])
    assert u.contains(Subspace.span(4, [[0, 0, 0, 7]])) and not u.contains(Subspace.full(4))
    assert is_subalgebra(gl2, Subspace.span(4, [[1, 0, 0, 0], [0, 0, 0, 1]]))
    assert not is_subalgebra(gl2, Subspace.span(4, [[0, 1, 0, 0], [0, 0, 1, 0]]))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_a_subspace_is_its_integer_echelon_form(data):
    # One space built three ways, from rational rows, from integer rows (each
    # row times a drawn nonzero multiple of its denominators) and from its
    # Fraction RREF, is one value: equal, and equal in hash.  Its basis is
    # that RREF, built only when read: the dimension, the lattice and
    # membership leave it unbuilt.
    n = data.draw(st.integers(1, 7))
    entry = st.one_of(st.just(0), st.fractions(min_value=-9, max_value=9, max_denominator=7))
    vectors = st.lists(st.lists(entry, min_size=n, max_size=n), max_size=n + 1)
    rows, other_rows = data.draw(vectors), data.draw(vectors)
    reference = fraction_rref(rows, n)
    multiples = data.draw(st.lists(st.integers(-6, 6).filter(bool), min_size=len(rows),
                                   max_size=len(rows)))
    scaled = [
        [int(x * k * lcm(*(e.denominator for e in row))) for x in row]
        for row, k in zip(rows, multiples)
    ]
    built = [Subspace.span(n, rows), Subspace.integer_span(n, scaled),
             Subspace(n, reference)]
    assert all(u == built[0] and hash(u) == hash(built[0]) for u in built)
    assert len(set(built)) == 1
    assert Subspace(n, reference) != Subspace(n + 1, [(*row, 0) for row in reference])
    u, other = built[1], Subspace.span(n, other_rows)
    assert (u == other) == (reference == fraction_rref(other_rows, n))
    assert u != reference
    assert "basis" not in vars(u) and "basis" not in vars(other)
    results = [u.sum(other), u.annihilator(), u.intersect(other), choose_complement(u)]
    probe = [int(x) for x in data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))]
    answers = (u.dim, u.pivots, u.contains_integer(probe), u.contains(other), other.contains(u))
    assert all("basis" not in vars(s) for s in [u, other, *results])
    assert u.basis == reference and "basis" in vars(u)
    assert answers[:2] == (len(reference), tuple(pivot_columns(reference)))
    assert answers[2] == (coords_of(u, probe) is not None)
    with pytest.raises(AttributeError):
        u.ambient_dim = n + 1


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
    assert choose_complement(Subspace.zero(3)) == Subspace.full(3)


def test_complement_gl2_d_axis():
    u = Subspace.span(4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    assert choose_complement(u) == Subspace.span(4, [[0, 0, 0, 1]])


def test_complement_greedy_rule():
    u = Subspace.span(2, [[1, 1]])
    # Enumerating standard vectors: e1 is independent from (1,1), so greedy
    # picks it; e1 + u is already everything.
    assert choose_complement(u) == Subspace.span(2, [[1, 0]])


def test_complement_is_direct():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 6)
        u = random_subspace(rng, n)
        comp = choose_complement(u)
        assert comp.sum(u) == Subspace.full(n)
        assert comp.intersect(u) == Subspace.zero(n)


def test_select_spans_the_chosen_canonical_rows():
    # Any subset of a reduced row-echelon basis is one, so select builds the
    # Subspace that span would, with the same integer rows and pivots.
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(1, 6)
        u = random_subspace(rng, n)
        indices = sorted(rng.sample(range(u.dim), rng.randint(0, u.dim)))
        chosen = u.select(indices)
        expected = Subspace.span(n, [u.basis[i] for i in indices])
        assert chosen == expected
        assert (chosen.integer_echelon, chosen.pivots) == (expected.integer_echelon, expected.pivots)
        assert chosen.basis == fraction_rref(chosen.basis, n)


def _choose_complement_by_rref(u, w):
    # The greedy rule with a Fraction rref of the kept rows at every step.
    n, chosen, current = w.ambient_dim, [], list(u.basis)
    for row in w.basis:
        if len(fraction_rref(current + [row], n)) > len(fraction_rref(current, n)):
            chosen.append(row)
            current.append(row)
    return chosen


def test_complement_matches_rref_greedy_rule():
    rng = random.Random(13)
    kept = skipped = 0
    for _ in range(60):
        n = rng.randint(1, 7)
        u = random_subspace(rng, n, max_dim=n - 1)
        chosen = _choose_complement_by_rref(u, Subspace.full(n))
        assert choose_complement(u) == Subspace.span(n, chosen)
        kept += len(chosen)
        skipped += n - len(chosen)
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


def test_library_subspaces_are_in_rref():
    # Membership reads the stored basis as canonical, so every Subspace the
    # library builds must hold its basis in reduced row-echelon form.
    rng = random.Random(29)
    for algebra in algebra_catalog():
        n = algebra.dim
        for _ in range(3):
            u, v = random_subspace(rng, n), coordinate_subspace(rng, n)
            matrix = [random_vector(rng, n, bound=3) for _ in range(n)]
            built = [
                Subspace.span(n, [random_vector(rng, n) for _ in range(rng.randint(0, n))]),
                Subspace.zero(n),
                Subspace.full(n),
                u.sum(v),
                u.annihilator(),
                u.intersect(v),
                LinearMap(algebra, algebra, mat(matrix)).image(),
                isotropy_algebra(algebra, random_vector(rng, n, bound=3)),
                AffineSubspace(algebra, u, zero_vector(n)).direction,
                choose_complement(u),
            ]
            for s in built:
                assert rref(s.basis, n) == s.basis

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpl import algebroid, linalg, submanifold
from lpl.algebroid import (
    algebroid_fiber_d,
    isotropy_algebra,
    orbit_tangent,
    transversal_orbit_report,
)
from lpl.cli import parse_model, parse_problem
from lpl.embedding import Extension, cosymplectic_locus, extend, is_cosymplectic_at
from lpl.lie import NotASubalgebra, is_subalgebra
from lpl.linalg import (
    Subspace,
    dot,
    mat,
    mat_vec,
    nullspace,
    transpose,
    unit_vector,
    vadd,
    vec,
    vscale,
)
from lpl.submanifold import (
    AffineSubspace,
    IntegerPoint,
    SampleSpec,
    Walk,
    is_coisotropic,
    pointwise_flags,
    skew_pencil,
)

from conftest import (
    FIXTURES,
    algebra_catalog,
    coordinate_subspace,
    fraction_bivector_at,
    fraction_bracket,
    fraction_coad_apply,
    fraction_rref,
    load_perfbench,
    over_common_scale,
    pencil_at,
    pencil_cells,
    random_subspace,
    random_vector,
    ranks_along,
    rational_catalog,
    rebase,
    sl2_h,
    subalgebra_catalog,
    unimodular,
    walk_of,
    walk_points,
    zero_vector,
)


# ---------------------------------------------------------------------------
# the fiber d


def test_fiber_trivial_when_base_pairs_nondegenerately(sl2):
    # <base, [e1, e2 - e3]> = <(0,0,1), e2 - e3> = -1, so the skew form on h
    # has full rank and d vanishes.
    c = AffineSubspace(sl2, sl2_h(sl2), vec([0, 0, 1]))
    d, d_sub = algebroid_fiber_d(c)
    assert d == Subspace.zero(3)
    assert d_sub


def test_fiber_is_everything_when_base_kills_brackets(sl2):
    for base in ([1, 0, 0], [0, 0, 0]):
        c = AffineSubspace(sl2, sl2_h(sl2), vec(base))
        d, d_sub = algebroid_fiber_d(c)
        assert d == sl2_h(sl2)
        assert d_sub


def test_fiber_requires_subalgebra(sl2):
    h = Subspace.span(3, [[0, 1, 0], [0, 0, 1]])
    with pytest.raises(NotASubalgebra):
        algebroid_fiber_d(AffineSubspace(sl2, h, zero_vector(3)))


def test_coisotropic_implies_full_fiber():
    for algebra, h in subalgebra_catalog():
        c = AffineSubspace(algebra, h, zero_vector(algebra.dim))
        assert is_coisotropic(c)
        d, d_sub = algebroid_fiber_d(c)
        assert d == h
        assert d_sub


def test_fiber_is_subalgebra_on_random_bases():
    rng = random.Random(89)
    for algebra, h in subalgebra_catalog():
        for _ in range(5):
            c = AffineSubspace(algebra, h, random_vector(rng, algebra.dim, bound=5))
            d, d_sub = algebroid_fiber_d(c)
            assert h.contains(d)
            assert d_sub


# ---------------------------------------------------------------------------
# the same answers in every basis of g

FIXTURE_PROBLEMS = {
    path.name: parse_problem(path.read_text(), base_dir=FIXTURES)
    for path in sorted(FIXTURES.glob("*.json"))
    if "h_basis" in path.read_text()
}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_flags_and_the_fiber_do_not_depend_on_the_basis_of_g(data):
    # form_rank_at reads a point's direction coordinates at the pivots of a
    # canonical basis, which a change of basis of g moves.  The flags at the
    # base and at points of C (x becomes M x) are properties of the set C;
    # on the four subalgebra fixtures so are the cosymplectic test at P's
    # base, dim d and whether d is a subalgebra.  The gl2 fixtures, whose h
    # is not one, give the pencil directions that the flags at points read.
    problem = FIXTURE_PROBLEMS[data.draw(st.sampled_from(sorted(FIXTURE_PROBLEMS)))]
    m = data.draw(unimodular(problem.algebra.dim))
    c, sampling = problem.affine, SampleSpec(2, data.draw(st.integers(0, 99)), bound=3)
    points = [c.base, *c.sample_points(sampling)]

    def invariants(p, move):
        c = p.affine
        flags = [pointwise_flags(c, move(x)) for x in points]
        if not c.form.is_constant:
            return flags, None
        e, (d, d_sub) = extend(c), algebroid_fiber_d(c)
        return flags, (is_cosymplectic_at(e, e.p_tilde.base), d.dim, d_sub)

    moved = invariants(rebase(problem, m), lambda x: mat_vec(mat(m), x))
    assert invariants(problem, lambda x: x) == moved


# ---------------------------------------------------------------------------
# isotropy and orbits


def test_isotropy_along_sl2_line(sl2):
    for t in (0, 1, -2, Fraction(3, 2)):
        x = vec([0, t, t + 1])
        expected = Subspace.span(3, [[0, t, -(t + 1)]])
        assert isotropy_algebra(sl2, x) == expected
        assert orbit_tangent(sl2, x).dim == 2


def test_isotropy_at_origin_is_everything(sl2, gl2):
    for algebra in (sl2, gl2):
        n = algebra.dim
        assert isotropy_algebra(algebra, zero_vector(n)) == Subspace.full(n)
        assert orbit_tangent(algebra, zero_vector(n)) == Subspace.zero(n)


def test_isotropy_gl2_diagonal_point(gl2):
    assert isotropy_algebra(gl2, [1, 0, 0, 0]) == Subspace.span(
        4, [[1, 0, 0, 0], [0, 0, 0, 1]]
    )


def test_isotropy_is_orbit_annihilator():
    rng = random.Random(97)
    for algebra in algebra_catalog():
        for _ in range(8):
            x = random_vector(rng, algebra.dim, bound=6)
            iso = isotropy_algebra(algebra, x)
            orbit = orbit_tangent(algebra, x)
            assert iso == orbit.annihilator()
            assert iso.dim + orbit.dim == algebra.dim


def test_isotropy_is_a_subalgebra():
    rng = random.Random(101)
    for algebra in algebra_catalog():
        for _ in range(5):
            x = random_vector(rng, algebra.dim, bound=6)
            assert is_subalgebra(algebra, isotropy_algebra(algebra, x))


def test_orbit_tangent_matches_bivector_image(sl2):
    rng = random.Random(103)
    for _ in range(10):
        x = random_vector(rng, 3)
        # The column span of Pi(x); orbit_tangent takes the row span.
        image = Subspace.span(3, transpose(fraction_bivector_at(sl2, x)))
        assert orbit_tangent(sl2, x) == image


# ---------------------------------------------------------------------------
# the combined report


def test_report_sl2_transverse_line(sl2):
    c = AffineSubspace(sl2, sl2_h(sl2), vec([0, 0, 1]))
    report = transversal_orbit_report(c, SampleSpec(count=20, seed=12))
    assert report.d == Subspace.zero(3)
    assert report.d_is_subalgebra
    assert report.constant_orbit_dim
    assert all(dim == 2 for _, dim in report.orbit_dims)
    assert all(ok for _, ok in report.transversal)
    assert report.sampling == SampleSpec(count=20, seed=12)


def test_report_without_subalgebra(gl2):
    h = Subspace.span(4, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    c = AffineSubspace(gl2, h, vec([1, 0, 0, 0]))
    report = transversal_orbit_report(c, SampleSpec(count=10, seed=13))
    assert report.d is None
    assert report.d_is_subalgebra is None
    assert report.orbit_dims[0] == (vec([1, 0, 0, 0]), 2)


def test_report_orbit_dim_jump_through_origin(gl2):
    # The a-axis through 0 crosses the zero orbit, so the dimension cannot be
    # constant once 0 is the base point.
    h = Subspace.span(4, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    c = AffineSubspace(gl2, h, zero_vector(4))
    report = transversal_orbit_report(c, SampleSpec(count=10, seed=13))
    assert not report.constant_orbit_dim
    assert report.orbit_dims[0] == (zero_vector(4), 0)


# ---------------------------------------------------------------------------
# the rank form of the report against the Subspace-lattice formulas


def subspace_orbit_report(c, points):
    """Orbit dimension and transversality from the orbit tangent space and an intersection."""
    dims, transversal = [], []
    for x in points:
        tangent_o = Subspace.span(c.algebra.dim, transpose(fraction_bivector_at(c.algebra, x)))
        dims.append((x, tangent_o.dim))
        transversal.append((x, c.direction.intersect(tangent_o).dim == 0))
    return tuple(dims), tuple(transversal)


def subspace_fiber_d(c):
    """d from m^2 pairings <base, [h_i, h_j]> and the kernel combinations of h."""
    algebra, h = c.algebra, c.h
    rows = [
        [dot(c.base, fraction_bracket(algebra, h.basis[i], w)) for i in range(h.dim)]
        for w in h.basis
    ]
    vectors = []
    for coords in nullspace(tuple(tuple(r) for r in rows), h.dim):
        v = zero_vector(algebra.dim)
        for cf, hb in zip(coords, h.basis):
            v = vadd(v, vscale(cf, hb))
        vectors.append(v)
    return Subspace.span(algebra.dim, vectors)


def test_report_matches_subspace_formulas():
    # Coordinates in {-1, 0, 1} put many samples on orbit-dimension drops.
    rng = random.Random(211)
    cases = subalgebra_catalog()
    for algebra in algebra_catalog():
        cases += [(algebra, random_subspace(rng, algebra.dim)) for _ in range(4)]
    seen_dims, seen_transversal, non_subalgebras, point_c = set(), set(), 0, 0
    for algebra, h in cases:
        base = vec([rng.randint(-1, 1) for _ in range(algebra.dim)])
        c = AffineSubspace(algebra, h, base)
        report = transversal_orbit_report(c, SampleSpec(count=6, seed=rng.randrange(1000), bound=1))
        points = [x for x, _ in report.orbit_dims]
        if c.dim:
            assert points == [base] + c.sample_points(report.sampling)
        else:  # C is its base point
            assert (points, report.sampling) == ([base], None)
            point_c += 1
        dims, transversal = subspace_orbit_report(c, points)
        assert report.orbit_dims == dims
        assert report.transversal == transversal
        if is_subalgebra(algebra, h):
            assert report.d == subspace_fiber_d(c)
            # d = h cap ann(sharp N*_base C) = ann(ann(h) + sharp N*_base C).
            assert report.d == c.span_at_base.annihilator()
        else:
            non_subalgebras += 1
            assert report.d is None
        seen_dims |= {(algebra.dim, d) for _, d in dims}
        seen_transversal |= {ok for _, ok in transversal}
        if len({d for _, d in dims}) > 1:
            assert not report.constant_orbit_dim
    assert seen_transversal == {True, False}
    assert non_subalgebras > 10 and point_c > 0
    # Orbit dimensions drop below the generic one on some samples, e.g. to 0 on sl2 + sl2.
    assert (6, 0) in seen_dims and (6, 2) in seen_dims and (6, 4) in seen_dims


def test_report_builds_one_pencil_and_reads_no_form(monkeypatch):
    # C's form B_h is the leading dim h block of the report's [H; E] pencil:
    # whether it is constant and its kernel at the base, which d is built
    # from, are read there, so the report builds that one pencil and never
    # AffineSubspace.form, and still gives algebroid_fiber_d's d.
    rng = random.Random(233)
    cases = subalgebra_catalog()
    cases += [(a, random_subspace(rng, a.dim)) for a in algebra_catalog() + rational_catalog()]
    cases += [(a, coordinate_subspace(rng, a.dim)) for a in algebra_catalog()]
    expected = []
    for algebra, h in cases:
        c = AffineSubspace(algebra, h, random_vector(rng, algebra.dim, bound=3))
        expected.append((c, algebroid_fiber_d(c) if c.form.is_constant else (None, None)))
    built, pencil = [], submanifold.skew_pencil

    def recording(c, s, rows):
        built.append(len(rows))
        return pencil(c, s, rows)

    def unread(c):
        raise AssertionError("the orbit report read AffineSubspace.form")

    monkeypatch.setattr(algebroid, "skew_pencil", recording)
    monkeypatch.setattr(submanifold, "skew_pencil", recording)
    monkeypatch.setattr(AffineSubspace, "form", property(unread))
    fibers = Counter()
    for c, fiber in expected:
        built.clear()
        report = transversal_orbit_report(AffineSubspace(c.algebra, c.h, c.base), SampleSpec(3))
        assert built == [c.algebra.dim]
        assert (report.d, report.d_is_subalgebra) == fiber
        fibers[fiber[0] is None, fiber[0] is not None and 0 < fiber[0].dim < c.h.dim] += 1
    assert fibers[True, False] > 5 and fibers[False, True] > 5 and fibers[False, False] > 5


# ---------------------------------------------------------------------------
# orbit dimension and transversality from one skew elimination


def split_ranks(c, walk):
    """(orbit_dim, s) per point of the walk from ``ranks_along`` on the pencil of M Pi(x) M^T.

    M lists h's canonical basis, then the unit vectors off its pivots.  Each
    pair is checked against Fraction eliminations of Pi(x) and of the rows
    coad_{h_a}(x), which share no code with the skew elimination.
    """
    algebra, h, n = c.algebra, c.h, c.algebra.dim
    units = [unit_vector(n, j) for j in range(n) if j not in h.pivots]
    pencil = skew_pencil(c, *over_common_scale([*h.basis, *units]))
    found = []
    for x in c.points_at(walk):
        orbit_dim = len(fraction_rref(fraction_bivector_at(algebra, x), n))
        s = len(fraction_rref([fraction_coad_apply(algebra, v, x) for v in h.basis], n))
        found.append((orbit_dim, s))
    assert ranks_along(pencil, walk, h.dim) == found
    return found


SPLIT_CATALOG = algebra_catalog() + rational_catalog()


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_one_skew_elimination_gives_both_ranks(data):
    # h = 0, h = g, coordinate h and spans of rational rows (mostly not
    # subalgebras), at the walk's points and at small integer points; the
    # report's orbit dimensions and transversality flags are the same ranks.
    algebra = data.draw(st.sampled_from(SPLIT_CATALOG))
    n = algebra.dim
    entry = st.one_of(st.integers(-2, 2), st.fractions(-3, 3, max_denominator=4))
    kind = data.draw(st.sampled_from(["zero", "full", "units", "span"]))
    if kind == "units":
        h = Subspace.span(n, [unit_vector(n, j) for j in data.draw(st.sets(st.integers(0, n - 1)))])
    elif kind == "span":
        rows = st.lists(st.lists(entry, min_size=n, max_size=n), max_size=n)
        h = Subspace.span(n, data.draw(rows))
    else:
        h = Subspace.zero(n) if kind == "zero" else Subspace.full(n)
    c = AffineSubspace(algebra, h, vec(data.draw(st.lists(entry, min_size=n, max_size=n))))
    k = c.direction.dim
    small = st.lists(st.integers(-2, 2), min_size=k, max_size=k)
    sampling = SampleSpec(3, data.draw(st.integers(0, 999)), data.draw(st.sampled_from([1, 1000])))
    walk = c.walk(sampling)[0]
    ranks = split_ranks(c, walk)
    split_ranks(c, walk_of([IntegerPoint(1, tuple(data.draw(small))) for _ in range(2)]))
    report = transversal_orbit_report(c, sampling)
    points = c.points_at(walk)
    assert report.orbit_dims == tuple(zip(points, (d for d, _ in ranks)))
    assert report.transversal == tuple(zip(points, (d == s for d, s in ranks)))


def test_split_ranks_meet_every_kind_of_pivot():
    # At points with coordinates in {-1, 0, 1} across both catalogs, C meets
    # orbits transversally and not, and s is odd at some points: a pivot
    # there pairs an index in h with one outside it.  The report agrees.
    rng = random.Random(227)
    seen = Counter()
    for algebra in SPLIT_CATALOG:
        n = algebra.dim
        small = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(rng.randint(1, n))]
        for h in (
            Subspace.zero(n),
            Subspace.full(n),
            coordinate_subspace(rng, n),
            random_subspace(rng, n),
            Subspace.span(n, small),
        ):
            c = AffineSubspace(algebra, h, vec([rng.randint(-1, 1) for _ in range(n)]))
            sampling = SampleSpec(4, rng.randrange(1000), bound=1)
            ranks = split_ranks(c, c.walk(sampling)[0])
            report = transversal_orbit_report(c, sampling)
            assert [ok for _, ok in report.transversal] == [d == s for d, s in ranks]
            for orbit_dim, s in ranks:
                seen["transversal" if s == orbit_dim else "not transversal"] += 1
                seen["odd s"] += s % 2
                seen["0 < s < orbit_dim"] += 0 < s < orbit_dim
            seen["not a subalgebra"] += not is_subalgebra(algebra, h)
    kinds = {"transversal", "not transversal", "odd s", "0 < s < orbit_dim", "not a subalgebra"}
    assert set(seen) == kinds and min(seen.values()) >= 5


def test_report_runs_one_batched_elimination_per_walk_chunk(monkeypatch):
    # The orbit report, the pre-Poisson test and the cosymplectic locus each
    # cost one _skew_eliminate_many per chunk of at most WALK_CHUNK points of
    # the walk, the base in the first chunk.  The pre-Poisson test ranks a
    # constant pencil in one call of count 1, and stops after the chunk that
    # holds its counterexample; the locus draws no point for an odd or zero
    # p.  No Bareiss _eliminate depends on the points: the eliminations that
    # do not (the direction, the fiber d) are the same for 2 and 9 samples.
    bareiss, counts = [], []  # each Bareiss call; the point count of each batched one
    eliminate, many = linalg._eliminate, linalg._skew_eliminate_many
    monkeypatch.setattr(linalg, "_eliminate", lambda *a, **k: bareiss.append(1) or eliminate(*a, **k))
    monkeypatch.setattr(
        submanifold, "_skew_eliminate_many", lambda rows, k: counts.append(k) or many(rows, k)
    )
    rng = random.Random(229)
    cases = [(algebra, h) for algebra, h in subalgebra_catalog()]
    cases += [(algebra, random_subspace(rng, algebra.dim)) for algebra in algebra_catalog()]
    seen = set()
    for chunk in (submanifold.WALK_CHUNK, 4):
        monkeypatch.setattr(submanifold, "WALK_CHUNK", chunk)
        for algebra, h in cases:
            base = vec([rng.randint(-1, 1) for _ in range(algebra.dim)])
            totals = []
            for count in (2, 9):
                sampling = SampleSpec(count, bound=1)  # small points, where ranks drop
                bareiss.clear()
                c = AffineSubspace(algebra, h, base)
                walk = c.walk(sampling)[0]  # a point C has only its base
                chunks = [min(chunk, walk.count - a) for a in range(0, walk.count, chunk)]
                counts.clear()
                report = transversal_orbit_report(c, sampling)
                assert len(report.orbit_dims) == walk.count == 1 + count * (h.dim < algebra.dim)
                assert counts == chunks
                counts.clear()
                verdict = submanifold.pre_poisson_check(c, sampling)
                if c.form.is_constant:
                    assert counts == [1]
                elif verdict.kind == submanifold.NOT_CONSTANT:
                    x = verdict.counterexample[1]["point"]
                    at = c.points_at(walk).index(x)
                    assert counts == chunks[: at // chunk + 1]
                    seen.add(("stops early", at // chunk + 1 < len(chunks)))
                else:
                    assert counts == chunks
                counts.clear()
                cosymplectic_locus(Extension(c, c, sampling), sampling)
                assert counts == (chunks if h.dim and h.dim % 2 == 0 else [])
                seen |= {verdict.kind, ("chunks", len(counts))}
                totals.append(len(bareiss))
            assert totals[0] == totals[1]
    kinds = {"certified_constant", "sampled_constant", "not_constant"}
    assert kinds | {("chunks", 3), ("stops early", True)} <= seen


def test_cells_are_ints_at_one_point_and_where_no_direction_touches(monkeypatch):
    # The orbit report's [H; E] pencil for the Borel h of gl3 along C, at a
    # diagonal base: at one point every cell is an int, and on a walk over
    # L = 1 or 2 each cell that no direction touches is one int, its value at
    # every point, and each other cell the list of its values.  Those are
    # L D times the Fraction form, and the ranks are those of the form at
    # each point.
    fam = load_perfbench(monkeypatch, "families")
    algebra = parse_model(fam.gl(3))
    h = Subspace.span(9, fam.gl_subalgebra(3, "borel"))
    c = AffineSubspace(algebra, h, vec([3 * (i % 4 == 0) - (i == 4) for i in range(9)]))
    d, rows = h.integer_echelon
    units = [[d * (i == j) for i in range(9)] for j in range(9) if j not in h.pivots]
    pencil = skew_pencil(c, d, [*rows, *units])
    touched = {k for terms in pencil.directions for k, _ in terms}
    walk = c.walk(SampleSpec(6, seed=4))[0]
    for walk in (walk, Walk(2, walk.count, walk.columns)):
        cells = [x for row in pencil._cells_along(walk) for x in row]
        assert len(cells) == len(pencil_cells(9)) and 0 < len(touched) < len(cells)
        assert any(cells[k] for k in range(len(cells)) if k not in touched)
        for k, x in enumerate(cells):
            assert type(x) is (list if k in touched else int)
        ranks = []
        for a, t in enumerate(walk_points(walk)):
            scale, numerators = t
            alone = [x for row in pencil._cells_along(t.walk()) for x in row]
            assert all(type(x) is int for x in alone)
            assert alone == [x if type(x) is int else x[a] for x in cells]
            form = pencil_at(pencil, [Fraction(n, scale) for n in numerators])
            factor = scale * pencil.denominator
            assert alone == [factor * form[i][j] for i, j in pencil_cells(9)]
            ranks.append(len(fraction_rref(form, 9)))
        assert [r for r, _ in ranks_along(pencil, walk)] == ranks

import random
from fractions import Fraction

import pytest

from lpl.algebroid import (
    algebroid_fiber_d,
    isotropy_algebra,
    orbit_tangent,
    transversal_orbit_report,
)
from lpl.lie import NotASubalgebra, is_subalgebra
from lpl.lie_poisson import bivector_at
from lpl.linalg import (
    Subspace,
    dot,
    nullspace,
    transpose,
    vadd,
    vec,
    vscale,
    zero_vector,
)
from lpl.submanifold import AffineSubspace, SampleSpec, is_coisotropic

from conftest import (
    algebra_catalog,
    random_subspace,
    random_vector,
    sl2_h,
    subalgebra_catalog,
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
        image = Subspace.span(3, transpose(bivector_at(sl2, x)))
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
    assert report.samples == 20 and report.seed == 12


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
        tangent_o = Subspace.span(c.algebra.dim, transpose(bivector_at(c.algebra, x)))
        dims.append((x, tangent_o.dim))
        transversal.append((x, c.direction.intersect(tangent_o).dim == 0))
    return tuple(dims), tuple(transversal)


def subspace_fiber_d(c):
    """d from m^2 pairings <base, [h_i, h_j]> and the kernel combinations of h."""
    algebra, h = c.algebra, c.h
    rows = [[dot(c.base, algebra.bracket(h.basis[i], w)) for i in range(h.dim)] for w in h.basis]
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
    seen_dims, seen_transversal, non_subalgebras = set(), set(), 0
    for algebra, h in cases:
        base = vec([rng.randint(-1, 1) for _ in range(algebra.dim)])
        c = AffineSubspace(algebra, h, base)
        report = transversal_orbit_report(c, SampleSpec(count=6, seed=rng.randrange(1000), bound=1))
        points = [x for x, _ in report.orbit_dims]
        assert points == [base] + c.sample_points(SampleSpec(6, report.seed, bound=1))
        dims, transversal = subspace_orbit_report(c, points)
        assert report.orbit_dims == dims
        assert report.transversal == transversal
        if is_subalgebra(algebra, h):
            assert report.d == subspace_fiber_d(c)
        else:
            non_subalgebras += 1
            assert report.d is None
        seen_dims |= {(algebra.dim, d) for _, d in dims}
        seen_transversal |= {ok for _, ok in transversal}
        if len({d for _, d in dims}) > 1:
            assert not report.constant_orbit_dim
    assert seen_transversal == {True, False}
    assert non_subalgebras > 10
    # Orbit dimensions drop below the generic one on some samples, e.g. to 0 on sl2 + sl2.
    assert (6, 0) in seen_dims and (6, 2) in seen_dims and (6, 4) in seen_dims

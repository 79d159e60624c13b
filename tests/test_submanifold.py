import random
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from lpl import submanifold
from lpl.algebroid import transversal_orbit_report
from lpl.embedding import Extension, cosymplectic_locus
from lpl.lie import (
    LieAlgebra,
    LinearMap,
    NotASubalgebra,
    direct_sum,
    is_subalgebra,
    morphism_check,
    subspace_bracket,
)
from lpl.lie_poisson import bivector_at
from lpl.linalg import (
    Subspace,
    choose_complement,
    dot,
    rank,
    unit_vector,
    vadd,
    vec,
    vscale,
    vsub,
    zero_vector,
)
from lpl.submanifold import (
    CERTIFIED_CONSTANT,
    NOT_CONSTANT,
    SAMPLED_CONSTANT,
    AffineSubspace,
    CoisotropyResult,
    IntegerPoint,
    NotOnSubmanifold,
    PointwiseFlags,
    SampleSpec,
    classify,
    graph_coisotropy,
    is_coisotropic,
    pointwise_flags,
    pre_poisson_check,
    preimage_construction,
    product,
    sharp_conormal_at,
    skew_pencil,
)

from conftest import (
    algebra_catalog,
    bivector_pencil,
    bracket_table,
    coordinate_subspace,
    fraction_arithmetic,
    fraction_pencil,
    fraction_rref,
    pencil_at,
    pencil_cells,
    random_subspace,
    random_vector,
    rational_catalog,
    restricted_algebra,
    sl2_h,
    slice_preimage,
    subalgebra_catalog,
)


# ---------------------------------------------------------------------------
# the affine subspace itself


def test_membership_and_dim(sl2):
    c = AffineSubspace(sl2, sl2_h(sl2), vec([0, 0, 1]))
    assert c.dim == 1
    assert c.contains([0, 1, 2])
    assert c.contains([0, Fraction(-3, 2), Fraction(-1, 2)])
    assert not c.contains([1, 0, 1])
    with pytest.raises(NotOnSubmanifold):
        c.require_point([1, 0, 1])


def test_sample_points_lie_on_c_and_are_deterministic(gl2):
    h = Subspace.span(4, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    c = AffineSubspace(gl2, h, vec([0, 0, 0, 0]))
    spec = SampleSpec(count=10, seed=3)
    pts = c.sample_points(spec)
    assert len(pts) == 10
    assert pts == c.sample_points(spec)
    assert all(c.contains(x) for x in pts)
    assert pts != c.sample_points(SampleSpec(count=10, seed=4))


def test_point_case_sample(sl2):
    c = AffineSubspace(sl2, Subspace.full(3), vec([1, 2, 3]))
    assert c.dim == 0
    assert c.sample_points(SampleSpec(count=5)) == [vec([1, 2, 3])]


def test_walk_is_the_base_then_the_samples(sl2):
    # A point C is walked at its one origin and rests on no sampling.
    point = AffineSubspace(sl2, Subspace.full(3), vec([1, 2, 3]))
    assert point.walk(SampleSpec(count=5)) == ([IntegerPoint.origin(0)], None)
    line = AffineSubspace(sl2, sl2_h(sl2), vec([0, 0, 1]))
    spec = SampleSpec(count=5, seed=2)
    points, sampling = line.walk(spec)
    assert (points, sampling) == ([IntegerPoint.origin(1)] + spec.points(1), spec)
    assert [line.point_at(t) for t in points[1:]] == line.sample_points(spec)


@pytest.mark.parametrize("bound", [1, 2, 3, 1000])
def test_sample_points_follow_the_randint_stream(bound):
    # Every sampled report rests on this stream: the coordinates are the
    # randint(-bound, bound) of Random(seed), in order, each point over 1.
    for seed in range(21):
        for dim in (0, 1, 3):
            rng = random.Random(seed)
            expected = [
                IntegerPoint(1, tuple(rng.randint(-bound, bound) for _ in range(dim)))
                for _ in range(5)
            ]
            assert SampleSpec(count=5, seed=seed, bound=bound).points(dim) == expected


def test_sample_bound_must_be_positive():
    with pytest.raises(ValueError, match="bound"):
        SampleSpec(bound=0).points(1)


# ---------------------------------------------------------------------------
# sharp of the conormal


def test_sharp_conormal_sl2_cone_line(sl2):
    # C = {(0, t, t+1)} with h = span{e1, e2-e3}.  At the base (0, 0, 1):
    # coad_{e1}(x) = (0, -1, 0) and coad_{e2-e3}(x) = (1, 0, 0).
    c = AffineSubspace(sl2, sl2_h(sl2), vec([0, 0, 1]))
    at_base = sharp_conormal_at(c, [0, 0, 1])
    assert at_base == Subspace.span(3, [[0, 1, 0], [1, 0, 0]])
    at_t1 = sharp_conormal_at(c, [0, 1, 2])
    assert at_t1.dim == 2


def test_sharp_conormal_requires_membership(sl2):
    c = AffineSubspace(sl2, sl2_h(sl2), vec([0, 0, 1]))
    with pytest.raises(NotOnSubmanifold):
        sharp_conormal_at(c, [1, 1, 1])


def test_sharp_conormal_gl2_line(gl2):
    # C = the a-axis (h = span{b, c, d}); at alpha E11 the span of the
    # coadjoint images is the off-diagonal plane, at 0 it vanishes.
    h = Subspace.span(4, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    c = AffineSubspace(gl2, h, vec([0, 0, 0, 0]))
    assert sharp_conormal_at(c, [0, 0, 0, 0]) == Subspace.zero(4)
    assert sharp_conormal_at(c, [2, 0, 0, 0]) == Subspace.span(
        4, [[0, 1, 0, 0], [0, 0, 1, 0]]
    )


# ---------------------------------------------------------------------------
# coisotropy


def test_coisotropic_iff_subalgebra_plus_character():
    rng = random.Random(71)
    for algebra, h in subalgebra_catalog():
        # Base annihilating [h, h]: zero always works.
        c = AffineSubspace(algebra, h, zero_vector(algebra.dim))
        assert is_coisotropic(c)
        # A base with <lambda, [h,h]> != 0 must fail with a character witness.
        from lpl.lie import subspace_bracket

        comm = subspace_bracket(algebra, h, h)
        if comm.dim > 0:
            bad = AffineSubspace(algebra, h, comm.basis[0])
            res = is_coisotropic(bad)
            assert not res
            assert res.witness[0] == "character_fails"


def bracket_loop_coisotropy(c):
    """The verdict from each bracket's containment in h, then lambda on [h, h]."""
    algebra, h = c.algebra, c.h
    for i, u in enumerate(h.basis):
        for v in h.basis[i + 1 :]:
            w = algebra.bracket(u, v)
            if not h.contains_vector(w):
                return CoisotropyResult(False, ("bracket_escapes", u, v, w))
    for u in subspace_bracket(algebra, h, h).basis:
        if dot(c.base, u) != 0:
            return CoisotropyResult(False, ("character_fails", u))
    return CoisotropyResult(True)


def generated_subalgebra(algebra, vectors):
    """The smallest subalgebra containing ``vectors``."""
    h = Subspace.span(algebra.dim, vectors)
    while (bigger := h.sum(subspace_bracket(algebra, h, h))) != h:
        h = bigger
    return h


def test_coisotropy_from_the_form_matches_the_bracket_loop():
    # The form decides coisotropy, and its first nonzero B_i entry in
    # row-major order is the loop's first escaping pair: verdict and witness
    # agree on random subspaces and on random subalgebras.
    rng = random.Random(89)
    kinds = set()
    for algebra in algebra_catalog():
        n = algebra.dim
        for _ in range(8):
            vectors = [
                [rng.choice([0, 0, 1, -1, 2]) for _ in range(n)] for _ in range(rng.randint(1, 2))
            ]
            for h in (random_subspace(rng, n), generated_subalgebra(algebra, vectors)):
                for base in (zero_vector(n), random_vector(rng, n, bound=5)):
                    c = AffineSubspace(algebra, h, base)
                    expected = bracket_loop_coisotropy(c)
                    assert is_coisotropic(c) == expected
                    kinds.add((is_subalgebra(algebra, h), expected.witness and expected.witness[0]))
    assert kinds == {(False, "bracket_escapes"), (True, "character_fails"), (True, None)}


def test_non_subalgebra_witness(sl2):
    h = Subspace.span(3, [[0, 1, 0], [0, 0, 1]])  # [e2, e3] = e1 escapes
    res = is_coisotropic(AffineSubspace(sl2, h, zero_vector(3)))
    assert not res
    kind, u, v, w = res.witness
    assert kind == "bracket_escapes"
    assert w == sl2.bracket(u, v)
    assert not h.contains_vector(w)


def test_sl2_character_line(sl2):
    # h = span{e1, e2-e3} has [h, h] = span{e2-e3}; lambda = (1, 0, 0)
    # annihilates it, lambda = (0, 1, 0) does not.
    h = sl2_h(sl2)
    assert is_coisotropic(AffineSubspace(sl2, h, vec([1, 0, 0])))
    assert not is_coisotropic(AffineSubspace(sl2, h, vec([0, 1, 0])))


def test_coisotropic_implies_sharp_inside_tangent():
    rng = random.Random(73)
    for algebra, h in subalgebra_catalog():
        c = AffineSubspace(algebra, h, zero_vector(algebra.dim))
        if not is_coisotropic(c):
            continue
        for x in c.sample_points(SampleSpec(count=6, seed=5)):
            assert c.direction.contains(sharp_conormal_at(c, x))


# ---------------------------------------------------------------------------
# rank constancy along C


def test_subalgebra_case_is_certified(sl2):
    c = AffineSubspace(sl2, sl2_h(sl2), vec([0, 0, 1]))
    verdict = pre_poisson_check(c)
    assert verdict.kind == CERTIFIED_CONSTANT
    assert verdict.rank == 3
    assert c.span_at_base == Subspace.full(3)


def test_certified_space_matches_every_point():
    for algebra, h in subalgebra_catalog():
        c = AffineSubspace(algebra, h, zero_vector(algebra.dim))
        verdict = pre_poisson_check(c)
        assert verdict.kind == CERTIFIED_CONSTANT
        assert verdict.rank == c.span_at_base.dim
        for x in c.sample_points(SampleSpec(count=5, seed=9)):
            span = c.direction.sum(sharp_conormal_at(c, x))
            assert span == c.span_at_base


def test_constant_pencil_iff_subalgebra(sl2):
    # <u, [h_a, h_b]> = 0 for every u in ann(h) iff [h_a, h_b] lies in h, so
    # the pencil of B_h has no B_i exactly when h is a subalgebra, and only
    # then is the verdict certified (it rests on no sampling).
    rng = random.Random(83)
    catalog = algebra_catalog()
    sums = [direct_sum(a, b, sign) for a in catalog[:5] for b in catalog[:5] for sign in (1, -1)]
    cases = subalgebra_catalog()
    for algebra in catalog + sums:
        cases += [(algebra, Subspace.zero(algebra.dim)), (algebra, Subspace.full(algebra.dim))]
        cases += [(algebra, random_subspace(rng, algebra.dim)) for _ in range(4)]
    sl2_sl2 = direct_sum(sl2, sl2)
    for mask in range(64):
        basis = [unit_vector(6, i) for i in range(6) if mask >> i & 1]
        cases.append((sl2_sl2, Subspace.span(6, basis)))
    seen = set()
    for algebra, h in cases:
        c = AffineSubspace(algebra, h, random_vector(rng, algebra.dim, bound=5))
        constant = skew_pencil(c, h.basis).constant
        assert constant == is_subalgebra(algebra, h)
        assert (pre_poisson_check(c, SampleSpec(count=1)).sampling is None) == constant
        assert (transversal_orbit_report(c, SampleSpec(count=1)).d is None) == (not constant)
        seen.add(constant)
    assert seen == {False, True}


def test_gl2_line_rank_jump(gl2):
    h = Subspace.span(4, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    c = AffineSubspace(gl2, h, zero_vector(4))
    verdict = pre_poisson_check(c)
    assert verdict.kind == NOT_CONSTANT
    (base_pt, base_rank), (other_pt, other_rank) = verdict.counterexample
    assert base_pt == zero_vector(4)
    assert base_rank == 1
    assert other_rank == 3


def test_integer_samples_find_the_so4_rank_drop():
    # so4 in the basis A_rc = E_rc - E_cr, r < c, row-major.  h = span(A12,
    # A24) is not a subalgebra, and rank B_h drops from 2 to 0 on the
    # hyperplane x3 = 0 of C.  An integer sample at seed 910245 lands on it.
    cells = list(combinations(range(4), 2))
    basis = [sympy.Matrix(4, 4, lambda i, j: int((i, j) == rc) - int((j, i) == rc)) for rc in cells]

    def coords(m):
        return [m[r, c] for r, c in cells]

    so4 = LieAlgebra.from_brackets(
        6, {(i, j): coords(u * v - v * u) for (i, u), (j, v) in combinations(enumerate(basis), 2)}
    )
    hv = [unit_vector(6, 0), unit_vector(6, 4)]
    c = AffineSubspace(so4, Subspace.span(6, hv), vec([68, -39, -80, -21, 14, -20]))
    verdict = classify(c, SampleSpec(seed=910245)).pre_poisson
    assert verdict.kind == NOT_CONSTANT
    (x0, r0), (x1, r1) = verdict.counterexample
    assert (x0, r0, r1) == (c.base, 6, 4) and x1[2] == 0 and c.contains(x1)
    # sympy: rank of ann(h) + coad_h(x), coad_v(x)_k = <x, [v, e_k]>.
    hm = sympy.Matrix([[sympy.Rational(e) for e in v] for v in hv])
    ann = [w.T for w in hm.nullspace()]
    h_mats = [sum((e * b for e, b in zip(v, basis)), sympy.zeros(4, 4)) for v in hv]
    for x, expected in ((x0, r0), (x1, r1)):
        xs = sympy.Matrix([[sympy.Rational(e) for e in x]])
        coad = [
            sympy.Matrix([[(xs * sympy.Matrix(coords(v * b - b * v)))[0] for b in basis]])
            for v in h_mats
        ]
        assert sympy.Matrix.vstack(*ann, *coad).rank() == expected


def test_walks_longer_than_a_chunk_keep_their_verdicts(monkeypatch):
    # With WALK_CHUNK = 3 a walk of up to 21 points is ranked in batches of
    # 3 and a last shorter one.  ranks_along equals rank_at at every point;
    # the pre-Poisson counterexample is still the first sample whose rank
    # differs from the base's, and the walk stops after its batch; the
    # verdict, the orbit report and the cosymplectic locus equal those of
    # one batch.
    batches = []
    many = submanifold._skew_eliminate_many
    monkeypatch.setattr(
        submanifold, "_skew_eliminate_many", lambda rows, k: batches.append(k) or many(rows, k)
    )
    rng = random.Random(233)
    seen = set()
    cases = []
    for algebra in CATALOG:
        n = algebra.dim
        for h in (random_subspace(rng, n), coordinate_subspace(rng, n)):
            c = AffineSubspace(algebra, h, vec([rng.randint(-1, 1) for _ in range(n)]))
            cases += [(c, SampleSpec(rng.randint(4, 20), rng.randrange(1000), b)) for b in (1, 2, 3)]
    for c, sampling in cases:
        ext = Extension(c, c, sampling)
        one_batch = (pre_poisson_check(c, sampling), transversal_orbit_report(c, sampling),
                     cosymplectic_locus(ext, sampling))
        monkeypatch.setattr(submanifold, "WALK_CHUNK", 3)
        points, pencil = c.walk(sampling)[0], c.form
        batches.clear()
        assert [r for r, _ in pencil.ranks_along(points)] == list(map(pencil.rank_at, points))
        assert batches == [min(3, len(points) - a) for a in range(0, len(points), 3)]
        batches.clear()
        verdict = pre_poisson_check(c, sampling)
        base_rank = pencil.rank_at(points[0])
        jumps = [a for a, t in enumerate(points[1:]) if pencil.rank_at(t) != base_rank]
        if pencil.constant:
            assert verdict.kind == CERTIFIED_CONSTANT and batches == []
        elif jumps:
            assert verdict.kind == NOT_CONSTANT
            assert verdict.counterexample[1][0] == c.point_at(points[1 + jumps[0]])
            assert len(batches) == jumps[0] // 3 + 1
        else:
            assert verdict.kind == SAMPLED_CONSTANT
            assert len(batches) == -(-(len(points) - 1) // 3)
        assert verdict == one_batch[0]
        assert transversal_orbit_report(c, sampling) == one_batch[1]
        assert cosymplectic_locus(ext, sampling) == one_batch[2]
        monkeypatch.setattr(submanifold, "WALK_CHUNK", 256)
        seen |= {verdict.kind, ("past the first batch", bool(jumps) and jumps[0] > 2)}
    assert {NOT_CONSTANT, SAMPLED_CONSTANT, CERTIFIED_CONSTANT} < seen
    assert ("past the first batch", True) in seen


def test_sampled_constant_case(gl2):
    # A non-subalgebra ([b+c, a] = -b + c escapes) so the verdict can only
    # rest on sample points; the report must carry the sampling parameters.
    h = Subspace.span(4, [[0, 1, 1, 0], [1, 0, 0, 0]])
    assert not is_subalgebra(gl2, h)
    c = AffineSubspace(gl2, h, zero_vector(4))
    verdict = pre_poisson_check(c, SampleSpec(count=40, seed=2))
    assert verdict.kind in (SAMPLED_CONSTANT, NOT_CONSTANT)
    if verdict.kind == SAMPLED_CONSTANT:
        assert verdict.sampling == SampleSpec(count=40, seed=2)


def test_rank_identity_on_random_data():
    # rank(sharp N* + TC) = rank(sharp N*) + dim C - rank(TC /\ sharp N*).
    rng = random.Random(79)
    catalog = [a for a in algebra_catalog() if a.dim <= 6]
    for _ in range(60):
        algebra = rng.choice(catalog)
        n = algebra.dim
        h = random_subspace(rng, n)
        base = random_vector(rng, n, bound=5)
        c = AffineSubspace(algebra, h, base)
        x = c.sample_points(SampleSpec(count=1, seed=rng.randint(0, 99)))[0]
        sharp = sharp_conormal_at(c, x)
        tangent = c.direction
        assert (
            sharp.sum(tangent).dim
            == sharp.dim + c.dim - tangent.intersect(sharp).dim
        )


def _sympy_bivector(algebra, x):
    """Pi(x)_ij = <x, [e_i, e_j]> from the structure constants alone."""
    n, q, table = algebra.dim, sympy.Rational, bracket_table(algebra)
    return sympy.Matrix(n, n, lambda i, j: sum(q(xk) * q(c) for xk, c in zip(x, table[i][j])))


def _integer_point(t):
    """Rational coordinates t as integer numerators over the lcm of their denominators."""
    scale = lcm(*(ti.denominator for ti in t))
    return IntegerPoint(scale, tuple(ti.numerator * (scale // ti.denominator) for ti in t))


def test_skew_pencil_matches_sympy():
    # B_h(x) = H Pi(x) H^T for the rows H of h's basis, and
    # codim h + rank B_h(x) = rank(ann(h) + {coad_v(x) : v in h}); both at the
    # base (t = 0) and at a point base + sum t_a u_a reached through the pencil.
    rng = random.Random(31)
    catalog = algebra_catalog()
    cases = [(a, Subspace.zero(a.dim)) for a in catalog] + [(a, Subspace.full(a.dim)) for a in catalog]
    for _ in range(40):
        algebra = rng.choice(catalog)
        cases.append((algebra, random_subspace(rng, algebra.dim)))
    for algebra, h in cases:
        c = AffineSubspace(algebra, h, random_vector(rng, algebra.dim, bound=5))
        pencil = skew_pencil(c, h.basis)
        codim = c.direction.dim
        hm = sympy.Matrix(h.dim, algebra.dim, lambda a, j: sympy.Rational(h.basis[a][j]))
        for t in (zero_vector(codim), random_vector(rng, codim, bound=5)):
            pi = _sympy_bivector(algebra, c.point_at(_integer_point(t)))
            form = hm * pi * hm.T
            assert sympy.Matrix(h.dim, h.dim, lambda a, b: pencil_at(pencil, t)[a][b]) == form
            rows = [u.T for u in hm.nullspace()] + [hm.row(a) * pi for a in range(h.dim)]
            assert codim + pencil.rank_at(_integer_point(t)) == sympy.Matrix.vstack(*rows).rank()


def _mixed_coordinates(rng, n):
    """Coordinates with denominators 1..9 and some zero entries."""
    return tuple(
        Fraction(0) if rng.random() < 0.25 else Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        for _ in range(n)
    )


def test_integer_pencil_matches_fraction_form_and_sympy():
    # rank_at works on L * D times the form (L: lcm of t's denominators,
    # D: the pencil's common denominator); pencil_at(t) is the form itself.
    rng = random.Random(47)
    catalog = algebra_catalog()
    cases = [(a, Subspace.zero(a.dim)) for a in catalog] + [(a, Subspace.full(a.dim)) for a in catalog]
    for _ in range(60):
        algebra = rng.choice(catalog)
        k = rng.randint(1, algebra.dim)
        h = Subspace.span(algebra.dim, [_mixed_coordinates(rng, algebra.dim) for _ in range(k)])
        cases.append((algebra, h))
    seen_denominators, seen_ranks = set(), set()
    for algebra, h in cases:
        n = algebra.dim
        c = AffineSubspace(algebra, h, _mixed_coordinates(rng, n))
        codim = c.direction.dim
        pencils = [skew_pencil(c, h.basis), bivector_pencil(c)]
        seen_denominators |= {p.denominator for p in pencils}
        for t in (zero_vector(codim), _mixed_coordinates(rng, codim), _mixed_coordinates(rng, codim)):
            x = c.point_at(_integer_point(t))
            for pencil in pencils:
                form = pencil_at(pencil, t)
                expected = sympy.Matrix(pencil.size, pencil.size, lambda a, b: form[a][b]).rank()
                assert pencil.rank_at(_integer_point(t)) == rank(form, pencil.size) == expected
                seen_ranks.add(expected)
            assert pencil_at(pencils[0], t) == tuple(
                tuple(dot(x, algebra.bracket(u, v)) for v in h.basis) for u in h.basis
            )
            assert pencil_at(pencils[1], t) == bivector_at(algebra, x)
    # The entries really were scaled, and the forms were not all degenerate.
    assert max(seen_denominators) > 9 and {0, 2, 4} <= seen_ranks


def test_skew_pencils_store_the_upper_triangle_and_rank_without_bareiss(monkeypatch):
    # A pencil keeps only its entries a < b and is ranked by skew_rank, not
    # by integer_rank's Bareiss elimination.
    rng = random.Random(53)
    monkeypatch.setattr(submanifold, "integer_rank", None)
    for algebra in algebra_catalog():
        n = algebra.dim
        c = AffineSubspace(algebra, random_subspace(rng, n), random_vector(rng, n, bound=5))
        point = IntegerPoint(3, tuple(rng.randint(-5, 5) for _ in range(c.direction.dim)))
        t = tuple(Fraction(e, 3) for e in point.numerators)
        for pencil in (c.form, bivector_pencil(c)):
            m = pencil.size
            stored = [k for terms in pencil.directions for k, _ in terms]
            assert pencil.cells == tuple(pencil_cells(m))
            assert len(pencil.base) == m * (m - 1) // 2 and all(k < len(pencil.base) for k in stored)
            assert pencil.rank_at(point) == rank(pencil_at(pencil, t), m)


def test_integer_pencils_equal_the_fraction_oracle():
    # skew_pencil and bivector_pencil pair integer brackets with C's integer
    # base and directions; they store the same denominator and entries as the
    # pencil paired in Fractions.  The cases take rational constants (Ds > 1),
    # rational h and lambda, h = 0 and h = g.
    rng = random.Random(61)
    catalog = algebra_catalog() + rational_catalog()
    cases = []
    for algebra in catalog:
        n = algebra.dim
        cases += [(algebra, Subspace.zero(n)), (algebra, Subspace.full(n))]
        cases += [(algebra, random_subspace(rng, n)) for _ in range(3)]
        cases.append((algebra, Subspace.span(n, [_mixed_coordinates(rng, n) for _ in range(2)])))
    seen = {"rational constants": 0, "rational lambda": 0, "rescaled": 0}
    for algebra, h in cases:
        n = algebra.dim
        e = [unit_vector(n, j) for j in range(n)]
        for base in (random_vector(rng, n, bound=7), _mixed_coordinates(rng, n)):
            c = AffineSubspace(algebra, h, base)
            pairs = [
                (skew_pencil(c, h.basis), fraction_pencil(c, h.basis)),
                (bivector_pencil(c), fraction_pencil(c, e)),
            ]
            for pencil, oracle in pairs:
                assert pencil == oracle
            ds = algebra.integer_structure[0]
            seen["rational constants"] += ds > 1
            seen["rational lambda"] += any(x.denominator > 1 for x in base)
            # D is below Ds T S^2, the scale of the integer pairings (T of C's
            # vectors, S of h's basis): a common factor was divided out.
            t = lcm(*(x.denominator for v in (base, *c.direction.basis) for x in v))
            s = lcm(*(x.denominator for v in h.basis for x in v))
            seen["rescaled"] += pairs[0][0].denominator < ds * t * s * s
    assert min(seen.values()) > 10


def test_pencils_are_built_without_fraction_arithmetic(monkeypatch):
    # C's form and the bivector pencil are paired and scaled in integers: no
    # Fraction is multiplied or added.
    rng = random.Random(67)
    cases = []
    for algebra in algebra_catalog() + rational_catalog():
        n = algebra.dim
        h = Subspace.span(n, [_mixed_coordinates(rng, n) for _ in range(rng.randint(1, n))])
        c = AffineSubspace(algebra, h, _mixed_coordinates(rng, n))
        cases.append(c)
    calls = fraction_arithmetic(monkeypatch)
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6) and calls == ["__add__"]
    calls.clear()
    built = [(c.form, bivector_pencil(c)) for c in cases]
    assert calls == []
    assert any(pencil.denominator > 1 for pencils in built for pencil in pencils)


def test_lattice_and_span_at_base_run_without_fraction_arithmetic(monkeypatch):
    # Sums, annihilators, containment, bracket closure and T_base C +
    # sharp N*_base C run on integer echelon rows and integer coadjoint rows:
    # no Fraction is added, subtracted, multiplied or divided.
    rng = random.Random(79)
    cases = []
    for algebra in algebra_catalog() + rational_catalog():
        n = algebra.dim
        u, v = (
            Subspace.span(n, [_mixed_coordinates(rng, n) for _ in range(rng.randint(0, n))])
            for _ in range(2)
        )
        cases.append((algebra, u, v, coordinate_subspace(rng, n), _mixed_coordinates(rng, n)))
    calls = fraction_arithmetic(monkeypatch)
    answers = set()
    for algebra, u, v, w, base in cases:
        c = AffineSubspace(algebra, u, base)
        assert u.sum(v).contains(v) and u.contains(u.intersect(v))
        answers |= {("contains", v.contains(u)), ("closed", is_subalgebra(algebra, w))}
        assert c.span_at_base.contains(c.direction) and v.annihilator().dim == v.ambient_dim - v.dim
    assert calls == []
    assert answers == {(name, flag) for name in ("contains", "closed") for flag in (True, False)}


def gl(n: int) -> LieAlgebra:
    """gl_n on the E_rc, index r n + c: [E_ab, E_cd] = delta_bc E_ad - delta_da E_cb."""
    dim = n * n
    brackets = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            (a, b), (c, d) = divmod(i, n), divmod(j, n)
            w = [0] * dim
            w[a * n + d] += b == c
            w[c * n + b] -= d == a
            brackets[(i, j)] = w
    return LieAlgebra.from_brackets(dim, brackets)


def test_span_at_base_keeps_content_free_integer_rows_on_gl6(gl2):
    # On gl6 with h the off-diagonal E_rc, not a subalgebra, T_base C +
    # sharp N*_base C is all of g*.  The last Bareiss pivot of its elimination
    # is a maximal minor of some 3000 bits; with the content divided out the
    # rows are d I with d = 1, and choose_complement and sum run on those.
    assert bracket_table(gl(2)) == bracket_table(gl2)
    rng = random.Random(5)
    off = [unit_vector(36, 6 * r + c) for r in range(6) for c in range(6) if r != c]
    c = AffineSubspace(gl(6), Subspace.span(36, off), vec([rng.randint(-9, 9) for _ in range(36)]))
    d, rows = c.span_at_base.integer_echelon
    assert d == 1 and rows == [list(e) for e in Subspace.full(36).basis]


def test_sharp_conormal_is_the_span_of_coad_apply():
    # sharp_conormal_at spans integer coadjoint rows at h's integer echelon
    # rows; the oracle spans coad_apply(v, x) over h's canonical basis in
    # Fractions, at the base and at sample points of C.
    rng = random.Random(83)
    for algebra in algebra_catalog() + rational_catalog():
        n = algebra.dim
        for _ in range(4):
            h = Subspace.span(n, [_mixed_coordinates(rng, n) for _ in range(rng.randint(0, n))])
            c = AffineSubspace(algebra, h, _mixed_coordinates(rng, n))
            for x in [c.base] + c.sample_points(SampleSpec(count=3, seed=rng.randrange(100))):
                images = [algebra.coad_apply(v, x) for v in h.basis]
                assert sharp_conormal_at(c, x).basis == fraction_rref(images, n)


CATALOG = algebra_catalog()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_rank_and_point_at_integer_points_match_fractions(data):
    # At integer points n / L, walked from SampleSpec or drawn directly, rank_at
    # and ranks_along (over all of them at once) equal the rank of the
    # Fraction form pencil_at(t), and point_at equals
    # base + sum t_a u_a in Fractions, on C's form and the bivector pencil.
    # Every form vanishes at x = 0, so half the time the base is put where
    # the drawn numerators over L = 1 reach 0: there the point n / 1 is
    # degenerate and n / L, for L > 1, in general is not.
    algebra = data.draw(st.sampled_from(CATALOG))
    n = algebra.dim
    small = st.integers(min_value=-3, max_value=3)
    vectors = st.lists(st.lists(small, min_size=n, max_size=n), max_size=n)
    spans = vectors.map(lambda rows: Subspace.span(n, rows))
    h = data.draw(st.one_of(st.just(Subspace.full(n)), spans))  # g itself: C is a point
    direction = h.annihilator()
    numerators = tuple(data.draw(st.lists(small, min_size=direction.dim, max_size=direction.dim)))
    if data.draw(st.booleans()):
        base = zero_vector(n)
        for na, u in zip(numerators, direction.basis):
            base = vsub(base, vscale(na, u))
    else:
        base = vec(data.draw(st.lists(small, min_size=n, max_size=n)))
    c = AffineSubspace(algebra, h, base)
    pencil = skew_pencil(c, h.basis) if data.draw(st.booleans()) else bivector_pencil(c)
    scale = data.draw(st.integers(min_value=1, max_value=6))
    seed, bound = data.draw(st.integers(0, 999)), data.draw(st.sampled_from([1, 2, 1000]))
    points = [IntegerPoint(1, numerators), IntegerPoint(scale, numerators)]
    points += c.walk(SampleSpec(3, seed, bound))[0]  # the origin, then the samples
    for point in points:
        t = tuple(Fraction(n, point.denominator) for n in point.numerators)
        assert pencil.rank_at(point) == rank(pencil_at(pencil, t), pencil.size)
        x = c.base
        for ta, u in zip(t, c.direction.basis):
            x = vadd(x, vscale(ta, u))
        assert c.point_at(point) == x
    assert [r for r, _ in pencil.ranks_along(points)] == list(map(pencil.rank_at, points))


# ---------------------------------------------------------------------------
# pointwise flags and full classification


def test_flags_gl2_line(gl2):
    h = Subspace.span(4, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    c = AffineSubspace(gl2, h, zero_vector(4))
    at_zero = pointwise_flags(c, [0, 0, 0, 0])
    assert at_zero.characteristic_rank == 0
    assert at_zero.poisson_dirac and not at_zero.cosymplectic
    away = pointwise_flags(c, [1, 0, 0, 0])
    assert away.characteristic_rank == 0
    assert away.poisson_dirac and not away.cosymplectic


def test_flags_cosymplectic_point(sl2):
    # C = {(0, t, t+1)}: tangent is the cone line, sharp N* at the base is
    # 2-dimensional and meets it trivially.
    c = AffineSubspace(sl2, sl2_h(sl2), vec([0, 0, 1]))
    flags = pointwise_flags(c, [0, 0, 1])
    assert flags.characteristic_rank == 0
    assert flags.poisson_dirac
    assert flags.cosymplectic


def intersect_flags(c, x):
    """The flags from the Subspace intersection of T_x C with sharp N*_x C."""
    sharp = sharp_conormal_at(c, x)
    tangent = c.direction
    char_rank = tangent.intersect(sharp).dim
    poisson_dirac = char_rank == 0
    cosymplectic = poisson_dirac and tangent.dim + sharp.dim == c.algebra.dim
    return PointwiseFlags(char_rank, poisson_dirac, cosymplectic)


def flag_inputs(sl2):
    """Affine subspaces of the catalog and its direct sums, each with a sample seed."""
    rng = random.Random(59)
    catalog = algebra_catalog()
    sums = [
        direct_sum(a, b, sign) for a in catalog[:5] for b in catalog[:5] for sign in (1, -1)
    ]
    cases = []
    for algebra in catalog + sums:
        cases += [(algebra, random_subspace(rng, algebra.dim)) for _ in range(4)]
    # Every coordinate subspace of sl2 + sl2: h = span(e_1, e_4) pairs to zero
    # across the factors, so the characteristic rank reaches 2.
    sl2_sl2 = direct_sum(sl2, sl2)
    for mask in range(64):
        basis = [unit_vector(6, i) for i in range(6) if mask >> i & 1]
        cases.append((sl2_sl2, Subspace.span(6, basis)))
    for algebra, h in cases:
        c = AffineSubspace(algebra, h, random_vector(rng, algebra.dim, bound=5))
        yield c, rng.randint(0, 99)


def test_flags_match_subspace_intersection(sl2):
    seen = set()
    for c, seed in flag_inputs(sl2):
        for x in [c.base] + c.sample_points(SampleSpec(count=2, seed=seed)):
            flags = pointwise_flags(c, x)
            assert flags == intersect_flags(c, x)
            seen.add((flags.characteristic_rank, flags.cosymplectic))
    assert {rank for rank, _ in seen} >= {0, 1, 2}
    assert {cosymplectic for _, cosymplectic in seen} == {False, True}


def test_classify_flags_are_pointwise_flags_at_the_base(sl2):
    # classify reads rank B_h(base) from the pre-Poisson verdict's base rank
    # and takes one rank of the rows coad_{h_a}(base); pointwise_flags
    # computes both in Fractions.  All three verdict kinds occur.
    seen, kinds = set(), set()
    for c, seed in flag_inputs(sl2):
        report = classify(c, SampleSpec(count=2, seed=seed))
        flags = PointwiseFlags(
            report.characteristic_rank_at_base,
            report.poisson_dirac_at_base,
            report.cosymplectic_at_base,
        )
        assert flags == pointwise_flags(c, c.base)
        seen.add((flags.characteristic_rank, flags.cosymplectic))
        kinds.add(report.pre_poisson.kind)
    assert seen == {(0, False), (0, True), (1, False), (2, False)}
    assert kinds == {CERTIFIED_CONSTANT, SAMPLED_CONSTANT, NOT_CONSTANT}


def test_classify_reports(sl2, gl2):
    c = AffineSubspace(sl2, sl2_h(sl2), vec([0, 0, 1]))
    report = classify(c)
    assert not report.coisotropic
    assert report.pre_poisson.kind == CERTIFIED_CONSTANT
    assert report.generic_rank == 3
    assert report.cosymplectic_at_base

    h = Subspace.span(4, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    line = classify(AffineSubspace(gl2, h, zero_vector(4)))
    assert not line.coisotropic
    assert line.coisotropic.witness[0] == "bracket_escapes"
    assert line.pre_poisson.kind == NOT_CONSTANT
    assert line.generic_rank == 3
    assert not line.cosymplectic_at_base


# ---------------------------------------------------------------------------
# restriction-map preimages


def test_restricted_algebra_sl2_h(sl2):
    sub = restricted_algebra(sl2, sl2_h(sl2))
    # Basis h1 = e1, h2 = e2 - e3: [e1, e2 - e3] = e2 - e3 = h2.
    assert sub.dim == 2
    assert sub.bracket([1, 0], [0, 1]) == vec([0, 1])


def test_restricted_algebra_rejects_non_subalgebra(sl2):
    with pytest.raises(NotASubalgebra):
        restricted_algebra(sl2, Subspace.span(3, [[0, 1, 0], [0, 0, 1]]))


def test_preimage_lift(sl2):
    h = sl2_h(sl2)
    c, _ = preimage_construction(sl2, h, [2, -1])
    # The lift restricts to nu on h and kills the complement.
    assert dot(c.base, h.basis[0]) == 2
    assert dot(c.base, h.basis[1]) == -1
    assert c.h == h
    assert c.contains(c.base)


def test_preimage_with_slice_contains_c_coisotropically(sl2):
    h = sl2_h(sl2)
    c, p_tilde = preimage_construction(sl2, h, [0, 0])
    assert p_tilde.direction.contains(c.direction)
    assert p_tilde.contains(c.base)


def test_preimage_slice_at_nonzero_nu_is_transverse_to_the_coad_orbit():
    # P = lambda + ann(h) + lift of the greedy complement of the orbit tangent
    # of the subalgebra at nu, which is the span of coad_{e_i}(nu): so P's
    # direction contains ann(h) and restricts to h as that complement.
    rng = random.Random(97)
    orbit_dims = set()
    for algebra, h in subalgebra_catalog():
        m = h.dim
        if not m:
            continue
        sub = restricted_algebra(algebra, h)
        for _ in range(3):
            nu = random_vector(rng, m, bound=5)
            if not any(nu):
                continue
            c, p_tilde = preimage_construction(algebra, h, nu)
            tangent = Subspace.span(m, [sub.coad_apply(unit_vector(m, i), nu) for i in range(m)])
            restricted = [[dot(u, v) for v in h.basis] for u in p_tilde.direction.basis]
            assert p_tilde.base == c.base
            assert p_tilde.direction.contains(c.direction)
            assert Subspace.span(m, restricted) == choose_complement(tangent)
            orbit_dims.add(tangent.dim)
    assert max(orbit_dims) > 0


def test_preimage_form_at_its_base_is_the_subalgebra_bivector_at_nu():
    # preimage_construction reads nu's orbit tangent off C's form at lambda;
    # the oracle is the bivector of h rebuilt as a Lie algebra of its own.
    rng = random.Random(61)
    orbit_dims = set()
    for algebra, h in subalgebra_catalog():
        m = h.dim
        sub = restricted_algebra(algebra, h)
        for _ in range(4):
            nu = random_vector(rng, m, bound=5)
            c, _ = preimage_construction(algebra, h, nu)
            tangent = Subspace.span(m, c.form.base_rows())
            assert tangent == Subspace.span(m, bivector_at(sub, nu))
            orbit_dims.add(tangent.dim)
    assert 0 in orbit_dims and max(orbit_dims) > 0


def test_preimage_is_the_lift_and_annihilate_construction():
    # P = lambda + ann(p), p the rows of h off the slice's pivots, is the
    # pre-image of the slice built by lifting each slice covector to g*.
    rng = random.Random(29)
    dims = set()  # (dim h, dim p)
    for algebra, h in subalgebra_catalog():
        nus = [zero_vector(h.dim)] + [random_vector(rng, h.dim, bound=5) for _ in range(5)]
        for nu in nus:
            c, p_tilde = preimage_construction(algebra, h, nu)
            assert (c, p_tilde) == slice_preimage(algebra, h, nu)
            dims.add((h.dim, p_tilde.h.dim))
    assert any(0 < p < m for m, p in dims) and any(0 < p == m for m, p in dims)


def test_preimage_requires_subalgebra(sl2):
    with pytest.raises(NotASubalgebra):
        preimage_construction(sl2, Subspace.span(3, [[0, 1, 0], [0, 0, 1]]), [0, 0])


# ---------------------------------------------------------------------------
# graphs and products


def test_graph_coisotropy_matches_morphism_check():
    rng = random.Random(83)
    catalog = [a for a in algebra_catalog() if a.dim <= 4]
    checked = 0
    for _ in range(60):
        dom = rng.choice(catalog)
        cod = rng.choice(catalog)
        phi = LinearMap(
            dom, cod, tuple(random_vector(rng, dom.dim, bound=2) for _ in range(cod.dim))
        )
        w, coiso = graph_coisotropy(phi)
        assert w.dim == dom.dim
        assert coiso == morphism_check(phi)
        checked += 1
    assert checked == 60
    # Identity maps are morphisms, so their graphs are coisotropic.
    for a in catalog:
        _, coiso = graph_coisotropy(LinearMap.identity(a))
        assert coiso


def test_product_componentwise(sl2, gl2):
    c1 = AffineSubspace(sl2, sl2_h(sl2), vec([0, 0, 1]))
    h2 = Subspace.span(4, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    c2 = AffineSubspace(gl2, h2, zero_vector(4))
    c = product(c1, c2)
    assert c.algebra.dim == 7
    assert c.dim == c1.dim + c2.dim
    assert c.base == c1.base + c2.base
    # Classification is componentwise: sharp N* at the base is the direct sum.
    sharp = sharp_conormal_at(c, c.base)
    s1 = sharp_conormal_at(c1, c1.base)
    s2 = sharp_conormal_at(c2, c2.base)
    assert sharp.dim == s1.dim + s2.dim
    report = classify(c)
    assert report.generic_rank == classify(c1).generic_rank + classify(c2).generic_rank


def test_product_of_coisotropics_is_coisotropic(sl2, heisenberg):
    c1 = AffineSubspace(sl2, sl2_h(sl2), vec([1, 0, 0]))
    c2 = AffineSubspace(heisenberg, Subspace.span(3, [[0, 0, 1]]), zero_vector(3))
    assert is_coisotropic(c1) and is_coisotropic(c2)
    assert is_coisotropic(product(c1, c2))

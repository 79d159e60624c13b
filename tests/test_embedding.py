import random

import pytest

from lpl import embedding
from lpl.embedding import (
    ConstancyNotCertified,
    Extension,
    LocusReport,
    NotComplementary,
    RankNotConstant,
    check_symmetric_pair,
    coisotropy_in_extension,
    constant_sharp_conormal,
    cosymplectic_locus,
    extend,
    induced_structure,
    is_cosymplectic_at,
    symmetric_pair_analysis,
)
from lpl.lie import LieAlgebra, NotASubalgebra, subspace_bracket
from lpl.linalg import (
    DimensionMismatch,
    Subspace,
    dot,
    mat_vec,
    rank,
    solve,
    transpose,
    vadd,
    vec,
    vscale,
    zero_vector,
)
from lpl.submanifold import (
    AffineSubspace,
    SampleSpec,
    product,
    sharp_conormal_at,
    skew_pencil,
)

from conftest import (
    algebra_catalog,
    contains_by_rref,
    coordinate_subspace,
    random_subspace,
    random_vector,
    sl2_h,
    subalgebra_catalog,
)

GL2_LINE_H = [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]


def gl2_line(gl2, base):
    return AffineSubspace(gl2, Subspace.span(4, GL2_LINE_H), vec(base))


# ---------------------------------------------------------------------------
# choosing R and building the extension


def test_choose_r_gl2_at_regular_point(gl2):
    c = gl2_line(gl2, [1, 0, 0, 0])
    # TC + sharp N* at E11 spans the a, b, c coordinates, so the greedy
    # complement is the d axis.
    assert extend(c).r == Subspace.span(4, [[0, 0, 0, 1]])


def test_choose_r_point_case_full_rank(sl2):
    c = AffineSubspace(sl2, sl2_h(sl2), vec([0, 0, 1]))
    assert extend(c).r == Subspace.zero(3)


def test_extend_refuses_nonconstant_rank(gl2):
    with pytest.raises(RankNotConstant):
        extend(gl2_line(gl2, [0, 0, 0, 0]))


def test_extend_gl2_diagonal(gl2):
    e = extend(gl2_line(gl2, [1, 0, 0, 0]))
    # h is not closed under the bracket, so constancy rests on sample points.
    assert e.sampling == SampleSpec()
    assert e.p_tilde.direction == Subspace.span(4, [[1, 0, 0, 0], [0, 0, 0, 1]])
    assert e.p == Subspace.span(4, [[0, 1, 0, 0], [0, 0, 1, 0]])
    assert e.p_tilde.contains([1, 0, 0, 0])


def test_extend_rejects_non_complement(gl2):
    c = gl2_line(gl2, [1, 0, 0, 0])
    # The b axis lies inside TC + sharp N*C.
    with pytest.raises(NotComplementary):
        extend(c, r=Subspace.span(4, [[0, 1, 0, 0]]))
    # Too small to reach the whole space.
    with pytest.raises(NotComplementary):
        extend(c, r=Subspace.zero(4))


def test_extend_with_user_r(gl2):
    r = Subspace.span(4, [[0, 0, 1, 1]])
    e = extend(gl2_line(gl2, [1, 0, 0, 0]), r=r)
    assert e.r == r
    assert e.p == Subspace.span(4, [[0, 1, 0, 0], [0, 0, 1, -1]])


def test_extend_full_rank_gives_p_tilde_equal_c(sl2):
    c = AffineSubspace(sl2, sl2_h(sl2), vec([0, 0, 1]))
    e = extend(c)
    assert e.r == Subspace.zero(3)
    assert e.p_tilde.direction == c.direction
    assert e.p == sl2_h(sl2)


# ---------------------------------------------------------------------------
# the cosymplectic locus


def test_cosymplectic_exactly_off_a_equals_d(gl2):
    e = extend(gl2_line(gl2, [1, 0, 0, 0]))
    # On the diagonal plane the form on p = span{b, c} is <x, [b, c]> =
    # <x, a - d>, degenerate exactly where a = d.
    assert is_cosymplectic_at(e, [1, 0, 0, 0])
    assert is_cosymplectic_at(e, [5, 0, 0, -2])
    assert not is_cosymplectic_at(e, [3, 0, 0, 3])
    assert not is_cosymplectic_at(e, [0, 0, 0, 0])


def test_locus_report_gl2(gl2):
    e = extend(gl2_line(gl2, [1, 0, 0, 0]))
    spec = SampleSpec(count=30, seed=1)
    report = cosymplectic_locus(e, spec)
    assert not report.never_cosymplectic
    assert report.cosymplectic_at_base
    assert report.any_cosymplectic
    points = e.p_tilde.sample_points(spec)
    assert report.checked == len(points)
    failing = []
    for x in points:
        ok = is_cosymplectic_at(e, x)
        assert ok == (x[0] != x[3])
        if not ok:
            failing.append(x)
    assert report.failing_points == tuple(failing)


def test_locus_odd_p_never_cosymplectic(sl2):
    # A point of the dual with p the whole (odd-dimensional) algebra: the
    # skew form cannot be nondegenerate, reported exactly, no sampling.
    point = AffineSubspace(sl2, Subspace.full(3), vec([0, 0, 1]))
    e = Extension(point, Subspace.zero(3), point, None)
    report = cosymplectic_locus(e)
    assert report.never_cosymplectic
    assert not report.any_cosymplectic
    assert report.checked == 0
    assert report.failing_points == ()


def test_locus_exact_branches_rest_on_no_sampling(sl2):
    # Odd dim p (parity) and p = 0 (the empty form) are decided without a
    # sample, so neither report carries a sampling.
    point = AffineSubspace(sl2, Subspace.full(3), vec([0, 0, 1]))
    odd = Extension(point, Subspace.zero(3), point, None)
    everything = AffineSubspace(sl2, Subspace.zero(3), vec([0, 0, 1]))
    zero = Extension(everything, Subspace.zero(3), everything, None)
    spec = SampleSpec(count=5, seed=3)
    assert cosymplectic_locus(odd, spec) == LocusReport(True, False, 0, (), None)
    assert cosymplectic_locus(zero, spec) == LocusReport(False, True, 0, (), None)


def test_locus_sl2_transverse_everywhere(sl2):
    c = AffineSubspace(sl2, sl2_h(sl2), vec([0, 0, 1]))
    e = extend(c)
    report = cosymplectic_locus(e, SampleSpec(count=20, seed=4))
    assert report.cosymplectic_at_base
    assert report.failing_points == ()


def catalog_extensions(rng):
    """extend() of lambda + ann(h) on the subalgebra catalog and on 20
    direct sums of its entries, each with a random lambda."""
    def with_random_base(algebra, h):
        return AffineSubspace(algebra, h, random_vector(rng, algebra.dim, bound=5))

    catalog = subalgebra_catalog()
    cases = [with_random_base(*entry) for entry in catalog]
    for _ in range(20):
        first, second = rng.choice(catalog), rng.choice(catalog)
        cases.append(product(with_random_base(*first), with_random_base(*second)))
    return [extend(c) for c in cases]


def hand_built_extensions(rng, count=40):
    """P = lambda + ann(p) for a random p inside a random h, on the catalog."""
    catalog = algebra_catalog()
    extensions = []
    for _ in range(count):
        algebra = rng.choice(catalog)
        n = algebra.dim
        h = random_subspace(rng, n)
        combinations = [random_vector(rng, h.dim, bound=3) for _ in range(rng.randint(0, h.dim))]
        p = Subspace.span(n, [mat_vec(transpose(h.basis), t) for t in combinations])
        c = AffineSubspace(algebra, h, random_vector(rng, n, bound=5))
        extensions.append(
            Extension(c, Subspace.zero(n), AffineSubspace(algebra, p, c.base), SampleSpec())
        )
    return extensions


def test_extension_is_cosymplectic_at_its_base():
    """dim p = rank B_h(base), which is even, and P is cosymplectic at its base.

    Write V = ann(h) + sharp N*_base C, so dim V = codim h + rank B_h(base),
    and let R complement V.  Then p = ann(ann(h) + R) has dimension
    dim h - dim R = rank B_h(base), the rank of a skew form, which is even.
    V meets ann(h) + R in ann(h).  Let a in p pair to zero with all of p
    under <base, [., .]>, so that sharp_base(a) lies in ann(p) = ann(h) + R.
    As a lies in p, inside h, sharp_base(a) also lies in V, so it lies in
    ann(h): <base, [a, b]> = 0 for every b in h.  So a pairs to zero with
    sharp N*_base C, with ann(h) (a lies in h) and with R (a lies in p):
    with all of g* = V + R.  So a = 0, and the form on p is nondegenerate
    at the base.
    """
    for seed in range(5):
        for e in catalog_extensions(random.Random(seed)):
            h, base = e.c.h, e.c.base
            form = [[dot(base, e.algebra.bracket(a, b)) for b in h.basis] for a in h.basis]
            assert e.p.dim == rank(form, h.dim)
            assert e.p.dim % 2 == 0
            report = cosymplectic_locus(e)
            assert report.cosymplectic_at_base and not report.never_cosymplectic


@pytest.mark.parametrize(
    # Coordinates in {-1, 0, 1} land on the degeneracy locus of P often.
    "spec", [SampleSpec(count=6, seed=5), SampleSpec(count=6, seed=2, bound=1)]
)
def test_cosymplectic_locus_matches_pointwise_oracle(spec):
    outcomes = set()
    zero_p = point_p = 0
    rng = random.Random(41)
    for e in catalog_extensions(rng) + hand_built_extensions(rng):
        zero_p += e.p.dim == 0
        report = cosymplectic_locus(e, spec)
        points = e.p_tilde.sample_points(spec)
        at_base = is_cosymplectic_at(e, e.p_tilde.base)
        failing = tuple(x for x in points if not is_cosymplectic_at(e, x))
        if e.p.dim % 2:
            assert report.never_cosymplectic
            assert (report.checked, report.failing_points) == (0, ())
            assert not at_base and len(failing) == len(points)
            continue
        assert not report.never_cosymplectic
        assert report.cosymplectic_at_base == at_base
        if e.p.dim and e.p_tilde.direction.dim:
            assert (report.checked, report.failing_points) == (len(points), failing)
        else:
            # p = 0 is cosymplectic everywhere, and a point P is its base: no sample.
            assert (report.checked, report.failing_points, report.sampling) == (0, (), None)
            point_p += e.p.dim > 0
        outcomes.add((at_base, bool(failing)))
    # Both verdicts occur, so the comparison can fail either way; p = 0 and
    # a point P take their own paths.
    assert {(True, False), (False, True)} <= outcomes
    assert zero_p > 0 and point_p > 0


# ---------------------------------------------------------------------------
# constancy of sharp N*P and the k + p decomposition


def test_constancy_certified_gl2(gl2):
    e = extend(gl2_line(gl2, [1, 0, 0, 0]))
    result = constant_sharp_conormal(e)
    assert result.certified
    assert result.k_ann == Subspace.span(4, [[0, 1, 0, 0], [0, 0, 1, 0]])


def test_constancy_fails_for_alternative_slice(gl2):
    e = extend(
        gl2_line(gl2, [1, 0, 0, 0]), r=Subspace.span(4, [[0, 0, 1, 1]])
    )
    result = constant_sharp_conormal(e)
    assert result.k_ann is None
    v, u, image = result.witness
    assert image == gl2.coad_apply(v, u)
    with pytest.raises(ConstancyNotCertified):
        symmetric_pair_analysis(e)


def test_symmetric_pair_gl2(gl2):
    e = extend(gl2_line(gl2, [1, 0, 0, 0]))
    report = symmetric_pair_analysis(e)
    assert report.k == Subspace.span(4, [[1, 0, 0, 0], [0, 0, 0, 1]])
    assert report.p == Subspace.span(4, [[0, 1, 0, 0], [0, 0, 1, 0]])
    assert report.decomposition
    assert report.k_subalgebra
    assert report.kp_in_p
    assert report.pp_in_k
    assert report.symmetric_pair


def test_check_symmetric_pair_user_mode(gl2):
    k = Subspace.span(4, [[1, 0, 0, -1], [0, 1, 0, 0], [0, 0, 1, 0]])
    p = Subspace.span(4, [[1, 0, 0, 1]])
    report = check_symmetric_pair(gl2, k, p)
    assert report.symmetric_pair
    # A non-pair: swap the roles (p is not normalized by the traceless part).
    swapped = check_symmetric_pair(gl2, p, k)
    assert not swapped.symmetric_pair
    assert not swapped.pp_in_k


def test_pair_flags_match_the_bracket_spans():
    # kp_in_p and pp_in_k test each bracket of basis pairs; the oracles span
    # [k, p] and [p, p] and eliminate them against p and k.
    rng = random.Random(37)
    outcomes = set()
    for algebra in algebra_catalog():
        n = algebra.dim
        for _ in range(10):
            k, p = (rng.choice([random_subspace, coordinate_subspace])(rng, n) for _ in range(2))
            report = check_symmetric_pair(algebra, k, p)
            assert report.kp_in_p == contains_by_rref(p, subspace_bracket(algebra, k, p).basis)
            assert report.pp_in_k == contains_by_rref(k, subspace_bracket(algebra, p, p).basis)
            assert report.decomposition == (k.dim + p.dim == n == k.sum(p).dim)
            outcomes |= {("kp", report.kp_in_p), ("pp", report.pp_in_k)}
            outcomes.add(("decomposition", report.decomposition))
    assert len(outcomes) == 6


def test_check_symmetric_pair_checks_the_ambient_dimension(sl2):
    for k, p in ((Subspace.zero(4), Subspace.zero(3)), (sl2_h(sl2), Subspace.zero(4))):
        with pytest.raises(DimensionMismatch):
            check_symmetric_pair(sl2, k, p)


def test_certified_k_with_cosymplectic_point_is_symmetric():
    # Whenever the constant space is certified and the locus is somewhere
    # nondegenerate, k closes under the bracket and normalizes p.
    for algebra, h in subalgebra_catalog():
        if h.dim == 0:
            continue
        c = AffineSubspace(algebra, h, zero_vector(algebra.dim))
        e = extend(c)
        result = constant_sharp_conormal(e)
        if not result.certified:
            continue
        locus = cosymplectic_locus(e, SampleSpec(count=12, seed=6))
        if locus.never_cosymplectic or not locus.any_cosymplectic:
            continue
        report = symmetric_pair_analysis(e, result)
        assert report.k_subalgebra
        assert report.kp_in_p


def test_constancy_is_k_normalizing_p():
    # With K = sharp N*_base P and k = ann(K), coad_v(u) pairs with w in k
    # to <u, [v, w]> up to sign; so coad_v(u) lies in K for every u in the
    # direction ann(p) iff [v, w] lies in p: constancy iff [k, p] in p.
    rng = random.Random(53)
    outcomes = []
    for e in catalog_extensions(rng) + hand_built_extensions(rng):
        k = sharp_conormal_at(e.p_tilde, e.p_tilde.base).annihilator()
        kp_in_p = contains_by_rref(e.p, subspace_bracket(e.algebra, k, e.p).basis)
        certified = constant_sharp_conormal(e).certified
        assert certified == kp_in_p
        outcomes.append(certified)
    assert True in outcomes and False in outcomes


# ---------------------------------------------------------------------------
# injectivity and the induced linear structure


def injectivity_at(algebra, p, y):
    """True iff v in p -> coad_v(y) has trivial kernel."""
    rows = [algebra.coad_apply(v, vec(y)) for v in p.basis]
    return rank(rows, algebra.dim) == p.dim


def test_injectivity_gl2(gl2):
    p = Subspace.span(4, [[0, 1, 0, 0], [0, 0, 1, 0]])
    assert injectivity_at(gl2, p, [1, 0, 0, 0])
    assert not injectivity_at(gl2, p, [0, 0, 0, 0])
    assert not injectivity_at(gl2, p, [2, 0, 0, 2])
    assert injectivity_at(gl2, Subspace.zero(4), [0, 0, 0, 0])


def test_induced_structure_gl2_extension_is_abelian(gl2):
    e = extend(gl2_line(gl2, [1, 0, 0, 0]))
    induced = induced_structure(gl2, symmetric_pair_analysis(e))
    assert induced.dim == 2
    assert induced.is_abelian()
    assert induced.labels == ("a", "d")


def test_induced_structure_traceless_center_split(gl2):
    k = Subspace.span(4, [[1, 0, 0, -1], [0, 1, 0, 0], [0, 0, 1, 0]])
    p = Subspace.span(4, [[1, 0, 0, 1]])
    induced = induced_structure(gl2, check_symmetric_pair(gl2, k, p))
    assert induced.dim == 3
    assert induced.labels == ("a", "b", "c")
    assert induced.bracket([1, 0, 0], [0, 1, 0]) == vec([0, 1, 0])
    assert induced.bracket([1, 0, 0], [0, 0, 1]) == vec([0, 0, -1])
    assert induced.bracket([0, 1, 0], [0, 0, 1]) == vec([2, 0, 0])


def test_induced_structure_requires_decomposition(gl2):
    k = Subspace.span(4, [[1, 0, 0, 0], [0, 0, 0, 1]])
    pair = check_symmetric_pair(gl2, k, Subspace.span(4, [[1, 0, 0, 0]]))
    with pytest.raises(ValueError, match="k and p must decompose the algebra"):
        induced_structure(gl2, pair)


def test_induced_structure_requires_k_subalgebra(gl2):
    # k = span{E12, E21} and p = the diagonal split gl2 directly, but
    # [E12, E21] = E11 - E22 leaves k.
    k = Subspace.span(4, [[0, 1, 0, 0], [0, 0, 1, 0]])
    pair = check_symmetric_pair(gl2, k, Subspace.span(4, [[1, 0, 0, 0], [0, 0, 0, 1]]))
    assert pair.decomposition and not pair.k_subalgebra
    with pytest.raises(NotASubalgebra):
        induced_structure(gl2, pair)


# ---------------------------------------------------------------------------
# coisotropy of C inside the extension


def test_coisotropy_in_extension_gl2(gl2):
    e = extend(gl2_line(gl2, [1, 0, 0, 0]))
    checks = coisotropy_in_extension(e, SampleSpec(count=15, seed=8))
    assert checks  # at least the base point is cosymplectic
    assert all(ok for _, ok in checks)


def test_coisotropy_in_extension_sl2(sl2):
    c = AffineSubspace(sl2, sl2_h(sl2), vec([0, 0, 1]))
    e = extend(c)
    checks = coisotropy_in_extension(e, SampleSpec(count=15, seed=8))
    assert checks
    assert all(ok for _, ok in checks)


def test_extend_checks_a_point_c_at_its_base_once(monkeypatch):
    # On aff(1) with h = g, C is the point lambda.  <lambda, [t, x]> = 1, so
    # the form on p = g is nonsingular there: the self-check tests the base
    # once and draws no sample.
    aff1 = LieAlgebra.from_brackets(2, {(0, 1): (0, 1)}, ("t", "x"))
    c = AffineSubspace(aff1, Subspace.full(2), vec([0, 1]))
    draws = []
    original = SampleSpec.points

    def counted(spec, dim):
        draws.append(dim)
        return original(spec, dim)

    monkeypatch.setattr(SampleSpec, "points", counted)
    e = extend(c)
    assert (e.p, e.p_tilde.dim, e.sampling) == (Subspace.full(2), 0, None)
    assert coisotropy_in_extension(e, SampleSpec(count=8)) == [(c.base, True)]
    assert draws == []


def test_extend_self_check_keeps_the_sampling_bound(sl2, monkeypatch):
    # The self-check takes 8 points with the caller's seed and bound.
    received = []

    def check(e, sampling):
        received.append(sampling)
        return []

    monkeypatch.setattr(embedding, "coisotropy_in_extension", check)
    c = AffineSubspace(sl2, sl2_h(sl2), vec([0, 0, 1]))
    extend(c, sampling=SampleSpec(count=5, seed=4, bound=1))
    assert received == [SampleSpec(count=8, seed=4, bound=1)]


def test_extend_verification_over_catalog():
    for algebra, h in subalgebra_catalog():
        c = AffineSubspace(algebra, h, zero_vector(algebra.dim))
        # extend reruns the coisotropy check internally; any failure would
        # raise out of it.
        e = extend(c)
        assert e.p_tilde.direction.contains(c.direction)


def reference_coisotropy(e, sampling):
    """Pointwise self-check: at each cosymplectic point, coad of the conormal
    direction w corrected by the q in p that solves the form on p, tested
    for membership in TC.  A C of dimension 0 is its base point alone."""
    results = []
    for x in [e.c.base] + (e.c.sample_points(sampling) if e.c.dim else []):
        if not is_cosymplectic_at(e, x):
            continue
        form = [[dot(x, e.algebra.bracket(a, b)) for b in e.p.basis] for a in e.p.basis]
        ok = True
        for w in e.c.h.basis:
            rhs = tuple(-dot(e.algebra.coad_apply(v, x), w) for v in e.p.basis)
            coeffs = solve(form, e.p.dim, rhs)
            corrected = w
            for cfc, pb in zip(coeffs, e.p.basis):
                corrected = vadd(corrected, vscale(cfc, pb))
            if not e.c.direction.contains_vector(e.algebra.coad_apply(corrected, x)):
                ok = False
                break
        results.append((x, ok))
    return results


def test_form_on_p_then_h_has_the_rank_of_b_h():
    # p lies in h, so the form on the list p then h is B_h seen through a
    # matrix of full column rank, and the self-check can rank e.c.form.
    rng = random.Random(59)
    spec = SampleSpec(count=4, seed=6)
    ranks = set()
    for e in catalog_extensions(rng) + hand_built_extensions(rng):
        assert e.c.h.contains(e.p)
        form_ph = skew_pencil(e.c, e.p.basis + e.c.h.basis)
        for t in e.c.walk(spec)[0]:
            ranks.add(e.c.form.rank_at(t))
            assert form_ph.rank_at(t) == e.c.form.rank_at(t)
    assert {0, 2, 4} <= ranks


def test_coisotropy_in_extension_needs_p_inside_h(sl2):
    c = AffineSubspace(sl2, Subspace.span(3, [[1, 0, 0]]), vec([0, 0, 1]))
    p_tilde = AffineSubspace(sl2, Subspace.span(3, [[0, 1, 0]]), c.base)
    with pytest.raises(ValueError):
        coisotropy_in_extension(Extension(c, Subspace.zero(3), p_tilde, None))


def test_coisotropy_in_extension_matches_pointwise_formula():
    # The extensions extend() builds, and hand-built ones where C is mostly
    # not coisotropic in P.
    rng = random.Random(43)
    extensions = catalog_extensions(rng) + hand_built_extensions(rng)
    spec = SampleSpec(count=4, seed=9)
    outcomes = set()
    for e in extensions:
        checks = coisotropy_in_extension(e, spec)
        assert checks == reference_coisotropy(e, spec)
        outcomes.update(ok for _, ok in checks)
    assert outcomes == {True, False}

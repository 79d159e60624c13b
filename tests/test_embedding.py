import json
import random
from collections import Counter
from dataclasses import replace
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpl import embedding
from lpl.algebroid import transversal_orbit_report
from lpl.cli import parse_model, parse_problem
from lpl.embedding import (
    MIN_SAMPLES,
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
from lpl.lie import LieAlgebra, NotASubalgebra, is_subalgebra, subspace_bracket
from lpl.linalg import (
    DimensionMismatch,
    Subspace,
    choose_complement,
    dot,
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
    SampleSpec,
    classify,
    product,
    sharp_conormal_at,
    skew_pencil,
)

from conftest import (
    FIXTURES,
    ExtensionCheckFailed,
    algebra_catalog,
    complements_d_in_h,
    contains_by_rref,
    coordinate_subspace,
    coords_of,
    fraction_bracket,
    fraction_coad_apply,
    fraction_creations,
    fraction_induced_structure,
    fraction_is_cosymplectic_at,
    fraction_rref,
    fraction_solve,
    load_perfbench,
    over_common_scale,
    random_subspace,
    random_vector,
    rank_at,
    rational_catalog,
    rational_rank,
    rebase,
    sl2_h,
    subalgebra_catalog,
    unconditional_extend,
    unimodular,
    zero_vector,
)

GL2_LINE_H = [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]


def gl2_line(gl2, base):
    return AffineSubspace(gl2, Subspace.span(4, GL2_LINE_H), vec(base))


# ---------------------------------------------------------------------------
# choosing p (or R) and building the extension


def test_choose_r_gl2_at_regular_point(gl2):
    c = gl2_line(gl2, [1, 0, 0, 0])
    # B_h at E11 pairs b with c alone, so d = ker B_h(base) is the d axis,
    # h-coordinate 2, and the greedy p keeps the canonical rows b and c of h.
    # The complement R of TC + sharp N*C = the a, b, c coordinates that the
    # greedy rule picks in g*, the d axis, gives the same p.
    assert c.base_kernel == Subspace.span(3, [[0, 0, 1]])
    p = Subspace.span(4, [[0, 1, 0, 0], [0, 0, 1, 0]])
    assert extend(c).p == extend(c, r=Subspace.span(4, [[0, 0, 0, 1]])).p == p


def test_choose_r_point_case_full_rank(sl2):
    # B_h(base) is nonsingular: d = 0, p = h, and the only complement R is 0.
    c = AffineSubspace(sl2, sl2_h(sl2), vec([0, 0, 1]))
    assert c.base_kernel == Subspace.zero(c.h.dim)
    assert extend(c).p == extend(c, r=Subspace.zero(3)).p == c.h


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
    c = gl2_line(gl2, [1, 0, 0, 0])
    e = extend(c, r=r)
    # p = h cap ann(R), so P's direction is TC + R.
    assert e.p == Subspace.span(4, [[0, 1, 0, 0], [0, 0, 1, -1]])
    assert e.p_tilde.direction == c.direction.sum(r)


def test_extend_full_rank_gives_p_tilde_equal_c(sl2):
    c = AffineSubspace(sl2, sl2_h(sl2), vec([0, 0, 1]))
    e = extend(c)
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
    e = Extension(point, point, None)
    report = cosymplectic_locus(e)
    assert report.never_cosymplectic
    assert not report.any_cosymplectic
    assert report.checked == 0
    assert report.failing_points == ()


def test_locus_exact_branches_rest_on_no_sampling(sl2):
    # Odd dim p (parity) and p = 0 (the empty form) are decided without a
    # sample, so neither report carries a sampling.
    point = AffineSubspace(sl2, Subspace.full(3), vec([0, 0, 1]))
    odd = Extension(point, point, None)
    everything = AffineSubspace(sl2, Subspace.zero(3), vec([0, 0, 1]))
    zero = Extension(everything, everything, None)
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


def hand_built_extensions(rng, count=40, catalog=None):
    """P = lambda + ann(p) for a random p inside a random h, on the catalog."""
    catalog = catalog or algebra_catalog()
    extensions = []
    for _ in range(count):
        algebra = rng.choice(catalog)
        n = algebra.dim
        h = random_subspace(rng, n)
        combinations = [random_vector(rng, h.dim, bound=3) for _ in range(rng.randint(0, h.dim))]
        p = Subspace.span(n, [mat_vec(transpose(h.basis), t) for t in combinations])
        c = AffineSubspace(algebra, h, random_vector(rng, n, bound=5))
        extensions.append(Extension(c, AffineSubspace(algebra, p, c.base), SampleSpec()))
    return extensions


def test_extension_is_cosymplectic_at_its_base():
    """dim p = rank B_h(base), which is even, and P is cosymplectic at its base.

    p + d = h directly, for d = ker B_h(base), so dim p = dim h - dim d =
    rank B_h(base), the rank of a skew form, which is even.  Let a in p pair
    to zero with all of p under <base, [., .]>.  It pairs to zero with d too,
    which that form kills, so with all of h = p + d: a lies in d as well as
    in p, so a = 0, and the form on p is nondegenerate at the base.
    """
    for seed in range(5):
        for e in catalog_extensions(random.Random(seed)):
            h, base = e.c.h, e.c.base
            form = [
                [dot(base, fraction_bracket(e.algebra, a, b)) for b in h.basis] for a in h.basis
            ]
            assert e.p.dim == rational_rank(form, h.dim)
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
        at_base = fraction_is_cosymplectic_at(e, e.p_tilde.base)
        assert is_cosymplectic_at(e, e.p_tilde.base) == at_base
        failing = tuple(x for x in points if not fraction_is_cosymplectic_at(e, x))
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
    assert list(result.witness) == ["p_vector", "direction", "image"]
    v, u, image = result.witness.values()
    assert image == fraction_coad_apply(gl2, v, u)
    with pytest.raises(ConstancyNotCertified):
        symmetric_pair_analysis(e)


def test_symmetric_pair_analysis_and_the_extension_share_one_certificate(gl2, monkeypatch):
    # The pair analysis reads e.constancy, so asking for the certificate
    # afterwards builds nothing again.
    calls = []
    certify = embedding.constant_sharp_conormal
    monkeypatch.setattr(
        embedding, "constant_sharp_conormal", lambda e: calls.append(e) or certify(e)
    )
    e = extend(gl2_line(gl2, [1, 0, 0, 0]))
    report = symmetric_pair_analysis(e)
    assert e.constancy.certified and report.k == e.constancy.k_ann.annihilator()
    assert calls == [e]


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
        if not e.constancy.certified:
            continue
        locus = cosymplectic_locus(e, SampleSpec(count=12, seed=6))
        if locus.never_cosymplectic or not locus.any_cosymplectic:
            continue
        report = symmetric_pair_analysis(e)
        assert report.k_subalgebra
        assert report.kp_in_p


@cache
def named_subalgebras() -> list:
    """(algebra, h) for the Borel, Cartan, so, parabolic and nilradical subalgebras
    of gl3, sl3 and gl4, built as the benchmark's workloads build them."""
    with pytest.MonkeyPatch.context() as patch:
        fam = load_perfbench(patch, "families")
    cases = []
    for model, n, sub in ((fam.gl(3), 3, fam.gl_subalgebra), (fam.sl(3), 3, fam.sl_subalgebra),
                          (fam.gl(4), 4, fam.gl_subalgebra)):
        algebra = parse_model(model)
        kinds = (("borel", ()), ("cartan", ()), ("so", ()), ("nilradical", ()),
                 ("parabolic", (1, n - 1)), ("parabolic", (n - 1, 1)))
        cases += [(algebra, Subspace.span(algebra.dim, sub(n, *kind))) for kind in kinds]
    return cases


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_certified_constancy_gives_the_direct_sum_and_a_closed_k(data):
    # p complements d in h, so B_p(base) is nondegenerate: dim k = n - dim p
    # and k meets p in 0.  Constancy gives [k, p] in p, and Jacobi then
    # <base, [p, [k, k]]> = 0, so k is closed: pair prints an induced
    # structure on every certified extension.  Half the draws keep the base
    # on the diagonal coordinates, where most of the certified ones are.
    algebra, h = data.draw(st.sampled_from(named_subalgebras()))
    diagonal = data.draw(st.booleans())
    entry = st.integers(-3, 3)
    base = [data.draw(entry) if not diagonal or label[0] == "H" or label[1] == label[2] else 0
            for label in algebra.labels]
    e = extend(AffineSubspace(algebra, h, vec(base)))
    if e.constancy.certified:
        pair = symmetric_pair_analysis(e)
        assert pair.decomposition and pair.k_subalgebra and pair.kp_in_p
        assert induced_structure(algebra, pair).dim == algebra.dim - e.p.dim


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


def constancy_by_coad_apply(e):
    """K and the first coad_v(u) outside it, with its v and u, over the bases of p and of
    P's direction.

    The Fraction loop: coad_v at the base and at each pair, with membership
    in K read off coords_of.
    """
    n = e.algebra.dim
    at_base = [fraction_coad_apply(e.algebra, v, e.p_tilde.base) for v in e.p.basis]
    k_ann = Subspace(n, fraction_rref(at_base, n))
    for v in e.p.basis:
        for u in e.p_tilde.direction.basis:
            image = fraction_coad_apply(e.algebra, v, u)
            if coords_of(k_ann, image) is None:
                return k_ann, {"p_vector": v, "direction": u, "image": image}
    return k_ann, None


def test_constancy_witness_is_the_first_of_the_fraction_loop():
    # constant_sharp_conormal tests integer coadjoint rows; its K and its
    # witness, the first failing (v, u) in the order of the two bases, are
    # those of the Fraction loop, on integer and rational structure constants.
    rng = random.Random(89)
    extensions = catalog_extensions(rng) + hand_built_extensions(rng)
    extensions += hand_built_extensions(rng, catalog=rational_catalog())
    witnesses = 0
    for e in extensions:
        k_ann, witness = constancy_by_coad_apply(e)
        result = constant_sharp_conormal(e)
        assert result.witness == witness
        assert result.k_ann == (k_ann if witness is None else None)
        witnesses += witness is not None
    assert 10 < witnesses < len(extensions) - 10


# ---------------------------------------------------------------------------
# injectivity and the induced linear structure


def injectivity_at(algebra, p, y):
    """True iff v in p -> coad_v(y) has trivial kernel."""
    rows = [algebra.coad_apply(v, vec(y)) for v in p.basis]
    return rational_rank(rows, algebra.dim) == p.dim


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


def reference_induced_structure(algebra, pair):
    """The induced structure from dense dual elements, paired in Fractions.

    khat_i in k with <u_j, khat_i> = delta_ij has its coordinates in the
    basis of k in column i of gram^-1; c_ij^l = <u_l, [khat_i, khat_j]>.
    """
    k, direction = pair.k, pair.p.annihilator()
    m = direction.dim
    gram = [[dot(u, kb) for kb in k.basis] for u in direction.basis]
    y = fraction_solve(gram, k.dim, [unit_vector(m, i) for i in range(m)])
    khat = [mat_vec(transpose(k.basis), column) for column in transpose(y)]
    brackets = {}
    for i in range(m):
        for j in range(i + 1, m):
            w = fraction_bracket(algebra, khat[i], khat[j])
            coords = tuple(dot(u, w) for u in direction.basis)
            if any(coords):
                brackets[(i, j)] = coords
    labels = tuple(algebra.labels[col] for col in direction.pivots)
    return LieAlgebra.from_brackets(m, brackets, labels)


def coordinate_subalgebras(algebra):
    """Every span of unit vectors that is a subalgebra."""
    n = algebra.dim
    spans = (
        Subspace.span(n, [unit_vector(n, i) for i in range(n) if mask >> i & 1])
        for mask in range(2**n)
    )
    return [k for k in spans if is_subalgebra(algebra, k)]


def test_induced_structure_matches_the_dense_formula(gl2, sl2):
    # Extensions on the catalog and hand-built ones; a product of two
    # extensions; and rational-basis algebras, split by a coordinate
    # subalgebra k and a random complement p, so p-ann has no integer basis.
    rng = random.Random(71)
    pairs = {"catalog": [], "hand built": [], "product": [], "rational": []}
    for source, extensions in (
        ("catalog", catalog_extensions(rng)),
        ("hand built", hand_built_extensions(rng)),
    ):
        for e in extensions:
            if e.constancy.certified:
                pairs[source].append((e.algebra, symmetric_pair_analysis(e)))
    diagonal = AffineSubspace(sl2, Subspace.span(3, [[1, 0, 0]]), vec([1, 1, 0]))
    c = product(gl2_line(gl2, [1, 0, 0, 0]), diagonal)
    e = extend(c)
    pairs["product"].append((e.algebra, symmetric_pair_analysis(e)))
    rational_p_ann = 0
    for algebra in rational_catalog():
        n = algebra.dim
        for k in coordinate_subalgebras(algebra):
            p = Subspace.span(n, [random_vector(rng, n, bound=4) for _ in range(n - k.dim)])
            pair = check_symmetric_pair(algebra, k, p)
            pairs["rational"].append((algebra, pair))
            p_ann = p.annihilator().basis
            rational_p_ann += pair.decomposition and any(x.denominator > 1 for u in p_ann for x in u)
    nonabelian = 0
    for source, cases in pairs.items():
        usable = [(a, pair) for a, pair in cases if pair.decomposition and pair.k_subalgebra]
        assert usable, source
        for algebra, pair in usable:
            induced = induced_structure(algebra, pair)
            assert induced == reference_induced_structure(algebra, pair)
            nonabelian += not induced.is_abelian()
    assert rational_p_ann > 10 and nonabelian > 10


@cache
def workload_products() -> list:
    """The extend-pair workload's products of bundled fixture problems, models inline."""
    with pytest.MonkeyPatch.context() as patch:
        builder = load_perfbench(patch, "workloads").WORKLOADS["extend-pair"](random.Random(1))
    return [parse_problem(data) for name, data in builder.files.items() if "product" in name]


@cache
def coordinate_splits() -> list:
    """(algebra, k) for each rational-basis algebra and coordinate subalgebra k."""
    return [(algebra, k) for algebra in rational_catalog() for k in coordinate_subalgebras(algebra)]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_induced_structure_matches_the_fraction_oracle(data):
    # induced_structure solves the integer Gram system and pairs integer
    # brackets; the oracle is the Fraction construction it replaced, constant
    # for constant.  Pairs come from extensions of the Borel, Cartan, so,
    # parabolic and nilradical subalgebras of gl3, sl3 and gl4 at drawn
    # bases, half of them on the diagonal coordinates, and of the workload's
    # fixture products at their own base or a drawn one.  Those all have an
    # integral basis of p-ann, so a third source splits a rational-basis
    # algebra by a coordinate subalgebra k and a drawn p.
    source = data.draw(st.sampled_from(["named", "product", "split"]))
    if source == "split":
        algebra, k = data.draw(st.sampled_from(coordinate_splits()))
        n = algebra.dim
        row = st.lists(st.integers(-4, 4), min_size=n, max_size=n)
        p = Subspace.span(n, data.draw(st.lists(row, min_size=n - k.dim, max_size=n - k.dim)))
        pair = check_symmetric_pair(algebra, k, p)
        if pair.decomposition and pair.k_subalgebra:
            assert induced_structure(algebra, pair) == fraction_induced_structure(algebra, pair)
        return
    if source == "named":
        algebra, h = data.draw(st.sampled_from(named_subalgebras()))
        base = None
    else:
        problem = data.draw(st.sampled_from(workload_products()))
        algebra, h, base = problem.algebra, problem.h, problem.base
    if base is None or data.draw(st.booleans()):
        diagonal = data.draw(st.booleans())
        base = [data.draw(st.integers(-3, 3)) if not diagonal or label[0] == "H"
                or label[1] == label[2] else 0 for label in algebra.labels]
    try:
        e = extend(AffineSubspace(algebra, h, vec(base)))
    except RankNotConstant:
        return
    if e.constancy.certified:
        pair = symmetric_pair_analysis(e)
        assert induced_structure(algebra, pair) == fraction_induced_structure(algebra, pair)


def test_induced_structure_creates_no_fraction(monkeypatch):
    # From the Gram system to validate_jacobi, induced_structure runs on
    # integers: on the certified pairs of the bundled fixtures, and on each
    # rational-basis algebra split by a coordinate subalgebra k and its
    # greedy complement, it creates no Fraction and meets the oracle.
    pairs = []
    for _, problem in bundled_problems():
        try:
            e = extend(problem.affine, problem.r, problem.sampling)
        except (RankNotConstant, NotComplementary):
            continue
        if e.constancy.certified:
            pairs.append((problem.algebra, symmetric_pair_analysis(e)))
    for algebra, k in coordinate_splits():
        pairs.append((algebra, check_symmetric_pair(algebra, k, choose_complement(k))))
    calls = fraction_creations(monkeypatch)
    induced = [induced_structure(algebra, pair) for algebra, pair in pairs]
    assert calls == []
    monkeypatch.undo()
    assert induced == [fraction_induced_structure(algebra, pair) for algebra, pair in pairs]
    assert len(pairs) > 20 and any(a.integer_structure[0] > 1 for a in induced)


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
    # the form on p = g is nonsingular there: coisotropy_in_extension tests
    # the base once, and neither it nor extend draws a sample.
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
    checks = coisotropy_in_extension(e, SampleSpec(count=8))
    assert [(c.point_at(t), ok) for t, ok in checks] == [(c.base, True)]
    assert draws == []


def test_extend_forms_only_the_first_failing_point(gl2, monkeypatch):
    # The verdict hands back its points unformed: a passing extend forms
    # none, and a refused one forms the first point of a different rank for
    # its message.
    spec = SampleSpec(count=3)
    formed = []
    original = AffineSubspace.point_at

    def counted(self, point):
        formed.append(point)
        return original(self, point)

    monkeypatch.setattr(AffineSubspace, "point_at", counted)
    center = Subspace.span(4, [[1, 0, 0, 1]])
    for c in (gl2_line(gl2, [1, 0, 0, 0]), AffineSubspace(gl2, center, vec([1, 2, 3, 4]))):
        extend(c, sampling=spec)
    assert formed == []
    c = gl2_line(gl2, [0, 0, 0, 0])
    first = c.walk(spec)[0][1]
    with pytest.raises(RankNotConstant) as refusal:
        extend(c, sampling=spec)
    assert formed == [first]
    assert f"at ({', '.join(map(str, original(c, first)))})" in str(refusal.value)


def test_extend_walks_eight_points_with_the_callers_seed_and_bound(gl2, monkeypatch):
    # Below 8 samples, the verdict walks 8 points with the caller's seed and bound.
    # The line's rank drops only at x = 0, which no shift within the bound reaches.
    drawn = []
    original = SampleSpec.points

    def points(spec, dim):
        drawn.append(spec)
        return original(spec, dim)

    monkeypatch.setattr(SampleSpec, "points", points)
    e = extend(gl2_line(gl2, [4, 0, 0, 0]), sampling=SampleSpec(count=5, seed=3, bound=3))
    assert drawn == [e.sampling] == [SampleSpec(count=8, seed=3, bound=3)]


def test_extend_refuses_a_jump_that_a_shorter_verdict_missed(gl2):
    # On this line x = 0, where rank B_h drops, is the 6th sample at seed 17
    # and bound 1.  The reference's 5-sample verdict misses it, and its
    # self-check passes there because the form on p is singular at 0;
    # extend's 8-sample verdict refuses the line.
    c = gl2_line(gl2, [1, 0, 0, 0])
    spec = SampleSpec(count=5, seed=17, bound=1)
    shifts = [t.numerators for t in SampleSpec(8, spec.seed, spec.bound).points(1)]
    assert shifts.index((-1,)) == 5
    assert unconditional_extend(c, spec).sampling == spec
    with pytest.raises(RankNotConstant) as refusal:
        extend(c, sampling=spec)
    assert str(refusal.value).endswith("rank 1 at (0, 0, 0, 0)")


def extension_cases(rng):
    """C on the subalgebra catalog, on random h of the rational catalog and
    from the bundled gl2 and sl2 problems, each C with a random lambda but
    the problems, which keep theirs."""
    cases = [
        AffineSubspace(algebra, h, random_vector(rng, algebra.dim, bound=5))
        for algebra, h in subalgebra_catalog()
    ]
    for algebra in rational_catalog():
        for _ in range(3):
            h = random_subspace(rng, algebra.dim)
            cases.append(AffineSubspace(algebra, h, random_vector(rng, algebra.dim, bound=5)))
    for path in sorted(FIXTURES.glob("*_*.json")):
        if path.name.startswith(("gl2", "sl2")):
            cases.append(parse_problem(path.read_text(), base_dir=FIXTURES).affine)
    return cases


def _outcome(extend_fn, c, sampling):
    try:
        return extend_fn(c, sampling=sampling)
    except ValueError as exc:
        return type(exc), str(exc)


def test_extend_accepts_and_refuses_as_the_unconditional_self_check():
    # extend rests on a verdict of at least 8 samples.  From 8 samples on it
    # gives the same refusal as the verdict with the self-check run every
    # time, or an Extension with the same C and sampling.  Below 8, that
    # reference decides on fewer samples: what it refuses, extend refuses as
    # a rank jump.  extend can refuse what it accepts (the test above), but
    # on these cases it accepts it with the same C.  The reference's p comes
    # from the greedy R in g*, extend's from the greedy choice in h: where
    # the two differ, both are complements of d in h.
    rng = random.Random(71)
    outcomes, differing = set(), set()
    for i, c in enumerate(extension_cases(rng)):
        for count in (0, 1, 3, 7, 8, 9, 64):
            for seed in (0, 5, 11):
                spec = SampleSpec(count=count, seed=seed)
                expected = _outcome(unconditional_extend, c, spec)
                got = _outcome(extend, c, spec)
                if isinstance(expected, tuple):
                    assert got == expected if count >= MIN_SAMPLES else got[0] is RankNotConstant
                    outcomes.add((expected[0], count >= MIN_SAMPLES))
                    continue
                assert isinstance(got, Extension) and got.c == expected.c
                if count >= MIN_SAMPLES:
                    assert got.sampling == expected.sampling
                if got.p != expected.p:
                    assert complements_d_in_h(c, got.p) and complements_d_in_h(c, expected.p)
                    differing.add(i)
                else:
                    assert got.p_tilde == expected.p_tilde
                outcomes.add("certified" if expected.sampling is None else "sampled")
    # Below 8 samples the reference's self-check refuses a C whose rank its
    # verdict missed; extend refuses it as a rank jump.
    assert outcomes == {
        "certified",
        "sampled",
        (RankNotConstant, False),
        (RankNotConstant, True),
        (ExtensionCheckFailed, False),
    }
    # The two greedy rules pick different p on 10 of the 34 cases.
    assert len(differing) == 10


def extend_pair_problems(monkeypatch, tmp_path, seeds):
    """(seed, file name, Problem) of each problem the extend-pair workload
    extends, its files written to ``tmp_path`` for the parser."""
    workloads = load_perfbench(monkeypatch, "workloads")
    problems = []
    for seed in seeds:
        builder = workloads.WORKLOADS["extend-pair"](random.Random(seed))
        folder = tmp_path / f"seed{seed}"
        folder.mkdir()
        for name, data in builder.files.items():
            (folder / name).write_text(json.dumps(data))
        names = dict.fromkeys(op.problem for op in builder.ops if op.command in ("extend", "pair"))
        for name in names:
            problems.append((seed, name, parse_problem((folder / name).read_text(), base_dir=folder)))
    return problems


def bundled_problems():
    """(file name, Problem) of each bundled problem fixture."""
    problems = []
    for path in sorted(FIXTURES.glob("*.json")):
        if "model" in json.loads(path.read_text()):
            problems.append((path.name, parse_problem(path.read_text(), base_dir=FIXTURES)))
    return problems


def test_p_complements_d_in_h_on_the_fixtures_and_the_extend_pair_workload(monkeypatch, tmp_path):
    # Every extension of the bundled problems and of the extend-pair workload
    # at seeds 1-3 has p + d = h directly, by the Fraction oracle; the greedy
    # p is spanned by rows of h's canonical basis.  The greedy R in g* of
    # ``unconditional_extend`` gives another p on five workload problems.
    cases = [(None, name, problem) for name, problem in bundled_problems()]
    cases += extend_pair_problems(monkeypatch, tmp_path, (1, 2, 3))
    accepted, greedy, differing = 0, 0, []
    for seed, name, problem in cases:
        c = problem.affine
        try:
            e = extend(c, problem.r, problem.sampling)
        except RankNotConstant:
            continue
        accepted += 1
        assert complements_d_in_h(c, e.p), (seed, name)
        if problem.r is None:
            greedy += 1
            assert set(e.p.basis) <= set(c.h.basis)
            reference = unconditional_extend(c, problem.sampling).p
            if e.p != reference:
                assert complements_d_in_h(c, reference)
                differing.append((seed, name))
    assert (accepted, greedy) == (70, 69)
    assert differing == [(1, "p013-sl3.json"), (2, "p006-gl3.json"), (2, "p013-sl3.json"),
                         (3, "p006-gl3.json"), (3, "p013-sl3.json")]


def test_user_r_is_accepted_iff_it_complements_tc_plus_sharp_conormal():
    # extend checks a user R in h-coordinates: dim R = dim d and p meets d
    # in 0.  It accepts exactly the R that complement S = TC + sharp N*C in
    # g*, and each gives p = ann(TC + R): inside h, killing R, and of
    # dimension dim h - dim R, as R meets TC in 0.
    rng = random.Random(97)
    verdicts = Counter()
    for name, problem in bundled_problems():
        c, sampling = problem.affine, replace(problem.sampling, count=8)
        try:
            extend(c, sampling=sampling)
        except RankNotConstant:
            continue
        n, span = c.algebra.dim, c.span_at_base
        for _ in range(60):
            dim = max(0, n - span.dim + rng.choice((-1, 0, 0, 0, 1)))
            r = Subspace.span(n, [[rng.choice((-1, 0, 0, 1)) for _ in range(n)] for _ in range(dim)])
            complement = span.dim + r.dim == n and span.sum(r).dim == n
            try:
                e = extend(c, r, sampling)
            except NotComplementary:
                accepted = False
            else:
                accepted = True
                assert e.p.dim == c.h.dim - r.dim and contains_by_rref(c.h, e.p.basis)
                assert all(dot(v, u) == 0 for v in e.p.basis for u in r.basis)
            assert accepted == complement, (name, r)
            verdicts[accepted, r.dim == n - span.dim] += 1
    assert min(verdicts[True, True], verdicts[False, True], verdicts[False, False]) > 20, verdicts


@pytest.mark.parametrize("dim", [1, 2, 5])
@pytest.mark.parametrize("seed,bound", [(0, 1000), (3, 1), (9, 7)])
def test_eight_samples_are_the_first_eight_of_more(dim, seed, bound):
    # Why extend's verdict, on at least 8 samples, ranks B_h at the same first 8.
    eight = SampleSpec(8, seed, bound).points(dim)
    assert SampleSpec(64, seed, bound).points(dim)[:8] == eight
    assert SampleSpec(9, seed, bound).points(dim)[:8] == eight


@pytest.mark.parametrize("count", [0, 3, 8, 64])
def test_extend_at_eight_or_more_samples_draws_no_check_walk(gl2, monkeypatch, count):
    # The verdict's walk, of at least 8 samples, is the only one drawn, and
    # no B_p pencil is built.
    draws, pencils = [], []
    original_points, original_pencil = SampleSpec.points, embedding.skew_pencil

    def points(spec, dim):
        draws.append(spec.count)
        return original_points(spec, dim)

    def pencil(*args):
        pencils.append(args)
        return original_pencil(*args)

    monkeypatch.setattr(SampleSpec, "points", points)
    monkeypatch.setattr(embedding, "skew_pencil", pencil)
    walked = max(count, 8)
    e = extend(gl2_line(gl2, [1, 0, 0, 0]), sampling=SampleSpec(count=count))
    assert e.sampling == SampleSpec(count=walked)
    assert (draws, pencils) == ([walked], [])
    extend(AffineSubspace(gl2, Subspace.span(4, [[1, 0, 0, 1]]), vec([1, 2, 3, 4])))
    assert (draws, pencils) == ([walked], [])


def test_extend_verification_over_catalog():
    for algebra, h in subalgebra_catalog():
        c = AffineSubspace(algebra, h, zero_vector(algebra.dim))
        e = extend(c)
        assert e.p_tilde.direction.contains(c.direction)
        assert all(ok for _, ok in coisotropy_in_extension(e))


def reference_coisotropy(e, sampling):
    """Pointwise coisotropy of C in P: at each cosymplectic point, coad of
    the conormal direction w corrected by the q in p that solves the form
    on p, tested for membership in TC.  A C of dimension 0 is its base
    point alone."""
    results = []
    for x in [e.c.base] + (e.c.sample_points(sampling) if e.c.dim else []):
        if not fraction_is_cosymplectic_at(e, x):
            continue
        form = [[dot(x, fraction_bracket(e.algebra, a, b)) for b in e.p.basis] for a in e.p.basis]
        ok = True
        for w in e.c.h.basis:
            rhs = tuple(-dot(fraction_coad_apply(e.algebra, v, x), w) for v in e.p.basis)
            coeffs = fraction_solve(form, e.p.dim, rhs)
            corrected = w
            for cfc, pb in zip(coeffs, e.p.basis):
                corrected = vadd(corrected, vscale(cfc, pb))
            if not e.c.direction.contains_vector(fraction_coad_apply(e.algebra, corrected, x)):
                ok = False
                break
        results.append((x, ok))
    return results


def test_form_on_p_then_h_has_the_rank_of_b_h():
    # p lies in h, so the form on the list p then h is B_h seen through a
    # matrix of full column rank, and coisotropy_in_extension can rank e.c.form.
    rng = random.Random(59)
    spec = SampleSpec(count=4, seed=6)
    ranks = set()
    for e in catalog_extensions(rng) + hand_built_extensions(rng):
        assert e.c.h.contains(e.p)
        form_ph = skew_pencil(e.c, *over_common_scale(e.p.basis + e.c.h.basis))
        for t in e.c.walk(spec)[0]:
            ranks.add(rank_at(e.c.form, t))
            assert rank_at(form_ph, t) == rank_at(e.c.form, t)
    assert {0, 2, 4} <= ranks


def test_coisotropy_in_extension_needs_p_inside_h(sl2):
    c = AffineSubspace(sl2, Subspace.span(3, [[1, 0, 0]]), vec([0, 0, 1]))
    p_tilde = AffineSubspace(sl2, Subspace.span(3, [[0, 1, 0]]), c.base)
    with pytest.raises(ValueError):
        coisotropy_in_extension(Extension(c, p_tilde, None))


def test_coisotropy_in_extension_matches_pointwise_formula():
    # The extensions extend() builds, and hand-built ones where C is mostly
    # not coisotropic in P.
    rng = random.Random(43)
    extensions = catalog_extensions(rng) + hand_built_extensions(rng)
    spec = SampleSpec(count=4, seed=9)
    outcomes = set()
    for e in extensions:
        checks = coisotropy_in_extension(e, spec)
        assert [(e.c.point_at(t), ok) for t, ok in checks] == reference_coisotropy(e, spec)
        outcomes.update(ok for _, ok in checks)
    assert outcomes == {True, False}


# ---------------------------------------------------------------------------
# the same answers in every basis of g


@cache
def rebasing_problems() -> list:
    """The bundled problems whose h is a subalgebra, and the extend-pair
    workload's subalgebra problems of dim <= 9 at seed 3: gl3 and sl3 Borel,
    Cartan, so and parabolic with a diagonal base, nilradical and so with a
    generic one, and the Heisenberg centres h3 to h9."""
    problems = [problem for _, problem in bundled_problems()]
    with pytest.MonkeyPatch.context() as patch:
        builder = load_perfbench(patch, "workloads").WORKLOADS["extend-pair"](random.Random(3))
    for name in dict.fromkeys(op.problem for op in builder.ops):
        data = builder.files[name]
        if isinstance(data.get("model"), str) and data["model"] in builder.files:
            algebra = parse_model(builder.files[data["model"]])
            problems.append(parse_problem(data, model_override=algebra))
    return [p for p in problems if p.algebra.dim <= 9 and is_subalgebra(p.algebra, p.h)]


def lie_invariants(algebra: LieAlgebra) -> tuple:
    """The dimension, the dimensions of the derived series and that of the centre."""
    n = algebra.dim
    series = [Subspace.full(n)]
    while (derived := subspace_bracket(algebra, series[-1], series[-1])) != series[-1]:
        series.append(derived)
    e = [unit_vector(n, i) for i in range(n)]
    # Row (j, k) holds c_ij^k over i: the centre is its kernel.
    ad = [[fraction_bracket(algebra, e[i], e[j])[k] for i in range(n)]
          for j in range(n) for k in range(n)]
    return n, [u.dim for u in series], len(nullspace(ad, n))


def basis_free_answers(problem) -> tuple:
    """The certified answers of classify, extend and pair, algebroid's orbit
    dimension at the base, and the induced structure's isomorphism
    invariants: properties of the sets C and P."""
    c, sampling = problem.affine, problem.sampling
    rep = classify(c, sampling)
    witness = rep.coisotropic.witness
    (_, orbit_dim), = transversal_orbit_report(c, replace(sampling, count=0)).orbit_dims
    classified = (
        rep.coisotropic.coisotropic, witness and witness["kind"], rep.pre_poisson.kind,
        rep.pre_poisson.rank, rep.generic_rank, rep.characteristic_rank_at_base,
        rep.poisson_dirac_at_base, rep.cosymplectic_at_base, orbit_dim,
    )
    e = extend(c, problem.r, sampling)
    locus = cosymplectic_locus(e, sampling)
    extended = (e.p.dim, locus.never_cosymplectic, locus.cosymplectic_at_base,
                e.constancy.certified)
    if not e.constancy.certified:
        return classified, extended, None
    pair = symmetric_pair_analysis(e)
    flags = (pair.k.dim, pair.decomposition, pair.k_subalgebra, pair.kp_in_p, pair.pp_in_k)
    return classified, extended, (flags, lie_invariants(induced_structure(e.algebra, pair)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_certified_answers_do_not_depend_on_the_basis_of_g(data):
    # Every greedy choice (the complement p of d, the walk's direction basis)
    # is made in g's coordinates; the certified answers must not move when g
    # is written in another basis.  The non-subalgebra fixtures are left
    # out: there a sampled verdict can change with the basis.
    problem = data.draw(st.sampled_from(rebasing_problems()))
    m = data.draw(unimodular(problem.algebra.dim))
    assert basis_free_answers(rebase(problem, m)) == basis_free_answers(problem)


def test_induced_structure_at_p_zero_is_the_algebra(monkeypatch, tmp_path):
    # With p = 0, k = g and p-ann = g, so the induced structure is g itself in
    # its own basis and labels: induced_structure hands back the algebra, and
    # the Fraction oracle's full construction equals it.  The certified
    # extensions with p = 0 of the bundled problems and of the extend-pair
    # workload at seeds 1 and 4, fixture products among them.
    cases = [(name, problem) for name, problem in bundled_problems()]
    workload = extend_pair_problems(monkeypatch, tmp_path, (1, 4))
    cases += [(name, problem) for _, name, problem in workload]
    seen = []
    for name, problem in cases:
        try:
            e = extend(problem.affine, problem.r, problem.sampling)
        except (RankNotConstant, NotComplementary):
            continue
        if e.constancy.certified and not e.p.dim:
            pair = symmetric_pair_analysis(e)
            assert fraction_induced_structure(problem.algebra, pair) == problem.algebra
            assert induced_structure(problem.algebra, pair) is problem.algebra
            seen.append(name)
    assert len(seen) > 20 and any("product" in name for name in seen)

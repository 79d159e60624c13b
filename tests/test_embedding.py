import pytest

from lpl.embedding import (
    CERTIFIED,
    ConstancyNotCertified,
    Extension,
    NotComplementary,
    RankNotConstant,
    check_symmetric_pair,
    choose_r,
    coisotropy_in_extension,
    constant_sharp_conormal,
    cosymplectic_locus,
    extend,
    induced_structure,
    induced_structure_from_decomposition,
    injectivity_at,
    is_cosymplectic_at,
    symmetric_pair_analysis,
)
from lpl.linalg import Subspace, vec, zero_vector
from lpl.submanifold import (
    NOT_CONSTANT,
    AffineSubspace,
    SampleSpec,
)

from conftest import sl2_h, subalgebra_catalog

GL2_LINE_H = [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]


def gl2_line(gl2, base):
    return AffineSubspace(gl2, Subspace.span(4, GL2_LINE_H), vec(base))


# ---------------------------------------------------------------------------
# choosing R and building the extension


def test_choose_r_gl2_at_regular_point(gl2):
    c = gl2_line(gl2, [1, 0, 0, 0])
    # TC + sharp N* at E11 spans the a, b, c coordinates, so the greedy
    # complement is the d axis.
    assert choose_r(c) == Subspace.span(4, [[0, 0, 0, 1]])


def test_choose_r_point_case_full_rank(sl2):
    c = AffineSubspace(sl2, sl2_h(sl2), vec([0, 0, 1]))
    assert choose_r(c) == Subspace.zero(3)


def test_extend_refuses_nonconstant_rank(gl2):
    with pytest.raises(RankNotConstant):
        extend(gl2_line(gl2, [0, 0, 0, 0]))


def test_extend_gl2_diagonal(gl2):
    e = extend(gl2_line(gl2, [1, 0, 0, 0]))
    # h is not closed under the bracket, so constancy rests on sample points.
    assert e.evidence == "sampled"
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
    report = cosymplectic_locus(e, SampleSpec(count=30, seed=1))
    assert not report.never_cosymplectic
    assert report.cosymplectic_at_base
    assert report.any_cosymplectic
    for x, ok in report.checked:
        assert ok == (x[0] != x[3])


def test_locus_odd_p_never_cosymplectic(sl2):
    # A point of the dual with p the whole (odd-dimensional) algebra: the
    # skew form cannot be nondegenerate, reported exactly, no sampling.
    point = AffineSubspace(sl2, Subspace.full(3), vec([0, 0, 1]))
    e = Extension(point, Subspace.zero(3), point, Subspace.full(3), CERTIFIED)
    report = cosymplectic_locus(e)
    assert report.never_cosymplectic
    assert not report.any_cosymplectic
    assert report.checked == ()


def test_locus_sl2_transverse_everywhere(sl2):
    c = AffineSubspace(sl2, sl2_h(sl2), vec([0, 0, 1]))
    e = extend(c)
    report = cosymplectic_locus(e, SampleSpec(count=20, seed=4))
    assert report.cosymplectic_at_base
    assert report.failing_points == ()


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
    assert result.kind == NOT_CONSTANT
    v, u, image = result.witness
    assert image == gl2.coad_apply(v, u)
    with pytest.raises(ConstancyNotCertified):
        symmetric_pair_analysis(e)
    with pytest.raises(ConstancyNotCertified):
        induced_structure(e)


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


def test_certified_k_with_cosymplectic_point_is_symmetric():
    # Whenever the constant space is certified and the locus is somewhere
    # nondegenerate, k closes under the bracket and normalizes p.
    for algebra, h in subalgebra_catalog():
        if h.dim == 0:
            continue
        c = AffineSubspace(algebra, h, zero_vector(algebra.dim))
        e = extend(c, verify=False)
        result = constant_sharp_conormal(e)
        if not result.certified:
            continue
        locus = cosymplectic_locus(e, SampleSpec(count=12, seed=6))
        if locus.never_cosymplectic or not locus.any_cosymplectic:
            continue
        report = symmetric_pair_analysis(e, result)
        assert report.k_subalgebra
        assert report.kp_in_p


# ---------------------------------------------------------------------------
# injectivity and the induced linear structure


def test_injectivity_gl2(gl2):
    p = Subspace.span(4, [[0, 1, 0, 0], [0, 0, 1, 0]])
    assert injectivity_at(gl2, p, [1, 0, 0, 0])
    assert not injectivity_at(gl2, p, [0, 0, 0, 0])
    assert not injectivity_at(gl2, p, [2, 0, 0, 2])
    assert injectivity_at(gl2, Subspace.zero(4), [0, 0, 0, 0])


def test_induced_structure_gl2_extension_is_abelian(gl2):
    e = extend(gl2_line(gl2, [1, 0, 0, 0]))
    induced = induced_structure(e)
    assert induced.dim == 2
    assert induced.is_abelian()
    assert induced.labels == ("a", "d")


def test_induced_structure_traceless_center_split(gl2):
    k = Subspace.span(4, [[1, 0, 0, -1], [0, 1, 0, 0], [0, 0, 1, 0]])
    p = Subspace.span(4, [[1, 0, 0, 1]])
    induced = induced_structure_from_decomposition(gl2, k, p)
    assert induced.dim == 3
    assert induced.labels == ("a", "b", "c")
    assert induced.bracket([1, 0, 0], [0, 1, 0]) == vec([0, 1, 0])
    assert induced.bracket([1, 0, 0], [0, 0, 1]) == vec([0, 0, -1])
    assert induced.bracket([0, 1, 0], [0, 0, 1]) == vec([2, 0, 0])


def test_induced_structure_requires_decomposition(gl2):
    k = Subspace.span(4, [[1, 0, 0, 0], [0, 0, 0, 1]])
    with pytest.raises(ValueError):
        induced_structure_from_decomposition(gl2, k, Subspace.span(4, [[1, 0, 0, 0]]))


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


def test_extend_verification_over_catalog():
    for algebra, h in subalgebra_catalog():
        c = AffineSubspace(algebra, h, zero_vector(algebra.dim))
        # verify=True reruns the coisotropy check internally; any failure
        # would raise out of extend.
        e = extend(c)
        assert e.p_tilde.direction.contains(c.direction)

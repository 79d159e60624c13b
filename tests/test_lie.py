import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpl.lie import (
    LieAlgebra,
    LinearMap,
    brackets_in,
    direct_sum,
    is_subalgebra,
    morphism_check,
    subspace_bracket,
    validate_jacobi,
)
from lpl.linalg import (
    ZERO,
    DimensionMismatch,
    Subspace,
    dot,
    unit_vector,
    vadd,
    vec,
    vscale,
)
from lpl.lie_poisson import bivector_at

from conftest import (
    SL2_BASIS,
    algebra_catalog,
    bracket_table,
    bracket_tables,
    contains_by_rref,
    coordinate_subspace,
    fraction_bivector_at,
    fraction_bracket,
    fraction_coad_apply,
    fraction_direct_sum,
    fraction_structure,
    in_basis,
    integer_form,
    load_model,
    random_subspace,
    random_vector,
    rational_catalog,
    sl2_h,
    subalgebra_catalog,
    zero_vector,
)


def test_jacobi_sl2_passes(sl2):
    assert validate_jacobi(sl2).ok


def test_jacobi_abelian_passes(abelian3):
    assert validate_jacobi(abelian3).ok


def test_jacobi_fails_on_altered_sl2():
    # [e2, e3] changed from e1 to e2 breaks Jacobi on the only triple.
    broken = LieAlgebra.from_brackets(
        3, {(0, 1): (0, 0, -1), (0, 2): (0, -1, 0), (1, 2): (0, 1, 0)}
    )
    report = validate_jacobi(broken)
    assert not report.ok
    assert report.triple == (0, 1, 2)
    # Residual computed by direct substitution:
    # [[e1,e2],e3] = [-e3,e3] = 0; [[e2,e3],e1] = [e2,e1] = e3;
    # [[e3,e1],e2] = [e2,e2] = 0.  Sum = e3.
    assert report.residual == vec([0, 0, 1])


def test_bracket_requires_matching_dimension(sl2):
    with pytest.raises(DimensionMismatch):
        sl2.bracket([1, 0], [0, 1, 0])


def test_adjoint_abelian_is_zero(abelian3):
    v = [1, 2, 3]
    for j in range(3):
        assert abelian3.bracket(v, unit_vector(3, j)) == zero_vector(3)
        assert abelian3.coad_apply(v, unit_vector(3, j)) == zero_vector(3)


def test_adjoint_sl2_e1(sl2):
    e1 = unit_vector(3, 0)
    assert sl2.bracket(e1, unit_vector(3, 1)) == vec([0, 0, -1])  # [e1,e2] = -e3
    assert sl2.bracket(e1, unit_vector(3, 2)) == vec([0, -1, 0])  # [e1,e3] = -e2


def test_coad_sl2_e1_on_cone_line(sl2):
    for t in (1, 2, -3):
        x = vec([0, t, t])
        assert sl2.coad_apply(unit_vector(3, 0), x) == vec([0, -t, -t])


def test_coad_pairing_identity():
    rng = random.Random(17)
    from conftest import algebra_catalog

    for algebra in algebra_catalog():
        n = algebra.dim
        for _ in range(max(100 // len(algebra_catalog()), 12)):
            x = random_vector(rng, n)
            for i in range(n):
                v = unit_vector(n, i)
                coad_x = algebra.coad_apply(v, x)
                for j in range(n):
                    w = unit_vector(n, j)
                    assert dot(coad_x, w) == dot(x, fraction_bracket(algebra, v, w))


def test_adjoint_matches_structure_constants(sl2, gl2):
    for algebra in (sl2, gl2):
        n = algebra.dim
        for i, row in enumerate(algebra.structure):
            constants = dict(row)
            for j in range(n):
                expected = [ZERO] * n
                for k, c in constants.get(j, ()):
                    expected[k] = c
                assert algebra.bracket(unit_vector(n, i), unit_vector(n, j)) == tuple(expected)


def test_bracket_antisymmetry_on_random_vectors(sl2, gl2, heisenberg):
    rng = random.Random(23)
    for algebra in (sl2, gl2, heisenberg):
        for _ in range(25):
            v = random_vector(rng, algebra.dim)
            w = random_vector(rng, algebra.dim)
            vw = algebra.bracket(v, w)
            wv = algebra.bracket(w, v)
            assert vw == tuple(-e for e in wv)
            assert all(e == 0 for e in algebra.bracket(v, v))


def test_subspace_bracket_sl2_h(sl2):
    h = sl2_h(sl2)
    assert subspace_bracket(sl2, h, h) == Subspace.span(3, [[0, 1, -1]])


def test_subspace_bracket_abelian_is_zero(abelian3):
    u = Subspace.span(3, [[1, 2, 3], [0, 1, 0]])
    assert subspace_bracket(abelian3, u, u) == Subspace.zero(3)


def test_subspace_bracket_gl2_offdiagonal(gl2):
    p = Subspace.span(4, [[0, 1, 0, 0], [0, 0, 1, 0]])
    diagonal = Subspace.span(4, [[1, 0, 0, 0], [0, 0, 0, 1]])
    assert diagonal.contains(subspace_bracket(gl2, p, p))


def test_is_subalgebra(sl2, gl2, abelian3):
    assert is_subalgebra(sl2, sl2_h(sl2))
    h = Subspace.span(4, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert not is_subalgebra(gl2, h)
    assert is_subalgebra(abelian3, Subspace.span(3, [[1, 5, -2], [0, 1, 7]]))


def test_is_subalgebra_matches_the_bracket_span():
    # is_subalgebra tests each bracket of basis pairs; the oracle spans all
    # of [u, u] and eliminates it against u.
    rng = random.Random(31)
    cases = list(subalgebra_catalog())
    for algebra in algebra_catalog():
        for _ in range(8):
            n = algebra.dim
            cases.append((algebra, rng.choice([random_subspace, coordinate_subspace])(rng, n)))
    outcomes = set()
    for algebra, u in cases:
        closed = is_subalgebra(algebra, u)
        assert closed == contains_by_rref(u, subspace_bracket(algebra, u, u).basis)
        outcomes.add(closed)
    assert outcomes == {True, False}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_subspace_bracket_spans_the_fraction_brackets_of_every_basis_pair(data):
    # subspace_bracket brackets integer echelon rows, and for u == v only the
    # pairs a < b; the oracle spans the Fraction bracket of every pair of
    # canonical basis vectors, [a, a] and both orders included.
    algebra = data.draw(st.sampled_from(algebra_catalog() + rational_catalog()))
    n = algebra.dim
    rows = st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), max_size=n)
    u = Subspace.span(n, data.draw(rows))
    v = u if data.draw(st.booleans()) else Subspace.span(n, data.draw(rows))
    expected = [fraction_bracket(algebra, a, b) for a in u.basis for b in v.basis]
    assert subspace_bracket(algebra, u, v) == Subspace.span(n, expected)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_integer_bracket_and_coad_are_ds_times_the_fraction_ones(data):
    # integer_bracket and integer_coad run on the integer constants Ds c_ij^k,
    # so on integer vectors they are Ds times the Fraction loops over c_ij^k.
    algebra = data.draw(st.sampled_from(algebra_catalog() + rational_catalog()))
    n, ds = algebra.dim, algebra.integer_structure[0]
    vector = st.lists(st.one_of(st.just(0), st.integers(-30, 30)), min_size=n, max_size=n)
    v, w, x = data.draw(vector), data.draw(vector), data.draw(vector)
    support = [(i, e) for i, e in enumerate(v) if e]
    bracket = sorted(algebra.integer_bracket(support, {j: e for j, e in enumerate(w) if e}))
    assert bracket == [(k, ds * e) for k, e in enumerate(fraction_bracket(algebra, v, w)) if e]
    rows = data.draw(st.lists(vector, max_size=4))
    expected = [[ds * e for e in fraction_coad_apply(algebra, r, x)] for r in rows]
    assert algebra.integer_coad(rows, x) == expected


def test_brackets_in_the_whole_algebra_draws_no_bracket(gl2, monkeypatch):
    # Every bracket lies in g, so w = g needs none; a hyperplane still brackets.
    calls = []
    original = LieAlgebra.integer_bracket

    def counted(self, v, w):
        calls.append((v, w))
        return original(self, v, w)

    monkeypatch.setattr(LieAlgebra, "integer_bracket", counted)
    for algebra in algebra_catalog() + rational_catalog():
        full = Subspace.full(algebra.dim)
        assert is_subalgebra(algebra, full)
        assert brackets_in(algebra, full, combinations(full.integer_echelon[1], 2))
    assert calls == []
    assert not is_subalgebra(gl2, Subspace.span(4, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))
    assert calls


def test_is_subalgebra_checks_the_ambient_dimension(sl2):
    for u in (Subspace.zero(4), Subspace.span(4, [[1, 0, 0, 0]]), Subspace.full(2)):
        with pytest.raises(DimensionMismatch):
            is_subalgebra(sl2, u)


def test_direct_sum_abelian(abelian2, abelian3):
    s = direct_sum(abelian2, abelian3)
    assert s.dim == 5
    assert validate_jacobi(s).ok
    assert s.structure == ((),) * 5


def test_direct_sum_negated_sl2_satisfies_jacobi(sl2):
    s = direct_sum(sl2, sl2, sign=-1)
    assert s.dim == 6
    assert validate_jacobi(s).ok
    # Second block carries the negated bracket.
    assert s.bracket(unit_vector(6, 3), unit_vector(6, 4)) == vec([0, 0, 0, 0, 0, 1])


def test_morphism_identity(sl2):
    assert morphism_check(LinearMap.identity(sl2))


def test_morphism_subalgebra_inclusion(sl2):
    h = sl2_h(sl2)
    sub = LieAlgebra.from_brackets(2, {(0, 1): sl2_h_coords(sl2)})
    phi = LinearMap(sub, sl2, tuple(zip(*h.basis)))
    assert morphism_check(phi)


def sl2_h_coords(sl2):
    # [h1, h2] for the canonical basis of h, in that basis: [e1, e2-e3] = e2-e3.
    return (0, 1)


def test_morphism_swap_fails(sl2):
    swap = mat_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    phi = LinearMap(sl2, sl2, swap)
    assert not morphism_check(phi)
    # phi[e1,e2] = phi(-e3) = -e3 but [phi e1, phi e2] = [e2, e1] = e3.
    assert phi.apply(sl2.bracket([1, 0, 0], [0, 1, 0])) == vec([0, 0, -1])
    assert sl2.bracket(phi.apply([1, 0, 0]), phi.apply([0, 1, 0])) == vec([0, 0, 1])


def mat_rows(rows):
    return tuple(vec(r) for r in rows)


def test_morphism_image_is_subalgebra():
    rng = random.Random(29)
    from conftest import algebra_catalog

    catalog = [a for a in algebra_catalog() if a.dim <= 4]
    found = 0
    for a in catalog:
        for b in catalog:
            phi = LinearMap(
                a, b, tuple(random_vector(rng, a.dim, bound=3) for _ in range(b.dim))
            )
            if morphism_check(phi):
                image = phi.image()
                assert image.contains(subspace_bracket(b, image, image))
                found += 1
    # Identity-style morphisms must also uphold it.
    for a in catalog:
        phi = LinearMap.identity(a)
        assert morphism_check(phi)
        image = phi.image()
        assert image.contains(subspace_bracket(a, image, image))


def test_is_abelian(sl2, heisenberg, abelian2, abelian3):
    assert abelian3.is_abelian()
    assert direct_sum(abelian2, abelian3).is_abelian()
    assert LieAlgebra.abelian(1).is_abelian()
    assert not sl2.is_abelian()
    assert not heisenberg.is_abelian()
    assert not direct_sum(abelian2, sl2).is_abelian()


def _dense_bracket(table, v, w):
    out = vec([0] * len(v))
    for i, vi in enumerate(v):
        for j, wj in enumerate(w):
            out = vadd(out, vscale(vi * wj, table[i][j]))
    return out


def _dense_coad_apply(table, v, x):
    # <coad_v(x), e_j> = sum_i v_i <x, [e_i, e_j]>.
    n = len(v)
    return tuple(sum((v[i] * dot(x, table[i][j]) for i in range(n)), ZERO) for j in range(n))


def test_sparse_kernel_matches_dense_table():
    rng = random.Random(23)
    catalog = algebra_catalog()
    algebras = catalog + [direct_sum(a, b, sign) for a in catalog[:5] for b in catalog[:5] for sign in (1, -1)]
    for algebra in algebras:
        n = algebra.dim
        table = bracket_table(algebra)
        for _ in range(3):
            v, w, x = (random_vector(rng, n, bound=7) for _ in range(3))
            assert algebra.bracket(v, w) == _dense_bracket(table, v, w)
            assert algebra.coad_apply(v, x) == _dense_coad_apply(table, v, x)
            assert bivector_at(algebra, x) == tuple(
                tuple(dot(x, table[i][j]) for j in range(n)) for i in range(n)
            )


KERNEL_CATALOG = algebra_catalog() + rational_catalog()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_bracket_coad_and_bivector_match_the_fraction_oracles(data):
    # bracket, coad_apply and bivector_at scale their rational arguments to
    # integers over one denominator, run integer_bracket or integer_coad and
    # divide once; the Fraction loops over the rational constants agree.
    algebra = data.draw(st.sampled_from(KERNEL_CATALOG))
    n = algebra.dim
    entry = st.one_of(st.just(Fraction(0)), st.fractions(-20, 20, max_denominator=12))
    v, w, x = (data.draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(3))
    assert algebra.bracket(v, w) == fraction_bracket(algebra, v, w)
    assert algebra.coad_apply(v, x) == fraction_coad_apply(algebra, v, x)
    assert bivector_at(algebra, x) == fraction_bivector_at(algebra, x)


def _dense_jacobi(algebra):
    # The triple loop over dense brackets that the sparse check replaced.
    n = algebra.dim
    e = [unit_vector(n, i) for i in range(n)]
    table = bracket_table(algebra)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                residual = vadd(
                    vadd(
                        fraction_bracket(algebra, table[i][j], e[k]),
                        fraction_bracket(algebra, table[j][k], e[i]),
                    ),
                    fraction_bracket(algebra, table[k][i], e[j]),
                )
                if any(residual):
                    return (False, (i, j, k), residual)
    return (True, None, None)


def _dense_construction(dim, brackets):
    # The structure constants read off a dense, antisymmetric table.
    table = [[zero_vector(dim) for _ in range(dim)] for _ in range(dim)]
    for (i, j), value in brackets.items():
        table[i][j] = vec(value)
        table[j][i] = vscale(-1, vec(value))
    return tuple(
        tuple(
            (j, tuple((k, c) for k, c in enumerate(w) if c))
            for j, w in enumerate(row)
            if any(w)
        )
        for row in table
    )


def _random_brackets(rng, n):
    density = rng.choice([0.15, 0.3, 0.6])
    entries = [0, 0, 0, 1, -1, 2, -3, Fraction(1, 3)]
    return {
        (i, j): [rng.choice(entries) for _ in range(n)]
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    }


def _report_tuple(report):
    return (report.ok, report.triple, report.residual)


def test_sparse_jacobi_matches_dense_loop():
    catalog = algebra_catalog()
    for algebra in catalog + [direct_sum(a, b, sign) for a in catalog[:5] for b in catalog for sign in (1, -1)]:
        assert _report_tuple(validate_jacobi(algebra)) == _dense_jacobi(algebra) == (True, None, None)
    for algebra in rational_catalog():
        assert algebra.integer_structure[0] > 1
        assert _report_tuple(validate_jacobi(algebra)) == _dense_jacobi(algebra) == (True, None, None)

    rng = random.Random(41)
    broken = only_ik = 0
    for _ in range(240):
        n = rng.randint(2, 7)
        brackets = _random_brackets(rng, n)
        algebra = LieAlgebra.from_brackets(n, brackets)
        assert algebra.structure == _dense_construction(n, brackets)
        report = validate_jacobi(algebra)
        assert _report_tuple(report) == _dense_jacobi(algebra)
        if not report.ok:
            broken += 1
            i, j, k = report.triple
            assert all(type(c) is Fraction for c in report.residual)
            nonzero = [any(brackets.get(pair, ())) for pair in ((i, j), (j, k), (i, k))]
            only_ik += nonzero == [False, False, True]
    assert 60 < broken < 230
    assert only_ik > 0


def test_jacobi_fails_where_only_e_i_e_k_is_nonzero():
    # [e1,e3] = e4 and [e4,e2] = e1: on the triple (0, 1, 2) only [e_i, e_k]
    # is nonzero, and [[e3,e1],e2] = -[e4,e2] = -e1.
    broken = LieAlgebra.from_brackets(4, {(0, 2): (0, 0, 0, 1), (1, 3): (-1, 0, 0, 0)})
    report = validate_jacobi(broken)
    assert _report_tuple(report) == _dense_jacobi(broken) == (False, (0, 1, 2), vec([-1, 0, 0, 0]))


def test_jacobi_residual_of_rational_constants_is_the_fraction_one():
    # The check sums the integer constants d c; a failing triple's residual
    # is that sum over d^2, equal to the sum of the rational constants.
    # sl2 in a rational basis, with one bracket halved, fails Jacobi.
    sl2 = in_basis(load_model("sl2.json"), SL2_BASIS)
    e = [unit_vector(3, i) for i in range(3)]
    brackets = {(i, j): sl2.bracket(e[i], e[j]) for i, j in ((0, 1), (0, 2), (1, 2))}
    brackets[(0, 1)] = vscale(Fraction(1, 2), brackets[(0, 1)])
    broken = LieAlgebra.from_brackets(3, brackets)
    report = validate_jacobi(broken)
    assert broken.integer_structure[0] > 1 and not report.ok
    assert _report_tuple(report) == _dense_jacobi(broken)
    assert any(c.denominator > 1 for c in report.residual)


def test_from_brackets_matches_dense_construction():
    for algebra in algebra_catalog():
        table = bracket_table(algebra)
        brackets = {
            (i, j): table[i][j]
            for i in range(algebra.dim)
            for j in range(i + 1, algebra.dim)
            if any(table[i][j])
        }
        rebuilt = LieAlgebra.from_brackets(algebra.dim, brackets)
        assert rebuilt.structure == _dense_construction(algebra.dim, brackets)


@settings(max_examples=100, deadline=None)
@given(bracket_tables(), bracket_tables(), st.sampled_from([1, -1]), st.integers(2, 12))
def test_integer_form_matches_the_fraction_oracles(first, second, sign, t):
    # from_brackets scales the constants to integers once, and direct_sum
    # joins two integer forms over the lcm of their denominators; the oracles
    # are the Fraction bodies they replaced.  The form is canonical: the same
    # constants given as t times the integers over t d make an equal algebra
    # with an equal hash.
    a, b = (LieAlgebra.from_brackets(n, table) for n, table in (first, second))
    cases = [
        (a, fraction_structure(*first)),
        (b, fraction_structure(*second)),
        (direct_sum(a, b, sign), fraction_direct_sum(a, b, sign)),
    ]
    for algebra, expected in cases:
        assert algebra.integer_structure == integer_form(expected)
        assert algebra.structure == expected
        d, rows = algebra.integer_structure
        scaled = {(i, j): [(k, t * e) for k, e in terms]
                  for i, row in enumerate(rows) for j, terms in row if i < j}
        again = LieAlgebra.from_integer_brackets(algebra.dim, t * d, scaled, algebra.labels)
        assert again == algebra and hash(again) == hash(algebra)
        assert again.is_abelian() == (not any(rows))

"""End-to-end acceptance checks, one test per criterion.

Each test prints a single ``CRITERION n: PASS`` line after its assertions so
that a ``pytest -v`` (or ``-s``) run reads as a checklist.  All comparisons
are exact; no tolerances appear anywhere.
"""

import json
import random
from fractions import Fraction

from lpl.algebroid import isotropy_algebra, orbit_tangent
from lpl.cli import main
from lpl.embedding import (
    constant_sharp_conormal,
    cosymplectic_locus,
    extend,
    induced_structure,
    is_cosymplectic_at,
    symmetric_pair_analysis,
)
from lpl.lie import LinearMap, morphism_check
from lpl.lie_poisson import Polynomial, casimir_check, parse_polynomial, poisson_bracket_poly
from lpl.linalg import Subspace, dot, vec, zero_vector
from lpl.submanifold import (
    CERTIFIED_CONSTANT,
    NOT_CONSTANT,
    AffineSubspace,
    SampleSpec,
    classify,
    graph_coisotropy,
    is_coisotropic,
    pre_poisson_check,
    product,
    sharp_conormal_at,
)

from conftest import (
    algebra_catalog,
    random_subspace,
    random_vector,
    sl2_h,
    subalgebra_catalog,
)

GL2_LINE_H = [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]


def done(n):
    print(f"CRITERION {n}: PASS")


def test_criterion_01_gl2_end_to_end(gl2):
    h = Subspace.span(4, GL2_LINE_H)
    # The line through 0 has a rank jump, so it admits no extension there.
    at_zero = classify(AffineSubspace(gl2, h, zero_vector(4)))
    assert at_zero.pre_poisson.kind == NOT_CONSTANT
    (p0, r0), (p1, r1) = at_zero.pre_poisson.counterexample
    assert (p0, r0) == (zero_vector(4), 1)
    assert r1 == 3

    # Based at E11 the greedy complement is the d axis and the extension is
    # the diagonal plane.
    c = AffineSubspace(gl2, h, vec([1, 0, 0, 0]))
    e = extend(c)
    assert e.r == Subspace.span(4, [[0, 0, 0, 1]])
    assert e.p_tilde.direction == Subspace.span(4, [[1, 0, 0, 0], [0, 0, 0, 1]])
    assert e.p == Subspace.span(4, [[0, 1, 0, 0], [0, 0, 1, 0]])

    # Cosymplectic exactly off the a = d diagonal of the plane.
    spec = SampleSpec(count=25, seed=0)
    locus = cosymplectic_locus(e, spec)
    assert locus.cosymplectic_at_base
    points = e.p_tilde.sample_points(spec)
    assert locus.checked == len(points)
    for x in points:
        assert is_cosymplectic_at(e, x) == (x[0] != x[3])
    assert locus.failing_points == tuple(x for x in points if not is_cosymplectic_at(e, x))
    assert is_cosymplectic_at(e, [2, 0, 0, -1])
    assert not is_cosymplectic_at(e, [3, 0, 0, 3])

    # Constant sharp conormal, certified; k is the diagonal subalgebra.
    constancy = constant_sharp_conormal(e)
    assert constancy.certified
    assert constancy.k_ann == Subspace.span(4, [[0, 1, 0, 0], [0, 0, 1, 0]])
    pair = symmetric_pair_analysis(e, constancy)
    assert pair.k == Subspace.span(4, [[1, 0, 0, 0], [0, 0, 0, 1]])
    assert (pair.k_subalgebra, pair.kp_in_p, pair.pp_in_k) == (True, True, True)
    assert pair.symmetric_pair

    # The induced linear structure on the diagonal plane is abelian.
    induced = induced_structure(e, constancy)
    assert induced.is_abelian()
    done(1)


def test_criterion_02_user_slice_moving_conormal(gl2):
    h = Subspace.span(4, GL2_LINE_H)
    c = AffineSubspace(gl2, h, vec([1, 0, 0, 0]))
    e = extend(c, r=Subspace.span(4, [[0, 0, 1, 1]]))
    constancy = constant_sharp_conormal(e)
    assert constancy.k_ann is None
    v, u, image = constancy.witness
    assert image == gl2.coad_apply(v, u)
    assert not constancy.certified
    done(2)


def test_criterion_03_sl2_classification(sl2):
    h = sl2_h(sl2)
    assert is_coisotropic(AffineSubspace(sl2, h, zero_vector(3)))
    # Any base annihilating [h, h] = span{e2 - e3} works.
    assert is_coisotropic(AffineSubspace(sl2, h, vec([1, 0, 0])))
    c = AffineSubspace(sl2, h, vec([0, 0, 1]))
    assert not is_coisotropic(c)
    verdict = pre_poisson_check(c)
    assert verdict.kind == CERTIFIED_CONSTANT
    assert verdict.rank == 3
    done(3)


def test_criterion_04_casimirs(sl2):
    assert casimir_check(sl2, parse_polynomial("nu1^2 + nu2^2 - nu3^2", 3))
    for i in range(3):
        assert not casimir_check(sl2, Polynomial.variable(3, i))
    done(4)


def test_criterion_05_isotropy_along_line(sl2):
    dims = set()
    for t in (0, 1, -2, Fraction(3, 2)):
        x = vec([0, t, t + 1])
        assert isotropy_algebra(sl2, x) == Subspace.span(3, [[0, t, -(t + 1)]])
        dims.add(orbit_tangent(sl2, x).dim)
    assert dims == {2}
    done(5)


def test_criterion_06_subalgebra_sweep_with_oracle():
    rng = random.Random(2024)
    entries = [(a, h) for a, h in subalgebra_catalog() if h.dim > 0]
    assert len(entries) >= 10
    from lpl.lie import subspace_bracket

    for algebra, h in entries:
        comm = subspace_bracket(algebra, h, h)
        for _ in range(20):
            lam = random_vector(rng, algebra.dim, bound=8)
            c = AffineSubspace(algebra, h, lam)
            verdict = pre_poisson_check(c)
            assert verdict.kind == CERTIFIED_CONSTANT
            exact = bool(is_coisotropic(c))
            assert exact == all(dot(lam, w) == 0 for w in comm.basis)
            # Independent oracle: sharp N* inside TC at 50 sampled points.
            oracle = all(
                c.direction.contains(sharp_conormal_at(c, x))
                for x in c.sample_points(SampleSpec(count=50, seed=7))
            )
            assert exact == oracle
    done(6)


def test_criterion_07_rank_identity():
    rng = random.Random(404)
    catalog = [a for a in algebra_catalog() if a.dim <= 6]
    trials = 0
    while trials < 50:
        algebra = rng.choice(catalog)
        n = algebra.dim
        h = random_subspace(rng, n)
        c = AffineSubspace(algebra, h, random_vector(rng, n, bound=6))
        x = c.sample_points(SampleSpec(count=1, seed=rng.randint(0, 999)))[0]
        sharp = sharp_conormal_at(c, x)
        assert (
            sharp.sum(c.direction).dim
            == sharp.dim + c.dim - c.direction.intersect(sharp).dim
        )
        trials += 1
    done(7)


def test_criterion_08_graphs_versus_morphisms():
    rng = random.Random(808)
    catalog = [a for a in algebra_catalog() if a.dim <= 4]
    checked = 0
    while checked < 100:
        dom = rng.choice(catalog)
        cod = rng.choice(catalog)
        phi = LinearMap(
            dom,
            cod,
            tuple(random_vector(rng, dom.dim, bound=2) for _ in range(cod.dim)),
        )
        _, coiso = graph_coisotropy(phi)
        assert coiso == morphism_check(phi)
        checked += 1
    # Both outcomes must actually occur.
    for a in catalog:
        _, coiso = graph_coisotropy(LinearMap.identity(a))
        assert coiso
    done(8)


def test_criterion_09_products(sl2, gl2, heisenberg):
    cases = [
        (
            AffineSubspace(sl2, sl2_h(sl2), vec([0, 0, 1])),
            AffineSubspace(heisenberg, Subspace.span(3, [[0, 0, 1]]), zero_vector(3)),
        ),
        (
            AffineSubspace(sl2, sl2_h(sl2), vec([1, 0, 0])),
            AffineSubspace(gl2, Subspace.span(4, GL2_LINE_H), vec([1, 0, 0, 0])),
        ),
    ]
    for c1, c2 in cases:
        c = product(c1, c2)
        r1, r2, r = classify(c1), classify(c2), classify(c)
        assert r.generic_rank == r1.generic_rank + r2.generic_rank
        assert bool(r.coisotropic) == (bool(r1.coisotropic) and bool(r2.coisotropic))
        s = sharp_conormal_at(c, c.base)
        assert s.dim == (
            sharp_conormal_at(c1, c1.base).dim + sharp_conormal_at(c2, c2.base).dim
        )
    done(9)


def test_criterion_10_certified_k_closes():
    checked = 0
    for algebra, h in subalgebra_catalog():
        if h.dim == 0:
            continue
        c = AffineSubspace(algebra, h, zero_vector(algebra.dim))
        e = extend(c)
        constancy = constant_sharp_conormal(e)
        if not constancy.certified:
            continue
        locus = cosymplectic_locus(e, SampleSpec(count=10, seed=6))
        if not locus.any_cosymplectic:
            continue
        pair = symmetric_pair_analysis(e, constancy)
        assert pair.k_subalgebra
        assert pair.kp_in_p
        checked += 1
    assert checked > 0
    done(10)


def test_criterion_11_poly_bracket_axioms():
    rng = random.Random(1111)
    catalog = [a for a in algebra_catalog() if a.dim <= 4]

    def random_poly(n):
        p = Polynomial.zero(n)
        for _ in range(rng.randint(1, 3)):
            expo = [0] * n
            for _ in range(rng.randint(0, 3)):
                expo[rng.randrange(n)] += 1
            p = p + Polynomial(
                n, {tuple(expo): Fraction(rng.randint(-4, 4), rng.randint(1, 3))}
            )
        return p

    for _ in range(100):
        algebra = rng.choice(catalog)
        n = algebra.dim
        f, g, h = (random_poly(n) for _ in range(3))
        b = lambda a, c: poisson_bracket_poly(algebra, a, c)
        assert b(g, f) == -b(f, g)
        assert b(f, g * h) == b(f, g) * h + g * b(f, h)
        assert (b(f, b(g, h)) + b(g, b(h, f)) + b(h, b(f, g))).is_zero()
    done(11)


def test_criterion_12_cli_determinism(capsys):
    outputs = []
    for command, problem in [
        ("classify", "sl2_transverse.json"),
        ("classify", "gl2_line.json"),
        ("pair", "gl2_prepoisson.json"),
        ("algebroid", "sl2_transverse.json"),
    ]:
        run_outputs = []
        for _ in range(2):
            code = main([command, "--problem", problem, "--json"])
            assert code == 0
            run_outputs.append(capsys.readouterr().out.encode())
        assert run_outputs[0] == run_outputs[1]
        json.loads(run_outputs[0])  # well-formed
        outputs.append(run_outputs[0])
    assert len(set(outputs)) == len(outputs)
    done(12)

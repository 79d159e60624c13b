import random
import re
from fractions import Fraction

import pytest

from lpl.lie_poisson import (
    Polynomial,
    bivector_at,
    casimir_check,
    parse_polynomial,
    poisson_bracket_poly,
)
from lpl.linalg import DimensionMismatch, mat, rank, vec

from conftest import algebra_catalog, bracket_table, random_vector


# ---------------------------------------------------------------------------
# polynomials


def test_parse_round_trip():
    samples = [
        "nu1",
        "-nu2",
        "3/2*nu1^2*nu3 - nu2 + 5",
        "nu1*nu2 - nu2*nu3",
        "0",
        "-7/3",
    ]
    for text in samples:
        p = parse_polynomial(text, 3)
        assert parse_polynomial(str(p), 3) == p


def test_parse_examples():
    p = parse_polynomial("nu1^2 + nu2^2 - nu3^2", 3)
    assert p.terms == {
        (2, 0, 0): Fraction(1),
        (0, 2, 0): Fraction(1),
        (0, 0, 2): Fraction(-1),
    }
    q = parse_polynomial("2*nu1*nu1 - 1/2", 2)
    assert q.terms == {(2, 0): Fraction(2), (0, 0): Fraction(-1, 2)}


def per_term_parse(text, nvars):
    """The construction parse_polynomial replaced: one Polynomial + per term."""
    factor_re = re.compile(r"^nu(\d+)(?:\^(\d+))?$")
    stripped = text.replace(" ", "")
    chunks = re.findall(r"[+-]?[^+-]+", stripped)
    result = Polynomial.zero(nvars)
    for chunk in chunks:
        coeff, body = Fraction(1), chunk
        if body[0] in "+-":
            coeff, body = Fraction(-1 if body[0] == "-" else 1), body[1:]
        expo = [0] * nvars
        for factor in body.split("*"):
            m = factor_re.match(factor)
            if m:
                expo[int(m.group(1)) - 1] += int(m.group(2) or 1)
            else:
                coeff *= Fraction(factor)
        result = result + Polynomial(nvars, {tuple(expo): coeff})
    return result


def _random_term(rng, nvars):
    factors = [rng.choice(["2", "3/2", "1/3", "0"])] if rng.random() < 0.4 else []
    for _ in range(rng.randint(0, 3)):
        i = rng.randint(1, nvars)
        factors.append(f"nu{i}" + (f"^{rng.randint(2, 3)}" if rng.random() < 0.3 else ""))
    rng.shuffle(factors)
    return "*".join(factors) or str(rng.randint(1, 5))


def test_parse_in_one_pass_matches_per_term_sums():
    # A small pool of terms repeats monomials; each term is sometimes followed
    # by its negation, so coefficients cancel.
    rng = random.Random(53)
    cancelled = zeros = 0
    for _ in range(300):
        nvars = rng.randint(1, 4)
        pool = [_random_term(rng, nvars) for _ in range(4)]
        pieces = []
        for _ in range(rng.randint(1, 12)):
            term = rng.choice(pool)
            pieces.append(("-" if rng.random() < 0.5 else "+", term))
            if rng.random() < 0.3:
                pieces.append(("-" if pieces[-1][0] == "+" else "+", term))
        text = " ".join(f"{sign} {term}" for sign, term in pieces).lstrip("+ ")
        expected = per_term_parse(text, nvars)
        got = parse_polynomial(text, nvars)
        assert got.terms == expected.terms and str(got) == str(expected)
        cancelled += len(got.terms) < len({term for _, term in pieces})
        zeros += got.is_zero()
    assert cancelled > 50 and zeros > 5


def test_parse_rejects_garbage():
    # Coefficients take the p or p/q grammar: no decimals, no exponents.
    for text in ["", "nu0", "nu4", "nu1^", "x + y", "1//2", "nu1**2", "1e3*nu1", "0.5*nu1"]:
        with pytest.raises(ValueError):
            parse_polynomial(text, 3)


def test_polynomial_arithmetic():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert p.degree() == 2
    assert p.diff(0) == x.scale(2)
    assert p.evaluate([3, 2]) == 5
    assert (p - p).is_zero()


def test_polynomial_str_sign_handling():
    p = parse_polynomial("-nu1 + nu2^2 - 3*nu1*nu2", 2)
    assert str(p) == "-3*nu1*nu2 + nu2^2 - nu1"
    assert str(Polynomial.zero(2)) == "0"


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        Polynomial.variable(2, 0) + Polynomial.variable(3, 0)


# ---------------------------------------------------------------------------
# the bivector and sharp


def test_bivector_sl2(sl2):
    # At x = (0, 1, 1): Pi_12 = <x, -e3> = -1, Pi_13 = <x, -e2> = -1,
    # Pi_23 = <x, e1> = 0.
    assert bivector_at(sl2, [0, 1, 1]) == mat(
        [[0, -1, -1], [1, 0, 0], [1, 0, 0]]
    )


def test_bivector_polys_match_pointwise(sl2, gl2):
    rng = random.Random(31)
    for algebra in (sl2, gl2):
        # Pi as a matrix of linear polynomials in nu.
        polys = [[Polynomial.linear(w) for w in row] for row in bracket_table(algebra)]
        for _ in range(20):
            x = random_vector(rng, algebra.dim)
            m = bivector_at(algebra, x)
            for i in range(algebra.dim):
                for j in range(algebra.dim):
                    assert polys[i][j].evaluate(x) == m[i][j]


def test_bivector_is_skew():
    rng = random.Random(37)
    for algebra in algebra_catalog():
        for _ in range(10):
            x = random_vector(rng, algebra.dim)
            m = bivector_at(algebra, x)
            for i in range(algebra.dim):
                for j in range(algebra.dim):
                    assert m[i][j] == -m[j][i]


def test_bivector_rank_is_even():
    rng = random.Random(41)
    for algebra in algebra_catalog():
        for _ in range(10):
            x = random_vector(rng, algebra.dim)
            assert rank(bivector_at(algebra, x)) % 2 == 0


def test_sharp_is_row_of_bivector():
    rng = random.Random(43)
    for algebra in algebra_catalog():
        for _ in range(8):
            x = random_vector(rng, algebra.dim)
            xi = random_vector(rng, algebra.dim)
            m = bivector_at(algebra, x)
            expected = vec(
                [
                    sum(xi[i] * m[i][j] for i in range(algebra.dim))
                    for j in range(algebra.dim)
                ]
            )
            assert algebra.coad_apply(xi, x) == expected


def test_sharp_sl2_cone_line(sl2):
    for t in (1, -2, Fraction(3, 2)):
        x = vec([0, t, t])
        assert sl2.coad_apply([1, 0, 0], x) == vec([0, -t, -t])


# ---------------------------------------------------------------------------
# the bracket on polynomials


def test_bracket_of_coordinates_matches_structure(sl2, gl2, heisenberg):
    for algebra in (sl2, gl2, heisenberg):
        n = algebra.dim
        table = bracket_table(algebra)
        for i in range(n):
            for j in range(n):
                got = poisson_bracket_poly(
                    algebra, Polynomial.variable(n, i), Polynomial.variable(n, j)
                )
                assert got == Polynomial.linear(table[i][j])


def _random_poly(rng, nvars, max_degree=3):
    p = Polynomial.zero(nvars)
    for _ in range(rng.randint(1, 4)):
        expo = [0] * nvars
        for _ in range(rng.randint(0, max_degree)):
            expo[rng.randrange(nvars)] += 1
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        p = p + Polynomial(nvars, {tuple(expo): c})
    return p


def test_bracket_antisymmetry_and_leibniz():
    rng = random.Random(47)
    catalog = [a for a in algebra_catalog() if a.dim <= 4]
    for _ in range(60):
        algebra = rng.choice(catalog)
        n = algebra.dim
        f, g, h = (_random_poly(rng, n) for _ in range(3))
        fg = poisson_bracket_poly(algebra, f, g)
        assert poisson_bracket_poly(algebra, g, f) == -fg
        # {f, gh} = {f, g} h + g {f, h}
        left = poisson_bracket_poly(algebra, f, g * h)
        right = fg * h + g * poisson_bracket_poly(algebra, f, h)
        assert left == right


def test_bracket_jacobi():
    rng = random.Random(53)
    catalog = [a for a in algebra_catalog() if a.dim <= 4]
    for _ in range(40):
        algebra = rng.choice(catalog)
        n = algebra.dim
        f, g, h = (_random_poly(rng, n, max_degree=2) for _ in range(3))
        b = lambda a, c: poisson_bracket_poly(algebra, a, c)
        total = b(f, b(g, h)) + b(g, b(h, f)) + b(h, b(f, g))
        assert total.is_zero()


def test_bracket_of_constants_vanishes(sl2):
    c = Polynomial.constant(3, 7)
    f = _random_poly(random.Random(59), 3)
    assert poisson_bracket_poly(sl2, c, f).is_zero()


# ---------------------------------------------------------------------------
# casimirs


def test_sl2_quadratic_casimir(sl2):
    f = parse_polynomial("nu1^2 + nu2^2 - nu3^2", 3)
    assert casimir_check(sl2, f)


def test_sl2_coordinates_are_not_casimirs(sl2):
    for i in range(3):
        assert not casimir_check(sl2, Polynomial.variable(3, i))


def test_heisenberg_center_is_casimir(heisenberg):
    assert casimir_check(heisenberg, Polynomial.variable(3, 2))
    assert not casimir_check(heisenberg, Polynomial.variable(3, 0))


def test_abelian_everything_is_casimir(abelian3):
    rng = random.Random(61)
    for _ in range(10):
        assert casimir_check(abelian3, _random_poly(rng, 3))


def test_casimir_constant_on_orbits(sl2):
    # A casimir must annihilate sharp of every covector: df . Pi = 0.
    f = parse_polynomial("nu1^2 + nu2^2 - nu3^2", 3)
    rng = random.Random(67)
    for _ in range(20):
        x = random_vector(rng, 3)
        grad = vec([f.diff(i).evaluate(x) for i in range(3)])
        assert all(e == 0 for e in sl2.coad_apply(grad, x))


# ---------------------------------------------------------------------------
# the accumulated bracket and casimir test against the pairwise formulas


def pairwise_bracket(table, f, g):
    """{f, g} as a sum of Polynomial products over the pairs i < j of a bracket table."""
    n = len(table)
    out = Polynomial.zero(n)
    df = [f.diff(i) for i in range(n)]
    dg = [g.diff(i) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            out = out + Polynomial.linear(table[i][j]) * (df[i] * dg[j] - df[j] * dg[i])
    return out


def pairwise_casimir(table, f):
    n = len(table)
    return all(pairwise_bracket(table, f, Polynomial.variable(n, i)).is_zero() for i in range(n))


def test_bracket_and_casimir_match_pairwise_formulas():
    rng = random.Random(71)
    catalog = algebra_catalog()
    tables = [bracket_table(algebra) for algebra in catalog]
    casimirs = 0
    for trial in range(120):
        algebra, table = catalog[trial % len(catalog)], tables[trial % len(catalog)]
        n = algebra.dim
        f, g = (_random_poly(rng, n, max_degree=rng.randint(2, 4)) for _ in range(2))
        assert poisson_bracket_poly(algebra, f, g) == pairwise_bracket(table, f, g)
        assert casimir_check(algebra, f) == pairwise_casimir(table, f)
        # Coordinates (one bracket each with [e_i, .] != 0), and squares and
        # products of central coordinates, which are Casimirs.
        candidates = [Polynomial.variable(n, i) for i in range(n)] + [f * f]
        central = [v for v in candidates[:n] if pairwise_casimir(table, v)]
        candidates += [u * v for u in central for v in central]
        for candidate in candidates:
            expected = pairwise_casimir(table, candidate)
            assert casimir_check(algebra, candidate) == expected
            casimirs += expected
    assert casimirs > 100

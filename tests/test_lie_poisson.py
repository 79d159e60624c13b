import random
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpl.cli import polynomial_str
from lpl.lie_poisson import (
    MAX_DEGREE,
    Polynomial,
    bivector_at,
    casimir_check,
    parse_polynomial,
    poisson_bracket_poly,
)
from lpl.lie import LieAlgebra
from lpl.linalg import DimensionMismatch, mat, solve, unit_vector, vec

from conftest import (
    GL2_BASIS,
    SL2_BASIS,
    algebra_catalog,
    bracket_table,
    fraction_add,
    fraction_bivector_at,
    fraction_creations,
    fraction_mul,
    fraction_parse_polynomial,
    fraction_poisson_bracket,
    fraction_polynomial_str,
    in_basis,
    random_vector,
    rational_catalog,
    rational_rank,
)


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
    # Whitespace, any kind, may separate tokens.
    r = parse_polynomial("3 / 2 * nu1 ^ 2 *nu13\t-\nnu2 + 5", 13)
    assert r == parse_polynomial("3/2*nu1^2*nu13-nu2+5", 13)
    assert str(r) == "3/2*nu1^2*nu13 - nu2 + 5"


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
        expected = fraction_parse_polynomial(text, nvars)
        got = parse_polynomial(text, nvars)
        assert got.terms == expected and str(got) == fraction_polynomial_str(expected)
        cancelled += len(got.terms) < len({term for _, term in pieces})
        zeros += got.is_zero()
    assert cancelled > 50 and zeros > 5


def test_parse_rejects_garbage():
    # Coefficients take the p or p/q grammar: no decimals, no exponents.
    for text in ["", "\t\n", "nu0", "nu4", "nu1^", "x + y", "1//2", "nu1**2", "1e3*nu1", "0.5*nu1"]:
        with pytest.raises(ValueError):
            parse_polynomial(text, 3)
    # Whitespace never joins two tokens: with 13 variables each of these would
    # read as nu12, 12*nu1, nu1^12, 1/23*nu1 or nu1 if it did.
    for text in ["nu1 2", "1 2*nu1", "nu1^1 2", "1/2 3*nu1", "nu 1", "n u1", "nu1\t2"]:
        with pytest.raises(ValueError, match="whitespace inside a number or a variable"):
            parse_polynomial(text, 13)


def _oracle_poly(rng, nvars):
    """Up to 6 terms, with +-1, p/q and large coefficients, constant terms and high powers."""
    terms = {}
    for _ in range(rng.randint(0, 6)):
        expo = tuple(rng.choice([0, 0, 1, 2, 7, 12]) for _ in range(nvars))
        p = rng.choice([1, 1, 2, 3, 10**30 + 1])
        terms[expo] = Fraction(rng.choice([-1, 1]) * p, rng.choice([1, 1, 2, 9, 10**20]))
    return Polynomial(nvars, terms)


def test_str_and_parse_match_the_oracles():
    # The printer reduces each numerator over the one denominator and the
    # parser sums numerators over the lcm of the terms' denominators; the
    # oracles keep one Fraction per term.
    rng = random.Random(83)
    seen = set()
    for _ in range(400):
        nvars = rng.randint(1, 13)
        p = _oracle_poly(rng, nvars)
        text = str(p)
        assert text == fraction_polynomial_str(p.terms)
        assert parse_polynomial(text, nvars) == p
        assert p.terms == fraction_parse_polynomial(text, nvars)
        lead = max(p.terms.items(), key=lambda t: (sum(t[0]), t[0])) if p.terms else None
        seen |= {
            ("zero", p.is_zero()),
            ("negative lead", lead is not None and lead[1] < 0),
            ("constant term", (0,) * nvars in p.terms),
            ("unit", any(abs(c) == 1 for c in p.terms.values())),
            ("p/q", any(c.denominator > 1 for c in p.terms.values())),
        }
    assert all((name, True) in seen for name, _ in seen)


def test_polynomial_arithmetic():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert p.degree() == 2
    assert p.diff(0) == x.scale(2)
    assert p.evaluate([3, 2]) == 5
    assert (p - p).is_zero()


# Abelian in 0 and 1 variables, then genuine and rational-constant algebras in 2 to 7.
ORACLE_ALGEBRAS = [LieAlgebra.abelian(0), LieAlgebra.abelian(1), *algebra_catalog(), *rational_catalog()]


def _fraction_tables(nvars):
    """Up to 6 terms of degree at most 3 per variable: small coefficients, which
    often cancel, and numerators up to 10**30 over denominators up to 10**20."""
    coeff = st.one_of(
        st.fractions(-3, 3, max_denominator=3),
        st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**20)),
    )
    expo = st.tuples(*[st.integers(0, 3)] * nvars)
    return st.dictionaries(expo, coeff, max_size=6).map(lambda t: {e: c for e, c in t.items() if c})


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_integer_polynomials_match_the_fraction_oracles(data):
    # Sums, products, brackets, parses and prints equal the Fraction oracles
    # term for term, and every result is canonical without __init__: equal
    # polynomials have one (den, nums) and one hash however they were built,
    # also where terms cancel and for the zero polynomial.
    algebra = data.draw(st.sampled_from(ORACLE_ALGEBRAS))
    n = algebra.dim
    s, t = data.draw(_fraction_tables(n)), data.draw(_fraction_tables(n))
    if data.draw(st.booleans()):  # t cancels some of s's terms
        t = {**t, **{e: -c for e, c in s.items()}}
    p, q = Polynomial(n, s), Polynomial(n, t)
    text = str(p)
    cases = [
        (p, s),
        (p + q, fraction_add(s, t)),
        (p * q, fraction_mul(s, t)),
        (poisson_bracket_poly(algebra, p, q), fraction_poisson_bracket(algebra, s, t)),
        (parse_polynomial(text, n), fraction_parse_polynomial(text, n)),
        (p + (-p), {}),
        (p * Polynomial.zero(n), {}),
    ]
    for got, want in cases:
        expected = Polynomial(n, want)
        assert got.terms == want and str(got) == fraction_polynomial_str(want)
        assert got == expected and hash(got) == hash(expected)
        assert got.den > 0 and gcd(got.den, *got.nums.values()) == 1
        for expo, v in got.nums.items():
            assert type(expo) is tuple and len(expo) == n and all(type(e) is int for e in expo)
            assert type(v) is int and v


def test_exponents_must_be_nonnegative_ints():
    # -1 would print as a term that parses back to another polynomial, and
    # 1.5 would be read as 1.
    for terms in ({(-1, 0): 1, (0, 1): 2}, {(1.5, 0): 1}, {(0, -2): 0}):
        with pytest.raises(ValueError, match="exponents must be nonnegative ints"):
            Polynomial(2, terms)
    assert Polynomial(2, {(0, 1): 2, (3, 0): 0}) == Polynomial.variable(2, 1).scale(2)


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
            assert rational_rank(bivector_at(algebra, x), algebra.dim) % 2 == 0


def test_sharp_is_row_of_bivector():
    rng = random.Random(43)
    for algebra in algebra_catalog():
        for _ in range(8):
            x = random_vector(rng, algebra.dim)
            xi = random_vector(rng, algebra.dim)
            m = fraction_bivector_at(algebra, x)
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
    rational = rational_catalog()
    # The kernels scale the constants to integers over their lcm: these
    # algebras test that the denominator comes back.
    assert all(algebra.integer_structure[0] > 1 for algebra in rational)
    catalog = algebra_catalog() + rational
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


def _power(p, k):
    out = Polynomial.constant(p.nvars, 1)
    for _ in range(k):
        out = out * p
    return out


AFFINE_LINE = LieAlgebra.from_brackets(2, {(0, 1): (0, 1)})  # [t, x] = x
# The same algebra with x first: [x, t] = -x.
AFFINE_LINE_X_FIRST = LieAlgebra.from_brackets(2, {(0, 1): (-1, 0)})


def _packing_cases():
    """(algebra, f, g) at the edge of the packed keys."""
    nu = Polynomial.variable(1, 0)
    e = lambda r, c: Polynomial.variable(64, 8 * (r - 1) + c - 1)  # E_rc of gl8
    cases = []
    for algebra, (t, x) in [
        (AFFINE_LINE, (Polynomial.variable(2, 0), Polynomial.variable(2, 1))),
        (AFFINE_LINE_X_FIRST, (Polynomial.variable(2, 1), Polynomial.variable(2, 0))),
    ]:
        cases += [
            # {t, x^b} = b x^b: an output exponent of deg f + deg g - 1 = B - 1.
            *((algebra, t, _power(x, b)) for b in (1, 2, 5, MAX_DEGREE)),
            # All the degree in one variable, on both sides.
            (algebra, _power(t, 9).scale(Fraction(-2, 3)), _power(x, 7)),
            (algebra, _power(x, MAX_DEGREE), _power(t, MAX_DEGREE)),
            # Constants bracket to 0.
            (algebra, Polynomial.constant(2, 5), _power(x, 3) + t),
        ]
    return cases + [
        # A 1-dim algebra is abelian.
        (LieAlgebra.abelian(1), _power(nu, MAX_DEGREE) - nu.scale(Fraction(1, 3)), nu),
        # gl8 at MAX_DEGREE.  {E12^64, E12^63 E11} = -64 E12^127, the bracket's
        # B - 1; {E12^63 E11, nu_E12} = E12^64 and {E88^63 E18, nu_E81} holds
        # E88^64, the Casimir test's B - 1.
        (gl(8), _power(e(1, 2), 64).scale(Fraction(5, 7)) - e(1, 1), _power(e(1, 2), 63) * e(1, 1)),
        (gl(8), _power(e(1, 2), 63) * e(1, 1), e(2, 1) + _power(e(8, 8), 63) * e(1, 8)),
    ]


def test_bracket_and_casimir_at_the_packing_edge():
    cases = _packing_cases()
    nonzero = 0
    for algebra, f, g in cases:
        table = bracket_table(algebra)
        got = poisson_bracket_poly(algebra, f, g)
        assert got == pairwise_bracket(table, f, g) == -poisson_bracket_poly(algebra, g, f)
        for p in (f, g, f + g):
            assert casimir_check(algebra, p) == pairwise_casimir(table, p)
        nonzero += not got.is_zero()
    assert nonzero == len(cases) - 3
    nu1, nu2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    assert poisson_bracket_poly(AFFINE_LINE, nu1, _power(nu2, 64)) == _power(nu2, 64).scale(64)
    assert poisson_bracket_poly(AFFINE_LINE_X_FIRST, nu2, _power(nu1, 64)) == _power(nu1, 64).scale(64)
    # The Casimir test keys by B = deg f + 1.  On R acting on R^3 by
    # e0 -> e1, e1 -> 0, e2 -> e2, f = a x0 x1^(d - 1) - b x2 has
    # {f, nu4} = a x1^d + b x2, and at B = d the key of x1^d, d * B, would be
    # the key of x2: a = -b would cancel there.
    semidirect = LieAlgebra.from_brackets(4, {(0, 3): (0, -1, 0, 0), (2, 3): (0, 0, -1, 0)})
    table = bracket_table(semidirect)
    x0, x1, x2 = (Polynomial.variable(4, i) for i in range(3))
    for d in (2, 3, MAX_DEGREE):
        for a, b in ((1, 1), (1, -1), (-3, 3)):
            f = (x0 * _power(x1, d - 1)).scale(a) - x2.scale(b)
            assert not casimir_check(semidirect, f) and not pairwise_casimir(table, f)
    assert casimir_check(semidirect, _power(x1, MAX_DEGREE).scale(3) + Polynomial.constant(4, 2))


def test_gl8_bracket_at_the_degree_bound_is_fast():
    gl8 = gl(8)
    f = parse_polynomial("nu1^30*nu2^20*nu9^14 + 3/2*nu10^64 - nu64^63*nu3", 64)
    g = parse_polynomial("nu2^40*nu10^24 - nu64^64 + nu1*nu3^63", 64)
    start = time.process_time()
    got = poisson_bracket_poly(gl8, f, g)
    assert time.process_time() - start < 0.1
    assert got == pairwise_bracket(bracket_table(gl8), f, g) and len(got.terms) > 4
    for p in (f * Polynomial.variable(64, 0), g + g * g):
        with pytest.raises(ValueError, match=f"a term has degree over the maximum {MAX_DEGREE}"):
            casimir_check(gl8, p)
        with pytest.raises(ValueError, match="degree over the maximum"):
            poisson_bracket_poly(gl8, Polynomial.variable(64, 1), p)


def test_parse_print_bracket_and_casimir_create_no_fraction(monkeypatch):
    # Parsing, printing (with the CLI's digit check), the bracket and the
    # Casimir test run on integer numerators over one denominator: none of
    # them creates a Fraction, not even for the output.
    rng = random.Random(89)
    cases = []
    for algebra in algebra_catalog() + rational_catalog():
        n = algebra.dim
        f, g = _random_poly(rng, n, 4), _random_poly(rng, n, 4)
        h = f * f + Polynomial.constant(n, Fraction(1, 3))
        cases.append((algebra, [str(f), str(g), str(h)], pairwise_bracket(bracket_table(algebra), f, g)))
    calls = fraction_creations(monkeypatch)
    assert Fraction(1, 2) and len(calls) == 1
    calls.clear()
    verdicts, printed = set(), []
    for algebra, texts, _ in cases:
        f, g, h = (parse_polynomial(text, algebra.dim) for text in texts)
        verdicts |= {casimir_check(algebra, p) for p in (f, g, h)}
        printed.append([polynomial_str(p) for p in (f, g, h, poisson_bracket_poly(algebra, f, g))])
    assert calls == []
    assert verdicts == {True, False}
    for (_, texts, bracket), out in zip(cases, printed):
        assert out == [*texts, str(bracket)]
    brackets = [bracket for *_, bracket in cases]
    assert sum(len(b.nums) for b in brackets) > 50 and sum(b.den > 1 for b in brackets) > 5


def _substitute(f, rows):
    """f(nu) with nu_i replaced by the linear form rows[i]."""
    n = len(rows[0])
    forms = [Polynomial.linear(row) for row in rows]
    out = Polynomial.zero(n)
    for expo, c in f.terms.items():
        term = Polynomial.constant(n, c)
        for form, e in zip(forms, expo):
            for _ in range(e):
                term = term * form
        out = out + term
    return out


def test_casimirs_survive_a_rational_change_of_basis(sl2, gl2):
    # In the basis b_i = sum_j B_ij e_j the coordinates are nu' = B nu, so a
    # Casimir F becomes F(B^-1 nu'): rational coefficients against rational
    # structure constants.
    cases = [
        (sl2, SL2_BASIS, ["nu1^2 + nu2^2 - nu3^2"]),
        (gl2, GL2_BASIS, ["nu1 + nu4", "nu1^2 + 2*nu2*nu3 + nu4^2"]),
    ]
    rng = random.Random(73)
    for algebra, basis, casimirs in cases:
        moved = in_basis(algebra, basis)
        n = algebra.dim
        inverse = solve(mat(basis), n, [unit_vector(n, i) for i in range(n)])
        table = bracket_table(moved)
        for text in casimirs:
            f = parse_polynomial(text, n)
            assert casimir_check(algebra, f)
            g = _substitute(f, inverse)
            assert any(c.denominator > 1 for c in g.terms.values())
            assert casimir_check(moved, g) and pairwise_casimir(table, g)
            # Adding a coordinate, which brackets to nonzero, breaks it.
            assert not casimir_check(moved, g + Polynomial.variable(n, 1))
            h, k = _random_poly(rng, n), _random_poly(rng, n) + Polynomial.variable(n, 0)
            assert poisson_bracket_poly(moved, g, h).is_zero()
            got = poisson_bracket_poly(moved, g * g + h, k)
            assert got == pairwise_bracket(table, g * g + h, k) and not got.is_zero()


def gl(n):
    """gl_n in the basis E_rc, row-major: [E_ab, E_cd] = delta_bc E_ad - delta_da E_cb."""
    index = {(r, c): r * n + c for r in range(n) for c in range(n)}
    brackets = {}
    for (a, b), i in index.items():
        for (c, d), j in index.items():
            if i < j:
                v = [0] * (n * n)
                if b == c:
                    v[index[a, d]] += 1
                if d == a:
                    v[index[c, b]] -= 1
                brackets[i, j] = v
    return LieAlgebra.from_brackets(n * n, brackets)


def trace_power(n, k):
    """tr X^k for X_rc = nu(E_rc); the trace form makes it coadjoint-invariant."""
    zero = Polynomial.zero(n * n)
    x = [[Polynomial.variable(n * n, r * n + c) for c in range(n)] for r in range(n)]
    power = x
    for _ in range(k - 1):
        power = [
            [sum((power[r][m] * x[m][c] for m in range(n)), zero) for c in range(n)]
            for r in range(n)
        ]
    return sum((power[i][i] for i in range(n)), zero)


def _random_quadratic(rng, nvars):
    """Four monomials of degree 2 with rational coefficients."""
    q = Polynomial.zero(nvars)
    while len(q.terms) < 4:
        c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(2, 4))
        q = q + Polynomial.variable(nvars, rng.randrange(nvars)) * Polynomial.variable(
            nvars, rng.randrange(nvars)
        ).scale(c)
    return q


def test_gl3_trace_powers_are_casimirs():
    # The shape of the benchmark's casimir and bracket operations, on gl3.
    algebra = gl(3)
    table = bracket_table(algebra)
    rng = random.Random(79)
    for k in (2, 3, 4):
        f = trace_power(3, k)
        assert f.degree() == k
        assert casimir_check(algebra, f)
        assert not casimir_check(algebra, f + Polynomial.variable(9, 1))
        q, r = _random_quadratic(rng, 9), _random_quadratic(rng, 9)
        assert poisson_bracket_poly(algebra, f, q) == pairwise_bracket(table, f, q)
        assert poisson_bracket_poly(algebra, f, q).is_zero()
        # {f + r, q} = {r, q}, which is not zero.
        got = poisson_bracket_poly(algebra, f + r, q)
        assert got == pairwise_bracket(table, f + r, q) == poisson_bracket_poly(algebra, r, q)
        assert not got.is_zero()

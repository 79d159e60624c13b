"""The linear Poisson structure on the dual of a Lie algebra.

Coordinates on the dual are nu_1 .. nu_n (the basis vectors viewed as linear
functions).  The bivector entry is Pi_ij(x) = <x, [e_i, e_j]>, so the bracket
of two coordinate functions is the linear function of [e_i, e_j].

The bracket of two polynomials and the Casimir test run on integers: the
structure constants and the coefficients of f and g are each scaled to
integer numerators over one denominator, every term is summed as an int,
and the bracket divides by the product of the denominators once per output
monomial.  The Casimir test only decides whether a sum is zero, which a
positive scaling does not change, so it keeps no denominator.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from operator import add
from typing import Iterable, Mapping

from .lie import LieAlgebra
from .linalg import MAX_RATIONAL_CHARS, ZERO, DimensionMismatch, Matrix, parse_fraction, vec

Exponents = tuple[int, ...]
# str() refuses an integer of more than MAX_RATIONAL_CHARS digits.
_PRINT_LIMIT = 10**MAX_RATIONAL_CHARS


def _grlex_key(expo: Exponents) -> tuple:
    return (sum(expo), expo)


class Polynomial:
    """Multivariate polynomial over Q in nu_1 .. nu_n.

    Terms are kept in a table from exponent multi-indices to nonzero rational
    coefficients; printing uses graded-lex order.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exponents, Fraction] | None = None):
        self.nvars = nvars
        clean: dict[Exponents, Fraction] = {}
        for expo, coeff in (terms or {}).items():
            if len(expo) != nvars:
                raise DimensionMismatch("exponent tuple has the wrong length")
            c = coeff if type(coeff) is Fraction else Fraction(coeff)
            if c:
                clean[tuple(int(e) for e in expo)] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "Polynomial":
        return Polynomial(nvars)

    @staticmethod
    def constant(nvars: int, value) -> "Polynomial":
        return Polynomial(nvars, {(0,) * nvars: Fraction(value)})

    @staticmethod
    def variable(nvars: int, i: int) -> "Polynomial":
        expo = tuple(1 if j == i else 0 for j in range(nvars))
        return Polynomial(nvars, {expo: Fraction(1)})

    @staticmethod
    def linear(coeffs: Iterable) -> "Polynomial":
        c = vec(coeffs)
        n = len(c)
        return Polynomial(
            n,
            {
                tuple(1 if j == i else 0 for j in range(n)): ci
                for i, ci in enumerate(c)
                if ci != 0
            },
        )

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def canonical(self) -> tuple[tuple[Exponents, Fraction], ...]:
        return tuple(sorted(self.terms.items(), key=lambda t: _grlex_key(t[0])))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.nvars, self.canonical()))

    def _check(self, other: "Polynomial") -> None:
        if self.nvars != other.nvars:
            raise DimensionMismatch("polynomials in different variable counts")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out = dict(self.terms)
        for expo, c in other.terms.items():
            out[expo] = out.get(expo, Fraction(0)) + c
        return Polynomial(self.nvars, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out: dict[Exponents, Fraction] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                expo = tuple(a + b for a, b in zip(ea, eb))
                out[expo] = out.get(expo, Fraction(0)) + ca * cb
        return Polynomial(self.nvars, out)

    def scale(self, c) -> "Polynomial":
        c = Fraction(c)
        return Polynomial(self.nvars, {e: c * v for e, v in self.terms.items()})

    def diff(self, i: int) -> "Polynomial":
        out: dict[Exponents, Fraction] = {}
        for expo, c in self.terms.items():
            if expo[i] == 0:
                continue
            lowered = tuple(e - 1 if j == i else e for j, e in enumerate(expo))
            out[lowered] = out.get(lowered, Fraction(0)) + c * expo[i]
        return Polynomial(self.nvars, out)

    def evaluate(self, point: Iterable) -> Fraction:
        x = vec(point)
        if len(x) != self.nvars:
            raise DimensionMismatch("evaluation point has the wrong length")
        total = Fraction(0)
        for expo, c in self.terms.items():
            term = c
            for xi, e in zip(x, expo):
                term *= xi**e
            total += term
        return total

    # -- text form ---------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for expo, coeff in sorted(
            self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True
        ):
            factors = [
                f"nu{i + 1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(expo)
                if e > 0
            ]
            if not factors:
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = "*".join(factors)
            else:
                body = str(abs(coeff)) + "*" + "*".join(factors)
            sign = "-" if coeff < 0 else "+"
            if factors and coeff == -1:
                sign = "-"
            pieces.append((sign, body))
        first_sign, first_body = pieces[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in pieces[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"Polynomial({self})"


_TERM_FACTOR = re.compile(r"^nu(\d+)(?:\^(\d+))?$")


def parse_polynomial(text: str, nvars: int) -> Polynomial:
    """Parse sums of terms like ``3/2*nu1^2*nu3 - nu2 + 5``."""
    stripped = text.replace(" ", "")
    if not stripped:
        raise ValueError("empty polynomial")
    # Split into signed terms.
    chunks = re.findall(r"[+-]?[^+-]+", stripped)
    if "".join(chunks) != stripped:
        raise ValueError(f"cannot parse polynomial {text!r}")
    terms: dict[Exponents, Fraction] = {}
    for chunk in chunks:
        sign = Fraction(1)
        body = chunk
        if body[0] in "+-":
            if body[0] == "-":
                sign = Fraction(-1)
            body = body[1:]
        coeff = sign
        expo = [0] * nvars
        for factor in body.split("*"):
            m = _TERM_FACTOR.match(factor)
            if m:
                idx = int(m.group(1))
                if not 1 <= idx <= nvars:
                    raise ValueError(f"variable nu{idx} out of range 1..{nvars}")
                expo[idx - 1] += int(m.group(2) or 1)
            else:
                try:
                    coeff *= parse_fraction(factor)
                except ValueError as exc:
                    raise ValueError(f"bad factor {factor!r} in polynomial") from exc
        key = tuple(expo)
        terms[key] = terms.get(key, ZERO) + coeff
    return printable(Polynomial(nvars, terms))


def printable(p: Polynomial) -> Polynomial:
    """p, unless a coefficient's numerator or denominator has over MAX_RATIONAL_CHARS digits."""
    if any(max(abs(c.numerator), c.denominator) >= _PRINT_LIMIT for c in p.terms.values()):
        raise ValueError(f"a coefficient has more than {MAX_RATIONAL_CHARS} digits")
    return p


# -- the linear structure on the dual --------------------------------------


def bivector_at(algebra: LieAlgebra, x: Iterable) -> Matrix:
    """The skew matrix Pi_ij(x) = <x, [e_i, e_j]>."""
    xv = vec(x)
    if len(xv) != algebra.dim:
        raise DimensionMismatch("point must have the algebra dimension")
    pi = [[ZERO] * algebra.dim for _ in range(algebra.dim)]
    for row, terms_of in zip(pi, algebra.structure):
        for j, terms in terms_of:
            row[j] = sum((xv[k] * c for k, c in terms), ZERO)
    return tuple(tuple(row) for row in pi)


def _shift(expo: Exponents, l: int) -> Exponents:
    """The exponents of nu_l times the monomial ``expo``."""
    return expo[:l] + (expo[l] + 1,) + expo[l + 1 :]


def _integer_gradient(p: Polynomial) -> tuple[int, list[list[tuple[Exponents, int]]]]:
    """(d, grad): d is the lcm of p's denominators and grad[i] lists d * d_i p as (exponents, int).

    Lowering exponent i is one-to-one on the monomials that contain nu_i, so
    each list has distinct exponents and needs no merging.
    """
    d = lcm(*(c.denominator for c in p.terms.values()))
    grad: list[list[tuple[Exponents, int]]] = [[] for _ in range(p.nvars)]
    for expo, c in p.terms.items():
        c = c.numerator * (d // c.denominator)
        for i, e in enumerate(expo):
            if e:
                grad[i].append((expo[:i] + (e - 1,) + expo[i + 1 :], c * e))
    return d, grad


def poisson_bracket_poly(algebra: LieAlgebra, f: Polynomial, g: Polynomial) -> Polynomial:
    """{f, g} = sum_{i<j} Pi_ij(nu) (d_i f d_j g - d_j f d_i g).

    Pi is skew, so this is the sum of Pi_ij d_i f d_j g over the ordered pairs
    with [e_i, e_j] != 0.  f, g and the structure constants are each scaled
    to integers over one denominator; every term is accumulated as an int
    into one table, and divided by the product of the three at the end.
    """
    n = algebra.dim
    if f.nvars != n or g.nvars != n:
        raise DimensionMismatch("polynomials must use the algebra's coordinates")
    ds, structure = algebra.integer_structure
    df_den, df = _integer_gradient(f)
    dg_den, dg = _integer_gradient(g)
    out: dict[Exponents, int] = {}
    for dfi, row in zip(df, structure):
        if not dfi:
            continue
        for j, pi_ij in row:
            for ea, ca in dfi:
                for eb, cb in dg[j]:
                    expo = tuple(map(add, ea, eb))
                    cab = ca * cb
                    for l, c in pi_ij:
                        e = _shift(expo, l)
                        out[e] = out.get(e, 0) + c * cab
    den = df_den * dg_den * ds
    return Polynomial(n, {e: Fraction(v, den) for e, v in out.items() if v})


def casimir_check(algebra: LieAlgebra, f: Polynomial) -> bool:
    """True iff {f, nu_k} = sum_i Pi_ik d_i f vanishes identically for every k.

    f is differentiated once; row k of the structure constants lists the
    nonzero Pi_ki = -Pi_ik, which is enough to test for zero.  A positive
    multiple of the sum is zero exactly when the sum is, so the test runs on
    the integer constants and gradient and drops both denominators.
    """
    n = algebra.dim
    if f.nvars != n:
        raise DimensionMismatch("polynomials must use the algebra's coordinates")
    _, structure = algebra.integer_structure
    _, df = _integer_gradient(f)
    for row in structure:
        out: dict[Exponents, int] = {}
        for i, pi_ki in row:
            for expo, coeff in df[i]:
                for l, c in pi_ki:
                    e = _shift(expo, l)
                    out[e] = out.get(e, 0) + c * coeff
        if any(out.values()):
            return False
    return True

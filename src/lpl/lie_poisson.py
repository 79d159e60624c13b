"""The linear Poisson structure on the dual of a Lie algebra.

Coordinates on the dual are nu_1 .. nu_n (the basis vectors viewed as linear
functions).  The bivector entry is Pi_ij(x) = <x, [e_i, e_j]>, so the bracket
of two coordinate functions is the linear function of [e_i, e_j].

The bracket of two polynomials and the Casimir test run on integers: the
structure constants and the coefficients of f and g are each scaled to
integer numerators over one denominator, every term is summed as an int,
and the bracket divides by the product of the denominators once per output
monomial.  The Casimir test only decides whether a sum is zero, which a
positive scaling does not change, so it keeps no denominator.  Both key a
monomial by the int sum_l e_l B**l, with B above every exponent the result
can hold, so a product of monomials is one integer add; a term's degree is
at most MAX_DEGREE.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from operator import add, mul
from typing import Iterable, Mapping

from .lie import LieAlgebra
from .linalg import MAX_RATIONAL_CHARS, ZERO, DimensionMismatch, Matrix, vec

Exponents = tuple[int, ...]
# Largest total degree of a term the bracket and the Casimir test take: with
# at most 64 variables every packed key stays below 128**64.
MAX_DEGREE = 64


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
                clean[tuple(map(int, expo))] = c
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

    @staticmethod
    def _of(nvars: int, terms: dict[Exponents, Fraction]) -> "Polynomial":
        """A polynomial on a table that is already clean: int exponent tuples of
        length ``nvars`` and nonzero Fractions, so ``__init__``'s checks are skipped."""
        p = object.__new__(Polynomial)
        p.nvars, p.terms = nvars, terms
        return p

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out = dict(self.terms)
        for expo, c in other.terms.items():
            if (s := out.get(expo)) is None:
                out[expo] = c
            elif s := s + c:
                out[expo] = s
            else:
                del out[expo]
        return Polynomial._of(self.nvars, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        """Products of integer numerators over da db, the lcms of each side's
        denominators, summed per monomial: one Fraction per output term."""
        self._check(other)
        (da, a), (db, b) = _numerators(self), _numerators(other)
        out: dict[Exponents, int] = {}
        for ea, na in a:
            for eb, nb in b:
                expo = tuple(map(add, ea, eb))
                out[expo] = out.get(expo, 0) + na * nb
        d = da * db
        return Polynomial._of(self.nvars, {e: Fraction(n, d) for e, n in out.items() if n})

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
            p, q = coeff.numerator, coeff.denominator
            factors = [f"nu{i + 1}^{e}" if e > 1 else f"nu{i + 1}" for i, e in enumerate(expo) if e]
            size = str(abs(p)) if q == 1 else f"{abs(p)}/{q}"
            if size != "1" or not factors:
                factors.insert(0, size)
            pieces.append(("- " if p < 0 else "+ ") + "*".join(factors))
        text = " ".join(pieces)
        return text[2:] if text[0] == "+" else "-" + text[2:]

    def __repr__(self) -> str:
        return f"Polynomial({self})"


def _numerators(p: Polynomial) -> tuple[int, list[tuple[Exponents, int]]]:
    """d, the lcm of p's denominators, and each term with its coefficient times d."""
    d = lcm(*(c.denominator for c in p.terms.values()))
    return d, [(e, c.numerator * (d // c.denominator)) for e, c in p.terms.items()]


_TERM = re.compile(r"[+-]?[^+-]+")
_FACTOR = re.compile(r"nu(\d+)(?:\^(\d+))?|(\d+)(?:/(\d+))?")
_SPLIT_TOKEN = re.compile(r"\w\s+\w")


def parse_polynomial(text: str, nvars: int) -> Polynomial:
    """Parse sums of terms like ``3/2*nu1^2*nu3 - nu2 + 5``.

    Whitespace may separate tokens but never splits a number or a variable.
    Each term keeps an integer numerator and denominator, and a factor, like
    any rational, is at most MAX_RATIONAL_CHARS long.
    """
    if _SPLIT_TOKEN.search(text):
        raise ValueError(f"whitespace inside a number or a variable in polynomial {text!r}")
    stripped = "".join(text.split())
    if not stripped:
        raise ValueError("empty polynomial")
    chunks = _TERM.findall(stripped)
    if "".join(chunks) != stripped:
        raise ValueError(f"cannot parse polynomial {text!r}")
    terms: dict[Exponents, Fraction] = {}
    for chunk in chunks:
        num, den, expo = -1 if chunk[0] == "-" else 1, 1, [0] * nvars
        for factor in chunk.lstrip("+-").split("*"):
            m = _FACTOR.fullmatch(factor)
            if m is None or len(factor) > MAX_RATIONAL_CHARS:
                raise ValueError(f"bad factor {factor!r} in polynomial")
            if m[1]:
                idx = int(m[1])
                if not 1 <= idx <= nvars:
                    raise ValueError(f"variable nu{idx} out of range 1..{nvars}")
                expo[idx - 1] += int(m[2] or 1)
            elif q := int(m[4] or 1):
                num, den = num * int(m[3]), den * q
            else:
                raise ValueError(f"bad factor {factor!r} in polynomial")
        key, coeff = tuple(expo), Fraction(num, den)
        terms[key] = terms[key] + coeff if key in terms else coeff
    return Polynomial(nvars, terms)


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


def _packed_gradients(n: int, extra: int, *polys: Polynomial):
    """(weights, [(d, grad) per poly]): weights[l] = B**l with B = the sum of the degrees + ``extra``,
    d is the lcm of a poly's denominators and grad[i] lists d * d_i p as (packed key, int).

    The caller picks ``extra`` so that B exceeds every exponent of its result:
    then every key it forms is a sum of digits below B times the weights, so
    no digit carries and distinct monomials keep distinct keys.  A gradient
    entry's key is key(expo) - B**i, which borrows nothing since e_i >= 1.
    """
    degrees = [p.degree() for p in polys]
    if max(degrees) > MAX_DEGREE:
        raise ValueError(f"a term has degree over the maximum {MAX_DEGREE}")
    weights = [(sum(degrees) + extra) ** l for l in range(n)]
    packed = []
    for p in polys:
        d = lcm(*(c.denominator for c in p.terms.values()))
        grad: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for expo, c in p.terms.items():
            key, c = sum(map(mul, expo, weights)), c.numerator * (d // c.denominator)
            for i, e in enumerate(expo):
                if e:
                    grad[i].append((key - weights[i], c * e))
        packed.append((d, grad))
    return weights, packed


def poisson_bracket_poly(algebra: LieAlgebra, f: Polynomial, g: Polynomial) -> Polynomial:
    """{f, g} = sum_{i<j} Pi_ij(nu) (d_i f d_j g - d_j f d_i g).

    Pi is skew, so this is the sum of Pi_ij d_i f d_j g over the ordered pairs
    with [e_i, e_j] != 0.  f, g and the structure constants are each scaled
    to integers over one denominator; every term is accumulated as an int
    into one table of packed keys with B = deg f + deg g, and each output
    monomial is unpacked and divided by the product of the three at the end.
    """
    n = algebra.dim
    if f.nvars != n or g.nvars != n:
        raise DimensionMismatch("polynomials must use the algebra's coordinates")
    ds, structure = algebra.integer_structure
    weights, ((df_den, df), (dg_den, dg)) = _packed_gradients(n, 0, f, g)
    out: dict[int, int] = {}
    for dfi, row in zip(df, structure):
        if not dfi:
            continue
        for j, pi_ij in row:
            for ka, ca in dfi:
                for kb, cb in dg[j]:
                    key, cab = ka + kb, ca * cb
                    for l, c in pi_ij:
                        e = key + weights[l]
                        out[e] = out.get(e, 0) + c * cab
    den, terms = df_den * dg_den * ds, {}
    for key, v in out.items():
        if v:
            expo = [0] * n
            for l in range(n - 1, -1, -1):
                expo[l], key = divmod(key, weights[l])
            terms[tuple(expo)] = Fraction(v, den)
    return Polynomial(n, terms)


def casimir_check(algebra: LieAlgebra, f: Polynomial) -> bool:
    """True iff {f, nu_k} = sum_i Pi_ik d_i f vanishes identically for every k.

    f is differentiated once; row k of the structure constants lists the
    nonzero Pi_ki = -Pi_ik, which is enough to test for zero.  A positive
    multiple of the sum is zero exactly when the sum is, so the test runs on
    the integer constants and gradient and drops both denominators.  Keys use
    B = deg f + 1 and are never unpacked.
    """
    n = algebra.dim
    if f.nvars != n:
        raise DimensionMismatch("polynomials must use the algebra's coordinates")
    _, structure = algebra.integer_structure
    weights, ((_, df),) = _packed_gradients(n, 1, f)
    for row in structure:
        out: dict[int, int] = {}
        for i, pi_ki in row:
            for key, coeff in df[i]:
                for l, c in pi_ki:
                    e = key + weights[l]
                    out[e] = out.get(e, 0) + c * coeff
        if any(out.values()):
            return False
    return True

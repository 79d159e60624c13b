"""The linear Poisson structure on the dual of a Lie algebra.

Coordinates on the dual are nu_1 .. nu_n (the basis vectors viewed as linear
functions).  The bivector entry is Pi_ij(x) = <x, [e_i, e_j]>, so the bracket
of two coordinate functions is the linear function of [e_i, e_j].

A polynomial is integer numerators over one positive denominator, reduced so
that the form is canonical.  Parsing, printing, sums, products, derivatives,
the bracket of two polynomials and the Casimir test all run on those
integers; the structure constants are scaled to integers over one
denominator too.  The bracket divides out one gcd at the end.  The Casimir
test only decides whether a sum is zero, which a positive scaling does not
change, so it keeps no denominator.  Both key a monomial by the int
sum_l e_l B**l, with B above every exponent the result can hold, so a product
of monomials is one integer add; a term's degree is at most MAX_DEGREE.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul
from types import MappingProxyType
from typing import Iterable, Mapping

from .lie import LieAlgebra
from .linalg import MAX_RATIONAL_CHARS, ZERO, DimensionMismatch, Matrix, vec

Exponents = tuple[int, ...]
# Largest total degree of a term the bracket and the Casimir test take: with
# at most 64 variables every packed key stays below 128**64.
MAX_DEGREE = 64


class Polynomial:
    """Multivariate polynomial over Q in nu_1 .. nu_n, held as ``nums / den``.

    ``nums`` maps exponent tuples (nonnegative ints, one per variable) to
    nonzero integer numerators over the one denominator ``den > 0``, and
    gcd(den, *nums) == 1, so the form is canonical: equality and hashing
    compare (nvars, den, nums).  ``Polynomial(n, terms)`` takes a mapping to
    rationals; ``terms``, the read-only table of Fraction coefficients, is
    built on its first read.  Printing uses graded-lex order.  Instances are
    immutable.
    """

    __slots__ = ("nvars", "den", "nums", "_terms")

    def __init__(self, nvars: int, terms: Mapping[Exponents, Fraction] | None = None):
        coeffs: dict[Exponents, Fraction] = {}
        for expo, coeff in (terms or {}).items():
            if len(expo) != nvars:
                raise DimensionMismatch("exponent tuple has the wrong length")
            if any(type(e) is not int or e < 0 for e in expo):
                raise ValueError(f"exponents must be nonnegative ints, not {expo!r}")
            c = coeff if type(coeff) is Fraction else Fraction(coeff)
            if c:
                coeffs[tuple(expo)] = c
        # Over the lcm of reduced denominators the numerators have no common
        # factor with it, so the form is already canonical.
        den = lcm(*(c.denominator for c in coeffs.values()))
        self.nvars, self.den = nvars, den
        self.nums = {e: c.numerator * (den // c.denominator) for e, c in coeffs.items()}

    @staticmethod
    def _of(nvars: int, den: int, nums: dict[Exponents, int]) -> "Polynomial":
        """nums / den for clean ``nums`` (int exponent tuples of length ``nvars``,
        nonzero ints) and den > 0: the content gcd(den, *nums) is divided out."""
        if den != 1 and (g := gcd(den, *nums.values())) != 1:
            den, nums = den // g, {e: v // g for e, v in nums.items()}
        p = object.__new__(Polynomial)
        p.nvars, p.den, p.nums = nvars, den, nums
        return p

    @property
    def terms(self) -> Mapping[Exponents, Fraction]:
        """The coefficients nums / den as Fractions, built on the first read."""
        try:
            return self._terms
        except AttributeError:
            den = self.den
            self._terms = MappingProxyType({e: Fraction(v, den) for e, v in self.nums.items()})
            return self._terms

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "Polynomial":
        return Polynomial._of(nvars, 1, {})

    @staticmethod
    def constant(nvars: int, value) -> "Polynomial":
        return Polynomial(nvars, {(0,) * nvars: value})

    @staticmethod
    def variable(nvars: int, i: int) -> "Polynomial":
        expo = tuple(1 if j == i else 0 for j in range(nvars))
        return Polynomial._of(nvars, 1, {expo: 1})

    @staticmethod
    def linear(coeffs: Iterable) -> "Polynomial":
        c = vec(coeffs)  # one term per nonzero c_i, over the lcm of the denominators
        n, den = len(c), lcm(*(e.denominator for e in c))
        nums = {(0,) * i + (1,) + (0,) * (n - 1 - i): e.numerator * (den // e.denominator)
                for i, e in enumerate(c) if e}
        return Polynomial._of(n, den, nums)

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.nums

    def degree(self) -> int:
        return max(map(sum, self.nums), default=0)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.nvars == other.nvars
            and self.den == other.den
            and self.nums == other.nums
        )

    def __hash__(self) -> int:
        return hash((self.nvars, self.den, frozenset(self.nums.items())))

    def _check(self, other: "Polynomial") -> None:
        if self.nvars != other.nvars:
            raise DimensionMismatch("polynomials in different variable counts")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        """Numerators brought to the lcm of the denominators and summed per
        monomial: the larger table is copied and the smaller added into it."""
        self._check(other)
        big, small = (self, other) if len(self.nums) >= len(other.nums) else (other, self)
        if not small.nums:
            return big
        db, ds = big.den, small.den
        den = db if db == ds else lcm(db, ds)
        fb, fs = den // db, den // ds
        out = {e: v * fb for e, v in big.nums.items()} if fb != 1 else dict(big.nums)
        for expo, v in small.nums.items():
            if fs != 1:
                v *= fs
            if (s := out.get(expo)) is None:
                out[expo] = v
            elif s := s + v:
                out[expo] = s
            else:
                del out[expo]
        return Polynomial._of(self.nvars, den, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial._of(self.nvars, self.den, {e: -v for e, v in self.nums.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        """Products of numerators summed per monomial, over the product of the denominators.

        The side with fewer terms runs the outer loop; the products of its
        first term are distinct monomials, so they fill the table directly.
        """
        self._check(other)
        a, b = self.nums.items(), other.nums.items()
        if len(a) < len(b):
            a, b = b, a
        if not b:
            return Polynomial._of(self.nvars, 1, {})
        rest = iter(b)
        eb, nb = next(rest)
        out = {tuple(map(add, ea, eb)): na * nb for ea, na in a}
        if len(b) > 1:
            for eb, nb in rest:
                for ea, na in a:
                    expo = tuple(map(add, ea, eb))
                    out[expo] = out.get(expo, 0) + na * nb
            out = {e: v for e, v in out.items() if v}
        return Polynomial._of(self.nvars, self.den * other.den, out)

    def scale(self, c) -> "Polynomial":
        c = Fraction(c)
        p = c.numerator
        nums = {e: v * p for e, v in self.nums.items()} if p else {}
        return Polynomial._of(self.nvars, self.den * c.denominator, nums)

    def diff(self, i: int) -> "Polynomial":
        """Distinct monomials with e_i >= 1 lower to distinct ones: one numerator each."""
        out = {
            expo[:i] + (e - 1,) + expo[i + 1 :]: v * e
            for expo, v in self.nums.items()
            if (e := expo[i])
        }
        return Polynomial._of(self.nvars, self.den, out)

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
        """Coefficients n/g over den/g, g = gcd(n, den); graded-lex by two stable sorts."""
        if not self.nums:
            return "0"
        den, nums = self.den, self.nums
        names = [f"nu{i + 1}" for i in range(self.nvars)]
        pieces = []
        for expo in sorted(sorted(nums, reverse=True), key=sum, reverse=True):
            p = nums[expo]
            g = gcd(p, den)
            size = str(abs(p) // g) if g == den else f"{abs(p) // g}/{den // g}"
            factors = [f"{name}^{e}" if e > 1 else name for name, e in zip(names, expo) if e]
            if size != "1" or not factors:
                factors.insert(0, size)
            pieces.append(("- " if p < 0 else "+ ") + "*".join(factors))
        text = " ".join(pieces)
        return text[2:] if text[0] == "+" else "-" + text[2:]

    def __repr__(self) -> str:
        return f"Polynomial({self})"


_TERM = re.compile(r"[+-]?[^+-]+")
_FACTOR = re.compile(r"nu(\d+)(?:\^(\d+))?|(\d+)(?:/(\d+))?")
_SPLIT_TOKEN = re.compile(r"\w\s+\w")


def parse_polynomial(text: str, nvars: int) -> Polynomial:
    """Parse sums of terms like ``3/2*nu1^2*nu3 - nu2 + 5``.

    Whitespace may separate tokens but never splits a number or a variable.
    Each term keeps an integer numerator and denominator, and a factor, like
    any rational, is at most MAX_RATIONAL_CHARS long.  Each distinct factor
    text is matched once per call; the terms' numerators are summed over the
    lcm of their denominators.
    """
    if _SPLIT_TOKEN.search(text):
        raise ValueError(f"whitespace inside a number or a variable in polynomial {text!r}")
    stripped = "".join(text.split())
    if not stripped:
        raise ValueError("empty polynomial")
    chunks = _TERM.findall(stripped)
    if "".join(chunks) != stripped:
        raise ValueError(f"cannot parse polynomial {text!r}")
    # factor text -> (True, variable index, exponent) or (False, numerator, denominator)
    read: dict[str, tuple[bool, int, int]] = {}
    terms = []
    for chunk in chunks:
        num, den, expo = -1 if chunk[0] == "-" else 1, 1, [0] * nvars
        for factor in chunk.lstrip("+-").split("*"):
            if (f := read.get(factor)) is None:
                m = _FACTOR.fullmatch(factor)
                if m is None or len(factor) > MAX_RATIONAL_CHARS:
                    raise ValueError(f"bad factor {factor!r} in polynomial")
                if m[1]:
                    idx = int(m[1])
                    if not 1 <= idx <= nvars:
                        raise ValueError(f"variable nu{idx} out of range 1..{nvars}")
                    f = (True, idx - 1, int(m[2] or 1))
                elif q := int(m[4] or 1):
                    f = (False, int(m[3]), q)
                else:
                    raise ValueError(f"bad factor {factor!r} in polynomial")
                read[factor] = f
            variable, a, b = f
            if variable:
                expo[a] += b
            else:
                num, den = num * a, den * b
        terms.append((tuple(expo), num, den))
    d = lcm(*(den for _, _, den in terms))
    nums: dict[Exponents, int] = {}
    for key, num, den in terms:
        nums[key] = nums.get(key, 0) + num * (d // den)
    return Polynomial._of(nvars, d, {e: v for e, v in nums.items() if v})


# -- the linear structure on the dual --------------------------------------


def bivector_at(algebra: LieAlgebra, x: Iterable) -> Matrix:
    """Pi_ij(x) = <x, [e_i, e_j]>: row i is coad_{e_i}(x), one ``integer_coad`` of the identity."""
    xv, n = vec(x), algebra.dim
    if len(xv) != n:
        raise DimensionMismatch("point must have the algebra dimension")
    s = lcm(*(e.denominator for e in xv))
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    rows = algebra.integer_coad(identity, [e.numerator * (s // e.denominator) for e in xv])
    d = algebra.integer_structure[0] * s
    return tuple(tuple(Fraction(e, d) if e else ZERO for e in row) for row in rows)


def _packed_gradients(n: int, extra: int, *polys: Polynomial):
    """(weights, [(den, grad) per poly]): weights[l] = B**l with B = the sum of the degrees + ``extra``,
    den is a poly's denominator and grad[i] lists den * d_i p as (packed key, int).

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
        grad: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for expo, c in p.nums.items():
            key = sum(map(mul, expo, weights))
            for i, e in enumerate(expo):
                if e:
                    grad[i].append((key - weights[i], c * e))
        packed.append((p.den, grad))
    return weights, packed


def poisson_bracket_poly(algebra: LieAlgebra, f: Polynomial, g: Polynomial) -> Polynomial:
    """{f, g} = sum_{i<j} Pi_ij(nu) (d_i f d_j g - d_j f d_i g).

    Pi is skew, so this is the sum of Pi_ij d_i f d_j g over the ordered pairs
    with [e_i, e_j] != 0.  f, g and the structure constants are each scaled
    to integers over one denominator; every term is accumulated as an int
    into one table of packed keys with B = deg f + deg g, each output
    monomial is unpacked, and the sums go over the product of the three
    denominators with one gcd taken out at the end.
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
    nums = {}
    for key, v in out.items():
        if v:
            expo = [0] * n
            for l in range(n - 1, -1, -1):
                expo[l], key = divmod(key, weights[l])
            nums[tuple(expo)] = v
    return Polynomial._of(n, df_den * dg_den * ds, nums)


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

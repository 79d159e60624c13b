"""Lie algebras from structure constants, over exact rationals.

An algebra is stored only through its nonzero structure constants, as the
integers Ds c_ij^k over their one denominator Ds, one row per basis vector
e_i listing the e_j with [e_i, e_j] != 0.  The input gives [e_i, e_j] for
i < j; row j receives the negated constants, so antisymmetry holds by
construction.  Only ``integer_bracket`` and ``integer_coad`` evaluate a
product, over the integer constants; ``bracket``, ``coad_apply`` and the
bivector scale rational arguments over one denominator, call them and divide
once, so <coad_v(x), w> = <x, [v, w]> exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .linalg import (
    ZERO,
    DimensionMismatch,
    Matrix,
    Subspace,
    Vector,
    _scaled_supports,
    mat_vec,
    rref,
    transpose,
    unit_vector,
    vec,
)

# rows[i] = ((j, ((k, Ds c_ij^k), ...)), ...) over the nonzero [e_i, e_j], sorted
# by j and then by k, Ds the lcm of the constants' denominators: one canonical
# form, so equal algebras compare equal.
IntegerStructure = tuple[tuple[tuple[int, tuple[tuple[int, int], ...]], ...], ...]
# The same rows with each constant the Fraction c_ij^k.
Structure = tuple[tuple[tuple[int, tuple[tuple[int, Fraction], ...]], ...], ...]


class NotASubalgebra(ValueError):
    """A subspace that was required to be a Lie subalgebra is not one."""


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    triple: Optional[tuple[int, int, int]] = None
    residual: Optional[Vector] = None


@dataclass(frozen=True)
class LieAlgebra:
    """An algebra held as its integer constants (d, rows): the nonzero c_ij^k times d, the
    lcm of their denominators, a canonical form for ``==`` and ``hash``.  The Fraction
    constants ``structure`` are built on their first read."""

    dim: int
    labels: tuple[str, ...]
    integer_structure: tuple[int, IntegerStructure]

    @staticmethod
    def from_brackets(
        dim: int,
        brackets: Mapping[tuple[int, int], Iterable],
        labels: Optional[Sequence[str]] = None,
    ) -> "LieAlgebra":
        """Build from sparse constants {(i, j): [e_i, e_j]} for i < j, scaled to integers once."""
        labels = tuple(f"e{i + 1}" for i in range(dim)) if labels is None else tuple(labels)
        if len(labels) != dim:
            raise DimensionMismatch("label count does not match dimension")
        vectors = {}
        for (i, j), value in brackets.items():
            if not (0 <= i < j < dim):
                raise ValueError(f"bracket index pair ({i}, {j}) requires 0 <= i < j < dim")
            v = vec(value)
            if len(v) != dim:
                raise DimensionMismatch(f"bracket [e{i},e{j}] has wrong length")
            vectors[(i, j)] = v
        d = lcm(*(c.denominator for v in vectors.values() for c in v))
        integer = {ij: [(k, c.numerator * (d // c.denominator)) for k, c in enumerate(v) if c]
                   for ij, v in vectors.items()}
        return LieAlgebra.from_integer_brackets(dim, d, integer, labels)

    @staticmethod
    def from_integer_brackets(
        dim: int, d: int, brackets: Mapping, labels: Sequence[str]
    ) -> "LieAlgebra":
        """[e_i, e_j] = sum (e / d) e_k over the nonzero (k, e) of brackets[(i, j)], i < j and
        k increasing, d > 0; row j gets the negated terms, and gcd(d, e, ...) is divided out."""
        g = gcd(d, *(e for terms in brackets.values() for _, e in terms))
        rows: list[dict[int, tuple[tuple[int, int], ...]]] = [{} for _ in range(dim)]
        for (i, j), terms in brackets.items():
            if terms:
                terms = tuple((k, e // g) for k, e in terms) if g != 1 else tuple(terms)
                rows[i][j], rows[j][i] = terms, tuple((k, -e) for k, e in terms)
        structure = tuple(tuple(sorted(row.items())) for row in rows)
        return LieAlgebra(dim, tuple(labels), (d // g, structure))

    @staticmethod
    def abelian(dim: int, labels: Optional[Sequence[str]] = None) -> "LieAlgebra":
        return LieAlgebra.from_brackets(dim, {}, labels)

    def is_abelian(self) -> bool:
        return not any(self.integer_structure[1])

    @cached_property
    def structure(self) -> Structure:
        """The constants c_ij^k as Fractions, the integer form over d, built on first read."""
        d, rows = self.integer_structure
        return tuple(
            tuple((j, tuple((k, Fraction(e, d)) for k, e in terms)) for j, terms in row)
            for row in rows
        )

    def bracket(self, v: Iterable, w: Iterable) -> Vector:
        """sum v_i w_j c_ij^k e_k: ``integer_bracket`` of S v and S w over Ds S^2, S their lcm."""
        x, y = vec(v), vec(w)
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionMismatch("bracket arguments must have the algebra dimension")
        s, (sv, sw) = _scaled_supports((x, y))
        image, d = dict(self.integer_bracket(sv, dict(sw))), self.integer_structure[0] * s * s
        return tuple(Fraction(image[k], d) if k in image else ZERO for k in range(self.dim))

    def integer_bracket(self, v: Sequence[tuple[int, int]], w: Mapping[int, int]) -> list:
        """Ds [v, w] over ``integer_structure`` as its nonzero (k, e), for sparse integer v, w."""
        structure, out = self.integer_structure[1], {}
        for i, vi in v:
            for j, terms in structure[i]:
                wj = w.get(j)
                if wj:
                    f = vi * wj
                    for k, c in terms:
                        out[k] = out.get(k, 0) + f * c
        return [(k, e) for k, e in out.items() if e]

    def integer_coad(self, rows: Iterable[Sequence[int]], x: Sequence[int]) -> list[list[int]]:
        """Ds coad_v(x) for each integer row v at an integer x: entry j is sum v_i x_k Ds c_ij^k."""
        structure, out = self.integer_structure[1], []
        for v in rows:
            image = [0] * self.dim
            for vi, row in zip(v, structure):
                if vi:
                    for j, terms in row:
                        image[j] += vi * sum(x[k] * c for k, c in terms)
            out.append(image)
        return out

    def coad_apply(self, v: Iterable, x: Iterable) -> Vector:
        """coad_v(x), i.e. the covector w -> <x, [v, w]>: ``integer_coad`` likewise."""
        vv, xv = vec(v), vec(x)
        if len(vv) != self.dim or len(xv) != self.dim:
            raise DimensionMismatch("coad_apply arguments must have the algebra dimension")
        s = lcm(*(e.denominator for e in vv + xv))
        row, point = ([e.numerator * (s // e.denominator) for e in u] for u in (vv, xv))
        (image,), d = self.integer_coad([row], point), self.integer_structure[0] * s * s
        return tuple(Fraction(e, d) if e else ZERO for e in image)


def validate_jacobi(algebra: LieAlgebra) -> ValidationReport:
    """Check [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j] = 0 for i < j < k.

    Component l is sum_m (c_ij^m c_mk^l + c_jk^m c_mi^l + c_ki^m c_mj^l), summed
    over the nonzero constants.  Every term carries c_ij, c_jk or c_ki, so a
    triple whose three brackets vanish is skipped, exactly.  The sum is
    quadratic in the constants, so it runs on the integer constants d c: it
    is d^2 times the rational sum, and the residual divides by d^2.  The
    first failing triple in the order i < j < k is reported with its residual.
    """
    n = algebra.dim
    d, structure = algebra.integer_structure
    rows = [dict(row) for row in structure]  # rows[i][j]: nonzero d c_ij^m
    for i in range(n):
        ri = rows[i]
        for j in range(i + 1, n):
            rj = rows[j]
            ks = range(j + 1, n) if j in ri else sorted(k for k in ri.keys() | rj.keys() if k > j)
            for k in ks:
                acc: dict[int, int] = {}
                # [[e_i,e_j],e_k], [[e_j,e_k],e_i], [[e_k,e_i],e_j] in turn.
                for row, a, b in ((ri, j, k), (rj, k, i), (rows[k], i, j)):
                    for m, c in row.get(a, ()):
                        for l, e in rows[m].get(b, ()):
                            acc[l] = acc.get(l, 0) + c * e
                if any(acc.values()):
                    residual = tuple(Fraction(acc.get(l, 0), d * d) for l in range(n))
                    return ValidationReport(False, (i, j, k), residual)
    return ValidationReport(True)


def _bracket_rows(algebra: LieAlgebra, pairs: Iterable[tuple]) -> Iterator[list[int]]:
    """Ds [a, b] as a full integer row, for each pair (a, b) of integer rows, one at a time."""
    for a, b in pairs:
        support = [(i, e) for i, e in enumerate(a) if e]
        image = dict(algebra.integer_bracket(support, dict(enumerate(b))))
        yield [image.get(k, 0) for k in range(algebra.dim)]


def brackets_in(algebra: LieAlgebra, w: Subspace, pairs: Iterable[tuple]) -> bool:
    """True iff [a, b] lies in w for each pair (a, b) of integer rows (positive scales keep it)."""
    return w.dim == algebra.dim or all(map(w.contains_integer, _bracket_rows(algebra, pairs)))


def subspace_bracket(algebra: LieAlgebra, u: Subspace, v: Subspace) -> Subspace:
    """Span of [u_i, v_j] over the rows of u and v; u == v takes i < j only, as [b, a] = -[a, b]."""
    if u.ambient_dim != algebra.dim or v.ambient_dim != algebra.dim:
        raise DimensionMismatch("subspaces must live in the algebra")
    rows = u.integer_echelon[1]
    pairs = combinations(rows, 2) if u == v else product(rows, v.integer_echelon[1])
    return Subspace.integer_span(algebra.dim, _bracket_rows(algebra, pairs))


def is_subalgebra(algebra: LieAlgebra, u: Subspace) -> bool:
    """True iff [a, b] lies in u for each pair a < b of u's canonical basis."""
    if u.ambient_dim != algebra.dim:
        raise DimensionMismatch("subspaces must live in the algebra")
    return brackets_in(algebra, u, combinations(u.integer_echelon[1], 2))


def direct_sum(a: LieAlgebra, b: LieAlgebra, sign: int = 1) -> LieAlgebra:
    """Block direct sum; the second block's bracket is multiplied by ``sign``.

    sign=-1 realizes the bar factor of a product Poisson structure Pi_1 - Pi_2.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    # Both blocks over d = lcm(d_a, d_b), b's moved to indices n..; the form stays
    # canonical, as each prime power of d divides d_a or d_b exactly.
    n, (d_a, rows_a), (d_b, rows_b) = a.dim, a.integer_structure, b.integer_structure
    d = lcm(d_a, d_b)

    def block(rows, shift, f):
        return tuple(tuple((j + shift, tuple((k + shift, f * c) for k, c in t)) for j, t in row)
                     for row in rows)

    labels = tuple(f"{s}.1" for s in a.labels) + tuple(f"{s}.2" for s in b.labels)
    structure = block(rows_a, 0, d // d_a) + block(rows_b, n, sign * (d // d_b))
    return LieAlgebra(n + b.dim, labels, (d, structure))


@dataclass(frozen=True)
class LinearMap:
    """Linear map between Lie algebras; matrix is codomain.dim x domain.dim."""

    domain: LieAlgebra
    codomain: LieAlgebra
    matrix: Matrix

    def __post_init__(self):
        if len(self.matrix) != self.codomain.dim or any(
            len(row) != self.domain.dim for row in self.matrix
        ):
            raise DimensionMismatch("linear map matrix has the wrong shape")

    def apply(self, v: Iterable) -> Vector:
        return mat_vec(self.matrix, vec(v))

    @staticmethod
    def identity(algebra: LieAlgebra) -> "LinearMap":
        n = algebra.dim
        return LinearMap(algebra, algebra, tuple(unit_vector(n, i) for i in range(n)))

    def image(self) -> Subspace:
        return Subspace(self.codomain.dim, rref(transpose(self.matrix), self.codomain.dim))


def morphism_check(phi: LinearMap) -> bool:
    """True iff phi([u, v]) = [phi(u), phi(v)] on all basis pairs."""
    n = phi.domain.dim
    e = [unit_vector(n, i) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            lhs = phi.apply(phi.domain.bracket(e[i], e[j]))
            rhs = phi.codomain.bracket(phi.apply(e[i]), phi.apply(e[j]))
            if lhs != rhs:
                return False
    return True

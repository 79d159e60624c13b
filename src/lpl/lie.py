"""Lie algebras from structure constants, over exact rationals.

An algebra is stored only through its nonzero structure constants c_ij^k,
one row per basis vector e_i listing the e_j with [e_i, e_j] != 0.  The input
gives [e_i, e_j] for i < j; row j receives the negated constants, so
antisymmetry holds by construction.  Every product (bracket, coad, the
bivector, the Jacobi check) is a sum over these constants, and
coad_apply satisfies <coad_v(x), w> = <x, [v, w]> as an exact identity in
dual-basis coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm
from typing import Iterable, Mapping, Optional, Sequence

from .linalg import (
    ZERO,
    DimensionMismatch,
    Matrix,
    Subspace,
    Vector,
    mat_vec,
    rref,
    transpose,
    unit_vector,
    vec,
)

# structure[i] = ((j, ((k, c_ij^k), ...)), ...) over the nonzero [e_i, e_j],
# sorted by j and then by k: one canonical form, so equal algebras compare equal.
Structure = tuple[tuple[tuple[int, tuple[tuple[int, Fraction], ...]], ...], ...]
# The same rows with each c_ij^k an int: the constants times their common denominator.
IntegerStructure = tuple[tuple[tuple[int, tuple[tuple[int, int], ...]], ...], ...]


class NotASubalgebra(ValueError):
    """A subspace that was required to be a Lie subalgebra is not one."""


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    triple: Optional[tuple[int, int, int]] = None
    residual: Optional[Vector] = None


@dataclass(frozen=True)
class LieAlgebra:
    dim: int
    labels: tuple[str, ...]
    structure: Structure

    @staticmethod
    def from_brackets(
        dim: int,
        brackets: Mapping[tuple[int, int], Iterable],
        labels: Optional[Sequence[str]] = None,
    ) -> "LieAlgebra":
        """Build from sparse constants {(i, j): [e_i, e_j]} given for i < j.

        Row i gets the nonzero terms of [e_i, e_j] and row j their negatives.
        """
        if labels is None:
            labels = tuple(f"e{i + 1}" for i in range(dim))
        else:
            labels = tuple(labels)
            if len(labels) != dim:
                raise DimensionMismatch("label count does not match dimension")
        rows: list[dict[int, tuple[tuple[int, Fraction], ...]]] = [{} for _ in range(dim)]
        for (i, j), value in brackets.items():
            if not (0 <= i < j < dim):
                raise ValueError(f"bracket index pair ({i}, {j}) requires 0 <= i < j < dim")
            v = vec(value)
            if len(v) != dim:
                raise DimensionMismatch(f"bracket [e{i},e{j}] has wrong length")
            terms = tuple((k, c) for k, c in enumerate(v) if c)
            if terms:
                rows[i][j] = terms
                rows[j][i] = tuple((k, -c) for k, c in terms)
        return LieAlgebra(dim, labels, tuple(tuple(sorted(row.items())) for row in rows))

    @staticmethod
    def abelian(dim: int, labels: Optional[Sequence[str]] = None) -> "LieAlgebra":
        return LieAlgebra.from_brackets(dim, {}, labels)

    def is_abelian(self) -> bool:
        return not any(self.structure)

    @cached_property
    def integer_structure(self) -> tuple[int, IntegerStructure]:
        """(d, rows): d is the lcm of the constants' denominators, rows is ``structure`` times d."""
        d = lcm(*(c.denominator for row in self.structure for _, terms in row for _, c in terms))
        rows = tuple(
            tuple(
                (j, tuple((k, c.numerator * (d // c.denominator)) for k, c in terms))
                for j, terms in row
            )
            for row in self.structure
        )
        return d, rows

    def bracket(self, v: Iterable, w: Iterable) -> Vector:
        """sum over i, j, k of v_i w_j c_ij^k e_k."""
        x, y = vec(v), vec(w)
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionMismatch("bracket arguments must have the algebra dimension")
        out = [ZERO] * self.dim
        for xi, row in zip(x, self.structure):
            if xi == 0:
                continue
            for j, terms in row:
                if y[j] == 0:
                    continue
                f = xi * y[j]
                for k, c in terms:
                    out[k] += f * c
        return tuple(out)

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
        """coad_v(x), i.e. the covector w -> <x, [v, w]>: entry j is sum v_i x_k c_ij^k."""
        vv, xv = vec(v), vec(x)
        if len(vv) != self.dim or len(xv) != self.dim:
            raise DimensionMismatch("coad_apply arguments must have the algebra dimension")
        out = [ZERO] * self.dim
        for vi, row in zip(vv, self.structure):
            if vi == 0:
                continue
            for j, terms in row:
                pairing = sum(xv[k] * c for k, c in terms)
                if pairing:
                    out[j] += vi * pairing
        return tuple(out)


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


def brackets_in(algebra: LieAlgebra, w: Subspace, pairs: Iterable[tuple]) -> bool:
    """True iff [a, b] lies in w for each pair (a, b) of integer rows (positive scales keep it)."""
    if w.dim == algebra.dim:  # every bracket lies in g
        return True
    for a, b in pairs:
        support = [(i, e) for i, e in enumerate(a) if e]
        image = dict(algebra.integer_bracket(support, dict(enumerate(b))))
        if not w.contains_integer([image.get(k, 0) for k in range(algebra.dim)]):
            return False
    return True


def subspace_bracket(algebra: LieAlgebra, u: Subspace, v: Subspace) -> Subspace:
    """Span of [u_i, v_j] over the canonical bases of u and v."""
    if u.ambient_dim != algebra.dim or v.ambient_dim != algebra.dim:
        raise DimensionMismatch("subspaces must live in the algebra")
    products = [algebra.bracket(a, b) for a in u.basis for b in v.basis]
    return Subspace.span(algebra.dim, products)


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
    n = a.dim
    # b's rows move to indices n.. and carry the sign; a's rows stay as they are.
    second = tuple(
        tuple((j + n, tuple((k + n, sign * c) for k, c in terms)) for j, terms in row)
        for row in b.structure
    )
    labels = tuple(f"{s}.1" for s in a.labels) + tuple(f"{s}.2" for s in b.labels)
    return LieAlgebra(n + b.dim, labels, a.structure + second)


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

"""Exact rational linear algebra.

Vectors and matrices are immutable tuples of ``fractions.Fraction``; a
:class:`Subspace` is stored through its reduced row-echelon basis, which is a
canonical representative, so value equality of subspaces is plain ``==``.
No floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Sequence

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


class DimensionMismatch(ValueError):
    """Operands live in spaces of different dimensions."""


class InvariantViolation(RuntimeError):
    """An identity that an exact construction guarantees does not hold.

    Raised instead of ``assert`` so the check survives ``python -O``; it
    signals a defect in lpl, not in the input.
    """


def vec(entries: Iterable) -> Vector:
    """Coerce an iterable of rational-like entries to an exact vector."""
    return tuple(e if type(e) is Fraction else Fraction(e) for e in entries)


def mat(rows: Iterable[Iterable]) -> Matrix:
    m = tuple(vec(r) for r in rows)
    if m and any(len(r) != len(m[0]) for r in m):
        raise DimensionMismatch("matrix rows have unequal lengths")
    return m


def zero_vector(n: int) -> Vector:
    return tuple(ZERO for _ in range(n))


def unit_vector(n: int, i: int) -> Vector:
    return tuple(ONE if j == i else ZERO for j in range(n))


def is_zero_vector(v: Vector) -> bool:
    return all(e == 0 for e in v)


def dot(x: Sequence[Fraction], y: Sequence[Fraction]) -> Fraction:
    if len(x) != len(y):
        raise DimensionMismatch(f"dot of lengths {len(x)} and {len(y)}")
    return sum((a * b for a, b in zip(x, y) if a and b), ZERO)


def vadd(x: Vector, y: Vector) -> Vector:
    if len(x) != len(y):
        raise DimensionMismatch(f"sum of lengths {len(x)} and {len(y)}")
    return tuple(a + b for a, b in zip(x, y))


def vsub(x: Vector, y: Vector) -> Vector:
    if len(x) != len(y):
        raise DimensionMismatch(f"difference of lengths {len(x)} and {len(y)}")
    return tuple(a - b for a, b in zip(x, y))


def vscale(c, x: Vector) -> Vector:
    c = Fraction(c)
    return tuple(c * a for a in x)


def transpose(m: Matrix) -> Matrix:
    if not m:
        return ()
    return tuple(tuple(row[j] for row in m) for j in range(len(m[0])))


def mat_vec(m: Matrix, v: Sequence[Fraction]) -> Vector:
    return tuple(dot(row, v) for row in m)


def rref(rows: Iterable[Sequence], ncols: Optional[int] = None) -> Matrix:
    """Reduced row-echelon form; zero rows are dropped.

    The result is the canonical basis of the row span: pivots are 1, pivot
    columns are cleared, pivot columns strictly increase.
    """
    work = [list(vec(r)) for r in rows]
    if ncols is None:
        if not work:
            return ()
        ncols = len(work[0])
    if any(len(r) != ncols for r in work):
        raise DimensionMismatch("rows of unequal length")
    pivot_row = 0
    for col in range(ncols):
        pr = None
        for r in range(pivot_row, len(work)):
            if work[r][col] != 0:
                pr = r
                break
        if pr is None:
            continue
        work[pivot_row], work[pr] = work[pr], work[pivot_row]
        inv = ONE / work[pivot_row][col]
        work[pivot_row] = [inv * e if e else e for e in work[pivot_row]]
        for r in range(len(work)):
            if r != pivot_row and work[r][col] != 0:
                f = work[r][col]
                work[r] = [a - f * b if b else a for a, b in zip(work[r], work[pivot_row])]
        pivot_row += 1
        if pivot_row == len(work):
            break
    return tuple(tuple(r) for r in work[:pivot_row])


def _integer_row(row: Vector) -> list[int]:
    """The row times the lcm of its denominators: a row of integers."""
    scale = lcm(*(e.denominator for e in row))
    return [e.numerator * (scale // e.denominator) for e in row]


def rank(rows: Iterable[Sequence], ncols: Optional[int] = None) -> int:
    """Rank of a rational matrix: each row is scaled to integers for :func:`integer_rank`."""
    work = [vec(r) for r in rows]
    if ncols is None:
        if not work:
            return 0
        ncols = len(work[0])
    if any(len(r) != ncols for r in work):
        raise DimensionMismatch("rows of unequal length")
    return integer_rank([_integer_row(r) for r in work], ncols)


def integer_rank(rows: Iterable[list[int]], ncols: int) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination.

    Zero rows are dropped and no ``Fraction`` is created.  After a pivot p in
    column c each row below becomes (p * row - row[c] * pivot_row) // prev,
    where prev is the previous pivot: every entry is then a minor of the
    input matrix, so the division is exact.  A column with no pivot is
    skipped; that keeps the property, as the minors are taken on the pivot
    columns only.
    """
    work = [row for row in rows if any(row)]
    found = 0
    prev = 1
    for col in range(ncols):
        if found == len(work):
            break
        pr = next((r for r in range(found, len(work)) if work[r][col]), None)
        if pr is None:
            continue
        work[found], work[pr] = work[pr], work[found]
        pivot_row = work[found]
        p = pivot_row[col]
        for r in range(found + 1, len(work)):
            row = work[r]
            a = row[col]
            if a:
                work[r] = [(p * x - a * y) // prev for x, y in zip(row, pivot_row)]
            elif p != prev:
                work[r] = [p * x // prev for x in row]
        prev = p
        found += 1
    return found


def pivot_columns(echelon: Matrix) -> list[int]:
    cols = []
    for row in echelon:
        for j, e in enumerate(row):
            if e != 0:
                cols.append(j)
                break
    return cols


def nullspace(m: Matrix, ncols: int) -> Matrix:
    """Canonical (RREF) basis of {v : m v = 0} in an ``ncols``-dim space."""
    ech = rref(m, ncols)
    pivots = pivot_columns(ech)
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for f in free:
        v = [ZERO] * ncols
        v[f] = ONE
        for row, p in zip(ech, pivots):
            v[p] = -row[f]
        basis.append(v)
    return rref(basis, ncols)


def solve(m: Matrix, b: Sequence[Fraction]) -> Optional[Vector]:
    """One solution of m x = b, or None if inconsistent."""
    nrows = len(m)
    if len(b) != nrows:
        raise DimensionMismatch("right-hand side length mismatch")
    ncols = len(m[0]) if m else 0
    aug = rref([list(row) + [bi] for row, bi in zip(m, vec(b))], ncols + 1)
    x = [ZERO] * ncols
    for row in aug:
        piv = next(j for j, e in enumerate(row) if e != 0)
        if piv == ncols:
            return None
        x[piv] = row[ncols]
    return tuple(x)


@dataclass(frozen=True)
class Subspace:
    """Linear subspace of Q^n in canonical reduced row-echelon basis.

    Two Subspace values are equal iff they are the same subspace.
    """

    ambient_dim: int
    basis: Matrix

    @staticmethod
    def span(ambient_dim: int, vectors: Iterable[Iterable]) -> "Subspace":
        rows = [vec(v) for v in vectors]
        for r in rows:
            if len(r) != ambient_dim:
                raise DimensionMismatch(
                    f"vector of length {len(r)} in ambient dim {ambient_dim}"
                )
        return Subspace(ambient_dim, rref(rows, ambient_dim))

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, ())

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, tuple(unit_vector(ambient_dim, i) for i in range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def _check_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch(
                f"ambient dims {self.ambient_dim} and {other.ambient_dim}"
            )

    def contains_vector(self, v: Iterable) -> bool:
        w = vec(v)
        if len(w) != self.ambient_dim:
            raise DimensionMismatch("vector length does not match ambient dim")
        reduced = rref(list(self.basis) + [w], self.ambient_dim)
        return len(reduced) == self.dim

    def contains(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        reduced = rref(list(self.basis) + list(other.basis), self.ambient_dim)
        return len(reduced) == self.dim

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace(
            self.ambient_dim, rref(list(self.basis) + list(other.basis), self.ambient_dim)
        )

    __add__ = sum

    def intersect(self, other: "Subspace") -> "Subspace":
        # U cap V = (U^ann + V^ann)^ann; stays canonical throughout.
        self._check_ambient(other)
        return self.annihilator().sum(other.annihilator()).annihilator()

    def annihilator(self) -> "Subspace":
        """Covectors pairing to zero with the subspace (dot-product pairing)."""
        return Subspace(self.ambient_dim, nullspace(self.basis, self.ambient_dim))

    def coords_of(self, v: Iterable) -> Optional[Vector]:
        """Coefficients of v in the canonical basis, or None if v is outside."""
        w = vec(v)
        if len(w) != self.ambient_dim:
            raise DimensionMismatch("vector length does not match ambient dim")
        return solve(transpose(self.basis), w)


def choose_complement(u: Subspace, w: Subspace) -> Subspace:
    """Deterministic complement of u inside w.

    Greedily keeps the rows of w's canonical basis (in coordinate order) that
    are independent from u and the rows already kept.  Those rows stay
    independent, so a row is kept when it raises the rank above their count.
    """
    if not w.contains(u):
        raise ValueError("first subspace is not contained in the second")
    chosen: list[Vector] = []
    current = list(u.basis)
    for row in w.basis:
        if rank(current + [row], w.ambient_dim) > len(current):
            chosen.append(row)
            current.append(row)
    return Subspace.span(w.ambient_dim, chosen)

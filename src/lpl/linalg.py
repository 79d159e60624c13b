"""Exact rational linear algebra.

Vectors and matrices are immutable tuples of ``fractions.Fraction``; a
:class:`Subspace` is stored through its reduced row-echelon basis, which is a
canonical representative, so value equality of subspaces is plain ``==``.
No floating point is used anywhere.

Fraction-free integer kernels do the eliminations: the Bareiss loop
:func:`_eliminate`, behind ``integer_rank``, ``rank``, ``rref``, ``nullspace``,
``solve`` and the :class:`Subspace` lattice, which runs on the integer rows
each Subspace keeps, and the 2 x 2-pivot Pfaffian loop :func:`_skew_eliminate`,
behind ``skew_rank``, which ranks a skew matrix from its upper triangle.
:func:`_skew_eliminate_many` runs the Pfaffian loop at many points at once,
each cell the list of its values there, for a skew pencil ranked along a
sample walk.  The two Pfaffian loops are kept apart on purpose: on a batch
of one point the batched loop is 1.6 to 3.5 times slower than the scalar
one for sizes 2 to 36, so a single matrix goes to the scalar loop.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]

ZERO = Fraction(0)
ONE = Fraction(1)
# Longest accepted rational string: Python's default limit on the digits of
# an integer converted from a string, so no shorter string can hit it.
MAX_RATIONAL_CHARS = 4300
_RATIONAL = re.compile(r"[+-]?\d+(?:/(\d+))?")


class DimensionMismatch(ValueError):
    """Operands live in spaces of different dimensions."""


class InvariantViolation(RuntimeError):
    """An identity that an exact construction guarantees does not hold.

    Raised instead of ``assert`` so the check survives ``python -O``; it
    signals a defect in lpl, not in the input.
    """


def parse_fraction(text) -> Fraction:
    """A string ``p`` or ``p/q`` in decimal digits; not Fraction(text), which also reads 1e5000."""
    if isinstance(text, str) and len(text) > MAX_RATIONAL_CHARS:
        raise ValueError(f"rational of {len(text)} characters (maximum {MAX_RATIONAL_CHARS})")
    if not isinstance(text, str) or not (m := _RATIONAL.fullmatch(text.strip())):
        raise ValueError(f"bad rational {text!r} (expected 'p' or 'p/q')")
    if m.group(1) is not None and int(m.group(1)) == 0:
        raise ValueError(f"bad rational {text!r}: zero denominator")
    return Fraction(text.strip())


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


def rref(rows: Iterable[Sequence], ncols: int) -> Matrix:
    """Reduced row-echelon form of rows of ``ncols`` entries; zero rows are dropped.

    The result is the canonical basis of the row span: pivots are 1, pivot
    columns are cleared, pivot columns strictly increase.  It is the integer
    reduced form of :func:`_eliminate` divided by its last pivot.
    """
    return Subspace.integer_span(ncols, integer_rows(rows, ncols)).basis


def integer_rows(rows: Iterable[Sequence], ncols: int) -> list[list[int]]:
    """Rational rows of ``ncols`` entries, each times the lcm of its denominators."""
    scaled = []
    for row in map(vec, rows):
        if len(row) != ncols:
            raise DimensionMismatch(f"row of length {len(row)} where {ncols} are expected")
        scale = lcm(*(e.denominator for e in row))
        scaled.append([e.numerator * (scale // e.denominator) for e in row])
    return scaled


def rank(rows: Iterable[Sequence], ncols: Optional[int] = None) -> int:
    """Rank of a rational matrix: each row is scaled to integers for :func:`integer_rank`."""
    rows = list(rows)
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    return integer_rank(integer_rows(rows, ncols), ncols)


def integer_rank(rows: Iterable[list[int]], ncols: int) -> int:
    """Rank of an integer matrix: the pivot count of forward-only :func:`_eliminate`."""
    return len(_eliminate(rows, ncols, reduce=False)[0])


def _eliminate(rows: Iterable[list[int]], ncols: int, reduce: bool) -> tuple[list, int]:
    """Fraction-free (Bareiss) elimination of integer rows: (pivot rows, last pivot).

    Zero rows are dropped and no ``Fraction`` is created.  After a pivot p in
    column c each row below becomes (p * row - row[c] * pivot_row) // prev,
    where prev is the previous pivot: every entry is then a minor of the
    input matrix, so the division is exact.  A column with no pivot is
    skipped; that keeps the property, as the minors are taken on the pivot
    columns only.  With ``reduce`` the rows above take the same step, which
    clears the pivot column (Gauss-Jordan).  Such a row is prev times its
    reduced row and becomes p times it, a minor by Cramer's rule, so that
    division is exact too; at the end each pivot row is the last pivot
    times its row of the reduced row-echelon form.
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
        below = range(found + 1, len(work))
        for r in [*range(found), *below] if reduce else below:
            row = work[r]
            a = row[col]
            if a:
                work[r] = [(p * x - a * y) // prev for x, y in zip(row, pivot_row)]
            elif p != prev:
                work[r] = [p * x // prev for x in row]
        prev = p
        found += 1
    return work[:found], prev


def skew_rank(upper: Sequence[Sequence[int]], m: int) -> int:
    """Rank of an integer skew m x m matrix from its strict upper triangle.

    ``upper[k]`` holds the entries (k, l) for l > k.  A skew rank is even:
    twice the number of 2 x 2 pivots of :func:`_skew_eliminate`.
    """
    if len(upper) != m:
        raise DimensionMismatch(f"{len(upper)} rows of an upper triangle where {m} are expected")
    return 2 * len(_skew_eliminate(upper)[0])


def _skew_eliminate(upper: Sequence[Sequence[int]]) -> tuple[list[tuple[int, int]], int]:
    """Fraction-free congruence elimination with 2 x 2 pivots: (pivot pairs, last pivot).

    The pivot p = x_ij, i < j, is the upper triangle's first nonzero entry in
    row-major order.  Every remaining pair k < l becomes (p x_kl - x_ki x_lj + x_kj x_li) // prev,
    with x_ki = -x_ik, and rows and columns i and j are dropped; prev is the
    previous pivot.  After s pivots, entry (k, l) is the Pfaffian of the
    principal submatrix on the 2s pivot indices, in pivot order, then k and l,
    so the division is exact by the Pfaffian form of Sylvester's identity
    (Knuth, Overlapping Pfaffians, 1996).  Rows above the pivot row are zero
    and stay zero, so they are dropped too.  A pivot is reported as its pair
    (i, j) of positions among the rows still left, which keep their order.
    At full rank the last pivot is the Pfaffian up to sign.
    """
    rows = upper  # never changed in place: each step builds new rows
    pivots = []
    prev = 1
    while True:
        for i, pivot_row in enumerate(rows):
            if any(pivot_row):
                break
        else:
            return pivots, prev
        for jj, p in enumerate(pivot_row):
            if p:
                break
        j = i + 1 + jj
        # Columns i and j on the remaining indices k: x_ki = -x_ik, and x_kj
        # is read above the diagonal for k < j and below it for k > j.
        col_i = [-e for e in pivot_row]
        del col_i[jj]
        col_j = []
        work = []
        for k in range(i + 1, j):
            row = rows[k]
            at_j = j - k - 1
            col_j.append(row[at_j])
            work.append(row[:at_j] + row[at_j + 1 :])
        col_j += [-e for e in rows[j]]
        work += rows[j + 1 :]
        for a, row in enumerate(work):
            u, v = col_i[a], col_j[a]
            if u or v:
                work[a] = [
                    (p * x - u * y + v * z) // prev
                    for x, y, z in zip(row, col_j[a + 1 :], col_i[a + 1 :])
                ]
            elif p != prev:
                work[a] = [p * x // prev for x in row]
        pivots.append((i, j))
        rows = work
        prev = p


def _skew_eliminate_many(
    rows: Sequence[Sequence[list[int]]], count: int
) -> list[tuple[list[tuple[int, int]], int]]:
    """:func:`_skew_eliminate` at ``count`` points at once: (pivot pairs, last pivot) per point.

    ``rows`` is one upper triangle whose every cell is the list of its values
    at the points.  Each step is the scalar step, one comprehension over the
    points per cell; the exact division holds point by point.  The pivot is
    still the first cell in row-major order that is nonzero at a point, so
    where it vanishes at some points only, those points split off as their
    own batch, which goes on from the same rows without them.  Every point
    thus gets exactly the pivots and last pivot of its own scalar run.
    """
    result: list = [None] * count
    batches = [(rows, list(range(count)), [], [1] * count)] if count else []
    while batches:
        rows, points, pivots, prev = batches.pop()
        while True:
            for i, pivot_row in enumerate(rows):
                for jj, p in enumerate(pivot_row):
                    if any(p):
                        break
                else:
                    continue
                break
            else:
                for a, q in zip(points, prev):
                    result[a] = (pivots, q)
                break
            if not all(p):
                keep = [a for a, e in enumerate(p) if e]
                rest = [a for a, e in enumerate(p) if not e]
                batches.append(
                    (_select_points(rows, rest), [points[a] for a in rest], list(pivots),
                     [prev[a] for a in rest])
                )
                rows, points = _select_points(rows, keep), [points[a] for a in keep]
                prev = [prev[a] for a in keep]
                pivot_row = rows[i]
                p = pivot_row[jj]
            j = i + 1 + jj
            col_i = [[-e for e in cell] for cell in pivot_row]
            del col_i[jj]
            col_j = []
            work = []
            for k in range(i + 1, j):
                row = rows[k]
                at_j = j - k - 1
                col_j.append(row[at_j])
                work.append(row[:at_j] + row[at_j + 1 :])
            col_j += [[-e for e in cell] for cell in rows[j]]
            work += rows[j + 1 :]
            scaled = p != prev
            for a, row in enumerate(work):
                u, v = col_i[a], col_j[a]
                if any(u) or any(v):
                    work[a] = [
                        [
                            (pk * xk - uk * yk + vk * zk) // qk
                            for pk, xk, uk, yk, vk, zk, qk in zip(p, x, u, y, v, z, prev)
                        ]
                        for x, y, z in zip(row, col_j[a + 1 :], col_i[a + 1 :])
                    ]
                elif scaled:
                    work[a] = [[pk * xk // qk for pk, xk, qk in zip(p, x, prev)] for x in row]
            pivots.append((i, j))
            rows = work
            prev = p
    return result


def _select_points(rows: Sequence[Sequence[list[int]]], points: list[int]) -> list:
    """The batched rows at a subset of their points, given by position."""
    return [[[cell[a] for a in points] for cell in row] for row in rows]


def pivot_columns(echelon: Matrix) -> list[int]:
    return [next(j for j, e in enumerate(row) if e) for row in echelon]


def nullspace(m: Matrix, ncols: int) -> Matrix:
    """Canonical (RREF) basis of {v : m v = 0} in an ``ncols``-dim space."""
    return Subspace.span(ncols, m).annihilator().basis


def solve(m: Matrix, ncols: int, b: Sequence) -> Optional[Vector | Matrix]:
    """One solution x in Q^ncols of m x = b, or None if inconsistent.

    m has ``ncols`` columns, so a system with no rows still has its unknowns.
    b is one right-hand side (a vector), or several as the columns of a
    matrix B; then the answer is a matrix X with m X = B, from one
    elimination of [m | B], or None if any column is inconsistent.
    """
    nrows = len(m)
    if len(b) != nrows:
        raise DimensionMismatch("right-hand side length mismatch")
    several = bool(b) and isinstance(b[0], (tuple, list))
    rhs = [vec(row) for row in b] if several else [(e,) for e in vec(b)]
    width = len(rhs[0]) if rhs else 1
    aug = rref([list(row) + list(r) for row, r in zip(m, rhs)], ncols + width)
    x = [(ZERO,) * width] * ncols
    for row, piv in zip(aug, pivot_columns(aug)):
        if piv >= ncols:
            return None
        x[piv] = row[ncols:]
    return tuple(x) if several else tuple(r[0] for r in x)


@dataclass(frozen=True)
class Subspace:
    """Linear subspace of Q^n in canonical reduced row-echelon basis.

    ``basis`` must be canonical; ``span`` is the constructor for arbitrary vectors.
    """

    ambient_dim: int
    basis: Matrix

    @staticmethod
    def span(ambient_dim: int, vectors: Iterable[Iterable]) -> "Subspace":
        return Subspace.integer_span(ambient_dim, integer_rows(vectors, ambient_dim))

    @staticmethod
    def integer_span(ambient_dim: int, rows: Iterable[Sequence[int]]) -> "Subspace":
        """The span of integer rows, keeping the rows ``_eliminate`` reduces them to."""
        reduced, d = _eliminate(rows, ambient_dim, reduce=True)
        # Divide out the content gcd(d, R), sign included: d is then the lcm of the denominators.
        g = d
        for row in reduced:
            if (g := gcd(g, *row)) == 1:
                break
        g = -g if d < 0 else g
        if g != 1:
            d, reduced = d // g, [[x // g for x in row] for row in reduced]
        basis = (tuple(Fraction(x, d) if x else ZERO for x in row) for row in reduced)
        u = Subspace(ambient_dim, tuple(basis))
        u.__dict__["integer_echelon"] = (d, reduced)  # the cached_property's slot
        return u

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, ())

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, tuple(unit_vector(ambient_dim, i) for i in range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def integer_echelon(self) -> tuple[int, list]:
        """(d, R) with d > 0 and ``basis == R / d``; d is the lcm of the denominators."""
        d = lcm(*(e.denominator for row in self.basis for e in row))
        return d, [[e.numerator * (d // e.denominator) for e in row] for row in self.basis]

    def _check_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch(
                f"ambient dims {self.ambient_dim} and {other.ambient_dim}"
            )

    def contains_vector(self, v: Iterable) -> bool:
        return self.contains_integer(integer_rows([v], self.ambient_dim)[0])

    def contains_integer(self, w: Sequence[int]) -> bool:
        """True iff sum_i w[p_i] R_i == d w: the one combination of the rows that can give w."""
        d, rows = self.integer_echelon
        rest = [d * e for e in w]
        for row, p in zip(rows, self.pivots):
            c = w[p]
            if c:
                rest = [a - c * e for a, e in zip(rest, row)]
        return not any(rest)

    def contains(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return other.dim <= self.dim and all(map(self.contains_integer, other.integer_echelon[1]))

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        rows = self.integer_echelon[1] + other.integer_echelon[1]
        return Subspace.integer_span(self.ambient_dim, rows)

    __add__ = sum

    def intersect(self, other: "Subspace") -> "Subspace":
        # U cap V = (U^ann + V^ann)^ann; stays canonical throughout.
        self._check_ambient(other)
        return self.annihilator().sum(other.annihilator()).annihilator()

    def annihilator(self) -> "Subspace":
        """Covectors pairing to zero with the subspace (dot-product pairing).

        The basis is already reduced, so each free column f gives the kernel
        vector d e_f - sum_i R_i[f] e_pivot(i) directly from the integer rows;
        one elimination makes them canonical.
        """
        n, pivots, (d, rows) = self.ambient_dim, self.pivots, self.integer_echelon
        kernel = []
        for f in sorted(set(range(n)) - set(pivots)):
            v = [0] * n
            v[f] = d
            for row, p in zip(rows, pivots):
                v[p] = -row[f]
            kernel.append(v)
        return Subspace.integer_span(n, kernel)

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        return tuple(pivot_columns(self.integer_echelon[1]))

    def select(self, indices: Iterable[int]) -> "Subspace":
        """The span of the canonical basis rows at ``indices``, a canonical basis itself."""
        return Subspace(self.ambient_dim, tuple(self.basis[i] for i in indices))


def choose_complement(u: Subspace) -> Subspace:
    """Deterministic complement of u: the unit vectors the greedy rule keeps.

    In coordinate order, e_j is kept iff it is not in span(u, e_0 .. e_(j-1)).
    That span holds e_j iff some vector of u has its last nonzero entry at j,
    i.e. iff j is a pivot of the forward elimination of u's reversed integer rows.
    """
    n = u.ambient_dim
    reversed_rows = _eliminate([row[::-1] for row in u.integer_echelon[1]], n, reduce=False)[0]
    last = {n - 1 - j for j in pivot_columns(reversed_rows)}
    return Subspace(n, tuple(unit_vector(n, j) for j in range(n) if j not in last))

"""Exact rational linear algebra.

Vectors and matrices are immutable tuples of ``fractions.Fraction``, with
one exception: a point from ``AffineSubspace.point_at`` carries its integral
entries as ``int`` (equal, and equal in ``str`` and ``hash``, to the
Fraction), and :func:`vec` and :func:`integer_rows` read either type where a
point enters the library.  A :class:`Subspace` is stored as its integer
echelon form (d, R): its reduced row-echelon basis times d, the lcm of that
basis's denominators.  The form is canonical, so value equality of subspaces
is plain ``==``, and the Fraction basis is built only where something reads it.
No floating point is used anywhere.

Fraction-free integer kernels do the eliminations: the Bareiss loop
:func:`_eliminate`, behind ``integer_rank``, ``rref``, ``nullspace``,
``solve`` and the :class:`Subspace` lattice, which runs on the integer rows
each Subspace keeps, and the 2 x 2-pivot Pfaffian loop
:func:`_skew_eliminate_many`, which ranks a skew matrix from its upper
triangle at many points at once, each cell one int where it has one value
at every point and else the list of its values there.  A single matrix is
ranked as a batch of one, all ints, so there is one Pfaffian loop.

Every number a report prints passes :func:`vector_strs` or
:func:`_check_digits`, which refuse one that ``str`` cannot write.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from math import gcd, lcm
from operator import attrgetter
from typing import Iterable, Optional, Sequence

# Fractions, except the int entries of a point from AffineSubspace.point_at.
Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]

ZERO = Fraction(0)
ONE = Fraction(1)
# Longest accepted rational string: Python's default limit on the digits of
# an integer converted from a string, so no shorter string can hit it.
MAX_RATIONAL_CHARS = 4300
_RATIONAL = re.compile(r"[+-]?\d+(?:/(\d+))?")
# str() refuses an integer of more than MAX_RATIONAL_CHARS digits.
_PRINT_LIMIT = 10**MAX_RATIONAL_CHARS
_numerator = attrgetter("numerator")
_denominator = attrgetter("denominator")


class InputError(ValueError):
    """Malformed model or problem input, or a number too long to print."""


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


def _check_digits(numbers, what: str) -> None:
    """Every number a report prints passes here: str() refuses over MAX_RATIONAL_CHARS digits.

    Some numerator or denominator reaches the limit iff the largest of them
    does, so one ``max`` over each, both C loops, decides it exactly.
    """
    numbers = tuple(numbers)
    if numbers and (
        max(map(abs, map(_numerator, numbers))) >= _PRINT_LIMIT
        or max(map(_denominator, numbers)) >= _PRINT_LIMIT
    ):
        raise InputError(f"{what} has more than {MAX_RATIONAL_CHARS} digits")


def vector_strs(v) -> list[str]:
    _check_digits(v, "a vector entry")
    return [str(e) for e in v]


def vec(entries: Iterable) -> Vector:
    """Coerce an iterable of rational-like entries to an exact vector."""
    return tuple(e if type(e) is Fraction else Fraction(e) for e in entries)


def mat(rows: Iterable[Iterable]) -> Matrix:
    m = tuple(vec(r) for r in rows)
    if m and any(len(r) != len(m[0]) for r in m):
        raise DimensionMismatch("matrix rows have unequal lengths")
    return m


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
    """Rational rows of ``ncols`` entries, each times the lcm of its denominators.

    A row of ``int`` entries is copied; in any other, ``int`` and ``Fraction``
    entries are read through their numerator and denominator, and a row with
    an entry of another type goes through :func:`vec` first.
    """
    scaled = []
    for row in rows:
        if type(row) is not tuple and type(row) is not list:
            row = tuple(row)
        if len(row) != ncols:
            raise DimensionMismatch(f"row of length {len(row)} where {ncols} are expected")
        if all(type(e) is int for e in row):
            scaled.append(list(row))
            continue
        try:
            scale = lcm(*(e.denominator for e in row))
        except AttributeError:
            row = vec(row)
            scale = lcm(*(e.denominator for e in row))
        scaled.append([e.numerator * (scale // e.denominator) for e in row])
    return scaled


def _scaled_supports(vectors: Sequence[Vector]) -> tuple[int, list[list[tuple[int, int]]]]:
    """S, and the nonzero (j, S v_j) of each vector: S is the lcm of all their denominators."""
    s = lcm(*(e.denominator for v in vectors for e in v))
    return s, [
        [(j, e.numerator * (s // e.denominator)) for j, e in enumerate(v) if e] for v in vectors
    ]


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


def _skew_eliminate_many(
    rows: Sequence[Sequence], count: int
) -> list[tuple[list[tuple[int, int]], int]]:
    """Fraction-free congruence elimination with 2 x 2 pivots at ``count`` points at once.

    ``rows`` is the strict upper triangle of a skew matrix, ``rows[k]`` its
    entries (k, l) for l > k.  A cell is an ``int``, its value at every
    point, or the list of its values at the points; a single matrix is a
    batch of one, all ints.  The result is (pivot pairs, last pivot) per
    point, and the rank there is twice the number of pivots.  At each point
    the pivot p = x_ij, i < j, is the first cell nonzero there in row-major
    order.  Every remaining pair k < l becomes
    (p x_kl - x_ki x_lj + x_kj x_li) // prev, with x_ki = -x_ik, one int
    operation where every operand is an int and else one comprehension over
    the points (``_update_cell``); rows and columns i and j are dropped, and
    prev is the previous pivot.  After s pivots, entry (k, l) is the
    Pfaffian of the principal submatrix on the 2s pivot indices, in pivot
    order, then k and l, so the division is exact at every point by the
    Pfaffian form of Sylvester's identity (Knuth, Overlapping Pfaffians,
    1996).  Rows above the pivot row are zero and stay zero, so they are
    dropped too.  A pivot is reported as its pair (i, j) of positions among
    the rows still left, which keep their order; the points of a batch share
    one list of them.  At full rank the last pivot is the Pfaffian up to
    sign.  Where a list pivot vanishes at some points only, those points
    split off as their own batch, which goes on from the same rows without
    them, so a point's result does not depend on the batch it is ranked in.
    """
    result: list = [None] * count
    batches = [(rows, 1, list(range(count)), [])] if count else []
    while batches:
        rows, prev, points, pivots = batches.pop()
        # Updates of int cells give int cells, so a batch of ints stays one.
        all_ints = all(type(e) is int for row in (*rows, [prev]) for e in row)
        while True:
            for i, pivot_row in enumerate(rows):
                for jj, p in enumerate(pivot_row):
                    if any(p) if type(p) is list else p:
                        break
                else:
                    continue
                break
            else:
                for a, point in enumerate(points):
                    result[point] = (pivots, prev if type(prev) is int else prev[a])
                break
            if type(p) is list and not all(p):
                keep = [a for a, e in enumerate(p) if e]
                rest = [a for a, e in enumerate(p) if not e]
                batches.append(
                    (*_select_points(rows, prev, rest), [points[a] for a in rest], list(pivots))
                )
                (rows, prev), points = _select_points(rows, prev, keep), [points[a] for a in keep]
                pivot_row = rows[i]
                p = pivot_row[jj]
            j = i + 1 + jj
            # Columns i and j on the remaining indices k: x_ik, its negation
            # x_ki, and x_kj, read above the diagonal for k < j and below it
            # for k > j.  The update is (p x_kl + x_ik x_lj + x_kj x_li) // prev.
            row_i = list(pivot_row)
            del row_i[jj]
            col_i = [-e if type(e) is int else [-x for x in e] for e in row_i]
            col_j, work = [], []
            for k in range(i + 1, j):
                row = rows[k]
                at_j = j - k - 1
                col_j.append(row[at_j])
                work.append(row[:at_j] + row[at_j + 1 :])
            col_j += [-e if type(e) is int else [-x for x in e] for e in rows[j]]
            work += rows[j + 1 :]
            ints, scaled = type(p) is type(prev) is int, p != prev
            for a, row in enumerate(work):
                u, v = row_i[a], col_j[a]
                if scaled or not u == v == 0:
                    scalar = ints and type(u) is type(v) is int
                    work[a] = [
                        (p * x + u * y + v * z) // prev
                        if all_ints
                        or scalar and type(x) is int and type(y) is int and type(z) is int
                        else _update_cell(p, x, u, y, v, z, prev)
                        for x, y, z in zip(row, col_j[a + 1 :], col_i[a + 1 :])
                    ]
            pivots.append((i, j))
            rows = work
            prev = p
    return result


def _update_cell(p, x, u, y, v, z, q):
    """(p x + u y + v z) // q of cells that are ints or lists, a product with the int 0
    dropped: an int where every operand left is one, else the list at each point."""
    s, terms = 0, []
    for f, g in ((p, x), (u, y), (v, z)):
        if type(f) is int and type(g) is int:
            s += f * g
        elif not (f == 0 or g == 0):  # one factor is a list, so the zip below ends
            terms.append((f if type(f) is list else repeat(f), g if type(g) is list else repeat(g)))
    if not terms:
        return s // q if type(q) is int else [s // e for e in q] if s else 0
    q = q if type(q) is list else repeat(q)
    if len(terms) == 1:
        ((f, g),) = terms
        return [(s + a * b) // c for a, b, c in zip(f, g, q)]
    if len(terms) == 2:
        (f, g), (h, k) = terms
        return [(s + a * b + c * d) // e for a, b, c, d, e in zip(f, g, h, k, q)]
    (f, g), (h, k), (l, m) = terms
    return [(a * b + c * d + e * r) // w for a, b, c, d, e, r, w in zip(f, g, h, k, l, m, q)]


def _select_points(rows: Sequence[Sequence], prev, points: list[int]) -> tuple[list, object]:
    """The batched rows and previous pivot at a subset of their points, given by position."""
    *rows, (prev,) = [[e if type(e) is int else [e[a] for a in points] for e in row]
                      for row in (*rows, [prev])]  # prev rides along as a row of one cell
    return rows, prev


def pivot_columns(echelon: Matrix) -> list[int]:
    return [next(j for j, e in enumerate(row) if e) for row in echelon]


def nullspace(m: Matrix, ncols: int) -> Matrix:
    """Canonical (RREF) basis of {v : m v = 0} in an ``ncols``-dim space."""
    return Subspace.span(ncols, m).annihilator().basis


def solve(m: Matrix, ncols: int, b: Sequence) -> Optional[tuple[int, list]]:
    """One solution x = X / d in Q^ncols of m x = b as (d, X), d > 0, or None if inconsistent.

    m has ``ncols`` columns, so a system with no rows still has its unknowns.
    b is one right-hand side and X a list of ncols ints, or b is several, the
    columns of a matrix B, and X the ncols integer rows with m X = d B, or
    None if any column is inconsistent.  One elimination of [m | B] in
    integers (``_eliminate``) gives them: d is its last pivot, up to sign,
    its pivot row in column j < ncols ends with row j of X, and the free
    unknowns are 0.
    """
    if len(b) != len(m):
        raise DimensionMismatch("right-hand side length mismatch")
    several = bool(b) and isinstance(b[0], (tuple, list))
    rhs = b if several else [(e,) for e in b]
    width = len(rhs[0]) if rhs else 1
    rows = integer_rows([[*row, *r] for row, r in zip(m, rhs)], ncols + width)
    reduced, d = _eliminate(rows, ncols + width, reduce=True)
    if d < 0:
        d, reduced = -d, [[-e for e in row] for row in reduced]
    x = [[0] * width for _ in range(ncols)]
    for row in reduced:
        piv = next(j for j, e in enumerate(row) if e)
        if piv >= ncols:
            return None
        x[piv] = row[ncols:]
    return d, x if several else [r[0] for r in x]


@dataclass(frozen=True, init=False)
class Subspace:
    """Linear subspace of Q^n, held as its integer echelon form (d, R).

    R is the reduced row-echelon basis times d, and d > 0 is the lcm of that
    basis's denominators, so gcd(d, R) = 1 and the form is canonical:
    equality and hashing compare (ambient_dim, d, R).  ``Subspace(n, basis)``
    takes a canonical basis; ``span`` and ``integer_span`` take any rows.
    The dimension, pivots, lattice and membership read (d, R) only; the
    Fraction basis R / d is built on the first read of ``basis``, which in
    practice is a report printing it.  Instances are immutable.
    """

    ambient_dim: int
    integer_echelon: tuple[int, list[list[int]]]

    def __init__(self, ambient_dim: int, basis: Iterable[Sequence] = ()):
        basis = [tuple(row) for row in basis]
        d = lcm(*(e.denominator for row in basis for e in row))
        rows = [[e.numerator * (d // e.denominator) for e in row] for row in basis]
        vars(self).update(ambient_dim=ambient_dim, integer_echelon=(d, rows))

    @staticmethod
    def _of(ambient_dim: int, d: int, rows: list) -> "Subspace":
        """The subspace of echelon rows R / d, R reduced; the content gcd(d, R) is divided out."""
        g = d
        for row in rows:
            if (g := gcd(g, *row)) == 1:
                break
        if d < 0:
            g = -g
        if g != 1:
            d, rows = d // g, [[x // g for x in row] for row in rows]
        u = object.__new__(Subspace)
        vars(u).update(ambient_dim=ambient_dim, integer_echelon=(d, rows))
        return u

    def __hash__(self):
        d, rows = self.integer_echelon
        return hash((self.ambient_dim, d, tuple(map(tuple, rows))))

    @staticmethod
    def span(ambient_dim: int, vectors: Iterable[Iterable]) -> "Subspace":
        return Subspace.integer_span(ambient_dim, integer_rows(vectors, ambient_dim))

    @staticmethod
    def integer_span(ambient_dim: int, rows: Iterable[Sequence[int]]) -> "Subspace":
        """The span of integer rows, from the rows ``_eliminate`` reduces them to."""
        reduced, d = _eliminate(rows, ambient_dim, reduce=True)
        return Subspace._of(ambient_dim, d, [r if type(r) is list else list(r) for r in reduced])

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace._of(ambient_dim, 1, [])

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace._of(ambient_dim, 1, _unit_rows(ambient_dim, range(ambient_dim)))

    @cached_property
    def basis(self) -> Matrix:
        """The canonical (reduced row-echelon) basis R / d, built on its first read."""
        d, rows = self.integer_echelon
        return tuple(tuple(Fraction(x, d) if x else ZERO for x in row) for row in rows)

    @property
    def dim(self) -> int:
        return len(self.integer_echelon[1])

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

        The rows are already reduced, so each free column f gives the kernel
        vector d e_f - sum_i R_i[f] e_pivot(i) directly; one elimination
        makes them canonical.
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
        d, rows = self.integer_echelon
        return Subspace._of(self.ambient_dim, d, [rows[i] for i in indices])


def _unit_rows(n: int, columns: Iterable[int]) -> list[list[int]]:
    """The unit rows e_j of Z^n for j in ``columns``."""
    return [[int(i == j) for i in range(n)] for j in columns]


def choose_complement(u: Subspace) -> Subspace:
    """Deterministic complement of u: the unit vectors the greedy rule keeps.

    In coordinate order, e_j is kept iff it is not in span(u, e_0 .. e_(j-1)).
    That span holds e_j iff some vector of u has its last nonzero entry at j,
    i.e. iff j is a pivot of the forward elimination of u's reversed integer rows.
    """
    n = u.ambient_dim
    reversed_rows = _eliminate([row[::-1] for row in u.integer_echelon[1]], n, reduce=False)[0]
    last = {n - 1 - j for j in pivot_columns(reversed_rows)}
    return Subspace._of(n, 1, _unit_rows(n, (j for j in range(n) if j not in last)))

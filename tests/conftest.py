import importlib.util
import json
import random
import re
import sys
from dataclasses import replace
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path
from typing import Sequence

import pytest
from hypothesis import strategies as st

from lpl import LieAlgebra, Subspace, direct_sum
from lpl.cli import parse_model
from lpl.embedding import Extension, RankNotConstant, coisotropy_in_extension
from lpl.lie import NotASubalgebra
from lpl.linalg import (
    MAX_RATIONAL_CHARS,
    ZERO,
    DimensionMismatch,
    InvariantViolation,
    _check_digits,
    choose_complement,
    dot,
    integer_rank,
    integer_rows,
    mat,
    mat_vec,
    rref,
    transpose,
    unit_vector,
    vec,
)
from lpl.submanifold import (
    NOT_CONSTANT,
    AffineSubspace,
    IntegerPoint,
    PointwiseFlags,
    SkewPencil,
    Walk,
    _pencil,
    pre_poisson_check,
)

FIXTURES = Path(__file__).parent.parent / "src" / "lpl" / "fixtures"
PERFBENCH = Path(__file__).parent.parent / "perfbench"


def load_perfbench(monkeypatch, name: str):
    """perfbench/<name>.py, loaded by path: perfbench is not a package.

    Its modules import their neighbours by name, so perfbench stays on the
    path for the test; every module loaded from it leaves sys.modules again.
    """
    monkeypatch.syspath_prepend(str(PERFBENCH))
    loaded = set(sys.modules)
    try:
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        for key in set(sys.modules) - loaded:
            if PERFBENCH in Path(getattr(sys.modules[key], "__file__", None) or "/").parents:
                del sys.modules[key]
    return module


def load_model(name: str) -> LieAlgebra:
    return parse_model((FIXTURES / name).read_text())


@pytest.fixture(scope="session")
def sl2() -> LieAlgebra:
    return load_model("sl2.json")


@pytest.fixture(scope="session")
def gl2() -> LieAlgebra:
    return load_model("gl2.json")


@pytest.fixture(scope="session")
def heisenberg() -> LieAlgebra:
    return load_model("heisenberg.json")


@pytest.fixture(scope="session")
def abelian2() -> LieAlgebra:
    return load_model("abelian_2.json")


@pytest.fixture(scope="session")
def abelian3() -> LieAlgebra:
    return load_model("abelian_3.json")


# The Fraction loops over the structure constants that lpl replaced by its
# integer kernels, LieAlgebra.integer_bracket and integer_coad, and the
# pointwise tests it now ranks on skew pencils: the oracles those are checked
# against.


def fraction_bracket(algebra: LieAlgebra, v, w):
    """sum over i, j, k of v_i w_j c_ij^k e_k: the oracle for ``LieAlgebra.bracket``."""
    x, y = vec(v), vec(w)
    if len(x) != algebra.dim or len(y) != algebra.dim:
        raise DimensionMismatch("bracket arguments must have the algebra dimension")
    out = [ZERO] * algebra.dim
    for xi, row in zip(x, algebra.structure):
        if xi == 0:
            continue
        for j, terms in row:
            if y[j] == 0:
                continue
            f = xi * y[j]
            for k, c in terms:
                out[k] += f * c
    return tuple(out)


def fraction_coad_apply(algebra: LieAlgebra, v, x):
    """coad_v(x), i.e. the covector w -> <x, [v, w]>: entry j is sum v_i x_k c_ij^k.

    The oracle for ``LieAlgebra.coad_apply``.
    """
    vv, xv = vec(v), vec(x)
    if len(vv) != algebra.dim or len(xv) != algebra.dim:
        raise DimensionMismatch("coad_apply arguments must have the algebra dimension")
    out = [ZERO] * algebra.dim
    for vi, row in zip(vv, algebra.structure):
        if vi == 0:
            continue
        for j, terms in row:
            pairing = sum(xv[k] * c for k, c in terms)
            if pairing:
                out[j] += vi * pairing
    return tuple(out)


def fraction_bivector_at(algebra: LieAlgebra, x):
    """The skew matrix Pi_ij(x) = <x, [e_i, e_j]>: the oracle for ``bivector_at``."""
    xv = vec(x)
    if len(xv) != algebra.dim:
        raise DimensionMismatch("point must have the algebra dimension")
    pi = [[ZERO] * algebra.dim for _ in range(algebra.dim)]
    for row, terms_of in zip(pi, algebra.structure):
        for j, terms in terms_of:
            row[j] = sum((xv[k] * c for k, c in terms), ZERO)
    return tuple(tuple(row) for row in pi)


def rational_rank(rows, ncols: int) -> int:
    """Rank of a rational matrix: its rows scaled to integers, then ``integer_rank``."""
    return integer_rank(integer_rows(rows, ncols), ncols)


# The Fraction bodies that LieAlgebra's integer form (d, rows) replaced: the
# oracles for from_brackets, direct_sum and serialize_model.


def fraction_structure(dim: int, brackets) -> tuple:
    """The Fraction constants of {(i, j): [e_i, e_j]}, i < j: row i gets the nonzero
    terms of [e_i, e_j] and row j their negatives, each row sorted by j."""
    rows = [{} for _ in range(dim)]
    for (i, j), value in brackets.items():
        terms = tuple((k, c) for k, c in enumerate(vec(value)) if c)
        if terms:
            rows[i][j] = terms
            rows[j][i] = tuple((k, -c) for k, c in terms)
    return tuple(tuple(sorted(row.items())) for row in rows)


def fraction_direct_sum(a: LieAlgebra, b: LieAlgebra, sign: int) -> tuple:
    """The Fraction constants of the block sum: b's rows move to indices a.dim.. and
    carry the sign."""
    n = a.dim
    second = tuple(
        tuple((j + n, tuple((k + n, sign * c) for k, c in terms)) for j, terms in row)
        for row in b.structure
    )
    return a.structure + second


def integer_form(structure) -> tuple:
    """Fraction constants as (d, rows): rows are the constants times d, the lcm of their
    denominators, the canonical form of ``LieAlgebra.integer_structure``."""
    d = lcm(*(c.denominator for row in structure for _, terms in row for _, c in terms))
    rows = tuple(
        tuple(
            (j, tuple((k, c.numerator * (d // c.denominator)) for k, c in terms))
            for j, terms in row
        )
        for row in structure
    )
    return d, rows


def fraction_serialize_model(algebra: LieAlgebra, name: str = "model") -> dict:
    """The model file of ``algebra`` printed from its Fraction constants with ``str``."""
    _check_digits((c for row in algebra.structure for _, t in row for _, c in t), "a coefficient")
    brackets = [
        {"i": i, "j": j, "terms": [{"k": k, "coefficient": str(c)} for k, c in terms]}
        for i, row in enumerate(algebra.structure)
        for j, terms in row
        if i < j
    ]
    return {"name": name, "dim": algebra.dim, "basis": list(algebra.labels), "brackets": brackets}


# Small rationals, for drawn systems and covectors.
SMALL_FRACTIONS = st.fractions(min_value=-9, max_value=9, max_denominator=6)
# Constants for drawn bracket tables: small integers, or rationals of up to
# 13 digits over denominators of up to 7 digits.
CONSTANTS = st.one_of(
    st.integers(-3, 3), st.fractions(min_value=-(10**12), max_value=10**12, max_denominator=10**6)
)


@st.composite
def bracket_tables(draw, max_dim: int = 6):
    """(dim, {(i, j): [e_i, e_j]}) with drawn constants, Jacobi or not."""
    n = draw(st.integers(1, max_dim))
    if n == 1:
        return n, {}
    pairs = st.sampled_from([(i, j) for i in range(n) for j in range(i + 1, n)])
    return n, draw(st.dictionaries(pairs, st.lists(CONSTANTS, min_size=n, max_size=n)))


def fraction_pointwise_flags(c, x) -> PointwiseFlags:
    """Characteristic rank, Poisson-Dirac and cosymplectic tests at x in C.

    Let S be the rows coad_{h_a}(x), so sharp N*_x C is the row space of S,
    and B_h(x) = S H^T, i.e. <x, [h_a, h_b]>.  A vector of that row space lies
    in T_x C = ann(h) iff H kills it, so
    dim(T_x C cap sharp N*_x C) = rank S - rank B_h(x),
    and T_x C + sharp N*_x C = g* directly iff rank B_h(x) = dim h.

    The oracle for ``pointwise_flags``: S and B_h(x) in Fractions, ranked by
    ``rational_rank``, which shares no code with the skew pencil.
    """
    xv = c.require_point(x)
    s = [fraction_coad_apply(c.algebra, v, xv) for v in c.h.basis]
    form_rank = rational_rank([[dot(row, w) for w in c.h.basis] for row in s], c.h.dim)
    char_rank = rational_rank(s, c.algebra.dim) - form_rank
    return PointwiseFlags(char_rank, char_rank == 0, form_rank == c.h.dim)


def fraction_is_cosymplectic_at(e, x) -> bool:
    """True iff the skew form <x, [., .]> on p is nondegenerate at x (x must lie on P).

    The oracle for ``is_cosymplectic_at``: the form paired from Fraction
    brackets and ranked by ``rational_rank``.
    """
    xv = e.p_tilde.require_point(x)
    form = [[dot(xv, fraction_bracket(e.algebra, a, b)) for b in e.p.basis] for a in e.p.basis]
    return rational_rank(form, e.p.dim) == e.p.dim


def bracket_table(algebra: LieAlgebra):
    """table[i][j] = coordinates of [e_i, e_j], one Fraction bracket per cell."""
    n = algebra.dim
    e = [unit_vector(n, i) for i in range(n)]
    return tuple(tuple(fraction_bracket(algebra, e[i], e[j]) for j in range(n)) for i in range(n))


def sl2_h(sl2: LieAlgebra) -> Subspace:
    return Subspace.span(3, [[1, 0, 0], [0, 1, -1]])


def zero_vector(n: int):
    return (ZERO,) * n


def random_fraction(rng: random.Random, bound: int = 20) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def random_vector(rng: random.Random, n: int, bound: int = 20):
    return tuple(random_fraction(rng, bound) for _ in range(n))


def random_subspace(rng: random.Random, n: int, max_dim=None) -> Subspace:
    k = rng.randint(0, n if max_dim is None else min(max_dim, n))
    return Subspace.span(n, [random_vector(rng, n) for _ in range(k)])


def coordinate_subspace(rng: random.Random, n: int) -> Subspace:
    """The span of a random set of unit vectors: often a subalgebra, unlike random_subspace."""
    return Subspace.span(n, [unit_vector(n, i) for i in range(n) if rng.random() < 0.5])


def pencil_cells(m):
    """The entries (a, b) an m by m pencil stores, in order: a < b, row by row."""
    return [(a, b) for a in range(m) for b in range(a + 1, m)]


def pencil_at(pencil, t):
    """The pencil's form at rational direction coordinates t, in Fractions, every entry filled in.

    The reference for the integer ranks: (D B0 + sum_i t_i D B_i) / D, with
    stored index k read as entry ``pencil_cells(m)[k]`` and the lower
    triangle read off the upper one.
    """
    values = [Fraction(b) for b in pencil.base]
    for ti, terms in zip(t, pencil.directions):
        for k, b in terms:
            values[k] += ti * b
    form = [[Fraction(0)] * pencil.size for _ in range(pencil.size)]
    cells = pencil_cells(pencil.size)
    assert len(values) == len(cells)
    for (a, b), e in zip(cells, values):
        form[a][b] = e / pencil.denominator
        form[b][a] = -form[a][b]
    return tuple(tuple(row) for row in form)


def rank_at(pencil, point) -> int:
    """The pencil's rank at one integer point: ``ranks_along`` on the walk of that point."""
    return next(pencil.ranks_along(point.walk()))[0][0]


def walk_of(points: Sequence[IntegerPoint]) -> Walk:
    """Integer points over one denominator as one walk."""
    (scale,) = {point.denominator for point in points}
    return Walk(scale, len(points), [list(ns) for ns in zip(*(p.numerators for p in points))])


def walk_points(walk: Walk) -> list[IntegerPoint]:
    """The points of a walk, one ``IntegerPoint`` each."""
    return [walk.point(i) for i in range(walk.count)]


def ranks_along(pencil, walk: Walk, lead: int = 0) -> list[tuple[int, int]]:
    """``pencil.ranks_along(walk, lead)``, its chunks joined into one list."""
    return [r for chunk in pencil.ranks_along(walk, lead) for r in chunk]


def scalar_skew_eliminate(upper: Sequence[Sequence[int]]) -> tuple[list[tuple[int, int]], int]:
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

    The reference for ``linalg._skew_eliminate_many``: the same loop on one
    matrix of plain integer cells, with no batch to split.
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


def over_common_scale(vectors) -> tuple[int, list[list[int]]]:
    """(s, rows): rational vectors as integer rows over one s > 0, the lcm of their
    denominators, the form ``skew_pencil`` takes a basis in."""
    vectors = [vec(v) for v in vectors]
    s = lcm(*(e.denominator for v in vectors for e in v))
    return s, [[e.numerator * (s // e.denominator) for e in v] for v in vectors]


def fraction_pencil(c, basis) -> SkewPencil:
    """The pencil of <x, [v_a, v_b]> along C, paired and scaled in Fractions.

    The oracle for the integer pencils: each entry pairs C's base or a
    direction vector with a Fraction bracket, and D is the lcm of the
    entries' denominators.  The bivector pencil is the skew one on the unit
    vectors.
    """
    m = len(basis)
    cells = pencil_cells(m)
    vectors = (c.base, *c.direction.basis)
    terms = [[] for _ in vectors]  # (cell index, pairing) per vector
    for k, (a, b) in enumerate(cells):
        w = fraction_bracket(c.algebra, basis[a], basis[b])
        for i, v in enumerate(vectors):
            e = sum((vk * wk for vk, wk in zip(v, w)), Fraction(0))
            if e:
                terms[i].append((k, e))
    d = lcm(*(e.denominator for row in terms for _, e in row))
    scaled = [tuple((k, e.numerator * (d // e.denominator)) for k, e in row) for row in terms]
    base = [0] * len(cells)
    for k, e in scaled[0]:
        base[k] = e
    return SkewPencil(m, d, tuple(base), tuple(scaled[1:]))


def fraction_induced_structure(algebra: LieAlgebra, pair) -> LieAlgebra:
    """The induced structure on p-ann as lpl built it in Fractions: the oracle
    for ``induced_structure``, which runs on integer echelon rows.

    The rows khat solve G^T khat = K for G_ji = <u_j, k_i>, paired by ``dot``
    over the canonical bases u of p-ann and K of k, and c_ij^l is direction l
    of the Fraction pencil of the khat along the chart 0 + p-ann, divided by
    its denominator.
    """
    if not pair.decomposition:
        raise ValueError("k and p must decompose the algebra")
    if not pair.k_subalgebra:
        raise NotASubalgebra("induced structure is linear only for k a subalgebra")
    chart = AffineSubspace(algebra, pair.p, zero_vector(algebra.dim))
    direction = chart.direction
    m = direction.dim
    gram_t = [[dot(kb, u) for u in direction.basis] for kb in pair.k.basis]
    khat = fraction_solve(gram_t, m, pair.k.basis)
    if khat is None:
        raise InvariantViolation("the pairing of k with p-ann is degenerate")
    form = fraction_pencil(chart, khat)
    brackets = {}
    for l, terms in enumerate(form.directions):
        for cell, e in terms:
            brackets.setdefault(form.cells[cell], [0] * m)[l] = Fraction(e, form.denominator)
    labels = tuple(algebra.labels[col] for col in direction.pivots)
    return LieAlgebra.from_brackets(m, brackets, labels)


def bivector_pencil(c) -> SkewPencil:
    """Pi(x)_ij = <x, [e_i, e_j]> along C, read from the integer structure constants.

    The pencil tests' second integer pencil: it hands ``_pencil`` brackets
    that share no code with ``skew_pencil``'s ``integer_bracket``.
    """
    n = c.algebra.dim
    ds, structure = c.algebra.integer_structure
    rows = [dict(row) for row in structure]
    supports = (rows[i].get(j, ()) for i in range(n) for j in range(i + 1, n))
    return _pencil(c, n, ds, supports)


def fraction_rref(rows, ncols):
    """Gauss-Jordan elimination over Fraction: the reference for the integer core behind rref."""
    work = [list(vec(r)) for r in rows]
    found = 0
    for col in range(ncols):
        pr = next((r for r in range(found, len(work)) if work[r][col]), None)
        if pr is None:
            continue
        work[found], work[pr] = work[pr], work[found]
        inv = 1 / work[found][col]
        work[found] = [inv * e for e in work[found]]
        for r in range(len(work)):
            if r != found and work[r][col]:
                f = work[r][col]
                work[r] = [a - f * b for a, b in zip(work[r], work[found])]
        found += 1
    return tuple(tuple(r) for r in work[:found])


def fraction_solve(m, ncols: int, b):
    """One solution x of m x = b in Fractions, its free unknowns 0, or None if inconsistent.

    The oracle for ``solve``, whose answer (d, X) is x = X / d, and the
    tests' Fraction solver: read off ``fraction_rref`` of [m | b], where b is
    one right-hand side or several, the columns of a matrix.
    """
    several = bool(b) and isinstance(b[0], (tuple, list))
    rhs = b if several else [(e,) for e in b]
    width = len(rhs[0]) if rhs else 1
    x = [(ZERO,) * width] * ncols
    for row in fraction_rref([[*r, *e] for r, e in zip(m, rhs)], ncols + width):
        pivot = next(j for j, e in enumerate(row) if e)
        if pivot >= ncols:
            return None
        x[pivot] = row[ncols:]
    return tuple(x) if several else tuple(r[0] for r in x)


def coords_of(u: Subspace, v):
    """Coefficients of v in u's canonical basis, or None if v is outside: the Fraction
    membership oracle for the integer test ``Subspace.contains_integer``.

    Basis vector i is 1 at its pivot and 0 at the other pivots, so the only
    candidates are v's entries at the pivots: v is inside iff they give v back.
    """
    w = vec(v)
    if len(w) != u.ambient_dim:
        raise DimensionMismatch("vector length does not match ambient dim")
    coeffs = tuple(w[next(j for j, e in enumerate(row) if e)] for row in u.basis)
    back = [Fraction(0)] * u.ambient_dim
    for c, row in zip(coeffs, u.basis):
        for j, e in enumerate(row):
            back[j] += c * e
    return coeffs if tuple(back) == w else None


def fraction_arithmetic(monkeypatch) -> list:
    """The names of the Fraction operators called from now on, in call order."""
    calls = []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__neg__"):
        original = getattr(Fraction, name)

        def counted(self, *other, original=original, name=name):
            calls.append(name)
            return original(self, *other)

        monkeypatch.setattr(Fraction, name, counted)
    return calls


# The Fraction bodies of parse_polynomial, Polynomial.__str__, __add__ and
# __mul__ and poisson_bracket_poly that lpl replaced by integer numerators
# over one denominator: the oracles those are checked against.  Each takes
# and returns a table {exponent tuple: nonzero Fraction}, as ``terms`` reads.


def fraction_parse_polynomial(text: str, nvars: int) -> dict:
    """One Fraction per term, summed per monomial: the oracle for ``parse_polynomial``."""
    if re.search(r"\w\s+\w", text):
        raise ValueError(f"whitespace inside a number or a variable in polynomial {text!r}")
    stripped = "".join(text.split())
    if not stripped:
        raise ValueError("empty polynomial")
    chunks = re.findall(r"[+-]?[^+-]+", stripped)
    if "".join(chunks) != stripped:
        raise ValueError(f"cannot parse polynomial {text!r}")
    terms = {}
    for chunk in chunks:
        num, den, expo = -1 if chunk[0] == "-" else 1, 1, [0] * nvars
        for factor in chunk.lstrip("+-").split("*"):
            m = re.fullmatch(r"nu(\d+)(?:\^(\d+))?|(\d+)(?:/(\d+))?", factor)
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
        key = tuple(expo)
        terms[key] = terms.get(key, Fraction(0)) + Fraction(num, den)
    return {e: c for e, c in terms.items() if c}


def fraction_polynomial_str(terms) -> str:
    """Graded-lex terms, each coefficient from its Fraction's numerator and
    denominator: the oracle for ``Polynomial.__str__``."""
    if not terms:
        return "0"
    pieces = []
    for expo, coeff in sorted(terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True):
        p, q = coeff.numerator, coeff.denominator
        factors = [f"nu{i + 1}^{e}" if e > 1 else f"nu{i + 1}" for i, e in enumerate(expo) if e]
        size = str(abs(p)) if q == 1 else f"{abs(p)}/{q}"
        if size != "1" or not factors:
            factors.insert(0, size)
        pieces.append(("- " if p < 0 else "+ ") + "*".join(factors))
    text = " ".join(pieces)
    return text[2:] if text[0] == "+" else "-" + text[2:]


def keyed_polynomial_str(p) -> str:
    """The integer printer ``Polynomial.__str__`` replaced, which sorts by the
    key (degree, exponents) and numbers each variable from its position: its
    oracle.  Takes the Polynomial itself."""
    if not p.nums:
        return "0"
    den, nums = p.den, p.nums
    pieces = []
    for expo in sorted(nums, key=lambda e: (sum(e), e), reverse=True):
        n = nums[expo]
        g = gcd(n, den)
        size = str(abs(n) // g) if g == den else f"{abs(n) // g}/{den // g}"
        factors = [f"nu{i + 1}^{e}" if e > 1 else f"nu{i + 1}" for i, e in enumerate(expo) if e]
        if size != "1" or not factors:
            factors.insert(0, size)
        pieces.append(("- " if n < 0 else "+ ") + "*".join(factors))
    text = " ".join(pieces)
    return text[2:] if text[0] == "+" else "-" + text[2:]


def fraction_add(p, q) -> dict:
    """A Fraction sum per monomial: the oracle for ``Polynomial.__add__``."""
    out = dict(p)
    for expo, c in q.items():
        if s := out.get(expo, Fraction(0)) + c:
            out[expo] = s
        else:
            out.pop(expo, None)
    return out


def _fraction_numerators(terms) -> tuple[int, list]:
    """d, the lcm of the table's denominators, and each term with its coefficient times d."""
    d = lcm(*(c.denominator for c in terms.values()))
    return d, [(e, c.numerator * (d // c.denominator)) for e, c in terms.items()]


def fraction_mul(p, q) -> dict:
    """Products of integer numerators over the lcms of each side's denominators,
    summed per monomial, one Fraction per output term: the oracle for ``Polynomial.__mul__``."""
    (da, a), (db, b) = _fraction_numerators(p), _fraction_numerators(q)
    out = {}
    for ea, na in a:
        for eb, nb in b:
            expo = tuple(x + y for x, y in zip(ea, eb))
            out[expo] = out.get(expo, 0) + na * nb
    return {e: Fraction(n, da * db) for e, n in out.items() if n}


def fraction_poisson_bracket(algebra: LieAlgebra, f, g) -> dict:
    """{f, g} = sum Pi_ij d_i f d_j g on packed keys with B = deg f + deg g, one
    Fraction per output monomial: the oracle for ``poisson_bracket_poly``."""
    n = algebra.dim
    ds, structure = algebra.integer_structure
    degrees = [max(map(sum, p), default=0) for p in (f, g)]
    weights = [sum(degrees) ** l for l in range(n)]
    packed = []
    for p in (f, g):
        d, terms = _fraction_numerators(p)
        grad = [[] for _ in range(n)]
        for expo, c in terms:
            key = sum(e * w for e, w in zip(expo, weights))
            for i, e in enumerate(expo):
                if e:
                    grad[i].append((key - weights[i], c * e))
        packed.append((d, grad))
    (df_den, df), (dg_den, dg) = packed
    out = {}
    for dfi, row in zip(df, structure):
        for j, pi_ij in row:
            for ka, ca in dfi:
                for kb, cb in dg[j]:
                    for l, c in pi_ij:
                        e = ka + kb + weights[l]
                        out[e] = out.get(e, 0) + c * ca * cb
    den, terms = df_den * dg_den * ds, {}
    for key, v in out.items():
        if v:
            expo = [0] * n
            for l in range(n - 1, -1, -1):
                expo[l], key = divmod(key, weights[l])
            terms[tuple(expo)] = Fraction(v, den)
    return terms


def fraction_creations(monkeypatch) -> list:
    """The arguments of every Fraction created from now on, in creation order."""
    calls = []
    original = Fraction.__new__

    def counted(cls, *args, **kwargs):
        calls.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    return calls


def contains_by_rref(u: Subspace, vectors) -> bool:
    """Membership by elimination: the vectors lie in u iff adding them keeps the rank."""
    return len(rref(list(u.basis) + [vec(v) for v in vectors], u.ambient_dim)) == u.dim


def algebra_catalog() -> list[LieAlgebra]:
    """Genuine Lie algebras of dim <= 6 for randomized theorem tests."""
    sl2 = load_model("sl2.json")
    gl2 = load_model("gl2.json")
    heis = load_model("heisenberg.json")
    ab2 = load_model("abelian_2.json")
    affine_line = LieAlgebra.from_brackets(2, {(0, 1): (0, 1)}, ("t", "x"))
    return [
        sl2,
        gl2,
        heis,
        ab2,
        affine_line,
        direct_sum(sl2, ab2),
        direct_sum(heis, heis),
        direct_sum(sl2, sl2),
        direct_sum(affine_line, gl2),
    ]


def in_basis(algebra: LieAlgebra, basis) -> LieAlgebra:
    """``algebra`` in the basis b_i = basis[i]: [b_i, b_j] in b-coordinates."""
    n = algebra.dim
    columns = transpose(mat(basis))
    brackets = {
        (i, j): fraction_solve(columns, n, fraction_bracket(algebra, basis[i], basis[j]))
        for i in range(n)
        for j in range(i + 1, n)
    }
    return LieAlgebra.from_brackets(n, brackets)


def unimodular(n: int):
    """A hypothesis strategy for L U or U L, L unit lower and U unit upper triangular
    with entries in -2..2 off the diagonal: an integer matrix of determinant 1.

    Both orders are drawn: the first column of L U is that of L, 1 in row 0,
    so only U L can move the pivot of the image of e_0.
    """
    entries = st.lists(st.integers(-2, 2), min_size=n * n, max_size=n * n)

    def product(drawn):
        a, b, lower_first = drawn
        lower = [[a[i * n + j] if j < i else int(i == j) for j in range(n)] for i in range(n)]
        upper = [[b[i * n + j] if j > i else int(i == j) for j in range(n)] for i in range(n)]
        left, right = (lower, upper) if lower_first else (upper, lower)
        return [[sum(left[i][k] * right[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]

    return st.tuples(entries, entries, st.booleans()).map(product)


def rebase(problem, m):
    """``problem`` (a ``cli.Problem``) in the basis f_i = sum_a M_ia e_a of g, M invertible.

    The model becomes [f_i, f_j] = sum_ab M_ia M_jb [e_a, e_b] in f-coordinates
    (``in_basis``).  A vector v of g has the f-coordinates c with c M = v, so
    each row of h is solved for; a covector lambda takes the value
    <lambda, f_i> = (M lambda)_i on f_i, so lambda and the rows of R become M lambda.
    """
    n, rows = problem.algebra.dim, mat(m)
    h = Subspace.span(n, [fraction_solve(transpose(rows), n, v) for v in problem.h.basis])
    r = None if problem.r is None else Subspace.span(n, [mat_vec(rows, u) for u in problem.r.basis])
    algebra = in_basis(problem.algebra, rows)
    return replace(problem, algebra=algebra, h=h, base=mat_vec(rows, problem.base), r=r)


# Invertible rational bases of sl2 and gl2.
SL2_BASIS = ((Fraction(1, 2), Fraction(1, 3), 0), (0, 1, Fraction(1, 4)), (Fraction(2, 5), 0, 1))
GL2_BASIS = (
    (Fraction(1, 2), 0, 0, 1),
    (0, Fraction(2, 3), Fraction(1, 7), 0),
    (1, 0, Fraction(3, 4), 0),
    (0, 1, 0, Fraction(-1, 5)),
)


def rational_catalog() -> list[LieAlgebra]:
    """Algebras whose structure constants are not all integers."""
    sl2 = in_basis(load_model("sl2.json"), SL2_BASIS)
    gl2 = in_basis(load_model("gl2.json"), GL2_BASIS)
    return [sl2, gl2, direct_sum(sl2, sl2, sign=-1), direct_sum(gl2, load_model("heisenberg.json"))]


def subalgebra_catalog() -> list[tuple[LieAlgebra, Subspace]]:
    """Named subalgebras across the bundled models (all verified closed)."""
    sl2 = load_model("sl2.json")
    gl2 = load_model("gl2.json")
    heis = load_model("heisenberg.json")
    entries = [
        (sl2, Subspace.span(3, [[1, 0, 0], [0, 1, -1]])),
        (sl2, Subspace.span(3, [[0, 1, -1]])),
        (sl2, Subspace.span(3, [[1, 0, 0]])),
        (sl2, Subspace.span(3, [[0, 1, 0]])),
        (sl2, Subspace.full(3)),
        (sl2, Subspace.zero(3)),
        (gl2, Subspace.span(4, [[1, 0, 0, 0], [0, 0, 0, 1]])),  # diagonal
        (gl2, Subspace.span(4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]])),  # upper tri
        (gl2, Subspace.span(4, [[0, 1, 0, 0]])),  # strictly upper
        (gl2, Subspace.span(4, [[1, 0, 0, -1], [0, 1, 0, 0], [0, 0, 1, 0]])),  # traceless
        (gl2, Subspace.span(4, [[1, 0, 0, 1]])),  # center
        (gl2, Subspace.span(4, [[0, 1, 0, 0], [0, 0, 0, 1]])),
        (gl2, Subspace.full(4)),
        (heis, Subspace.span(3, [[0, 0, 1]])),  # center
        (heis, Subspace.span(3, [[1, 0, 0], [0, 0, 1]])),
        (heis, Subspace.full(3)),
    ]
    return entries


def restricted_algebra(algebra: LieAlgebra, h: Subspace) -> LieAlgebra:
    """h as a Lie algebra in its canonical basis; requires h a subalgebra."""
    m = h.dim
    brackets = {}
    for i in range(m):
        for j in range(i + 1, m):
            w = fraction_bracket(algebra, h.basis[i], h.basis[j])
            coords = coords_of(h, w)
            if coords is None:
                raise NotASubalgebra("subspace is not closed under the bracket")
            if any(x != 0 for x in coords):
                brackets[(i, j)] = coords
    return LieAlgebra.from_brackets(m, brackets)


def slice_preimage(algebra: LieAlgebra, h: Subspace, nu):
    """(C, P) of the restriction-map pre-image by lift and annihilate, in Fractions.

    The reference for ``preimage_construction``: nu and each unit covector of
    the greedy slice through nu transverse to h's coadjoint orbit lift to g*
    along h's basis and its greedy complement, and P = lambda + ann(ann(h) +
    span of the lifted slice covectors).  The orbit tangent is the row space
    of <lambda, [h_a, h_b]>, paired from Fraction brackets.
    """
    n, m = algebra.dim, h.dim
    rows = [*h.basis, *choose_complement(h).basis]

    def lift(mu):
        return fraction_solve(rows, n, vec(mu) + (Fraction(0),) * (n - m))

    lam = lift(nu)
    form = [[sum(x * y for x, y in zip(lam, fraction_bracket(algebra, a, b)))
             for b in h.basis] for a in h.basis]
    slice_dir = choose_complement(Subspace.span(m, fraction_rref(form, m)))
    c = AffineSubspace(algebra, h, lam)
    direction = c.direction.sum(Subspace.span(n, [lift(mu) for mu in slice_dir.basis]))
    return c, AffineSubspace(algebra, direction.annihilator(), lam)


class ExtensionCheckFailed(ValueError):
    """C failed ``unconditional_extend``'s coisotropy self-check inside P."""


def unconditional_extend(c, sampling):
    """``extend`` along the greedy complement R of TC + sharp N*C in g*, so
    p = ann(TC + R), on the caller's verdict, with the coisotropy self-check
    run every time, at the base and 8 samples of C: the reference for the
    ``extend`` that picks p inside h and rests on a verdict of at least 8
    samples alone."""
    verdict = pre_poisson_check(c, sampling)
    if verdict.kind == NOT_CONSTANT:
        found = [
            f"rank {x['rank']} at ({', '.join(map(str, x['point']))})"
            for x in verdict.counterexample
        ]
        raise RankNotConstant(f"rank differs between sampled points: {', '.join(found)}")
    r = choose_complement(c.span_at_base)
    p_tilde = AffineSubspace(c.algebra, c.direction.sum(r).annihilator(), c.base)
    ext = Extension(c, p_tilde, verdict.sampling)
    for x, ok in coisotropy_in_extension(ext, replace(sampling, count=8)):
        if not ok:
            raise ExtensionCheckFailed(f"C fails to be coisotropic in P at {x}")
    return ext


def complements_d_in_h(c, p) -> bool:
    """p + d = h directly, for d = ker B_h(base), in Fractions.

    p lies in h, and with B = B_h(base) and P the coordinates of p's basis on
    h's, rank P B = dim p = rank B: v -> B v is injective on p (p meets d in
    0), and dim p + dim d = dim h.
    """
    h, n = c.h, c.algebra.dim
    if len(fraction_rref([*h.basis, *p.basis], n)) != h.dim:
        return False
    form = [[sum(x * y for x, y in zip(c.base, fraction_bracket(c.algebra, a, b)))
             for b in h.basis]
            for a in h.basis]
    coords = [coords_of(h, v) for v in p.basis]
    on_p = [[sum(x * row[j] for x, row in zip(v, form)) for j in range(h.dim)] for v in coords]
    return len(fraction_rref(on_p, h.dim)) == p.dim == len(fraction_rref(form, h.dim))

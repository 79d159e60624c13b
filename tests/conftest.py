import importlib.util
import json
import random
import re
import sys
from dataclasses import replace
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

from lpl import LieAlgebra, Subspace, direct_sum
from lpl.cli import parse_model
from lpl.embedding import Extension, RankNotConstant, coisotropy_in_extension
from lpl.lie import NotASubalgebra
from lpl.lie_poisson import Polynomial
from lpl.linalg import (
    DimensionMismatch,
    choose_complement,
    mat,
    rref,
    solve,
    transpose,
    unit_vector,
    vec,
)
from lpl.submanifold import NOT_CONSTANT, AffineSubspace, SkewPencil, _pencil, pre_poisson_check

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


def bracket_table(algebra: LieAlgebra):
    """table[i][j] = coordinates of [e_i, e_j], one basis bracket per cell."""
    n = algebra.dim
    e = [unit_vector(n, i) for i in range(n)]
    return tuple(tuple(algebra.bracket(e[i], e[j]) for j in range(n)) for i in range(n))


def sl2_h(sl2: LieAlgebra) -> Subspace:
    return Subspace.span(3, [[1, 0, 0], [0, 1, -1]])


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
        w = c.algebra.bracket(basis[a], basis[b])
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


def per_term_parse(text, nvars):
    """The construction parse_polynomial replaced: one Polynomial + per term, a Fraction per factor."""
    factor_re = re.compile(r"^nu(\d+)(?:\^(\d+))?$")
    stripped = text.replace(" ", "")
    chunks = re.findall(r"[+-]?[^+-]+", stripped)
    result = Polynomial.zero(nvars)
    for chunk in chunks:
        coeff, body = Fraction(1), chunk
        if body[0] in "+-":
            coeff, body = Fraction(-1 if body[0] == "-" else 1), body[1:]
        expo = [0] * nvars
        for factor in body.split("*"):
            m = factor_re.match(factor)
            if m:
                expo[int(m.group(1)) - 1] += int(m.group(2) or 1)
            else:
                coeff *= Fraction(factor)
        result = result + Polynomial(nvars, {tuple(expo): coeff})
    return result


def term_by_term_add(p: Polynomial, q: Polynomial) -> Polynomial:
    """The Polynomial.__add__ that lpl replaced: a Fraction sum per term, rechecked by __init__."""
    out = dict(p.terms)
    for expo, c in q.terms.items():
        out[expo] = out.get(expo, Fraction(0)) + c
    return Polynomial(p.nvars, out)


def term_by_term_mul(p: Polynomial, q: Polynomial) -> Polynomial:
    """The Polynomial.__mul__ that lpl replaced: a Fraction product per pair of terms and
    an exponent tuple by zip, the result rechecked by __init__."""
    out = {}
    for ea, ca in p.terms.items():
        for eb, cb in q.terms.items():
            expo = tuple(a + b for a, b in zip(ea, eb))
            out[expo] = out.get(expo, Fraction(0)) + ca * cb
    return Polynomial(p.nvars, out)


def term_by_term_str(p: Polynomial) -> str:
    """The printer Polynomial.__str__ replaced: signs and magnitudes from Fraction comparisons."""
    if not p.terms:
        return "0"
    pieces = []
    for expo, coeff in sorted(p.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True):
        factors = [f"nu{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(expo) if e > 0]
        if not factors:
            body = str(abs(coeff))
        elif abs(coeff) == 1:
            body = "*".join(factors)
        else:
            body = str(abs(coeff)) + "*" + "*".join(factors)
        pieces.append(("-" if coeff < 0 else "+", body))
    first_sign, first_body = pieces[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in pieces[1:]:
        text += f" {sign} {body}"
    return text


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
        (i, j): solve(columns, n, algebra.bracket(basis[i], basis[j]))
        for i in range(n)
        for j in range(i + 1, n)
    }
    return LieAlgebra.from_brackets(n, brackets)


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
            w = algebra.bracket(h.basis[i], h.basis[j])
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
        return solve(rows, n, vec(mu) + (Fraction(0),) * (n - m))

    lam = lift(nu)
    form = [[sum(x * y for x, y in zip(lam, algebra.bracket(a, b))) for b in h.basis]
            for a in h.basis]
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
        raise RankNotConstant(f"rank differs between sampled points: {verdict.counterexample}")
    r = choose_complement(c.span_at_base)
    p_tilde = AffineSubspace(c.algebra, c.direction.sum(r).annihilator(), c.base)
    ext = Extension(c, p_tilde, verdict.sampling)
    for t, ok in coisotropy_in_extension(ext, replace(sampling, count=8)):
        if not ok:
            raise ExtensionCheckFailed(f"C fails to be coisotropic in P at {c.point_at(t)}")
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
    form = [[sum(x * y for x, y in zip(c.base, c.algebra.bracket(a, b))) for b in h.basis]
            for a in h.basis]
    coords = [coords_of(h, v) for v in p.basis]
    on_p = [[sum(x * row[j] for x, row in zip(v, form)) for j in range(h.dim)] for v in coords]
    return len(fraction_rref(on_p, h.dim)) == p.dim == len(fraction_rref(form, h.dim))

"""Affine subspaces C = lambda + h-annihilator of a Lie-Poisson dual.

Classification into coisotropic / pre-Poisson / Poisson-Dirac / cosymplectic.
The conormal space of C at every point is canonically the defining subspace h,
and sharp N*_x C is the span of coad_v(x) over v in h.  Modulo T_x C = ann(h)
that span is the row space of the skew matrix B_h(x)_ab = <x, [h_a, h_b]>, so
rank(T_x C + sharp N*_x C) = codim h + rank B_h(x).  B_h is affine in x: along
C it is the pencil B0 + sum_a t_a B_a, built once per C.

Coisotropy and the subalgebra-case pre-Poisson verdict are exact theorems;
for non-subalgebra h the rank-constancy verdict is evidence from exact
rational sample points and is labelled as such.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Optional, Sequence

from .lie import LieAlgebra, LinearMap, NotASubalgebra, direct_sum, is_subalgebra, subspace_bracket
from .linalg import (
    ZERO,
    DimensionMismatch,
    InvariantViolation,
    Matrix,
    Subspace,
    Vector,
    choose_complement,
    dot,
    integer_rank,
    rank,
    solve,
    unit_vector,
    vec,
    vscale,
    vsub,
    zero_vector,
)

CERTIFIED_CONSTANT = "certified_constant"
SAMPLED_CONSTANT = "sampled_constant"
NOT_CONSTANT = "not_constant"


class NotOnSubmanifold(ValueError):
    """A point that was required to lie on the affine subspace does not."""


@dataclass(frozen=True)
class SampleSpec:
    """Deterministic exact sampling: seeded rationals with small numerators."""

    count: int = 64
    seed: int = 0
    bound: int = 1000

    def rationals(self, how_many: int) -> list[Fraction]:
        rng = random.Random(self.seed)
        return [
            Fraction(rng.randint(-self.bound, self.bound), rng.randint(1, self.bound))
            for _ in range(how_many)
        ]


@dataclass(frozen=True)
class AffineSubspace:
    """C = base + annihilator(h) inside the dual of ``algebra``."""

    algebra: LieAlgebra
    h: Subspace
    base: Vector

    def __post_init__(self):
        if self.h.ambient_dim != self.algebra.dim:
            raise DimensionMismatch("defining subspace must live in the algebra")
        if len(self.base) != self.algebra.dim:
            raise DimensionMismatch("base point must have the algebra dimension")
        object.__setattr__(self, "base", vec(self.base))

    @cached_property
    def direction(self) -> Subspace:
        return self.h.annihilator()

    @property
    def dim(self) -> int:
        return self.algebra.dim - self.h.dim

    def contains(self, x: Iterable) -> bool:
        return self.direction.contains_vector(vsub(vec(x), self.base))

    def require_point(self, x: Iterable) -> Vector:
        xv = vec(x)
        if not self.contains(xv):
            raise NotOnSubmanifold(f"point {xv} is not on the affine subspace")
        return xv

    def point_at(self, t: Sequence[Fraction]) -> Vector:
        """base + sum t_a u_a over the canonical basis u of the direction."""
        x = list(self.base)
        for ta, u in zip(t, self.direction.basis):
            for j, uj in enumerate(u):
                if uj:
                    x[j] += ta * uj
        return tuple(x)

    def sample_coefficients(self, sampling: SampleSpec) -> list[Sequence[Fraction]]:
        """The seeded coordinates t of ``sampling.count`` points along C."""
        d = self.direction.dim
        if not d:
            return [() for _ in range(min(sampling.count, 1))]
        coeffs = sampling.rationals(sampling.count * d)
        return [coeffs[s * d : (s + 1) * d] for s in range(sampling.count)]

    def sample_points(self, sampling: SampleSpec) -> list[Vector]:
        """``sampling.count`` exact points base + sum t_a u_a, seed-determined."""
        return [self.point_at(t) for t in self.sample_coefficients(sampling)]


def sharp_conormal_at(c: AffineSubspace, x: Iterable) -> Subspace:
    """sharp N*_x C = span of coad_v(x) over a basis v of h (x must lie on C)."""
    xv = c.require_point(x)
    images = [c.algebra.coad_apply(v, xv) for v in c.h.basis]
    return Subspace.span(c.algebra.dim, images)


@dataclass(frozen=True)
class CoisotropyResult:
    coisotropic: bool
    # On failure: ("bracket_escapes", u, v, [u,v]) when h is not a subalgebra,
    # or ("character_fails", w) for w in [h,h] with <lambda, w> != 0.
    witness: Optional[tuple] = None

    def __bool__(self) -> bool:
        return self.coisotropic


def is_coisotropic(c: AffineSubspace) -> CoisotropyResult:
    """Exact verdict: h is a subalgebra and lambda kills [h, h]."""
    algebra, h = c.algebra, c.h
    for i, u in enumerate(h.basis):
        for v in h.basis[i + 1 :]:
            w = algebra.bracket(u, v)
            if not h.contains_vector(w):
                return CoisotropyResult(False, ("bracket_escapes", u, v, w))
    for u in subspace_bracket(algebra, h, h).basis:
        if dot(c.base, u) != 0:
            return CoisotropyResult(False, ("character_fails", u))
    return CoisotropyResult(True)


@dataclass(frozen=True)
class PrePoissonVerdict:
    kind: str  # CERTIFIED_CONSTANT | SAMPLED_CONSTANT | NOT_CONSTANT
    rank: Optional[int] = None
    space: Optional[Subspace] = None  # the constant space, certified case only
    counterexample: Optional[tuple[tuple[Vector, int], tuple[Vector, int]]] = None
    samples: int = 0
    seed: Optional[int] = None

    @property
    def constant(self) -> bool:
        return self.kind != NOT_CONSTANT


@dataclass(frozen=True)
class SkewPencil:
    """The form <x, [v_a, w_b]> at x = base + sum_i t_i u_i, as B0 + sum_i t_i B_i.

    Rows v and columns w; with no column basis w = v, the form is skew and
    only the entries a < b are stored.  Each entry is the B0 entry
    <base, [v_a, w_b]> and the nonzero B_i entries (i, <u_i, [v_a, w_b]>),
    all multiplied by the common denominator D, so they are integers.
    """

    nrows: int
    ncols: int
    skew: bool
    denominator: int
    entries: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]

    def _integer_form(self, t: Sequence[Fraction]) -> tuple[list[list[int]], int]:
        """L * D times the form at t, where L is the lcm of t's denominators; and L."""
        scale = lcm(*(ti.denominator for ti in t))
        tn = [ti.numerator * (scale // ti.denominator) for ti in t]
        values = (scale * b0 + sum(tn[i] * b for i, b in terms) for b0, terms in self.entries)
        if not self.skew:
            return [[next(values) for _ in range(self.ncols)] for _ in range(self.nrows)], scale
        m = self.nrows
        form = [[0] * m for _ in range(m)]
        for a in range(m):
            row = form[a]
            for b in range(a + 1, m):
                value = next(values)
                row[b], form[b][a] = value, -value
        return form, scale

    def at(self, t: Sequence[Fraction]) -> Matrix:
        """The form at the point with direction coordinates t."""
        form, scale = self._integer_form(t)
        d = scale * self.denominator
        return tuple(tuple(Fraction(e, d) if e else ZERO for e in row) for row in form)

    def rank_at(self, t: Sequence[Fraction]) -> int:
        """The rank at t, from the integer form: L * D > 0 does not change it."""
        form, _ = self._integer_form(t)
        return integer_rank(form, self.ncols)


def _pencil(
    c: AffineSubspace,
    nrows: int,
    ncols: int,
    skew: bool,
    supports: Iterable[Sequence[tuple[int, Fraction]]],
) -> SkewPencil:
    """The pencil whose entries pair C's base and directions with brackets.

    Each bracket is given by its nonzero (k, coordinate) pairs, in entry order.
    """
    vectors = (c.base, *c.direction.basis)
    raw = []
    for support in supports:
        constant, *pairings = (sum((v[k] * e for k, e in support), ZERO) for v in vectors)
        raw.append((constant, [(i, e) for i, e in enumerate(pairings) if e]))
    d = lcm(*(e.denominator for b0, terms in raw for e in [b0, *(b for _, b in terms)]))

    def scaled(e: Fraction) -> int:
        return e.numerator * (d // e.denominator)

    entries = tuple(
        (scaled(constant), tuple((i, scaled(e)) for i, e in terms)) for constant, terms in raw
    )
    return SkewPencil(nrows, ncols, skew, d, entries)


def _support(v: Vector) -> list[tuple[int, Fraction]]:
    return [(k, e) for k, e in enumerate(v) if e]


def skew_pencil(
    c: AffineSubspace, basis: Sequence[Vector], columns: Optional[Sequence[Vector]] = None
) -> SkewPencil:
    """The pencil of <x, [v_a, w_b]> along C, one bracket per entry.

    v runs over ``basis`` and w over ``columns``; without columns w = v and
    the pencil is skew.
    """
    bracket = c.algebra.bracket
    if columns is None:
        supports = (
            _support(bracket(v, w)) for a, v in enumerate(basis) for w in basis[a + 1 :]
        )
        return _pencil(c, len(basis), len(basis), True, supports)
    supports = (_support(bracket(v, w)) for v in basis for w in columns)
    return _pencil(c, len(basis), len(columns), False, supports)


def bivector_pencil(c: AffineSubspace) -> SkewPencil:
    """Pi(x)_ij = <x, [e_i, e_j]> along C, read from the structure constants."""
    n = c.algebra.dim
    rows = [dict(row) for row in c.algebra.structure]
    supports = (rows[i].get(j, ()) for i in range(n) for j in range(i + 1, n))
    return _pencil(c, n, n, True, supports)


def pre_poisson_check(
    c: AffineSubspace, sampling: SampleSpec = SampleSpec()
) -> PrePoissonVerdict:
    """Constancy of rank(T_x C + sharp N*_x C) = codim h + rank B_h(x) along C.

    When h is a subalgebra the space equals h-annihilator + coad_h(base) at
    every point, which is a proved certificate, not sampled evidence.
    Otherwise rank B_h is compared at the base point and at seeded exact
    sample points, evaluating the skew pencil of B_h along C.
    """
    if is_subalgebra(c.algebra, c.h):
        space = c.direction.sum(sharp_conormal_at(c, c.base))
        return PrePoissonVerdict(CERTIFIED_CONSTANT, rank=space.dim, space=space)
    pencil = skew_pencil(c, c.h.basis)
    codim = c.direction.dim
    base_rank = codim + pencil.rank_at(zero_vector(codim))
    for t in c.sample_coefficients(sampling):
        r = codim + pencil.rank_at(t)
        if r != base_rank:
            return PrePoissonVerdict(
                NOT_CONSTANT,
                counterexample=((c.base, base_rank), (c.point_at(t), r)),
                samples=sampling.count,
                seed=sampling.seed,
            )
    return PrePoissonVerdict(
        SAMPLED_CONSTANT, rank=base_rank, samples=sampling.count, seed=sampling.seed
    )


@dataclass(frozen=True)
class PointwiseFlags:
    characteristic_rank: int
    poisson_dirac: bool
    cosymplectic: bool


def pointwise_flags(c: AffineSubspace, x: Iterable) -> PointwiseFlags:
    """Characteristic rank, Poisson-Dirac and cosymplectic tests at x in C.

    Let S be the rows coad_{h_a}(x), so sharp N*_x C is the row space of S,
    and B_h(x) = S H^T, i.e. <x, [h_a, h_b]>.  A vector of that row space lies
    in T_x C = ann(h) iff H kills it, so
    dim(T_x C cap sharp N*_x C) = rank S - rank B_h(x),
    and T_x C + sharp N*_x C = g* directly iff rank B_h(x) = dim h.
    """
    xv = c.require_point(x)
    s = [c.algebra.coad_apply(v, xv) for v in c.h.basis]
    form_rank = rank([[dot(row, w) for w in c.h.basis] for row in s], c.h.dim)
    char_rank = rank(s, c.algebra.dim) - form_rank
    return PointwiseFlags(char_rank, char_rank == 0, form_rank == c.h.dim)


@dataclass(frozen=True)
class ClassificationReport:
    coisotropic: CoisotropyResult
    pre_poisson: PrePoissonVerdict
    generic_rank: int
    characteristic_rank_at_base: int
    poisson_dirac_at_base: bool
    cosymplectic_at_base: bool


def classify(c: AffineSubspace, sampling: SampleSpec = SampleSpec()) -> ClassificationReport:
    coiso = is_coisotropic(c)
    pp = pre_poisson_check(c, sampling)
    if pp.rank is not None:
        generic = pp.rank
    else:
        generic = max(pp.counterexample[0][1], pp.counterexample[1][1])
    flags = pointwise_flags(c, c.base)
    return ClassificationReport(
        coisotropic=coiso,
        pre_poisson=pp,
        generic_rank=generic,
        characteristic_rank_at_base=flags.characteristic_rank,
        poisson_dirac_at_base=flags.poisson_dirac,
        cosymplectic_at_base=flags.cosymplectic,
    )


# -- restriction-map preimages ---------------------------------------------


def _lift_covector(rows: list[Vector], nu: Vector, h_dim: int, n: int) -> Vector:
    rhs = tuple(nu) + zero_vector(n - h_dim)
    lam = solve(tuple(rows), rhs)
    if lam is None:
        raise InvariantViolation("lifting rows do not form a basis of the algebra")
    return lam


def restricted_algebra(algebra: LieAlgebra, h: Subspace) -> LieAlgebra:
    """h as a Lie algebra in its canonical basis; requires h a subalgebra."""
    m = h.dim
    brackets = {}
    for i in range(m):
        for j in range(i + 1, m):
            w = algebra.bracket(h.basis[i], h.basis[j])
            coords = h.coords_of(w)
            if coords is None:
                raise NotASubalgebra("subspace is not closed under the bracket")
            if any(x != 0 for x in coords):
                brackets[(i, j)] = coords
    return LieAlgebra.from_brackets(m, brackets)


def preimage_construction(
    algebra: LieAlgebra,
    h: Subspace,
    nu: Iterable,
    with_slice: bool = False,
) -> tuple[AffineSubspace, Optional[AffineSubspace]]:
    """Pre-image of a point nu in h* under the restriction map g* -> h*.

    Returns C = lambda + h-annihilator for the canonical lift lambda of nu
    (zero on the greedy complement of h).  With ``with_slice`` also returns
    the pre-image of the greedy slice through nu transverse to the coadjoint
    orbit of the subalgebra, which contains C coisotropically.
    """
    if not is_subalgebra(algebra, h):
        raise NotASubalgebra("preimage construction requires a subalgebra")
    n = algebra.dim
    nu_v = vec(nu)
    if len(nu_v) != h.dim:
        raise DimensionMismatch("nu must be a covector on the subalgebra")
    rows = list(h.basis) + list(choose_complement(h, Subspace.full(n)).basis)
    lam = _lift_covector(rows, nu_v, h.dim, n)
    c = AffineSubspace(algebra, h, lam)
    if not with_slice:
        return c, None
    sub = restricted_algebra(algebra, h)
    orbit_tangent = Subspace.span(
        h.dim, [sub.coad_apply(unit_vector(h.dim, i), nu_v) for i in range(h.dim)]
    )
    slice_dir = choose_complement(orbit_tangent, Subspace.full(h.dim))
    lifted = [_lift_covector(rows, mu, h.dim, n) for mu in slice_dir.basis]
    direction = c.direction.sum(Subspace.span(n, lifted))
    p_tilde = AffineSubspace(algebra, direction.annihilator(), lam)
    return c, p_tilde


# -- graphs and products ----------------------------------------------------


def graph_coisotropy(phi: LinearMap) -> tuple[Subspace, bool]:
    """Coisotropy of the graph of the dual map, at the linear level.

    For phi: h -> g the graph of phi* in g* x h* is the annihilator of
    W = {(-phi(w), w)} inside the product algebra with the bar (sign -1)
    second factor; the graph is coisotropic iff W is a subalgebra there.
    """
    g, h = phi.codomain, phi.domain
    product_algebra = direct_sum(g, h, sign=-1)
    generators = []
    for j in range(h.dim):
        e_j = unit_vector(h.dim, j)
        generators.append(vscale(-1, phi.apply(e_j)) + e_j)
    w = Subspace.span(g.dim + h.dim, generators)
    return w, is_subalgebra(product_algebra, w)


def product(c1: AffineSubspace, c2: AffineSubspace) -> AffineSubspace:
    """C1 x C2 inside the dual of the (sign +1) direct sum algebra."""
    algebra = direct_sum(c1.algebra, c2.algebra, sign=1)
    n1, n2 = c1.algebra.dim, c2.algebra.dim
    generators = [v + zero_vector(n2) for v in c1.h.basis] + [
        zero_vector(n1) + v for v in c2.h.basis
    ]
    h = Subspace.span(n1 + n2, generators)
    return AffineSubspace(algebra, h, c1.base + c2.base)

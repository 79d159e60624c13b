"""Affine subspaces C = lambda + h-annihilator of a Lie-Poisson dual.

Classification into coisotropic / pre-Poisson / Poisson-Dirac / cosymplectic.
The conormal space of C at every point is canonically the defining subspace h,
and sharp N*_x C is the span of coad_v(x) over v in h.  Modulo T_x C = ann(h)
that span is the row space of the skew matrix B_h(x)_ab = <x, [h_a, h_b]>, so
rank(T_x C + sharp N*_x C) = codim h + rank B_h(x).  B_h is affine in x: along
C it is the pencil B0 + sum_a t_a B_a, built once per C (``AffineSubspace.form``):
C is coisotropic iff it vanishes, pre-Poisson iff its rank is constant, and
cosymplectic at x iff B_h(x) is nondegenerate.

Coisotropy and the subalgebra-case pre-Poisson verdict are exact theorems;
for non-subalgebra h the rank-constancy verdict is evidence from seeded
integer sample points (``AffineSubspace.walk``), and the verdict carries
the SampleSpec it rests on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .lie import LieAlgebra, LinearMap, NotASubalgebra, direct_sum, is_subalgebra, subspace_bracket
from .linalg import (
    ZERO,
    DimensionMismatch,
    InvariantViolation,
    Subspace,
    Vector,
    _skew_eliminate_many,
    choose_complement,
    dot,
    integer_rank,
    integer_rows,
    rank,
    skew_rank,
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

# The most points ``SkewPencil.ranks_along`` ranks in one batch, which bounds
# its memory on a long walk.
WALK_CHUNK = 256


class NotOnSubmanifold(ValueError):
    """A point that was required to lie on the affine subspace does not."""


class IntegerPoint(NamedTuple):
    """Direction coordinates t_a = numerators[a] / denominator, kept as integers."""

    denominator: int
    numerators: tuple[int, ...]

    @staticmethod
    def origin(dim: int) -> "IntegerPoint":
        """t = 0: the base point."""
        return IntegerPoint(1, (0,) * dim)


@dataclass(frozen=True)
class SampleSpec:
    """Deterministic exact sampling: seeded integer coordinates n, |n| <= bound."""

    count: int = 64
    seed: int = 0
    bound: int = 1000

    def points(self, dim: int) -> list[IntegerPoint]:
        """``count`` seeded points of ``dim`` integer coordinates, each over 1.

        Each coordinate is the one randint(-bound, bound) draws from the seeded
        stream: CPython's rejection sampling, k = n.bit_length() random bits for
        a range of n values, redrawn until below n.
        """
        if self.bound < 1:
            raise ValueError(f"sample bound must be at least 1, got {self.bound}")
        bits = random.Random(self.seed).getrandbits
        spread, bound = 2 * self.bound + 1, self.bound
        k = spread.bit_length()
        points = []
        for _ in range(self.count):
            ns = []
            for _ in range(dim):
                n = bits(k)
                while n >= spread:
                    n = bits(k)
                ns.append(n - bound)
            points.append(IntegerPoint(1, tuple(ns)))
        return points


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
        if xv != self.base and not self.contains(xv):  # the base lies on C
            raise NotOnSubmanifold(f"point {xv} is not on the affine subspace")
        return xv

    @cached_property
    def _integer_frame(self) -> tuple[int, list[list[tuple[int, int]]]]:
        """T, and the nonzero (j, T v_j) of the base, then of each direction basis vector.

        T is the lcm of those vectors' denominators, so the T v_j are integers.
        """
        return _scaled_supports((self.base, *self.direction.basis))

    def point_at(self, point: IntegerPoint) -> Vector:
        """base + sum t_a u_a over the canonical basis u of the direction.

        With t_a = n_a / L, the point is (L T base + sum_a n_a T u_a) / (L T):
        integers until one Fraction per coordinate.
        """
        scale, numerators = point
        frame, rows = self._integer_frame
        x = [0] * len(self.base)
        for na, row in zip((scale, *numerators), rows):
            if na:
                for j, e in row:
                    x[j] += na * e
        d = scale * frame
        return tuple(Fraction(s, d) if s else ZERO for s in x)

    @cached_property
    def coad_rows_at_base(self) -> list[list[int]]:
        """coad_{h_a}(base) over the canonical basis h_a of h, built once for every reader."""
        return _coad_rows_at(self, self.base)

    @cached_property
    def span_at_base(self) -> Subspace:
        """T_base C + sharp N*_base C: ann(h) and the coad_v(base) over v in h, in one span."""
        rows = self.direction.integer_echelon[1] + self.coad_rows_at_base
        return Subspace.integer_span(self.algebra.dim, rows)

    @cached_property
    def form(self) -> "SkewPencil":
        """B_h(x) = <x, [h_a, h_b]> along C, as a pencil over the direction basis."""
        return skew_pencil(self, self.h.basis)

    def walk(self, sampling: SampleSpec) -> tuple[list[IntegerPoint], Optional[SampleSpec]]:
        """The base, then ``sampling``'s points, and that sampling; a point C is its base alone."""
        d = self.direction.dim
        if not d:
            return [IntegerPoint.origin(0)], None
        return [IntegerPoint.origin(d)] + sampling.points(d), sampling

    def sample_points(self, sampling: SampleSpec) -> list[Vector]:
        """The walk's samples as exact points base + sum t_a u_a; a point C has only its base."""
        points, drawn = self.walk(sampling)
        return [self.point_at(t) for t in points[1:]] if drawn else [self.base][: sampling.count]


def sharp_conormal_at(c: AffineSubspace, x: Iterable) -> Subspace:
    """sharp N*_x C = span of coad_v(x) over a basis v of h (x must lie on C), in integers."""
    return Subspace.integer_span(c.algebra.dim, _coad_rows_at(c, c.require_point(x)))


def _coad_rows_at(c: AffineSubspace, x: Vector) -> list[list[int]]:
    """coad_{h_a}(x) for the canonical basis h_a of h, all times one positive integer."""
    (scaled,) = integer_rows([x], c.algebra.dim)
    return c.algebra.integer_coad(c.h.integer_echelon[1], scaled)


@dataclass(frozen=True)
class CoisotropyResult:
    coisotropic: bool
    # On failure: ("bracket_escapes", u, v, [u,v]) when h is not a subalgebra,
    # or ("character_fails", w) for w in [h,h] with <lambda, w> != 0.
    witness: Optional[tuple] = None

    def __bool__(self) -> bool:
        return self.coisotropic


def is_coisotropic(c: AffineSubspace) -> CoisotropyResult:
    """Exact verdict: B_h = 0 along C, i.e. h is a subalgebra and lambda kills [h, h].

    Entry (a, b) of some B_i is nonzero iff [h_a, h_b] escapes h.
    """
    form, basis = c.form, c.h.basis
    escaping = [k for terms in form.directions for k, _ in terms]
    if escaping:
        u, v = (basis[i] for i in form.cells[min(escaping)])
        return CoisotropyResult(False, ("bracket_escapes", u, v, c.algebra.bracket(u, v)))
    if any(form.base):
        w = next(w for w in subspace_bracket(c.algebra, c.h, c.h).basis if dot(c.base, w))
        return CoisotropyResult(False, ("character_fails", w))
    return CoisotropyResult(True)


@dataclass(frozen=True)
class PrePoissonVerdict:
    kind: str  # CERTIFIED_CONSTANT | SAMPLED_CONSTANT | NOT_CONSTANT
    rank: Optional[int] = None
    counterexample: Optional[tuple[tuple[Vector, int], tuple[Vector, int]]] = None
    sampling: Optional[SampleSpec] = None  # the sample points it rests on; None when certified


@dataclass(frozen=True)
class SkewPencil:
    """The skew form <x, [v_a, v_b]> at x = base + sum_i t_i u_i, as B0 + sum_i t_i B_i.

    Of its ``size`` by ``size`` entries only those a < b are stored.  Entry k is
    ``cells[k]``, times the common denominator D: ``base[k]`` of D B0, and
    ``directions[i]`` holds the (k, value) pairs of the nonzero entries of
    D B_i.  It is read in integers only: ranked by ``rank_at`` at one point or
    by ``ranks_along`` at many, and written out in full at the base by
    ``base_rows``.
    """

    size: int
    denominator: int
    base: tuple[int, ...]
    directions: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def constant(self) -> bool:
        """True iff no B_i has a nonzero entry: the form is B0 at every point."""
        return not any(self.directions)

    @property
    def cells(self) -> tuple[tuple[int, int], ...]:
        """The entry (a, b) that each stored index k stands for."""
        return _layout(self.size)[0]

    def base_rows(self) -> list[list[int]]:
        """D B0, the form at the base times D, as integer rows with every entry filled in."""
        rows = [[0] * self.size for _ in range(self.size)]
        for (a, b), e in zip(self.cells, self.base):
            rows[a][b], rows[b][a] = e, -e
        return rows

    def _integer_at(self, point: IntegerPoint) -> list[list[int]]:
        """L D (B0 + sum_i t_i B_i) = L (D B0) + sum_i n_i (D B_i) at t = n / L, as the
        integer rows of its strict upper triangle."""
        scale, numerators = point
        flat = [scale * b for b in self.base] if scale != 1 else list(self.base)
        for n, terms in zip(numerators, self.directions):
            if n:
                for k, b in terms:
                    flat[k] += n * b
        return [flat[i:j] for i, j in _layout(self.size)[1]]

    def rank_at(self, point: IntegerPoint) -> int:
        """The rank at t = n / L: that of the rows of ``_integer_at``, as L D > 0."""
        return skew_rank(self._integer_at(point), self.size)

    def ranks_along(
        self, points: Sequence[IntegerPoint], lead: int = 0
    ) -> Iterator[tuple[int, int]]:
        """The rank at each point t = n / L, and the rank of the first ``lead`` rows there.

        The points are ranked ``WALK_CHUNK`` at a time, each chunk by one
        ``_skew_eliminate_many`` on the cells of ``_integer_at`` at every
        point of it.  A pivot at the pencil's indices (k, l) adds
        (k < lead) + (l < lead) to the second rank (README, "Orbit dimension").
        """
        for start in range(0, len(points), WALK_CHUNK):
            chunk = points[start : start + WALK_CHUNK]
            for pivots, _ in _skew_eliminate_many(self._cells_along(chunk), len(chunk)):
                split = 0
                if lead:
                    index = list(range(self.size))  # the pencil's index of each row left
                    for i, j in pivots:
                        split += (index[i] < lead) + (index[j] < lead)
                        del index[j], index[: i + 1]
                yield 2 * len(pivots), split

    def _cells_along(self, points: Sequence[IntegerPoint]) -> list[list[list[int]]]:
        """``_integer_at`` at every point, each cell the list of its values there."""
        scales = [scale for scale, _ in points]
        zeros = [0] * len(points)
        flat = [[b * s for s in scales] if b else zeros for b in self.base]
        for i, terms in enumerate(self.directions):
            if terms:
                ns = [numerators[i] for _, numerators in points]
                for k, b in terms:
                    flat[k] = [x + n * b for x, n in zip(flat[k], ns)]
        return [flat[i:j] for i, j in _layout(self.size)[1]]


@lru_cache(maxsize=256)
def _layout(m: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """An m by m pencil's stored entries (a, b), b > a, and each row's (start, stop)."""
    cells, bounds = [], []
    for a in range(m):
        start = len(cells)
        cells += [(a, b) for b in range(a + 1, m)]
        bounds.append((start, len(cells)))
    return tuple(cells), tuple(bounds)


def _scaled_supports(vectors: Sequence[Vector]) -> tuple[int, list[list[tuple[int, int]]]]:
    """S, and the nonzero (j, S v_j) of each vector: S is the lcm of all their denominators."""
    s = lcm(*(e.denominator for v in vectors for e in v))
    return s, [
        [(j, e.numerator * (s // e.denominator)) for j, e in enumerate(v) if e] for v in vectors
    ]


def _pencil(
    c: AffineSubspace, m: int, scale: int, supports: Iterable[Sequence[tuple[int, int]]]
) -> SkewPencil:
    """The m by m pencil whose entries pair C's base and directions with brackets.

    Each bracket is given by the nonzero (k, coordinate) pairs of ``scale``
    times it, all integers, one per entry of ``SkewPencil.cells`` in its
    order.  With C's vectors times T, every entry is
    an integer E over Q = T * scale.  Dividing Q and every E by their gcd g
    gives D = Q / g, the lcm of the entries' reduced denominators, and the
    entries times D.
    """
    t, vectors = c._integer_frame
    # The nonzero (i, v_i[k]) of each coordinate k, so a pairing multiplies
    # nonzero entries only.
    by_coordinate = [[] for _ in c.base]
    for i, row in enumerate(vectors):
        for k, e in row:
            by_coordinate[k].append((i, e))
    terms = [[] for _ in vectors]  # (cell index, pairing) per vector
    for cell, support in enumerate(supports):
        pairings = [0] * len(vectors)
        for k, e in support:
            for i, vk in by_coordinate[k]:
                pairings[i] += vk * e
        for i, e in enumerate(pairings):
            if e:
                terms[i].append((cell, e))
    q = t * scale
    g = gcd(q, *(e for row in terms for _, e in row))
    base = [0] * len(_layout(m)[0])
    for k, e in terms[0]:
        base[k] = e // g
    directions = tuple(tuple((k, e // g) for k, e in row) for row in terms[1:])
    return SkewPencil(m, q // g, tuple(base), directions)


def skew_pencil(c: AffineSubspace, basis: Sequence[Vector]) -> SkewPencil:
    """The pencil of <x, [v_a, v_b]> along C, v over ``basis``, one integer bracket per
    entry: that of S v_a and S v_b over the integer structure constants, S the lcm of
    the basis's denominators."""
    ds = c.algebra.integer_structure[0]
    s, rows = _scaled_supports(basis)
    ws = [dict(w) for w in rows]
    pairs = ((v, w) for a, v in enumerate(rows) for w in ws[a + 1 :])
    supports = (c.algebra.integer_bracket(v, w) for v, w in pairs)
    return _pencil(c, len(rows), ds * s * s, supports)


def pre_poisson_check(
    c: AffineSubspace, sampling: SampleSpec = SampleSpec()
) -> PrePoissonVerdict:
    """Constancy of rank(T_x C + sharp N*_x C) = codim h + rank B_h(x) along C.

    B_i = <u_i, [h_a, h_b]> over the basis u_i of ann(h), so the pencil of
    B_h has no B_i exactly when every [h_a, h_b] lies in ann(ann(h)) = h:
    when h is a subalgebra.  Then B_h(x) = B_h(base) at every point, so the
    rank at the base is a proved certificate, not sampled evidence; the
    verdict carries that rank only (``AffineSubspace.span_at_base`` is the
    space).  Otherwise rank B_h at the base point is compared with its rank
    at seeded exact sample points, which the pencil along C ranks a chunk at
    a time (``SkewPencil.ranks_along``).  The counterexample is the first
    sample in walk order whose rank differs; the walk stops after the chunk
    that holds it.
    """
    pencil, codim = c.form, c.direction.dim
    base_rank = codim + pencil.rank_at(IntegerPoint.origin(codim))
    if pencil.constant:
        return PrePoissonVerdict(CERTIFIED_CONSTANT, rank=base_rank)
    (_, *samples), sampling = c.walk(sampling)
    for t, (form_rank, _) in zip(samples, pencil.ranks_along(samples)):
        r = codim + form_rank
        if r != base_rank:
            return PrePoissonVerdict(
                NOT_CONSTANT,
                counterexample=((c.base, base_rank), (c.point_at(t), r)),
                sampling=sampling,
            )
    return PrePoissonVerdict(SAMPLED_CONSTANT, rank=base_rank, sampling=sampling)


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
    # Exact only for a certified verdict; otherwise the larger of the ranks the
    # sampled verdict compared, a lower bound on the generic rank (README, "Provenance").
    generic_rank: int
    characteristic_rank_at_base: int
    poisson_dirac_at_base: bool
    cosymplectic_at_base: bool


def classify(c: AffineSubspace, sampling: SampleSpec = SampleSpec()) -> ClassificationReport:
    """All four classes, and ``pointwise_flags`` at the base.

    The verdict's rank at the base is codim h + rank B_h(base), so the rank of
    the form at the base is read from it, not ranked again.
    """
    coiso = is_coisotropic(c)
    pp = pre_poisson_check(c, sampling)
    ranks = [pp.rank] if pp.rank is not None else [r for _, r in pp.counterexample]
    form_rank = ranks[0] - c.direction.dim
    char_rank = integer_rank(c.coad_rows_at_base, c.algebra.dim) - form_rank
    return ClassificationReport(
        coisotropic=coiso,
        pre_poisson=pp,
        generic_rank=max(ranks),
        characteristic_rank_at_base=char_rank,
        poisson_dirac_at_base=char_rank == 0,
        cosymplectic_at_base=form_rank == c.h.dim,
    )


# -- restriction-map preimages ---------------------------------------------


def preimage_construction(
    algebra: LieAlgebra,
    h: Subspace,
    nu: Iterable,
) -> tuple[AffineSubspace, AffineSubspace]:
    """Pre-image of a point nu in h* under the restriction map g* -> h*.

    Returns C = lambda + h-annihilator for the canonical lift lambda of nu
    (zero on the greedy complement of h), and P, the pre-image of the greedy
    slice through nu transverse to the coadjoint orbit of the subalgebra,
    which contains C coisotropically.  The slice is spanned by unit covectors
    e_j of h*, j in J, so P = lambda + ann(p) for the rows h_a of h's canonical
    basis with a not in J: a conormal p inside h, as ``extend`` builds it.
    """
    if not is_subalgebra(algebra, h):
        raise NotASubalgebra("preimage construction requires a subalgebra")
    n = algebra.dim
    nu_v = vec(nu)
    if len(nu_v) != h.dim:
        raise DimensionMismatch("nu must be a covector on the subalgebra")
    lam = solve((*h.basis, *choose_complement(h).basis), n, nu_v + zero_vector(n - h.dim))
    if lam is None:
        raise InvariantViolation("lifting rows do not form a basis of the algebra")
    c = AffineSubspace(algebra, h, lam)
    # <lam, [h_a, h_b]> = nu([h_a, h_b]): C's form at its base is h's
    # Lie-Poisson bivector at nu, and its rows span the orbit tangent there.
    slice_dir = choose_complement(Subspace.span(h.dim, c.form.base_rows()))
    p = h.select(a for a in range(h.dim) if a not in slice_dir.pivots)
    return c, AffineSubspace(algebra, p, lam)


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

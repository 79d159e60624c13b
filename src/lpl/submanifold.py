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
    DimensionMismatch,
    InvariantViolation,
    Subspace,
    Vector,
    _skew_eliminate_many,
    choose_complement,
    dot,
    integer_rank,
    integer_rows,
    solve,
    unit_vector,
    vec,
    vscale,
    vsub,
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

        T is the lcm of the base's denominators and of the d of the direction's
        integer echelon form (d, R), so the T v_j are integers: the direction
        rows are R times T / d.
        """
        d, rows = self.direction.integer_echelon
        t = lcm(d, *(e.denominator for e in self.base))
        f = t // d
        base = [(j, e.numerator * (t // e.denominator)) for j, e in enumerate(self.base) if e]
        return t, [base, *([(j, f * e) for j, e in enumerate(row) if e] for row in rows)]

    def point_at(self, point: IntegerPoint) -> Vector:
        """base + sum t_a u_a over the canonical basis u of the direction.

        With t_a = n_a / L, the point is (L T base + sum_a n_a T u_a) / (L T),
        summed in integers.  An entry whose value is an integer stays an
        ``int`` (every entry when L T = 1); the others are Fractions.  The two
        types agree in ``str``, ``==`` and ``hash``, and ``vec`` makes every
        entry a Fraction again where a point enters the library.
        """
        scale, numerators = point
        frame, rows = self._integer_frame
        x = [0] * len(self.base)
        for na, row in zip((scale, *numerators), rows):
            if na:
                for j, e in row:
                    x[j] += na * e
        d = scale * frame
        if d == 1:
            return tuple(x)
        return tuple(Fraction(s, d) if s % d else s // d for s in x)

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
        return skew_pencil(self, *self.h.integer_echelon)

    @cached_property
    def base_kernel(self) -> Subspace:
        """d = ker B_h(base) on h's canonical basis: ann(T_base C + sharp N*_base C) in h."""
        return Subspace.integer_span(self.h.dim, self.form.base_rows()).annihilator()

    def form_rank_at(self, x: Iterable) -> int:
        """rank B_h(x) at x on C, from ``form`` at t_a = (x - base)[p_a], p_a the pivots
        of the direction's canonical basis u_a: x = base + sum t_a u_a."""
        xv = self.require_point(x)
        t = [xv[p] - self.base[p] for p in self.direction.pivots]
        scale = lcm(*(e.denominator for e in t))
        point = IntegerPoint(scale, tuple(e.numerator * (scale // e.denominator) for e in t))
        return next(self.form.ranks_along([point]))[0]

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
    # On failure, its named parts in print order: {"kind": "bracket_escapes", "u",
    # "v", "bracket": [u, v]} when h is not a subalgebra, or {"kind":
    # "character_fails", "vector": w} for w in [h, h] with <lambda, w> != 0.
    witness: Optional[dict] = None

    def __bool__(self) -> bool:
        return self.coisotropic


def is_coisotropic(c: AffineSubspace) -> CoisotropyResult:
    """Exact verdict: B_h = 0 along C, i.e. h is a subalgebra and lambda kills [h, h].

    Entry (a, b) of some B_i is nonzero iff [h_a, h_b] escapes h.
    """
    form = c.form
    escaping = [k for terms in form.directions for k, _ in terms]
    if escaping:
        u, v = (c.h.basis[i] for i in form.cells[min(escaping)])
        witness = {"kind": "bracket_escapes", "u": u, "v": v, "bracket": c.algebra.bracket(u, v)}
        return CoisotropyResult(False, witness)
    if any(form.base):
        w = next(w for w in subspace_bracket(c.algebra, c.h, c.h).basis if dot(c.base, w))
        return CoisotropyResult(False, {"kind": "character_fails", "vector": w})
    return CoisotropyResult(True)


@dataclass(frozen=True)
class PrePoissonVerdict:
    kind: str  # CERTIFIED_CONSTANT | SAMPLED_CONSTANT | NOT_CONSTANT
    rank: Optional[int] = None
    # NOT_CONSTANT only: {"point", "rank"} at the base, then at the first sample that differs.
    counterexample: Optional[tuple[dict, dict]] = None
    sampling: Optional[SampleSpec] = None  # the sample points it rests on; None when certified


@dataclass(frozen=True)
class SkewPencil:
    """The skew form <x, [v_a, v_b]> at x = base + sum_i t_i u_i, as B0 + sum_i t_i B_i.

    Of its ``size`` by ``size`` entries only those a < b are stored.  Entry k is
    ``cells[k]``, times the common denominator D: ``base[k]`` of D B0, and
    ``directions[i]`` holds the (k, value) pairs of the nonzero entries of
    D B_i.  It is read in integers only: ranked by ``ranks_along`` at any
    number of points, one point included, and written out in full at the base
    by ``base_rows``.
    """

    size: int
    denominator: int
    base: tuple[int, ...]
    directions: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def is_constant(self) -> bool:
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

    def ranks_along(
        self, points: Sequence[IntegerPoint], lead: int = 0
    ) -> Iterator[tuple[int, int]]:
        """The rank at each point t = n / L, and the rank of the first ``lead`` rows there.

        The points are ranked ``WALK_CHUNK`` at a time, each chunk by one
        ``_skew_eliminate_many`` on the cells of ``_cells_along``; L D > 0, so
        the ranks are those of the form.  A pivot at the pencil's indices
        (k, l) adds (k < lead) + (l < lead) to the second rank (README,
        "Orbit dimension"), replayed once per list of pivots: the points of
        one batch share theirs.
        """
        for start in range(0, len(points), WALK_CHUNK):
            chunk = points[start : start + WALK_CHUNK]
            splits = {}  # id of a list of pivots -> its second rank
            for pivots, _ in _skew_eliminate_many(self._cells_along(chunk), len(chunk)):
                if lead and id(pivots) not in splits:
                    index, split = list(range(self.size)), 0  # the pencil's index of each row left
                    for i, j in pivots:
                        split += (index[i] < lead) + (index[j] < lead)
                        del index[j], index[: i + 1]
                    splits[id(pivots)] = split
                yield 2 * len(pivots), splits.get(id(pivots), 0)

    def _cells_along(self, points: Sequence[IntegerPoint]) -> list[list]:
        """L D (B0 + sum_i t_i B_i) = L (D B0) + sum_i n_i (D B_i) at each t = n / L, as the
        rows of its strict upper triangle.  A cell is the list of its values at the points,
        or one ``int`` where that is the same at every point: every cell of a single point,
        and each cell no B_i touches when the points share one L or D B0 is 0 there."""
        scales = [scale for scale, _ in points]
        one = len(set(scales)) == 1
        flat = [b * scales[0] if one or not b else [b * s for s in scales] for b in self.base]
        for i, terms in enumerate(self.directions):
            if terms:
                ns = [numerators[i] for _, numerators in points]
                for k, b in terms:
                    x = flat[k]
                    flat[k] = [x + n * b for n in ns] if type(x) is int else [
                        e + n * b for e, n in zip(x, ns)
                    ]
        if len(points) == 1:
            flat = [x if type(x) is int else x[0] for x in flat]
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


def skew_pencil(c: AffineSubspace, s: int, rows: Sequence[Sequence[int]]) -> SkewPencil:
    """The pencil of <x, [v_a, v_b]> along C for v_a = rows[a] / s, integer rows over a
    positive s, one integer bracket per entry: that of rows a and b over the integer
    structure constants.  The pencil does not depend on the s chosen."""
    ds = c.algebra.integer_structure[0]
    supports = [[(j, e) for j, e in enumerate(row) if e] for row in rows]
    ws = [dict(w) for w in supports]
    pairs = ((v, w) for a, v in enumerate(supports) for w in ws[a + 1 :])
    brackets = (c.algebra.integer_bracket(v, w) for v, w in pairs)
    return _pencil(c, len(rows), ds * s * s, brackets)


def pre_poisson_check(
    c: AffineSubspace, sampling: SampleSpec = SampleSpec()
) -> PrePoissonVerdict:
    """Constancy of rank(T_x C + sharp N*_x C) = codim h + rank B_h(x) along C.

    B_i = <u_i, [h_a, h_b]> over the basis u_i of ann(h), so the pencil of
    B_h has no B_i exactly when every [h_a, h_b] lies in ann(ann(h)) = h:
    when h is a subalgebra.  Then B_h(x) = B_h(base) at every point, so the
    rank at the base is a proved certificate, not sampled evidence; the
    verdict carries that rank only (``AffineSubspace.span_at_base`` is the
    space), ranked as the batch of one point t = 0.  Otherwise rank B_h at
    the base point is compared with its rank at seeded exact sample points:
    ``SkewPencil.ranks_along`` ranks the whole walk, base first, a chunk at a
    time.  The counterexample is the first sample in walk order whose rank
    differs; the walk stops after the chunk that holds it.
    """
    pencil, codim, constant = c.form, c.direction.dim, c.form.is_constant
    walk, sampling = ([IntegerPoint.origin(codim)], None) if constant else c.walk(sampling)
    ranks = (codim + form_rank for form_rank, _ in pencil.ranks_along(walk))
    base_rank = next(ranks)
    if constant:
        return PrePoissonVerdict(CERTIFIED_CONSTANT, rank=base_rank)
    for t, r in zip(walk[1:], ranks):
        if r != base_rank:
            pair = ({"point": c.base, "rank": base_rank}, {"point": c.point_at(t), "rank": r})
            return PrePoissonVerdict(NOT_CONSTANT, counterexample=pair, sampling=sampling)
    return PrePoissonVerdict(SAMPLED_CONSTANT, rank=base_rank, sampling=sampling)


@dataclass(frozen=True)
class PointwiseFlags:
    characteristic_rank: int
    poisson_dirac: bool
    cosymplectic: bool


def pointwise_flags(c: AffineSubspace, x: Iterable) -> PointwiseFlags:
    """Characteristic rank, Poisson-Dirac and cosymplectic tests at x in C (``_flags``)."""
    xv = vec(x)
    form_rank = c.form_rank_at(xv)
    return _flags(c, _coad_rows_at(c, xv), form_rank)


def _flags(c: AffineSubspace, coad_rows: list[list[int]], form_rank: int) -> PointwiseFlags:
    """The flags at x from the rows coad_{h_a}(x), times a positive integer, and rank B_h(x).

    Let S be those rows, so sharp N*_x C is the row space of S, and
    B_h(x) = S H^T, i.e. <x, [h_a, h_b]>.  A vector of that row space lies in
    T_x C = ann(h) iff H kills it, so
    dim(T_x C cap sharp N*_x C) = rank S - rank B_h(x),
    and T_x C + sharp N*_x C = g* directly iff rank B_h(x) = dim h.
    """
    char_rank = integer_rank(coad_rows, c.algebra.dim) - form_rank
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
    ranks = [pp.rank] if pp.rank is not None else [x["rank"] for x in pp.counterexample]
    flags = _flags(c, c.coad_rows_at_base, ranks[0] - c.direction.dim)
    return ClassificationReport(
        coisotropic=coiso,
        pre_poisson=pp,
        generic_rank=max(ranks),
        characteristic_rank_at_base=flags.characteristic_rank,
        poisson_dirac_at_base=flags.poisson_dirac,
        cosymplectic_at_base=flags.cosymplectic,
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
    basis with a not in J: a conormal p inside h.  Like ``extend``'s, p
    complements d = ker B_h(lambda) in h, but the two complements in general differ.
    """
    if not is_subalgebra(algebra, h):
        raise NotASubalgebra("preimage construction requires a subalgebra")
    n = algebra.dim
    nu_v = vec(nu)
    if len(nu_v) != h.dim:
        raise DimensionMismatch("nu must be a covector on the subalgebra")
    # The rows of h and of its complement form a basis of g: R_h lambda = d nu fixes lambda on h.
    d, rows = h.integer_echelon
    lifting = [*rows, *choose_complement(h).integer_echelon[1]]
    solution = solve(lifting, n, [d * e for e in nu_v] + [0] * (n - h.dim))
    if solution is None:
        raise InvariantViolation("lifting rows do not form a basis of the algebra")
    s, x = solution
    lam = tuple(Fraction(e, s) for e in x)
    c = AffineSubspace(algebra, h, lam)
    # <lam, [h_a, h_b]> = nu([h_a, h_b]): C's form at its base is h's
    # Lie-Poisson bivector at nu, and its rows span the orbit tangent there.
    slice_dir = choose_complement(Subspace.integer_span(h.dim, c.form.base_rows()))
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
    rows = [v + [0] * n2 for v in c1.h.integer_echelon[1]]
    rows += [[0] * n1 + v for v in c2.h.integer_echelon[1]]
    h = Subspace.integer_span(n1 + n2, rows)
    return AffineSubspace(algebra, h, c1.base + c2.base)

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
integer sample points, walked as integer columns (``AffineSubspace.walk``),
and the verdict carries the SampleSpec it rests on.  Only printed points are formed.
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

    def walk(self) -> "Walk":
        """The walk of this one point."""
        return Walk(self.denominator, 1, [[n] for n in self.numerators])


class Walk(NamedTuple):
    """``count`` points t = n / scale, as columns: ``columns[a]`` lists n_a at every point."""

    scale: int
    count: int
    columns: Sequence[list[int]]

    def point(self, i: int) -> IntegerPoint:
        """Point i alone."""
        scale, _, columns = self
        return IntegerPoint(scale, tuple(ns[i] for ns in columns))


@dataclass(frozen=True)
class SampleSpec:
    """Deterministic exact sampling: seeded integer coordinates n, |n| <= bound."""

    count: int = 64
    seed: int = 0
    bound: int = 1000

    def __post_init__(self):  # Random(-s) draws the stream of Random(s)
        for name, least in (("count", 0), ("seed", 0), ("bound", 1)):
            if (value := getattr(self, name)) < least:
                raise ValueError(f"sample {name} must be at least {least}, got {value}")

    def points(self, dim: int) -> list[list[int]]:
        """``count`` seeded points of ``dim`` integer coordinates, as ``dim`` columns.

        Each coordinate is the one randint(-bound, bound) draws from the seeded
        stream, point by point: CPython's rejection sampling, k = n.bit_length()
        random bits for a range of n values, redrawn until below n.
        """
        bits = random.Random(self.seed).getrandbits
        spread, bound = 2 * self.bound + 1, self.bound
        k = spread.bit_length()
        ns = []
        for _ in range(self.count):
            for _ in range(dim):
                n = bits(k)
                while n >= spread:
                    n = bits(k)
                ns.append(n - bound)
        return [ns[a::dim] for a in range(dim)]


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
        """base + sum t_a u_a over the canonical basis u of the direction: ``points_at``."""
        return self.points_at(point.walk())[0]

    def points_at(self, walk: Walk) -> list[Vector]:
        """base + sum t_a u_a at each t = n / L of the walk, u the direction's canonical basis:
        the integers L T base + sum_a n_a T u_a, summed a coordinate at a time by ``_along``,
        over L T.  An entry whose value is an integer stays an ``int`` (every entry when L T =
        1), the others are Fractions; the types agree in ``str``, ``==`` and ``hash``, and
        ``vec`` makes every entry a Fraction again where a point enters the library."""
        frame, (base, *directions) = self._integer_frame
        (scale, count, _), base = walk, dict(base)
        columns = _along([base.get(j, 0) for j in range(len(self.base))], directions, walk)
        xs = zip(*([x] * count if type(x) is int else x for x in columns))
        return [_over(x, scale * frame) for x in xs]

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
        return next(self.form.ranks_along(point.walk()))[0][0]

    def walk(self, sampling: SampleSpec) -> tuple[Walk, Optional[SampleSpec]]:
        """The base, then ``sampling``'s points, over 1, and that sampling; a point C: its base."""
        d = self.direction.dim
        if not d:
            return Walk(1, 1, []), None
        return Walk(1, sampling.count + 1, [[0, *ns] for ns in sampling.points(d)]), sampling

    def sample_points(self, sampling: SampleSpec) -> list[Vector]:
        """The walk's samples as exact points base + sum t_a u_a; a point C has only its base."""
        walk, drawn = self.walk(sampling)
        return self.points_at(walk)[1:] if drawn else [self.base][: sampling.count]


def _over(v: Sequence[int], d: int) -> Vector:
    """The integers v over d > 0: an integral entry as an ``int``, the others as Fractions."""
    return tuple(v) if d == 1 else tuple(Fraction(e, d) if e % d else e // d for e in v)


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

    Entry (a, b) of some B_i is nonzero iff [h_a, h_b] escapes h, read off h's rows R / d.
    """
    form = c.form
    escaping = [k for terms in form.directions for k, _ in terms]
    if escaping:
        d, rows = c.h.integer_echelon
        u, v = (rows[i] for i in form.cells[min(escaping)])
        image = dict(c.algebra.integer_bracket(list(enumerate(u)), dict(enumerate(v))))
        w = [image.get(k, 0) for k in range(c.algebra.dim)]
        s = c.algebra.integer_structure[0] * d * d
        parts = {"u": _over(u, d), "v": _over(v, d), "bracket": _over(w, s)}
        return CoisotropyResult(False, {"kind": "bracket_escapes", **parts})
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
    D B_i.  It is read in integers only: ranked by ``ranks_along`` along a
    walk of any length, one point included, and written out in full at the
    base by ``base_rows``.
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

    def ranks_along(self, walk: Walk, lead: int = 0) -> Iterator[list[tuple[int, int]]]:
        """Per ``WALK_CHUNK`` points of the walk, the (rank, rank of the first ``lead`` rows) there.

        Each chunk is ranked by one ``_skew_eliminate_many`` on the cells of ``_cells_along``;
        L D > 0, so the ranks are those of the form.  A pivot at the pencil's indices (k, l)
        adds (k < lead) + (l < lead) to the second rank (README, "Orbit dimension"), replayed
        once per list of pivots: the points of one batch share theirs, and their pair.
        """
        scale, count, columns = walk
        for start in range(0, count, WALK_CHUNK):
            stop = min(start + WALK_CHUNK, count)
            chunk = Walk(scale, stop - start, [ns[start:stop] for ns in columns])
            results = _skew_eliminate_many(self._cells_along(chunk), chunk.count)
            pairs = {id(pivots): pivots for pivots, _ in results}  # -> (rank, lead rank)
            for key, pivots in pairs.items():
                index, split = list(range(self.size)), 0  # the pencil's index of each row left
                for i, j in pivots if lead else ():
                    split += (index[i] < lead) + (index[j] < lead)
                    del index[j], index[: i + 1]
                pairs[key] = 2 * len(pivots), split
            yield [pairs[id(pivots)] for pivots, _ in results]

    def _cells_along(self, walk: Walk) -> list[list]:
        """L D (B0 + sum_i t_i B_i) = L (D B0) + sum_i n_i (D B_i) at each t = n / L, as the
        rows of its strict upper triangle, from ``_along``: a cell is an ``int`` at a single
        point, and where no B_i touches it."""
        flat = _along(self.base, self.directions, walk)
        if walk.count == 1:
            flat = [x if type(x) is int else x[0] for x in flat]
        return [flat[i:j] for i, j in _layout(self.size)[1]]


def _along(base: Sequence[int], directions: Iterable, walk: Walk) -> list:
    """L base + sum_i n_i v_i at each point t = n / L of the walk, v_i the sparse
    (k, value) pairs of directions[i], one column n_i at a time: a coordinate is the list
    of its values, or one ``int`` where that is the same at every point (``_cells_along``)."""
    scale, _, columns = walk
    flat = [b * scale for b in base]
    for terms, ns in zip(directions, columns):
        for k, b in terms:
            x = flat[k]
            flat[k] = [x + n * b for n in ns] if type(x) is int else [
                e + n * b for e, n in zip(x, ns)
            ]
    return flat


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
    space), ranked as the walk of one point t = 0.  Otherwise rank B_h at
    the base point is compared with its rank at seeded exact sample points:
    ``SkewPencil.ranks_along`` ranks the whole walk, base first, a chunk at a
    time.  The counterexample is the first sample in walk order whose rank
    differs, the only point formed; the walk stops after the chunk that holds it.
    """
    pencil, codim, constant = c.form, c.direction.dim, c.form.is_constant
    walk, sampling = (Walk(1, 1, [[0]] * codim), None) if constant else c.walk(sampling)
    start, base = 0, None
    for ranks in pencil.ranks_along(walk):
        base = base or ranks[0]
        if ranks.count(base) < len(ranks):
            i = next(i for i, r in enumerate(ranks) if r != base)
            x, rank = c.point_at(walk.point(start + i)), codim + ranks[i][0]
            pair = ({"point": c.base, "rank": codim + base[0]}, {"point": x, "rank": rank})
            return PrePoissonVerdict(NOT_CONSTANT, counterexample=pair, sampling=sampling)
        start += len(ranks)
    kind = CERTIFIED_CONSTANT if constant else SAMPLED_CONSTANT
    return PrePoissonVerdict(kind, rank=codim + base[0], sampling=sampling)


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

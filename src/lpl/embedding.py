"""Cosymplectic extension of a pre-Poisson affine subspace.

Given C with constant rank of TC + sharp N*C, extend it to P = base + ann(p)
for a complement p in h of d = ker B_h(base); P carries the conormal space p,
and when sharp N*P is the same space k-ann at every point, the annihilator k
of that space together with p gives the k + p decomposition and, in favorable
cases, a symmetric pair.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import combinations, product
from typing import Iterable, Optional

from .lie import LieAlgebra, NotASubalgebra, brackets_in, is_subalgebra, validate_jacobi
from .linalg import (
    InvariantViolation,
    Subspace,
    Vector,
    choose_complement,
    integer_rank,
    solve,
    vector_strs,
)
from .submanifold import (
    NOT_CONSTANT,
    AffineSubspace,
    SampleSpec,
    pre_poisson_check,
    sharp_conormal_at,
    skew_pencil,
)

# The fewest sample points a sampled verdict behind ``extend`` rests on.
MIN_SAMPLES = 8


class RankNotConstant(ValueError):
    """The rank of TC + sharp N*C is not constant; no extension exists."""


class NotComplementary(ValueError):
    """A supplied R fails to complement TC + sharp N*C at the base point."""


class ConstancyNotCertified(ValueError):
    """sharp N*P was not certified constant; k is not defined."""


@dataclass(frozen=True)
class Extension:
    c: AffineSubspace
    p_tilde: AffineSubspace  # P = base + ann(p)
    sampling: Optional[SampleSpec]  # the pre-Poisson verdict's; None when certified

    @property
    def algebra(self) -> LieAlgebra:
        return self.c.algebra

    @property
    def p(self) -> Subspace:
        """The conormal of the extension: the annihilator of its direction."""
        return self.p_tilde.h

    @cached_property
    def constancy(self) -> "ConstancyResult":
        """The constancy certificate of sharp N*P, computed once per extension."""
        return constant_sharp_conormal(self)


def extend(
    c: AffineSubspace,
    r: Optional[Subspace] = None,
    sampling: SampleSpec = SampleSpec(),
) -> Extension:
    """Extend C to P = base + ann(p), for p a complement in h of d = ker B_h(base).

    d is ann(TC + sharp N*C) in h, so the complements R of TC + sharp N*C
    give exactly these p, as h cap ann(R).  Without R, p is spanned by the
    canonical rows h_j of h whose index j ``choose_complement`` keeps against
    d in h-coordinates (a vector's entries at h's pivots); an R is refused
    unless dim R = dim d and p cap d = 0.  As dim p = rank B_h(base), the
    pre-Poisson verdict also checks that C is coisotropic in P
    (``coisotropy_in_extension``): a NOT_CONSTANT one is refused, and a
    sampled one walks at least ``MIN_SAMPLES`` points past the base.
    """
    verdict = pre_poisson_check(c, replace(sampling, count=max(sampling.count, MIN_SAMPLES)))
    if verdict.kind == NOT_CONSTANT:
        found = [
            f"rank {x['rank']} at ({', '.join(vector_strs(x['point']))})"
            for x in verdict.counterexample
        ]
        raise RankNotConstant(f"rank differs between sampled points: {', '.join(found)}")
    h, d = c.h, c.base_kernel
    if r is None:
        p = h.select(choose_complement(d).pivots)
    else:
        p = c.direction.sum(r).annihilator()  # h cap ann(R)
        coords = [[v[j] for j in h.pivots] for v in p.integer_echelon[1]]
        independent = integer_rank([*coords, *d.integer_echelon[1]], h.dim) == p.dim + d.dim
        if r.dim != d.dim or not independent:
            raise NotComplementary("R must complement TC + sharp N*C at the base point")
    return Extension(c, AffineSubspace(c.algebra, p, c.base), verdict.sampling)


def is_cosymplectic_at(e: Extension, x: Iterable) -> bool:
    """True iff the skew form <x, [., .]> on p is nondegenerate at x (x must lie on P):
    P's ``form`` has rank dim p there."""
    return e.p_tilde.form_rank_at(x) == e.p.dim


@dataclass(frozen=True)
class LocusReport:
    never_cosymplectic: bool  # exact: dim p odd forces degeneracy everywhere
    cosymplectic_at_base: bool
    checked: int  # sample points tested
    failing_points: tuple[Vector, ...]
    sampling: Optional[SampleSpec]  # None when exact: dim p odd, p = 0, or P a point

    @property
    def any_cosymplectic(self) -> bool:
        return self.cosymplectic_at_base or len(self.failing_points) < self.checked


def cosymplectic_locus(e: Extension, sampling: SampleSpec = SampleSpec()) -> LocusReport:
    """Pointwise cosymplecticity of P at the base and at sampled points.

    The form on p is the pencil of <x, [., .]> along P, built once, and
    ``SkewPencil.ranks_along`` ranks it along the whole walk, base first;
    only the failing samples are formed as points.  Three answers are exact
    and draw no sample: odd dim p is never cosymplectic (a skew form of odd
    size is singular), p = 0 is cosymplectic everywhere, and a P of
    dimension 0 is its base point.
    """
    if e.p.dim % 2 == 1:
        return LocusReport(True, False, 0, (), None)
    if not e.p.dim:
        return LocusReport(False, True, 0, (), None)
    walk, sampling = e.p_tilde.walk(sampling)
    full = [r == e.p.dim for chunk in e.p_tilde.form.ranks_along(walk) for r, _ in chunk]
    failing = tuple(e.p_tilde.point_at(walk.point(i)) for i, ok in enumerate(full) if i and not ok)
    return LocusReport(False, full[0], len(full) - 1, failing, sampling)


@dataclass(frozen=True)
class ConstancyResult:
    k_ann: Optional[Subspace] = None  # set iff constancy is certified
    # On failure, its named parts in print order: {"p_vector": v, "direction": u,
    # "image": coad_v(u)} for v in p's basis and u in the direction's, coad_v(u) not in K.
    witness: Optional[dict] = None

    @property
    def certified(self) -> bool:
        return self.k_ann is not None


def constant_sharp_conormal(e: Extension) -> ConstancyResult:
    """Exact constancy certificate for sharp N*_x P along P.

    coad_v(x) is linear in x, so sharp N*_x P stays inside its value K at the
    base point for every x on P iff coad_v(u) lies in K for each basis vector
    v of p and each direction generator u; failure of one containment is a
    direction along which the space genuinely moves.  Each coad_v(u) is
    taken in integers, at the integer echelon rows of p and the direction.
    """
    k_ann = sharp_conormal_at(e.p_tilde, e.p_tilde.base)
    direction, p_rows = e.p_tilde.direction, e.p.integer_echelon[1]
    images = [e.algebra.integer_coad(p_rows, u) for u in direction.integer_echelon[1]]
    for a in range(e.p.dim):
        for b, image in enumerate(images):
            if not k_ann.contains_integer(image[a]):
                v, u = e.p.basis[a], direction.basis[b]
                witness = {"p_vector": v, "direction": u, "image": e.algebra.coad_apply(v, u)}
                return ConstancyResult(witness=witness)
    return ConstancyResult(k_ann=k_ann)


@dataclass(frozen=True)
class SymmetricPairReport:
    k: Subspace
    p: Subspace
    decomposition: bool  # k + p = g directly
    k_subalgebra: bool
    kp_in_p: bool
    pp_in_k: bool

    @property
    def symmetric_pair(self) -> bool:
        return self.decomposition and self.k_subalgebra and self.kp_in_p and self.pp_in_k


def check_symmetric_pair(algebra: LieAlgebra, k: Subspace, p: Subspace) -> SymmetricPairReport:
    """The three bracket conditions for a user- or extension-given (k, p)."""
    decomposition = k.sum(p).dim == algebra.dim == k.dim + p.dim
    k_sub = is_subalgebra(algebra, k)
    kp_in_p = brackets_in(algebra, p, product(k.integer_echelon[1], p.integer_echelon[1]))
    pp_in_k = brackets_in(algebra, k, combinations(p.integer_echelon[1], 2))
    return SymmetricPairReport(k, p, decomposition, k_sub, kp_in_p, pp_in_k)


def symmetric_pair_analysis(e: Extension) -> SymmetricPairReport:
    """k from the certified constant sharp N*P (``e.constancy``), then the pair conditions."""
    if not e.constancy.certified:
        raise ConstancyNotCertified(
            "sharp N*P is not constant; the symmetric-pair analysis is undefined"
        )
    k = e.constancy.k_ann.annihilator()
    return check_symmetric_pair(e.algebra, k, e.p)


def induced_structure(algebra: LieAlgebra, pair: SymmetricPairReport) -> LieAlgebra:
    """The linear Poisson structure induced on p-ann, as a Lie algebra.

    Coordinates on the extension correspond to the elements khat_i of k dual
    to the canonical basis u = R_u / d_u of p-ann, so c_ij^l = <u_l, [khat_i,
    khat_j]>.  All of it runs on integers, and no Fraction is made: with R_k
    the echelon rows of k and the integer Gram matrix G = R_k R_u^T, one
    elimination of [G | R_k] solves G X = R_k as X = Y / s with Y integer
    rows, and khat = d_u X.  So c_ij^l = d_u <R_u,l, Ds [Y_i, Y_j]> / (s^2 Ds),
    the integer constants of the result over s^2 Ds.  G and the pairings
    read R_u by its sparse columns (``_pairings``).  Pairing with p-ann
    ignores the p component of a bracket, so nothing is projected to k.
    Requires the pair report to have found k + p = g directly and k a
    subalgebra.
    """
    if not pair.decomposition:
        raise ValueError("k and p must decompose the algebra")
    if not pair.k_subalgebra:
        raise NotASubalgebra("induced structure is linear only for k a subalgebra")
    if not pair.p.dim:  # k = g and p-ann = g: the algebra itself, in its own basis and labels
        return algebra
    u = pair.p.annihilator()
    (d_u, u_rows), k_rows, m = u.integer_echelon, pair.k.integer_echelon[1], u.dim
    columns = [[(l, c) for l, c in enumerate(column) if c] for column in zip(*u_rows)]
    gram = [_pairings(columns, enumerate(a), m) for a in k_rows]
    solution = solve(gram, m, k_rows)
    if solution is None:
        raise InvariantViolation("the pairing of k with p-ann is degenerate")
    s, x = solution
    y = [[(j, e) for j, e in enumerate(row) if e] for row in x]
    brackets = {}
    for i, j in combinations(range(m), 2):
        pairings = _pairings(columns, algebra.integer_bracket(y[i], dict(y[j])), m)
        if any(pairings):
            brackets[(i, j)] = [(l, d_u * e) for l, e in enumerate(pairings) if e]
    d = s * s * algebra.integer_structure[0]
    result = LieAlgebra.from_integer_brackets(m, d, brackets, [algebra.labels[c] for c in u.pivots])
    report = validate_jacobi(result)
    if not report.ok:
        raise InvariantViolation(f"induced structure violates Jacobi at {report.triple}")
    return result


def _pairings(columns: list, entries: Iterable[tuple[int, int]], m: int) -> list[int]:
    """The pairings <R_l, w>, l < m, of w given by its entries (k, w_k) with the rows
    R_l given by ``columns``, column k listing its nonzero (l, R_l[k])."""
    out = [0] * m
    for k, e in entries:
        if e:
            for l, c in columns[k]:
                out[l] += c * e
    return out


def coisotropy_in_extension(e: Extension, sampling: SampleSpec = SampleSpec()) -> list[tuple]:
    """Verify C coisotropic in P: rank B_h(x) = dim p wherever B_p(x) is nonsingular.

    The points x are the base and the samples of C; a C of dimension 0 is
    its base.  Each tested point comes back formed, in walk order, with its
    flag.  Requires p inside h, which every extension of C satisfies.

    Where B_p(x) is nonsingular, the sharp map of P applied to a conormal
    direction w of C is coad of the unique extension w + q (q in p) whose
    differential kills sharp N*_x P; membership of the result in TC = ann(h)
    is the coisotropy claim.  With F the form <x, [., .]> on the basis p
    then h, so F_pp = B_p(x), that holds for every w iff the Schur complement
    F_hh - F_hp F_pp^-1 F_ph vanishes, and rank F = dim p + rank of that
    complement.  As p lies in h, F is B_h(x) seen through a matrix of full
    column rank, so rank F = rank B_h(x): the claim is read off the pencil
    ``e.c.form`` that C already holds.  Each of the two pencils is ranked
    along the whole walk by one ``SkewPencil.ranks_along``.
    """
    if not e.c.h.contains(e.p):
        raise ValueError("the conormal p of P must lie in the conormal h of C")
    n_p, walk = e.p.dim, e.c.walk(sampling)[0]
    pencils = (skew_pencil(e.c, *e.p.integer_echelon), e.c.form)
    tested, full = ([r for chunk in p.ranks_along(walk) for r, _ in chunk] for p in pencils)
    cosymplectic = [i for i, s in enumerate(tested) if s == n_p]
    return [(e.c.point_at(walk.point(i)), full[i] == n_p) for i in cosymplectic]

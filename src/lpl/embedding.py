"""Cosymplectic extension of a pre-Poisson affine subspace.

Given C with constant rank of TC + sharp N*C, extend along a complement R to
the affine subspace P through the base point with direction TC + R; P carries
the conormal space p, and when sharp N*P is the same space k-ann at every
point, the annihilator k of that space together with p gives the k + p
decomposition and, in favorable cases, a symmetric pair.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations, product
from typing import Iterable, Optional

from .lie import LieAlgebra, NotASubalgebra, is_subalgebra, validate_jacobi
from .linalg import (
    InvariantViolation,
    Subspace,
    Vector,
    choose_complement,
    dot,
    mat_vec,
    rank,
    solve,
    transpose,
    unit_vector,
)
from .submanifold import (
    NOT_CONSTANT,
    AffineSubspace,
    SampleSpec,
    pre_poisson_check,
    sharp_conormal_at,
    skew_pencil,
)

class RankNotConstant(ValueError):
    """The rank of TC + sharp N*C is not constant; no extension exists."""


class NotComplementary(ValueError):
    """A supplied R fails to complement TC + sharp N*C at the base point."""


class ConstancyNotCertified(ValueError):
    """sharp N*P was not certified constant; k is not defined."""


class ExtensionCheckFailed(ValueError):
    """C failed the coisotropy self-check inside the constructed P."""


@dataclass(frozen=True)
class Extension:
    c: AffineSubspace
    r: Subspace
    p_tilde: AffineSubspace
    sampling: Optional[SampleSpec]  # the pre-Poisson verdict's; None when certified

    @property
    def algebra(self) -> LieAlgebra:
        return self.c.algebra

    @property
    def p(self) -> Subspace:
        """The conormal of the extension: the annihilator of its direction."""
        return self.p_tilde.h


def extend(
    c: AffineSubspace,
    r: Optional[Subspace] = None,
    sampling: SampleSpec = SampleSpec(),
) -> Extension:
    """Extend C along R (greedy if omitted) to the candidate cosymplectic P.

    Refuses when the pre-Poisson verdict is NOT_CONSTANT, and when C is not
    coisotropic in P: where the form on p is nonsingular, at the base and 8
    sampled points of C (the base alone when C is a point), B_h must have
    rank dim p.
    """
    verdict = pre_poisson_check(c, sampling)
    if verdict.kind == NOT_CONSTANT:
        raise RankNotConstant(
            f"rank differs between sampled points: {verdict.counterexample}"
        )
    span = c.span_at_base
    if r is None:
        r = choose_complement(span)
    else:
        if span.dim + r.dim != c.algebra.dim or span.sum(r).dim != c.algebra.dim:
            raise NotComplementary(
                "R must complement TC + sharp N*C at the base point"
            )
    p_tilde = AffineSubspace(c.algebra, c.direction.sum(r).annihilator(), c.base)
    ext = Extension(c, r, p_tilde, verdict.sampling)
    check = coisotropy_in_extension(ext, replace(sampling, count=8))
    bad = [x for x, ok in check if not ok]
    if bad:
        raise ExtensionCheckFailed(f"C fails to be coisotropic in P at {bad[0]}")
    return ext


def is_cosymplectic_at(e: Extension, x: Iterable) -> bool:
    """True iff the skew form <x, [., .]> on p is nondegenerate at x (x must lie on P)."""
    xv = e.p_tilde.require_point(x)
    if not e.p.basis:
        return e.p_tilde.dim == e.algebra.dim
    form = [[dot(xv, e.algebra.bracket(a, b)) for b in e.p.basis] for a in e.p.basis]
    return rank(form) == e.p.dim


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

    The form on p is the pencil of <x, [., .]> along P, built once; a sample
    costs one rank, and only a failing one is formed as a point.  Three
    answers are exact and draw no sample: odd dim p is never cosymplectic (a
    skew form of odd size is singular), p = 0 is cosymplectic everywhere, and
    a P of dimension 0 is its base point.
    """
    if e.p.dim % 2 == 1:
        return LocusReport(True, False, 0, (), None)
    if not e.p.basis:
        return LocusReport(False, True, 0, (), None)
    pencil = e.p_tilde.form
    (origin, *samples), sampling = e.p_tilde.walk(sampling)
    at_base = pencil.rank_at(origin) == e.p.dim
    failing = tuple(e.p_tilde.point_at(t) for t in samples if pencil.rank_at(t) != e.p.dim)
    return LocusReport(False, at_base, len(samples), failing, sampling)


@dataclass(frozen=True)
class ConstancyResult:
    k_ann: Optional[Subspace] = None  # set iff constancy is certified
    # (p basis vector, direction generator, escaping image) on failure.
    witness: Optional[tuple[Vector, Vector, Vector]] = None

    @property
    def certified(self) -> bool:
        return self.k_ann is not None


def constant_sharp_conormal(e: Extension) -> ConstancyResult:
    """Exact constancy certificate for sharp N*_x P along P.

    coad_v(x) is linear in x, so sharp N*_x P stays inside its value K at the
    base point for every x on P iff coad_v(u) lies in K for each basis vector
    v of p and each direction generator u; failure of one containment is a
    direction along which the space genuinely moves.
    """
    k_ann = sharp_conormal_at(e.p_tilde, e.p_tilde.base)
    for v in e.p.basis:
        for u in e.p_tilde.direction.basis:
            image = e.algebra.coad_apply(v, u)
            if not k_ann.contains_vector(image):
                return ConstancyResult(witness=(v, u, image))
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
    kp_in_p = all(p.contains_vector(algebra.bracket(a, b)) for a, b in product(k.basis, p.basis))
    pp_in_k = all(k.contains_vector(algebra.bracket(a, b)) for a, b in combinations(p.basis, 2))
    return SymmetricPairReport(k, p, decomposition, k_sub, kp_in_p, pp_in_k)


def symmetric_pair_analysis(
    e: Extension, constancy: Optional[ConstancyResult] = None
) -> SymmetricPairReport:
    """k from the certified constant sharp N*P, then the pair conditions."""
    if constancy is None:
        constancy = constant_sharp_conormal(e)
    if not constancy.certified:
        raise ConstancyNotCertified(
            "sharp N*P is not constant; the symmetric-pair analysis is undefined"
        )
    k = constancy.k_ann.annihilator()
    return check_symmetric_pair(e.algebra, k, e.p)


def induced_structure(algebra: LieAlgebra, pair: SymmetricPairReport) -> LieAlgebra:
    """The linear Poisson structure induced on p-ann, as a Lie algebra.

    Coordinates on the extension correspond to the elements of k dual to the
    canonical basis of p-ann; their brackets, paired with that basis, give the
    structure constants.  Requires the pair report to have found k + p = g
    directly and k a subalgebra.
    """
    if not pair.decomposition:
        raise ValueError("k and p must decompose the algebra")
    if not pair.k_subalgebra:
        raise NotASubalgebra("induced structure is linear only for k a subalgebra")
    k, direction = pair.k, pair.p.annihilator()
    m = direction.dim
    # Dual elements: khat_i in k with <u_j, khat_i> = delta_ij.  Column i of
    # the solution Y of gram Y = I holds khat_i's coordinates in the basis of
    # k; one elimination of [gram | I] gives all of them.
    gram = [[dot(u, kb) for kb in k.basis] for u in direction.basis]
    y = solve(gram, k.dim, [unit_vector(m, i) for i in range(m)])
    if y is None:
        raise InvariantViolation("the pairing of k with p-ann is degenerate")
    k_columns = transpose(k.basis)
    khat = [mat_vec(k_columns, column) for column in transpose(y)]
    # Pairing with p-ann ignores the p component of a bracket: no projection to k.
    brackets = {}
    for i in range(m):
        for j in range(i + 1, m):
            w = algebra.bracket(khat[i], khat[j])
            coords = tuple(dot(u, w) for u in direction.basis)
            if any(x != 0 for x in coords):
                brackets[(i, j)] = coords
    labels = tuple(algebra.labels[col] for col in direction.pivots)
    result = LieAlgebra.from_brackets(m, brackets, labels)
    report = validate_jacobi(result)
    if not report.ok:
        raise InvariantViolation(f"induced structure violates Jacobi at {report.triple}")
    return result


def coisotropy_in_extension(
    e: Extension, sampling: SampleSpec = SampleSpec()
) -> list[tuple[Vector, bool]]:
    """Verify C coisotropic in P: rank B_h(x) = dim p wherever B_p(x) is nonsingular.

    The points x are the base and the samples of C; a C of dimension 0 is
    its base.  Requires p inside h, which every extension of C satisfies.

    Where B_p(x) is nonsingular, the sharp map of P applied to a conormal
    direction w of C is coad of the unique extension w + q (q in p) whose
    differential kills sharp N*_x P; membership of the result in TC = ann(h)
    is the coisotropy claim.  With F the form <x, [., .]> on the basis p
    then h, so F_pp = B_p(x), that holds for every w iff the Schur complement
    F_hh - F_hp F_pp^-1 F_ph vanishes, and rank F = dim p + rank of that
    complement.  As p lies in h, F is B_h(x) seen through a matrix of full
    column rank, so rank F = rank B_h(x): the claim is read off the pencil
    ``e.c.form`` that C already holds.
    """
    if not e.c.h.contains(e.p):
        raise ValueError("the conormal p of P must lie in the conormal h of C")
    n_p = e.p.dim
    form_p = skew_pencil(e.c, e.p.basis)
    return [
        (e.c.point_at(t), e.c.form.rank_at(t) == n_p)
        for t in e.c.walk(sampling)[0]
        if form_p.rank_at(t) == n_p
    ]

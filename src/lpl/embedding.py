"""Cosymplectic extension of a pre-Poisson affine subspace.

Given C with constant rank of TC + sharp N*C, extend along a complement R to
the affine subspace P through the base point with direction TC + R; P carries
the conormal space p, and when sharp N*P is the same space k-ann at every
point, the annihilator k of that space together with p gives the k + p
decomposition and, in favorable cases, a symmetric pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .lie import LieAlgebra, NotASubalgebra, is_subalgebra, subspace_bracket, validate_jacobi
from .linalg import (
    ZERO,
    InvariantViolation,
    Subspace,
    Vector,
    choose_complement,
    dot,
    inverse,
    mat_vec,
    pivot_columns,
    rank,
    solve,
    transpose,
    vec,
    zero_vector,
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
    p: Subspace  # conormal of the extension: annihilator of its direction
    sampling: Optional[SampleSpec]  # the pre-Poisson verdict's; None when certified

    @property
    def algebra(self) -> LieAlgebra:
        return self.c.algebra


def extend(
    c: AffineSubspace,
    r: Optional[Subspace] = None,
    sampling: SampleSpec = SampleSpec(),
    verify: bool = True,
) -> Extension:
    """Extend C along R (greedy if omitted) to the candidate cosymplectic P.

    Refuses when the pre-Poisson verdict is NOT_CONSTANT.  With ``verify`` the
    coisotropy of C inside P is re-checked at cosymplectic sample points.
    """
    verdict = pre_poisson_check(c, sampling)
    if verdict.kind == NOT_CONSTANT:
        raise RankNotConstant(
            f"rank differs between sampled points: {verdict.counterexample}"
        )
    # T_base C + sharp N*_base C; a certified verdict has already built it.
    span = verdict.space
    if span is None:
        span = c.direction.sum(sharp_conormal_at(c, c.base))
    if r is None:
        r = choose_complement(span, Subspace.full(c.algebra.dim))
    else:
        if span.dim + r.dim != c.algebra.dim or span.sum(r).dim != c.algebra.dim:
            raise NotComplementary(
                "R must complement TC + sharp N*C at the base point"
            )
    direction = c.direction.sum(r)
    p = direction.annihilator()
    p_tilde = AffineSubspace(c.algebra, p, c.base)
    ext = Extension(c, r, p_tilde, p, verdict.sampling)
    if verify:
        check = coisotropy_in_extension(ext, SampleSpec(count=8, seed=sampling.seed))
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
    sampling: Optional[SampleSpec]

    @property
    def any_cosymplectic(self) -> bool:
        return self.cosymplectic_at_base or len(self.failing_points) < self.checked


def cosymplectic_locus(e: Extension, sampling: SampleSpec = SampleSpec()) -> LocusReport:
    """Pointwise cosymplecticity of P at the base and at sampled points.

    The form on p is the pencil of <x, [., .]> along P, built once; a sample
    costs one rank, and only a failing one is formed as a point.
    """
    if e.p.dim % 2 == 1:
        return LocusReport(True, False, 0, (), sampling)
    if not e.p.basis:
        # P is all of g*, with the empty form at every point: no sample is drawn.
        return LocusReport(False, True, sampling.count, (), sampling)
    pencil = skew_pencil(e.p_tilde, e.p.basis)
    at_base = pencil.rank_at(zero_vector(e.p_tilde.direction.dim)) == e.p.dim
    coefficients = e.p_tilde.sample_coefficients(sampling)
    failing = tuple(
        e.p_tilde.point_at(t) for t in coefficients if pencil.rank_at(t) != e.p.dim
    )
    return LocusReport(False, at_base, len(coefficients), failing, sampling)


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
    base_images = [e.algebra.coad_apply(v, e.p_tilde.base) for v in e.p.basis]
    k_ann = Subspace.span(e.algebra.dim, base_images)
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
    # k + p = g is direct iff the dimensions add up to n and the sum is g.
    decomposition = k.dim + p.dim == algebra.dim and k.sum(p).dim == algebra.dim
    k_sub = is_subalgebra(algebra, k)
    kp_in_p = p.contains(subspace_bracket(algebra, k, p))
    pp_in_k = k.contains(subspace_bracket(algebra, p, p))
    return SymmetricPairReport(k, p, decomposition, k_sub, kp_in_p, pp_in_k)


def symmetric_pair_analysis(
    e: Extension, constancy: Optional[ConstancyResult] = None
) -> SymmetricPairReport:
    """k from the certified constant sharp N*P, then the pair conditions."""
    if constancy is None:
        constancy = constant_sharp_conormal(e)
    if not constancy.certified:
        raise ConstancyNotCertified(
            "sharp N*P is not constant along P; k is undefined"
        )
    k = constancy.k_ann.annihilator()
    return check_symmetric_pair(e.algebra, k, e.p)


def injectivity_at(algebra: LieAlgebra, p: Subspace, y: Iterable) -> bool:
    """True iff v in p -> coad_v(y) has trivial kernel."""
    yv = vec(y)
    rows = [algebra.coad_apply(v, yv) for v in p.basis]
    return rank(rows, algebra.dim) == p.dim


def induced_structure_from_decomposition(
    algebra: LieAlgebra, k: Subspace, p: Subspace
) -> LieAlgebra:
    """The linear Poisson structure induced on p-ann, as a Lie algebra.

    Coordinates on the extension correspond to the elements of k dual to the
    canonical basis of p-ann; their brackets, paired with that basis, give the
    structure constants.  Requires k + p = g directly and k a subalgebra.
    """
    if k.dim + p.dim != algebra.dim or k.sum(p).dim != algebra.dim:
        raise ValueError("k and p must decompose the algebra")
    if not is_subalgebra(algebra, k):
        raise NotASubalgebra("induced structure is linear only for k a subalgebra")
    direction = p.annihilator()
    m = direction.dim
    # Dual elements: khat_i in k with <u_j, khat_i> = delta_ij, the columns
    # of the inverse gram in the basis of k.
    gram = [[dot(u, kb) for kb in k.basis] for u in direction.basis]
    inv = inverse(gram)
    if inv is None:
        raise InvariantViolation("the pairing of k with p-ann is degenerate")
    k_columns = transpose(k.basis)
    khat = [mat_vec(k_columns, column) for column in transpose(inv)]
    # Pairing with p-ann ignores the p component of a bracket: no projection to k.
    brackets = {}
    for i in range(m):
        for j in range(i + 1, m):
            w = algebra.bracket(khat[i], khat[j])
            coords = tuple(dot(u, w) for u in direction.basis)
            if any(x != 0 for x in coords):
                brackets[(i, j)] = coords
    labels = tuple(algebra.labels[col] for col in pivot_columns(direction.basis))
    result = LieAlgebra.from_brackets(m, brackets, labels)
    report = validate_jacobi(result)
    if not report.ok:
        raise InvariantViolation(f"induced structure violates Jacobi at {report.triple}")
    return result


def induced_structure(
    e: Extension, constancy: Optional[ConstancyResult] = None
) -> LieAlgebra:
    """Induced linear structure on the extension; needs certified k."""
    if constancy is None:
        constancy = constant_sharp_conormal(e)
    if not constancy.certified:
        raise ConstancyNotCertified(
            "sharp N*P is not constant along P; induced structure undefined"
        )
    k = constancy.k_ann.annihilator()
    return induced_structure_from_decomposition(e.algebra, k, e.p)


def coisotropy_in_extension(
    e: Extension, sampling: SampleSpec = SampleSpec()
) -> list[tuple[Vector, bool]]:
    """Verify C coisotropic in P at cosymplectic sample points of C.

    At such a point the sharp map of P applied to a conormal direction w of C
    is coad of the unique extension w + q (q in p) whose differential kills
    sharp N*_x P; membership of the result in TC = ann(h) is the coisotropy
    claim.  With F the form <x, [., .]> on the basis p then h of one pencil
    along C, and w = h_c, q solves F_pp q = -F_pc, and coad_{w + q}(x) lies
    in ann(h) iff F_hh[c, b] + sum_a q_a F_ph[a, b] = 0 for every b.
    """
    n_p = e.p.dim
    pencil = skew_pencil(e.c, e.p.basis + e.c.h.basis)
    results = []
    for t in [zero_vector(e.c.direction.dim)] + e.c.sample_coefficients(sampling):
        form = pencil.at(t)
        f_pp = tuple(row[:n_p] for row in form[:n_p])
        if rank(f_pp, n_p) != n_p:
            continue
        f_ph = [row[n_p:] for row in form[:n_p]]
        ok = True
        for c, f_hh_c in enumerate(row[n_p:] for row in form[n_p:]):
            q = solve(f_pp, [-f_pa[c] for f_pa in f_ph])
            if q is None:
                raise InvariantViolation(f"the form on p is degenerate at {e.c.point_at(t)}")
            if any(
                f_cb + sum((qa * f_pa[b] for qa, f_pa in zip(q, f_ph)), ZERO)
                for b, f_cb in enumerate(f_hh_c)
            ):
                ok = False
                break
        results.append((e.c.point_at(t), ok))
    return results

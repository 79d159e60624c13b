"""Infinitesimal groupoid data attached to affine subspaces of the dual.

Only Lie-algebra-level objects are computed: the subalgebroid fiber d inside
a subalgebra h, coadjoint isotropy algebras, and the constant-orbit-dimension
criterion for lines and planes meeting the leaves transversely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .lie import LieAlgebra, NotASubalgebra, is_subalgebra
from .linalg import Subspace, Vector, mat_vec, nullspace, transpose, vec
from .lie_poisson import bivector_at
from .submanifold import AffineSubspace, SampleSpec, bivector_pencil, skew_pencil


def algebroid_fiber_d(c: AffineSubspace) -> tuple[Subspace, bool]:
    """d = h intersected with {v : <base, [v, w]> = 0 for all w in h}.

    This is the fiber of the subalgebroid attached to C; requires h to be a
    subalgebra, read as the form on h being constant along C.  Its
    coordinates in h are the kernel of B_h(base), ranked on the integer rows
    ``base_rows`` of that pencil.  Also reports whether d is itself a
    subalgebra.
    """
    algebra, h = c.algebra, c.h
    if not c.form.constant:
        raise NotASubalgebra("the subalgebroid fiber needs h to be a subalgebra")
    # <base, [v, w]> = 0 for all w in h, on v = sum_i c_i h_i: c is in the
    # kernel of B_h(base), which D B0 of the pencil along C shares.
    h_columns = transpose(h.basis)
    kernel = nullspace(c.form.base_rows(), h.dim)
    d = Subspace.span(algebra.dim, [mat_vec(h_columns, cf) for cf in kernel])
    return d, is_subalgebra(algebra, d)


def isotropy_algebra(algebra: LieAlgebra, x: Iterable) -> Subspace:
    """g_x = {v : <x, [v, w]> = 0 for all w}; the conormal of the orbit at x."""
    xv = vec(x)
    pi = bivector_at(algebra, xv)
    # v in the kernel of v -> v^T Pi, i.e. of Pi^T; Pi is skew so use Pi itself.
    return Subspace.span(algebra.dim, pi).annihilator()


def orbit_tangent(algebra: LieAlgebra, x: Iterable) -> Subspace:
    """Tangent of the coadjoint orbit: the image of sharp at x.

    Pi(x) is skew, so its column span is its row span.
    """
    return Subspace.span(algebra.dim, bivector_at(algebra, vec(x)))


@dataclass(frozen=True)
class AlgebroidFiberReport:
    d: Optional[Subspace]  # None when h is not a subalgebra
    d_is_subalgebra: Optional[bool]
    orbit_dims: tuple[tuple[Vector, int], ...]  # (point, dim of orbit through it)
    transversal: tuple[tuple[Vector, bool], ...]  # TC meets orbit tangent in 0
    constant_orbit_dim: bool
    sampling: Optional[SampleSpec]  # None when C is a point, evaluated at its base only


def transversal_orbit_report(
    c: AffineSubspace, sampling: SampleSpec = SampleSpec()
) -> AlgebroidFiberReport:
    """Orbit dimensions and leaf-transversality along C, plus the fiber d.

    Two ranks per point decide both.  T_x O is the row space of Pi(x), so the
    orbit dimension is rank Pi(x).  A vector Pi(x) xi of T_x O lies in
    T_x C = ann(h) iff xi kills coad_{h_a}(x) = h_a Pi(x) for every a, and
    ker Pi(x) lies in that set, so
    dim(T_x C cap T_x O) = rank Pi(x) - rank [coad_{h_a}(x)]_a,
    and C is transversal to the orbit at x iff the two ranks agree.  Both
    matrices are pencils along C: Pi(x) on the full basis, and the rows
    coad_{h_a}(x) as <x, [h_a, e_j]>.
    """
    algebra, h = c.algebra, c.h
    pi = bivector_pencil(c)
    coad_h = skew_pencil(c, h.basis, Subspace.full(algebra.dim).basis)
    points, sampling = c.walk(sampling)
    ranks = [(c.point_at(t), pi.rank_at(t), coad_h.rank_at(t)) for t in points]
    orbit_dims = tuple((x, orbit_dim) for x, orbit_dim, _ in ranks)
    transversal = tuple((x, s == orbit_dim) for x, orbit_dim, s in ranks)
    dims = {d for _, d in orbit_dims}
    try:
        d, d_sub = algebroid_fiber_d(c)
    except NotASubalgebra:
        d, d_sub = None, None
    return AlgebroidFiberReport(
        d=d,
        d_is_subalgebra=d_sub,
        orbit_dims=orbit_dims,
        transversal=transversal,
        constant_orbit_dim=len(dims) == 1,
        sampling=sampling,
    )

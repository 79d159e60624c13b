"""Infinitesimal groupoid data attached to affine subspaces of the dual.

Only Lie-algebra-level objects are computed: the subalgebroid fiber d inside
a subalgebra h, coadjoint isotropy algebras, and the constant-orbit-dimension
criterion for lines and planes meeting the leaves transversely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .lie import LieAlgebra, NotASubalgebra, is_subalgebra
from .linalg import Subspace, Vector, nullspace, unit_vector, vec
from .lie_poisson import bivector_at
from .submanifold import AffineSubspace, SampleSpec, skew_pencil


def base_kernel(c: AffineSubspace) -> Subspace:
    """d = ann(TC + sharp N*C) in h, on h's canonical basis: the kernel of ``base_rows``."""
    return Subspace(c.h.dim, nullspace(c.form.base_rows(), c.h.dim))


def algebroid_fiber_d(c: AffineSubspace) -> tuple[Subspace, bool]:
    """d = h intersected with {v : <base, [v, w]> = 0 for all w in h}.

    This is the fiber of the subalgebroid attached to C; requires h to be a
    subalgebra, read as the form on h being constant along C.  A v in h kills
    coad_w(base) for every w in h iff <base, [v, w]> = 0, so d is the
    annihilator of ``span_at_base`` = ann(h) + sharp N*_base C.  Its
    coordinates in h are ``base_kernel``; also reports whether d is a subalgebra.
    """
    if not c.form.constant:
        raise NotASubalgebra("the subalgebroid fiber needs h to be a subalgebra")
    d = c.span_at_base.annihilator()
    return d, is_subalgebra(c.algebra, d)


def isotropy_algebra(algebra: LieAlgebra, x: Iterable) -> Subspace:
    """g_x = {v : <x, [v, w]> = 0 for all w}; the conormal of the orbit at x."""
    return orbit_tangent(algebra, x).annihilator()


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

    One skew elimination at each point decides both, run on the whole walk
    at once.  T_x O is the row space of Pi(x), so the orbit dimension is
    rank Pi(x).  A vector Pi(x) xi of T_x O lies in T_x C = ann(h) iff xi
    kills coad_{h_a}(x) = h_a Pi(x) for every a, and ker Pi(x) lies in that
    set, so
    dim(T_x C cap T_x O) = rank Pi(x) - rank [coad_{h_a}(x)]_a,
    and C is transversal to the orbit at x iff the two ranks agree.  With M =
    [H; E], h's canonical basis H over the unit vectors E off its pivots, the
    skew pencil <x, [M_a, M_b]> = M Pi(x) M^T has rank Pi(x) and its first
    dim h rows rank H Pi(x): ``SkewPencil.ranks_along`` reads both at every
    point of the walk.
    """
    h, n = c.h, c.algebra.dim
    e = [unit_vector(n, j) for j in range(n) if j not in h.pivots]
    pencil = skew_pencil(c, [*h.basis, *e])
    points, sampling = c.walk(sampling)
    ranks = [(c.point_at(t), *r) for t, r in zip(points, pencil.ranks_along(points, h.dim))]
    orbit_dims = tuple((x, orbit_dim) for x, orbit_dim, _ in ranks)
    transversal = tuple((x, s == orbit_dim) for x, orbit_dim, s in ranks)
    dims = {d for _, d in orbit_dims}
    d, d_sub = algebroid_fiber_d(c) if c.form.constant else (None, None)
    return AlgebroidFiberReport(
        d=d,
        d_is_subalgebra=d_sub,
        orbit_dims=orbit_dims,
        transversal=transversal,
        constant_orbit_dim=len(dims) == 1,
        sampling=sampling,
    )

"""Infinitesimal groupoid data attached to affine subspaces of the dual.

Only Lie-algebra-level objects are computed: the subalgebroid fiber d inside
a subalgebra h, coadjoint isotropy algebras, and the constant-orbit-dimension
criterion for lines and planes meeting the leaves transversely.  All of them
read the skew form <x, [., .]>: d is the kernel of C's pencil at the base,
isotropy and orbit tangent the kernel and row space of the bivector, and the
orbit report ranks one pencil along C, whose leading block is C's pencil.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Iterable, Optional

from .lie import LieAlgebra, NotASubalgebra, is_subalgebra
from .linalg import Subspace, Vector, nullspace, vec
from .lie_poisson import bivector_at
from .submanifold import AffineSubspace, SampleSpec, skew_pencil


def algebroid_fiber_d(c: AffineSubspace) -> tuple[Subspace, bool]:
    """d = h intersected with {v : <base, [v, w]> = 0 for all w in h}, the fiber of the
    subalgebroid attached to C: ``_fiber_d`` of the kernel of C's form at the base
    (``AffineSubspace.base_kernel``).  Requires h to be a subalgebra, read as the form
    being constant along C."""
    if not c.form.is_constant:
        raise NotASubalgebra("the subalgebroid fiber needs h to be a subalgebra")
    return _fiber_d(c, c.base_kernel)


def _fiber_d(c: AffineSubspace, kernel: Subspace) -> tuple[Subspace, bool]:
    """d from its coordinates ``kernel`` on h's canonical basis: the span of their
    combinations of h's integer echelon rows; also whether d is a subalgebra."""
    columns = list(zip(*c.h.integer_echelon[1]))
    rows = [[sum(map(mul, k, col)) for col in columns] for k in kernel.integer_echelon[1]]
    d = Subspace.integer_span(c.algebra.dim, rows)
    return d, is_subalgebra(c.algebra, d)


def isotropy_algebra(algebra: LieAlgebra, x: Iterable) -> Subspace:
    """g_x = {v : <x, [v, w]> = 0 for all w}: ker Pi(x), the conormal of the orbit at x."""
    return Subspace(algebra.dim, nullspace(bivector_at(algebra, x), algebra.dim))


def orbit_tangent(algebra: LieAlgebra, x: Iterable) -> Subspace:
    """Tangent of the coadjoint orbit: the image of sharp at x.

    Pi(x) is skew, so its column span is its row span.
    """
    return Subspace.span(algebra.dim, bivector_at(algebra, vec(x)))


@dataclass(frozen=True)
class AlgebroidFiberReport:
    """The fiber d and the orbit through each point of C's walk.

    d comes from the orbit pencil's leading dim h block, the points from
    ``AffineSubspace.points_at``: an integral entry is an ``int``, any other a Fraction.
    """

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
    point of the walk.  Its leading dim h block is C's form B_h: constant iff no
    direction touches a cell (a, b) with b < dim h, and then d is its kernel at the base.
    """
    h, n = c.h, c.algebra.dim
    d, rows = h.integer_echelon
    e = [[d * (i == j) for i in range(n)] for j in range(n) if j not in h.pivots]
    pencil = skew_pencil(c, d, [*rows, *e])
    walk, sampling = c.walk(sampling)
    ranks = [r for chunk in pencil.ranks_along(walk, h.dim) for r in chunk]
    orbit_dims = tuple(zip(c.points_at(walk), (orbit_dim for orbit_dim, _ in ranks)))
    transversal = tuple((x, s == orbit_dim) for (x, orbit_dim), (_, s) in zip(orbit_dims, ranks))
    d, d_sub = None, None
    if all(pencil.cells[k][1] >= h.dim for terms in pencil.directions for k, _ in terms):
        block = [row[: h.dim] for row in pencil.base_rows()[: h.dim]]
        d, d_sub = _fiber_d(c, Subspace.integer_span(h.dim, block).annihilator())
    return AlgebroidFiberReport(
        d=d,
        d_is_subalgebra=d_sub,
        orbit_dims=orbit_dims,
        transversal=transversal,
        constant_orbit_dim=len({d for _, d in orbit_dims}) == 1,
        sampling=sampling,
    )

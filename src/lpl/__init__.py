"""Exact-arithmetic classification of affine subspaces of Lie-Poisson duals."""

from .algebroid import (
    AlgebroidFiberReport,
    algebroid_fiber_d,
    isotropy_algebra,
    orbit_tangent,
    transversal_orbit_report,
)
from .embedding import (
    ConstancyResult,
    Extension,
    ExtensionCheckFailed,
    LocusReport,
    RankNotConstant,
    SymmetricPairReport,
    check_symmetric_pair,
    coisotropy_in_extension,
    constant_sharp_conormal,
    cosymplectic_locus,
    extend,
    induced_structure,
    induced_structure_from_decomposition,
    injectivity_at,
    is_cosymplectic_at,
    symmetric_pair_analysis,
)
from .lie import (
    LieAlgebra,
    LinearMap,
    NotASubalgebra,
    ValidationReport,
    direct_sum,
    is_subalgebra,
    morphism_check,
    subspace_bracket,
    validate_jacobi,
)
from .lie_poisson import (
    Polynomial,
    bivector_at,
    casimir_check,
    parse_polynomial,
    poisson_bracket_poly,
)
from .linalg import (
    DimensionMismatch,
    InvariantViolation,
    Matrix,
    Subspace,
    Vector,
    choose_complement,
    vec,
)
from .submanifold import (
    AffineSubspace,
    ClassificationReport,
    CoisotropyResult,
    PrePoissonVerdict,
    SampleSpec,
    SkewPencil,
    bivector_pencil,
    classify,
    graph_coisotropy,
    is_coisotropic,
    pointwise_flags,
    pre_poisson_check,
    preimage_construction,
    product,
    sharp_conormal_at,
    skew_pencil,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

"""Numerical machinery for free bianalytic maps between spectraballs and free
spectrahedra: linear pencils, domain membership, algebra structure constants,
convexotonic map evaluation and inversion, sv-genericity probing, and a
verification harness with a CLI front end.
"""

import os as _os

# optional cap on BLAS threads; must be set before numpy initializes its pools
_cap = _os.environ.get("CONVEXOTONIC_NUM_THREADS")
if _cap:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _cap)
del _os, _cap

from .algebras import (
    AlgebraClosure,
    StructureConstants,
    algebra_closure,
    convexotonic_residual,
    is_convexotonic,
    is_linearly_independent,
    pencil_structure_constants,
    structure_constants,
)
from .domains import (
    Location,
    MembershipVerdict,
    Spectraball,
    Spectrahedron,
    ball_membership,
    ball_to_spectrahedron,
    boundary_scale,
    spec_membership,
)
from .errors import (
    DependentInput,
    DomainBreach,
    NotSquare,
    PencilError,
    ShapeMismatch,
    SpanViolation,
    TupleLengthMismatch,
    ZeroDirection,
)
from .genericity import (
    GenericityCertificate,
    KernelPoint,
    NecessaryConditions,
    ProbeResult,
    hyperbasis_margin,
    necessary_conditions,
    sv_probe,
)
from .linalg import (
    DEFAULT_TOL,
    MatrixTuple,
    hermitian_pencil,
    is_nilpotent,
    kernel_basis,
    operator_norm,
    pencil_eval,
)
from .maps import (
    ConvexotonicMap,
    MapSign,
    jacobian_at_zero,
    transfer_residual,
)
from .verify import (
    CheckResult,
    TheoremData,
    VerificationReport,
    example_catalog,
    type_i_tuple,
    type_ii_tuple,
    type_iii_tuple,
    type_iv_tuple,
    verify_ball_equality,
    verify_corollary,
    verify_properness,
    verify_theorem,
)

__version__ = "0.1.0"

"""Numerics for constant-mean-curvature hypersurfaces of hyperbolic
rotational type in H^(n+1).

The public API re-exports the main types and operations of the six
submodules: potential (q, landmark constants and the roots of p and Q),
quadrature (the integrals T, K and xi: K and xi over a phase variable, T
by tanh-sinh), shooting (closure solvers), profile (the profile curve as
series in the same phase variable, which also set its period), lorentz
(ambient geometry) and planar (polygon diagnostics).
"""

from .errors import (
    ClassificationRefusedError,
    DegenerateOscillationError,
    DimensionError,
    DomainError,
    EmbeddingPreconditionError,
    EvaluationError,
    HypcmcError,
    InconsistentStateError,
    IntegrationFailureError,
    LandmarkError,
    NonConvergenceError,
    ParameterRangeError,
)
from .lorentz import (
    CurvatureCheck,
    FiberPoint,
    gauss_map,
    immerse_point,
    minkowski_inner,
    verify_cmc,
)
from .planar import has_self_intersection, polygon_is_closed, winding_number
from .potential import (
    C0,
    C1,
    Ctilde,
    PotentialLandmarks,
    ShapeParams,
    eval_h,
    eval_p,
    eval_q,
    eval_q_prime,
    eval_q_tilde,
    eval_Q,
    landmarks,
    oscillation_roots,
    v0,
)
from .profile import (
    ProfileCurve,
    ProfileSample,
    integrate_profile,
    profile_alpha,
    surface_grid,
    theta_prime_trace,
)
from .quadrature import (
    K_limit_at_C0,
    QuadResult,
    b2,
    de_integrate,
    flux_K,
    flux_K_grid,
    period_T,
    xi,
    xi_grid,
)
from .shooting import (
    NoRootReport,
    SolveOutcome,
    WindingTarget,
    classify,
    find_H0,
    solve_C,
)

__version__ = "0.1.0"

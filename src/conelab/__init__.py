"""conelab: common invariant proper cones for finite families of real matrices.

Decides whether a family shares an invariant proper cone, constructs an
explicit witness (polyhedral or quadratic) when one exists, emits a named
failure certificate when it does not, and ships an independent verification
oracle for every decision.
"""

__version__ = "0.1.0"

from .cones import (
    ConeRep,
    InvarianceReport,
    MembershipResult,
    PolyhedralCone,
    PropernessReport,
    QuadraticCone,
    conic_hull,
    contains,
    is_invariant,
    is_proper,
    prune_generators,
)
from .decision import Decision
from .linalg import (
    DEFAULT_TOL,
    Spectrum,
    ToleranceConfig,
    VandergraftReport,
    eigen_decompose,
    enumerate_words,
    is_vandergraft,
)
from .planar import (
    EigenFrame2,
    associated_sign,
    classify2,
    decide_common_2x2,
    extended_family,
    is_invariant_cone_2x2,
    make_invariant_cone,
    minimal_bad_subfamily,
    necessary_conditions,
    search_common_cone,
)
from .shared_dominant import (
    DeflatedFamily,
    LyapunovCertificate,
    common_dominant_eigenvector,
    common_lyapunov,
    decide_shared_dominant,
    deflate,
    ice_cream_cone,
)
from .simdiag import (
    DominantIndexSet,
    SimDiagForm,
    construct_simdiag_cone,
    decide_simdiag,
    dominant_index_set,
    simultaneous_diagonalize,
)

__all__ = [
    "__version__",
    "ConeRep", "InvarianceReport", "MembershipResult", "PolyhedralCone",
    "PropernessReport", "QuadraticCone", "conic_hull", "contains",
    "is_invariant", "is_proper", "prune_generators",
    "Decision",
    "DEFAULT_TOL", "Spectrum", "ToleranceConfig", "VandergraftReport",
    "eigen_decompose", "enumerate_words", "is_vandergraft",
    "EigenFrame2", "associated_sign", "classify2", "decide_common_2x2",
    "extended_family", "is_invariant_cone_2x2", "make_invariant_cone",
    "minimal_bad_subfamily", "necessary_conditions", "search_common_cone",
    "DeflatedFamily", "LyapunovCertificate", "common_dominant_eigenvector",
    "common_lyapunov", "decide_shared_dominant", "deflate", "ice_cream_cone",
    "DominantIndexSet", "SimDiagForm", "construct_simdiag_cone",
    "decide_simdiag", "dominant_index_set", "simultaneous_diagonalize",
]

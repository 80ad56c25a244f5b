"""Sufficient constructions for n x n families sharing a dominant eigenvector.

Two routes, both sufficient-only: an ice-cream (Lorentz) cone about the
shared dominant eigenvector when the family is normal (or similar to normal
via a caller-supplied real similarity), and, for commuting families whose
spectral radii are semisimple, deflation of the shared eigenvector followed
by a common Lyapunov inequality on the deflated blocks, giving an
ellipsoidal cone.  Deflation splits the space once, into the joint
eigenspace of the shared eigenvalue and the sum of the members' ranges at
it; a member that is defective there makes the split fail, which is
reported as undecided.  The Lyapunov matrix comes from nested Stein
equations, after a root-subspace split when some block has unit-modulus
eigenvalues, and every witness is re-checked with the exact quadratic
invariance test.
A failed hypothesis is reported as "undecided", never as a proof of
non-existence; the only NO is a member failing the spectral (Vandergraft)
test, which no family with a common cone can contain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import decision as dd
from .cones import QuadraticCone, is_invariant
from .decision import Decision
from .errors import (
    EmptyFamily,
    HypothesesNotMet,
    HypothesisViolated,
    InternalInconsistency,
    NoSharedDominantVector,
    NotCommuting,
    NotNormal,
    NotSemisimple,
    PreconditionFailed,
)
from .linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    as_square_matrix,
    check_commuting,
    eigen_decompose,
    eigenvalue_clusters,
    fix_sign,
    is_vandergraft,
    nullspace,
    square_family,
    unit_members,
)

# Eigenvalues of modulus above 1 - _UNIT_BAND are treated as unit-modulus
# when choosing between the series and the reduction construction.
_UNIT_BAND = 1e-6


@dataclass(frozen=True)
class LyapunovCertificate:
    V: np.ndarray                 # real symmetric positive definite
    residuals: tuple[float, ...]  # min eigenvalue of V - B_j^T V B_j, per j
    method: str                   # "series" | "reduction"
    min_eigenvalue: float

    def __post_init__(self):
        self.V.setflags(write=False)


@dataclass(frozen=True)
class DeflatedFamily:
    S: np.ndarray                  # real invertible, first column = shared eigenvector
    lam0: float
    blocks: tuple[np.ndarray, ...]  # (m-1) x (m-1) lower-right blocks, per member


def common_dominant_eigenvector(reports, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray | None:
    """Unit vector spanning a line in every member's dominant eigenspace, or None.

    Takes each member's `is_vandergraft` report.
    """
    if len(reports) == 0:
        raise EmptyFamily("no matrices")
    basis = None
    for j, rep in enumerate(reports):
        if not rep.is_vandergraft:
            raise PreconditionFailed(f"member {j} is not a Vandergraft matrix")
        vecs = rep.dominant_eigenvectors
        if vecs is None or vecs.shape[1] == 0:
            return None
        if basis is None:
            basis = vecs
            continue
        stacked = np.column_stack([basis, -vecs])
        ns = nullspace(stacked, tol.eig_cluster_tol)  # orthonormal columns: norm 1 each
        if ns.shape[1] == 0:
            return None
        basis, _ = np.linalg.qr(basis @ ns[: basis.shape[1]])
        basis = basis[:, : ns.shape[1]]
    return fix_sign(basis[:, 0] / np.linalg.norm(basis[:, 0]))


def quadratic_cone_from_form(Q: np.ndarray, interior_point: np.ndarray) -> QuadraticCone:
    """The cone {v : v^T Q v <= 0} on the interior point's side of the apex.

    Q must have exactly one negative eigenvalue; its eigenvector becomes the
    axis, the remaining eigenpairs give the complement form.
    """
    Q = 0.5 * (Q + Q.T)
    w, U = np.linalg.eigh(Q)
    if w[0] >= 0 or np.any(w[1:] <= 0):
        raise ValueError("form must have signature (1 negative, n-1 positive)")
    axis = U[:, 0]
    if float(axis @ interior_point) < 0:
        axis = -axis
    V = np.diag(w[1:] / abs(w[0]))
    return QuadraticCone(Q.shape[0], axis, V, U[:, 1:])


def ice_cream_cone(family, x=None, tol: ToleranceConfig = DEFAULT_TOL, similarity=None) -> Decision:
    """Lorentz-cone witness about the shared dominant eigenvector of a normal family."""
    mats = square_family(family)
    m = mats[0].shape[0]
    if m == 1:
        raise PreconditionFailed("ambient dimension must be at least 2")
    T = None if similarity is None else as_square_matrix(similarity)
    work = mats if T is None else [np.linalg.solve(T, M @ T) for M in mats]
    for j, W in enumerate(work):
        defect = np.linalg.norm(W @ W.T - W.T @ W)
        if defect > tol.eig_cluster_tol * float(np.linalg.norm(W)) ** 2:
            raise NotNormal(f"member {j} is not normal (defect {defect:.3e})")
    if x is None:
        x = common_dominant_eigenvector([is_vandergraft(M, tol) for M in mats], tol)
        if x is None:
            raise NoSharedDominantVector("no common dominant eigenvector")
    x = np.asarray(x, dtype=float)
    x = x / np.linalg.norm(x)
    rhos = []
    for j, M in enumerate(mats):
        rho = float(np.max(np.abs(np.linalg.eigvals(M))))
        if np.linalg.norm(M @ x - rho * x) > 1e-7 * np.linalg.norm(M):
            raise NoSharedDominantVector(f"supplied vector is not dominant for member {j}")
        rhos.append(rho)

    if T is None:
        B = nullspace(x.reshape(1, -1), tol.rank_tol)
        K = QuadraticCone(m, x, np.eye(m - 1), B)
    else:
        xw = np.linalg.solve(T, x)
        xw = xw / np.linalg.norm(xw)
        Bw = nullspace(xw.reshape(1, -1), tol.rank_tol)
        Kw = QuadraticCone(m, xw, np.eye(m - 1), Bw)
        Tinv = np.linalg.inv(T)
        K = quadratic_cone_from_form(Tinv.T @ Kw.ambient_form() @ Tinv, x)

    return Decision(dd.YES, K, {
        "construction": "ice-cream cone about the shared dominant eigenvector",
        "spectral_radii": rhos,
        "checks": _witness_checks(K, mats, tol, "ice-cream certificate"),
    }, route="shared-dominant")


def _witness_checks(K: QuadraticCone, mats, tol: ToleranceConfig, what: str) -> list[dict]:
    """Re-check the witness on every member; a failure is a bug, not a NO."""
    checks = []
    for j, M in enumerate(mats):
        rep = is_invariant(K, M, tol)
        if not rep.invariant:
            raise InternalInconsistency(f"{what} fails for member {j}")
        checks.append({"matrix": f"A{j}", "method": rep.method, "psd_margin": rep.psd_margin,
                       "multiplier": rep.multiplier})
    return checks


def deflate(family, x, tol: ToleranceConfig = DEFAULT_TOL) -> DeflatedFamily:
    """Split off a shared semisimple eigenvalue: S^-1 A_j S = diag(lam0, B_j).

    When lam0 is semisimple for every member of a commuting family, R^m is
    the direct sum of E, the kernel of the stacked A_j - lam0 I, and F, the
    sum of their ranges, and every member preserves both.  One SVD of each
    stack, cut at eig_cluster_tol * max ||A_j||, gives orthonormal bases, and
    S = [x, rest of E, F].  NotSemisimple is raised unless the two bases
    span R^m with a smallest singular value of [E F] above
    sqrt(eig_cluster_tol), which a defective member (E meeting F) fails.
    """
    mats = square_family(family)
    m = mats[0].shape[0]
    check_commuting(mats, tol)
    x = np.asarray(x, dtype=float)
    x = x / np.linalg.norm(x)
    lams = [float(x @ (M @ x)) for M in mats]
    lam0 = lams[0]
    for j, (M, lam) in enumerate(zip(mats, lams)):
        cut = 1e-7 * np.linalg.norm(M)
        if abs(lam - lam0) > cut or np.linalg.norm(M @ x - lam * x) > cut:
            raise PreconditionFailed(f"member {j} does not share the eigenvalue at x")

    shifted = [M - lam0 * np.eye(m) for M in mats]
    cut = tol.eig_cluster_tol * max(np.linalg.norm(M) for M in mats)
    _, s, vh = np.linalg.svd(np.vstack(shifted))
    E = vh[int(np.sum(s > cut)):].T
    U, s, _ = np.linalg.svd(np.hstack(shifted))
    F = U[:, : int(np.sum(s > cut))]
    if E.shape[1] + F.shape[1] != m:
        raise NotSemisimple(f"kernel and ranges at {lam0:.6g} have dimensions "
                            f"{E.shape[1]} + {F.shape[1]} != {m}")
    if np.linalg.svd(np.hstack([E, F]), compute_uv=False)[-1] < np.sqrt(tol.eig_cluster_tol):
        raise NotSemisimple(f"eigenvalue {lam0:.6g} is not semisimple for every member")
    if np.linalg.norm(x - E @ (E.T @ x)) > 1e-7:
        raise NotSemisimple("shared eigenvector escapes the joint eigenspace")
    # The rest of E: project x out and keep the dim E - 1 surviving directions.
    rest, _, _ = np.linalg.svd(E - np.outer(x, x @ E), full_matrices=False)
    S = np.column_stack([x, rest[:, : E.shape[1] - 1], F])

    blocks = []
    Sinv = np.linalg.inv(S)
    for j, M in enumerate(mats):
        W = Sinv @ M @ S
        resid = max(
            float(np.linalg.norm(W[0, 1:])), float(np.linalg.norm(W[1:, 0])),
            abs(float(W[0, 0]) - lam0),
        )
        if resid > 1e-6 * np.linalg.norm(M) * np.linalg.cond(S):
            raise NotSemisimple(f"deflation residual {resid:.3e} for member {j}")
        blocks.append(W[1:, 1:])
    return DeflatedFamily(S, lam0, tuple(blocks))


def _series_sum(mats) -> np.ndarray:
    """Sum over exponent tuples of (A_1*)^z_1 ... (A_n*)^z_n A_n^z_n ... A_1^z_1.

    Summing out one exponent at a time, last member first, makes each stage
    the solution of one Stein equation X = A* X A + W (unique because
    rho(A) < 1), which is solved directly instead of term by term: with
    a = A*, row-major vec(a X a*) = kron(a, conj(a)) vec(X), so vec(X) solves
    the m^2 x m^2 system (I - kron(a, conj(a))) vec(X) = vec(W).  That is
    scipy's `solve_discrete_lyapunov` method "direct"; its O(m^6) cost is
    small at the block sizes met here.
    """
    m = mats[0].shape[0]
    W = np.eye(m, dtype=complex)
    for A in reversed(mats):
        a = A.conj().T
        W = np.linalg.solve(np.eye(m * m) - np.kron(a, a.conj()), W.ravel()).reshape(m, m)
    return W


def _lyapunov_complex(mats, tol) -> np.ndarray:
    """Complex positive definite V >= I with V - A_j* V A_j >= 0 for all j.

    Strictly contractive families take the series.  Otherwise the root
    subspaces of a unit-radius member split the family into commuting
    diagonal blocks, each solved recursively; on a unit-modulus root subspace
    that member acts as a unimodular scalar, so its inequality there is an
    identity and it is left out.
    """
    m = mats[0].shape[0]
    rhos = [float(np.max(np.abs(np.linalg.eigvals(A)))) for A in mats]
    if max(rhos) < 1.0 - _UNIT_BAND:
        return _series_sum(mats)

    j_star = next(i for i, r in enumerate(rhos) if r >= 1.0 - _UNIT_BAND)
    A = mats[j_star]
    cut = tol.eig_cluster_tol * np.linalg.norm(A)
    bases, kinds = [], []
    for lam, mult in eigenvalue_clusters(np.linalg.eigvals(A), cut):
        P = np.linalg.matrix_power(A - lam * np.eye(m), mult)
        bases.append(nullspace(P, tol.rank_tol * np.linalg.norm(A) ** mult))
        kinds.append(abs(lam) >= 1.0 - _UNIT_BAND)
    T = np.column_stack(bases)
    if T.shape[1] != m:
        raise HypothesisViolated("root subspaces do not span; spectrum too clustered")
    if np.linalg.cond(T) > 1e8:
        raise HypothesisViolated("ill-conditioned root-subspace splitting")
    Tinv = np.linalg.inv(T)
    split = [Tinv @ M @ T for M in mats]
    offs = np.cumsum([0] + [b.shape[1] for b in bases])
    Vs = np.zeros((m, m), dtype=complex)
    for bi, unit_kind in enumerate(kinds):
        sl = slice(offs[bi], offs[bi + 1])
        sub = [W[sl, sl] for i, W in enumerate(split) if not (unit_kind and i == j_star)]
        Vs[sl, sl] = _lyapunov_complex(sub, tol) if sub else np.eye(offs[bi + 1] - offs[bi], dtype=complex)
    return Tinv.conj().T @ Vs @ Tinv


def common_lyapunov(blocks, tol: ToleranceConfig = DEFAULT_TOL) -> LyapunovCertificate:
    """Real V > 0 with V - B_j^T V B_j >= 0 for commuting blocks with rho <= 1.

    Strictly contractive families ("series") take the sum over exponent
    tuples z of (B^z)^T B^z, B^z = B_1^z_1 ... B_n^z_n, solved as nested
    Stein equations.  Families with
    unit-modulus (semisimple) eigenvalues ("reduction") are split into root
    subspaces and solved block by block; an ill-conditioned split raises
    HypothesisViolated.
    """
    mats = square_family(blocks)
    check_commuting(mats, tol)
    rhos = []
    for j, B in enumerate(mats):
        spec = eigen_decompose(B, tol)
        if spec.spectral_radius > 1.0 + tol.eig_cluster_tol * np.linalg.norm(B):
            raise HypothesisViolated(f"spectral radius of block {j} exceeds 1")
        for ev in spec.eigenvalues:
            if abs(ev.value) >= 1.0 - _UNIT_BAND and ev.degree > 1:
                raise HypothesisViolated(f"unit-modulus eigenvalue of block {j} is not semisimple")
        rhos.append(spec.spectral_radius)

    method = "series" if max(rhos) < 1.0 - _UNIT_BAND else "reduction"
    Vc = _lyapunov_complex([B.astype(complex) for B in mats], tol)
    V = np.real(Vc + np.conj(Vc))
    V = 0.5 * (V + V.T)
    V = V / max(1.0, float(np.linalg.norm(V, 2)) / 10.0)  # keep magnitudes tame
    residuals = tuple(float(np.min(np.linalg.eigvalsh(V - B.T @ V @ B))) for B in mats)
    mineig = float(np.min(np.linalg.eigvalsh(V)))
    if mineig <= 0:
        raise HypothesisViolated("computed certificate is not positive definite")
    return LyapunovCertificate(V, residuals, method, mineig)


def decide_shared_dominant(family, tol: ToleranceConfig = DEFAULT_TOL, similarity=None) -> Decision:
    """Sufficient decision for families sharing a dominant eigenvector.

    Each member's spectral report is computed once.  A member that fails the
    spectral test has no invariant proper cone, so neither has the family:
    that is a definitive NO.  Otherwise tries the normal-family ice-cream
    construction first, then the commuting route (scale to spectral radius
    one, deflate the shared eigenvector, solve the common Lyapunov
    inequality, return the ellipsoidal cone).  Raises HypothesesNotMet for a
    1x1 family, before any other work, and when neither route applies.
    Members are scaled to unit norm first, so the answer does not depend on
    their scale; `spectral_radii` and the Lyapunov fields describe the
    scaled members.
    """
    mats = unit_members(family)
    if mats[0].shape[0] < 2:
        raise HypothesesNotMet("DimensionMismatch", "the shared-dominant route needs dimension at least 2")
    reports = [is_vandergraft(M, tol) for M in mats]
    bad = next((j for j, rep in enumerate(reports) if not rep.is_vandergraft), None)
    if bad is not None:
        return Decision(dd.NO, None, {
            "failed_condition": dd.NOT_VANDERGRAFT_IN_A1,
            "evidence": {"member": f"A{bad}", "reason": reports[bad].failed_condition},
        }, route="shared-dominant")
    x = common_dominant_eigenvector(reports, tol)
    if x is None:
        raise HypothesesNotMet("NoSharedDominantVector")

    try:
        return ice_cream_cone(mats, x, tol, similarity)
    except NotNormal as first_failure:
        normal_note = str(first_failure)

    try:
        check_commuting(mats, tol)
    except NotCommuting as exc:
        raise HypothesesNotMet("NotCommuting", f"{exc}; also not normal ({normal_note})") from exc

    live, dropped = [], []
    for j, (M, rep) in enumerate(zip(mats, reports)):
        spec = rep.spectrum
        rho = spec.spectral_radius
        if not M.any():
            dropped.append(j)
            continue
        if rho <= tol.eig_cluster_tol:
            raise HypothesesNotMet("NotSemisimple", f"member {j} is nilpotent but nonzero")
        dom = spec.dominant(tol)
        if dom is None or dom.degree > 1:
            raise HypothesesNotMet("NotSemisimple", f"spectral radius of member {j} is not semisimple")
        live.append(M / rho)
    try:
        deflated = deflate(live, x, tol)
        cert = common_lyapunov(deflated.blocks, tol)
    except (NotSemisimple, NotCommuting, HypothesisViolated) as exc:
        raise HypothesesNotMet(type(exc).__name__, str(exc)) from exc

    m = mats[0].shape[0]
    Q_defl = np.zeros((m, m))
    Q_defl[0, 0] = -1.0
    Q_defl[1:, 1:] = cert.V
    Sinv = np.linalg.inv(deflated.S)
    K = quadratic_cone_from_form(Sinv.T @ Q_defl @ Sinv, x)
    # For the unit vector x = c*axis + B y: c > geom_tol and y^T V y < c^2 - geom_tol.
    if not (K.axis @ x > tol.geom_tol and x @ K.ambient_form() @ x < -tol.geom_tol):
        raise InternalInconsistency("shared dominant eigenvector is not interior to the witness")

    return Decision(dd.YES, K, {
        "construction": "ellipsoidal cone from deflation and a common Lyapunov inequality",
        "lyapunov_method": cert.method,
        "lyapunov_residuals": list(cert.residuals),
        "lyapunov_min_eigenvalue": cert.min_eigenvalue,
        "dropped_zero_members": dropped,
        "checks": _witness_checks(K, mats, tol, "ellipsoidal witness"),
    }, route="shared-dominant")

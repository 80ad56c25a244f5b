"""Cone representations and the membership / properness / invariance oracles.

Two witness shapes are supported: polyhedral cones given by unit generators,
and quadratic (ellipsoidal) cones given by an axis plus a positive-definite
form on its orthogonal complement.  Membership for polyhedral cones is one
nonnegative least-squares projection of the unit vector onto the unit
generators, so every query also yields a distance.
Invariance is decided exactly for both shapes: by the images of the
generators, and for quadratic cones by an S-lemma certificate plus a
dual-cone test (see `is_invariant`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.linalg import eigvals
from scipy.optimize import brentq, nnls

from .errors import DimensionMismatch, EmptyInput
from .linalg import DEFAULT_TOL, ToleranceConfig, _norm, as_square_matrix, matrix_rank

# Membership treats vectors shorter than 2^30 units of the smallest subnormal
# as the zero vector: their direction has fewer than 30 significant bits.
_ZERO_NORM = 2.0 ** -1044


@dataclass(frozen=True)
class PolyhedralCone:
    """Conic hull of finitely many unit generators (rows of `generators`)."""

    dim: int
    generators: np.ndarray  # shape (k, dim), rows unit-normalized

    def __post_init__(self):
        G = np.asarray(self.generators, dtype=float)
        if G.ndim != 2 or G.shape[1] != self.dim or G.shape[0] < 1:
            raise DimensionMismatch(f"bad generator array of shape {G.shape}")
        if not np.all(np.isfinite(G)):
            raise ValueError("generators must be finite")
        norms = np.linalg.norm(G, axis=1)
        if norms.min() <= 1e-150:
            norms = np.array([_norm(g) for g in G])
            if norms.min() < _ZERO_NORM:
                raise EmptyInput("zero generator")
        G = G / norms[:, None]
        G.setflags(write=False)
        object.__setattr__(self, "generators", G)

    @property
    def num_generators(self) -> int:
        return self.generators.shape[0]


@dataclass(frozen=True)
class QuadraticCone:
    """K = { c*axis + y : c >= 0, y in axis-complement, y^T V y <= c^2 }.

    `complement_basis` has orthonormal columns spanning the complement of the
    axis; V is symmetric positive definite in those coordinates.  Cones of
    this shape are proper by construction.
    """

    dim: int
    axis: np.ndarray              # (dim,), unit norm
    form: np.ndarray              # (dim-1, dim-1), symmetric positive definite
    complement_basis: np.ndarray  # (dim, dim-1), orthonormal columns, _|_ axis

    def __post_init__(self):
        x = np.asarray(self.axis, dtype=float)
        B = np.asarray(self.complement_basis, dtype=float)
        V = np.asarray(self.form, dtype=float)
        if self.dim < 2:
            raise DimensionMismatch("quadratic cones need ambient dimension >= 2")
        if x.shape != (self.dim,) or B.shape != (self.dim, self.dim - 1) or V.shape != (self.dim - 1, self.dim - 1):
            raise DimensionMismatch("inconsistent quadratic cone shapes")
        if not all(np.all(np.isfinite(a)) for a in (x, B, V)):
            raise ValueError("quadratic cone entries must be finite")
        n = _norm(x)
        if n < _ZERO_NORM:
            raise EmptyInput("zero axis")
        x = x / n
        if np.linalg.norm(B.T @ B - np.eye(self.dim - 1)) > 1e-8 or np.linalg.norm(B.T @ x) > 1e-8:
            raise ValueError("complement basis must be orthonormal and orthogonal to the axis")
        V = 0.5 * (V + V.T)
        if np.min(np.linalg.eigvalsh(V)) <= 0:
            raise ValueError("form must be positive definite")
        for arr, name in ((x, "axis"), (B, "complement_basis"), (V, "form")):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def ambient_form(self) -> np.ndarray:
        """Q with v^T Q v = y^T V y - c^2 for v = c*axis + B y."""
        return self.complement_basis @ self.form @ self.complement_basis.T - np.outer(self.axis, self.axis)


ConeRep = Union[PolyhedralCone, QuadraticCone]


@dataclass(frozen=True)
class MembershipResult:
    """Whether a vector lies in K (to geom_tol, scale-free) and its Euclidean distance to K."""

    inside: bool
    distance: float


@dataclass(frozen=True)
class PropernessReport:
    proper: bool
    pointed: bool
    solid: bool
    diagnosis: str

    def __bool__(self):
        return self.proper


@dataclass(frozen=True)
class InvarianceReport:
    invariant: bool
    max_distance: float
    method: str  # "generators" | "psd"
    worst: tuple | None = None       # (kind, index, point of K) whose image is farthest out
    psd_margin: float | None = None  # relative lambda_min(tQ - A^T Q A) at the chosen t
    multiplier: float | None = None  # S-lemma multiplier t when a quadratic cone is invariant

    def __bool__(self):
        return self.invariant


def unit(v: np.ndarray) -> np.ndarray:
    n = _norm(v)
    if n < _ZERO_NORM:
        raise EmptyInput("cannot normalize the zero vector")
    return v / n


def conic_hull(vectors, dim: int | None = None, tol: ToleranceConfig = DEFAULT_TOL) -> PolyhedralCone:
    """Normalize, deduplicate (angle < geom_tol) and sort the generators."""
    rows = [np.asarray(v, dtype=float).reshape(-1) for v in vectors]
    rows = [r / n for r in rows if (n := _norm(r)) >= _ZERO_NORM]
    if not rows:
        raise EmptyInput("no nonzero vectors")
    if dim is None:
        dim = rows[0].size
    if any(r.size != dim for r in rows):
        raise DimensionMismatch("mixed vector dimensions")
    kept: list[np.ndarray] = []
    for u in rows:
        if all(np.linalg.norm(u - k) > tol.geom_tol for k in kept):
            kept.append(u)
    G = np.array(sorted(kept, key=lambda v: tuple(v)))
    return PolyhedralCone(dim, G)


def nnls_distance(A: np.ndarray, b: np.ndarray) -> tuple[float, np.ndarray]:
    """min ||A x - b|| over x >= 0; the residual is recomputed from x because
    some scipy versions report an unreliable rnorm."""
    x, _ = nnls(A, b)
    return float(np.linalg.norm(A @ x - b)), x


def _polyhedral_membership(K: PolyhedralCone, v: np.ndarray, tol: ToleranceConfig) -> MembershipResult:
    nv = _norm(v)
    if nv < _ZERO_NORM:
        return MembershipResult(True, 0.0)
    # Membership in a cone is scale-invariant; working on the unit vector
    # keeps the flag independent of the input scale.
    udist, _ = nnls_distance(K.generators.T, v / nv)
    return MembershipResult(bool(udist <= tol.geom_tol), udist * nv)


def _quad_coords(K: QuadraticCone, v: np.ndarray) -> tuple[float, np.ndarray]:
    c = float(K.axis @ v)
    z = K.complement_basis.T @ v
    return c, z


def _quad_distance(K: QuadraticCone, v: np.ndarray) -> float:
    """Euclidean distance from v to K via the KKT projection equations."""
    nv = float(np.linalg.norm(v))
    if nv == 0.0:
        return 0.0
    c0, z0 = _quad_coords(K, v)
    d, W = np.linalg.eigh(K.form)
    w0 = W.T @ z0
    q0 = float(np.sum(d * w0 * w0))
    if c0 >= 0 and q0 <= c0 * c0:
        return 0.0
    # Polar cone region projects to the apex.
    polar_q = float(np.sum(w0 * w0 / d))
    if c0 <= 0 and polar_q <= c0 * c0:
        return nv

    def g(mu):
        wi = w0 / (1.0 + mu * d)
        ci = c0 / (1.0 - mu)
        return float(np.sum(d * wi * wi) - ci * ci)

    def point(mu):
        w = w0 / (1.0 + mu * d)
        if abs(1.0 - mu) < 1e-12:
            c = float(np.sqrt(max(np.sum(d * w * w), 0.0)))
        else:
            c = max(c0 / (1.0 - mu), 0.0)
        return c * K.axis + K.complement_basis @ (W @ w)

    mu = None
    thresh = 1e-9 * nv
    if c0 > thresh:
        if g(1.0 - 1e-12) < 0:
            mu = brentq(g, 0.0, 1.0 - 1e-12, xtol=1e-14, maxiter=200)
    elif c0 < -thresh:
        hi = 2.0
        while g(hi) < 0 and hi < 1e12:
            hi *= 4.0
        if g(1.0 + 1e-12) < 0 <= g(hi):
            mu = brentq(g, 1.0 + 1e-12, hi, xtol=1e-14, maxiter=200)
    # Fall back to the boundary solution with c determined by the constraint
    # (the exact limit for c0 = 0, a conservative upper bound otherwise).
    candidates = [point(1.0) if mu is None else point(mu), np.zeros(K.dim)]
    return min(float(np.linalg.norm(v - p)) for p in candidates)


def _quadratic_membership(K: QuadraticCone, v: np.ndarray, tol: ToleranceConfig) -> MembershipResult:
    nv = _norm(v)
    if nv < _ZERO_NORM:
        return MembershipResult(True, 0.0)
    c, z = _quad_coords(K, v / nv)
    q = float(z @ K.form @ z)
    inside = c >= -tol.geom_tol and q <= c * c + tol.geom_tol
    return MembershipResult(bool(inside), 0.0 if inside else _quad_distance(K, v))


def contains(K: ConeRep, v, tol: ToleranceConfig = DEFAULT_TOL) -> MembershipResult:
    """Membership of one vector and its distance to K.

    The flag is decided on the unit vector, so it does not depend on the
    vector's scale; the distance is that of the vector itself.
    """
    w = np.asarray(v, dtype=float).reshape(-1)
    if w.size != K.dim:
        raise DimensionMismatch(f"vector of size {w.size} vs cone dimension {K.dim}")
    if isinstance(K, PolyhedralCone):
        return _polyhedral_membership(K, w, tol)
    return _quadratic_membership(K, w, tol)


def _simplex_distance(G: np.ndarray, tol: ToleranceConfig) -> float:
    """min ||G x|| over the simplex {x >= 0, sum x = 1} (columns of G)."""
    k = G.shape[1]
    penalty = 1e6
    A = np.vstack([G, penalty * np.ones((1, k))])
    b = np.concatenate([np.zeros(G.shape[0]), [penalty]])
    x, _ = nnls(A, b)
    s = float(np.sum(x))  # residual recomputed below; scipy's rnorm is not trusted
    if s <= 1e-12:
        return float(np.min(np.linalg.norm(G, axis=0)))
    x = x / s
    return float(np.linalg.norm(G @ x))


def is_proper(K: ConeRep, tol: ToleranceConfig = DEFAULT_TOL) -> PropernessReport:
    """Convexity and closedness hold by representation; checks pointed + solid."""
    if isinstance(K, QuadraticCone):
        return PropernessReport(True, True, True, "by construction")
    solid = matrix_rank(K.generators, tol.rank_tol) == K.dim
    # Pointed iff 0 is not in the convex hull of the (unit) generators.
    pointed = _simplex_distance(K.generators.T, tol) > tol.geom_tol
    if pointed and solid:
        return PropernessReport(True, True, True, "proper")
    if not pointed:
        return PropernessReport(False, False, solid, "not pointed")
    return PropernessReport(False, True, False, "not solid")


def prune_generators(K: PolyhedralCone, tol: ToleranceConfig = DEFAULT_TOL) -> PolyhedralCone:
    """Drop generators that are nonnegative combinations of the others."""
    rows = list(K.generators)
    i = 0
    while i < len(rows) and len(rows) > 1:
        rest = rows[:i] + rows[i + 1:]
        dist, _ = nnls_distance(np.array(rest).T, rows[i])
        if dist <= tol.geom_tol:
            rows.pop(i)
        else:
            i += 1
    return PolyhedralCone(K.dim, np.array(sorted(rows, key=lambda v: tuple(v))))


def _violating_direction(Q: np.ndarray, P: np.ndarray, t_start: float) -> np.ndarray:
    """v with v^T Q v <= 0 < v^T P v, given that no t >= 0 makes tQ - P PSD.

    For the lambda_min eigenvector v_t of tQ - P, v_t^T Q v_t is a
    supergradient of the concave t -> lambda_min(tQ - P).  Bisection on its
    sign brackets the maximiser t*; the eigenvectors on both sides combine
    into one with v^T Q v = 0, where v^T P v = -lambda_min(t*Q - P) > 0.
    """
    def vec(t):
        return np.linalg.eigh(t * Q - P)[1][:, 0]

    lo, v_lo = 0.0, vec(0.0)
    if v_lo @ Q @ v_lo <= 0:
        return v_lo
    hi = max(t_start, 1.0)
    v_hi = vec(hi)
    while v_hi @ Q @ v_hi > 0:  # as t grows, v_t tends to the axis
        lo, v_lo, hi = hi, v_hi, 2.0 * hi
        v_hi = vec(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        v = vec(mid)
        if v @ Q @ v > 0:
            lo, v_lo = mid, v
        else:
            hi, v_hi = mid, v
    if v_lo @ v_hi < 0:
        v_lo = -v_lo
    a, b, c = v_hi @ Q @ v_hi, v_hi @ Q @ v_lo, v_lo @ Q @ v_lo
    return v_hi + (np.sqrt(b * b - a * c) - b) / c * v_lo


def _quad_invariance(K: QuadraticCone, A: np.ndarray, tol: ToleranceConfig) -> InvarianceReport:
    """Exact invariance test for K = {v : v^T Q v <= 0, x^T v >= 0}, x the axis.

    S-lemma: A maps K into K u -K iff some t >= 0 makes tQ - A^T Q A positive
    semidefinite; as x^T Q x = -1, such t is at most -x^T A^T Q A x.  The
    concave t -> lambda_min(tQ - A^T Q A) is nonnegative on an interval whose
    ends are 0 or real generalized eigenvalues of (A^T Q A, Q), so those
    points and the midpoints between them decide the certificate.  A cone
    inside K u -K lies in K iff its axis components are nonnegative, i.e. iff
    A^T x is in the dual cone K* (axis x, form V^-1).
    """
    scale = float(np.linalg.norm(A))
    An = A / scale if scale > 0 else A  # positive scaling keeps invariance
    Q = K.ambient_form()
    P = An.T @ Q @ An
    P = 0.5 * (P + P.T)
    x, B = K.axis, K.complement_basis
    t_max = -float(x @ P @ x)
    ts = np.array([0.0])
    if t_max > 0:
        gen = eigvals(P, Q).real
        ts = np.unique(np.concatenate([ts, [t_max], gen[(gen > 0) & (gen < t_max)]]))
        ts = np.concatenate([ts, 0.5 * (ts[1:] + ts[:-1])])
    q_norm = float(np.linalg.norm(Q, 2))

    def relative_lambda_min(s):
        return float(np.linalg.eigvalsh(s * Q - P)[0]) / (q_norm * (1.0 + s))

    margin, t = max((relative_lambda_min(s), s) for s in ts.tolist())

    if margin >= -tol.geom_tol:
        # Dual-cone test at the point p = x + B z (z^T V z <= 1) of K
        # that minimizes the axis component x^T A p of its image.
        h = An.T @ x
        g = B.T @ h
        Vg = np.linalg.solve(K.form, g)
        r = float(np.sqrt(max(float(g @ Vg), 0.0)))
        p = x - (B @ Vg) / r if r > 0 else x
        if float(h @ p) >= -tol.geom_tol * float(np.linalg.norm(p)):
            return InvarianceReport(True, 0.0, "psd", psd_margin=margin, multiplier=t * scale * scale)
    else:
        p = _violating_direction(Q, P, t_max)
        p = p if float(x @ p) >= 0 else -p
    return InvarianceReport(False, _quad_distance(K, A @ p), "psd",
                            worst=("point", 0, p.tolist()), psd_margin=margin)


def is_invariant(K: ConeRep, A, tol: ToleranceConfig = DEFAULT_TOL) -> InvarianceReport:
    """Does A map K into itself?

    Polyhedral: generator-mapping test (images of generators stay in K).
    Quadratic (method "psd", exact): some t >= 0 makes tQ - A^T Q A positive
    semidefinite and A^T axis lies in the dual cone.  A YES records t as
    `multiplier`; a NO names a point of K whose image leaves K.
    """
    M = as_square_matrix(A)
    if M.shape[0] != K.dim:
        raise DimensionMismatch("matrix and cone dimensions differ")
    if isinstance(K, QuadraticCone):
        return _quad_invariance(K, M, tol)

    worst = None
    max_dist = 0.0
    ok = True
    for idx, g in enumerate(K.generators):
        res = _polyhedral_membership(K, M @ g, tol)
        if res.distance > max_dist:
            max_dist = res.distance
            worst = ("generator", idx, g.tolist())
        if not res.inside:
            ok = False
    return InvarianceReport(ok, max_dist, "generators", worst=worst)


def sample_points(K: ConeRep, count: int, seed: int) -> np.ndarray:
    """Deterministic random members of K (rows), for verification probes."""
    rng = np.random.default_rng(seed)
    if isinstance(K, PolyhedralCone):
        w = rng.random((count, K.num_generators))
        return w @ K.generators
    c = rng.random(count) + 0.1
    dirs = rng.normal(size=(count, K.dim - 1))
    norms = np.linalg.norm(dirs, axis=1)
    norms[norms == 0] = 1.0
    dirs /= norms[:, None]
    scale = np.sqrt(np.einsum("ij,jk,ik->i", dirs, K.form, dirs))
    radial = rng.random(count) ** 0.5
    zs = dirs * (radial * c / scale)[:, None]
    return c[:, None] * K.axis[None, :] + zs @ K.complement_basis.T

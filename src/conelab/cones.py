"""Cone representations and the membership / properness / invariance oracles.

Two witness shapes are supported: polyhedral cones given by unit generators,
and quadratic (ellipsoidal) cones given by an axis plus a positive-definite
form on its orthogonal complement.  Membership for polyhedral cones is one
nonnegative least-squares projection of the unit vector onto the unit
generators, so every query also yields a distance.  Projections onto a ray
or onto a pointed cone in the plane are answered in closed form, so the 2x2
route does not load scipy; scipy's NNLS is imported only by the polyhedral
projections that need it.  Quadratic cones use numpy alone: their
membership, distance and invariance tests never load scipy.
Invariance is decided for both shapes: by the images of the generators,
and for quadratic cones by an S-lemma certificate plus a dual-cone test,
with a NO backed by an explicit point of K whose image leaves K (see
`is_invariant`).  A generator image within rounding of
zero (||A g|| < 8 d eps ||A||) counts as the zero vector, since its computed
direction is noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from operator import mul
from typing import Union

import numpy as np

from .errors import DimensionMismatch, EmptyInput
from .linalg import DEFAULT_TOL, ToleranceConfig, _norm, as_square_matrix, matrix_rank, pow2_scaled

# Membership treats vectors shorter than 2^30 units of the smallest subnormal
# as the zero vector: their direction has fewer than 30 significant bits.
_ZERO_NORM = 2.0 ** -1044
# A generator image of A with ||A g|| < this times d ||A|| is zero up to rounding.
_ZERO_IMAGE = 8 * float(np.finfo(float).eps)


@dataclass(frozen=True)
class PolyhedralCone:
    """Conic hull of finitely many unit generators (rows of `generators`)."""

    dim: int
    generators: np.ndarray  # shape (k, dim), rows unit-normalized

    def __post_init__(self):
        G = np.asarray(self.generators, dtype=float)
        if G.ndim != 2 or G.shape[1] != self.dim or G.shape[0] < 1:
            raise DimensionMismatch(f"bad generator array of shape {G.shape}")
        m = float(np.abs(G).max())
        if not math.isfinite(m):
            raise ValueError("generators must be finite")
        # Plain norms overflow for entries above ~1e154 and lose precision or
        # underflow below ~1e-154; `_norm` rescales such rows first.
        norms = np.linalg.norm(G, axis=1) if m < 1e150 else None
        if norms is None or norms.min() <= 1e-150:
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
        """Q with v^T Q v = y^T V y - c^2 for v = c*axis + B y (built once, read-only)."""
        return self._ambient

    @cached_property
    def _ambient(self) -> np.ndarray:
        Q = self.complement_basis @ self.form @ self.complement_basis.T - np.outer(self.axis, self.axis)
        Q.setflags(write=False)
        return Q

    @cached_property
    def _ambient_norm(self) -> float:
        """||Q||_2, the scale of the S-lemma margins."""
        return float(np.linalg.norm(self._ambient, 2))


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


# Extreme rays of a planar cone whose sine is below this are antiparallel to
# rounding: the cone may be a half-plane, so scipy decides it.
_ANTIPARALLEL_SIN = 1e-15


def _ray_distance(a: list[float], b: list[float]) -> float:
    """Distance from b to the ray {t a : t >= 0}."""
    t = sum(map(mul, a, b))
    if t <= 0.0:
        return math.hypot(*b)
    s = t / sum(map(mul, a, a))
    return math.hypot(*[y - s * x for x, y in zip(a, b)])


def _planar_distance(xs: list[float], ys: list[float], bx: float, by: float) -> float | None:
    """Distance from (bx, by) to the cone of the plane vectors (xs[i], ys[i]).

    One pass keeps the extreme rays lo and hi of the cone seen so far, a
    sector of angle below pi, by the signs of cross products; a vector that
    neither lies in the sector nor widens it to less than pi shows the cone
    is not pointed.  A point of the sector is at distance 0, any other point
    is nearest to one of the two extreme rays.  None when the cone is not
    pointed, its extreme rays are antiparallel to rounding, or a vector is
    zero.
    """
    (lx, ly), *rest = zip(xs, ys)
    hx, hy = lx, ly
    for x, y in rest:
        cl, ch = lx * y - ly * x, hx * y - hy * x
        if cl >= 0.0 >= ch and (lx * x + ly * y > 0.0 or hx * x + hy * y > 0.0):
            continue
        if cl > 0.0 and ch > 0.0:
            hx, hy = x, y
        elif cl < 0.0 and ch < 0.0:
            lx, ly = x, y
        else:
            return None
    if lx * hx + ly * hy < 0.0 and lx * hy - ly * hx <= _ANTIPARALLEL_SIN * math.hypot(lx, ly) * math.hypot(hx, hy):
        return None
    if lx * by - ly * bx >= 0.0 >= hx * by - hy * bx and (lx * bx + ly * by > 0.0 or hx * bx + hy * by > 0.0):
        return 0.0
    return min(_ray_distance([lx, ly], [bx, by]), _ray_distance([hx, hy], [bx, by]))


def nnls_distance(A: np.ndarray, b: np.ndarray) -> float:
    """min ||A x - b|| over x >= 0 (the distance from b to the cone of A's columns).

    One column, in any dimension, is a projection onto a ray, and two rows
    (the plane) are decided by the cone's extreme rays (`_planar_distance`);
    both are closed forms in Python floats.  Other shapes, and planar cones
    that are not pointed, go to scipy's NNLS, whose residual is recomputed
    from x because some scipy versions report an unreliable rnorm.
    """
    if A.shape[1] == 1:
        return _ray_distance(A[:, 0].tolist(), b.tolist())
    if A.shape[0] == 2:
        dist = _planar_distance(*A.tolist(), *b.tolist())
        if dist is not None:
            return dist
    from scipy.optimize import nnls

    x, _ = nnls(A, b)
    return float(np.linalg.norm(A @ x - b))


def _polyhedral_membership(K: PolyhedralCone, v: np.ndarray, tol: ToleranceConfig,
                           zero: float = _ZERO_NORM, coefficients=None) -> MembershipResult:
    if coefficients is not None:
        x = np.asarray(coefficients, dtype=float)
        if x.shape != (K.num_generators,):
            raise DimensionMismatch(f"{x.size} coefficients vs {K.num_generators} generators")
        nv = math.hypot(*v.tolist())  # in (1e-150, 1e150): v is not zero, and x G - v is formed safely
        if 1e-150 < nv < 1e150 and x.min() >= 0.0:
            resid = math.hypot(*(x @ K.generators - v).tolist())  # inf or NaN fails the test
            if resid <= tol.geom_tol * nv:  # x / ||v|| bounds the unit vector's NNLS distance
                return MembershipResult(True, resid)
    nv = _norm(v)
    if nv < zero:
        return MembershipResult(True, 0.0)
    # Membership in a cone is scale-invariant; working on the unit vector
    # keeps the flag independent of the input scale.
    udist = nnls_distance(K.generators.T, v / nv)
    return MembershipResult(bool(udist <= tol.geom_tol), udist * nv)


def _quad_coords(K: QuadraticCone, v: np.ndarray) -> tuple[float, np.ndarray]:
    c = float(K.axis @ v)
    z = K.complement_basis.T @ v
    return c, z


def _quad_distance(K: QuadraticCone, v: np.ndarray) -> float:
    """Euclidean distance from v to K via the KKT projection equations."""
    nv = _norm(v)
    if nv == 0.0:
        return 0.0
    if not 1e-150 < nv < 1e150:  # squares below would underflow, above overflow
        return nv * _quad_distance(K, v / nv)
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

    dl, wl = d.tolist(), w0.tolist()

    def g(mu):
        """|w|_d^2 - c^2 at the KKT point of multiplier mu: monotone on each bracket."""
        q = 0.0
        for di, wi in zip(dl, wl):
            w = wi / (1.0 + mu * di)
            q += di * w * w
        c = c0 / (1.0 - mu)
        return q - c * c  # products, not powers: an overflow gives inf, not an error

    def root(lo, hi):
        """The sign change of g in [lo, hi], bisected to 1e-14 or to adjacent floats."""
        lo_negative = g(lo) < 0
        while hi - lo > 1e-14 and lo < (mid := 0.5 * (lo + hi)) < hi:
            if (g(mid) < 0) == lo_negative:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

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
            mu = root(0.0, 1.0 - 1e-12)
    elif c0 < -thresh:
        hi = 2.0
        while g(hi) < 0 and hi < 1e12:
            hi *= 4.0
        if g(1.0 + 1e-12) < 0 <= g(hi):
            mu = root(1.0 + 1e-12, hi)
    # Fall back to the boundary solution with c determined by the constraint
    # (the exact limit for c0 = 0, a conservative upper bound otherwise).
    candidates = [point(1.0) if mu is None else point(mu), np.zeros(K.dim)]
    return min(float(np.linalg.norm(v - p)) for p in candidates)


def _quad_inside(K: QuadraticCone, U: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """Membership flags of the unit rows of U: c >= -geom_tol and z^T V z <= c^2 + geom_tol.

    Products are written as elementwise sums, not BLAS calls, so a row's flag
    does not depend on how many rows come with it.
    """
    c = (U * K.axis).sum(axis=1)
    Z = (U[:, :, None] * K.complement_basis).sum(axis=1)
    q = ((Z[:, :, None] * K.form).sum(axis=1) * Z).sum(axis=1)
    return (c >= -tol.geom_tol) & (q <= c * c + tol.geom_tol)


def _quadratic_membership(K: QuadraticCone, v: np.ndarray, tol: ToleranceConfig) -> MembershipResult:
    nv = _norm(v)
    if nv < _ZERO_NORM:
        return MembershipResult(True, 0.0)
    inside = bool(_quad_inside(K, (v / nv)[None, :], tol)[0])
    return MembershipResult(inside, 0.0 if inside else _quad_distance(K, v))


def contains(K: ConeRep, v, tol: ToleranceConfig = DEFAULT_TOL, coefficients=None) -> MembershipResult:
    """Membership of one vector and its distance to K.

    The flag is decided on the unit vector, so it does not depend on the
    vector's scale; the distance is that of the vector itself.
    `coefficients`, one weight per generator of a polyhedral K, is a
    membership certificate: if every weight is nonnegative and
    ||x G - v|| <= geom_tol ||v||, with ||v|| in (1e-150, 1e150), then v is
    inside and the distance is that residual, an upper bound on the true
    one: x / ||v|| is feasible for the unit vector's NNLS problem, so the
    projection would find it inside too.  Any other certificate falls back
    to that projection.  A quadratic K has no generators to weight and
    rejects a certificate.
    """
    w = np.asarray(v, dtype=float).reshape(-1)
    if w.size != K.dim:
        raise DimensionMismatch(f"vector of size {w.size} vs cone dimension {K.dim}")
    if isinstance(K, PolyhedralCone):
        return _polyhedral_membership(K, w, tol, coefficients=coefficients)
    if coefficients is not None:
        raise ValueError("a quadratic cone takes no membership coefficients")
    return _quadratic_membership(K, w, tol)


def contains_rows(K: ConeRep, V, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Membership flags of the rows of V, as `contains(K, row).inside` gives them.

    The rows are decided together on their unit vectors.  Quadratic flags
    come from `_quad_inside`.  A polyhedral row is certified inside by one
    least-squares solve x G ~ u for all rows: x >= 0 with ||x G - u|| plus a
    bound on its rounding at most half of geom_tol bounds the NNLS distance
    below geom_tol.  The rows left open go to `contains` one by one:
    polyhedral rows that are not certified, and rows whose largest |entry|
    is 0, not finite or outside (1e-150, 1e150), where squared norms could
    underflow or overflow.
    """
    V = np.asarray(V, dtype=float)
    if V.ndim != 2 or V.shape[1] != K.dim:
        raise DimensionMismatch(f"rows of shape {V.shape[1:]} vs cone dimension {K.dim}")
    m = np.abs(V).max(axis=1)
    ok = (m > 1e-150) & (m < 1e150)
    inside = np.zeros(len(V), dtype=bool)
    if ok.any():
        U = V[ok] / np.linalg.norm(V[ok], axis=1)[:, None]
        if isinstance(K, QuadraticCone):
            inside[ok] = _quad_inside(K, U, tol)
        else:
            G = K.generators
            X = np.linalg.lstsq(G.T, U.T, rcond=None)[0].T
            resid = np.linalg.norm(X @ G - U, axis=1)
            rounding = (G.shape[0] + K.dim + 2) * np.finfo(float).eps * (np.abs(X).sum(axis=1) + 1.0)
            inside[ok] = (X >= 0).all(axis=1) & (resid + rounding <= 0.5 * tol.geom_tol)
    for i in np.flatnonzero(~ok if isinstance(K, QuadraticCone) else ~inside):
        inside[i] = contains(K, V[i], tol).inside
    return inside


def _simplex_distance(G: np.ndarray, tol: ToleranceConfig) -> float:
    """min ||G x|| over the simplex {x >= 0, sum x = 1} (columns of G).

    For one or two columns this is the distance from 0 to the segment
    [g_1, g_k].  More columns use min over x >= 0 of
    ||G x||^2 + (sum x - 1)^2 = d^2 / (1 + d^2): the NNLS distance r from
    e_last to the cone of G with a row of ones appended gives d = r / sqrt(1 - r^2).
    """
    k = G.shape[1]
    if k <= 2:
        g, h = G[:, 0].tolist(), G[:, -1].tolist()
        e = [y - x for x, y in zip(g, h)]
        ee = sum(x * x for x in e)
        t = min(max(-sum(x * y for x, y in zip(g, e)) / ee, 0.0), 1.0) if ee > 0.0 else 0.0
        return math.hypot(*(x + t * y for x, y in zip(g, e)))
    e_last = np.zeros(G.shape[0] + 1)
    e_last[-1] = 1.0
    r = nnls_distance(np.vstack([G, np.ones((1, k))]), e_last)
    return r / math.sqrt(1.0 - r * r)


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
        if nnls_distance(np.array(rest).T, rows[i]) <= tol.geom_tol:
            rows.pop(i)
        else:
            i += 1
    return PolyhedralCone(K.dim, np.array(sorted(rows, key=lambda v: tuple(v))))


def _violating_direction(Q: np.ndarray, P: np.ndarray, t_start: float) -> tuple[float, np.ndarray]:
    """The maximiser t* of the concave t -> lambda_min(tQ - P) over t >= 0, and a
    v with v^T Q v <= 0 < v^T P v when lambda_min(t*Q - P) < 0.

    For the lambda_min eigenvector v_t of tQ - P, v_t^T Q v_t is a
    supergradient of lambda_min(tQ - P).  Bisection on its sign brackets t*;
    the eigenvectors on both sides combine into one with v^T Q v = 0, where
    v^T P v = -lambda_min(t*Q - P).
    """
    def vec(t):
        return np.linalg.eigh(t * Q - P)[1][:, 0]

    lo, v_lo = 0.0, vec(0.0)
    if v_lo @ Q @ v_lo <= 0:
        return 0.0, v_lo
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
    return 0.5 * (lo + hi), v_hi + (np.sqrt(b * b - a * c) - b) / c * v_lo


def _quad_invariance(K: QuadraticCone, A: np.ndarray, tol: ToleranceConfig) -> InvarianceReport:
    """Invariance test for K = {v : v^T Q v <= 0, x^T v >= 0}, x the axis.

    S-lemma: A maps K into K u -K iff some t >= 0 makes tQ - A^T Q A positive
    semidefinite; as x^T Q x = -1, such t is at most t_max = -x^T A^T Q A x.
    The concave t -> lambda_min(tQ - A^T Q A) is nonnegative on an interval
    whose ends are 0 or real generalized eigenvalues of (A^T Q A, Q).  These
    are taken as the eigenvalues of Q^-1 A^T Q A (Q is nonsingular, of
    signature (1, d-1)); 0, t_max, the candidates between them and the
    midpoints of all of these are scanned in one stacked `eigvalsh` call.
    The candidates are only approximate, so a scan whose best margin is below
    -geom_tol is not yet a NO: the supergradient bisection of
    `_violating_direction` finds the maximiser t*, and the test goes on at t*
    if its margin is at least -geom_tol, and otherwise answers NO with the
    bisection's violating point.  A cone inside K u -K lies in K iff its axis
    components are nonnegative, i.e. iff A^T x is in the dual cone K* (axis x,
    form V^-1).
    """
    scale = _norm(A)
    An = A / scale if scale > 0 else A  # positive scaling keeps invariance
    Q = K.ambient_form()
    P = An.T @ Q @ An
    P = 0.5 * (P + P.T)
    x, B = K.axis, K.complement_basis
    t_max = -float(x @ P @ x)
    ts = np.array([0.0])
    if t_max > 0:
        try:
            gen = np.linalg.eigvals(np.linalg.solve(Q, P)).real
        except np.linalg.LinAlgError:
            gen = np.empty(0)
        ts = np.unique(np.concatenate([ts, [t_max], gen[(gen > 0) & (gen < t_max)]]))
        ts = np.concatenate([ts, 0.5 * (ts[1:] + ts[:-1])])
    # relative lambda_min at every t; ties go to the larger t
    margins = np.linalg.eigvalsh(ts[:, None, None] * Q - P)[:, 0] / (K._ambient_norm * (1.0 + ts))
    margin, t = max(zip(margins.tolist(), ts.tolist()))

    p = None
    if margin < -tol.geom_tol:
        t_star, p = _violating_direction(Q, P, t_max)
        t_star = min(t_star, max(t_max, 0.0))  # no t > t_max can certify
        margin_star = float(np.linalg.eigvalsh(t_star * Q - P)[0]) / (K._ambient_norm * (1.0 + t_star))
        if margin_star >= -tol.geom_tol:
            margin, t, p = margin_star, t_star, None
    if p is None:
        # Dual-cone test at the point p = x + B z (z^T V z <= 1) of K
        # that minimizes the axis component x^T A p of its image.
        h = An.T @ x
        g = B.T @ h
        Vg = np.linalg.solve(K.form, g)
        r = float(np.sqrt(max(float(g @ Vg), 0.0)))
        p = x - (B @ Vg) / r if r > 0 else x
        if float(h @ p) >= -tol.geom_tol * float(np.linalg.norm(p)):
            return InvarianceReport(True, 0.0, "psd", psd_margin=margin, multiplier=t * scale * scale)
    elif float(x @ p) < 0:
        p = -p
    return InvarianceReport(False, _quad_distance(K, A @ p), "psd",
                            worst=("point", 0, p.tolist()), psd_margin=margin)


def is_invariant(K: ConeRep, A, tol: ToleranceConfig = DEFAULT_TOL) -> InvarianceReport:
    """Does A map K into itself?

    Polyhedral: generator-mapping test (images of generators stay in K).
    An image with ||A g|| < 8 d eps ||A|| is rounding-level: its direction
    carries no information, so it counts as the zero vector, which is in K.
    Quadratic (method "psd"): some t >= 0 makes tQ - A^T Q A positive
    semidefinite to geom_tol and A^T axis lies in the dual cone.  A YES records t as
    `multiplier`; a NO names a point of K whose image leaves K.
    """
    M = as_square_matrix(A)
    if M.shape[0] != K.dim:
        raise DimensionMismatch("matrix and cone dimensions differ")
    if isinstance(K, QuadraticCone):
        return _quad_invariance(K, M, tol)

    # With M's largest entry outside 2^-400..2^400 the images could overflow
    # or underflow; they are formed from 2^k M, and the distances scaled back.
    m = max(map(abs, M.ravel().tolist()))
    S, k = pow2_scaled(M) if m and not 2.0 ** -400 < m < 2.0 ** 400 else (M, 0)
    zero = max(_ZERO_NORM, _ZERO_IMAGE * K.dim * float(np.linalg.norm(S)))
    worst = None
    max_dist = 0.0
    ok = True
    for idx, g in enumerate(K.generators):
        res = _polyhedral_membership(K, S @ g, tol, zero)
        if res.distance > max_dist:
            max_dist = res.distance
            worst = ("generator", idx, g.tolist())
        if not res.inside:
            ok = False
    with np.errstate(over="ignore"):
        max_dist = float(np.ldexp(max_dist, -k))
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

"""Dense real eigenstructure at desk scale and the spectral invariant-cone test.

A real square matrix has an invariant proper cone exactly when its spectral
radius is an eigenvalue whose degree (multiplicity as a root of the minimal
polynomial) dominates the degree of every other eigenvalue of the same
modulus.  Matrices passing this test are called Vandergraft matrices; every
decision procedure in this package starts from this classification.

Every matrix size takes one path: LAPACK's eigenvalues, relative rank tests
and `eigenvalue_clusters`, the only code in the package that groups computed
eigenvalues.  Every cut is scaled by a norm that neither overflows nor
underflows.  The package's one 2x2 closed form is `planar.classify2`.
A decomposition computes the eigenvalues and their clusters up front; an
eigenvalue's degree and real eigenspace are computed from a private copy of
the matrix the first time they are read, then cached, so a caller that only
asks whether a matrix is Vandergraft pays no singular value decomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .errors import DimensionMismatch, DimensionTooLarge, EmptyFamily, NonConvergence, NotCommuting

MAX_DIM = 32


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical tolerances used by every decision in the package.

    Every tolerance is relative: a threshold is the tolerance times the size
    of what it compares (||M|| for a matrix, rho for eigenvalue moduli, s_0
    for singular values, ||v|| for a vector).

    eig_cluster_tol: relative tolerance for merging computed eigenvalues.
    rank_tol: relative singular-value cutoff for rank decisions.
    geom_tol: tolerance for membership, angle and sign comparisons.
    """

    eig_cluster_tol: float = 1e-8
    rank_tol: float = 1e-10
    geom_tol: float = 1e-9

    def __post_init__(self):
        for name in ("eig_cluster_tol", "rank_tol", "geom_tol"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be strictly positive")


DEFAULT_TOL = ToleranceConfig()


def as_square_matrix(A) -> np.ndarray:
    """Validate and return A as a float ndarray of shape (n, n)."""
    M = np.asarray(A, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError("matrix entries must be finite")
    return M


def _norm(v: np.ndarray) -> float:
    """Euclidean (Frobenius) norm.  An array whose largest entry is below
    1e-150 or above 1e150 is divided by that entry first: squares of entries
    below ~1e-154 underflow, above ~1e154 overflow."""
    m = max(map(abs, v.ravel().tolist()))
    if 1e-150 < m < 1e150:
        return float(np.linalg.norm(v))
    return m * float(np.linalg.norm(v / m)) if m > 0 else 0.0


def pow2_scaled(M: np.ndarray) -> tuple[np.ndarray, int]:
    """(2^k M, k) for the k that brings ||2^k M|| nearest 1 on a log scale.

    Scaling by a power of two is exact, so 2^k M keeps M's significands and
    results computed from it scale back exactly.  k = 0 when ||M|| is within
    a factor sqrt(2) of 1, so unit-norm members pass through unchanged.
    A norm beyond the float range is taken as 2^e ||2^-e M||, with 2^e
    just above the largest entry.
    """
    n = _norm(M)
    if math.isfinite(n):
        k = -round(math.log2(n)) if n > 0 else 0
    else:
        e = math.frexp(float(np.abs(M).max()))[1]
        k = -e - round(math.log2(_norm(np.ldexp(M, -e))))
    return np.ldexp(M, k), k


def square_family(family) -> list[np.ndarray]:
    """Validate a nonempty family of square matrices of one dimension."""
    mats = [as_square_matrix(M) for M in family]
    if not mats:
        raise EmptyFamily("the family has no members")
    if any(M.shape != mats[0].shape for M in mats):
        raise DimensionMismatch("family members must share one dimension")
    return mats


def unit_members(family) -> list[np.ndarray]:
    """Validate a family and divide each nonzero member by its Frobenius norm.

    A cone is invariant under M exactly when it is invariant under cM, c > 0,
    so the decision procedures work on these unit-norm members.
    """
    return [M / n if (n := _norm(M)) > 0 else M for M in square_family(family)]


def fix_sign(v: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Flip v so its first coordinate of magnitude > tol is positive."""
    for x in v:
        if abs(x) > tol:
            return v if x > 0 else -v
    return v


def matrix_rank(M: np.ndarray, rank_tol: float) -> int:
    """Number of singular values above rank_tol times the largest one."""
    if min(M.shape) == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    return int(np.sum(s > rank_tol * s[0]))


def nullspace(M: np.ndarray, cutoff: float) -> np.ndarray:
    """Orthonormal right singular vectors of M for singular values <= cutoff.

    For an eigenspace ker(A - lam I) the caller scales the cutoff by ||A||:
    A - lam I is rounding noise when A is nearly scalar.
    """
    n = M.shape[1]
    _, s, vh = np.linalg.svd(M)
    num = int(np.sum(s > cutoff))
    return vh[num:].conj().T.reshape(n, -1)


def check_commuting(mats, tol: ToleranceConfig) -> None:
    """Raise NotCommuting unless every pair satisfies
    ||A_i A_j - A_j A_i|| <= eig_cluster_tol * ||A_i|| ||A_j||."""
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            defect = np.linalg.norm(mats[i] @ mats[j] - mats[j] @ mats[i])
            bound = tol.eig_cluster_tol * np.linalg.norm(mats[i]) * np.linalg.norm(mats[j])
            if defect > bound:
                raise NotCommuting(f"members {i} and {j} do not commute (defect {defect:.3e})")


def eigenvalue_clusters(values, cut: float) -> list[tuple[complex, int]]:
    """(mean, size) of each cluster of computed eigenvalues, the package's one grouping.

    Representatives are greedy, in (real, imag) order: a value starts a new
    one unless it lies within `cut` of an earlier one.  Every value then joins
    its first nearest representative, so each value counts once.  The caller
    scales `cut` by the norm of the matrix the values belong to.  The inputs
    are a few eigenvalues, so the grouping runs on Python complex numbers:
    each cluster's parts are summed from 0.0 in input order and multiplied by
    1/size, the rounding of numpy's `bincount` and complex division.
    """
    zs = np.asarray(values, dtype=complex).ravel().tolist()
    reps: list[complex] = []
    for v in sorted(zs, key=lambda z: (z.real, z.imag)):
        if not any(abs(v - r) <= cut for r in reps):
            reps.append(v)
    sums = [[0.0, 0.0, 0] for _ in reps]
    for v in zs:
        dist = [abs(v - r) for r in reps]
        acc = sums[dist.index(min(dist))]
        acc[0] += v.real
        acc[1] += v.imag
        acc[2] += 1
    return [(complex(re * (1.0 / m), im * (1.0 / m)), m) for re, im, m in sums]


class _Cluster:
    """Degree and real eigenspace of one eigenvalue cluster of M, each computed
    on first read and cached; a complex cluster and its conjugate share one."""

    def __init__(self, M: np.ndarray, value: complex, multiplicity: int, cut: float, tol: ToleranceConfig):
        self.M, self.value, self.multiplicity, self.cut, self.tol = M, value, multiplicity, cut, tol

    @cached_property
    def degree(self) -> int:
        return _degree_of(self.M, self.value, self.multiplicity, self.tol)

    @cached_property
    def basis(self) -> np.ndarray | None:
        if self.value.imag:
            return None
        basis = np.real(nullspace(self.M - self.value.real * np.eye(self.M.shape[0]), self.cut))
        if basis.shape[1]:
            basis = np.column_stack([fix_sign(basis[:, k]) for k in range(basis.shape[1])])
        basis.setflags(write=False)
        return basis


@dataclass(frozen=True)
class EigenValue:
    """One distinct eigenvalue with its multiplicities and (real) eigenvectors.

    `degree` and `eigenvectors` are computed on first read and cached.
    """

    value: complex
    multiplicity: int
    _cluster: _Cluster = field(repr=False, compare=False)

    @property
    def degree(self) -> int:
        return self._cluster.degree

    @property
    def eigenvectors(self) -> np.ndarray | None:
        """(n, g) real basis, read-only; real eigenvalues only."""
        return self._cluster.basis

    @property
    def is_real(self) -> bool:
        return self.value.imag == 0.0


@dataclass(frozen=True)
class Spectrum:
    dim: int
    eigenvalues: tuple[EigenValue, ...]
    spectral_radius: float

    def dominant(self, tol: ToleranceConfig = DEFAULT_TOL) -> EigenValue | None:
        """The real eigenvalue equal to the spectral radius, if present."""
        rho = self.spectral_radius
        cut = tol.eig_cluster_tol * rho
        for ev in self.eigenvalues:
            if ev.is_real and abs(ev.value.real - rho) <= cut:
                return ev
        return None

    def peripheral(self, tol: ToleranceConfig = DEFAULT_TOL):
        rho = self.spectral_radius
        cut = tol.eig_cluster_tol * rho
        return [ev for ev in self.eigenvalues if abs(abs(ev.value) - rho) <= cut]


@dataclass(frozen=True)
class VandergraftReport:
    is_vandergraft: bool
    dominant_eigenvalue: float | None
    failed_condition: str | None  # None | "rho-not-eigenvalue" | "degree-violation"
    spectrum: Spectrum = field(repr=False, default=None)
    _dominant: EigenValue | None = field(repr=False, compare=False, default=None)

    @property
    def dominant_eigenvectors(self) -> np.ndarray | None:
        """Real basis of the dominant eigenspace when Vandergraft, computed on first read."""
        return None if self._dominant is None else self._dominant.eigenvectors


def _degree_of(A: np.ndarray, lam: complex, multiplicity: int, tol: ToleranceConfig) -> int:
    """Smallest k with rank((A - lam I)^k) = rank((A - lam I)^(k+1)).

    The degree never exceeds the multiplicity, so at most multiplicity - 1
    rank comparisons are made and a simple eigenvalue needs none.  A and lam
    are first scaled by the power of two nearest 1/||A||, so the powers
    neither underflow nor overflow.
    """
    if multiplicity == 1:
        return 1
    A, k = pow2_scaled(A)
    lam = complex(math.ldexp(lam.real, k), math.ldexp(lam.imag, k))
    M = A.astype(complex) - lam * np.eye(A.shape[0])
    if _norm(M) <= tol.eig_cluster_tol * _norm(A):
        return 1  # A is lam I up to rounding, which a relative rank would not see
    power = M
    r_prev = matrix_rank(power, tol.rank_tol)
    for k in range(1, multiplicity):
        power = power @ M
        r_next = matrix_rank(power, tol.rank_tol)
        if r_next == r_prev:
            return k
        r_prev = r_next
    return multiplicity


def eigen_decompose(A, tol: ToleranceConfig = DEFAULT_TOL) -> Spectrum:
    """Clustered eigenvalues, degrees and real eigenspaces of a real matrix.

    Every size takes LAPACK's Hessenberg + shifted-QR driver, which returns
    complex eigenvalues as exact conjugate pairs.  The cut is
    eig_cluster_tol * ||A||, the scale of rounding errors (not rho: a 2x2
    Jordan block splits by about sqrt(eps) ||A||).  Imaginary parts within the
    cut are zeroed first, so every complex value lies more than the cut from
    every real one; the closed upper half-plane is then clustered once by
    `eigenvalue_clusters`, and each complex cluster's conjugate is appended
    with the same multiplicity and degree.  Eigenspaces keep the singular
    values of A - lam I up to the same cut.  Degrees and eigenspaces are
    computed on first read, from a read-only copy of A taken here, so they
    belong to A as it was at this call.
    """
    M = as_square_matrix(A).copy()
    M.setflags(write=False)
    n = M.shape[0]
    if n > MAX_DIM:
        raise DimensionTooLarge(f"n = {n} exceeds the supported cap {MAX_DIM}")

    try:
        values = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(str(exc)) from exc

    cut = tol.eig_cluster_tol * _norm(M)
    values = np.where(np.abs(values.imag) <= cut, values.real, values)
    eigenvalues = []
    for v, m in eigenvalue_clusters(values[values.imag >= 0], cut):
        cluster = _Cluster(M, v, m, cut, tol)
        eigenvalues.append(EigenValue(v, m, cluster))
        if v.imag:
            eigenvalues.append(EigenValue(v.conjugate(), m, cluster))

    eigenvalues.sort(key=lambda ev: (-abs(ev.value), -ev.value.real, ev.value.imag))
    return Spectrum(n, tuple(eigenvalues), abs(eigenvalues[0].value))


def is_vandergraft(A, tol: ToleranceConfig = DEFAULT_TOL) -> VandergraftReport:
    """Spectral test for existence of an invariant proper cone.

    One path for every size: the spectral radius must be an eigenvalue whose
    degree is at least that of every other eigenvalue of the same modulus.
    """
    spec = eigen_decompose(A, tol)
    dom = spec.dominant(tol)
    if dom is None:
        return VandergraftReport(False, None, "rho-not-eigenvalue", spec)
    for ev in spec.peripheral(tol):
        if ev.degree > dom.degree:
            return VandergraftReport(False, None, "degree-violation", spec)
    return VandergraftReport(True, float(dom.value.real), None, spec, dom)


def enumerate_words(family: Sequence, max_len: int) -> Iterator[tuple[tuple[int, ...], np.ndarray]]:
    """Yield every product A_{i1} ... A_{ik} for 1 <= k <= max_len.

    Deterministic order: by length, then lexicographically by index word.
    """
    mats = square_family(family)
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    level = [((i,), mats[i]) for i in range(len(mats))]
    yield from level
    for _ in range(1, max_len):
        level = [(word + (j,), P @ mats[j]) for word, P in level for j in range(len(mats))]
        yield from level

"""Dense real eigenstructure at desk scale and the spectral invariant-cone test.

A real square matrix has an invariant proper cone exactly when its spectral
radius is an eigenvalue whose degree (multiplicity as a root of the minimal
polynomial) dominates the degree of every other eigenvalue of the same
modulus.  Matrices passing this test are called Vandergraft matrices; every
decision procedure in this package starts from this classification.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .errors import DimensionMismatch, DimensionTooLarge, NonConvergence, NotCommuting

MAX_DIM = 32


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical tolerances used by every decision in the package.

    eig_cluster_tol: relative tolerance for merging computed eigenvalues.
    rank_tol: singular-value cutoff for rank decisions.
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
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix entries must be finite")
    return M


def fix_sign(v: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Flip v so its first coordinate of magnitude > tol is positive."""
    for x in v:
        if abs(x) > tol:
            return v if x > 0 else -v
    return v


def matrix_rank(M: np.ndarray, rank_tol: float) -> int:
    if min(M.shape) == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    cutoff = rank_tol * max(1.0, float(s[0]))
    return int(np.sum(s > cutoff))


def nullspace(M: np.ndarray, rank_tol: float) -> np.ndarray:
    """Columns form an orthonormal basis of ker(M); empty (n, 0) if trivial."""
    n = M.shape[1]
    _, s, vh = np.linalg.svd(M)
    cutoff = rank_tol * max(1.0, float(s[0]) if s.size else 1.0)
    num = int(np.sum(s > cutoff))
    return vh[num:].conj().T.reshape(n, -1)


def check_commuting(mats, tol: ToleranceConfig) -> None:
    """Raise NotCommuting unless every pair satisfies
    ||A_i A_j - A_j A_i|| <= eig_cluster_tol * max(1, ||A_i|| ||A_j||)."""
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            defect = np.linalg.norm(mats[i] @ mats[j] - mats[j] @ mats[i])
            bound = tol.eig_cluster_tol * max(1.0, np.linalg.norm(mats[i]) * np.linalg.norm(mats[j]))
            if defect > bound:
                raise NotCommuting(f"members {i} and {j} do not commute (defect {defect:.3e})")


def distinct_eigenvalues(values, tol: ToleranceConfig) -> tuple[list[complex], float]:
    """Greedy representatives of computed eigenvalues, in (real, imag) order.

    A value joins the first representative within cut =
    eig_cluster_tol * max(1, max |value|); returns the representatives and
    the cut.
    """
    cut = tol.eig_cluster_tol * max(1.0, float(np.max(np.abs(values))))
    reps: list[complex] = []
    for v in sorted(values, key=lambda z: (z.real, z.imag)):
        if not any(abs(v - r) <= cut for r in reps):
            reps.append(complex(v))
    return reps, cut


@dataclass(frozen=True)
class EigenValue:
    """One distinct eigenvalue with its multiplicities and (real) eigenvectors."""

    value: complex
    multiplicity: int
    degree: int
    eigenvectors: np.ndarray | None  # (n, g) real basis, real eigenvalues only

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
        cut = tol.eig_cluster_tol * max(1.0, rho)
        for ev in self.eigenvalues:
            if ev.is_real and abs(ev.value.real - rho) <= cut:
                return ev
        return None

    def peripheral(self, tol: ToleranceConfig = DEFAULT_TOL):
        rho = self.spectral_radius
        cut = tol.eig_cluster_tol * max(1.0, rho)
        return [ev for ev in self.eigenvalues if abs(abs(ev.value) - rho) <= cut]


@dataclass(frozen=True)
class VandergraftReport:
    is_vandergraft: bool
    dominant_eigenvalue: float | None
    dominant_eigenvectors: np.ndarray | None
    failed_condition: str | None  # None | "rho-not-eigenvalue" | "degree-violation"
    spectrum: Spectrum = field(repr=False, default=None)


def _cluster(values: np.ndarray, tol: float) -> list[list[int]]:
    """Single-linkage clusters of complex values at distance tol."""
    order = np.lexsort((values.imag, values.real))
    clusters: list[list[int]] = []
    for idx in order:
        placed = False
        for cl in clusters:
            if any(abs(values[idx] - values[j]) <= tol for j in cl):
                cl.append(int(idx))
                placed = True
                break
        if not placed:
            clusters.append([int(idx)])
    return clusters


def _degree_of(A: np.ndarray, lam: complex, multiplicity: int, tol: ToleranceConfig) -> int:
    """Smallest k with rank((A - lam I)^k) = rank((A - lam I)^(k+1)).

    The degree never exceeds the multiplicity, so at most multiplicity - 1
    rank comparisons are made and a simple eigenvalue needs none.
    """
    if multiplicity == 1:
        return 1
    n = A.shape[0]
    scale = max(1.0, float(np.linalg.norm(A)))
    M = (A.astype(complex) - lam * np.eye(n)) / scale
    power = M
    r_prev = matrix_rank(power, tol.rank_tol)
    for k in range(1, multiplicity):
        power = power @ M
        r_next = matrix_rank(power, tol.rank_tol)
        if r_next == r_prev:
            return k
        r_prev = r_next
    return multiplicity


def _eig_values_2x2(A: np.ndarray) -> np.ndarray:
    t = A[0, 0] + A[1, 1]
    d = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    disc = complex(t * t - 4.0 * d)
    root = np.sqrt(disc)
    return np.array([(t + root) / 2.0, (t - root) / 2.0])


def _eigvec_2x2(A: np.ndarray, lam: float) -> np.ndarray:
    r1 = np.array([A[0, 1], lam - A[0, 0]])
    r2 = np.array([lam - A[1, 1], A[1, 0]])
    v = r1 if r1 @ r1 >= r2 @ r2 else r2
    n = np.sqrt(v @ v)
    if n < 1e-14:
        return np.array([1.0, 0.0])
    return fix_sign(v / n)


def _spectrum_2x2(M: np.ndarray, tol: ToleranceConfig) -> Spectrum:
    values = _eig_values_2x2(M)
    rho = float(np.max(np.abs(values)))
    cut = tol.eig_cluster_tol * max(1.0, rho)
    if abs(values[0] - values[1]) <= cut:
        v = complex(np.mean(values))
        if abs(v.imag) <= cut:
            v = complex(v.real, 0.0)
        scalar = np.linalg.norm(M - v.real * np.eye(2)) <= cut
        if v.imag == 0.0:
            vecs = np.eye(2) if scalar else _eigvec_2x2(M, v.real).reshape(2, 1)
        else:
            vecs = None
        ev = EigenValue(v, 2, 1 if scalar else 2, vecs)
        return Spectrum(2, (ev,), rho)
    out = []
    for v in values:
        if abs(v.imag) <= cut:
            lam = float(v.real)
            out.append(EigenValue(complex(lam), 1, 1, _eigvec_2x2(M, lam).reshape(2, 1)))
        else:
            out.append(EigenValue(complex(v), 1, 1, None))
    out.sort(key=lambda ev: (-abs(ev.value), -ev.value.real, ev.value.imag))
    return Spectrum(2, tuple(out), rho)


def eigen_decompose(A, tol: ToleranceConfig = DEFAULT_TOL) -> Spectrum:
    """Clustered eigenvalues, degrees and real eigenspaces of a real matrix.

    Uses the closed-form quadratic for n = 2 and LAPACK's Hessenberg +
    shifted-QR driver otherwise.  Computed eigenvalues within
    eig_cluster_tol * max(1, rho) are merged into one distinct eigenvalue,
    and the result is exactly closed under conjugation.
    """
    M = as_square_matrix(A)
    n = M.shape[0]
    if n > MAX_DIM:
        raise DimensionTooLarge(f"n = {n} exceeds the supported cap {MAX_DIM}")

    if n == 1:
        lam = float(M[0, 0])
        ev = EigenValue(complex(lam), 1, 1, np.array([[1.0]]))
        return Spectrum(1, (ev,), abs(lam))
    if n == 2:
        return _spectrum_2x2(M, tol)
    try:
        values = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(str(exc)) from exc

    rho = float(np.max(np.abs(values)))
    cut = tol.eig_cluster_tol * max(1.0, rho)
    clusters = _cluster(values, cut)

    # Cluster representatives; zero-out imaginary parts below the cluster cut.
    reps: list[complex] = []
    mults: list[int] = []
    for cl in clusters:
        v = complex(np.mean(values[cl]))
        if abs(v.imag) <= cut:
            v = complex(v.real, 0.0)
        reps.append(v)
        mults.append(len(cl))

    # Enforce exact conjugate pairing on the representatives.
    for i, v in enumerate(reps):
        if v.imag > 0:
            j = min(
                (k for k, w in enumerate(reps) if w.imag < 0),
                key=lambda k: abs(np.conj(v) - reps[k]),
                default=None,
            )
            if j is not None:
                merged = (v + np.conj(reps[j])) / 2.0
                reps[i] = merged
                reps[j] = np.conj(merged)

    eigenvalues = []
    for v, m in zip(reps, mults):
        deg = _degree_of(M, v, m, tol)
        vecs = None
        if v.imag == 0.0:
            basis = nullspace(M - v.real * np.eye(n), max(tol.rank_tol, cut))
            basis = np.real(basis)
            if basis.shape[1]:
                basis = np.column_stack([fix_sign(basis[:, k]) for k in range(basis.shape[1])])
            vecs = basis
        eigenvalues.append(EigenValue(v, m, deg, vecs))

    eigenvalues.sort(key=lambda ev: (-abs(ev.value), -ev.value.real, ev.value.imag))
    return Spectrum(n, tuple(eigenvalues), rho)


def is_vandergraft(A, tol: ToleranceConfig = DEFAULT_TOL) -> VandergraftReport:
    """Spectral test for existence of an invariant proper cone.

    For 2x2 inputs the equivalent closed form is used: real spectrum
    (trace^2 >= 4 det) together with trace >= 0.
    """
    M = as_square_matrix(A)
    n = M.shape[0]
    spec = eigen_decompose(M, tol)

    if n == 2:
        t = float(M[0, 0] + M[1, 1])
        d = float(M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0])
        s = max(1.0, float(np.linalg.norm(M)))
        ok = (t >= -tol.eig_cluster_tol * s) and (t * t - 4.0 * d >= -tol.eig_cluster_tol * s * s)
        if not ok:
            return VandergraftReport(False, None, None, "rho-not-eigenvalue", spec)
        dom = spec.dominant(tol)
        if dom is None:
            # Closed form and clustering disagree only inside the tolerance
            # shell; fall back to the nearest real eigenvalue of maximal value.
            real = [ev for ev in spec.eigenvalues if ev.is_real]
            dom = max(real, key=lambda ev: ev.value.real) if real else None
        if dom is None:
            return VandergraftReport(False, None, None, "rho-not-eigenvalue", spec)
        return VandergraftReport(True, float(dom.value.real), dom.eigenvectors, None, spec)

    dom = spec.dominant(tol)
    if dom is None:
        return VandergraftReport(False, None, None, "rho-not-eigenvalue", spec)
    for ev in spec.peripheral(tol):
        if ev.degree > dom.degree:
            return VandergraftReport(False, None, None, "degree-violation", spec)
    return VandergraftReport(True, float(dom.value.real), dom.eigenvectors, None, spec)


def enumerate_words(family: Sequence, max_len: int) -> Iterator[tuple[tuple[int, ...], np.ndarray]]:
    """Yield every product A_{i1} ... A_{ik} for 1 <= k <= max_len.

    Deterministic order: by length, then lexicographically by index word.
    """
    if not family:
        raise DimensionMismatch("family must be nonempty")
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    mats = [as_square_matrix(M) for M in family]
    n = mats[0].shape[0]
    for M in mats[1:]:
        if M.shape[0] != n:
            raise DimensionMismatch("family members must share one dimension")

    level = [((i,), mats[i]) for i in range(len(mats))]
    yield from level
    for _ in range(1, max_len):
        level = [(word + (j,), P @ mats[j]) for word, P in level for j in range(len(mats))]
        yield from level

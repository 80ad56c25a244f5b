"""Seeded random families used by property and acceptance suites."""

import numpy as np


def from_eigs(u1, u2, lam1=2.0, lam2=1.0):
    P = np.column_stack([u1, u2]).astype(float)
    return P @ np.diag([lam1, lam2]) @ np.linalg.inv(P)


def detneg_tracepos(rng):
    """Random 2x2 with det <= 0 <= trace (rejection sampled)."""
    while True:
        A = rng.normal(size=(2, 2))
        if A[0, 0] + A[1, 1] < 0:
            A = -A
        if np.linalg.det(A) <= 0:
            return A


def yes_biased_family(rng, size=3):
    """Diagonalizable nonnegative-determinant members with separated eigenlines."""
    alpha = rng.uniform(0, np.pi)
    width = rng.uniform(0.3, 1.0)
    mats = []
    for _ in range(size):
        th_d = rng.uniform(alpha, alpha + width)
        th_n = rng.uniform(alpha + width + 0.15, alpha + np.pi - 0.15)
        u1 = np.array([np.cos(th_d), np.sin(th_d)])
        u2 = np.array([np.cos(th_n), np.sin(th_n)])
        mats.append(from_eigs(u1, u2, rng.uniform(1.5, 3.0), rng.uniform(0.1, 1.0)))
    return mats


def mixed_family(rng, size=3):
    """Unconstrained eigenline placement; decisions split between YES and NO."""
    mats = []
    for _ in range(size):
        th_d = rng.uniform(0, np.pi)
        th_n = (th_d + rng.uniform(0.3, np.pi - 0.3)) % np.pi
        u1 = np.array([np.cos(th_d), np.sin(th_d)])
        u2 = np.array([np.cos(th_n), np.sin(th_n)])
        lam1 = rng.uniform(1.5, 3.0)
        lam2 = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 0.9) * lam1
        mats.append(from_eigs(u1, u2, lam1, lam2))
    return mats


def commuting_diag_2x2(rng, size=2):
    """Simultaneously diagonalizable pair/triple with mixed eigenvalue signs."""
    while True:
        P = rng.normal(size=(2, 2))
        if abs(np.linalg.det(P)) > 0.3:
            break
    Pinv = np.linalg.inv(P)
    return [
        P @ np.diag(rng.choice([-1.0, 1.0], size=2) * rng.uniform(0.3, 3.0, size=2)) @ Pinv
        for _ in range(size)
    ]


def _rotation(theta):
    return np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])


def _slot_sizes(rng, dim):
    sizes = []
    left = dim
    while left > 0:
        s = 2 if (left >= 2 and rng.random() < 0.5) else 1
        sizes.append(s)
        left -= s
    return sizes


def contractive_commuting_blocks(rng, dim=3, count=2, rho_max=0.8):
    """Commuting real blocks with spectral radius <= rho_max (shared slot layout)."""
    sizes = _slot_sizes(rng, dim)
    T = rng.normal(size=(dim, dim))
    while abs(np.linalg.det(T)) < 0.2:
        T = rng.normal(size=(dim, dim))
    Tinv = np.linalg.inv(T)
    out = []
    for _ in range(count):
        blocks = []
        for s in sizes:
            if s == 1:
                blocks.append(np.array([[rng.uniform(-rho_max, rho_max)]]))
            else:
                r = rng.uniform(0.1, rho_max)
                blocks.append(r * _rotation(rng.uniform(0, 2 * np.pi)))
        D = np.zeros((dim, dim))
        at = 0
        for Bk in blocks:
            s = Bk.shape[0]
            D[at:at + s, at:at + s] = Bk
            at += s
        out.append(T @ D @ Tinv)
    return out


def shared_dominant_commuting(rng, dim=3, count=2):
    """Commuting family with shared dominant eigenvector e1-image and semisimple radius."""
    blocks = contractive_commuting_blocks(rng, dim - 1, count, rho_max=0.7)
    T = rng.normal(size=(dim, dim))
    while abs(np.linalg.det(T)) < 0.2:
        T = rng.normal(size=(dim, dim))
    Tinv = np.linalg.inv(T)
    out = []
    for B in blocks:
        M = np.zeros((dim, dim))
        M[0, 0] = 1.0
        M[1:, 1:] = B
        out.append(rng.uniform(0.5, 2.0) * T @ M @ Tinv)
    x = T @ np.eye(dim)[:, 0]
    return out, x / np.linalg.norm(x)


def jordan_at_rho(rng, dim=3):
    """T J T^-1 with a 2x2 Jordan block at the spectral radius 1 and cond(T) < 50.

    It has an invariant proper cone, but its spectral radius is not semisimple.
    """
    T = rng.normal(size=(dim, dim))
    while np.linalg.cond(T) >= 50:
        T = rng.normal(size=(dim, dim))
    J = np.diag([1.0, 1.0] + list(rng.uniform(-0.9, 0.9, size=dim - 2)))
    J[0, 1] = 1.0
    return T @ J @ np.linalg.inv(T)


def normal_shared_dominant(rng, dim=4, count=2):
    """Normal members sharing a dominant unit eigenvector."""
    x = rng.normal(size=dim)
    x /= np.linalg.norm(x)
    # orthonormal completion of x
    Q, _ = np.linalg.qr(np.column_stack([x, rng.normal(size=(dim, dim - 1))]))
    Q[:, 0] = x
    out = []
    for _ in range(count):
        rho = rng.uniform(1.0, 2.0)
        sizes = _slot_sizes(rng, dim - 1)
        W = np.zeros((dim - 1, dim - 1))
        at = 0
        for s in sizes:
            r = rng.uniform(0.1, 0.9) * rho
            if s == 1:
                W[at, at] = rng.choice([-1.0, 1.0]) * r
            else:
                W[at:at + 2, at:at + 2] = r * _rotation(rng.uniform(0, 2 * np.pi))
            at += s
        U, _ = np.linalg.qr(rng.normal(size=(dim - 1, dim - 1)))
        M = rho * np.outer(x, x) + Q[:, 1:] @ (U @ W @ U.T) @ Q[:, 1:].T
        out.append(M)
    return out, x


def quadratic_boundary_points(K, count, seed):
    """Seeded random points c = 1, z^T V z = 1 on the boundary of a quadratic cone (rows)."""
    dirs = np.random.default_rng(seed).normal(size=(count, K.dim - 1))
    zs = dirs / np.sqrt(np.einsum("ij,jk,ik->i", dirs, K.form, dirs))[:, None]
    return K.axis[None, :] + zs @ K.complement_basis.T


def quadratic_inside(K, pts, tol=1e-9):
    """Vectorised membership of the rows of `pts` in a quadratic cone, on unit vectors."""
    norms = np.linalg.norm(pts, axis=1)
    U = pts / np.where(norms == 0, 1.0, norms)[:, None]
    c = U @ K.axis
    Z = U @ K.complement_basis
    q = np.einsum("ij,jk,ik->i", Z, K.form, Z)
    return (c >= -tol) & (q <= c * c + tol)

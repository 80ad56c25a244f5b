"""Seeded item generators for the four benchmark workloads.

Item `i` of a workload is drawn from `numpy.random.default_rng([seed, i])`,
so the same (seed, index) always gives the same input, whatever ran before.
The structural knobs (dimension, member count, family kind) are a fixed
function of the index, so every window of `cycle` consecutive items holds
the same mix whatever the seed; only the random matrices change.  That keeps
run-to-run spread down on a workload whose item cost varies 10x by stratum.

Ground truth is planted by construction where the construction decides it
(`truth` is "yes"/"no"); `None` means the checker relies on the oracle
alone.  These generators are deliberately independent of `tests/_gen.py`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FAMILY_SCHEMA = "conelab/family-v1"
CONE_SCHEMA = "conelab/cone-v1"


@dataclass(frozen=True)
class Item:
    index: int
    kind: str            # "common" (decide) or "verify" (oracle check of a given cone)
    tag: str             # stratum name, for reports
    family: dict         # family-v1 JSON object
    cone: dict | None    # cone-v1 JSON object, for "verify" items
    truth: str | None    # planted answer: "yes" / "no" / None (unknown)
    complete: bool       # the route that should decide it is complete (UNDECIDED = failure)


def family_json(mats) -> dict:
    mats = [np.asarray(M, dtype=float) for M in mats]
    return {"schema": FAMILY_SCHEMA, "dimension": int(mats[0].shape[0]),
            "matrices": [M.tolist() for M in mats]}


def _rot(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def _line(theta):
    return np.array([np.cos(theta), np.sin(theta)])


def _from_eigs(u1, u2, lam1, lam2):
    P = np.column_stack([u1, u2])
    return P @ np.diag([lam1, lam2]) @ np.linalg.inv(P)


def _invertible(rng, n, cond_max=50.0):
    while True:
        T = rng.normal(size=(n, n))
        if np.linalg.cond(T) < cond_max:
            return T


def _orthonormal_complement(rng, x):
    n = x.size
    Q, _ = np.linalg.qr(np.column_stack([x, rng.normal(size=(n, n - 1))]))
    return Q[:, 1:]


# ---------------------------------------------------------------- planar_mixed

_FIXTURES_NO = ("ex7_1", "ex7_2", "ex7_3", "ex7_4")


def _fixture_mats(name):
    # The worked examples, restated here so a fixture edit cannot move the workload.
    if name == "ex7_1":
        return [np.array([[1.0, 1.0], [0.0, -1.0]]), np.array([[1.0, 2.0], [0.0, -1.0]])]
    if name == "ex7_2":
        return [_from_eigs([1, 0], [0, 1], 2.0, 1.0), _from_eigs([1, 2], [-2, 1], 2.0, 1.0),
                _from_eigs([1, -2], [2, 1], 2.0, 1.0)]
    if name == "ex7_3":
        return [_from_eigs([1, 0], [0, 1], 2.0, 1.0), _from_eigs([0, 1], [1, 0], 2.0, 1.0),
                _from_eigs([1, 1], [1, -1], 2.0, 1.0), _from_eigs([1, -1], [1, 1], 2.0, 1.0)]
    if name == "ex7_4":
        return [np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([[1.0, -1.0], [0.0, 1.0]])]
    raise KeyError(name)


def _ex7_6_prefix(m):
    return [np.array([[1.0, float(t)], [0.0, 0.5]]) for t in range(1, m + 1)]


def _mixed_member(rng):
    """Random eigenline placement, either sign of the second eigenvalue."""
    th_d = rng.uniform(0, np.pi)
    th_n = (th_d + rng.uniform(0.3, np.pi - 0.3)) % np.pi
    lam1 = rng.uniform(1.5, 3.0)
    lam2 = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 0.9) * lam1
    return _from_eigs(_line(th_d), _line(th_n), lam1, lam2)


def _yes_biased(rng, size):
    """Dominant eigenlines inside an arc, non-dominant ones outside it, all
    eigenvalues positive: a sector slightly wider than the arc is invariant."""
    alpha = rng.uniform(0, np.pi)
    width = rng.uniform(0.3, 1.0)
    mats = []
    for _ in range(size):
        th_d = rng.uniform(alpha, alpha + width)
        th_n = rng.uniform(alpha + width + 0.15, alpha + np.pi - 0.15)
        mats.append(_from_eigs(_line(th_d), _line(th_n), rng.uniform(1.5, 3.0), rng.uniform(0.1, 1.0)))
    return mats


def _shear(rng):
    """Non-diagonalizable member: a rotated Jordan block lam*(I + t N)."""
    R = _rot(rng.uniform(0, 2 * np.pi))
    lam = rng.uniform(0.5, 2.0)
    t = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 2.0)
    return R @ np.array([[lam, lam * t], [0.0, lam]]) @ R.T


def _negdet(rng):
    """det < 0 <= trace: real eigenvalues of opposite sign, positive one dominant."""
    th_d = rng.uniform(0, np.pi)
    th_n = (th_d + rng.uniform(0.3, np.pi - 0.3)) % np.pi
    lam1 = rng.uniform(1.0, 3.0)
    return _from_eigs(_line(th_d), _line(th_n), lam1, -rng.uniform(0.1, 0.95) * lam1)


PLANAR_KINDS = ("mixed", "yes_biased", "mixed", "shear", "mixed",
                "yes_biased", "negdet", "fixture_no", "mixed", "fixture_yes")


def planar_item(seed: int, i: int) -> Item:
    rng = np.random.default_rng([seed, i])
    kind = PLANAR_KINDS[i % len(PLANAR_KINDS)]
    size = 2 + (i // len(PLANAR_KINDS)) % 5  # 2..6 members
    truth = None
    if kind == "mixed":
        mats = [_mixed_member(rng) for _ in range(size)]
    elif kind == "yes_biased":
        mats, truth = _yes_biased(rng, size), "yes"
    elif kind == "shear":
        k = 1 + int(rng.integers(0, 2))
        mats = [_shear(rng) for _ in range(k)] + [_mixed_member(rng) for _ in range(size - k)]
    elif kind == "negdet":
        k = 1 + int(rng.integers(0, size))
        mats = [_negdet(rng) for _ in range(k)] + [_mixed_member(rng) for _ in range(size - k)]
    elif kind == "fixture_no":
        mats, truth = _fixture_mats(_FIXTURES_NO[(i // len(PLANAR_KINDS)) % 4]), "no"
    else:
        mats, truth = _ex7_6_prefix(size), "yes"
    if kind in ("mixed", "shear", "negdet"):
        order = rng.permutation(len(mats))
        mats = [mats[k] for k in order]
    return Item(i, "common", kind, family_json(mats), None, truth, True)


# ---------------------------------------------------------------- simdiag_wide

SIMDIAG_KINDS = ("yes", "yes_tie", "yes_complex", "yes", "no")


def _block_diag(blocks):
    n = sum(b.shape[0] for b in blocks)
    D = np.zeros((n, n))
    at = 0
    for b in blocks:
        s = b.shape[0]
        D[at:at + s, at:at + s] = b
        at += s
    return D


def simdiag_item(seed: int, i: int) -> Item:
    """Commuting diagonalizable family S D_j S^-1 with a planted dominant block.

    Block 0 is real and strictly dominant for every member (or tied with the
    real block 1 for some members).  The remaining blocks, real or 2x2
    rotation-scalings, stay below a fixed fraction of block 0's modulus, so
    they are never dominant for any product.  YES: every dominant-block
    eigenvalue is positive.  NO: one member's strictly dominant eigenvalue is
    negative, so that member alone has no invariant cone.
    """
    rng = np.random.default_rng([seed, i])
    dim = 3 + i % 4                 # 3..6
    n = 2 + (i // 4) % 5            # 2..6 members
    kind = SIMDIAG_KINDS[(i + i // 20) % len(SIMDIAG_KINDS)]
    tie = kind == "yes_tie"
    # Slot layout after the dominant block(s): 1 = real, 2 = complex pair.
    rest = dim - (2 if tie else 1)
    sizes = []
    while rest > 0:
        s = 2 if (rest >= 2 and (kind == "yes_complex" or rng.random() < 0.35)) else 1
        sizes.append(s)
        rest -= s
    S = _invertible(rng, dim)
    bad = int(rng.integers(0, n)) if kind == "no" else -1
    mats = []
    for j in range(n):
        r = rng.uniform(0.5, 2.0)
        blocks = [np.array([[-r if j == bad else r]])]
        if tie:
            blocks.append(np.array([[r if rng.random() < 0.5 else r * rng.uniform(0.3, 0.9)]]))
        for s in sizes:
            mod = r * rng.uniform(0.1, 0.85)
            if s == 1:
                blocks.append(np.array([[rng.choice([-1.0, 1.0]) * mod]]))
            else:
                blocks.append(mod * _rot(rng.uniform(0.2, np.pi - 0.2)))
        mats.append(S @ _block_diag(blocks) @ np.linalg.inv(S))
    return Item(i, "common", f"{kind}_d{dim}_n{n}", family_json(mats), None,
                "no" if kind == "no" else "yes", True)


# ------------------------------------------------------------ shared_quadratic

SHARED_RADII = (0.5, 0.8, 0.95, 0.99, 0.999)


def _normal_shared(rng, dim, n):
    """Normal members sharing a dominant unit eigenvector x, with independent
    random rotations of the complement, so they do not commute."""
    x = rng.normal(size=dim)
    x /= np.linalg.norm(x)
    B = _orthonormal_complement(rng, x)
    mats = []
    for _ in range(n):
        rho = rng.uniform(1.0, 2.0)
        W = np.zeros((dim - 1, dim - 1))
        at = 0
        while at < dim - 1:
            r = rng.uniform(0.1, 0.9) * rho
            if at + 2 <= dim - 1 and rng.random() < 0.5:
                W[at:at + 2, at:at + 2] = r * _rot(rng.uniform(0, 2 * np.pi))
                at += 2
            else:
                W[at, at] = rng.choice([-1.0, 1.0]) * r
                at += 1
        U, _ = np.linalg.qr(rng.normal(size=(dim - 1, dim - 1)))
        mats.append(rho * np.outer(x, x) + B @ (U @ W @ U.T) @ B.T)
    return mats


def _jordan_commuting(rng, dim, n, radius):
    """Commuting, non-diagonalizable: s_j * T diag(1, J_j, d_j) T^-1 where
    J_j = [[mu_j, nu_j], [0, mu_j]] is a Jordan block (upper-triangular
    Toeplitz blocks commute) and the deflated spectral radius is `radius`."""
    T = _invertible(rng, dim)
    Tinv = np.linalg.inv(T)
    mats = []
    for j in range(n):
        mu = rng.choice([-1.0, 1.0]) * radius * (1.0 if j == 0 else rng.uniform(0.5, 1.0))
        nu = rng.uniform(0.3, 1.5)
        tail = [rng.uniform(-1.0, 1.0) * radius for _ in range(dim - 3)]
        D = _block_diag([np.array([[1.0]]), np.array([[mu, nu], [0.0, mu]])]
                        + [np.array([[t]]) for t in tail])
        mats.append(rng.uniform(0.5, 2.0) * T @ D @ Tinv)
    return mats


def shared_item(seed: int, i: int) -> Item:
    rng = np.random.default_rng([seed, i])
    normal = i % 2 == 0
    j = i // 2
    dim = 3 + j % 4                 # 3..6
    n = 2 + j % 3                   # 2..4 members
    if normal:
        mats, tag = _normal_shared(rng, dim, n), f"normal_d{dim}"
    else:
        radius = SHARED_RADII[j % len(SHARED_RADII)]
        mats, tag = _jordan_commuting(rng, dim, n, radius), f"jordan_d{dim}_r{radius}"
    return Item(i, "common", tag, family_json(mats), None, "yes", False)


# --------------------------------------------------------------- verify_oracle

# Three in seven items take the cheap, conclusive psd certificate, so the
# median latency lies inside that dense cluster instead of in the gap between
# the cheap items and the sampled-fallback ones, where it jumps with any
# partial slowdown of the machine.
VERIFY_KINDS = ("quad_psd", "poly_in", "quad_psd", "quad_rank_one", "quad_psd", "poly_out",
                "quad_outside")
POLY_DIMS = (3, 24, 5, 40, 8, 12, 4, 32, 6, 16, 10, 20)  # heavy and light interleaved


def _quadratic_cone(rng, dim):
    """K = {c x + B y : y^T V y <= c^2} with a random axis, basis and form."""
    x = rng.normal(size=dim)
    x /= np.linalg.norm(x)
    B = _orthonormal_complement(rng, x)
    V = np.diag(rng.uniform(0.5, 2.0, size=dim - 1))
    return x, B, V


def _quad_json(x, B, V):
    return {"schema": CONE_SCHEMA, "type": "quadratic", "dim": int(x.size), "axis": x.tolist(),
            "form": V.tolist(), "complementBasis": B.T.tolist()}


def _axis_sharing(rng, x, B, V):
    """rho x x^T + B V^-1/2 W V^1/2 B^T with ||W|| <= 0.9 rho, W normal: maps K
    into K and rho^2 Q - A^T Q A is PSD, so the certificate is conclusive."""
    d = x.size - 1
    rho = rng.uniform(0.5, 2.0)
    U, _ = np.linalg.qr(rng.normal(size=(d, d)))
    W = U @ np.diag(rng.choice([-1.0, 1.0], size=d) * rng.uniform(0.1, 0.9, size=d) * rho) @ U.T
    s = np.sqrt(np.diag(V))
    return rho * np.outer(x, x) + B @ ((W * s[None, :]) / s[:, None]) @ B.T


def _rank_one(rng, x, B, V):
    """u w^T with u inside K and w inside the dual cone: invariant, but the
    rho^2 certificate is inconclusive."""
    d = x.size - 1
    z = rng.normal(size=d)
    z *= rng.uniform(0.2, 0.8) / np.sqrt(z @ V @ z)
    u = x + B @ z
    z2 = rng.normal(size=d)
    z2 *= rng.uniform(0.2, 0.8) / np.sqrt(z2 @ np.diag(1.0 / np.diag(V)) @ z2)
    w = x + B @ z2
    return rng.uniform(0.5, 2.0) * np.outer(u, w)


def _axis_outside(rng, x, B, V):
    """An axis-sharing member, negated (K onto -K) or changed so that it maps
    the axis to a point outside K."""
    A = _axis_sharing(rng, x, B, V)
    d = x.size - 1
    if rng.random() < 0.5:
        return -A  # maps K onto -K
    z = rng.normal(size=d)
    z *= rng.uniform(2.0, 4.0) / np.sqrt(z @ V @ z)
    target = x + B @ z          # outside K: y^T V y > c^2
    return A + np.outer(target - x, x) * (x @ A @ x)


def verify_item(seed: int, i: int) -> Item:
    rng = np.random.default_rng([seed, i])
    kind = VERIFY_KINDS[i % len(VERIFY_KINDS)]
    j = i // len(VERIFY_KINDS)
    n = 1 + j % 3                   # 1..3 members
    if kind.startswith("quad"):
        dim = 3 + j % 4             # 3..6
        x, B, V = _quadratic_cone(rng, dim)
        mats = [_axis_sharing(rng, x, B, V) for _ in range(n)]
        if kind == "quad_rank_one":
            mats[int(rng.integers(0, n))] = _rank_one(rng, x, B, V)
        elif kind == "quad_outside":
            mats[int(rng.integers(0, n))] = _axis_outside(rng, x, B, V)
        cone = _quad_json(x, B, V)
        truth = "no" if kind == "quad_outside" else "yes"
        tag = f"{kind}_d{dim}"
    else:
        dim = POLY_DIMS[j % len(POLY_DIMS)]
        G = _invertible(rng, dim, cond_max=20.0 * dim)
        G /= np.linalg.norm(G, axis=0)[None, :]
        Ginv = np.linalg.inv(G)
        mats = []
        for _ in range(n):
            N = rng.uniform(0.0, 1.0, size=(dim, dim)) * (rng.random((dim, dim)) < 0.6)
            N[np.arange(dim), rng.permutation(dim)] += rng.uniform(0.2, 1.0, size=dim)
            mats.append(G @ N @ Ginv)
        if kind == "poly_out":
            N = rng.uniform(0.0, 1.0, size=(dim, dim))
            a, b = rng.integers(0, dim, size=2)
            N[a, b] = -rng.uniform(0.5, 1.0)
            mats[int(rng.integers(0, n))] = G @ N @ Ginv
        cone = {"schema": CONE_SCHEMA, "type": "polyhedral", "dim": dim, "generators": G.T.tolist()}
        truth = "no" if kind == "poly_out" else "yes"
        tag = f"{kind}_d{dim}"
    return Item(i, "verify", tag, family_json(mats), cone, truth, True)


@dataclass(frozen=True)
class Workload:
    name: str
    make: object        # (seed, index) -> Item
    cycle: int          # every `cycle` consecutive indices hold the full stratum mix
    panel: int          # items per run: a whole number of cycles, one pass well inside a run


# Why each workload exists is recorded in BENCHMARK.json and bench/README.md.
WORKLOADS = {w.name: w for w in (
    Workload("planar_mixed", planar_item, len(PLANAR_KINDS) * 5, 1500),
    Workload("simdiag_wide", simdiag_item, 20 * len(SIMDIAG_KINDS), 200),
    Workload("shared_quadratic", shared_item, 2 * 4 * 3 * len(SHARED_RADII), 720),
    Workload("verify_oracle", verify_item, len(VERIFY_KINDS) * len(POLY_DIMS), 252),
)}

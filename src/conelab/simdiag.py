"""Decision and cone construction for simultaneously diagonalizable families.

For a commuting family of diagonalizable matrices sharing a similarity S,
the decision reduces to bookkeeping on the q x n table of eigenvalues: over
the exponent tuples, one exponent sum at a time, collect the tie-broken
index of the dominant diagonal block; a common invariant proper cone exists
exactly when the collected rows of the table are entrywise nonnegative.
Whether a larger bound could add a block (`exact`) is settled by array tests
on the table, with an LP only for the blocks they leave open.
The constructive direction builds a polyhedral cone from the dominant real
columns of S and a polyhedral gauge ball on each remaining column.  When
one dominant block bounds each tail that cone is invariant by construction:
its extreme rays are known and its generator images are checked once
against closed-form membership certificates.  Otherwise no witness is
built, and the decision is UNDECIDED.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import decision as dd
from .cones import PolyhedralCone, _norm, contains, is_proper, unit
from .decision import Decision
from .errors import (
    HypothesesNotMet,
    InternalInconsistency,
    NonVandergraftProduct,
    NotDiagonalizable,
    PointednessCertificateFailed,
    PreconditionFailed,
    RefinementFailed,
)
from .linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    check_commuting,
    eigen_decompose,
    eigenvalue_clusters,
    nullspace,
    square_family,
    unit_members,
)

_MAX_DRAWS = 8
_MAX_SIDES = 256  # the largest N-gon a complex tail gets
_CHUNK_ROWS = 4096  # exponent tuples searched per array pass, in whole sums


@dataclass(frozen=True)
class SimDiagForm:
    """Verified joint diagonal form of a commuting diagonalizable family."""

    S: np.ndarray                  # (m, m) complex; conjugate-pair columns for complex blocks
    block_sizes: tuple[int, ...]
    lambda_table: np.ndarray       # (q, n) complex, row i = eigenvalues of block i
    b: np.ndarray                  # (q,) reference eigenvalues of the witness combination
    family: tuple[np.ndarray, ...]
    conj_partner: tuple[int | None, ...]  # None for a real block

    @property
    def dim(self) -> int:
        return self.S.shape[0]

    @property
    def family_size(self) -> int:
        return len(self.family)

    @property
    def num_blocks(self) -> int:
        return len(self.block_sizes)

    @functools.cached_property
    def _S_inv(self) -> np.ndarray:  # one inverse per form, shared by every member
        return np.linalg.inv(self.S)

    def reconstruct(self, j: int) -> np.ndarray:
        d = np.concatenate([
            np.full(s, self.lambda_table[i, j]) for i, s in enumerate(self.block_sizes)
        ])
        return np.real(self.S @ np.diag(d) @ self._S_inv)


@dataclass(frozen=True)
class DominantIndexSet:
    indices: frozenset[int]
    witnesses: dict  # block index -> first exponent tuple that elected it
    search_bound: int
    exact: bool
    notes: tuple[str, ...] = ()


def _joint_blocks(stack: np.ndarray, c: np.ndarray, tol: ToleranceConfig):
    """(eigenvalue row, orthonormal basis) of each real eigenspace of
    B = sum c_j A_j and of one twin of each complex pair, the one whose first
    complex eigenvalue lies in the upper half-plane.  A basis of several
    columns is the leading columns of a column-pivoted QR of the projector
    E E^H, so it depends on the subspace alone; every column has its
    largest-modulus entry real and positive.  None when some member is
    not scalar on one of them, that is when B merges two joint eigenspaces."""
    B = np.tensordot(c, stack, axes=1)
    cut = tol.eig_cluster_tol * _norm(B)
    values = np.linalg.eigvals(B)
    values = np.where(np.abs(values.imag) <= cut, values.real, values)
    blocks = []
    for beta, size in eigenvalue_clusters(values[values.imag >= 0], cut):
        E = nullspace(B - (beta if beta.imag else beta.real) * np.eye(len(B)), cut)
        if E.shape[1] != size:
            return None
        R = E.conj().T @ stack @ E
        lam = np.trace(R, axis1=1, axis2=2) / size
        if np.any(np.linalg.norm(R - lam[:, None, None] * np.eye(size), axis=(1, 2)) > tol.eig_cluster_tol):
            return None
        if beta.imag and next((z.imag for z in lam if abs(z.imag) > tol.eig_cluster_tol), 0.0) < 0:
            lam, E = lam.conj(), E.conj()
        if size > 1:  # a basis of the subspace alone: pivoted QR of its projector
            from scipy.linalg import qr

            E = qr(E @ E.conj().T, pivoting=True)[0][:, :size]
        for k in range(size):  # one sign and phase: the largest-modulus entry is real and positive
            z = E[np.argmax(np.abs(E[:, k])), k]
            E[:, k] *= abs(z) / z
        blocks.append((lam, E))
    return blocks


def simultaneous_diagonalize(family, tol: ToleranceConfig = DEFAULT_TOL, seed: int = 0) -> SimDiagForm:
    """Joint diagonal form of a commuting family of diagonalizable members.

    The joint eigenspaces are the eigenspaces of any combination
    B = sum c_j A_j whose reference eigenvalues b_i = sum_j c_j lambda_ij are
    pairwise distinct.  The plain sum comes first, because it does not
    depend on the member order; only if it merges two joint eigenspaces
    (some member is not scalar on one of B's eigenspaces) are up to eight
    positive combinations drawn from `seed`, so the form depends on `seed`
    only then.  A member's eigenvalue on a block is its mean diagonal entry
    there, and each member's values are snapped to one per cluster, so block
    order does not depend on rounding.  A complex block is followed by its
    exact conjugate.  Eigenvalue comparisons are absolute: they assume
    members of unit norm, which `decide_simdiag` supplies.
    """
    mats = square_family(family)
    m = mats[0].shape[0]
    check_commuting(mats, tol)
    for j, M in enumerate(mats):
        spec = eigen_decompose(M, tol)
        if any(ev.degree > 1 for ev in spec.eigenvalues):
            raise NotDiagonalizable(f"member {j} is not diagonalizable")
    cut = tol.eig_cluster_tol

    def canon(z: complex) -> complex:
        re = 0.0 if abs(z.real) <= cut else z.real
        im = 0.0 if abs(z.imag) <= cut else z.imag
        return complex(re, im)

    def combinations():
        yield np.ones(len(mats))
        rng = np.random.default_rng(seed)
        for _ in range(_MAX_DRAWS):
            yield rng.uniform(0.5, 1.5, size=len(mats))

    stack = np.array(mats)
    for chosen in combinations():
        blocks = _joint_blocks(stack, chosen, tol)
        if blocks is not None:
            break
    else:
        raise RefinementFailed("no drawn combination separates the joint blocks")

    rows = np.array([lam for lam, _ in blocks], dtype=complex)
    for col in rows.T:
        means = np.array([z for z, _ in eigenvalue_clusters(col, cut)])
        col[:] = means[np.argmin(np.abs(col[:, None] - means), axis=1)]
    # A complex pair sorts at the key of its conjugate twin, which sorts first.
    entries = []
    for tup, E in sorted(((tuple(map(canon, row)), E) for row, (_, E) in zip(rows, blocks)),
                         key=lambda p: tuple((z.real, -z.imag) for z in p[0])):
        if all(z.imag == 0.0 for z in tup):
            entries.append((tup, E, None))
        else:
            k = len(entries)
            entries += [(tup, E, k + 1), (tuple(np.conj(tup)), np.conj(E), k)]

    sizes = tuple(int(e[1].shape[1]) for e in entries)
    if sum(sizes) != m:
        raise RefinementFailed("joint eigenspaces do not span the ambient space")
    S = np.column_stack([e[1] for e in entries]).astype(complex)
    table = np.array([e[0] for e in entries], dtype=complex)
    b_final = np.array([sum(cj * z for cj, z in zip(chosen, row)) for row in table])

    form = SimDiagForm(S, sizes, table, b_final, tuple(mats), tuple(e[2] for e in entries))
    for j, M in enumerate(mats):
        err = np.linalg.norm(form.reconstruct(j) - M)
        if err > 1e-6 * np.linalg.norm(M):
            raise RefinementFailed(f"reconstruction residual {err:.3e} for member {j}")
    return form


@functools.cache
def _exponent_chunks(n: int, bound: int):
    """All n-tuples of nonnegative exponents with sum <= bound, one tuple per
    row, ordered by sum and then lexicographically, with each row's sum.
    Built once per (n, bound) and handed out as read-only (tuples, sums)
    chunks: a chunk closes after the first whole sum that brings it to at
    least _CHUNK_ROWS rows, and the last one takes the rest."""
    dtype = np.min_scalar_type(bound)
    P = np.zeros((1, 0), dtype=dtype)  # the (n - 1)-tuples with sum <= bound, in lexicographic order
    for _ in range(n - 1):  # append one coordinate, 0..(bound - the row's sum so far), to every row
        reps = bound + 1 - P.sum(axis=1, dtype=np.int64)
        starts = np.repeat(np.cumsum(reps) - reps, reps)
        P = np.column_stack([np.repeat(P, reps, axis=0), (np.arange(len(starts)) - starts).astype(dtype)])
    prefix = P.sum(axis=1, dtype=np.int64)
    E = np.empty((math.comb(bound + n, n), n), dtype=dtype)
    sums = np.empty(len(E), dtype=dtype)
    cuts, at = [0], 0
    for t in range(bound + 1):  # a tuple of sum t is a prefix of sum <= t and the rest, t - prefix
        keep = prefix <= t
        end = at + np.count_nonzero(keep)
        E[at:end, :-1], E[at:end, -1], sums[at:end] = P[keep], t - prefix[keep], t
        if end - cuts[-1] >= _CHUNK_ROWS or t == bound:
            cuts.append(end)
        at = end
    E.flags.writeable = sums.flags.writeable = False
    return tuple((E[a:b], sums[a:b]) for a, b in zip(cuts, cuts[1:]))


def _never_elected(form: SimDiagForm, indices, tol: ToleranceConfig):
    """Two array tests that a block is elected at no exponent bound, for a
    table without zero eigenvalues and the dominant set `indices`.

    Returns boolean masks over the blocks.  `dominated[k]`: some block m has
    min_j (log|L_mj| - log|L_kj|) > 1e-9, so that row alone makes k's
    completeness LP infeasible.  `covered[k]`: some elected block i with real
    positive eigenvalues has log|L_i| >= log|L_k| in every member and
    b_i (1 - eps) > |b_k|.  Then whenever k is top, i is top and real
    positive too, so the tie-break's target is at least b_i: k is neither
    strict nor of largest real part, and is never elected.
    """
    L, b = form.lambda_table, form.b
    logs = np.log(np.abs(L))
    gap = (logs[None, :, :] - logs[:, None, :]).min(axis=2)  # gap[k, m] = min_j (logs_mj - logs_kj)
    dominated = (gap > 1e-9).any(axis=1)
    covered = np.zeros(form.num_blocks, dtype=bool)
    for i in indices:
        if np.all(L[i].imag == 0) and np.all(L[i].real > 0):
            covered |= (logs[i] >= logs).all(axis=1) & (b[i].real * (1.0 - tol.eig_cluster_tol) > np.abs(b))
    return dominated, covered


def dominant_index_set(form: SimDiagForm, bound: int = 8,
                       tol: ToleranceConfig = DEFAULT_TOL) -> DominantIndexSet:
    """The blocks elected dominant by some exponent tuple of sum <= bound.

    The exponent tuples z of the products A_1^z_1 ... A_n^z_n, ordered by
    sum t = 0..bound and then lexicographically, form a table that is built
    once per (n, bound) and searched in read-only chunks of whole sums.  One
    pass over a chunk's rows E gives every product's diagonal as
    `E @ log|L|^T` and `E @ arg L^T` over the eigenvalue table L, held
    transposed (blocks x rows) so that each tuple's reductions run over the
    short block axis; a zero eigenvalue makes a block's product zero exactly
    when its exponent is positive.  A tuple's candidate set holds the blocks whose product is
    within the clustering tolerance of the top modulus and real nonnegative
    (phase within 1e-8 (1 + t)) or zero.  The elected block is the first
    candidate whose reference eigenvalue b is real, positive and of maximal
    |b| over the candidates; failing that, the candidate of largest Re b,
    with a note.  Each elected block's witness is the first tuple that
    elected it.

    A tuple with no candidate is a non-Vandergraft product: the search ends
    with the sum it belongs to, so no later chunk is searched, and raises
    `NonVandergraftProduct` carrying the first such tuple and the partial
    set, which do not depend on the member order.  Otherwise, for spectra
    without zero eigenvalues, `exact` certifies that no larger bound adds a
    block.  Each block outside the set is settled by the array tests of
    `_never_elected` first: (a) another block beats it in every member, or
    (b) an elected block covers it through the tie-break.  Only a block that
    neither settles gets an LP over the log-moduli, which certifies that it
    is weakly maximal in no nonnegative direction; scipy's `linprog` is
    imported only then.
    """
    if bound < 0:
        raise PreconditionFailed(f"the exponent-sum bound must be nonnegative, got {bound}")
    L = form.lambda_table
    zero = (L == 0).T
    with np.errstate(divide="ignore"):
        logmag = np.where(zero, 0.0, np.log(np.abs(L)).T)
    phase = np.angle(L).T
    has_zero = bool(zero.any())
    b = form.b
    witnesses: dict[int, tuple[int, ...]] = {}
    notes: list[str] = []
    failed = None
    br, bi, babs = b.real[:, None], np.abs(b.imag)[:, None], np.abs(b)[:, None]
    for E, sums in _exponent_chunks(form.family_size, bound):
        logs = (E @ logmag).T.copy()  # the matmul's bits, laid out blocks x rows
        if has_zero:
            logs[((E > 0) @ zero).T] = -np.inf
        maxv = logs.max(axis=0)
        top = logs >= maxv - tol.eig_cluster_tol * (1.0 + np.abs(maxv))  # all blocks when maxv = -inf
        # the phase test, on the products that pass the modulus test only
        wrapped = np.abs(((E @ phase).T[top] + np.pi) % (2.0 * np.pi) - np.pi)
        omega = np.zeros_like(top)
        omega[top] = (wrapped <= 1e-8 * (1.0 + np.broadcast_to(sums, top.shape)[top])) | (logs[top] == -np.inf)
        elected = omega.any(axis=0)
        if not elected.all():  # the search ends with the sum of the first failing tuple
            r = int(np.argmin(elected))
            failed = tuple(E[r].tolist())
            end = int(np.searchsorted(sums, sums[r], side="right"))
            E, omega, elected = E[:end], omega[:, :end], elected[:end]

        target = np.where(omega, babs, -np.inf).max(axis=0)
        eps = tol.eig_cluster_tol * target
        strict = omega & (bi <= eps) & (br > 0) & (np.abs(br - target) <= eps)
        pick = np.zeros(len(E), dtype=np.intp)
        for k in range(len(strict) - 1, -1, -1):  # the first strict block of each tuple
            pick[strict[k]] = k
        loose = np.flatnonzero(elected & ~strict.any(axis=0))
        pick[loose] = np.where(omega[:, loose], br, -np.inf).argmax(axis=0)
        for r in loose:
            notes.append(f"tie-break fallback (largest real part) at exponents {tuple(E[r].tolist())}")
        rows = np.flatnonzero(elected)
        _, first = np.unique(pick[rows], return_index=True)
        for r in np.sort(rows[first]):
            witnesses.setdefault(int(pick[r]), tuple(E[r].tolist()))
        if failed is not None:
            break
    indices = set(witnesses)
    if failed is not None:
        partial = DominantIndexSet(frozenset(indices), witnesses, bound, False,
                                   tuple(notes) + (f"aborted at non-Vandergraft tuple {failed}",))
        raise NonVandergraftProduct(failed, partial=partial)

    if has_zero:
        notes.append("zero eigenvalues present; completeness certificate unavailable")
        return DominantIndexSet(frozenset(indices), witnesses, bound, False, tuple(notes))
    dominated, covered = _never_elected(form, indices, tol)
    open_blocks = [k for k in range(form.num_blocks) if k not in indices and not (dominated[k] or covered[k])]
    exact = True
    if open_blocks:
        # A block left open is weakly maximal in some direction c >= 0,
        # sum(c) = 1, exactly when its LP is feasible; one such block refutes `exact`.
        from scipy.optimize import linprog

        logs, n = np.log(np.abs(L)), form.family_size
        exact = not any(
            linprog(np.zeros(n), A_ub=np.delete(logs, k, axis=0) - logs[k], b_ub=np.full(len(logs) - 1, 1e-9),
                    A_eq=np.ones((1, n)), b_eq=[1.0], bounds=(0, None), method="highs").status == 0
            for k in open_blocks)
    return DominantIndexSet(frozenset(indices), witnesses, bound, exact, tuple(notes))


def _gauge_coefficients(Y: np.ndarray, heads, feeds, fed, num_seeds: int) -> np.ndarray:
    """Nonnegative weights on the gauge seeds of `construct_simdiag_cone`
    that rebuild the points whose head/tail coordinates are the rows of Y.

    A real tail coordinate t takes max(+-t, 0) on e + Re and e - Re; a
    complex pair takes its two adjacent N-gon vertices, by the sine rule.
    Each tail's gauge, the sum of those weights, is taken off the head
    coordinates of the block e sums.  What is left of a head coordinate goes
    on its column or, for a dropped one-column head (`fed`: block -> (N, first
    seed)), on the N seeds whose mean it is.  A point outside the cone shows
    up as a negative weight, clipped at 0."""
    X = np.zeros((len(Y), num_seeds))
    rest = Y[:, :heads[-1]].copy()
    rows = np.arange(len(Y))
    for k, n, first, j in feeds:
        if n == 2:
            X[:, first], X[:, first + 1] = np.maximum(Y[:, j], 0.0), np.maximum(-Y[:, j], 0.0)
            gauge = np.abs(Y[:, j])
        else:
            step = 2 * math.pi / n
            phi = np.arctan2(Y[:, j + 1], Y[:, j]) % (2 * math.pi)
            m = np.floor(phi / step)
            r = np.hypot(Y[:, j], Y[:, j + 1]) / math.sin(step)
            lo = np.maximum(r * np.sin(step - (phi - m * step)), 0.0)
            hi = np.maximum(r * np.sin(phi - m * step), 0.0)
            m = m.astype(int) % n
            X[rows, first + m] += lo
            X[rows, first + (m + 1) % n] += hi
            gauge = lo + hi
        rest[:, heads[k]:heads[k + 1]] -= gauge[:, None]
    X[:, :heads[-1]] = rest
    for k, (n, first) in fed.items():
        X[:, first:first + n] += rest[:, heads[k], None] / n
    return np.maximum(X, 0.0)


def construct_simdiag_cone(form: SimDiagForm, tol: ToleranceConfig = DEFAULT_TOL,
                           dominant: DominantIndexSet | None = None,
                           bound: int = 8):
    """Polyhedral witness cone from head/tail gauge seeds, plus its certificates.

    The head is the real columns of the dominant blocks.  Each tail (a real
    column, or a complex column's Re/Im pair) is attached to the dominant
    block i that minimises r = max_j |lambda_kj| / lambda_ij.  The seeds are
    the head columns and e_i + v, e_i the sum of block i's columns, for each
    vertex v of the tail's ball: the regular N-gon cos(2 pi a/N) Re +
    sin(2 pi a/N) Im, N = 2 (+-Re) for a real tail and max(3, ceil(pi /
    arccos r)) for a complex one.  A member maps e_i + v to lambda_ij e_i + A v
    and A v into |lambda_kj| / cos(pi/N) <= lambda_ij times the ball, so the
    seed cone is invariant when every r <= 1 (r < 1 if complex).  Its
    generators are then known without a projection: every seed but a
    one-column head that feeds a tail, which is the mean of that tail's
    seeds.  Each generator image goes once through `contains` with its
    closed-form weights over them (`_gauge_coefficients`), which certify it
    unless rounding defeats them, as at nearly parallel eigenvectors, where
    it is projected; the defect is the largest image distance, or for a
    certified image the certificate's residual, an upper bound on it.

    Raises `HypothesesNotMet("NoGaugeWitness")` when some tail has no single
    bounding head (real r > 1, complex r >= 1, or more than _MAX_SIDES
    sides) or an image still falls outside.  Returns (cone, report) with
    the pointedness certificate and the defect.
    """
    if dominant is None:
        dominant = dominant_index_set(form, bound, tol)
    P = sorted(dominant.indices)
    if any(form.conj_partner[i] is not None for i in P):
        raise InternalInconsistency("dominant blocks must carry real eigenvalue rows")
    offsets = np.cumsum((0,) + form.block_sizes)
    columns = [np.real(form.S[:, offsets[i]:offsets[i + 1]]) for i in P]
    real = np.array([p is None for p in form.conj_partner])
    mod = np.abs(form.lambda_table)[:, None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(mod == 0.0, 0.0, mod / np.maximum(form.lambda_table[P].real, 0.0)).max(axis=2)
        sides = np.pi / np.arccos(np.minimum(ratios.min(axis=1), 1.0))  # inf when r >= 1
    bounded = np.where(real, ratios.min(axis=1) <= 1.0, sides <= _MAX_SIDES)
    tails = [i for i, p in enumerate(form.conj_partner) if i not in P and (p is None or p > i)]
    for i in tails:
        if not bounded[i]:
            sized = "" if real[i] else f", {sides[i]:.6g} polygon sides"
            raise HypothesesNotMet("NoGaugeWitness", f"no single dominant block bounds tail block {i} "
                                                     f"(least ratio {ratios[i].min():.9g}{sized})")
    basis = [c for block in columns for c in block.T]
    seeds = list(basis)
    heads = np.cumsum([0] + [c.shape[1] for c in columns])  # head block k: seeds heads[k]:heads[k + 1]
    feeds = []  # per tail column: (head block, sides, first seed, first coordinate)
    for i in tails:
        k = int(np.argmin(ratios[i]))
        e = columns[k].sum(axis=1)
        n = 2 if real[i] else max(3, math.ceil(sides[i]))
        for s in form.S[:, offsets[i]:offsets[i + 1]].T:
            feeds.append((k, n, len(seeds), len(basis)))
            basis += [s.real] if real[i] else [s.real, s.imag]
            seeds += [e + math.cos(2 * math.pi * a / n) * s.real + math.sin(2 * math.pi * a / n) * s.imag
                      for a in range(n)]
    Finv = np.linalg.inv(np.column_stack(basis))

    # Gauge seeds are invariant by construction: each is an extreme ray but
    # a one-column head that feeds a tail, the mean of that tail's seeds, and
    # every image comes with its closed-form coefficients over them.
    G = PolyhedralCone(form.dim, np.array([unit(v) for v in seeds])).generators
    fed = {}  # each one-column head that feeds a tail: (N, first seed) of the first such tail
    for k, n, first, _ in feeds:
        if heads[k + 1] - heads[k] == 1:
            fed.setdefault(k, (n, first))
    order = sorted(set(range(len(G))) - {heads[k] for k in fed}, key=lambda r: tuple(G[r]))
    norms = np.linalg.norm(np.array(seeds), axis=1)
    K = PolyhedralCone(form.dim, G[order])
    U = np.vstack([K.generators @ A.T for A in form.family])
    X = (_gauge_coefficients(U @ Finv.T, heads, feeds, fed, len(seeds)) * norms)[:, order]
    images = [contains(K, u, tol, coefficients=x) for u, x in zip(U, X)]
    defect = max(r.distance for r in images)
    if not all(r.inside for r in images):
        raise HypothesesNotMet("NoGaugeWitness", f"a generator image lies {defect:.3e} outside the gauge cone")

    # Every generator's head coordinates are nonnegative with a positive sum,
    # so no nonzero x has both x and -x in K.
    slack = tol.geom_tol * (1.0 + float(np.linalg.norm(Finv, 2)))
    coords = K.generators @ Finv[:heads[-1]].T
    if coords.min() < -slack or coords.sum(axis=1).min() <= slack:
        raise PointednessCertificateFailed("a generator's head coordinates are not nonnegative with a positive sum")
    if not is_proper(K, tol):
        raise PointednessCertificateFailed("witness cone failed the properness oracle")
    report = {"defect": defect, "num_generators": K.num_generators, "pointedness": "verified", "method": "gauge"}
    return K, report


def _nonnegativity_violation(form: SimDiagForm, dominant: DominantIndexSet,
                             tol: ToleranceConfig, real_only: bool = False) -> dict | None:
    eps = tol.eig_cluster_tol  # the members have unit norm
    for i in sorted(dominant.indices):
        for j in range(form.family_size):
            lam = form.lambda_table[i, j]
            sign_violation = lam.real < -eps and abs(lam.imag) <= eps
            complex_violation = abs(lam.imag) > eps
            if sign_violation or (complex_violation and not real_only):
                return {
                    "block": i,
                    "matrix": j,
                    "eigenvalue": [lam.real, lam.imag],
                    "witness_exponents": list(dominant.witnesses[i]),
                }
    return None


def decide_simdiag(family, tol: ToleranceConfig = DEFAULT_TOL, bound: int = 8,
                   seed: int = 0) -> Decision:
    """Exact decision for commuting diagonalizable families of any size.

    Members are scaled to unit norm first, so the answer does not depend on
    their scale; eigenvalues in the evidence belong to the scaled members.
    Where the criterion holds but `construct_simdiag_cone` builds no gauge
    witness, the answer is UNDECIDED (`HypothesesNotMet`, `NoGaugeWitness`).
    """
    form = simultaneous_diagonalize(unit_members(family), tol, seed)
    try:
        dominant = dominant_index_set(form, bound, tol)
    except NonVandergraftProduct as exc:
        # Prefer naming an eigenvalue-sign violation over the raw product
        # failure when the partial dominant set already exhibits one.
        violation = None
        if exc.partial is not None:
            violation = _nonnegativity_violation(form, exc.partial, tol, real_only=True)
        if violation is not None:
            return Decision(dd.NO, None, {
                "failed_condition": dd.DOMINANT_NONNEGATIVITY_FAILS,
                "evidence": violation,
            }, route="simdiag")
        return Decision(dd.NO, None, {
            "failed_condition": dd.NON_VANDERGRAFT_PRODUCT,
            "evidence": {"exponents": list(exc.exponents)},
        }, route="simdiag")

    violation = _nonnegativity_violation(form, dominant, tol)
    if violation is not None:
        return Decision(dd.NO, None, {
            "failed_condition": dd.DOMINANT_NONNEGATIVITY_FAILS,
            "evidence": violation,
        }, route="simdiag")

    try:
        K, report = construct_simdiag_cone(form, tol, dominant)
    except HypothesesNotMet as exc:
        return Decision(dd.UNDECIDED, None, {
            "failed_condition": dd.HYPOTHESES_NOT_MET,
            "evidence": {"hypothesis": exc.hypothesis, "detail": str(exc),
                         "dominant_blocks": sorted(dominant.indices)},
        }, route="simdiag")
    cert = {
        "dominant_blocks": sorted(dominant.indices),
        "search_bound": dominant.search_bound,
        "exact": dominant.exact,
        "construction": report,
    }
    if not dominant.exact:
        cert["label"] = f"verified-to-bound-{bound}"
    if dominant.notes:
        cert["notes"] = list(dominant.notes)
    return Decision(dd.YES, K, cert, route="simdiag")

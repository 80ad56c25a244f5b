import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import nnls

import conelab.cones
from _gen import quadratic_boundary_points, quadratic_inside
from conelab.cones import (
    MembershipResult,
    PolyhedralCone,
    QuadraticCone,
    _simplex_distance,
    conic_hull,
    contains,
    contains_rows,
    is_invariant,
    is_proper,
    nnls_distance,
    prune_generators,
    sample_points,
    unit,
)
from conelab.errors import DimensionMismatch, EmptyInput
from conelab.linalg import DEFAULT_TOL, _norm


def ice_cream(dim=3):
    axis = np.eye(dim)[:, 0]
    basis = np.eye(dim)[:, 1:]
    return QuadraticCone(dim, axis, np.eye(dim - 1), basis)


def gen_set(K):
    return {tuple(np.round(g, 9)) for g in K.generators}


def qz_reference_verdict(K, A, tol=DEFAULT_TOL):
    """The quadratic invariance verdict with S-lemma candidates from scipy's QZ.

    The generalized eigenvalues of (A^T Q A, Q), 0, t_max and the midpoints
    are scanned for lambda_min(tQ - A^T Q A) >= -geom_tol ||Q|| (1 + t); a
    certificate then needs A^T axis in the dual cone.
    """
    from scipy.linalg import eigvals

    scale = _norm(A)
    An = A / scale
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
    margins = np.linalg.eigvalsh(ts[:, None, None] * Q - P)[:, 0] / (np.linalg.norm(Q, 2) * (1.0 + ts))
    if margins.max() < -tol.geom_tol:
        return False
    h = An.T @ x
    g = B.T @ h
    Vg = np.linalg.solve(K.form, g)
    r = math.sqrt(max(float(g @ Vg), 0.0))
    p = x - (B @ Vg) / r if r > 0 else x
    return float(h @ p) >= -tol.geom_tol * float(np.linalg.norm(p))


def random_quadratic_case(rng):
    """A quadratic cone in dimension 2..6 whose form has cond(V) = 1, 1e4, 1e8
    or 1e12, and one member: Gaussian, near the axis (2 x x^T plus a
    1e-4..1e-1 perturbation), or axis-sharing with the complement scaled by
    0.5..1.1 in V's metric, so that many members are nearly invariant."""
    d = int(rng.integers(2, 7))
    x = rng.normal(size=d)
    x /= np.linalg.norm(x)
    B = np.linalg.qr(np.column_stack([x, rng.normal(size=(d, d - 1))]))[0][:, 1:]
    U = np.linalg.qr(rng.normal(size=(d - 1, d - 1)))[0]
    spread = 10.0 ** rng.uniform(0.0, [0.0, 4.0, 8.0, 12.0][rng.integers(4)], size=d - 1)
    K = QuadraticCone(d, x, U @ np.diag(spread) @ U.T, B)
    G = rng.normal(size=(d, d))
    kind = rng.integers(3)
    if kind == 0:
        return K, G
    if kind == 1:
        return K, 2.0 * np.outer(K.axis, K.axis) + 10.0 ** rng.uniform(-4.0, -1.0) * G
    L = np.linalg.cholesky(K.form)  # L^-T W L^T scales z^T V z by at most ||W||^2
    W = np.linalg.qr(rng.normal(size=(d - 1, d - 1)))[0] * rng.uniform(0.5, 1.1)
    return K, np.outer(K.axis, K.axis) + K.complement_basis @ np.linalg.solve(L.T, W @ L.T) @ K.complement_basis.T


class TestMembership:
    def test_orthant_inside(self):
        K = conic_hull([[1, 0], [0, 1]])
        res = contains(K, [1, 1])
        assert res.inside and res.distance == 0.0

    def test_antipodal_distance(self):
        K = conic_hull([[1, 0], [0, 1]])
        res = contains(K, [-1, 0])
        assert not res.inside and res.distance == pytest.approx(1.0)

    def test_ice_cream_boundary(self):
        res = contains(ice_cream(), [1, 0.6, 0.8])
        assert res.inside and res.distance == 0.0
        assert not contains(ice_cream(), [1, 0.6 + 1e-6, 0.8]).inside

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            contains(conic_hull([[1, 0]]), [1, 0, 0])

    def test_polyhedral_membership_is_one_projection(self, monkeypatch):
        calls = []

        def count(name):
            original = getattr(conelab.cones, name)
            monkeypatch.setattr(conelab.cones, name, lambda *args: calls.append(name) or original(*args))

        count("nnls_distance")
        count("matrix_rank")
        assert contains(conic_hull([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), [1, 2, 3]).inside
        assert calls == ["nnls_distance"]

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-3, 3), st.floats(-3, 3), st.sampled_from([0.5, 2.0, 7.0]))
    def test_scale_invariance_polyhedral(self, x, y, c):
        K = conic_hull([[1, 0], [1, 1], [0, 1]])
        a = contains(K, [x, y])
        b = contains(K, [c * x, c * y])
        assert a.inside == b.inside
        assert b.distance == pytest.approx(c * a.distance, rel=1e-9, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2), st.sampled_from([0.5, 3.0]))
    def test_scale_invariance_quadratic(self, x, y, z, c):
        K = ice_cream()
        a = contains(K, [x, y, z])
        b = contains(K, [c * x, c * y, c * z])
        assert a.inside == b.inside
        assert b.distance == pytest.approx(c * a.distance, rel=1e-9, abs=1e-12)

    def test_quadratic_distance_is_projection(self):
        rng = np.random.default_rng(9)
        V = np.array([[2.0, 0.3], [0.3, 0.7]])
        K = QuadraticCone(3, np.eye(3)[:, 0], V, np.eye(3)[:, 1:])
        members = sample_points(K, 200, seed=4)
        for _ in range(100):
            v = rng.normal(size=3) * 2
            d = contains(K, v).distance
            best = min(np.linalg.norm(v - w) for w in members)
            assert d <= best + 1e-9
            if d > 1e-9:
                # distance must also be attained: no member is closer
                assert d <= np.linalg.norm(v) + 1e-9


# Cones and rows for the batch/scalar agreement test.  Entries are small
# integers, so no two generator directions are nearly antiparallel (where
# scipy's NNLS misreports distances) and no row is within rounding of the
# geom_tol boundary of a polyhedral cone.
_ints = st.integers(-4, 4)
_scales = st.sampled_from([1e-200, 1e-5, 1.0, 3.0, 1e5, 1e200])


@st.composite
def _polyhedral_cases(draw):
    d = draw(st.integers(2, 5))
    shape = draw(st.sampled_from(["simplicial", "wide", "line", "flat"]))
    vec = st.lists(_ints, min_size=d, max_size=d).filter(any)
    if shape == "simplicial":
        G = np.array(draw(st.lists(vec, min_size=d, max_size=d)), dtype=float)
        assume(abs(np.linalg.det(G)) > 0.5)
    elif shape == "wide":  # more generators than the dimension
        G = np.array(draw(st.lists(vec, min_size=d + 1, max_size=d + 4)), dtype=float)
    elif shape == "line":  # not pointed: a generator and its negative
        G = np.array(draw(st.lists(vec, min_size=1, max_size=d)), dtype=float)
        G = np.vstack([G, -G[:1]])
    else:  # rank-deficient: every generator has last coordinate 0
        flat = st.lists(_ints, min_size=d - 1, max_size=d - 1).filter(any).map(lambda v: v + [0])
        G = np.array(draw(st.lists(flat, min_size=1, max_size=d + 2)), dtype=float)
    K = PolyhedralCone(d, G)

    def combination(least):
        return st.lists(st.integers(least, 3), min_size=len(G), max_size=len(G)).map(
            lambda w: np.array(w, dtype=float) @ G)

    row = st.one_of(combination(1), combination(0),  # in K; with a weight 0, often on a face
                    st.lists(_ints, min_size=d, max_size=d).map(np.array))
    if shape == "flat":  # off the span by far more, or far less, than geom_tol
        row = row | st.tuples(combination(1), st.sampled_from([1e-6, 1e-12])).map(
            lambda r_e: r_e[0] + r_e[1] * np.eye(d)[-1])
    rows = draw(st.lists(st.tuples(row, _scales), max_size=12))
    V = np.array([r * c for r, c in rows], dtype=float).reshape(len(rows), d)
    return K, V


@st.composite
def _quadratic_cases(draw):
    d = draw(st.integers(2, 5))
    axis = np.array(draw(st.lists(_ints, min_size=d, max_size=d).filter(any)), dtype=float)
    axis /= np.linalg.norm(axis)
    B = np.linalg.qr(np.column_stack([axis, np.eye(d)]))[0][:, 1:]
    W = np.array(draw(st.lists(_ints, min_size=(d - 1) ** 2, max_size=(d - 1) ** 2)), dtype=float)
    W = W.reshape(d - 1, d - 1)
    K = QuadraticCone(d, axis, W @ W.T + 0.5 * np.eye(d - 1), B)
    n = draw(st.integers(0, 12))
    inside = sample_points(K, n, seed=draw(st.integers(0, 99)))
    other = np.array(draw(st.lists(st.lists(_ints, min_size=d, max_size=d), min_size=n, max_size=n)),
                     dtype=float).reshape(n, d)
    scales = np.array(draw(st.lists(_scales, min_size=2 * n, max_size=2 * n)))
    return K, np.vstack([inside, other]) * scales[:, None]


class TestContainsRows:
    @staticmethod
    def check(K, V):
        flags = contains_rows(K, V)
        assert flags.dtype == bool and flags.shape == (len(V),)
        assert flags.tolist() == [contains(K, v).inside for v in V]

    @settings(max_examples=300, deadline=None)
    @given(_polyhedral_cases())
    def test_polyhedral_agrees_with_contains(self, case):
        self.check(*case)

    @settings(max_examples=300, deadline=None)
    @given(_quadratic_cases())
    def test_quadratic_agrees_with_contains(self, case):
        self.check(*case)

    @pytest.mark.parametrize("K", [conic_hull([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), ice_cream()],
                             ids=["orthant", "ice-cream"])
    def test_zero_huge_tiny_and_no_rows(self, K):
        V = np.array([[0.0, 0.0, 0.0], [2e200, 1e200, 1e200], [1e-200, 0.0, 3e-201],
                      [-1e200, 1e200, 0.0], [1.0, 0.5, 0.5], [-1.0, 0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.check(K, V)
            assert contains_rows(K, V).tolist()[:3] == [True, True, True]
            assert contains_rows(K, np.zeros((0, 3))).shape == (0,)

    def test_rejects_rows_of_another_dimension(self):
        with pytest.raises(DimensionMismatch):
            contains_rows(ice_cream(), np.zeros((2, 4)))


class TestMembershipCertificate:
    """`contains(K, v, coefficients=x)` takes x as proof of membership or falls back to the projection."""

    K = conic_hull([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [1, -1, 2]])

    @staticmethod
    def no_projection(monkeypatch):
        def fail(*args):
            raise AssertionError("nnls_distance called")

        monkeypatch.setattr(conelab.cones, "nnls_distance", fail)

    def test_valid_certificate_skips_the_projection(self, monkeypatch):
        x = np.array([0.5, 0.0, 2.0, 1.25, 0.3])
        v = x @ self.K.generators + 1e-12 * np.array([1.0, -2.0, 0.5])
        self.no_projection(monkeypatch)
        res = contains(self.K, v, coefficients=x)
        assert res.inside
        assert res.distance == pytest.approx(float(np.linalg.norm(x @ self.K.generators - v)), rel=1e-12)
        assert 0.0 < res.distance <= DEFAULT_TOL.geom_tol * _norm(v)

    @pytest.mark.parametrize("case", ["negative", "residual", "outside", "huge"])
    def test_failed_certificate_gives_the_plain_result(self, case):
        x = np.array([0.5, -1e-17 if case == "negative" else 0.2, 2.0, 1.25, 0.3])
        v = x @ self.K.generators  # x reproduces v, but for "negative" has an entry below 0
        if case == "residual":  # 1e-7 relative, above geom_tol
            x[2] *= 1.0 + 1e-7
        elif case == "outside":
            v = np.array([-1.0, 0.5, 0.0])
        else:
            v = v * 1e200
        assert contains(self.K, v, coefficients=x) == contains(self.K, v)

    def test_zero_vector(self):
        x = np.array([0.5, 0.2, 2.0, 1.25, 0.3])
        for zero in (np.zeros(3), np.full(3, 1e-320)):
            assert contains(self.K, zero, coefficients=x) == contains(self.K, zero) == MembershipResult(True, 0.0)

    def test_wrong_length_rejected(self):
        with pytest.raises(DimensionMismatch):
            contains(self.K, [1.0, 1.0, 1.0], coefficients=[1.0, 1.0])

    def test_quadratic_cone_rejects_a_certificate(self):
        # a quadratic cone has no generators to weight: a certificate is a caller's error
        with pytest.raises(ValueError):
            contains(ice_cream(), [1.0, 0.0, 0.0], coefficients=[1.0])


class TestProperness:
    def test_line_not_pointed(self):
        rep = is_proper(conic_hull([[1, 0], [-1, 0], [0, 1]]))
        assert not rep.proper and rep.diagnosis == "not pointed"

    def test_sector_proper(self):
        assert is_proper(conic_hull([[1, 0], [1, 1]])).proper

    def test_ray_not_solid(self):
        rep = is_proper(conic_hull([[1, 0]], dim=2))
        assert not rep.proper and rep.diagnosis == "not solid"

    def test_quadratic_by_construction(self):
        rep = is_proper(ice_cream())
        assert rep.proper and rep.diagnosis == "by construction"

    def test_nearly_opposite_generators_still_pointed(self):
        K = conic_hull([[1, 0], [-1, 1e-3]])
        assert is_proper(K).pointed


class TestInvariance:
    def test_orthant_diag(self):
        assert is_invariant(conic_hull([[1, 0], [0, 1]]), np.diag([2.0, 1.0])).invariant

    def test_sector_triangular(self):
        assert is_invariant(conic_hull([[1, 0], [1, 1]]), [[2, 1], [0, 1]]).invariant

    def test_orthant_violated(self):
        rep = is_invariant(conic_hull([[1, 0], [0, 1]]), [[1, 1], [0, -1]])
        assert not rep.invariant
        assert rep.max_distance > 0.1
        assert rep.worst is not None

    def test_rounding_level_image_counts_as_zero(self):
        # diag(1, 0) maps the edge (-6e-17, -1) to (-6e-17, 0): zero up to
        # rounding, whose unit vector -e1 lies outside the cone
        K = PolyhedralCone(2, np.array([[-6.123233995736766e-17, -1.0], [1.0, -1.2246467991473532e-16]]))
        assert is_invariant(K, np.diag([1.0, 0.0])).invariant
        assert is_invariant(K, np.diag([2.0, 0.0])).invariant
        # A e1 = (0, -1e-12) is tiny but far above rounding level, and outside the cone
        rep = is_invariant(conic_hull([[1, 0], [1, 1]]), [[0.0, 1.0], [-1e-12, 0.0]])
        assert not rep.invariant and rep.worst[2] == [1.0, 0.0]

    def test_random_invariance_implies_sample_membership(self):
        rng = np.random.default_rng(21)
        hits = 0
        while hits < 30:
            G = rng.normal(size=(3, 2))
            try:
                K = conic_hull(G)
            except EmptyInput:
                continue
            A = rng.normal(size=(2, 2))
            if not is_invariant(K, A).invariant:
                continue
            hits += 1
            pts = sample_points(K, 1000, seed=hits)
            for p in pts:
                assert contains(K, A @ p).inside

    def test_quadratic_psd_route(self):
        rep = is_invariant(ice_cream(), np.diag([2.0, 1.0, 0.5]))
        assert rep.invariant and rep.method == "psd" and rep.psd_margin >= -1e-12

    def test_quadratic_scan_is_one_eigvalsh_call(self, monkeypatch):
        K = ice_cream()
        calls = []
        original = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **k: calls.append(a) or original(*a, **k))
        rep = is_invariant(K, np.diag([2.0, 1.0, 0.5]))
        assert rep.invariant and rep.method == "psd"
        assert len(calls) == 1 and calls[0][0].shape[0] > 1

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 5), st.integers(0, 2 ** 32 - 1), st.sampled_from(["near-axis", "random"]))
    def test_quadratic_scan_equals_pointwise_scan(self, d, seed, kind):
        # the margin and multiplier are those of lambda_min(sQ - P) evaluated
        # one candidate s at a time, bit for bit
        rng = np.random.default_rng(seed)
        axis = rng.normal(size=d)
        axis /= np.linalg.norm(axis)
        B = np.linalg.qr(np.column_stack([axis, rng.normal(size=(d, d - 1))]))[0][:, 1:]
        W = rng.normal(size=(d - 1, d - 1))
        K = QuadraticCone(d, axis, W @ W.T + 0.5 * np.eye(d - 1), B)
        A = rng.normal(size=(d, d))
        if kind == "near-axis":
            A = 2.0 * np.outer(K.axis, K.axis) + 0.1 * A
        rep = is_invariant(K, A)

        scale = np.linalg.norm(A)
        Q = K.ambient_form()
        P = (A / scale).T @ Q @ (A / scale)
        P = 0.5 * (P + P.T)
        t_max = -float(K.axis @ P @ K.axis)
        ts = np.array([0.0])
        if t_max > 0:
            gen = np.linalg.eigvals(np.linalg.solve(Q, P)).real
            ts = np.unique(np.concatenate([ts, [t_max], gen[(gen > 0) & (gen < t_max)]]))
            ts = np.concatenate([ts, 0.5 * (ts[1:] + ts[:-1])])
        q_norm = float(np.linalg.norm(Q, 2))
        margin, t = max((float(np.linalg.eigvalsh(s * Q - P)[0]) / (q_norm * (1.0 + s)), s) for s in ts.tolist())
        assert rep.psd_margin == margin
        if rep.invariant:
            assert rep.multiplier == t * scale * scale

    @pytest.mark.parametrize("seed", range(8))
    def test_quadratic_verdict_equals_qz_reference(self, seed):
        # random cones with cond(V) up to 1e12, Gaussian, near-axis and
        # nearly invariant axis-sharing members: the verdict is that of the
        # scan over scipy's QZ candidates, and every YES is a certificate
        rng = np.random.default_rng(seed)
        for _ in range(150):
            K, A = random_quadratic_case(rng)
            rep = is_invariant(K, A)
            assert rep.invariant == qz_reference_verdict(K, A)
            if rep.invariant:
                scale = _norm(A)
                Q = K.ambient_form()
                P = (A / scale).T @ Q @ (A / scale)
                P = 0.5 * (P + P.T)
                t = rep.multiplier / (scale * scale)
                assert 0.0 <= t <= -(K.axis @ P @ K.axis) * (1.0 + 1e-12)  # t_max, up to rounding
                lam = float(np.linalg.eigvalsh(t * Q - P)[0])
                assert lam / (np.linalg.norm(Q, 2) * (1.0 + t)) >= -DEFAULT_TOL.geom_tol

    @pytest.mark.parametrize("angle, invariant", [(15.0, True), (50.0, False)])
    def test_quadratic_verdict_without_candidates(self, monkeypatch, angle, invariant):
        # A = R diag(1, 0.5, 0.7), R a rotation by `angle` about e3, on the
        # 45-degree ice-cream cone.  At 15 degrees the multipliers t with
        # tQ - A^T Q A >= 0 form about [0.49, 0.749], which holds neither 0,
        # t_max = 0.866 nor t_max / 2; with no eigenvalue candidates the scan
        # misses it, and the supergradient bisection finds it.  At 50 degrees
        # the image of K leaves K, and the NO names a point of K whose image
        # is outside.
        def no_eigenvalues(*args, **kwargs):
            raise np.linalg.LinAlgError("no candidates")

        c, s = math.cos(math.radians(angle)), math.sin(math.radians(angle))
        A = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]]) @ np.diag([1.0, 0.5, 0.7])
        K = ice_cream()
        assert is_invariant(K, A).invariant is invariant
        monkeypatch.setattr(np.linalg, "eigvals", no_eigenvalues)
        rep = is_invariant(K, A)
        assert rep.invariant is invariant
        if invariant:
            assert 0.49 <= rep.multiplier <= 0.749
            Q = K.ambient_form()
            assert np.linalg.eigvalsh(rep.multiplier * Q - A.T @ Q @ A)[0] >= -1e-12
        else:
            p = np.array(rep.worst[2])
            assert contains(K, p).inside and not contains(K, A @ p).inside

    def test_quadratic_rejects_wrong_axis(self):
        rep = is_invariant(ice_cream(), np.diag([1.0, 2.0, 0.5]))
        assert not rep.invariant

    def test_nilpotent_needs_sampling(self):
        # kernel meets the cone: the certificate holds, the dual-cone test fails
        A = np.array([[0.0, -1.0], [0.0, 0.0]])
        K = QuadraticCone(2, np.array([1.0, 0.0]), np.eye(1), np.eye(2)[:, 1:])
        rep = is_invariant(K, A)
        assert not rep.invariant and rep.method == "psd"
        p = np.array(rep.worst[2])
        assert contains(K, p).inside and not contains(K, A @ p).inside

    def test_rank_one_dual_cone_map_is_invariant(self):
        # u w^T with u in K and w in K* = {c x + B y : y^T V^-1 y <= c^2}
        V = np.diag([2.0, 0.5, 1.0])
        K = QuadraticCone(4, np.eye(4)[:, 0], V, np.eye(4)[:, 1:])
        u = np.array([1.0, 0.3, -0.6, 0.4])
        w = np.array([1.0, 0.5, 0.2, -0.6])
        assert u[1:] @ V @ u[1:] < 1 and w[1:] @ np.linalg.solve(V, w[1:]) < 1
        A = 1.7 * np.outer(u, w)
        rep = is_invariant(K, A)
        assert rep.invariant and rep.method == "psd" and rep.psd_margin > 0
        Q = K.ambient_form()
        assert rep.multiplier >= 0
        assert np.min(np.linalg.eigvalsh(rep.multiplier * Q - A.T @ Q @ A)) >= -1e-12

    def test_rank_one_just_outside_dual_cone(self):
        # w lies 1.5% outside K*: only a thin cap of K maps outside K, which
        # random sampling of K easily misses.
        dim = 6
        K = QuadraticCone(dim, np.eye(dim)[:, 0], np.eye(dim - 1), np.eye(dim)[:, 1:])
        u = np.concatenate([[1.0], np.full(dim - 1, 0.1)])
        y = np.random.default_rng(5).normal(size=dim - 1)
        w = np.concatenate([[1.0], 1.015 * y / np.linalg.norm(y)])
        A = np.outer(u, w)
        rep = is_invariant(K, A)
        assert not rep.invariant and rep.method == "psd"
        p = np.array(rep.worst[2])
        assert contains(K, p).inside and not contains(K, A @ p).inside

    @pytest.mark.parametrize("A", [np.diag([2.0, 1.0, 0.5]), [[2.0, 1, 0], [0, 2, 1], [0, 0, 2]]],
                             ids=["invariant", "jordan"])
    def test_quadratic_verdict_is_scale_free(self, A):
        # Invariance under cA, c > 0, is invariance under A.  The member's
        # norm once underflowed to 0 at 1e-300, turning the Jordan block's
        # NO into a YES, and overflowed from 1e160 on.
        ref = is_invariant(ice_cream(), A)
        for k in range(-300, 301):
            rep = is_invariant(ice_cream(), np.asarray(A) * 10.0 ** k)
            assert rep.invariant == ref.invariant
            assert rep.psd_margin == pytest.approx(ref.psd_margin, rel=1e-12, abs=1e-15)

    def test_quadratic_agrees_with_sampling_when_conclusive(self):
        rng = np.random.default_rng(31)
        verdicts = set()
        for case in range(1000):
            dim = int(rng.integers(2, 5))
            axis = rng.normal(size=dim)
            axis /= np.linalg.norm(axis)
            Q, _ = np.linalg.qr(np.column_stack([axis, rng.normal(size=(dim, dim - 1))]))
            B = Q[:, 1:]
            W = rng.normal(size=(dim - 1, dim - 1))
            V = W @ W.T + 0.2 * np.eye(dim - 1)
            K = QuadraticCone(dim, axis, V, B)
            rho = rng.uniform(1.0, 2.0)
            contraction = rng.uniform(0.05, 1.5)
            A = rho * np.outer(axis, axis) + contraction * B @ rng.normal(size=(dim - 1, dim - 1)) @ B.T
            rep = is_invariant(K, A)
            assert rep.method == "psd"
            verdicts.add(rep.invariant)
            if rep.invariant:
                pts = quadratic_boundary_points(K, 1000, seed=case)
                assert np.all(quadratic_inside(K, pts @ A.T))
            else:
                p = np.array(rep.worst[2])
                assert quadratic_inside(K, p[None, :])[0]
                assert not quadratic_inside(K, (A @ p)[None, :])[0]
        assert verdicts == {True, False}


class TestHullAndPrune:
    def test_dedupe_and_scale(self):
        K = conic_hull([[2, 0], [1, 0], [0, 3]])
        assert gen_set(K) == {(0.0, 1.0), (1.0, 0.0)}

    def test_prune_interior_generator(self):
        K = prune_generators(conic_hull([[1, 0], [0, 1], [1, 1]]))
        assert gen_set(K) == {(0.0, 1.0), (1.0, 0.0)}

    def test_prune_middle_combination(self):
        # (1,1) = 0.5*(1,0) + 0.5*(1,2): verified by the membership oracle
        K = prune_generators(conic_hull([[1, 0], [1, 1], [1, 2]]))
        s5 = np.sqrt(5)
        assert gen_set(K) == {(1.0, 0.0), (round(1 / s5, 9), round(2 / s5, 9))}

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            conic_hull([])

    def test_tiny_generators_keep_their_directions(self):
        K = conic_hull([[1e-15, 0], [0, 1e-15]])
        assert is_proper(K)
        assert gen_set(K) == {(0.0, 1.0), (1.0, 0.0)}

    def test_huge_generators_stay_generators(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            K = PolyhedralCone(2, [[1e200, 0], [0, 1e200]])
            assert np.array_equal(K.generators, np.eye(2))
            assert contains(K, [1, 1]).inside

    def test_unit_of_a_vector_whose_square_underflows(self):
        assert np.array_equal(unit(np.array([1e-170, 0.0])), [1.0, 0.0])

    def test_prune_preserves_membership(self):
        rng = np.random.default_rng(13)
        for trial in range(20):
            G = rng.normal(size=(6, 3))
            K = conic_hull(G)
            P = prune_generators(K)
            probes = rng.normal(size=(50, 3))
            for v in probes:
                assert contains(K, v).inside == contains(P, v).inside


def test_polyhedral_cone_rejects_zero_generator():
    with pytest.raises(EmptyInput):
        PolyhedralCone(2, np.array([[0.0, 0.0]]))


def test_quadratic_cone_validation():
    with pytest.raises(ValueError):
        QuadraticCone(3, np.eye(3)[:, 0], -np.eye(2), np.eye(3)[:, 1:])


def _exact_planar_distance(A, b):
    """Distance from b to the cone of A's plane columns in rational arithmetic:
    0 if b lies in the cone of some pair of columns, else the nearest column ray."""
    cols = [(Fraction(x), Fraction(y)) for x, y in zip(*A.tolist())]
    bx, by = map(Fraction, b.tolist())
    for i, (x1, y1) in enumerate(cols):
        for x2, y2 in cols[i + 1:]:
            det = x1 * y2 - y1 * x2
            if det and (bx * y2 - by * x2) / det >= 0 and (x1 * by - y1 * bx) / det >= 0:
                return 0.0
    sq = bx * bx + by * by
    for x, y in cols:
        t = x * bx + y * by
        if t > 0:
            sq = min(sq, bx * bx + by * by - t * t / (x * x + y * y))
    return math.sqrt(sq)


def _exact_segment_distance(G):
    """Distance from 0 to the segment between G's two columns, in rational arithmetic."""
    g, h = ([Fraction(v) for v in col] for col in G.T.tolist())
    e = [y - x for x, y in zip(g, h)]
    ee = sum(x * x for x in e)
    t = min(max(-sum(x * y for x, y in zip(g, e)) / ee, Fraction(0)), Fraction(1)) if ee else Fraction(0)
    return math.sqrt(sum((x + t * y) ** 2 for x, y in zip(g, e)))


PLANAR_KINDS = ("pointed", "half-plane", "whole-plane", "nearly parallel", "nearly antiparallel")


def _planar_columns(rng, kind, k):
    """k unit columns in the plane whose cone is of the given kind."""
    c = rng.uniform(0, 2 * np.pi)
    if kind == "pointed":
        ang = c + rng.uniform(0, rng.uniform(0, 0.999 * np.pi), k)
    elif kind == "half-plane":  # a column and its exact negative bound it
        ang = np.concatenate([[c], c + rng.uniform(0, np.pi, k - 2)])
    elif kind == "whole-plane":
        ang = rng.uniform(0, 2 * np.pi, k)
    elif kind == "nearly parallel":
        ang = c + rng.normal(0, 1e-9, k)
    else:  # an extreme pair 1e-16 to 1e-4 short of (or past) antiparallel
        gap = rng.choice([-1, 1]) * 10 ** rng.uniform(-16, -4)
        ang = np.concatenate([[c, c + np.pi - gap], c + rng.uniform(0, np.pi, k - 2)])
    A = np.vstack([np.cos(ang), np.sin(ang)])
    return np.hstack([A, -A[:, :1]]) if kind == "half-plane" else A


class TestNnlsClosedForm:
    def test_agrees_with_scipy(self):
        """One-column and planar problems against scipy's NNLS.

        Where the two differ by more than 1e-11 |b|, the exact rational
        distance decides; it must side with `nnls_distance`.  This happens
        only for nearly antiparallel extreme pairs, whose NNLS systems are
        ill-conditioned: scipy's residual, recomputed from huge coefficients
        or left at its stopping tolerance, is then off.
        """
        rng = np.random.default_rng(2024)
        geom_tol = DEFAULT_TOL.geom_tol
        closed = overruled = flags = 0
        for trial in range(20_000):
            k = int(rng.integers(1, 9))
            if k == 1:
                A = rng.normal(size=(int(rng.integers(2, 7)), 1))
                A /= np.linalg.norm(A)
            else:
                A = _planar_columns(rng, PLANAR_KINDS[trial % len(PLANAR_KINDS)], k)
            b = rng.normal(size=A.shape[0]) * 10 ** rng.uniform(-3, 3)
            if trial % 3 == 0:  # near the cone, at distances around geom_tol
                b = A @ rng.uniform(0, 1, A.shape[1]) + rng.normal(size=A.shape[0]) * 10 ** rng.uniform(-12, -6)
            nb = float(np.linalg.norm(b))
            x, _ = nnls(A, b)
            ref = float(np.linalg.norm(A @ x - b))
            dist = nnls_distance(A, b)
            closed += A.shape[1] == 1 or conelab.cones._planar_distance(*A.tolist(), *b.tolist()) is not None
            if abs(dist - ref) > 1e-11 * nb:
                assert A.shape[0] == 2 and PLANAR_KINDS[trial % len(PLANAR_KINDS)] == "nearly antiparallel"
                ref = _exact_planar_distance(A, b)
                assert abs(dist - ref) <= 1e-11 * nb
                overruled += 1
            if not ref / 10 <= geom_tol <= 10 * ref:
                assert (dist <= geom_tol) == (ref <= geom_tol)
                flags += 1
        assert closed > 12_000 and flags > 19_000
        assert overruled < 200

    def test_simplex_distance_of_two_generators(self):
        """The segment distance against the penalty-NNLS system it replaces
        (min ||G x|| + 1e6 (sum x - 1) over x >= 0), with the exact rational
        distance deciding where they differ by more than 1e-11."""
        rng = np.random.default_rng(77)
        geom_tol = DEFAULT_TOL.geom_tol
        for trial in range(3000):
            d = int(rng.integers(2, 7))
            G = rng.normal(size=(d, 2))
            if trial % 3:  # nearly antiparallel or nearly parallel pairs
                G[:, 1] = (-1) ** trial * G[:, 0] + rng.normal(size=d) * 10 ** rng.uniform(-12, -2)
            G /= np.linalg.norm(G, axis=0)
            A = np.vstack([G, 1e6 * np.ones((1, 2))])
            x, _ = nnls(A, np.concatenate([np.zeros(d), [1e6]]))
            ref = float(np.linalg.norm(G @ (x / np.sum(x))))
            dist = _simplex_distance(G, DEFAULT_TOL)
            if abs(dist - ref) > 1e-11:
                ref = _exact_segment_distance(G)
                assert abs(dist - ref) <= 1e-15
            if not ref / 10 <= geom_tol <= 10 * ref:
                assert (dist > geom_tol) == (ref > geom_tol)

    def test_simplex_distance_of_three_generators(self):
        """Columns [g, h, h] with h nearly antiparallel to g take the NNLS
        path; their simplex distance is the segment distance, computed
        exactly in rational arithmetic."""
        rng = np.random.default_rng(78)
        worst = 0.0
        for _ in range(600):
            d = int(rng.integers(2, 6))
            g = rng.normal(size=d)
            g /= np.linalg.norm(g)
            u = rng.normal(size=d)
            u -= (u @ g) * g
            u /= np.linalg.norm(u)
            sine = 10 ** rng.uniform(-15, -5)
            h = -math.sqrt(1.0 - sine * sine) * g + sine * u
            G = np.column_stack([g, h, h])
            worst = max(worst, abs(_simplex_distance(G, DEFAULT_TOL) - _exact_segment_distance(G[:, :2])))
        assert worst <= 1e-14

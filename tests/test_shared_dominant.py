import numpy as np
import pytest

from _gen import contractive_commuting_blocks, jordan_at_rho, normal_shared_dominant, shared_dominant_commuting
from conelab.cones import QuadraticCone, contains, is_invariant
from conelab.errors import (
    HypothesesNotMet,
    HypothesisViolated,
    NotNormal,
    NotSemisimple,
    PreconditionFailed,
)
from conelab.fixtures import ex7_2, ex7_4
from conelab.linalg import DEFAULT_TOL, is_vandergraft
from conelab.shared_dominant import (
    _series_sum,
    _witness_checks,
    common_dominant_eigenvector,
    common_lyapunov,
    decide_shared_dominant,
    deflate,
    ice_cream_cone,
)


def interior(K, x, geom_tol=1e-9):
    """x lies strictly inside the quadratic cone K: on the positive side of
    the axis and strictly inside the form, for the unit vector along x."""
    u = np.asarray(x, dtype=float) / np.linalg.norm(x)
    return K.axis @ u > geom_tol and u @ K.ambient_form() @ u < -geom_tol


def rotation_family(thetas, rho=2.0):
    out = []
    for th in thetas:
        M = np.zeros((3, 3))
        M[0, 0] = rho
        M[1:, 1:] = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        out.append(M)
    return out


def shared_line(mats):
    return common_dominant_eigenvector([is_vandergraft(M) for M in mats])


class TestCommonDominantEigenvector:
    def test_diag_pair(self):
        x = shared_line([np.diag([2.0, 1.0]), np.diag([3.0, 1.0])])
        assert np.allclose(np.abs(x), [1, 0])

    def test_example_7_2_absent(self):
        assert shared_line(list(ex7_2().matrices)) is None

    def test_triangular_pair(self):
        x = shared_line([np.array([[2.0, 0], [0, 1.0]]), np.array([[2.0, 1.0], [0, 1.0]])])
        assert np.allclose(np.abs(x), [1, 0])

    def test_non_vandergraft_rejected(self):
        with pytest.raises(PreconditionFailed):
            shared_line([np.array([[0.0, -1.0], [1.0, 0.0]])])


class TestIceCream:
    def test_scalar(self):
        d = ice_cream_cone([2.0 * np.eye(3)])
        assert d.answer == "yes"

    def test_rotation_family(self):
        fam = rotation_family([0.3, 1.1])
        d = ice_cream_cone(fam)
        assert d.answer == "yes"
        for check in d.certificate["checks"]:
            assert check["psd_margin"] >= -1e-8
        for M in fam:
            assert is_invariant(d.witness, M).invariant
        assert interior(d.witness, [1.0, 0, 0])

    def test_jordan_not_normal(self):
        with pytest.raises(NotNormal):
            ice_cream_cone([np.array([[1.0, 1.0], [0.0, 1.0]])])

    def test_similarity_conjugated_family(self):
        T = np.array([[1.0, 0.4, 0.0], [0.0, 1.0, 0.3], [0.0, 0.0, 1.0]])
        fam = [T @ M @ np.linalg.inv(T) for M in rotation_family([0.5, 0.9])]
        with pytest.raises(NotNormal):
            ice_cream_cone(fam)
        d = ice_cream_cone(fam, similarity=T)
        assert d.answer == "yes"
        x = T @ np.array([1.0, 0, 0])
        assert interior(d.witness, x)
        for M in fam:
            assert is_invariant(d.witness, M).invariant


class TestDeflate:
    def test_scalar_block(self):
        df = deflate([np.diag([1.0, 0.5])], [1, 0])
        assert np.allclose(df.S, np.eye(2))
        assert np.allclose(df.blocks[0], [[0.5]])

    def test_example_7_4_not_semisimple(self):
        with pytest.raises(NotSemisimple):
            deflate(list(ex7_4().matrices), [1, 0])

    def test_circulant_like_family(self):
        def circ(c):
            return np.array([[c[(j - i) % 3] for j in range(3)] for i in range(3)])

        C1, C2 = circ([1.0, 0.3, 0.1]) / 1.4, circ([1.0, 0.1, 0.3]) / 1.4
        x = np.ones(3) / np.sqrt(3)
        df = deflate([C1, C2], x)
        Sinv = np.linalg.inv(df.S)
        for M, B in zip((C1, C2), df.blocks):
            W = Sinv @ M @ df.S
            target = np.zeros((3, 3))
            target[0, 0] = df.lam0
            target[1:, 1:] = B
            assert np.linalg.norm(W - target) < 1e-10

    def test_joint_eigenspace_smaller_than_first_members(self):
        # lam0 = 1 has a 2-D eigenspace for the first member but only e1 is shared
        df = deflate([np.diag([1.0, 1.0, 0.5]), np.diag([1.0, 0.7, 0.5])], [1, 0, 0])
        assert np.allclose(np.abs(df.S[:, 0]), [1, 0, 0])
        assert np.allclose(df.S[0, 1:], 0)
        assert df.lam0 == 1.0
        for block, spectrum in zip(df.blocks, ([0.5, 1.0], [0.5, 0.7])):
            assert np.allclose(np.sort(np.linalg.eigvals(block).real), spectrum)

    def test_later_member_defective(self):
        # the first member is semisimple at 1, the second has a Jordan block there
        J = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.5]])
        with pytest.raises(NotSemisimple):
            deflate([np.diag([1.0, 1.0, 0.5]), J], [1, 0, 0])

    def test_random_commuting_families(self):
        rng = np.random.default_rng(9)
        for trial in range(30):
            fam, x = shared_dominant_commuting(rng, dim=4, count=2)
            scaled = [M / np.max(np.abs(np.linalg.eigvals(M))) for M in fam]
            df = deflate(scaled, x)
            Sinv = np.linalg.inv(df.S)
            for M, B in zip(scaled, df.blocks):
                W = Sinv @ M @ df.S
                assert np.linalg.norm(W[0, 1:]) < 1e-7
                assert np.linalg.norm(W[1:, 0]) < 1e-7
                assert abs(W[0, 0] - 1.0) < 1e-7
                assert np.linalg.norm(W[1:, 1:] - B) == 0.0


class TestCommonLyapunov:
    def test_contractive_series(self):
        cert = common_lyapunov([np.array([[0.5, 0.3], [0.0, 0.4]])])
        assert cert.method == "series"
        assert cert.min_eigenvalue > 0
        assert all(r >= -1e-9 for r in cert.residuals)

    def test_near_unit_radius_series(self):
        rho, th = 1.0 - 1e-5, 0.7
        R = rho * np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        B = np.zeros((3, 3))
        B[:2, :2] = R
        B[2, 2] = -rho
        cert = common_lyapunov([B, np.diag([0.5, 0.5, rho])])
        assert cert.method == "series"
        assert cert.min_eigenvalue > 0 and np.all(np.linalg.eigvalsh(cert.V) > 0)
        assert all(r >= -1e-9 for r in cert.residuals)

    def test_rotation_is_neutral(self):
        th = 0.9
        R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        cert = common_lyapunov([R])
        assert cert.method == "reduction"
        assert all(abs(r) <= 1e-9 for r in cert.residuals)

    def test_jordan_violates_hypothesis(self):
        with pytest.raises(HypothesisViolated):
            common_lyapunov([np.array([[1.0, 1.0], [0.0, 1.0]])])

    def test_radius_above_one_rejected(self):
        with pytest.raises(HypothesisViolated):
            common_lyapunov([np.diag([1.5, 0.5])])

    def test_random_contractive_families(self):
        rng = np.random.default_rng(13)
        for trial in range(50):
            blocks = contractive_commuting_blocks(rng, dim=3, count=2)
            cert = common_lyapunov(blocks)
            assert cert.min_eigenvalue > 0
            assert all(r >= -1e-8 for r in cert.residuals)

    def test_mixed_unit_and_contractive(self):
        th = 0.4
        R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        B1 = np.zeros((3, 3))
        B1[:2, :2] = R
        B1[2, 2] = 0.5
        B2 = np.diag([0.7, 0.7, 0.3])
        cert = common_lyapunov([B1, B2])
        assert cert.method == "reduction"
        assert all(r >= -1e-8 for r in cert.residuals)


    @pytest.mark.parametrize("m", [2, 9, 10, 16])
    def test_series_sum_agrees_with_scipy(self, m):
        # nested Stein equations X = A* X A + W, last member first; scipy
        # solves them by its "direct" method below size 10 and "bilinear" above
        from scipy.linalg import solve_discrete_lyapunov

        rng = np.random.default_rng(m)
        mats = []
        for radius in (0.9, 0.6):
            A = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
            mats.append(radius * A / np.max(np.abs(np.linalg.eigvals(A))))
        ref = np.eye(m, dtype=complex)
        for A in reversed(mats):
            ref = solve_discrete_lyapunov(A.conj().T, ref)
        X = _series_sum(mats)
        assert np.linalg.norm(X - ref) <= 1e-12 * np.linalg.norm(ref)


class TestDecideSharedDominant:
    def test_normal_family_case_one(self):
        d = decide_shared_dominant(rotation_family([0.3, 1.1]))
        assert d.answer == "yes" and d.route == "shared-dominant"
        assert "checks" in d.certificate

    def test_commuting_case_two(self):
        T = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
        Ti = np.linalg.inv(T)
        fam = [T @ np.diag([1.0, 0.5, -0.5]) @ Ti, T @ np.diag([2.0, -0.6, 0.6]) @ Ti]
        d = decide_shared_dominant(fam)
        assert d.answer == "yes"
        assert d.certificate["lyapunov_min_eigenvalue"] > 0
        assert all(r >= -1e-8 for r in d.certificate["lyapunov_residuals"])
        x = T @ np.array([1.0, 0, 0])
        assert interior(d.witness, x)
        for M in fam:
            assert is_invariant(d.witness, M).invariant

    def test_example_7_4_undecided(self):
        with pytest.raises(HypothesesNotMet) as err:
            decide_shared_dominant(list(ex7_4().matrices))
        assert err.value.hypothesis == "NotSemisimple"

    def test_no_shared_vector(self):
        with pytest.raises(HypothesesNotMet) as err:
            decide_shared_dominant(list(ex7_2().matrices))
        assert err.value.hypothesis == "NoSharedDominantVector"

    def test_scaling_invariance(self):
        rng = np.random.default_rng(17)
        for trial in range(20):
            fam, _ = shared_dominant_commuting(rng, dim=3, count=2)
            d1 = decide_shared_dominant(fam)
            d2 = decide_shared_dominant([rng.uniform(0.5, 2.0) * M for M in fam])
            assert d1.answer == d2.answer == "yes"

    def test_zero_member_dropped(self):
        fam = rotation_family([0.2]) + [np.zeros((3, 3))]
        d = decide_shared_dominant(fam)
        assert d.answer == "yes"

    def test_all_zero_family(self):
        # zero matrices leave every cone invariant, but are not normal+dominant
        # in the usual sense; route through the commuting branch
        T = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
        fam = [T @ np.diag([1.0, 0.5, 0.25]) @ np.linalg.inv(T), np.zeros((3, 3))]
        d = decide_shared_dominant(fam)
        assert d.answer == "yes"
        assert d.certificate.get("dropped_zero_members") == [1]

    def test_witness_convexity_probe(self):
        rng = np.random.default_rng(19)
        fam, x = shared_dominant_commuting(rng, dim=4, count=2)
        d = decide_shared_dominant(fam)
        K = d.witness
        from conelab.cones import sample_points

        pts = sample_points(K, 200, seed=23)
        for i in range(0, 200, 2):
            mid = 0.5 * (pts[i] + pts[i + 1])
            assert contains(K, mid).inside

    def test_jordan_at_rho_raises_only_hypotheses_not_met(self):
        # every draw has a cone, but a defective spectral radius is outside the
        # route: no exception but HypothesesNotMet, and no witness the oracle rejects
        rng = np.random.default_rng(1)
        for i in range(200):
            M = jordan_at_rho(rng, dim=3 + i % 3)
            try:
                d = decide_shared_dominant([M])
            except HypothesesNotMet:
                continue
            if d.answer == "yes":
                assert is_invariant(d.witness, M).invariant

    def test_normal_random_families(self):
        rng = np.random.default_rng(29)
        for trial in range(20):
            fam, x = normal_shared_dominant(rng, dim=4, count=2)
            d = decide_shared_dominant(fam)
            assert d.answer == "yes"
            assert interior(d.witness, x) or interior(d.witness, -x)


def test_witness_checks_build_the_form_norm_once(monkeypatch):
    # one cone, three members: ||Q||_2 is a property of the cone
    K = QuadraticCone(3, np.eye(3)[0], np.eye(2), np.eye(3)[:, 1:])
    mats = [np.diag([2.0, 1.0, 0.5]), np.diag([3.0, -1.0, 1.0]), np.diag([1.0, 0.5, 0.5])]
    spectral = []
    original = np.linalg.norm
    monkeypatch.setattr(np.linalg, "norm", lambda x, ord=None, *a, **k: (
        spectral.append(ord) if ord == 2 else None) or original(x, ord, *a, **k))
    checks = _witness_checks(K, mats, DEFAULT_TOL, "test witness")
    assert [c["matrix"] for c in checks] == ["A0", "A1", "A2"]
    assert spectral == [2]

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conelab.cones
from _gen import quadratic_boundary_points, quadratic_inside
from conelab.cones import (
    PolyhedralCone,
    QuadraticCone,
    conic_hull,
    contains,
    is_invariant,
    is_proper,
    prune_generators,
    sample_points,
    unit,
)
from conelab.errors import DimensionMismatch, EmptyInput


def ice_cream(dim=3):
    axis = np.eye(dim)[:, 0]
    basis = np.eye(dim)[:, 1:]
    return QuadraticCone(dim, axis, np.eye(dim - 1), basis)


def gen_set(K):
    return {tuple(np.round(g, 9)) for g in K.generators}


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

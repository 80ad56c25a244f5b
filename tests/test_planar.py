import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _gen import detneg_tracepos, from_eigs, mixed_family, yes_biased_family
from conelab.cones import conic_hull, contains, is_invariant
from conelab.errors import CollinearInput, EmptyFamily, PreconditionFailed
from conelab.fixtures import ex7_1, ex7_2, ex7_3, ex7_4, ex7_6_prefix
from conelab.planar import (
    associated_sign,
    classify2,
    decide_common_2x2,
    decide_shared_dominant_2x2,
    extended_family,
    is_invariant_cone_2x2,
    make_invariant_cone,
    minimal_bad_subfamily,
    necessary_conditions,
    search_common_cone,
)


def same_cone(K1, K2, tol=1e-8):
    return all(contains(K2, g).distance <= tol for g in K1.generators) and all(
        contains(K1, g).distance <= tol for g in K2.generators
    )


class TestClassify2:
    def test_diag_nonneg(self):
        fr = classify2([[2, 1], [0, 1]])
        assert fr.kind == "DiagNonneg"
        assert (fr.lam1, fr.lam2) == (2.0, 1.0)
        assert np.allclose(fr.u1, [1, 0])
        assert np.allclose(np.abs(fr.u2), [1, 1] / np.sqrt(2))

    def test_nondiag(self):
        fr = classify2([[1, 1], [0, 1]])
        assert fr.kind == "NonDiag" and fr.lam1 == 1.0
        assert np.allclose(fr.u1, [1, 0])

    def test_negdet(self):
        fr = classify2([[1, 1], [0, -1]])
        assert fr.kind == "NegDet" and (fr.lam1, fr.lam2) == (1.0, -1.0)

    def test_scalar_flagged(self):
        fr = classify2(2.5 * np.eye(2))
        assert fr.kind == "DiagNonneg" and fr.is_scalar

    def test_rotation_not_vandergraft(self):
        assert classify2([[0, -1], [1, 0]]).kind == "NotVandergraft"

    def test_negative_scalar_not_vandergraft(self):
        assert classify2(-1.0 * np.eye(2)).kind == "NotVandergraft"

    def test_any_magnitude(self):
        # t*t - 4d overflows above ~1e154 and underflows below ~1e-154
        for s in (1e-300, 1e-160, 1e160, 1e300):
            fr = classify2(s * np.array([[1.0, 1.0], [0.0, 1.0]]))
            assert fr.kind == "NonDiag" and not fr.is_scalar
            assert (fr.lam1, fr.trace) == pytest.approx((s, 2 * s), rel=1e-12)
            assert np.allclose(fr.u1, [1, 0])
            fr = classify2(s * np.array([[2.0, 1.0], [0.0, 1.0]]))
            assert fr.kind == "DiagNonneg" and (fr.lam1, fr.lam2) == pytest.approx((2 * s, s), rel=1e-12)


class TestAssociatedSign:
    def test_positive(self):
        assert associated_sign([[1, 1], [0, 1]], [1, 0], [0, 1]) == 1

    def test_negative_orientation(self):
        assert associated_sign([[1, -1], [0, 1]], [1, 0], [0, 1]) == -1

    def test_flip_u(self):
        assert associated_sign([[1, 1], [0, 1]], [-1, 0], [0, 1]) == -1

    def test_collinear_rejected(self):
        with pytest.raises(CollinearInput):
            associated_sign([[1, 1], [0, 1]], [1, 0], [2, 0])

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.1, 3.0), st.floats(-2, 2), st.floats(0.2, 2.8))
    def test_antisymmetry(self, lam, shear, angle):
        A = np.array([[lam, 1.0 + abs(shear)], [0.0, lam]])
        u = np.array([1.0, 0.0])
        v = np.array([np.cos(angle), np.sin(angle)])
        s = associated_sign(A, u, v)
        assert associated_sign(A, -u, v) == -s
        assert associated_sign(A, u, -v) == -s


class TestSingleMatrixCatalog:
    def test_diag_example(self):
        assert is_invariant_cone_2x2([[2, 1], [0, 1]], conic_hull([[1, 0], [1, 1]]))

    def test_nondiag_negative_side(self):
        assert not is_invariant_cone_2x2([[1, 1], [0, 1]], conic_hull([[1, 0], [0, -1]]))

    def test_negdet_equality_case(self):
        # trace zero: the ratio bound holds with equality, c1 = -c2
        A = from_eigs([1, 0], [0, 1], 1.0, -1.0)
        K = conic_hull([[1, 1], [1, -1]])
        assert is_invariant_cone_2x2(A, K)

    def test_agrees_with_membership_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            A = rng.normal(size=(2, 2))
            th = rng.uniform(0, 2 * np.pi, size=2)
            if abs(th[0] - th[1]) < 0.05:
                continue
            K = conic_hull([[np.cos(th[0]), np.sin(th[0])], [np.cos(th[1]), np.sin(th[1])]])
            g1, g2 = K.generators
            if abs(g1 @ g2) > 1 - 1e-6:
                continue
            assert is_invariant_cone_2x2(A, K) == is_invariant(K, A).invariant

    def test_diag_catalog_both_directions(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            th_d = rng.uniform(0, np.pi)
            th_n = (th_d + rng.uniform(0.4, np.pi - 0.4)) % np.pi
            u1 = np.array([np.cos(th_d), np.sin(th_d)])
            u2 = np.array([np.cos(th_n), np.sin(th_n)])
            A = from_eigs(u1, u2, rng.uniform(1.2, 3.0), rng.uniform(0, 1.0))
            # narrow cone about the dominant line, interior clear of the other line
            delta = 0.05
            good = conic_hull([u1, [np.cos(th_d + delta), np.sin(th_d + delta)]])
            assert is_invariant_cone_2x2(A, good)
            # cone whose interior contains the non-dominant line
            bad = conic_hull([
                [np.cos(th_n - 0.2), np.sin(th_n - 0.2)],
                [np.cos(th_n + 0.2), np.sin(th_n + 0.2)],
            ])
            assert not is_invariant_cone_2x2(A, bad)

    def test_negdet_ratio_sharpness(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            lam1 = rng.uniform(1.0, 3.0)
            lam2 = -rng.uniform(0.2, 1.0) * lam1
            A = np.diag([lam1, lam2])
            lo, hi = lam1 / lam2, lam2 / lam1
            r_in = rng.uniform(lo * 0.999, hi * 1.001)
            r_in = min(max(r_in, lo), hi)
            c2 = -rng.uniform(0.5, 2.0)
            c1 = r_in * c2
            K = conic_hull([[1, c1], [1, c2]])
            assert is_invariant_cone_2x2(A, K)
            r_out = lo * rng.uniform(1.05, 2.0)
            K_bad = conic_hull([[1, r_out * c2], [1, c2]])
            assert not is_invariant_cone_2x2(A, K_bad)


class TestMakeInvariantCone:
    def test_example_negdet(self):
        K, proper = make_invariant_cone([[1, 1], [0, -1]], [1, 1])
        assert proper
        assert same_cone(K, conic_hull([[1, 1], [2, -1]]))
        assert is_invariant(K, [[1, 1], [0, -1]]).invariant

    def test_permutation(self):
        K, proper = make_invariant_cone([[0, 1], [1, 0]], [1, 0])
        assert proper and same_cone(K, conic_hull([[1, 0], [0, 1]]))

    def test_eigenvector_flagged(self):
        _, proper = make_invariant_cone([[1, 1], [0, -1]], [1, 0])
        assert not proper

    def test_precondition(self):
        with pytest.raises(PreconditionFailed):
            make_invariant_cone([[2, 0], [0, 1]], [1, 1])  # det > 0

    def test_random_property(self):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            A = detneg_tracepos(rng)
            v = rng.normal(size=2)
            K, _ = make_invariant_cone(A, v)
            rep = is_invariant(K, A)
            assert rep.invariant and rep.max_distance <= 1e-9

    def test_tiny_member_gives_the_same_cone(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            A = detneg_tracepos(rng)
            v = rng.normal(size=2)
            K, proper = make_invariant_cone(A, v)
            K_tiny, proper_tiny = make_invariant_cone(1e-16 * A, v)
            assert proper_tiny == proper
            if proper:
                assert same_cone(K_tiny, K)


class TestExtendedFamily:
    def test_example_7_1(self):
        fd = ex7_1()
        ext = extended_family(list(fd.matrices))
        assert [t.label for t in ext] == ["A0", "A1", "A0*A1", "A1*A0"]

    def test_no_negative_determinants(self):
        ext = extended_family([np.diag([2.0, 1.0]), np.diag([3.0, 1.0])])
        assert len(ext) == 2

    def test_scalar_products_excluded(self):
        A = np.array([[1.0, 1.0], [0.0, -1.0]])  # A @ A = I
        ext = extended_family([A, A])
        assert len(ext) == 2


class TestNecessaryConditions:
    def test_example_7_2_separation_fails(self):
        rep = necessary_conditions(list(ex7_2().matrices))
        assert rep.failed == "SeparationFails"
        doms = sorted(np.degrees(a) for a in rep.evidence["dominant_angles"])
        assert np.allclose(doms, [0.0, 63.434948823, 116.565051177])
        nons = sorted(np.degrees(a) for a in rep.evidence["nondominant_angles"])
        assert np.allclose(nons, [26.565051177, 90.0, 153.434948823])

    def test_example_7_4_orientation(self):
        rep = necessary_conditions(list(ex7_4().matrices))
        assert rep.failed == "OrientationConflict"

    def test_single_matrix_passes(self):
        rep = necessary_conditions([np.array([[2.0, 1.0], [0.0, 1.0]])])
        assert rep.all_ok

    def test_three_nondiag_lines(self):
        mats = []
        for th in (0.0, 0.7, 1.4):
            c, s = np.cos(th), np.sin(th)
            R = np.array([[c, -s], [s, c]])
            mats.append(R @ np.array([[1.0, 1.0], [0.0, 1.0]]) @ R.T)
        rep = necessary_conditions(mats)
        assert rep.failed == "TooManyNondiagLines"

    def test_dominant_vs_negdet_nondominant_conflict(self):
        # e1 dominant for A, non-dominant for the negative-determinant B
        A = np.diag([2.0, 1.0])
        B = from_eigs([0, 1], [1, 0], 2.0, -1.0)
        rep = necessary_conditions([A, B])
        assert rep.failed == "SeparationFails"
        assert "conflict" in rep.evidence


class TestSharedDominant2x2:
    def test_example_7_1(self):
        d = decide_shared_dominant_2x2(list(ex7_1().matrices))
        assert d.answer == "no"
        assert d.certificate["failed_condition"] == "NegDetTraceZeroConflict"

    def test_example_7_4(self):
        d = decide_shared_dominant_2x2(list(ex7_4().matrices))
        assert d.answer == "no"
        assert d.certificate["failed_condition"] == "OrientationConflict"

    def test_orientation_positive_pair(self):
        fam = [np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([[2.0, 3.0], [0.0, 1.0]])]
        d = decide_shared_dominant_2x2(fam)
        assert d.answer == "yes"
        assert any(np.allclose(g, [1, 0]) for g in d.witness.generators)
        for M in fam:
            assert is_invariant(d.witness, M).invariant

    def test_mixed_nondiag_negdet(self):
        fam = [np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([[1.0, 1.0], [0.0, -1.0]])]
        d = decide_shared_dominant_2x2(fam)
        assert d.answer == "no"
        assert d.certificate["failed_condition"] == "NondiagWithNegativeDeterminant"

    def test_proportional_trace_zero_pair_yes(self):
        A = np.array([[1.0, 1.0], [0.0, -1.0]])
        d = decide_shared_dominant_2x2([A, 2.0 * A, np.diag([3.0, 1.0])])
        assert d.answer == "yes"

    def test_no_common_line_precondition(self):
        with pytest.raises(PreconditionFailed):
            decide_shared_dominant_2x2([np.diag([2.0, 1.0]), np.diag([1.0, 2.0])])


class TestDecideCommon:
    def test_empty(self):
        with pytest.raises(EmptyFamily):
            decide_common_2x2([])

    def test_example_7_2_pairs_and_triple(self):
        A, B, C = ex7_2().matrices
        s5 = np.sqrt(5)
        expected_map = {
            (0, 1): conic_hull([[1, 0], [1 / s5, 2 / s5]]),
            (1, 2): conic_hull([[-1 / s5, -2 / s5], [1 / s5, -2 / s5]]),
            (0, 2): conic_hull([[1, 0], [1 / s5, -2 / s5]]),
        }
        fam = [A, B, C]
        for (i, j), expected in expected_map.items():
            d = decide_common_2x2([fam[i], fam[j]])
            assert d.answer == "yes"
            assert same_cone(d.witness, expected) or same_cone(
                conic_hull(-d.witness.generators), expected
            )
        d = decide_common_2x2(fam)
        assert d.answer == "no" and d.certificate["failed_condition"] == "SeparationFails"

    def test_example_7_3_triples_and_quadruple(self):
        fam = list(ex7_3().matrices)
        s2 = np.sqrt(2)
        witnesses = {
            (0, 1, 2): conic_hull([[1, 0], [0, 1]]),
            (0, 1, 3): conic_hull([[1, 0], [0, -1]]),
            (0, 2, 3): conic_hull([[1 / s2, 1 / s2], [1 / s2, -1 / s2]]),
            (1, 2, 3): conic_hull([[1 / s2, 1 / s2], [-1 / s2, 1 / s2]]),
        }
        for combo, expected in witnesses.items():
            d = decide_common_2x2([fam[i] for i in combo])
            assert d.answer == "yes"
            assert same_cone(d.witness, expected) or same_cone(
                conic_hull(-d.witness.generators), expected
            )
        assert decide_common_2x2(fam).answer == "no"

    def test_example_7_6_prefixes(self):
        for m in (1, 2, 5, 10):
            fam = list(ex7_6_prefix(m).matrices)
            d = decide_common_2x2(fam)
            assert d.answer == "yes"
            for M in fam:
                assert is_invariant(d.witness, M).invariant

    def test_nonneg_scalars_never_change_decisions(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            fam = mixed_family(rng)
            base = decide_common_2x2(fam).answer
            with_scalar = decide_common_2x2(fam + [1.7 * np.eye(2)]).answer
            assert base == with_scalar

    def test_negative_scalar_forces_no(self):
        fam = [np.diag([2.0, 1.0]), -0.5 * np.eye(2)]
        d = decide_common_2x2(fam)
        assert d.answer == "no"
        assert d.certificate["failed_condition"] == "NotVandergraftInA1"

    def test_all_scalars(self):
        d = decide_common_2x2([np.eye(2), 2 * np.eye(2)])
        assert d.answer == "yes"

    def test_two_nondiag_lines_yes(self):
        # upper and lower triangular unipotent matrices: orthant is invariant
        A = np.array([[1.0, 1.0], [0.0, 1.0]])
        B = np.array([[1.0, 0.0], [1.0, 1.0]])
        d = decide_common_2x2([A, B])
        assert d.answer == "yes"
        assert same_cone(d.witness, conic_hull([[1, 0], [0, 1]]))

    def test_two_nondiag_lines_orientation_no(self):
        A = np.array([[1.0, 1.0], [0.0, 1.0]])
        B = np.array([[1.0, 0.0], [-1.0, 1.0]])
        d = decide_common_2x2([A, B])
        assert d.answer == "no"
        assert d.certificate["failed_condition"] in ("OrientationConflict", "TwoLineConditionFails")

    def test_one_nondiag_line_with_diag_member(self):
        A = np.array([[1.0, 1.0], [0.0, 1.0]])   # dominant line e1
        B = from_eigs([0, 1], [1, -4], 2.0, 1.0)  # dominant e2, non-dominant well away
        d = decide_common_2x2([A, B])
        assert d.answer == "yes"
        for M in (A, B):
            assert is_invariant(d.witness, M).invariant

    def test_yes_reports_separation_close_calls(self):
        # A0's non-dominant line lies 5e-9 outside the arc [0, pi/3] of the dominant lines
        def line(a):
            return [np.cos(a), np.sin(a)]

        fam = [from_eigs(line(0.0), line(np.pi / 3 + 5e-9), 1.0, 0.5),
               from_eigs(line(np.pi / 3), line(2 * np.pi / 3), 1.0, 0.5)]
        d = decide_common_2x2(fam)
        assert d.answer == "yes"
        assert d.certificate["close_calls"] == [
            "non-dominant line 1.047197556 within 10x tolerance of arc endpoint"]
        for M in fam:
            assert is_invariant(d.witness, M).invariant

    def test_yes_witnesses_pass_oracle(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            fam = yes_biased_family(rng)
            d = decide_common_2x2(fam)
            assert d.answer == "yes"
            for M in fam:
                rep = is_invariant(d.witness, M)
                assert rep.invariant and rep.max_distance <= 1e-9

    def test_no_refuted_by_search(self):
        rng = np.random.default_rng(47)
        found = 0
        while found < 50:
            fam = mixed_family(rng)
            if decide_common_2x2(fam).answer != "no":
                continue
            found += 1
            assert search_common_cone(fam, 2000, seed=found) is None

    def test_search_finds_cone_for_yes(self):
        fam = [np.diag([2.0, 1.0]), np.diag([3.0, 1.0])]
        assert search_common_cone(fam, 1000, seed=0) is not None


class TestMinimalBadSubfamily:
    def test_example_7_3_needs_all_four(self):
        assert minimal_bad_subfamily(list(ex7_3().matrices)) == (0, 1, 2, 3)

    def test_example_7_2_needs_all_three(self):
        assert minimal_bad_subfamily(list(ex7_2().matrices)) == (0, 1, 2)

    def test_example_7_4_pair(self):
        assert minimal_bad_subfamily(list(ex7_4().matrices)) == (0, 1)

    def test_yes_family_rejected(self):
        with pytest.raises(PreconditionFailed):
            minimal_bad_subfamily([np.diag([2.0, 1.0])])


def test_pairwise_vs_family_bound():
    # every NO family in a random suite admits a failing subfamily of size <= 5
    rng = np.random.default_rng(53)
    found = 0
    while found < 20:
        fam = mixed_family(rng, size=4)
        if decide_common_2x2(fam).answer != "no":
            continue
        found += 1
        assert len(minimal_bad_subfamily(fam)) <= 5

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import conelab.planar
from _gen import detneg_tracepos, from_eigs, mixed_family, yes_biased_family
from conelab.cones import conic_hull, contains, is_invariant
from conelab.errors import CollinearInput, EmptyFamily, PreconditionFailed
from conelab.fixtures import ex7_1, ex7_2, ex7_3, ex7_4, ex7_6_prefix
from conelab.linalg import DEFAULT_TOL
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


_EPS = DEFAULT_TOL.eig_cluster_tol
_entry = st.floats(-1.0, 1.0, allow_nan=False)


def _rot(a):
    return np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])


@st.composite
def _kernel_matrices(draw):
    """A random, scalar, shear (Jordan), negative-determinant or near-cut 2x2
    matrix (eigenvalue split or distance from scalar a factor 4 either side of
    its cut), optionally scaled by a power of two that puts its largest entry
    just inside or just outside 2^-400..2^400, or far outside it."""
    kind = draw(st.sampled_from(["random", "scalar", "shear", "negdet", "near_split", "near_scalar"]))
    R = _rot(draw(st.floats(0.0, 3.2)))
    lam, q, k = draw(_entry), draw(st.floats(0.5, 1.0)), draw(st.sampled_from([0.25, 4.0]))
    if kind == "random":
        M = np.array(draw(st.lists(_entry, min_size=4, max_size=4))).reshape(2, 2)
    elif kind == "scalar":
        M = lam * np.eye(2)
    elif kind == "shear":
        M = R @ np.array([[lam, q], [0.0, lam]]) @ R.T
    elif kind == "negdet":
        M = R @ np.array([[draw(st.floats(0.1, 1.0)), draw(_entry)], [0.0, draw(st.floats(-1.0, -0.1))]]) @ R.T
    elif kind == "near_split":  # (lam1 - lam2)^2 = k eps ||M||^2
        h = np.sqrt(k * _EPS) / 2 * np.hypot(np.sqrt(2) * lam, q)
        M = R @ np.array([[lam + h, q], [0.0, lam - h]]) @ R.T
    else:  # ||M - lam I|| = k eps ||M||
        M = lam * np.eye(2) + k * _EPS * abs(lam) * np.sqrt(2) * R @ np.array([[0.0, 1.0], [0.0, 0.0]]) @ R.T
    edge = draw(st.sampled_from([None, 400, 401, -400, -399, 1000, -1000]))
    m = np.abs(M).max()
    if edge is not None and m > 0:
        M = np.ldexp(M, edge - np.frexp(m)[1])  # largest entry in [2^(edge-1), 2^edge)
    return M


def _reference(M):
    """(kind, eigenvalues, margins) of M from np.linalg.eigvals: the cuts of
    `classify2` applied to t = l1 + l2, d = l1 l2 and t^2 - 4d = (l1 - l2)^2,
    and each cut's quantity over its threshold."""
    l1, l2 = np.linalg.eigvals(M)
    s = np.linalg.norm(M)
    t, d, disc = (l1 + l2).real, (l1 * l2).real, ((l1 - l2) ** 2).real
    defect = np.linalg.norm(M - np.trace(M) / 2 * np.eye(2))
    margins = (t / (_EPS * s), disc / (_EPS * s * s), d / (_EPS * s * s), defect / (_EPS * s)) if s else ()
    if t < -_EPS * s or disc < -_EPS * s * s:
        return "NotVandergraft", None, margins
    if defect <= _EPS * s:
        return "scalar", (t / 2, t / 2), margins
    if d < -_EPS * s * s:
        return "NegDet", sorted((l1.real, l2.real), reverse=True), margins
    if disc <= _EPS * s * s:
        return "NonDiag", (t / 2, t / 2), margins
    return "DiagNonneg", sorted((l1.real, l2.real), reverse=True), margins


class TestClassify2Reference:
    @settings(max_examples=300, deadline=None)
    @given(_kernel_matrices())
    def test_matches_eigvals_reference(self, M):
        fr = classify2(M)
        # the reference works on M scaled exactly to a largest entry near 1, where no square
        # underflows or overflows; classify2's eigenvalues are scaled the same way
        e = int(np.frexp(np.abs(M).max())[1])
        M = np.ldexp(M, -e)
        kind, lams, margins = _reference(M)
        assume(all(abs(abs(x) - 1.0) > 0.01 for x in margins))  # no quantity at its cut
        assert ("scalar" if fr.is_scalar else fr.kind) == kind
        if lams is None:
            return
        s = np.linalg.norm(M)
        # distinct eigenvalues split by sep are determined to about eps ||M||^2 / sep, and so
        # are their eigenlines: the bound is 1e-12 (relative to ||M||) for sep >= 0.01 ||M||
        tol = 1e-12 * max(1.0, 1e-2 * s / abs(lams[0] - lams[1])) if kind in ("DiagNonneg", "NegDet") else 1e-12
        for lam, ref in zip((fr.lam1, fr.lam2), lams):
            assert abs(np.ldexp(lam, -e) - ref) <= tol * s
        if fr.is_scalar or np.linalg.norm(M - np.trace(M) / 2 * np.eye(2)) < 1e-3 * s:
            return  # eigenlines of a nearly scalar matrix are not determined to 1e-12
        if fr.kind == "NonDiag" and abs(margins[1]) > 1e-4:
            return  # two eigenlines closer than the cut, which the NonDiag frame merges into one
        for u, lam in ((fr.u1, lams[0]), (fr.u2, lams[1])):
            if u is None:
                continue
            assert abs(np.linalg.norm(u) - 1.0) <= 1e-15
            assert u[0] > 1e-12 or (abs(u[0]) <= 1e-12 and u[1] > 0)  # fix_sign's sign
            v = np.linalg.svd(M - lam * np.eye(2))[2][-1]
            assert abs(u[0] * v[1] - u[1] * v[0]) <= tol  # sine of the angle between the lines


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

    @pytest.mark.parametrize("decide", [extended_family, necessary_conditions,
                                        decide_shared_dominant_2x2, decide_common_2x2])
    def test_needs_2x2_members(self, decide):
        # the 3x3 member has a negative determinant, so its square is formed
        with pytest.raises(PreconditionFailed):
            decide([np.diag([1.0, -1.0, 1.0])])

    @pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
    def test_products_formed_at_any_scale(self, scale):
        # swap reflection and diag(2, -1): both NegDet, and their product is not Vandergraft
        fam = [scale * np.array([[0.0, 1.0], [1.0, 0.0]]), scale * np.diag([2.0, -1.0])]
        ext = extended_family(fam)
        assert [t.label for t in ext] == ["A0", "A1", "A0*A1", "A1*A0", "A1*A1"]
        assert all(np.isfinite(t.matrix).all() and np.abs(t.matrix).max() > 0 for t in ext)
        rep = necessary_conditions(fam)
        assert (rep.failed, rep.evidence) == ("NotVandergraftInA1", {"member": "A0*A1"})

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

    @pytest.mark.parametrize("order", [1, -1])
    def test_later_separation_arc_gives_the_witness(self, order):
        # diag(2, 0)'s non-dominant line e2 ends both candidate arcs; the
        # first arc's cone {e2, -e1} fails the orientation test, and the
        # second arc's cone is the orthant, invariant under both members
        fam = [np.array([[0.5, 0.0], [0.5, 0.5]]), np.diag([2.0, 0.0])][::order]
        d = decide_common_2x2(fam)
        assert d.answer == "yes"
        assert same_cone(d.witness, conic_hull([[1, 0], [0, 1]]))
        for M in fam:
            assert is_invariant(d.witness, M).invariant

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

    def test_two_nondiag_lines_catalog_names_rejected_member(self):
        # A and B leave the orthant invariant with consistent orientation; the
        # negative-determinant C passes the necessary conditions but breaks
        # the eigenvalue ratio bound of the catalog on the orthant
        A = np.array([[1.0, 1.0], [0.0, 1.0]])
        B = np.array([[1.0, 0.0], [1.0, 1.0]])
        C = from_eigs([1, 1], [1, -2], 2.0, -1.9)
        assert necessary_conditions([A, C, B]).all_ok
        assert not is_invariant_cone_2x2(C, conic_hull([[1, 0], [0, 1]]))
        d = decide_common_2x2([A, C, B])
        assert d.answer == "no"
        assert d.certificate == {"failed_condition": "TwoLineConditionFails",
                                 "evidence": {"member": "A1", "kind": "NegDet"}}

    def test_big_cone_classifies_each_matrix_once(self, monkeypatch):
        fam = [np.diag([2.0, 1.0]), from_eigs([1, 1], [1, -2], 2.0, -1.0)]
        calls = []

        def counting(A, tol=DEFAULT_TOL):
            calls.append(1)
            return classify2(A, tol)

        monkeypatch.setattr(conelab.planar, "classify2", counting)
        d = decide_common_2x2(fam)
        assert d.certificate["construction"] == "big cone over dominant directions and their images"
        assert len(calls) == len(extended_family(fam)) == 3

    def test_negdet_products_are_classified_once(self, monkeypatch):
        c, s = np.cos(0.6), np.sin(0.6)
        R = np.array([[c, s], [s, -c]])  # a reflection: R @ R is the identity up to rounding

        def line(a):
            return [np.cos(a), np.sin(a)]

        fam = [np.diag([2.0, 1.0]), R, from_eigs(line(0.35), line(0.35 + np.pi / 2), 2.0, -1.0)]
        ext = extended_family(fam)
        # the scalar product A1*A1 is screened out; the other products of A1 and A2 stay
        assert [tm.label for tm in ext] == ["A0", "A1", "A2", "A1*A2", "A2*A1", "A2*A2"]
        calls = []

        def counting(A, tol=DEFAULT_TOL):
            calls.append(1)
            return classify2(A, tol)

        monkeypatch.setattr(conelab.planar, "classify2", counting)
        d = decide_common_2x2(fam)
        assert d.certificate["construction"] == "big cone over dominant directions and their images"
        assert len(calls) == len(extended_family(fam)) == 6

    def test_singular_members_yes_witness_passes_oracle(self):
        # a singular member maps a witness edge to a rounding-level image
        for fam in ([np.eye(2), np.diag([0.5, 0.0]), np.diag([0.0, 0.5])],
                    [np.diag([2.0, 0.0]), np.diag([1.0, 2.0])]):
            d = decide_common_2x2(fam)
            assert d.answer == "yes" and all(is_invariant(d.witness, M).invariant for M in fam)
        rng = np.random.default_rng(5)
        for _ in range(2000):
            fam = list(rng.integers(-2, 3, size=(int(rng.integers(1, 4)), 2, 2)).astype(float))
            d = decide_common_2x2(fam)  # a witness failing the oracle raises
            if d.answer == "yes":
                assert all(is_invariant(d.witness, M).invariant for M in fam)

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

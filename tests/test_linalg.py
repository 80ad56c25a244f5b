import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conelab.linalg
from _gen import jordan_at_rho
from conelab.errors import DimensionMismatch, DimensionTooLarge, EmptyFamily
from conelab.linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    _degree_of,
    _norm,
    eigen_decompose,
    eigenvalue_clusters,
    enumerate_words,
    fix_sign,
    is_vandergraft,
    nullspace,
    unit_members,
)
from conelab.planar import KIND_NOT, classify2, extended_family
from conelab.shared_dominant import common_lyapunov, deflate, ice_cream_cone
from conelab.simdiag import simultaneous_diagonalize


def eig_map(spectrum):
    return {ev.value: (ev.multiplicity, ev.degree) for ev in spectrum.eigenvalues}


class TestEigenDecompose:
    def test_triangular_2x2(self):
        spec = eigen_decompose([[2, 1], [0, 1]])
        assert eig_map(spec) == {(2 + 0j): (1, 1), (1 + 0j): (1, 1)}
        A = np.array([[2.0, 1.0], [0.0, 1.0]])
        for ev in spec.eigenvalues:
            v = ev.eigenvectors[:, 0]
            assert np.linalg.norm(A @ v - ev.value.real * v) < 1e-12

    def test_identity(self):
        spec = eigen_decompose(np.eye(3))
        assert eig_map(spec) == {(1 + 0j): (3, 1)}
        assert spec.eigenvalues[0].eigenvectors.shape == (3, 3)

    def test_jordan_block(self):
        spec = eigen_decompose([[1, 1], [0, 1]])
        assert eig_map(spec) == {(1 + 0j): (2, 2)}

    def test_scalar_up_to_rounding(self):
        # A - I is rounding noise shaped like a Jordan block; ranks relative to
        # its own size alone would report degree 3
        A = np.eye(3) + np.diag([1e-17, 1e-17], 1)
        for c in (1e-9, 1.0, 1e9):
            (ev,) = eigen_decompose(c * A).eigenvalues
            assert (ev.multiplicity, ev.degree, ev.eigenvectors.shape) == (3, 1, (3, 3))

    def test_conjugate_symmetry_exact(self):
        # every complex cluster comes with its exact conjugate, carrying the
        # same multiplicity and degree
        c, s = 0.8 * np.cos(0.7), 0.8 * np.sin(0.7)
        R, Z, I = np.array([[c, -s], [s, c]]), np.zeros((2, 2)), np.eye(2)
        repeated, jordan = np.block([[R, Z], [Z, R]]), np.block([[R, I], [Z, R]])
        rng = np.random.default_rng(5)
        for A in [repeated, jordan] + [rng.normal(size=(5, 5)) for _ in range(50)]:
            found = eig_map(eigen_decompose(A))
            assert sum(m for m, _ in found.values()) == A.shape[0]
            for z, md in found.items():
                assert found[complex(np.conj(z))] == md
        assert sorted(eig_map(eigen_decompose(repeated)).values()) == [(2, 1), (2, 1)]
        assert sorted(eig_map(eigen_decompose(jordan)).values()) == [(2, 2), (2, 2)]

    def test_rounded_jordan_pair_within_cut_is_one_cluster(self):
        # T J T^-1 for T = [[-3, -3], [-1, -2]] and J = [[1, 1], [0, 1]], as
        # rounded in double precision: its computed eigenvalues are 1 +- 1.86e-8 i,
        # more than half the cut 3.6e-8 apart from their real part
        A = np.array([[1.1102230246251565e-16, 3.0], [-0.3333333333333333, 2.0]])
        assert eig_map(eigen_decompose(A)) == {(1 + 0j): (2, 2)}

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            A = rng.normal(size=(4, 4))
            spec = eigen_decompose(A)
            if len(spec.eigenvalues) != 4 or not all(ev.is_real for ev in spec.eigenvalues):
                continue
            V = np.column_stack([ev.eigenvectors[:, 0] for ev in spec.eigenvalues])
            lam = np.array([ev.value.real for ev in spec.eigenvalues])
            assert np.linalg.norm(A @ V - V @ np.diag(lam)) < 1e-9 * max(1.0, np.linalg.norm(A))

    def test_similarity_with_distinct_diagonal_gives_degree_one(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            S = rng.normal(size=(4, 4)) + 2 * np.eye(4)
            if abs(np.linalg.det(S)) < 0.1:
                continue
            A = S @ np.diag([3.0, 1.5, -0.5, 0.25]) @ np.linalg.inv(S)
            spec = eigen_decompose(A)
            assert all(ev.degree == 1 for ev in spec.eigenvalues)

    def test_dimension_cap(self):
        with pytest.raises(DimensionTooLarge):
            eigen_decompose(np.eye(33))

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatch):
            eigen_decompose(np.ones((2, 3)))


def _eager(M, ev, tol=DEFAULT_TOL):
    """(degree, eigenvectors) of one eigenvalue of M, computed as an eager
    decomposition does: `_degree_of` at the cluster's upper half-plane value,
    and `nullspace` with `fix_sign` for a real eigenvalue."""
    upper = ev.value if ev.value.imag >= 0 else ev.value.conjugate()
    degree = _degree_of(M, upper, ev.multiplicity, tol)
    if ev.value.imag:
        return degree, None
    basis = np.real(nullspace(M - ev.value.real * np.eye(M.shape[0]), tol.eig_cluster_tol * _norm(M)))
    if basis.shape[1]:
        basis = np.column_stack([fix_sign(basis[:, k]) for k in range(basis.shape[1])])
    return degree, basis


def _same(lazy, eager):
    return lazy is None and eager is None or np.array_equal(lazy, eager)


_values = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0])


@st.composite
def _structured_matrices(draw):
    """Block-diagonal matrices of dimension 1-6 from scalar, Jordan, rotation
    and zero blocks, optionally under an integer similarity."""
    blocks, d = [], draw(st.integers(1, 6))
    while sum(b.shape[0] for b in blocks) < d:
        room = d - sum(b.shape[0] for b in blocks)
        kind = draw(st.sampled_from(["scalar", "jordan", "complex", "zero"] if room > 1 else ["scalar", "zero"]))
        k = 2 if kind == "complex" else draw(st.integers(1, room))
        if kind == "complex":
            a, b = draw(_values), draw(_values.filter(bool))
            blocks.append(np.array([[a, -b], [b, a]]))
        elif kind == "zero":
            blocks.append(np.zeros((k, k)))
        else:
            blocks.append(draw(_values) * np.eye(k) + (np.eye(k, k=1) if kind == "jordan" else 0.0))
    A = np.zeros((d, d))
    i = 0
    for b in blocks:
        A[i:i + b.shape[0], i:i + b.shape[0]] = b
        i += b.shape[0]
    if draw(st.booleans()):
        T = np.eye(d) + np.triu(np.array(draw(st.lists(st.integers(-2, 2), min_size=d * d, max_size=d * d)),
                                         dtype=float).reshape(d, d), 1)
        P = np.eye(d)[draw(st.permutations(range(d)))]
        T = P @ T  # unit triangular up to a permutation: exactly invertible
        A = T @ A @ np.linalg.inv(T)
    return A


class TestLazySpectra:
    @settings(max_examples=150, deadline=None)
    @given(_structured_matrices(), st.data())
    def test_lazy_reads_equal_eager_computation(self, A, data):
        spec = eigen_decompose(A)
        M = np.array(A, dtype=float)
        # read in a drawn order, degree or basis first, so no read depends on another
        order = data.draw(st.permutations(range(len(spec.eigenvalues))))
        basis_first = data.draw(st.booleans())
        for i in order:
            ev = spec.eigenvalues[i]
            degree, basis = _eager(M, ev)
            if basis_first:
                assert _same(ev.eigenvectors, basis)
            assert ev.degree == degree
            assert _same(ev.eigenvectors, basis)

    def test_reads_belong_to_the_matrix_at_the_call(self):
        A = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
        original = A.copy()
        spec = eigen_decompose(A)
        rep = is_vandergraft(A)
        A[:] = np.array([[1.0, 0.0, 0.0], [0.0, 3.0, 0.0], [1.0, 1.0, -2.0]])
        for ev in spec.eigenvalues:
            degree, basis = _eager(original, ev)
            assert ev.degree == degree and _same(ev.eigenvectors, basis)
        assert [ev.degree for ev in spec.eigenvalues] == [2, 1]
        dom = eigen_decompose(original).dominant()
        assert np.array_equal(rep.dominant_eigenvectors, dom.eigenvectors)
        assert np.array_equal(rep.dominant_eigenvectors, np.array([[1.0], [0.0], [0.0]]))

    def test_eigenspaces_are_read_only(self):
        basis = eigen_decompose(np.eye(2)).eigenvalues[0].eigenvectors
        with pytest.raises(ValueError):
            basis[0, 0] = 5.0

    def test_vandergraft_verdict_builds_no_eigenspace(self, monkeypatch):
        calls = []
        original = conelab.linalg.nullspace
        monkeypatch.setattr(conelab.linalg, "nullspace", lambda *a: calls.append(a) or original(*a))
        A, B = np.array([[2.0, 1.0], [0.0, 1.0]]), np.array([[3.0, 0.0], [1.0, 0.5]])
        rep = is_vandergraft(A @ B)
        assert rep.is_vandergraft and calls == []
        assert rep.dominant_eigenvectors.shape == (2, 1)
        assert len(calls) == 1
        rep.dominant_eigenvectors
        assert len(calls) == 1


class TestVandergraft:
    @pytest.mark.parametrize("A,expect,why", [
        ([[1, 1], [0, -1]], True, None),
        ([[0, -1], [1, 0]], False, "rho-not-eigenvalue"),
        (np.diag([1.0, -1.0, -1.0]), True, None),
        ([[-1, 0], [0, 0]], False, "rho-not-eigenvalue"),
    ])
    def test_examples(self, A, expect, why):
        rep = is_vandergraft(A)
        assert rep.is_vandergraft is expect
        assert rep.failed_condition == why

    def test_degree_violation(self):
        # radius attained at +1 with degree 1, while -1 carries a Jordan block
        A = np.array([[1.0, 0, 0], [0, -1.0, 1.0], [0, 0, -1.0]])
        rep = is_vandergraft(A)
        assert not rep.is_vandergraft
        assert rep.failed_condition == "degree-violation"

    def test_nilpotent_is_vandergraft(self):
        assert is_vandergraft([[0, 1], [0, 0]]).is_vandergraft

    def test_closed_form_agrees_with_spectral_test(self):
        # planar.classify2, the package's one 2x2 closed form, must match the
        # spectral path that every size takes
        rng = np.random.default_rng(7)
        tol = DEFAULT_TOL
        for _ in range(10_000):
            A = rng.normal(size=(2, 2)) * rng.choice([0.5, 1.0, 3.0])
            assert is_vandergraft(A, tol).is_vandergraft == (classify2(A, tol).kind != KIND_NOT), A

    def test_huge_jordan_block_2x2(self):
        # trace^2 - 4 det overflows to inf - inf at this scale
        rep = is_vandergraft(1e200 * np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert rep.is_vandergraft
        assert rep.dominant_eigenvalue == pytest.approx(1e200)

    def test_rounded_jordan_block_2x2(self):
        # T J T^-1 for T = [[-3, -2], [-1, -1]] and J = [[1, 1], [0, 1]], as
        # rounded in double precision: its computed eigenvalues are the
        # complex pair 1 +- 3.8e-8 i, within rounding of ||A|| of each other
        A = np.array([[-1.9999999999999998, 9.0], [-0.9999999999999998, 3.9999999999999996]])
        rep = is_vandergraft(A)
        assert rep.is_vandergraft
        assert rep.dominant_eigenvalue == pytest.approx(1.0)

    def test_rotation_at_huge_scale(self):
        # a plain norm overflows above ~1e154 and would make every cut infinite
        A = 1e160 * np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.5]])
        assert is_vandergraft(A).failed_condition == "rho-not-eigenvalue"

    def test_jordan_block_at_radius_split_into_reals(self):
        # rounding may split the block into two real eigenvalues that cluster
        # into one; the radius must be that cluster's, not the larger raw value
        rng = np.random.default_rng(0)
        real = 0
        for _ in range(300):
            M = jordan_at_rho(rng, dim=3)
            if np.all(np.linalg.eigvals(M).imag == 0):
                real += 1
                assert is_vandergraft(M).is_vandergraft, M
        assert real > 100

    def test_dominant_data_present_iff_vandergraft(self):
        rep = is_vandergraft(np.diag([2.0, 1.0]))
        assert rep.dominant_eigenvalue == pytest.approx(2.0)
        assert rep.dominant_eigenvectors.shape[1] >= 1


class TestEnumerateWords:
    def test_single_matrix(self):
        A = np.array([[2.0, 0], [0, 1.0]])
        words = list(enumerate_words([A], 2))
        assert [w for w, _ in words] == [(0,), (0, 0)]
        assert np.allclose(words[1][1], A @ A)

    def test_order_contract(self):
        A, B = np.diag([1.0, 2.0]), np.diag([3.0, 4.0])
        words = [w for w, _ in enumerate_words([A, B], 2)]
        assert words == [(0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]

    def test_products_match_words(self):
        rng = np.random.default_rng(2)
        fam = [rng.normal(size=(3, 3)) for _ in range(2)]
        for word, P in enumerate_words(fam, 3):
            expected = np.eye(3)
            for i in word:
                expected = expected @ fam[i]
            assert np.allclose(P, expected)

    def test_example_7_1_all_words_vandergraft(self):
        A = np.array([[1.0, 1.0], [0.0, -1.0]])
        B = np.array([[1.0, 2.0], [0.0, -1.0]])
        results = [(w, is_vandergraft(P).is_vandergraft) for w, P in enumerate_words([A, B], 4)]
        assert len(results) == 30
        assert all(flag for _, flag in results)


def test_eigenvalue_clusters_count_each_value_once():
    # 0.6c lies within c of both 0 and 1.2c, yet belongs to one cluster only
    c = 1e-8
    clusters = eigenvalue_clusters([0.0, 0.6 * c, 1.2 * c], c)
    assert len(clusters) == 2
    assert sum(size for _, size in clusters) == 3
    (mean, size), = eigenvalue_clusters([1 + 1j, 1 + 1j + 0.5j * c, 1 + 1j - 0.5j * c], c)
    assert size == 3 and mean == pytest.approx(1 + 1j)


def _numpy_clusters(values, cut):
    """The grouping as numpy computes it: greedy representatives, `argmin`
    for the first nearest one, `bincount` sums and a complex division."""
    values = np.asarray(values, dtype=complex).ravel()
    reps = []
    for v in sorted(values, key=lambda z: (z.real, z.imag)):
        if not any(abs(v - r) <= cut for r in reps):
            reps.append(v)
    k = len(reps)
    nearest = np.argmin(np.abs(values[:, None] - np.array(reps)[None, :]), axis=1)
    sizes = np.bincount(nearest, minlength=k)
    means = (np.bincount(nearest, values.real, k) + 1j * np.bincount(nearest, values.imag, k)) / sizes
    return [(complex(z), int(m)) for z, m in zip(means, sizes)]


# A coarse grid makes values equidistant from two representatives common.
_part = st.one_of(st.sampled_from([0.0, -0.0, 0.25, 0.5, 0.75, 1.0, -1.0, 1.5]), st.floats(-4.0, 4.0))


def _exact(clusters):
    """Each (mean, size) with the signs of zero parts spelled out."""
    return [(z, math.copysign(1.0, z.real), math.copysign(1.0, z.imag), m) for z, m in clusters]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.builds(complex, _part, _part), min_size=1, max_size=8),
       st.sampled_from(["drawn", "at", "inside"]), st.sampled_from([0.25, 0.5, 1.0]) | st.floats(0.0, 4.0))
def test_eigenvalue_clusters_match_the_numpy_reference(values, where, cut):
    if len(values) >= 2 and where != "drawn":
        cut = abs(values[1] - values[0])  # exactly cut apart: within reach
        if where == "inside":
            cut = math.nextafter(cut, 0.0)  # one ulp beyond reach
    clusters = eigenvalue_clusters(values, cut)
    assert _exact(clusters) == _exact(_numpy_clusters(values, cut))
    assert all(type(z) is complex and type(m) is int for z, m in clusters)


def test_tolerance_config_validation():
    with pytest.raises(ValueError):
        ToleranceConfig(eig_cluster_tol=0.0)


@pytest.mark.parametrize("validate", [
    unit_members,
    lambda fam: list(enumerate_words(fam, 2)),
    simultaneous_diagonalize,
    extended_family,
    lambda fam: ice_cream_cone(fam, x=np.eye(3)[0]),
    lambda fam: deflate(fam, np.eye(3)[0]),
    common_lyapunov,
], ids=["unit_members", "enumerate_words", "simultaneous_diagonalize", "extended_family",
        "ice_cream_cone", "deflate", "common_lyapunov"])
def test_every_family_entry_point_validates_the_family(validate):
    with pytest.raises(EmptyFamily):
        validate([])
    with pytest.raises(DimensionMismatch):
        validate([np.diag([2.0, 1.0]), np.diag([2.0, 1.0, 0.5])])

import math

import numpy as np
import pytest
from scipy.optimize import linprog

import conelab.cones
from _gen import _rotation, commuting_diag_2x2, contractive_commuting_blocks
from conelab import simdiag
from conelab.cones import (
    MembershipResult,
    PolyhedralCone,
    contains,
    is_invariant,
    is_proper,
    nnls_distance,
    prune_generators,
    unit,
)
from conelab.errors import HypothesesNotMet, NonVandergraftProduct, NotCommuting, NotDiagonalizable, PreconditionFailed
from conelab.fixtures import ex7_5, spiral3
from conelab.linalg import DEFAULT_TOL, unit_members
from conelab.planar import decide_common_2x2
from conelab.simdiag import (
    _CHUNK_ROWS,
    _exponent_chunks,
    _never_elected,
    construct_simdiag_cone,
    decide_simdiag,
    dominant_index_set,
    simultaneous_diagonalize,
)

# blocks e1 and e2 tie in the first member; e1 wins every tie through b
TIED = [np.diag([2.0, 2.0, 1.0]), np.diag([3.0, 1.5, 1.0])]
TIED_MORE = [np.diag([1.0, 1.0, 0.5]), np.diag([2.0, 1.0, 1.0]), np.diag([1.5, 1.5, 1.0])]


def table_rows(form):
    return {tuple(np.round(row, 8)) for row in form.lambda_table}


def tuples_of_sum(t, n):
    """The n-tuples of nonnegative integers with sum t, in lexicographic order."""
    if n == 1:
        yield (t,)
        return
    for f in range(t + 1):
        for rest in tuples_of_sum(t - f, n - 1):
            yield (f,) + rest


def reference_dominant_set(form, bound, tol=DEFAULT_TOL):
    """The dominant-block rule stated one exponent tuple at a time.

    Returns (indices, witnesses, notes, exact, failed tuple or None).
    """
    L, b, eps_rel = form.lambda_table, form.b, tol.eig_cluster_tol
    witnesses, notes, failed = {}, [], None
    for t in range(bound + 1):
        for exps in tuples_of_sum(t, form.family_size):
            logs, phases = np.zeros(form.num_blocks), np.zeros(form.num_blocks)
            for j, e in enumerate(exps):
                if e:  # a zero exponent contributes nothing, even on a zero eigenvalue
                    with np.errstate(divide="ignore"):
                        logs = logs + e * np.log(np.abs(L[:, j]))
                    phases = phases + e * np.angle(L[:, j])
            top = logs.max()
            wrapped = np.abs((phases + np.pi) % (2 * np.pi) - np.pi)
            omega = [i for i in range(form.num_blocks)
                     if (top == -np.inf or logs[i] >= top - eps_rel * (1 + abs(top)))
                     and (wrapped[i] <= 1e-8 * (1 + t) or logs[i] == -np.inf)]
            if not omega:
                failed = failed or exps
                continue
            target = max(abs(b[i]) for i in omega)
            strict = [i for i in omega if abs(b[i].imag) <= eps_rel * target and b[i].real > 0
                      and abs(b[i].real - target) <= eps_rel * target]
            if not strict:
                notes.append(f"tie-break fallback (largest real part) at exponents {exps}")
            p = strict[0] if strict else max(omega, key=lambda i: (b[i].real, -i))
            witnesses.setdefault(p, exps)
        if failed:
            return set(witnesses), witnesses, notes + [f"aborted at non-Vandergraft tuple {failed}"], False, failed
    if np.any(L == 0):
        return set(witnesses), witnesses, notes + ["zero eigenvalues present; completeness certificate unavailable"], False, None
    logs, n = np.log(np.abs(L)), form.family_size
    maximal = {i for i in range(form.num_blocks) if form.num_blocks == 1 or linprog(
        np.zeros(n), A_ub=np.delete(logs, i, axis=0) - logs[i], b_ub=np.full(form.num_blocks - 1, 1e-9),
        A_eq=np.ones((1, n)), b_eq=[1.0], bounds=(0, None), method="highs").status == 0}
    return set(witnesses), witnesses, notes, maximal <= set(witnesses), None


def reference_forms():
    rng = np.random.default_rng(2024)
    families = [commuting_diag_2x2(rng, size=2 + s % 2) for s in range(25)]
    families += [contractive_commuting_blocks(np.random.default_rng(s), 3 + s % 3, 2 + s % 2) for s in range(25)]
    for s in range(15):  # diagonal families with zero and sign-paired eigenvalues
        count, dim = 2 + s % 2, 2 + s % 3
        signs = rng.choice([-1.0, 0.0, 1.0], size=(count, dim))
        families.append([np.diag(row * rng.choice([0.5, 1.0, 2.0], size=dim)) for row in signs])
    families += [[np.diag([1.0, -1.0]), np.diag([-1.0, 1.0])], [np.diag([2.0, 0.0])],
                 [np.diag([0.0, 1.0, -1.0]), np.diag([1.0, 0.0, 0.0])]]
    return [simultaneous_diagonalize(unit_members(fam)) for fam in families]


class TestSimultaneousDiagonalize:
    def test_already_diagonal(self):
        form = simultaneous_diagonalize([np.diag([2.0, 1.0]), np.diag([3.0, 1.0])])
        assert form.num_blocks == 2
        assert table_rows(form) == {(2 + 0j, 3 + 0j), (1 + 0j, 1 + 0j)}

    def test_example_7_5_blocks(self):
        form = simultaneous_diagonalize(list(ex7_5().matrices))
        assert form.num_blocks == 3
        assert table_rows(form) == {(1 + 0j, -1 + 0j), (-1 + 0j, -1 + 0j), (-1 + 0j, 1 + 0j)}

    def test_inverse_pair(self):
        A = np.diag([2.0, 0.5])
        form = simultaneous_diagonalize([A, np.linalg.inv(A)])
        assert form.num_blocks == 2

    def test_roundtrip_residual(self):
        rng = np.random.default_rng(3)
        for trial in range(50):
            fam = commuting_diag_2x2(rng, size=2)
            form = simultaneous_diagonalize(fam, seed=trial)
            for j, M in enumerate(fam):
                assert np.linalg.norm(form.reconstruct(j) - M) <= 1e-8 * max(1.0, np.linalg.norm(M))

    def test_b_values_distinct(self):
        rng = np.random.default_rng(5)
        for trial in range(30):
            fam = commuting_diag_2x2(rng, size=3)
            form = simultaneous_diagonalize(fam, seed=trial)
            b = form.b
            for i in range(len(b)):
                for j in range(i + 1, len(b)):
                    assert abs(b[i] - b[j]) > 1e-8

    def test_complex_blocks_conjugate_paired(self):
        th = 0.7
        M = np.zeros((3, 3))
        M[0, 0] = 2.0
        M[1:, 1:] = 0.5 * np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        form = simultaneous_diagonalize([M])
        pairs = [p for p in form.conj_partner if p is not None]
        assert pairs, "expected a conjugate pair of blocks"
        for i, p in enumerate(form.conj_partner):
            if p is not None:
                assert np.allclose(form.lambda_table[i], np.conj(form.lambda_table[p]))

    def test_seed_only_matters_when_the_plain_sum_fails(self):
        for s in range(30):
            fam = contractive_commuting_blocks(np.random.default_rng(s), 3 + s % 3, 2 + s % 2)
            forms = [simultaneous_diagonalize(unit_members(fam), seed=seed) for seed in range(4)]
            assert np.array_equal(forms[0].b, forms[0].lambda_table.sum(axis=1))
            for other in forms[1:]:
                assert np.array_equal(other.S, forms[0].S)
                assert np.array_equal(other.lambda_table, forms[0].lambda_table)
                assert np.array_equal(other.b, forms[0].b)

    def test_not_commuting(self):
        with pytest.raises(NotCommuting):
            simultaneous_diagonalize([np.diag([2.0, 1.0]), np.array([[1.0, 1.0], [0.0, 2.0]])])

    def test_not_diagonalizable(self):
        with pytest.raises(NotDiagonalizable):
            simultaneous_diagonalize([np.array([[1.0, 1.0], [0.0, 1.0]])])


class TestDominantIndexSet:
    def test_diag_pair_exact(self):
        form = simultaneous_diagonalize([np.diag([2.0, 1.0]), np.diag([3.0, 1.0])])
        ds = dominant_index_set(form)
        (i,) = ds.indices
        assert np.allclose(form.lambda_table[i], [2, 3])
        assert ds.exact
        assert ds.witnesses[i] == (0, 0)

    def test_example_7_5_all_blocks_at_bound_two(self):
        form = simultaneous_diagonalize(list(ex7_5().matrices))
        ds = dominant_index_set(form, bound=2)
        assert ds.indices == frozenset(range(3))
        assert all(sum(w) <= 2 for w in ds.witnesses.values())

    def test_sign_pair_includes_negative_row(self):
        # the length-two product is -I, so the enumeration aborts, but the
        # partial dominant set already contains a negative row
        form = simultaneous_diagonalize([np.diag([1.0, -1.0]), np.diag([-1.0, 1.0])])
        with pytest.raises(NonVandergraftProduct) as err:
            dominant_index_set(form, bound=4)
        partial = err.value.partial
        assert any(form.lambda_table[i, 1].real == -1.0 for i in partial.indices)

    def test_monotone_in_bound(self):
        rng = np.random.default_rng(7)
        for trial in range(30):
            fam = commuting_diag_2x2(rng, size=2)
            form = simultaneous_diagonalize(fam, seed=trial)
            sets = []
            for bound in (2, 4, 8):
                try:
                    sets.append(dominant_index_set(form, bound).indices)
                except NonVandergraftProduct:
                    sets = None
                    break
            if sets:
                assert sets[0] <= sets[1] <= sets[2]

    def test_zero_eigenvalues_disable_certificate(self):
        form = simultaneous_diagonalize([np.diag([2.0, 0.0])])
        ds = dominant_index_set(form)
        assert not ds.exact
        assert ds.indices  # index of the nonzero block is still found


    def test_negative_bound_rejected(self):
        form = simultaneous_diagonalize([np.diag([2.0, 1.0])])
        with pytest.raises(PreconditionFailed):
            dominant_index_set(form, bound=-1)

    def test_matches_per_tuple_reference(self):
        forms = reference_forms()
        aborts = 0
        for form in forms:
            for bound in (0, 2, 8):
                indices, witnesses, notes, exact, failed = reference_dominant_set(form, bound)
                if failed is None:
                    ds = dominant_index_set(form, bound)
                else:
                    aborts += 1
                    with pytest.raises(NonVandergraftProduct) as err:
                        dominant_index_set(form, bound)
                    assert err.value.exponents == failed
                    ds = err.value.partial
                assert ds.indices == indices
                assert ds.witnesses == witnesses
                assert list(ds.notes) == notes
                assert ds.exact == exact
        assert 0 < aborts < 3 * len(forms)


# Member 0 is negative on e2, and e2 tops e1 (all ones) exactly when the other
# exponents sum to more than 9.5 times z_0: the first non-Vandergraft product
# is (1, 0, 0, 0, 0, 10), of sum 11.
LATE_NO = [np.diag([1.0, -2.0 ** -9.5])] + [np.diag([1.0, 2.0])] * 5
# With x, y the exponents of members 0 and 5, ten times the log-moduli on
# e1, e2, e3 are x - y/10, y/10 - x and 0.06 x: e3 is top only for
# 9.4 < y/x < 10.6, so the first tuple to elect it is (1, 0, 0, 0, 0, 10), of sum 11.
LATE_YES = ([np.diag(np.exp([0.1, -0.1, 0.006]))] + [np.eye(3)] * 4
            + [np.diag(np.exp([-0.01, 0.01, 0.0]))])


def positive_heads(rng, count):
    """Commuting members of two positive real blocks and a smaller complex pair:
    every product is Vandergraft, and both heads can be elected."""
    T = rng.normal(size=(4, 4))
    fam = []
    for _ in range(count):
        D = np.zeros((4, 4))
        D[0, 0], D[1, 1] = rng.uniform(0.6, 1.0, size=2)
        D[2:, 2:] = rng.uniform(0.1, 0.5) * _rotation(rng.uniform(0, 2 * np.pi))
        fam.append(T @ D @ np.linalg.inv(T))
    return fam


def assert_matches_reference(form, bound):
    """`dominant_index_set` agrees with the per-tuple rule; returns the failed tuple or None."""
    indices, witnesses, notes, exact, failed = reference_dominant_set(form, bound)
    if failed is None:
        ds = dominant_index_set(form, bound)
    else:
        with pytest.raises(NonVandergraftProduct) as err:
            dominant_index_set(form, bound)
        assert err.value.exponents == failed
        ds = err.value.partial
    assert (ds.indices, ds.witnesses, list(ds.notes), ds.exact) == (indices, witnesses, notes, exact)
    return failed


class TestChunkedSearch:
    """The tuple table is built once per (n, bound) and searched in read-only chunks of whole sums."""

    @pytest.mark.parametrize("n, bound", [(1, 0), (2, 8), (5, 12), (6, 12)])
    def test_table_order_and_chunks(self, n, bound):
        chunks = _exponent_chunks(n, bound)
        rows = [tuple(r) for E, _ in chunks for r in E.tolist()]
        assert rows == [z for t in range(bound + 1) for z in tuples_of_sum(t, n)]
        assert [t for _, sums in chunks for t in sums.tolist()] == [sum(z) for z in rows]
        for k, (E, sums) in enumerate(chunks):
            if k + 1 < len(chunks):  # a chunk closes after the first whole sum that fills it
                assert len(E) >= _CHUNK_ROWS > len(E) - np.count_nonzero(sums == sums[-1])
                assert chunks[k + 1][1][0] == sums[-1] + 1
        assert len(chunks) == (3 if (n, bound) == (6, 12) else 2 if n == 5 else 1)

    def test_chunks_are_read_only(self):
        for E, sums in _exponent_chunks(3, 30):
            assert not E.flags.writeable and not sums.flags.writeable
            with pytest.raises(ValueError):
                E[0, 0] = 1

    def test_table_built_once_per_size(self):
        form = simultaneous_diagonalize(unit_members(TIED))
        dominant_index_set(form, bound=7)
        before = _exponent_chunks.cache_info()
        dominant_index_set(form, bound=7)
        after = _exponent_chunks.cache_info()
        assert (after.misses, after.hits) == (before.misses, before.hits + 1)

    def test_matches_reference_across_chunks(self):
        forms = [simultaneous_diagonalize(unit_members(positive_heads(np.random.default_rng(s), 5 + s % 2)))
                 for s in range(2)]
        forms += [simultaneous_diagonalize(unit_members(contractive_commuting_blocks(
            np.random.default_rng(s), 3 + s % 2, 5 + s % 2))) for s in range(2)]
        forms.append(simultaneous_diagonalize(LATE_YES))
        forms.append(simultaneous_diagonalize(LATE_NO))
        forms.append(simultaneous_diagonalize([np.diag([-2.0, 1.0])] + [np.diag([1.0, 2.0])] * 5))
        failed = [assert_matches_reference(form, 12) for form in forms]
        assert failed[:2] == [None] * 2 and failed[-3] is None
        assert (1, 0, 0, 0, 0, 10) in dominant_index_set(forms[-3], 12).witnesses.values()
        assert failed[-2:] == [(1, 0, 0, 0, 0, 10), (1, 0, 0, 0, 0, 0)]

    def test_tied_five_members_exact_at_every_bound(self):
        # 53,130 tuples of sum <= 20, in several chunks; the tie-break settles the tied block
        members = unit_members(TIED + TIED_MORE)
        form = simultaneous_diagonalize(members)
        sets = [dominant_index_set(form, bound) for bound in (0, 8, 20)]
        assert len(_exponent_chunks(5, 20)) > 1
        assert all(ds.exact and ds.indices == sets[0].indices for ds in sets)
        (i,) = sets[0].indices  # the e1 block
        assert np.allclose(form.lambda_table[i], [M[0, 0] for M in members])

    def test_no_evaluates_no_later_chunk(self, monkeypatch):
        seen, real = [], _exponent_chunks

        def recording(n, bound):
            for k, chunk in enumerate(real(n, bound)):
                seen.append(k)
                yield chunk

        monkeypatch.setattr(simdiag, "_exponent_chunks", recording)
        with pytest.raises(NonVandergraftProduct) as err:
            dominant_index_set(simultaneous_diagonalize(LATE_NO), 12)
        assert err.value.exponents == (1, 0, 0, 0, 0, 10)
        assert seen == [0, 1]  # sums 0-9, then 10-11; sum 12 is never searched


@pytest.fixture
def linprog_calls(monkeypatch):
    """One entry per `scipy.optimize.linprog` call made through the package."""
    import scipy.optimize

    calls, real = [], scipy.optimize.linprog

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", counting)
    return calls


class TestCompletenessCertificate:
    def test_tied_family_is_exact(self):
        d = decide_simdiag(TIED)
        assert d.answer == "yes"
        assert d.certificate["exact"] is True
        assert "label" not in d.certificate

    def test_tied_family_needs_no_lp(self, linprog_calls):
        assert dominant_index_set(simultaneous_diagonalize(unit_members(TIED))).exact
        assert len(linprog_calls) == 0

    def test_lp_settles_what_the_array_tests_leave_open(self, linprog_calls):
        form = simultaneous_diagonalize(unit_members(contractive(170)), seed=1729)
        ds = dominant_index_set(form)
        assert len(linprog_calls) >= 1
        assert ds.exact == reference_dominant_set(form, 8)[3]

    def test_array_tests_agree_with_the_lp_and_the_enumerator(self):
        rng = np.random.default_rng(31)
        tied = []  # the two leading blocks tie in about half of the members
        for s in range(24):
            n, dim, fam = 2 + s % 2, 3 + s % 3, []
            for _ in range(n):
                r = rng.uniform(0.5, 2.0)
                second = r if rng.random() < 0.5 else r * rng.uniform(0.3, 0.9)
                rest = r * rng.uniform(0.1, 0.85, size=dim - 2) * rng.choice([-1.0, 1.0], size=dim - 2)
                fam.append(np.diag([r, second, *rest]))
            tied.append(fam)
        forms = reference_forms() + [simultaneous_diagonalize(unit_members(contractive(s)), seed=1729)
                                     for s in range(300)]
        forms += [simultaneous_diagonalize(unit_members(fam)) for fam in [TIED] + tied]
        by_a = by_b = 0
        for form in forms:
            if np.any(form.lambda_table == 0):
                continue
            try:
                ds = dominant_index_set(form)
            except NonVandergraftProduct:
                continue
            dominated, covered = _never_elected(form, ds.indices, DEFAULT_TOL)
            logs, n = np.log(np.abs(form.lambda_table)), form.family_size
            elected = None
            for k in set(range(form.num_blocks)) - ds.indices:
                if dominated[k]:
                    by_a += 1
                    lp = linprog(np.zeros(n), A_ub=np.delete(logs, k, axis=0) - logs[k],
                                 b_ub=np.full(form.num_blocks - 1, 1e-9), A_eq=np.ones((1, n)), b_eq=[1.0],
                                 bounds=(0, None), method="highs")
                    assert lp.status == 2  # infeasible
                elif covered[k]:
                    by_b += 1
                    if elected is None:
                        elected = reference_dominant_set(form, 16)[0]
                    assert k not in elected
        assert by_a > 0 and by_b > 0


class TestDecideSimdiag:
    def test_example_7_5_no_with_witness_tuple(self):
        d = decide_simdiag(list(ex7_5().matrices), bound=2)
        assert d.answer == "no"
        assert d.certificate["failed_condition"] == "DominantNonnegativityFails"
        ev = d.certificate["evidence"]
        assert sum(ev["witness_exponents"]) <= 2
        assert ev["eigenvalue"][0] < 0

    def test_diag_pair_yes(self):
        d = decide_simdiag([np.diag([2.0, 1.0]), np.diag([3.0, 1.0])])
        assert d.answer == "yes"
        assert d.certificate["exact"]
        assert contains(d.witness, [1.0, 0.0]).inside
        for M in (np.diag([2.0, 1.0]), np.diag([3.0, 1.0])):
            assert is_invariant(d.witness, M).invariant

    def test_sign_pair_prefers_nonnegativity_certificate(self):
        d = decide_simdiag([np.diag([1.0, -1.0]), np.diag([-1.0, 1.0])])
        assert d.answer == "no"
        assert d.certificate["failed_condition"] == "DominantNonnegativityFails"

    def test_sign_pair_no(self):
        d = decide_simdiag([np.diag([1.0, -1.0]), np.diag([-1.0, 1.0])])
        assert d.answer == "no"

    def test_negative_scalar_rejected(self):
        d = decide_simdiag([-2.0 * np.eye(2)])
        assert d.answer == "no"
        assert d.certificate["failed_condition"] in (
            "DominantNonnegativityFails", "NonVandergraftProduct",
        )

    def test_rotation_rejected_via_products(self):
        # no real-nonnegative dominant product at the very first power
        R = np.array([[0.0, -1.0], [1.0, 0.0]])
        d = decide_simdiag([R])
        assert d.answer == "no"
        assert d.certificate["failed_condition"] == "NonVandergraftProduct"

    def test_dominant_labels_survive_rounding_level_similarity(self):
        # blocks 0 and 1 tie in the first member, so their order rests on
        # later members: equal eigenvalues of one member share one cluster
        # mean, and rounding cannot reorder them
        rng = np.random.default_rng(3)
        S = rng.normal(size=(4, 4)) + 3 * np.eye(4)
        mats = [S @ np.diag(d) @ np.linalg.inv(S)
                for d in ([1.5, 1.5, 0.4, -0.3], [0.9, 0.5, 0.2, 0.1], [2.0, 2.0, -1.0, 0.5])]
        base = decide_simdiag(mats, seed=1729)
        assert base.answer == "yes"
        for _ in range(5):
            P = np.eye(4) + 1e-13 * rng.normal(size=(4, 4))
            d = decide_simdiag([P @ M @ np.linalg.inv(P) for M in mats], seed=1729)
            assert d.answer == "yes"
            assert d.certificate["dominant_blocks"] == base.certificate["dominant_blocks"]

    def test_agrees_with_planar_decision(self):
        rng = np.random.default_rng(11)
        for trial in range(200):
            fam = commuting_diag_2x2(rng, size=2)
            d1 = decide_simdiag(fam, seed=trial)
            d2 = decide_common_2x2(fam)
            assert (d1.answer == "yes") == (d2.answer == "yes")


class TestConstruction:
    def test_single_diag(self):
        form = simultaneous_diagonalize([np.diag([2.0, 1.0])])
        K, report = construct_simdiag_cone(form)
        assert report["defect"] <= 1e-12
        assert is_proper(K)
        assert is_invariant(K, np.diag([2.0, 1.0])).invariant

    def test_identity(self):
        form = simultaneous_diagonalize([np.eye(3)])
        K, report = construct_simdiag_cone(form)
        assert report["defect"] <= 1e-12
        assert is_invariant(K, np.eye(3)).invariant

    def test_defect_bound(self):
        form = simultaneous_diagonalize([np.diag([2.0, 1.0]), np.diag([3.0, 1.0])])
        assert construct_simdiag_cone(form)[1]["defect"] < 1e-6

    def test_rotation_block_cone(self):
        th = 0.7
        M = np.zeros((3, 3))
        M[0, 0] = 2.0
        M[1:, 1:] = 0.5 * np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        form = simultaneous_diagonalize([M])
        K, report = construct_simdiag_cone(form)
        assert report["defect"] < 1e-6
        assert report["pointedness"] == "verified"
        assert is_proper(K)
        rep = is_invariant(K, M)
        assert rep.max_distance < 1e-6


def contractive(s):
    return contractive_commuting_blocks(np.random.default_rng(s), 3 + s % 3, 2 + s % 2)


class TestGaugeWitness:
    # a single dominant block bounds every tail of these families, whose
    # witnesses a word-length-12 NNLS closure once left non-invariant
    @pytest.mark.parametrize("s", [74, 194, 252, 274, 287, 704, 974, 1246, 1304, 1342, 1816, 1864,
                                   2066, 2316, 2555])
    def test_invariant_by_construction(self, s):
        fam = contractive(s)
        d = decide_simdiag(fam, seed=1729)
        assert d.answer == "yes"
        assert d.certificate["construction"]["method"] == "gauge"
        for M in fam:
            assert is_invariant(d.witness, M).invariant

    @pytest.mark.parametrize("s", [1441, 1976, 2764])
    def test_tail_without_a_single_bounding_head_is_undecided(self, s):
        # the criterion holds, but some tail has a ratio above 1 to every head
        d = decide_simdiag(contractive(s), seed=1729)
        assert (d.answer, d.route) == ("undecided", "simdiag")
        assert d.certificate["failed_condition"] == "HypothesesNotMet"
        evidence = d.certificate["evidence"]
        assert evidence["hypothesis"] == "NoGaugeWitness"
        assert evidence["dominant_blocks"] and "tail block" in evidence["detail"]

    def test_near_unit_complex_ratio_keeps_the_polygon_small(self):
        # r = 0.999999 would need a 2222-gon, above the cap: no witness is built
        M = np.zeros((3, 3))
        M[0, 0] = 1.0
        M[1:, 1:] = 0.999999 * np.array([[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]])
        with pytest.raises(HypothesesNotMet) as exc:
            construct_simdiag_cone(simultaneous_diagonalize([M]))
        assert exc.value.hypothesis == "NoGaugeWitness"
        d = decide_simdiag([M])
        assert (d.answer, d.route) == ("undecided", "simdiag")
        assert d.certificate["evidence"]["hypothesis"] == "NoGaugeWitness"

    @pytest.mark.parametrize("s", [30, 102, 229])
    def test_witness_does_not_depend_on_member_order(self, s):
        fam = contractive(s)
        G = decide_simdiag(fam, seed=1729).witness.generators
        R = decide_simdiag(fam[::-1], seed=1729).witness.generators
        assert G.shape == R.shape
        assert np.allclose(G, R, atol=1e-9)

    def test_two_column_block_witness_does_not_depend_on_member_order(self):
        # a 3x3 family whose dominant block has two columns: every member is
        # scalar on a tied plane, and the witness rests on that plane's basis
        fam = [np.array(M) for M in (
            [[0.17092733498927126, -0.13305356712063582, 0.1743086283841614],
             [-2.5266449852164437, 0.41283237110001764, 0.6174833768070548],
             [0.4121008399776304, 0.07687624866650312, 0.7834580912105616]],
            [[0.3120517244833036, -0.09594597256582933, 0.12569532135707967],
             [-1.821983549042099, 0.4864913465129328, 0.4452721141799196],
             [0.2971691533155193, 0.05543606687998532, 0.7537524650493171]],
            [[0.03114352189066303, -0.09173481377917524, 0.12017843573052558],
             [-1.742014981039689, 0.19792682518792779, 0.42572870317541606],
             [0.28412612026638734, 0.0530029258747282, 0.4534576023920242]],
            [[0.37115345921742876, -0.03757450499054882, 0.04922498936971824],
             [-0.7135279170702983, 0.4394677643749972, 0.17437812999317312],
             [0.11637782739270341, 0.02170995525851024, 0.5441329625450921]])]
        assert 2 in simultaneous_diagonalize(unit_members(fam)).block_sizes
        d, r = decide_simdiag(fam), decide_simdiag(fam[::-1])
        assert d.answer == r.answer == "yes"
        G, R = d.witness.generators, r.witness.generators
        assert G.shape == R.shape
        assert np.allclose(G, R, atol=1e-9)


# The contractive probe seeds below 3000 that answer YES.  1441, 1976 and
# 2764 meet the criterion too, but have no gauge witness and are undecided.
GAUGE_SEEDS = (30, 74, 76, 102, 148, 194, 229, 232, 234, 252, 274, 287, 318, 354, 422, 486, 525, 545, 564, 566,
               572, 576, 642, 672, 690, 698, 704, 718, 738, 757, 760, 814, 852, 942, 960, 974, 1004, 1012, 1246,
               1248, 1304, 1322, 1328, 1342, 1408, 1426, 1434, 1476, 1544, 1596, 1600, 1700, 1743, 1816, 1846,
               1864, 1892, 1996, 1998, 2006, 2031, 2035, 2066, 2072, 2080, 2103, 2169, 2222, 2224, 2286, 2316,
               2334, 2472, 2509, 2524, 2555, 2584, 2598, 2655, 2721, 2737, 2802, 2890, 2937)


def pruned_reference(form, dominant, tol=DEFAULT_TOL):
    """The gauge witness as projections build it: the seeds of
    `construct_simdiag_cone`, each kept unless the earlier ones absorb it,
    then pruned by `prune_generators`."""
    P = sorted(dominant.indices)
    offsets = np.cumsum((0,) + form.block_sizes)
    columns = [np.real(form.S[:, offsets[i]:offsets[i + 1]]) for i in P]
    seeds = [c for block in columns for c in block.T]
    for i, partner in enumerate(form.conj_partner):
        if i in P or (partner is not None and partner < i):
            continue
        r = (np.abs(form.lambda_table[i]) / form.lambda_table[P].real).max(axis=1)  # per head block
        e = columns[int(np.argmin(r))].sum(axis=1)
        n = 2 if partner is None else max(3, math.ceil(math.pi / math.acos(r.min())))
        for s in form.S[:, offsets[i]:offsets[i + 1]].T:
            seeds += [e + math.cos(2 * math.pi * a / n) * s.real + math.sin(2 * math.pi * a / n) * s.imag
                      for a in range(n)]
    gens = []
    for v in map(unit, seeds):
        if not gens or nnls_distance(np.array(gens).T, v) > tol.geom_tol:
            gens.append(v)
    return prune_generators(PolyhedralCone(form.dim, np.array(gens)), tol)


@pytest.fixture
def nnls_calls(monkeypatch):
    """One entry per `nnls_distance` call made by the package."""
    calls, real = [], conelab.cones.nnls_distance

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(conelab.cones, "nnls_distance", counting)
    return calls


class TestGaugeCertificates:
    """Gauge witnesses are pruned by structure and their images certified by closed-form coefficients."""

    def test_witness_equals_the_pruned_reference_with_one_projection(self, nnls_calls):
        families = [positive_heads(np.random.default_rng(s), 2 + s % 3) for s in range(12)]
        families += [contractive(s) for s in GAUGE_SEEDS]
        families.append(list(spiral3().matrices))
        for fam in families:
            nnls_calls.clear()
            d = decide_simdiag(fam, seed=1729)
            assert d.answer == "yes" and d.certificate["construction"]["method"] == "gauge"
            assert len(nnls_calls) <= 1  # `is_proper`'s; every image is certified
            form = simultaneous_diagonalize(unit_members(fam), seed=1729)
            ref = pruned_reference(form, dominant_index_set(form))
            assert d.witness.generators.tobytes() == ref.generators.tobytes()

    def test_ill_conditioned_images_take_the_projection(self, nnls_calls, monkeypatch):
        # each member is T diag(1, a I + b [[0, 1], [0, eps]]) T^-1: the tail
        # pair's eigenvectors are eps apart, so the coordinates of an image
        # carry rounding of order cond(F) eps_mach, above geom_tol
        T = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
        fam = []
        for a, b in ((0.5, 0.4), (0.3, 0.9)):
            D = np.zeros((3, 3))
            D[0, 0] = 1.0
            D[1:, 1:] = a * np.eye(2) + b * np.array([[0.0, 1.0], [0.0, 1e-7]])
            fam.append(T @ D @ np.linalg.inv(T))
        d = decide_simdiag(fam)
        assert d.answer == "yes" and len(nnls_calls) > 1

        def uncertified(K, v, tol=DEFAULT_TOL, coefficients=None):
            return contains(K, v, tol)

        monkeypatch.setattr(simdiag, "contains", uncertified)
        r = decide_simdiag(fam)
        assert r.answer == d.answer
        assert r.certificate["construction"]["method"] == d.certificate["construction"]["method"] == "gauge"
        assert r.witness.generators.tobytes() == d.witness.generators.tobytes()

    def test_image_outside_the_gauge_cone_is_undecided(self, monkeypatch):
        # no gauge image is known to fall outside; a membership oracle that
        # rejects them all stands in for one
        monkeypatch.setattr(simdiag, "contains", lambda K, v, tol, coefficients=None: MembershipResult(False, 1.0))
        d = decide_simdiag(list(spiral3().matrices))
        assert (d.answer, d.route) == ("undecided", "simdiag")
        assert d.certificate["evidence"]["hypothesis"] == "NoGaugeWitness"
        assert "outside the gauge cone" in d.certificate["evidence"]["detail"]

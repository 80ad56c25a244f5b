import json
import subprocess
import sys

import numpy as np
import pytest

import conelab.linalg
from conelab.cli import main
from conelab.cones import is_invariant
from conelab.fixtures import ex7_2
from conelab.schemas import cone_from_json, dumps, family_to_json
from conelab.planar import classify2


@pytest.fixture
def emit(tmp_path):
    def _emit(name):
        path = tmp_path / f"{name.replace('(', '_').replace(')', '')}.json"
        assert main(["fixtures", "emit", name, "--out", str(path)]) == 0
        return str(path)

    return _emit


@pytest.fixture
def decompositions(monkeypatch):
    """Caller names of eigen_decompose calls, counted in every conelab module that binds it."""
    original = conelab.linalg.eigen_decompose
    callers = []

    def counted(*args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("conelab") and getattr(mod, "eigen_decompose", None) is original:
            monkeypatch.setattr(mod, "eigen_decompose", counted)
    return callers


class TestExitCodes:
    def test_yes(self, emit, tmp_path):
        assert main(["common", emit("diag_pair"), "--out", str(tmp_path / "d.json")]) == 0

    def test_no(self, emit, tmp_path):
        assert main(["common", emit("ex7_1"), "--out", str(tmp_path / "d.json")]) == 1

    def test_undecided(self, emit, tmp_path):
        code = main(["common", emit("ex7_4"), "--method", "shared-dominant",
                     "--out", str(tmp_path / "d.json")])
        assert code == 3
        payload = json.loads((tmp_path / "d.json").read_text())
        assert payload["answer"] == "undecided"
        assert payload["certificate"]["evidence"]["hypothesis"] == "NotSemisimple"

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["classify", str(bad)]) == 2

    def test_bad_schema(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dimension": 2, "matrices": [[[1, 2], [3]]]}))
        assert main(["classify", str(bad)]) == 2

    def test_unknown_fixture(self, tmp_path):
        assert main(["fixtures", "emit", "nope", "--out", str(tmp_path / "x.json")]) == 2


class TestClassify:
    def test_ex7_1(self, emit, capsys):
        assert main(["classify", emit("ex7_1")]) == 0
        out = capsys.readouterr().out
        assert "A: Vandergraft" in out and "B: Vandergraft" in out
        assert "all 30 words are Vandergraft" in out

    def test_rotation_reported(self, tmp_path, capsys):
        path = tmp_path / "rot.json"
        path.write_text(json.dumps({
            "dimension": 2, "matrices": [[[0, -1], [1, 0]]],
        }))
        assert main(["classify", str(path)]) == 0
        assert "not Vandergraft: rho-not-eigenvalue" in capsys.readouterr().out

    def test_ex7_5_word_screen_clean(self, emit, capsys):
        assert main(["classify", emit("ex7_5")]) == 0
        assert "all 30 words are Vandergraft" in capsys.readouterr().out

    def test_huge_members(self, tmp_path, capsys):
        # the raw word products would overflow to inf at this scale
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"dimension": 3, "matrices": [np.diag([3e200, 2e200, 1e200]).tolist()]}))
        assert main(["classify", str(path)]) == 0
        out = capsys.readouterr().out
        assert "A0: Vandergraft, dominant eigenvalue 3e+200" in out
        assert "all 4 words are Vandergraft" in out


class TestVerify:
    def test_orthant_identity(self, tmp_path):
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps({"dimension": 2, "matrices": [[[1, 0], [0, 1]]]}))
        cone = tmp_path / "cone.json"
        cone.write_text(json.dumps({
            "type": "polyhedral", "dim": 2, "generators": [[1, 0], [0, 1]],
        }))
        assert main(["verify", str(fam), str(cone)]) == 0

    def test_known_witness_pair_passes_and_third_fails(self, tmp_path, capsys):
        A, B, C = ex7_2().matrices
        pair = tmp_path / "pair.json"
        pair.write_text(dumps(family_to_json(
            __import__("conelab.fixtures", fromlist=["FamilyData"]).FamilyData(2, (A, B)))))
        s5 = np.sqrt(5)
        cone = tmp_path / "cone.json"
        cone.write_text(json.dumps({
            "type": "polyhedral", "dim": 2,
            "generators": [[1, 0], [1 / s5, 2 / s5]],
        }))
        assert main(["verify", str(pair), str(cone)]) == 0
        triple = tmp_path / "triple.json"
        triple.write_text(dumps(family_to_json(ex7_2())))
        assert main(["verify", str(triple), str(cone)]) == 1
        assert "VIOLATION" in capsys.readouterr().out

    def test_dimension_mismatch(self, tmp_path):
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps({"dimension": 3, "matrices": [np.eye(3).tolist()]}))
        cone = tmp_path / "cone.json"
        cone.write_text(json.dumps({"type": "polyhedral", "dim": 2, "generators": [[1, 0]]}))
        assert main(["verify", str(fam), str(cone)]) == 2


class TestDeterminism:
    def test_byte_identical_decisions(self, emit, tmp_path):
        fam = emit("ex7_2")
        outs = []
        for name in ("a.json", "b.json"):
            main(["common", fam, "--seed", "5", "--reproducible", "--out", str(tmp_path / name)])
            outs.append((tmp_path / name).read_bytes())
        assert outs[0] == outs[1]

    def test_seed_env_override(self, emit, tmp_path, monkeypatch):
        fam = emit("diag_pair")
        monkeypatch.setenv("CONELAB_SEED", "421")
        main(["common", fam, "--reproducible", "--out", str(tmp_path / "d.json")])
        assert json.loads((tmp_path / "d.json").read_text())["seed"] == 421

    def test_seed_does_not_carry_over_between_calls(self, emit, tmp_path, monkeypatch):
        # one parser serves every call in a process; a later call without
        # --seed must still get the default
        fam = emit("diag_pair")
        monkeypatch.delenv("CONELAB_SEED", raising=False)
        main(["common", fam, "--seed", "5", "--reproducible", "--out", str(tmp_path / "a.json")])
        main(["common", fam, "--reproducible", "--out", str(tmp_path / "b.json")])
        assert json.loads((tmp_path / "a.json").read_text())["seed"] == 5
        assert json.loads((tmp_path / "b.json").read_text())["seed"] == 1729

    def test_plot_bytes_deterministic(self, emit, tmp_path):
        fam = emit("ex7_2")
        svgs = []
        for name in ("p1.svg", "p2.svg"):
            assert main(["plot", fam, "--out", str(tmp_path / name)]) == 0
            svgs.append((tmp_path / name).read_bytes())
        assert svgs[0] == svgs[1]
        assert svgs[0].startswith(b"<svg")

    def test_plot_rejects_3d(self, emit, tmp_path):
        assert main(["plot", emit("ex7_5"), "--out", str(tmp_path / "p.svg")]) == 2

    def test_plot_with_decision_overlay(self, emit, tmp_path):
        fam = emit("diag_pair")
        dec = tmp_path / "d.json"
        assert main(["common", fam, "--reproducible", "--out", str(dec)]) == 0
        out = tmp_path / "p.svg"
        assert main(["plot", fam, "--decision", str(dec), "--out", str(out)]) == 0
        assert "decision: yes" in out.read_text()


class TestOptionRanges:
    """An out-of-range option is malformed input (exit 2) that names the
    option, never a traceback or a verdict."""

    @pytest.fixture
    def diag3(self, tmp_path):
        path = tmp_path / "diag3.json"
        mats = [np.diag([3.0, 2.0, 1.0]).tolist(), np.diag([2.0, 1.0, 1.5]).tolist()]
        path.write_text(json.dumps({"dimension": 3, "matrices": mats}))
        return str(path)

    @pytest.mark.parametrize("flag", ["--eig-tol", "--rank-tol", "--geom-tol"])
    @pytest.mark.parametrize("value", ["0", "-1e-8", "nan", "inf"])
    def test_tolerance_must_be_finite_and_positive(self, diag3, tmp_path, capsys, flag, value):
        assert main(["common", diag3, f"{flag}={value}", "--out", str(tmp_path / "d.json")]) == 2
        assert flag in capsys.readouterr().err

    def test_negative_bound(self, emit, tmp_path, capsys):
        # the 2x2 route has no exponent search, but the option is still checked
        assert main(["common", emit("diag_pair"), "--bound=-1", "--out", str(tmp_path / "d.json")]) == 2
        assert "--bound" in capsys.readouterr().err

    def test_negative_samples(self, tmp_path, capsys):
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps({"dimension": 2, "matrices": [[[1, 0], [0, 1]]]}))
        cone = tmp_path / "cone.json"
        cone.write_text(json.dumps({"type": "polyhedral", "dim": 2, "generators": [[1, 0], [0, 1]]}))
        assert main(["verify", str(fam), str(cone), "--samples=-1"]) == 2
        assert "--samples" in capsys.readouterr().err

    def test_negative_seed(self, diag3, tmp_path, capsys):
        assert main(["common", diag3, "--seed=-5", "--out", str(tmp_path / "d.json")]) == 2
        assert "--seed" in capsys.readouterr().err

    def test_negative_seed_env(self, diag3, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CONELAB_SEED", "-5")
        assert main(["common", diag3, "--out", str(tmp_path / "d.json")]) == 2
        assert "CONELAB_SEED" in capsys.readouterr().err

    def test_wordlen_below_one(self, diag3, capsys):
        assert main(["classify", diag3, "--wordlen", "0"]) == 2
        assert "--wordlen" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_common_wordlen_below_one(self, diag3, tmp_path, capsys, value):
        assert main(["common", diag3, f"--wordlen={value}", "--out", str(tmp_path / "d.json")]) == 2
        assert "--wordlen" in capsys.readouterr().err


class TestRouting:
    def _rotation_family(self):
        out = []
        for th in (0.3, 1.1):
            M = np.zeros((3, 3))
            M[0, 0] = 2.0
            M[1:, 1:] = [[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]]
            out.append(M.tolist())
        return out

    def test_shared_dominant_quadratic_witness_verifies(self, tmp_path):
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps({"dimension": 3, "matrices": self._rotation_family()}))
        dec = tmp_path / "d.json"
        assert main(["common", str(fam), "--method", "shared-dominant",
                     "--reproducible", "--out", str(dec)]) == 0
        payload = json.loads(dec.read_text())
        assert payload["witness"]["type"] == "quadratic"
        cone = tmp_path / "w.json"
        cone.write_text(json.dumps(payload["witness"]))
        assert main(["verify", str(fam), str(cone)]) == 0

    def test_similarity_field_feeds_case_one(self, tmp_path):
        T = np.array([[1.0, 0.4, 0.0], [0.0, 1.0, 0.3], [0.0, 0.0, 1.0]])
        Ti = np.linalg.inv(T)
        mats = [(T @ np.array(M) @ Ti).tolist() for M in self._rotation_family()]
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps({"dimension": 3, "matrices": mats, "similarity": T.tolist()}))
        assert main(["common", str(fam), "--method", "shared-dominant",
                     "--reproducible", "--out", str(tmp_path / "d.json")]) == 0

    def test_no_applicable_procedure(self, tmp_path):
        # non-commuting, non-normal 3x3 members without a shared dominant vector
        A = np.diag([2.0, 1.0, 0.5]) + np.triu(np.ones((3, 3)), 1)
        B = np.diag([1.0, 3.0, 0.2]) + np.tril(np.ones((3, 3)), -1) * 0.5
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps({"dimension": 3, "matrices": [A.tolist(), B.tolist()]}))
        dec = tmp_path / "d.json"
        assert main(["common", str(fam), "--reproducible", "--out", str(dec)]) == 3
        assert json.loads(dec.read_text())["route"] == "none-applicable"

    def test_1x1_family_on_shared_dominant_is_undecided(self, tmp_path):
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps({"dimension": 1, "matrices": [[[2.0]], [[0.5]]]}))
        dec = tmp_path / "d.json"
        assert main(["common", str(fam), "--method", "shared-dominant",
                     "--reproducible", "--out", str(dec)]) == 3
        payload = json.loads(dec.read_text())
        assert payload["answer"] == "undecided"
        assert payload["certificate"]["evidence"]["hypothesis"] == "DimensionMismatch"

    @pytest.mark.parametrize("method", ["auto", "shared-dominant"])
    def test_non_vandergraft_member_is_definitive_no(self, tmp_path, method):
        # dominant complex pair: the member alone has no invariant proper cone
        R = np.diag([0.5, 0.0, 0.0])
        R[1:, 1:] = 2.0 * np.array([[np.cos(0.4), -np.sin(0.4)], [np.sin(0.4), np.cos(0.4)]])
        A = np.diag([2.0, 1.0, 0.5]) + np.triu(np.ones((3, 3)), 1)
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps({"dimension": 3, "matrices": [A.tolist(), R.tolist()]}))
        dec = tmp_path / "d.json"
        assert main(["common", str(fam), "--method", method, "--reproducible",
                     "--out", str(dec)]) == 1
        payload = json.loads(dec.read_text())
        assert payload["route"] == "shared-dominant"
        assert payload["certificate"]["failed_condition"] == "NotVandergraftInA1"
        assert payload["certificate"]["evidence"]["member"] == "A1"

    def test_each_member_is_decomposed_once(self, tmp_path, decompositions):
        # non-commuting normal family sharing the dominant vector e1
        def rot(i, j, th):
            M = np.diag([3.0, 1.0, 1.0, 1.0])
            M[i, i] = M[j, j] = np.cos(th)
            M[i, j], M[j, i] = -np.sin(th), np.sin(th)
            return M
        mats = [rot(1, 2, 0.3), rot(2, 3, 0.7), rot(1, 3, 1.1)]
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps({"dimension": 4, "matrices": [M.tolist() for M in mats]}))
        dec = tmp_path / "d.json"
        assert main(["common", str(fam), "--reproducible", "--out", str(dec)]) == 0
        assert json.loads(dec.read_text())["route"] == "shared-dominant"
        assert len(decompositions) == 3

    @pytest.mark.parametrize("mu, nu", [(0.5, 0.4), (-0.8, 1.0), (0.95, 1.0)])
    def test_commuting_jordan_family_takes_shared_dominant(self, tmp_path, decompositions, mu, nu):
        # the Jordan block splits under rounding, so simdiag cannot refine it
        T = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])

        def member(c, a, b):
            return c * T @ np.array([[1.0, 0.0, 0.0], [0.0, a, b], [0.0, 0.0, a]]) @ np.linalg.inv(T)

        mats = [member(1.0, mu, nu), member(1.5, 0.7 * mu, 0.4 * nu)]
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps({"dimension": 3, "matrices": [M.tolist() for M in mats]}))
        dec = tmp_path / "d.json"
        assert main(["common", str(fam), "--reproducible", "--out", str(dec)]) == 0
        payload = json.loads(dec.read_text())
        assert payload["route"] == "shared-dominant"
        K = cone_from_json(payload["witness"])
        for M in mats:
            assert is_invariant(K, M).invariant
        # deflation splits the family by one joint kernel/range SVD
        assert "deflate" not in decompositions
        assert main(["common", str(fam), "--method", "simdiag", "--reproducible",
                     "--out", str(dec)]) == 3

    def test_jordan_pair_split_within_the_cut_takes_shared_dominant(self, tmp_path):
        # M = T diag(1, [[0.9, 1], [0, 0.9]]) T^-1 for T = [[-1, -1, -2], [2, 2, -1],
        # [-3, -2, -2]] and M^2, as rounded in double precision.  At unit norm M's
        # block comes back as 0.9 +- i delta with delta = 0.84 of the cut: one
        # cluster of degree 2, so the family is not diagonalizable
        M = [[1.18, 0.23999999999999994, 0.09999999999999995],
             [-0.56, 0.4200000000000001, -0.1999999999999999],
             [0.4400000000000004, 0.52, 1.1999999999999995]]
        M2 = [[1.3019999999999998, 0.4359999999999999, 0.18999999999999986],
              [-0.9840000000000002, -0.06199999999999984, -0.3799999999999997],
              [0.7560000000000007, 0.9479999999999998, 1.3799999999999988]]
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps({"dimension": 3, "matrices": [M, M2]}))
        dec = tmp_path / "d.json"
        assert main(["common", str(fam), "--reproducible", "--out", str(dec)]) == 0
        payload = json.loads(dec.read_text())
        assert payload["route"] == "shared-dominant"
        K = cone_from_json(payload["witness"])
        assert all(is_invariant(K, np.array(A)).invariant for A in (M, M2))

    def test_commuting_2x2_jordan_pair_is_not_a_no(self, tmp_path):
        # both members are T [[1, nu], [0, 1]] T^-1 for T = [[-3, -3], [-3, -2]]
        # and nu = 1, 1/2, so the 2x2 route finds a common cone; scaling to
        # unit norm rounds each block apart, which must not read as a NO
        mats = [[[4.0, -3.0], [3.0, -2.0]], [[2.5, -1.5], [1.5, -0.5]]]
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps({"dimension": 2, "matrices": mats}))
        dec = tmp_path / "d.json"
        assert main(["common", str(fam), "--reproducible", "--out", str(dec)]) == 0
        assert main(["common", str(fam), "--method", "shared-dominant", "--reproducible",
                     "--out", str(dec)]) == 3
        assert json.loads(dec.read_text())["route"] == "shared-dominant"


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "conelab.cli", "fixtures", "list"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "ex7_1" in proc.stdout


def test_fixture_matrices_match_classify_kinds(emit):
    # the emitted files reproduce the intended case split when reloaded
    from conelab.schemas import family_from_json

    fd = family_from_json(json.load(open(emit("ex7_1"))))
    kinds = [classify2(M).kind for M in fd.matrices]
    assert kinds == ["NegDet", "NegDet"]

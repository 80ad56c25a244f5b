import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import conelab
import conelab.linalg
from conelab.cli import main
from conelab.cones import contains, is_invariant, sample_points
from conelab.fixtures import ex7_2, fixture_names
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

    def test_dimension_above_the_cap(self, tmp_path, capsys):
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps({"dimension": 33, "matrices": [np.diag(np.arange(33.0, 0.0, -1.0)).tolist()]}))
        assert main(["common", str(fam), "--out", str(tmp_path / "d.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "cap 32" in err


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

    def test_member_whose_norm_overflows(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"dimension": 2, "matrices": [[[1.5e308, 1.5e308], [0, 1.5e308]]]}))
        assert main(["classify", str(path)]) == 0
        out = capsys.readouterr().out
        assert "A0: Vandergraft, dominant eigenvalue 1.5e+308" in out
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

    def test_probe_images_near_the_float_limit(self, tmp_path, capsys):
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps({"dimension": 2, "matrices": [[[1e308, 1e308], [0, 1e308]]]}))
        cone = tmp_path / "cone.json"
        cone.write_text(json.dumps({"type": "polyhedral", "dim": 2, "generators": [[1, 0], [0, 1]]}))
        assert main(["verify", str(fam), str(cone)]) == 0
        assert "100 points x 1 matrices, 0 violations" in capsys.readouterr().out

    def test_generator_images_near_the_float_limit(self, tmp_path, capsys):
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps({"dimension": 2, "matrices": [[[1.5e308, 1.5e308], [0, 1.5e308]]]}))
        cone = tmp_path / "cone.json"
        cone.write_text(json.dumps({"type": "polyhedral", "dim": 2, "generators": [[1, 0], [1, 1]]}))
        assert main(["verify", str(fam), str(cone)]) == 0
        assert "A0: ok (method=generators, max distance 0.000e+00)" in capsys.readouterr().out

    def test_dimension_mismatch(self, tmp_path):
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps({"dimension": 3, "matrices": [np.eye(3).tolist()]}))
        cone = tmp_path / "cone.json"
        cone.write_text(json.dumps({"type": "polyhedral", "dim": 2, "generators": [[1, 0]]}))
        assert main(["verify", str(fam), str(cone)]) == 2


def _planted_cones():
    """(family, cone) pairs whose cone is not invariant under the family."""
    c, s = np.cos(0.4), np.sin(0.4)
    rotation = [[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]
    wide = {"type": "polyhedral", "dim": 3, "generators": [[1, 0, 0], [1, 1, 0], [0, 1, 1], [0, 0, 1]]}
    ice = {"type": "quadratic", "dim": 3, "axis": [1, 0, 0], "form": [[1, 0], [0, 1]],
           "complementBasis": [[0, 1, 0], [0, 0, 1]]}
    return [([rotation, np.eye(3).tolist()], wide), ([np.diag([1.0, 2.0, 0.5]).tolist()], ice)]


class TestVerifyProbes:
    """The probe count printed by `verify` is that of a scalar `contains` loop."""

    @staticmethod
    def scalar_count(fam, cone, samples, seed):
        K = cone_from_json(json.loads(Path(cone).read_text()))
        mats = [np.array(M) for M in json.loads(Path(fam).read_text())["matrices"]]
        pts = sample_points(K, samples, seed)
        return sum(not contains(K, M @ p).inside for M in mats for p in pts)

    def check(self, fam, cone, capsys, samples=300, seed=5):
        rc = main(["verify", str(fam), str(cone), "--samples", str(samples), "--seed", str(seed)])
        bad = int(capsys.readouterr().out.split(" matrices, ")[-1].split()[0])
        assert bad == self.scalar_count(fam, cone, samples, seed)
        return rc, bad

    @pytest.mark.parametrize("name", ["ex7_6_prefix(3)", "spiral3"])
    def test_fixture_witness(self, emit, tmp_path, capsys, name):
        fam, dec = emit(name), tmp_path / "d.json"
        assert main(["common", fam, "--reproducible", "--out", str(dec)]) == 0
        cone = tmp_path / "w.json"
        cone.write_text(json.dumps(json.loads(dec.read_text())["witness"]))
        assert self.check(fam, cone, capsys) == (0, 0)

    @pytest.mark.parametrize("planted", _planted_cones(), ids=["polyhedral", "quadratic"])
    def test_planted_non_invariant_cone(self, tmp_path, capsys, planted):
        mats, cone_json = planted
        fam, cone = tmp_path / "fam.json", tmp_path / "cone.json"
        fam.write_text(json.dumps({"dimension": 3, "matrices": mats}))
        cone.write_text(json.dumps(cone_json))
        rc, bad = self.check(fam, cone, capsys)
        assert rc == 1 and bad > 0

    def test_no_samples(self, tmp_path, capsys):
        mats, cone_json = _planted_cones()[0]
        fam, cone = tmp_path / "fam.json", tmp_path / "cone.json"
        fam.write_text(json.dumps({"dimension": 3, "matrices": mats}))
        cone.write_text(json.dumps(cone_json))
        assert main(["verify", str(fam), str(cone), "--samples", "0"]) == 1
        assert "membership probes: 0 points x 2 matrices, 0 violations" in capsys.readouterr().out


def _yes_decision(witness) -> dict:
    return {"schema": "conelab/decision-v1", "answer": "yes", "witness": witness}


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

    @pytest.mark.parametrize("decision", [
        _yes_decision({"type": "polyhedral", "dim": 2, "generators": [[1, "a"], [0, 1]]}),
        _yes_decision({"type": "polyhedral", "dim": 2, "generators": [[1e400, 0], [0, 1]]}),
        _yes_decision({"type": "polyhedral", "dim": 2}),
        _yes_decision({"type": "polyhedral", "dim": 3, "generators": [[1, 0, 0], [0, 1, 0]]}),
        _yes_decision([[1, 0], [0, 1]]),
        [],
    ])
    def test_plot_rejects_a_malformed_decision(self, emit, tmp_path, decision):
        dec = tmp_path / "d.json"
        dec.write_text(json.dumps(decision))
        assert main(["plot", emit("diag_pair"), "--decision", str(dec), "--out", str(tmp_path / "p.svg")]) == 2

    def test_plot_draws_the_sector_between_the_extreme_rays(self, emit, tmp_path):
        dec = tmp_path / "d.json"
        dec.write_text(json.dumps(_yes_decision(
            {"type": "polyhedral", "dim": 2, "generators": [[1, 0.1], [1, -0.1], [1, 0]]})))
        out = tmp_path / "p.svg"
        assert main(["plot", emit("diag_pair"), "--decision", str(dec), "--out", str(out)]) == 0
        c, s = 1 / np.hypot(1, 0.1), 0.1 / np.hypot(1, 0.1)
        lo = f"{210 + 180 * c:.4f} {210 + 180 * s:.4f}"  # the -5.7 degree ray (svg y points down)
        hi = f"{210 + 180 * c:.4f} {210 - 180 * s:.4f}"
        assert f"L {lo} A 180.0000 180.0000 0 0 0 {hi} Z" in out.read_text()


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
        # common takes no --wordlen at all, so a below-one value is still malformed input
        with pytest.raises(SystemExit) as exc:
            main(["common", diag3, f"--wordlen={value}", "--out", str(tmp_path / "d.json")])
        assert exc.value.code == 2
        assert "--wordlen" in capsys.readouterr().err

    def test_common_has_no_wordlen(self, diag3, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["common", diag3, "--wordlen", "12", "--out", str(tmp_path / "d.json")])
        assert exc.value.code == 2
        assert "--wordlen" in capsys.readouterr().err

    def test_seed_env_not_an_integer(self, diag3, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CONELAB_SEED", "abc")
        assert main(["common", diag3, "--out", str(tmp_path / "d.json")]) == 2
        assert "CONELAB_SEED must be an integer" in capsys.readouterr().err


class TestRouting:
    def test_simdiag_family_without_gauge_witness_is_undecided(self, tmp_path):
        # a complex tail of ratio 0.999999 to the head: its gauge would need a 2222-gon
        M = np.zeros((3, 3))
        M[0, 0] = 1.0
        M[1:, 1:] = 0.999999 * np.array([[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]])
        fam, dec = tmp_path / "fam.json", tmp_path / "d.json"
        fam.write_text(json.dumps({"dimension": 3, "matrices": [M.tolist()]}))
        assert main(["common", str(fam), "--reproducible", "--out", str(dec)]) == 3
        payload = json.loads(dec.read_text())
        assert payload["route"] == "simdiag"
        assert payload["certificate"]["evidence"]["hypothesis"] == "NoGaugeWitness"

    def test_decision_goes_to_stdout_without_out(self, emit, tmp_path, capsys):
        fam = emit("diag_pair")
        assert main(["common", fam, "--reproducible", "--out", str(tmp_path / "d.json")]) == 0
        capsys.readouterr()
        assert main(["common", fam, "--reproducible"]) == 0
        assert capsys.readouterr().out == (tmp_path / "d.json").read_text()

    @pytest.mark.parametrize("name, code", [("ex7_6_prefix(3)", 0), ("ex7_1", 1)])
    def test_2x2_method_matches_auto(self, emit, tmp_path, name, code):
        fam = emit(name)
        for method in ("auto", "2x2"):
            assert main(["common", fam, "--method", method, "--reproducible",
                         "--out", str(tmp_path / f"{method}.json")]) == code
        assert (tmp_path / "auto.json").read_bytes() == (tmp_path / "2x2.json").read_bytes()

    def test_2x2_method_on_a_3x3_family_is_undecided(self, emit, tmp_path):
        dec = tmp_path / "d.json"
        assert main(["common", emit("spiral3"), "--method", "2x2", "--out", str(dec)]) == 3
        assert json.loads(dec.read_text())["certificate"]["evidence"]["hypothesis"] == "DimensionMismatch"

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

    def test_similarity_scale_does_not_matter(self, tmp_path):
        mats = self._rotation_family()
        payloads = []
        for c in (1e-5, 1.0, 1e5):
            fam, dec = tmp_path / "fam.json", tmp_path / "d.json"
            fam.write_text(json.dumps({"dimension": 3, "matrices": mats, "similarity": (c * np.eye(3)).tolist()}))
            assert main(["common", str(fam), "--method", "shared-dominant",
                         "--reproducible", "--out", str(dec)]) == 0
            payload = json.loads(dec.read_text())
            K = cone_from_json(payload["witness"])
            assert all(is_invariant(K, np.array(M)).invariant for M in mats)
            payloads.append((payload["answer"], payload["route"]))
        assert payloads == [("yes", "shared-dominant")] * 3

    @pytest.mark.parametrize("T", [[[1, 0, 0], [0, 1, 0], [1, 1, 0]], np.diag([1e6, 1e6, 1e-12]).tolist()])
    def test_singular_similarity_is_malformed(self, tmp_path, T):
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps({"dimension": 3, "matrices": self._rotation_family(), "similarity": T}))
        assert main(["common", str(fam), "--method", "shared-dominant", "--reproducible"]) == 2

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

    @staticmethod
    def decide_normal_family(tmp_path):
        # non-commuting normal family sharing the dominant vector e1; each
        # member has the real eigenvalues 3 and 1 and one complex pair
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

    def test_each_member_is_decomposed_once(self, tmp_path, decompositions):
        self.decide_normal_family(tmp_path)
        assert len(decompositions) == 3

    def test_only_dominant_eigenspaces_are_built(self, tmp_path, monkeypatch):
        # the eigenspace at 1 is never read
        original = conelab.linalg.nullspace
        built = []
        monkeypatch.setattr(conelab.linalg, "nullspace", lambda *a: built.append(a) or original(*a))
        self.decide_normal_family(tmp_path)
        assert len(built) == 3

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


def test_fixtures_list(capsys):
    assert main(["fixtures", "list"]) == 0
    assert capsys.readouterr().out.split() == list(fixture_names())


def test_fixtures_emit_needs_a_name(capsys):
    assert main(["fixtures", "emit"]) == 2
    assert "requires a name" in capsys.readouterr().err


def test_fixture_matrices_match_classify_kinds(emit):
    # the emitted files reproduce the intended case split when reloaded
    from conelab.schemas import family_from_json

    fd = family_from_json(json.load(open(emit("ex7_1"))))
    kinds = [classify2(M).kind for M in fd.matrices]
    assert kinds == ["NegDet", "NegDet"]


STARTUP_PROBE = """
import json
import sys
from conelab import cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

ex7_2, diag_pair, spiral3, out, cone = sys.argv[1:]
assert not scipy_modules(), scipy_modules()[:5]
assert cli.main(["common", ex7_2, "--reproducible", "--out", out]) == 1
assert cli.main(["common", diag_pair, "--reproducible", "--out", out]) == 0
with open(out) as fh, open(cone, "w") as cf:
    json.dump(json.load(fh)["witness"], cf)
assert cli.main(["verify", diag_pair, cone]) == 0
assert not scipy_modules(), scipy_modules()[:5]
assert cli.main(["common", spiral3, "--reproducible", "--out", out]) == 0
assert "scipy.optimize" in sys.modules
"""


def test_startup_and_2x2_route_load_no_scipy(emit, tmp_path):
    """`import conelab.cli`, 2x2 decisions (NO and YES) and `verify` of the
    2x2 YES witness with its default probes import no scipy module; a
    simultaneous-diagonalization family still answers YES, loading scipy on
    demand."""
    src = str(Path(conelab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", STARTUP_PROBE, emit("ex7_2"), emit("diag_pair"), emit("spiral3"),
                           str(tmp_path / "d.json"), str(tmp_path / "cone.json")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


QUADRATIC_PROBE = """
import contextlib
import io
import json
import sys
from conelab import cli

jordan, normal, tilted, out, cone = sys.argv[1:]
for family in (jordan, normal):
    assert cli.main(["common", family, "--reproducible", "--out", out]) == 0
    with open(out) as fh:
        decision = json.load(fh)
    assert decision["route"] == "shared-dominant" and decision["witness"]["type"] == "quadratic", decision
    with open(cone, "w") as fh:
        json.dump(decision["witness"], fh)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", family, cone]) == 0
text = io.StringIO()
with contextlib.redirect_stdout(text):
    assert cli.main(["verify", tilted, cone]) == 1
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not scipy, scipy[:5]
print(text.getvalue())
"""


def test_shared_dominant_route_and_quadratic_verify_load_no_scipy(tmp_path):
    """A shared-dominant YES (a commuting Jordan family, and a normal family
    answered with an ice-cream cone), `verify` of both witnesses, and a
    `verify` that reports a VIOLATION import no scipy module.  The violation's
    distance is the projection onto the cone, checked against its closed
    form for the 45-degree ice-cream cone."""
    def write(name, mats):
        path = tmp_path / name
        path.write_text(json.dumps({"schema": "conelab/family-v1", "dimension": 3,
                                    "matrices": [np.asarray(M, dtype=float).tolist() for M in mats]}))
        return str(path)

    def rotation(deg):
        c, s = np.cos(np.radians(deg)), np.sin(np.radians(deg))
        return np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])

    # the commuting Jordan family of the CI entry-point check: simdiag cannot diagonalize it
    T = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
    jordan = [c * T @ np.array([[1.0, 0.0, 0.0], [0.0, a, b], [0.0, 0.0, a]]) @ np.linalg.inv(T)
              for c, a, b in ((1.0, 0.5, 0.4), (1.5, 0.35, 0.16))]
    # normal members sharing the dominant e1 that do not commute
    normal = [np.diag([2.0, 0.5, -0.3]), np.diag([2.0, 1.0, 1.0])]
    normal[1][1:, 1:] = 0.6 * np.array([[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]])
    # tilts the 45-degree cone about e1 by 50 degrees: part of its image leaves the cone
    tilted = rotation(50.0) @ np.diag([1.0, 0.5, 0.7])
    src = str(Path(conelab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", QUADRATIC_PROBE, write("jordan.json", jordan),
                           write("normal.json", normal), write("tilted.json", [tilted]),
                           str(tmp_path / "d.json"), str(tmp_path / "cone.json")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    line = proc.stdout.splitlines()[0]
    assert line.startswith("A0: VIOLATION (method=psd, max distance ")
    distance = float(line.split("max distance ")[1].split(")")[0])
    p = np.array(ast.literal_eval(line.split("worst=")[1])[2])
    w = tilted @ p
    c, r = w[0], np.linalg.norm(w[1:])
    assert 0.0 < c < r  # outside the cone, on the axis side of the apex: the projection root runs
    assert distance == pytest.approx((r - c) / np.sqrt(2.0), rel=1e-3)

"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every criterion is checked at its stated tolerance and wall-clock budget.
Run with `pytest -s tests/test_acceptance.py` to see one line per criterion.
"""

import json
import time

import numpy as np
import pytest

from _gen import (
    commuting_diag_2x2,
    detneg_tracepos,
    mixed_family,
    normal_shared_dominant,
    shared_dominant_commuting,
    yes_biased_family,
)
from conelab.cli import main
from conelab.cones import contains, is_invariant, sample_points
from conelab.fixtures import SIMDIAG_YES_FIXTURES, ex7_2, ex7_3, load_fixture
from conelab.linalg import enumerate_words, is_vandergraft
from conelab.fixtures import FamilyData
from conelab.planar import decide_common_2x2, make_invariant_cone, minimal_bad_subfamily, search_common_cone
from conelab.schemas import dumps, family_to_json
from conelab.shared_dominant import common_lyapunov, decide_shared_dominant
from conelab.simdiag import construct_simdiag_cone, decide_simdiag, simultaneous_diagonalize


class _Clock:
    def __init__(self, name, budget):
        self.name = name
        self.budget = budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, *rest):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None and elapsed < self.budget else "FAIL"
        print(f"[acceptance] {self.name}: {status} ({elapsed:.2f}s / budget {self.budget:.0f}s)")
        assert elapsed < self.budget, f"{self.name} exceeded its runtime budget"


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(dumps(payload))
    return str(path)


def _family_file(tmp_path, name, mats):
    return _write(tmp_path, name, family_to_json(FamilyData(int(mats[0].shape[0]), tuple(mats))))


def test_criterion_01_example_7_1(tmp_path, capsys):
    with _Clock("criterion 1 (example 7.1)", 1.0):
        fam = _write(tmp_path, "f.json", family_to_json(load_fixture("ex7_1")))
        assert main(["classify", fam]) == 0
        out = capsys.readouterr().out
        assert out.count("Vandergraft") >= 2 and "not Vandergraft" not in out
        assert "all 30 words are Vandergraft" in out
        dec = str(tmp_path / "d.json")
        assert main(["common", fam, "--reproducible", "--out", dec]) == 1
        payload = json.loads(open(dec).read())
        assert payload["certificate"]["failed_condition"] == "NegDetTraceZeroConflict"


def test_criterion_02_example_7_2(tmp_path):
    with _Clock("criterion 2 (example 7.2)", 1.0):
        A, B, C = load_fixture("ex7_2").matrices
        s5 = np.sqrt(5)
        known_cones = {
            (0, 1): [[1, 0], [1 / s5, 2 / s5]],
            (1, 2): [[-1 / s5, -2 / s5], [1 / s5, -2 / s5]],
            (0, 2): [[1, 0], [1 / s5, -2 / s5]],
        }
        fam = [A, B, C]
        for (i, j), gens in known_cones.items():
            pair_file = _family_file(tmp_path, f"pair{i}{j}.json", [fam[i], fam[j]])
            dec = str(tmp_path / f"d{i}{j}.json")
            assert main(["common", pair_file, "--reproducible", "--out", dec]) == 0
            emitted = json.loads(open(dec).read())["witness"]
            assert main(["verify", pair_file, _write(tmp_path, f"w{i}{j}.json", emitted)]) == 0
            known_file = _write(tmp_path, f"p{i}{j}.json",
                                {"type": "polyhedral", "dim": 2, "generators": gens})
            assert main(["verify", pair_file, known_file]) == 0
        triple = _family_file(tmp_path, "triple.json", fam)
        dec = str(tmp_path / "dt.json")
        assert main(["common", triple, "--reproducible", "--out", dec]) == 1
        assert json.loads(open(dec).read())["certificate"]["failed_condition"] == "SeparationFails"


def test_criterion_03_example_7_3(tmp_path):
    with _Clock("criterion 3 (example 7.3)", 2.0):
        fam = list(load_fixture("ex7_3").matrices)
        s2 = np.sqrt(2)
        known_cones = {
            (0, 1, 2): [[1, 0], [0, 1]],
            (0, 1, 3): [[1, 0], [0, -1]],
            (0, 2, 3): [[1 / s2, 1 / s2], [1 / s2, -1 / s2]],
            (1, 2, 3): [[1 / s2, 1 / s2], [-1 / s2, 1 / s2]],
        }
        for combo, gens in known_cones.items():
            sub_file = _family_file(tmp_path, "sub%d%d%d.json" % combo, [fam[i] for i in combo])
            dec = str(tmp_path / ("d%d%d%d.json" % combo))
            assert main(["common", sub_file, "--reproducible", "--out", dec]) == 0
            known_file = _write(tmp_path, "p%d%d%d.json" % combo,
                                {"type": "polyhedral", "dim": 2, "generators": gens})
            assert main(["verify", sub_file, known_file]) == 0
        quad_file = _family_file(tmp_path, "quad.json", fam)
        assert main(["common", quad_file, "--reproducible",
                     "--out", str(tmp_path / "dq.json")]) == 1
        assert minimal_bad_subfamily(fam) == (0, 1, 2, 3)


def test_criterion_04_example_7_4(tmp_path):
    with _Clock("criterion 4 (example 7.4)", 1.0):
        fam = _write(tmp_path, "f.json", family_to_json(load_fixture("ex7_4")))
        dec = str(tmp_path / "d.json")
        assert main(["common", fam, "--reproducible", "--out", dec]) == 1
        assert json.loads(open(dec).read())["certificate"]["failed_condition"] == "OrientationConflict"
        dec2 = str(tmp_path / "d2.json")
        assert main(["common", fam, "--method", "shared-dominant",
                     "--reproducible", "--out", dec2]) == 3
        payload = json.loads(open(dec2).read())
        assert payload["answer"] == "undecided"
        assert payload["certificate"]["evidence"]["hypothesis"] == "NotSemisimple"


def test_criterion_05_example_7_5(tmp_path):
    with _Clock("criterion 5 (example 7.5)", 1.0):
        fam = _write(tmp_path, "f.json", family_to_json(load_fixture("ex7_5")))
        dec = str(tmp_path / "d.json")
        assert main(["common", fam, "--bound", "2", "--reproducible", "--out", dec]) == 1
        payload = json.loads(open(dec).read())
        assert payload["route"] == "simdiag"
        cert = payload["certificate"]
        assert cert["failed_condition"] == "DominantNonnegativityFails"
        ev = cert["evidence"]
        assert isinstance(ev["block"], int) and isinstance(ev["matrix"], int)
        assert sum(ev["witness_exponents"]) <= 2
        assert ev["eigenvalue"][0] < 0


def test_criterion_06_example_7_6_prefixes(tmp_path):
    with _Clock("criterion 6 (example 7.6 prefixes)", 2.0):
        for m in range(1, 11):
            fam_file = _write(tmp_path, f"f{m}.json",
                              family_to_json(load_fixture(f"ex7_6_prefix({m})")))
            dec = str(tmp_path / f"d{m}.json")
            assert main(["common", fam_file, "--reproducible", "--out", dec]) == 0
            witness = json.loads(open(dec).read())["witness"]
            assert main(["verify", fam_file, _write(tmp_path, f"w{m}.json", witness)]) == 0


def test_criterion_07_lemma_cone_construction():
    with _Clock("criterion 7 (Cone{v, Av} property, 1e4 samples)", 5.0):
        rng = np.random.default_rng(1729)
        for _ in range(10_000):
            A = detneg_tracepos(rng)
            v = rng.normal(size=2)
            K, _ = make_invariant_cone(A, v)
            rep = is_invariant(K, A)
            assert rep.invariant and rep.max_distance <= 1e-9


def test_criterion_08_words_of_yes_families():
    with _Clock("criterion 8 (words of YES families, 1e3)", 30.0):
        rng = np.random.default_rng(8)
        done = 0
        attempts = 0
        while done < 1000:
            attempts += 1
            assert attempts < 5000
            fam = yes_biased_family(rng, size=3)
            if decide_common_2x2(fam).answer != "yes":
                continue
            done += 1
            for _, P in enumerate_words(fam, 4):
                assert is_vandergraft(P).is_vandergraft


def test_criterion_09_refutation_soundness():
    with _Clock("criterion 9 (refutation search on NO verdicts, 1e3)", 60.0):
        rng = np.random.default_rng(9)
        done = 0
        attempts = 0
        while done < 1000:
            attempts += 1
            assert attempts < 10_000
            fam = mixed_family(rng, size=3)
            if decide_common_2x2(fam).answer != "no":
                continue
            done += 1
            assert search_common_cone(fam, 10_000, seed=done) is None


def test_criterion_10_cross_route_agreement():
    with _Clock("criterion 10 (simdiag vs planar agreement, 1e3)", 30.0):
        rng = np.random.default_rng(10)
        for trial in range(1000):
            fam = commuting_diag_2x2(rng, size=2)
            a = decide_simdiag(fam, seed=trial).answer == "yes"
            b = decide_common_2x2(fam).answer == "yes"
            assert a == b


def test_criterion_11_lyapunov_certificates():
    with _Clock("criterion 11 (Lyapunov certificates, 1e3)", 30.0):
        from _gen import contractive_commuting_blocks

        rng = np.random.default_rng(11)
        for trial in range(1000):
            blocks = contractive_commuting_blocks(rng, dim=2 + trial % 2, count=2)
            cert = common_lyapunov(blocks)
            assert cert.min_eigenvalue > 0
            assert all(r >= -1e-8 for r in cert.residuals)
            if trial % 10 == 0:
                fam, x = shared_dominant_commuting(rng, dim=3, count=2)
                d = decide_shared_dominant(fam)
                assert d.answer == "yes"
                K = d.witness
                for M in fam:
                    assert is_invariant(K, M).invariant
                pts = sample_points(K, 20, seed=trial)
                for i in range(0, 20, 2):
                    assert contains(K, 0.5 * (pts[i] + pts[i + 1])).inside


def test_criterion_12_ice_cream_families():
    with _Clock("criterion 12 (normal families, 1e2)", 10.0):
        rng = np.random.default_rng(12)
        for trial in range(100):
            dim = int(rng.integers(3, 7))
            fam, x = normal_shared_dominant(rng, dim=dim, count=2)
            d = decide_shared_dominant(fam)
            assert d.answer == "yes"
            for check in d.certificate["checks"]:
                assert check["psd_margin"] >= -1e-8


def test_criterion_13_simdiag_truncation_defect():
    with _Clock("criterion 13 (truncation defect on YES fixtures)", 10.0):
        for name in SIMDIAG_YES_FIXTURES:
            fam = list(load_fixture(name).matrices)
            d = decide_simdiag(fam)
            assert d.answer == "yes"
            _, report = construct_simdiag_cone(simultaneous_diagonalize(fam))
            assert report["defect"] < 1e-6

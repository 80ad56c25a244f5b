import json

import numpy as np
import pytest

from conelab.cones import PolyhedralCone, QuadraticCone, conic_hull
from conelab.decision import Decision
from conelab.fixtures import FamilyData, ex7_5, fixture_names, load_fixture
from conelab.linalg import DEFAULT_TOL
from conelab.schemas import (
    SchemaError,
    cone_from_json,
    cone_to_json,
    decision_from_json,
    decision_to_json,
    dumps,
    family_from_json,
    family_to_json,
)


class TestFamilyFiles:
    def test_roundtrip(self):
        fd = ex7_5()
        back = family_from_json(json.loads(dumps(family_to_json(fd))))
        assert back.dimension == 3
        for a, b in zip(fd.matrices, back.matrices):
            assert np.array_equal(a, b)
        assert back.labels == fd.labels

    def test_similarity_roundtrip(self):
        T = np.array([[1.0, 0.5], [0.0, 1.0]])
        fd = FamilyData(2, (np.eye(2),), None, T)
        back = family_from_json(family_to_json(fd))
        assert np.array_equal(back.similarity, T)

    @pytest.mark.parametrize("mutate", [
        lambda o: o.pop("dimension"),
        lambda o: o.__setitem__("matrices", []),
        lambda o: o.__setitem__("matrices", [[[1, 2], [3, "x"]]]),
        lambda o: o.__setitem__("matrices", [[[1, 2, 3], [4, 5, 6]]]),
        lambda o: o.__setitem__("labels", ["only-one"]),
        lambda o: o.__setitem__("schema", "other/v9"),
    ])
    def test_malformed_rejected(self, mutate):
        obj = family_to_json(ex7_5())
        mutate(obj)
        with pytest.raises(SchemaError):
            family_from_json(obj)


class TestConeFiles:
    def test_polyhedral_roundtrip(self):
        K = conic_hull([[1, 0], [1, 2]])
        back = cone_from_json(json.loads(dumps(cone_to_json(K))))
        assert isinstance(back, PolyhedralCone)
        assert np.allclose(back.generators, K.generators)

    def test_quadratic_roundtrip(self):
        K = QuadraticCone(3, np.eye(3)[:, 0], np.diag([2.0, 0.5]), np.eye(3)[:, 1:])
        back = cone_from_json(json.loads(dumps(cone_to_json(K))))
        assert isinstance(back, QuadraticCone)
        assert np.allclose(back.axis, K.axis)
        assert np.allclose(back.form, K.form)
        assert np.allclose(back.complement_basis, K.complement_basis)

    def test_unknown_type(self):
        with pytest.raises(SchemaError):
            cone_from_json({"type": "simplicial", "dim": 2})

    @pytest.mark.parametrize("cone, mutate", [
        (conic_hull([[1, 0], [1, 2]]), lambda o: o["generators"][0].__setitem__(1, float("nan"))),
        (conic_hull([[1, 0], [1, 2]]), lambda o: o["generators"][1].__setitem__(0, float("inf"))),
        (QuadraticCone(3, np.eye(3)[:, 0], np.eye(2), np.eye(3)[:, 1:]), lambda o: o.__setitem__("axis", [0, 0, 0])),
        (QuadraticCone(3, np.eye(3)[:, 0], np.eye(2), np.eye(3)[:, 1:]),
         lambda o: o.__setitem__("axis", [float("nan"), 0, 0])),
    ], ids=["nan-generator", "inf-generator", "zero-axis", "nan-axis"])
    def test_malformed_rejected(self, cone, mutate):
        obj = cone_to_json(cone)
        mutate(obj)
        with pytest.raises(SchemaError):
            cone_from_json(obj)


class TestDecisionFiles:
    def test_roundtrip_field_for_field(self):
        K = conic_hull([[1, 0], [0, 1]])
        d = Decision("yes", K, {"failed_condition": None, "note": "x"}, route="2x2")
        payload = decision_to_json(d, seed=7, tol=DEFAULT_TOL, reproducible=True)
        parsed = decision_from_json(json.loads(dumps(payload)))
        assert parsed["answer"] == "yes"
        assert parsed["route"] == "2x2"
        assert parsed["seed"] == 7
        assert np.allclose(parsed["witness_cone"].generators, K.generators)
        assert parsed["certificate"]["note"] == "x"

    def test_reproducible_omits_timestamp(self):
        d = Decision("no", None, {"failed_condition": "SeparationFails"}, route="2x2")
        a = decision_to_json(d, seed=1, tol=DEFAULT_TOL, reproducible=True)
        b = decision_to_json(d, seed=1, tol=DEFAULT_TOL, reproducible=False)
        assert "timestamp" not in a and "timestamp" in b
        assert dumps(a) == dumps({k: v for k, v in b.items() if k != "timestamp"})

    def test_simdiag_booleans_stay_booleans(self):
        from conelab.simdiag import decide_simdiag

        d = decide_simdiag([np.diag([2.0, 1.0, 0.5]), np.diag([3.0, 1.0, 2.0])])
        assert d.certificate["exact"] is True
        text = dumps(decision_to_json(d, seed=0, tol=DEFAULT_TOL, reproducible=True))
        assert '"exact": true' in text
        assert decision_from_json(json.loads(text))["certificate"]["exact"] is True

    def test_witness_consistency_enforced(self):
        with pytest.raises(SchemaError):
            decision_from_json({"schema": "conelab/decision-v1", "answer": "no",
                                "witness": {"type": "polyhedral"}})


class TestFixtures:
    def test_names(self):
        names = fixture_names()
        for expected in ("ex7_1", "ex7_2", "ex7_3", "ex7_4", "ex7_5", "ex7_6_prefix(m)"):
            assert expected in names

    def test_prefix_parse(self):
        fd = load_fixture("ex7_6_prefix(3)")
        assert len(fd.matrices) == 3
        assert np.array_equal(fd.matrices[2], [[1.0, 3.0], [0.0, 0.5]])

    def test_ex7_4_exact(self):
        fd = load_fixture("ex7_4")
        assert np.array_equal(fd.matrices[0], [[1, 1], [0, 1]])
        assert np.array_equal(fd.matrices[1], [[1, -1], [0, 1]])

    def test_ex7_5_exact(self):
        fd = load_fixture("ex7_5")
        assert np.array_equal(fd.matrices[0], np.diag([1.0, -1.0, -1.0]))
        assert np.array_equal(fd.matrices[1], np.diag([-1.0, -1.0, 1.0]))

    def test_unknown(self):
        with pytest.raises(KeyError):
            load_fixture("ex9_9")

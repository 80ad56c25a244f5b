"""JSON file formats: family files, cone files and decision files.

All serializers are deterministic (sorted keys, plain repr floats) so that a
fixed seed and fixed flags reproduce byte-identical output; the only
non-reproducible field is the optional timestamp, omitted in reproducible
mode.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .cones import PolyhedralCone, QuadraticCone
from .decision import Decision
from .fixtures import FamilyData
from .linalg import ToleranceConfig

FAMILY_SCHEMA = "conelab/family-v1"
CONE_SCHEMA = "conelab/cone-v1"
DECISION_SCHEMA = "conelab/decision-v1"


class SchemaError(ValueError):
    """Malformed input file (maps to CLI exit code 2)."""


def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    # bool before int: bool is a subclass of int.
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, complex):
        return {"re": float(obj.real), "im": float(obj.imag)}
    raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps(obj) -> str:
    return json.dumps(_jsonify(obj), sort_keys=True, indent=2) + "\n"


def _matrix(entries, n, what) -> np.ndarray:
    try:
        M = np.array(entries, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{what}: entries must be numbers") from exc
    if M.shape != (n, n):
        raise SchemaError(f"{what}: expected shape {(n, n)}, got {M.shape}")
    if not np.all(np.isfinite(M)):
        raise SchemaError(f"{what}: entries must be finite")
    return M


def family_to_json(fd: FamilyData) -> dict:
    out = {
        "schema": FAMILY_SCHEMA,
        "dimension": fd.dimension,
        "matrices": [M.tolist() for M in fd.matrices],
    }
    if fd.labels is not None:
        out["labels"] = list(fd.labels)
    if fd.similarity is not None:
        out["similarity"] = fd.similarity.tolist()
    return out


def family_from_json(obj) -> FamilyData:
    if not isinstance(obj, dict):
        raise SchemaError("family file must be a JSON object")
    if obj.get("schema", FAMILY_SCHEMA) != FAMILY_SCHEMA:
        raise SchemaError(f"unsupported schema {obj.get('schema')!r}")
    try:
        n = int(obj["dimension"])
        raw = obj["matrices"]
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError("family file needs integer 'dimension' and a 'matrices' list") from exc
    if n < 1 or not isinstance(raw, list) or not raw:
        raise SchemaError("dimension must be >= 1 and matrices nonempty")
    mats = tuple(_matrix(e, n, f"matrices[{i}]") for i, e in enumerate(raw))
    labels = obj.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or len(labels) != len(mats):
            raise SchemaError("labels must match the number of matrices")
        labels = tuple(str(s) for s in labels)
    sim = obj.get("similarity")
    if sim is not None:
        sim = _matrix(sim, n, "similarity")
        if abs(np.linalg.det(sim)) < 1e-12:
            raise SchemaError("similarity must be invertible")
    return FamilyData(n, mats, labels, sim)


def cone_to_json(K) -> dict:
    if isinstance(K, PolyhedralCone):
        return {
            "schema": CONE_SCHEMA,
            "type": "polyhedral",
            "dim": K.dim,
            "generators": K.generators.tolist(),
        }
    if isinstance(K, QuadraticCone):
        return {
            "schema": CONE_SCHEMA,
            "type": "quadratic",
            "dim": K.dim,
            "axis": K.axis.tolist(),
            "form": K.form.tolist(),
            "complementBasis": K.complement_basis.T.tolist(),
        }
    raise TypeError(f"not a cone: {type(K)!r}")


def cone_from_json(obj):
    if not isinstance(obj, dict):
        raise SchemaError("cone file must be a JSON object")
    kind = obj.get("type")
    try:
        dim = int(obj["dim"])
        if kind == "polyhedral":
            G = np.array(obj["generators"], dtype=float)
            if G.ndim != 2 or G.shape[1] != dim:
                raise SchemaError("bad generator array")
            return PolyhedralCone(dim, G)
        if kind == "quadratic":
            axis = np.array(obj["axis"], dtype=float)
            form = np.array(obj["form"], dtype=float)
            basis = np.array(obj["complementBasis"], dtype=float).T
            return QuadraticCone(dim, axis, form, basis)
    except SchemaError:
        raise
    except Exception as exc:
        raise SchemaError(f"malformed cone file: {exc}") from exc
    raise SchemaError(f"unknown cone type {kind!r}")


def decision_to_json(decision: Decision, *, seed: int, tol: ToleranceConfig,
                     reproducible: bool = False) -> dict:
    out = {
        "schema": DECISION_SCHEMA,
        "answer": decision.answer,
        "witness": None if decision.witness is None else cone_to_json(decision.witness),
        "certificate": _jsonify(decision.certificate),
        "route": decision.route,
        "toolVersion": __version__,
        "seed": int(seed),
        "tolerances": {
            "eigClusterTol": tol.eig_cluster_tol,
            "rankTol": tol.rank_tol,
            "geomTol": tol.geom_tol,
        },
    }
    if not reproducible:
        out["timestamp"] = datetime.now(timezone.utc).isoformat()
    return out


def decision_from_json(obj) -> dict:
    if not isinstance(obj, dict) or obj.get("schema") != DECISION_SCHEMA:
        raise SchemaError("not a decision file")
    if obj.get("answer") not in ("yes", "no", "undecided"):
        raise SchemaError("bad answer field")
    if (obj.get("witness") is not None) != (obj["answer"] == "yes"):
        raise SchemaError("witness must be present exactly for YES decisions")
    parsed = dict(obj)
    if parsed["witness"] is not None:
        parsed["witness_cone"] = cone_from_json(parsed["witness"])
    return parsed

"""Output checks that do not go through the decision procedures.

A YES decision's witness is decoded from the decision file and re-checked
with the membership/properness oracle (`cones.is_proper`, `cones.is_invariant`);
a 2x2 NO is cross-examined with the randomized refutation search
(`planar.search_common_cone`); every verdict is compared with the planted
truth when the generator planted one.
"""

from __future__ import annotations

import json

import numpy as np

from conelab.cones import is_invariant, is_proper
from conelab.errors import ConelabError
from conelab.planar import search_common_cone
from conelab.schemas import cone_from_json

EXIT_ANSWER = {0: "yes", 1: "no", 3: "undecided"}
SEARCH_CANDIDATES = 4096


def answer_of(rc) -> str:
    """`yes`/`no`/`undecided` for an exit code, `exit2` for malformed-input
    exits and uncaught exceptions."""
    return EXIT_ANSWER.get(rc, "exit2")


def check(item, rc, output) -> tuple[str, str] | None:
    """("failed" | "wrong", reason) for an item whose output fails a check,
    None when it passes.

    "wrong" is a verdict the checks refute: it contradicts the planted truth,
    the refutation search finds a cone for a 2x2 NO, or the decision file
    disagrees with the exit code.  "failed" is an item without a checkable
    answer: exit 2, an uncaught exception, UNDECIDED on a complete route, or
    a YES whose witness the oracle rejects.  `rc` is the exit code of
    `cli.main` (or the exception's class name); `output` is the decision
    file for `common` items.
    """
    answer = answer_of(rc)
    if answer == "exit2":
        return "failed", f"exit2 ({rc})"
    if answer == "undecided":
        return ("failed", "undecided on a complete route") if item.complete else None
    if item.truth is not None and answer != item.truth:
        return "wrong", f"answer {answer} contradicts planted {item.truth}"
    if item.kind != "common":
        return None
    try:
        return _refute(item, answer, output)
    except (ConelabError, ValueError, KeyError, TypeError) as exc:  # includes SchemaError, LinAlgError
        return "failed", f"the oracle rejected the witness: {type(exc).__name__}: {exc}"


def _refute(item, answer, output) -> tuple[str, str] | None:
    mats = [np.array(M, dtype=float) for M in item.family["matrices"]]
    payload = json.loads(output)
    if payload.get("answer") != answer:
        return "wrong", f"decision file says {payload.get('answer')!r}, exit code says {answer}"
    if answer == "yes":
        K = cone_from_json(payload["witness"])
        if not is_proper(K):
            return "failed", "witness is not proper"
        for j, M in enumerate(mats):
            if not is_invariant(K, M).invariant:
                return "failed", f"witness is not invariant under member {j}"
    elif mats[0].shape == (2, 2):
        found = search_common_cone(mats, num_candidates=SEARCH_CANDIDATES, seed=item.index)
        if found is not None and is_proper(found) and all(is_invariant(found, M).invariant for M in mats):
            return "wrong", "NO, but the refutation search found a common cone"
    return None

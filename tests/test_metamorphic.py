"""Metamorphic properties of the decision routes.

A cone is invariant under M exactly when it is invariant under cM for any
c > 0, so scaling each member by its own positive factor, or reordering the
members, must leave every answer and its failed condition unchanged.  Each
member here gets a factor 10^k with k in [-9, 9].  Conjugating a family by
an invertible T maps its cones along, so that must not change an answer
either; the shared-dominant route is checked for T with cond(T) < 20.

The 2x2 and shared-dominant witnesses are exact, so every YES witness must
pass the oracle on the original members.  The simdiag witness closes the
cone under words of bounded length and reports its truncation defect; about
1 in 130 such witnesses fails the oracle whatever the scale, so there the
oracle's verdicts must merely agree with those on the unscaled decision.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from _gen import (
    contractive_commuting_blocks,
    mixed_family,
    normal_shared_dominant,
    shared_dominant_commuting,
)
from conelab.cli import main
from conelab.cones import is_invariant
from conelab.linalg import is_vandergraft
from conelab.planar import decide_common_2x2
from conelab.schemas import cone_from_json, dumps
from conelab.shared_dominant import decide_shared_dominant
from conelab.simdiag import decide_simdiag

seeds = st.integers(0, 2**32 - 1)


def rescaled(fam, data):
    """The members in a drawn order, each times its own drawn power of ten."""
    ks = data.draw(st.lists(st.integers(-9, 9), min_size=len(fam), max_size=len(fam)), label="k")
    order = data.draw(st.permutations(range(len(fam))), label="order")
    return [10.0 ** ks[i] * fam[i] for i in order]


def outcome(decision):
    return decision.answer, decision.certificate.get("failed_condition")


def verdicts(K, fam):
    return [is_invariant(K, M).invariant for M in fam]


def assert_same_decision(decide, fam, data, exact_witness=True):
    base = decide(fam)
    changed = decide(rescaled(fam, data))
    assert outcome(changed) == outcome(base)
    if changed.answer == "yes":
        expected = [True] * len(fam) if exact_witness else verdicts(base.witness, fam)
        assert verdicts(changed.witness, fam) == expected


def simdiag_family(rng, kind):
    if kind == "shared":
        return shared_dominant_commuting(rng, dim=3, count=2)[0]
    return contractive_commuting_blocks(rng, dim=3, count=2)


def shared_family(rng, kind):
    if kind == "normal":
        return normal_shared_dominant(rng, dim=4, count=3)[0]
    return shared_dominant_commuting(rng, dim=3, count=3)[0]


@settings(max_examples=150, deadline=None)
@given(seeds, st.data())
def test_2x2_route(seed, data):
    assert_same_decision(decide_common_2x2, mixed_family(np.random.default_rng(seed), 3), data)


@settings(max_examples=40, deadline=None)
@given(seeds, st.sampled_from(["blocks", "shared"]), st.data())
def test_simdiag_route(seed, kind, data):
    assert_same_decision(decide_simdiag, simdiag_family(np.random.default_rng(seed), kind), data,
                         exact_witness=False)


@settings(max_examples=50, deadline=None)
@given(seeds, st.sampled_from(["normal", "commuting"]), st.data())
def test_shared_dominant_route(seed, kind, data):
    assert_same_decision(decide_shared_dominant, shared_family(np.random.default_rng(seed), kind), data)


@settings(max_examples=50, deadline=None)
@given(seeds, st.integers(3, 5))
def test_shared_dominant_similarity(seed, dim):
    rng = np.random.default_rng(seed)
    fam = shared_dominant_commuting(rng, dim=dim, count=2)[0]
    T = rng.normal(size=(dim, dim))
    while np.linalg.cond(T) >= 20:
        T = rng.normal(size=(dim, dim))
    conj = [T @ M @ np.linalg.inv(T) for M in fam]
    base, changed = decide_shared_dominant(fam), decide_shared_dominant(conj)
    assert outcome(changed) == outcome(base)
    if changed.answer == "yes":
        assert verdicts(changed.witness, conj) == [True] * len(conj)


@settings(max_examples=200, deadline=None)
@given(seeds, st.integers(2, 4), st.integers(-300, 300))
def test_vandergraft_verdict(seed, n, k):
    A = np.random.default_rng(seed).normal(size=(n, n))
    a, b = is_vandergraft(A), is_vandergraft(10.0 ** k * A)
    assert (b.is_vandergraft, b.failed_condition) == (a.is_vandergraft, a.failed_condition)


def _common_auto(fam, path):
    path.write_text(dumps({"schema": "conelab/family-v1", "dimension": fam[0].shape[0],
                           "matrices": [M.tolist() for M in fam]}), encoding="utf-8")
    out = path.with_suffix(".decision.json")
    code = main(["common", str(path), "--reproducible", "--out", str(out)])
    assert out.exists(), f"exit code {code} and no decision file"
    return code, json.loads(out.read_text(encoding="utf-8"))


@settings(max_examples=30, deadline=None)
@given(seeds, st.sampled_from(["2x2", "simdiag", "normal", "commuting"]), st.data())
def test_common_auto(tmp_path_factory, seed, kind, data):
    rng = np.random.default_rng(seed)
    if kind == "2x2":
        fam = mixed_family(rng, 3)
    elif kind == "simdiag":
        fam = simdiag_family(rng, "blocks")
    else:
        fam = shared_family(rng, kind)
    tmp = tmp_path_factory.mktemp("auto")
    code, base = _common_auto(fam, tmp / "base.json")
    code2, changed = _common_auto(rescaled(fam, data), tmp / "changed.json")
    assert code2 == code
    assert changed["answer"] == base["answer"]
    assert changed["certificate"].get("failed_condition") == base["certificate"].get("failed_condition")
    if changed["answer"] == "yes":
        expected = verdicts(cone_from_json(base["witness"]), fam) if kind == "simdiag" else [True] * len(fam)
        assert verdicts(cone_from_json(changed["witness"]), fam) == expected

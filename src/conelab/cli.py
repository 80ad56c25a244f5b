"""Command-line surface: classify, common, verify, fixtures, plot.

Exit codes are a contract: 0 = a common invariant proper cone exists (or the
command succeeded), 1 = provably none exists (or verification failed),
2 = malformed input, 3 = undecided by the available procedures.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys

from . import decision as dd
from .cones import contains, is_invariant, sample_points
from .decision import Decision
from .errors import ConelabError, HypothesesNotMet, NotCommuting, NotDiagonalizable
from .fixtures import FamilyData, fixture_names, load_fixture
from .linalg import ToleranceConfig, enumerate_words, is_vandergraft, pow2_scaled
from .planar import decide_common_2x2
from .plotting import render_family_svg
from .schemas import (
    SchemaError,
    decision_to_json,
    dumps,
    family_from_json,
    family_to_json,
    cone_from_json,
)
from .shared_dominant import decide_shared_dominant
from .simdiag import decide_simdiag

EXIT_YES = 0
EXIT_NO = 1
EXIT_INPUT = 2
EXIT_UNDECIDED = 3

DEFAULT_SEED = 1729
SEED_ENV = "CONELAB_SEED"


def _at_least(name, value, least):
    if value < least:
        raise SchemaError(f"{name} must be at least {least}, got {value}")
    return value


def _resolve_seed(arg_seed):
    if arg_seed is not None:
        return _at_least("--seed", arg_seed, 0)
    env = os.environ.get(SEED_ENV)
    if env is None:
        return DEFAULT_SEED
    try:
        seed = int(env)
    except ValueError as exc:
        raise SchemaError(f"{SEED_ENV} must be an integer, got {env!r}") from exc
    return _at_least(SEED_ENV, seed, 0)


def _tol_from_args(args) -> ToleranceConfig:
    for flag in ("eig_tol", "rank_tol", "geom_tol"):
        value = getattr(args, flag)
        if not (math.isfinite(value) and value > 0):
            raise SchemaError(f"--{flag.replace('_', '-')} must be finite and positive, got {value}")
    return ToleranceConfig(args.eig_tol, args.rank_tol, args.geom_tol)


def _add_tol_args(p):
    p.add_argument("--eig-tol", type=float, default=1e-8, help="relative eigenvalue clustering tolerance")
    p.add_argument("--rank-tol", type=float, default=1e-10, help="relative singular-value rank cutoff")
    p.add_argument("--geom-tol", type=float, default=1e-9, help="relative membership/angle tolerance")


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc


def _load_family(path) -> FamilyData:
    return family_from_json(_load_json(path))


def cmd_classify(args) -> int:
    _at_least("--wordlen", args.wordlen, 1)
    fd = _load_family(args.family)
    tol = _tol_from_args(args)
    labels = fd.labels or tuple(f"A{i}" for i in range(len(fd.matrices)))
    for name, M in zip(labels, fd.matrices):
        rep = is_vandergraft(M, tol)
        if rep.is_vandergraft:
            print(f"{name}: Vandergraft, dominant eigenvalue {rep.dominant_eigenvalue:.9g}")
        else:
            print(f"{name}: not Vandergraft: {rep.failed_condition}")
    total = 0
    failures = []
    # Power-of-two scaling keeps each word's verdict and keeps its product finite.
    scaled = [pow2_scaled(M)[0] for M in fd.matrices]
    for word, P in enumerate_words(scaled, args.wordlen):
        total += 1
        rep = is_vandergraft(P, tol)
        if not rep.is_vandergraft:
            failures.append((word, rep.failed_condition))
    if failures:
        print(f"word screen (length <= {args.wordlen}): {len(failures)} of {total} words fail")
        for word, why in failures[:10]:
            print(f"  word {'.'.join(labels[i] for i in word)}: {why}")
    else:
        print(f"word screen (length <= {args.wordlen}): all {total} words are Vandergraft")
    return EXIT_YES


def _route_auto(fd: FamilyData, tol, seed, bound, wordlen) -> Decision:
    mats = list(fd.matrices)
    if fd.dimension == 2:
        return decide_common_2x2(mats, tol)
    try:
        return decide_simdiag(mats, tol, bound=bound, seed=seed, word_len=wordlen)
    except (NotCommuting, NotDiagonalizable):
        pass  # not simultaneously diagonalizable: try the shared-dominant route
    return decide_shared_dominant(mats, tol, similarity=fd.similarity)


def cmd_common(args) -> int:
    _at_least("--bound", args.bound, 0)
    _at_least("--wordlen", args.wordlen, 1)
    fd = _load_family(args.family)
    tol = _tol_from_args(args)
    seed = _resolve_seed(args.seed)
    mats = list(fd.matrices)

    try:
        if args.method == "auto":
            decision = _route_auto(fd, tol, seed, args.bound, args.wordlen)
        elif args.method == "2x2":
            if fd.dimension != 2:
                raise HypothesesNotMet("DimensionMismatch", "the 2x2 route needs 2x2 matrices")
            decision = decide_common_2x2(mats, tol)
        elif args.method == "simdiag":
            decision = decide_simdiag(mats, tol, bound=args.bound, seed=seed, word_len=args.wordlen)
        else:
            decision = decide_shared_dominant(mats, tol, similarity=fd.similarity)
    except (HypothesesNotMet, NotCommuting, NotDiagonalizable) as exc:
        name = exc.hypothesis if isinstance(exc, HypothesesNotMet) else type(exc).__name__
        decision = Decision(dd.UNDECIDED, None, {
            "failed_condition": dd.HYPOTHESES_NOT_MET,
            "evidence": {"hypothesis": name, "detail": str(exc)},
        }, route=args.method if args.method != "auto" else "none-applicable")

    payload = decision_to_json(decision, seed=seed, tol=tol, reproducible=args.reproducible)
    text = dumps(payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    summary = decision.certificate.get("failed_condition", "")
    print(f"answer: {decision.answer}" + (f" ({summary})" if summary else ""), file=sys.stderr)
    return {"yes": EXIT_YES, "no": EXIT_NO, "undecided": EXIT_UNDECIDED}[decision.answer]


def cmd_verify(args) -> int:
    _at_least("--samples", args.samples, 0)
    fd = _load_family(args.family)
    tol = _tol_from_args(args)
    seed = _resolve_seed(args.seed)
    K = cone_from_json(_load_json(args.cone))
    if K.dim != fd.dimension:
        raise SchemaError(f"cone dimension {K.dim} does not match family dimension {fd.dimension}")
    labels = fd.labels or tuple(f"A{i}" for i in range(len(fd.matrices)))
    ok = True
    for name, M in zip(labels, fd.matrices):
        rep = is_invariant(K, M, tol)
        status = "ok" if rep.invariant else "VIOLATION"
        detail = f" worst={rep.worst}" if not rep.invariant and rep.worst else ""
        print(f"{name}: {status} (method={rep.method}, max distance {rep.max_distance:.3e}){detail}")
        ok = ok and rep.invariant
    pts = sample_points(K, args.samples, seed)
    bad = 0
    for M in fd.matrices:
        for p in pts:
            if not contains(K, M @ p, tol).inside:
                bad += 1
    print(f"membership probes: {args.samples} points x {len(fd.matrices)} matrices, {bad} violations")
    ok = ok and bad == 0
    return EXIT_YES if ok else EXIT_NO


def cmd_fixtures(args) -> int:
    if args.action == "list":
        for name in fixture_names():
            print(name)
        return EXIT_YES
    try:
        fd = load_fixture(args.name)
    except (KeyError, ValueError) as exc:
        raise SchemaError(str(exc)) from exc
    out = args.out or re.sub(r"[()]", lambda m: {"(": "_", ")": ""}[m.group(0)], args.name) + ".json"
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(dumps(family_to_json(fd)))
    print(f"wrote {out}")
    return EXIT_YES


def cmd_plot(args) -> int:
    fd = _load_family(args.family)
    if fd.dimension != 2:
        raise SchemaError("plotting needs a 2-dimensional family")
    decision = _load_json(args.decision) if args.decision else None
    svg = render_family_svg(fd, decision)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    print(f"wrote {args.out}")
    return EXIT_YES


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(prog="conelab",
                                 description="Common invariant proper cones for matrix families.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="per-matrix spectral reports and a word screen")
    p.add_argument("family")
    p.add_argument("--wordlen", type=int, default=4)
    _add_tol_args(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("common", help="decide whether a common invariant proper cone exists")
    p.add_argument("family")
    p.add_argument("--method", choices=["auto", "2x2", "simdiag", "shared-dominant"], default="auto")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--bound", type=int, default=8, help="exponent-sum bound for the dominant-block search")
    p.add_argument("--wordlen", type=int, default=12, help="closure word length for witness construction")
    p.add_argument("--out", default=None, help="write the decision file here instead of stdout")
    p.add_argument("--reproducible", action="store_true", help="omit the timestamp field")
    _add_tol_args(p)
    p.set_defaults(fn=cmd_common)

    p = sub.add_parser("verify", help="check a cone file against a family file")
    p.add_argument("family")
    p.add_argument("cone")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=None)
    _add_tol_args(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("fixtures", help="list or emit built-in example families")
    p.add_argument("action", choices=["list", "emit"])
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_fixtures)

    p = sub.add_parser("plot", help="SVG figure of eigenlines and the witness sector")
    p.add_argument("family")
    p.add_argument("--decision", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_plot)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.command == "fixtures" and args.action == "emit" and not args.name:
        print("fixtures emit requires a name", file=sys.stderr)
        return EXIT_INPUT
    try:
        return args.fn(args)
    except SchemaError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ConelabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

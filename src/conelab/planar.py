"""Complete decision procedure for common invariant proper cones of 2x2 families.

The single-matrix catalog of invariant cones splits 2x2 Vandergraft matrices
into three kinds (nonnegative diagonalizable, non-diagonalizable, negative
determinant).  Family decisions combine: an exact criterion for families
sharing one dominant eigenline, necessary conditions on the extended family
(all its members pass the spectral test, at most two non-diagonalizable
dominant lines with consistent orientation, dominant and non-dominant
eigenlines separated on the projective circle), and a candidate "big cone"
whose properness and avoidance conditions settle the general case.

A decision classifies each matrix of the extended family once, in
`necessary_conditions`, and its later steps read those frames from the
report; only the single-matrix helpers they call (`associated_sign`,
`is_invariant_cone_2x2`) classify their argument again.  The two-line
candidate is decided by that single-matrix catalog.  Every YES witness is
re-checked member by member with `cones.is_invariant`, which counts a
generator image within rounding of zero (||A g|| < 8 d eps ||A||) as the
zero vector, so a singular member whose kernel holds an edge passes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import decision as dd
from .cones import PolyhedralCone, _norm, conic_hull, is_invariant, is_proper, prune_generators, unit
from .decision import Decision
from .errors import (
    CollinearInput,
    ImproperCone,
    InternalInconsistency,
    PreconditionFailed,
)
from .linalg import DEFAULT_TOL, ToleranceConfig, as_square_matrix, pow2_scaled, square_family, unit_members

KIND_DIAG = "DiagNonneg"
KIND_NONDIAG = "NonDiag"
KIND_NEGDET = "NegDet"
KIND_NOT = "NotVandergraft"


@dataclass(frozen=True)
class EigenFrame2:
    """Case split of a 2x2 matrix driving the single-matrix cone catalog."""

    kind: str
    lam1: float | None
    lam2: float | None
    u1: np.ndarray | None
    u2: np.ndarray | None
    is_scalar: bool
    trace: float
    det: float


def _cross(a, b) -> float:
    return float(a[0]) * float(b[1]) - float(a[1]) * float(b[0])


def _perp(u: np.ndarray) -> np.ndarray:
    return np.array([-u[1], u[0]])


def line_angle(v) -> float:
    """Angle of the line through v, in [0, pi)."""
    a = math.atan2(v[1], v[0]) % math.pi
    return 0.0 if abs(a - math.pi) < 1e-15 else a


def _angles_equal(a: float, b: float, tol: float) -> bool:
    d = abs(a - b) % math.pi
    return min(d, math.pi - d) <= tol


def _dir(angle: float) -> np.ndarray:
    return np.array([math.cos(angle), math.sin(angle)])


def _scalar_defect(a: float, b: float, c: float, d: float) -> float:
    """||M - (t/2) I|| for M = [[a, b], [c, d]] of trace t."""
    h = (a + d) / 2.0
    return math.hypot(a - h, b, c, d - h)


def _in_float_range(a: float, b: float, c: float, d: float) -> bool:
    """Whether the largest entry is 0 or within 2^-400..2^400, so that products
    of two entries at its scale neither overflow nor underflow."""
    m = max(abs(a), abs(b), abs(c), abs(d))
    return not m or 2.0 ** -400 < m < 2.0 ** 400


def _negdet(a: float, b: float, c: float, d: float, eps: float) -> bool:
    """`classify2`'s NegDet test on the entries of [[a, b], [c, d]]."""
    s = math.hypot(a, b, c, d)
    return a * d - b * c < -eps * s * s


def _eigvec_2x2(a: float, b: float, c: float, d: float, lam: float) -> np.ndarray:
    """Unit eigenvector of [[a, b], [c, d]] for the real eigenvalue lam, from
    the larger row of A - lam I, signed as `linalg.fix_sign` signs it."""
    x, y = b, lam - a
    if x * x + y * y < (lam - d) * (lam - d) + c * c:
        x, y = lam - d, c
    n = math.sqrt(x * x + y * y)
    if n == 0.0:  # A = lam I: every vector is an eigenvector
        return np.array([1.0, 0.0])
    x, y = x / n, y / n
    if x < -1e-12 or (abs(x) <= 1e-12 and y < -1e-12):
        x, y = -x, -y
    return np.array([x, y])


def _ldexp(x: float | None, e: int) -> float | None:
    """x * 2^e (inf where that leaves the float range); None stays None."""
    with np.errstate(over="ignore"):
        return None if x is None else float(np.ldexp(x, e))


def classify2(A, tol: ToleranceConfig = DEFAULT_TOL) -> EigenFrame2:
    """Closed-form case split for a 2x2 matrix (never raises on bad spectra).

    The validated entries are read once and the case split is computed on
    them as Python floats.  With its largest entry outside 2^-400..2^400,
    t*t - 4d could underflow or overflow; such an A is first scaled by the
    power of two nearest 1/||A||, and the eigenvalues, trace and determinant
    are scaled back.
    """
    M = as_square_matrix(A)
    if M.shape[0] != 2:
        raise PreconditionFailed("classify2 expects a 2x2 matrix")
    a, b, c, d = M.ravel().tolist()
    if not _in_float_range(a, b, c, d):
        S, k = pow2_scaled(M)
        f = classify2(S, tol)
        return replace(f, lam1=_ldexp(f.lam1, -k), lam2=_ldexp(f.lam2, -k),
                       trace=_ldexp(f.trace, -k), det=_ldexp(f.det, -2 * k))
    t = a + d
    det = a * d - b * c
    s = math.hypot(a, b, c, d)
    eps = tol.eig_cluster_tol
    disc = t * t - 4.0 * det

    if t < -eps * s or disc < -eps * s * s:
        return EigenFrame2(KIND_NOT, None, None, None, None, False, t, det)

    if _scalar_defect(a, b, c, d) <= eps * s:
        return EigenFrame2(KIND_DIAG, t / 2.0, t / 2.0, None, None, True, t, det)

    negdet = _negdet(a, b, c, d, eps)
    if negdet or disc > eps * s * s:
        root = math.sqrt(max(disc, 0.0))
        lam1, lam2 = (t + root) / 2.0, (t - root) / 2.0
        return EigenFrame2(KIND_NEGDET if negdet else KIND_DIAG, lam1, lam2,
                           _eigvec_2x2(a, b, c, d, lam1), _eigvec_2x2(a, b, c, d, lam2), False, t, det)

    lam = t / 2.0
    return EigenFrame2(KIND_NONDIAG, lam, lam, _eigvec_2x2(a, b, c, d, lam), None, False, t, det)


def associated_sign(A, u, v, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Sign of x in A v = lam v + x u for a non-diagonalizable 2x2 A.

    `u` must span the eigenline of A; flipping either u or v flips the sign.
    """
    M = as_square_matrix(A)
    frame = classify2(M, tol)
    if frame.kind != KIND_NONDIAG:
        raise PreconditionFailed("associated_sign needs a non-diagonalizable Vandergraft matrix")
    (u0, u1), (v0, v1) = np.asarray(u, dtype=float).tolist(), np.asarray(v, dtype=float).tolist()
    nu = math.hypot(u0, u1)
    if abs(u0 * v1 - u1 * v0) <= tol.geom_tol * nu * math.hypot(v0, v1):
        raise CollinearInput("v lies on the eigenline of A")
    a, b, c, d = M.ravel().tolist()
    lam = frame.lam1
    if math.hypot((a - lam) * u0 + b * u1, c * u0 + (d - lam) * u1) > 1e-6 * math.hypot(a, b, c, d) * nu:
        raise PreconditionFailed("u is not an eigenvector of A")
    x = ((a - lam) * v0 + b * v1) * u0 + (c * v0 + (d - lam) * v1) * u1  # u . (A - lam I) v
    return 1 if x > 0 else -1


def _sector(K: PolyhedralCone, tol: ToleranceConfig):
    """Extreme generator pair (g1, g2) of a proper 2D cone, ccw-ordered."""
    P = prune_generators(K, tol)
    if P.num_generators != 2:
        raise ImproperCone(f"expected a proper 2D sector, got {P.num_generators} extreme rays")
    g1, g2 = P.generators
    if _cross(g1, g2) < 0:
        g1, g2 = g2, g1
    return g1, g2


def _in_sector(g1, g2, w, slack: float) -> bool:
    return _cross(g1, w) >= -slack and _cross(w, g2) >= -slack


def _strictly_in_sector(g1, g2, w, slack: float) -> bool:
    return _cross(g1, w) > slack and _cross(w, g2) > slack


def _line_hits_interior(g1, g2, v, slack: float) -> bool:
    return _strictly_in_sector(g1, g2, v, slack) or _strictly_in_sector(g1, g2, -v, slack)


def _coords(e1, e2, g) -> tuple[float, float]:
    """(x, y) with g = x e1 + y e2, by Cramer's rule."""
    det = _cross(e1, e2)
    return _cross(g, e2) / det, _cross(e1, g) / det


def is_invariant_cone_2x2(A, K: PolyhedralCone, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Single-matrix invariance via the 2x2 catalog (closed form, no oracle)."""
    M = as_square_matrix(A)
    frame = classify2(M, tol)
    if frame.kind == KIND_NOT:
        return False
    if frame.is_scalar:
        return frame.lam1 >= 0
    if not is_proper(K, tol):
        raise ImproperCone("is_invariant_cone_2x2 expects a proper cone")
    g1, g2 = _sector(K, tol)
    slack = tol.geom_tol

    if frame.kind == KIND_DIAG:
        has_dom = _in_sector(g1, g2, frame.u1, slack) or _in_sector(g1, g2, -frame.u1, slack)
        return has_dom and not _line_hits_interior(g1, g2, frame.u2, slack)

    if frame.kind == KIND_NONDIAG:
        for eig, other in ((g1, g2), (g2, g1)):
            if abs(_cross(eig, frame.u1)) <= slack:
                return associated_sign(M, eig, other, tol) > 0
        return False

    # Negative determinant: coefficients of the edges in the eigenbasis.
    a1, b1 = _coords(frame.u1, frame.u2, g1)
    a2, b2 = _coords(frame.u1, frame.u2, g2)
    if abs(a1) <= slack or abs(a2) <= slack or a1 * a2 < 0:
        return False
    c1, c2 = b1 / a1, b2 / a2
    if c1 < c2:
        c1, c2 = c2, c1
    if c1 <= slack or c2 >= -slack:
        return False
    r = c1 / c2
    lo = frame.lam1 / frame.lam2
    hi = frame.lam2 / frame.lam1
    return lo - slack <= r <= hi + slack


def make_invariant_cone(A, v, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[PolyhedralCone, bool]:
    """Cone{v, Av}, invariant whenever det A <= 0 <= trace A (Cayley-Hamilton).

    Returns the cone and a flag telling whether it is proper (it is not when
    v is an eigenvector of A).
    """
    M = as_square_matrix(A)
    frame = classify2(M, tol)
    s = math.hypot(*M.ravel().tolist())
    if frame.det > tol.eig_cluster_tol * s * s or frame.trace < -tol.eig_cluster_tol * s:
        raise PreconditionFailed("need det A <= 0 and trace A >= 0")
    w = np.asarray(v, dtype=float)
    img = M @ w
    if _norm(img) <= 1e-14 * s * _norm(w):
        K = conic_hull([w], dim=2, tol=tol)
    else:
        K = conic_hull([w, img], dim=2, tol=tol)
    return K, bool(is_proper(K, tol))


@dataclass(frozen=True)
class TaggedMatrix:
    matrix: np.ndarray
    label: str


def extended_family(family, tol: ToleranceConfig = DEFAULT_TOL) -> list[TaggedMatrix]:
    """Input family plus all non-scalar ordered products of its negative-determinant
    members (a product may be a positive power-of-two multiple of A_i A_j)."""
    mats = square_family(family)
    if mats[0].shape[0] != 2:
        raise PreconditionFailed("the 2x2 procedures need 2x2 matrices")
    tagged = [TaggedMatrix(M, f"A{i}") for i, M in enumerate(mats)]
    # Screen and multiply copies scaled by powers of two where entries could
    # overflow or underflow, as `classify2` does: each product is then a
    # finite positive multiple of A_i A_j, and unit-norm members pass unscaled.
    scaled = [M if _in_float_range(*M.ravel().tolist()) else pow2_scaled(M)[0] for M in mats]
    # `classify2`'s NegDet test and distance from a scalar matrix, on the entries as floats
    neg = [i for i, M in enumerate(scaled) if _negdet(*M.ravel().tolist(), tol.eig_cluster_tol)]
    for i in neg:
        for j in neg:
            P = scaled[i] @ scaled[j]
            entries = P.ravel().tolist()
            if _scalar_defect(*entries) > tol.geom_tol * math.hypot(*entries):
                tagged.append(TaggedMatrix(P, f"A{i}*A{j}"))
    return tagged


@dataclass(frozen=True)
class LinePoint:
    angle: float
    dominant_for: tuple[str, ...]
    nondominant_for: tuple[str, ...]
    nondominant_negdet: bool


@dataclass(frozen=True)
class NecessaryReport:
    failed: str | None                 # first failing certificate name, canonical order
    evidence: dict = field(default_factory=dict)
    # each admissible separation arc, in candidate order, with the close calls seen up to it
    arcs: tuple[tuple[tuple[float, float], tuple[str, ...]], ...] = ()
    points: tuple[LinePoint, ...] = ()
    # (angle, first member on the line, its frame) per non-diagonalizable dominant line
    nondiag_lines: tuple[tuple[float, TaggedMatrix, EigenFrame2], ...] = ()
    extended: tuple[TaggedMatrix, ...] = ()
    frames: tuple[EigenFrame2, ...] = ()    # one per extended member, members first
    close_calls: tuple[str, ...] = ()

    @property
    def all_ok(self) -> bool:
        return self.failed is None


def _orientation_groups(ext, frames, tol):
    """Distinct non-diagonalizable dominant lines with an orientation check."""
    lines: list[dict] = []
    conflict = None
    for tm, fr in zip(ext, frames):
        if fr.kind != KIND_NONDIAG:
            continue
        ang = line_angle(fr.u1)
        grp = next((g for g in lines if _angles_equal(g["angle"], ang, tol.geom_tol)), None)
        if grp is None:
            w = _perp(fr.u1)
            lines.append({"angle": ang, "rep": tm, "frame": fr, "probe": w,
                          "sign": associated_sign(tm.matrix, fr.u1, w, tol)})
        elif conflict is None and associated_sign(tm.matrix, grp["frame"].u1, grp["probe"], tol) != grp["sign"]:
            conflict = (grp["rep"].label, tm.label)
    return lines, conflict


def _collect_line_points(ext, frames, tol) -> list[LinePoint]:
    raw: list[dict] = []

    def slot(angle):
        for p in raw:
            if _angles_equal(p["angle"], angle, tol.geom_tol):
                return p
        p = {"angle": angle, "dom": [], "nondom": [], "negdet": False}
        raw.append(p)
        return p

    for tm, fr in zip(ext, frames):
        if fr.is_scalar or fr.kind == KIND_NOT:
            continue
        slot(line_angle(fr.u1))["dom"].append(tm.label)
        if fr.u2 is not None:
            p = slot(line_angle(fr.u2))
            p["nondom"].append(tm.label)
            if fr.kind == KIND_NEGDET:
                p["negdet"] = True
    return [
        LinePoint(p["angle"], tuple(p["dom"]), tuple(p["nondom"]), p["negdet"])
        for p in sorted(raw, key=lambda p: p["angle"])
    ]


def _separation_arcs(points: list[LinePoint], tol: ToleranceConfig):
    """Every closed arc holding every dominant line with no non-dominant line inside.

    Returns (arcs, close_calls): the admissible arcs in candidate order, each
    with the close calls seen up to it, and all close calls; no arc means
    failed separation.  A line that is simultaneously dominant and
    non-dominant for a negative-determinant member fails outright.
    """
    close: list[str] = []
    for p in points:
        if p.dominant_for and p.nondominant_for and p.nondominant_negdet:
            return [], [f"line at angle {p.angle:.6f} is dominant ({p.dominant_for}) and "
                        f"non-dominant for a negative-determinant member ({p.nondominant_for})"]
    dom = [p.angle for p in points if p.dominant_for]
    non = [p.angle for p in points if p.nondominant_for]
    if not dom:
        return [((0.0, 0.0), ())], close
    dom = sorted(dom)
    if len(dom) == 1:
        return [((dom[0], dom[0]), ())], close
    k = len(dom)
    candidates = [(dom[i + 1], dom[i] + math.pi) for i in range(k - 1)] + [(dom[0], dom[-1])]
    eps = tol.geom_tol
    arcs = []
    for start, end in candidates:
        ok = True
        for phi in non:
            psi = start + ((phi - start) % math.pi)
            if start + eps < psi < end - eps:
                ok = False
                break
            if abs(psi - start) <= 10 * eps or abs(psi - end) <= 10 * eps:
                close.append(f"non-dominant line {phi:.9f} within 10x tolerance of arc endpoint")
        if ok:
            arcs.append(((start, end), tuple(close)))
    return arcs, close


def necessary_conditions(family, tol: ToleranceConfig = DEFAULT_TOL) -> NecessaryReport:
    """The three necessary conditions on the extended family, in order."""
    ext = extended_family(family, tol)
    frames = [classify2(tm.matrix, tol) for tm in ext]
    known = {"extended": tuple(ext), "frames": tuple(frames)}

    bad = next((tm.label for tm, fr in zip(ext, frames) if fr.kind == KIND_NOT), None)
    if bad is not None:
        return NecessaryReport(dd.NOT_VANDERGRAFT_IN_A1, {"member": bad}, **known)

    lines, conflict = _orientation_groups(ext, frames, tol)
    if len(lines) > 2:
        return NecessaryReport(dd.TOO_MANY_NONDIAG_LINES, {"lines": [g["angle"] for g in lines]}, **known)
    if conflict is not None:
        return NecessaryReport(dd.ORIENTATION_CONFLICT, {"members": list(conflict)}, **known)

    points = _collect_line_points(ext, frames, tol)
    arcs, close = _separation_arcs(points, tol)
    known.update(points=tuple(points), nondiag_lines=tuple((g["angle"], g["rep"], g["frame"]) for g in lines))
    if not arcs:
        ev = {
            "dominant_angles": [p.angle for p in points if p.dominant_for],
            "nondominant_angles": [p.angle for p in points if p.nondominant_for],
        }
        if close:
            ev["conflict"] = close
        return NecessaryReport(dd.SEPARATION_FAILS, ev, **known)
    return NecessaryReport(None, {}, arcs=tuple(arcs), close_calls=arcs[0][1], **known)


def _proportional(M1: np.ndarray, M2: np.ndarray, tol: float) -> bool:
    f1, f2 = M1.ravel().tolist(), M2.ravel().tolist()
    n1, n2 = math.hypot(*f1), math.hypot(*f2)
    dot = f1[0] * f2[0] + f1[1] * f2[1] + f1[2] * f2[2] + f1[3] * f2[3]
    return abs(abs(dot) - n1 * n2) <= tol * n1 * n2


def _verify_witness(family, K, tol) -> list[dict]:
    checks = []
    for i, M in enumerate(family):
        rep = is_invariant(K, M, tol)
        if not rep.invariant:
            raise InternalInconsistency(f"constructed witness fails for member {i}")
        checks.append({"matrix": f"A{i}", "max_distance": rep.max_distance})
    return checks


def _canonical_flip(K: PolyhedralCone) -> PolyhedralCone:
    center = K.generators.sum(axis=0)
    for x in center:
        if abs(x) > 1e-12:
            if x < 0:
                return PolyhedralCone(K.dim, np.array(sorted(-K.generators, key=lambda v: tuple(v))))
            break
    return K


def _yes(family, K, tol, route_detail, extra=None) -> Decision:
    K = _canonical_flip(prune_generators(K, tol))
    cert = {"construction": route_detail, "checks": _verify_witness(family, K, tol)}
    if extra:
        cert.update(extra)
    return Decision(dd.YES, K, cert)


def _no(name, evidence) -> Decision:
    return Decision(dd.NO, None, {"failed_condition": name, "evidence": evidence})


def _shrink_cone(family, base_u, side_vec, extra_gens_of, avoid_angles, tol):
    """Narrow Cone{u, v, ...} toward u until the stated exclusions hold and
    the membership oracle certifies every member."""
    for t in range(60):
        delta = 0.1 * 0.5 ** t
        v = unit(math.cos(delta) * base_u + math.sin(delta) * side_vec)
        gens = [base_u, v] + [g for g in extra_gens_of(v)]
        K = prune_generators(conic_hull(gens, dim=2, tol=tol), tol)
        if not is_proper(K, tol):
            continue
        try:
            g1, g2 = _sector(K, tol)
        except ImproperCone:
            continue
        if any(_line_hits_interior(g1, g2, _dir(a), tol.geom_tol) for a in avoid_angles):
            continue
        if all(is_invariant(K, M, tol).invariant for M in family):
            return K, delta
    return None, None


def _shares_dominant_line(frames, tol: ToleranceConfig) -> bool:
    angles = [line_angle(fr.u1) for fr in frames if not fr.is_scalar]
    return all(_angles_equal(angles[0], a, tol.geom_tol) for a in angles)


def decide_shared_dominant_2x2(family, tol: ToleranceConfig = DEFAULT_TOL) -> Decision:
    """Exact decision for 2x2 Vandergraft families sharing a dominant eigenline."""
    mats = unit_members(family)
    report = necessary_conditions(mats, tol)
    frames = report.frames[:len(mats)]
    if any(fr.kind == KIND_NOT for fr in frames):
        raise PreconditionFailed("family members must all be Vandergraft matrices")
    if all(fr.is_scalar for fr in frames):
        return _yes(mats, conic_hull([[1, 0], [0, 1]], tol=tol), tol, "scalar family; any proper cone works")
    if not _shares_dominant_line(frames, tol):
        raise PreconditionFailed("no common dominant eigenvector")
    return _decide_shared_line(mats, report, tol)


def _decide_shared_line(mats, report: NecessaryReport, tol: ToleranceConfig) -> Decision:
    """The exact criterion for unit Vandergraft members, not all scalar, that
    share one dominant line; member and product frames come from `report`."""
    frames = report.frames[:len(mats)]
    live = [(i, fr) for i, fr in enumerate(frames) if not fr.is_scalar]
    u = live[0][1].u1
    nd = [i for i, fr in live if fr.kind == KIND_NONDIAG]
    neg = [i for i, fr in live if fr.kind == KIND_NEGDET]
    tz = [i for i in neg if abs(frames[i].trace) <= tol.eig_cluster_tol]

    if not nd:
        bad_pair = next(
            ((i, j) for i, j in itertools.combinations(tz, 2)
             if not _proportional(mats[i], mats[j], tol.geom_tol)),
            None,
        )
        if bad_pair is not None:
            return _no(dd.NEG_DET_TRACE_ZERO_CONFLICT,
                       {"members": [f"A{bad_pair[0]}", f"A{bad_pair[1]}"],
                        "reason": "independent negative-determinant members with zero trace"})
        # the non-dominant lines of the members and of their non-scalar NegDet products
        avoid = [line_angle(frames[i].u2) for i, fr in live if i not in neg]
        avoid += [line_angle(fr.u2) for fr in report.frames[len(mats):] if not fr.is_scalar and fr.u2 is not None]
        for side in (_perp(u), -_perp(u)):
            K, delta = _shrink_cone(mats, u, side,
                                    lambda v: [mats[i] @ v for i in neg],
                                    avoid, tol)
            if K is not None:
                return _yes(mats, K, tol, "shared dominant line, diagonalizable members",
                            {"delta": delta})
        raise InternalInconsistency("narrowing failed although the criterion holds")

    if neg:
        return _no(dd.NONDIAG_WITH_NEG_DET,
                   {"members": [f"A{nd[0]}", f"A{neg[0]}"],
                    "reason": "non-diagonalizable member together with a negative-determinant member"})

    w = _perp(u)
    signs = [(i, associated_sign(mats[i], u, w, tol)) for i in nd]
    if len({s for _, s in signs}) > 1:
        i = signs[0][0]
        j = next(k for k, s in signs if s != signs[0][1])
        return _no(dd.ORIENTATION_CONFLICT,
                   {"members": [f"A{i}", f"A{j}"],
                    "reason": "shared dominant eigenline with opposite orientation"})
    side = signs[0][1] * w
    avoid = [line_angle(fr.u2) for i, fr in live if fr.kind == KIND_DIAG]
    K, delta = _shrink_cone(mats, u, side, lambda v: [], avoid, tol)
    if K is None:
        raise InternalInconsistency("narrowing failed although the criterion holds")
    return _yes(mats, K, tol, "shared dominant line, consistent orientation", {"delta": delta})


def _choose_directions(report: NecessaryReport, arc: tuple[float, float], tol: ToleranceConfig):
    """Directions for the distinct dominant lines, fixed by a separation arc."""
    start, end = arc
    dirs = []
    for p in report.points:
        if not p.dominant_for:
            continue
        psi = start + ((p.angle - start) % math.pi)
        if psi > end + 10 * tol.geom_tol:
            raise InternalInconsistency("dominant line escaped the separation arc")
        dirs.append((psi, _dir(psi)))
    dirs.sort(key=lambda t: t[0])
    return [d for _, d in dirs]


def _decide_two_lines(mats, report, tol) -> Decision:
    """The only candidate is the cone between the two non-diagonalizable
    dominant lines, oriented by their associated signs; it is a witness iff
    the single-matrix catalog accepts it for every member."""
    (_, tm1, fr1), (l2, tm2, _) = sorted(report.nondiag_lines, key=lambda line: line[0])
    u1 = fr1.u1
    d2 = _dir(l2)
    if associated_sign(tm1.matrix, u1, d2, tol) < 0:
        d2 = -d2
    if associated_sign(tm2.matrix, d2, u1, tol) < 0:
        return _no(dd.ORIENTATION_CONFLICT,
                   {"members": [tm1.label, tm2.label],
                    "reason": "the two non-diagonalizable dominant directions are not mutually positively associated"})
    K = conic_hull([u1, d2], dim=2, tol=tol)
    bad = next((i for i, M in enumerate(mats) if not is_invariant_cone_2x2(M, K, tol)), None)
    if bad is not None:
        return _no(dd.TWO_LINE_CONDITION_FAILS, {"member": f"A{bad}", "kind": report.frames[bad].kind})
    extra = {"close_calls": list(report.close_calls)} if report.close_calls else None
    return _yes(mats, K, tol, "two non-diagonalizable dominant lines; unique candidate pair", extra)


def _decide_big_cone(mats, report: NecessaryReport, arc, close, tol: ToleranceConfig) -> Decision:
    """The candidate of at most one non-diagonalizable dominant line: the
    cone over the dominant directions that `arc` fixes and their images under
    the negative-determinant members, tested against the big-cone conditions."""
    z = len(report.nondiag_lines)
    frames = report.frames[:len(mats)]
    dirs = _choose_directions(report, arc, tol)
    neg = [i for i, fr in enumerate(frames) if fr.kind == KIND_NEGDET]
    gens = list(dirs) + [mats[i] @ u for i in neg for u in dirs]
    K = prune_generators(conic_hull(gens, dim=2, tol=tol), tol)

    prop = is_proper(K, tol)
    if not prop:
        return _no(dd.BIG_CONE_IMPROPER, {"diagnosis": prop.diagnosis})
    g1, g2 = _sector(K, tol)
    for p in report.points:
        if p.nondominant_for and _line_hits_interior(g1, g2, _dir(p.angle), tol.geom_tol):
            return _no(dd.BIG_CONE_HITS_NON_DOMINANT,
                       {"angle": p.angle, "members": list(p.nondominant_for)})
    close = list(close)
    for i in neg:
        for w in (frames[i].u1, frames[i].u2):
            for edge in (g1, g2):
                c = abs(_cross(edge, w))
                if c <= tol.geom_tol:
                    return _no(dd.BIG_CONE_EDGE_COLLISION,
                               {"member": f"A{i}", "eigenvector": w.tolist()})
                if c <= 10 * tol.geom_tol:
                    close.append(f"edge nearly collinear with an eigenvector of A{i}")

    if z == 1:
        ang, tm, _ = report.nondiag_lines[0]
        u1dir = next(d for d in dirs if _angles_equal(line_angle(d), ang, tol.geom_tol))
        if _line_hits_interior(g1, g2, u1dir, tol.geom_tol):
            return _no(dd.ORIENTATION_CONFLICT,
                       {"member": tm.label,
                        "reason": "non-diagonalizable dominant line meets the interior of the candidate cone"})
        mid = unit(g1 + g2)
        if abs(_cross(u1dir, mid)) <= tol.geom_tol or associated_sign(tm.matrix, u1dir, mid, tol) < 0:
            return _no(dd.ORIENTATION_CONFLICT,
                       {"member": tm.label,
                        "reason": "candidate interior is not positively associated with the dominant direction"})

    extra = {"close_calls": close} if close else None
    return _yes(mats, K, tol, "big cone over dominant directions and their images", extra)


def decide_common_2x2(family, tol: ToleranceConfig = DEFAULT_TOL) -> Decision:
    """Decide whether a finite 2x2 family has a common invariant proper cone.

    Emits one witness cone on YES (re-verified member by member with the
    membership oracle) and a named failed condition with concrete members on
    NO.  Members are scaled to unit norm first, so the answer does not
    depend on their scale.
    """
    mats = unit_members(family)
    report = necessary_conditions(mats, tol)
    frames = report.frames[:len(mats)]

    if any(fr.kind == KIND_NOT for fr in frames):  # the report names the first such member
        return _no(report.failed, report.evidence)
    if all(fr.is_scalar for fr in frames):
        return _yes(mats, conic_hull([[1, 0], [0, 1]], tol=tol), tol,
                    "all members are nonnegative scalar matrices")
    if _shares_dominant_line(frames, tol):
        return _decide_shared_line(mats, report, tol)
    if not report.all_ok:
        return _no(report.failed, report.evidence)

    if len(report.nondiag_lines) == 2:
        return _decide_two_lines(mats, report, tol)
    # Each admissible separation arc gives one candidate; when none passes,
    # the first arc's NO stands.
    decisions = (_decide_big_cone(mats, report, arc, close, tol) for arc, close in report.arcs)
    first = next(decisions)
    return first if first.answer == dd.YES else next((d for d in decisions if d.answer == dd.YES), first)


def minimal_bad_subfamily(family, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[int, ...]:
    """Smallest subfamily (size order, then lexicographic) still deciding NO."""
    full = decide_common_2x2(family, tol)
    if full.answer != dd.NO:
        raise PreconditionFailed("family has a common invariant cone; nothing to minimize")
    n = len(family)
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            if decide_common_2x2([family[i] for i in combo], tol).answer == dd.NO:
                return combo
    raise InternalInconsistency("full family decided NO but no subfamily does")


def search_common_cone(family, num_candidates: int = 10_000, seed: int = 0,
                       tol: ToleranceConfig = DEFAULT_TOL):
    """Randomized refutation search over candidate two-generator cones.

    Candidates are all eigen-direction pairs plus seeded random direction
    pairs; a candidate survives when every family member maps both of its
    generators back into it (closed-form 2D membership, independent of the
    decision procedure).  Returns a surviving cone or None.
    """
    mats = unit_members(family)
    frames = [classify2(M, tol) for M in mats]
    eig_dirs = []
    for fr in frames:
        for v in (fr.u1, fr.u2):
            if v is not None:
                eig_dirs.extend([v, -v])
    if eig_dirs:
        E = np.array(eig_dirs)
        ii, jj = np.triu_indices(len(eig_dirs), k=1)
        E1, E2 = E[ii], E[jj]
    else:
        E1 = E2 = np.empty((0, 2))

    rng = np.random.default_rng(seed)
    extra = max(0, num_candidates - len(E1))
    ang = rng.uniform(0.0, 2.0 * np.pi, size=(extra, 2))
    V1 = np.vstack([E1, np.column_stack([np.cos(ang[:, 0]), np.sin(ang[:, 0])])])
    V2 = np.vstack([E2, np.column_stack([np.cos(ang[:, 1]), np.sin(ang[:, 1])])])

    cr = V1[:, 0] * V2[:, 1] - V1[:, 1] * V2[:, 0]
    mask = np.abs(cr) > 1e-9
    sgn = np.sign(cr)
    eps = 1e-12
    for M in mats:
        for G in (V1, V2):
            W = G @ M.T
            t1 = (V1[:, 0] * W[:, 1] - V1[:, 1] * W[:, 0]) * sgn
            t2 = (W[:, 0] * V2[:, 1] - W[:, 1] * V2[:, 0]) * sgn
            mask &= (t1 >= -eps) & (t2 >= -eps)
        if not mask.any():
            return None
    idx = int(np.flatnonzero(mask)[0])
    return conic_hull([V1[idx], V2[idx]], dim=2, tol=tol)

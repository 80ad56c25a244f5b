"""Static SVG diagnostics for 2x2 families: eigenlines and the witness sector.

The SVG is assembled by hand with fixed float formatting so that identical
inputs produce byte-identical files.
"""

from __future__ import annotations

import numpy as np

from .cones import PolyhedralCone, prune_generators
from .errors import DimensionMismatch
from .fixtures import FamilyData
from .linalg import DEFAULT_TOL
from .planar import KIND_NOT, _sector, classify2

_SIZE = 420.0
_CENTER = _SIZE / 2.0
_RADIUS = 180.0


def _fmt(x: float) -> str:
    v = 0.0 if abs(x) < 5e-5 else float(x)
    return f"{v:.4f}"


def _pt(v) -> tuple[float, float]:
    return (_CENTER + _RADIUS * v[0], _CENTER - _RADIUS * v[1])


def _line_through(v, style: str, label: str | None) -> list[str]:
    x1, y1 = _pt(v)
    x2, y2 = _pt(-np.asarray(v))
    out = [f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" {style}/>']
    if label:
        lx, ly = _pt(1.08 * np.asarray(v))
        out.append(f'<text x="{_fmt(lx)}" y="{_fmt(ly)}" font-size="11" fill="#333">{label}</text>')
    return out


def _sector_path(g1, g2) -> str:
    a1 = np.arctan2(g1[1], g1[0])
    a2 = np.arctan2(g2[1], g2[0])
    sweep = (a2 - a1) % (2.0 * np.pi)
    x1, y1 = _pt(g1)
    x2, y2 = _pt(g2)
    large = 1 if sweep > np.pi else 0
    return (f'<path d="M {_fmt(_CENTER)} {_fmt(_CENTER)} L {_fmt(x1)} {_fmt(y1)} '
            f'A {_fmt(_RADIUS)} {_fmt(_RADIUS)} 0 {large} 0 {_fmt(x2)} {_fmt(y2)} Z" '
            'fill="#8dc6ff" fill-opacity="0.45" stroke="#1f77b4" stroke-width="1.5"/>')


def render_family_svg(family: FamilyData, decision: dict | None = None) -> str:
    """Eigenline figure (dominant solid, non-dominant dashed) plus the witness sector.

    `decision` is a decision file as `schemas.decision_from_json` parses it;
    a polyhedral witness is drawn as the sector between its two edges.
    """
    if family.dimension != 2:
        raise DimensionMismatch("plots are available for dimension 2 only")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(_SIZE)}" height="{int(_SIZE)}" '
        f'viewBox="0 0 {int(_SIZE)} {int(_SIZE)}">',
        f'<rect width="{int(_SIZE)}" height="{int(_SIZE)}" fill="white"/>',
        f'<circle cx="{_fmt(_CENTER)}" cy="{_fmt(_CENTER)}" r="{_fmt(_RADIUS)}" '
        'fill="none" stroke="#dddddd"/>',
    ]

    K = (decision or {}).get("witness_cone")
    if K is not None and K.dim != 2:
        raise DimensionMismatch("the decision's witness is not a 2-dimensional cone")
    if isinstance(K, PolyhedralCone):
        K = prune_generators(K)
        if K.num_generators == 2:
            parts.append(_sector_path(*_sector(K)))

    labels = family.labels or tuple(f"A{i}" for i in range(len(family.matrices)))
    for M, name in zip(family.matrices, labels):
        frame = classify2(M, DEFAULT_TOL)
        if frame.kind == KIND_NOT or frame.is_scalar:
            continue
        parts += _line_through(frame.u1, 'stroke="#d62728" stroke-width="2"', f"{name}:dom")
        if frame.u2 is not None:
            parts += _line_through(
                frame.u2, 'stroke="#7f7f7f" stroke-width="1.2" stroke-dasharray="6 4"', f"{name}:sub"
            )

    answer = (decision or {}).get("answer")
    if answer:
        parts.append(f'<text x="10" y="20" font-size="13" fill="#000">decision: {answer}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

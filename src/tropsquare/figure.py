"""Static SVG rendering of an up-set, its hull, and evaluation lines.

Output is deterministic for a fixed spec: stable element order, fixed
formatting, no timestamps.  Palette (documented rather than configurable):
region cells pale yellow, hull chain green, diagonal evaluation line red,
sloped evaluation line blue, generators dark dots.
"""

from __future__ import annotations

from dataclasses import dataclass

from .correspondence import evaluate
from .errors import WindowTooSmall
from .hereditary import HereditarySet
from .polygon import convex_closure
from .scalars import INF, as_scalar

ALL_LAYERS = frozenset({"region", "hull", "mu_line", "lambda_line"})

_CELL = 28
_MARGIN = 24

_REGION_FILL = "#f2d88a"
_HULL_STROKE = "#2e8b57"
_MU_STROKE = "#cc3333"
_LAMBDA_STROKE = "#3366cc"
_GRID_STROKE = "#cccccc"
_POINT_FILL = "#555533"


@dataclass(frozen=True)
class FigureSpec:
    region: HereditarySet
    lam: object = None  # optional slope for the lambda_line layer
    window: int = 10
    layers: frozenset = ALL_LAYERS


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def emit_figure(spec: FigureSpec) -> str:
    """Render the spec to an SVG 1.1 document string."""
    unknown = set(spec.layers) - ALL_LAYERS
    if unknown:
        raise ValueError(f"unknown layers: {sorted(unknown)}")
    w = spec.window
    if w < 1 + spec.region.max_coordinate():
        raise WindowTooSmall(
            f"window {w} must exceed the largest generator coordinate "
            f"{spec.region.max_coordinate()}"
        )

    size = 2 * _MARGIN + w * _CELL

    def px(x: float) -> float:
        return _MARGIN + x * _CELL

    def py(y: float) -> float:
        return _MARGIN + (w - y) * _CELL

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">',
        f'<rect x="0" y="0" width="{size}" height="{size}" fill="#ffffff"/>',
    ]

    if "region" in spec.layers:
        for a, row in enumerate(spec.region.rasterize(w)):
            for b, member in enumerate(row):
                if member:
                    lines.append(
                        f'<rect x="{_fmt(px(a))}" y="{_fmt(py(b + 1))}" '
                        f'width="{_CELL}" height="{_CELL}" fill="{_REGION_FILL}"/>'
                    )

    for k in range(w + 1):
        lines.append(
            f'<line x1="{_fmt(px(k))}" y1="{_fmt(py(0))}" x2="{_fmt(px(k))}" '
            f'y2="{_fmt(py(w))}" stroke="{_GRID_STROKE}" stroke-width="1"/>'
        )
        lines.append(
            f'<line x1="{_fmt(px(0))}" y1="{_fmt(py(k))}" x2="{_fmt(px(w))}" '
            f'y2="{_fmt(py(k))}" stroke="{_GRID_STROKE}" stroke-width="1"/>'
        )

    if "mu_line" in spec.layers:
        t = spec.region.min_degree()
        if t is not INF and t <= 2 * w:
            x0, y0 = max(0, t - w), min(t, w)
            lines.append(
                f'<line x1="{_fmt(px(x0))}" y1="{_fmt(py(y0))}" '
                f'x2="{_fmt(px(y0))}" y2="{_fmt(py(x0))}" '
                f'stroke="{_MU_STROKE}" stroke-width="2"/>'
            )

    if "lambda_line" in spec.layers and spec.lam is not None:
        elem = evaluate(spec.region, spec.lam)
        if not elem.is_zero:
            lam_f = float(as_scalar(spec.lam))
            alpha_f = float(elem.alpha)
            # clip lam*x + y = alpha to the window box
            pts = []
            for x in (0.0, float(w)):
                y = alpha_f - lam_f * x
                if 0 <= y <= w:
                    pts.append((x, y))
            for y in (0.0, float(w)):
                x = (alpha_f - y) / lam_f
                if 0 < x < w:
                    pts.append((x, y))
            pts = sorted(set(pts))
            if len(pts) >= 2:
                (x0, y0), (x1, y1) = pts[0], pts[-1]
                lines.append(
                    f'<line x1="{_fmt(px(x0))}" y1="{_fmt(py(y0))}" '
                    f'x2="{_fmt(px(x1))}" y2="{_fmt(py(y1))}" '
                    f'stroke="{_LAMBDA_STROKE}" stroke-width="2"/>'
                )

    if "hull" in spec.layers:
        hull = convex_closure(spec.region)
        if not hull.is_zero:
            chain = [(hull.vertices[0][0], w), *hull.vertices, (w, hull.vertices[-1][1])]
            coords = " ".join(f"{_fmt(px(a))},{_fmt(py(b))}" for a, b in chain)
            lines.append(
                f'<polyline points="{coords}" fill="none" '
                f'stroke="{_HULL_STROKE}" stroke-width="2"/>'
            )
            for a, b in hull.vertices:
                lines.append(
                    f'<circle cx="{_fmt(px(a))}" cy="{_fmt(py(b))}" r="4" '
                    f'fill="{_HULL_STROKE}"/>'
                )

    if "region" in spec.layers:
        for a, b in spec.region.generators:
            lines.append(
                f'<circle cx="{_fmt(px(a))}" cy="{_fmt(py(b))}" r="2.5" '
                f'fill="{_POINT_FILL}"/>'
            )

    lines.append("</svg>")
    return "\n".join(lines) + "\n"

"""Overlay arc diagrams: a partition and its image on one strip.

Image vertices 1..n+1 sit on the baseline at even abscissas 2(j-1); source
vertices 1..n sit one unit up at odd abscissas 2i-1, interleaved.  Arcs are
integer tent polylines with apex height equal to half the arc width, so the
tent of every nontrivial source arc (x, y) meets the tent of its image arc
(x, y+1) at the exact same apex: extending the source arc's lines yields
the image arc.  Loops are drawn as unit tents over their vertex.
"""
from __future__ import annotations

import re
from typing import NamedTuple

from .arcs import Arc, _arcs
from .bijection import image_n
from .errors import OutOfRange
from .partition import PartialPartition

SOURCE = "source"
IMAGE = "image"

#: A colour goes into the SVG's <style> as is, so only these forms pass.
_COLOR = re.compile(r"#[0-9A-Fa-f]+|[A-Za-z]+")


class ArcGeometry(NamedTuple):
    layer: str  # source (the input partition) or image (its forward map)
    arc: Arc
    points: tuple[tuple[int, int], ...]

    @property
    def apex(self) -> tuple[int, int]:
        return self.points[1]


def render_strip_coordinates(p: PartialPartition) -> list[ArcGeometry]:
    """Tent polylines for the enhanced arcs of p and the classical arcs of
    forward(p), in shared strip coordinates.

    The image arcs are the source's enhanced arcs (x, y) moved to (x, y+1),
    which is the paper's statement, so forward(p) itself is never built.
    """
    image_n(p)  # raises as forward(p) would when the image passes MAX_N
    source = _arcs(p.labels, True)
    out = []
    for a in source:
        x, y = a
        if x == y:
            pts = ((2 * x - 2, 1), (2 * x - 1, 2), (2 * x, 1))
        else:
            pts = ((2 * x - 1, 1), (x + y - 1, y - x + 1), (2 * y - 1, 1))
        out.append(ArcGeometry(SOURCE, a, pts))
    for x, y in source:
        pts = ((2 * x - 2, 0), (x + y - 1, y - x + 1), (2 * y, 0))
        out.append(ArcGeometry(IMAGE, Arc(x, y + 1), pts))
    return out


def render_overlay(
    p: PartialPartition,
    scale: int = 24,
    source_color: str = "#2b6cb0",
    image_color: str = "#000000",
) -> str:
    """Standalone SVG overlay of p and forward(p); byte-stable per input.

    A colour is ``#`` plus hex digits or a plain colour name.
    """
    for color in (source_color, image_color):
        if not _COLOR.fullmatch(color):
            raise OutOfRange(f"colour must be # plus hex digits or a name, got {color!r}")
    geoms = render_strip_coordinates(p)
    n1 = p.n + 1
    top = max((g.apex[1] for g in geoms), default=1) + 1
    width = 2 * n1 * scale
    height = (top + 2) * scale
    # Strip point (x, y) is drawn at ((x + 1) * scale, (top + 1 - y) * scale),
    # a margin of one scale all round; X and Y hold that map as text.
    X = [str((x + 1) * scale) for x in range(2 * n1 - 1)]
    Y = [str((top + 1 - y) * scale) for y in range(top + 1)]

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<style>.source-arc{{stroke:{source_color};stroke-width:2;'
        f'stroke-dasharray:6 4;fill:none}}'
        f'.image-arc{{stroke:{image_color};stroke-width:2;fill:none}}'
        f'.baseline-vertex{{fill:{image_color}}}'
        f'.source-vertex{{fill:{source_color}}}'
        f".label{{font:italic {scale // 2}px serif;text-anchor:middle}}</style>",
    ]
    for layer, _, ((ax, ay), (bx, by), (cx, cy)) in geoms:
        lines.append(
            f'<polyline class="{layer}-arc" '
            f'points="{X[ax]},{Y[ay]} {X[bx]},{Y[by]} {X[cx]},{Y[cy]}"/>'
        )
    label_y = (top + 1) * scale + scale // 2 + 8
    for j in range(1, n1 + 1):
        cx = X[2 * j - 2]
        lines.append(f'<circle class="baseline-vertex" cx="{cx}" cy="{Y[0]}" r="4"/>')
        lines.append(f'<text class="label" x="{cx}" y="{label_y}">{j}</text>')
    for i in range(1, p.n + 1):
        lines.append(f'<circle class="source-vertex" cx="{X[2 * i - 1]}" cy="{Y[1]}" r="4"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"

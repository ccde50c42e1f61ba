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
from dataclasses import dataclass

from .arcs import Arc, arcs_classical, arcs_enhanced
from .bijection import forward
from .errors import OutOfRange
from .partition import PartialPartition

SOURCE = "source"
IMAGE = "image"

#: A colour goes into the SVG's <style> as is, so only these forms pass.
_COLOR = re.compile(r"#[0-9A-Fa-f]+|[A-Za-z]+")


@dataclass(frozen=True)
class ArcGeometry:
    layer: str  # source (the input partition) or image (its forward map)
    arc: Arc
    points: tuple[tuple[int, int], ...]

    @property
    def apex(self) -> tuple[int, int]:
        return self.points[1]


def _image_arc_points(arc: Arc) -> tuple[tuple[int, int], ...]:
    x, y = arc.left, arc.right
    return ((2 * x - 2, 0), (x + y - 2, y - x), (2 * y - 2, 0))


def _source_arc_points(arc: Arc) -> tuple[tuple[int, int], ...]:
    x, y = arc.left, arc.right
    if arc.is_loop:
        return ((2 * x - 2, 1), (2 * x - 1, 2), (2 * x, 1))
    return ((2 * x - 1, 1), (x + y - 1, y - x + 1), (2 * y - 1, 1))


def render_strip_coordinates(p: PartialPartition) -> list[ArcGeometry]:
    """Tent polylines for the enhanced arcs of p and the classical arcs of
    forward(p), in shared strip coordinates."""
    out = [ArcGeometry(SOURCE, a, _source_arc_points(a)) for a in arcs_enhanced(p)]
    out += [ArcGeometry(IMAGE, a, _image_arc_points(a)) for a in arcs_classical(forward(p))]
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
    margin = scale
    top = max((g.apex[1] for g in geoms), default=1) + 1
    width = 2 * (n1 - 1) * scale + 2 * margin
    height = top * scale + 2 * margin

    def sx(x: int) -> int:
        return margin + x * scale

    def sy(y: int) -> int:
        return margin + (top - 1 - y) * scale + scale

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
    for g in geoms:
        pts = " ".join(f"{sx(x)},{sy(y)}" for x, y in g.points)
        lines.append(f'<polyline class="{g.layer}-arc" points="{pts}"/>')
    for j in range(1, n1 + 1):
        cx = sx(2 * (j - 1))
        lines.append(f'<circle class="baseline-vertex" cx="{cx}" cy="{sy(0)}" r="4"/>')
        lines.append(f'<text class="label" x="{cx}" y="{sy(0) + scale // 2 + 8}">{j}</text>')
    for i in range(1, p.n + 1):
        lines.append(
            f'<circle class="source-vertex" cx="{sx(2 * i - 1)}" cy="{sy(1)}" r="4"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
